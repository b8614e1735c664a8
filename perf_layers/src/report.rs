//! The run report: correctness tally, metrics and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::Opts;

/// End-to-end metrics (`--trace 0`): name and unit, as in
/// `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit, as in
/// `BENCHMARK.json`. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.trial.train_us", "us"),
    ("core.trial.trigger_us", "us"),
    ("core.trial.reset_us", "us"),
    ("core.trial.prime_us", "us"),
    ("core.trial.probe_us", "us"),
    ("uarch.ns_per_inst", "ns"),
    ("uarch.retired_per_trial", "count"),
    ("kernel.syscalls_per_trial", "count"),
    ("uarch.sim_cycles_per_trial", "count"),
    ("uarch.block_hit_ratio", "ratio"),
    ("tlb.dtlb_misses_per_trial", "count"),
    ("qarma.evals_per_trial", "count"),
    ("runner.queue_wait_us", "us"),
    ("runner.busy_frac", "ratio"),
    ("core.pool.lease_us", "us"),
    ("core.evict.build_us", "us"),
    ("core.system.boot_ms", "ms"),
    ("core.pool.fresh_boots_per_job", "count"),
    ("core.pool.reboots_per_job", "count"),
    ("daemon.accept_ms_p50", "ms"),
    ("daemon.wait_ms_p50", "ms"),
    ("daemon.run_ms_p50.oracle", "ms"),
    ("daemon.run_ms_p50.brute", "ms"),
    ("daemon.run_ms_p50.census", "ms"),
    ("core.job_ms.oracle", "ms"),
    ("core.job_ms.brute", "ms"),
    ("core.job_ms.census", "ms"),
    ("daemon.protocol.parse_us", "us"),
    ("daemon.protocol.encode_us", "us"),
    ("daemon.records_per_job", "count"),
    ("daemon.bytes_per_job", "bytes"),
    ("daemon.snapshot.bytes", "bytes"),
    ("daemon.snapshot.encode_ms", "ms"),
    ("daemon.snapshot.decode_ms", "ms"),
    ("daemon.snapshot.write_ms", "ms"),
    ("daemon.checkpoints_per_1k_jobs", "count"),
    ("trace.coverage", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overattributed_frac", "ratio"),
    ("trace.overhead_per_s", "1/s"),
    ("trace.twin_trials", "count"),
    ("trace.twin_mismatches", "count"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (campaigns or jobs, plus check probes).
    pub attempted: u64,
    /// Operations that failed or produced an incorrect output.
    pub failed: u64,
    /// One line per failed check (printed to stderr).
    pub failures: Vec<String>,
    /// Measured metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable detail lines (breakdowns, sample counts).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a check: counts one attempt, and a failure with `what`
    /// unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Sets a metric that must be one of [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Adds a human-readable detail line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The metric table for this run's mode: every end-to-end metric
    /// (`--trace 0`) or every per-layer metric (`--trace 1`). A missing
    /// end-to-end value is an error; a per-layer value the workload does
    /// not measure reads 0.
    fn table(&mut self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let mut out = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let v = self.values.get(name).copied();
            let v = match v {
                Some(v) if v.is_finite() => v,
                Some(_) | None if trace => 0.0,
                _ => {
                    self.failed += 1;
                    self.failures.push(format!("end-to-end metric {name} was not measured"));
                    0.0
                }
            };
            out.push((name, unit, v));
        }
        out
    }

    /// Prints the human summary, then the JSON result as the last line.
    pub fn print(mut self, opts: &Opts) {
        let table = self.table(opts.trace);
        let mode = if opts.trace { "traced" } else { "untraced" };
        println!("perf_layers {} seed={} {mode}", opts.workload, opts.seed);
        for line in &self.notes {
            println!("  {line}");
        }
        for (name, unit, v) in &table {
            println!("  {name:<34} {v:>14.4} {unit}");
        }
        let attempted = self.attempted.max(1);
        println!(
            "  {:<34} {:>14.6} ({} failed / {} attempted)",
            "error_rate",
            self.failed as f64 / attempted as f64,
            self.failed,
            attempted
        );
        for f in &self.failures {
            eprintln!("perf_layers: CHECK FAILED: {f}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.failed
        );
        for (i, (name, unit, v)) in table.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_telemetry::json::{parse, Value};

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = v.get(key) else { panic!("{key} missing") };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)]| {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>()
        };
        assert_eq!(names(&v, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&v, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn a_failed_check_raises_the_error_rate() {
        let mut r = Report::default();
        r.check(true, || unreachable!());
        r.check(false, || "fingerprint mismatch".into());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.failures, vec!["fingerprint mismatch".to_string()]);
    }

    #[test]
    fn a_missing_end_to_end_metric_fails_the_run() {
        let mut r = Report::default();
        r.set("setup_s", 0.5);
        let t = r.table(false);
        assert_eq!(t.len(), END_TO_END.len());
        assert_eq!(r.failed as usize, END_TO_END.len() - 1);
        let mut r = Report::default();
        let t = r.table(true);
        assert!(t.iter().all(|m| m.2 == 0.0));
        assert_eq!(r.failed, 0, "an unexercised layer reads 0, not a failure");
    }
}
