//! `perf_layers`: the layered benchmark of the PACMAN reproduction.
//!
//! ```text
//! perf_layers --workload <oracle_campaign|service_mix|service_durable>
//!             --seed <n> --seconds <s> --trace <0|1> --cli <pacman-cli>
//! perf_layers --record-fingerprints <first-last,...>  > perf_layers/fingerprints.jsonl
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! tracing; with `--trace 1` it times the calls into each layer's public
//! functions from this crate and reports the per-layer metrics. Either
//! way it checks the program's outputs, prints a human summary, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. See `README.md` beside this crate for the workloads and
//! the metric map.

mod campaign;
mod report;
mod service;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// Parsed command line.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// The `pacman-cli` binary the service workloads launch.
    pub cli: Option<PathBuf>,
    /// Internal: one cold oracle campaign in a fresh process.
    pub setup_probe: bool,
    /// Seeds whose `oracle_campaign` fingerprints to print.
    pub record: Option<Vec<u64>>,
}

/// Parses a seed list such as `0-255,4242`.
fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    let mut seeds = Vec::new();
    for part in spec.split(',') {
        let num = |t: &str| t.parse::<u64>().map_err(|e| format!("seed list '{spec}': {e}"));
        match part.split_once('-') {
            Some((a, b)) => seeds.extend(num(a)?..=num(b)?),
            None => seeds.push(num(part)?),
        }
    }
    Ok(seeds)
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        cli: None,
        setup_probe: false,
        record: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => o.workload = val()?,
            "--seed" => o.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => o.trace = val()? == "1",
            "--cli" => o.cli = Some(PathBuf::from(val()?)),
            "--setup-probe" => o.setup_probe = true,
            "--record-fingerprints" => o.record = Some(parse_seeds(&val()?)?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if o.seconds.is_nan() || o.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perf_layers: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(seeds) = &opts.record {
        return campaign::record_fingerprints(seeds);
    }
    if opts.setup_probe {
        return campaign::setup_probe(opts.seed);
    }
    let budget = Duration::from_secs_f64(opts.seconds);
    let result: Result<Report, String> = match opts.workload.as_str() {
        "oracle_campaign" => campaign::run(&opts, budget),
        "service_mix" | "service_durable" => service::run(&opts, budget),
        other => Err(format!("unknown workload '{other}'")),
    };
    match result {
        Ok(report) => {
            report.print(&opts);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perf_layers: {e}");
            ExitCode::FAILURE
        }
    }
}
