//! `oracle_campaign`: fixed-size Figure-8(a) data-channel campaigns run
//! back to back through `oracle_distribution_observed`, exactly as
//! `pacman-cli oracle --json --jobs 2 --quiet-noise` calls it; and the
//! traced trial campaign every traced run uses for the trial, pool,
//! eviction-set and runner layers, with its twin check.

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pacman_core::oracle::{DataPacOracle, PacOracle, CORRECT_MISS_THRESHOLD, TRAIN_ITERS};
use pacman_core::parallel::{oracle_distribution_observed, Channel, OracleDistribution};
use pacman_core::probe::PrimeProbe;
use pacman_core::{pool, System, SystemConfig, Tolerance};
use pacman_isa::ptr::with_pac_field;
use pacman_runner::{mix64, shard_plan, Executor, RetryPolicy, Shard, DEFAULT_SHARDS};
use pacman_telemetry::bin::fnv1a;
use pacman_telemetry::json::{parse, Value};
use pacman_telemetry::Registry;

use crate::report::Report;
use crate::stats::{
    batched_rate, block_p99, median, now_ns, peak_rss_mb, self_time_by_name, Span, BATCHES,
    P99_SAMPLES,
};
use crate::Opts;

/// Trial pairs (one correct + one wrong guess) per campaign: the most
/// that still gives a 55 s run the 1,000 campaigns a p99 needs on a slow
/// host, so shard set-up weighs as little as it can (README, *Campaign
/// size*).
pub const TRIALS: usize = 200;
/// Worker count, as `--jobs 2`.
pub const JOBS: usize = 2;
/// Cold launches per run for `setup_s`.
pub const SETUP_RUNS: usize = 11;
/// The campaign configuration for a workload seed: the seed picks the
/// kernel (keys, layout, ground truth); noise is quiet, as
/// `--quiet-noise`.
pub fn oracle_config(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig { kernel_seed: mix64(seed, 0x0AC1E), ..SystemConfig::default() };
    cfg.machine.os_noise = 0.0;
    cfg
}

/// One campaign through the library driver, as `cmd_oracle` calls it.
pub fn campaign(cfg: &SystemConfig, jobs: usize) -> Result<OracleDistribution, String> {
    oracle_distribution_observed(
        cfg,
        Channel::Data,
        1,
        TRIALS,
        jobs,
        true,
        &Tolerance::default(),
        |i, tp| tp ^ (1 + i as u16),
        |_| {},
    )
    .map_err(|e| format!("oracle campaign failed: {e}"))
}

/// The simulated statistics of a campaign: deterministic for a seed,
/// so any difference is a correctness failure, never a speed change.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    target: u64,
    true_pac: u16,
    /// FNV-1a digest of the correct and wrong miss histograms.
    misses: u64,
    retired: u64,
    syscalls: u64,
    cycles: i64,
    dtlb_misses: u64,
    records: u64,
}

/// The fingerprints recorded for the benchmark's seeds, one JSON object
/// per line (`--record-fingerprints` writes them).
const RECORDED: &str = include_str!("../fingerprints.jsonl");

impl Fingerprint {
    /// Fingerprint of a finished campaign.
    pub fn of(d: &OracleDistribution) -> Self {
        let mut hist = Vec::new();
        for h in [&d.correct_misses, &d.incorrect_misses] {
            hist.extend((h.len() as u64).to_le_bytes());
            hist.extend(h.iter().flat_map(|m| m.to_le_bytes()));
        }
        let t = &d.telemetry;
        Self {
            target: d.target,
            true_pac: d.true_pac,
            misses: fnv1a(&hist),
            retired: t.counter_value("cpu.retired"),
            syscalls: t.counter_value("cpu.syscalls"),
            cycles: t.gauge_value("cpu.cycles"),
            dtlb_misses: t.counter_value("tlb.dtlb.misses"),
            records: d.records.len() as u64,
        }
    }

    /// One line of `fingerprints.jsonl`.
    pub fn to_line(&self, seed: u64) -> String {
        format!(
            "{{\"seed\":{seed},\"target\":{},\"true_pac\":{},\"misses\":{},\"retired\":{},\
             \"syscalls\":{},\"cycles\":{},\"dtlb_misses\":{},\"records\":{}}}",
            self.target,
            self.true_pac,
            self.misses,
            self.retired,
            self.syscalls,
            self.cycles,
            self.dtlb_misses,
            self.records
        )
    }

    fn from_line(line: &str) -> Result<(u64, Self), String> {
        let v = parse(line).map_err(|e| format!("fingerprints.jsonl: {e}: {line}"))?;
        let u = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("fingerprints.jsonl: no {k}: {line}"))
        };
        let fp = Self {
            target: u("target")?,
            true_pac: u16::try_from(u("true_pac")?).map_err(|e| e.to_string())?,
            misses: u("misses")?,
            retired: u("retired")?,
            syscalls: u("syscalls")?,
            cycles: i64::try_from(u("cycles")?).map_err(|e| e.to_string())?,
            dtlb_misses: u("dtlb_misses")?,
            records: u("records")?,
        };
        Ok((u("seed")?, fp))
    }

    /// The fingerprint recorded for `seed`, if any.
    pub fn recorded(seed: u64) -> Result<Option<Self>, String> {
        for line in RECORDED.lines().filter(|l| !l.trim().is_empty()) {
            let (s, fp) = Self::from_line(line)?;
            if s == seed {
                return Ok(Some(fp));
            }
        }
        Ok(None)
    }
}

/// The fingerprint a seed's campaigns must reproduce: the recorded one;
/// for a seed with none recorded, a serial (jobs=1) campaign's of this
/// build, with a note, which only checks jobs=1 against jobs=2.
pub fn reference(seed: u64, r: &mut Report) -> Result<Fingerprint, String> {
    if let Some(fp) = Fingerprint::recorded(seed)? {
        r.note(format!("fingerprint: checked against the one recorded for seed {seed}"));
        return Ok(fp);
    }
    let serial = campaign(&oracle_config(seed), 1)?;
    let exact = verdicts_exact(&serial);
    r.check(exact.is_ok(), || format!("serial reference campaign: {}", exact.clone().unwrap_err()));
    let note = format!(
        "fingerprint: seed {seed} has none recorded in fingerprints.jsonl; checked against a \
         serial (jobs=1) campaign of this build instead, which catches no drift common to both"
    );
    eprintln!("perf_layers: {note}");
    r.note(note);
    Ok(Fingerprint::of(&serial))
}

/// `--record-fingerprints`: prints the `fingerprints.jsonl` line of
/// each seed from a serial campaign with exact verdicts.
pub fn record_fingerprints(seeds: &[u64]) -> ExitCode {
    for &seed in seeds {
        match campaign(&oracle_config(seed), 1).and_then(|d| verdicts_exact(&d).map(|()| d)) {
            Ok(d) => println!("{}", Fingerprint::of(&d).to_line(seed)),
            Err(e) => {
                eprintln!("perf_layers: seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Exact verdicts: every true PAC detected, every wrong PAC rejected,
/// no kernel crash.
pub fn verdicts_exact(d: &OracleDistribution) -> Result<(), String> {
    let t = d.trials;
    if d.correct_detected != t || d.incorrect_clean != t || d.crashes != 0 {
        return Err(format!(
            "verdicts not exact: {}/{t} true PACs detected, {}/{t} wrong PACs rejected, {} crashes",
            d.correct_detected, d.incorrect_clean, d.crashes
        ));
    }
    Ok(())
}

/// All checks on one measured campaign against the seed's fingerprint.
pub fn check_campaign(d: &OracleDistribution, reference: &Fingerprint) -> Result<(), String> {
    verdicts_exact(d)?;
    let fp = Fingerprint::of(d);
    if fp != *reference {
        return Err(format!("fingerprint {fp:?} differs from the seed's {reference:?}"));
    }
    Ok(())
}

/// `--setup-probe`: one campaign in a fresh process; prints `ready`.
pub fn setup_probe(seed: u64) -> ExitCode {
    match campaign(&oracle_config(seed), JOBS).and_then(|d| verdicts_exact(&d)) {
        Ok(()) => {
            println!("ready");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perf_layers: setup probe: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Times a cold launch of this benchmark in probe mode up to its first
/// completed campaign.
fn cold_launch(seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(["--setup-probe", "--seed", &seed.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning the setup probe: {e}"))?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
    let elapsed = start.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("waiting for the setup probe: {e}"))?;
    match read {
        Ok(_) if line.trim() == "ready" && status.success() => Ok(elapsed),
        _ => Err(format!("setup probe failed ({status})")),
    }
}

/// Runs the workload.
pub fn run(opts: &Opts, budget: Duration) -> Result<Report, String> {
    if opts.trace {
        return traced(opts, budget);
    }
    let cfg = oracle_config(opts.seed);
    let mut r = Report::default();
    let mut setup = Vec::new();
    for _ in 0..SETUP_RUNS {
        match cold_launch(opts.seed) {
            Ok(s) => setup.push(s),
            Err(e) => r.check(false, || e),
        }
    }
    r.set("setup_s", median(&setup));
    // The measured jobs=2 campaigns must reproduce the seed's fingerprint
    // bit for bit.
    let fp = reference(opts.seed, &mut r)?;
    let warm = campaign(&cfg, JOBS)?;
    r.check(check_campaign(&warm, &fp).is_ok(), || "warm-up campaign".into());

    let (lat_ms, done) = measure(&cfg, &fp, budget, &mut r);
    let jobs_per_s = batched_rate(&done, BATCHES);
    r.set("jobs_per_s", jobs_per_s);
    r.set("trials_per_s", jobs_per_s * 2.0 * TRIALS as f64);
    r.set("job_ms_p50", median(&lat_ms));
    match block_p99(&lat_ms) {
        Some(p99) => r.set("job_ms_p99", p99),
        None => r.check(false, || format!("only {} campaigns: no p99", lat_ms.len())),
    }
    r.set("peak_rss_mb", peak_rss_mb("self")?);
    r.note(format!(
        "{} campaigns of {} trials ({TRIALS} pairs), jobs={JOBS}, rates over {BATCHES} batches; \
         setup over {} cold launches",
        lat_ms.len(),
        2 * TRIALS,
        setup.len()
    ));
    Ok(r)
}

/// Back-to-back campaigns for at least `budget` and [`P99_SAMPLES`]
/// campaigns (capped at three budgets). Returns per-campaign latency in
/// ms and (completion second, 1) pairs for [`batched_rate`].
fn measure(
    cfg: &SystemConfig,
    fp: &Fingerprint,
    budget: Duration,
    r: &mut Report,
) -> (Vec<f64>, Vec<(f64, f64)>) {
    let mut lat = Vec::new();
    let mut done = Vec::new();
    let t0 = Instant::now();
    loop {
        let s = Instant::now();
        let out = campaign(cfg, JOBS);
        lat.push(s.elapsed().as_secs_f64() * 1e3);
        done.push((t0.elapsed().as_secs_f64(), 1.0));
        let checked = out.and_then(|d| check_campaign(&d, fp));
        r.check(checked.is_ok(), || format!("campaign {}: {}", lat.len(), checked.unwrap_err()));
        let el = t0.elapsed();
        if (el >= budget && lat.len() >= P99_SAMPLES) || el >= budget * 3 {
            return (lat, done);
        }
    }
}

// ---------------------------------------------------------------------
// Traced trial campaign
// ---------------------------------------------------------------------

/// Simulated counts, read through the machine's telemetry export.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimCounts {
    retired: u64,
    syscalls: u64,
    cycles: i64,
    block_hits: u64,
    block_lookups: u64,
    dtlb_misses: u64,
    pac_evals: u64,
}

impl SimCounts {
    fn read(sys: &System) -> Self {
        let mut reg = Registry::new();
        sys.machine.export_telemetry(&mut reg);
        let c = |n: &str| reg.counter_value(n);
        Self {
            retired: c("cpu.retired"),
            syscalls: c("cpu.syscalls"),
            cycles: reg.gauge_value("cpu.cycles"),
            block_hits: c("exec.block.hits"),
            block_lookups: c("exec.block.hits") + c("exec.block.misses") + c("exec.block.bypasses"),
            dtlb_misses: c("tlb.dtlb.misses"),
            pac_evals: c("exec.pac.memo_misses"),
        }
    }

    fn add_delta(&mut self, after: &Self, before: &Self) {
        self.retired += after.retired - before.retired;
        self.syscalls += after.syscalls - before.syscalls;
        self.cycles += after.cycles - before.cycles;
        self.block_hits += after.block_hits - before.block_hits;
        self.block_lookups += after.block_lookups - before.block_lookups;
        self.dtlb_misses += after.dtlb_misses - before.dtlb_misses;
        self.pac_evals += after.pac_evals - before.pac_evals;
    }
}

/// One traced shard's replay log for the twin check: its trials and the
/// simulated counts they produced.
pub struct ShardLog {
    cfg: SystemConfig,
    target: u64,
    trials: Vec<(u16, usize)>,
    counts: SimCounts,
}

struct ShardOut {
    spans: Vec<Span>,
    log: ShardLog,
    queue_wait: u64,
    wrong_verdicts: u64,
}

/// What a traced trial campaign loop measured.
#[derive(Default)]
pub struct TrialTrace {
    spans: Vec<Span>,
    /// Capacity (ns × workers) of every campaign window.
    capacity: u64,
    shard_busy: u64,
    queue_waits: Vec<u64>,
    shards: u64,
    trials: u64,
    campaigns: u64,
    wall: u64,
    counts: SimCounts,
    logs: Vec<ShardLog>,
    wrong_verdicts: u64,
    fresh_boots: u64,
    reboots: u64,
}

fn payload(target: u64, pac: u16) -> [u8; 24] {
    let mut p = [0u8; 24];
    p[16..].copy_from_slice(&with_pac_field(target, pac).to_le_bytes());
    p
}

fn span(spans: &mut Vec<Span>, name: &'static str, start: u64, end: u64) {
    spans.push(Span { name, start, end, parent: Some(0) });
}

/// One §8.1 data-oracle trial, phase by phase, through the same public
/// calls `DataPacOracle::trial` makes.
fn phase_trial(
    sys: &mut System,
    pp: &PrimeProbe,
    target: u64,
    pac: u16,
    spans: &mut Vec<Span>,
) -> Result<usize, String> {
    let sc = sys.gadget.data_gadget;
    let t0 = now_ns();
    for _ in 0..TRAIN_ITERS {
        sys.kernel.syscall(&mut sys.machine, sc, &[0, 0, 1]).map_err(|e| e.to_string())?;
    }
    let t1 = now_ns();
    pp.reset(sys).map_err(|e| e.to_string())?;
    let t2 = now_ns();
    pp.prime(sys).map_err(|e| e.to_string())?;
    let t3 = now_ns();
    let buf = sys.write_payload(&payload(target, pac));
    sys.kernel.syscall(&mut sys.machine, sc, &[buf, 24, 0]).map_err(|e| e.to_string())?;
    let t4 = now_ns();
    let misses = pp.probe(sys).map_err(|e| e.to_string())?;
    let t5 = now_ns();
    span(spans, "core.trial.train", t0, t1);
    span(spans, "core.trial.reset", t1, t2);
    span(spans, "core.trial.prime", t2, t3);
    span(spans, "core.trial.trigger", t3, t4);
    span(spans, "core.trial.probe", t4, t5);
    Ok(misses)
}

fn traced_shard(
    cfg: &SystemConfig,
    shard: &Shard,
    submitted: u64,
    exact: bool,
) -> Result<ShardOut, String> {
    let start = now_ns();
    let mut spans = vec![Span { name: "bench.shard", start, end: 0, parent: None }];
    let mut shard_cfg = cfg.clone();
    shard_cfg.machine.seed = shard.seed;
    let mut sys = pool::lease(shard_cfg.clone());
    sys.telemetry.set_enabled(true);
    let t1 = now_ns();
    span(&mut spans, "core.pool.lease", start, t1);
    let set = sys.pick_quiet_dtlb_set();
    let target = sys.alloc_target(set);
    let true_pac = sys.true_pac(target);
    let t2 = now_ns();
    span(&mut spans, "core.target", t1, t2);
    let pp = PrimeProbe::for_target(&mut sys, target);
    let t3 = now_ns();
    span(&mut spans, "core.evict.build", t2, t3);
    let before = SimCounts::read(&sys);
    let t4 = now_ns();
    span(&mut spans, "telemetry.export", t3, t4);
    let mut log = ShardLog {
        cfg: shard_cfg,
        target,
        trials: Vec::with_capacity(2 * shard.len),
        counts: SimCounts::default(),
    };
    let mut wrong_verdicts = 0;
    for i in shard.range() {
        for (pac, correct) in [(true_pac, true), (true_pac ^ (1 + i as u16), false)] {
            let misses = phase_trial(&mut sys, &pp, target, pac, &mut spans)?;
            if exact && (misses >= CORRECT_MISS_THRESHOLD) != correct {
                wrong_verdicts += 1;
            }
            log.trials.push((pac, misses));
        }
    }
    let t5 = now_ns();
    log.counts.add_delta(&SimCounts::read(&sys), &before);
    if sys.kernel.crash_count() != 0 {
        wrong_verdicts += 1;
    }
    let end = now_ns();
    span(&mut spans, "telemetry.export", t5, end);
    spans[0].end = end;
    Ok(ShardOut { spans, log, queue_wait: start.saturating_sub(submitted), wrong_verdicts })
}

/// Runs traced trial campaigns of `trials` pairs for `budget`, each
/// submitted as this crate's own shard closures through
/// `Executor::global().submit` with the driver's shard plan. `cfg_for(c)`
/// gives campaign `c`'s configuration; with `exact`, every verdict must
/// be right.
pub fn traced_trials(
    cfg_for: &dyn Fn(u64) -> SystemConfig,
    trials: usize,
    budget: Duration,
    exact: bool,
) -> Result<TrialTrace, String> {
    let mut tr = TrialTrace::default();
    let workers = JOBS.min(DEFAULT_SHARDS).min(Executor::global().workers()) as u64;
    let pool0 = pool::stats();
    let t0 = Instant::now();
    while t0.elapsed() < budget || tr.campaigns == 0 {
        let cfg = cfg_for(tr.campaigns);
        let plan = shard_plan(trials, DEFAULT_SHARDS, cfg.machine.seed);
        let submitted = now_ns();
        let shared = Arc::new(cfg);
        let work = {
            let cfg = Arc::clone(&shared);
            move |s: &Shard, _attempt: u32| traced_shard(&cfg, s, submitted, exact)
        };
        let outcome = Executor::global()
            .submit(plan, JOBS, RetryPolicy::default(), work)
            .wait()
            .map_err(|e| format!("traced campaign: {e}"))?;
        let end = now_ns();
        tr.capacity += (end - submitted) * workers;
        tr.wall += end - submitted;
        tr.campaigns += 1;
        for res in outcome.results {
            let out = res.map_err(|e| format!("traced shard: {e}"))?;
            let base = tr.spans.len();
            tr.shard_busy += out.spans[0].dur();
            tr.spans.extend(out.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
            tr.queue_waits.push(out.queue_wait);
            tr.shards += 1;
            tr.trials += out.log.trials.len() as u64;
            tr.counts.add_delta(&out.log.counts, &SimCounts::default());
            tr.wrong_verdicts += out.wrong_verdicts;
            tr.logs.push(out.log);
        }
    }
    let pool1 = pool::stats();
    tr.fresh_boots = pool1.fresh_boots - pool0.fresh_boots;
    tr.reboots = pool1.reboots - pool0.reboots;
    Ok(tr)
}

/// Replays every traced trial through `PacOracle::trial` on a twin
/// `System` booted fresh with the shard's configuration. Returns
/// (trials replayed, miss-count mismatches, shards whose simulated
/// counts over the trials differ from the twin's).
pub fn twin_check(logs: Vec<ShardLog>) -> Result<(u64, u64, u64), String> {
    let logs = Arc::new(logs);
    let plan = shard_plan(logs.len(), logs.len().max(1), 0);
    let work = {
        let logs = Arc::clone(&logs);
        move |s: &Shard, _attempt: u32| -> Result<(u64, u64, u64), String> {
            let log = &logs[s.start];
            let n = log.trials.len() as u64;
            let mut twin = System::boot(log.cfg.clone());
            let set = twin.pick_quiet_dtlb_set();
            if twin.alloc_target(set) != log.target {
                return Ok((n, n, 1));
            }
            let mut oracle = DataPacOracle::new(&mut twin).map_err(|e| e.to_string())?;
            let before = SimCounts::read(&twin);
            let mut mismatches = 0;
            for &(pac, misses) in &log.trials {
                let m = oracle.trial(&mut twin, log.target, pac).map_err(|e| e.to_string())?;
                mismatches += u64::from(m != misses);
            }
            let mut counts = SimCounts::default();
            counts.add_delta(&SimCounts::read(&twin), &before);
            Ok((n, mismatches, u64::from(counts != log.counts)))
        }
    };
    let outcome = Executor::global()
        .submit(plan, JOBS, RetryPolicy::default(), work)
        .wait()
        .map_err(|e| format!("twin check: {e}"))?;
    let mut total = (0, 0, 0);
    for res in outcome.results {
        let (n, m, c) = res.map_err(|e| format!("twin shard: {e}"))?;
        total.0 += n;
        total.1 += m;
        total.2 += c;
    }
    Ok(total)
}

/// Median host time of a fresh `System::boot`, in ms.
pub fn boot_ms(cfg: &SystemConfig) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let s = Instant::now();
            std::hint::black_box(System::boot(cfg.clone()));
            s.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Sets the trial, uarch, runner and pool per-layer metrics from a
/// traced trial campaign, checks its twin, and returns its
/// (named-layer ns, unattributed ns, capacity ns) for coverage.
pub fn report_trials(
    tr: TrialTrace,
    cfg: &SystemConfig,
    r: &mut Report,
) -> Result<(u64, u64, u64), String> {
    let by = self_time_by_name(&tr.spans);
    let per_trial = |name: &str| by.get(name).copied().unwrap_or(0) as f64 / tr.trials as f64;
    let per_shard = |name: &str| by.get(name).copied().unwrap_or(0) as f64 / tr.shards as f64;
    for (metric, span) in [
        ("core.trial.train_us", "core.trial.train"),
        ("core.trial.reset_us", "core.trial.reset"),
        ("core.trial.prime_us", "core.trial.prime"),
        ("core.trial.trigger_us", "core.trial.trigger"),
        ("core.trial.probe_us", "core.trial.probe"),
    ] {
        r.set(metric, per_trial(span) / 1e3);
    }
    let trial_ns: u64 =
        by.iter().filter(|(k, _)| k.starts_with("core.trial.")).map(|(_, v)| v).sum();
    let c = tr.counts;
    let n = tr.trials as f64;
    r.set("uarch.ns_per_inst", trial_ns as f64 / c.retired.max(1) as f64);
    r.set("uarch.retired_per_trial", c.retired as f64 / n);
    r.set("kernel.syscalls_per_trial", c.syscalls as f64 / n);
    r.set("uarch.sim_cycles_per_trial", c.cycles as f64 / n);
    r.set("uarch.block_hit_ratio", c.block_hits as f64 / c.block_lookups.max(1) as f64);
    r.set("tlb.dtlb_misses_per_trial", c.dtlb_misses as f64 / n);
    r.set("qarma.evals_per_trial", c.pac_evals as f64 / n);
    r.set(
        "runner.queue_wait_us",
        tr.queue_waits.iter().sum::<u64>() as f64 / tr.queue_waits.len().max(1) as f64 / 1e3,
    );
    r.set("runner.busy_frac", tr.shard_busy as f64 / tr.capacity.max(1) as f64);
    r.set("core.pool.lease_us", per_shard("core.pool.lease") / 1e3);
    r.set("core.evict.build_us", per_shard("core.evict.build") / 1e3);
    r.set("core.system.boot_ms", boot_ms(cfg));
    r.set("core.pool.fresh_boots_per_job", tr.fresh_boots as f64 / tr.campaigns as f64);
    r.set("core.pool.reboots_per_job", tr.reboots as f64 / tr.campaigns as f64);
    r.check(tr.wrong_verdicts == 0, || {
        format!("{} traced trials gave a wrong verdict or crashed", tr.wrong_verdicts)
    });

    let unattributed = by.get("bench.shard").copied().unwrap_or(0);
    let named: u64 = by.iter().filter(|(k, _)| **k != "bench.shard").map(|(_, v)| v).sum();
    let runner_wait = tr.capacity.saturating_sub(tr.shard_busy);
    let cap = tr.capacity.max(1) as f64;
    let mut parts: Vec<String> =
        by.iter().map(|(k, v)| format!("{k} {:.1}%", 100.0 * *v as f64 / cap)).collect();
    parts.push(format!("runner.wait {:.1}%", 100.0 * runner_wait as f64 / cap));
    r.note(format!(
        "traced trials: {} campaigns, {} shards, {} trials; self time share of {} workers x wall: {}",
        tr.campaigns,
        tr.shards,
        tr.trials,
        tr.capacity / tr.wall.max(1),
        parts.join(", ")
    ));
    let shards = tr.logs.len();
    let (twin_trials, mismatches, count_mismatches) = twin_check(tr.logs)?;
    r.set("trace.twin_trials", twin_trials as f64);
    r.set("trace.twin_mismatches", mismatches as f64);
    r.check(mismatches == 0 && twin_trials == tr.trials, || {
        format!("twin check: {mismatches} of {twin_trials} trials differ from PacOracle::trial")
    });
    r.check(count_mismatches == 0, || {
        format!("twin check: the simulated counts of {count_mismatches} of {shards} shards differ")
    });
    r.note(format!(
        "twin check: {mismatches} miss-count mismatches over {twin_trials} trials; simulated \
         counts (retired, syscalls, cycles, block cache, dTLB misses, PAC evaluations) differ \
         in {count_mismatches} of {shards} shards"
    ));
    Ok((named + runner_wait, unattributed, tr.capacity))
}

/// Sets the coverage metrics and notes the unattributed remainder.
pub fn report_coverage(r: &mut Report, attributed: u64, unattributed: u64, total: u64) {
    let total = total.max(1) as f64;
    r.set("trace.coverage", attributed as f64 / total);
    r.set("trace.unattributed_frac", unattributed as f64 / total);
    r.note(format!(
        "coverage: {:.1}% of traced wall time attributed to named layers; unattributed {:.1}%",
        100.0 * attributed as f64 / total,
        100.0 * unattributed as f64 / total
    ));
}

/// The traced run: a short untraced stretch for the overhead baseline,
/// the traced trial campaigns, then the twin check.
fn traced(opts: &Opts, budget: Duration) -> Result<Report, String> {
    let cfg = oracle_config(opts.seed);
    let mut r = Report::default();
    let fp = reference(opts.seed, &mut r)?;
    let warm = campaign(&cfg, JOBS)?;
    r.check(check_campaign(&warm, &fp).is_ok(), || "warm-up campaign".into());
    let base_budget = budget.mul_f64(0.2);
    let t = Instant::now();
    let mut untraced = 0;
    while t.elapsed() < base_budget || untraced == 0 {
        let d = campaign(&cfg, JOBS)?;
        r.check(check_campaign(&d, &fp).is_ok(), || "untraced campaign".into());
        untraced += 1;
    }
    let untraced_rate = (untraced * 2 * TRIALS) as f64 / t.elapsed().as_secs_f64();
    let tr = traced_trials(&|_| cfg.clone(), TRIALS, budget.mul_f64(0.35), true)?;
    let traced_rate = tr.trials as f64 / (tr.wall as f64 / 1e9);
    r.set("trace.overhead_per_s", traced_rate - untraced_rate);
    r.note(format!(
        "trials_per_s: traced {traced_rate:.0}, untraced {untraced_rate:.0} (overhead = difference)"
    ));
    let (attributed, unattributed, cap) = report_trials(tr, &cfg, &mut r)?;
    report_coverage(&mut r, attributed, unattributed, cap);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fingerprint_mismatch_fails_the_campaign_check() {
        let cfg = oracle_config(7);
        let d = campaign(&cfg, 2).unwrap();
        let fp = Fingerprint::of(&d);
        assert_eq!(check_campaign(&d, &fp), Ok(()));
        let other = Fingerprint::of(&campaign(&oracle_config(8), 2).unwrap());
        assert_ne!(other, fp, "two seeds share a fingerprint");
        let mut drifted = fp.clone();
        drifted.cycles += 1;
        let mut r = Report::default();
        for reference in [&fp, &other, &drifted] {
            let res = check_campaign(&d, reference);
            r.check(res.is_ok(), || res.unwrap_err());
        }
        assert_eq!((r.attempted, r.failed), (3, 2));
    }

    #[test]
    fn the_recorded_fingerprints_parse_and_hold_for_the_held_out_seed() {
        let lines = RECORDED.lines().filter(|l| !l.trim().is_empty());
        let seeds: Vec<u64> = lines.map(|l| Fingerprint::from_line(l).unwrap().0).collect();
        assert!(seeds.contains(&4242) && (1..=11).all(|s| seeds.contains(&s)));
        let recorded = Fingerprint::recorded(4242).unwrap().unwrap();
        let d = campaign(&oracle_config(4242), JOBS).unwrap();
        assert_eq!(check_campaign(&d, &recorded), Ok(()));
        let (seed, again) = Fingerprint::from_line(&recorded.to_line(4242)).unwrap();
        assert_eq!((seed, again), (4242, recorded.clone()));
        let mut r = Report::default();
        assert_eq!(reference(4242, &mut r).unwrap(), recorded);
        assert_eq!(r.attempted, 0, "a recorded seed runs no serial campaign");
    }

    #[test]
    fn a_seed_with_no_recorded_fingerprint_falls_back_with_a_note() {
        let seed = 0x05EE_D0FF;
        assert_eq!(Fingerprint::recorded(seed).unwrap(), None);
        let mut r = Report::default();
        let fp = reference(seed, &mut r).unwrap();
        assert_eq!((r.attempted, r.failed), (1, 0));
        assert!(r.notes.iter().any(|n| n.contains("none recorded")), "{:?}", r.notes);
        assert_eq!(check_campaign(&campaign(&oracle_config(seed), JOBS).unwrap(), &fp), Ok(()));
    }

    #[test]
    fn a_held_out_seed_passes_every_check_and_the_twin() {
        let cfg = oracle_config(0x05EE_D0FF);
        let serial = campaign(&cfg, 1).unwrap();
        assert_eq!(verdicts_exact(&serial), Ok(()));
        let fp = Fingerprint::of(&serial);
        assert_eq!(check_campaign(&campaign(&cfg, JOBS).unwrap(), &fp), Ok(()));
        let tr = traced_trials(&|_| cfg.clone(), 8, Duration::ZERO, true).unwrap();
        let mut r = Report::default();
        report_trials(tr, &cfg, &mut r).unwrap();
        assert_eq!(r.failed, 0, "{:?}", r.failures);
        assert_eq!(r.values["trace.twin_mismatches"], 0.0);
        assert_eq!(r.values["trace.twin_trials"], 16.0);
    }

    #[test]
    fn the_twin_check_catches_a_drift_in_the_traced_counts() {
        let cfg = oracle_config(4242);
        let mut tr = traced_trials(&|_| cfg.clone(), 8, Duration::ZERO, true).unwrap();
        let shards = tr.logs.len() as u64;
        assert_eq!(twin_check(std::mem::take(&mut tr.logs)).unwrap(), (16, 0, 0));
        let mut tr = traced_trials(&|_| cfg.clone(), 8, Duration::ZERO, true).unwrap();
        tr.logs[0].counts.retired += 1;
        tr.logs[shards as usize - 1].trials[0].1 += 1;
        assert_eq!(twin_check(tr.logs).unwrap(), (16, 1, 1));
    }
}
