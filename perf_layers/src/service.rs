//! `service_mix` and `service_durable`: the real `pacman-cli daemon
//! --workers 2` on a Unix socket, driven closed loop by two sessions on
//! two connections. Each session submits its next job only after the
//! previous one's `job_done`.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pacman_core::parallel::{oracle_distribution_observed, parallel_brute, Channel};
use pacman_core::{pool, System, SystemConfig, Tolerance};
use pacman_daemon::{protocol, DaemonSnapshot};
use pacman_gadget::{parallel_census, ImageSpec, ScanConfig};
use pacman_runner::{default_jobs, mix64};
use pacman_telemetry::json::{parse, to_jsonl_line, Value};

use crate::campaign::{report_coverage, report_trials, traced_trials};
use crate::report::Report;
use crate::stats::{batched_rate, block_p99, median, now_ns, peak_rss_mb, BATCHES, P99_SAMPLES};
use crate::Opts;

/// Concurrent closed-loop sessions (one connection each).
pub const SESSIONS: usize = 2;
/// Daemon launches per run for `setup_s` (the measured daemon adds one).
const SETUP_RUNS: usize = 9;
/// Socket file name, relative to the run directory (short, so the
/// `sun_path` limit never depends on where the checkout lives).
const SOCKET: &str = "pacmand.sock";
/// The daemon's durable state directory, relative to the run directory.
const STATE: &str = "state";
/// Captured jobs per kind whose output is compared to a one-shot run.
const IDENTITY_SAMPLES: usize = 2;
/// Traced daemon stretches, each followed by the in-process replay of
/// its jobs, so that host speed drifting during the run moves both sides
/// of the coverage estimate alike.
const SLICES: usize = 5;

/// The job kinds the sessions cycle through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Oracle,
    Brute,
    Census,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Oracle, Kind::Brute, Kind::Census];

    fn command(self, s: u64) -> String {
        match self {
            Kind::Oracle => format!("oracle --trials 4 --seed {s}"),
            Kind::Brute => format!("brute --window 16 --seed {s}"),
            Kind::Census => "census --functions 64".to_string(),
        }
    }

    /// PAC oracle tests (`test_pac` calls) the job completes: 2 x 4
    /// oracle trials, or 16 brute-force guesses.
    fn oracle_tests(self) -> f64 {
        match self {
            Kind::Oracle => 8.0,
            Kind::Brute => 16.0,
            Kind::Census => 0.0,
        }
    }
}

/// Job `k` of session `s` in phase `phase`: its kind and kernel seed,
/// both drawn from the workload seed.
fn job(seed: u64, phase: u64, s: usize, k: u64) -> (Kind, u64) {
    let kind = Kind::ALL[((k + s as u64) % 3) as usize];
    (kind, mix64(mix64(seed, phase << 8 | s as u64), k) & 0xFFFF_FFFF)
}

/// Whether job `k` of session `s` keeps its raw output for the
/// byte-identity check: session 0's first job of each kind, then a
/// seeded ~2% of all jobs.
fn captured(seed: u64, phase: u64, s: usize, k: u64) -> bool {
    (s == 0 && k < 3) || mix64(seed ^ 0xCA97, phase << 40 | (s as u64) << 32 | k).is_multiple_of(50)
}

/// The `"type"` tag of a response line.
fn record_type(line: &str) -> &str {
    let Some(i) = line.find("\"type\"") else { return "" };
    line[i + 6..]
        .trim_start()
        .strip_prefix(':')
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('"'))
        .and_then(|r| r.split('"').next())
        .unwrap_or("")
}

/// A running `pacman-cli daemon` process; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Launches the daemon in `dir`; `durable` adds `--state-dir`, with
    /// `--resume` when true.
    fn spawn(cli: &Path, dir: &Path, durable: Option<bool>) -> Result<Self, String> {
        let socket = dir.join(SOCKET);
        let _ = std::fs::remove_file(&socket);
        let mut cmd = Command::new(cli);
        cmd.args(["daemon", "--workers", "2", "--socket", SOCKET])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(resume) = durable {
            cmd.args(["--state-dir", STATE]);
            if resume {
                cmd.arg("--resume");
            }
        }
        let child = cmd.spawn().map_err(|e| format!("launching {}: {e}", cli.display()))?;
        Ok(Self { child, socket })
    }

    /// Connects, polling until the daemon listens (or exits).
    fn connect(&mut self) -> Result<Conn, String> {
        let t = Instant::now();
        loop {
            if let Ok(stream) = UnixStream::connect(&self.socket) {
                return Conn::new(stream);
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited before listening ({status})"));
            }
            if t.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not listen within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `shutdown` and waits for the drained daemon to exit.
    fn shutdown(&mut self) -> Result<(), String> {
        let mut c = self.connect()?;
        c.send("{\"type\":\"shutdown\"}\n")?;
        drop(c);
        let t = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(s)) if s.success() => return Ok(()),
                Ok(Some(s)) => return Err(format!("daemon exited with {s}")),
                Ok(None) if t.elapsed() < Duration::from_secs(60) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return Err("daemon did not drain within 60 s".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

/// One job as the client saw it (times in ns since the epoch).
#[derive(Clone, Debug)]
struct JobTrace {
    kind: Kind,
    seed: u64,
    submit: u64,
    accepted: u64,
    first_out: u64,
    done: u64,
    ok: bool,
    records: u64,
    bytes: u64,
    checkpoints: u64,
    /// Raw response lines, kept for captured jobs.
    lines: Vec<String>,
    request: String,
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Self, String> {
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self { reader, writer: stream, line: String::new() })
    }

    fn send(&mut self, req: &str) -> Result<(), String> {
        self.writer.write_all(req.as_bytes()).map_err(|e| format!("writing to pacmand: {e}"))
    }

    fn next(&mut self) -> Result<(), String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("pacmand closed the connection".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("reading from pacmand: {e}")),
        }
    }

    /// Reads until a record of type `want`; an `error` record fails.
    fn expect(&mut self, want: &str) -> Result<(), String> {
        loop {
            self.next()?;
            match record_type(&self.line) {
                t if t == want => return Ok(()),
                "error" => return Err(format!("pacmand error: {}", self.line.trim_end())),
                _ => {}
            }
        }
    }

    fn open_session(&mut self, name: &str) -> Result<(), String> {
        self.send(&format!("{{\"type\":\"open_session\",\"session\":\"{name}\"}}\n"))?;
        self.expect("session_opened")
    }

    fn close_session(&mut self, name: &str) -> Result<(), String> {
        self.send(&format!("{{\"type\":\"close_session\",\"session\":\"{name}\"}}\n"))?;
        self.expect("session_closed")
    }

    /// Submits one job and reads its records up to `job_done` (or
    /// `job_failed` / `error`).
    fn run_job(
        &mut self,
        session: &str,
        kind: Kind,
        seed: u64,
        keep: bool,
    ) -> Result<JobTrace, String> {
        let request = format!(
            "{{\"type\":\"submit\",\"session\":\"{session}\",\"command\":\"{}\"}}\n",
            kind.command(seed)
        );
        let submit = now_ns();
        self.send(&request)?;
        let mut j = JobTrace {
            kind,
            seed,
            submit,
            accepted: 0,
            first_out: 0,
            done: 0,
            ok: false,
            records: 0,
            bytes: 0,
            checkpoints: 0,
            lines: Vec::new(),
            request,
        };
        loop {
            self.next()?;
            let t = now_ns();
            j.records += 1;
            j.bytes += self.line.len() as u64;
            if keep {
                j.lines.push(self.line.clone());
            }
            match record_type(&self.line) {
                "job_accepted" => j.accepted = t,
                "job_progress" | "job_output" if j.first_out == 0 => j.first_out = t,
                "checkpoint_written" => j.checkpoints += 1,
                "job_done" => {
                    j.done = t;
                    j.ok = true;
                    break;
                }
                "job_failed" | "error" => {
                    j.done = t;
                    break;
                }
                _ => {}
            }
        }
        if j.accepted == 0 {
            j.accepted = j.submit;
        }
        if j.first_out == 0 {
            j.first_out = j.done;
        }
        Ok(j)
    }
}

/// Closed-loop traffic from [`SESSIONS`] sessions for at least `budget`
/// and `min_jobs` jobs (capped at three budgets). Returns the jobs and
/// the window start.
fn drive(
    daemon: &mut Daemon,
    seed: u64,
    phase: u64,
    budget: Duration,
    min_jobs: usize,
) -> Result<(Vec<JobTrace>, u64), String> {
    let mut conns = Vec::new();
    for s in 0..SESSIONS {
        let mut c = daemon.connect()?;
        c.open_session(&format!("p{phase}s{s}"))?;
        conns.push(c);
    }
    let done = AtomicUsize::new(0);
    let start = now_ns();
    let t0 = Instant::now();
    let per_session: Vec<Result<Vec<JobTrace>, String>> = std::thread::scope(|sc| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(s, mut c)| {
                let done = &done;
                sc.spawn(move || -> Result<Vec<JobTrace>, String> {
                    let name = format!("p{phase}s{s}");
                    let mut jobs = Vec::new();
                    for k in 0.. {
                        let el = t0.elapsed();
                        if (el >= budget && done.load(Ordering::Relaxed) >= min_jobs)
                            || el >= budget * 3
                        {
                            break;
                        }
                        let (kind, js) = job(seed, phase, s, k);
                        jobs.push(c.run_job(&name, kind, js, captured(seed, phase, s, k))?);
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    c.close_session(&name)?;
                    Ok(jobs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect()
    });
    let mut jobs = Vec::new();
    for r in per_session {
        jobs.extend(r?);
    }
    Ok((jobs, start))
}

/// Times one daemon launch up to its first completed job. Returns the
/// seconds and whether the job succeeded; the daemon keeps running.
fn first_job(daemon: &mut Daemon, started: Instant, seed: u64) -> Result<(f64, bool), String> {
    let mut c = daemon.connect()?;
    c.open_session("setup")?;
    let j = c.run_job("setup", Kind::Oracle, seed, false)?;
    let s = started.elapsed().as_secs_f64();
    c.close_session("setup")?;
    Ok((s, j.ok))
}

/// Removes the run directory when the run ends, however it ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the workload.
pub fn run(opts: &Opts, budget: Duration) -> Result<Report, String> {
    let cli = opts.cli.as_ref().ok_or("service workloads need --cli <pacman-cli>")?;
    let cli = cli.canonicalize().map_err(|e| format!("{}: {e}", cli.display()))?;
    let durable = opts.workload == "service_durable";
    let dir = RunDir(PathBuf::from(".bench_run").join(format!(
        "{}-{}",
        opts.workload,
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("creating {}: {e}", dir.0.display()))?;
    let mut r = Report::default();
    let mode = durable.then_some(true);
    if durable {
        // Warm-up: a fresh durable daemon serves traffic, drains, and
        // leaves its state directory for the --resume launches.
        let warm = budget.mul_f64(0.05);
        let mut d = Daemon::spawn(&cli, &dir.0, Some(false))?;
        let (jobs, _) = drive(&mut d, opts.seed, 0, warm, 0)?;
        for j in &jobs {
            r.check(j.ok, || format!("warm-up job {} failed", j.kind.command(j.seed)));
        }
        d.shutdown()?;
    }
    if opts.trace {
        return traced(opts, budget, &cli, &dir.0, mode, r);
    }

    let mut setup = Vec::new();
    for i in 0..=SETUP_RUNS {
        let t = Instant::now();
        let mut d = Daemon::spawn(&cli, &dir.0, mode)?;
        let (s, ok) = first_job(&mut d, t, mix64(opts.seed, 0x5E7 + i as u64))?;
        r.check(ok, || "first job after launch failed".into());
        setup.push(s);
        if i < SETUP_RUNS {
            d.shutdown()?;
            continue;
        }
        // The last launch serves the measured traffic.
        let (jobs, start) = drive(&mut d, opts.seed, 1, budget, P99_SAMPLES)?;
        r.set("peak_rss_mb", peak_rss_mb(&d.pid())?);
        d.shutdown()?;
        e2e(&mut r, &jobs, start);
        check_identity(&mut r, &cli, &dir.0, &jobs);
    }
    r.set("setup_s", median(&setup));
    r.note(format!(
        "setup_s over {} launches{}",
        setup.len(),
        if durable { " with --resume" } else { "" }
    ));
    Ok(r)
}

/// Sets the end-to-end metrics from the measured jobs.
fn e2e(r: &mut Report, jobs: &[JobTrace], start: u64) {
    let secs = |t: u64| (t - start) as f64 / 1e9;
    let done: Vec<(f64, f64)> = jobs.iter().map(|j| (secs(j.done), 1.0)).collect();
    let tests: Vec<(f64, f64)> =
        jobs.iter().map(|j| (secs(j.done), j.kind.oracle_tests())).collect();
    r.set("jobs_per_s", batched_rate(&done, BATCHES));
    r.set("trials_per_s", batched_rate(&tests, BATCHES));
    let lat: Vec<f64> = jobs.iter().map(|j| (j.done - j.submit) as f64 / 1e6).collect();
    r.set("job_ms_p50", median(&lat));
    match block_p99(&lat) {
        Some(p99) => r.set("job_ms_p99", p99),
        None => r.check(false, || format!("only {} jobs: no p99", lat.len())),
    }
    for j in jobs {
        r.check(j.ok, || format!("job {} did not reach job_done", j.kind.command(j.seed)));
    }
    r.note(format!(
        "{} jobs from {SESSIONS} closed-loop sessions, rates over {BATCHES} batches",
        jobs.len()
    ));
}

/// The `line` payloads of a captured job's `job_output` records, each
/// newline-terminated: the bytes a one-shot `--json` run prints.
fn job_output_bytes(j: &JobTrace) -> Result<String, String> {
    let mut out = String::new();
    for l in &j.lines {
        if record_type(l) == "job_output" {
            let v = parse(l.trim_end()).map_err(|e| format!("unparsable record: {e}"))?;
            out.push_str(v.get("line").and_then(Value::as_str).ok_or("job_output without line")?);
            out.push('\n');
        }
    }
    Ok(out)
}

/// Byte-identity check: sampled jobs' `job_output` lines must equal the
/// same command's one-shot `--json` output.
fn check_identity(r: &mut Report, cli: &Path, dir: &Path, jobs: &[JobTrace]) {
    for kind in Kind::ALL {
        for j in
            jobs.iter().filter(|j| j.kind == kind && !j.lines.is_empty()).take(IDENTITY_SAMPLES)
        {
            let cmd = kind.command(j.seed);
            let one_shot = Command::new(cli)
                .args(cmd.split_whitespace())
                .arg("--json")
                .current_dir(dir)
                .stderr(Stdio::null())
                .output();
            let same = match (one_shot, job_output_bytes(j)) {
                (Ok(o), Ok(streamed)) => o.status.success() && o.stdout == streamed.as_bytes(),
                _ => false,
            };
            r.check(same, || format!("job_output of '{cmd}' differs from its one-shot output"));
        }
    }
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/// In-process replay result: host ms per job kind, and the (fresh
/// boots, reboots, jobs) the replay caused in the machine pool.
type Replay = ([Vec<f64>; 3], (u64, u64, u64));

/// Replays the traced jobs in-process through the drivers the CLI
/// dispatches them to, with the same session concurrency.
fn replay(jobs: &[JobTrace], budget: Duration) -> Result<Replay, String> {
    let pool0 = pool::stats();
    let t0 = Instant::now();
    let per_thread: Vec<Result<Vec<(Kind, f64)>, String>> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|s| {
                sc.spawn(move || -> Result<Vec<(Kind, f64)>, String> {
                    let mut out = Vec::new();
                    for j in jobs.iter().skip(s).step_by(SESSIONS).cycle() {
                        if t0.elapsed() >= budget && out.len() >= 3 {
                            break;
                        }
                        let t = Instant::now();
                        replay_job(j.kind, j.seed)?;
                        out.push((j.kind, t.elapsed().as_secs_f64() * 1e3));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("replay thread panicked".into())))
            .collect()
    });
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let mut n = 0;
    for r in per_thread {
        for (kind, ms) in r? {
            by_kind[kind as usize].push(ms);
            n += 1;
        }
    }
    let pool1 = pool::stats();
    Ok((by_kind, (pool1.fresh_boots - pool0.fresh_boots, pool1.reboots - pool0.reboots, n)))
}

/// One job through the driver its command dispatches to.
fn replay_job(kind: Kind, seed: u64) -> Result<(), String> {
    let cfg = SystemConfig { kernel_seed: seed, ..SystemConfig::default() };
    let tol = Tolerance::default();
    let jobs = default_jobs();
    match kind {
        Kind::Oracle => {
            let d = oracle_distribution_observed(
                &cfg,
                Channel::Data,
                1,
                4,
                jobs,
                true,
                &tol,
                |i, tp| tp ^ (1 + i as u16),
                |_| {},
            )
            .map_err(|e| e.to_string())?;
            std::hint::black_box(d);
        }
        Kind::Brute => {
            // As `cmd_brute`: a probe boot centres the window on the true PAC.
            let mut probe = System::boot(cfg.clone());
            let set = probe.pick_quiet_dtlb_set();
            let target = probe.alloc_target(set);
            let start = probe.true_pac(target).wrapping_sub(8);
            let candidates: Vec<u16> = (0..16).map(|i| start.wrapping_add(i)).collect();
            let b = parallel_brute(&cfg, Channel::Data, 5, &candidates, jobs, true, &tol)
                .map_err(|e| e.to_string())?;
            std::hint::black_box(b);
        }
        Kind::Census => {
            let spec = ImageSpec { functions: 64, seed: 0xC0DE, ..ImageSpec::default() };
            std::hint::black_box(parallel_census(&spec, &ScanConfig::default(), jobs));
        }
    }
    Ok(())
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Coverage of the client-observed time of `jobs`: (attributed ns,
/// over-attributed ns). Per job kind: the daemon's accept spans, plus —
/// capped at the kind's summed accepted -> done spans, so no time counts
/// twice — the kind's in-process driver ms `core_ms` measured next to
/// these jobs, the response encoding, and the checkpoints its jobs
/// triggered, summed over its jobs. What these estimates exceed the
/// spans by is over-attributed, not counted. The rest (dispatch,
/// teeing, forwarding, socket, pool donation) stays unattributed.
fn attribute(
    jobs: &[JobTrace],
    core_ms: &[f64; 3],
    encode_us: f64,
    checkpoint_ns: f64,
) -> (f64, f64) {
    let (mut attributed, mut over) = (0.0, 0.0);
    for kind in Kind::ALL {
        let (mut accept, mut span, mut inner) = (0.0, 0.0, 0.0);
        for j in jobs.iter().filter(|j| j.kind == kind) {
            accept += (j.accepted - j.submit) as f64;
            span += (j.done - j.accepted) as f64;
            inner += core_ms[kind as usize] * 1e6
                + encode_us * 1e3 * j.records.saturating_sub(1) as f64
                + checkpoint_ns * j.checkpoints as f64;
        }
        attributed += accept + inner.min(span);
        over += (inner - span).max(0.0);
    }
    (attributed, over)
}

/// Mean host µs per call of `f` over `items`, repeated to at least
/// 2,000 calls.
fn mean_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let reps = 2000usize.div_ceil(items.len());
    let t = Instant::now();
    for _ in 0..reps {
        for i in items {
            f(i);
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / (reps * items.len()) as f64
}

fn ms(a: u64, b: u64) -> f64 {
    b.saturating_sub(a) as f64 / 1e6
}

/// The traced run: an untraced stretch for the overhead baseline,
/// [`SLICES`] traced stretches timing every record, each followed by the
/// in-process replay of its jobs, then the protocol and snapshot codecs
/// and the traced trial campaign.
fn traced(
    opts: &Opts,
    budget: Duration,
    cli: &Path,
    dir: &Path,
    mode: Option<bool>,
    mut r: Report,
) -> Result<Report, String> {
    let mut d = Daemon::spawn(cli, dir, mode)?;
    let (base, start) = drive(&mut d, opts.seed, 1, budget.mul_f64(0.2), 0)?;
    let base_rate = base.len() as f64
        / ((base.iter().map(|j| j.done).max().unwrap_or(start) - start) as f64 / 1e9);
    let mut jobs = Vec::new();
    let mut slices = Vec::with_capacity(SLICES);
    let mut traced_ns = 0;
    for i in 0..SLICES as u64 {
        let (js, start) = drive(&mut d, opts.seed, 2 + i, budget.mul_f64(0.3 / SLICES as f64), 0)?;
        traced_ns += js.iter().map(|j| j.done).max().unwrap_or(start) - start;
        let replayed = replay(&js, budget.mul_f64(0.15 / SLICES as f64))?;
        slices.push((jobs.len()..jobs.len() + js.len(), replayed));
        jobs.extend(js);
    }
    d.shutdown()?;
    for j in base.iter().chain(&jobs) {
        r.check(j.ok, || format!("job {} did not reach job_done", j.kind.command(j.seed)));
    }
    let rate = jobs.len() as f64 / (traced_ns as f64 / 1e9);
    r.set("trace.overhead_per_s", rate - base_rate);
    r.note(format!(
        "jobs_per_s: traced {rate:.1}, untraced {base_rate:.1} (overhead = difference)"
    ));

    // Client-side spans per job: submit -> accepted -> first output ->
    // done. A kind's run time is accepted -> done (it includes the wait),
    // comparable with the in-process `core.job_ms` of the same kind.
    let n = jobs.len() as f64;
    r.set(
        "daemon.accept_ms_p50",
        median(&jobs.iter().map(|j| ms(j.submit, j.accepted)).collect::<Vec<_>>()),
    );
    r.set(
        "daemon.wait_ms_p50",
        median(&jobs.iter().map(|j| ms(j.accepted, j.first_out)).collect::<Vec<_>>()),
    );
    for (kind, metric) in Kind::ALL.iter().zip([
        "daemon.run_ms_p50.oracle",
        "daemon.run_ms_p50.brute",
        "daemon.run_ms_p50.census",
    ]) {
        let v: Vec<f64> =
            jobs.iter().filter(|j| j.kind == *kind).map(|j| ms(j.accepted, j.done)).collect();
        r.set(metric, median(&v));
    }
    let records: u64 = jobs.iter().map(|j| j.records).sum();
    r.set("daemon.records_per_job", records as f64 / n);
    r.set("daemon.bytes_per_job", jobs.iter().map(|j| j.bytes).sum::<u64>() as f64 / n);
    let checkpoints: u64 = jobs.iter().map(|j| j.checkpoints).sum();
    r.set("daemon.checkpoints_per_1k_jobs", 1000.0 * checkpoints as f64 / n);

    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let (mut fresh, mut reboots, mut replayed) = (0, 0, 0);
    for (_, (times, (f, b, n))) in &slices {
        for (all, slice) in by_kind.iter_mut().zip(times) {
            all.extend(slice);
        }
        (fresh, reboots, replayed) = (fresh + f, reboots + b, replayed + n);
    }
    for (i, metric) in
        ["core.job_ms.oracle", "core.job_ms.brute", "core.job_ms.census"].iter().enumerate()
    {
        r.set(metric, median(&by_kind[i]));
    }

    // Protocol codecs on the captured lines.
    let requests: Vec<&str> = jobs.iter().map(|j| j.request.trim_end()).collect();
    let parse_us = mean_us(&requests, |l| {
        std::hint::black_box(protocol::parse_request(l).is_ok());
    });
    let responses: Vec<Value> =
        jobs.iter().flat_map(|j| &j.lines).filter_map(|l| parse(l.trim_end()).ok()).collect();
    let encode_us = mean_us(&responses, |v| {
        let built =
            match (v.get("session").and_then(Value::as_str), v.get("line").and_then(Value::as_str))
            {
                (Some(s), Some(line)) => {
                    protocol::job_output(s, v.get("job").and_then(Value::as_u64).unwrap_or(0), line)
                }
                _ => v.clone(),
            };
        std::hint::black_box(to_jsonl_line(&built));
    });
    r.set("daemon.protocol.parse_us", parse_us);
    r.set("daemon.protocol.encode_us", encode_us);
    check_identity(&mut r, cli, dir, &jobs);

    if mode.is_some() {
        let path = dir.join(STATE).join("pacmand.snapshot");
        let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let mut decode = Vec::new();
        let mut encode = Vec::new();
        let mut write = Vec::new();
        let copy = dir.join("bench.snapshot");
        for _ in 0..5 {
            let t = Instant::now();
            let snap =
                DaemonSnapshot::load(&bytes).map_err(|e| format!("loading the snapshot: {e}"))?;
            decode.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let again = snap.save();
            encode.push(t.elapsed().as_secs_f64() * 1e3);
            r.check(again == bytes, || "snapshot save(load(file)) differs from the file".into());
            let t = Instant::now();
            snap.write_atomic(&copy).map_err(|e| format!("writing the snapshot: {e}"))?;
            write.push(t.elapsed().as_secs_f64() * 1e3);
        }
        r.set("daemon.snapshot.bytes", bytes.len() as f64);
        r.set("daemon.snapshot.decode_ms", median(&decode));
        r.set("daemon.snapshot.encode_ms", median(&encode));
        r.set("daemon.snapshot.write_ms", median(&write));
    }

    // Trial, pool and runner layers, shaped like the service's oracle
    // jobs: 4 pairs, default noise, a fresh kernel seed per campaign.
    let seed = opts.seed;
    let cfg_for = move |c: u64| SystemConfig {
        kernel_seed: mix64(seed ^ 0x7A1, c) & 0xFFFF_FFFF,
        ..SystemConfig::default()
    };
    let tr = traced_trials(&cfg_for, 4, budget.mul_f64(0.1), false)?;
    report_trials(tr, &cfg_for(0), &mut r)?;
    // The pool counts per job come from the replayed service jobs, not
    // from the trial campaigns.
    r.set("core.pool.fresh_boots_per_job", fresh as f64 / replayed.max(1) as f64);
    r.set("core.pool.reboots_per_job", reboots as f64 / replayed.max(1) as f64);

    let checkpoint_ns = r.values.get("daemon.snapshot.write_ms").copied().unwrap_or(0.0) * 1e6;
    let core_mean = by_kind.each_ref().map(|v| mean(v));
    let total: u64 = jobs.iter().map(|j| j.done - j.submit).sum();
    let (mut attributed, mut over) = (0.0, 0.0);
    for (range, (times, _)) in &slices {
        // A kind the slice's replay missed takes the run's mean.
        let means: [f64; 3] =
            std::array::from_fn(
                |k| {
                    if times[k].is_empty() {
                        core_mean[k]
                    } else {
                        mean(&times[k])
                    }
                },
            );
        let (a, o) = attribute(&jobs[range.clone()], &means, encode_us, checkpoint_ns);
        attributed += a;
        over += o;
    }
    report_coverage(&mut r, attributed as u64, total - attributed as u64, total);
    r.set("trace.overattributed_frac", over / total.max(1) as f64);
    r.note(format!(
        "over-attributed: the per-kind estimates exceed the kinds' accepted -> done spans by \
         {:.1}% of the total (left out of coverage)",
        100.0 * over / total.max(1) as f64
    ));
    let mean_run = |k: Kind| {
        mean(&jobs.iter().filter(|j| j.kind == k).map(|j| ms(j.submit, j.done)).collect::<Vec<_>>())
    };
    r.note(format!(
        "{} traced jobs ({records} records), {replayed} replayed in-process; mean ms daemon/in-process: \
         oracle {:.3}/{:.3} brute {:.3}/{:.3} census {:.3}/{:.3}",
        jobs.len(),
        mean_run(Kind::Oracle),
        core_mean[0],
        mean_run(Kind::Brute),
        core_mean[1],
        mean_run(Kind::Census),
        core_mean[2]
    ));
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_types_ignore_nested_payloads() {
        let line = r#"{"type":"job_output","session":"s","job":1,"line":"{\"type\":\"x\"}\n"}"#;
        assert_eq!(record_type(line), "job_output");
        assert_eq!(record_type(r#"{ "type" : "job_done" }"#), "job_done");
        assert_eq!(record_type("{}"), "");
    }

    #[test]
    fn a_byte_identity_mismatch_fails_the_check() {
        let job = |line: &str| JobTrace {
            kind: Kind::Census,
            seed: 0,
            submit: 0,
            accepted: 0,
            first_out: 0,
            done: 0,
            ok: true,
            records: 1,
            bytes: 0,
            checkpoints: 0,
            lines: vec![to_jsonl_line(&protocol::job_output("s", 0, line))],
            request: String::new(),
        };
        let good = job("{\"record\":\"census\"}");
        assert_eq!(job_output_bytes(&good).unwrap(), "{\"record\":\"census\"}\n");
        // A one-shot run that cannot start is a mismatch, counted.
        let mut r = Report::default();
        check_identity(
            &mut r,
            Path::new("/nonexistent/pacman-cli"),
            Path::new("."),
            std::slice::from_ref(&good),
        );
        assert_eq!((r.attempted, r.failed), (1, 1));
        // A stand-in CLI that succeeds: `echo` prints the command line,
        // which matches a job that streamed exactly those bytes and
        // differs from one that streamed the census record.
        let echo = Path::new("/bin/echo");
        let mut r = Report::default();
        check_identity(&mut r, echo, Path::new("."), &[good]);
        assert_eq!((r.attempted, r.failed), (1, 1));
        let mut r = Report::default();
        check_identity(&mut r, echo, Path::new("."), &[job("census --functions 64 --json")]);
        assert_eq!((r.attempted, r.failed), (1, 0));
    }

    #[test]
    fn attribution_counts_no_time_twice_and_reports_the_excess() {
        let job = |kind, submit, accepted, done| JobTrace {
            kind,
            seed: 0,
            submit,
            accepted,
            first_out: accepted,
            done,
            ok: true,
            records: 1,
            bytes: 0,
            checkpoints: 0,
            lines: Vec::new(),
            request: String::new(),
        };
        // Oracle: 2 x (1 us accept + 3 ms span) against a 2 ms estimate;
        // census: 1 us accept + 1 ms span against a 1.5 ms estimate.
        let jobs = [
            job(Kind::Oracle, 0, 1_000, 3_001_000),
            job(Kind::Oracle, 0, 1_000, 3_001_000),
            job(Kind::Census, 0, 1_000, 1_001_000),
        ];
        let (attributed, over) = attribute(&jobs, &[2.0, 0.0, 1.5], 0.0, 0.0);
        assert_eq!(attributed, 3_000.0 + 4_000_000.0 + 1_000_000.0);
        assert_eq!(over, 500_000.0);
    }

    #[test]
    fn the_job_sequence_is_seeded_and_mixed() {
        let a: Vec<_> = (0..6).map(|k| job(9, 1, 0, k)).collect();
        assert_eq!(a, (0..6).map(|k| job(9, 1, 0, k)).collect::<Vec<_>>());
        assert_ne!(a, (0..6).map(|k| job(10, 1, 0, k)).collect::<Vec<_>>());
        let kinds: Vec<Kind> = a.iter().map(|j| j.0).collect();
        assert_eq!(&kinds[..3], &Kind::ALL);
        assert_eq!(job(9, 1, 1, 0).0, Kind::Brute);
    }
}
