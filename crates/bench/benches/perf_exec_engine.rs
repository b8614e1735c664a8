//! Execution-engine rewrite benches: predecoded block cache, PAC memo,
//! arena-reused trial state and bitsliced QARMA.
//!
//! The `perf_exec_engine` artefact pins the hot-path rewrite as claims:
//! the cached engine ([`ExecEngine::Cached`]) must beat the pre-rewrite
//! interpreter ([`ExecEngine::Interpreted`], kept alive exactly for this
//! comparison and for conformance A/B runs) on the two loops the attack
//! actually spends its time in — the §8.1 oracle trial loop (simulated
//! instructions retired per host second) and the §8.2 brute-force sweep
//! (PAC guesses per host second) — and the bitsliced QARMA core must
//! evaluate 64 lanes per pass faster than 64 scalar cipher calls. The
//! cached engine's fetch front must serve at least 80% of the oracle
//! loop's fetches, in blocks of 7-9 instructions on average.
//!
//! The oracle-loop ratio compares bit-identical simulations (the PR 5
//! conformance harness proves the engines agree), so it is a pure
//! host-side win. The brute ratio compares pipelines: the pre-PR
//! brute-forcer re-trains the gadget branch from scratch on every guess
//! on the interpreter, while the rewritten one runs the warm sweep
//! (train once, re-saturate the persistent 2-bit counter between
//! guesses) on the cached engine — same verdicts, pinned by
//! `warm_sweep_matches_the_cold_sweep_verdict_with_fewer_syscalls`.

use std::time::Instant;

use pacman_bench::{banner, check, compare, quiet_config, scale, Artifact};
use pacman_core::brute::{BruteForcer, WARM_RETRAIN_ITERS};
use pacman_core::oracle::{DataPacOracle, PacOracle};
use pacman_core::System;
use pacman_qarma::{PacComputer, QarmaKey, BITSLICE_LANES};
use pacman_uarch::ExecEngine;

/// Boots a quiet system with the requested execution engine.
fn system(engine: ExecEngine) -> System {
    let mut cfg = quiet_config();
    cfg.machine.engine = engine;
    System::boot(cfg)
}

/// Best-of-three: each side of a ratio claim gets its least
/// scheduler-disturbed run.
fn best3(mut measure: impl FnMut() -> f64) -> f64 {
    (0..3).map(|_| measure()).fold(0.0_f64, f64::max)
}

/// Simulated instructions retired per host second across `trials`
/// oracle trials (the Figure 8 inner loop: train, reset, prime,
/// speculate, probe).
fn oracle_instr_per_sec(engine: ExecEngine, trials: usize) -> f64 {
    let mut sys = system(engine);
    let set = sys.pick_quiet_dtlb_set();
    let target = sys.alloc_target(set);
    let wrong = sys.true_pac(target) ^ 0x4000;
    let mut oracle = DataPacOracle::new(&mut sys).expect("oracle");
    // Warm: first trial pays cold TLBs, block-cache decode, memo fill.
    oracle.test_pac(&mut sys, target, wrong).expect("warm trial");
    best3(|| {
        let retired0 = sys.machine.stats.retired;
        let start = Instant::now();
        for _ in 0..trials {
            let v = oracle.test_pac(&mut sys, target, wrong).expect("trial");
            std::hint::black_box(v);
        }
        (sys.machine.stats.retired - retired0) as f64 / start.elapsed().as_secs_f64()
    })
}

/// PAC guesses tested per host second in a §8.2-style sweep over a
/// window that excludes the true PAC (every guess pays full cost).
/// `warm` selects the rewritten warm sweep; the pre-PR pipeline trains
/// cold on every guess.
fn brute_guesses_per_sec(engine: ExecEngine, guesses: u16, warm: bool) -> f64 {
    let mut sys = system(engine);
    let set = sys.pick_quiet_dtlb_set();
    let target = sys.alloc_target(set);
    let true_pac = sys.true_pac(target);
    let window: Vec<u16> = (0..guesses).map(|i| true_pac ^ (0x4000 + i)).collect();
    let oracle = DataPacOracle::new(&mut sys).expect("oracle");
    let mut bf = BruteForcer::new(oracle);
    if warm {
        bf = bf.with_warm_sweep(WARM_RETRAIN_ITERS);
    }
    bf.brute(&mut sys, target, window.iter().copied()).expect("warm sweep");
    best3(|| {
        let start = Instant::now();
        let outcome = bf.brute(&mut sys, target, window.iter().copied()).expect("sweep");
        assert_eq!(outcome.found, None, "window must exclude the true PAC");
        outcome.guesses_tested as f64 / start.elapsed().as_secs_f64()
    })
}

/// Host speedup of one bitsliced 64-lane cipher pass over 64 scalar
/// PAC computations (the §8.2 brute-forcer's guess-generation core).
fn bitslice_speedup(passes: usize) -> (f64, f64, f64) {
    let pc = PacComputer::new(QarmaKey::new(0x84be_85ce_9804_e94b, 0xec29_65a4_efbf_c00f), 48);
    let pointers: Vec<u64> = (0..BITSLICE_LANES as u64).map(|i| 0xFFFF_0000_0000 + 8 * i).collect();
    let block: &[u64; 64] = pointers.as_slice().try_into().expect("64 lanes");
    let scalar_ns = best3(|| {
        let start = Instant::now();
        for _ in 0..passes {
            for &p in pointers.iter() {
                std::hint::black_box(pc.pac(p, 7));
            }
        }
        start.elapsed().as_nanos() as f64 / passes as f64
    });
    let sliced_ns = best3(|| {
        let start = Instant::now();
        for _ in 0..passes {
            std::hint::black_box(pc.pac_batch(block, 7));
        }
        start.elapsed().as_nanos() as f64 / passes as f64
    });
    (scalar_ns, sliced_ns, scalar_ns / sliced_ns.max(1e-9))
}

#[allow(clippy::too_many_lines)]
fn main() {
    banner("Bexec", "execution-engine rewrite: block cache + PAC memo + bitsliced QARMA");
    let trials = scale("ENGINE_TRIALS", 60);
    let guesses = scale("ENGINE_GUESSES", 24) as u16;
    let passes = scale("ENGINE_PASSES", 2000);

    let oracle_cached = oracle_instr_per_sec(ExecEngine::Cached, trials);
    let oracle_interp = oracle_instr_per_sec(ExecEngine::Interpreted, trials);
    let oracle_speedup = oracle_cached / oracle_interp.max(1e-9);
    println!("  oracle loop (cached):       {oracle_cached:12.0} sim instr/s");
    println!("  oracle loop (interpreted):  {oracle_interp:12.0} sim instr/s");
    println!("  oracle speedup:             {oracle_speedup:12.2}x");

    let brute_cached = brute_guesses_per_sec(ExecEngine::Cached, guesses, true);
    let brute_interp = brute_guesses_per_sec(ExecEngine::Interpreted, guesses, false);
    let brute_speedup = brute_cached / brute_interp.max(1e-9);
    println!("  brute sweep (rewritten: warm + cached): {brute_cached:12.1} guesses/s");
    println!("  brute sweep (pre-PR: cold + interp):    {brute_interp:12.1} guesses/s");
    println!("  brute speedup:                          {brute_speedup:12.2}x");

    let (scalar_ns, sliced_ns, slice_speedup) = bitslice_speedup(passes);
    println!("  64 scalar PACs:             {scalar_ns:12.0} ns");
    println!("  one 64-lane bitslice pass:  {sliced_ns:12.0} ns");
    println!("  bitslice speedup:           {slice_speedup:12.2}x");

    // Block-cache effectiveness on the loop the numbers above ran.
    let mut sys = system(ExecEngine::Cached);
    let set = sys.pick_quiet_dtlb_set();
    let target = sys.alloc_target(set);
    let wrong = sys.true_pac(target) ^ 0x4000;
    let mut oracle = DataPacOracle::new(&mut sys).expect("oracle");
    for _ in 0..8 {
        oracle.test_pac(&mut sys, target, wrong).expect("trial");
    }
    let bc = sys.machine.block_cache_stats();
    let hit_rate = 100.0 * bc.hits as f64 / (bc.hits + bc.misses).max(1) as f64;
    println!("  block cache: {} hits / {} misses ({hit_rate:.1}% hit rate)", bc.hits, bc.misses);
    // The fetch front's share: fetches served without a translation,
    // permission check or block-cache lookup (a host-side diagnostic,
    // not an exported counter).
    let front = sys.machine.fetch_front_stats();
    let front_share = front.served_share();
    // And how long the runs it serves are: block dispatch retires a
    // whole run of fetches per front lookup, so a change that ends every
    // block after one instruction shows here first.
    let insts_per_block = front.insts_per_block();
    println!(
        "  fetch front: {} served / {} refills ({:.1}% served), {:.2} insts/block",
        front.served,
        front.refills,
        100.0 * front_share,
        insts_per_block
    );
    println!();

    let mut art =
        Artifact::new("perf_exec_engine", "hot-path engine: block cache + memo + bitslice");
    art.float("oracle_instr_per_sec_cached", oracle_cached)
        .float("oracle_instr_per_sec_interpreted", oracle_interp)
        .float("oracle_speedup", oracle_speedup)
        .float("brute_guesses_per_sec_cached", brute_cached)
        .float("brute_guesses_per_sec_interpreted", brute_interp)
        .float("brute_speedup", brute_speedup)
        .float("bitslice_pass_ns", sliced_ns)
        .float("bitslice_speedup", slice_speedup)
        .num("bitslice_lanes", BITSLICE_LANES as u64)
        .float("block_cache_hit_rate_pct", hit_rate)
        .float("fetch_front_served_share", front_share)
        .float("fetch_front_insts_per_block", insts_per_block);
    art.write();

    compare("oracle loop", ">=5x vs interpreter", &format!("{oracle_speedup:.2}x"));
    compare("brute sweep", ">=10x vs pre-PR", &format!("{brute_speedup:.2}x"));
    compare("bitslice lanes", "64 guesses/pass", &format!("{BITSLICE_LANES}"));

    check("cached oracle loop >=5x the interpreter", oracle_speedup >= 5.0);
    check("rewritten brute sweep >=10x the pre-PR pipeline", brute_speedup >= 10.0);
    check("bitslice beats scalar", slice_speedup >= 2.0);
    check("block cache hit rate >=90%", hit_rate >= 90.0);
    check("fetch front serves >=80% of oracle-loop fetches", front_share >= 0.8);
    check(
        "block dispatch serves 7-9 instructions per block on the oracle loop",
        (7.0..=9.0).contains(&insts_per_block),
    );
}
