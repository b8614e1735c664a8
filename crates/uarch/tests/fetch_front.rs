//! The cached engine's fetch front is invisible to the simulation.
//!
//! Every scenario here runs on an [`ExecEngine::Cached`] machine (which
//! fetches through the front) and an [`ExecEngine::Interpreted`] one
//! (which never does) and requires the same registers, cycles and
//! exported counters — everything but the `exec.*` accelerator counters
//! the interpreter does not keep. Each scenario attacks one of the
//! front's validity conditions: the iTLB epoch, the L1I last-line hint,
//! and the held block-cache slot table. The machines
//! are compared after every run, so a miscount that a later run happens
//! to cancel out (a hit counted early, the matching miss late) still
//! shows.

use std::collections::BTreeMap;

use pacman_isa::ptr::PAGE_SIZE;
use pacman_isa::{encode, Inst, Reg};
use pacman_telemetry::{Histogram, Registry};
use pacman_uarch::{
    El, ExecEngine, FetchFrontStats, Machine, MachineConfig, Perms, Stop, TlbHierarchy, Trap,
};

/// A user code page (16 KB aligned).
const CODE: u64 = 0x40_0000;
/// Scratch VA for writing a program into an unmapped-by-default frame.
const STAGING: u64 = 0x90_0000;

/// The outcome of one run and everything the two engines must agree on
/// after it.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<Stop, Trap>,
    regs: [u64; 31],
    sp: [u64; 2],
    pc: u64,
    el: El,
    cycles: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

fn machine(engine: ExecEngine) -> Machine {
    Machine::new(MachineConfig { engine, os_noise: 0.0, ..MachineConfig::default() })
}

fn observe(m: &Machine, outcome: Result<Stop, Trap>) -> Observed {
    let mut reg = Registry::new();
    m.export_telemetry(&mut reg);
    let snap = reg.snapshot();
    Observed {
        outcome,
        regs: m.cpu.regs,
        sp: m.cpu.sp,
        pc: m.cpu.pc,
        el: m.cpu.el,
        cycles: m.cycles,
        // The block-cache and PAC-memo counters exist only under the
        // cached engine.
        counters: snap.counters.into_iter().filter(|(k, _)| !k.starts_with("exec.")).collect(),
        gauges: snap.gauges,
        histograms: snap.histograms,
    }
}

/// Runs `scenario` on both engines, asserts they agree, and returns the
/// cached machine's front statistics.
fn assert_engines_agree(scenario: impl Fn(&mut Machine) -> Vec<Observed>) -> FetchFrontStats {
    let mut cached = machine(ExecEngine::Cached);
    let mut interp = machine(ExecEngine::Interpreted);
    let cached_log = scenario(&mut cached);
    let interp_log = scenario(&mut interp);
    assert!(!cached_log.is_empty());
    for (i, (c, r)) in cached_log.iter().zip(&interp_log).enumerate() {
        assert_eq!(c, r, "the engines disagree after run {i}");
    }
    assert_eq!(cached_log.len(), interp_log.len());
    assert_eq!(interp.fetch_front_stats(), FetchFrontStats::default());
    cached.fetch_front_stats()
}

fn add(rd: Reg, imm: u16) -> Inst {
    Inst::AddImm { rd, rn: rd, imm }
}

/// `n` increments of x3 ending in `hlt`, loaded at `va`.
fn load_straight_line(m: &mut Machine, va: u64, n: usize) {
    let mut program = vec![add(Reg::X3, 1); n];
    program.push(Inst::Hlt);
    m.load_program(va, &program);
}

fn run_from(m: &mut Machine, pc: u64) -> Observed {
    m.cpu.pc = pc;
    let outcome = m.run(10_000);
    observe(m, outcome)
}

/// Straight-line code from 96 bytes before a page end: crosses an L1I
/// line boundary, then the page boundary.
fn boundary_program(m: &mut Machine) -> u64 {
    m.map_region(CODE, 2 * PAGE_SIZE, Perms::user_rx());
    let start = CODE + PAGE_SIZE - 96;
    load_straight_line(m, start, 48);
    start
}

#[test]
fn straight_line_code_across_a_line_then_a_page_boundary() {
    let stats = assert_engines_agree(|m| {
        let start = boundary_program(m);
        vec![run_from(m, start), run_from(m, start)]
    });
    assert!(stats.served > 0, "the front served nothing: {stats:?}");
    assert!(stats.served_share() > 0.8, "{stats:?}");
}

#[test]
fn a_wrong_path_into_another_page_replaces_the_fetch_fast_path() {
    assert_engines_agree(|m| {
        m.map_region(CODE, 2 * PAGE_SIZE, Perms::user_rx());
        let far = (PAGE_SIZE / 4) as i32;
        m.load_program(
            CODE,
            &[Inst::Cbz { rt: Reg::X0, offset: far }, add(Reg::X1, 1), add(Reg::X1, 1), Inst::Hlt],
        );
        load_straight_line(m, CODE + PAGE_SIZE, 8);
        let mut out = Vec::new();
        // Train the branch taken (into the far page) ...
        for _ in 0..4 {
            m.cpu.set(Reg::X0, 0);
            out.push(run_from(m, CODE));
        }
        // ... then fall through: the wrong path fetches the far page
        // while the front holds the near one.
        m.cpu.set(Reg::X0, 1);
        out.push(run_from(m, CODE));
        assert!(m.stats.spec_insts > 0, "the branch must mispredict into the far page");
        out
    });
}

/// The last instruction [`boundary_program`] retires before its `hlt`,
/// in the same L1I line as the `hlt`.
fn boundary_tail(start: u64) -> u64 {
    start + 47 * 4
}

#[test]
fn flushing_the_l1i_and_tlbs_between_runs() {
    assert_engines_agree(|m| {
        let start = boundary_program(m);
        let first = run_from(m, start);
        // The kernel's panic-and-reboot path flushes through the pub
        // fields. The L1I alone first, with the front's page still
        // translated: the line the run ended in must miss.
        m.mem.l1i.flush();
        let second = run_from(m, boundary_tail(start));
        m.mem.l1i.flush();
        m.mem.tlbs.flush();
        vec![first, second, run_from(m, start)]
    });
}

#[test]
fn replacing_the_tlb_hierarchy_between_runs() {
    assert_engines_agree(|m| {
        let start = boundary_program(m);
        let first = run_from(m, start);
        let t = m.config().tlb_params();
        m.mem.tlbs = TlbHierarchy::new(t.itlb, t.dtlb, t.l2);
        let second = run_from(m, start);
        // A clone taken cold and put through as many iTLB changes as the
        // original then makes (a flush, and the fill of the next run's
        // first fetch): its epoch must still not match.
        let mut other = m.mem.tlbs.clone();
        other.flush();
        other.flush();
        m.mem.tlbs.flush();
        let third = run_from(m, boundary_tail(start));
        m.mem.tlbs = other;
        vec![first, second, third, run_from(m, boundary_tail(start))]
    });
}

#[test]
fn a_promotion_in_a_front_page_set() {
    assert_engines_agree(|m| {
        // Nine code pages sharing one user iTLB set (4 ways).
        let stride = m.config().tlb_params().itlb.sets as u64 * PAGE_SIZE;
        let page = |k: u64| CODE + k * stride;
        for k in 0..9 {
            m.map_page(page(k), Perms::user_rx());
            load_straight_line(m, page(k), 2);
        }
        let mut out = vec![run_from(m, page(0)), run_from(m, page(1)), run_from(m, page(0))];
        // Page 1 moves ahead of page 0 behind the front's back (a
        // direct fetch, as a wrong path would make) ...
        let fetch = m.user_fetch(page(1)).map(|_| Stop::InstLimit);
        out.push(observe(m, fetch));
        // ... so running page 0 again must promote it, and the LRU
        // order decides which page the next fills evict.
        out.push(run_from(m, page(0)));
        for k in [2, 3, 4, 1, 0] {
            out.push(run_from(m, page(k)));
        }
        // Four fills into the set behind the front's back evict page 0,
        // which the front still holds.
        for k in 5..9 {
            let fetch = m.user_fetch(page(k)).map(|_| Stop::InstLimit);
            out.push(observe(m, fetch));
        }
        out.push(run_from(m, page(0)));
        out
    });
}

#[test]
fn the_same_page_at_both_els() {
    assert_engines_agree(|m| {
        m.map_page(CODE, Perms::user_rx());
        load_straight_line(m, CODE, 4);
        let kernel = CODE + PAGE_SIZE;
        m.map_page(kernel, Perms::kernel_rx());
        load_straight_line(m, kernel, 4);
        let mut out = vec![run_from(m, CODE)];
        // The kernel may run a user page, through its own iTLB ...
        m.cpu.el = El::El1;
        out.push(run_from(m, CODE));
        out.push(run_from(m, kernel));
        // ... but user mode may not run a kernel page the front holds
        // for EL1.
        m.cpu.el = El::El0;
        out.push(run_from(m, kernel));
        out.push(run_from(m, CODE));
        out
    });
}

#[test]
fn remapping_the_code_page_between_runs() {
    assert_engines_agree(|m| {
        m.map_page(CODE, Perms::user_rx());
        load_straight_line(m, CODE, 4);
        let first = run_from(m, CODE);
        let frame = m.alloc_frame();
        m.map_alias(STAGING, frame, Perms::user_rw());
        m.load_program(STAGING, &[add(Reg::X4, 9), Inst::Hlt]);
        m.map_alias(CODE, frame, Perms::user_rx());
        // The iTLB still holds the old translation ...
        let stale = run_from(m, CODE);
        // ... until it is flushed.
        m.mem.tlbs.flush();
        vec![first, stale, run_from(m, CODE)]
    });
}

#[test]
fn a_store_into_the_executing_line() {
    assert_engines_agree(|m| {
        m.map_page(CODE, Perms::user_rwx());
        m.load_program(
            CODE,
            &[
                Inst::Str { rt: Reg::X2, rn: Reg::X1, offset: 0 },
                Inst::Nop,
                Inst::Nop,
                Inst::Nop,
                Inst::Hlt,
            ],
        );
        let word = |inst: &Inst| u64::from(encode(inst).expect("encodes"));
        m.cpu.set(Reg::X1, CODE + 8);
        // A first run stores the words already there, warming the front
        // and the decoded run; the second overwrites the two words after
        // the store's successor with `add x5, x5, #7; hlt`.
        m.cpu.set(Reg::X2, word(&Inst::Nop) | word(&Inst::Nop) << 32);
        let mut out = vec![run_from(m, CODE)];
        m.cpu.set(Reg::X2, word(&add(Reg::X5, 7)) | word(&Inst::Hlt) << 32);
        out.push(run_from(m, CODE));
        out.push(run_from(m, CODE));
        assert_eq!(m.cpu.get(Reg::X5), 14, "the patched code ran on both runs");
        out
    });
}

#[test]
fn a_misaligned_pc_on_the_front_page() {
    assert_engines_agree(|m| {
        m.map_page(CODE, Perms::user_rx());
        load_straight_line(m, CODE, 8);
        let first = run_from(m, CODE);
        // The front still names this page, but a misaligned word is
        // never served from a slot table.
        vec![first, run_from(m, CODE + 2)]
    });
}

#[test]
fn the_front_is_not_exported() {
    let mut m = machine(ExecEngine::Cached);
    let start = boundary_program(&mut m);
    assert_eq!(run_from(&mut m, start).outcome, Ok(Stop::Hlt));
    assert!(m.fetch_front_stats().served > 0);
    let mut reg = Registry::new();
    m.export_telemetry(&mut reg);
    assert!(reg.snapshot().counters.keys().all(|k| !k.contains("front")));
}
