//! `Machine::run(n)` and `n` calls of `Machine::step()` are one retire
//! loop, so they must leave identical machines behind.
//!
//! Under the cached engine `run` retires whole fetch-front runs with
//! their retire accounting (cycles, retired count, iTLB/L1I/block-cache
//! hits, front-served fetches) batched in locals and written back at
//! every block exit and before every `Mrs` (DESIGN.md §10, "Block
//! dispatch"). `step()` is the same dispatcher with a budget of one, so
//! every write-back happens after a single instruction. Each case here
//! runs a generated program both ways on twin machines, in the same
//! chunks of budget, and after every chunk requires the same outcome,
//! registers, pc, EL, saved context, cycles, every machine, predictor,
//! cache, TLB and block-cache counter, the exported telemetry, the
//! fetch front's served/refill counts and the bytes of every mapped page.
//!
//! The programs are `pacman-ref` scenarios with probes spliced in at
//! random points: reads of the cycle-dependent `CNTPCT_EL0`/`PMC0` and
//! the retire counter `PMC1` in mid-block, a store of valid code into
//! the executing page, a trapping load, a syscall into a handler that
//! ends in `eret`, and a start address that makes the program cross a
//! page boundary.

use pacman_isa::ptr::PAGE_SIZE;
use pacman_isa::{encode, Inst, Reg, SysReg};
use pacman_ref::{generate, Scenario, CODE_BASE, DATA_BASE, DATA_LEN, HANDLER_BASE};
use pacman_telemetry::Registry;
use pacman_uarch::{InjectedBugs, Machine, MachineConfig, Perms, Stop, Trap};
use proptest::prelude::*;

/// One generated case: a scenario, the probes spliced into its program,
/// and how it is run.
#[derive(Clone, Debug)]
struct Case {
    scenario: Scenario,
    /// The EL0 program after splicing.
    program: Vec<Inst>,
    /// Bytes the program starts before the end of its first page (0:
    /// at the page start); nonzero starts make it cross into the next.
    tail: u64,
    /// Whether EL0 may read `PMC0` (else such a read traps).
    pmc0_el0: bool,
    config: MachineConfig,
    /// The budgets `run` is called with, one after the other.
    budgets: Vec<u64>,
}

/// `movz`/`movk` of a 64-bit constant into `rd`.
fn mov64(rd: Reg, v: u64) -> Vec<Inst> {
    (0..4u8)
        .map(|shift| {
            let imm = (v >> (16 * u32::from(shift))) as u16;
            if shift == 0 {
                Inst::MovZ { rd, imm, shift }
            } else {
                Inst::MovK { rd, imm, shift }
            }
        })
        .collect()
}

fn word(inst: &Inst) -> u64 {
    u64::from(encode(inst).expect("encodes"))
}

/// The probe sequences the cases splice in; `start` is where the
/// program is loaded.
fn probe(kind: u8, start: u64, at: usize) -> Vec<Inst> {
    match kind {
        0 => vec![Inst::Mrs { rd: Reg::X7, sysreg: SysReg::CntpctEl0 }],
        1 => vec![Inst::Mrs { rd: Reg::X8, sysreg: SysReg::Pmc0 }],
        2 => vec![Inst::Mrs { rd: Reg::X9, sysreg: SysReg::Pmc1 }],
        3 => {
            // Overwrite the two words after the store with
            // `add x5, x5, #7; nop` while the block runs them.
            let patched =
                word(&Inst::AddImm { rd: Reg::X5, rn: Reg::X5, imm: 7 }) | word(&Inst::Nop) << 32;
            let mut seq = mov64(Reg::X10, patched);
            let store_at = start + 4 * (at + seq.len() + 4) as u64;
            seq.extend(mov64(Reg::X11, store_at + 4));
            seq.push(Inst::Str { rt: Reg::X10, rn: Reg::X11, offset: 0 });
            seq.extend([Inst::Nop, Inst::Nop]);
            seq
        }
        4 => vec![Inst::Ldr { rt: Reg::X1, rn: Reg::XZR, offset: 8 }],
        _ => vec![Inst::Svc { imm: 0 }],
    }
}

/// A handler for scenarios generated without one: a retire-counter
/// read at EL1 between ALU work, then `eret`.
fn handler() -> Vec<Inst> {
    vec![
        Inst::AddImm { rd: Reg::X2, rn: Reg::X2, imm: 1 },
        Inst::Mrs { rd: Reg::X3, sysreg: SysReg::Pmc1 },
        Inst::AddImm { rd: Reg::X2, rn: Reg::X2, imm: 1 },
        Inst::Eret,
    ]
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        any::<u64>(),
        prop::collection::vec((0u8..6, any::<u16>()), 1..6),
        0u64..48,
        (any::<bool>(), any::<bool>(), any::<bool>()),
        prop::collection::vec(1u64..48, 1..5),
    )
        .prop_map(|(seed, probes, tail_words, (pmc0_el0, noisy, commit_bug), mut budgets)| {
            let mut scenario = generate(seed);
            let tail = 4 * tail_words;
            let start = if tail == 0 { CODE_BASE } else { CODE_BASE + PAGE_SIZE - tail };
            let mut program = scenario.program.clone();
            for (kind, pos) in probes {
                let at = usize::from(pos) % program.len();
                let seq = probe(kind, start, at);
                program.splice(at..at, seq);
            }
            if scenario.handler.is_empty() {
                scenario.handler = handler();
            }
            let config = MachineConfig {
                seed,
                os_noise: if noisy { 0.3 } else { 0.0 },
                bugs: InjectedBugs {
                    commit_suppressed_faults: commit_bug,
                    ..InjectedBugs::default()
                },
                ..MachineConfig::default()
            };
            budgets.push(10_000);
            Case { scenario, program, tail, pmc0_el0, config, budgets }
        })
}

/// The program's load address.
fn start(case: &Case) -> u64 {
    if case.tail == 0 {
        CODE_BASE
    } else {
        CODE_BASE + PAGE_SIZE - case.tail
    }
}

/// Code pages mapped for a case (room for a crossing program).
const CODE_LEN: u64 = 2 * PAGE_SIZE;

fn install(case: &Case) -> Machine {
    let mut m = Machine::new(case.config.clone());
    m.map_region(CODE_BASE, CODE_LEN, Perms::user_rwx());
    m.map_region(DATA_BASE, DATA_LEN, Perms::user_rw());
    m.load_program(start(case), &case.program);
    m.map_region(HANDLER_BASE, PAGE_SIZE, Perms::kernel_rx());
    m.load_program(HANDLER_BASE, &case.scenario.handler);
    m.set_vbar(HANDLER_BASE);
    m.timers.pmc0_el0_enabled = case.pmc0_el0;
    m.cpu.regs = case.scenario.regs;
    m.cpu.sp[0] = case.scenario.sp;
    m.cpu.pc = start(case);
    m
}

/// `budget` retires through `step()`, ending as `run(budget)` ends.
fn step_through(m: &mut Machine, budget: u64) -> Result<Stop, Trap> {
    for _ in 0..budget {
        if let Some(stop) = m.step()? {
            return Ok(stop);
        }
    }
    Ok(Stop::InstLimit)
}

/// Everything the two ways of running must agree on, rendered so a
/// mismatch names the field.
fn observe(m: &Machine, outcome: Result<Stop, Trap>) -> Vec<(&'static str, String)> {
    let mut reg = Registry::new();
    m.export_telemetry(&mut reg);
    let front = m.fetch_front_stats();
    let mut pages = Vec::new();
    for (base, len) in [(CODE_BASE, CODE_LEN), (DATA_BASE, DATA_LEN), (HANDLER_BASE, PAGE_SIZE)] {
        for va in (base..base + len).step_by(8) {
            // `None` once a page-straddling store has run into a page
            // table frame (both machines do that alike).
            pages.push(m.mem.debug_read_u64(va));
        }
    }
    vec![
        ("outcome", format!("{outcome:?}")),
        ("regs", format!("{:?}", m.cpu.regs)),
        ("sp", format!("{:?}", m.cpu.sp)),
        ("pc", format!("{:#x}", m.cpu.pc)),
        ("el", format!("{:?}", m.cpu.el)),
        ("cmp", format!("{:?}", m.cpu.cmp)),
        ("saved", format!("{:?}", m.cpu.saved)),
        ("cycles", m.cycles.to_string()),
        ("machine stats", format!("{:?}", m.stats)),
        ("predict stats", format!("{:?}", m.predict_stats)),
        ("l1i", format!("{:?}", m.mem.l1i.stats)),
        ("l1d", format!("{:?}", m.mem.l1d.stats)),
        ("l2", format!("{:?}", m.mem.l2c.stats)),
        ("tlbs", format!("{:?}", m.mem.tlbs.stats)),
        ("block cache", format!("{:?}", m.block_cache_stats())),
        ("front served/refills", format!("{}/{}", front.served, front.refills)),
        ("telemetry", format!("{:?}", reg.snapshot())),
        ("memory", format!("{pages:?}")),
    ]
}

/// Runs `case` both ways and returns the first mismatch, if any.
fn first_mismatch(case: &Case) -> Option<String> {
    let mut ran = install(case);
    let mut stepped = install(case);
    for (chunk, &budget) in case.budgets.iter().enumerate() {
        let run_out = ran.run(budget);
        let step_out = step_through(&mut stepped, budget);
        let (a, b) = (observe(&ran, run_out), observe(&stepped, step_out));
        if let Some(((field, r), (_, s))) = a.iter().zip(&b).find(|(x, y)| x != y) {
            return Some(format!("chunk {chunk} (budget {budget}): {field}: run {r} vs step {s}"));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn run_n_is_n_steps_on_generated_programs(case in arb_case()) {
        let mismatch = first_mismatch(&case);
        prop_assert!(mismatch.is_none(), "{}\n{case:#?}", mismatch.unwrap_or_default());
    }
}

/// A hand-written case per block exit the generated ones reach only by
/// chance; each must also have served a block of several instructions,
/// so the batching really ran.
#[test]
fn each_block_exit_batches_and_agrees() {
    let straight = |n: usize| vec![Inst::AddImm { rd: Reg::X4, rn: Reg::X4, imm: 1 }; n];
    let cases: [(&str, Vec<Inst>, u64); 6] = [
        (
            "timer reads in mid-block",
            {
                let mut p = straight(6);
                p.extend(probe(0, CODE_BASE, 6));
                p.extend(straight(3));
                p.extend(probe(1, CODE_BASE, 10));
                p.extend(probe(2, CODE_BASE, 11));
                p.extend(straight(3));
                p
            },
            0,
        ),
        (
            "a store into the executing page",
            {
                let mut p = straight(4);
                p.extend(probe(3, CODE_BASE, 4));
                p.extend(straight(4));
                p
            },
            0,
        ),
        (
            "a trap in mid-block",
            {
                let mut p = straight(5);
                p.extend(probe(4, CODE_BASE, 5));
                p
            },
            0,
        ),
        (
            "svc and eret",
            {
                let mut p = straight(5);
                p.push(Inst::Svc { imm: 0 });
                p.extend(straight(5));
                p
            },
            0,
        ),
        ("a page crossing", straight(24), 48),
        ("the budget", straight(40), 0),
    ];
    for (what, mut program, tail) in cases {
        program.push(Inst::Hlt);
        let case = Case {
            scenario: Scenario { handler: handler(), ..generate(1) },
            program,
            tail,
            pmc0_el0: true,
            config: MachineConfig { os_noise: 0.0, ..MachineConfig::default() },
            budgets: vec![7, 3, 10_000],
        };
        assert_eq!(first_mismatch(&case), None, "{what}");
        let mut m = install(&case);
        let _ = m.run(10_000);
        let front = m.fetch_front_stats();
        assert!(front.insts_per_block() > 2.0, "{what}: {front:?}");
    }
}
