//! The retire-loop self-profiler: per-opcode retire counts, a
//! hot-basic-block histogram, and phase attribution of simulated-cycle
//! and wall-clock cost.
//!
//! The ROADMAP's throughput rewrite needs to know *where* a retired
//! instruction's time goes before any restructuring can be justified.
//! This module answers that with four phase buckets:
//!
//! - [`Phase::Decode`] — fetch (iTLB + L1I) plus instruction decode;
//! - [`Phase::Dispatch`] — execution of ALU, branch, and system
//!   instructions;
//! - [`Phase::Memory`] — execution of loads/stores (the dTLB + cache
//!   model dominates here);
//! - [`Phase::Qarma`] — execution of the PA instructions, whose cost is
//!   the QARMA-64 datapath.
//!
//! Cost discipline: the profiler is owned by the [`Machine`] and every
//! hot-path hook branches on [`Profiler::is_enabled`] first, so a
//! disabled profiler costs one predicted branch per retired instruction
//! and takes no timestamps. When enabled, it reads `Instant::now()`
//! twice per instruction (fetch/decode boundary and retire) — the
//! `perf_trace` bench artifact bounds the disabled overhead.
//!
//! Basic blocks are keyed by their entry PC: a new block begins
//! whenever the previous instruction's architectural successor differs
//! from the PC actually retired (i.e. after any taken control transfer,
//! including traps into the kernel vector).
//!
//! [`Machine`]: crate::machine::Machine

use pacman_isa::Inst;
use pacman_telemetry::Registry;
use std::collections::BTreeMap;
use std::time::Instant;

/// Pipeline phase the profiler attributes cost to.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum Phase {
    /// Instruction fetch (iTLB + L1I) and decode.
    Decode,
    /// ALU / branch / system instruction execution.
    Dispatch,
    /// Load/store execution through the memory model.
    Memory,
    /// Pointer-authentication execution (QARMA-64 datapath).
    Qarma,
}

/// Every phase, in export order.
pub const PHASES: [Phase; 4] = [Phase::Decode, Phase::Dispatch, Phase::Memory, Phase::Qarma];

impl Phase {
    /// Canonical lower-case name used in `profile.phase.*` series.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Decode => "decode",
            Phase::Dispatch => "dispatch",
            Phase::Memory => "memory",
            Phase::Qarma => "qarma",
        }
    }
}

/// The mnemonic an instruction retires under (one per `Inst` variant).
pub fn mnemonic(inst: &Inst) -> &'static str {
    match inst {
        Inst::Nop => "nop",
        Inst::Isb => "isb",
        Inst::Dsb => "dsb",
        Inst::Hlt => "hlt",
        Inst::Eret => "eret",
        Inst::Svc { .. } => "svc",
        Inst::MovZ { .. } => "movz",
        Inst::MovK { .. } => "movk",
        Inst::MovN { .. } => "movn",
        Inst::MovReg { .. } => "mov",
        Inst::Csel { .. } => "csel",
        Inst::AddImm { .. } => "add_imm",
        Inst::SubImm { .. } => "sub_imm",
        Inst::AddReg { .. } => "add",
        Inst::SubReg { .. } => "sub",
        Inst::AndReg { .. } => "and",
        Inst::OrrReg { .. } => "orr",
        Inst::EorReg { .. } => "eor",
        Inst::LslImm { .. } => "lsl",
        Inst::LsrImm { .. } => "lsr",
        Inst::Mul { .. } => "mul",
        Inst::CmpImm { .. } => "cmp_imm",
        Inst::CmpReg { .. } => "cmp",
        Inst::Ldr { .. } => "ldr",
        Inst::Str { .. } => "str",
        Inst::Ldrb { .. } => "ldrb",
        Inst::Strb { .. } => "strb",
        Inst::Ldp { .. } => "ldp",
        Inst::Stp { .. } => "stp",
        Inst::B { .. } => "b",
        Inst::Bl { .. } => "bl",
        Inst::BCond { .. } => "b_cond",
        Inst::Cbz { .. } => "cbz",
        Inst::Cbnz { .. } => "cbnz",
        Inst::Tbz { .. } => "tbz",
        Inst::Tbnz { .. } => "tbnz",
        Inst::Br { .. } => "br",
        Inst::Blr { .. } => "blr",
        Inst::Ret => "ret",
        Inst::Pac { .. } => "pac",
        Inst::Aut { .. } => "aut",
        Inst::Xpac { .. } => "xpac",
        Inst::Pacga { .. } => "pacga",
        Inst::Mrs { .. } => "mrs",
        Inst::Msr { .. } => "msr",
    }
}

/// The execution phase an instruction's retire cost is attributed to
/// (its fetch/decode cost always lands in [`Phase::Decode`]).
pub fn phase_of(inst: &Inst) -> Phase {
    match inst {
        Inst::Ldr { .. }
        | Inst::Str { .. }
        | Inst::Ldrb { .. }
        | Inst::Strb { .. }
        | Inst::Ldp { .. }
        | Inst::Stp { .. } => Phase::Memory,
        Inst::Pac { .. } | Inst::Aut { .. } | Inst::Xpac { .. } | Inst::Pacga { .. } => {
            Phase::Qarma
        }
        _ => Phase::Dispatch,
    }
}

/// Accumulated cost of one opcode.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq)]
pub struct OpcodeCost {
    /// Instructions retired under this mnemonic.
    pub retired: u64,
    /// Simulated cycles spent executing them (excluding fetch/decode).
    pub cycles: u64,
}

/// Accumulated cost of one basic block, keyed by entry PC.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq)]
pub struct BlockCost {
    /// Times control entered the block.
    pub entries: u64,
    /// Instructions retired inside it.
    pub insts: u64,
    /// Simulated cycles retired inside it (fetch/decode + execute).
    pub cycles: u64,
}

/// Accumulated cost of one [`Phase`].
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq)]
pub struct PhaseCost {
    /// Hook invocations attributed to the phase.
    pub events: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Host wall-clock nanoseconds.
    pub wall_ns: u64,
}

/// The per-machine profiler state. See the [module docs](self) for the
/// attribution model and cost discipline.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    enabled: bool,
    opcodes: BTreeMap<&'static str, OpcodeCost>,
    blocks: BTreeMap<u64, BlockCost>,
    phases: [PhaseCost; 4],
    /// Fall-through successor (`pc + 4`) of the previous retired
    /// instruction; a retire at any other PC — i.e. after any taken
    /// control transfer — opens a new basic block.
    expected_pc: Option<u64>,
    /// Entry PC of the block currently executing.
    current_block: u64,
}

impl Profiler {
    /// A profiler; enabled per `MachineConfig::profile`.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, ..Self::default() }
    }

    /// Whether the hot-path hooks record (the branch the retire loop
    /// takes once per instruction).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; accumulated data is kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records the fetch+decode cost of one instruction.
    pub fn record_decode(&mut self, cycles: u64, wall_ns: u64) {
        let p = &mut self.phases[0];
        p.events += 1;
        p.cycles += cycles;
        p.wall_ns = p.wall_ns.saturating_add(wall_ns);
    }

    /// Records one retired instruction: its mnemonic, execution phase,
    /// the PC it retired at, the cycles the whole step consumed
    /// (`step_cycles`, for block attribution) and the cycles/wall-time
    /// of execution alone.
    pub fn record_retire(
        &mut self,
        inst: &Inst,
        pc: u64,
        step_cycles: u64,
        exec_cycles: u64,
        exec_wall_ns: u64,
    ) {
        let op = self.opcodes.entry(mnemonic(inst)).or_default();
        op.retired += 1;
        op.cycles += exec_cycles;

        let phase = &mut self.phases[match phase_of(inst) {
            Phase::Decode => 0,
            Phase::Dispatch => 1,
            Phase::Memory => 2,
            Phase::Qarma => 3,
        }];
        phase.events += 1;
        phase.cycles += exec_cycles;
        phase.wall_ns = phase.wall_ns.saturating_add(exec_wall_ns);

        if self.expected_pc != Some(pc) {
            self.current_block = pc;
            self.blocks.entry(pc).or_default().entries += 1;
        }
        let block = self.blocks.entry(self.current_block).or_default();
        block.insts += 1;
        block.cycles += step_cycles;
        self.expected_pc = Some(pc + 4);
    }

    /// Per-opcode costs, keyed by mnemonic.
    pub fn opcodes(&self) -> &BTreeMap<&'static str, OpcodeCost> {
        &self.opcodes
    }

    /// Per-block costs, keyed by entry PC.
    pub fn blocks(&self) -> &BTreeMap<u64, BlockCost> {
        &self.blocks
    }

    /// Accumulated cost of `phase`.
    pub fn phase(&self, phase: Phase) -> PhaseCost {
        self.phases[PHASES.iter().position(|&p| p == phase).expect("phase in table")]
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.opcodes.is_empty() && self.phases.iter().all(|p| p.events == 0)
    }

    /// Exports everything as `profile.*` counters. Counter-only on
    /// purpose: counters merge commutatively across shard registries,
    /// so sharded profiles aggregate exactly. Same lifetime-total
    /// caveat as `Machine::export_telemetry` — export once per run.
    pub fn export_into(&self, reg: &mut Registry) {
        if !reg.is_enabled() || self.is_empty() {
            return;
        }
        for (mnem, c) in &self.opcodes {
            reg.incr_by(&format!("profile.opcode.{mnem}.retired"), c.retired);
            reg.incr_by(&format!("profile.opcode.{mnem}.cycles"), c.cycles);
        }
        for (phase, cost) in PHASES.iter().zip(self.phases.iter()) {
            let name = phase.name();
            reg.incr_by(&format!("profile.phase.{name}.events"), cost.events);
            reg.incr_by(&format!("profile.phase.{name}.cycles"), cost.cycles);
            reg.incr_by(&format!("profile.phase.{name}.wall_ns"), cost.wall_ns);
        }
        for (pc, b) in &self.blocks {
            reg.incr_by(&format!("profile.block.{pc:#x}.entries"), b.entries);
            reg.incr_by(&format!("profile.block.{pc:#x}.insts"), b.insts);
            reg.incr_by(&format!("profile.block.{pc:#x}.cycles"), b.cycles);
        }
    }
}

/// A wall-clock sample for the retire-loop hooks: zero-cost when the
/// profiler is off (no `Instant` read happens).
#[derive(Copy, Clone, Debug)]
pub(crate) struct ProfTimer(Option<Instant>);

impl ProfTimer {
    /// Samples the clock only when `enabled`.
    #[inline]
    pub(crate) fn start(enabled: bool) -> Self {
        Self(if enabled { Some(Instant::now()) } else { None })
    }

    /// Nanoseconds since [`start`](Self::start), 0 when disabled.
    pub(crate) fn elapsed_ns(self) -> u64 {
        self.0.map_or(0, |t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_isa::Reg;

    fn add() -> Inst {
        Inst::AddImm { rd: Reg::X0, rn: Reg::X0, imm: 1 }
    }

    #[test]
    fn phases_and_mnemonics_classify() {
        assert_eq!(phase_of(&add()), Phase::Dispatch);
        assert_eq!(phase_of(&Inst::Ldr { rt: Reg::X0, rn: Reg::X1, offset: 0 }), Phase::Memory);
        assert_eq!(mnemonic(&Inst::Ret), "ret");
        assert_eq!(Phase::Qarma.name(), "qarma");
    }

    #[test]
    fn disabled_profiler_records_through_explicit_calls_only() {
        // The enabled flag gates the *machine's* hooks, not the struct:
        // the struct itself always records, so scoped enable/disable at
        // the machine level composes.
        let mut p = Profiler::new(false);
        assert!(!p.is_enabled());
        assert!(p.is_empty());
        p.set_enabled(true);
        assert!(p.is_enabled());
    }

    #[test]
    fn straight_line_code_is_one_block() {
        let mut p = Profiler::new(true);
        p.record_decode(3, 10);
        for i in 0..4u64 {
            let pc = 0x1000 + 4 * i;
            p.record_retire(&add(), pc, 2, 1, 5);
        }
        assert_eq!(p.blocks().len(), 1);
        let b = p.blocks()[&0x1000];
        assert_eq!((b.entries, b.insts, b.cycles), (1, 4, 8));
        assert_eq!(p.opcodes()["add_imm"].retired, 4);
        assert_eq!(p.phase(Phase::Dispatch).events, 4);
        assert_eq!(p.phase(Phase::Decode).cycles, 3);
    }

    #[test]
    fn control_transfers_open_new_blocks() {
        let mut p = Profiler::new(true);
        // 0x1000 falls through to 0x1004; 0x1004 branches to 0x2000;
        // 0x2000 branches back to 0x1000 (loop entry counted again).
        p.record_retire(&add(), 0x1000, 1, 1, 0);
        p.record_retire(&Inst::B { offset: 0 }, 0x1004, 1, 1, 0);
        p.record_retire(&Inst::B { offset: 0 }, 0x2000, 1, 1, 0);
        p.record_retire(&add(), 0x1000, 1, 1, 0);
        assert_eq!(p.blocks().len(), 2);
        assert_eq!(p.blocks()[&0x1000].entries, 2);
        assert_eq!(p.blocks()[&0x2000].entries, 1);
        assert_eq!(p.blocks()[&0x1000].insts, 3);
    }

    #[test]
    fn export_writes_profile_counters() {
        let mut p = Profiler::new(true);
        p.record_decode(2, 7);
        p.record_retire(&add(), 0x4000, 3, 1, 9);
        let mut reg = Registry::new();
        p.export_into(&mut reg);
        assert_eq!(reg.counter_value("profile.opcode.add_imm.retired"), 1);
        assert_eq!(reg.counter_value("profile.phase.decode.cycles"), 2);
        assert_eq!(reg.counter_value("profile.phase.dispatch.wall_ns"), 9);
        assert_eq!(reg.counter_value("profile.block.0x4000.cycles"), 3);

        // An empty profiler exports nothing at all.
        let mut empty = Registry::new();
        Profiler::new(true).export_into(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn timer_is_inert_when_disabled() {
        assert_eq!(ProfTimer::start(false).elapsed_ns(), 0);
    }
}
