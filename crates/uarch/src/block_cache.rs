//! Predecoded basic-block cache: the hot half of the execution engine.
//!
//! The interpreter's per-step cost was dominated by re-reading the fetched
//! word from sparse physical memory and re-decoding it, both of which are
//! pure functions of frame contents. This cache decodes each fetched word
//! once into a flat micro-op arena and re-dispatches from the arena on
//! re-entry:
//!
//! - **Keying.** Entries are keyed by *physical* address, so aliased
//!   mappings share decoded code and remaps cannot serve stale virtual
//!   translations (translation, permissions, and all timing still go
//!   through `fetch_access` on every step — the cache only replaces the
//!   `read_u32` + `decode` pair).
//! - **Slots.** Each frame that has been decoded from gets a dense
//!   `PAGE_SIZE / 4` slot table mapping word index → arena index, so the
//!   dispatch path is one hash lookup plus one array index.
//! - **Runs.** A miss decodes forward from the missing word — up to
//!   [`MAX_RUN`] instructions, stopping at the frame boundary, at an
//!   undecodable word, or after an unconditional control transfer — so
//!   straight-line code warms in one pass.
//! - **Invalidation.** Decoding registers the frame with
//!   [`PhysMemory::note_code_frame`]; any later write into a registered
//!   frame bumps the global code-write generation and the next dispatch
//!   flushes the whole cache. Self-modifying stores therefore always see
//!   freshly decoded code, at the cost of re-warming (the conformance
//!   harness pins this against the reference machine).
//! - **Bypasses.** Misaligned fetches and words straddling a frame
//!   boundary are decoded directly without caching: they cannot use the
//!   one-frame slot table, and a straddling word would need generation
//!   checks on two frames.

use pacman_isa::ptr::PAGE_SIZE;
use pacman_isa::{decode, Inst};

use crate::mem::PhysMemory;

/// Maximum instructions decoded ahead of a missing word in one run.
const MAX_RUN: usize = 64;
/// Arena size bound; reaching it flushes the cache (a new epoch) rather
/// than growing without limit under pathological self-modifying code.
const ARENA_CAP: usize = 1 << 20;
/// Words per frame slot table.
const SLOTS: usize = (PAGE_SIZE / 4) as usize;

/// One frame's slot table: word index → predecoded micro-op.
type Slots = Box<[Option<Inst>; SLOTS]>;

fn empty_slots() -> Slots {
    vec![None; SLOTS].into_boxed_slice().try_into().expect("SLOTS entries")
}

/// Dispatch and invalidation counters, exported as `exec.block.*`.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct BlockCacheStats {
    /// Dispatches served from the arena.
    pub hits: u64,
    /// Dispatches that triggered a decode run.
    pub misses: u64,
    /// Instructions decoded into the arena (lifetime, across flushes).
    pub decoded: u64,
    /// Whole-cache flushes caused by writes into decoded code frames.
    pub invalidations: u64,
    /// Misaligned or frame-straddling fetches decoded without caching.
    pub bypasses: u64,
}

/// A held index of one frame's slot table, taken by [`BlockCache::hold`]
/// and valid while the cache's arena epoch is unchanged (no flush
/// since). Host-only.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub(crate) struct HeldFrame {
    epoch: u64,
    index: usize,
}

impl HeldFrame {
    /// Holds nothing: its epoch is never current.
    pub(crate) const NONE: Self = Self { epoch: u64::MAX, index: 0 };
}

/// The predecoded block cache. One per [`crate::Machine`]; purely a
/// host-side accelerator — it never changes simulated cycles, RNG draws,
/// or microarchitectural state.
#[derive(Debug, Default)]
pub struct BlockCache {
    /// Per-frame micro-op arenas, indexed `pfn - 1` (frames are
    /// bump-allocated densely from PFN 1, so this mirrors
    /// [`PhysMemory`]'s own storage): one flat `PAGE_SIZE / 4` slot
    /// table per decoded-from frame, word index → predecoded micro-op.
    /// Storing the `Inst` inline makes a dispatch hit exactly one
    /// indexed load; frames never decoded from stay `None`.
    frames: Vec<Option<Slots>>,
    /// Micro-ops currently live across all frame arenas (capacity
    /// accounting for the epoch flush).
    live: usize,
    /// The code-write generation the cached entries were decoded at.
    valid_gen: u64,
    /// Bumped whenever `frames` is cleared, so a [`HeldFrame`] from an
    /// earlier arena never indexes this one. Host-only.
    epoch: u64,
    /// Dispatch counters.
    pub stats: BlockCacheStats,
}

impl BlockCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the decoded instruction at physical address `pa`, or `None`
    /// if the word there does not decode (the caller raises the same
    /// `Trap::Decode` the interpreter would).
    ///
    /// Takes `phys` mutably only to register decoded-from frames for
    /// write tracking; memory contents are never modified.
    pub fn fetch(&mut self, pa: u64, phys: &mut PhysMemory) -> Option<Inst> {
        let gen = phys.code_write_gen();
        if gen != self.valid_gen {
            // A store hit a decoded code frame since the last dispatch:
            // drop everything and re-decode on demand.
            self.clear();
            self.valid_gen = gen;
            self.stats.invalidations += 1;
        }
        let pfn = pa / PAGE_SIZE;
        let off = (pa % PAGE_SIZE) as usize;
        if !pa.is_multiple_of(4) || off + 4 > SLOTS * 4 {
            self.stats.bypasses += 1;
            return decode(phys.read_u32(pa)).ok();
        }
        if let Some(Some(slots)) = self.frames.get((pfn.wrapping_sub(1)) as usize) {
            if let Some(inst) = slots[off / 4] {
                self.stats.hits += 1;
                return Some(inst);
            }
        }
        self.stats.misses += 1;
        self.decode_run(pa, phys)
    }

    /// Holds the slot table of `pa`'s frame for [`BlockCache::held_slot`]
    /// ([`HeldFrame::NONE`] if that frame has none in the current arena).
    pub(crate) fn hold(&self, pa: u64) -> HeldFrame {
        let index = (pa / PAGE_SIZE).wrapping_sub(1) as usize;
        match self.frames.get(index) {
            Some(Some(_)) => HeldFrame { epoch: self.epoch, index },
            _ => HeldFrame::NONE,
        }
    }

    /// Superblock dispatch: the word at `pa`, which must lie in the
    /// frame `held` was taken for, straight from the held slot table —
    /// the run [`BlockCache::fetch`]'s miss path decoded. `Some` exactly
    /// when `fetch` would hit; the caller counts that hit in
    /// [`BlockCacheStats::hits`] (the block dispatcher batches it).
    /// `None` whenever `fetch` could do anything but hit (a flushed
    /// arena, a pending code-write invalidation, a misaligned word, an
    /// undecoded slot); the caller then falls back to `fetch`.
    #[inline]
    pub(crate) fn held_slot(&self, held: HeldFrame, pa: u64, phys: &PhysMemory) -> Option<Inst> {
        if held.epoch != self.epoch
            || phys.code_write_gen() != self.valid_gen
            || !pa.is_multiple_of(4)
        {
            return None;
        }
        debug_assert_eq!((pa / PAGE_SIZE).wrapping_sub(1) as usize, held.index);
        // Copied out whole (not destructured), so the micro-op moves as
        // one word.
        self.frames[held.index].as_ref()?[(pa % PAGE_SIZE) as usize / 4]
    }

    /// Empties the arena, starting a new epoch.
    fn clear(&mut self) {
        self.frames.clear();
        self.live = 0;
        self.epoch += 1;
    }

    fn decode_run(&mut self, pa: u64, phys: &mut PhysMemory) -> Option<Inst> {
        if self.live + MAX_RUN > ARENA_CAP {
            self.clear();
        }
        let pfn = pa / PAGE_SIZE;
        if !phys.is_backed(pfn) {
            // Unallocated frames read as zero and cannot be registered for
            // write tracking, so nothing from them may be cached.
            self.stats.bypasses += 1;
            return decode(phys.read_u32(pa)).ok();
        }
        phys.note_code_frame(pfn);
        let first = decode(phys.read_u32(pa)).ok()?;
        let fi = (pfn - 1) as usize;
        if self.frames.len() <= fi {
            self.frames.resize_with(fi + 1, || None);
        }
        let slots = self.frames[fi].get_or_insert_with(empty_slots);
        let mut inst = first;
        let mut off = (pa % PAGE_SIZE) as usize;
        for _ in 0..MAX_RUN {
            self.live += usize::from(slots[off / 4].is_none());
            slots[off / 4] = Some(inst);
            self.stats.decoded += 1;
            off += 4;
            if off + 4 > SLOTS * 4 || ends_run(inst) {
                break;
            }
            match decode(phys.read_u32(pfn * PAGE_SIZE + off as u64)) {
                Ok(i) => inst = i,
                Err(_) => break,
            }
        }
        Some(first)
    }
}

/// Whether decoding should stop after `inst`: unconditional control
/// transfers (and halts) end straight-line runs, so the arena does not
/// fill with whatever bytes follow a function's final branch.
fn ends_run(inst: Inst) -> bool {
    matches!(
        inst,
        Inst::B { .. }
            | Inst::Bl { .. }
            | Inst::Br { .. }
            | Inst::Blr { .. }
            | Inst::Ret
            | Inst::Hlt
            | Inst::Eret
            | Inst::Svc { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_isa::{encode, Reg};

    fn backed(phys: &mut PhysMemory) -> u64 {
        phys.alloc_frame() * PAGE_SIZE
    }

    fn write_inst(phys: &mut PhysMemory, pa: u64, inst: Inst) {
        phys.write_u32(pa, encode(&inst).expect("encodes"));
    }

    fn movz(rd: u8, imm: u16) -> Inst {
        Inst::MovZ { rd: Reg::from_index(rd).expect("register"), imm, shift: 0 }
    }

    #[test]
    fn decodes_once_then_hits() {
        let mut phys = PhysMemory::new();
        let mut bc = BlockCache::new();
        let base = backed(&mut phys);
        let prog = [movz(1, 7), movz(2, 3), Inst::Hlt];
        for (i, inst) in prog.iter().enumerate() {
            write_inst(&mut phys, base + 4 * i as u64, *inst);
        }
        assert_eq!(bc.fetch(base, &mut phys), Some(prog[0]));
        assert_eq!(bc.stats.misses, 1);
        // The run decoded ahead: the following words are hits.
        assert_eq!(bc.fetch(base + 4, &mut phys), Some(prog[1]));
        assert_eq!(bc.fetch(base + 8, &mut phys), Some(prog[2]));
        assert_eq!(bc.fetch(base, &mut phys), Some(prog[0]));
        assert_eq!(bc.stats.misses, 1);
        assert_eq!(bc.stats.hits, 3);
    }

    #[test]
    fn undecodable_words_are_not_cached_and_return_none() {
        let mut phys = PhysMemory::new();
        let mut bc = BlockCache::new();
        let base = backed(&mut phys);
        phys.write_u32(base, 0xFFFF_FFFF);
        assert_eq!(bc.fetch(base, &mut phys), None);
        assert_eq!(bc.fetch(base, &mut phys), None);
        assert_eq!(bc.stats.hits, 0);
    }

    #[test]
    fn store_into_decoded_frame_invalidates() {
        let mut phys = PhysMemory::new();
        let mut bc = BlockCache::new();
        let base = backed(&mut phys);
        write_inst(&mut phys, base, movz(1, 7));
        assert!(matches!(bc.fetch(base, &mut phys), Some(Inst::MovZ { .. })));
        // Overwrite the decoded word: the write bumps the generation
        // because decoding registered the frame.
        write_inst(&mut phys, base, movz(1, 9));
        let refetched = bc.fetch(base, &mut phys).expect("still decodes");
        assert_eq!(refetched, movz(1, 9));
        assert_eq!(bc.stats.invalidations, 1);
    }

    #[test]
    fn writes_to_undecoded_frames_do_not_invalidate() {
        let mut phys = PhysMemory::new();
        let mut bc = BlockCache::new();
        let code = backed(&mut phys);
        let data = backed(&mut phys);
        write_inst(&mut phys, code, movz(1, 7));
        bc.fetch(code, &mut phys);
        phys.write_u64(data, 0xDEAD_BEEF);
        bc.fetch(code, &mut phys);
        assert_eq!(bc.stats.invalidations, 0);
        assert_eq!(bc.stats.hits, 1);
    }

    #[test]
    fn misaligned_and_straddling_fetches_bypass() {
        let mut phys = PhysMemory::new();
        let mut bc = BlockCache::new();
        let base = backed(&mut phys);
        let _next = backed(&mut phys); // adjacent frame for the straddle
        let word = encode(&movz(3, 5)).expect("encodes");
        // Misaligned.
        phys.write_u32(base + 2, word);
        assert_eq!(bc.fetch(base + 2, &mut phys), Some(movz(3, 5)));
        // Straddling the frame boundary.
        phys.write_u32(base + PAGE_SIZE - 2, word);
        assert_eq!(bc.fetch(base + PAGE_SIZE - 2, &mut phys), Some(movz(3, 5)));
        assert_eq!(bc.stats.bypasses, 2);
        assert_eq!(bc.stats.hits + bc.stats.misses, 0);
    }

    #[test]
    fn runs_stop_at_unconditional_control_flow() {
        let mut phys = PhysMemory::new();
        let mut bc = BlockCache::new();
        let base = backed(&mut phys);
        write_inst(&mut phys, base, Inst::Ret);
        // The word after the RET is garbage; a run that decoded past the
        // RET would still succeed (garbage may decode), but must not be
        // *required* to. Either way the RET itself dispatches.
        phys.write_u32(base + 4, 0xFFFF_FFFF);
        assert_eq!(bc.fetch(base, &mut phys), Some(Inst::Ret));
        assert_eq!(bc.stats.decoded, 1, "run ends at the RET");
    }
}
