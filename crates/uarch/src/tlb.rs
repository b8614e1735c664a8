//! The TLB hierarchy reverse-engineered in paper §7 (Figure 6).
//!
//! Per p-core there are four structures:
//!
//! - two private L1 instruction TLBs (4 ways × 32 sets), one for
//!   userspace and one for kernelspace fetches — *not* shared across
//!   privilege levels;
//! - one L1 data TLB (12 ways × 256 sets), shared across privilege
//!   levels — the channel all the PoC attacks monitor;
//! - one L2 TLB (23 ways × 2048 sets), shared.
//!
//! The paper's key §7.3 finding is modelled exactly: the L1 dTLB serves as
//! a **non-inclusive backing store** of the iTLBs — an entry evicted from
//! an iTLB is inserted into the dTLB (becoming visible to loads), while an
//! entry resident only in an iTLB is invisible to the load/store port.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::paging::Perms;

/// Geometry of one TLB structure.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct TlbParams {
    /// Associativity.
    pub ways: usize,
    /// Number of sets (power of two).
    pub sets: usize,
}

/// One cached translation.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct TlbEntry {
    /// Virtual page number (canonical VA bits `[47:14]`).
    pub vpn: u64,
    /// Physical frame number.
    pub pfn: u64,
    /// Page permissions.
    pub perms: Perms,
}

/// A single set-associative, true-LRU TLB.
///
/// Entries live in one flat allocation indexed `set * ways + way`, with
/// way 0 the MRU; only the first `occ[set]` ways of a set are live. LRU
/// maintenance is slice rotation within the set's window, so lookups,
/// fills and invalidates never allocate — this structure sits on every
/// simulated memory access.
#[derive(Clone, Debug)]
pub struct Tlb {
    params: TlbParams,
    /// Cached `sets - 1` (sets are a power of two).
    set_mask: usize,
    /// Flat MRU-first entry storage; slots beyond a set's occupancy are
    /// dead and never read.
    entries: Vec<TlbEntry>,
    /// Live-way count per set.
    occ: Vec<u16>,
}

/// Placeholder filling dead slots (never observable through the API).
const DEAD: TlbEntry = TlbEntry {
    vpn: 0,
    pfn: 0,
    perms: Perms { read: false, write: false, execute: false, user: false },
};

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(params: TlbParams) -> Self {
        assert!(params.ways > 0 && params.sets.is_power_of_two());
        Self {
            params,
            set_mask: params.sets - 1,
            entries: vec![DEAD; params.ways * params.sets],
            occ: vec![0; params.sets],
        }
    }

    /// This TLB's geometry.
    pub fn params(&self) -> TlbParams {
        self.params
    }

    /// The set index a virtual page number maps to.
    pub fn set_of(&self, vpn: u64) -> usize {
        (vpn as usize) & self.set_mask
    }

    /// Looks up a translation, promoting it to MRU on hit.
    #[inline]
    pub fn lookup(&mut self, vpn: u64) -> Option<TlbEntry> {
        self.lookup_promoting(vpn).map(|(e, _)| e)
    }

    /// [`Tlb::lookup`], also saying whether the hit moved the entry (it
    /// was not already the MRU way).
    #[inline]
    pub(crate) fn lookup_promoting(&mut self, vpn: u64) -> Option<(TlbEntry, bool)> {
        let set = self.set_of(vpn);
        let base = set * self.params.ways;
        let n = self.occ[set] as usize;
        let live = &mut self.entries[base..base + n];
        // Re-touching the MRU way (consecutive accesses to one page) needs
        // no promotion.
        match live.first() {
            Some(e) if e.vpn == vpn => Some((*e, false)),
            _ => {
                let pos = live.iter().position(|e| e.vpn == vpn)?;
                let hit = live[pos];
                live.copy_within(..pos, 1);
                live[0] = hit;
                Some((hit, true))
            }
        }
    }

    /// Presence check without LRU side effects.
    pub fn contains(&self, vpn: u64) -> bool {
        let set = self.set_of(vpn);
        let base = set * self.params.ways;
        self.entries[base..base + self.occ[set] as usize].iter().any(|e| e.vpn == vpn)
    }

    /// Inserts an entry as MRU, returning the evicted LRU victim if the
    /// set overflowed. Re-inserting an existing vpn replaces it.
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        let set = self.set_of(entry.vpn);
        let base = set * self.params.ways;
        let mut n = self.occ[set] as usize;
        let ways = &mut self.entries[base..base + self.params.ways];
        if let Some(pos) = ways[..n].iter().position(|e| e.vpn == entry.vpn) {
            // Remove in place (the replacement may carry a new pfn/perms).
            ways[pos..n].rotate_left(1);
            n -= 1;
            self.occ[set] -= 1;
        }
        if n == ways.len() {
            let victim = ways[n - 1];
            ways.rotate_right(1);
            ways[0] = entry;
            Some(victim)
        } else {
            ways[..=n].rotate_right(1);
            ways[0] = entry;
            self.occ[set] += 1;
            None
        }
    }

    /// Drops the entry for `vpn` if present.
    pub fn invalidate(&mut self, vpn: u64) -> bool {
        let set = self.set_of(vpn);
        let base = set * self.params.ways;
        let n = self.occ[set] as usize;
        let live = &mut self.entries[base..base + n];
        if let Some(pos) = live.iter().position(|e| e.vpn == vpn) {
            live[pos..].rotate_left(1);
            self.occ[set] -= 1;
            true
        } else {
            false
        }
    }

    /// Drops everything (a `tlbi`-style full invalidate).
    pub fn flush(&mut self) {
        self.occ.fill(0);
    }

    /// Number of valid entries currently in `set`.
    pub fn occupancy(&self, set: usize) -> usize {
        self.occ[set] as usize
    }
}

/// Which privilege level an instruction fetch executes at (selects the
/// private iTLB).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum FetchWorld {
    /// EL0 fetch.
    User,
    /// EL1 fetch.
    Kernel,
}

/// Result of a data-side hierarchy lookup.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum DataLookup {
    /// Hit in the L1 dTLB.
    DtlbHit(TlbEntry),
    /// Missed the dTLB, hit the L2 TLB; the dTLB has been refilled.
    L2Hit(TlbEntry),
    /// Missed everywhere; the caller must walk the page tables and then
    /// call [`TlbHierarchy::fill_data`].
    Miss,
}

/// Result of an instruction-side hierarchy lookup.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum FetchLookup {
    /// Hit in the private L1 iTLB.
    ItlbHit(TlbEntry),
    /// Missed the iTLB, hit the L2 TLB; the iTLB has been refilled (and
    /// any iTLB victim migrated into the dTLB).
    L2Hit(TlbEntry),
    /// Missed everywhere; walk then call [`TlbHierarchy::fill_fetch`].
    Miss,
}

/// Per-structure hit/miss/fill/eviction counters, always on (plain `u64`
/// adds on paths that already do set scans; exported into a telemetry
/// registry only at snapshot boundaries).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub struct TlbStats {
    /// dTLB hits.
    pub dtlb_hits: u64,
    /// dTLB misses.
    pub dtlb_misses: u64,
    /// dTLB entry installs (refills, walks, and §7.3 migrations).
    pub dtlb_fills: u64,
    /// dTLB capacity evictions.
    pub dtlb_evictions: u64,
    /// iTLB hits (both worlds).
    pub itlb_hits: u64,
    /// iTLB misses (both worlds).
    pub itlb_misses: u64,
    /// User-world iTLB hits.
    pub itlb_user_hits: u64,
    /// User-world iTLB misses.
    pub itlb_user_misses: u64,
    /// User-world iTLB entry installs.
    pub itlb_user_fills: u64,
    /// User-world iTLB capacity evictions.
    pub itlb_user_evictions: u64,
    /// Kernel-world iTLB hits.
    pub itlb_kernel_hits: u64,
    /// Kernel-world iTLB misses.
    pub itlb_kernel_misses: u64,
    /// Kernel-world iTLB entry installs.
    pub itlb_kernel_fills: u64,
    /// Kernel-world iTLB capacity evictions.
    pub itlb_kernel_evictions: u64,
    /// L2 TLB hits.
    pub l2_hits: u64,
    /// L2 TLB misses (a full walk is required).
    pub l2_misses: u64,
    /// L2 TLB entry installs.
    pub l2_fills: u64,
    /// L2 TLB capacity evictions.
    pub l2_evictions: u64,
    /// Full page-table walks.
    pub walks: u64,
    /// iTLB victims migrated into the dTLB (the §7.3 backing-store path).
    pub itlb_to_dtlb_migrations: u64,
}

/// Identity of one [`TlbHierarchy`]'s iTLB contents: the hierarchy's
/// instance id plus a generation bumped whenever either private iTLB
/// changes — a fill, a hit that promotes an entry to MRU, a flush. Two
/// equal epochs read from the same live hierarchy mean neither iTLB
/// changed in between, so every entry that was the MRU way of its set
/// still is. The instance id (unique per construction and
/// per clone) keeps an epoch taken from one hierarchy from matching a
/// replacement whose generation happens to read the same. Host-only.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub(crate) struct FetchEpoch {
    instance: u64,
    generation: u64,
}

/// Source of [`FetchEpoch`] instance ids (0 is [`FetchEpoch::NONE`]'s).
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

impl FetchEpoch {
    /// Matches no hierarchy's epoch.
    pub(crate) const NONE: Self = Self { instance: 0, generation: 0 };

    fn fresh() -> Self {
        Self { instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed), generation: 0 }
    }
}

/// The full Figure 6 hierarchy.
#[derive(Debug)]
pub struct TlbHierarchy {
    itlb_user: Tlb,
    itlb_kernel: Tlb,
    dtlb: Tlb,
    l2: Tlb,
    /// One-entry fetch fast path: the last fetch lookup's world, vpn and
    /// entry, valid only while that entry is still the MRU way of its
    /// iTLB set. A fast-path hit performs exactly the counter updates the
    /// full scan would and promotes nothing (the entry is already MRU),
    /// so it is invisible to the simulation; any iTLB insert or flush
    /// clears it.
    fetch_fast: Option<(FetchWorld, u64, TlbEntry)>,
    /// Moved on by every iTLB change (see [`FetchEpoch`]).
    fetch_epoch: FetchEpoch,
    /// One-entry data-side fast path with the same contract as
    /// `fetch_fast`: valid only while the entry is the dTLB set's MRU
    /// way; any dTLB insert or flush clears it.
    data_fast: Option<(u64, TlbEntry)>,
    /// Counters (public for experiment reporting).
    pub stats: TlbStats,
}

impl Clone for TlbHierarchy {
    /// A copy with a fresh [`FetchEpoch`] instance, so an epoch taken
    /// from either side never vouches for the other's iTLBs.
    fn clone(&self) -> Self {
        Self {
            itlb_user: self.itlb_user.clone(),
            itlb_kernel: self.itlb_kernel.clone(),
            dtlb: self.dtlb.clone(),
            l2: self.l2.clone(),
            fetch_fast: self.fetch_fast,
            fetch_epoch: FetchEpoch::fresh(),
            data_fast: self.data_fast,
            stats: self.stats,
        }
    }
}

impl TlbHierarchy {
    /// Builds the hierarchy from per-structure parameters.
    pub fn new(itlb: TlbParams, dtlb: TlbParams, l2: TlbParams) -> Self {
        Self {
            itlb_user: Tlb::new(itlb),
            itlb_kernel: Tlb::new(itlb),
            dtlb: Tlb::new(dtlb),
            l2: Tlb::new(l2),
            fetch_fast: None,
            fetch_epoch: FetchEpoch::fresh(),
            data_fast: None,
            stats: TlbStats::default(),
        }
    }

    /// Records an iTLB change, moving the epoch on.
    fn itlb_changed(&mut self) {
        self.fetch_epoch.generation += 1;
    }

    /// The current iTLB epoch. While it is unchanged, a
    /// [`TlbHierarchy::lookup_fetch`] of any world and vpn that returned
    /// a translation at or after this epoch is again an iTLB hit on the
    /// same entry, already MRU, that only moves the hit counters
    /// ([`TlbHierarchy::count_itlb_hits`]).
    #[inline]
    pub(crate) fn fetch_epoch(&self) -> FetchEpoch {
        self.fetch_epoch
    }

    fn itlb_mut(&mut self, world: FetchWorld) -> &mut Tlb {
        match world {
            FetchWorld::User => &mut self.itlb_user,
            FetchWorld::Kernel => &mut self.itlb_kernel,
        }
    }

    /// Shared-dTLB accessor (read-only; the probe primitives in the attack
    /// crate go through timed loads, not this).
    pub fn dtlb(&self) -> &Tlb {
        &self.dtlb
    }

    /// The private iTLB for a world (read-only).
    pub fn itlb(&self, world: FetchWorld) -> &Tlb {
        match world {
            FetchWorld::User => &self.itlb_user,
            FetchWorld::Kernel => &self.itlb_kernel,
        }
    }

    /// The shared L2 TLB (read-only).
    pub fn l2(&self) -> &Tlb {
        &self.l2
    }

    /// Data-side lookup for a load/store.
    pub fn lookup_data(&mut self, vpn: u64) -> DataLookup {
        if let Some((v, e)) = self.data_fast {
            if v == vpn {
                self.stats.dtlb_hits += 1;
                return DataLookup::DtlbHit(e);
            }
        }
        if let Some(e) = self.dtlb.lookup(vpn) {
            self.stats.dtlb_hits += 1;
            self.data_fast = Some((vpn, e));
            return DataLookup::DtlbHit(e);
        }
        self.stats.dtlb_misses += 1;
        if let Some(e) = self.l2.lookup(vpn) {
            self.stats.l2_hits += 1;
            self.dtlb_insert_counted(e);
            return DataLookup::L2Hit(e);
        }
        self.stats.l2_misses += 1;
        DataLookup::Miss
    }

    /// Installs a walked translation on the data side (L2 + dTLB).
    pub fn fill_data(&mut self, entry: TlbEntry) {
        self.stats.walks += 1;
        self.l2_insert_counted(entry);
        self.dtlb_insert_counted(entry);
    }

    /// Instruction-side lookup for a fetch at the given privilege.
    pub fn lookup_fetch(&mut self, world: FetchWorld, vpn: u64) -> FetchLookup {
        if let Some((w, v, e)) = self.fetch_fast {
            // Consecutive fetches overwhelmingly re-touch the same page;
            // the cached entry is still its set's MRU way, so the full
            // scan below would hit it without promotion.
            if w == world && v == vpn {
                self.count_itlb_hits(world, 1);
                return FetchLookup::ItlbHit(e);
            }
        }
        if let Some((e, promoted)) = self.itlb_mut(world).lookup_promoting(vpn) {
            self.count_itlb_hits(world, 1);
            if promoted {
                self.itlb_changed();
            }
            self.fetch_fast = Some((world, vpn, e));
            return FetchLookup::ItlbHit(e);
        }
        self.stats.itlb_misses += 1;
        match world {
            FetchWorld::User => self.stats.itlb_user_misses += 1,
            FetchWorld::Kernel => self.stats.itlb_kernel_misses += 1,
        }
        if let Some(e) = self.l2.lookup(vpn) {
            self.stats.l2_hits += 1;
            self.fill_itlb_with_migration(world, e);
            return FetchLookup::L2Hit(e);
        }
        self.stats.l2_misses += 1;
        FetchLookup::Miss
    }

    /// Installs a walked translation on the fetch side (L2 + iTLB, with
    /// victim migration into the dTLB).
    pub fn fill_fetch(&mut self, world: FetchWorld, entry: TlbEntry) {
        self.stats.walks += 1;
        self.l2_insert_counted(entry);
        self.fill_itlb_with_migration(world, entry);
    }

    /// The counter updates of `n` iTLB hits, and nothing else.
    #[inline]
    pub(crate) fn count_itlb_hits(&mut self, world: FetchWorld, n: u64) {
        self.stats.itlb_hits += n;
        match world {
            FetchWorld::User => self.stats.itlb_user_hits += n,
            FetchWorld::Kernel => self.stats.itlb_kernel_hits += n,
        }
    }

    /// The §7.3 behaviour: an iTLB fill whose victim is re-homed into the
    /// shared dTLB, where userspace Prime+Probe can see it.
    fn fill_itlb_with_migration(&mut self, world: FetchWorld, entry: TlbEntry) {
        // The insert reorders the set (and may replace the cached entry's
        // pfn/perms under the same vpn), so the fetch fast path dies.
        self.fetch_fast = None;
        self.itlb_changed();
        let victim = self.itlb_mut(world).insert(entry);
        match world {
            FetchWorld::User => {
                self.stats.itlb_user_fills += 1;
                self.stats.itlb_user_evictions += u64::from(victim.is_some());
            }
            FetchWorld::Kernel => {
                self.stats.itlb_kernel_fills += 1;
                self.stats.itlb_kernel_evictions += u64::from(victim.is_some());
            }
        }
        if let Some(victim) = victim {
            self.stats.itlb_to_dtlb_migrations += 1;
            self.dtlb_insert_counted(victim);
        }
    }

    fn dtlb_insert_counted(&mut self, entry: TlbEntry) {
        // The insert reorders the set (and may replace the cached entry
        // in place), so the data fast path dies.
        self.data_fast = None;
        self.stats.dtlb_fills += 1;
        if self.dtlb.insert(entry).is_some() {
            self.stats.dtlb_evictions += 1;
        }
    }

    fn l2_insert_counted(&mut self, entry: TlbEntry) {
        self.stats.l2_fills += 1;
        if self.l2.insert(entry).is_some() {
            self.stats.l2_evictions += 1;
        }
    }

    /// Full hierarchy invalidate.
    pub fn flush(&mut self) {
        self.fetch_fast = None;
        self.itlb_changed();
        self.data_fast = None;
        self.itlb_user.flush();
        self.itlb_kernel.flush();
        self.dtlb.flush();
        self.l2.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(vpn: u64) -> TlbEntry {
        TlbEntry { vpn, pfn: vpn + 1000, perms: Perms::kernel_rwx() }
    }

    fn small_hierarchy() -> TlbHierarchy {
        TlbHierarchy::new(
            TlbParams { ways: 2, sets: 4 },
            TlbParams { ways: 3, sets: 8 },
            TlbParams { ways: 4, sets: 16 },
        )
    }

    #[test]
    fn tlb_lru_and_eviction() {
        let mut t = Tlb::new(TlbParams { ways: 2, sets: 4 });
        // vpns 0, 4, 8 all map to set 0.
        assert!(t.insert(entry(0)).is_none());
        assert!(t.insert(entry(4)).is_none());
        let victim = t.insert(entry(8)).expect("set overflow evicts");
        assert_eq!(victim.vpn, 0);
        assert!(t.contains(4) && t.contains(8) && !t.contains(0));
    }

    #[test]
    fn lookup_promotes_to_mru() {
        let mut t = Tlb::new(TlbParams { ways: 2, sets: 4 });
        t.insert(entry(0));
        t.insert(entry(4));
        assert!(t.lookup(0).is_some());
        let victim = t.insert(entry(8)).unwrap();
        assert_eq!(victim.vpn, 4, "entry 0 was refreshed, 4 is LRU");
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut t = Tlb::new(TlbParams { ways: 2, sets: 4 });
        t.insert(entry(0));
        let mut e = entry(0);
        e.pfn = 77;
        assert!(t.insert(e).is_none());
        assert_eq!(t.lookup(0).unwrap().pfn, 77);
        assert_eq!(t.occupancy(0), 1);
    }

    #[test]
    fn data_lookup_fills_from_l2() {
        let mut h = small_hierarchy();
        h.fill_data(entry(5));
        // Knock it out of the dTLB only.
        assert!(h.dtlb.contains(5));
        h.dtlb.invalidate(5);
        assert_eq!(h.lookup_data(5), DataLookup::L2Hit(entry(5)));
        // Now it is back in the dTLB.
        assert_eq!(h.lookup_data(5), DataLookup::DtlbHit(entry(5)));
    }

    #[test]
    fn data_miss_requires_walk() {
        let mut h = small_hierarchy();
        assert_eq!(h.lookup_data(9), DataLookup::Miss);
        h.fill_data(entry(9));
        assert_eq!(h.lookup_data(9), DataLookup::DtlbHit(entry(9)));
    }

    #[test]
    fn itlbs_are_private_per_world() {
        let mut h = small_hierarchy();
        h.fill_fetch(FetchWorld::Kernel, entry(3));
        assert!(h.itlb(FetchWorld::Kernel).contains(3));
        assert!(!h.itlb(FetchWorld::User).contains(3));
        // A user fetch of the same page misses its own iTLB and refills
        // from L2.
        assert_eq!(h.lookup_fetch(FetchWorld::User, 3), FetchLookup::L2Hit(entry(3)));
        assert!(h.itlb(FetchWorld::User).contains(3));
    }

    #[test]
    fn itlb_resident_entry_is_invisible_to_loads() {
        // §7.3: an entry only in the iTLB (and L2) does not hit on the
        // data side — loads must go to the L2 TLB.
        let mut h = small_hierarchy();
        h.fill_fetch(FetchWorld::Kernel, entry(7));
        assert!(!h.dtlb().contains(7));
        assert_eq!(h.lookup_data(7), DataLookup::L2Hit(entry(7)));
    }

    #[test]
    fn itlb_eviction_migrates_victim_into_dtlb() {
        // §7.3: filling an iTLB set past its associativity re-homes the
        // LRU entry into the shared dTLB. This is the mechanism the
        // instruction-gadget PoC (§8.1) depends on.
        let mut h = small_hierarchy();
        // iTLB: 2 ways, 4 sets; vpns 0,4,8 share iTLB set 0.
        h.fill_fetch(FetchWorld::Kernel, entry(0));
        h.fill_fetch(FetchWorld::Kernel, entry(4));
        assert!(!h.dtlb().contains(0));
        h.fill_fetch(FetchWorld::Kernel, entry(8)); // evicts vpn 0
        assert!(h.dtlb().contains(0), "victim must appear in the shared dTLB");
        assert_eq!(h.stats.itlb_to_dtlb_migrations, 1);
        // And it is now visible to loads as a dTLB hit.
        assert_eq!(h.lookup_data(0), DataLookup::DtlbHit(entry(0)));
    }

    #[test]
    fn flush_clears_everything() {
        let mut h = small_hierarchy();
        h.fill_data(entry(1));
        h.fill_fetch(FetchWorld::User, entry(2));
        h.flush();
        assert_eq!(h.lookup_data(1), DataLookup::Miss);
        assert_eq!(h.lookup_fetch(FetchWorld::User, 2), FetchLookup::Miss);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut h = small_hierarchy();
        h.fill_data(entry(1));
        let _ = h.lookup_data(1); // hit
        let _ = h.lookup_data(2); // miss (walk not performed)
        assert_eq!(h.stats.dtlb_hits, 1);
        assert_eq!(h.stats.dtlb_misses, 1);
        assert_eq!(h.stats.walks, 1);
        assert_eq!(h.stats.l2_misses, 1, "the full miss also missed L2");
        assert_eq!(h.stats.dtlb_fills, 1);
        assert_eq!(h.stats.l2_fills, 1);
    }

    #[test]
    fn the_fetch_epoch_moves_exactly_when_an_itlb_changes() {
        let mut h = small_hierarchy();
        let e0 = h.fetch_epoch();
        h.fill_fetch(FetchWorld::Kernel, entry(0));
        h.fill_fetch(FetchWorld::Kernel, entry(4)); // same set, now MRU
        let filled = h.fetch_epoch();
        assert_ne!(filled, e0, "fills change the iTLB");
        // MRU re-hits (fast path or scan) and data-side traffic leave
        // the iTLBs as they were.
        let _ = h.lookup_fetch(FetchWorld::Kernel, 4);
        let _ = h.lookup_fetch(FetchWorld::Kernel, 4);
        h.fill_data(entry(9));
        let _ = h.lookup_data(9);
        assert_eq!(h.fetch_epoch(), filled);
        // Promoting vpn 0 over vpn 4 reorders the set.
        let _ = h.lookup_fetch(FetchWorld::Kernel, 0);
        let promoted = h.fetch_epoch();
        assert_ne!(promoted, filled);
        h.flush();
        assert_ne!(h.fetch_epoch(), promoted);
        // A clone never shares an epoch with its original, whatever
        // either does next.
        let mut copy = h.clone();
        assert_ne!(copy.fetch_epoch(), h.fetch_epoch());
        h.flush();
        copy.flush();
        assert_ne!(copy.fetch_epoch(), h.fetch_epoch());
    }

    #[test]
    fn stats_split_itlb_worlds_and_count_evictions() {
        let mut h = small_hierarchy();
        h.fill_fetch(FetchWorld::Kernel, entry(0));
        h.fill_fetch(FetchWorld::User, entry(0));
        let _ = h.lookup_fetch(FetchWorld::Kernel, 0); // kernel hit
        let _ = h.lookup_fetch(FetchWorld::User, 1); // user miss (L2 miss too)
        assert_eq!(h.stats.itlb_kernel_hits, 1);
        assert_eq!(h.stats.itlb_user_hits, 0);
        assert_eq!(h.stats.itlb_user_misses, 1);
        assert_eq!(h.stats.itlb_kernel_misses, 0);
        assert_eq!(h.stats.itlb_kernel_fills, 1);
        assert_eq!(h.stats.itlb_user_fills, 1);
        // Overflow kernel iTLB set 0 (2 ways; vpns 0,4,8 share it).
        h.fill_fetch(FetchWorld::Kernel, entry(4));
        h.fill_fetch(FetchWorld::Kernel, entry(8));
        assert_eq!(h.stats.itlb_kernel_evictions, 1);
        assert_eq!(h.stats.itlb_user_evictions, 0);
        // The migrated victim counts as a dTLB fill.
        assert_eq!(h.stats.itlb_to_dtlb_migrations, 1);
        assert!(h.stats.dtlb_fills >= 1);
    }
}
