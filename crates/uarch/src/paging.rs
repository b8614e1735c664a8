//! Page tables: 48-bit VA, 16 KB granule, three translation levels.
//!
//! With a 16 KB granule each table holds 2048 eight-byte entries, so a
//! 47-bit half of the address space translates in three levels
//! (11 + 11 + 11 + 14 bits). Bit 47 selects the root: `TTBR0` for the
//! user half, `TTBR1` for the kernel half — which is also how canonical
//! pointer kinds are derived in `pacman_isa::ptr`.
//!
//! Tables live in simulated physical memory, so a table walk is a real
//! sequence of physical reads.

use pacman_isa::ptr::{PointerKind, VirtualAddress, PAGE_SIZE};

use crate::mem::PhysMemory;
use crate::tlb::TlbEntry;

/// Page permissions.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct Perms {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub execute: bool,
    /// Accessible from EL0 (user pages). Kernel pages are EL1-only.
    pub user: bool,
}

impl Perms {
    /// Read/write user data page.
    pub fn user_rw() -> Self {
        Self { read: true, write: true, execute: false, user: true }
    }

    /// Read/execute user code page.
    pub fn user_rx() -> Self {
        Self { read: true, write: false, execute: true, user: true }
    }

    /// Read/write/execute user page (the paper's JIT region, §7.3).
    pub fn user_rwx() -> Self {
        Self { read: true, write: true, execute: true, user: true }
    }

    /// Read/write kernel data page.
    pub fn kernel_rw() -> Self {
        Self { read: true, write: true, execute: false, user: false }
    }

    /// Read/execute kernel code page.
    pub fn kernel_rx() -> Self {
        Self { read: true, write: false, execute: true, user: false }
    }

    /// Fully permissive kernel page (test fixtures).
    pub fn kernel_rwx() -> Self {
        Self { read: true, write: true, execute: true, user: false }
    }
}

const VALID: u64 = 1 << 0;
const LEAF: u64 = 1 << 1;
const P_READ: u64 = 1 << 48;
const P_WRITE: u64 = 1 << 49;
const P_EXEC: u64 = 1 << 50;
const P_USER: u64 = 1 << 51;
const ADDR_FIELD: u64 = 0x0000_FFFF_FFFF_C000; // bits [47:14]

fn encode_leaf(pfn: u64, perms: Perms) -> u64 {
    let mut pte = VALID | LEAF | ((pfn * PAGE_SIZE) & ADDR_FIELD);
    if perms.read {
        pte |= P_READ;
    }
    if perms.write {
        pte |= P_WRITE;
    }
    if perms.execute {
        pte |= P_EXEC;
    }
    if perms.user {
        pte |= P_USER;
    }
    pte
}

fn decode_leaf(pte: u64) -> (u64, Perms) {
    let pfn = (pte & ADDR_FIELD) / PAGE_SIZE;
    let perms = Perms {
        read: pte & P_READ != 0,
        write: pte & P_WRITE != 0,
        execute: pte & P_EXEC != 0,
        user: pte & P_USER != 0,
    };
    (pfn, perms)
}

/// Why a translation failed.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum WalkError {
    /// No valid mapping at some level.
    Unmapped,
}

/// The two translation roots plus mapping helpers.
#[derive(Copy, Clone, Debug)]
pub struct PageTables {
    ttbr0: u64,
    ttbr1: u64,
}

impl PageTables {
    /// Allocates empty root tables for both halves.
    pub fn new(mem: &mut PhysMemory) -> Self {
        let ttbr0 = mem.alloc_frame() * PAGE_SIZE;
        let ttbr1 = mem.alloc_frame() * PAGE_SIZE;
        Self { ttbr0, ttbr1 }
    }

    fn root(&self, kind: PointerKind) -> u64 {
        match kind {
            PointerKind::User => self.ttbr0,
            PointerKind::Kernel => self.ttbr1,
        }
    }

    fn indices(va: VirtualAddress) -> [u64; 3] {
        let vpn = va.vpn(); // 34 bits: [33] selects root, [32:22][21:11][10:0]
        [(vpn >> 22) & 0x7FF, (vpn >> 11) & 0x7FF, vpn & 0x7FF]
    }

    /// Maps `va` to physical frame `pfn` with `perms`, allocating
    /// intermediate tables as needed. Remapping an address replaces its
    /// leaf entry.
    pub fn map(&self, mem: &mut PhysMemory, va: VirtualAddress, pfn: u64, perms: Perms) {
        let mut table = self.root(va.kind());
        let idx = Self::indices(va);
        for &i in &idx[..2] {
            let pte_addr = table + i * 8;
            let pte = mem.read_u64(pte_addr);
            if pte & VALID == 0 {
                let next = mem.alloc_frame() * PAGE_SIZE;
                mem.write_u64(pte_addr, VALID | (next & ADDR_FIELD));
                table = next;
            } else {
                table = pte & ADDR_FIELD;
            }
        }
        mem.write_u64(table + idx[2] * 8, encode_leaf(pfn, perms));
    }

    /// Maps `va` to a freshly allocated zeroed frame, returning its pfn.
    pub fn map_fresh(&self, mem: &mut PhysMemory, va: VirtualAddress, perms: Perms) -> u64 {
        let pfn = mem.alloc_frame();
        self.map(mem, va, pfn, perms);
        pfn
    }

    /// Removes the mapping for `va` (leaf only).
    pub fn unmap(&self, mem: &mut PhysMemory, va: VirtualAddress) {
        let mut table = self.root(va.kind());
        let idx = Self::indices(va);
        for &i in &idx[..2] {
            let pte = mem.read_u64(table + i * 8);
            if pte & VALID == 0 {
                return;
            }
            table = pte & ADDR_FIELD;
        }
        mem.write_u64(table + idx[2] * 8, 0);
    }

    /// Walks the tables for `va`. Returns the translation and the number
    /// of physical memory reads performed (the walk's cost driver).
    ///
    /// # Errors
    ///
    /// [`WalkError::Unmapped`] if any level is invalid.
    pub fn walk(&self, mem: &PhysMemory, va: VirtualAddress) -> Result<(TlbEntry, u32), WalkError> {
        let mut table = self.root(va.kind());
        let idx = Self::indices(va);
        let mut reads = 0;
        for &i in &idx[..2] {
            let pte = mem.read_u64(table + i * 8);
            reads += 1;
            if pte & VALID == 0 {
                return Err(WalkError::Unmapped);
            }
            table = pte & ADDR_FIELD;
        }
        let pte = mem.read_u64(table + idx[2] * 8);
        reads += 1;
        if pte & VALID == 0 || pte & LEAF == 0 {
            return Err(WalkError::Unmapped);
        }
        let (pfn, perms) = decode_leaf(pte);
        Ok((TlbEntry { vpn: va.vpn(), pfn, perms }, reads))
    }

    /// Translates `va` to a physical address (walk + page offset); `None`
    /// if unmapped. Convenience for debug accessors.
    pub fn translate(&self, mem: &PhysMemory, va: VirtualAddress) -> Option<u64> {
        let (entry, _) = self.walk(mem, va).ok()?;
        Some(entry.pfn * PAGE_SIZE + va.page_offset())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USER_VA: u64 = 0x0000_7F12_3456_8000;
    const KERNEL_VA: u64 = 0xFFFF_FFF0_0765_4000;

    #[test]
    fn map_then_walk_roundtrips() {
        let mut mem = PhysMemory::new();
        let pt = PageTables::new(&mut mem);
        let va = VirtualAddress::new(USER_VA);
        let pfn = pt.map_fresh(&mut mem, va, Perms::user_rw());
        let (entry, reads) = pt.walk(&mem, va).unwrap();
        assert_eq!(entry.pfn, pfn);
        assert_eq!(entry.vpn, va.vpn());
        assert_eq!(entry.perms, Perms::user_rw());
        assert_eq!(reads, 3, "three-level walk");
    }

    #[test]
    fn user_and_kernel_halves_use_separate_roots() {
        let mut mem = PhysMemory::new();
        let pt = PageTables::new(&mut mem);
        let uva = VirtualAddress::new(USER_VA);
        let kva = VirtualAddress::new(KERNEL_VA);
        let upfn = pt.map_fresh(&mut mem, uva, Perms::user_rw());
        let kpfn = pt.map_fresh(&mut mem, kva, Perms::kernel_rx());
        assert_ne!(upfn, kpfn);
        assert_eq!(pt.walk(&mem, uva).unwrap().0.perms, Perms::user_rw());
        assert_eq!(pt.walk(&mem, kva).unwrap().0.perms, Perms::kernel_rx());
    }

    #[test]
    fn unmapped_addresses_fault() {
        let mut mem = PhysMemory::new();
        let pt = PageTables::new(&mut mem);
        assert_eq!(pt.walk(&mem, VirtualAddress::new(USER_VA)), Err(WalkError::Unmapped));
        // Mapping one page does not map its neighbour.
        pt.map_fresh(&mut mem, VirtualAddress::new(USER_VA), Perms::user_rw());
        assert!(pt.walk(&mem, VirtualAddress::new(USER_VA + PAGE_SIZE)).is_err());
    }

    #[test]
    fn unmap_removes_leaf() {
        let mut mem = PhysMemory::new();
        let pt = PageTables::new(&mut mem);
        let va = VirtualAddress::new(USER_VA);
        pt.map_fresh(&mut mem, va, Perms::user_rw());
        pt.unmap(&mut mem, va);
        assert!(pt.walk(&mem, va).is_err());
    }

    #[test]
    fn translate_applies_page_offset() {
        let mut mem = PhysMemory::new();
        let pt = PageTables::new(&mut mem);
        let va = VirtualAddress::new(USER_VA + 0x123);
        let pfn = pt.map_fresh(&mut mem, VirtualAddress::new(USER_VA), Perms::user_rw());
        let pa = pt.translate(&mem, va).unwrap();
        assert_eq!(pa, pfn * PAGE_SIZE + (USER_VA + 0x123) % PAGE_SIZE);
    }

    #[test]
    fn remap_replaces() {
        let mut mem = PhysMemory::new();
        let pt = PageTables::new(&mut mem);
        let va = VirtualAddress::new(KERNEL_VA);
        pt.map_fresh(&mut mem, va, Perms::kernel_rw());
        let pfn2 = mem.alloc_frame();
        pt.map(&mut mem, va, pfn2, Perms::kernel_rx());
        let (entry, _) = pt.walk(&mem, va).unwrap();
        assert_eq!(entry.pfn, pfn2);
        assert_eq!(entry.perms, Perms::kernel_rx());
    }

    #[test]
    fn pte_codec_roundtrips() {
        for perms in [Perms::user_rw(), Perms::user_rx(), Perms::kernel_rw(), Perms::kernel_rwx()] {
            let (pfn, p) = decode_leaf(encode_leaf(12345, perms));
            assert_eq!(pfn, 12345);
            assert_eq!(p, perms);
        }
    }

    #[test]
    fn distant_pages_share_intermediate_tables_lazily() {
        let mut mem = PhysMemory::new();
        let pt = PageTables::new(&mut mem);
        let before = mem.frame_count();
        // Two pages in the same 32 MB region share L2/L3 tables.
        pt.map_fresh(&mut mem, VirtualAddress::new(USER_VA), Perms::user_rw());
        pt.map_fresh(&mut mem, VirtualAddress::new(USER_VA + PAGE_SIZE), Perms::user_rw());
        let after = mem.frame_count();
        // 2 intermediate tables + 2 data frames.
        assert_eq!(after - before, 4);
    }
}
