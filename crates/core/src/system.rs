//! The attack platform: one machine + one booted kernel + the PoC kexts.

use pacman_isa::PacKey;
use pacman_kernel::kext::{CppKext, GadgetKext, PmcKext};
use pacman_kernel::{layout, Kernel};
use pacman_telemetry::{Registry, Snapshot};
use pacman_uarch::{FramePool, Machine, MachineConfig, Perms, TimingSource};

/// Configuration for [`System::boot`].
///
/// `PartialEq` (inherited float fields keep it from being `Eq`) is what
/// the [`crate::pool`] system pool keys recycled machines by.
#[derive(Clone, PartialEq, Debug)]
pub struct SystemConfig {
    /// Machine (microarchitecture) configuration.
    pub machine: MachineConfig,
    /// Seed for the kernel's per-boot key generator.
    pub kernel_seed: u64,
    /// Timing source the attacker uses (the real attack uses the
    /// multi-thread timer; the reverse-engineering experiments use PMC0
    /// through the PMC kext).
    pub timing: TimingSource,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            machine: MachineConfig::default(),
            kernel_seed: 0xA11CE,
            timing: TimingSource::MultiThread,
        }
    }
}

/// A booted attack platform: the simulated M1-like machine, the XNU-like
/// kernel, and the paper's PoC kexts.
#[derive(Debug)]
pub struct System {
    /// The machine.
    pub machine: Machine,
    /// The kernel.
    pub kernel: Kernel,
    /// The §8.1 Listing-1 gadget kext.
    pub gadget: GadgetKext,
    /// The §8.3 C++ dispatch kext.
    pub cpp: CppKext,
    /// The §6.1 performance-counter kext.
    pub pmc: PmcKext,
    /// Attack-level metrics registry (disabled by default; enable with
    /// [`Registry::set_enabled`] — e.g. for the CLI's `--json` mode).
    pub telemetry: Registry,
    next_user_va: u64,
    /// The boot configuration, kept for [`System::reboot`].
    config: SystemConfig,
}

/// Base of the attacker's private user mappings (eviction sets, JIT
/// regions). Chosen 2048-set aligned so set arithmetic is simple.
pub const ATTACKER_REGION: u64 = 0x0000_2000_0000_0000;

impl System {
    /// Boots the platform: machine, kernel, kexts.
    pub fn boot(config: SystemConfig) -> Self {
        Self::boot_with_pool(config, FramePool::default())
    }

    /// [`System::boot`] recycling physical frames from `pool`. The boot
    /// sequence and machine seed are identical, so a pooled boot is
    /// bit-identical to a fresh one.
    fn boot_with_pool(config: SystemConfig, pool: FramePool) -> Self {
        let mut machine = Machine::new_with_pool(config.machine.clone(), pool);
        machine.set_timing_source(config.timing);
        let mut kernel = Kernel::boot(&mut machine, config.kernel_seed);
        let gadget = GadgetKext::install(&mut kernel, &mut machine);
        let cpp = CppKext::install(&mut kernel, &mut machine);
        let pmc = PmcKext::install(&mut kernel, &mut machine);
        Self {
            machine,
            kernel,
            gadget,
            cpp,
            pmc,
            telemetry: Registry::disabled(),
            next_user_va: ATTACKER_REGION,
            config,
        }
    }

    /// Reboots the platform in place with its original configuration,
    /// recycling the machine's physical frames instead of returning them
    /// to the host allocator. The result is bit-identical to a fresh
    /// [`System::boot`] with the same config: same keys, same layout,
    /// same ground truth, fresh telemetry. This is what per-trial
    /// experiment loops use to get a pristine system without paying a
    /// full allocation cycle per trial.
    pub fn reboot(&mut self) {
        let pool = self.machine.mem.phys.take_frame_pool();
        *self = Self::boot_with_pool(self.config.clone(), pool);
    }

    /// [`System::reboot`] into a *different* configuration: tears this
    /// system down, recycles its physical frames, and boots `config` on
    /// them. Bit-identical to `System::boot(config)` for the same
    /// reason `reboot` is — the frame pool only changes where frame
    /// storage comes from, never its (zeroed) contents or layout. This
    /// is how the executor's per-worker system pool turns a cached
    /// machine for one campaign into a machine for the next.
    pub fn reboot_into(&mut self, config: SystemConfig) {
        let pool = self.machine.mem.phys.take_frame_pool();
        *self = Self::boot_with_pool(config, pool);
    }

    /// A combined metrics snapshot: the attack-level `oracle.*` /
    /// `brute.*` series recorded in [`System::telemetry`] plus the
    /// machine's lifetime `tlb.*` / `cache.*` / `predict.*` / `spec.*`
    /// totals. The machine export lands on an enabled clone, so the
    /// microarchitectural series are present even when the attack-level
    /// registry is disabled, and calling this twice never double-counts.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut reg = self.telemetry.clone();
        reg.set_enabled(true);
        self.machine.export_telemetry(&mut reg);
        reg.snapshot()
    }

    /// Maps a fresh kernel page in the requested dTLB set and returns its
    /// VA — the "attacker-chosen address" of the threat model (in a real
    /// attack this is an existing kernel address such as `win()`; for the
    /// Figure 8 oracle evaluation it is a controlled landing page).
    pub fn alloc_target(&mut self, dtlb_set: usize) -> u64 {
        GadgetKext::alloc_target_page(&mut self.machine, dtlb_set)
    }

    /// Ground truth for evaluation: the correct PAC of `pointer` under
    /// the kernel IA key with a zero modifier (what the gadget kext
    /// verifies). Not available to a real attacker.
    pub fn true_pac(&self, pointer: u64) -> u16 {
        self.kernel.debug_true_pac(&self.machine, pointer)
    }

    /// Ground truth for the Jump2Win PACs (key + object-salt).
    pub fn true_pac_with_salt(&self, key: PacKey, pointer: u64) -> u16 {
        self.cpp.debug_true_pac(&self.machine, key, pointer)
    }

    /// The user scratch page used to stage syscall payloads.
    pub fn scratch_va(&self) -> u64 {
        layout::USER_SCRATCH
    }

    /// Writes an attack payload into the attacker's own scratch page.
    pub fn write_payload(&mut self, bytes: &[u8]) -> u64 {
        let va = self.scratch_va();
        assert!(self.machine.mem.debug_write_bytes(va, bytes), "scratch page must be mapped");
        va
    }

    /// Maps (if needed) one page of attacker memory at `va`.
    pub fn ensure_user_page(&mut self, va: u64) {
        let page = va & !(pacman_isa::ptr::PAGE_SIZE - 1);
        if self
            .machine
            .mem
            .tables
            .translate(&self.machine.mem.phys, pacman_isa::ptr::VirtualAddress::new(page))
            .is_none()
        {
            self.machine.map_page(page, Perms::user_rwx());
        }
    }

    /// Bump-allocates a fresh, unmapped attacker VA region of `pages`
    /// pages aligned to 2048 dTLB-set periods, for experiments that need
    /// their own address real estate.
    pub fn alloc_user_region(&mut self, pages: u64) -> u64 {
        let align = 2048 * pacman_isa::ptr::PAGE_SIZE;
        let base = self.next_user_va.div_ceil(align) * align;
        self.next_user_va = base + pages * pacman_isa::ptr::PAGE_SIZE;
        base
    }

    /// The dTLB sets the syscall path itself touches on every call.
    /// Attack experiments must monitor a set outside this list.
    pub fn hot_dtlb_sets(&self) -> Vec<u64> {
        let mut vpns = self.gadget.hot_data_vpns();
        vpns.extend(self.cpp.hot_data_vpns());
        vpns.push(pacman_isa::ptr::VirtualAddress::new(layout::USER_SCRATCH).vpn());
        vpns.push(pacman_isa::ptr::VirtualAddress::new(layout::USER_SYSCALL_STUB).vpn());
        let mut sets: Vec<u64> = vpns.into_iter().map(|v| v % 256).collect();
        sets.sort_unstable();
        sets.dedup();
        sets
    }

    /// Picks a dTLB set that no per-syscall service page collides with.
    pub fn pick_quiet_dtlb_set(&self) -> usize {
        let hot = self.hot_dtlb_sets();
        (0..256u64).find(|s| !hot.contains(s)).expect("fewer than 256 hot sets") as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_isa::ptr::VirtualAddress;

    #[test]
    fn boot_installs_everything() {
        let mut sys = System::boot(SystemConfig::default());
        assert_eq!(sys.kernel.crash_count(), 0);
        // Training the gadget does not crash.
        sys.kernel.syscall(&mut sys.machine, sys.gadget.data_gadget, &[0, 0, 1]).unwrap();
    }

    #[test]
    fn targets_land_in_requested_sets_and_quiet_sets_are_quiet() {
        let mut sys = System::boot(SystemConfig::default());
        let quiet = sys.pick_quiet_dtlb_set();
        assert!(!sys.hot_dtlb_sets().contains(&(quiet as u64)));
        let t = sys.alloc_target(quiet);
        assert_eq!(VirtualAddress::new(t).vpn() % 256, quiet as u64);
    }

    #[test]
    fn user_regions_are_disjoint_and_aligned() {
        let mut sys = System::boot(SystemConfig::default());
        let a = sys.alloc_user_region(10);
        let b = sys.alloc_user_region(10);
        assert!(b >= a + 10 * pacman_isa::ptr::PAGE_SIZE);
        assert_eq!(VirtualAddress::new(a).vpn() % 2048, 0);
        assert_eq!(VirtualAddress::new(b).vpn() % 2048, 0);
    }

    #[test]
    fn reboot_reproduces_a_fresh_boot_bit_for_bit() {
        let cfg = SystemConfig::default();
        let mut fresh = System::boot(cfg.clone());
        let tf = fresh.alloc_target(5);
        let pf = fresh.true_pac(tf);
        fresh.kernel.syscall(&mut fresh.machine, fresh.gadget.data_gadget, &[0, 0, 1]).unwrap();
        let fresh_cycles = fresh.machine.cycles;
        let fresh_frames = fresh.machine.mem.phys.frame_count();

        let mut sys = System::boot(cfg);
        // Dirty the system thoroughly, then reboot in place.
        let _ = sys.alloc_target(9);
        for _ in 0..5 {
            sys.kernel.syscall(&mut sys.machine, sys.gadget.data_gadget, &[0, 0, 1]).unwrap();
        }
        sys.reboot();
        let t = sys.alloc_target(5);
        let p = sys.true_pac(t);
        sys.kernel.syscall(&mut sys.machine, sys.gadget.data_gadget, &[0, 0, 1]).unwrap();

        assert_eq!((t, p), (tf, pf), "layout and ground truth reproduce");
        assert_eq!(sys.machine.cycles, fresh_cycles, "pooled reboot is cycle-identical");
        assert_eq!(sys.machine.mem.phys.frame_count(), fresh_frames);
        assert_eq!(sys.kernel.crash_count(), 0);
    }

    #[test]
    fn reboot_into_a_different_config_matches_a_fresh_boot() {
        let mut other = SystemConfig::default();
        other.machine.seed = 0xDEAD_BEEF;
        other.kernel_seed = 0xB0B;

        let mut fresh = System::boot(other.clone());
        let tf = fresh.alloc_target(5);
        let pf = fresh.true_pac(tf);
        fresh.kernel.syscall(&mut fresh.machine, fresh.gadget.data_gadget, &[0, 0, 1]).unwrap();
        let fresh_cycles = fresh.machine.cycles;

        // Boot under the *default* config, dirty it, then reboot into
        // the other config on the recycled frames.
        let mut sys = System::boot(SystemConfig::default());
        let _ = sys.alloc_target(9);
        for _ in 0..3 {
            sys.kernel.syscall(&mut sys.machine, sys.gadget.data_gadget, &[0, 0, 1]).unwrap();
        }
        sys.reboot_into(other);
        let t = sys.alloc_target(5);
        let p = sys.true_pac(t);
        sys.kernel.syscall(&mut sys.machine, sys.gadget.data_gadget, &[0, 0, 1]).unwrap();

        assert_eq!((t, p), (tf, pf), "layout and ground truth reproduce across configs");
        assert_eq!(sys.machine.cycles, fresh_cycles, "cross-config reboot is cycle-identical");
        assert_eq!(
            sys.machine.mem.phys.fresh_alloc_count(),
            0,
            "a recycled boot never touches the host allocator"
        );
    }

    #[test]
    fn ground_truth_is_stable_until_reboot() {
        let mut sys = System::boot(SystemConfig::default());
        let t = sys.alloc_target(3);
        let p1 = sys.true_pac(t);
        let p2 = sys.true_pac(t);
        assert_eq!(p1, p2);
    }
}
