//! Kernel-wide configuration.

use tlbdown_core::OptConfig;
use tlbdown_tlb::TlbGeometry;
use tlbdown_topo::TopologySpec;
use tlbdown_types::{CostModel, Topology};

use crate::chaos::ChaosConfig;

/// Configuration of one simulated kernel boot.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Machine CPU layout.
    pub topo: Topology,
    /// Micro-operation costs.
    pub costs: CostModel,
    /// Which of the paper's optimizations are active.
    pub opts: OptConfig,
    /// "Safe mode": Meltdown/Spectre mitigations on — PTI dual address
    /// spaces, doubled TLB flushes, trampoline entry costs (§5). When
    /// false ("unsafe mode"), kernel pages are global and each flush is
    /// performed once.
    pub safe_mode: bool,
    /// LATR-style lazy shootdowns: PTE-modifying syscalls return without
    /// waiting for (or even sending) IPIs; flushes are applied on each
    /// core asynchronously after `lazy_latr_delay_cycles`. Reproduces the
    /// related-work behaviour of §2.3.2 so its hazards can be demonstrated.
    pub lazy_latr: bool,
    /// Delay before a LATR-deferred flush executes on a remote core.
    pub lazy_latr_delay_cycles: u64,
    /// Emulate the CPU speculatively caching the faulting PTE between
    /// page-fault delivery and the handler's PTE update (§4.1 hazard).
    pub speculative_fill_on_fault: bool,
    /// Whether the safety oracle records violations (cheap; leave on).
    pub oracle: bool,
    /// Failure injection: omit the §3.2 `nmi_uaccess_okay` pending-flush
    /// extension, so NMI probes during the early-ack window read through
    /// stale entries (used by tests to demonstrate the hazard).
    pub buggy_nmi_check: bool,
    /// Failure injection for the escalation ladder: a quarantined
    /// responder skips its unconditional-full-flush override *and* the
    /// `acked_unflushed` bookkeeping on early ack (rationalised as "the
    /// forced-flush path accounts for quarantined cores"), leaving the
    /// §3.2 window unprotected. The schedule explorer must catch this
    /// variant (`check::scenario::quarantine_probe`) while the real
    /// quarantine path explores clean.
    pub buggy_quarantine: bool,
    /// Maximum seeded jitter (cycles) added to IPI delivery and interrupt
    /// dispatch, emulating the microarchitectural noise behind the
    /// paper's error bars. Zero (default) keeps the machine fully
    /// deterministic.
    pub noise_cycles: u64,
    /// Seed for the machine's internal jitter stream.
    pub seed: u64,
    /// Which boot of this (simulated) chassis this is. Zero for a fresh
    /// machine; [`crate::Machine::cold_reboot`] bumps it so the rebooted
    /// kernel's seeded streams (noise, fault plan, escalation) diverge
    /// from the pre-crash boot the way a real reboot's would, while
    /// staying a pure function of `(seed, boot_epoch)`. Epoch 0 leaves
    /// every derived seed exactly as before this field existed.
    pub boot_epoch: u64,
    /// Chaos layer: fault injection and the csd-lock watchdog. Inert
    /// faults and an armed (but never-firing) watchdog by default.
    pub chaos: ChaosConfig,
    /// Bypass the engine's timing-wheel front-end and run every event
    /// through the pure binary heap — the pre-overhaul dispatch
    /// structure. The two configurations are byte-identical in every
    /// simulated outcome (the determinism gate proves it); this flag
    /// exists for those proofs and for before/after throughput
    /// comparisons, not for production runs.
    pub engine_heap_only: bool,
    /// Interconnect model routing cross-core cacheline transfers and IPI
    /// wire delivery. [`TopologySpec::Flat`] (default) is the pinned
    /// distance-constant reference — byte-identical to the pre-topology
    /// cost model. Ring and mesh route every transfer hop-by-hop through
    /// per-link costs with a deterministic M/D/1-style congestion model
    /// whose link state is folded into the machine digest.
    pub interconnect: TopologySpec,
    /// Per-core TLB organisation. [`TlbGeometry::legacy`] (default) is the
    /// historical unified FIFO pool; [`TlbGeometry::skylake_sp`] is the
    /// set-associative, page-size-aware hierarchy from CPUID leaf 0x18.
    pub tlb_geometry: TlbGeometry,
    /// Failure injection for the THP fracture path: responders' selective
    /// flushes remove only the 4K-sized entry for each address, as if the
    /// flush loop walked the range at 4K stride assuming the huge-page
    /// split already purged huge-grained entries. Leaves a stale 2M entry
    /// cached after a ranged shootdown that splinters a huge page — the
    /// checker's `fracture_probe` canary must catch this variant while the
    /// real split path explores clean.
    pub buggy_fracture: bool,
    /// Failure injection for the L7 reuse-skip window: parking a zapped
    /// page records the flush guarantee *immediately*, skipping the
    /// versioned-PTE deferral protocol (the real path keeps the parked
    /// `(vpn, version)` pairs un-retired until either a reuse-time version
    /// check proves the restored PTE identical or a debt flush actually
    /// runs). Stale remote entries then survive a "guaranteed" flush —
    /// the checker's `reuse_probe` canary must catch this variant while
    /// the real reuse-skip path explores clean.
    pub buggy_reuse_skip: bool,
    /// Failure injection for the L8 numaPTE replication: PTE updates
    /// refresh only the updating core's socket replica instead of running
    /// the deterministic replica-sync to every remote socket. Remote
    /// page walks then translate through the stale replica PTE at the old
    /// version — the checker's `numapte_probe` canary must catch this
    /// variant while the real numaPTE path explores clean.
    pub buggy_numapte: bool,
    /// Capacity of the per-mm L7 reuse-skip window. Defaults to
    /// [`crate::mm::REUSE_WINDOW_CAP`]; scenarios shrink it so small
    /// workloads overflow the window and the elision levels still pay
    /// real debt-flush shootdowns (the signal that exploration, tracing
    /// and chaos gates measure).
    pub reuse_window_cap: usize,
}

impl KernelConfig {
    /// A config for the paper's machine in safe mode with no optimizations.
    pub fn paper_baseline() -> Self {
        KernelConfig {
            topo: Topology::paper_machine(),
            costs: CostModel::default(),
            opts: OptConfig::baseline(),
            safe_mode: true,
            lazy_latr: false,
            lazy_latr_delay_cycles: 100_000,
            speculative_fill_on_fault: true,
            oracle: true,
            buggy_nmi_check: false,
            buggy_quarantine: false,
            noise_cycles: 0,
            seed: 0x71bd,
            boot_epoch: 0,
            chaos: ChaosConfig::default(),
            interconnect: TopologySpec::Flat,
            tlb_geometry: TlbGeometry::legacy(),
            buggy_fracture: false,
            engine_heap_only: false,
            buggy_reuse_skip: false,
            buggy_numapte: false,
            reuse_window_cap: crate::mm::REUSE_WINDOW_CAP,
        }
    }

    /// A small single-socket machine for tests.
    pub fn test_machine(cores: u32) -> Self {
        KernelConfig {
            topo: Topology::small(cores),
            ..Self::paper_baseline()
        }
    }

    /// Builder-style: set the optimization config.
    pub fn with_opts(mut self, opts: OptConfig) -> Self {
        self.opts = opts;
        self
    }

    /// Builder-style: set safe mode.
    pub fn with_safe_mode(mut self, safe: bool) -> Self {
        self.safe_mode = safe;
        self
    }

    /// Builder-style: enable the LATR-style lazy mode.
    pub fn with_lazy_latr(mut self, lazy: bool) -> Self {
        self.lazy_latr = lazy;
        self
    }

    /// Builder-style: set the chaos configuration.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Builder-style: route transfers and IPIs through an interconnect
    /// topology (see [`KernelConfig::interconnect`]).
    pub fn with_topology(mut self, spec: TopologySpec) -> Self {
        self.interconnect = spec;
        self
    }

    /// Builder-style: set the per-core TLB geometry.
    pub fn with_tlb_geometry(mut self, geometry: TlbGeometry) -> Self {
        self.tlb_geometry = geometry;
        self
    }

    /// Builder-style: inject the split-blind flush bug (see
    /// [`KernelConfig::buggy_fracture`]).
    pub fn with_buggy_fracture(mut self, buggy: bool) -> Self {
        self.buggy_fracture = buggy;
        self
    }

    /// Builder-style: run the event engine on the pure heap (reference
    /// configuration for determinism and throughput comparisons).
    pub fn with_heap_only_engine(mut self, heap_only: bool) -> Self {
        self.engine_heap_only = heap_only;
        self
    }

    /// Builder-style: inject the retire-at-park reuse-skip bug (see
    /// [`KernelConfig::buggy_reuse_skip`]).
    pub fn with_buggy_reuse_skip(mut self, buggy: bool) -> Self {
        self.buggy_reuse_skip = buggy;
        self
    }

    /// Builder-style: inject the local-only replica-update numaPTE bug
    /// (see [`KernelConfig::buggy_numapte`]).
    pub fn with_buggy_numapte(mut self, buggy: bool) -> Self {
        self.buggy_numapte = buggy;
        self
    }

    /// Builder-style: set the L7 reuse-window capacity (see
    /// [`KernelConfig::reuse_window_cap`]).
    pub fn with_reuse_window_cap(mut self, cap: usize) -> Self {
        self.reuse_window_cap = cap;
        self
    }

    /// Builder-style: set the boot epoch (see [`Self::boot_epoch`]).
    pub fn with_boot_epoch(mut self, epoch: u64) -> Self {
        self.boot_epoch = epoch;
        self
    }

    /// Seed for a derived stream, mixed with the boot epoch. Epoch 0 is
    /// the identity so pre-existing single-boot digests are unchanged.
    pub fn epoch_seed(&self, base: u64) -> u64 {
        base ^ self.boot_epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = KernelConfig::test_machine(4)
            .with_opts(OptConfig::all())
            .with_safe_mode(false)
            .with_lazy_latr(true);
        assert_eq!(c.topo.num_cores(), 4);
        assert!(c.lazy_latr);
        assert!(!c.safe_mode);
        assert_eq!(c.opts, OptConfig::all());
    }
}
