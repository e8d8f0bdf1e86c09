//! A canonical digest of the machine's protocol-relevant state.
//!
//! The schedule explorer (the `check` crate) prunes its DFS when it
//! reaches a state it has already expanded. "Same state" is judged by
//! [`Machine::state_digest`]: an FNV-1a hash over a canonical rendering
//! of everything the shootdown protocols read or write — per-core
//! `cpu_tlbstate`, the TLB contents, call-single queues, in-flight
//! shootdown records, per-mm generation counters, the frame stacks, and
//! the pending event queue. Components backed by hash maps are sorted
//! into a canonical order first, so the digest is independent of
//! iteration order and identical across runs within one build.
//!
//! The digest is *partial* by design (it skips page-table contents and
//! program-internal state, which are functions of the completed
//! operations already reflected in the hashed state for the small,
//! deterministic scenarios the checker runs): equal digests are treated
//! as equal futures for pruning. It is exact for what replay verification
//! needs — two runs of the same schedule on the same scenario must agree
//! on every hashed component, so a digest mismatch is proof of
//! nondeterminism.
//!
//! The frame stacks are hashed through their `{:?}` rendering. The digest
//! is therefore stable within one build but moves with frame layout: a
//! field added to, removed from or reordered in a live frame (a
//! `SyscallFrame`, a `ShootdownRun`) changes every digest taken while such
//! a frame is on a stack, even though the machine behaves identically.

use std::fmt::Write as _;

use crate::machine::Machine;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a hasher over the canonical state rendering.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

impl Machine {
    /// Hash the protocol-relevant machine state into one `u64`. See the
    /// module docs for coverage and caveats.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        // The last dispatch, not the clock: `run_until` may carry the
        // clock onto spinning cores' virtual steps, and a digest must not
        // depend on which loop drove the same dispatches.
        let _ = write!(h, "t={};", self.engine.last_dispatch().as_u64());
        for (i, cpu) in self.cpus.iter().enumerate() {
            let _ = write!(
                h,
                "cpu{i}:ts={:?};csq={:?};au={};bs={};tok={};",
                cpu.tlb_state,
                cpu.csq,
                cpu.acked_unflushed,
                cpu.in_batched_syscall,
                cpu.resume_token,
            );
            let _ = write!(h, "frames={:?};", cpu.frames);
            let mut gens: Vec<_> = cpu.pcid_gens.iter().collect();
            gens.sort_unstable_by_key(|(mm, _)| **mm);
            let _ = write!(h, "pcid_gens={gens:?};");
            // Escalation-ladder state steers future flush decisions
            // (quarantine override, storm widening), so it is part of
            // the protocol state.
            let _ = write!(
                h,
                "esc=({},{},{},{},{});",
                self.esc.streak[i],
                self.esc.quarantined[i],
                self.esc.probation[i],
                self.esc.ewma_gap[i],
                self.esc.last_arrival[i],
            );
        }
        let _ = write!(h, "esc_rng={:?};", self.esc.jitter_rng);
        for (i, tlb) in self.tlbs.iter().enumerate() {
            let mut entries: Vec<String> = tlb.iter_entries().map(|e| format!("{e:?}")).collect();
            entries.sort_unstable();
            let _ = write!(h, "tlb{i}={entries:?};frac={};", tlb.fracture_flag());
        }
        let mut sds: Vec<_> = self.shootdowns.iter().collect();
        sds.sort_unstable_by_key(|(id, _)| **id);
        for (id, sd) in sds {
            let _ = write!(h, "sd{:?}={sd:?};", id);
        }
        let mut mms: Vec<_> = self.mms.iter().collect();
        mms.sort_unstable_by_key(|(id, _)| **id);
        for (id, mm) in mms {
            let _ = write!(
                h,
                "mm{:?}:gen={};mask={:?};vmas={:?};cursor={};",
                id,
                mm.gen.current(),
                mm.cpumask,
                mm.vmas.keys().collect::<Vec<_>>(),
                mm.mmap_cursor,
            );
            // L7/L8 state steers future flush decisions only when the
            // level is on; gating the fold keeps every digest produced
            // under the paper's six levels byte-identical to before.
            if self.cfg.opts.reuse_skip {
                for (vpn, e) in mm.reuse.iter() {
                    let _ = write!(h, "ru{vpn}={:?}v{}r{:?};", e.pte, e.version, e.retire);
                }
                let order: Vec<_> = mm.reuse.fifo_order().collect();
                let _ = write!(h, "ruo={order:?};pv={:?};", mm.pte_versions);
            }
            if self.cfg.opts.numa_pte {
                for (socket, stale) in &mm.numa_stale {
                    for (vpn, sp) in stale {
                        let _ = write!(h, "ns{socket}:{vpn}={:?}v{};", sp.pte, sp.version);
                    }
                }
            }
        }
        for (at, seq, ev) in self.engine.pending() {
            let _ = write!(h, "ev@{}#{seq}={ev:?};", at.as_u64());
        }
        // Interconnect link occupancy steers future transfer costs, so it
        // is protocol state under routed topologies. The flat reference
        // has no link state and contributes nothing, keeping every
        // pre-topology digest byte-identical.
        if !self.dir.interconnect().is_flat() {
            for (a, b, q) in self.dir.interconnect().digest_items() {
                let _ = write!(h, "icd{a}-{b}={q};");
            }
            for (a, b, q) in self.fabric.interconnect().digest_items() {
                let _ = write!(h, "icf{a}-{b}={q};");
            }
        }
        let _ = write!(
            h,
            "viol={};err={};",
            self.violations().len(),
            self.recorded_errors().len()
        );
        h.0
    }
}

#[cfg(test)]
mod tests {
    use tlbdown_sim::FifoScheduler;
    use tlbdown_types::CoreId;

    use crate::config::KernelConfig;
    use crate::machine::Machine;
    use crate::prog::MadviseLoopProg;

    fn run_one() -> Vec<u64> {
        let mut m = Machine::new(KernelConfig::test_machine(2));
        let mm = m.create_process().expect("boot: create process");
        m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(2, 1)));
        m.spawn(mm, CoreId(1), Box::new(MadviseLoopProg::new(2, 1)));
        let mut sched = FifoScheduler;
        let mut digests = Vec::new();
        while m.step_with(&mut sched) {
            digests.push(m.state_digest());
        }
        digests
    }

    #[test]
    fn digest_is_reproducible_across_identical_runs() {
        // Two machines stepped identically must agree at every step. Both
        // maps share the fixed hasher, so this cannot catch map iteration
        // order leaking into the digest; the canonical sorts above do.
        assert_eq!(run_one(), run_one());
    }

    #[test]
    fn digest_distinguishes_progress() {
        let d = run_one();
        assert!(d.len() > 10);
        // Not every step changes protocol state, but many must.
        let distinct: tlbdown_types::FastSet<_> = d.iter().collect();
        assert!(distinct.len() > d.len() / 2);
    }
}
