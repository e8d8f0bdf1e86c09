//! Flush obligations as values.
//!
//! Every PTE change that owes a TLB flush yields one `#[must_use]`
//! [`FlushToken`]: the `flush_tlb_info` to run (§2.1) plus the oracle
//! `(vpn, version)` pairs it retires on completion. The crate denies
//! `unused_must_use`, so an obligation nobody consumes fails the build.
//! [`Machine::pte_changed`] and [`Machine::debt_token`] mint tokens;
//! `ShootdownRun::new`, the §4.2 [`FlushBatch`] and the syscall barrier
//! queue consume them. In syscalls, `Machine::queue_flush` is the only
//! code that installs a run.
//!
//! §4.2 batching: `msync`, `munmap` and `madvise(MADV_DONTNEED)` touch no
//! user memory while holding `mm->mmap_sem`, so their flushes can wait
//! for the barrier at the semaphore release. As in the paper, a
//! `batched_mode` flag plus four slots track them; overflow merges all
//! into one full-mm flush.

use tlbdown_core::FlushTlbInfo;
use tlbdown_mem::Pte;
use tlbdown_types::{CoreId, Cycles, MmId, PageSize, SimError, VirtAddr, VirtRange};

use crate::machine::Machine;

/// Number of deferred-flush slots ("we also allocate 4 entries to keep
/// track of the deferred flushes").
pub(crate) const BATCH_SLOTS: usize = 4;

/// A pending TLB-flush obligation.
#[must_use = "a PTE change owes a flush: queue it, batch it or run it"]
#[derive(Debug)]
pub(crate) struct FlushToken {
    info: FlushTlbInfo,
    retire: Vec<(u64, u64)>,
}

impl FlushToken {
    /// Mark that the operation also freed page-table pages (§3.2: no
    /// early acknowledgement for this flush).
    pub(crate) fn with_freed_tables(mut self, freed: bool) -> Self {
        self.info.freed_tables |= freed;
        self
    }

    /// Consume the token into the flush description and the pairs to
    /// retire when that flush completes. Only `ShootdownRun::new` calls
    /// this: running the flush is what discharges the obligation.
    pub(crate) fn into_parts(self) -> (FlushTlbInfo, Vec<(u64, u64)>) {
        (self.info, self.retire)
    }
}

impl Machine {
    /// A ranged flush of `range` at a freshly bumped generation of
    /// `mm_id`, retiring `retire` when it completes.
    fn mint(
        &mut self,
        mm_id: MmId,
        range: VirtRange,
        retire: Vec<(u64, u64)>,
    ) -> Result<FlushToken, SimError> {
        let mm = self.mms.get_mut(&mm_id).ok_or(SimError::NoSuchMm(mm_id))?;
        let gen = mm.gen.bump();
        Ok(FlushToken {
            info: FlushTlbInfo::ranged(mm_id, range, PageSize::Size4K, gen),
            retire,
        })
    }

    /// The PTEs `changed` within `range` of `mm_id` were just removed or
    /// reduced: bump the mm generation, stamp the oracle versions the
    /// flush will retire, bump the L7 reuse versions and run the L8
    /// replica sync. Returns the flush obligation and the sync cost.
    pub(crate) fn pte_changed(
        &mut self,
        core: CoreId,
        mm_id: MmId,
        range: VirtRange,
        changed: &[(VirtAddr, Pte)],
    ) -> Result<(FlushToken, Cycles), SimError> {
        let token = self.mint(mm_id, range, Vec::new())?;
        let retire = self.oracle.range_modified(mm_id, range);
        self.reuse_bump_versions(mm_id, range);
        let sync = self.numa_replica_update(core, mm_id, changed, &retire);
        Ok((FlushToken { retire, ..token }, sync))
    }

    /// A parked L7 page's elided flush comes due: a one-page flush at a
    /// fresh generation carrying the pairs the park left un-retired.
    /// `None` when the address space is gone.
    pub(crate) fn debt_token(
        &mut self,
        mm_id: MmId,
        vpn: u64,
        retire: Vec<(u64, u64)>,
    ) -> Option<FlushToken> {
        let page = VirtRange::pages(VirtAddr::new(vpn << 12), 1, PageSize::Size4K);
        self.mint(mm_id, page, retire).ok()
    }
}

/// Per-syscall batched-flush state (§4.2).
#[derive(Debug, Default)]
pub(crate) struct FlushBatch {
    active: bool,
    slots: Vec<FlushToken>,
}

impl FlushBatch {
    /// Whether batched mode is active (`batched_mode` variable).
    pub(crate) fn active(&self) -> bool {
        self.active
    }

    /// Enter batched mode at the start of a suitable system call.
    ///
    /// # Panics
    ///
    /// Panics if batched mode is already active — the syscalls that use it
    /// do not nest.
    pub(crate) fn begin(&mut self) {
        assert!(!self.active, "batched mode does not nest");
        self.active = true;
    }

    /// Defer a flush. Must only be called while active. When the slots
    /// are full, all pending work and `token` merge into one full-mm
    /// flush stamped with the newest generation; `freed_tables` is OR-ed
    /// and the retire pairs are kept, in order.
    pub(crate) fn defer(&mut self, token: FlushToken) {
        debug_assert!(self.active, "defer outside batched mode");
        if self.slots.len() < BATCH_SLOTS {
            self.slots.push(token);
            return;
        }
        let mm = token.info.mm;
        self.slots.push(token);
        let newest = self.slots.iter().map(|t| t.info.new_tlb_gen).max();
        let mut info = FlushTlbInfo::full(mm, newest.unwrap_or(0));
        info.freed_tables = self.slots.iter().any(|t| t.info.freed_tables);
        let retire = self.slots.drain(..).flat_map(|t| t.retire).collect();
        self.slots.push(FlushToken { info, retire });
    }

    /// Leave batched mode at `mmap_sem` release, returning the deferred
    /// flushes that must now run (the barrier point). Nothing retires
    /// before the whole barrier ran: every retire pair rides on the last
    /// token.
    pub(crate) fn end(&mut self) -> Vec<FlushToken> {
        debug_assert!(self.active, "end outside batched mode");
        self.active = false;
        let mut tokens = std::mem::take(&mut self.slots);
        let retire: Vec<(u64, u64)> = tokens
            .iter_mut()
            .flat_map(|t| std::mem::take(&mut t.retire))
            .collect();
        if let Some(last) = tokens.last_mut() {
            last.retire = retire;
        }
        tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A two-page flush at generation `gen`, retiring the pair `(gen, gen)`.
    fn token(gen: u64) -> FlushToken {
        let range = VirtRange::pages(VirtAddr::new(gen << 15), 2, PageSize::Size4K);
        FlushToken {
            info: FlushTlbInfo::ranged(MmId::new(1), range, PageSize::Size4K, gen),
            retire: vec![(gen, gen)],
        }
    }

    fn deferred(tokens: impl IntoIterator<Item = FlushToken>) -> Vec<FlushToken> {
        let mut b = FlushBatch::default();
        b.begin();
        for t in tokens {
            b.defer(t);
        }
        b.end()
    }

    #[test]
    fn defer_and_release() {
        let mut b = FlushBatch::default();
        b.begin();
        assert!(b.active());
        b.defer(token(1));
        b.defer(token(2));
        let out = b.end();
        assert!(!b.active());
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].info.new_tlb_gen, 1);
        assert!(!out[0].info.full && !out[1].info.full);
    }

    #[test]
    fn overflow_merges_to_full() {
        let out = deferred((1..=5).map(token));
        assert_eq!(out.len(), 1);
        assert!(out[0].info.full);
        assert_eq!(
            out[0].info.new_tlb_gen, 5,
            "merged flush carries the newest generation"
        );
    }

    #[test]
    fn overflow_preserves_freed_tables() {
        let first = token(1).with_freed_tables(true);
        let out = deferred(std::iter::once(first).chain((2..=5).map(token)));
        assert!(
            out[0].info.freed_tables,
            "freed_tables must survive the merge"
        );
    }

    #[test]
    fn end_resets_for_reuse() {
        let mut b = FlushBatch::default();
        b.begin();
        b.defer(token(1));
        let _ = b.end();
        b.begin();
        assert!(b.end().is_empty());
    }

    #[test]
    #[should_panic(expected = "does not nest")]
    fn nesting_panics() {
        let mut b = FlushBatch::default();
        b.begin();
        b.begin();
    }

    #[test]
    fn retires_ride_on_the_last_barrier_token_only() {
        let out = deferred((1..=3).map(token));
        assert_eq!(out.len(), 3);
        assert!(out[0].retire.is_empty() && out[1].retire.is_empty());
        assert_eq!(out[2].retire, vec![(1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn retires_survive_the_merge_in_deferral_order() {
        // Five overflow into one full flush; the sixth takes a new slot
        // and becomes the last token, which collects every pair.
        let out = deferred((1..=6).map(token));
        assert_eq!(out.len(), 2);
        assert!(out[0].info.full && out[0].retire.is_empty());
        assert_eq!(out[1].info.new_tlb_gen, 6);
        let all: Vec<(u64, u64)> = (1..=6).map(|g| (g, g)).collect();
        assert_eq!(out[1].retire, all);
    }

    proptest! {
        /// Batching never loses work: everything deferred is either present
        /// verbatim at the barrier or subsumed by a full flush stamped with
        /// the newest generation, and every retire pair reaches the last
        /// token.
        #[test]
        fn batching_preserves_flush_obligations(n in 1usize..12) {
            let infos: Vec<FlushTlbInfo> = (1..=n as u64).map(|g| token(g).info).collect();
            let out = deferred((1..=n as u64).map(token));
            prop_assert!(!out.is_empty());
            let max_full_gen = out.iter().filter(|o| o.info.full).map(|o| o.info.new_tlb_gen).max();
            for i in &infos {
                let verbatim = out.iter().any(|o| o.info == *i);
                let subsumed = max_full_gen.map(|g| i.new_tlb_gen <= g).unwrap_or(false);
                prop_assert!(
                    verbatim || subsumed,
                    "deferred flush (gen {}) neither preserved nor subsumed",
                    i.new_tlb_gen
                );
            }
            if max_full_gen.is_none() {
                // No overflow: everything exactly preserved, in order.
                prop_assert_eq!(out.len(), n);
                for (a, b) in out.iter().zip(infos.iter()) {
                    prop_assert_eq!(&a.info, b);
                }
            }
            let last = out.last().map(|t| t.retire.len());
            prop_assert_eq!(last, Some(n));
        }
    }
}
