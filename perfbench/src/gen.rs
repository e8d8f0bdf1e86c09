//! Seeded load generators owned by the benchmark.
//!
//! The simulator only ever sees the `ProgAction`s these produce; the
//! benchmark's `--seed` reaches the machine through them and nowhere else.

use tlbdown_kernel::{Prog, ProgAction, ProgCtx, Syscall};
use tlbdown_sim::SplitMix64;
use tlbdown_types::{Cycles, VirtAddr};

const PAGE: u64 = 4096;

/// Delay a program's start by a seeded number of cycles, then hand every
/// step to it. Used to de-phase the broadcast initiators so that the seed
/// decides how their shootdowns interleave.
pub struct Staggered {
    delay: Option<Cycles>,
    inner: Box<dyn Prog>,
}

impl Staggered {
    /// Start `inner` after `delay` cycles of user-mode compute.
    pub fn new(delay: Cycles, inner: Box<dyn Prog>) -> Self {
        Staggered {
            delay: Some(delay),
            inner,
        }
    }
}

impl Prog for Staggered {
    fn next(&mut self, ctx: &ProgCtx) -> ProgAction {
        match self.delay.take() {
            Some(d) => ProgAction::Compute(d),
            None => self.inner.next(ctx),
        }
    }
}

/// Shape of the hot-set access stream (shared by the generator and the
/// standalone TLB probe, so both see the same addresses).
#[derive(Clone, Copy, Debug)]
pub struct HotsetShape {
    /// Pages in the mapping (the working set).
    pub pages: u64,
    /// Pages at the start of the mapping that take most accesses.
    pub hot: u64,
    /// Percent of accesses that go to the hot set.
    pub hot_pct: u64,
    /// Percent of accesses that are stores.
    pub write_pct: u64,
    /// Every this many steps, `msync` the hot set.
    pub msync_every: u64,
    /// Every this many steps, `madvise(DONTNEED)` a few cold pages.
    pub zap_every: u64,
    /// Pages per zap.
    pub zap_pages: u64,
}

impl HotsetShape {
    /// Draw the next (page index, is-store) pair of the stream.
    pub fn draw(&self, rng: &mut SplitMix64) -> (u64, bool) {
        let page = if rng.gen_range(100) < self.hot_pct {
            rng.gen_range(self.hot)
        } else {
            rng.gen_range(self.pages)
        };
        (page, rng.gen_range(100) < self.write_pct)
    }
}

/// One core's hot-set program: first a sequential sweep over its slice of
/// the mapping (faulting the working set in during warm-up), then forever
/// the seeded access mix with periodic writeback and zaps.
pub struct HotsetProg {
    shape: HotsetShape,
    base: u64,
    sweep: std::ops::Range<u64>,
    step: u64,
    rng: SplitMix64,
}

impl HotsetProg {
    /// A program over the mapping at `base`, sweeping `sweep` first.
    pub fn new(shape: HotsetShape, base: VirtAddr, sweep: std::ops::Range<u64>, seed: u64) -> Self {
        HotsetProg {
            shape,
            base: base.as_u64(),
            sweep,
            step: 0,
            rng: SplitMix64::new(seed),
        }
    }

    fn va(&self, page: u64) -> VirtAddr {
        VirtAddr::new(self.base + page * PAGE)
    }
}

impl Prog for HotsetProg {
    fn next(&mut self, _ctx: &ProgCtx) -> ProgAction {
        if let Some(page) = self.sweep.next() {
            return ProgAction::Access {
                va: self.va(page),
                write: false,
            };
        }
        let s = &self.shape;
        self.step += 1;
        if self.step.is_multiple_of(s.msync_every) {
            return ProgAction::Syscall(Syscall::Msync {
                addr: self.va(0),
                pages: s.hot,
            });
        }
        if self.step.is_multiple_of(s.zap_every) {
            let cold = s.pages - s.hot - s.zap_pages;
            let first = s.hot + self.rng.gen_range(cold);
            return ProgAction::Syscall(Syscall::MadviseDontNeed {
                addr: self.va(first),
                pages: s.zap_pages,
            });
        }
        if self.step.is_multiple_of(4) {
            return ProgAction::Compute(Cycles::new(50 + self.rng.gen_range(200)));
        }
        let (page, write) = s.draw(&mut self.rng);
        ProgAction::Access {
            va: self.va(page),
            write,
        }
    }
}
