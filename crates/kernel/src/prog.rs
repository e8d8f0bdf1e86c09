//! User programs: the workload interface.
//!
//! A [`Prog`] is a small state machine: each time the core is ready to
//! execute the next user-level step, the kernel calls [`Prog::next`] with
//! a [`ProgCtx`] carrying the result of the previous action (e.g. the
//! address returned by `mmap`). Programs run entirely in user mode; the
//! kernel turns [`ProgAction`]s into simulated instructions, page faults
//! and system calls.

use tlbdown_types::{Cycles, VirtAddr};

use crate::mm::FileId;

/// A system call a program can issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Syscall {
    /// Map `pages` of private anonymous memory; returns the address.
    MmapAnon {
        /// Number of 4KB pages.
        pages: u64,
    },
    /// Map `pages` of a file; returns the address.
    MmapFile {
        /// Backing file.
        file: FileId,
        /// Offset into the file, in pages.
        page_offset: u64,
        /// Number of 4KB pages.
        pages: u64,
        /// `MAP_SHARED` when true, `MAP_PRIVATE` (CoW) when false.
        shared: bool,
    },
    /// Unmap `[addr, addr + pages*4K)`.
    Munmap {
        /// Start address.
        addr: VirtAddr,
        /// Number of 4KB pages.
        pages: u64,
    },
    /// `madvise(MADV_DONTNEED)` on the range.
    MadviseDontNeed {
        /// Start address.
        addr: VirtAddr,
        /// Number of 4KB pages.
        pages: u64,
    },
    /// `msync`: write back dirty pages of the range (write-protects and
    /// cleans their PTEs — the flush-heavy writeback path).
    Msync {
        /// Start address.
        addr: VirtAddr,
        /// Number of 4KB pages.
        pages: u64,
    },
    /// `fdatasync`: write back every dirty page of the file through all
    /// mapping VMAs of the calling mm (the Sysbench §5.2 path).
    Fdatasync {
        /// File to write back.
        file: FileId,
    },
    /// `send`-style kernel read of a user buffer (the Apache §5.3 path:
    /// the kernel touches user memory, exercising kernel-PCID entries).
    Send {
        /// Start address.
        addr: VirtAddr,
        /// Number of 4KB pages.
        pages: u64,
    },
    /// `mprotect` changing writability of the range.
    Mprotect {
        /// Start address.
        addr: VirtAddr,
        /// Number of 4KB pages.
        pages: u64,
        /// New writability.
        write: bool,
    },
}

/// The next step a program wants to take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgAction {
    /// Execute for `0` cycles — ask again immediately (internal
    /// bookkeeping steps).
    Nop,
    /// Burn CPU for the given number of cycles.
    Compute(Cycles),
    /// Spin in user mode until an interrupt arrives: the same machine
    /// behaviour as returning `Compute(SPIN_STEP)` forever from a program
    /// that keeps no state, but it puts no event in the queue. Steps fall
    /// on the virtual boundaries `anchor + k·SPIN_STEP` (the anchor is
    /// the time of this step; see [`crate::cpu::SPIN_STEP`]). An
    /// interrupt suspends the spin at the next boundary, and the program
    /// is asked again when the handler returns.
    Spin,
    /// Load or store one location.
    Access {
        /// Virtual address.
        va: VirtAddr,
        /// Whether the access is a store.
        write: bool,
    },
    /// Fetch/execute an instruction at the address (exercises the ITLB).
    Fetch {
        /// Virtual address.
        va: VirtAddr,
    },
    /// Issue a system call; its result arrives in [`ProgCtx::retval`].
    Syscall(Syscall),
    /// Yield the CPU to the next thread pinned to this core.
    Yield,
    /// Terminate the thread.
    Exit,
}

/// Context handed to a program on each step.
#[derive(Clone, Debug, Default)]
pub struct ProgCtx {
    /// Result of the previous action (e.g. the address `mmap` returned, as
    /// a raw u64), 0 otherwise.
    pub retval: u64,
    /// Current simulated time (for self-measuring workloads).
    pub now: Cycles,
}

/// A user program.
pub trait Prog {
    /// Produce the next action. `ctx.retval` carries the result of the
    /// previous action.
    fn next(&mut self, ctx: &ProgCtx) -> ProgAction;
}

/// A trivial program executing a fixed script (useful in tests).
#[derive(Debug)]
pub struct ScriptProg {
    script: Vec<ProgAction>,
    idx: usize,
    /// Return values observed after each step (for test assertions).
    pub retvals: Vec<u64>,
}

impl ScriptProg {
    /// Run the given actions in order, then exit.
    pub fn new(script: Vec<ProgAction>) -> Self {
        ScriptProg {
            script,
            idx: 0,
            retvals: Vec::new(),
        }
    }
}

impl Prog for ScriptProg {
    fn next(&mut self, ctx: &ProgCtx) -> ProgAction {
        self.retvals.push(ctx.retval);
        let a = self
            .script
            .get(self.idx)
            .copied()
            .unwrap_or(ProgAction::Exit);
        self.idx += 1;
        a
    }
}

/// A program that spins forever in user mode (the microbenchmark's
/// "responder" thread, §5.1), in `SPIN_STEP` steps that cost no events.
#[derive(Debug, Default)]
pub struct BusyLoopProg;

impl Prog for BusyLoopProg {
    fn next(&mut self, _ctx: &ProgCtx) -> ProgAction {
        ProgAction::Spin
    }
}

/// The canonical shootdown generator: mmap `pages` of anonymous memory,
/// touch every page, `madvise(MADV_DONTNEED)` the range, and repeat
/// `iters` times. Each iteration zaps live PTEs and so forces one full
/// shootdown against every core sharing the mm — the §5.1 initiator
/// shape, reused by the chaos harness and benches.
#[derive(Debug)]
pub struct MadviseLoopProg {
    pages: u64,
    iters: u64,
    state: u32,
    addr: u64,
    touch: u64,
    iter: u64,
}

impl MadviseLoopProg {
    /// Loop over `pages` pages for `iters` iterations.
    pub fn new(pages: u64, iters: u64) -> Self {
        MadviseLoopProg {
            pages,
            iters,
            state: 0,
            addr: 0,
            touch: 0,
            iter: 0,
        }
    }
}

impl Prog for MadviseLoopProg {
    fn next(&mut self, ctx: &ProgCtx) -> ProgAction {
        match self.state {
            0 => {
                self.state = 1;
                ProgAction::Syscall(Syscall::MmapAnon { pages: self.pages })
            }
            1 => {
                self.addr = ctx.retval;
                self.touch = 0;
                self.state = 2;
                ProgAction::Nop
            }
            2 => {
                if self.touch < self.pages {
                    let va = VirtAddr::new(self.addr + self.touch * 4096);
                    self.touch += 1;
                    ProgAction::Access { va, write: true }
                } else {
                    self.state = 3;
                    ProgAction::Syscall(Syscall::MadviseDontNeed {
                        addr: VirtAddr::new(self.addr),
                        pages: self.pages,
                    })
                }
            }
            3 => {
                self.iter += 1;
                if self.iter >= self.iters {
                    ProgAction::Exit
                } else {
                    self.touch = 0;
                    self.state = 2;
                    ProgAction::Nop
                }
            }
            _ => ProgAction::Exit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_prog_replays_then_exits() {
        let mut p = ScriptProg::new(vec![
            ProgAction::Compute(Cycles::new(10)),
            ProgAction::Access {
                va: VirtAddr::new(0x1000),
                write: false,
            },
        ]);
        let ctx = ProgCtx::default();
        assert_eq!(p.next(&ctx), ProgAction::Compute(Cycles::new(10)));
        assert_eq!(
            p.next(&ctx),
            ProgAction::Access {
                va: VirtAddr::new(0x1000),
                write: false
            }
        );
        assert_eq!(p.next(&ctx), ProgAction::Exit);
        assert_eq!(p.next(&ctx), ProgAction::Exit);
    }

    #[test]
    fn busy_loop_never_exits() {
        let mut p = BusyLoopProg;
        let ctx = ProgCtx::default();
        for _ in 0..10 {
            assert_eq!(p.next(&ctx), ProgAction::Spin);
        }
    }
}
