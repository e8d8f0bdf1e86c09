//! The paper's contribution: the TLB shootdown protocol engine.
//!
//! This crate holds the *logic* of the baseline Linux 5.2.8 shootdown
//! protocol and of all six optimizations from *"Don't shoot down TLB
//! shootdowns!"* (EuroSys 2020), as pure, independently testable pieces:
//!
//! | § | Technique | Module |
//! |---|---|---|
//! | 3.1 | Concurrent flushing | [`opts`] flag, sequencing in `tlbdown-kernel` |
//! | 3.2 | Early acknowledgement | [`protocol`] (`use_early_ack`, NMI check) |
//! | 3.3 | Cacheline consolidation | [`smp`] (line layouts & access scripts) |
//! | 3.4 | In-context PTI flushes | [`deferred`] |
//! | 4.1 | CoW flush avoidance | [`cow`] |
//! | 4.2 | Userspace-safe batching | flush tokens and their 4-slot batch in `tlbdown-kernel` |
//!
//! Supporting structures reproduce the Linux machinery the techniques hook
//! into: [`info::FlushTlbInfo`] (`struct flush_tlb_info`), [`gen`] (the
//! `mm->tlb_gen` / per-CPU `local_tlb_gen` protocol that creates the §5.2
//! flush-storm behaviour), and [`cpustate::CpuTlbState`]
//! (`cpu_tlbstate`, including lazy-TLB mode).
//!
//! The event-driven execution of these protocols on a simulated machine
//! lives in `tlbdown-kernel`; everything here is deterministic data logic,
//! which is what makes the property tests in this crate possible.

pub mod cow;
pub mod cpustate;
pub mod deferred;
pub mod gen;
pub mod info;
pub mod opts;
pub mod protocol;
pub mod smp;

pub use cow::{cow_flush_method, CowFlushMethod};
pub use cpustate::CpuTlbState;
pub use deferred::DeferredUserFlush;
pub use gen::{flush_decision, FlushAction, MmGen};
pub use info::{FlushTlbInfo, FLUSH_CEILING};
pub use opts::OptConfig;
pub use protocol::{use_early_ack, Shootdown, ShootdownId, ShootdownPhase};
pub use smp::{LineOp, SmpLayer};
