//! Events driving the machine.

use tlbdown_apic::Vector;
use tlbdown_core::{FlushTlbInfo, ShootdownId};
use tlbdown_types::CoreId;

/// A simulation event. All kernel activity is decomposed into these; the
/// deterministic engine orders them.
#[derive(Debug)]
pub enum Event {
    /// Step the core's current execution frame. Carries a token so that
    /// resumes invalidated by an interleaving interrupt are dropped.
    Resume {
        /// Core to step.
        core: CoreId,
        /// Must match the core's current resume token.
        token: u64,
    },
    /// An IPI reaches a core's local APIC.
    IpiArrive {
        /// Destination core.
        core: CoreId,
        /// Delivered vector.
        vector: Vector,
    },
    /// An NMI reaches a core (failure injection / §3.2 hazard tests).
    NmiArrive {
        /// Destination core.
        core: CoreId,
    },
    /// A LATR-style deferred flush becomes due on a core.
    LazyFlushDue {
        /// Core that must now apply the flush.
        core: CoreId,
        /// The deferred work.
        info: FlushTlbInfo,
    },
    /// The csd-lock watchdog checks on a spin-waiting initiator (armed
    /// when the IPIs go out; a no-op if every ack arrived in time).
    CsdWatchdog {
        /// The spin-waiting initiator.
        initiator: CoreId,
        /// The shootdown being watched.
        id: ShootdownId,
        /// How many re-sends this watchdog chain has already issued.
        resends: u32,
        /// How many times the storm detector already widened this
        /// chain's timeout (bounded; see `StormDetectorConfig`).
        widened: u32,
    },
    /// Degraded recovery: force a conservative full flush + ack on a
    /// responder that never answered its (re-sent) IPIs.
    ForcedFullFlush {
        /// The unresponsive responder.
        core: CoreId,
        /// The stalled shootdown.
        id: ShootdownId,
    },
}

impl Event {
    /// Whether this event may race a nearby event under schedule
    /// exploration (see `tlbdown_sim::sched`): interrupt arrivals, whose
    /// modelled delivery latency is an estimate — an IPI or NMI landing a
    /// few hundred cycles earlier or later than the point estimate is a
    /// physically legal execution the checker must cover. Everything else
    /// (resumes, watchdogs, deferred flushes) is causally anchored to the
    /// issuing core's own progress and only branches on exact ties.
    pub fn race_eligible(&self) -> bool {
        matches!(self, Event::IpiArrive { .. } | Event::NmiArrive { .. })
    }
}
