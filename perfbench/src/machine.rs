//! The single-machine workloads: build a `Machine` through its public API,
//! warm it up, run it to a fixed simulated horizon, check it, and read
//! every layer's public stats.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tlbdown_core::OptConfig;
use tlbdown_kernel::prog::BusyLoopProg;
use tlbdown_kernel::{Event, KernelConfig, Machine, MadviseLoopProg, Prog, TlbGeometry};
use tlbdown_sim::SplitMix64;
use tlbdown_topo::{LinkStats, TopologySpec};
use tlbdown_types::{CoreId, Cycles, SimResult, Topology};

use crate::gen::{HotsetProg, HotsetShape, Staggered};
use crate::span::Spans;

/// What the cores run.
#[derive(Clone, Debug)]
pub enum Load {
    /// `initiators` evenly spaced cores run `MadviseLoopProg` over `pages`
    /// pages, each after a seeded start delay. The other cores busy-loop.
    Broadcast {
        /// Cores running the madvise loop.
        initiators: u32,
        /// Pages zapped per iteration.
        pages: u64,
    },
    /// Every core runs a seeded [`HotsetProg`] over one shared-file mapping.
    Hotset(HotsetShape),
}

/// One single-machine configuration.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Sockets.
    pub sockets: u32,
    /// Logical cores per socket.
    pub logical_per_socket: u32,
    /// SMT ways.
    pub smt: u32,
    /// Interconnect model.
    pub interconnect: TopologySpec,
    /// TLB organisation.
    pub geometry: TlbGeometry,
    /// Protocol level.
    pub opts: OptConfig,
    /// The load.
    pub load: Load,
    /// Simulated warm-up, in cycles; part of set-up.
    pub warmup: u64,
    /// Simulated cycles of the timed phase, after the warm-up.
    pub horizon: u64,
}

impl Spec {
    /// 2 sockets × 56 logical cores, one shared mm, 4 madvise initiators
    /// and 108 busy-loopers; L0, safe mode, flat interconnect, legacy TLB.
    pub fn broadcast_2x56() -> Self {
        Spec {
            sockets: 2,
            logical_per_socket: 56,
            smt: 2,
            interconnect: TopologySpec::Flat,
            geometry: TlbGeometry::legacy(),
            opts: OptConfig::baseline(),
            load: Load::Broadcast {
                initiators: 4,
                pages: 10,
            },
            warmup: 1_000_000,
            horizon: 2_000_000,
        }
    }

    /// 2 sockets × 4 cores on a mesh, Skylake-SP TLBs, every paper
    /// optimisation (L6), safe mode; every core runs the hot-set mix.
    pub fn hotset_mesh() -> Self {
        Spec {
            sockets: 2,
            logical_per_socket: 4,
            smt: 1,
            interconnect: TopologySpec::mesh(),
            geometry: TlbGeometry::skylake_sp(),
            opts: OptConfig::all(),
            load: Load::Hotset(HotsetShape {
                pages: 4096,
                hot: 32,
                hot_pct: 80,
                write_pct: 30,
                msync_every: 4000,
                zap_every: 1500,
                zap_pages: 4,
            }),
            warmup: 4_000_000,
            horizon: 8_000_000,
        }
    }

    /// The §5.1 microbenchmark's cross-socket cell at L6: a madvise
    /// initiator on one socket and a busy responder on the other. The
    /// traced `paper_matrix` run reads the layers its sim blocks do not
    /// count (sim, dispatch cost, tlb, cache, apic, topo) here, because
    /// the matrix's machines are private to its jobs.
    pub fn paper_probe() -> Self {
        Spec {
            sockets: 2,
            logical_per_socket: 1,
            smt: 1,
            interconnect: TopologySpec::Flat,
            geometry: TlbGeometry::legacy(),
            opts: OptConfig::all(),
            load: Load::Broadcast {
                initiators: 1,
                pages: 10,
            },
            warmup: 1_000_000,
            horizon: 20_000_000,
        }
    }

    /// The machine's topology.
    pub fn topology(&self) -> Topology {
        Topology::new(self.sockets, self.logical_per_socket).with_smt(self.smt)
    }

    /// The machine's kernel configuration.
    pub fn kernel_config(&self) -> KernelConfig {
        KernelConfig {
            topo: self.topology(),
            ..KernelConfig::paper_baseline()
        }
        .with_opts(self.opts)
        .with_topology(self.interconnect.clone())
        .with_tlb_geometry(self.geometry.clone())
    }
}

/// `Event` variants, in the order the sampler reports them.
pub const VARIANTS: [&str; 6] = [
    "Resume",
    "IpiArrive",
    "LazyFlushDue",
    "CsdWatchdog",
    "ForcedFullFlush",
    "NmiArrive",
];

fn variant(e: &Event) -> usize {
    match e {
        Event::Resume { .. } => 0,
        Event::IpiArrive { .. } => 1,
        Event::LazyFlushDue { .. } => 2,
        Event::CsdWatchdog { .. } => 3,
        Event::ForcedFullFlush { .. } => 4,
        Event::NmiArrive { .. } => 5,
    }
}

/// Samples per-variant dispatch cost from outside the machine: about
/// every `every`-th step it reads the next event's variant (untimed), then
/// times that one `Machine::step`, less the timer's own cost. The gaps
/// between samples are jittered, so that repeated ops, which dispatch the
/// same event stream, are not sampled at the same positions.
pub struct Sampler {
    every: u64,
    timer_ns: f64,
    gaps: SplitMix64,
    /// Sampled dispatches per variant.
    pub count: [u64; 6],
    /// Summed net dispatch ns per variant.
    pub ns: [f64; 6],
    /// Summed engine queue length at the samples.
    pub queue_len: u64,
}

impl Sampler {
    /// A sampler timing one dispatch in `every` on average.
    pub fn new(every: u64) -> Self {
        Sampler {
            every,
            timer_ns: timer_cost_ns(),
            gaps: SplitMix64::new(every),
            count: [0; 6],
            ns: [0.0; 6],
            queue_len: 0,
        }
    }

    /// Total samples taken.
    pub fn samples(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Mean net ns of one dispatch of variant `v` (0 with no sample).
    pub fn mean_ns(&self, v: usize) -> f64 {
        if self.count[v] == 0 {
            0.0
        } else {
            self.ns[v] / self.count[v] as f64
        }
    }

    fn gap(&mut self) -> u64 {
        1 + self.gaps.gen_range(2 * self.every - 1)
    }

    fn run(&mut self, m: &mut Machine, deadline: Cycles) {
        let mut skip = self.gap();
        loop {
            match m.engine.peek_time() {
                Some(t) if t <= deadline => {}
                _ => break,
            }
            skip -= 1;
            if skip > 0 {
                m.step();
                continue;
            }
            skip = self.gap();
            let v = m.engine.pending().first().map_or(0, |p| variant(p.2));
            self.queue_len += m.engine.len() as u64;
            let t = Instant::now();
            m.step();
            let d = t.elapsed().as_nanos() as f64;
            self.count[v] += 1;
            self.ns[v] += (d - self.timer_ns).max(0.0);
        }
    }
}

/// Median cost of an empty `Instant` interval, in ns.
fn timer_cost_ns() -> f64 {
    let mut v: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&mut v)
}

/// What one op (one simulated machine run) produced.
#[derive(Clone, Debug, Default)]
pub struct Op {
    /// Host seconds of build + warm-up + `reset_measurements`.
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub wall_s: f64,
    /// Host seconds of one `state_digest` call.
    pub digest_s: f64,
    /// Machine digest at the end of the timed phase.
    pub digest: u64,
    /// Per-layer counts over the timed phase, by metric name.
    pub counts: Vec<(&'static str, f64)>,
    /// Why the op failed, if it did.
    pub failure: Option<String>,
}

/// Run one op: build, warm up, run to the horizon, check, count. Panics
/// and typed errors become a failed op.
pub fn run_op(spec: &Spec, seed: u64, sampler: Option<&mut Sampler>, spans: &mut Spans) -> Op {
    run_machine(spec, |s| build(spec, seed, s), sampler, spans)
}

/// [`run_op`] on a machine that `build` makes: `spec` gives the warm-up and
/// the horizon.
pub fn run_machine(
    spec: &Spec,
    build: impl FnOnce(&mut Spans) -> SimResult<Machine>,
    sampler: Option<&mut Sampler>,
    spans: &mut Spans,
) -> Op {
    match catch_unwind(AssertUnwindSafe(|| try_op(spec, build, sampler, spans))) {
        Ok(Ok(op)) => op,
        Ok(Err(e)) => Op {
            failure: Some(format!("typed error: {e}")),
            ..Op::default()
        },
        Err(p) => Op {
            failure: Some(format!("panic: {}", panic_text(&p))),
            ..Op::default()
        },
    }
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".into())
}

fn try_op(
    spec: &Spec,
    build: impl FnOnce(&mut Spans) -> SimResult<Machine>,
    sampler: Option<&mut Sampler>,
    spans: &mut Spans,
) -> SimResult<Op> {
    let t0 = Instant::now();
    let mut m = spans.span("bench", "setup", build)?;
    spans.span("kernel", "Machine::run_until(warmup)", |_| {
        m.run_until(Cycles::new(spec.warmup))
    });
    // `reset_measurements` clears the counters, so anything that went
    // wrong during warm-up has to be read first.
    let warm_failure = health(&m);
    spans.span("kernel", "Machine::reset_measurements", |_| {
        m.reset_measurements()
    });
    let ev0 = m.events_processed();
    let links0 = link_stats(&m);
    let setup = t0.elapsed();

    let deadline = Cycles::new(spec.warmup + spec.horizon);
    let t1 = Instant::now();
    spans.span("kernel", "Machine::run_until(horizon)", |_| match sampler {
        Some(s) => s.run(&mut m, deadline),
        None => m.run_until(deadline),
    });
    let wall = t1.elapsed();

    let t2 = Instant::now();
    let digest = spans.span("kernel", "Machine::state_digest", |_| m.state_digest());
    let digest_s = t2.elapsed();
    let failure = warm_failure.or_else(|| health(&m));
    let counts = spans.span("bench", "read_stats", |_| {
        counts(&m, m.events_processed() - ev0, spec.horizon, &links0)
    });
    Ok(Op {
        setup_s: setup.as_secs_f64(),
        wall_s: wall.as_secs_f64(),
        digest_s: digest_s.as_secs_f64(),
        digest,
        counts,
        failure,
    })
}

fn build(spec: &Spec, seed: u64, spans: &mut Spans) -> SimResult<Machine> {
    let kc = spec.kernel_config();
    let n = kc.topo.num_cores();
    let mut m = spans.span("kernel", "Machine::new", |_| Machine::new(kc));
    let mm = spans.span("kernel", "Machine::create_process", |_| m.create_process())?;
    let mut rng = SplitMix64::new(seed);
    let mut progs: Vec<Box<dyn Prog>> = Vec::with_capacity(n as usize);
    match &spec.load {
        Load::Broadcast { initiators, pages } => {
            let stride = n / initiators;
            for core in 0..n {
                if core % stride == 0 && core / stride < *initiators {
                    let delay = Cycles::new(rng.gen_range(50_000));
                    let inner = Box::new(MadviseLoopProg::new(*pages, u64::MAX));
                    progs.push(Box::new(Staggered::new(delay, inner)));
                } else {
                    progs.push(Box::new(BusyLoopProg));
                }
            }
        }
        Load::Hotset(shape) => {
            let file = spans.span("kernel", "Machine::create_file", |_| {
                m.create_file(shape.pages)
            })?;
            let base = spans.span("kernel", "Machine::setup_map_file", |_| {
                m.setup_map_file(mm, file, true)
            })?;
            let slice = shape.pages / u64::from(n);
            for core in 0..u64::from(n) {
                let sweep = core * slice..(core + 1) * slice;
                progs.push(Box::new(HotsetProg::new(
                    *shape,
                    base,
                    sweep,
                    rng.next_u64(),
                )));
            }
        }
    }
    for (core, p) in progs.into_iter().enumerate() {
        spans.span("kernel", "Machine::spawn", |_| {
            m.spawn(mm, CoreId(core as u32), p)
        });
    }
    Ok(m)
}

/// Why the machine is unhealthy, if it is: an oracle violation, a
/// recorded kernel error, a segfaulted thread or an engine time
/// regression.
fn health(m: &Machine) -> Option<String> {
    if let Some(v) = m.violations().first() {
        return Some(format!("oracle violation: {v}"));
    }
    if let Some(e) = m.recorded_errors().first() {
        return Some(format!("kernel error: {e}"));
    }
    let segv = m.stats.counters.get("segfault");
    if segv > 0 {
        return Some(format!("{segv} segfault(s)"));
    }
    let regress = m.engine.time_regressions();
    if regress > 0 {
        return Some(format!("{regress} engine time regression(s)"));
    }
    None
}

/// Routed-link stats of both interconnect instances (coherence and IPI
/// channels), summed; `peak_queue` is the larger of the two.
fn link_stats(m: &Machine) -> LinkStats {
    let (a, b) = (
        m.dir.interconnect().stats(),
        m.fabric.interconnect().stats(),
    );
    LinkStats {
        routed_transfers: a.routed_transfers + b.routed_transfers,
        hop_traversals: a.hop_traversals + b.hop_traversals,
        queued_cycles: a.queued_cycles + b.queued_cycles,
        peak_queue: a.peak_queue.max(b.peak_queue),
    }
}

/// Per-layer metrics that are plain machine counters: (metric, counter).
pub const COUNTER_METRICS: [(&str, &str); 14] = [
    ("kernel.shootdowns", "shootdown"),
    ("kernel.ipis_sent", "ipis_sent"),
    ("kernel.shootdown_irq", "shootdown_irq"),
    ("kernel.responder_skip", "responder_skip"),
    ("kernel.spurious_irq", "spurious_irq"),
    ("kernel.demand_faults", "demand_fault"),
    ("kernel.re_dirty", "re_dirty"),
    ("kernel.mmap_sem_wait", "mmap_sem_wait"),
    ("core.early_ack", "early_ack"),
    ("core.batched_flushes", "batched_flushes"),
    ("core.batched_skip", "batched_skip"),
    ("core.flush_deferred", "flush_deferred"),
    ("core.in_context_flushes", "in_context_flushes"),
    ("core.local_flush_skip", "local_flush_skip"),
];

/// Per-layer counts of the timed phase (ratios are derived later). The
/// engine's event count and the link stats survive
/// `reset_measurements`, so those are deltas.
fn counts(m: &Machine, events: u64, cycles: u64, links0: &LinkStats) -> Vec<(&'static str, f64)> {
    let mut tlb = tlbdown_tlb::TlbStats::default();
    for t in &m.tlbs {
        let s = t.stats();
        tlb.hits += s.hits;
        tlb.misses += s.misses;
        tlb.stlb_hits += s.stlb_hits;
        tlb.evictions += s.evictions;
        tlb.selective_flushes += s.selective_flushes;
        tlb.full_flushes += s.full_flushes;
        tlb.entries_invalidated += s.entries_invalidated;
    }
    let links = link_stats(m);
    let cache = m.dir.stats();
    let mut out = vec![
        ("sim.events", events as f64),
        ("sim.kcycles", cycles as f64 / 1000.0),
        ("sim.time_regressions", m.engine.time_regressions() as f64),
    ];
    for (metric, key) in COUNTER_METRICS {
        out.push((metric, m.stats.counters.get(key) as f64));
    }
    out.extend([
        ("tlb.lookups", (tlb.hits + tlb.misses) as f64),
        ("tlb.hits", tlb.hits as f64),
        ("tlb.stlb_hits", tlb.stlb_hits as f64),
        ("tlb.evictions", tlb.evictions as f64),
        ("tlb.selective_flushes", tlb.selective_flushes as f64),
        ("tlb.full_flushes", tlb.full_flushes as f64),
        ("tlb.entries_invalidated", tlb.entries_invalidated as f64),
        ("cache.transfers", cache.transfers() as f64),
        ("cache.shootdowns", m.stats.counters.get("shootdown") as f64),
        (
            "cache.cross_socket_transfers",
            cache.cross_socket_transfers as f64,
        ),
        (
            "apic.ipis_delivered",
            m.fabric.stats().ipis_delivered as f64,
        ),
        ("apic.icr_writes", m.fabric.stats().icr_writes as f64),
        (
            "topo.hop_traversals",
            (links.hop_traversals - links0.hop_traversals) as f64,
        ),
        (
            "topo.queued_cycles",
            (links.queued_cycles - links0.queued_cycles) as f64,
        ),
        ("topo.peak_queue", links.peak_queue as f64),
    ]);
    out
}
