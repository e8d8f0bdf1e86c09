//! Standalone per-layer probes for the traced run: each drives one
//! layer's public API directly, shaped like the workload, and reports
//! host ns per call (median of a few repetitions).

use std::hint::black_box;
use std::time::Instant;

use tlbdown_cache::CacheDirectory;
use tlbdown_mem::{AddrSpace, FrameState, PhysMem};
use tlbdown_sim::{Engine, SplitMix64};
use tlbdown_tlb::Tlb;
use tlbdown_topo::Interconnect;
use tlbdown_types::{CoreId, CostModel, Cycles, PageSize, Pcid, PteFlags, SimResult, VirtAddr};

use crate::machine::{Load, Spec};
use crate::stats::median;

const REPS: usize = 5;

fn ns_per_call(calls: u64, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&mut v)
}

/// One `Engine` schedule + pop pair with `depth` events queued.
pub fn pop_ns(depth: usize, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let mut e: Engine<u64> = Engine::new();
    for i in 0..depth.max(1) as u64 {
        e.schedule_in(Cycles::new(1 + rng.gen_range(2000)), i);
    }
    ns_per_call(200_000, || {
        let x = e.pop().expect("queue never drains");
        e.schedule_in(Cycles::new(1 + rng.gen_range(2000)), black_box(x));
    })
}

/// One `Tlb::access` on the workload's geometry and address stream.
pub fn lookup_ns(spec: &Spec, seed: u64) -> SimResult<f64> {
    let pages = match &spec.load {
        Load::Broadcast { pages, .. } => *pages,
        Load::Hotset(s) => s.pages,
    };
    let mut mem = PhysMem::paper_machine();
    let mut space = AddrSpace::new(&mut mem)?;
    let base = VirtAddr::new(0x1000_0000);
    let flags = PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::USER;
    for p in 0..pages {
        let pa = mem.alloc(FrameState::UserPage)?;
        space.map(&mut mem, base.add(p * 4096), pa, PageSize::Size4K, flags)?;
    }
    let mut tlb = Tlb::with_geometry(spec.geometry.clone());
    let costs = CostModel::default();
    let mut rng = SplitMix64::new(seed);
    let mut i = 0u64;
    Ok(ns_per_call(200_000, || {
        let (page, write) = match &spec.load {
            // The madvise loop stores to its pages in order.
            Load::Broadcast { .. } => (i % pages, true),
            Load::Hotset(s) => s.draw(&mut rng),
        };
        i += 1;
        let r = tlb.access(
            Pcid::new(1),
            base.add(page * 4096),
            write,
            true,
            &mut space,
            &costs,
        );
        black_box(r.is_ok());
    }))
}

/// One `CacheDirectory::write` from a random core on the workload's
/// topology and interconnect.
pub fn write_ns(spec: &Spec, seed: u64) -> f64 {
    let topo = spec.topology();
    let n = u64::from(topo.num_cores());
    let mut dir =
        CacheDirectory::with_interconnect(topo, CostModel::default(), spec.interconnect.clone());
    let line = dir.new_line("probe");
    let mut rng = SplitMix64::new(seed);
    ns_per_call(200_000, || {
        black_box(dir.write(CoreId(rng.gen_range(n) as u32), line));
    })
}

/// One `Interconnect::cacheline_transfer` between random cores.
pub fn route_ns(spec: &Spec, seed: u64) -> f64 {
    let topo = spec.topology();
    let n = u64::from(topo.num_cores());
    let mut ic = Interconnect::new(topo, spec.interconnect.clone());
    let costs = CostModel::default();
    let mut rng = SplitMix64::new(seed);
    ns_per_call(200_000, || {
        let (a, b) = (rng.gen_range(n) as u32, rng.gen_range(n) as u32);
        black_box(ic.cacheline_transfer(&costs, CoreId(a), CoreId(b)));
    })
}
