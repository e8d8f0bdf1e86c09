//! Observational equivalence of the two engine front-ends.
//!
//! The timing wheel exists purely for dispatch throughput; it must never
//! change what the simulation *does*. These tests run the same
//! workloads on the wheel and on the pure-heap reference and require
//! byte-identical observable state: the machine's canonical state
//! digest, the full Chrome trace export, and the scale tier's
//! event/cycle counts, at every cumulative optimization level, on one
//! and two sockets, under chaos fault injection, and on the 2×56 scale
//! tier.

use tlbdown_core::OptConfig;
use tlbdown_kernel::chaos::ChaosConfig;
use tlbdown_kernel::prog::{BusyLoopProg, MadviseLoopProg};
use tlbdown_kernel::{KernelConfig, Machine};
use tlbdown_sim::fault::FaultSpec;
use tlbdown_topo::TopologySpec;
use tlbdown_trace::to_chrome_json;
use tlbdown_types::{CoreId, Cycles};
use tlbdown_workloads::madvise::{run_scale_tier, ScaleTierCfg};

/// Run the dueling-madvise workload on one engine configuration,
/// returning the state digest and the full trace export.
fn traced_run(cfg: KernelConfig) -> (u64, String) {
    let mut m = Machine::new(cfg);
    m.start_tracing(1 << 13);
    let mm = m.create_process().expect("boot: create process");
    m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(6, 5)));
    m.spawn(mm, CoreId(1), Box::new(BusyLoopProg));
    m.spawn(mm, CoreId(2), Box::new(MadviseLoopProg::new(3, 5)));
    m.spawn(mm, CoreId(3), Box::new(BusyLoopProg));
    m.run_until(Cycles::new(4_000_000));
    let export = to_chrome_json(&m.take_trace()).render();
    (m.state_digest(), export)
}

#[test]
fn wheel_matches_heap_at_every_opt_level() {
    for (level, _, opts) in OptConfig::all_levels() {
        let cfg = || KernelConfig::test_machine(4).with_opts(opts);
        let wheel = traced_run(cfg());
        let heap = traced_run(cfg().with_heap_only_engine(true));
        assert_eq!(
            wheel.0, heap.0,
            "state digest diverged between engines at opt level {level}"
        );
        assert_eq!(
            wheel.1, heap.1,
            "trace export diverged between engines at opt level {level}"
        );
    }
}

/// The dual-socket paper machine: two sockets make L8's replica sync
/// live, which the single-socket test machine never exercises.
fn dual_socket() -> KernelConfig {
    KernelConfig {
        topo: tlbdown_types::Topology::new(2, 2),
        ..KernelConfig::paper_baseline()
    }
}

#[test]
fn dual_socket_wheel_matches_heap_at_every_opt_level() {
    for (level, _, opts) in OptConfig::all_levels() {
        let cfg = || dual_socket().with_opts(opts);
        let wheel = traced_run(cfg());
        let heap = traced_run(cfg().with_heap_only_engine(true));
        assert_eq!(
            wheel.0, heap.0,
            "dual-socket state digest diverged between engines at opt level {level}"
        );
        assert_eq!(
            wheel.1, heap.1,
            "dual-socket trace export diverged between engines at opt level {level}"
        );
    }
}

#[test]
fn wheel_matches_heap_under_fault_injection() {
    let cfg = || {
        KernelConfig::test_machine(4)
            .with_opts(OptConfig::general_four())
            .with_chaos(ChaosConfig::with_fault(FaultSpec::everything(), 0xfa07))
    };
    let wheel = traced_run(cfg());
    let heap = traced_run(cfg().with_heap_only_engine(true));
    assert_eq!(wheel.0, heap.0, "state digest diverged under chaos");
    assert_eq!(wheel.1, heap.1, "trace export diverged under chaos");
}

#[test]
fn dual_socket_wheel_matches_heap_under_fault_injection() {
    // IPI drops, delays, duplicates and late IRQs across two sockets.
    let cfg = || {
        dual_socket()
            .with_opts(OptConfig::general_four())
            .with_chaos(ChaosConfig::with_fault(FaultSpec::everything(), 0xfa07))
    };
    let wheel = traced_run(cfg());
    let heap = traced_run(cfg().with_heap_only_engine(true));
    assert_eq!(
        wheel.0, heap.0,
        "dual-socket state digest diverged under chaos"
    );
    assert_eq!(
        wheel.1, heap.1,
        "dual-socket trace export diverged under chaos"
    );
}

#[test]
fn explicit_flat_topology_is_byte_identical_to_default_at_every_opt_level() {
    // The flat interconnect is the pinned pre-topology reference: asking
    // for it explicitly must change *nothing* — same state digest, same
    // trace export, at all seven cumulative optimization levels. This is
    // the contract that keeps the BENCH files byte-stable while ring/mesh
    // exist behind the same knob.
    for (level, _, opts) in OptConfig::all_levels() {
        let cfg = || KernelConfig::test_machine(4).with_opts(opts);
        let default = traced_run(cfg());
        let flat = traced_run(cfg().with_topology(TopologySpec::Flat));
        assert_eq!(
            default.0, flat.0,
            "explicit Flat changed the state digest at opt level {level}"
        );
        assert_eq!(
            default.1, flat.1,
            "explicit Flat changed the trace export at opt level {level}"
        );
    }
}

#[test]
fn routed_topologies_are_engine_invariant() {
    // Ring and mesh routing must be just as deterministic as flat: the
    // same routed run on the wheel and pure-heap front-ends produces
    // byte-identical digests and trace exports.
    for spec in [TopologySpec::ring(), TopologySpec::mesh()] {
        let cfg = || {
            dual_socket()
                .with_opts(OptConfig::general_four())
                .with_topology(spec.clone())
        };
        let wheel = traced_run(cfg());
        let heap = traced_run(cfg().with_heap_only_engine(true));
        assert_eq!(
            wheel.0,
            heap.0,
            "{} digest diverged wheel vs heap",
            spec.label()
        );
        assert_eq!(
            wheel.1,
            heap.1,
            "{} trace diverged wheel vs heap",
            spec.label()
        );
    }
}

#[test]
fn mesh_scale_tier_smoke_is_engine_invariant() {
    let run = |heap_only: bool| {
        let mut cfg = ScaleTierCfg::smoke();
        cfg.interconnect = TopologySpec::mesh();
        cfg.heap_only_engine = heap_only;
        run_scale_tier(&cfg).expect("mesh tier runs clean")
    };
    let wheel = run(false);
    let heap = run(true);
    assert_eq!(wheel.digest, heap.digest, "mesh tier digests diverged");
    assert_eq!(wheel.sim_cycles, heap.sim_cycles);
    assert_eq!(wheel.counters.render_json(), heap.counters.render_json());
}

#[test]
fn scale_tier_smoke_is_engine_invariant() {
    let run = |heap_only: bool| {
        let mut cfg = ScaleTierCfg::smoke();
        cfg.heap_only_engine = heap_only;
        run_scale_tier(&cfg).expect("tier runs clean")
    };
    let wheel = run(false);
    let heap = run(true);
    assert_eq!(wheel.digest, heap.digest, "tier digests diverged");
    assert_eq!(wheel.events, heap.events);
    assert_eq!(wheel.sim_cycles, heap.sim_cycles);
    assert_eq!(wheel.counters.render_json(), heap.counters.render_json());
}
