//! Interconnect congestion: the same shootdown storm, three fabrics.
//!
//! The flat model charges every cross-core transfer one distance-based
//! constant — the pinned byte-identical reference the paper's figures
//! are calibrated against. The ring and mesh models route each
//! cacheline transfer and IPI hop-by-hop through per-link queues with
//! seeded congestion, so the *same* workload takes longer to make
//! progress as links saturate. This example shows the collapse twice:
//!
//! 1. A dueling-initiator madvise microbenchmark across sockets — the
//!    initiator's madvise latency grows as the fabric serializes its
//!    broadcast IPIs.
//! 2. The dual-socket scale-tier smoke (2×16 logical cores, every core
//!    busy): in the same simulated window, the routed fabrics complete
//!    fewer shootdowns.
//!
//! ```text
//! cargo run --release --example topo_congestion
//! ```

use tlbdown::core::OptConfig;
use tlbdown::topo::TopologySpec;
use tlbdown::workloads::madvise::{
    run_madvise_bench, run_scale_tier, MadviseBenchCfg, Placement, ScaleTierCfg,
};

fn topologies() -> Vec<TopologySpec> {
    vec![
        TopologySpec::Flat,
        TopologySpec::ring(),
        TopologySpec::mesh(),
    ]
}

fn main() {
    println!("Interconnect congestion: identical workloads, three fabrics\n");

    println!("1. diff-socket madvise (10 PTEs, safe baseline), initiator latency:");
    for topo in topologies() {
        let mut cfg = MadviseBenchCfg::new(Placement::DiffSocket, 10, true, OptConfig::baseline());
        cfg.iters = 120;
        cfg.runs = 3;
        cfg.interconnect = topo.clone();
        let r = run_madvise_bench(&cfg).expect("madvise bench runs clean");
        println!(
            "   {:<5} {:>8.0} ± {:>5.0} cycles   (responder interruption {:>6.0})",
            topo.label(),
            r.initiator.mean(),
            r.initiator.stddev(),
            r.responder.mean(),
        );
    }

    println!("\n2. scale-tier smoke (2×16 cores, 600k cycles), shootdowns completed:");
    let mut flat_done = 0u64;
    for topo in topologies() {
        let mut cfg = ScaleTierCfg::smoke();
        cfg.interconnect = topo.clone();
        let r = run_scale_tier(&cfg).expect("scale tier runs clean");
        let done = r.counters.get("shootdown_done");
        if matches!(topo, TopologySpec::Flat) {
            flat_done = done;
        }
        println!(
            "   {:<5} {:>5} shootdowns in {} sim cycles  ({:+.1}% vs flat)  digest {:016x}",
            topo.label(),
            done,
            r.sim_cycles,
            100.0 * (done as f64 / flat_done.max(1) as f64 - 1.0),
            r.digest,
        );
    }

    println!(
        "\nThe flat fabric is the pinned reference — its digests match the\n\
         pre-topology pipeline byte for byte. Ring and mesh route the same\n\
         traffic through finite links: broadcast shootdowns from the madvise\n\
         initiators pile onto shared hops, and the fabric — not the protocol\n\
         — becomes the bottleneck. `tlbsim --topology ring|mesh` applies the\n\
         same knob to the paper's workloads; `cargo xtask topobench` pins the\n\
         full flat/ring/mesh × 4K/THP matrix in BENCH_6.json."
    );
}
