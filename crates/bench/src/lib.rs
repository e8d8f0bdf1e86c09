//! The figure/table regeneration library.
//!
//! Every table and figure of the paper's evaluation has a function here
//! that runs the corresponding experiment and renders the rows the paper
//! reports; the `figures` binary dispatches to them. DESIGN.md §5 maps
//! each experiment to its module, and EXPERIMENTS.md records a full run.

pub mod ablations;
pub mod enginebench;
pub mod figures;
pub mod fractured;
pub mod loc;
pub mod matrix;
pub mod metrics;
pub mod report;

pub use ablations::{ceiling_sweep, invpcid_sensitivity, paravirt_hint};
pub use enginebench::{run_dispatch, run_dispatch_pair, DispatchCfg, DispatchPair, DispatchResult};
pub use figures::{fig10, fig11, fig4_ablation, fig5_to_8, fig9, table3, Scale};
pub use fractured::table4;
pub use loc::table2;
pub use matrix::{
    bench_matrix, full_matrix, optbench_levels, optbench_matrix, scale_matrix, storm_faults,
    storm_matrix, storm_matrix_mesh, topo_specs, topobench_matrix, JobOutput, JobSpec, MatrixJob,
};
pub use metrics::JobMetrics;
pub use report::{bench_jobs, diff_sim_metrics, render_bench_json, sim_blocks, SimDiff};
