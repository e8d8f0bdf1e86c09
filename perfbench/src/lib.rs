//! End-to-end and per-layer host-time benchmark of the tlbdown simulator.
//!
//! Three workloads: `broadcast_2x56` and `hotset_mesh` drive one
//! `tlbdown_kernel::Machine` through its public API; `paper_matrix` runs
//! the `bench_matrix()` jobs through the sweep pool. See `NOTES.md`.

pub mod gen;
pub mod machine;
pub mod matrix;
pub mod micro;
pub mod run;
pub mod span;
pub mod stats;
