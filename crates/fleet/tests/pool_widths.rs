//! The fleet runner at several sweep-pool widths.
//!
//! The fleet's node phase fans one job per machine across the sweep
//! pool, and machine sims are *not* uniform — a crashing machine
//! reboots (two full kernel boots), a slow machine runs a degraded
//! clock, a healthy machine just serves — so which worker runs which
//! machine, and in what order jobs finish, changes with the pool width.
//! These tests rerun that phase at several widths (one worker, a few,
//! and more workers than machines) and require the canonical fleet
//! document to stay byte-identical: the pool may change where and when
//! a node job runs, never what it computes or the order results reduce
//! in.

use tlbdown_fleet::{replay_fleet, run_fleet, FleetCfg, FleetFaultSpec};
use tlbdown_sim::FaultSpec;

/// A cell with real machine-level churn: crashes and slow machines
/// under IPI drops, so the per-machine job costs are deliberately
/// uneven.
fn churn_cell(machines: u32) -> FleetCfg {
    FleetCfg::quick(
        machines,
        FleetFaultSpec::combined().with_ipi(FaultSpec::ipi_drop()),
        0x57ea_1f1e,
    )
}

#[test]
fn fleet_document_is_byte_identical_across_pool_widths() {
    let cfg = churn_cell(12);
    // 1 = one worker runs every job in order, 3 = workers race for
    // jobs, 8 = more workers than unevenly-sized job classes.
    let serial = replay_fleet(&cfg, 1, 3).expect("fleet replays clean at 1 vs 3 threads");
    let wide = replay_fleet(&cfg, 8, 1).expect("fleet replays clean at 8 vs 1 threads");
    assert_eq!(serial, wide, "pool width leaked into the fleet document");
}

#[test]
fn oversubscribed_pool_still_reduces_canonically() {
    // More workers than machines: the queue drains before most workers
    // claim anything, and those workers exit without running a job.
    let cfg = churn_cell(6);
    let narrow = run_fleet(&cfg, 2).expect("narrow run clean").sim_json();
    let over = run_fleet(&cfg, 16)
        .expect("oversubscribed run clean")
        .sim_json();
    assert_eq!(narrow.render(), over.render());
}

#[test]
fn survival_verdicts_match_the_serial_run() {
    let cfg = churn_cell(10);
    let a = run_fleet(&cfg, 1).expect("serial run clean");
    let b = run_fleet(&cfg, 4).expect("pooled run clean");
    assert_eq!(a.fully_accounted, b.fully_accounted);
    assert_eq!(a.zero_violations, b.zero_violations);
    assert_eq!(
        a.crashed_recovered_or_ejected,
        b.crashed_recovered_or_ejected
    );
    assert_eq!(a.crashed, b.crashed);
    assert_eq!(a.sim_json().render(), b.sim_json().render());
}
