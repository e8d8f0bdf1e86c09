//! Repo automation, `cargo xtask <command>` style:
//!
//! - `cargo xtask fmt` — the formatting gate: `cargo fmt --all -- --check`.
//! - `cargo xtask clippy` — the lint gate: `cargo clippy --all-targets`
//!   with warnings promoted to errors.
//! - `cargo xtask replay [seed]` — the determinism gate: run the chaos
//!   stress workload twice from the same seed and require byte-identical
//!   stats output. Any hidden nondeterminism (hash-map iteration order
//!   leaking into scheduling, wall-clock use, an unseeded RNG) shows up
//!   here as a diff.
//! - `cargo xtask explore [--threads N] [--out PATH]` — the
//!   model-checking gate: bounded schedule exploration of the shootdown
//!   protocols at every cumulative optimization level (zero violations
//!   expected), fanned across host cores by the sweep pool, plus a
//!   seeded-bug canary. Budgeted at 50k schedules; writes a
//!   machine-readable summary to `explore_report.json`.
//! - `cargo xtask engine [seed]` — the engine-equivalence gate: the
//!   timing-wheel and pure-heap engines must produce byte-identical
//!   state digests on a chaos-stressed machine at every cumulative
//!   optimization level, and on the scale-tier smoke configuration.
//! - `cargo xtask sweep [--threads N] [--scale quick|full] [--out PATH]`
//!   — the full figure/table matrix plus the explore jobs, reduced in
//!   canonical job-ID order (byte-identical for any thread count).
//! - `cargo xtask trace [--out PATH]` — the tracing gate: capture the
//!   calibrated dueling-madvise workload at every cumulative optimization
//!   level, require exact per-phase attribution (sums to end-to-end
//!   latency for every shootdown), byte-identical exports across replays
//!   and pool thread counts, Chrome trace_event schema validity with a
//!   strict-parser round-trip, and a clean compile of the kernel with
//!   tracing compiled out. Prints the paper-style "where did the cycles
//!   go" table and writes a sample `.trace.json` (opens in Perfetto).
//!
//! The six snapshot gates below all take `[--out PATH] [--baseline PATH]
//! [--tolerance F]` and run through one runner,
//! `tlbdown_bench::report::BenchGate`: run the matrix (at two pool
//! widths where noted, requiring byte-identical sim blocks), fail on any
//! failed job and any diverged in-cell seed replay, apply the gate's own
//! checks, diff the sim blocks byte-exactly against the baseline (every
//! baseline job of the run's scale must be reproduced; other scales are
//! carried over), bound wall-clock at the tolerance, and write the file.
//!
//! - `cargo xtask bench [--threads N]` — `BENCH_1.json`: the calibrated
//!   20-job figure/table matrix.
//! - `cargo xtask scalebench` — `BENCH_2.json`: the dual-socket 2×56
//!   tier under the timing wheel and the pure-heap baseline plus the
//!   engine-dispatch microbenchmark, serially so host timings are
//!   honest. The tier's sim blocks must match across engines and the
//!   wheel must clear the dispatch-throughput floor.
//! - `cargo xtask storm [--threads N] [--scale quick|full]
//!   [--fabric flat|mesh] [--report PATH]` — `BENCH_3.json`: the
//!   SEV-Step-style adversary pack ({mild, brisk, savage} monitors ×
//!   {none, ipi-drop, late-responder, combined} fault presets) at L0–L6,
//!   every cell twice. Every level of every cell must survive (zero
//!   violations, no wedge, all threads done) and the victim must see the
//!   storm. `--fabric mesh` routes every cell over the 2D mesh (job IDs
//!   gain a `mesh/` segment). Prints the victim signal table and writes
//!   per-cell verdicts to `storm_report.json`.
//! - `cargo xtask fleet [--threads N] [--scale quick|full]
//!   [--report PATH]` — `BENCH_4.json`: N machine sims behind a
//!   deterministic load balancer, {crash, slow-machine, partition,
//!   tenant-churn} × {none, ipi-drop, combined} faults plus the headline
//!   tier (full scale: 1000 machines / 112k cores), at two pool widths.
//!   Every cell must account for every request, have zero violations and
//!   recover or eject every crashed machine. Writes `fleet_report.json`.
//!   Defaults to full scale; CI runs `--scale quick`.
//! - `cargo xtask topobench [--scale quick|full]` — `BENCH_6.json`:
//!   {flat, ring, mesh} × {4K-only, THP} at the 2×56 tier under the
//!   Skylake-SP TLB geometry plus the huge-page fracture table, at two
//!   pool widths. Ring and mesh must diverge from flat, and the THP
//!   column must promote and fracture huge pages. Defaults to full.
//! - `cargo xtask optbench [--scale quick|full]` — `BENCH_7.json`:
//!   reuse-churn and AutoNUMA migration-storm cells at L6/L7/L8, at two
//!   pool widths. L7 must elide fitting-churn shootdowns, L8 alone must
//!   sync page-table replicas, and every storm cell must survive.
//!
//! - `cargo xtask ci [seed] [--gates fast|full]` — every gate above.
//!   `--gates fast` runs the PR-blocking tier (fmt, clippy, replay,
//!   engine); `--gates full` runs the long matrix gates (explore,
//!   bench, scale, topo, optbench, storm, fleet, trace); omitting the
//!   flag runs both tiers. All selected gates run even if an early one
//!   fails; a final table reports per-gate pass/fail with wall-clock,
//!   the machine-readable verdicts land in `ci_report.json`, and the
//!   exit code is nonzero if any gate failed.

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use tlbdown_bench::report::{
    bench_doc, job, sim_blocks, sim_u64, BenchGate, GateRun, Teeth, Verdict,
};
use tlbdown_bench::{
    bench_matrix, full_matrix, optbench_levels, optbench_matrix, scale_matrix, storm_matrix,
    storm_matrix_mesh, topobench_matrix, Scale,
};
use tlbdown_check::gate::{
    per_level_bounds, run_canary, run_fracture_canary, run_numapte_canary, run_quarantine_canary,
    run_reuse_canary, CanaryReport, GateReport, LevelReport, DEFAULT_BUDGET,
};
use tlbdown_check::{explore_opt_level, explore_opt_level_mesh, Bounds};
use tlbdown_core::OptConfig;
use tlbdown_fleet::{run_fleet, FleetCfg, FleetFaultSpec};
use tlbdown_kernel::chaos::ChaosConfig;
use tlbdown_kernel::prog::{BusyLoopProg, MadviseLoopProg};
use tlbdown_kernel::{KernelConfig, Machine};
use tlbdown_sim::fault::FaultSpec;
use tlbdown_sweep::{reduce_rendered, run_jobs, Job, JobError, Json};
use tlbdown_trace::{
    analyze, render_attribution_table, render_phase_diff, to_chrome_json, validate_chrome,
    PhaseTotals, Trace,
};
use tlbdown_types::{CoreId, Cycles};
use tlbdown_workloads::madvise::{run_scale_tier, ScaleTierCfg};

/// Maximum choices allowed in the shrunk canary counterexample.
const MAX_CANARY_CHOICES: usize = 20;

/// Shrinker trial budget for the canary.
const SHRINK_BUDGET: u64 = 2_000;

/// Default wall-clock tolerance for the perf gate: the current sweep may
/// take at most this multiple of the baseline's wall-clock. Generous,
/// because committed baselines cross hardware; the teeth of the gate are
/// the byte-exact sim-metric diff.
const DEFAULT_TOLERANCE: f64 = 3.0;

/// Minimum dispatch-throughput improvement (pure-heap wall-clock over
/// timing-wheel wall-clock on the same stream) the scale gate requires.
const MIN_DISPATCH_SPEEDUP: f64 = 2.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let snap = |default_out: &str| Snapshot::from_args(&args, default_out);
    let ok = match args.first().map(String::as_str) {
        Some("fmt") => fmt(),
        Some("clippy") => clippy(),
        Some("replay") => replay(parse_seed(positional(&args, 1))),
        Some("explore") => explore_gate(
            parse_threads(&args),
            &flag(&args, "--out").unwrap_or_else(|| "explore_report.json".into()),
        ),
        Some("bench") => bench_gate(parse_threads(&args), snap("BENCH_1.json")),
        Some("scalebench") => scale_bench_gate(snap("BENCH_2.json")),
        // The committed artifact is the 2×56 tier, so `topobench`
        // defaults to full; the reduced dispatch target keeps it
        // CI-sized (see `topo_tier`).
        Some("topobench") => topo_bench_gate(parse_scale(&args, Scale::Full), snap("BENCH_6.json")),
        // The committed BENCH_7.json is the quick-scale matrix: the
        // cells simulate twice each and the matrix runs at two pool
        // widths, so quick keeps CI wall-clock bounded.
        Some("optbench") => opt_bench_gate(parse_scale(&args, Scale::Quick), snap("BENCH_7.json")),
        Some("engine") => engine_gate(parse_seed(positional(&args, 1))),
        Some("storm") => storm_gate(
            parse_threads(&args),
            parse_scale(&args, Scale::Quick),
            match flag(&args, "--fabric").as_deref() {
                None | Some("flat") => false,
                Some("mesh") => true,
                Some(other) => {
                    eprintln!("xtask: bad --fabric {other:?}, expected flat or mesh");
                    return ExitCode::FAILURE;
                }
            },
            snap("BENCH_3.json"),
            &flag(&args, "--report").unwrap_or_else(|| "storm_report.json".into()),
        ),
        // The headline 1000-machine tier is the point of this gate, so
        // `fleet` defaults to full; CI passes `--scale quick`.
        Some("fleet") => fleet_gate(
            parse_threads(&args),
            parse_scale(&args, Scale::Full),
            snap("BENCH_4.json"),
            &flag(&args, "--report").unwrap_or_else(|| "fleet_report.json".into()),
        ),
        Some("sweep") => sweep(
            parse_threads(&args),
            parse_scale(&args, Scale::Quick),
            flag(&args, "--out"),
        ),
        Some("trace") => {
            trace_gate(&flag(&args, "--out").unwrap_or_else(|| "sample.trace.json".into()))
        }
        Some("ci") => return ci(parse_seed(positional(&args, 1)), parse_gates(&args)),
        _ => {
            eprintln!(
                "usage: cargo xtask <fmt | clippy | replay [seed] | \
                 explore [--threads N] [--out PATH] | engine [seed] | \
                 sweep [--threads N] [--scale quick|full] [--out PATH] | trace [--out PATH] | \
                 ci [seed] [--gates fast|full] | GATE [--out PATH] [--baseline PATH] \
                 [--tolerance F]>, where GATE is one of: \
                 bench [--threads N] | scalebench | \
                 topobench [--scale quick|full] | optbench [--scale quick|full] | \
                 storm [--threads N] [--scale quick|full] [--fabric flat|mesh] [--report PATH] | \
                 fleet [--threads N] [--scale quick|full] [--report PATH]"
            );
            return ExitCode::FAILURE;
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The value following `name`, if present.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The positional argument at `idx`, skipping nothing — but only if it
/// does not look like a flag.
fn positional(args: &[String], idx: usize) -> Option<&String> {
    args.get(idx).filter(|a| !a.starts_with("--"))
}

fn parse_threads(args: &[String]) -> usize {
    flag(args, "--threads")
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("xtask: bad --threads {s:?}, expected a count (0 = all cores)");
                std::process::exit(2);
            })
        })
        .unwrap_or(0)
}

fn parse_tolerance(args: &[String]) -> f64 {
    flag(args, "--tolerance")
        .map(|s| {
            let v: f64 = s.parse().unwrap_or_else(|_| {
                eprintln!("xtask: bad --tolerance {s:?}, expected a factor like 3.0");
                std::process::exit(2);
            });
            if v < 1.0 {
                eprintln!("xtask: --tolerance must be >= 1.0");
                std::process::exit(2);
            }
            v
        })
        .unwrap_or(DEFAULT_TOLERANCE)
}

fn parse_scale(args: &[String], default: Scale) -> Scale {
    match flag(args, "--scale").as_deref() {
        None => default,
        Some("quick") => Scale::Quick,
        Some("full") => Scale::Full,
        Some(other) => {
            eprintln!("xtask: bad --scale {other:?}, expected quick or full");
            std::process::exit(2);
        }
    }
}
/// Which CI tier to run: the fast PR-blocking gates, the long matrix
/// gates, or (default) both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CiGates {
    Fast,
    Full,
    All,
}

fn parse_gates(args: &[String]) -> CiGates {
    match flag(args, "--gates").as_deref() {
        None => CiGates::All,
        Some("fast") => CiGates::Fast,
        Some("full") => CiGates::Full,
        Some(other) => {
            eprintln!("xtask: bad --gates {other:?}, expected fast or full");
            std::process::exit(2);
        }
    }
}

fn parse_seed(arg: Option<&String>) -> u64 {
    arg.map(|s| {
        let s = s.trim();
        let parsed = match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        };
        parsed.unwrap_or_else(|_| {
            eprintln!("xtask: bad seed {s:?}, expected a u64 (decimal or 0x-hex)");
            std::process::exit(2);
        })
    })
    .unwrap_or(0x0dd5_eed5)
}

/// The current commit hash, for snapshot provenance.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn run_cargo(what: &str, args: &[&str]) -> bool {
    println!("xtask: cargo {}", args.join(" "));
    let status = Command::new(env!("CARGO", "run via cargo"))
        .args(args)
        .status();
    match status {
        Ok(s) if s.success() => true,
        Ok(_) => {
            eprintln!("xtask: {what} failed");
            false
        }
        Err(e) => {
            eprintln!("xtask: could not run cargo {what}: {e}");
            false
        }
    }
}

fn fmt() -> bool {
    run_cargo("fmt", &["fmt", "--all", "--", "--check"])
}

fn clippy() -> bool {
    run_cargo(
        "clippy",
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
    )
}

/// One full chaos-stress run, rendered to a canonical stats string.
fn replay_run(seed: u64) -> String {
    use std::fmt::Write as _;
    let chaos = ChaosConfig::with_fault(FaultSpec::everything(), seed);
    let mut m = Machine::new(
        KernelConfig::test_machine(4)
            .with_opts(OptConfig::general_four())
            .with_chaos(chaos),
    );
    let mm = m.create_process().expect("boot: create process");
    m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(8, 6)));
    m.spawn(mm, CoreId(1), Box::new(BusyLoopProg));
    m.spawn(mm, CoreId(2), Box::new(MadviseLoopProg::new(3, 6)));
    m.spawn(mm, CoreId(3), Box::new(BusyLoopProg));
    m.run_until(Cycles::new(80_000_000));

    let mut out = String::new();
    let mut counters: Vec<(&'static str, u64)> = m.stats.counters.iter().collect();
    counters.sort_unstable();
    writeln!(out, "final_time {}", m.now().as_u64()).unwrap();
    writeln!(out, "violations {}", m.violations().len()).unwrap();
    writeln!(out, "errors {}", m.recorded_errors().len()).unwrap();
    for (k, v) in counters {
        writeln!(out, "counter {k} {v}").unwrap();
    }
    out
}

fn replay(seed: u64) -> bool {
    println!("xtask: deterministic-replay check, seed {seed:#x}");
    let a = replay_run(seed);
    let b = replay_run(seed);
    if a == b {
        println!(
            "xtask: replay OK — {} stats lines byte-identical across two runs",
            a.lines().count()
        );
        true
    } else {
        eprintln!("xtask: REPLAY DIVERGED — same seed produced different stats:");
        for (la, lb) in a.lines().zip(b.lines()) {
            if la != lb {
                eprintln!("  run1: {la}");
                eprintln!("  run2: {lb}");
            }
        }
        false
    }
}

/// The per-level explorations as sweep jobs: every cumulative level over
/// the flat reference interconnect, then the same levels routed over the
/// 2D mesh. Each per-level DFS is deterministic in isolation, so the
/// jobs can run on any worker in any order.
fn explore_level_jobs() -> Vec<Job<(LevelReport, bool)>> {
    let mut jobs: Vec<Job<(LevelReport, bool)>> = OptConfig::all_levels()
        .map(|(level, _, _)| {
            let bounds = per_level_bounds();
            Job::new(format!("explore/L{level}"), move || {
                (explore_opt_level(level, &bounds), false)
            })
        })
        .collect();
    jobs.extend(OptConfig::all_levels().map(|(level, _, _)| {
        let bounds = per_level_bounds();
        Job::new(format!("explore/mesh/L{level}"), move || {
            (explore_opt_level_mesh(level, &bounds), true)
        })
    }));
    jobs
}

fn print_level(topo: &str, rep: &LevelReport) {
    println!(
        "xtask: {topo} opt level {}: {} schedules, {} branch points, \
         {} distinct states, {} digest-pruned — {}",
        rep.level,
        rep.schedules,
        rep.branch_points,
        rep.distinct_states,
        rep.pruned_digest,
        if rep.safe { "safe" } else { "VIOLATION" }
    );
    if let Some(v) = &rep.violation {
        eprintln!("xtask: counterexample at opt level {}: {v}", rep.level);
    }
}

fn print_canary(name: &str, c: &CanaryReport) {
    if !c.fifo_safe {
        eprintln!(
            "xtask: {name} canary drifted — the seeded bug fails under FIFO \
             (should need exploration)"
        );
        return;
    }
    if !c.caught {
        eprintln!("xtask: CANARY FAILED — exploration missed the seeded {name} bug");
        return;
    }
    if c.shrunk_choices > MAX_CANARY_CHOICES {
        eprintln!(
            "xtask: CANARY FAILED — {name} shrunk schedule has {} choices \
             (> {MAX_CANARY_CHOICES}): {}",
            c.shrunk_choices, c.schedule
        );
    }
    if !c.replay_ok {
        eprintln!(
            "xtask: CANARY FAILED — {name} minimized schedule no longer violates or diverged"
        );
    }
    if !c.safe_clean {
        eprintln!("xtask: correct {name} check violated under exploration");
    }
    if c.pass(MAX_CANARY_CHOICES) {
        println!(
            "xtask: {name} canary OK — seeded bug caught in {} schedules, shrunk to {} choices \
             ({} trials), replays byte-identically; correct check clean in {} schedules",
            c.caught_in_schedules, c.shrunk_choices, c.shrink_trials, c.safe_schedules
        );
    }
}

/// The model-checking gate: per-level explorations (flat and mesh, all
/// of [`OptConfig::all_levels`]) fanned across the sweep pool, the
/// seeded-bug canaries, a budget check, and a machine-readable report
/// written to `out`.
fn explore_gate(threads: usize, out: &str) -> bool {
    let per_level = per_level_bounds();
    println!(
        "xtask: bounded schedule exploration, budget {DEFAULT_BUDGET} schedules \
         (preemption bound {}, window {} cycles)",
        per_level.preemption_bound,
        per_level.window.as_u64()
    );
    let sweep = run_jobs(explore_level_jobs(), threads);
    let mut levels: Vec<LevelReport> = Vec::new();
    let mut mesh_levels: Vec<LevelReport> = Vec::new();
    for r in &sweep.results {
        let (rep, mesh) = r.output.clone();
        if mesh {
            mesh_levels.push(rep);
        } else {
            levels.push(rep);
        }
    }
    for rep in &levels {
        print_level("flat", rep);
    }
    for rep in &mesh_levels {
        print_level("mesh", rep);
    }
    let canary = run_canary(&Bounds::default(), SHRINK_BUDGET);
    print_canary("buggy_nmi_check", &canary);
    let quarantine_canary = run_quarantine_canary(&Bounds::default(), SHRINK_BUDGET);
    print_canary("buggy_quarantine", &quarantine_canary);
    let fracture_canary = run_fracture_canary(&Bounds::default(), SHRINK_BUDGET);
    print_canary("buggy_fracture", &fracture_canary);
    let reuse_skip_canary = run_reuse_canary(&Bounds::default(), SHRINK_BUDGET);
    print_canary("buggy_reuse_skip", &reuse_skip_canary);
    let numapte_canary = run_numapte_canary(&Bounds::default(), SHRINK_BUDGET);
    print_canary("buggy_numapte", &numapte_canary);
    let spent = levels.iter().map(|l| l.schedules).sum::<u64>()
        + mesh_levels.iter().map(|l| l.schedules).sum::<u64>()
        + canary.spent
        + quarantine_canary.spent
        + fracture_canary.spent
        + reuse_skip_canary.spent
        + numapte_canary.spent;
    let gate = GateReport {
        budget: DEFAULT_BUDGET,
        spent,
        threads: sweep.threads,
        levels,
        mesh_levels,
        canary,
        quarantine_canary,
        fracture_canary,
        reuse_skip_canary,
        numapte_canary,
        max_canary_choices: MAX_CANARY_CHOICES,
    };
    if let Err(e) = std::fs::write(out, gate.to_json().render_pretty()) {
        eprintln!("xtask: could not write {out}: {e}");
        return false;
    }
    println!(
        "xtask: wrote {out} ({} levels, {} threads, {:.0?} wall)",
        gate.levels.len(),
        sweep.threads,
        sweep.elapsed
    );
    if spent > DEFAULT_BUDGET {
        eprintln!("xtask: BUDGET EXCEEDED — {spent} schedules > {DEFAULT_BUDGET}");
    }
    if gate.pass() {
        println!("xtask: explore OK — {spent} of {DEFAULT_BUDGET} schedule budget used");
    }
    gate.pass()
}

/// Where a snapshot gate writes its `BENCH_*.json` and what it diffs
/// against.
struct Snapshot {
    out: String,
    baseline: Option<String>,
    tolerance: f64,
}

impl Snapshot {
    fn from_args(args: &[String], default_out: &str) -> Self {
        Snapshot {
            out: flag(args, "--out").unwrap_or_else(|| default_out.into()),
            baseline: flag(args, "--baseline"),
            tolerance: parse_tolerance(args),
        }
    }

    /// The committed snapshot `out`, diffed against itself.
    fn committed(out: &str) -> Self {
        Snapshot {
            out: out.into(),
            baseline: None,
            tolerance: DEFAULT_TOLERANCE,
        }
    }

    /// A gate spec with no checks of its own; callers add teeth with
    /// struct-update syntax.
    fn gate<'a>(
        self,
        name: &'static str,
        threads: Vec<usize>,
        owns: String,
        run: impl Fn(usize) -> GateRun + 'a,
    ) -> BenchGate<'a> {
        BenchGate {
            name,
            out: self.out,
            baseline: self.baseline,
            tolerance: self.tolerance,
            threads,
            owns,
            print_cells: false,
            run: Box::new(run),
            teeth: Box::new(|_, _| {}),
        }
    }
}

/// The perf gate behind `BENCH_1.json`: the calibrated bench matrix,
/// with no checks beyond the shared runner's.
fn bench_gate(threads: usize, snap: Snapshot) -> bool {
    let rev = git_rev();
    snap.gate("bench", vec![threads], String::new(), move |t| {
        GateRun::matrix(bench_matrix(), t, &rev)
    })
    .run()
}

/// The scale-up gate behind `BENCH_2.json`, run serially so the host
/// timings are honest: the 2×56 tier's sim blocks must be identical
/// across engines (the dispatch job asserts its own stream-digest
/// equality), and the wheel must clear the dispatch-throughput floor
/// over the allocating pure-heap baseline.
fn scale_bench_gate(snap: Snapshot) -> bool {
    let rev = git_rev();
    let teeth: Teeth = Box::new(|doc, v| {
        let blocks = sim_blocks(doc);
        let (heap, wheel) = ("scale/full/2x56-heap", "scale/full/2x56-wheel");
        let same = blocks.contains_key(heap) && blocks.get(heap) == blocks.get(wheel);
        v.check(
            same,
            format_args!(
                "scale tier sim blocks {} between {heap} and {wheel}",
                if same {
                    "identical"
                } else {
                    "differ or missing"
                }
            ),
        );
        let host =
            |key| job(doc, "engine/full/dispatch").and_then(|j| j.get("host")?.get(key)?.as_u64());
        match (host("heap_ns"), host("wheel_ns")) {
            (Some(heap), Some(wheel)) if wheel > 0 => {
                let speedup = heap as f64 / wheel as f64;
                v.check(
                    speedup >= MIN_DISPATCH_SPEEDUP,
                    format_args!(
                        "dispatch speedup {speedup:.2}x — heap {:.2?} vs wheel {:.2?} \
                         (floor {MIN_DISPATCH_SPEEDUP:.1}x)",
                        Duration::from_nanos(heap),
                        Duration::from_nanos(wheel)
                    ),
                );
                *doc = doc.clone().set("dispatch_speedup", Json::F64(speedup));
            }
            _ => v.check(false, "dispatch host timings missing"),
        }
    });
    BenchGate {
        teeth,
        ..snap.gate("scale", vec![1], String::new(), move |t| {
            GateRun::matrix(scale_matrix(Scale::Full), t, &rev)
        })
    }
    .run()
}

/// The interconnect gate behind `BENCH_6.json`, at 1 and 2 pool
/// threads: ring and mesh must diverge from the flat reference (same
/// workload and seed, so identical digests would mean the topology
/// routes nothing), and the THP column must promote and fracture huge
/// pages.
fn topo_bench_gate(scale: Scale, snap: Snapshot) -> bool {
    let rev = git_rev();
    let s = scale.label();
    let teeth: Teeth = Box::new(move |doc, v| {
        let mut diverged = true;
        for pages in ["4k", "thp"] {
            let flat = sim_u64(doc, &format!("topo/{s}/flat/{pages}"), "state_digest");
            for topo in ["ring", "mesh"] {
                let id = format!("topo/{s}/{topo}/{pages}");
                let routed = sim_u64(doc, &id, "state_digest");
                if flat.is_none() || routed.is_none() || routed == flat {
                    v.fail_job(
                        &id,
                        format_args!(
                            "digest {routed:x?} vs flat {flat:x?}: the routed interconnect \
                             changed nothing"
                        ),
                    );
                    diverged = false;
                }
            }
        }
        if diverged {
            v.note("divergence OK — ring and mesh digests differ from flat in both columns");
        }
        let frac = format!("topo/{s}/fracture");
        let promotes = sim_u64(doc, &frac, "thp_thp_promote").unwrap_or(0);
        let splits = sim_u64(doc, &frac, "thp_thp_split").unwrap_or(0);
        v.check(
            promotes > 0 && splits > 0,
            format_args!(
                "fracture table: {promotes} huge-page promotions, {splits} fractures in the \
                 THP column (both must be nonzero)"
            ),
        );
    });
    BenchGate {
        print_cells: true,
        teeth,
        ..snap.gate("topo", vec![1, 2], format!("topo/{s}/"), move |t| {
            GateRun::matrix(topobench_matrix(scale), t, &rev)
        })
    }
    .run()
}

/// The follow-on-level gate behind `BENCH_7.json`, at 1 and 2 pool
/// threads: the window-fitting reuse churn must elide shootdowns at L7
/// against a dark L6 control, the migration storm must sync page-table
/// replicas at L8 and only there, and every storm cell must survive.
fn opt_bench_gate(scale: Scale, snap: Snapshot) -> bool {
    let rev = git_rev();
    let s = scale.label();
    let teeth: Teeth = Box::new(move |doc, v| {
        let paper = OptConfig::PAPER_MAX_LEVEL;
        let reuse =
            |level: usize, key| sim_u64(doc, &format!("opt/{s}/reuse/fitting/L{level}"), key);
        let got = (
            reuse(paper, "shootdowns"),
            reuse(paper + 1, "shootdowns"),
            reuse(paper, "reuse_hits"),
            reuse(paper + 1, "reuse_hits"),
        );
        v.check(
            matches!(got, (Some(c), Some(r), Some(0), Some(h)) if r < c && h > 0),
            format_args!(
                "reuse-skip teeth: (L6 shootdowns, L7 shootdowns, L6 hits, L7 hits) = {got:?}, \
                 need L7 < L6, no L6 hits and some L7 hits"
            ),
        );
        let storm = |level: usize| format!("opt/{s}/numa/numa-storm/L{level}");
        let syncs = (
            sim_u64(doc, &storm(paper), "replica_syncs"),
            sim_u64(doc, &storm(OptConfig::MAX_LEVEL), "replica_syncs"),
        );
        v.check(
            matches!(syncs, (Some(0), Some(r)) if r > 0),
            format_args!("numaPTE teeth: (L6, L8) replica syncs = {syncs:?}, need (0, > 0)"),
        );
        let mut survived = true;
        for level in optbench_levels() {
            for intensity in ["periodic", "numa-storm"] {
                let id = format!("opt/{s}/numa/{intensity}/L{level}");
                if sim_u64(doc, &id, "violations") != Some(0)
                    || sim_u64(doc, &id, "wedged") != Some(0)
                    || sim_u64(doc, &id, "threads_done") != Some(1)
                {
                    v.fail_job(&id, "did not survive the migration storm");
                    survived = false;
                }
            }
        }
        if survived {
            v.note("survival OK — every migration-storm cell clean at all three levels");
        }
    });
    BenchGate {
        print_cells: true,
        teeth,
        ..snap.gate("optbench", vec![1, 2], format!("opt/{s}/"), move |t| {
            GateRun::matrix(optbench_matrix(scale), t, &rev)
        })
    }
    .run()
}

/// One chaos-stressed machine run for the engine-equivalence gate.
fn engine_gate_run(level: usize, seed: u64, heap_only: bool) -> (u64, u64, usize, usize) {
    let chaos = ChaosConfig::with_fault(FaultSpec::everything(), seed);
    let mut m = Machine::new(
        KernelConfig::test_machine(4)
            .with_opts(OptConfig::cumulative(level))
            .with_chaos(chaos)
            .with_heap_only_engine(heap_only),
    );
    let mm = m.create_process().expect("boot: create process");
    m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(8, 6)));
    m.spawn(mm, CoreId(1), Box::new(BusyLoopProg));
    m.spawn(mm, CoreId(2), Box::new(MadviseLoopProg::new(3, 6)));
    m.spawn(mm, CoreId(3), Box::new(BusyLoopProg));
    m.run_until(Cycles::new(10_000_000));
    (
        m.state_digest(),
        m.now().as_u64(),
        m.violations().len(),
        m.recorded_errors().len(),
    )
}

/// The engine-equivalence gate: the timing-wheel and pure-heap engines
/// must be observationally identical — same state digest, final time,
/// violation and error counts — on a chaos-stressed machine at every
/// cumulative optimization level, and on the scale-tier smoke
/// configuration.
fn engine_gate(seed: u64) -> bool {
    println!("xtask: engine-equivalence check, seed {seed:#x}");
    let mut ok = true;
    for (level, _, _) in OptConfig::all_levels() {
        let level = level as usize;
        let wheel = engine_gate_run(level, seed, false);
        let heap = engine_gate_run(level, seed, true);
        if wheel != heap {
            eprintln!(
                "xtask: ENGINE GATE FAILED — level {level}: wheel \
                 (digest {:016x}, t {}, {} violations, {} errors) != heap \
                 (digest {:016x}, t {}, {} violations, {} errors)",
                wheel.0, wheel.1, wheel.2, wheel.3, heap.0, heap.1, heap.2, heap.3
            );
            ok = false;
        }
    }
    if ok {
        println!(
            "xtask: engine OK — chaos-run state digests byte-identical across engines \
             at all {} opt levels",
            OptConfig::NUM_LEVELS
        );
    }
    let tier = |heap_only: bool| {
        let mut cfg = ScaleTierCfg::smoke();
        cfg.heap_only_engine = heap_only;
        let r = run_scale_tier(&cfg).expect("engine gate: scale-tier smoke runs clean");
        (r.digest, r.events, r.sim_cycles)
    };
    let (wheel, heap) = (tier(false), tier(true));
    if wheel == heap {
        println!(
            "xtask: engine OK — scale-tier smoke digest {:016x} identical across engines",
            wheel.0
        );
    } else {
        eprintln!(
            "xtask: ENGINE GATE FAILED — scale-tier smoke diverged: \
             wheel {wheel:?} vs heap {heap:?}"
        );
        ok = false;
    }
    ok
}

/// Optimization levels every storm cell runs at (L0..L6 cumulative).
/// Pinned to the paper's levels: the cells' rendered sim blocks back the
/// committed storm/bench baselines, so follow-on levels (L7/L8) are
/// exercised by the explore and trace gates instead.
const STORM_LEVELS: usize = OptConfig::PAPER_NUM_LEVELS;

/// Per-level survival requirements, as (metric suffix, required value)
/// pairs read from each storm cell's deterministic sim block. (Each
/// level's `replay_ok` is checked by the shared gate runner.)
const STORM_SURVIVAL: [(&str, u64); 3] = [("violations", 0), ("wedged", 0), ("threads_done", 1)];

/// The victim signal-observability table: fault-latency percentile
/// upper bounds per opt level, one column group per storm intensity,
/// read from the fault-free cells (the clean side-channel signal the
/// optimization levels reshape). This is the table EXPERIMENTS.md
/// records.
fn render_storm_signal_table(cells: &[(String, Json)], scale: Scale, mesh: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let intensities = ["mild", "brisk", "savage"];
    let seg = if mesh { "mesh/" } else { "" };
    write!(out, "{:<6}", "level").unwrap();
    for i in &intensities {
        write!(out, "  {i:>7} p50/p90/p99 (n)     ").unwrap();
    }
    out.push('\n');
    for level in 0..STORM_LEVELS {
        write!(out, "L{level:<5}").unwrap();
        for i in &intensities {
            let id = format!("storm/{}/{seg}{i}/none", scale.label());
            let sim = cells.iter().find(|(cid, _)| cid == &id).map(|(_, s)| s);
            let get = |k: &str| {
                sim.and_then(|s| s.get(&format!("L{level}_{k}")))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            write!(
                out,
                "  {:>7}/{:>6}/{:>7} ({:>5})",
                get("fault_p50"),
                get("fault_p90"),
                get("fault_p99"),
                get("victim_faults")
            )
            .unwrap();
        }
        out.push('\n');
    }
    out
}

/// The shootdown-storm survival gate behind `BENCH_3.json`: every level
/// of every storm cell must survive — zero violations, no wedge, threads
/// done — and the victim must observe the storm. Prints the
/// signal-observability table and writes the per-cell verdicts to
/// `report_out`.
fn storm_gate(threads: usize, scale: Scale, mesh: bool, snap: Snapshot, report_out: &str) -> bool {
    let rev = git_rev();
    let fabric = if mesh { "mesh" } else { "flat" };
    let owns = format!(
        "storm/{}/{}",
        scale.label(),
        if mesh { "mesh/" } else { "" }
    );
    println!(
        "xtask: storm survival matrix ({fabric} fabric) at {STORM_LEVELS} opt levels, every \
         cell run twice"
    );
    let teeth: Teeth = Box::new(move |doc, v| {
        let cells: Vec<(String, Json)> = doc
            .get("jobs")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|j| Some((j.get("id")?.as_str()?.to_string(), j.get("sim")?.clone())))
            .collect();
        for (id, sim) in &cells {
            let get = |level: usize, key: &str| sim.get(&format!("L{level}_{key}"))?.as_u64();
            for level in 0..STORM_LEVELS {
                for (key, want) in STORM_SURVIVAL {
                    let got = get(level, key);
                    if got != Some(want) {
                        v.fail_job(id, format_args!("L{level}: {key} = {got:?} (want {want})"));
                    }
                }
                // The storm is only an adversary if the victim observes it.
                if get(level, "victim_faults").unwrap_or(0) == 0 {
                    v.fail_job(
                        id,
                        format_args!("L{level}: victim took no write-protect faults"),
                    );
                }
            }
        }
        let cell_reports: Vec<Json> = cells
            .iter()
            .map(|(id, _)| {
                Json::obj()
                    .with("id", Json::Str(id.clone()))
                    .with("pass", Json::Bool(v.job_ok(id)))
            })
            .collect();
        if v.pass() {
            v.note(format_args!(
                "survival OK — {} cells × {STORM_LEVELS} levels: zero violations, no wedge, \
                 all threads done, byte-identical replay",
                cells.len()
            ));
        }
        let signal_table = render_storm_signal_table(&cells, scale, mesh);
        v.note(
            "victim fault-latency signal (fault preset none), percentile upper bounds in cycles:",
        );
        print!("{signal_table}");
        let report = Json::obj()
            .with("schema_version", Json::U64(1))
            .with("git_rev", Json::Str(git_rev()))
            .with("scale", Json::Str(scale.label().into()))
            .with("fabric", Json::Str(fabric.into()))
            .with("levels", Json::U64(STORM_LEVELS as u64))
            .with("pass", Json::Bool(v.pass()))
            .with("cells", Json::Arr(cell_reports))
            .with("signal_table", Json::Str(signal_table));
        write_report(report_out, &report, v);
    });
    BenchGate {
        teeth,
        ..snap.gate("storm", vec![threads], owns, move |t| {
            GateRun::matrix(
                if mesh {
                    storm_matrix_mesh(scale)
                } else {
                    storm_matrix(scale)
                },
                t,
                &rev,
            )
        })
    }
    .run()
}

/// Write a side report next to a snapshot, failing the gate if it
/// cannot be written.
fn write_report(path: &str, report: &Json, v: &mut Verdict) {
    match std::fs::write(path, report.render_pretty()) {
        Ok(()) => v.note(format_args!("wrote {path}")),
        Err(e) => v.check(false, format_args!("could not write {path}: {e}")),
    }
}

/// The fleet survival matrix: machine-level fault presets crossed with
/// IPI-level presets, plus the headline tier.
fn fleet_cells(scale: Scale) -> Vec<(String, FleetCfg)> {
    let ipi_axis: [(&str, FaultSpec); 3] = [
        ("none", FaultSpec::none()),
        ("ipi-drop", FaultSpec::ipi_drop()),
        ("combined", FaultSpec::combined()),
    ];
    let cell_machines = match scale {
        Scale::Quick => 8,
        Scale::Full => 16,
    };
    let mut cells = Vec::new();
    let mut idx = 0u64;
    for (mname, mspec) in FleetFaultSpec::matrix() {
        for (iname, ipi) in &ipi_axis {
            let id = format!("fleet/{}/{mname}/{iname}", scale.label());
            let seed = 0x5eed_f1ee_7000 + idx;
            idx += 1;
            cells.push((
                id,
                FleetCfg::quick(cell_machines, mspec.clone().with_ipi(ipi.clone()), seed),
            ));
        }
    }
    // The headline tier runs the hardest mix at fleet scale: every
    // machine-level hazard armed, IPI drops underneath.
    let headline_spec = FleetFaultSpec::combined().with_ipi(FaultSpec::ipi_drop());
    let headline = match scale {
        Scale::Quick => FleetCfg::quick(120, headline_spec, 0x5eed_f1ee_8000),
        Scale::Full => FleetCfg::full_tier(headline_spec, 0x5eed_f1ee_8000),
    };
    cells.push((format!("fleet/{}/headline", scale.label()), headline));
    cells
}

/// Run every fleet cell at `threads` pool workers into one snapshot
/// run; a cell whose run returns an error becomes a failed job.
fn run_fleet_cells(cells: &[(String, FleetCfg)], threads: usize, rev: &str) -> GateRun {
    let start = Instant::now();
    let mut jobs = Vec::new();
    let mut failures = Vec::new();
    let mut serial = Duration::ZERO;
    for (id, cfg) in cells {
        let cell_start = Instant::now();
        let run = run_fleet(cfg, threads);
        let wall = cell_start.elapsed();
        serial += wall;
        match run {
            Ok(r) => {
                let config = Json::obj()
                    .with("machines", Json::U64(u64::from(cfg.machines)))
                    .with("total_cores", Json::U64(cfg.total_cores()))
                    .with("window", Json::U64(cfg.window))
                    .with("workers", Json::U64(u64::from(cfg.workers)))
                    .with("churn_slots", Json::U64(u64::from(cfg.churn_slots)))
                    .with("seed", Json::U64(cfg.seed));
                jobs.push(
                    Json::obj()
                        .with("id", Json::Str(id.clone()))
                        .with("config", config)
                        .with("sim", r.sim_json())
                        .with("wall_ns", Json::U64(wall.as_nanos() as u64)),
                );
            }
            Err(e) => failures.push(JobError {
                id: id.clone(),
                message: e.to_string(),
                wall,
            }),
        }
    }
    let elapsed = start.elapsed();
    println!(
        "xtask: {} fleet cells at {threads} pool threads in {elapsed:.2?}",
        cells.len()
    );
    let totals = Json::obj()
        .with("jobs", Json::U64(jobs.len() as u64))
        .with("wall_ns", Json::U64(elapsed.as_nanos() as u64))
        .with("serial_ns", Json::U64(serial.as_nanos() as u64))
        .with("speedup_vs_serial", Json::F64(1.0));
    GateRun {
        doc: bench_doc(rev, threads, jobs, totals),
        failures,
        rendered: String::new(),
    }
}

/// The fleet survival gate behind `BENCH_4.json`: the machine-fault ×
/// IPI-fault matrix plus the headline tier, at two pool widths. Every
/// cell must account for every request, have zero oracle violations,
/// and recover or eject every crashed machine; at full scale the
/// headline tier must be 1000+ machines / 100k+ cores. Writes the
/// per-cell verdicts to `report_out`.
fn fleet_gate(threads: usize, scale: Scale, snap: Snapshot, report_out: &str) -> bool {
    let rev = git_rev();
    let cells = fleet_cells(scale);
    let threads_a = tlbdown_sweep::resolve_threads(threads);
    let threads_b = if threads_a == 1 { 2 } else { 1 };
    let teeth: Teeth = Box::new(move |doc, v| {
        let mut cell_reports = Vec::new();
        for j in doc.get("jobs").and_then(Json::as_arr).unwrap_or_default() {
            let (Some(id), Some(sim)) = (j.get("id").and_then(Json::as_str), j.get("sim")) else {
                continue;
            };
            let num = |obj: &Json, key: &str| obj.get(key).and_then(Json::as_u64).unwrap_or(0);
            let verdict = |key: &str| {
                sim.get("verdicts").and_then(|vs| vs.get(key)) == Some(&Json::Bool(true))
            };
            let names = [
                "fully_accounted",
                "zero_violations",
                "crashed_recovered_or_ejected",
            ];
            for name in names {
                if !verdict(name) {
                    v.fail_job(id, format_args!("{name} is false"));
                }
            }
            let (machines, cores) = (num(sim, "machines"), num(sim, "total_cores"));
            if id.ends_with("/headline")
                && scale == Scale::Full
                && (machines < 1000 || cores < 100_000)
            {
                v.fail_job(
                    id,
                    format_args!(
                        "headline tier is {machines} machines / {cores} cores (want 1000+ / 100k+)"
                    ),
                );
            }
            let empty = Json::obj();
            let lb = sim.get("lb").unwrap_or(&empty);
            let served = num(lb, "served_first") + num(lb, "served_retried");
            let failed: u64 = match lb.get("failed") {
                Some(Json::Obj(pairs)) => pairs.iter().filter_map(|(_, n)| n.as_u64()).sum(),
                _ => 0,
            };
            let rps = lb
                .get("requests_per_sec")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let ok = v.job_ok(id);
            v.note(format_args!(
                "  {id}: {machines} machines / {cores} cores, {rps:.3e} req/s, {served} served / \
                 {} offered, {} ejections, {} rejoins — {} in {:.2?}",
                num(lb, "offered"),
                num(lb, "ejections"),
                num(lb, "rejoins"),
                if ok { "ok" } else { "FAILED" },
                Duration::from_nanos(num(j, "wall_ns"))
            ));
            let mut report = Json::obj()
                .with("id", Json::Str(id.into()))
                .with("machines", Json::U64(machines))
                .with("total_cores", Json::U64(cores))
                .with("requests_per_sec", Json::F64(rps))
                .with("offered", Json::U64(num(lb, "offered")))
                .with("served", Json::U64(served))
                .with("failed", Json::U64(failed))
                .with(
                    "crashed_machines",
                    Json::U64(
                        sim.get("verdicts")
                            .map_or(0, |vs| num(vs, "crashed_machines")),
                    ),
                )
                .with("ejections", Json::U64(num(lb, "ejections")))
                .with("rejoins", Json::U64(num(lb, "rejoins")));
            for name in names {
                report = report.with(name, Json::Bool(verdict(name)));
            }
            cell_reports.push(report.with("pass", Json::Bool(ok)));
        }
        if v.pass() {
            v.note(format_args!(
                "fleet survival OK — {} cells: total accounting, zero violations, crash \
                 recovery/ejection, byte-identical replay",
                cell_reports.len()
            ));
        }
        let report = Json::obj()
            .with("schema_version", Json::U64(1))
            .with("git_rev", Json::Str(git_rev()))
            .with("scale", Json::Str(scale.label().into()))
            .with("pass", Json::Bool(v.pass()))
            .with("cells", Json::Arr(cell_reports));
        write_report(report_out, &report, v);
    });
    // One snapshot file holds both scales — job IDs are scale-prefixed —
    // so the CI quick run diffs against the committed quick cells and
    // carries the full tier over unchanged.
    let owns = format!("fleet/{}/", scale.label());
    BenchGate {
        teeth,
        ..snap.gate("fleet", vec![threads_a, threads_b], owns, move |t| {
            run_fleet_cells(&cells, t, &rev)
        })
    }
    .run()
}

/// The full sweep: every figure/table job plus the seven explore jobs,
/// reduced in canonical job-ID order. The reduction is byte-identical
/// for any `--threads` value.
fn sweep(threads: usize, scale: Scale, out: Option<String>) -> bool {
    let mut jobs: Vec<Job<String>> = full_matrix(scale)
        .into_iter()
        .map(|j| {
            let id = j.id.clone();
            Job::new(id, move || {
                let o = j.run();
                format!("{}sim {}\n", o.rendered, o.metrics.render())
            })
        })
        .collect();
    jobs.extend(explore_level_jobs().into_iter().map(|j| {
        let id = j.id.clone();
        Job::new(id, move || {
            let (rep, mesh) = (j.run)();
            format!(
                "{} opt level {}: {} schedules, {} branch points, {} distinct states, \
                 {} digest-pruned — {}\n",
                if mesh { "mesh" } else { "flat" },
                rep.level,
                rep.schedules,
                rep.branch_points,
                rep.distinct_states,
                rep.pruned_digest,
                if rep.safe { "safe" } else { "VIOLATION" }
            )
        })
    }));
    let n = jobs.len();
    println!("xtask: full sweep — {n} jobs at {} scale", scale.label());
    let report = run_jobs(jobs, threads);
    let reduced = reduce_rendered(&report, |s| s.as_str());
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &reduced) {
                eprintln!("xtask: could not write {path}: {e}");
                return false;
            }
            println!("xtask: wrote {path} ({} bytes)", reduced.len());
        }
        None => print!("{reduced}"),
    }
    println!(
        "xtask: {n} jobs on {} threads in {:.2?} (serial estimate {:.2?}, speedup {:.2}x)",
        report.threads,
        report.elapsed,
        report.serial_estimate(),
        report.speedup_vs_serial()
    );
    true
}

/// One traced run of the calibrated trace-gate workload. Paper levels
/// trace `dueling_madvise` exactly as before; the elision levels trace
/// the shrunk-window variant so debt flushes keep the spans non-empty.
fn traced_dueling(level: usize) -> Trace {
    let mut m = tlbdown_check::scenario::dueling_madvise_at(level as u8);
    m.start_tracing(1 << 14);
    m.run();
    m.take_trace()
}

/// The tracing gate. Five checks, all of which run even if an early one
/// fails: exact per-phase attribution at every optimization level,
/// byte-identical exports across two replays, thread-count invariance
/// through the sweep pool, Chrome trace_event schema validity with a
/// strict-parser round-trip, and the no-trace build of the kernel.
/// Writes a sample export (Perfetto-loadable) to `out`.
fn trace_gate(out: &str) -> bool {
    let mut ok = true;

    // 1. Exact attribution at every cumulative optimization level.
    let mut columns = Vec::new();
    for (level, _, _) in OptConfig::all_levels() {
        let level = level as usize;
        let trace = traced_dueling(level);
        let a = analyze(&trace);
        let inexact = a
            .spans
            .iter()
            .filter(|s| s.phase_sum() != s.end_to_end())
            .count();
        if inexact > 0 || a.incomplete > 0 || trace.dropped_total() > 0 || a.spans.is_empty() {
            eprintln!(
                "xtask: TRACE GATE FAILED — level {level}: {inexact} inexact span(s), \
                 {} incomplete, {} dropped, {} spans",
                a.incomplete,
                trace.dropped_total(),
                a.spans.len()
            );
            ok = false;
        }
        columns.push((format!("L{level}"), PhaseTotals::of(&a, true)));
    }
    if ok {
        println!(
            "xtask: attribution exact for every shootdown at all {} opt levels \
             (phase sums == end-to-end)",
            OptConfig::NUM_LEVELS
        );
    }
    println!("xtask: critical path, dueling_madvise, mean cycles per remote shootdown:");
    print!("{}", render_attribution_table(&columns));
    if let (Some(first), Some(last)) = (columns.first(), columns.last()) {
        print!("{}", render_phase_diff(first, last));
    }

    // 2. Replay determinism: two captures, byte-identical export.
    let sample = to_chrome_json(&traced_dueling(6));
    let rendered = sample.render();
    if rendered != to_chrome_json(&traced_dueling(6)).render() {
        eprintln!("xtask: TRACE GATE FAILED — two replays exported different bytes");
        ok = false;
    } else {
        println!(
            "xtask: replay OK — {} byte export identical across two runs",
            rendered.len()
        );
    }

    // 3. Thread invariance: the same seven jobs through the sweep pool.
    let trace_jobs = || -> Vec<Job<String>> {
        OptConfig::all_levels()
            .map(|(level, _, _)| {
                Job::new(format!("trace/L{level}"), move || {
                    to_chrome_json(&traced_dueling(level as usize)).render()
                })
            })
            .collect()
    };
    let serial = reduce_rendered(&run_jobs(trace_jobs(), 1), |s: &String| s.as_str());
    let pooled = reduce_rendered(&run_jobs(trace_jobs(), 4), |s: &String| s.as_str());
    if serial != pooled {
        eprintln!("xtask: TRACE GATE FAILED — exports differ between --threads 1 and 4");
        ok = false;
    } else {
        println!("xtask: thread invariance OK — reductions byte-identical at 1 and 4 threads");
    }

    // 4. Schema validity + strict-parser round-trip.
    match Json::parse(&rendered) {
        Ok(parsed) if parsed.render() != rendered => {
            eprintln!("xtask: TRACE GATE FAILED — export does not round-trip byte-exactly");
            ok = false;
        }
        Ok(parsed) => match validate_chrome(&parsed) {
            Ok(n) => println!("xtask: schema OK — {n} Chrome trace_event records validated"),
            Err(e) => {
                eprintln!("xtask: TRACE GATE FAILED — invalid Chrome trace: {e}");
                ok = false;
            }
        },
        Err(e) => {
            eprintln!("xtask: TRACE GATE FAILED — export is not canonical JSON: {e}");
            ok = false;
        }
    }

    // 5. The compiled-out configuration must still build.
    if run_cargo(
        "no-trace build",
        &["build", "-p", "tlbdown-kernel", "--no-default-features"],
    ) {
        println!("xtask: no-trace build OK — kernel compiles with tracing compiled out");
    } else {
        ok = false;
    }

    if let Err(e) = std::fs::write(out, sample.render_pretty()) {
        eprintln!("xtask: could not write {out}: {e}");
        return false;
    }
    println!("xtask: wrote {out}");
    if ok {
        println!("xtask: trace OK");
    }
    ok
}

/// Every gate of the selected tier, in order. All of them run even if
/// an early one fails — one CI invocation reports every broken gate,
/// not just the first. Each gate is wall-clock timed; the summary table
/// prints a time column and the same rows land machine-readably in
/// `ci_report.json` (gate, verdict, seconds) for the CI artifact.
fn ci(seed: u64, which: CiGates) -> ExitCode {
    type GateFn = Box<dyn FnOnce() -> bool>;
    // (name, fast-tier?, gate). The fast tier is the PR-blocking set —
    // cheap, seconds each; the full tier is the long matrix gates CI
    // runs in a parallel job.
    let gates: Vec<(&str, bool, GateFn)> = vec![
        ("fmt", true, Box::new(fmt)),
        ("clippy", true, Box::new(clippy)),
        ("replay", true, Box::new(move || replay(seed))),
        ("engine", true, Box::new(move || engine_gate(seed))),
        (
            "explore",
            false,
            Box::new(|| explore_gate(0, "explore_report.json")),
        ),
        (
            "bench",
            false,
            Box::new(|| bench_gate(0, Snapshot::committed("BENCH_1.json"))),
        ),
        (
            "scale",
            false,
            Box::new(|| scale_bench_gate(Snapshot::committed("BENCH_2.json"))),
        ),
        (
            "topo",
            false,
            Box::new(|| topo_bench_gate(Scale::Full, Snapshot::committed("BENCH_6.json"))),
        ),
        (
            "optbench",
            false,
            Box::new(|| opt_bench_gate(Scale::Quick, Snapshot::committed("BENCH_7.json"))),
        ),
        (
            "storm",
            false,
            Box::new(|| {
                storm_gate(
                    0,
                    Scale::Quick,
                    false,
                    Snapshot::committed("BENCH_3.json"),
                    "storm_report.json",
                )
            }),
        ),
        (
            "fleet",
            false,
            Box::new(|| {
                fleet_gate(
                    0,
                    Scale::Quick,
                    Snapshot::committed("BENCH_4.json"),
                    "fleet_report.json",
                )
            }),
        ),
        ("trace", false, Box::new(|| trace_gate("sample.trace.json"))),
    ];
    let mut rows: Vec<(&str, bool, Duration)> = Vec::new();
    for (name, fast, gate) in gates {
        let selected = match which {
            CiGates::All => true,
            CiGates::Fast => fast,
            CiGates::Full => !fast,
        };
        if !selected {
            continue;
        }
        let start = Instant::now();
        let ok = gate();
        rows.push((name, ok, start.elapsed()));
    }
    println!("xtask: ── gate summary ──");
    let mut all_ok = true;
    for (name, ok, wall) in &rows {
        println!(
            "xtask:   {name:<8} {:<4} {:>9.2?}",
            if *ok { "PASS" } else { "FAIL" },
            wall
        );
        all_ok &= ok;
    }
    let report = Json::obj()
        .with("schema_version", Json::U64(1))
        .with("git_rev", Json::Str(git_rev()))
        .with(
            "gates",
            Json::Str(
                match which {
                    CiGates::Fast => "fast",
                    CiGates::Full => "full",
                    CiGates::All => "all",
                }
                .into(),
            ),
        )
        .with("pass", Json::Bool(all_ok))
        .with(
            "results",
            Json::Arr(
                rows.iter()
                    .map(|(name, ok, wall)| {
                        Json::obj()
                            .with("gate", Json::Str((*name).into()))
                            .with(
                                "verdict",
                                Json::Str(if *ok { "pass" } else { "fail" }.into()),
                            )
                            .with("seconds", Json::F64(wall.as_secs_f64()))
                    })
                    .collect(),
            ),
        );
    if let Err(e) = std::fs::write("ci_report.json", report.render_pretty()) {
        eprintln!("xtask: could not write ci_report.json: {e}");
        all_ok = false;
    } else {
        println!("xtask: wrote ci_report.json");
    }
    if all_ok {
        println!("xtask: ci OK — all {} gates passed", rows.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask: ci FAILED — see the gate summary above");
        ExitCode::FAILURE
    }
}
