//! `BENCH_*.json`: building, reading back, diffing and gating perf
//! snapshots.
//!
//! `cargo xtask bench` runs [`crate::matrix::bench_matrix`] through the
//! sweep pool and serializes the result here. The snapshot has two kinds
//! of content, handled differently by the regression gate:
//!
//! - **`sim` blocks** — deterministic simulation metrics (cycles,
//!   latency means, the full machine counter set). Identical across
//!   hosts, thread counts and reruns, so the gate compares them
//!   *byte-exactly* against the previous snapshot: any diff is a real
//!   behavioural change.
//! - **`wall_ns` / `totals`** — host wall-clock and speedup. Noisy and
//!   hardware-dependent, so the gate only bounds the total against the
//!   baseline at a generous tolerance.
//!
//! Every `BENCH_*.json` gate goes through one runner, [`BenchGate`]: run
//! the matrix at each requested pool width, fail on any panicked job,
//! require the sim blocks to match across widths and every in-cell seed
//! replay to agree, apply the gate's own checks, diff against the
//! committed baseline (carrying over jobs of other scales), and write
//! the snapshot.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::time::Duration;

use tlbdown_sweep::{run_jobs, Job, JobError, Json, SweepReport};

use crate::matrix::{JobOutput, MatrixJob};

/// Version of the `BENCH_*.json` schema.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Wrap matrix jobs for the sweep pool, carrying each job's config JSON
/// alongside its output so the snapshot is self-describing.
pub fn bench_jobs(jobs: Vec<MatrixJob>) -> Vec<Job<(Json, JobOutput)>> {
    jobs.into_iter()
        .map(|j| {
            let id = j.id.clone();
            Job::new(id, move || (j.config_json(), j.run()))
        })
        .collect()
}

/// Build the `BENCH_*.json` document from a finished sweep.
///
/// Everything except `git_rev`, the `wall_ns` fields and `totals` is
/// deterministic simulation state.
pub fn render_bench_json(report: &SweepReport<(Json, JobOutput)>, git_rev: &str) -> Json {
    let mut jobs = Vec::new();
    let mut counters_total: BTreeMap<String, u64> = BTreeMap::new();
    for r in &report.results {
        let (config, out) = &r.output;
        let sim = out.metrics.to_json();
        if let Some(Json::Obj(pairs)) = sim.get("counters") {
            for (k, v) in pairs {
                if let Json::U64(n) = v {
                    *counters_total.entry(k.clone()).or_insert(0) += n;
                }
            }
        }
        let mut job = Json::obj()
            .with("id", Json::Str(r.id.clone()))
            .with("config", config.clone())
            .with("sim", sim)
            .with("wall_ns", Json::U64(r.wall.as_nanos() as u64));
        // Host-side measurements ride along next to `wall_ns`; like it,
        // they are outside the byte-exact `sim` diff.
        if !matches!(&out.host, Json::Obj(pairs) if pairs.is_empty()) {
            job = job.with("host", out.host.clone());
        }
        jobs.push(job);
    }
    let totals = Json::obj()
        .with("jobs", Json::U64(report.results.len() as u64))
        .with(
            "counters",
            Json::Obj(
                counters_total
                    .into_iter()
                    .map(|(k, v)| (k, Json::U64(v)))
                    .collect(),
            ),
        )
        .with("wall_ns", Json::U64(report.elapsed.as_nanos() as u64))
        .with(
            "serial_ns",
            Json::U64(report.serial_estimate().as_nanos() as u64),
        )
        .with("speedup_vs_serial", Json::F64(report.speedup_vs_serial()));
    bench_doc(git_rev, report.threads, jobs, totals)
}

/// Assemble a `BENCH_*.json` document from its job entries (each
/// `{id, config, sim, wall_ns[, host]}`) and totals.
pub fn bench_doc(git_rev: &str, threads: usize, jobs: Vec<Json>, totals: Json) -> Json {
    Json::obj()
        .with("schema_version", Json::U64(BENCH_SCHEMA_VERSION))
        .with("git_rev", Json::Str(git_rev.into()))
        .with("threads", Json::U64(threads as u64))
        .with("jobs", Json::Arr(jobs))
        .with("totals", totals)
}

/// Extract the deterministic part of a snapshot: job ID → compact
/// rendering of its `sim` block. This is the unit of byte-exact
/// comparison for both the perf gate and the sweep determinism test.
pub fn sim_blocks(doc: &Json) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let Some(jobs) = doc.get("jobs").and_then(Json::as_arr) else {
        return out;
    };
    for job in jobs {
        let (Some(id), Some(sim)) = (job.get("id").and_then(Json::as_str), job.get("sim")) else {
            continue;
        };
        out.insert(id.to_string(), sim.render());
    }
    out
}

/// Total sweep wall-clock of a snapshot, if present.
pub fn total_wall_ns(doc: &Json) -> Option<u64> {
    doc.get("totals")?.get("wall_ns")?.as_u64()
}

/// Outcome of diffing two snapshots' deterministic metric blocks.
#[derive(Clone, Debug, Default)]
pub struct SimDiff {
    /// Job IDs present now but not in the baseline (matrix grew).
    pub added: Vec<String>,
    /// Job IDs present in the baseline but gone now (matrix shrank).
    pub removed: Vec<String>,
    /// Job IDs whose `sim` block bytes changed — a behavioural
    /// regression (or an intentional protocol change needing a new
    /// baseline).
    pub changed: Vec<String>,
    /// One line per changed job naming the keys that moved, dotted for
    /// nested blocks: `scale/full/2x56-heap: state_digest`.
    pub drifted: Vec<String>,
}

impl SimDiff {
    /// Whether every common job's sim metrics matched byte-exactly.
    pub fn metrics_match(&self) -> bool {
        self.changed.is_empty()
    }

    /// Whether the job sets were identical too.
    pub fn identical_matrix(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Job ID → its `sim` block.
fn sim_values(doc: &Json) -> BTreeMap<&str, &Json> {
    let jobs = doc.get("jobs").and_then(Json::as_arr).unwrap_or_default();
    jobs.iter()
        .filter_map(|job| Some((job.get("id")?.as_str()?, job.get("sim")?)))
        .collect()
}

/// Push the dotted path of every leaf that differs between `cur` and
/// `base` (a key present on one side only counts as differing). An
/// object whose keys merely moved is reported as a whole.
fn drifted_keys(path: &str, cur: &Json, base: &Json, out: &mut Vec<String>) {
    let before = out.len();
    if let (Json::Obj(a), Json::Obj(b)) = (cur, base) {
        let only_base = b.iter().filter(|(k, _)| cur.get(k).is_none());
        for (k, _) in a.iter().chain(only_base) {
            let p = if path.is_empty() {
                k.clone()
            } else {
                format!("{path}.{k}")
            };
            match (cur.get(k), base.get(k)) {
                (Some(x), Some(y)) => drifted_keys(&p, x, y, out),
                _ => out.push(p),
            }
        }
    }
    if out.len() == before && cur.render() != base.render() {
        out.push(path.to_string());
    }
}

/// Compare two snapshots' `sim` blocks byte-exactly (job set changes are
/// reported separately from metric changes).
pub fn diff_sim_metrics(current: &Json, baseline: &Json) -> SimDiff {
    let cur = sim_values(current);
    let base = sim_values(baseline);
    let mut diff = SimDiff::default();
    for (&id, sim) in &cur {
        match base.get(id) {
            None => diff.added.push(id.to_string()),
            Some(b) => {
                let mut keys = Vec::new();
                drifted_keys("", sim, b, &mut keys);
                if !keys.is_empty() {
                    diff.changed.push(id.to_string());
                    diff.drifted.push(format!("{id}: {}", keys.join(", ")));
                }
            }
        }
    }
    for &id in base.keys() {
        if !cur.contains_key(id) {
            diff.removed.push(id.to_string());
        }
    }
    diff
}

/// The job entry with ID `id`, if present.
pub fn job<'a>(doc: &'a Json, id: &str) -> Option<&'a Json> {
    doc.get("jobs")?
        .as_arr()?
        .iter()
        .find(|j| j.get("id").and_then(Json::as_str) == Some(id))
}

/// A `u64` field of one job's deterministic sim block, if present.
pub fn sim_u64(doc: &Json, id: &str, key: &str) -> Option<u64> {
    job(doc, id)?.get("sim")?.get(key)?.as_u64()
}

/// The in-cell seed replays a sim block records: every top-level key
/// named `replay_ok` or ending in `_replay_ok`, with whether it reads 1.
fn replays(sim: &Json) -> Vec<(&str, bool)> {
    let Json::Obj(pairs) = sim else {
        return Vec::new();
    };
    pairs
        .iter()
        .filter(|(k, _)| k == "replay_ok" || k.ends_with("_replay_ok"))
        .map(|(k, v)| (k.as_str(), v.as_u64() == Some(1)))
        .collect()
}

/// One run of a gate's matrix at one pool width: the snapshot document,
/// the jobs that failed instead of producing a block, and the cells'
/// rendered text.
#[derive(Debug)]
pub struct GateRun {
    /// The `BENCH_*.json` document of this run.
    pub doc: Json,
    /// Jobs that panicked or returned an error; they have no entry in
    /// `doc`.
    pub failures: Vec<JobError>,
    /// The cells' human-readable fragments, in job-ID order.
    pub rendered: String,
}

impl GateRun {
    /// Reduce a finished sweep of bench jobs.
    pub fn from_sweep(sweep: &SweepReport<(Json, JobOutput)>, git_rev: &str) -> Self {
        GateRun {
            doc: render_bench_json(sweep, git_rev),
            failures: sweep.failures.clone(),
            rendered: sweep
                .results
                .iter()
                .map(|r| r.output.1.rendered.as_str())
                .collect(),
        }
    }

    /// Run matrix jobs through the sweep pool at `threads` workers.
    pub fn matrix(jobs: Vec<MatrixJob>, threads: usize, git_rev: &str) -> Self {
        let sweep = run_jobs(bench_jobs(jobs), threads);
        println!(
            "sweep: {} jobs on {} threads in {:.2?} (serial estimate {:.2?}, speedup {:.2}x)",
            sweep.results.len() + sweep.failures.len(),
            sweep.threads,
            sweep.elapsed,
            sweep.serial_estimate(),
            sweep.speedup_vs_serial()
        );
        Self::from_sweep(&sweep, git_rev)
    }
}

/// Pass/fail bookkeeping for one gate. Every failed check prints one
/// line naming what broke; a check that belongs to one job also flags
/// that job, so per-cell reports can mark it.
#[derive(Debug)]
pub struct Verdict {
    gate: &'static str,
    failures: usize,
    flagged: BTreeSet<String>,
}

impl Verdict {
    /// A clean verdict for the gate called `gate`.
    pub fn new(gate: &'static str) -> Self {
        Verdict {
            gate,
            failures: 0,
            flagged: BTreeSet::new(),
        }
    }

    /// Print an informational line.
    pub fn note(&self, msg: impl Display) {
        println!("{}: {msg}", self.gate);
    }

    /// Record one check: `msg` prints as a pass line or a failure line.
    pub fn check(&mut self, ok: bool, msg: impl Display) {
        if ok {
            self.note(msg);
        } else {
            eprintln!("{}: GATE FAILED — {msg}", self.gate);
            self.failures += 1;
        }
    }

    /// Record a failed check that belongs to job `id`.
    pub fn fail_job(&mut self, id: &str, msg: impl Display) {
        self.flagged.insert(id.to_string());
        self.check(false, format_args!("{id}: {msg}"));
    }

    /// Whether no check has flagged job `id`.
    pub fn job_ok(&self, id: &str) -> bool {
        !self.flagged.contains(id)
    }

    /// Whether every check so far passed.
    pub fn pass(&self) -> bool {
        self.failures == 0
    }
}

/// A gate's own checks over the first run's document. They may add
/// summary fields to the document (it is written afterwards) and write
/// side reports.
pub type Teeth<'a> = Box<dyn FnOnce(&mut Json, &mut Verdict) + 'a>;

/// The declarative spec of one `BENCH_*.json` gate; [`BenchGate::run`]
/// is the one runner every such gate goes through.
pub struct BenchGate<'a> {
    /// Short name, prefixed to every line the gate prints.
    pub name: &'static str,
    /// Where the snapshot is written.
    pub out: String,
    /// The snapshot to diff against; `None` means `out` itself.
    pub baseline: Option<String>,
    /// Bound on total wall-clock as a multiple of the baseline's.
    pub tolerance: f64,
    /// Pool widths to run the matrix at. The first run is the one
    /// checked and written; each further run must reproduce its sim
    /// blocks byte for byte.
    pub threads: Vec<usize>,
    /// ID prefix of the baseline jobs this run must reproduce (empty:
    /// all of them). Baseline jobs outside it — another scale of the
    /// same matrix — are carried into the written snapshot unchanged.
    pub owns: String,
    /// Whether to print every cell's rendered text.
    pub print_cells: bool,
    /// Run the matrix at one pool width.
    pub run: Box<dyn Fn(usize) -> GateRun + 'a>,
    /// The gate's own checks.
    pub teeth: Teeth<'a>,
}

impl BenchGate<'_> {
    /// Run the gate. Returns whether every check passed; the snapshot
    /// is written either way.
    pub fn run(self) -> bool {
        let mut v = Verdict::new(self.name);
        let mut runs: Vec<(usize, GateRun)> =
            self.threads.iter().map(|&t| (t, (self.run)(t))).collect();
        for (_, r) in &runs {
            for f in &r.failures {
                v.fail_job(&f.id, format_args!("job failed: {}", f.message));
            }
        }
        let (threads0, first) = runs.remove(0);
        let blocks = sim_blocks(&first.doc);
        for (t, r) in &runs {
            let other = sim_blocks(&r.doc);
            for (id, sim) in &blocks {
                if other.get(id).is_some_and(|o| o != sim) {
                    v.fail_job(
                        id,
                        format_args!("sim block differs between {threads0} and {t} pool threads"),
                    );
                }
            }
            if v.pass() {
                v.note(format_args!(
                    "thread invariance OK — {} sim blocks byte-identical at {threads0} and {t} \
                     pool threads",
                    blocks.len()
                ));
            }
        }
        let mut replayed = 0;
        if let Some(jobs) = first.doc.get("jobs").and_then(Json::as_arr) {
            for j in jobs {
                let id = j.get("id").and_then(Json::as_str).unwrap_or("?");
                for (key, ok) in j.get("sim").map(replays).unwrap_or_default() {
                    replayed += 1;
                    if !ok {
                        v.fail_job(id, format_args!("seed replay diverged ({key} != 1)"));
                    }
                }
            }
        }
        if replayed > 0 && v.pass() {
            v.note(format_args!(
                "seed replay OK — {replayed} in-cell replays byte-identical"
            ));
        }
        if self.print_cells {
            for line in first.rendered.lines() {
                v.note(format_args!("  {line}"));
            }
        }
        let mut doc = first.doc;
        (self.teeth)(&mut doc, &mut v);

        let baseline = self.baseline.unwrap_or_else(|| self.out.clone());
        let carried = match std::fs::read_to_string(&baseline) {
            Err(_) => {
                v.note(format_args!(
                    "no baseline at {baseline} — recording first snapshot"
                ));
                Vec::new()
            }
            Ok(text) => match Json::parse(&text) {
                Ok(base) => gate_against_baseline(
                    &doc,
                    &base,
                    &baseline,
                    &self.owns,
                    self.tolerance,
                    &mut v,
                ),
                Err(e) => {
                    v.check(
                        false,
                        format_args!("baseline {baseline} is not valid JSON ({e})"),
                    );
                    Vec::new()
                }
            },
        };
        if !carried.is_empty() {
            let mut all: Vec<Json> = doc
                .get("jobs")
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .unwrap_or_default();
            all.extend(carried);
            all.sort_by_key(|j| j.get("id").and_then(Json::as_str).map(str::to_string));
            doc = doc.set("jobs", Json::Arr(all));
        }
        match std::fs::write(&self.out, doc.render_pretty()) {
            Ok(()) => v.note(format_args!("wrote {}", self.out)),
            Err(e) => v.check(false, format_args!("could not write {}: {e}", self.out)),
        }
        if v.pass() {
            v.note("OK");
        }
        v.pass()
    }
}

/// Diff `doc` against the baseline jobs under `owns`: every one must be
/// reproduced with a byte-identical sim block. The wall-clock bound
/// applies only when the baseline holds nothing else (other scales'
/// totals are not comparable). Returns the baseline jobs outside
/// `owns`, to be carried over.
fn gate_against_baseline(
    doc: &Json,
    base: &Json,
    path: &str,
    owns: &str,
    tolerance: f64,
    v: &mut Verdict,
) -> Vec<Json> {
    let (owned, carried): (Vec<Json>, Vec<Json>) = base
        .get("jobs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .cloned()
        .partition(|j| {
            j.get("id")
                .and_then(Json::as_str)
                .is_some_and(|id| id.starts_with(owns))
        });
    let diff = diff_sim_metrics(doc, &Json::obj().with("jobs", Json::Arr(owned)));
    for id in &diff.added {
        v.note(format_args!("new job (no baseline metrics): {id}"));
    }
    for id in &diff.removed {
        v.fail_job(
            id,
            format_args!("baseline job missing from this run ({path})"),
        );
    }
    for (id, keys) in diff.changed.iter().zip(&diff.drifted) {
        v.fail_job(
            id,
            format_args!("deterministic sim metrics drifted vs {path} ({keys})"),
        );
    }
    if diff.metrics_match() {
        let n = sim_blocks(doc).len() - diff.added.len();
        v.note(format_args!(
            "sim metrics byte-identical to {path} across {n} common job(s)"
        ));
    } else {
        v.note(format_args!(
            "a sim-metric diff is a behavioural change; if intentional, delete {path} to \
             re-baseline"
        ));
    }
    if !carried.is_empty() {
        v.note(format_args!(
            "carried {} baseline job(s) of other scales; skipping the time bound",
            carried.len()
        ));
        return carried;
    }
    match (total_wall_ns(doc), total_wall_ns(base)) {
        (Some(cur), Some(prev)) if prev > 0 => {
            let ratio = cur as f64 / prev as f64;
            v.check(
                ratio <= tolerance,
                format_args!(
                    "wall-clock {:.2?} vs baseline {:.2?} ({ratio:.2}x, tolerance {tolerance:.1}x)",
                    Duration::from_nanos(cur),
                    Duration::from_nanos(prev)
                ),
            );
        }
        _ => v.note("baseline has no wall-clock totals; skipping the time bound"),
    }
    carried
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Scale;
    use crate::matrix::JobSpec;
    use tlbdown_sweep::run_jobs;

    fn tiny_snapshot() -> Json {
        let jobs = bench_jobs(vec![
            MatrixJob {
                id: "t4/r0".into(),
                scale: Scale::Quick,
                spec: JobSpec::Table4Row { row: 0 },
            },
            MatrixJob {
                id: "t4/r1".into(),
                scale: Scale::Quick,
                spec: JobSpec::Table4Row { row: 1 },
            },
        ]);
        render_bench_json(&run_jobs(jobs, 2), "deadbeef")
    }

    #[test]
    fn snapshot_round_trips_and_diffs_clean_against_itself() {
        let a = tiny_snapshot();
        let parsed = Json::parse(&a.render_pretty()).expect("snapshot parses");
        assert_eq!(parsed.get("schema_version"), Some(&Json::U64(1)));
        let diff = diff_sim_metrics(&a, &parsed);
        assert!(diff.metrics_match() && diff.identical_matrix());
        assert_eq!(sim_blocks(&a).len(), 2);
        assert!(total_wall_ns(&a).is_some());
    }

    #[test]
    fn diff_flags_changed_and_added_jobs() {
        let a = tiny_snapshot();
        // Baseline with one job missing and the other's metrics altered.
        let mut base_jobs: Vec<Json> = a.get("jobs").unwrap().as_arr().unwrap().to_vec();
        base_jobs.pop();
        if let Json::Obj(pairs) = &mut base_jobs[0] {
            for (k, v) in pairs.iter_mut() {
                if k == "sim" {
                    *v = Json::obj().with("bogus", Json::U64(1));
                }
            }
        }
        let baseline = Json::obj().with("jobs", Json::Arr(base_jobs));
        let diff = diff_sim_metrics(&a, &baseline);
        assert_eq!(diff.changed, vec!["t4/r0".to_string()]);
        assert_eq!(diff.added, vec!["t4/r1".to_string()]);
        assert!(diff.removed.is_empty());
        assert!(!diff.metrics_match());
    }

    #[test]
    fn diff_names_the_drifted_keys_of_each_job() {
        let doc = |sim: &str| {
            let text = format!(
                r#"{{"jobs": [{{"id": "scale/full/2x56-heap", "sim": {sim}}},
                              {{"id": "same", "sim": {{"x": 1}}}}]}}"#
            );
            Json::parse(&text).expect("test doc parses")
        };
        let base = doc(r#"{"digest": 1, "counters": {"a": 1, "b": 2}, "ok": 1}"#);
        assert!(diff_sim_metrics(&base, &base).drifted.is_empty());
        let cur = doc(r#"{"digest": 2, "counters": {"a": 1, "b": 2}, "ok": 1}"#);
        let diff = diff_sim_metrics(&cur, &base);
        assert_eq!(diff.changed, vec!["scale/full/2x56-heap".to_string()]);
        assert_eq!(diff.drifted, vec!["scale/full/2x56-heap: digest"]);
        let cur = doc(r#"{"digest": 2, "counters": {"a": 1, "b": 3}}"#);
        assert_eq!(
            diff_sim_metrics(&cur, &base).drifted,
            vec!["scale/full/2x56-heap: digest, counters.b, ok"]
        );
    }

    fn t4_jobs() -> Vec<Job<(Json, JobOutput)>> {
        bench_jobs(
            (0..2)
                .map(|row| MatrixJob {
                    id: format!("t4/r{row}"),
                    scale: Scale::Quick,
                    spec: JobSpec::Table4Row { row },
                })
                .collect(),
        )
    }

    /// A gate over the two-row table-4 matrix, plus one job that panics
    /// when `boom` is set.
    fn tiny_gate(
        out: &str,
        baseline: Option<String>,
        owns: &str,
        boom: bool,
    ) -> BenchGate<'static> {
        BenchGate {
            name: "test",
            out: out.into(),
            baseline,
            tolerance: 1e9,
            threads: vec![1, 2],
            owns: owns.into(),
            print_cells: false,
            run: Box::new(move |threads| {
                let mut jobs = t4_jobs();
                if boom {
                    jobs.push(Job::new("t4/boom", || panic!("deliberate failure")));
                }
                GateRun::from_sweep(&run_jobs(jobs, threads), "test")
            }),
            teeth: Box::new(|_, _| {}),
        }
    }

    fn temp_path(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("tlbdown-gate-{}-{name}.json", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn panicking_job_fails_the_gate() {
        let out = temp_path("panic");
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let passed = tiny_gate(&out, None, "", true).run();
        std::panic::set_hook(prev);
        assert!(!passed, "a panicked job must fail the gate");
        assert!(tiny_gate(&out, None, "", false).run(), "control passes");
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn missing_baseline_job_fails_the_gate_and_other_scales_carry_over() {
        let (first, base, out) = (temp_path("first"), temp_path("base"), temp_path("out"));
        assert!(tiny_gate(&first, None, "", false).run());
        let doc = Json::parse(&std::fs::read_to_string(&first).unwrap()).unwrap();
        let with_extra = |id: &str| {
            let mut jobs = doc.get("jobs").unwrap().as_arr().unwrap().to_vec();
            jobs.push(jobs[0].clone().set("id", Json::Str(id.into())));
            std::fs::write(&base, doc.clone().set("jobs", Json::Arr(jobs)).render()).unwrap();
        };
        // An extra job of the run's own scale was not reproduced: fail.
        with_extra("t4/extra");
        assert!(!tiny_gate(&out, Some(base.clone()), "t4/", false).run());
        // A job outside the run's prefix is another scale: carried over.
        with_extra("other/full");
        assert!(tiny_gate(&out, Some(base.clone()), "t4/", false).run());
        let written = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(sim_blocks(&written).contains_key("other/full"));
        for p in [first, base, out] {
            let _ = std::fs::remove_file(p);
        }
    }
}
