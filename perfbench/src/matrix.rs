//! The `paper_matrix` workload: `tlbdown_bench::bench_matrix()` through
//! `tlbdown_sweep::run_jobs`, as a user reproducing the paper runs it,
//! checked byte-exactly against the committed `BENCH_1.json` sim blocks.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

use tlbdown_bench::{bench_jobs, bench_matrix, diff_sim_metrics, render_bench_json};
use tlbdown_sweep::{run_jobs, Json};

use crate::span::Spans;

/// The committed snapshot whose `sim` blocks are the expected output.
const EXPECTED: &str = include_str!("../../BENCH_1.json");

/// The paper's Table 3 (EuroSys 2020, §5.1): percent reduction in
/// initiator and responder cycles with the four general techniques, for
/// 1 and 10 PTEs in safe and unsafe mode, keyed by the sim-block field
/// the `table3/quick` job reports.
pub const PAPER_TABLE3: [(&str, f64); 8] = [
    ("reduction_initiator_safe_1pte", 39.0),
    ("reduction_responder_safe_1pte", 13.0),
    ("reduction_initiator_safe_10pte", 58.0),
    ("reduction_responder_safe_10pte", 22.0),
    ("reduction_initiator_unsafe_1pte", 39.0),
    ("reduction_responder_unsafe_1pte", 18.0),
    ("reduction_initiator_unsafe_10pte", 54.0),
    ("reduction_responder_unsafe_10pte", 14.0),
];

/// Set-up repetitions per pass.
const SETUP_REPS: usize = 256;

/// The job that carries the Table 3 reductions.
pub const TABLE3_JOB: &str = "table3/quick";

/// One pass over (a subset of) the matrix.
#[derive(Debug)]
pub struct Pass {
    /// Host seconds of each build of the job list (the pass's set-up,
    /// repeated because it is short).
    pub setup_s: Vec<f64>,
    /// Host seconds inside `run_jobs`.
    pub wall_s: f64,
    /// Jobs run.
    pub jobs: usize,
    /// Failed job id → reason (a panic, or a sim block that differs from
    /// the expected one or is missing).
    pub failed: BTreeMap<String, String>,
    /// Mean absolute error against [`PAPER_TABLE3`], in percentage points,
    /// when the pass ran the Table 3 job.
    pub paper_err_pp: Option<f64>,
    /// Worker threads used.
    pub threads: usize,
    /// Sum of per-job host seconds.
    pub serial_s: f64,
    /// Slowest job's host seconds.
    pub max_job_s: f64,
    /// The pass's `BENCH_1.json`-shaped document.
    pub doc: Json,
}

/// The expected document (the committed `BENCH_1.json`), parsed once
/// per process.
pub fn expected_doc() -> Result<&'static Json, &'static str> {
    static DOC: OnceLock<Result<Json, String>> = OnceLock::new();
    DOC.get_or_init(|| Json::parse(EXPECTED))
        .as_ref()
        .map_err(String::as_str)
}

/// Run the `bench_matrix()` jobs whose id passes `keep` on `threads`
/// pool workers and check every sim block.
pub fn run_pass(keep: impl Fn(&str) -> bool, threads: usize, spans: &mut Spans) -> Pass {
    let expected = spans.span("sweep", "expected_doc", |_| expected_doc());
    // Set-up is short, so it is repeated; the last repetition's jobs are
    // the ones that run.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        jobs = spans.span("bench", "bench_matrix", |_| {
            bench_jobs(bench_matrix().into_iter().filter(|j| keep(&j.id)).collect())
        });
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let n = jobs.len();
    let t1 = Instant::now();
    let report = spans.span("sweep", "run_jobs", |_| run_jobs(jobs, threads));
    let wall_s = t1.elapsed().as_secs_f64();

    let doc = render_bench_json(&report, "perfbench");
    let mut failed = BTreeMap::new();
    for f in &report.failures {
        failed.insert(f.id.clone(), format!("panic: {}", f.message));
    }
    match expected {
        Ok(exp) => {
            for (id, why) in check(&doc, exp, &keep) {
                failed.entry(id).or_insert(why);
            }
        }
        Err(e) => {
            for r in &report.results {
                failed.insert(r.id.clone(), format!("BENCH_1.json unreadable: {e}"));
            }
        }
    }
    Pass {
        setup_s,
        wall_s,
        jobs: n,
        failed,
        paper_err_pp: table3_block(&doc).map(|b| paper_err_pp(&b)),
        threads: report.threads,
        serial_s: report.serial_estimate().as_secs_f64(),
        max_job_s: report
            .results
            .iter()
            .map(|r| r.wall.as_secs_f64())
            .fold(0.0, f64::max),
        doc,
    }
}

/// Job id → reason for every sim block of `doc` that differs from
/// `expected`, has no expected block, or is expected (its id passes
/// `keep`) but missing.
pub fn check(doc: &Json, expected: &Json, keep: impl Fn(&str) -> bool) -> BTreeMap<String, String> {
    let diff = diff_sim_metrics(doc, expected);
    let changed = diff
        .changed
        .into_iter()
        .map(|id| (id, "sim block differs from BENCH_1.json"));
    let added = diff
        .added
        .into_iter()
        .map(|id| (id, "no expected sim block"));
    let removed = diff
        .removed
        .into_iter()
        .filter(|id| keep(id))
        .map(|id| (id, "sim block missing"));
    changed
        .chain(added)
        .chain(removed)
        .map(|(id, why)| (id, why.to_string()))
        .collect()
}

/// Sum of each kernel counter over every job's sim block.
pub fn counter_totals(doc: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let jobs = doc.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
    for job in jobs {
        let counters = job.get("sim").and_then(|s| s.get("counters"));
        if let Some(Json::Obj(fields)) = counters {
            for (k, v) in fields {
                *out.entry(k.clone()).or_insert(0.0) += v.as_f64().unwrap_or(0.0);
            }
        }
    }
    out
}

fn table3_block(doc: &Json) -> Option<Json> {
    doc.get("jobs")?
        .as_arr()?
        .iter()
        .find(|j| j.get("id").and_then(Json::as_str) == Some(TABLE3_JOB))?
        .get("sim")
        .cloned()
}

/// Mean absolute difference, in percentage points, between a Table 3 sim
/// block and the paper's eight values. A missing field counts as 0%.
pub fn paper_err_pp(block: &Json) -> f64 {
    let sum: f64 = PAPER_TABLE3
        .iter()
        .map(|(k, paper)| (block.get(k).and_then(Json::as_f64).unwrap_or(0.0) - paper).abs())
        .sum();
    sum / PAPER_TABLE3.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_table3_is_7_36_pp_from_the_paper() {
        let doc = Json::parse(EXPECTED).expect("BENCH_1.json parses");
        let err = paper_err_pp(&table3_block(&doc).expect("table3 block"));
        assert!((err - 7.366).abs() < 0.01, "{err}");
    }
}
