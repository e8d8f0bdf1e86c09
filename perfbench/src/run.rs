//! One benchmark invocation: run a workload for the requested time and
//! reduce its ops to end-to-end (untraced) or per-layer (traced) metrics.

use std::time::Instant;

use crate::machine::{self, Op, Sampler, Spec, COUNTER_METRICS, VARIANTS};
use crate::matrix::{self, Pass, TABLE3_JOB};
use crate::micro;
use crate::span::Spans;
use crate::stats::{median, peak_rss_mb, quantile};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["broadcast_2x56", "hotset_mesh", "paper_matrix"];

/// Fewest timed repetitions a run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Quantile of the per-repetition times reported as `wall_s` and
/// `setup_s`.
const TIME_QUANTILE: f64 = 0.9;

/// Every how many dispatches, on average, the traced run samples one.
const SAMPLE_EVERY: u64 = 128;

/// Pool threads for the matrix (`nproc` on the reference host).
const MATRIX_THREADS: usize = 2;

/// Variants whose dispatch cost is reported. The others never fire on
/// these workloads (LATR, chaos escalation and NMI injection are off), so
/// they only get a share.
const TIMED_VARIANTS: [usize; 3] = [0, 1, 3];

/// What a run reports.
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Why each failed op failed.
    pub failures: Vec<String>,
    /// The metrics.
    pub metrics: Metrics,
    /// Machine digest every op of a single-machine workload reached.
    pub digest: Option<u64>,
    /// Human-readable lines: the spread behind the reported times.
    pub notes: Vec<String>,
    /// The traced run's spans (empty when untraced).
    pub spans: Spans,
}

/// Run `workload` for about `seconds`, traced or not.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    match workload {
        "broadcast_2x56" => Ok(single(Spec::broadcast_2x56(), seed, seconds, traced)),
        "hotset_mesh" => Ok(single(Spec::hotset_mesh(), seed, seconds, traced)),
        "paper_matrix" => Ok(paper_matrix(seed, seconds, traced)),
        _ => Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Unit of a metric, from its name.
pub fn unit(name: &str) -> &'static str {
    let last = name.rsplit('.').next().unwrap_or(name);
    if name.starts_with("kernel.dispatch_ns.") || last.ends_with("_ns") || last.starts_with("ns_") {
        "ns"
    } else if last.ends_with("_ms") {
        "ms"
    } else if last.ends_with("_s") {
        "s"
    } else if last.ends_with("_mb") {
        "MB"
    } else if last.ends_with("_pp") {
        "pp"
    } else if last == "kcycles" {
        "kcycle"
    } else if last.ends_with("per_kcycle") {
        "1/kcycle"
    } else if name.starts_with("kernel.dispatch_share.")
        || last.ends_with("_ratio")
        || last.ends_with("_frac")
        || last.ends_with("per_shootdown")
    {
        "ratio"
    } else if last == "queue_len_mean" {
        "events"
    } else {
        "count"
    }
}

fn med<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    let mut v: Vec<f64> = xs.iter().map(f).collect();
    median(&mut v)
}

/// Failure reasons of `ops`, plus any op whose digest differs from the
/// one the first op recorded for this seed.
fn op_failures(ops: &[Op]) -> Vec<String> {
    let recorded = ops.first().map(|o| o.digest);
    ops.iter()
        .enumerate()
        .filter_map(|(i, o)| match &o.failure {
            Some(f) => Some(format!("op {i}: {f}")),
            None if Some(o.digest) != recorded => Some(format!(
                "op {i}: digest {:#018x} differs from {:#018x} recorded for this seed",
                o.digest,
                recorded.unwrap_or(0)
            )),
            None => None,
        })
        .collect()
}

fn pass_failures(passes: &[Pass]) -> Vec<String> {
    passes
        .iter()
        .flat_map(|p| p.failed.iter().map(|(id, why)| format!("{id}: {why}")))
        .collect()
}

/// Metric name → value, in output order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    /// Value of `name` (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| n == name).map_or(0.0, |m| m.1)
    }

    /// Set `name`, replacing an earlier value.
    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(m) => m.1 = v,
            None => self.0.push((name, v)),
        }
    }

    /// Set `name` to `num / den` (0 when `den` is 0); both bases are
    /// metrics of their own.
    fn set_ratio(&mut self, name: &str, num: &str, den: &str) {
        let (n, d) = (self.get(num), self.get(den));
        self.set(name, if d == 0.0 { 0.0 } else { n / d });
    }

    fn add_ratios(&mut self) {
        self.set_ratio("sim.events_per_kcycle", "sim.events", "sim.kcycles");
        self.set_ratio(
            "kernel.responder_skip_ratio",
            "kernel.responder_skip",
            "kernel.shootdown_irq",
        );
        self.set_ratio("tlb.hit_ratio", "tlb.hits", "tlb.lookups");
        self.set_ratio(
            "cache.transfers_per_shootdown",
            "cache.transfers",
            "cache.shootdowns",
        );
        self.set_ratio("sweep.busy_frac", "sweep.serial_s", "sweep.capacity_s");
    }
}

/// Per-layer metrics of machine ops: the counts of one untraced op, the
/// dispatch samples, the digest cost and the standalone layer probes.
fn machine_layer_metrics(
    spec: &Spec,
    seed: u64,
    untraced: &[Op],
    traced: &[Op],
    sampler: &Sampler,
) -> Metrics {
    let mut out = Metrics::default();
    for (k, v) in &untraced[0].counts {
        out.set(*k, *v);
    }
    let samples = sampler.samples().max(1) as f64;
    let depth = sampler.queue_len as f64 / samples;
    let events = out.get("sim.events").max(1.0);
    out.set(
        "sim.ns_per_event",
        med(untraced, |o| o.wall_s) * 1e9 / events,
    );
    out.set("sim.queue_len_mean", depth);
    out.set("sim.pop_ns", micro::pop_ns(depth.round() as usize, seed));
    out.set("kernel.dispatch_samples", sampler.samples() as f64);
    for (v, name) in VARIANTS.iter().enumerate() {
        out.set(
            format!("kernel.dispatch_share.{name}"),
            sampler.count[v] as f64 / samples,
        );
    }
    for v in TIMED_VARIANTS {
        out.set(
            format!("kernel.dispatch_ns.{}", VARIANTS[v]),
            sampler.mean_ns(v),
        );
    }
    out.set("kernel.digest_ms", med(traced, |o| o.digest_s) * 1e3);
    out.set("tlb.lookup_ns", micro::lookup_ns(spec, seed).unwrap_or(0.0));
    out.set("cache.write_ns", micro::write_ns(spec, seed));
    out.set("topo.route_ns", micro::route_ns(spec, seed));
    out
}

/// The sweep-pool metrics: `threads` workers ran jobs summing
/// `serial_s` host seconds, the slowest `max_job_s`, in `elapsed_s`.
fn sweep_metrics(out: &mut Metrics, threads: usize, serial_s: f64, max_job_s: f64, elapsed_s: f64) {
    out.set("sweep.serial_s", serial_s);
    out.set("sweep.capacity_s", threads as f64 * elapsed_s);
    out.set("sweep.max_job_s", max_job_s);
}

/// The tracing overhead, from the median timed phase of traced and
/// untraced repetitions.
fn trace_metrics(out: &mut Metrics, traced_s: f64, untraced_s: f64) {
    out.set("trace.overhead_frac", (traced_s - untraced_s) / untraced_s);
    out.set("trace.traced_wall_s", traced_s);
    out.set("trace.untraced_wall_s", untraced_s);
}

/// Run untraced and (when `traced`) traced repetitions alternately until
/// `seconds` have passed and each kind has at least its minimum. Also
/// returns the seconds the repetitions took.
fn repeat<T>(seconds: f64, traced: bool, mut rep: impl FnMut(bool) -> T) -> (Vec<T>, Vec<T>, f64) {
    let start = Instant::now();
    let (mut plain, mut with_trace) = (Vec::new(), Vec::new());
    let min = if traced { 1 } else { MIN_REPS };
    while plain.len() < min
        || (traced && with_trace.is_empty())
        || start.elapsed().as_secs_f64() < seconds
    {
        plain.push(rep(false));
        if traced {
            with_trace.push(rep(true));
        }
    }
    (plain, with_trace, start.elapsed().as_secs_f64())
}

fn single(spec: Spec, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut spans = Spans::new(traced);
    let mut off = Spans::new(false);
    let mut sampler = Sampler::new(SAMPLE_EVERY);
    let mut run_id = 0;
    let mut first_rss = None;
    let (plain, with_trace, elapsed) = repeat(seconds, traced, |t| {
        if !t {
            let op = machine::run_op(&spec, seed, None, &mut off);
            first_rss.get_or_insert_with(peak_rss_mb);
            return op;
        }
        run_id += 1;
        spans.set_run(run_id);
        machine::run_op(&spec, seed, Some(&mut sampler), &mut spans)
    });
    spans.set_run(0);
    let all: Vec<Op> = plain.iter().chain(&with_trace).cloned().collect();
    let mut failures = op_failures(&all);
    let mut attempted = all.len();

    let mut walls: Vec<f64> = plain.iter().map(|o| o.wall_s).collect();
    let metrics = if traced {
        let mut m = machine_layer_metrics(&spec, seed, &plain, &with_trace, &sampler);
        // No sweep pool here: the ops run one after another on this
        // thread, and the sweep metrics describe that serial loop.
        let op_s = |o: &Op| o.setup_s + o.wall_s + o.digest_s;
        let serial = all.iter().map(op_s).sum();
        let max_op = all.iter().map(op_s).fold(0.0, f64::max);
        sweep_metrics(&mut m, 1, serial, max_op, elapsed);
        trace_metrics(
            &mut m,
            med(&with_trace, |o| o.wall_s),
            med(&plain, |o| o.wall_s),
        );
        m.add_ratios();
        m
    } else {
        // Every untraced run reports every end-to-end metric, so the
        // Table 3 job runs once, untimed, to give this workload a
        // `paper_err_pp`.
        let anchor = matrix::run_pass(|id| id == TABLE3_JOB, 1, &mut off);
        failures.extend(pass_failures(std::slice::from_ref(&anchor)));
        attempted += anchor.jobs;
        let mut setups: Vec<f64> = plain.iter().map(|o| o.setup_s).collect();
        end_to_end(
            quantile(&mut walls, TIME_QUANTILE),
            quantile(&mut setups, TIME_QUANTILE),
            first_rss.unwrap_or_default(),
            anchor.paper_err_pp,
        )
    };
    Report {
        attempted: attempted as u64,
        failures,
        metrics,
        digest: Some(plain[0].digest),
        notes: vec![
            timing_note("timed phase per op", &walls),
            timing_note(
                "set-up per op",
                &plain.iter().map(|o| o.setup_s).collect::<Vec<_>>(),
            ),
        ],
        spans,
    }
}

/// The end-to-end metrics: the 90th-percentile timed phase and set-up of
/// the run's repetitions (which all do the same simulated work), and the
/// peak memory of the first repetition in a fresh process. Times are
/// taken at p90, not the median, because other tenants of a shared host
/// switch its speed between two levels for minutes at a time: the median
/// and the minimum jump between the levels from run to run, while p90
/// stays on the slower one.
fn end_to_end(wall_s: f64, setup_s: f64, peak_rss_mb: f64, paper_err_pp: Option<f64>) -> Metrics {
    let mut m = Metrics::default();
    m.set("wall_s", wall_s);
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss_mb);
    // A missing Table 3 block has already failed an op; report the
    // worst possible error rather than a plausible one.
    m.set("paper_err_pp", paper_err_pp.unwrap_or(100.0));
    m
}

/// The distribution of the times behind `wall_s` or `setup_s`, with the
/// sample count.
fn timing_note(what: &str, times: &[f64]) -> String {
    let mut v = times.to_vec();
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0].map(|q| quantile(&mut v, q));
    format!(
        "{what}: min {:.6} p10 {:.6} p25 {:.6} median {:.6} p75 {:.6} \
         p90 {:.6} max {:.6} mean {mean:.6} s, n = {}",
        qs[0],
        qs[1],
        qs[2],
        qs[3],
        qs[4],
        qs[5],
        qs[6],
        v.len()
    )
}

fn paper_matrix(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut spans = Spans::new(traced);
    let mut off = Spans::new(false);
    let mut run_id = 0;
    let mut first_rss = None;
    let (plain, with_trace, _) = repeat(seconds, traced, |t| {
        if !t {
            let pass = matrix::run_pass(|_| true, MATRIX_THREADS, &mut off);
            first_rss.get_or_insert_with(peak_rss_mb);
            return pass;
        }
        run_id += 1;
        spans.set_run(run_id);
        matrix::run_pass(|_| true, MATRIX_THREADS, &mut spans)
    });
    spans.set_run(0);
    let mut failures = pass_failures(&plain);
    failures.extend(pass_failures(&with_trace));
    let mut attempted: usize = plain.iter().chain(&with_trace).map(|p| p.jobs).sum();

    let mut walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let metrics = if traced {
        // The matrix's machines are private to its jobs. Their kernel and
        // core counters are in the sim blocks; the layers the blocks do
        // not count come from a probe machine at the matrix's L6.
        let probe = Spec::paper_probe();
        let mut sampler = Sampler::new(SAMPLE_EVERY);
        let ops = vec![
            machine::run_op(&probe, seed, None, &mut off),
            machine::run_op(&probe, seed, Some(&mut sampler), &mut spans),
        ];
        attempted += ops.len();
        failures.extend(op_failures(&ops));
        let mut m = machine_layer_metrics(&probe, seed, &ops[..1], &ops[1..], &sampler);
        let totals = matrix::counter_totals(&plain[0].doc);
        for (metric, key) in COUNTER_METRICS {
            m.set(metric, totals.get(key).copied().unwrap_or(0.0));
        }
        let p = &plain[0];
        sweep_metrics(&mut m, p.threads, p.serial_s, p.max_job_s, p.wall_s);
        trace_metrics(
            &mut m,
            med(&with_trace, |p| p.wall_s),
            med(&plain, |p| p.wall_s),
        );
        m.add_ratios();
        m
    } else {
        let mut setups: Vec<f64> = plain
            .iter()
            .flat_map(|p| p.setup_s.iter().copied())
            .collect();
        end_to_end(
            quantile(&mut walls, TIME_QUANTILE),
            quantile(&mut setups, TIME_QUANTILE),
            first_rss.unwrap_or_default(),
            plain[0].paper_err_pp,
        )
    };
    Report {
        attempted: attempted as u64,
        failures,
        metrics,
        digest: None,
        notes: vec![
            timing_note("timed phase per pass", &walls),
            timing_note(
                "set-up per job-list build",
                &plain
                    .iter()
                    .flat_map(|p| p.setup_s.iter().copied())
                    .collect::<Vec<_>>(),
            ),
        ],
        spans,
    }
}
