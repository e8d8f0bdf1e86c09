//! The sweep thread pool.
//!
//! Every job sits in one shared `Mutex<Vec<Job>>`; each worker locks
//! it, `pop()`s a job off the back, unlocks, and runs the job. No job
//! spawns further jobs, so an empty queue means the sweep is drained
//! and the worker exits. Sweep jobs are whole simulations, milliseconds
//! to seconds each, so one lock taken once per job is never the
//! bottleneck; the speedup comes from fanning jobs out across cores.
//!
//! Claim order is last-first: the job at the end of the input vector
//! runs first. That order is a measured choice, not an accident. On the
//! 20-job paper matrix at 2 threads, first-to-last claiming raised peak
//! RSS by about 7% (6.40 → 6.88 MB median over 8 pairs, 2-vCPU host),
//! while last-first matched the earlier work-stealing pool.
//!
//! Determinism: workers send `(id, output, wall)` tuples over a channel
//! as they finish, in a nondeterministic order; [`run_jobs`] sorts the
//! collected results by job ID before returning. Everything canonical
//! downstream (rendered reductions, `BENCH` sim-metric blocks) is
//! derived from that sorted vector, so neither thread count nor claim
//! interleaving ever shows.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One unit of sweep work: a stable ID plus a self-contained closure.
///
/// The closure must construct everything it touches (machine, config,
/// RNG seeds) so that its output is a pure function of the job — see the
/// crate docs for the determinism argument.
pub struct Job<T> {
    /// Stable identifier; the canonical reduction order is the sorted
    /// order of these IDs, so they must be unique within a sweep.
    pub id: String,
    /// The work itself.
    pub run: Box<dyn FnOnce() -> T + Send>,
}

impl<T> Job<T> {
    /// Build a job from an ID and a closure.
    pub fn new(id: impl Into<String>, run: impl FnOnce() -> T + Send + 'static) -> Self {
        Job {
            id: id.into(),
            run: Box::new(run),
        }
    }
}

/// The outcome of one job.
#[derive(Clone, Debug)]
pub struct JobResult<T> {
    /// The job's stable ID.
    pub id: String,
    /// What the closure returned.
    pub output: T,
    /// Host wall-clock spent inside the closure (non-canonical: varies
    /// run to run and must stay out of byte-compared blocks).
    pub wall: Duration,
}

/// A job whose closure panicked instead of returning.
///
/// Panics are caught at the job boundary (`catch_unwind`) so one bad
/// job cannot poison the pool's queue or starve the collector; the
/// panic becomes this typed record in the reduced output instead.
#[derive(Clone, Debug)]
pub struct JobError {
    /// The job's stable ID.
    pub id: String,
    /// The panic payload, if it was a string (the common `panic!` /
    /// `assert!` case), else a placeholder. Deterministic for
    /// deterministic jobs, so it is safe inside byte-compared blocks.
    pub message: String,
    /// Host wall-clock spent inside the closure before it panicked
    /// (non-canonical).
    pub wall: Duration,
}

/// A finished sweep: results in canonical job-ID order plus host-side
/// timing.
#[derive(Debug)]
pub struct SweepReport<T> {
    /// Per-job results, sorted by job ID. Jobs that panicked are not
    /// here — they are in [`SweepReport::failures`].
    pub results: Vec<JobResult<T>>,
    /// Jobs whose closure panicked, sorted by job ID.
    pub failures: Vec<JobError>,
    /// Wall-clock for the whole sweep (non-canonical).
    pub elapsed: Duration,
    /// Worker threads actually used.
    pub threads: usize,
}

impl<T> SweepReport<T> {
    /// Sum of per-job wall-clock times — an estimate of what a serial
    /// run of the same job set would have cost (each job is isolated, so
    /// serial time is the sum of job times up to scheduling noise).
    /// Panicked jobs count the time they burned before unwinding.
    pub fn serial_estimate(&self) -> Duration {
        self.results.iter().map(|r| r.wall).sum::<Duration>()
            + self.failures.iter().map(|f| f.wall).sum::<Duration>()
    }

    /// `serial_estimate / elapsed`: the sweep's speedup over a serial
    /// run. ~1.0 on one core; approaches `threads` for a wide matrix.
    pub fn speedup_vs_serial(&self) -> f64 {
        let e = self.elapsed.as_secs_f64();
        if e <= 0.0 {
            return 1.0;
        }
        self.serial_estimate().as_secs_f64() / e
    }
}

/// Resolve a requested thread count: 0 means "all host cores".
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Panic if two jobs share an ID — silent ID collisions would make the
/// canonical order ambiguous and the reduction nondeterministic.
fn assert_unique_ids<T>(jobs: &[Job<T>]) {
    let mut ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
    ids.sort_unstable();
    for w in ids.windows(2) {
        assert!(w[0] != w[1], "duplicate sweep job id {:?}", w[0]);
    }
}

/// Run one claimed job, converting a panic into a typed record, and send
/// the outcome to the collector.
fn execute_job<T: Send>(job: Job<T>, tx: &mpsc::Sender<Result<JobResult<T>, JobError>>) {
    let t0 = Instant::now();
    // Isolate the job: a panic unwinds only to here, is converted to a
    // typed record, and the worker moves on to the next job. The queue
    // lock is not held across the closure; AssertUnwindSafe is sound
    // because the closure owns everything it touches (per-job isolation
    // invariant).
    let outcome = panic::catch_unwind(AssertUnwindSafe(job.run));
    let wall = t0.elapsed();
    // The receiver outlives the scope; send failure would need the main
    // thread hung up (it cannot: it is blocked on scope exit).
    let _ = match outcome {
        Ok(output) => tx.send(Ok(JobResult {
            id: job.id,
            output,
            wall,
        })),
        Err(payload) => tx.send(Err(JobError {
            id: job.id,
            message: panic_message(payload.as_ref()),
            wall,
        })),
    };
}

/// Drain the result channel into a canonical-order report.
fn collect_report<T>(
    rx: mpsc::Receiver<Result<JobResult<T>, JobError>>,
    n_jobs: usize,
    threads: usize,
    start: Instant,
) -> SweepReport<T> {
    let mut results: Vec<JobResult<T>> = Vec::new();
    let mut failures: Vec<JobError> = Vec::new();
    for outcome in rx {
        match outcome {
            Ok(r) => results.push(r),
            Err(e) => failures.push(e),
        }
    }
    assert_eq!(
        results.len() + failures.len(),
        n_jobs,
        "every job must report a result or a failure"
    );
    results.sort_by(|a, b| a.id.cmp(&b.id));
    failures.sort_by(|a, b| a.id.cmp(&b.id));
    SweepReport {
        results,
        failures,
        elapsed: start.elapsed(),
        threads,
    }
}

/// Run `jobs` on `threads` workers (0 = all host cores) and reduce in
/// canonical job-ID order. Every consumer (bench matrix, explore, storm
/// and fleet gates, scalebench) goes through here.
///
/// Workers claim jobs last-first (see the module docs for why).
///
/// Panics if two jobs share an ID.
pub fn run_jobs<T: Send>(jobs: Vec<Job<T>>, threads: usize) -> SweepReport<T> {
    assert_unique_ids(&jobs);
    let n_jobs = jobs.len();
    let threads = resolve_threads(threads).max(1).min(n_jobs.max(1));
    let start = Instant::now();
    let queue = Mutex::new(jobs);
    let (tx, rx) = mpsc::channel::<Result<JobResult<T>, JobError>>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (queue, tx) = (&queue, tx.clone());
            scope.spawn(move || loop {
                // Claim in its own statement: the guard drops at the `;`,
                // so the lock is free while the job runs. (A `while let`
                // scrutinee would hold it for the whole loop body and
                // serialize the pool.) No code panics while holding the
                // lock, so poisoning cannot happen; taking the inner
                // value keeps the pool panic-free regardless.
                let job = queue.lock().unwrap_or_else(|e| e.into_inner()).pop();
                let Some(job) = job else { return };
                execute_job(job, &tx);
            });
        }
        drop(tx);
    });
    collect_report(rx, n_jobs, threads, start)
}

/// Extract a printable message from a panic payload: the common
/// `panic!("...")` / `assert!` payloads are `String` or `&str`; anything
/// else gets a stable placeholder so the reduced output stays
/// deterministic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Concatenate rendered per-job fragments in canonical order, each under
/// a `== job <id> ==` header. This is *the* reduction used for
/// byte-identity checks between serial and parallel sweeps. Panicked
/// jobs appear in the same canonical ID order as `panicked: <message>`
/// bodies, so a failing sweep reduces just as deterministically as a
/// passing one.
pub fn reduce_rendered<T>(report: &SweepReport<T>, render: impl Fn(&T) -> &str) -> String {
    let mut fragments: Vec<(&str, String)> = Vec::new();
    for r in &report.results {
        fragments.push((r.id.as_str(), render(&r.output).to_string()));
    }
    for f in &report.failures {
        fragments.push((f.id.as_str(), format!("panicked: {}", f.message)));
    }
    fragments.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = String::new();
    for (id, body) in fragments {
        out.push_str("== job ");
        out.push_str(id);
        out.push_str(" ==\n");
        out.push_str(&body);
        if !out.ends_with('\n') {
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_jobs_run_and_reduce_in_id_order() {
        let jobs: Vec<Job<u64>> = (0..37)
            .map(|i| Job::new(format!("job/{i:02}"), move || i * i))
            .collect();
        let rep = run_jobs(jobs, 4);
        assert_eq!(rep.results.len(), 37);
        for (i, r) in rep.results.iter().enumerate() {
            assert_eq!(r.id, format!("job/{i:02}"));
            assert_eq!(r.output, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn single_thread_matches_many_threads() {
        let build = || -> Vec<Job<String>> {
            (0..16)
                .map(|i| Job::new(format!("j{i:02}"), move || format!("out-{}", i * 7 % 5)))
                .collect()
        };
        let a = run_jobs(build(), 1);
        let b = run_jobs(build(), 8);
        let ra = reduce_rendered(&a, |s| s.as_str());
        let rb = reduce_rendered(&b, |s| s.as_str());
        assert_eq!(ra, rb, "reduction must not depend on thread count");
    }

    #[test]
    fn one_thread_runs_jobs_last_first() {
        // Pins the claim order: the queue pops from the back.
        let order = std::sync::Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<Job<()>> = (0..6)
            .map(|i| {
                let order = std::sync::Arc::clone(&order);
                Job::new(format!("j{i}"), move || order.lock().unwrap().push(i))
            })
            .collect();
        run_jobs(jobs, 1);
        assert_eq!(*order.lock().unwrap(), vec![5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn two_workers_run_jobs_concurrently() {
        // Each job signals the other and waits for its signal, which only
        // arrives if both jobs run at the same time.
        let (tx_a, rx_a) = mpsc::channel::<()>();
        let (tx_b, rx_b) = mpsc::channel::<()>();
        let wait = Duration::from_secs(10);
        let jobs = vec![
            Job::new("a", move || {
                let _ = tx_a.send(());
                rx_b.recv_timeout(wait).is_ok()
            }),
            Job::new("b", move || {
                let _ = tx_b.send(());
                rx_a.recv_timeout(wait).is_ok()
            }),
        ];
        let rep = run_jobs(jobs, 2);
        assert!(
            rep.results.iter().all(|r| r.output),
            "jobs ran one at a time"
        );
    }

    #[test]
    fn uneven_jobs_all_complete() {
        // One long job alongside many short ones: while one worker runs
        // the long job, the others drain the short ones.
        let jobs: Vec<Job<usize>> = (0..32)
            .map(|i| {
                Job::new(format!("j{i:02}"), move || {
                    let spins = if i == 0 { 3_000_000 } else { 1_000 };
                    let mut acc = 0usize;
                    for k in 0..spins {
                        acc = acc.wrapping_mul(31).wrapping_add(k);
                    }
                    acc
                })
            })
            .collect();
        let rep = run_jobs(jobs, 4);
        assert_eq!(rep.results.len(), 32);
        // Timing depends on host core count; the invariant that holds
        // everywhere is completeness + canonical order.
        assert!(rep.results.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn thread_count_clamps_to_job_count() {
        let jobs: Vec<Job<u8>> = vec![Job::new("only", || 1u8)];
        let rep = run_jobs(jobs, 16);
        assert_eq!(rep.threads, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate sweep job id")]
    fn duplicate_ids_panic() {
        let jobs: Vec<Job<u8>> = vec![Job::new("a", || 0u8), Job::new("a", || 1u8)];
        run_jobs(jobs, 2);
    }

    /// Quiet the default panic hook (which prints to stderr) for the
    /// duration of a closure, restoring it afterwards. Test-only: the
    /// library itself never touches the global hook.
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    fn one_bad_apple() -> Vec<Job<u64>> {
        (0..24)
            .map(|i| {
                Job::new(format!("job/{i:02}"), move || {
                    if i == 7 {
                        panic!("deliberate failure in job 7");
                    }
                    i * 3
                })
            })
            .collect()
    }

    #[test]
    fn panicking_job_is_isolated_and_typed() {
        let rep = with_quiet_panics(|| run_jobs(one_bad_apple(), 4));
        // All other jobs completed; the panic became a typed JobError.
        assert_eq!(rep.results.len(), 23);
        assert_eq!(rep.failures.len(), 1);
        assert_eq!(rep.failures[0].id, "job/07");
        assert_eq!(rep.failures[0].message, "deliberate failure in job 7");
        assert!(rep.results.iter().all(|r| r.id != "job/07"));
        // Successes still arrive in canonical ID order.
        assert!(rep.results.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn panicking_job_reduction_is_thread_count_invariant() {
        let (ra, rb) = with_quiet_panics(|| {
            let a = run_jobs(one_bad_apple(), 1);
            let b = run_jobs(one_bad_apple(), 8);
            (reduce_rendered(&a, |_| "ok"), reduce_rendered(&b, |_| "ok"))
        });
        assert_eq!(ra, rb, "failure reduction must not depend on threads");
        assert!(ra.contains("== job job/07 ==\npanicked: deliberate failure in job 7\n"));
    }
}
