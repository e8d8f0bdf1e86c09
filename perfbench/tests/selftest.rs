//! Self-tests of the benchmark: determinism, seed reach, failure
//! accounting and the matrix's thread-count independence.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use perfbench::machine::{run_machine, run_op, Spec};
use perfbench::matrix::{check, expected_doc, run_pass};
use perfbench::span::Spans;
use tlbdown_bench::sim_blocks;
use tlbdown_kernel::{Machine, Prog, ProgAction, ProgCtx};
use tlbdown_types::{CoreId, Cycles, VirtAddr};

/// A shorter run of `spec`, for tests.
fn short(mut spec: Spec) -> Spec {
    spec.horizon = spec.horizon.min(2_000_000);
    spec
}

/// Digest line and every `count`-unit metric line of one invocation.
fn deterministic_lines(workload: &str, seed: u64) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", "1"])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<String> = stdout
        .lines()
        .filter(|l| l.starts_with("digest ") || l.ends_with(" count"))
        .map(str::to_string)
        .collect();
    assert!(lines.len() > 30, "too few deterministic lines:\n{stdout}");
    lines
}

#[test]
fn same_seed_gives_same_digest_and_counts_across_invocations() {
    assert_eq!(
        deterministic_lines("hotset_mesh", 7),
        deterministic_lines("hotset_mesh", 7)
    );
}

#[test]
fn seed_reaches_the_generators() {
    let mut off = Spans::new(false);
    for spec in [Spec::broadcast_2x56(), Spec::hotset_mesh()] {
        let spec = short(spec);
        let a = run_op(&spec, 1, None, &mut off);
        let b = run_op(&spec, 1, None, &mut off);
        let c = run_op(&spec, 2, None, &mut off);
        assert_eq!(a.failure, None);
        assert_eq!(c.failure, None);
        assert_eq!(a.digest, b.digest, "same seed, same digest");
        assert_eq!(a.counts, b.counts, "same seed, same counts");
        assert_ne!(a.digest, c.digest, "another seed must change the run");
    }
}

/// Writes one address far above every mapping the kernel hands out,
/// then spins.
#[derive(Default)]
struct StrayProg {
    touched: bool,
}

impl Prog for StrayProg {
    fn next(&mut self, _ctx: &ProgCtx) -> ProgAction {
        if self.touched {
            return ProgAction::Compute(Cycles::new(200));
        }
        self.touched = true;
        ProgAction::Access {
            va: VirtAddr::new(0x7f00_0000_0000),
            write: true,
        }
    }
}

#[test]
fn access_outside_every_vma_fails_the_op() {
    let spec = short(Spec::hotset_mesh());
    let build = |_: &mut Spans| {
        let mut m = Machine::new(spec.kernel_config());
        let mm = m.create_process()?;
        m.spawn(mm, CoreId(0), Box::new(StrayProg::default()));
        Ok(m)
    };
    let op = run_machine(&spec, build, None, &mut Spans::new(false));
    let why = op.failure.expect("a stray access must fail its op");
    assert!(why.contains("segfault"), "{why}");
}

#[test]
fn missing_sim_block_fails_its_job() {
    let table4 = |id: &str| id.starts_with("table4/");
    let pass = run_pass(
        |id| table4(id) && id != "table4/row5",
        1,
        &mut Spans::new(false),
    );
    assert!(pass.failed.is_empty(), "{:?}", pass.failed);
    let failed = check(
        &pass.doc,
        expected_doc().expect("BENCH_1.json parses"),
        table4,
    );
    let ids: Vec<&str> = failed.keys().map(String::as_str).collect();
    assert_eq!(ids, ["table4/row5"], "{failed:?}");
}

#[test]
fn paper_matrix_is_identical_at_one_and_two_threads() {
    let mut off = Spans::new(false);
    let one = run_pass(|_| true, 1, &mut off);
    let two = run_pass(|_| true, 2, &mut off);
    assert!(one.failed.is_empty(), "{:?}", one.failed);
    assert!(two.failed.is_empty(), "{:?}", two.failed);
    assert_eq!(one.jobs, 20);
    assert_eq!(sim_blocks(&one.doc), sim_blocks(&two.doc));
    let err = one.paper_err_pp.expect("table3 ran");
    assert!((err - 7.36).abs() < 0.01, "{err}");
}
