//! The figure-regeneration functions (Figures 4–11, Table 3).

use tlbdown_core::OptConfig;
use tlbdown_kernel::{KernelConfig, Machine};
use tlbdown_types::{CoreId, Cycles, Topology};
use tlbdown_workloads::apache::{apache_speedups, ApacheCfg};
use tlbdown_workloads::cow::{run_cow_bench, CowBenchCfg};
use tlbdown_workloads::madvise::{run_madvise_bench, MadviseBenchCfg, Placement};
use tlbdown_workloads::sysbench::{sysbench_speedups, SysbenchCfg};

/// How much simulated work to spend per experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced iteration counts and sparse sweeps (CI-friendly).
    Quick,
    /// Paper-shaped sweeps.
    Full,
}

impl Scale {
    /// Stable label used in sweep job IDs and `BENCH_*.json` configs.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    pub(crate) fn madvise_iters(self) -> u64 {
        match self {
            Scale::Quick => 120,
            Scale::Full => 1_000,
        }
    }

    pub(crate) fn runs(self) -> u64 {
        match self {
            Scale::Quick => 3,
            Scale::Full => 5,
        }
    }

    pub(crate) fn sysbench_threads(self) -> Vec<u32> {
        match self {
            Scale::Quick => vec![1, 2, 4, 8, 12, 16, 20, 24, 28],
            Scale::Full => (1..=28).collect(),
        }
    }

    pub(crate) fn sysbench_duration(self) -> Cycles {
        match self {
            Scale::Quick => Cycles::new(3_000_000),
            Scale::Full => Cycles::new(8_000_000),
        }
    }

    pub(crate) fn apache_cores(self) -> Vec<u32> {
        match self {
            Scale::Quick => vec![1, 2, 4, 6, 8, 11],
            Scale::Full => (1..=11).collect(),
        }
    }

    pub(crate) fn apache_duration(self) -> Cycles {
        match self {
            Scale::Quick => Cycles::new(4_000_000),
            Scale::Full => Cycles::new(10_000_000),
        }
    }
}

/// The cumulative optimization levels shown in Figures 5–8, per mode.
/// Unsafe mode has no PTI, so the in-context level is omitted ("in unsafe
/// mode there is no PTI, so for those experiments we do not show the
/// in-context flush optimization").
pub fn micro_levels(safe: bool) -> Vec<(&'static str, OptConfig)> {
    let mut v = vec![
        ("base", OptConfig::cumulative(0)),
        ("+concurrent", OptConfig::cumulative(1)),
        ("+early-ack", OptConfig::cumulative(2)),
        ("+cacheline", OptConfig::cumulative(3)),
    ];
    if safe {
        v.push(("+in-context", OptConfig::cumulative(4)));
    }
    v
}

/// The cumulative levels for the application benchmarks (Figures 10–11):
/// the microbench levels plus userspace-safe batching; CoW avoidance is
/// irrelevant to these workloads and stays off, as in the paper.
pub fn app_levels(safe: bool) -> Vec<(&'static str, OptConfig)> {
    let mut v = micro_levels(safe);
    let top = v.last().expect("non-empty").1;
    v.push(("+batching", top.with_batching(true)));
    v
}

/// The [`app_levels`] compared against the baseline in Figures 10 and
/// 11: every level but `base` itself, split into names and configs.
fn speedup_levels(safe: bool) -> (Vec<&'static str>, Vec<OptConfig>) {
    app_levels(safe)
        .into_iter()
        .filter(|(name, _)| *name != "base")
        .unzip()
}

/// Render one figure of the 5–8 family.
pub fn fig5_to_8(fig: u32, scale: Scale) -> String {
    let (safe, ptes) = match fig {
        5 => (true, 1),
        6 => (true, 10),
        7 => (false, 1),
        8 => (false, 10),
        _ => panic!("figure must be 5..=8"),
    };
    let mode = if safe { "safe" } else { "unsafe" };
    let mut out = format!(
        "Figure {fig}: {mode} mode, flush {ptes} PTE(s) — madvise microbenchmark\n\
         (cycles, mean ± σ over {} runs of {} iterations)\n\n",
        scale.runs(),
        scale.madvise_iters()
    );
    for side in ["initiator", "responder"] {
        out += &format!(
            "  ({}) {side} cycles\n",
            if side == "initiator" { "a" } else { "b" }
        );
        out += &format!("  {:<14}", "config");
        for p in Placement::ALL {
            out += &format!(" {:>22}", p.label());
        }
        out += "\n";
        for (name, opts) in micro_levels(safe) {
            out += &format!("  {name:<14}");
            for p in Placement::ALL {
                let mut cfg = MadviseBenchCfg::new(p, ptes, safe, opts);
                cfg.iters = scale.madvise_iters();
                cfg.runs = scale.runs();
                let r = run_madvise_bench(&cfg).expect("microbench cell runs clean");
                let s = if side == "initiator" {
                    r.initiator
                } else {
                    r.responder
                };
                out += &format!(" {:>13.0} ± {:>6.0}", s.mean(), s.stddev());
            }
            out += "\n";
        }
        out += "\n";
    }
    out
}

/// Render Table 3: overall latency reduction, different sockets, after the
/// four §3 techniques.
pub fn table3(scale: Scale) -> String {
    let mut out = String::from(
        "Table 3: [initiator / responder] latency reduction, diff-socket,\n\
         all four §3 techniques vs baseline\n\n\
                    |   Safe Mode   |  Unsafe Mode  | paper (safe) | paper (unsafe)\n",
    );
    let paper = [
        ("1 PTE", "39% / 13%", "39% / 18%"),
        ("10 PTEs", "58% / 22%", "54% / 14%"),
    ];
    for (i, ptes) in [1u64, 10].iter().enumerate() {
        out += &format!(
            "  {:<8} |",
            format!("{ptes} PTE{}", if *ptes > 1 { "s" } else { "" })
        );
        for safe in [true, false] {
            let mut base_cfg =
                MadviseBenchCfg::new(Placement::DiffSocket, *ptes, safe, OptConfig::baseline());
            base_cfg.iters = scale.madvise_iters();
            base_cfg.runs = scale.runs();
            let mut opt_cfg = base_cfg.clone();
            opt_cfg.opts = OptConfig::general_four();
            let base = run_madvise_bench(&base_cfg).expect("baseline cell runs clean");
            let opt = run_madvise_bench(&opt_cfg).expect("optimized cell runs clean");
            let ri = 100.0 * (1.0 - opt.initiator.mean() / base.initiator.mean());
            let rr = 100.0 * (1.0 - opt.responder.mean() / base.responder.mean());
            out += &format!("  {ri:>4.0}% / {rr:>3.0}% |");
        }
        out += &format!("  {:<11} | {}\n", paper[i].1, paper[i].2);
    }
    out
}

/// Render Figure 9: CoW fault latency.
pub fn fig9(scale: Scale) -> String {
    let mut out = String::from(
        "Figure 9: copy-on-write fault + access latency (cycles, mean ± σ)\n\n\
           config      |      safe mode      |     unsafe mode\n",
    );
    let configs: [(&str, OptConfig); 3] = [
        ("base", OptConfig::baseline()),
        ("all (§3)", OptConfig::general_four()),
        ("all + CoW", OptConfig::general_four().with_cow(true)),
    ];
    for (name, opts) in configs {
        out += &format!("  {name:<11} |");
        for safe in [true, false] {
            let mut cfg = CowBenchCfg::new(safe, opts);
            cfg.pages = match scale {
                Scale::Quick => 150,
                Scale::Full => 400,
            };
            cfg.runs = scale.runs();
            let s = run_cow_bench(&cfg).latency;
            out += &format!(" {:>9.0} ± {:>5.0}    |", s.mean(), s.stddev());
        }
        out += "\n";
    }
    out += "\n  paper: CoW trick saves ~130 cycles (≈3% safe, ≈5% unsafe)\n";
    out
}

/// Render Figure 10: Sysbench speedup vs thread count.
pub fn fig10(scale: Scale) -> String {
    let mut out = String::new();
    for safe in [true, false] {
        let mode = if safe { "safe" } else { "unsafe" };
        out += &format!(
            "Figure 10({}): Sysbench rnd-write + fdatasync, {mode} mode — speedup vs baseline\n\n",
            if safe { "a" } else { "b" }
        );
        let (names, levels) = speedup_levels(safe);
        out += &format!("  {:<8}", "threads");
        for name in &names {
            out += &format!(" {name:>12}");
        }
        out += "\n";
        let mut scale_cfg = SysbenchCfg::new(1, safe, OptConfig::baseline());
        scale_cfg.duration = scale.sysbench_duration();
        for t in scale.sysbench_threads() {
            out += &format!("  {t:<8}");
            for s in sysbench_speedups(t, safe, &levels, &scale_cfg) {
                out += &format!(" {s:>11.3}x");
            }
            out += "\n";
        }
        out += "\n";
    }
    out
}

/// Render Figure 11: Apache speedup vs server cores.
pub fn fig11(scale: Scale) -> String {
    let mut out = String::new();
    for safe in [true, false] {
        let mode = if safe { "safe" } else { "unsafe" };
        out += &format!(
            "Figure 11({}): Apache mpm_event model, {mode} mode — speedup vs baseline\n\n",
            if safe { "a" } else { "b" }
        );
        let (names, levels) = speedup_levels(safe);
        out += &format!("  {:<6}", "cores");
        for name in &names {
            out += &format!(" {name:>12}");
        }
        out += "\n";
        let mut scale_cfg = ApacheCfg::new(1, safe, OptConfig::baseline());
        scale_cfg.duration = scale.apache_duration();
        for c in scale.apache_cores() {
            out += &format!("  {c:<6}");
            for s in apache_speedups(c, safe, &levels, &scale_cfg) {
                out += &format!(" {s:>11.3}x");
            }
            out += "\n";
        }
        out += "\n";
    }
    out
}

/// Render the Figure 4 ablation: coherence traffic of one shootdown under
/// the baseline vs consolidated cacheline layout, measured on a live
/// machine run.
pub fn fig4_ablation(scale: Scale) -> String {
    let run = |consolidated: bool| -> (f64, f64, usize) {
        let opts = OptConfig::baseline().with_cacheline(consolidated);
        let kc = KernelConfig {
            topo: Topology::paper_machine(),
            ..KernelConfig::paper_baseline()
        }
        .with_opts(opts);
        let mut m = Machine::new(kc);
        let lines = m.smp.contended_line_count(CoreId(0), CoreId(28));
        let mm = m.create_process().expect("boot: create process");
        // Reuse the madvise microbench shape inline: initiator on 0,
        // responder on the other socket.
        use tlbdown_kernel::prog::{BusyLoopProg, Prog, ProgAction, ProgCtx};
        use tlbdown_types::VirtAddr;
        struct Loop {
            addr: u64,
            state: u32,
            i: u64,
            n: u64,
        }
        impl Prog for Loop {
            fn next(&mut self, ctx: &ProgCtx) -> ProgAction {
                match self.state {
                    0 => {
                        self.state = 1;
                        ProgAction::Syscall(tlbdown_kernel::Syscall::MmapAnon { pages: 4 })
                    }
                    1 => {
                        self.addr = ctx.retval;
                        self.state = 2;
                        ProgAction::Nop
                    }
                    2 => {
                        self.state = 3;
                        ProgAction::Access {
                            va: VirtAddr::new(self.addr),
                            write: true,
                        }
                    }
                    3 => {
                        self.state = 4;
                        ProgAction::Syscall(tlbdown_kernel::Syscall::MadviseDontNeed {
                            addr: VirtAddr::new(self.addr),
                            pages: 1,
                        })
                    }
                    4 => {
                        self.i += 1;
                        self.state = if self.i >= self.n { 5 } else { 2 };
                        ProgAction::Nop
                    }
                    _ => ProgAction::Exit,
                }
            }
        }
        let n = match scale {
            Scale::Quick => 200,
            Scale::Full => 1_000,
        };
        m.spawn(
            mm,
            CoreId(0),
            Box::new(Loop {
                addr: 0,
                state: 0,
                i: 0,
                n,
            }),
        );
        m.spawn(mm, CoreId(28), Box::new(BusyLoopProg));
        m.run_until(Cycles::new(n * 400_000));
        let shootdowns = m.stats.counters.get("shootdown_done").max(1);
        let stats = m.dir.stats();
        (
            stats.cross_socket_transfers as f64 / shootdowns as f64,
            stats.transfers() as f64 / shootdowns as f64,
            lines,
        )
    };
    let (base_x, base_t, base_lines) = run(false);
    let (cons_x, cons_t, cons_lines) = run(true);
    format!(
        "Figure 4 ablation: coherence traffic per shootdown (initiator socket 0,\n\
         responder socket 1)\n\n\
           layout        distinct contended lines   cross-socket transfers   total transfers\n\
           baseline      {base_lines:>24} {base_x:>24.1} {base_t:>17.1}\n\
           consolidated  {cons_lines:>24} {cons_x:>24.1} {cons_t:>17.1}\n\n\
           paper: Figure 4 shows 4 contended cacheline classes reduced to 2 by\n\
           inlining flush info into the CFD and colocating the lazy bit with\n\
           the call-single-queue head.\n"
    )
}
