//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric with its unit, then, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when
//! an op failed, 2 on a usage error.

use std::process::ExitCode;

use perfbench::run::{self, unit, WORKLOADS};
use tlbdown_sweep::Json;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {val:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = val.parse().map_err(|e| bad(&e))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(bad(&"expected a non-negative number"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match run::run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &report.failures {
        eprintln!("FAILED {f}");
    }
    if args.workload != "paper_matrix" {
        println!(
            "note: only paper_matrix is validated against the paper (Table 3); \
             {} is checked for safety and determinism only",
            args.workload
        );
    }
    for n in &report.notes {
        println!("{n}");
    }
    if let Some(d) = report.digest {
        println!("digest {d:#018x}");
    }
    if args.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, report.spans.to_json().render()));
        match written {
            Ok(()) => println!("spans: {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
        for (layer, s) in report.spans.self_time_by_layer() {
            println!("self time {layer:<8} {s:>12.6} s");
        }
    }
    for (name, v) in &report.metrics.0 {
        println!("{name:<36} {v:>18.6} {}", unit(name));
    }
    let failed = report.failures.len() as u64;
    println!("ops {} ops_failed {failed}", report.attempted);
    let metrics = report
        .metrics
        .0
        .iter()
        .map(|(name, v)| {
            let m = Json::obj()
                .with("value", Json::F64(*v))
                .with("unit", Json::Str(unit(name).into()));
            (name.clone(), m)
        })
        .collect();
    let result = Json::obj()
        .with("correct", Json::Bool(failed == 0))
        .with("attempted", Json::U64(report.attempted))
        .with("failed", Json::U64(failed))
        .with("metrics", Json::Obj(metrics));
    println!("{}", result.render());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
