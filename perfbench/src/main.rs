//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the campaign benchmark from the root of a
//! checkout and prints, as the last line of standard output, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, and the spans are written under `.perfbench_work/`.
//! Exits non-zero when any operation or check fails.

use std::path::Path;
use std::process::ExitCode;

use perfbench::bench::{self, Args};
use perfbench::catalog::{self, END_TO_END, PER_LAYER};
use perfbench::workloads;

/// Where runs keep their stores while they run, and traces after.
const WORK_ROOT: &str = ".perfbench_work";

fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut outcome = match bench::run(args, Path::new(WORK_ROOT)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The result must carry exactly the catalogued metrics of its mode,
    // each a finite number.
    let expected: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    if outcome.correct {
        let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
        let finite = outcome.metrics.iter().all(|(_, v)| v.is_finite());
        if names != expected || !finite {
            eprintln!("perfbench: FAIL metric set {names:?} is not {expected:?}, or a value is not finite");
            outcome.correct = false;
            outcome.failed += 1;
            outcome.metrics.clear();
        }
    }
    for (name, value) in &outcome.metrics {
        eprintln!(
            "  {name:<32} {value:>16.4} {}",
            catalog::unit_of(name).unwrap_or("?")
        );
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = catalog::unit_of(name).expect("checked against the catalogue");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
