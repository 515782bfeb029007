//! `perf`: the repository's performance benchmark.
//!
//! ```text
//! perf run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke] [--runs N] [--out PATH]
//! perf check PATH
//! perf compare PARENT.json CHANGE.json
//! ```
//!
//! `run --workload W` runs one workload in this process, prints
//! `workload metric value unit` lines and, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Untraced,
//! the metrics are the end-to-end ones of `BENCHMARK.json`; traced, the
//! per-layer ones, and the spans go to `target/perf/trace-<W>.json`.
//! Without `--workload`, or with `--runs`, `run` re-executes itself once
//! per workload and run, one child at a time, and writes a results file
//! (default `target/perf/results.json`). See PERF.md.

mod affinity;
mod json;
mod layers;
mod ledger;
mod measure;
mod run;
mod spec;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use run::RunArgs;

const USAGE: &str = "usage: perf run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] \
                     [--smoke] [--runs N] [--out PATH] | perf check PATH | perf compare A B";

/// Dataset seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    let spec = spec::spec()?;
    match args.first().map(String::as_str) {
        Some("run") => run_command(&spec, &args[1..]),
        Some("check") => {
            let [path] = &args[1..] else { return Err(USAGE.into()) };
            let problems = ledger::check(&spec, &spec.workloads, &ledger::read(path.as_ref())?);
            for p in &problems {
                println!("{path}: {p}");
            }
            if problems.is_empty() {
                println!("{path}: ok");
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::FAILURE)
            }
        }
        Some("compare") => {
            let [a, b] = &args[1..] else { return Err(USAGE.into()) };
            let worse =
                ledger::compare(&spec, &ledger::read(a.as_ref())?, &ledger::read(b.as_ref())?)?;
            Ok(if worse { ExitCode::FAILURE } else { ExitCode::SUCCESS })
        }
        _ => Err(USAGE.into()),
    }
}

fn run_command(spec: &spec::Spec, args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut traced = false;
    let mut smoke = false;
    let mut runs = None;
    let mut out = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be from 0 to 600".into());
                }
                seconds = Some(s);
            }
            "--runs" => {
                let n: usize = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&n) {
                    return Err("--runs must be from 1 to 100".into());
                }
                runs = Some(n);
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            // A bare `--trace` turns tracing on; `--trace 0|1` sets it.
            "--trace" => traced = it.next_if(|v| *v == "0" || *v == "1").is_none_or(|v| v == "1"),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if let Some(w) = &workload {
        if !spec.workloads.contains(w) || workload::Workload::new(w, smoke).is_none() {
            return Err(format!("unknown workload {w:?}; declared: {:?}", spec.workloads));
        }
    }
    let seconds = seconds.unwrap_or(if smoke { 0.0 } else { spec.run_seconds as f64 });
    affinity::pin_to_current_cpu();

    match (workload, runs) {
        (Some(workload), None) => {
            let args = RunArgs { workload, seed, seconds, traced, smoke, out };
            let result = run::run(&args, spec)?;
            for (name, unit, values) in &result.metrics {
                println!("{} {name} {} {unit}", result.workload, measure::median(values));
            }
            for (name, value) in &result.exact {
                println!("{} exact.{name} {value}", result.workload);
            }
            for (name, value, unit) in &result.info {
                println!("{} info.{name} {value} {unit}", result.workload);
            }
            for p in &result.problems {
                eprintln!("perf: {}: {p}", result.workload);
            }
            if let Some(path) = &args.out {
                let doc =
                    ledger::results_doc(traced, vec![(result.workload.clone(), result.entry())]);
                ledger::write(path, &doc)?;
            }
            println!("{}", result.line().to_compact());
            Ok(if result.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        (workload, runs) => {
            let workloads = workload.map_or_else(|| spec.workloads.clone(), |w| vec![w]);
            let child = ledger::ChildArgs {
                workloads: &workloads,
                runs: runs.unwrap_or(1),
                seed,
                seconds,
                traced,
                smoke,
            };
            let exe =
                std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
            let doc = ledger::run_children(&child, &exe, &PathBuf::from("target/perf"))?;
            let path = out.unwrap_or_else(|| PathBuf::from("target/perf/results.json"));
            ledger::write(&path, &doc)?;
            ledger::print_table(&doc);
            let problems = ledger::check(spec, &workloads, &doc);
            for p in &problems {
                println!("{}: {p}", path.display());
            }
            println!("results: {}", path.display());
            Ok(if problems.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
    }
}
