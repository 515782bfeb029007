//! Results files: running workloads in child processes and collecting
//! what they report, checking a results file against the declaration,
//! and comparing two results files.
//!
//! A results file is `{"traced": bool, "workloads": {name: entry}}`; an
//! entry holds `runs`, `correct`, `attempted`, `failed`, the `exact`
//! (virtual-time) figures, and per metric its `unit`, `median`, `q1`,
//! `q3`, `n` and `values`. The values of a one-run entry are that run's
//! per-pass samples; those of a several-run entry are the runs' medians.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::{self, Json};
use crate::measure::{median, quartiles, spread, summary};
use crate::spec::{Better, Spec};

/// A results file with the given workload entries.
pub fn results_doc(traced: bool, entries: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![("traced".into(), Json::Bool(traced)), ("workloads".into(), Json::Obj(entries))])
}

pub fn write(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_compact() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// How the children of [`run_children`] run.
pub struct ChildArgs<'a> {
    pub workloads: &'a [String],
    pub runs: usize,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// Run each workload `runs` times, one child process of `exe` at a time,
/// so every run has its own peak-RSS reading; run `i` uses seed
/// `seed + i`. Each child writes its entry to a file in `scratch`.
/// Returns the results file.
pub fn run_children(args: &ChildArgs<'_>, exe: &Path, scratch: &Path) -> Result<Json, String> {
    let mut entries = Vec::new();
    for w in args.workloads {
        let mut runs = Vec::new();
        for i in 0..args.runs {
            let seed = args.seed.wrapping_add(i as u64);
            let out = scratch.join(format!("run-{w}-{i}.json"));
            // A file left by an earlier invocation must never stand in for
            // a run that writes none.
            match std::fs::remove_file(&out) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("{}: {e}", out.display()))
                }
                _ => {}
            }
            let mut cmd = Command::new(exe);
            cmd.args(["run", "--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&out)
                .stdout(Stdio::null());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("{w}: cannot start a run: {e}"))?;
            let entry = status
                .success()
                .then(|| read(&out).ok()?.get("workloads")?.get(w).cloned())
                .flatten();
            runs.push(entry.unwrap_or_else(|| {
                eprintln!("perf: {w} seed {seed} failed ({status}); recorded as failed");
                failed_run()
            }));
            eprintln!("perf: {w} run {}/{} done (seed {seed})", i + 1, args.runs);
        }
        let entry = if runs.len() == 1 { runs.remove(0) } else { aggregate(&runs) };
        entries.push((w.clone(), entry));
    }
    Ok(results_doc(args.traced, entries))
}

/// The entry of a run that exited with an error or wrote no results:
/// one failed op and no metrics.
fn failed_run() -> Json {
    Json::Obj(vec![
        ("runs".into(), Json::Num(1.0)),
        ("correct".into(), Json::Bool(false)),
        ("attempted".into(), Json::Num(1.0)),
        ("failed".into(), Json::Num(1.0)),
        ("metrics".into(), Json::Obj(Vec::new())),
        ("exact".into(), Json::Obj(Vec::new())),
    ])
}

/// Combine several runs of one workload: each metric's values become
/// the runs' medians.
fn aggregate(runs: &[Json]) -> Json {
    let count = |key: &str| runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum::<f64>();
    let correct = runs.iter().all(correct);
    let names = runs.iter().map(metric_names).find(|n| !n.is_empty()).unwrap_or_default();
    let metrics = names
        .iter()
        .map(|name| {
            let unit = runs.iter().find_map(|r| r.get("metrics")?.get(name)?.get("unit"));
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.get("median")?.as_f64())
                .collect();
            (name.clone(), summary(unit.and_then(Json::as_str).unwrap_or(""), &values))
        })
        .collect();
    let exact = runs[0].get("exact").cloned().unwrap_or(Json::Obj(Vec::new()));
    let exact_equal = runs.iter().all(|r| r.get("exact") == Some(&exact));
    Json::Obj(vec![
        ("runs".into(), Json::Num(runs.len() as f64)),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(count("attempted"))),
        ("failed".into(), Json::Num(count("failed"))),
        ("metrics".into(), Json::Obj(metrics)),
        ("exact".into(), exact),
        ("exact_equal".into(), Json::Bool(exact_equal)),
    ])
}

fn metric_names(entry: &Json) -> Vec<String> {
    entry
        .get("metrics")
        .and_then(Json::as_obj)
        .map(|fields| fields.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default()
}

fn workloads(doc: &Json) -> &[(String, Json)] {
    doc.get("workloads").and_then(Json::as_obj).unwrap_or(&[])
}

struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    values: Vec<f64>,
}

fn metric(entry: &Json, name: &str) -> Option<Summary> {
    let m = entry.get("metrics")?.get(name)?;
    let values: Vec<f64> = m.get("values")?.as_arr()?.iter().filter_map(Json::as_f64).collect();
    let num = |k: &str| m.get(k).and_then(Json::as_f64);
    Some(Summary { median: num("median")?, q1: num("q1")?, q3: num("q3")?, values })
}

/// Print a results file as `workload metric median unit` rows with the
/// quartiles, the spread (quartile distance over median) and the count.
pub fn print_table(doc: &Json) {
    for (w, entry) in workloads(doc) {
        for name in metric_names(entry) {
            let unit = entry.get("metrics").and_then(|m| m.get(&name)?.get("unit")?.as_str());
            if let Some(s) = metric(entry, &name) {
                println!(
                    "{w} {name} {} {} [q1 {} q3 {}] spread {:.4} n {}",
                    sig(s.median),
                    unit.unwrap_or(""),
                    sig(s.q1),
                    sig(s.q3),
                    spread(&s.values),
                    s.values.len()
                );
            }
        }
        if entry.get("exact_equal").and_then(Json::as_bool) == Some(false) {
            println!("{w} exact figures differ between runs");
        }
    }
}

/// Five significant digits.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (4 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

/// Validate a results file against the declaration: every workload in
/// `expected` is present and correct with no failed op, and has every
/// declared metric of its kind, in the declared unit, with finite
/// values — and no undeclared metric. Returns the problems found.
pub fn check(spec: &Spec, expected: &[String], doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(traced) = doc.get("traced").and_then(Json::as_bool) else {
        return vec!["not a results file: no \"traced\" flag".into()];
    };
    let declared = spec.metrics(traced);
    let entries = workloads(doc);
    for (w, _) in entries {
        if !spec.workloads.contains(w) {
            problems.push(format!("{w}: not a declared workload"));
        }
    }
    for w in expected {
        let Some((_, entry)) = entries.iter().find(|(name, _)| name == w) else {
            problems.push(format!("{w}: missing"));
            continue;
        };
        if !correct(entry) {
            problems.push(format!("{w}: outputs failed their checks"));
        }
        let failed = entry.get("failed").and_then(Json::as_f64);
        let attempted = entry.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        if failed != Some(0.0) || attempted < 1.0 {
            problems.push(format!("{w}: failed_frac is not 0 ({failed:?} of {attempted})"));
        }
        // Runs on different seeds do the same simulated work, so their
        // virtual times must agree bit for bit.
        if entry.get("exact_equal").and_then(Json::as_bool) == Some(false) {
            problems.push(format!("{w}: exact figures differ between runs"));
        }
        for m in declared {
            let unit = entry.get("metrics").and_then(|ms| ms.get(&m.name)?.get("unit")?.as_str());
            match (metric(entry, &m.name), unit) {
                (None, _) => problems.push(format!("{w}: {} missing", m.name)),
                (Some(_), u) if u != Some(m.unit.as_str()) => {
                    problems.push(format!("{w}: {} in {u:?}, declared {:?}", m.name, m.unit))
                }
                (Some(s), _) => {
                    let finite =
                        [s.median, s.q1, s.q3].iter().chain(&s.values).all(|v| v.is_finite());
                    if !finite || s.values.is_empty() {
                        problems.push(format!("{w}: {} has no finite value", m.name));
                    }
                }
            }
        }
        for name in metric_names(entry) {
            if !declared.iter().any(|m| m.name == name) {
                problems.push(format!("{w}: {name} is not declared"));
            }
        }
    }
    problems
}

/// The verdict on one (workload, metric) pair of a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is worse than the parent's by more than the bound.
    Worse,
    /// The change wins at least nine tenths of the pairs and the medians
    /// differ by more than the parent's quartile distance.
    Gain,
    /// The parent's spread is wider than the bound, so "no change" cannot
    /// be told from noise.
    Unresolved,
    Same,
}

/// Judge the change `b` against the parent `a` for one metric, by the
/// rules of the choosing-metrics guide (section 8): pairs are the i-th
/// values of each side.
pub fn verdict(better: Better, bound: Option<f64>, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let (q1, q3) = quartiles(a);
    let improves = |x: f64, y: f64| match better {
        Better::Lower => y < x,
        Better::Higher => y > x,
    };
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| improves(**x, **y)).count();
    let gain = pairs > 0 && wins * 10 >= pairs * 9 && improves(ma, mb) && (mb - ma).abs() > q3 - q1;
    let all_better = b.iter().all(|&y| a.iter().all(|&x| improves(x, y)));
    match bound {
        Some(bound) if worse_by > bound => Verdict::Worse,
        _ if gain => Verdict::Gain,
        Some(bound) if (q3 - q1) / ma.abs() > bound && !all_better => Verdict::Unresolved,
        _ => Verdict::Same,
    }
}

/// The direction of an exact (virtual-time) figure: candidates per
/// virtual second are better higher, virtual seconds lower.
fn exact_better(name: &str) -> Better {
    if name.ends_with("per_vs") {
        Better::Higher
    } else {
        Better::Lower
    }
}

/// Judge an exact figure. It repeats bit for bit, so its bound is 0: any
/// move in the wrong direction is worse, any in the right one a gain.
fn exact_verdict(better: Better, a: f64, b: f64) -> Verdict {
    let improves = match better {
        Better::Lower => b < a,
        Better::Higher => b > a,
    };
    if a.to_bits() == b.to_bits() {
        Verdict::Same
    } else if improves {
        Verdict::Gain
    } else {
        Verdict::Worse
    }
}

/// Failed ops over attempted ones; an entry without the counts counts as
/// all failed.
fn failed_frac(entry: &Json) -> f64 {
    let num = |k: &str| entry.get(k).and_then(Json::as_f64);
    num("failed").zip(num("attempted")).map_or(1.0, |(f, a)| f / a.max(1.0))
}

fn correct(entry: &Json) -> bool {
    entry.get("correct").and_then(Json::as_bool) == Some(true)
}

/// Compare two results files of the same kind, printing one row per
/// (workload, metric), then one per exact figure and the failed share.
/// Returns whether any pair is worse: a metric beyond its bound, an exact
/// figure moved the wrong way, more failed ops, or a figure the change
/// lacks.
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> Result<bool, String> {
    let traced = a.get("traced").and_then(Json::as_bool);
    if traced.is_none() || traced != b.get("traced").and_then(Json::as_bool) {
        return Err("compare two results files of the same kind (both traced or both not)".into());
    }
    let mut any_worse = false;
    println!(
        "workload metric unit | parent median [q1 q3] | change median [q1 q3] | delta verdict"
    );
    for (w, ea) in workloads(a) {
        let Some((_, eb)) = workloads(b).iter().find(|(name, _)| name == w) else {
            println!("{w}: only in the parent");
            any_worse = true;
            continue;
        };
        for m in spec.metrics(traced == Some(true)) {
            let (Some(sa), Some(sb)) = (metric(ea, &m.name), metric(eb, &m.name)) else {
                println!("{w} {}: missing on one side", m.name);
                any_worse |= metric(ea, &m.name).is_some();
                continue;
            };
            let v = verdict(m.better, m.bound, &sa.values, &sb.values);
            any_worse |= v == Verdict::Worse;
            println!(
                "{w} {} {} | {} [{} {}] | {} [{} {}] | {:+.2}% {v:?}",
                m.name,
                m.unit,
                sig(sa.median),
                sig(sa.q1),
                sig(sa.q3),
                sig(sb.median),
                sig(sb.q1),
                sig(sb.q3),
                (sb.median - sa.median) / sa.median.abs() * 100.0,
            );
        }
        let exact = |e: &Json| e.get("exact").and_then(Json::as_obj).unwrap_or(&[]).to_vec();
        let (xa, xb) = (exact(ea), exact(eb));
        for (name, va) in &xa {
            let vb = xb.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_f64());
            let (Some(va), Some(vb)) = (va.as_f64(), vb) else {
                println!("{w} exact.{name}: missing on one side");
                any_worse = true;
                continue;
            };
            let v = exact_verdict(exact_better(name), va, vb);
            any_worse |= v == Verdict::Worse;
            println!(
                "{w} exact.{name} - | {va} | {vb} | {:+.4}% {v:?}",
                (vb - va) / va.abs() * 100.0
            );
        }
        for (name, _) in xb.iter().filter(|(n, _)| !xa.iter().any(|(m, _)| m == n)) {
            println!("{w} exact.{name}: only in the change");
        }
        let (fa, fb) = (failed_frac(ea), failed_frac(eb));
        let v =
            if fb > fa || (correct(ea) && !correct(eb)) { Verdict::Worse } else { Verdict::Same };
        any_worse |= v == Verdict::Worse;
        println!("{w} failed_frac - | {fa} | {fb} | {v:?}");
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pair_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * f64::from(i)).collect();
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(Better::Lower, Some(0.1), &parent, &faster), Verdict::Gain);
        assert_eq!(verdict(Better::Lower, Some(0.1), &parent, &slower), Verdict::Worse);
        assert_eq!(verdict(Better::Higher, Some(0.1), &parent, &faster), Verdict::Worse);
        assert_eq!(verdict(Better::Lower, Some(0.1), &parent, &parent), Verdict::Same);
        let noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        assert_eq!(verdict(Better::Lower, Some(0.1), &noisy, &noisy), Verdict::Unresolved);
        // Without a bound (a per-layer metric) nothing is worse.
        assert_eq!(verdict(Better::Lower, None, &parent, &slower), Verdict::Same);
    }

    /// A passing untraced entry whose `setup_s` is in `unit`, with one
    /// exact figure.
    fn entry(spec: &Spec, unit: &str, virtual_s: f64) -> Json {
        let metrics = spec
            .end_to_end
            .iter()
            .map(|m| {
                let u = if m.name == "setup_s" { unit } else { m.unit.as_str() };
                (m.name.clone(), summary(u, &[1.0, 2.0]))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("attempted".into(), Json::Num(4.0)),
            ("failed".into(), Json::Num(0.0)),
            ("metrics".into(), Json::Obj(metrics)),
            ("exact".into(), Json::Obj(vec![("virtual_s".into(), Json::Num(virtual_s))])),
        ])
    }

    #[test]
    fn check_reports_missing_and_mislabelled_metrics() {
        let spec = crate::spec::spec().unwrap();
        let doc = |unit: &str| {
            let entries = spec.workloads.iter().map(|w| (w.clone(), entry(&spec, unit, 1.0)));
            results_doc(false, entries.collect())
        };
        let all = &spec.workloads;
        assert!(check(&spec, all, &doc("s")).is_empty());
        let bad = check(&spec, all, &doc("ms"));
        assert_eq!(bad.len(), all.len(), "{bad:?}");
        let partial = results_doc(false, vec![(all[0].clone(), entry(&spec, "s", 1.0))]);
        assert_eq!(check(&spec, all, &partial).len(), all.len() - 1);
        assert!(check(&spec, &all[..1], &partial).is_empty());
        // Runs whose virtual times differ fail the check.
        let runs = [entry(&spec, "s", 1.0), entry(&spec, "s", 1.5)];
        let split = results_doc(false, vec![(all[0].clone(), aggregate(&runs))]);
        assert_eq!(check(&spec, &all[..1], &split).len(), 1);
    }

    #[test]
    fn compare_judges_exact_figures_with_a_zero_bound() {
        let spec = crate::spec::spec().unwrap();
        let doc = |virtual_s: f64| {
            let e = entry(&spec, "s", virtual_s);
            results_doc(false, vec![(spec.workloads[0].clone(), e)])
        };
        assert_eq!(compare(&spec, &doc(2.0), &doc(2.0)), Ok(false));
        assert_eq!(compare(&spec, &doc(2.0), &doc(1.5)), Ok(false));
        assert_eq!(compare(&spec, &doc(2.0), &doc(2.0 + 1e-12)), Ok(true));
        assert_eq!(exact_verdict(exact_better("fleet.cands_per_vs"), 30.0, 29.0), Verdict::Worse);
        assert_eq!(exact_verdict(exact_better("virtual_s"), 30.0, 29.0), Verdict::Gain);
        // A workload whose run failed is worse however its figures read.
        let failed = results_doc(false, vec![(spec.workloads[0].clone(), failed_run())]);
        assert_eq!(compare(&spec, &doc(2.0), &failed), Ok(true));
    }

    #[test]
    fn a_failed_child_is_recorded_as_failed_not_read_from_an_old_file() {
        let spec = crate::spec::spec().unwrap();
        let scratch = std::env::temp_dir().join(format!("perf-ledger-{}", std::process::id()));
        let w = spec.workloads[0].clone();
        let old = scratch.join(format!("run-{w}-0.json"));
        let args = ChildArgs {
            workloads: std::slice::from_ref(&w),
            runs: 1,
            seed: 1,
            seconds: 0.0,
            traced: false,
            smoke: true,
        };
        // `false` exits with 1 and `true` with 0; neither writes a file.
        for exe in ["false", "true"] {
            // A passing entry from an earlier invocation.
            write(&old, &results_doc(false, vec![(w.clone(), entry(&spec, "s", 1.0))])).unwrap();
            let doc = run_children(&args, Path::new(exe), &scratch).unwrap();
            assert!(!old.exists(), "{exe}");
            let problems = check(&spec, std::slice::from_ref(&w), &doc);
            assert!(problems.iter().any(|p| p.contains("failed their checks")), "{problems:?}");
        }
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}
