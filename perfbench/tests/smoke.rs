//! Smoke test of `perf`: every workload at its tiny `--smoke` size, run
//! one workload per process as `BENCHMARK.json`'s command runs it, and
//! every workload at once.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;

fn perf(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("perf starts")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn declared(kind: &str) -> Vec<String> {
    let spec = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let list = spec.get(kind).and_then(Json::as_arr).expect("metric list");
    list.iter().map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string()).collect()
}

fn names(obj: &Json) -> Vec<String> {
    obj.as_obj().expect("object").iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn one_run_prints_the_result_line_last() {
    let dir = scratch("one_run");
    let out = perf(
        &dir,
        &[
            "run",
            "--workload",
            "recovery-p64",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--smoke",
        ],
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
    assert_eq!(names(&last), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));
    assert_eq!(names(last.get("metrics").unwrap()), declared("end_to_end"));
}

#[test]
fn every_workload_runs_checks_and_repeats_its_virtual_time() {
    let dir = scratch("all");
    let out = perf(&dir, &["run", "--smoke", "--runs", "2", "--out", "results.json"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let doc = json::parse(&std::fs::read_to_string(dir.join("results.json")).unwrap()).unwrap();
    let workloads = doc.get("workloads").unwrap();
    assert_eq!(names(workloads).len(), 4);
    for (name, entry) in workloads.as_obj().unwrap() {
        assert_eq!(names(entry.get("metrics").unwrap()), declared("end_to_end"), "{name}");
        // Two runs on different seeds do the same simulated work: their
        // virtual times agree bit for bit.
        assert_eq!(entry.get("exact_equal").and_then(Json::as_bool), Some(true), "{name}");
        let virtual_s = entry.get("exact").and_then(|e| e.get("virtual_s")).and_then(Json::as_f64);
        assert!(virtual_s.is_some_and(|v| v > 0.0), "{name}");
    }
    let check = perf(&dir, &["check", "results.json"]);
    assert!(check.status.success(), "{}", String::from_utf8_lossy(&check.stdout));
}

#[test]
fn a_traced_run_reports_every_layer_and_writes_spans() {
    let dir = scratch("traced");
    let out = perf(&dir, &["run", "--smoke", "--trace", "--out", "traced.json"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let doc = json::parse(&std::fs::read_to_string(dir.join("traced.json")).unwrap()).unwrap();
    for (name, entry) in doc.get("workloads").unwrap().as_obj().unwrap() {
        assert_eq!(names(entry.get("metrics").unwrap()), declared("per_layer"), "{name}");
        let trace = dir.join("target/perf").join(format!("trace-{name}.json"));
        let spans = json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
        assert!(!spans.get("spans").unwrap().as_arr().unwrap().is_empty(), "{name}");
    }
    let check = perf(&dir, &["check", "traced.json"]);
    assert!(check.status.success(), "{}", String::from_utf8_lossy(&check.stdout));
}

#[test]
fn compare_flags_a_regression() {
    let dir = scratch("compare");
    let entry = |scale: f64| {
        let metrics = declared("end_to_end")
            .into_iter()
            .map(|m| {
                let values: Vec<Json> =
                    (0..10).map(|i| Json::Num(scale * (1.0 + 0.001 * f64::from(i)))).collect();
                let unit = if m == "peak_heap_mib" { "MiB" } else { "s" };
                let s = Json::Obj(vec![
                    ("unit".into(), Json::Str(unit.into())),
                    ("median".into(), Json::Num(scale * 1.0045)),
                    ("q1".into(), Json::Num(scale * 1.002)),
                    ("q3".into(), Json::Num(scale * 1.007)),
                    ("n".into(), Json::Num(10.0)),
                    ("values".into(), Json::Arr(values)),
                ]);
                (m, s)
            })
            .collect();
        let w = Json::Obj(vec![("metrics".into(), Json::Obj(metrics))]);
        Json::Obj(vec![
            ("traced".into(), Json::Bool(false)),
            ("workloads".into(), Json::Obj(vec![("paper-p8".into(), w)])),
        ])
    };
    std::fs::write(dir.join("a.json"), entry(1.0).to_compact()).unwrap();
    std::fs::write(dir.join("b.json"), entry(1.5).to_compact()).unwrap();
    let same = perf(&dir, &["compare", "a.json", "a.json"]);
    assert!(same.status.success());
    let worse = perf(&dir, &["compare", "a.json", "b.json"]);
    assert!(!worse.status.success());
    assert!(String::from_utf8_lossy(&worse.stdout).contains("Worse"));
}
