//! The fixture corpus gate plus determinism and workspace-cleanliness
//! tests. Each `tests/fixtures/<name>/` directory is a known-bad (or
//! known-good) mini-crate with a `spmdlint.role` marker and an `EXPECT`
//! file of `rule:line` entries; the corpus asserts every expected rule
//! fires at its expected line, and that the known-good idioms stay
//! silent.

use std::path::PathBuf;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn fixture(name: &str) -> spmdlint::Report {
    spmdlint::analyze(&fixtures_dir().join(name)).unwrap()
}

#[test]
fn every_fixture_expectation_fires() {
    let results = spmdlint::check_fixtures(&fixtures_dir()).unwrap();
    assert_eq!(results.len(), 22, "fixture corpus changed size: {:?}", results.keys());
    for (name, missing) in &results {
        assert!(missing.is_empty(), "fixture {name}: {missing:?}");
    }
}

#[test]
fn divergence_fixture_exact_findings() {
    let report = fixture("bad_divergence");
    let got: Vec<(usize, &str, &str)> =
        report.findings.iter().map(|f| (f.line, f.rule, f.culprit.as_str())).collect();
    assert_eq!(
        got,
        vec![
            (7, "collective-divergence", "barrier"),
            (17, "collective-divergence", "barrier"),
            (28, "collective-divergence", "helper"),
            (42, "collective-divergence", "maybe_sync(#1)"),
        ]
    );
    // The taint traces name the source.
    assert!(report.findings[0].taint_trace[0].contains("rank()"));
    assert!(report.findings[1].taint_trace[0].contains("early exit"));
}

#[test]
fn a_helper_of_a_crate_without_mpsim_joins_no_collective_chain() {
    // The same sources twice; only the kernel crate's manifest differs.
    // Listing mpsim, its `block -> gather` merges with the simulator's
    // same-named functions and the rank-gated post reaches a collective.
    let got = |name: &str| -> Vec<(String, usize, String)> {
        let report = fixture(name);
        report.findings.iter().map(|f| (f.file.clone(), f.line, f.culprit.clone())).collect()
    };
    assert_eq!(got("bad_kernel_helper"), vec![("app/src/lib.rs".into(), 7, "post".into())]);
    assert_eq!(got("clean_kernel_helper"), vec![]);
}

#[test]
fn subcomm_exemption_does_not_leak_to_the_parent() {
    let report = fixture("bad_fleet_divergence");
    let got: Vec<(usize, &str, &str)> =
        report.findings.iter().map(|f| (f.line, f.rule, f.culprit.as_str())).collect();
    // The gated splits on the parent and the post-secede world barrier
    // fire; the sub-communicator collectives between them stay silent.
    assert_eq!(
        got,
        vec![
            (11, "collective-divergence", "split"),
            (25, "collective-divergence", "barrier"),
            (32, "collective-divergence", "split"),
        ]
    );
}

#[test]
fn a_split_child_argument_is_a_group_call_and_the_world_is_not() {
    // One helper whose collectives run on its `comm` parameter: clean on
    // the survivors' group (`clean_split_child_argument`), divergent on
    // the world under a rank branch and after the secede.
    let report = fixture("bad_world_argument");
    let got: Vec<(usize, &str, &str)> =
        report.findings.iter().map(|f| (f.line, f.rule, f.culprit.as_str())).collect();
    assert_eq!(
        got,
        vec![
            (14, "collective-divergence", "seed_and_sync"),
            (27, "collective-divergence", "seed_and_sync"),
        ]
    );
}

#[test]
fn split_colors_must_not_read_the_rank() {
    // The payload exemption `split` once had is gone: its color function
    // is a collective argument, checked like a root.
    let report = fixture("bad_split_colors");
    let got: Vec<(usize, &str, &str)> =
        report.findings.iter().map(|f| (f.line, f.rule, f.culprit.as_str())).collect();
    assert_eq!(
        got,
        vec![
            (9, "rank-variant-payload", "split(rank())"),
            (16, "rank-variant-payload", "parity"),
            (22, "rank-variant-payload", "split(rank())"),
        ]
    );
    assert!(report.findings[1].taint_trace[0].contains("rank()"));
}

#[test]
fn unwaited_fixture_covers_every_exit_kind() {
    let report = fixture("bad_unwaited");
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("discarded without being bound")));
    assert!(msgs.iter().any(|m| m.contains("before return")));
    assert!(msgs.iter().any(|m| m.contains("before `?` exit")));
    assert!(msgs.iter().any(|m| m.contains("end of the loop body")));
}

#[test]
fn payload_fixture_names_the_culprits() {
    let report = fixture("bad_payload");
    let culprits: Vec<&str> = report.findings.iter().map(|f| f.culprit.as_str()).collect();
    assert_eq!(culprits, vec!["mine", "r", "broadcast_f64s(rank())"]);
}

#[test]
fn legacy_rules_fire_with_historic_ids() {
    let report = fixture("bad_legacy");
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["wall-clock", "unwrap", "float-eq", "recv-unwrap", "unwrap"]);
}

#[test]
fn discarded_recovery_names_the_dropped_call() {
    let report = fixture("bad_discarded_recovery");
    let got: Vec<(usize, &str)> = report.findings.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(
        got,
        vec![(20, "discarded-recovery"), (21, "discarded-recovery"), (22, "discarded-recovery")]
    );
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs[0].contains("recv_f64s"));
    assert!(msgs[1].contains("wait"));
    assert!(msgs[2].contains("promote_spare"));
}

#[test]
fn fma_fires_on_fused_ops_and_not_on_lookalikes() {
    let report = fixture("bad_fma");
    let got: Vec<(usize, &str, &str, bool)> =
        report.findings.iter().map(|f| (f.line, f.rule, f.culprit.as_str(), f.waived)).collect();
    assert_eq!(
        got,
        vec![
            (6, "fma", "mul_add", false),
            (10, "fma", "enable = \"fma\"", false),
            (12, "fma", "_mm256_fmadd_pd", false),
            (13, "fma", "_mm256_fnmsub_pd", false),
            (27, "fma", "mul_add", true),
        ]
    );
}

#[test]
fn clean_fixtures_stay_silent() {
    for name in [
        "clean_spmd",
        "clean_hygiene",
        "clean_trait_spmd",
        "clean_fleet_subsearch",
        "clean_standby_supervisor",
        "clean_split_child_argument",
    ] {
        let report = fixture(name);
        assert!(
            report.findings.is_empty(),
            "{name} should be clean, got: {:?}",
            report
                .findings
                .iter()
                .map(|f| format!("{}:{} {}", f.file, f.line, f.rule))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn both_waiver_forms_report_but_do_not_fail() {
    let report = fixture("waived_ok");
    assert_eq!(report.findings.len(), 2);
    assert!(report.findings.iter().all(|f| f.waived));
    assert_eq!(report.unwaivered_errors(), 0);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    // One inline `lint:allow`, one `spmdlint.waivers` entry.
    assert_eq!(rules, vec!["blocking-collective", "phase-balance"]);
}

#[test]
fn json_is_byte_identical_across_runs() {
    let dir = fixtures_dir().join("bad_divergence");
    let a = spmdlint::analyze(&dir).unwrap().to_json();
    let b = spmdlint::analyze(&dir).unwrap().to_json();
    assert_eq!(a, b);
    assert!(a.contains("\"version\": 1"));
    assert!(a.contains("\"unwaivered_errors\": 4"));
}

#[test]
fn workspace_json_is_byte_identical_across_runs() {
    let root = workspace_root();
    let a = spmdlint::analyze(&root).unwrap().to_json();
    let b = spmdlint::analyze(&root).unwrap().to_json();
    assert_eq!(a, b);
}

#[test]
fn workspace_has_no_unwaivered_errors() {
    let report = spmdlint::analyze(&workspace_root()).unwrap();
    let bad: Vec<String> = report
        .findings
        .iter()
        .filter(|f| !f.waived && f.severity == spmdlint::Severity::Error)
        .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(bad.is_empty(), "unwaivered errors in the workspace:\n{}", bad.join("\n"));
    assert!(report.files_scanned > 50, "workspace scan looks truncated");
    assert!(report.functions > 500, "function extraction looks truncated");
}

#[test]
fn findings_are_sorted_and_deduped() {
    let report = spmdlint::analyze(&workspace_root()).unwrap();
    let keys: Vec<(&str, usize, &str, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule, f.message.as_str()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(keys, sorted);
}
