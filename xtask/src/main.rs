//! Repository automation (`cargo xtask <task>`).
//!
//! * `lint` — the project's custom static rules, run on the `spmdlint`
//!   AST engine (see below). Prints the classic `file:line: [rule] …`
//!   format and fails on any unwaivered violation.
//! * `analyze` — the full SPMD static analysis: everything `lint` checks
//!   plus the rank-taint rules (collective-divergence, unwaited-request,
//!   phase-balance, rank-variant-payload, nondet), with JSON output for
//!   CI. See `cargo xtask analyze --help` equivalent flags below.
//! * `report` — regenerate every table in EXPERIMENTS.md: the verified
//!   paper series (per-phase time, speedup, efficiency, critical path)
//!   with its native column, Fig 6–8, the in-text claims, the ablations
//!   and the fleet table, each with its gates, then the robustness
//!   sweeps: every injected fault kind × recovery policy × processor
//!   count must either recover bit-identically or surface a typed error
//!   naming the correct culprit. See the `report` and `faultmatrix`
//!   module docs for flags and gates.
//! * `asm` — disassemble the release `autoclass-cli` and check the E/M
//!   kernels' wide instances: packed pass-B clamps, no outlined
//!   intrinsic (see the `asm` module docs).
//!
//! # Rules
//!
//! The rule set lives in `crates/spmdlint` (each rule's rationale is
//! documented there). The legacy five — **wall-clock**, **unwrap**,
//! **float-eq**, **blocking-collective**, **recv-unwrap** — keep their
//! historical IDs, scopes, and `// lint:allow(rule): why` waiver comments,
//! but now run on a real token/AST pass, so comments, strings, and
//! doc-tests can no longer false-positive. The SPMD taint rules —
//! **collective-divergence**, **unwaited-request**, **phase-balance**,
//! **rank-variant-payload**, **nondet** — guard the replication invariant
//! the runtime verifier (PR 1) checks per run, at build time instead.
//!
//! `analyze` flags:
//!
//! * `--check` — exit nonzero if any unwaivered error-severity finding
//!   remains (warnings are informational; test code is downgraded).
//! * `--out PATH` — write the sorted, deterministic JSON report.
//! * `--fixtures` — also run the known-bad fixture corpus under
//!   `crates/spmdlint/tests/fixtures` and fail unless every expected
//!   rule fires at its expected line.
//! * `--root DIR` — analyze a different root (used by the corpus).

mod asm;
mod faultmatrix;
mod report;
mod sections;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("analyze") => analyze(&args[1..]),
        Some("report") => report::report(&args[1..]),
        Some("asm") => asm::asm(),
        _ => {
            eprintln!(
                "usage: cargo xtask lint \
                 | analyze [--check] [--out PATH] [--fixtures] [--root DIR] \
                 | report [--smoke] [--full] [--largep] [--out DIR] [--check PATH] \
                 | asm"
            );
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: the parent of xtask's own manifest directory, so
/// the pass works from any cwd (`cargo xtask` runs it from the workspace,
/// but a direct `cargo run -p xtask` from a subdirectory is fine too).
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

/// The legacy lint gate: the five historical rules, old output format,
/// unwaivered errors only. (`analyze` is the superset.)
fn lint() -> ExitCode {
    const LEGACY: &[&str] = &[
        spmdlint::WALL_CLOCK,
        spmdlint::UNWRAP,
        spmdlint::FLOAT_EQ,
        spmdlint::BLOCKING_COLLECTIVE,
        spmdlint::RECV_UNWRAP,
    ];
    let report = match spmdlint::analyze(&repo_root()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let violations: Vec<_> = report
        .findings
        .iter()
        .filter(|f| {
            !f.waived && f.severity == spmdlint::Severity::Error && LEGACY.contains(&f.rule)
        })
        .collect();
    if violations.is_empty() {
        println!("xtask lint: ok");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
        }
        println!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn analyze(args: &[String]) -> ExitCode {
    let mut check = false;
    let mut fixtures = false;
    let mut out_path: Option<PathBuf> = None;
    let mut root = repo_root();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--fixtures" => fixtures = true,
            "--out" => match it.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xtask analyze: --out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("xtask analyze: --root needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("xtask analyze: unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = match spmdlint::analyze(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &report.findings {
        let tag = if f.waived { " (waived)" } else { "" };
        println!("{}:{}: {} [{}]{} {}", f.file, f.line, f.severity, f.rule, tag, f.message);
        for t in &f.taint_trace {
            println!("    taint: {t}");
        }
    }
    println!(
        "xtask analyze: {} file(s), {} function(s), {} finding(s) \
         ({} unwaivered error(s), {} warning(s))",
        report.files_scanned,
        report.functions,
        report.findings.len(),
        report.unwaivered_errors(),
        report.warnings()
    );
    if let Some(p) = &out_path {
        if let Err(e) = std::fs::write(p, report.to_json()) {
            eprintln!("xtask analyze: write {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
        println!("xtask analyze: wrote {}", p.display());
    }

    let mut failed = check && report.unwaivered_errors() > 0;

    if fixtures {
        let dir = repo_root().join("crates/spmdlint/tests/fixtures");
        match spmdlint::check_fixtures(&dir) {
            Ok(results) => {
                for (name, missing) in &results {
                    if missing.is_empty() {
                        println!("fixture {name}: ok");
                    } else {
                        failed = true;
                        for m in missing {
                            println!("fixture {name}: MISSING {m}");
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("xtask analyze: fixtures: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
