//! `spmdlint` — static analysis for the SPMD invariants the paper's
//! parallel EM search depends on.
//!
//! The PR 1 runtime verifier proves collective-sequence replication
//! *per run*; this crate proves the same invariants *per build* by
//! parsing the whole workspace (via the vendored `syn` stand-in),
//! building per-function summaries plus an interprocedural call graph,
//! and running a rank-taint walk over every function body.
//!
//! # Rules
//!
//! New SPMD rules (this crate's reason to exist):
//!
//! * **collective-divergence** — no collective call site (`allreduce*`,
//!   `barrier`, `broadcast*`, `gather*`, `split*`, …) may be reachable
//!   under a branch whose condition is tainted by `rank()`, including
//!   via the *post-dominator* form (a rank-dependent early `return`
//!   leaves the rest of the function divergent) and via calls to
//!   functions whose summaries reach a collective.
//! * **unwaited-request** — every `isend`/`irecv`/`iallreduce` handle
//!   must be waited on all control-flow paths, including early-`return`
//!   and `?` exits; a request expression that is never bound is an
//!   immediate finding.
//! * **phase-balance** — `enter_phase`/`exit_phase` must balance along
//!   every path, across branches, and per loop iteration.
//! * **rank-variant-payload** — length/count expressions at collective
//!   call sites must not be rank-tainted (divergent payload *shapes*
//!   deadlock or corrupt the reduction even when the sequence matches).
//! * **nondet** — simulator-core code must not use `HashMap`/`HashSet`
//!   (iteration order), or `thread_rng` (unseeded randomness). Wall-clock
//!   reads (`Instant`/`SystemTime`) are the migrated wall-clock rule's
//!   business, so they are not double-reported here.
//! * **discarded-recovery** — supervisor code (the fault-tolerant
//!   drivers) must not drop a receive/wait/promotion result with
//!   `let _ = …`: under injected faults those results are the failure
//!   diagnoses recovery decisions are made from, so discarding one
//!   silently skips a recovery path.
//!
//! * **fma** — kernel code (`crates/autoclass`) must not fuse a multiply
//!   and an add: no `mul_add`, no `*fmadd*`/`*fmsub*` intrinsic and no
//!   `enable = "fma"`. A fused op rounds once where the unfused pair
//!   rounds twice, so the instance that used it would leave the bits
//!   every other instance and every earlier commit compute, and a runner
//!   without that ISA could not see it.
//!
//! Migrated `xtask lint` rules, same IDs and waiver comments as the old
//! regex pass, now on the token stream (comments, strings, and doc-tests
//! can no longer false-positive): **wall-clock**, **unwrap**,
//! **float-eq**, **blocking-collective**, **recv-unwrap**.
//!
//! # Crate scope
//!
//! Calls resolve by bare name, so a function that shares a name with one
//! on a collective chain joins that chain. A crate whose manifest
//! neither is `mpsim` nor lists it among its dependencies (the kernels'
//! `autoclass`, `datagen`) has no communicator to call a collective on:
//! its functions are left out of the summaries, so none gets a
//! collective chain or lends its callees to a same-named `mpsim`
//! function, and the collective rules (the taint walk,
//! blocking-collective) skip its files. A file under no manifest is
//! assumed to reach one.
//!
//! # Waivers
//!
//! Two forms, both preserved in the JSON output with `"waived": true`:
//!
//! * inline: `// lint:allow(<rule>): why` on the finding line or the
//!   line above (the old `xtask lint` format, unchanged);
//! * the checked-in `spmdlint.waivers` file at the repo root:
//!   `<rule> <path-prefix> — <justification>` per line.
//!
//! # Output
//!
//! [`Report::to_json`] emits findings sorted by (file, line, rule,
//! message) with a hand-rolled encoder and `BTreeMap`-only internals, so
//! two runs over the same tree are byte-identical.

#![forbid(unsafe_code)]

mod stream;
mod summary;
mod walk;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub use summary::{FnInfo, Summaries};

/// Rule identifiers (stable; they appear in waivers and CI output).
pub const COLLECTIVE_DIVERGENCE: &str = "collective-divergence";
pub const UNWAITED_REQUEST: &str = "unwaited-request";
pub const PHASE_BALANCE: &str = "phase-balance";
pub const RANK_VARIANT_PAYLOAD: &str = "rank-variant-payload";
pub const NONDET: &str = "nondet";
pub const DISCARDED_RECOVERY: &str = "discarded-recovery";
pub const FMA: &str = "fma";
pub const WALL_CLOCK: &str = "wall-clock";
pub const UNWRAP: &str = "unwrap";
pub const FLOAT_EQ: &str = "float-eq";
pub const BLOCKING_COLLECTIVE: &str = "blocking-collective";
pub const RECV_UNWRAP: &str = "recv-unwrap";

/// The mpsim collective operations: call sites that must be reached by
/// every rank of the communicator, in the same order.
pub const COLLECTIVES: &[&str] = &[
    "allgather_f64s",
    "allreduce_f64s",
    "allreduce_f64s_with",
    "allreduce_scalar",
    "barrier",
    "broadcast_f64s",
    "gather_f64s",
    "iallreduce_f64s",
    "iallreduce_f64s_with",
    "split",
    "verify_replicated",
];

/// Functions returning a `Request` handle that must be waited.
pub const REQUEST_FNS: &[&str] =
    &["iallreduce_f64s", "iallreduce_f64s_with", "irecv_f64s", "isend_f64s"];

/// Collectives whose *result* (and in-place buffer) is replicated on
/// every rank: binding their value launders rank taint away. This is the
/// static mirror of the runtime replication invariant.
pub const SANITIZERS: &[&str] = &[
    "allgather_f64s",
    "allreduce_f64s",
    "allreduce_f64s_with",
    "allreduce_scalar",
    "broadcast_f64s",
];

/// The blocking collectives the legacy loop rule watches (kept exactly
/// as the old regex pass had it).
pub const BLOCKING_SET: &[&str] = &["allreduce_f64s", "broadcast_f64s", "gather_f64s"];

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One diagnostic.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Repo-relative path, forward slashes.
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub severity: Severity,
    pub message: String,
    /// The offending expression or identifier, compactly rendered.
    pub culprit: String,
    /// How rank taint reached the finding, one hop per entry.
    pub taint_trace: Vec<String>,
    pub waived: bool,
}

/// Analysis results for one root.
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    pub functions: usize,
}

impl Report {
    pub fn unwaivered_errors(&self) -> usize {
        self.findings.iter().filter(|f| !f.waived && f.severity == Severity::Error).count()
    }

    pub fn warnings(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Warning).count()
    }

    /// Deterministic JSON: findings pre-sorted, keys in fixed order.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"version\": 1,\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!("\n      \"file\": \"{}\",", json_escape(&f.file)));
            s.push_str(&format!("\n      \"line\": {},", f.line));
            s.push_str(&format!("\n      \"rule\": \"{}\",", json_escape(f.rule)));
            s.push_str(&format!("\n      \"severity\": \"{}\",", f.severity));
            s.push_str(&format!("\n      \"message\": \"{}\",", json_escape(&f.message)));
            s.push_str(&format!("\n      \"culprit\": \"{}\",", json_escape(&f.culprit)));
            s.push_str("\n      \"taint_trace\": [");
            for (j, t) in f.taint_trace.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{}\"", json_escape(t)));
            }
            s.push_str("],");
            s.push_str(&format!("\n      \"waived\": {}", f.waived));
            s.push_str("\n    }");
        }
        s.push_str("\n  ],\n  \"summary\": {");
        s.push_str(&format!("\n    \"errors\": {},", count(&self.findings, Severity::Error)));
        s.push_str(&format!("\n    \"warnings\": {},", count(&self.findings, Severity::Warning)));
        s.push_str(&format!(
            "\n    \"waived\": {},",
            self.findings.iter().filter(|f| f.waived).count()
        ));
        s.push_str(&format!("\n    \"unwaivered_errors\": {},", self.unwaivered_errors()));
        s.push_str(&format!("\n    \"files_scanned\": {},", self.files_scanned));
        s.push_str(&format!("\n    \"functions\": {}", self.functions));
        s.push_str("\n  }\n}\n");
        s
    }
}

fn count(fs: &[Finding], sev: Severity) -> usize {
    fs.iter().filter(|f| f.severity == sev).count()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Scoping: which rules apply to which file, at what severity
// ---------------------------------------------------------------------------

/// Per-file rule applicability. `None` = rule off; otherwise the severity
/// for non-test code (test code downgrades new rules to `Warning` and
/// switches legacy rules off, matching the old lint's test exemption).
#[derive(Clone, Copy, Default)]
pub struct FileRules {
    /// collective-divergence, unwaited-request, phase-balance,
    /// rank-variant-payload (the taint walk).
    pub spmd: Option<Severity>,
    pub blocking_collective: Option<Severity>,
    pub nondet: bool,
    pub wall_clock: bool,
    pub unwrap: bool,
    pub recv_unwrap: bool,
    pub float_eq: bool,
    /// discarded-recovery: supervisor code must not `let _ = …` a
    /// receive/wait/promotion result.
    pub discarded_recovery: bool,
    /// fma: kernel code must not fuse a multiply and an add.
    pub fma: bool,
}

impl FileRules {
    fn any(&self) -> bool {
        self.spmd.is_some()
            || self.blocking_collective.is_some()
            || self.nondet
            || self.wall_clock
            || self.unwrap
            || self.recv_unwrap
            || self.float_eq
            || self.discarded_recovery
            || self.fma
    }
}

/// The workspace scope table. `rel` is repo-relative with forward
/// slashes.
///
/// * SPMD taint rules guard *rank-body* code: `pautoclass/src`, the root
///   `src/`, `examples/`, and `xtask/src` at error severity; test trees
///   at warning (deliberately divergent deadlock tests are expected
///   there). `mpsim/src` is exempt — it *implements* the primitives.
/// * `nondet` guards simulator-core code: `mpsim/src`, `pautoclass/src`
///   and `shmcomm/src` (the native backend's collectives carry the same
///   bitwise-determinism contract as the simulator's).
/// * `fma` guards the bitwise-pinned kernels: everything under
///   `crates/autoclass`.
/// * The legacy rules keep their historical scopes exactly;
///   `blocking-collective` additionally covers tests/examples at
///   warning severity.
pub fn workspace_rules(rel: &str) -> FileRules {
    let mut r = FileRules::default();
    if rel.starts_with("vendor/")
        || rel.starts_with("target/")
        || rel.contains("/fixtures/")
        || rel.starts_with("crates/spmdlint/")
    {
        return r;
    }
    let is_test_tree =
        rel.starts_with("tests/") || rel.contains("/tests/") || rel.contains("/benches/");
    let rank_body = rel.starts_with("crates/pautoclass/src")
        || rel.starts_with("examples/")
        || rel.starts_with("src/")
        || rel.starts_with("xtask/src");
    if rank_body {
        r.spmd = Some(Severity::Error);
    } else if is_test_tree {
        r.spmd = Some(Severity::Warning);
    }
    r.nondet = (rel.starts_with("crates/mpsim/src")
        || rel.starts_with("crates/pautoclass/src")
        || rel.starts_with("crates/shmcomm/src"))
        && !is_test_tree;
    r.wall_clock = (rel.starts_with("crates/mpsim/src")
        || rel.starts_with("crates/pautoclass/src"))
        && !rel.ends_with("comm.rs");
    r.unwrap = (rel.starts_with("crates/") && rel.contains("/src/") || rel.starts_with("src/"))
        && !rel.contains("src/bin/")
        && !rel.ends_with("main.rs")
        && !is_test_tree;
    r.recv_unwrap = rel.starts_with("crates/mpsim/src")
        || rel.starts_with("crates/pautoclass/src")
        || rel.starts_with("crates/shmcomm/src");
    r.float_eq =
        rel.starts_with("crates/autoclass/src") || rel.starts_with("crates/pautoclass/src");
    // Supervisor code: the fault-tolerant drivers whose receive/wait/
    // promotion results *are* the recovery diagnoses.
    r.fma = rel.starts_with("crates/autoclass/");
    r.discarded_recovery = rel == "crates/pautoclass/src/recover.rs"
        || rel == "crates/pautoclass/src/fleet.rs"
        || rel == "crates/pautoclass/src/driver.rs";
    if rel.starts_with("crates/pautoclass/src") {
        r.blocking_collective = Some(Severity::Error);
    } else if is_test_tree || rel.starts_with("examples/") {
        r.blocking_collective = Some(Severity::Warning);
    }
    r
}

/// Fixture-corpus scope: a `spmdlint.role` marker applies one role to
/// every file under the root.
pub fn role_rules(role: &str) -> FileRules {
    let mut r = FileRules::default();
    match role {
        // Parallel rank-body code: the taint walk plus the loop rule.
        "rank-body" => {
            r.spmd = Some(Severity::Error);
            r.blocking_collective = Some(Severity::Error);
        }
        // Simulator-core code: determinism and the legacy hygiene rules.
        "sim-core" => {
            r.nondet = true;
            r.wall_clock = true;
            r.unwrap = true;
            r.recv_unwrap = true;
            r.float_eq = true;
        }
        // Fault-tolerant supervisor code: recovery results must be
        // acted on, never dropped.
        "supervisor" => {
            r.discarded_recovery = true;
        }
        // Bitwise-pinned kernel code: no fused multiply-add.
        "kernel" => {
            r.fma = true;
        }
        _ => {}
    }
    r
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct SourceFile {
    rel: String,
    lines: Vec<String>,
    parsed: syn::File,
    rules: FileRules,
    /// Whether the file's crate can reach a communicator (see the crate
    /// docs' "Crate scope").
    spmd_crate: bool,
}

/// Analyze a root directory. If `<root>/spmdlint.role` exists, its
/// contents name a fixture role applied to every file; otherwise the
/// workspace scope table is used. Waivers come from inline comments and
/// `<root>/spmdlint.waivers`.
pub fn analyze(root: &Path) -> Result<Report, String> {
    let role = std::fs::read_to_string(root.join("spmdlint.role")).ok();
    let waivers = FileWaivers::load(root);
    let mut manifests = BTreeMap::new();
    let mut files = Vec::new();
    for path in rust_files(root) {
        let rel = relpath(root, &path);
        let mut rules = match &role {
            Some(r) => role_rules(r.trim()),
            None => workspace_rules(&rel),
        };
        // Parse summaries from everything in scope-adjacent dirs, but
        // skip entirely out-of-tree sources.
        if rel.starts_with("vendor/")
            || rel.starts_with("target/")
            || (role.is_none() && rel.contains("/fixtures/"))
        {
            continue;
        }
        let src =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let parsed = syn::parse_file(&src).map_err(|e| format!("parse {rel}: {e}"))?;
        let lines = src.lines().map(str::to_string).collect();
        let spmd_crate = crate_reaches_mpsim(root, &path, &mut manifests);
        if !spmd_crate {
            rules.spmd = None;
            rules.blocking_collective = None;
        }
        files.push(SourceFile { rel, lines, parsed, rules, spmd_crate });
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));

    // Interprocedural summaries over every function a communicator can
    // reach.
    let all_fns: Vec<(&str, &syn::ItemFn)> = files
        .iter()
        .filter(|f| f.spmd_crate)
        .flat_map(|f| f.parsed.fns.iter().map(move |i| (f.rel.as_str(), i)))
        .collect();
    let summaries = Summaries::build(&all_fns);

    let mut findings = Vec::new();
    let mut functions = 0;
    for f in &files {
        if !f.rules.any() {
            continue;
        }
        functions += f.parsed.fns.len();
        let mut raw = Vec::new();
        stream::scan_stream(&f.parsed, &f.rules, &mut raw);
        if f.rules.spmd.is_some() || f.rules.blocking_collective.is_some() {
            for item in &f.parsed.fns {
                walk::walk_fn(item, &summaries, &f.rules, &mut raw);
            }
        }
        for mut r in raw {
            r.waived = inline_waived(&f.lines, r.line, r.rule) || waivers.covers(r.rule, &f.rel);
            findings.push(Finding {
                file: f.rel.clone(),
                line: r.line,
                rule: r.rule,
                severity: r.severity,
                message: r.message,
                culprit: r.culprit,
                taint_trace: r.taint_trace,
                waived: r.waived,
            });
        }
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    findings.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.message == b.message
    });
    Ok(Report { findings, files_scanned: files.len(), functions })
}

/// A finding before file attribution (produced by the scanners).
pub(crate) struct RawFinding {
    pub line: usize,
    pub rule: &'static str,
    pub severity: Severity,
    pub message: String,
    pub culprit: String,
    pub taint_trace: Vec<String>,
    pub waived: bool,
}

impl RawFinding {
    pub(crate) fn new(
        line: usize,
        rule: &'static str,
        severity: Severity,
        message: String,
        culprit: String,
    ) -> Self {
        RawFinding {
            line,
            rule,
            severity,
            message,
            culprit,
            taint_trace: Vec::new(),
            waived: false,
        }
    }
}

fn inline_waived(lines: &[String], line: usize, rule: &str) -> bool {
    let pat = format!("lint:allow({rule})");
    let at = |n: usize| lines.get(n.wrapping_sub(1)).is_some_and(|l| l.contains(&pat));
    at(line) || (line > 1 && at(line - 1))
}

/// Entries from `spmdlint.waivers`: `<rule> <path-prefix> — why`.
struct FileWaivers {
    entries: Vec<(String, String)>,
}

impl FileWaivers {
    fn load(root: &Path) -> Self {
        let text = std::fs::read_to_string(root.join("spmdlint.waivers")).unwrap_or_default();
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            if let (Some(rule), Some(path)) = (parts.next(), parts.next()) {
                entries.push((rule.to_string(), path.to_string()));
            }
        }
        FileWaivers { entries }
    }

    fn covers(&self, rule: &str, rel: &str) -> bool {
        self.entries.iter().any(|(r, p)| r == rule && rel.starts_with(p.as_str()))
    }
}

fn relpath(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Whether the crate owning `path` can reach a communicator: the nearest
/// `Cargo.toml` above it, up to `root`, is `mpsim`'s or lists `mpsim`
/// among its dependencies. `true` when no manifest is found. Manifests
/// are read once, into `cache`.
fn crate_reaches_mpsim(root: &Path, path: &Path, cache: &mut BTreeMap<PathBuf, bool>) -> bool {
    for dir in path.ancestors().skip(1) {
        let manifest = dir.join("Cargo.toml");
        if let Some(&known) = cache.get(&manifest) {
            return known;
        }
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            let reaches = manifest_reaches_mpsim(&text);
            cache.insert(manifest, reaches);
            return reaches;
        }
        if dir == root {
            break;
        }
    }
    true
}

/// Whether a manifest names the package `mpsim` or lists `mpsim` in a
/// dependency table (`[dependencies]`, `[dev-dependencies]`,
/// `[workspace.dependencies]`, …, or a `[….dependencies.mpsim]` table).
fn manifest_reaches_mpsim(text: &str) -> bool {
    let mut section = "";
    for line in text.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[').and_then(|h| h.strip_suffix(']')) {
            section = header.trim();
            if section.ends_with("dependencies.mpsim") {
                return true;
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else { continue };
        let key = key.trim();
        let names_mpsim = match section {
            "package" => key == "name" && value.trim().trim_matches('"') == "mpsim",
            s if s.ends_with("dependencies") => key.split('.').next() == Some("mpsim"),
            _ => false,
        };
        if names_mpsim {
            return true;
        }
    }
    false
}

fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(&dir).into_iter().flatten().flatten().map(|e| e.path()).collect();
        entries.sort();
        for p in entries {
            let name = p.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
            if p.is_dir() {
                if name == "target" || name == ".git" || name == "vendor" {
                    continue;
                }
                stack.push(p);
            } else if name.ends_with(".rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Map of per-fixture expectations: `EXPECT` files contain `rule:line`
/// lines. Used by the corpus tests and `xtask analyze --fixtures`.
pub fn read_expectations(fixture_root: &Path) -> Vec<(String, usize)> {
    let text = std::fs::read_to_string(fixture_root.join("EXPECT")).unwrap_or_default();
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((rule, ln)) = line.split_once(':') {
            if let Ok(n) = ln.trim().parse::<usize>() {
                out.push((rule.trim().to_string(), n));
            }
        }
    }
    out
}

/// Run every fixture under `dir`; returns per-fixture missing
/// expectations (empty = all rules fired where expected).
pub fn check_fixtures(dir: &Path) -> Result<BTreeMap<String, Vec<String>>, String> {
    let mut results = BTreeMap::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    entries.sort();
    for fixture in entries {
        let name =
            fixture.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let expected = read_expectations(&fixture);
        let report = analyze(&fixture)?;
        let mut missing = Vec::new();
        for (rule, line) in &expected {
            let hit = report.findings.iter().any(|f| f.rule == rule.as_str() && f.line == *line);
            if !hit {
                missing.push(format!("{rule}:{line} did not fire"));
            }
        }
        results.insert(name, missing);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_table_matches_the_documented_layout() {
        let lib = workspace_rules("crates/pautoclass/src/driver.rs");
        assert_eq!(lib.spmd, Some(Severity::Error));
        assert_eq!(lib.blocking_collective, Some(Severity::Error));
        assert!(lib.nondet && lib.unwrap && lib.recv_unwrap && lib.float_eq);

        // Supervisor files carry discarded-recovery; plain rank bodies
        // do not.
        assert!(workspace_rules("crates/pautoclass/src/recover.rs").discarded_recovery);
        assert!(workspace_rules("crates/pautoclass/src/fleet.rs").discarded_recovery);
        assert!(!workspace_rules("crates/pautoclass/src/run.rs").discarded_recovery);

        let sim = workspace_rules("crates/mpsim/src/engine.rs");
        assert!(sim.spmd.is_none(), "mpsim implements the primitives");
        assert!(sim.nondet && sim.wall_clock);

        let comm = workspace_rules("crates/mpsim/src/comm.rs");
        assert!(!comm.wall_clock, "comm.rs owns the clock");

        let test_tree = workspace_rules("crates/mpsim/tests/collectives.rs");
        assert_eq!(test_tree.spmd, Some(Severity::Warning));
        assert!(!test_tree.unwrap && !test_tree.nondet);

        // Root binaries and main.rs keep the historical unwrap exemption.
        assert!(!workspace_rules("src/bin/autoclass.rs").unwrap);
        assert!(!workspace_rules("crates/bench/src/main.rs").unwrap);
        assert!(workspace_rules("src/lib.rs").unwrap);

        // The analyzer's own trees are out of scope.
        assert!(!workspace_rules("vendor/syn/src/lib.rs").any());
        assert!(!workspace_rules("crates/spmdlint/src/walk.rs").any());
        assert!(!workspace_rules("crates/spmdlint/tests/fixtures/bad_phase/src/lib.rs").any());
    }

    #[test]
    fn fixture_roles_split_rank_body_from_sim_core() {
        let rb = role_rules("rank-body");
        assert_eq!(rb.spmd, Some(Severity::Error));
        assert!(!rb.nondet && !rb.unwrap);
        let sc = role_rules("sim-core");
        assert!(sc.spmd.is_none());
        assert!(sc.nondet && sc.wall_clock && sc.unwrap && sc.recv_unwrap && sc.float_eq);
        let sup = role_rules("supervisor");
        assert!(sup.discarded_recovery);
        assert!(sup.spmd.is_none() && !sup.nondet && !sup.unwrap);
    }

    #[test]
    fn inline_waivers_cover_same_line_and_line_above() {
        let lines: Vec<String> = vec![
            "// lint:allow(unwrap): covered from above".into(),
            "x.unwrap();".into(),
            "y.unwrap(); // lint:allow(unwrap): same line".into(),
            String::new(),
            "z.unwrap();".into(),
        ];
        assert!(inline_waived(&lines, 2, UNWRAP));
        assert!(inline_waived(&lines, 3, UNWRAP));
        assert!(!inline_waived(&lines, 5, UNWRAP));
        assert!(!inline_waived(&lines, 2, FLOAT_EQ), "rule name must match");
    }

    #[test]
    fn a_manifest_reaches_mpsim_by_name_or_dependency() {
        let reaches = |deps: &str| manifest_reaches_mpsim(deps);
        assert!(reaches("[package]\nname = \"mpsim\"\n"));
        assert!(reaches("[package]\nname = \"k\"\n[dependencies]\nmpsim = { workspace = true }"));
        assert!(reaches("[dev-dependencies]\nmpsim.workspace = true\n"));
        assert!(reaches("[target.'cfg(unix)'.dependencies.mpsim]\npath = \"../mpsim\"\n"));
        // Another crate named like it, a feature, or a dependency's own
        // field do not count.
        assert!(!reaches("[package]\nname = \"autoclass\"\n[dependencies]\nmpsimx = \"1\"\n"));
        assert!(!reaches("[features]\nmpsim = []\n[dependencies]\nrand = { path = \"mpsim\" }"));
    }

    #[test]
    fn json_escapes_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
