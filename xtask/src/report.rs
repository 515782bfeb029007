//! `cargo xtask report` — reproduce the paper's evaluation tables.
//!
//! Runs the verified P-AutoClass search (all verification layers on) at a
//! series of processor counts on the calibrated Meiko CS-2 model, collects
//! the per-rank phase-attributed statistics, and renders the paper-style
//! tables — per-phase time, speedup, efficiency, comm/compute ratio, and
//! the max-vs-mean critical-path summary — through [`mpsim::Report`] as
//! aligned text, CSV, and JSON artifacts.
//!
//! The harness also checks these invariants and records them as gates in
//! the JSON artifact:
//!
//! 1. **Phase accounting** — on every rank the phase buckets sum to the
//!    rank's elapsed virtual time within 1e-9 (enforced by
//!    [`mpsim::Report::build`]), and speedup at P = 1 is exactly 1.0.
//! 2. **Traffic symmetry** — world-wide send and receive totals match
//!    ([`mpsim::RunStats::check_message_symmetry`]); the search is
//!    collective-only, so any surplus means dropped accounting.
//! 3. **Determinism** — the entire series is run twice and the rendered
//!    JSON must be bit-identical.
//! 4. **LogGP consistency** — the measured `"allreduce"` phase time is
//!    compared against [`mpsim::predicted_allreduce_cost`] applied to the
//!    run's actual payload sizes and cycle count. The closed-form model is
//!    a critical-path approximation, not the simulation, so the gate is a
//!    generous ratio band that catches gross attribution bugs (a dropped
//!    bucket, a mistagged collective) rather than modeling error.
//! 5. **Overlap** — the pipelined (non-blocking) exchange produces a
//!    bitwise-identical search outcome to the blocking Fused series and,
//!    at every P > 1, exposes strictly less `"allreduce"` time (the
//!    hidden remainder is reported per P in `overlap_allreduce`).
//!
//! Flags: `--smoke` (P ∈ {1,2,4}, small dataset — the CI configuration),
//! `--out DIR` (default `report/` in the repo root), `--check PATH`
//! (validate an existing `report.json` or `report_largep.json` instead of
//! running — the schema is sniffed from the artifact), `--largep` (run
//! the large-`P` series instead: the verified search on the hierarchical
//! fat-tree cluster at P ∈ {64, 256, 1024} against a P = 1 baseline,
//! writing `report_largep.json`/`.txt`).

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use autoclass::data::GlobalStats;
use autoclass::model::{Model, StatLayout};
use autoclass::search::SearchConfig;
use mpsim::{predicted_allreduce_cost, presets, Report, RunRecord, RunStats, SimOptions};
use pautoclass::{run_search_with, Exchange, ParallelConfig, Partitioning, Strategy};

/// Accepted band for measured/predicted allreduce time, P > 1. The LogGP
/// linear-allreduce formula serializes the whole exchange while the
/// simulation overlaps latency across ranks, so the two legitimately
/// differ by a model-dependent constant; outside this band something is
/// misattributed, not merely approximated.
const LOGGP_RATIO_MIN: f64 = 0.2;
const LOGGP_RATIO_MAX: f64 = 5.0;

pub fn report(args: &[String]) -> ExitCode {
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    if let Some(path) = flag_value("--check") {
        return check(Path::new(path));
    }
    let root = crate::repo_root();
    let out_dir = flag_value("--out").map(Into::into).unwrap_or_else(|| root.join("report"));
    if args.iter().any(|a| a == "--largep") {
        return report_largep(smoke, &out_dir);
    }

    let (first, loggp, overlap) = match run_series(smoke) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("xtask report: {msg}");
            return ExitCode::FAILURE;
        }
    };
    // Determinism gate: the sim is virtual-time-deterministic, so a second
    // identical series must render bit-identical artifacts.
    let deterministic = match run_series(smoke) {
        Ok((second, _, _)) => second.to_json() == first.to_json(),
        Err(msg) => {
            eprintln!("xtask report: repeat run failed: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if !deterministic {
        eprintln!("xtask report: repeated series rendered different artifacts");
        return ExitCode::FAILURE;
    }

    let json = assemble_json(smoke, &first, &loggp, &overlap, deterministic);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("xtask report: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let artifacts = [
        ("report.json", json),
        ("report.txt", first.to_text()),
        ("report_summary.csv", first.summary_csv()),
        ("report_phases.csv", first.phases_csv()),
    ];
    for (name, content) in &artifacts {
        let path = out_dir.join(name);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("xtask report: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    print!("{}", first.to_text());
    println!("\nxtask report: wrote 4 artifacts to {}", out_dir.display());
    ExitCode::SUCCESS
}

/// Exposed (non-hidden) allreduce time of the overlapped cycle against
/// the blocking Fused baseline at one processor count.
struct OverlapRow {
    p: usize,
    fused_exposed_s: f64,
    piped_exposed_s: f64,
    hidden_s: f64,
}

/// Measured-vs-predicted allreduce time at one processor count.
struct LoggpRow {
    p: usize,
    cycles: usize,
    measured_s: f64,
    predicted_s: f64,
}

impl LoggpRow {
    fn ratio(&self) -> f64 {
        if self.predicted_s > 0.0 {
            self.measured_s / self.predicted_s
        } else {
            0.0
        }
    }

    fn ok(&self) -> bool {
        self.p == 1 || (self.ratio() >= LOGGP_RATIO_MIN && self.ratio() <= LOGGP_RATIO_MAX)
    }
}

fn run_series(smoke: bool) -> Result<(Report, Vec<LoggpRow>, Vec<OverlapRow>), String> {
    let (n, j, cycles, ps): (usize, usize, usize, &[usize]) =
        if smoke { (1_200, 4, 6, &[1, 2, 4]) } else { (6_000, 4, 10, &[1, 2, 4, 6, 8, 10]) };
    let data = datagen::paper_dataset(n, 11);
    let config = ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![j],
            tries_per_j: 1,
            max_cycles: cycles,
            rel_delta_ll: 0.0,
            min_class_weight: 0.0,
            seed: 42,
            max_stored: 1,
        },
        strategy: Strategy::Full { exchange: Exchange::Fused },
        partition: Partitioning::Block,
        correlated_blocks: Vec::new(),
    };
    // Payload sizes of the per-cycle allreduces (the Fused exchange): the
    // class weights w_j and the fused statistics vector with the two score
    // scalars piggybacked on its end — plus one global-statistics combine
    // in model setup.
    let gstats = GlobalStats::compute(&data.full_view());
    let model = Model::new(data.schema().clone(), &gstats);
    let stats_len = StatLayout::new(&model, j).len();
    let gstats_len = gstats.to_flat().len();

    let mut records = Vec::new();
    let mut loggp = Vec::new();
    let mut overlap = Vec::new();
    for &p in ps {
        let spec = presets::meiko_cs2(p);
        let out = run_search_with(&data, &spec, &config, &SimOptions::verified())
            .map_err(|e| format!("P={p}: {e}"))?;
        let agg = RunStats::from_ranks(&out.ranks);
        agg.check_message_symmetry().map_err(|e| format!("P={p}: {e}"))?;
        let measured_s = out
            .ranks
            .iter()
            .filter_map(|r| r.phase("allreduce").map(|ph| ph.total()))
            .fold(0.0, f64::max);
        let per_cycle = [j, stats_len + 2]
            .iter()
            .map(|&m| predicted_allreduce_cost(spec.allreduce, p, m, &spec.network))
            .sum::<f64>();
        let predicted_s = out.cycles as f64 * per_cycle
            + predicted_allreduce_cost(spec.allreduce, p, gstats_len, &spec.network);
        let row = LoggpRow { p, cycles: out.cycles, measured_s, predicted_s };
        if !row.ok() {
            return Err(format!(
                "P={p}: allreduce phase {measured_s:.6e}s vs LogGP prediction \
                 {predicted_s:.6e}s (ratio {:.3}) outside [{LOGGP_RATIO_MIN}, \
                 {LOGGP_RATIO_MAX}] — phase attribution is suspect",
                row.ratio()
            ));
        }
        // The overlapped cycle against the blocking series just measured:
        // bitwise-identical search outcome, strictly less *exposed*
        // communication (the allreduce bucket, which excludes hidden time)
        // for every P > 1.
        let piped_cfg = ParallelConfig {
            strategy: Strategy::Full { exchange: Exchange::Pipelined },
            ..config.clone()
        };
        let piped = run_search_with(&data, &spec, &piped_cfg, &SimOptions::verified())
            .map_err(|e| format!("pipelined P={p}: {e}"))?;
        let piped_exposed_s = piped
            .ranks
            .iter()
            .filter_map(|r| r.phase("allreduce").map(|ph| ph.total()))
            .fold(0.0, f64::max);
        let hidden_s = piped.ranks.iter().map(|r| r.hidden_comm).fold(0.0, f64::max);
        let matches = piped.best.approx.log_likelihood.to_bits()
            == out.best.approx.log_likelihood.to_bits()
            && piped.cycles == out.cycles;
        if !matches {
            return Err(format!(
                "P={p}: pipelined search diverged from blocking Fused \
                 (ll {} vs {}, cycles {} vs {})",
                piped.best.approx.log_likelihood,
                out.best.approx.log_likelihood,
                piped.cycles,
                out.cycles
            ));
        }
        if p > 1 && piped_exposed_s >= measured_s {
            return Err(format!(
                "P={p}: pipelined exposed allreduce time {piped_exposed_s:.6e}s is not \
                 below the blocking Fused {measured_s:.6e}s — overlap is not happening"
            ));
        }
        overlap.push(OverlapRow { p, fused_exposed_s: measured_s, piped_exposed_s, hidden_s });
        loggp.push(row);
        records.push(RunRecord { p, elapsed: out.elapsed, ranks: out.ranks });
    }
    let report = Report::build(&records)?;
    // Acceptance: the baseline row must report a speedup of exactly 1.0.
    let p1_exact =
        report.rows.iter().find(|r| r.p == 1).and_then(|r| r.speedup).is_some_and(|s| s == 1.0);
    if !p1_exact {
        return Err("P=1 speedup is not exactly 1.0".to_string());
    }
    Ok((report, loggp, overlap))
}

fn assemble_json(
    smoke: bool,
    report: &Report,
    loggp: &[LoggpRow],
    overlap: &[OverlapRow],
    deterministic: bool,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    out.push_str("  \"gates\": {\n");
    // All gates were enforced in run_series; reaching here means true, but
    // record them so --check (and CI) can assert on the artifact alone.
    let _ = writeln!(out, "    \"phase_sums_ok\": true,");
    let _ = writeln!(out, "    \"speedup_p1_exact\": true,");
    let _ = writeln!(out, "    \"symmetry_ok\": true,");
    let _ = writeln!(out, "    \"loggp_ok\": true,");
    let _ = writeln!(out, "    \"overlap_ok\": true,");
    let _ = writeln!(out, "    \"pipelined_matches_fused\": true,");
    let _ = writeln!(out, "    \"deterministic\": {deterministic}");
    out.push_str("  },\n");
    out.push_str("  \"overlap_allreduce\": [\n");
    for (i, r) in overlap.iter().enumerate() {
        let comma = if i + 1 < overlap.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"p\": {}, \"fused_exposed_s\": {:.9}, \"pipelined_exposed_s\": {:.9}, \
             \"hidden_s\": {:.9}}}{comma}",
            r.p, r.fused_exposed_s, r.piped_exposed_s, r.hidden_s
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"loggp_allreduce\": [\n");
    for (i, r) in loggp.iter().enumerate() {
        let comma = if i + 1 < loggp.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"p\": {}, \"cycles\": {}, \"measured_s\": {:.9}, \
             \"predicted_s\": {:.9}, \"ratio\": {:.6}}}{comma}",
            r.p,
            r.cycles,
            r.measured_s,
            r.predicted_s,
            r.ratio()
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"report\": ");
    // Indent the embedded report object to match its nesting level.
    let embedded = report.to_json();
    for (i, line) in embedded.lines().enumerate() {
        if i > 0 {
            out.push_str("  ");
        }
        out.push_str(line);
        out.push('\n');
    }
    // Replace the report's closing brace line ("  }") terminator.
    out.truncate(out.trim_end().len());
    out.push_str("\n}\n");
    out
}

/// One processor count of the large-`P` series.
struct LargePRow {
    p: usize,
    elapsed_s: f64,
    speedup: f64,
    efficiency: f64,
    cycles: usize,
    allreduce_s: f64,
}

/// The large-`P` series: the verified search on the hierarchical fat-tree
/// cluster, at processor counts two orders of magnitude past the paper's
/// machine. Enforces the same phase /
/// symmetry / determinism invariants as the main series and renders the
/// paper-style speedup curve (Fig. 7's shape, extended to P = 1024).
fn run_largep_series(smoke: bool) -> Result<Vec<LargePRow>, String> {
    let (n, j, cycles) = if smoke { (2_048, 4, 3) } else { (8_192, 4, 6) };
    let ps: [usize; 4] = [1, 64, 256, 1024];
    let data = datagen::paper_dataset(n, 11);
    let config = ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![j],
            tries_per_j: 1,
            max_cycles: cycles,
            rel_delta_ll: 0.0,
            min_class_weight: 0.0,
            seed: 42,
            max_stored: 1,
        },
        strategy: Strategy::Full { exchange: Exchange::Fused },
        partition: Partitioning::Block,
        correlated_blocks: Vec::new(),
    };
    let opts = SimOptions::verified();
    let mut rows = Vec::new();
    let mut base_elapsed = 0.0_f64;
    for p in ps {
        let spec = presets::hier_cluster(p, 8);
        let out =
            run_search_with(&data, &spec, &config, &opts).map_err(|e| format!("P={p}: {e}"))?;
        let agg = RunStats::from_ranks(&out.ranks);
        agg.check_message_symmetry().map_err(|e| format!("P={p}: {e}"))?;
        for r in &out.ranks {
            let sum = r.phases_total();
            if (sum - r.elapsed).abs() > 1e-9 {
                return Err(format!(
                    "P={p} rank {}: phase buckets {sum:.12} do not partition elapsed {:.12}",
                    r.rank, r.elapsed
                ));
            }
        }
        let allreduce_s = out
            .ranks
            .iter()
            .filter_map(|r| r.phase("allreduce").map(|ph| ph.total()))
            .fold(0.0, f64::max);
        if p == 1 {
            base_elapsed = out.elapsed;
        }
        let speedup = if out.elapsed > 0.0 { base_elapsed / out.elapsed } else { 0.0 };
        rows.push(LargePRow {
            p,
            elapsed_s: out.elapsed,
            speedup,
            efficiency: speedup / p as f64,
            cycles: out.cycles,
            allreduce_s,
        });
    }
    // The curve must start at exactly 1.0 and actually scale: a fixed-size
    // problem this compute-heavy must beat the serial run at P = 64 (the
    // paper's regime), even if efficiency then decays toward P = 1024.
    if rows[0].speedup != 1.0 {
        return Err("P=1 speedup is not exactly 1.0".to_string());
    }
    if rows[1].speedup <= 1.0 {
        return Err(format!("P=64 speedup {:.3} does not beat the serial run", rows[1].speedup));
    }
    Ok(rows)
}

fn largep_json(smoke: bool, rows: &[LargePRow], deterministic: bool) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"kind\": \"largep\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"engine\": \"cooperative\",");
    let _ = writeln!(out, "  \"machine\": \"hier_cluster\",");
    out.push_str("  \"gates\": {\n");
    // Enforced in run_largep_series; recorded for --check and CI.
    let _ = writeln!(out, "    \"phase_sums_ok\": true,");
    let _ = writeln!(out, "    \"symmetry_ok\": true,");
    let _ = writeln!(out, "    \"speedup_p1_exact\": true,");
    let _ = writeln!(out, "    \"scales_at_p64\": true,");
    let _ = writeln!(out, "    \"deterministic\": {deterministic}");
    out.push_str("  },\n");
    out.push_str("  \"series\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"p\": {}, \"elapsed_s\": {:.9}, \"speedup\": {:.6}, \
             \"efficiency\": {:.6}, \"cycles\": {}, \"allreduce_s\": {:.9}}}{comma}",
            r.p, r.elapsed_s, r.speedup, r.efficiency, r.cycles, r.allreduce_s
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn largep_text(rows: &[LargePRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "large-P series (cooperative engine, hier_cluster fat-tree, verified search)"
    );
    let _ = writeln!(
        out,
        "{:>5} {:>14} {:>10} {:>11} {:>7} {:>14}",
        "P", "elapsed_s", "speedup", "efficiency", "cycles", "allreduce_s"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>5} {:>14.9} {:>10.3} {:>11.4} {:>7} {:>14.9}",
            r.p, r.elapsed_s, r.speedup, r.efficiency, r.cycles, r.allreduce_s
        );
    }
    out
}

fn report_largep(smoke: bool, out_dir: &Path) -> ExitCode {
    let first = match run_largep_series(smoke) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("xtask report --largep: {msg}");
            return ExitCode::FAILURE;
        }
    };
    // Determinism gate: virtual time must not depend on host scheduling
    // — the artifact must re-render bit-identically.
    let deterministic = match run_largep_series(smoke) {
        Ok(second) => largep_json(smoke, &second, true) == largep_json(smoke, &first, true),
        Err(msg) => {
            eprintln!("xtask report --largep: repeat run failed: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if !deterministic {
        eprintln!("xtask report --largep: repeated series rendered different artifacts");
        return ExitCode::FAILURE;
    }
    let json = largep_json(smoke, &first, deterministic);
    let text = largep_text(&first);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("xtask report --largep: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    for (name, content) in [("report_largep.json", &json), ("report_largep.txt", &text)] {
        let path = out_dir.join(name);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("xtask report --largep: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    print!("{text}");
    println!("\nxtask report --largep: wrote 2 artifacts to {}", out_dir.display());
    ExitCode::SUCCESS
}

/// Required keys for the large-`P` artifact (`report_largep.json`).
const LARGEP_REQUIRED: [&str; 13] = [
    "\"schema_version\": 1",
    "\"kind\": \"largep\"",
    "\"engine\": \"cooperative\"",
    "\"machine\": \"hier_cluster\"",
    "\"phase_sums_ok\": true",
    "\"symmetry_ok\": true",
    "\"speedup_p1_exact\": true",
    "\"scales_at_p64\": true",
    "\"deterministic\": true",
    "\"series\"",
    "\"p\": 1024",
    "\"speedup\"",
    "\"efficiency\"",
];

/// Structural validation of a report artifact: required keys exist and
/// every gate reads `true`. Numeric values are machine-model outputs and
/// deliberately not pinned here.
fn check(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask report --check: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if text.contains("\"kind\": \"largep\"") {
        let mut missing = Vec::new();
        for key in LARGEP_REQUIRED {
            if !text.contains(key) {
                missing.push(key);
            }
        }
        return if missing.is_empty() {
            println!("xtask report --check: {} ok", path.display());
            ExitCode::SUCCESS
        } else {
            for key in missing {
                eprintln!("xtask report --check: {} missing {key}", path.display());
            }
            ExitCode::FAILURE
        };
    }
    let required = [
        "\"schema_version\": 1",
        "\"gates\"",
        "\"phase_sums_ok\": true",
        "\"speedup_p1_exact\": true",
        "\"symmetry_ok\": true",
        "\"loggp_ok\": true",
        "\"overlap_ok\": true",
        "\"pipelined_matches_fused\": true",
        "\"deterministic\": true",
        "\"overlap_allreduce\"",
        "\"pipelined_exposed_s\"",
        "\"hidden_s\"",
        "\"loggp_allreduce\"",
        "\"report\"",
        "\"runs\"",
        "\"phases\"",
        "\"speedup\"",
        "\"efficiency\"",
        "\"comm_compute_ratio\"",
        "\"estep\"",
        "\"mstep\"",
        "\"allreduce\"",
        "\"search\"",
    ];
    let mut missing = Vec::new();
    for key in required {
        if !text.contains(key) {
            missing.push(key);
        }
    }
    if missing.is_empty() {
        println!("xtask report --check: {} ok", path.display());
        ExitCode::SUCCESS
    } else {
        for key in missing {
            eprintln!("xtask report --check: {} missing {key}", path.display());
        }
        ExitCode::FAILURE
    }
}
