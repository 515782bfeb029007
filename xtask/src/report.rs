//! `cargo xtask report` — reproduce the paper's evaluation tables.
//!
//! One command regenerates every table in EXPERIMENTS.md. Its core is the
//! paper series: the verified P-AutoClass search (all verification layers
//! on) at a series of processor counts on the calibrated Meiko CS-2
//! model, rendered through [`mpsim::Report`] as the per-phase time,
//! speedup, efficiency, comm/compute ratio and max-vs-mean critical-path
//! tables. The sections of [`crate::sections`] follow it: Fig 6 and Fig 7
//! from one grid of searches, Fig 8, T-profile, A-strategy,
//! A-collectives, A-imbalance, A-seq and the F-ensemble fleet table; then
//! the fault-tolerance sections of [`crate::faultmatrix`], R-faultmatrix
//! and R-standby.
//!
//! The harness checks these invariants and records them as gates in the
//! JSON artifact:
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
//! 6. **Native column** — each P also runs `run_search_native` (one OS
//!    thread per rank) on the same data, config and machine. The result
//!    must be bitwise identical to the simulated run (log likelihood,
//!    score, cycle count and every stored classification's parameter
//!    hash); the native phase buckets must partition each rank's measured
//!    time, and every phase fraction and speedup must be finite. The
//!    wall-clock numbers go to `report_native.txt`, outside the
//!    determinism-compared JSON.
//! 7. **Section gates** — each section's own shape checks (see
//!    [`crate::sections`] and [`crate::faultmatrix`]); a failed gate
//!    fails the run after printing every table.
//!
//! Flags: `--smoke` (every section at CI size — the CI configuration),
//! `--full` (the paper's `start_j_list = 2,4,8,16,24,50,64` for the Fig
//! 6/7 grid), `--out DIR` (default `report/` in the repo root), `--check
//! PATH` (validate an existing `report.json` or `report_largep.json`
//! instead of running — the schema is sniffed from the artifact),
//! `--largep` (run the large-`P` series instead: the verified search on
//! the hierarchical fat-tree cluster at P ∈ {64, 256, 1024} against a
//! P = 1 baseline, then the L-largep faults section, writing
//! `report_largep.json`/`.txt`).

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use autoclass::data::GlobalStats;
use autoclass::model::{classes_to_flat, Model, StatLayout};
use autoclass::search::SearchConfig;
use mpsim::{
    hash_f64s, predicted_allreduce_cost, presets, RankStats, Report, RunRecord, RunStats,
    SimOptions,
};
use pautoclass::{
    run_search_native, run_search_with, Exchange, NativeOptions, ParallelConfig, ParallelOutcome,
    Partitioning, Strategy,
};

use crate::{faultmatrix, sections};

/// Accepted band for measured/predicted allreduce time, P > 1. The LogGP
/// linear-allreduce formula serializes the whole exchange while the
/// simulation overlaps latency across ranks, so the two legitimately
/// differ by a model-dependent constant; outside this band something is
/// misattributed, not merely approximated.
const LOGGP_RATIO_MIN: f64 = 0.2;
const LOGGP_RATIO_MAX: f64 = 5.0;

/// Gates the paper series enforces before it returns.
const SERIES_GATES: [&str; 11] = [
    "phase_sums_ok",
    "speedup_p1_exact",
    "symmetry_ok",
    "loggp_ok",
    "overlap_ok",
    "pipelined_matches_fused",
    "deterministic",
    "native_bitwise_identical",
    "native_phase_sums_ok",
    "native_fractions_ok",
    "native_speedup_finite",
];

/// Phases the driver attributes time to, in display order. Anything not
/// claimed by the first three lands in the enclosing `search` bucket.
const PHASES: [&str; 4] = ["estep", "mstep", "allreduce", "search"];

pub fn report(args: &[String]) -> ExitCode {
    let smoke = args.iter().any(|a| a == "--smoke");
    let full = args.iter().any(|a| a == "--full");
    let flag_value = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    if let Some(path) = flag_value("--check") {
        return check(Path::new(path));
    }
    let root = crate::repo_root();
    let out_dir = flag_value("--out").map(Into::into).unwrap_or_else(|| root.join("report"));
    let result = if args.iter().any(|a| a == "--largep") {
        report_largep(smoke, &out_dir)
    } else {
        report_paper(smoke, full, &out_dir)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("xtask report: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn report_paper(smoke: bool, full: bool, out_dir: &Path) -> Result<(), String> {
    let first = run_series(smoke)?;
    // Determinism gate: the sim is virtual-time-deterministic, so a second
    // identical series must render bit-identical artifacts.
    let second = run_series(smoke).map_err(|msg| format!("repeat run failed: {msg}"))?;
    if second.report.to_json() != first.report.to_json() {
        return Err("repeated series rendered different artifacts".to_string());
    }

    let sections = [
        sections::fig6_fig7(smoke, full)?,
        sections::fig8(smoke)?,
        sections::profile(smoke)?,
        sections::strategy(smoke)?,
        sections::collectives()?,
        sections::imbalance(smoke)?,
        sections::seq(smoke)?,
        sections::fleet(smoke)?,
        faultmatrix::faults(smoke)?,
        faultmatrix::standby(smoke)?,
    ];
    let mut text = first.report.to_text();
    for s in &sections {
        text.push('\n');
        text.push_str(&s.text);
    }
    let native = native_text(&first.native);
    print!("{text}\n{native}");
    let gates: Vec<(&str, bool)> = sections.iter().flat_map(|s| s.gates.iter().copied()).collect();
    enforce_gates(&gates, &sections::GATES)?;

    let json = assemble_json(smoke, &first, &gates);
    let artifacts = [
        ("report.json", json),
        ("report.txt", text),
        ("report_native.txt", native),
        ("report_summary.csv", first.report.summary_csv()),
        ("report_phases.csv", first.report.phases_csv()),
    ];
    write_artifacts(out_dir, &artifacts)?;
    println!("\nxtask report: wrote {} artifacts to {}", artifacts.len(), out_dir.display());
    Ok(())
}

/// Fail unless the sections returned exactly the gates of `schema` (the
/// one `--check` asserts), in order, and every one held.
fn enforce_gates(gates: &[(&str, bool)], schema: &[&str]) -> Result<(), String> {
    if !gates.iter().map(|g| g.0).eq(schema.iter().copied()) {
        return Err("section gates differ from the --check schema".to_string());
    }
    let failed: Vec<&str> = gates.iter().filter(|g| !g.1).map(|g| g.0).collect();
    if !failed.is_empty() {
        return Err(format!("section gate(s) failed: {}", failed.join(", ")));
    }
    Ok(())
}

/// The artifact's `"gates"` object: the series gates, enforced before
/// any artifact is written and so `true`, then the sections' gates.
fn gates_json(series: &[&str], section_gates: &[(&str, bool)]) -> String {
    let gates: Vec<String> = series
        .iter()
        .map(|g| (*g, true))
        .chain(section_gates.iter().copied())
        .map(|(name, ok)| format!("    \"{name}\": {ok}"))
        .collect();
    format!("  \"gates\": {{\n{}\n  }},\n", gates.join(",\n"))
}

fn write_artifacts(out_dir: &Path, artifacts: &[(&str, String)]) -> Result<(), String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    for (name, content) in artifacts {
        let path = out_dir.join(name);
        std::fs::write(&path, content)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Max-over-ranks total of one phase bucket.
fn phase_time(ranks: &[RankStats], name: &str) -> f64 {
    ranks.iter().filter_map(|r| r.phase(name).map(|ph| ph.total())).fold(0.0, f64::max)
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

/// The paper series run natively at one processor count, next to the
/// simulated run it matched bit for bit.
struct NativeRow {
    p: usize,
    cycles: usize,
    /// Virtual seconds of the simulated run.
    sim_elapsed_s: f64,
    /// Measured wall-clock seconds of the native run.
    native_elapsed_s: f64,
    /// `(phase, sim fraction of elapsed, native fraction of elapsed)`.
    phase_fracs: Vec<(&'static str, f64, f64)>,
}

struct Series {
    report: Report,
    loggp: Vec<LoggpRow>,
    overlap: Vec<OverlapRow>,
    native: Vec<NativeRow>,
}

/// Hashes of every stored classification's flat parameters — the same
/// FNV-1a the in-run replication verifier uses.
fn outcome_hashes(out: &ParallelOutcome) -> Vec<u64> {
    out.all.iter().map(|c| hash_f64s(&classes_to_flat(&c.classes))).collect()
}

/// Gate 6 at one P: the native run is the simulated run, bit for bit;
/// its phase buckets partition each rank's measured time; both elapsed
/// times are positive and finite (so every speedup is); every phase
/// fraction is in [0, 1].
fn native_row(
    p: usize,
    sim: &ParallelOutcome,
    native: &ParallelOutcome,
) -> Result<NativeRow, String> {
    let identical = sim.best.approx.log_likelihood.to_bits()
        == native.best.approx.log_likelihood.to_bits()
        && sim.best.score().to_bits() == native.best.score().to_bits()
        && sim.cycles == native.cycles
        && outcome_hashes(sim) == outcome_hashes(native);
    if !identical {
        return Err(format!(
            "P={p}: native run diverged from the simulated one (ll {} vs {}, cycles {} vs {}) \
             — the determinism contract is broken",
            sim.best.approx.log_likelihood,
            native.best.approx.log_likelihood,
            sim.cycles,
            native.cycles
        ));
    }
    for (r, rs) in native.ranks.iter().enumerate() {
        let sum: f64 = rs.phases.iter().map(|ph| ph.total()).sum();
        if !partitions(sum, rs.elapsed) {
            return Err(format!(
                "P={p} rank {r}: native phase totals {sum:.6e}s do not partition elapsed {:.6e}s",
                rs.elapsed
            ));
        }
    }
    // Positive, finite elapsed times on both backends make every speedup
    // and fraction below finite.
    if !(sim.elapsed > 0.0 && native.elapsed > 0.0 && native.elapsed.is_finite()) {
        return Err(format!(
            "P={p}: degenerate elapsed times (sim {:.3e}, native {:.3e})",
            sim.elapsed, native.elapsed
        ));
    }
    let phase_fracs: Vec<_> = PHASES
        .iter()
        .map(|&name| {
            let sf = phase_time(&sim.ranks, name) / sim.elapsed;
            (name, sf, phase_time(&native.ranks, name) / native.elapsed)
        })
        .collect();
    // A max-over-ranks phase exceeds the max-rank elapsed only through a
    // bug, not noise; allow epsilon.
    let in_range = |f: f64| (0.0..=1.0 + 1e-9).contains(&f);
    if let Some((name, sf, nf)) =
        phase_fracs.iter().find(|(_, sf, nf)| !(in_range(*sf) && in_range(*nf)))
    {
        return Err(format!("P={p}: phase '{name}' fraction out of range ({sf}, {nf})"));
    }
    Ok(NativeRow {
        p,
        cycles: sim.cycles,
        sim_elapsed_s: sim.elapsed,
        native_elapsed_s: native.elapsed,
        phase_fracs,
    })
}

fn native_text(rows: &[NativeRow]) -> String {
    let (s1, n1) = (rows[0].sim_elapsed_s, rows[0].native_elapsed_s);
    let host_threads = std::thread::available_parallelism().map_or(0, usize::from);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "native column — the paper series on {host_threads} host thread(s), bitwise identical \
         to the simulated run"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>10} {:>14} {:>12} {:>14} {:>16}",
        "P", "cycles", "sim elapsed", "sim spd", "native elapsed", "native spd"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>4} {:>10} {:>13.6}s {:>12.3} {:>13.6}s {:>16.3}",
            r.p,
            r.cycles,
            r.sim_elapsed_s,
            s1 / r.sim_elapsed_s,
            r.native_elapsed_s,
            n1 / r.native_elapsed_s
        );
    }
    let _ = writeln!(out, "\nphase fractions of elapsed (sim / native):");
    for r in rows {
        let cols: Vec<String> =
            r.phase_fracs.iter().map(|(name, sf, nf)| format!("{name} {sf:.3}/{nf:.3}")).collect();
        let _ = writeln!(out, "  P={:<3} {}", r.p, cols.join("  "));
    }
    out
}

fn run_series(smoke: bool) -> Result<Series, String> {
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
    let mut native = Vec::new();
    for &p in ps {
        let spec = presets::meiko_cs2(p);
        let out = run_search_with(&data, &spec, &config, &SimOptions::verified())
            .map_err(|e| format!("P={p}: {e}"))?;
        let agg = RunStats::from_ranks(&out.ranks);
        agg.check_message_symmetry().map_err(|e| format!("P={p}: {e}"))?;
        let measured_s = phase_time(&out.ranks, "allreduce");
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
        let piped_exposed_s = phase_time(&piped.ranks, "allreduce");
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
        let nat = run_search_native(&data, &spec, &config, &NativeOptions::verified())
            .map_err(|e| format!("native P={p}: {e}"))?;
        native.push(native_row(p, &out, &nat)?);
        records.push(RunRecord { p, elapsed: out.elapsed, ranks: out.ranks });
    }
    let report = Report::build(&records)?;
    // Acceptance: the baseline row must report a speedup of exactly 1.0.
    let p1_exact =
        report.rows.iter().find(|r| r.p == 1).and_then(|r| r.speedup).is_some_and(|s| s == 1.0);
    if !p1_exact {
        return Err("P=1 speedup is not exactly 1.0".to_string());
    }
    Ok(Series { report, loggp, overlap, native })
}

fn assemble_json(smoke: bool, series: &Series, section_gates: &[(&str, bool)]) -> String {
    let (report, loggp, overlap) = (&series.report, &series.loggp, &series.overlap);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    // Record every gate so --check (and CI) can assert on the artifact
    // alone.
    out.push_str(&gates_json(&SERIES_GATES, section_gates));
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
        let allreduce_s = phase_time(&out.ranks, "allreduce");
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

fn largep_json(smoke: bool, rows: &[LargePRow], fault_gates: &[(&str, bool)]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"kind\": \"largep\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"engine\": \"cooperative\",");
    let _ = writeln!(out, "  \"machine\": \"hier_cluster\",");
    out.push_str(&gates_json(&LARGEP_SERIES_GATES, fault_gates));
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

fn report_largep(smoke: bool, out_dir: &Path) -> Result<(), String> {
    let first = run_largep_series(smoke)?;
    // Determinism gate: virtual time must not depend on host scheduling
    // — the artifact must re-render bit-identically.
    let second = run_largep_series(smoke).map_err(|msg| format!("repeat run failed: {msg}"))?;
    if largep_json(smoke, &second, &[]) != largep_json(smoke, &first, &[]) {
        return Err("repeated large-P series rendered different artifacts".to_string());
    }
    let faults = faultmatrix::largep(smoke)?;
    let text = format!("{}\n{}", largep_text(&first), faults.text);
    print!("{text}");
    enforce_gates(&faults.gates, &faultmatrix::LARGEP_GATES)?;
    write_artifacts(
        out_dir,
        &[
            ("report_largep.json", largep_json(smoke, &first, &faults.gates)),
            ("report_largep.txt", text),
        ],
    )?;
    println!("\nxtask report --largep: wrote 2 artifacts to {}", out_dir.display());
    Ok(())
}

/// Gates the large-`P` series enforces before it returns; the L-largep
/// faults section's ([`faultmatrix::LARGEP_GATES`]) follow them.
const LARGEP_SERIES_GATES: [&str; 5] =
    ["phase_sums_ok", "symmetry_ok", "speedup_p1_exact", "scales_at_p64", "deterministic"];

/// Keys the large-`P` artifact (`report_largep.json`) must contain
/// besides its gates.
const LARGEP_KEYS: [&str; 7] = [
    "\"kind\": \"largep\"",
    "\"engine\": \"cooperative\"",
    "\"machine\": \"hier_cluster\"",
    "\"series\"",
    "\"p\": 1024",
    "\"speedup\"",
    "\"efficiency\"",
];

/// Keys the paper-series artifact (`report.json`) must contain besides
/// its gates.
const PAPER_KEYS: [&str; 15] = [
    "overlap_allreduce",
    "pipelined_exposed_s",
    "hidden_s",
    "loggp_allreduce",
    "report",
    "runs",
    "phases",
    "speedup",
    "efficiency",
    "comm_compute_ratio",
    "estep",
    "mstep",
    "allreduce",
    "search",
    "gates",
];

/// Structural validation of a report artifact's text: the required keys
/// it lacks, each gate counting as present only if it reads `true`. The
/// schema is sniffed from the artifact. Numeric values are machine-model
/// outputs and deliberately not pinned here.
fn missing_keys(text: &str) -> Vec<String> {
    let (keys, gates): (Vec<String>, Vec<&str>) = if text.contains("\"kind\": \"largep\"") {
        let gates = LARGEP_SERIES_GATES.iter().chain(&faultmatrix::LARGEP_GATES);
        (LARGEP_KEYS.iter().map(|k| k.to_string()).collect(), gates.copied().collect())
    } else {
        let gates = SERIES_GATES.iter().chain(&sections::GATES);
        (PAPER_KEYS.iter().map(|k| format!("\"{k}\"")).collect(), gates.copied().collect())
    };
    std::iter::once("\"schema_version\": 1".to_string())
        .chain(keys)
        .chain(gates.iter().map(|g| format!("\"{g}\": true")))
        .filter(|k| !text.contains(k.as_str()))
        .collect()
}

fn check(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask report --check: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let missing = missing_keys(&text);
    for key in &missing {
        eprintln!("xtask report --check: {} missing {key}", path.display());
    }
    if missing.is_empty() {
        println!("xtask report --check: {} ok", path.display());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Whether phase totals summing to `sum` partition `elapsed`, to a
/// relative 1e-6. A NaN on either side does not.
fn partitions(sum: f64, elapsed: f64) -> bool {
    (sum - elapsed).abs() <= 1e-6 * elapsed.max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nan_phase_sum_does_not_partition_elapsed() {
        assert!(partitions(1.0 + 1e-9, 1.0));
        assert!(!partitions(1.1, 1.0));
        assert!(!partitions(f64::NAN, 1.0));
        assert!(!partitions(1.0, f64::NAN));
    }

    /// The R-faultmatrix and R-standby gates `report --check` must
    /// assert on `report.json`.
    const FAULT_GATES: [&str; 14] = [
        "faults_abort_names_correct_culprit",
        "faults_restart_bit_identical",
        "faults_shrink_survivors_ok",
        "faults_benign_faults_absorbed",
        "faults_ksweep_bit_identical",
        "faults_seeded_recovered_bit_identical",
        "faults_deterministic",
        "standby_promote_preserves_p",
        "standby_promote_bit_identical",
        "standby_promote_native_bit_identical",
        "standby_replay_strictly_cheaper_than_restart",
        "standby_shard_corruption_detected",
        "standby_exhausted_fallback_deterministic",
        "standby_deterministic",
    ];

    /// The L-largep faults gates it must assert on `report_largep.json`.
    const LARGEP_FAULT_GATES: [&str; 5] = [
        "largep_faults_abort_names_correct_culprit",
        "largep_faults_restart_bit_identical",
        "largep_faults_promote_bit_identical",
        "largep_faults_promote_preserves_p",
        "largep_faults_deterministic",
    ];

    /// A `report.json` rendered by the real emitter from a tiny search.
    fn paper_artifact() -> String {
        let data = datagen::paper_dataset(120, 11);
        let config =
            ParallelConfig { search: SearchConfig::quick(vec![2], 1), ..ParallelConfig::default() };
        let out = run_search_with(&data, &presets::meiko_cs2(2), &config, &SimOptions::default())
            .expect("tiny search runs");
        let record = RunRecord { p: 2, elapsed: out.elapsed, ranks: out.ranks };
        let series = Series {
            report: Report::build(&[record]).expect("one record builds a report"),
            loggp: vec![LoggpRow { p: 2, cycles: 1, measured_s: 1.0, predicted_s: 1.0 }],
            overlap: vec![OverlapRow {
                p: 2,
                fused_exposed_s: 1.0,
                piped_exposed_s: 0.5,
                hidden_s: 0.5,
            }],
            native: Vec::new(),
        };
        let gates: Vec<(&str, bool)> = sections::GATES.iter().map(|&g| (g, true)).collect();
        assemble_json(true, &series, &gates)
    }

    /// A `report_largep.json` rendered by the real emitter.
    fn largep_artifact() -> String {
        let rows = [1, 64, 256, 1024].map(|p| LargePRow {
            p,
            elapsed_s: 1.0 / p as f64,
            speedup: p as f64,
            efficiency: 1.0,
            cycles: 3,
            allreduce_s: 0.0,
        });
        largep_json(true, &rows, &faultmatrix::LARGEP_GATES.map(|g| (g, true)))
    }

    /// `artifact` passes, and fails once `gate` is removed or reads false.
    fn assert_check_guards(artifact: &str, gate: &str) {
        assert_eq!(missing_keys(artifact), Vec::<String>::new());
        let line = format!("\"{gate}\": true");
        assert!(artifact.contains(&line), "{gate} is not in the artifact");
        for broken in
            [artifact.replace(&line, ""), artifact.replace(&line, &line.replace("true", "false"))]
        {
            assert_eq!(missing_keys(&broken), vec![line.clone()], "{gate}");
        }
    }

    #[test]
    fn check_asserts_every_fault_gate_of_report_json() {
        let artifact = paper_artifact();
        for gate in FAULT_GATES {
            assert_check_guards(&artifact, gate);
        }
    }

    #[test]
    fn check_asserts_every_fault_gate_of_report_largep_json() {
        let artifact = largep_artifact();
        for gate in LARGEP_FAULT_GATES {
            assert_check_guards(&artifact, gate);
        }
    }
}
