//! The fault-tolerance sections of `cargo xtask report`: R-faultmatrix,
//! R-standby and (under `report --largep`) L-largep faults.
//!
//! Each runs the fault-tolerant search ([`pautoclass::run_search_ft`])
//! through a grid of injected faults and gates on one property: **every
//! injected fault is either recovered bit-identically or reported with a
//! typed error naming the correct culprit rank and fault kind — no hangs,
//! no panics, no silently different numbers.** A cell that breaks it
//! fails the whole report with the cell's coordinates; the gates a
//! section returns record what its cells enforced.
//!
//! **R-faultmatrix.** Per processor count (P ∈ {2, 4, 5, 8}; `--smoke`
//! trims to {2, 4}) the sweep runs an unfaulted fault-tolerant baseline,
//! then injects each fatal fault kind (crash, drop,
//! delay-past-virtual-timeout, corrupt) under each recovery policy:
//!
//! * **abort** — the run must terminate with a typed [`mpsim::SimError`]
//!   whose culprit coordinates match the injected fault.
//! * **restart** — the supervisor must recover in exactly one extra
//!   attempt and the recovered result must be bit-identical to the
//!   unfaulted baseline (score and every class parameter compared as raw
//!   bit patterns).
//! * **shrink** — the survivors must finish with P−1 ranks and report a
//!   positive recovery-phase virtual time.
//!
//! Two benign faults (a delay under the timeout, a degraded link) must
//! complete with *no* error, bit-identical results, and strictly more
//! virtual time — robustness must not come at the price of spurious
//! failure reports. A checkpoint-interval sweep at P = 4 records recovery
//! overhead versus the interval `k`. A seeded sub-sweep
//! ([`FaultPlan::seeded`]) grades randomized plans under the restart
//! policy; plans the contract deliberately does not cover (a crash on
//! rank 0 — the checkpoint publisher — and the benign kinds) are listed
//! as skipped with reasons instead of being silently dropped.
//!
//! **R-standby.** The localized-recovery sweep: spare-rank promotion on
//! the simulator **and** the native backend, replay-vs-rollback cost,
//! spare exhaustion, and shard corruption at P ∈ {2, 5, 8} (`--smoke`:
//! {2, 5}).
//!
//! **L-largep faults.** Crash and corrupt under abort/restart/promote on
//! the hierarchical fat-tree cluster at P ∈ {64, 256, 1024} (`--smoke`:
//! {64, 256}).
//!
//! Every section runs its sweep twice and gates on the two sweeps being
//! equal value for value: fault injection, detection and recovery are
//! pinned to virtual time, so the fault layer must not break
//! determinism. Every number in the tables is virtual time; the native
//! promotion cell's wall-clock timings are printed as zeros.

use std::fmt::Write as _;

use autoclass::model::classes_to_flat;
use autoclass::search::SearchConfig;
use mpsim::{
    presets, FaultAction, FaultPlan, FaultSpec, FaultTrigger, MachineSpec, SimError, SimOptions,
};
use pautoclass::{
    run_search_ft, run_search_ft_native, Exchange, FtConfig, FtOutcome, NativeOptions,
    ParallelConfig, ParallelOutcome, RecoveryPolicy, RunError, ShardFault, StandbyConfig, Strategy,
};

use crate::sections::Section;

/// The gates of [`largep`], in order: `report --largep` records them
/// after its series gates.
pub const LARGEP_GATES: [&str; 5] = [
    "largep_faults_abort_names_correct_culprit",
    "largep_faults_restart_bit_identical",
    "largep_faults_promote_bit_identical",
    "largep_faults_promote_preserves_p",
    "largep_faults_deterministic",
];

/// R-faultmatrix: the fault × policy × P sweep, the seeded plans and the
/// checkpoint-interval sweep.
pub fn faults(smoke: bool) -> Result<Section, String> {
    let first = run_matrix(smoke)?;
    let second = run_matrix(smoke).map_err(|msg| format!("repeat sweep failed: {msg}"))?;
    // Every other gate is enforced cell by cell inside run_matrix: an
    // offending cell is an error, so reaching here means it held.
    Ok(Section {
        text: to_text("R-faultmatrix — fault x policy x P sweep", &first),
        gates: vec![
            ("faults_abort_names_correct_culprit", true),
            ("faults_restart_bit_identical", true),
            ("faults_shrink_survivors_ok", true),
            ("faults_benign_faults_absorbed", true),
            ("faults_ksweep_bit_identical", true),
            ("faults_seeded_recovered_bit_identical", true),
            ("faults_deterministic", first == second),
        ],
    })
}

/// R-standby: the localized-recovery sweep.
pub fn standby(smoke: bool) -> Result<Section, String> {
    let first = run_standby_matrix(smoke)?;
    let second = run_standby_matrix(smoke).map_err(|msg| format!("repeat sweep failed: {msg}"))?;
    // Enforced cell by cell inside run_standby_matrix, except determinism.
    let deterministic = first == second;
    Ok(Section {
        text: standby_text(&first),
        gates: vec![
            ("standby_promote_preserves_p", true),
            ("standby_promote_bit_identical", true),
            ("standby_promote_native_bit_identical", true),
            ("standby_replay_strictly_cheaper_than_restart", true),
            ("standby_shard_corruption_detected", true),
            ("standby_exhausted_fallback_deterministic", deterministic),
            ("standby_deterministic", deterministic),
        ],
    })
}

/// L-largep faults: the reduced fault sweep at large P.
pub fn largep(smoke: bool) -> Result<Section, String> {
    let (baselines, cells) = run_largep_matrix(smoke)?;
    let second = run_largep_matrix(smoke).map_err(|msg| format!("repeat sweep failed: {msg}"))?;
    let deterministic = second.0 == baselines && second.1 == cells;
    let m =
        Matrix { baselines, cells, ksweep: Vec::new(), seeded: Vec::new(), skipped: Vec::new() };
    // Enforced cell by cell inside run_largep_matrix, except determinism.
    let held = [true, true, true, true, deterministic];
    Ok(Section {
        text: to_text("L-largep faults — fault x policy x P sweep on hier_cluster", &m),
        gates: LARGEP_GATES.into_iter().zip(held).collect(),
    })
}

/// Culprit rank for every injected fault. Rank 1 sends to the allreduce
/// root (rank 0) once per collective under the preset's `Linear`
/// algorithm, so its link to rank 0 is exercised every cycle at every P.
const CULPRIT: usize = 1;
/// Send-seq trigger for the fatal faults: ≈ cycle 6 of the search (two
/// allreduce sends per cycle plus model setup) — safely before
/// convergence and *after* the first default-interval checkpoint at the
/// cycle-4 boundary, so restart cells genuinely resume mid-search
/// instead of replaying from scratch.
const FAULT_SEQ: u64 = 13;
/// Virtual-time receive timeout (seconds) armed for the delay cell —
/// generous against normal idles, tiny against [`BLOCKING_DELAY_S`].
const VIRTUAL_TIMEOUT_S: f64 = 2.0;
/// A delay that must trip the virtual-time timeout.
const BLOCKING_DELAY_S: f64 = 1_000.0;
/// A delay the run must absorb: longer than the whole unfaulted run so
/// the elapsed-time increase is unambiguous, with no timeout armed.
const TOLERATED_DELAY_S: f64 = 1.0;
/// Bandwidth slowdown for the degraded-link cell.
const DEGRADE_FACTOR: f64 = 200.0;

/// One cell of the sweep: what was injected, how the supervisor was told
/// to react, and what actually happened (all gates already enforced).
#[derive(PartialEq)]
struct Cell {
    p: usize,
    kind: &'static str,
    policy: &'static str,
    /// `"typed error: …"`, `"recovered"`, or `"completed"`.
    outcome: String,
    attempts: usize,
    survivors: usize,
    /// Raw-bit equality with the unfaulted baseline; `None` where the
    /// comparison is not meaningful (abort cells, shrink cells).
    bit_identical: Option<bool>,
    recovery_s: f64,
    elapsed_s: f64,
}

/// Recovery overhead at one checkpoint interval (P = 4, crash + restart).
#[derive(PartialEq)]
struct KRow {
    k: usize,
    unfaulted_s: f64,
    faulted_s: f64,
    /// Checkpoint cost: unfaulted elapsed vs the k = 0 (no snapshots) run.
    ckpt_overhead_s: f64,
    /// Replay work the checkpoint saved: unfaulted elapsed minus the
    /// recovery attempt's elapsed. Zero when the crash precedes every
    /// snapshot (the restart replays from scratch); positive when the
    /// resume skips already-checkpointed cycles.
    resume_saving_s: f64,
}

#[derive(PartialEq)]
struct Baseline {
    p: usize,
    elapsed_s: f64,
}

/// One graded cell from the seeded sub-sweep (P = 4, restart policy).
#[derive(PartialEq)]
struct SeededCell {
    seed: u64,
    kind: &'static str,
    rank: usize,
    outcome: &'static str,
    attempts: usize,
}

/// A seeded plan the sweep deliberately refuses to grade; the reason is
/// part of the table so the exclusion is auditable.
#[derive(PartialEq)]
struct SkippedCell {
    seed: u64,
    kind: &'static str,
    rank: usize,
    reason: &'static str,
}

#[derive(PartialEq)]
struct Matrix {
    baselines: Vec<Baseline>,
    cells: Vec<Cell>,
    ksweep: Vec<KRow>,
    seeded: Vec<SeededCell>,
    skipped: Vec<SkippedCell>,
}

fn parallel_config() -> ParallelConfig {
    ParallelConfig {
        search: SearchConfig::quick(vec![3], 11),
        strategy: Strategy::Full { exchange: Exchange::Fused },
        ..ParallelConfig::default()
    }
}

fn machine(p: usize) -> MachineSpec {
    // The preset's Linear allreduce keeps the culprit's link to rank 0
    // hot (and folds in rank order, so results are bit-reproducible).
    presets::meiko_cs2(p)
}

fn ftc(policy: RecoveryPolicy) -> FtConfig {
    FtConfig { checkpoint_every: 4, policy, max_restarts: 1, ..FtConfig::default() }
}

fn opts_with(plan: FaultPlan) -> SimOptions {
    SimOptions { fault: Some(plan), ..SimOptions::default() }
}

/// The best classification's score and parameters as raw bit patterns —
/// the strictest possible "same result" comparison.
fn result_bits(o: &ParallelOutcome) -> (u64, Vec<u64>) {
    let flat = classes_to_flat(&o.best.classes);
    (o.best.score().to_bits(), flat.iter().map(|v| v.to_bits()).collect())
}

/// The culprit rank and fault-kind label a typed error names, if it is
/// one of the fault-diagnosis variants.
fn culprit_of(e: &SimError) -> Option<(usize, String)> {
    match e {
        SimError::RankCrashed { rank, .. } => Some((*rank, "crash".to_string())),
        SimError::PeerFailed { peer, kind, .. } => Some((*peer, kind.to_string())),
        SimError::Timeout { from, .. } => Some((*from, "delay".to_string())),
        SimError::PayloadCorrupt { from, .. } => Some((*from, "corrupt".to_string())),
        _ => None,
    }
}

/// A fresh single-fault plan for one cell. Plans share fired flags across
/// clones by design (the restart contract), so every cell gets its own.
fn plan_for(kind: &str) -> FaultPlan {
    let spec =
        |action| FaultSpec { rank: CULPRIT, action, trigger: FaultTrigger::AtSendSeq(FAULT_SEQ) };
    match kind {
        "crash" => FaultPlan::new(vec![spec(FaultAction::Crash)]),
        "drop" => FaultPlan::new(vec![spec(FaultAction::Drop { dst: 0 })]),
        "delay" => FaultPlan::new(vec![FaultSpec {
            rank: CULPRIT,
            action: FaultAction::Delay { dst: 0, secs: BLOCKING_DELAY_S },
            trigger: FaultTrigger::AtSendSeq(FAULT_SEQ),
        }])
        .with_virtual_timeout(VIRTUAL_TIMEOUT_S),
        "corrupt" => {
            FaultPlan::new(vec![spec(FaultAction::Corrupt { dst: 0, byte: 5, mask: 0x20 })])
        }
        other => unreachable!("unknown fault kind {other}"),
    }
}

fn run_matrix(smoke: bool) -> Result<Matrix, String> {
    let (n, ps): (usize, &[usize]) = if smoke { (240, &[2, 4]) } else { (240, &[2, 4, 5, 8]) };
    let data = datagen::paper_dataset(n, 7);
    let cfg = parallel_config();

    let mut baselines = Vec::new();
    let mut cells = Vec::new();
    for &p in ps {
        let spec = machine(p);
        let base = run_search_ft(
            &data,
            &spec,
            &cfg,
            &ftc(RecoveryPolicy::RestartFromCheckpoint),
            &SimOptions::default(),
        )
        .map_err(|e| format!("P={p}: unfaulted baseline failed: {e}"))?;
        if base.attempts != 1 || !base.faults.is_empty() {
            return Err(format!("P={p}: unfaulted baseline reported phantom faults"));
        }
        let base_bits = result_bits(&base.outcome);
        let base_elapsed = base.outcome.elapsed;
        baselines.push(Baseline { p, elapsed_s: base_elapsed });

        for kind in ["crash", "drop", "delay", "corrupt"] {
            for (policy, pname) in [
                (RecoveryPolicy::Abort, "abort"),
                (RecoveryPolicy::RestartFromCheckpoint, "restart"),
                (RecoveryPolicy::ShrinkAndRedistribute, "shrink"),
            ] {
                let res =
                    run_search_ft(&data, &spec, &cfg, &ftc(policy), &opts_with(plan_for(kind)));
                cells.push(grade_cell(p, kind, pname, res, &base_bits)?);
            }
        }

        // Benign faults: the run must absorb them — same bits, more
        // virtual time, and no failure report under any policy (the
        // restart policy stands in; no fault ever surfaces to it).
        for (kind, action, trigger) in [
            (
                "delay-tolerated",
                FaultAction::Delay { dst: 0, secs: TOLERATED_DELAY_S },
                FaultTrigger::AtSendSeq(3),
            ),
            (
                "degrade",
                FaultAction::DegradeLink { dst: 0, factor: DEGRADE_FACTOR },
                FaultTrigger::AtSendSeq(3),
            ),
        ] {
            let plan = FaultPlan::new(vec![FaultSpec { rank: CULPRIT, action, trigger }]);
            let out = run_search_ft(
                &data,
                &spec,
                &cfg,
                &ftc(RecoveryPolicy::RestartFromCheckpoint),
                &opts_with(plan),
            )
            .map_err(|e| format!("P={p} {kind}: benign fault was fatal: {e}"))?;
            if out.attempts != 1 || !out.faults.is_empty() {
                return Err(format!("P={p} {kind}: benign fault triggered a recovery"));
            }
            if result_bits(&out.outcome) != base_bits {
                return Err(format!("P={p} {kind}: benign fault changed the numbers"));
            }
            if out.outcome.elapsed <= base_elapsed {
                return Err(format!(
                    "P={p} {kind}: elapsed {:.6}s not above the baseline {:.6}s — \
                     the fault had no cost, so it was not injected",
                    out.outcome.elapsed, base_elapsed
                ));
            }
            cells.push(Cell {
                p,
                kind,
                policy: "n/a",
                outcome: "completed".to_string(),
                attempts: out.attempts,
                survivors: out.survivors,
                bit_identical: Some(true),
                recovery_s: out.recovery_time,
                elapsed_s: out.outcome.elapsed,
            });
        }
    }

    let (seeded, skipped) = run_seeded(smoke, &data, &cfg)?;
    Ok(Matrix { baselines, cells, ksweep: run_ksweep(smoke, &data, &cfg)?, seeded, skipped })
}

/// The label a fault action carries in tables and diagnoses.
fn fault_kind_label(a: &FaultAction) -> &'static str {
    match a {
        FaultAction::Crash => "crash",
        FaultAction::Drop { .. } => "drop",
        FaultAction::Delay { .. } => "delay",
        FaultAction::Corrupt { .. } => "corrupt",
        FaultAction::DegradeLink { .. } => "degrade",
        // The enum is non-exhaustive; a kind this harness does not know
        // is graded like a fatal one (never skipped).
        _ => "unknown",
    }
}

/// The seeded sub-sweep at P = 4: randomized but reproducible
/// single-fault plans ([`FaultPlan::seeded`]) graded under the restart
/// policy. Two plan shapes are deliberately *skipped* and recorded as
/// explicit cells with reasons rather than silently dropped:
///
/// * a **crash on rank 0** — rank 0 publishes the checkpoints, and a
///   crash there can land inside a publication; whether the snapshot
///   store survives that race is not modeled, so the restart contract
///   does not cover the cell;
/// * the **benign kinds** (delay, degraded link) — absorbed with no
///   failure report by design and graded by the dedicated benign cells,
///   so the recovery gates do not apply.
///
/// The seed list is deterministically extended with the first seed whose
/// plan is a rank-0 crash, so the sweep always *exhibits* the skip rule
/// instead of merely stating it.
fn run_seeded(
    smoke: bool,
    data: &autoclass::data::Dataset,
    cfg: &ParallelConfig,
) -> Result<(Vec<SeededCell>, Vec<SkippedCell>), String> {
    const P: usize = 4;
    let n_seeds: u64 = if smoke { 6 } else { 12 };
    let mut seeds: Vec<u64> = (1..=n_seeds).collect();
    if let Some(s0) = (1..10_000).find(|&s| {
        FaultPlan::seeded(s, P)
            .specs()
            .iter()
            .any(|sp| sp.rank == 0 && matches!(sp.action, FaultAction::Crash))
    }) {
        if !seeds.contains(&s0) {
            seeds.push(s0);
        }
    }
    let spec = machine(P);
    let base = run_search_ft(
        data,
        &spec,
        cfg,
        &ftc(RecoveryPolicy::RestartFromCheckpoint),
        &SimOptions::default(),
    )
    .map_err(|e| format!("seeded baseline failed: {e}"))?;
    let base_bits = result_bits(&base.outcome);
    let mut cells = Vec::new();
    let mut skipped = Vec::new();
    for seed in seeds {
        let plan = FaultPlan::seeded(seed, P);
        let (rank, kind) = {
            let sp = &plan.specs()[0];
            (sp.rank, fault_kind_label(&sp.action))
        };
        if rank == 0 && kind == "crash" {
            skipped.push(SkippedCell {
                seed,
                kind,
                rank,
                reason: "crash on rank 0 can land inside a checkpoint publication and lose the \
                         snapshot store — a race the restart contract does not model, so the \
                         cell is excluded, not silently absorbed",
            });
            continue;
        }
        if matches!(kind, "delay" | "degrade") {
            skipped.push(SkippedCell {
                seed,
                kind,
                rank,
                reason: "benign fault kind: absorbed with no failure report by design and \
                         graded by the dedicated benign cells, so the recovery gates do not \
                         apply",
            });
            continue;
        }
        let out = run_search_ft(
            data,
            &spec,
            cfg,
            &ftc(RecoveryPolicy::RestartFromCheckpoint),
            &opts_with(plan),
        )
        .map_err(|e| format!("seed {seed} ({kind} on rank {rank}): recovery failed: {e}"))?;
        match (out.attempts, out.faults.len()) {
            // Either the trigger was never reached (clean run) or exactly
            // one fault fired and one recovery followed.
            (1, 0) | (2, 1) => {}
            (a, f) => {
                return Err(format!(
                    "seed {seed} ({kind} on rank {rank}): {f} fault(s) in {a} attempt(s)"
                ));
            }
        }
        if let Some(e) = out.faults.first() {
            match culprit_of(e) {
                Some((r, k)) if r == rank && k == kind => {}
                _ => {
                    return Err(format!(
                        "seed {seed}: diagnosis does not name the injected fault \
                         ({kind} on rank {rank}): {e}"
                    ));
                }
            }
        }
        if result_bits(&out.outcome) != base_bits {
            return Err(format!(
                "seed {seed} ({kind} on rank {rank}): recovered result differs from the \
                 fault-free bits"
            ));
        }
        let outcome =
            if out.faults.is_empty() { "completed (trigger never reached)" } else { "recovered" };
        cells.push(SeededCell { seed, kind, rank, outcome, attempts: out.attempts });
    }
    Ok((cells, skipped))
}

/// Enforce one fatal cell's gates and record it.
fn grade_cell(
    p: usize,
    kind: &'static str,
    policy: &'static str,
    res: Result<FtOutcome, RunError>,
    base_bits: &(u64, Vec<u64>),
) -> Result<Cell, String> {
    let where_ = format!("P={p} {kind} x {policy}");
    // Whatever the policy, a reported fault must carry the injected
    // culprit's coordinates.
    let check_culprit = |e: &SimError| -> Result<(), String> {
        match culprit_of(e) {
            Some((rank, k)) if rank == CULPRIT && k == kind => Ok(()),
            Some((rank, k)) => Err(format!(
                "{where_}: diagnosis names rank {rank} ({k}), injected {CULPRIT} ({kind})"
            )),
            None => Err(format!("{where_}: error is not a fault diagnosis: {e}")),
        }
    };
    match (policy, res) {
        ("abort", Err(RunError::Sim(e))) => {
            check_culprit(&e)?;
            Ok(Cell {
                p,
                kind,
                policy,
                outcome: format!("typed error: {e}"),
                attempts: 1,
                survivors: 0,
                bit_identical: None,
                recovery_s: 0.0,
                elapsed_s: 0.0,
            })
        }
        ("abort", Err(e)) => Err(format!("{where_}: expected a sim fault, got {e}")),
        ("abort", Ok(_)) => {
            Err(format!("{where_}: run succeeded — the fault never fired or was swallowed"))
        }
        (_, Err(e)) => Err(format!("{where_}: recovery failed: {e}")),
        (_, Ok(out)) => {
            if out.attempts != 2 || out.faults.len() != 1 {
                return Err(format!(
                    "{where_}: expected exactly one fault and one recovery, got {} fault(s) in {} attempt(s)",
                    out.faults.len(),
                    out.attempts
                ));
            }
            check_culprit(&out.faults[0])?;
            let bit_identical = if policy == "restart" || policy == "promote" {
                if &result_bits(&out.outcome) != base_bits {
                    return Err(format!(
                        "{where_}: recovered result differs from the baseline bits"
                    ));
                }
                Some(true)
            } else {
                // Shrink repartitions over P−1 ranks; the result is a
                // valid classification but not the baseline's bits.
                None
            };
            if policy == "promote" {
                if out.promotions != 1 || out.fell_back || out.shrunk || out.survivors != p {
                    return Err(format!(
                        "{where_}: promotion not clean (promotions {}, fell_back {}, \
                         survivors {})",
                        out.promotions, out.fell_back, out.survivors
                    ));
                }
                if out.recovery_time <= 0.0 {
                    return Err(format!("{where_}: promotion reported no recovery virtual time"));
                }
            }
            if policy == "shrink" {
                if !out.shrunk || out.survivors != p - 1 {
                    return Err(format!(
                        "{where_}: expected {} survivors, got {} (shrunk: {})",
                        p - 1,
                        out.survivors,
                        out.shrunk
                    ));
                }
                if out.recovery_time <= 0.0 {
                    return Err(format!("{where_}: recovery phase reported no virtual time"));
                }
            }
            Ok(Cell {
                p,
                kind,
                policy,
                outcome: "recovered".to_string(),
                attempts: out.attempts,
                survivors: out.survivors,
                bit_identical,
                recovery_s: out.recovery_time,
                elapsed_s: out.outcome.elapsed,
            })
        }
    }
}

/// Recovery overhead versus checkpoint interval at P = 4: for each `k`,
/// one unfaulted run (checkpoint cost) and one crash-restart run (replay
/// cost). Restarts must stay bit-identical at every interval, including
/// `k = 0` (no snapshots: full replay).
fn run_ksweep(
    smoke: bool,
    data: &autoclass::data::Dataset,
    cfg: &ParallelConfig,
) -> Result<Vec<KRow>, String> {
    let ks: &[usize] = if smoke { &[0, 4] } else { &[0, 1, 2, 4, 8, 16] };
    let spec = machine(4);
    let mut rows: Vec<KRow> = Vec::new();
    let mut bits0: Option<(u64, Vec<u64>)> = None;
    let mut unfaulted0 = 0.0;
    for &k in ks {
        let fc = FtConfig {
            checkpoint_every: k,
            policy: RecoveryPolicy::RestartFromCheckpoint,
            max_restarts: 1,
            ..FtConfig::default()
        };
        let unf = run_search_ft(data, &spec, cfg, &fc, &SimOptions::default())
            .map_err(|e| format!("ksweep k={k}: unfaulted run failed: {e}"))?;
        let fau = run_search_ft(data, &spec, cfg, &fc, &opts_with(plan_for("crash")))
            .map_err(|e| format!("ksweep k={k}: restart failed: {e}"))?;
        if fau.attempts != 2 {
            return Err(format!(
                "ksweep k={k}: expected one recovery, got {} attempts",
                fau.attempts
            ));
        }
        let bits = result_bits(&unf.outcome);
        if result_bits(&fau.outcome) != bits {
            return Err(format!("ksweep k={k}: recovered result differs from the unfaulted run"));
        }
        match &bits0 {
            None => {
                bits0 = Some(bits);
                unfaulted0 = unf.outcome.elapsed;
            }
            Some(b0) if *b0 != bits => {
                return Err(format!("ksweep k={k}: checkpoint interval changed the numbers"));
            }
            Some(_) => {}
        }
        let saving = unf.outcome.elapsed - fau.outcome.elapsed;
        if saving < 0.0 {
            return Err(format!(
                "ksweep k={k}: the recovery attempt took {:.6}s, longer than the whole \
                 unfaulted run ({:.6}s) — the resume replayed more than it skipped",
                fau.outcome.elapsed, unf.outcome.elapsed
            ));
        }
        // The crash lands in cycle 6; any interval covering the cycle-4
        // boundary must produce a snapshot the resume actually skips
        // cycles with.
        if (1..=4).contains(&k) && saving <= 0.0 {
            return Err(format!(
                "ksweep k={k}: resume saved no virtual time — the restart did not \
                 pick up the checkpoint"
            ));
        }
        rows.push(KRow {
            k,
            unfaulted_s: unf.outcome.elapsed,
            faulted_s: fau.outcome.elapsed,
            ckpt_overhead_s: unf.outcome.elapsed - unfaulted0,
            resume_saving_s: saving,
        });
    }
    Ok(rows)
}

/// The reduced large-`P` sweep: crash and corrupt under abort/restart on
/// the hierarchical fat-tree cluster. The full fault × policy matrix at
/// these sizes would dominate CI for no extra coverage — the fault layer
/// is size-independent; what this sweep pins is that detection,
/// diagnosis, and bit-identical recovery survive at P up to 1024.
fn run_largep_matrix(smoke: bool) -> Result<(Vec<Baseline>, Vec<Cell>), String> {
    let ps: &[usize] = if smoke { &[64, 256] } else { &[64, 256, 1024] };
    // Every rank must own data at P = 1024. On the tiny per-rank
    // partitions up there the EM search can hit an exact fixed point
    // within ~3 cycles, so the fatal faults trigger at send #5 (≈ cycle
    // 2) — a sequence every run reaches — rather than [`FAULT_SEQ`].
    // The crash then precedes the first checkpoint and the restart
    // replays from scratch; bit-identity is still fully enforced.
    const LARGEP_FAULT_SEQ: u64 = 5;
    let plan = |kind: &str| {
        let action = match kind {
            "crash" => FaultAction::Crash,
            _ => FaultAction::Corrupt { dst: 0, byte: 5, mask: 0x20 },
        };
        FaultPlan::new(vec![FaultSpec {
            rank: CULPRIT,
            action,
            trigger: FaultTrigger::AtSendSeq(LARGEP_FAULT_SEQ),
        }])
    };
    let data = datagen::paper_dataset(2_048, 7);
    let cfg = parallel_config();

    let mut baselines = Vec::new();
    let mut cells = Vec::new();
    for &p in ps {
        let spec = presets::hier_cluster(p, 8);
        let base = run_search_ft(
            &data,
            &spec,
            &cfg,
            &ftc(RecoveryPolicy::RestartFromCheckpoint),
            &SimOptions::default(),
        )
        .map_err(|e| format!("P={p}: unfaulted baseline failed: {e}"))?;
        if base.attempts != 1 || !base.faults.is_empty() {
            return Err(format!("P={p}: unfaulted baseline reported phantom faults"));
        }
        let base_bits = result_bits(&base.outcome);
        baselines.push(Baseline { p, elapsed_s: base.outcome.elapsed });

        for kind in ["crash", "corrupt"] {
            for (policy, pname) in [
                (RecoveryPolicy::Abort, "abort"),
                (RecoveryPolicy::RestartFromCheckpoint, "restart"),
                // The spare-rank row: one warm spare absorbs the fault
                // without changing P, even at a thousand ranks.
                (RecoveryPolicy::PromoteSpare, "promote"),
            ] {
                let res = run_search_ft(&data, &spec, &cfg, &ftc(policy), &opts_with(plan(kind)));
                cells.push(grade_cell(p, kind, pname, res, &base_bits)?);
            }
        }
    }
    Ok((baselines, cells))
}

/// One cell of the localized-recovery (standby) sweep.
#[derive(PartialEq)]
struct StandbyCell {
    p: usize,
    scenario: &'static str,
    backend: &'static str,
    outcome: String,
    attempts: usize,
    promotions: usize,
    replays: usize,
    fell_back: bool,
    survivors: usize,
    bit_identical: Option<bool>,
    recovery_s: f64,
    elapsed_s: f64,
}

/// Gate one standby outcome against its expected shape — exact
/// attempts/promotions/replays/fallback counts, P preserved, and the
/// result bit-identical to the fault-free baseline — and record it.
fn grade_standby(
    p: usize,
    scenario: &'static str,
    backend: &'static str,
    out: &FtOutcome,
    base_bits: &(u64, Vec<u64>),
    want: (usize, usize, usize, bool),
) -> Result<StandbyCell, String> {
    let where_ = format!("P={p} {scenario} [{backend}]");
    let (attempts, promotions, replays, fell_back) = want;
    if out.attempts != attempts
        || out.promotions != promotions
        || out.replays != replays
        || out.fell_back != fell_back
    {
        return Err(format!(
            "{where_}: expected attempts/promotions/replays/fell_back = \
             {attempts}/{promotions}/{replays}/{fell_back}, got {}/{}/{}/{}",
            out.attempts, out.promotions, out.replays, out.fell_back
        ));
    }
    if out.shrunk || out.survivors != p {
        return Err(format!(
            "{where_}: P not preserved ({} survivors, shrunk: {})",
            out.survivors, out.shrunk
        ));
    }
    if &result_bits(&out.outcome) != base_bits {
        return Err(format!("{where_}: result differs from the fault-free bits"));
    }
    let outcome = if out.attempts == 1 {
        "completed"
    } else if out.fell_back {
        "recovered (fell back)"
    } else {
        "recovered"
    };
    Ok(StandbyCell {
        p,
        scenario,
        backend,
        outcome: outcome.to_string(),
        attempts: out.attempts,
        promotions: out.promotions,
        replays: out.replays,
        fell_back: out.fell_back,
        survivors: out.survivors,
        bit_identical: Some(true),
        recovery_s: out.recovery_time,
        elapsed_s: out.outcome.elapsed,
    })
}

/// The localized-recovery sweep: every cell injects the same crash as the
/// main matrix (culprit rank 1, send #13 — past the first checkpoint) and
/// gates the two localized mechanisms against the rollback policy:
///
/// * **promote** — a warm spare takes over the culprit's logical slot on
///   the simulator *and* the native backend: exactly one promotion, P
///   preserved, result bit-identical to the fault-free run.
/// * **replay vs restart** — on the identical fault cell, the in-flight
///   replay's recovery virtual time must be *strictly* below the full
///   rollback's (localization is the point; equality means the log
///   bought nothing).
/// * **exhausted** — two crashes against one spare: the second promotion
///   request must fall back to a full restart deterministically
///   (attempts = 3, exactly one promotion, `fell_back`).
/// * **corrupt-shard** — a corrupted checkpoint shard under promotion:
///   the spare must refuse the shard with a typed diagnosis naming the
///   shard's owner and fall back to restarting from the intact image,
///   without consuming the spare.
fn run_standby_matrix(smoke: bool) -> Result<Vec<StandbyCell>, String> {
    let ps: &[usize] = if smoke { &[2, 5] } else { &[2, 5, 8] };
    let data = datagen::paper_dataset(240, 7);
    let cfg = parallel_config();
    let mut cells = Vec::new();
    for &p in ps {
        let spec = machine(p);
        let base = run_search_ft(
            &data,
            &spec,
            &cfg,
            &ftc(RecoveryPolicy::RestartFromCheckpoint),
            &SimOptions::default(),
        )
        .map_err(|e| format!("P={p}: unfaulted baseline failed: {e}"))?;
        if base.attempts != 1 || !base.faults.is_empty() {
            return Err(format!("P={p}: unfaulted baseline reported phantom faults"));
        }
        let base_bits = result_bits(&base.outcome);
        cells.push(grade_standby(p, "baseline", "sim-coop", &base, &base_bits, (1, 0, 0, false))?);

        // Spare promotion on the simulator.
        let out = run_search_ft(
            &data,
            &spec,
            &cfg,
            &ftc(RecoveryPolicy::PromoteSpare),
            &opts_with(plan_for("crash")),
        )
        .map_err(|e| format!("P={p} promote [sim-coop]: {e}"))?;
        let cell = grade_standby(p, "promote", "sim-coop", &out, &base_bits, (2, 1, 0, false))?;
        if cell.recovery_s <= 0.0 {
            return Err(format!(
                "P={p} promote [sim-coop]: promotion reported no recovery virtual time"
            ));
        }
        cells.push(cell);

        // Spare promotion on the native backend: same crash plan, real
        // threads. Timings are wall-clock there, so they are zeroed in
        // the table — the determinism gate compares the two sweeps and
        // must see only modeled quantities.
        let nopts = NativeOptions { fault: Some(plan_for("crash")), ..NativeOptions::default() };
        let out =
            run_search_ft_native(&data, &spec, &cfg, &ftc(RecoveryPolicy::PromoteSpare), &nopts)
                .map_err(|e| format!("P={p} promote [native]: {e}"))?;
        let mut cell = grade_standby(p, "promote", "native", &out, &base_bits, (2, 1, 0, false))?;
        cell.recovery_s = 0.0;
        cell.elapsed_s = 0.0;
        cells.push(cell);

        // The same crash under full rollback and under localized replay:
        // the replay horizon must be strictly cheaper.
        let restart = run_search_ft(
            &data,
            &spec,
            &cfg,
            &ftc(RecoveryPolicy::RestartFromCheckpoint),
            &opts_with(plan_for("crash")),
        )
        .map_err(|e| format!("P={p} restart: {e}"))?;
        cells.push(grade_standby(
            p,
            "restart",
            "sim-coop",
            &restart,
            &base_bits,
            (2, 0, 0, false),
        )?);
        let replay = run_search_ft(
            &data,
            &spec,
            &cfg,
            &ftc(RecoveryPolicy::LocalReplay),
            &opts_with(plan_for("crash")),
        )
        .map_err(|e| format!("P={p} replay: {e}"))?;
        cells.push(grade_standby(p, "replay", "sim-coop", &replay, &base_bits, (2, 0, 1, false))?);
        if restart.recovery_time <= 0.0 {
            return Err(format!("P={p}: rollback charged no recovery virtual time"));
        }
        if replay.recovery_time >= restart.recovery_time {
            return Err(format!(
                "P={p}: replay recovery {:.9}s is not strictly below the rollback's {:.9}s — \
                 the in-flight log bought nothing",
                replay.recovery_time, restart.recovery_time
            ));
        }

        // Two crashes against one spare: the first promotes, the second
        // finds the pool exhausted and falls back to a full restart. Both
        // crashes land before the first checkpoint so each re-run
        // re-reaches the next trigger from scratch.
        let two_crashes = FaultPlan::new(vec![
            FaultSpec {
                rank: CULPRIT,
                action: FaultAction::Crash,
                trigger: FaultTrigger::AtSendSeq(5),
            },
            FaultSpec {
                rank: CULPRIT,
                action: FaultAction::Crash,
                trigger: FaultTrigger::AtSendSeq(9),
            },
        ]);
        let ft = FtConfig {
            checkpoint_every: 4,
            policy: RecoveryPolicy::PromoteSpare,
            max_restarts: 2,
            ..FtConfig::default()
        };
        let out = run_search_ft(&data, &spec, &cfg, &ft, &opts_with(two_crashes))
            .map_err(|e| format!("P={p} exhausted: {e}"))?;
        cells.push(grade_standby(p, "exhausted", "sim-coop", &out, &base_bits, (3, 1, 0, true))?);

        // A corrupted checkpoint shard: promotion must refuse it with a
        // typed diagnosis naming the shard's owner, fall back to the
        // intact full image, and leave the spare unconsumed.
        let ft = FtConfig {
            checkpoint_every: 4,
            policy: RecoveryPolicy::PromoteSpare,
            max_restarts: 1,
            standby: StandbyConfig {
                shard_fault: Some(ShardFault { logical_rank: CULPRIT, byte: 7, mask: 0x40 }),
                ..StandbyConfig::default()
            },
        };
        let out = run_search_ft(&data, &spec, &cfg, &ft, &opts_with(plan_for("crash")))
            .map_err(|e| format!("P={p} corrupt-shard: {e}"))?;
        if !out
            .faults
            .iter()
            .any(|f| matches!(f, SimError::PayloadCorrupt { from, .. } if *from == CULPRIT))
        {
            return Err(format!(
                "P={p} corrupt-shard: no corruption diagnosis naming rank {CULPRIT} in {:?}",
                out.faults
            ));
        }
        cells.push(grade_standby(
            p,
            "corrupt-shard",
            "sim-coop",
            &out,
            &base_bits,
            (2, 0, 0, true),
        )?);
    }
    Ok(cells)
}

fn standby_text(cells: &[StandbyCell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "R-standby — localized recovery sweep (culprit rank {CULPRIT}, all gates enforced)"
    );
    let _ = writeln!(
        out,
        "{:>3}  {:<13} {:<12} {:>8} {:>5} {:>7} {:>9} {:>9} {:>12} {:>12}  outcome",
        "P",
        "scenario",
        "backend",
        "attempts",
        "promo",
        "replays",
        "fellback",
        "survivors",
        "recovery_s",
        "elapsed_s"
    );
    for c in cells {
        let _ = writeln!(
            out,
            "{:>3}  {:<13} {:<12} {:>8} {:>5} {:>7} {:>9} {:>9} {:>12.6} {:>12.6}  {}",
            c.p,
            c.scenario,
            c.backend,
            c.attempts,
            c.promotions,
            c.replays,
            c.fell_back,
            c.survivors,
            c.recovery_s,
            c.elapsed_s,
            c.outcome
        );
    }
    out
}

fn to_text(title: &str, m: &Matrix) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title} (culprit rank {CULPRIT}, all gates enforced)");
    let _ = writeln!(
        out,
        "{:>3}  {:<15} {:<8} {:<10} {:>8} {:>9} {:>12} {:>12}  outcome",
        "P", "fault", "policy", "bits", "attempts", "survivors", "recovery_s", "elapsed_s"
    );
    for c in &m.cells {
        let bits = match c.bit_identical {
            Some(true) => "identical",
            Some(false) => "DIFFER",
            None => "-",
        };
        let _ = writeln!(
            out,
            "{:>3}  {:<15} {:<8} {:<10} {:>8} {:>9} {:>12.6} {:>12.6}  {}",
            c.p,
            c.kind,
            c.policy,
            bits,
            c.attempts,
            c.survivors,
            c.recovery_s,
            c.elapsed_s,
            c.outcome
        );
    }
    if !m.seeded.is_empty() || !m.skipped.is_empty() {
        let _ = writeln!(out, "\nseeded plans (P = 4, restart policy)");
        for c in &m.seeded {
            let _ = writeln!(
                out,
                "  seed {:>5}  {:<8} rank {}  attempts {}  {}",
                c.seed, c.kind, c.rank, c.attempts, c.outcome
            );
        }
        for c in &m.skipped {
            let _ = writeln!(
                out,
                "  seed {:>5}  {:<8} rank {}  SKIPPED: {}",
                c.seed, c.kind, c.rank, c.reason
            );
        }
    }
    if m.ksweep.is_empty() {
        return out;
    }
    let _ = writeln!(out, "\nrecovery overhead vs checkpoint interval (P = 4, crash + restart)");
    let _ = writeln!(
        out,
        "{:>4} {:>12} {:>12} {:>16} {:>16}",
        "k", "unfaulted_s", "faulted_s", "ckpt_overhead_s", "resume_saving_s"
    );
    for r in &m.ksweep {
        let _ = writeln!(
            out,
            "{:>4} {:>12.6} {:>12.6} {:>16.6} {:>16.6}",
            r.k, r.unfaulted_s, r.faulted_s, r.ckpt_overhead_s, r.resume_saving_s
        );
    }
    out
}
