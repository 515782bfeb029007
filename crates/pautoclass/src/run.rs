//! Top-level P-AutoClass entry points: run the full search — or a
//! fixed-size cycling run for scaleup measurements — on a simulated
//! multicomputer ([`run_search`]) or on real cores ([`run_search_native`]).
//! Both drive the same generic rank body through [`mpsim::Communicator`],
//! so their classifications are bitwise identical; only the time axis
//! differs (virtual LogGP seconds vs measured wall-clock seconds).

use autoclass::data::Dataset;
use autoclass::model::{converged, derive_seed, CycleWorkspace};
use autoclass::search::{apply_class_death, is_duplicate, Classification};
use mpsim::{run_spmd, Communicator, MachineSpec, RankStats, RunStats, SimOptions};
use shmcomm::{run_native, NativeOptions};

use crate::config::ParallelConfig;
use crate::driver::{build_model, init_classes_parallel, parallel_base_cycle};
use crate::error::RunError;

/// Result of a parallel search. Every rank computes identical
/// classifications (the semantics-preservation property); the values here
/// are rank 0's.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// Best classification by Cheeseman–Stutz score.
    pub best: Classification,
    /// All retained classifications, best first, duplicates removed.
    pub all: Vec<Classification>,
    /// Elapsed virtual time of the whole run (max over ranks), seconds.
    pub elapsed: f64,
    /// Per-rank time/traffic statistics.
    pub ranks: Vec<RankStats>,
    /// Aggregate statistics.
    pub stats: RunStats,
    /// Total EM cycles executed across all tries.
    pub cycles: usize,
}

/// The per-rank body of the search, shared by [`run_search`] and
/// [`run_search_native`] — one body, two machines.
fn search_rank_body<C: Communicator>(
    comm: &mut C,
    data: &Dataset,
    config: &ParallelConfig,
) -> (Vec<Classification>, usize) {
    // Everything not claimed by an inner span (model setup, class-death
    // and convergence decisions, dedup/scoring) is model-search time.
    comm.enter_phase("search");
    let part = config.partition.range(data.len(), comm.size(), comm.rank());
    let view = data.view(part.start, part.end);
    let model = build_model(comm, &view, &config.correlated_blocks);
    let sc = &config.search;

    let mut all: Vec<Classification> = Vec::new();
    let mut total_cycles = 0usize;
    // One workspace outlives every try: the weight matrix, E-step scratch
    // and statistics buffer reach their high-water mark once and are
    // reused for the rest of the search.
    let mut ws = CycleWorkspace::new();

    for (ji, &j) in sc.start_j_list.iter().enumerate() {
        for t in 0..sc.tries_per_j {
            let seed = derive_seed(sc.seed, (ji * sc.tries_per_j + t) as u64);
            let mut classes = Vec::new();
            init_classes_parallel(comm, &model, &view, j, seed, &mut classes);
            let mut prev_ll = f64::NEG_INFINITY;
            let mut cycles = 0usize;
            let mut did_converge = false;
            let mut approx = autoclass::model::Approximation {
                log_likelihood: f64::NEG_INFINITY,
                complete_ll: f64::NEG_INFINITY,
                complete_marginal: f64::NEG_INFINITY,
                cs_score: f64::NEG_INFINITY,
            };
            while cycles < sc.max_cycles {
                let a = parallel_base_cycle(
                    comm,
                    &model,
                    &view,
                    &mut classes,
                    &mut ws,
                    config.strategy,
                );
                approx = a;
                cycles += 1;
                // Global statistics are identical on every rank, so the
                // class-death and convergence decisions are too — no
                // extra coordination message is needed.
                if apply_class_death(&mut classes, sc.min_class_weight) {
                    prev_ll = f64::NEG_INFINITY;
                    continue;
                }
                if converged(prev_ll, a.log_likelihood, sc.rel_delta_ll) {
                    did_converge = true;
                    break;
                }
                prev_ll = a.log_likelihood;
            }
            total_cycles += cycles;
            classes.sort_by(|a, b| b.weight.total_cmp(&a.weight));
            let log_prior = autoclass::model::log_param_prior(&model, &classes);
            let c = Classification {
                classes,
                j_initial: j,
                approx,
                log_prior,
                cycles,
                converged: did_converge,
                seed,
            };
            if !all.iter().any(|existing| is_duplicate(existing, &c)) {
                all.push(c);
            }
        }
    }
    all.sort_by(|a, b| b.score().total_cmp(&a.score()));
    all.truncate(sc.max_stored);
    comm.exit_phase();
    (all, total_cycles)
}

/// Run the full P-AutoClass search on the given (simulated) machine.
///
/// # Errors
/// Propagates engine failures (rank panics, proven deadlocks, verifier
/// divergences) as [`RunError::Sim`]; a search that stores no
/// classification (e.g. an empty `start_j_list`) is
/// [`RunError::EmptySearch`] rather than a panic, and a partitioning that
/// fails [`crate::Partitioning::validate`] is [`RunError::Partition`].
pub fn run_search(
    data: &Dataset,
    machine: &MachineSpec,
    config: &ParallelConfig,
) -> Result<ParallelOutcome, RunError> {
    run_search_with(data, machine, config, &SimOptions::default())
}

/// [`run_search`] with explicit engine options (event tracing,
/// verification layers, fault plans).
///
/// # Errors
/// Same contract as [`run_search`].
pub fn run_search_with(
    data: &Dataset,
    machine: &MachineSpec,
    config: &ParallelConfig,
    opts: &SimOptions,
) -> Result<ParallelOutcome, RunError> {
    config.partition.validate(machine.p)?;
    let out = run_spmd(machine, opts, |comm| search_rank_body(comm, data, config))?;
    let Some((all, cycles)) = out.per_rank.into_iter().next() else {
        // A machine with zero ranks is rejected by the engine before the
        // body runs, so this is unreachable in practice — but returning an
        // error keeps the library free of panic paths.
        return Err(RunError::EmptySearch);
    };
    outcome_from(all, cycles, out.elapsed, out.ranks, out.stats)
}

/// Run the full P-AutoClass search on real cores: `machine.p` OS threads,
/// wall-clock time, the exact rank body [`run_search`] uses. The machine
/// spec contributes only its decisions (rank count, allreduce algorithm
/// selection), so the classification, log-likelihoods, and per-cycle
/// control flow are bitwise identical to the simulated run's; `elapsed`
/// and the per-rank phase buckets are measured on this host's silicon.
///
/// # Errors
/// Native backend failures (a panicked rank, a poisoned lock, a
/// disconnected channel, a receive timeout) surface as
/// [`RunError::Comm`]; a search that stores no classification is
/// [`RunError::EmptySearch`]; a bad partitioning is
/// [`RunError::Partition`].
pub fn run_search_native(
    data: &Dataset,
    machine: &MachineSpec,
    config: &ParallelConfig,
    opts: &NativeOptions,
) -> Result<ParallelOutcome, RunError> {
    config.partition.validate(machine.p)?;
    let out = run_native(machine, opts, |comm| search_rank_body(comm, data, config))?;
    let Some((all, cycles)) = out.per_rank.into_iter().next() else {
        return Err(RunError::EmptySearch);
    };
    outcome_from(all, cycles, out.elapsed, out.ranks, out.stats)
}

/// Assemble a [`ParallelOutcome`] from one rank's search result and the
/// run's statistics. Shared with the fault-tolerant supervisor
/// ([`crate::run_search_ft`]), whose surviving ranks produce the same
/// `(classifications, cycles)` pair.
pub(crate) fn outcome_from(
    all: Vec<Classification>,
    cycles: usize,
    elapsed: f64,
    ranks: Vec<RankStats>,
    stats: RunStats,
) -> Result<ParallelOutcome, RunError> {
    let Some(best) = all.first().cloned() else {
        return Err(RunError::EmptySearch);
    };
    Ok(ParallelOutcome { best, all, elapsed, ranks, stats, cycles })
}

/// Timing of a fixed-J cycling run (the paper's scaleup measurement:
/// Figure 8 times single `base_cycle` iterations at J = 8 and 16).
#[derive(Debug, Clone)]
pub struct CycleTiming {
    /// Virtual seconds spent in the measured cycles (max over ranks).
    pub elapsed: f64,
    /// Number of cycles measured.
    pub cycles: usize,
    /// Elapsed / cycles.
    pub per_cycle: f64,
    /// Per-rank statistics for the whole run (including setup).
    pub ranks: Vec<RankStats>,
    /// Final global log likelihood (sanity output).
    pub log_likelihood: f64,
}

/// Run exactly `n_cycles` parallel base cycles at a fixed class count
/// (no class death, no convergence exit) and time them in virtual time.
///
/// # Errors
/// Propagates engine failures as [`RunError::Sim`] and a bad partitioning
/// as [`RunError::Partition`].
pub fn run_fixed_j(
    data: &Dataset,
    machine: &MachineSpec,
    j: usize,
    n_cycles: usize,
    seed: u64,
    config: &ParallelConfig,
) -> Result<CycleTiming, RunError> {
    config.partition.validate(machine.p)?;
    let out = run_spmd(machine, &SimOptions::default(), |comm| {
        comm.enter_phase("search");
        let part = config.partition.range(data.len(), comm.size(), comm.rank());
        let view = data.view(part.start, part.end);
        let model = build_model(comm, &view, &config.correlated_blocks);
        let mut classes = Vec::new();
        init_classes_parallel(comm, &model, &view, j, seed, &mut classes);
        let mut ws = CycleWorkspace::new();
        // Synchronize before the measured window so stragglers from setup
        // don't leak into the cycle timing.
        comm.barrier();
        let t0 = comm.now();
        let mut ll = f64::NEG_INFINITY;
        for _ in 0..n_cycles {
            let a =
                parallel_base_cycle(comm, &model, &view, &mut classes, &mut ws, config.strategy);
            ll = a.log_likelihood;
        }
        comm.exit_phase();
        (comm.now() - t0, ll)
    })?;
    let elapsed = out.per_rank.iter().map(|(dt, _)| *dt).fold(0.0, f64::max);
    let log_likelihood = out.per_rank.first().map(|&(_, ll)| ll).unwrap_or(f64::NEG_INFINITY);
    Ok(CycleTiming {
        elapsed,
        cycles: n_cycles,
        per_cycle: elapsed / n_cycles.max(1) as f64,
        ranks: out.ranks,
        log_likelihood,
    })
}
