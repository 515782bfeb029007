//! The P-AutoClass search: sequential AutoClass's try loop, written once,
//! and its plain entry points.
//!
//! The try loop (`search_tries`) is tries × `base_cycle` with class
//! death, the convergence test and duplicate elimination. It is generic
//! over [`mpsim::SpmdComm`] and takes the EM cycle as an argument, so one
//! loop serves the world search (`WorldSearch`: [`run_search`] on the
//! simulated machine, [`run_search_native`] on real cores, both through
//! [`crate::driver::parallel_base_cycle`]), the fault-tolerant supervisor
//! (`crate::recover`, which runs `WorldSearch` with checkpoints and
//! resume on) and the survivors' search after a shrink (through
//! [`crate::driver::blocking_cycle`], the world's cycle body, with the Fused
//! exchange on the survivors' group). The fleet search drives its
//! candidates through the same per-cycle step and finish (`Try`) and the
//! same cycle. The simulated and native runs are bitwise identical;
//! only the time axis differs (virtual LogGP seconds vs measured
//! wall-clock seconds).

use std::sync::{Arc, Mutex};

use autoclass::data::{block_range, DataView, Dataset};
use autoclass::model::{
    classes_from_flat_into, classes_to_flat, converged, derive_seed, log_param_prior,
    Approximation, CycleWorkspace, Model,
};
use autoclass::search::{
    apply_class_death, class_death_due, is_duplicate, Classification, SearchConfig,
};
use mpsim::{
    run_spmd, Communicator, Group, MachineSpec, RankStats, RunStats, SimOptions, SpmdComm,
    RECOVERY_PHASE,
};
use shmcomm::{run_native, NativeOptions};

use crate::checkpoint::{
    approx_from, approx_to, CheckpointError, CkptClassification, SearchCheckpoint,
};
use crate::config::{Exchange, ParallelConfig, Strategy};
use crate::driver::{
    blocking_cycle, build_model, init_classes_parallel, parallel_base_cycle, Tail,
};
use crate::error::RunError;
use crate::recover::Supervised;

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

/// Where a fault-tolerant search stores its checkpoints: rank 0's
/// serialized [`SearchCheckpoint`], read by the supervisor between
/// attempts.
pub(crate) type CheckpointStore = Mutex<Option<Vec<u8>>>;

/// One try of the search between EM cycles: its classes and the state
/// the convergence test reads, bitwise replicated on every rank.
pub(crate) struct Try {
    /// The J the try started with.
    j_initial: usize,
    /// The try's derived seed.
    seed: u64,
    /// Current class parameters, shared on the simulator by every rank of
    /// the communicator that derived them.
    pub(crate) tail: Arc<Tail>,
    /// Previous cycle's log likelihood (`-inf` after init or class death).
    prev_ll: f64,
    /// EM cycles run.
    pub(crate) cycles: usize,
    /// Scores at the last cycle.
    pub(crate) approx: Approximation,
}

impl Try {
    /// Begin a try: rank 0 seeds `j` classes and broadcasts them.
    pub(crate) fn begin<C: SpmdComm>(
        comm: &mut C,
        model: &Model,
        view: &DataView<'_>,
        j: usize,
        seed: u64,
    ) -> Try {
        Try {
            j_initial: j,
            seed,
            tail: init_classes_parallel(comm, model, view, j, seed),
            prev_ll: f64::NEG_INFINITY,
            cycles: 0,
            approx: approx_from([f64::NEG_INFINITY; 4]),
        }
    }

    /// Resume the try `ck` was taken in, at the cycle it was taken. The
    /// class parameters were checkpointed in their flat broadcast form;
    /// rebuilding them against the (replicated) model restores the
    /// faulted run's state bit for bit.
    fn resume(model: &Model, ck: &SearchCheckpoint, j: usize, seed: u64) -> Try {
        let mut classes = Vec::new();
        classes_from_flat_into(model, ck.j_current, &ck.classes_flat, &mut classes);
        Try {
            j_initial: j,
            seed,
            tail: Arc::new(Tail { classes, approx: Approximation::default() }),
            prev_ll: ck.prev_ll,
            cycles: ck.cycle,
            approx: approx_from(ck.approx),
        }
    }

    /// Run one EM cycle, then class death and the convergence test.
    /// Global statistics are identical on every rank, so both decisions
    /// are too, with no extra coordination message. Returns whether the
    /// try converged. Only a death changes the (shared) classes, so only
    /// a death takes a copy of them.
    pub(crate) fn step(
        &mut self,
        sc: &SearchConfig,
        cycle: impl FnOnce(&mut Arc<Tail>) -> Approximation,
    ) -> bool {
        let a = cycle(&mut self.tail);
        self.approx = a;
        self.cycles += 1;
        if class_death_due(&self.tail.classes, sc.min_class_weight) {
            apply_class_death(&mut Arc::make_mut(&mut self.tail).classes, sc.min_class_weight);
            self.prev_ll = f64::NEG_INFINITY;
            return false;
        }
        if converged(self.prev_ll, a.log_likelihood, sc.rel_delta_ll) {
            return true;
        }
        self.prev_ll = a.log_likelihood;
        false
    }

    /// The finished try: classes by decreasing weight, with their log
    /// prior. Takes the classes out of the handle, or a copy while other
    /// ranks still share them.
    pub(crate) fn finish(self, model: &Model, did_converge: bool) -> Classification {
        let mut classes = Arc::unwrap_or_clone(self.tail).classes;
        classes.sort_by(|a, b| b.weight.total_cmp(&a.weight));
        let log_prior = log_param_prior(model, &classes);
        Classification {
            classes,
            j_initial: self.j_initial,
            approx: self.approx,
            log_prior,
            cycles: self.cycles,
            converged: did_converge,
            seed: self.seed,
        }
    }
}

/// Keep `c` unless it duplicates an earlier classification (sequential
/// AutoClass's duplicate elimination, in schedule order).
pub(crate) fn keep_unique(all: &mut Vec<Classification>, c: Classification) {
    if !all.iter().any(|existing| is_duplicate(existing, &c)) {
        all.push(c);
    }
}

/// Order the retained classifications best first and keep `max_stored`.
pub(crate) fn best_first(all: &mut Vec<Classification>, max_stored: usize) {
    all.sort_by(|a, b| b.score().total_cmp(&a.score()));
    all.truncate(max_stored);
}

/// Serialize the (replicated) search state, charge the serialization cost
/// on every rank under the `"checkpoint"` phase, and publish rank 0's
/// copy to the supervisor's store.
fn publish_checkpoint<C: SpmdComm>(comm: &mut C, ck: &SearchCheckpoint, store: &CheckpointStore) {
    let bytes = ck.to_bytes();
    comm.enter_phase("checkpoint");
    comm.work(bytes.len() as u64);
    comm.exit_phase();
    if comm.rank() == 0 {
        // lint:allow(unwrap): mutex poisoning only follows another panic
        *store.lock().expect("checkpoint store lock") = Some(bytes);
    }
    // Nothing delivered before this snapshot can need replaying.
    comm.replay_truncate();
}

/// The try loop: every try of the `start_j_list × tries_per_j` schedule,
/// each run to convergence or `max_cycles` by `cycle`, duplicates dropped,
/// the rest ranked best first. Returns the retained classifications and
/// the total cycle count.
///
/// With `checkpoints = Some((k, store))` and `k > 0` the loop publishes a
/// [`SearchCheckpoint`] every `k` cycles; with `resume` it skips the tries
/// that finished before that checkpoint and resumes the one in progress.
pub(crate) fn search_tries<C: SpmdComm>(
    comm: &mut C,
    model: &Model,
    view: &DataView<'_>,
    sc: &SearchConfig,
    mut cycle: impl FnMut(&mut C, &mut Arc<Tail>, &mut CycleWorkspace) -> Approximation,
    checkpoints: Option<(usize, &CheckpointStore)>,
    resume: Option<&SearchCheckpoint>,
) -> (Vec<Classification>, usize) {
    // Results of tries that finished before the checkpoint restore
    // exactly (flat parameters are carried as raw bit patterns).
    let mut all: Vec<Classification> = resume
        .map(|ck| ck.best.iter().map(|b| b.to_classification(model)).collect())
        .unwrap_or_default();
    let mut total_cycles = resume.map_or(0, |ck| ck.total_cycles);
    // One workspace outlives every try: w_j, the statistics buffer and
    // WtsOnly's weight matrix (and, on real threads, the E-step scratch
    // with its one tile of weights, which simulated ranks borrow from the
    // host instead) reach their high-water mark once and are reused for
    // the rest of the search.
    let mut ws = CycleWorkspace::new();

    for (ji, &j) in sc.start_j_list.iter().enumerate() {
        for t in 0..sc.tries_per_j {
            if resume.is_some_and(|ck| (ji, t) < (ck.ji, ck.try_idx)) {
                continue; // finished before the checkpoint; already in `all`
            }
            let seed = derive_seed(sc.seed, (ji * sc.tries_per_j + t) as u64);
            let mut cur = match resume.filter(|ck| (ji, t) == (ck.ji, ck.try_idx)) {
                Some(ck) => Try::resume(model, ck, j, seed),
                None => Try::begin(comm, model, view, j, seed),
            };
            let mut did_converge = false;
            let mut since_ckpt = 0usize;
            while cur.cycles < sc.max_cycles {
                if let Some((every, store)) = checkpoints {
                    if every > 0 && since_ckpt >= every {
                        let ck = SearchCheckpoint {
                            ji,
                            try_idx: t,
                            cycle: cur.cycles,
                            j_current: cur.tail.classes.len(),
                            seed,
                            prev_ll: cur.prev_ll,
                            approx: approx_to(cur.approx),
                            total_cycles,
                            classes_flat: classes_to_flat(&cur.tail.classes),
                            best: all.iter().map(CkptClassification::from_classification).collect(),
                        };
                        publish_checkpoint(comm, &ck, store);
                        since_ckpt = 0;
                    }
                }
                since_ckpt += 1;
                if cur.step(sc, |tail| cycle(comm, tail, &mut ws)) {
                    did_converge = true;
                    break;
                }
            }
            total_cycles += cur.cycles;
            keep_unique(&mut all, cur.finish(model, did_converge));
        }
    }
    best_first(&mut all, sc.max_stored);
    (all, total_cycles)
}

/// The strategy a group runs its cycles with: a fleet's and a shrink's
/// survivors' cycles exchange their statistics Fused, whatever the
/// world's strategy.
pub(crate) const FUSED: Strategy = Strategy::Full { exchange: Exchange::Fused };

/// The world search: the plain searches' rank body ([`run_search`],
/// [`run_search_native`]) and, under the supervisor (`crate::recover`),
/// the search of every attempt.
pub(crate) struct WorldSearch<'a> {
    pub(crate) data: &'a Dataset,
    pub(crate) config: &'a ParallelConfig,
}

impl Supervised for WorldSearch<'_> {
    type Image = SearchCheckpoint;
    type Found = (Vec<Classification>, usize);
    type Outcome = ParallelOutcome;

    fn decode(bytes: &[u8]) -> Result<SearchCheckpoint, CheckpointError> {
        SearchCheckpoint::from_bytes(bytes)
    }

    /// This rank's partition, the model, then the try loop with the
    /// configured cycle strategy.
    fn on_world<C: Communicator>(
        &self,
        comm: &mut C,
        checkpoints: Option<(usize, &CheckpointStore)>,
        resume: Option<&SearchCheckpoint>,
    ) -> Self::Found {
        let (data, config) = (self.data, self.config);
        // Everything not claimed by an inner span (model setup, class-death
        // and convergence decisions, dedup/scoring) is model-search time.
        comm.enter_phase("search");
        let part = config.partition.range(data.len(), comm.size(), comm.rank());
        let view = data.view(part.start, part.end);
        let model = build_model(comm, &view, &config.correlated_blocks, "allreduce");
        let found = search_tries(
            comm,
            &model,
            &view,
            &config.search,
            |comm, tail, ws| parallel_base_cycle(comm, &model, &view, tail, ws, config.strategy),
            checkpoints,
            resume,
        );
        comm.exit_phase();
        found
    }

    /// The survivors repartition the data and rebuild the model (booked
    /// as recovery), then run the try loop on their group.
    fn on_survivors<W: Communicator>(
        &self,
        sub: &mut Group<'_, W>,
        _orig_p: usize,
        checkpoints: Option<(usize, &CheckpointStore)>,
        resume: Option<&SearchCheckpoint>,
    ) -> Self::Found {
        sub.enter_phase(RECOVERY_PHASE);
        let part = block_range(self.data.len(), sub.size(), sub.rank());
        let view = self.data.view(part.start, part.end);
        let model = build_model(sub, &view, &self.config.correlated_blocks, RECOVERY_PHASE);
        sub.exit_phase();

        sub.enter_phase("search");
        let found = search_tries(
            sub,
            &model,
            &view,
            &self.config.search,
            |sub, tail, ws| blocking_cycle(sub, &model, &view, tail, ws, FUSED),
            checkpoints,
            resume,
        );
        sub.exit_phase();
        found
    }

    fn outcome(
        (all, cycles): Self::Found,
        elapsed: f64,
        ranks: Vec<RankStats>,
        stats: RunStats,
    ) -> Result<ParallelOutcome, RunError> {
        let Some(best) = all.first().cloned() else {
            return Err(RunError::EmptySearch);
        };
        Ok(ParallelOutcome { best, all, elapsed, ranks, stats, cycles })
    }
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
    let search = WorldSearch { data, config };
    let out = run_spmd(machine, opts, |comm| search.on_world(comm, None, None))?;
    let Some(found) = out.per_rank.into_iter().next() else {
        // A machine with zero ranks is rejected by the engine before the
        // body runs, so this is unreachable in practice — but returning an
        // error keeps the library free of panic paths.
        return Err(RunError::EmptySearch);
    };
    WorldSearch::outcome(found, out.elapsed, out.ranks, out.stats)
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
    let search = WorldSearch { data, config };
    let out = run_native(machine, opts, |comm| search.on_world(comm, None, None))?;
    let Some(found) = out.per_rank.into_iter().next() else {
        return Err(RunError::EmptySearch);
    };
    WorldSearch::outcome(found, out.elapsed, out.ranks, out.stats)
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
        let model = build_model(comm, &view, &config.correlated_blocks, "allreduce");
        let mut tail = init_classes_parallel(comm, &model, &view, j, seed);
        let mut ws = CycleWorkspace::new();
        // Synchronize before the measured window so stragglers from setup
        // don't leak into the cycle timing.
        comm.barrier();
        let t0 = comm.now();
        let mut ll = f64::NEG_INFINITY;
        for _ in 0..n_cycles {
            let a = parallel_base_cycle(comm, &model, &view, &mut tail, &mut ws, config.strategy);
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
