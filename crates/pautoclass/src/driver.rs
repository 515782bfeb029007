//! The rank-level building blocks of P-AutoClass: everything a single
//! processor executes between collectives.
//!
//! The parallel algorithm calls the *same* kernels as sequential AutoClass
//! (`autoclass::model`), inserting Allreduce steps where the paper's
//! Figures 4 and 5 place them. Because the combined statistics are bitwise
//! identical on every rank (see `mpsim::collectives`), every rank derives
//! identical parameters and identical control-flow decisions — the
//! semantics-preservation property the paper claims for its design.
//!
//! That derivation — the classes from the statistics or from a broadcast
//! payload, and the cycle's scores — is the *replicated tail*
//! ([`replicated_tail`], [`decode_classes`]). It goes through
//! [`SpmdComm::derive_replicated`], so on the simulator, whose ranks share
//! one host thread, it runs once per host and its result is held once per
//! host: the first rank derives, and every rank whose inputs match bit for
//! bit takes a handle to the same [`Tail`]. Each rank still charges the
//! derivation's work, so virtual time cannot tell the difference. On real
//! threads, or with replication checking on, every rank derives for
//! itself, into a handle of its own.
//!
//! There is one EM cycle, [`blocking_cycle`], and one model build,
//! [`build_model`], both generic over [`mpsim::SpmdComm`]: the world runs
//! them, and so do a fleet's group and a shrink's survivors, so every rank
//! that runs cycles books the same `"estep"`, `"mstep"` and `"allreduce"`
//! phases. Only the overlapped Pipelined exchange is the world's alone
//! ([`parallel_base_cycle`]), since it needs the machine and non-blocking
//! requests of an [`mpsim::Communicator`]; it ends in the same replicated
//! tail, so the classes have one derive path whatever the exchange.
//! Either way the same driver runs on the simulated machine
//! (`mpsim::Comm`, virtual time) or on real cores (`shmcomm::NativeComm`,
//! wall-clock time) with bitwise-identical numerical results.

use std::sync::Arc;

use autoclass::data::{DataView, GlobalStats};
use autoclass::model::{
    classes_from_flat_into, classes_to_flat, estep_and_stats_into, evaluate, init_classes,
    mstep_ops, stats_to_classes_into, update_wts_into, Approximation, ClassParams, CycleWorkspace,
    EStepScratch, Model, SuffStats, WtsMatrix,
};
use mpsim::{
    predicted_allreduce_cost, AllreduceAlgo, Communicator, ReduceOp, ReplicaKey, SpmdComm,
};

use crate::config::{Exchange, Strategy};

/// Build the model structure on every member: local statistics are
/// computed on the partition and combined with one Allreduce, so each
/// member derives the identical `Model` (this is AutoClass's "data
/// structures initialized" step, distributed). `correlated_blocks` selects
/// the attribute structure (empty = all independent). The Allreduce is
/// booked under the phase `span`: `"allreduce"` on the world and on a
/// fleet, [`mpsim::RECOVERY_PHASE`] on a shrink's rebuild, which is
/// recovery time as a whole.
pub fn build_model<C: SpmdComm>(
    comm: &mut C,
    view: &DataView<'_>,
    correlated_blocks: &[Vec<usize>],
    span: &'static str,
) -> Model {
    let local = GlobalStats::compute(view);
    // Scanning the partition once costs ~K ops per item.
    comm.work((view.len() * view.schema().len()) as u64);
    let mut flat = local.to_flat();
    comm.enter_phase(span);
    comm.allreduce_f64s(&mut flat, ReduceOp::Sum);
    comm.exit_phase();
    let global = GlobalStats::from_flat(&local, &flat);
    if correlated_blocks.is_empty() {
        Model::new(view.schema().clone(), &global)
    } else {
        Model::with_correlated(view.schema().clone(), &global, correlated_blocks)
    }
}

/// Initialize a try's classes on rank 0 and broadcast them, so all ranks
/// start identically (the parallel equivalent of AutoClass's random
/// class seeding).
pub fn init_classes_parallel<C: SpmdComm>(
    comm: &mut C,
    model: &Model,
    view: &DataView<'_>,
    j: usize,
    seed: u64,
) -> Arc<Tail> {
    let flat_len = model.class_param_len() * j;
    let mut flat = if comm.rank() == 0 {
        let init = init_classes(model, view, j, seed);
        classes_to_flat(&init)
    } else {
        vec![0.0; flat_len]
    };
    comm.broadcast_f64s(0, &mut flat);
    let mut tail = Arc::default();
    decode_classes(comm, model, j, &flat, &mut tail);
    tail
}

/// Where [`replicated_tail`] takes a cycle's classes from.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// Derive them from the reduced statistics (`stats_to_classes_into`).
    Stats,
    /// Decode them from a broadcast payload (`classes_from_flat_into`).
    Flat(&'a [f64]),
}

/// Key tags: which derivation an entry of the replicated store holds.
const TAIL_FROM_STATS: u64 = 1;
const TAIL_FROM_FLAT: u64 = 2;
const DECODE: u64 = 4;

/// What [`replicated_tail`] and [`decode_classes`] derive: a try's
/// current classes and the scores of the cycle that derived them. Every
/// rank holds it behind an `Arc`, which on the simulator all the ranks of
/// a communicator share; a rank that changes its classes in place (class
/// death, the WtsOnly root's derivation) takes [`Arc::make_mut`], which
/// copies them only while they are shared. The one rank that derives a
/// shared tail derives into a spare the simulator's store kept (see
/// [`mpsim::replica`]), so it copies nothing.
#[derive(Debug, Clone, Default)]
pub struct Tail {
    /// The class parameters.
    pub classes: Vec<ClassParams>,
    /// The scores of the cycle that derived `classes` (default after a
    /// decode).
    pub approx: Approximation,
}

/// The replicated tail of a cycle: the new classes from `source`, then
/// the scores from the reduced statistics and the global
/// `[log_likelihood, complete_ll]`. A pure function of the model's
/// priors and `n_total`, the statistics, `j`, the scalars and the source,
/// so it goes through [`SpmdComm::derive_replicated`] keyed by exactly
/// those bits. Charges nothing: the caller charges the derivation
/// ([`mstep_ops`]) and the scoring (one statistics stride per class) where
/// its virtual time has always put them.
pub fn replicated_tail<C: SpmdComm>(
    comm: &mut C,
    model: &Model,
    stats: &SuffStats,
    scalars: [f64; 2],
    source: Source<'_>,
    tail: &mut Arc<Tail>,
) -> Approximation {
    let j = stats.layout.j;
    let (tag, flat) = match source {
        Source::Stats => (TAIL_FROM_STATS, &[][..]),
        Source::Flat(flat) => (TAIL_FROM_FLAT, flat),
    };
    let key = |k: &mut ReplicaKey<'_>| {
        k.word(tag);
        k.word(j as u64);
        k.f64s(&scalars);
        k.f64s(&stats.data);
        k.f64s(flat);
        model.key_words(&mut |w| k.word(w));
    };
    comm.derive_replicated(key, tail, |tail| {
        match source {
            Source::Stats => {
                stats_to_classes_into(model, stats, &mut tail.classes);
            }
            Source::Flat(flat) => classes_from_flat_into(model, j, flat, &mut tail.classes),
        }
        tail.approx = evaluate(model, stats, scalars[0], scalars[1]);
    });
    tail.approx
}

/// Decode `j` classes from a broadcast payload into `tail`, once per
/// host (see [`replicated_tail`]): the decode reads only the payload, `j`
/// and the model's priors and `n_total`.
pub fn decode_classes<C: SpmdComm>(
    comm: &mut C,
    model: &Model,
    j: usize,
    flat: &[f64],
    tail: &mut Arc<Tail>,
) {
    let key = |k: &mut ReplicaKey<'_>| {
        k.word(DECODE);
        k.word(j as u64);
        k.f64s(flat);
        model.key_words(&mut |w| k.word(w));
    };
    comm.derive_replicated(key, tail, |tail| {
        classes_from_flat_into(model, j, flat, &mut tail.classes);
        tail.approx = Approximation::default();
    });
}

/// One parallel `base_cycle` on the world: [`blocking_cycle`], or for the
/// [`Exchange::Pipelined`] exchange, which needs the world's non-blocking
/// collectives and its machine, the overlapped `pipelined_cycle` with the
/// same ending.
pub fn parallel_base_cycle<C: Communicator>(
    comm: &mut C,
    model: &Model,
    view: &DataView<'_>,
    tail: &mut Arc<Tail>,
    ws: &mut CycleWorkspace,
    strategy: Strategy,
) -> Approximation {
    if strategy != (Strategy::Full { exchange: Exchange::Pipelined }) {
        return blocking_cycle(comm, model, view, tail, ws, strategy);
    }
    ws.reset_stats(model, tail.classes.len());
    let CycleWorkspace { estep, class_weight_sums: wj, stats, .. } = ws;
    let Some(stats) = stats else { unreachable!("reset_stats installs the statistics buffer") };
    let scalars = pipelined_cycle(comm, model, view, &tail.classes, estep, wj, stats);
    end_cycle(comm, model, stats, scalars, Source::Stats, tail)
}

/// One parallel `base_cycle`: E-step + weight Allreduce, M-step with the
/// configured statistics exchange, and the approximation update. Points
/// `tail` at the new parameters and returns the cycle's (global) scores —
/// identical on every member. The world runs it (through
/// [`parallel_base_cycle`]), and so do a fleet's group and a shrink's
/// survivors, with the Fused exchange.
///
/// Time and traffic are attributed to named phase spans for the report
/// harness: `"estep"` (weight computation), `"mstep"` (statistics
/// accumulation and parameter derivation), and `"allreduce"` (every
/// statistics-exchange collective, whichever algorithm or strategy
/// realizes it). The negligible `update_approximations` tail falls to the
/// caller's enclosing span, so buckets still partition elapsed time.
///
/// The `Full` strategies keep no weight matrix: one tile-resident pass
/// ([`estep_and_stats_into`]) computes the weights a tile at a time and
/// folds each tile into the local statistics while it is in cache. Its
/// E-step ops are charged under `"estep"` before the w_j Allreduce and its
/// statistics ops under `"mstep"` after it, where the two passes it
/// replaces charged them, so virtual time and phase attribution are
/// those of the two passes. `WtsOnly` keeps the matrix it gathers.
///
/// The kernel runs inside [`SpmdComm::with_scratch`] on `ws.estep`: on
/// the simulator every rank borrows the host's one E-step scratch (the
/// one-tile weight buffer and the per-item tile buffers), which is live
/// only inside the call, and on real threads each rank uses its own. What
/// outlives the call is the rank's: w_j, copied out of the scratch into
/// `ws.class_weight_sums` before the lend ends and allreduced after it,
/// and `WtsOnly`'s weight matrix.
///
/// All other transient storage (the statistics buffer, the flat payload
/// buffer) lives in `ws` and is reused across cycles. At P = 1, like the
/// sequential `base_cycle`, the `Full`
/// strategies make no heap allocation in steady state. On a simulated
/// machine of P > 1 they make a few per cycle per host, almost flat in P
/// (about 12–17 on `meiko_cs2` at J = 5 for P from 2 to 16): per-meeting
/// state of the collectives. The deriving rank derives into a spare
/// [`Tail`] the replicated store kept, not into a copy of the shared one
/// (see [`mpsim::replica`]). (`WtsOnly` gathers the whole weight matrix
/// through growing transport buffers by design — that bandwidth cost is
/// the point of the comparison.) [`Exchange::Pipelined`] needs
/// non-blocking collectives, which only the world has, so it is not run
/// here: [`parallel_base_cycle`] runs it.
pub fn blocking_cycle<C: SpmdComm>(
    comm: &mut C,
    model: &Model,
    view: &DataView<'_>,
    tail: &mut Arc<Tail>,
    ws: &mut CycleWorkspace,
    strategy: Strategy,
) -> Approximation {
    let j = tail.classes.len();
    ws.reset_stats(model, j);
    let CycleWorkspace { wts, estep, class_weight_sums: wj, stats, flat } = ws;
    let Some(stats) = stats else { unreachable!("reset_stats installs the statistics buffer") };

    // ---- update_wts (Figure 4) -------------------------------------------
    // The Full strategies fold each weight tile into the local statistics
    // as it is finished; their statistics ops are charged under "mstep"
    // below, after the w_j Allreduce, as the two-pass form charged them.
    comm.enter_phase("estep");
    let classes = &tail.classes;
    let (e, stat_ops) = comm.with_scratch(estep, |scratch| {
        let out = match strategy {
            Strategy::Full { .. } => estep_and_stats_into(model, view, classes, scratch, stats),
            Strategy::WtsOnly => (update_wts_into(model, view, classes, wts, scratch), 0),
        };
        wj.clone_from(&scratch.class_weight_sums);
        out
    });
    comm.work(e.ops);
    comm.exit_phase();
    // Allreduce of the per-class weight sums w_j, in place.
    comm.enter_phase("allreduce");
    comm.allreduce_f64s(wj, ReduceOp::Sum);
    comm.exit_phase();
    comm.verify_replicated("class weight sums w_j", wj);
    let wj = &*wj;

    // ---- update_parameters (Figure 5) ------------------------------------
    // `Fused` combines the two cycle scalars with the statistics message
    // (`Some`); the other arms leave them for the trailing scalar
    // Allreduce (`None`).
    let packed: Option<[f64; 2]> = match strategy {
        Strategy::Full { exchange } => {
            comm.enter_phase("mstep");
            comm.work(stat_ops);
            comm.exit_phase();
            let packed = match exchange {
                Exchange::PerTerm => {
                    // The class-weight slots were already combined in the
                    // wts phase; install the global values so the per-term
                    // mode doesn't need to re-send them.
                    for (c, &w) in wj.iter().enumerate() {
                        let idx = stats.layout.weight_index(c);
                        stats.data[idx] = w;
                    }
                    // Faithful to Figure 5: the Allreduce sits inside the
                    // per-class, per-attribute loops.
                    comm.enter_phase("allreduce");
                    for c in 0..j {
                        for k in 0..model.n_groups() {
                            let range = stats.layout.attr_range(c, k);
                            // lint:allow(blocking-collective): this IS the ablation baseline
                            comm.allreduce_f64s(&mut stats.data[range], ReduceOp::Sum);
                        }
                    }
                    comm.exit_phase();
                    None
                }
                Exchange::Fused => {
                    // One big message. The weight slots were already
                    // combined in the wts phase, so send zeros in their
                    // place and install the global values afterwards — no
                    // save/restore buffer needed. The two log-likelihood
                    // scalars piggyback on the end of the same buffer,
                    // replacing the trailing 2-element Allreduce.
                    for c in 0..j {
                        let idx = stats.layout.weight_index(c);
                        stats.data[idx] = 0.0;
                    }
                    // One exact growth per layout, not a doubling.
                    stats.data.reserve_exact(2);
                    stats.data.push(e.log_likelihood);
                    stats.data.push(e.complete_ll);
                    comm.enter_phase("allreduce");
                    comm.allreduce_f64s(&mut stats.data, ReduceOp::Sum);
                    comm.exit_phase();
                    // lint:allow(unwrap): the two scalars were pushed above
                    let complete_ll = stats.data.pop().expect("piggybacked scalar");
                    // lint:allow(unwrap): the two scalars were pushed above
                    let log_likelihood = stats.data.pop().expect("piggybacked scalar");
                    for (c, &w) in wj.iter().enumerate() {
                        let idx = stats.layout.weight_index(c);
                        stats.data[idx] = w;
                    }
                    Some([log_likelihood, complete_ll])
                }
                Exchange::Pipelined => {
                    unreachable!("parallel_base_cycle runs the overlapped exchange")
                }
            };
            // The derivation itself runs in the replicated tail below; its
            // work is charged here, ahead of PerTerm's trailing scalar
            // allreduce, where it has always been.
            comm.enter_phase("mstep");
            comm.work(mstep_ops(stats));
            comm.exit_phase();
            packed
        }
        Strategy::WtsOnly => {
            wts_only_mstep(comm, model, view, wts, stats, flat, tail, j);
            None
        }
    };

    // ---- update_approximations -------------------------------------------
    // Two scalars must become global: the log likelihood and the complete
    // log likelihood. The paper folds this into the (negligible)
    // update_approximations step; the fused exchange has already combined
    // them on the statistics wire.
    let scalars = match packed {
        Some(s) => s,
        None => {
            let mut s = [e.log_likelihood, e.complete_ll];
            comm.enter_phase("allreduce");
            comm.allreduce_f64s(&mut s, ReduceOp::Sum);
            comm.exit_phase();
            s
        }
    };
    let source = match strategy {
        Strategy::WtsOnly => Source::Flat(flat),
        Strategy::Full { .. } => Source::Stats,
    };
    end_cycle(comm, model, stats, scalars, source, tail)
}

/// The ending every cycle shares: the [`replicated_tail`] from `source`,
/// the charge for the scoring, and, when replication checking is on, the
/// proof that the new parameters and scores are bitwise identical on
/// every member. Returns the cycle's scores.
fn end_cycle<C: SpmdComm>(
    comm: &mut C,
    model: &Model,
    stats: &SuffStats,
    scalars: [f64; 2],
    source: Source<'_>,
    tail: &mut Arc<Tail>,
) -> Approximation {
    let approx = replicated_tail(comm, model, stats, scalars, source, tail);
    comm.work((stats.layout.j * stats.layout.stride) as u64);

    // The new parameters were derived *independently* on every member from
    // the combined statistics. When replication checking is on, prove they
    // are still bitwise identical — the semantics-preservation property
    // the paper's design rests on — before the next cycle builds on them.
    if comm.checks_replication() {
        comm.verify_replicated("updated class parameters", &classes_to_flat(&tail.classes));
        comm.verify_replicated("cycle scores", &scalars);
    }
    approx
}

/// The overlapped cycle (the [`Exchange::Pipelined`] arm): the blocking
/// cycle's tile-resident E+M pass produces w_j and the local statistics
/// together; then w_j and the statistics leave as *non-blocking*
/// collectives, and each class's derivation is charged while later chunks
/// are still on the wire. Returns the global `[log_likelihood,
/// complete_ll]` scalars; the classes themselves are derived once per
/// host in the [`replicated_tail`] that ends the cycle, as in the blocking
/// cycle. Both backends run the collectives eagerly at post, so the
/// overlap is one of virtual time only: the simulator hides the wire time
/// behind the charged derive work, and the native backend has no wire
/// time left to hide.
///
/// Bitwise identical to the blocking [`Exchange::Fused`] cycle for every
/// allreduce algorithm, by construction:
/// * The E+M pass is the blocking cycle's ([`estep_and_stats_into`]),
///   whose scalars, w_j and statistics are bitwise those of the two-pass
///   form.
/// * w_j travels as its own j-length collective with the machine's
///   algorithm — identical geometry to the blocking path.
/// * The statistics buffer (weight slots zeroed, the two log-likelihood
///   scalars packed on the end) resolves its effective algorithm at the
///   full `L + 2` length, exactly where the blocking call would. When
///   that algorithm reduces element-wise independently of buffer
///   geometry (Linear, RecursiveDoubling) *and* the
///   predicted extra per-message cost of j chunks is covered by the
///   derive compute it can hide, the buffer is split into per-class
///   chunks, each posted with the *resolved* algorithm forced — every
///   element sees the identical reduction chain it would inside one big
///   call. Ring and Rabenseifner fold orders depend on the element→chunk
///   mapping — and latency-bound machines make small chunks a net loss —
///   so those cases ship a single whole-buffer collective: no chunk
///   pipelining, but the packed scalars and post/wait overlap (w_j's
///   wire hides behind the statistics post) still apply.
///
/// Beyond what a Fused cycle allocates, the only heap allocation in this
/// cycle is the vector of statistics requests (j of them when chunked, 1
/// otherwise; w_j's request is separate) — documented in DESIGN.md §10;
/// everything else reuses the [`CycleWorkspace`] buffers, and the kernel
/// borrows its scratch as the blocking cycle's does.
fn pipelined_cycle<C: Communicator>(
    comm: &mut C,
    model: &Model,
    view: &DataView<'_>,
    classes: &[ClassParams],
    estep: &mut EStepScratch,
    wj: &mut Vec<f64>,
    stats: &mut SuffStats,
) -> [f64; 2] {
    let j = classes.len();

    // ---- fused update_wts + statistics accumulation (one pass) -------
    comm.enter_phase("estep");
    let (e, stat_ops) = comm.with_scratch(estep, |scratch| {
        let out = estep_and_stats_into(model, view, classes, scratch, stats);
        wj.clone_from(&scratch.class_weight_sums);
        out
    });
    comm.work(e.ops);
    comm.exit_phase();
    // The statistics ops are charged under "mstep" so the phase rows stay
    // comparable with the two-pass strategies.
    comm.enter_phase("mstep");
    comm.work(stat_ops);
    comm.exit_phase();

    // ---- post the exchanges ------------------------------------------
    comm.enter_phase("allreduce");
    let mut wj_req = comm.iallreduce_f64s(wj, ReduceOp::Sum);
    comm.exit_phase();

    // Weight slots travel on the w_j wire; zero them here and piggyback
    // the two log-likelihood scalars, as in the blocking Fused arm.
    for c in 0..j {
        stats.data[stats.layout.weight_index(c)] = 0.0;
    }
    stats.data.reserve_exact(2);
    stats.data.push(e.log_likelihood);
    stats.data.push(e.complete_ll);
    let full_len = stats.data.len();

    let machine = comm.machine();
    let algo = machine.allreduce.resolve(machine.p, full_len, &machine.network);
    let chunkable = matches!(algo, AllreduceAlgo::Linear | AllreduceAlgo::RecursiveDoubling) && {
        // Size-adaptive, like `AllreduceAlgo::Auto`: splitting into j
        // chunks multiplies the per-message fixed costs (LogGP L and o),
        // and pipelining can hide at most the per-class derive compute
        // behind the extra messages. Chunk only when that compute covers
        // the predicted extra cost — on latency-bound machines with small
        // per-class payloads, the whole buffer goes as one collective.
        // Every input is replicated, so all ranks take the same branch.
        let stride = stats.layout.stride;
        let whole = predicted_allreduce_cost(algo, machine.p, full_len, &machine.network);
        let split = (j - 1) as f64
            * predicted_allreduce_cost(algo, machine.p, stride, &machine.network)
            + predicted_allreduce_cost(algo, machine.p, stride + 2, &machine.network);
        let hideable = (j * stride) as f64 * machine.compute.sec_per_op;
        split - whole <= hideable
    };

    comm.enter_phase("allreduce");
    let mut chunk_reqs = Vec::with_capacity(if chunkable { j } else { 1 });
    if chunkable {
        for c in 0..j {
            let range = stats.layout.class_range(c);
            // The last chunk carries the two packed scalars.
            let range = if c == j - 1 { range.start..full_len } else { range };
            chunk_reqs.push(comm.iallreduce_f64s_with(&mut stats.data[range], ReduceOp::Sum, algo));
        }
    } else {
        chunk_reqs.push(comm.iallreduce_f64s(&mut stats.data, ReduceOp::Sum));
    }
    comm.exit_phase();

    // ---- wait / install / charge the derive, overlapped ---------------
    comm.enter_phase("allreduce");
    comm.wait(&mut wj_req);
    comm.exit_phase();
    comm.verify_replicated("class weight sums w_j", wj);

    // The replicated tail derives the classes; each one's derive costs one
    // statistics stride (what `mstep_ops` sums), charged as its chunk
    // lands.
    if chunkable {
        for (c, &w) in wj.iter().enumerate() {
            comm.enter_phase("allreduce");
            comm.wait(&mut chunk_reqs[c]);
            comm.exit_phase();
            stats.data[stats.layout.weight_index(c)] = w;
            comm.enter_phase("mstep");
            comm.work(stats.layout.stride as u64);
            comm.exit_phase();
        }
    } else {
        comm.enter_phase("allreduce");
        comm.waitall(&mut chunk_reqs);
        comm.exit_phase();
        for (c, &w) in wj.iter().enumerate() {
            stats.data[stats.layout.weight_index(c)] = w;
        }
        comm.enter_phase("mstep");
        comm.work(mstep_ops(stats));
        comm.exit_phase();
    }

    // Pop the two reduced scalars and restore the statistics length
    // (capacity is retained for the next cycle).
    // lint:allow(unwrap): the two scalars were pushed above
    let complete_ll = stats.data.pop().expect("piggybacked scalar");
    // lint:allow(unwrap): the two scalars were pushed above
    let log_likelihood = stats.data.pop().expect("piggybacked scalar");
    debug_assert_eq!(stats.data.len(), stats.layout.len());
    [log_likelihood, complete_ll]
}

/// The Miller & Guo-style M-step: gather the full weight matrix to rank 0,
/// compute statistics and parameters there against the full dataset, then
/// broadcast the classes. The gathered matrix is `n × J` doubles — the
/// bandwidth cost that motivates the paper's fully-parallel design.
///
/// `stats` arrives zeroed (from [`CycleWorkspace::reset_stats`]) and leaves
/// holding the global statistics on every rank; `flat` is a reusable
/// payload buffer and leaves holding the broadcast parameters, which the
/// cycle's [`replicated_tail`] decodes into the classes; the root derives
/// into `tail`'s classes (its own copy, through [`Arc::make_mut`]) before
/// encoding them.
#[allow(clippy::too_many_arguments)]
fn wts_only_mstep<C: SpmdComm>(
    comm: &mut C,
    model: &Model,
    view: &DataView<'_>,
    wts: &WtsMatrix,
    stats: &mut SuffStats,
    flat: &mut Vec<f64>,
    tail: &mut Arc<Tail>,
    j: usize,
) {
    let n_local = wts.n_items();
    // The master needs each rank's partition size to unpack the gathered
    // matrix; learn them on the wire rather than assuming a decomposition
    // (Block and Weighted partitionings both produce contiguous
    // rank-ordered ranges). The counts travel as raw bit patterns inside
    // f64 payloads — `from_bits`/`to_bits` round-trips exactly, with no
    // integer-to-float precision cliff at 2^53.
    comm.enter_phase("allreduce");
    let sizes = comm.gather_f64s(0, &[f64::from_bits(n_local as u64)]);
    // Flatten column-major local weights: [class0 col .. class{J-1} col].
    flat.clear();
    for c in 0..j {
        flat.extend_from_slice(wts.class_column(c));
    }
    let gathered = comm.gather_f64s(0, flat);
    comm.exit_phase();

    let flat_classes_len = model.class_param_len() * j;
    // Both gathers root at rank 0, so they return `Some` on exactly the
    // same rank: destructure jointly instead of `expect`ing the second —
    // no panic path inside the rank closure.
    if let (Some(all), Some(sizes)) = (gathered, sizes) {
        // Root: rebuild the global weight matrix. Ranks contributed in
        // rank order; rank r's block is n_r × J column-major. Only the
        // root conceptually owns the whole dataset; every rank here
        // borrows the same one, so this is a reslice, but getting the
        // weights to the root was charged for real.
        let full = view.whole_dataset();
        let n_total = full.len();
        let mut global_wts = WtsMatrix::new(n_total, j);
        let mut offset = 0;
        let mut start = 0usize;
        for &size in &sizes {
            let n_r = size.to_bits() as usize;
            for c in 0..j {
                let src = &all[offset + c * n_r..offset + (c + 1) * n_r];
                global_wts.class_column_mut(c)[start..start + n_r].copy_from_slice(src);
            }
            offset += n_r * j;
            start += n_r;
        }
        debug_assert_eq!(start, n_total, "partitions must cover the dataset");
        comm.enter_phase("mstep");
        let ops = stats.accumulate(model, &full, &global_wts);
        comm.work(ops);
        let classes = &mut Arc::make_mut(tail).classes;
        let mops = stats_to_classes_into(model, stats, classes);
        comm.work(mops);
        comm.exit_phase();
        flat.clear();
        for class in classes.iter() {
            class.to_flat(flat);
        }
        debug_assert_eq!(flat.len(), flat_classes_len, "flat classes length");
    } else {
        flat.clear();
        flat.resize(flat_classes_len, 0.0);
    }
    comm.enter_phase("allreduce");
    comm.broadcast_f64s(0, flat);
    comm.exit_phase();
    // Every rank (root included) decodes its classes from the broadcast
    // payload, left in `flat`, in the replicated tail that ends the cycle,
    // so all ranks share one code path and stay bitwise equal.

    // Non-root ranks also need the global statistics for the shared
    // approximation step; broadcast them too (small next to the gather).
    comm.enter_phase("allreduce");
    comm.broadcast_f64s(0, &mut stats.data);
    comm.exit_phase();
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoclass::data::block_partition;
    use mpsim::{presets, run_spmd_default};

    #[test]
    fn build_model_agrees_across_ranks_and_with_sequential() {
        let data = datagen::paper_dataset(500, 42);
        let seq_stats = GlobalStats::compute(&data.full_view());
        let seq_model = Model::new(data.schema().clone(), &seq_stats);

        for p in [1usize, 2, 3, 5] {
            let spec = presets::zero_cost(p);
            let out = run_spmd_default(&spec, |comm| {
                let parts = block_partition(data.len(), comm.size());
                let part = &parts[comm.rank()];
                let view = data.view(part.start, part.end);
                build_model(comm, &view, &[], "allreduce")
            })
            .unwrap();
            for (r, m) in out.per_rank.iter().enumerate() {
                assert_eq!(m.n_total, seq_model.n_total, "p={p} rank={r}");
                // Priors are derived from the allreduced stats; tolerate
                // floating-point reduction-order differences only.
                for (a, b) in m.groups.iter().zip(&seq_model.groups) {
                    match (&a.prior, &b.prior) {
                        (
                            autoclass::model::TermPrior::Normal { mean0: m1, var0: v1, .. },
                            autoclass::model::TermPrior::Normal { mean0: m2, var0: v2, .. },
                        ) => {
                            assert!((m1 - m2).abs() < 1e-9, "p={p}");
                            assert!((v1 - v2).abs() < 1e-9, "p={p}");
                        }
                        _ => panic!("unexpected prior kind"),
                    }
                }
            }
            // All ranks bitwise identical to each other.
            for m in &out.per_rank {
                assert_eq!(m.groups, out.per_rank[0].groups);
            }
        }
    }

    #[test]
    fn init_broadcast_gives_all_ranks_rank0_classes() {
        let data = datagen::paper_dataset(300, 7);
        let spec = presets::zero_cost(4);
        let out = run_spmd_default(&spec, |comm| {
            let parts = block_partition(data.len(), comm.size());
            let part = &parts[comm.rank()];
            let view = data.view(part.start, part.end);
            let model = build_model(comm, &view, &[], "allreduce");
            init_classes_parallel(comm, &model, &view, 5, 99).classes.clone()
        })
        .unwrap();
        for r in 1..4 {
            assert_eq!(out.per_rank[r], out.per_rank[0], "rank {r} differs");
        }
        assert_eq!(out.per_rank[0].len(), 5);
    }
}
