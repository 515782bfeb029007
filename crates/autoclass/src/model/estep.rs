//! `update_wts`: the E-step. Computes normalized class-membership weights
//! for every item and the per-class weight sums — the function the paper's
//! profiling found (together with `update_parameters`) to consume ~99.5 %
//! of AutoClass's runtime inside `base_cycle`.

use crate::data::dataset::DataView;
use crate::model::class::{ClassParams, Model};
use crate::model::prior::TermPrior;
use crate::model::suffstats::SuffStats;
use crate::model::wide::{
    class_block, class_blocks, class_lanes, run_wide, ClassBlocks, Isa, Lanes, Wide,
};

/// Column-major item×class weight matrix: `class_column(j)[i]` is w_ij.
/// Column-major because every kernel (log-density accumulation, statistics
/// accumulation) walks all items of one class.
#[derive(Debug, Clone, PartialEq)]
pub struct WtsMatrix {
    n: usize,
    j: usize,
    data: Vec<f64>,
}

impl WtsMatrix {
    /// A zeroed `n × j` matrix.
    pub fn new(n: usize, j: usize) -> Self {
        WtsMatrix { n, j, data: vec![0.0; n * j] }
    }

    /// Number of items (rows).
    pub fn n_items(&self) -> usize {
        self.n
    }

    /// Number of classes (columns).
    pub fn n_classes(&self) -> usize {
        self.j
    }

    /// Class `c`'s weights over all items.
    #[inline]
    pub fn class_column(&self, c: usize) -> &[f64] {
        &self.data[c * self.n..(c + 1) * self.n]
    }

    /// Mutable access to class `c`'s weights.
    pub fn class_column_mut(&mut self, c: usize) -> &mut [f64] {
        &mut self.data[c * self.n..(c + 1) * self.n]
    }

    /// Item `i`'s weights across classes (strided; test/report use only —
    /// hot paths work column-wise).
    pub fn item_weights(&self, i: usize) -> Vec<f64> {
        (0..self.j).map(|c| self.data[c * self.n + i]).collect()
    }

    /// Doubles of storage held: the largest shape it has been reset to.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Resize for a different item/class count, keeping the existing
    /// capacity. Contents are **unspecified** afterwards: every E-step
    /// kernel overwrites each column with `log_pi` before accumulating, so
    /// the old `clear()` + zero-fill `resize` was pure wasted bandwidth
    /// (one full write of the `n × j` matrix per cycle). Callers that need
    /// zeroed storage must fill it themselves.
    pub fn reset(&mut self, n: usize, j: usize) {
        self.n = n;
        self.j = j;
        let len = n * j;
        if self.data.len() < len {
            // Grow to exactly the new shape, so the capacity is the largest
            // shape seen, never a doubling past it. The new tail is zeroed
            // by `resize`; existing elements keep stale values, which is
            // fine under the overwrite contract.
            self.data.reserve_exact(len - self.data.len());
            self.data.resize(len, 0.0);
        } else {
            // Shrink without touching memory: capacity is retained.
            self.data.truncate(len);
        }
    }
}

impl Default for WtsMatrix {
    /// An empty `0 × 0` matrix, ready to be `reset` to any shape.
    fn default() -> Self {
        WtsMatrix::new(0, 0)
    }
}

/// Outputs of one E-step over one partition. In P-AutoClass the vector
/// `class_weight_sums` and the two scalars are combined across processors
/// with Allreduce(+); everything is a plain sum over items.
#[derive(Debug, Clone, PartialEq)]
pub struct EStepOut {
    /// w_j = Σ_i w_ij for each class (this partition's part).
    pub class_weight_sums: Vec<f64>,
    /// Incomplete-data log likelihood Σ_i ln Σ_j π_j p(x_i|j).
    pub log_likelihood: f64,
    /// Complete-data log likelihood at the current weights:
    /// Σ_i Σ_j w_ij (ln π_j + ln p(x_i|j)); used by the Cheeseman–Stutz
    /// marginal-likelihood approximation.
    pub complete_ll: f64,
    /// Abstract op count for the virtual-time model.
    pub ops: u64,
}

/// Tile height (in items) of the blocked E-step kernel. A tile touches
/// `j` column segments of `ESTEP_TILE` doubles each: at `j = 32` that is
/// 64 KiB of weights — resident in L2 on every target, and small enough
/// that the phase-2 normalization re-reads the tile from cache instead of
/// striding across a matrix that long since left it.
pub const ESTEP_TILE: usize = 256;

/// Reusable buffers for [`update_wts_into`] and [`estep_and_stats_into`].
/// Every buffer is refilled by each call, so one instance can serve every
/// caller that runs one call at a time: a whole search (inside a
/// `CycleWorkspace`), or, on the simulator, every rank of a run, through
/// `mpsim::SpmdComm::with_scratch`. After the first call at a given model
/// shape and partition length no call allocates.
#[derive(Debug, Clone, Default)]
pub struct EStepScratch {
    /// w_j = Σ_i w_ij per class (this partition's part); the output vector
    /// that P-AutoClass allreduces. Resized to `j` and refilled each call;
    /// a caller that lends the scratch copies it out before the lend ends.
    pub class_weight_sums: Vec<f64>,
    /// The weights of one tile, `min(n, ESTEP_TILE)` rows by `j` classes:
    /// all the weight storage [`estep_and_stats_into`] uses. Empty until
    /// that entry first runs; the whole-matrix entries leave it alone.
    pub tile: WtsMatrix,
    /// Per-item row maxima over one tile (`max_c r_ic`).
    rowmax: Vec<f64>,
    /// Per-item exponential sums over one tile (`Σ_c e_ic`), later
    /// overwritten in place with their reciprocals.
    sums: Vec<f64>,
    /// Per-item `Σ_c e_ic · r_ic` over one tile (for the complete-data
    /// log likelihood).
    accwr: Vec<f64>,
    /// `ln x` of one tile's values, group-major over the LogNormal groups
    /// (empty when the model has none).
    ln_x: Vec<f64>,
    /// Attribute-major gather of one tile's MVN block columns.
    mvn_gather: Vec<f64>,
    /// `x − μ` workspace for the Mahalanobis kernel.
    mvn_diff: Vec<f64>,
    /// Forward-substitution workspace for the Mahalanobis kernel.
    mvn_scratch: Vec<f64>,
}

impl EStepScratch {
    /// Doubles of storage held by every buffer. After the tile-resident
    /// entry on a partition of `n` items, a tile of `min(n, ESTEP_TILE)`
    /// rows, this is at most `j` class sums plus, per tile row, `j`
    /// weights, three per-item sums, one logarithm per LogNormal group and
    /// `d` gathered values of the widest MultiNormal block, plus `2d`.
    pub fn capacity(&self) -> usize {
        // Every field, so that a new buffer is counted or fails to compile.
        let EStepScratch {
            class_weight_sums,
            tile,
            rowmax,
            sums,
            accwr,
            ln_x,
            mvn_gather,
            mvn_diff,
            mvn_scratch,
        } = self;
        let vecs =
            [class_weight_sums, rowmax, sums, accwr, ln_x, mvn_gather, mvn_diff, mvn_scratch];
        tile.capacity() + vecs.iter().map(|v| v.capacity()).sum::<usize>()
    }
}

/// Scalar outputs of one E-step (the vector output, `class_weight_sums`,
/// stays in the caller's [`EStepScratch`] so it can be allreduced in place).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EStepScalars {
    /// Incomplete-data log likelihood Σ_i ln Σ_j π_j p(x_i|j).
    pub log_likelihood: f64,
    /// Complete-data log likelihood at the current weights.
    pub complete_ll: f64,
    /// Abstract op count for the virtual-time model.
    pub ops: u64,
}

/// Compute class-membership weights for every item in `view` given the
/// current classes, storing them in `wts` (resized as needed).
///
/// Convenience wrapper around [`update_wts_into`] that allocates a fresh
/// [`EStepScratch`] per call. Hot paths (the `BIG_LOOP` in `search.rs`, the
/// parallel driver) thread a long-lived workspace through
/// [`update_wts_into`] instead, which performs no heap allocation in steady
/// state.
pub fn update_wts(
    model: &Model,
    view: &DataView<'_>,
    classes: &[ClassParams],
    wts: &mut WtsMatrix,
) -> EStepOut {
    let mut scratch = EStepScratch::default();
    let s = update_wts_into(model, view, classes, wts, &mut scratch);
    EStepOut {
        class_weight_sums: scratch.class_weight_sums,
        log_likelihood: s.log_likelihood,
        complete_ll: s.complete_ll,
        ops: s.ops,
    }
}

/// Consumer of finalized weight tiles inside the blocked E-step kernel.
///
/// `tile(lo, hi, wts, at, logs)` is called once per tile, after pass D,
/// when the rows `at..at + (hi - lo)` of every class column of `wts` hold
/// the **final normalized** weights of the items `[lo, hi)` and are still
/// cache-hot, and `logs` holds phase 1's `ln x` of those items,
/// group-major over the LogNormal groups. This is what lets the fused E+M
/// entry points accumulate sufficient statistics in the same pass without
/// a second walk over the weights.
trait TileSink {
    fn tile(&mut self, lo: usize, hi: usize, wts: &WtsMatrix, at: usize, logs: &[f64]);
}

/// Sink for the plain E-step: no per-tile consumer.
struct NoSink;

impl TileSink for NoSink {
    #[inline(always)]
    fn tile(&mut self, _lo: usize, _hi: usize, _wts: &WtsMatrix, _at: usize, _logs: &[f64]) {}
}

/// Sink for the fused E+M kernels: folds each finalized tile into `stats`
/// through [`SuffStats::fold_tile_on`], whose chains carry across tiles
/// in the statistics themselves, so the result is bitwise a
/// whole-partition [`SuffStats::accumulate`] after the E-step.
struct StatsSink<'a, 'v> {
    isa: Isa,
    model: &'a Model,
    view: &'a DataView<'v>,
    stats: &'a mut SuffStats,
    ops: u64,
}

impl TileSink for StatsSink<'_, '_> {
    /// Out of line, on the caller's instance: inlined into the E-step's
    /// instance, the statistics kernel made the whole pass slower than the
    /// two passes it replaces. One call per tile costs nothing measurable.
    #[inline(never)]
    fn tile(&mut self, lo: usize, hi: usize, wts: &WtsMatrix, at: usize, logs: &[f64]) {
        let (model, view) = (self.model, self.view);
        self.ops += self.stats.fold_tile_on(self.isa, model, view, wts, at, lo, hi, Some(logs));
    }
}

/// One call of the tile loop, as a [`Wide`] kernel so it runs on the
/// widest instance the CPU supports. The weights go to `wts`, or to the
/// scratch's one-tile buffer when it is `None`.
struct Tiled<'a, 'v, S> {
    model: &'a Model,
    view: &'a DataView<'v>,
    classes: &'a [ClassParams],
    wts: Option<&'a mut WtsMatrix>,
    scratch: &'a mut EStepScratch,
    sink: &'a mut S,
}

impl<S: TileSink> Wide for Tiled<'_, '_, S> {
    type Out = EStepScalars;

    #[inline(always)]
    fn run<L: Lanes>(self, lanes: L) -> EStepScalars {
        let Tiled { model, view, classes, wts, scratch, sink } = self;
        update_wts_tiled(lanes, model, view, classes, wts, scratch, sink)
    }
}

/// The blocked, fused E-step kernel: phase 1 (joint log densities) and
/// phase 2 (log-sum-exp normalization) run per [`ESTEP_TILE`]-item tile,
/// so the normalization reads each tile while it is still cache-hot
/// instead of walking `wts.data[c * n + i]` strides across the full
/// matrix. Allocation-free once `scratch` has warmed up.
///
/// Numerically equivalent to [`update_wts_naive`], not bitwise: phase 1
/// applies the same per-element operation sequence (`log_pi`, then each
/// term in group order) regardless of tiling, but phase 2 runs
/// column-major over the tile — one `fast_exp` per element followed by
/// a normalization multiply (`w_c = e_c · (1/Σe)`) where the reference
/// calls libm `exp` twice, and the scalar reductions associate per tile
/// pass rather than strictly item-by-item. The two agree to
/// final-rounding ulps; every cross-rank replication guarantee is
/// unaffected because all ranks run this same deterministic kernel.
///
/// Runs on the widest instance of the kernel the CPU supports (see
/// `model::wide`); every instance gives the same bits.
pub fn update_wts_into(
    model: &Model,
    view: &DataView<'_>,
    classes: &[ClassParams],
    wts: &mut WtsMatrix,
    scratch: &mut EStepScratch,
) -> EStepScalars {
    let wts = Some(wts);
    run_wide(Isa::best(), Tiled { model, view, classes, wts, scratch, sink: &mut NoSink })
}

/// Single-pass fused E+M kernel: identical to [`update_wts_into`] (same
/// tile schedule, same arithmetic — the weights and scalars come out
/// bitwise equal), but each finalized tile is immediately folded into
/// `stats` while its weights are still in cache, instead of re-reading
/// the whole `n × j` matrix in a separate [`SuffStats::accumulate`] pass.
/// The statistics' chains carry across tiles unbroken, so they are
/// bitwise identical to the two-pass form as well. The EM cycle keeps no
/// weight matrix and calls [`estep_and_stats_into`] instead.
///
/// `stats` accumulates as in [`SuffStats::accumulate`]: zeroed, it ends
/// holding this partition's statistics. `carry` is neither read nor
/// written: the chains carry in `stats`, so the kernel needs no buffer,
/// and the parameter stays for the callers that pass one. Returns the
/// E-step scalars and the statistics op count (charged separately, under
/// the M-step phase, so phase accounting matches the two-pass driver).
pub fn update_wts_and_stats_into(
    model: &Model,
    view: &DataView<'_>,
    classes: &[ClassParams],
    wts: &mut WtsMatrix,
    scratch: &mut EStepScratch,
    stats: &mut SuffStats,
    carry: &mut Vec<f64>,
) -> (EStepScalars, u64) {
    let _ = carry;
    fused_on(Isa::best(), model, view, classes, Some(wts), scratch, stats)
}

/// The EM cycle's E-step and local statistics in one tile-resident pass:
/// the scalars, `scratch.class_weight_sums` and `stats` come out bitwise
/// as [`update_wts_into`] followed by [`SuffStats::accumulate`] leaves
/// them, but no weight outlives its tile. Each tile's weights go to
/// `scratch.tile` and are folded into `stats` while still in cache, so a
/// partition of `n` items keeps `min(n, ESTEP_TILE) × j` weights, not
/// `n × j`, and reads none of them back from memory.
///
/// `stats` accumulates as in [`SuffStats::accumulate`]; the cycle passes
/// it zeroed, as `CycleWorkspace::reset_stats` leaves it. Returns the
/// E-step scalars and the statistics op count, which the caller charges
/// separately.
pub fn estep_and_stats_into(
    model: &Model,
    view: &DataView<'_>,
    classes: &[ClassParams],
    scratch: &mut EStepScratch,
    stats: &mut SuffStats,
) -> (EStepScalars, u64) {
    fused_on(Isa::best(), model, view, classes, None, scratch, stats)
}

/// Both fused E+M entries on the kernel instance for `isa`: the weights go
/// to `wts`, or, when it is `None`, one tile at a time to `scratch.tile`.
fn fused_on(
    isa: Isa,
    model: &Model,
    view: &DataView<'_>,
    classes: &[ClassParams],
    wts: Option<&mut WtsMatrix>,
    scratch: &mut EStepScratch,
    stats: &mut SuffStats,
) -> (EStepScalars, u64) {
    let mut sink = StatsSink { isa, model, view, stats, ops: 0 };
    let scalars = run_wide(isa, Tiled { model, view, classes, wts, scratch, sink: &mut sink });
    (scalars, sink.ops)
}

/// The tile loop shared by every E-step entry point. The weights go to
/// `wts`, each item at its own row, or, when it is `None`, to
/// `scratch.tile`, each tile at rows `0..`; `sink` observes each tile
/// after its weights are final. Always inlined, together with everything
/// on its hot path, so that each [`Wide`] instance compiles the whole
/// loop at its own vector width.
#[inline(always)]
fn update_wts_tiled<L: Lanes, S: TileSink>(
    lanes: L,
    model: &Model,
    view: &DataView<'_>,
    classes: &[ClassParams],
    wts: Option<&mut WtsMatrix>,
    scratch: &mut EStepScratch,
    sink: &mut S,
) -> EStepScalars {
    let n = view.len();
    let j = classes.len();
    assert!(j >= 1, "need at least one class");
    // No tile is longer than the partition, so a partition of a few
    // items keeps a few-item scratch.
    let tile = ESTEP_TILE.min(n);
    let resident = wts.is_none();
    let wts = match wts {
        Some(wts) => {
            wts.reset(n, j);
            wts
        }
        None => {
            scratch.tile.reset(tile, j);
            &mut scratch.tile
        }
    };
    // Column stride of the weights: `n`, or one tile.
    let stride = wts.n;

    scratch.class_weight_sums.clear();
    scratch.class_weight_sums.resize(j, 0.0);
    scratch.rowmax.resize(tile, 0.0);
    scratch.sums.resize(tile, 0.0);
    scratch.accwr.resize(tile, 0.0);

    let mut log_likelihood = 0.0;
    let mut complete_ll = 0.0;

    let mut lo = 0;
    while lo < n {
        let hi = (lo + ESTEP_TILE).min(n);
        let tl = hi - lo;
        // The row of `wts` that holds item `lo`.
        let at = if resident { 0 } else { lo };

        // The tile's logarithms, taken once per LogNormal group rather
        // than once per class.
        scratch.ln_x.clear();
        for group in &model.groups {
            if matches!(group.prior, TermPrior::LogNormal { .. }) {
                let xs = &view.real_column(group.attrs[0])[lo..hi];
                scratch.ln_x.extend(xs.iter().map(|x| x.ln()));
            }
        }

        // Phase 1 (tile): joint log densities, column segment by column
        // segment. Each per-attribute kernel runs on the `[lo, hi)` slice
        // of its column — the same element-wise additions the full-column
        // naive kernel performs, just grouped by tile.
        for (c, class) in classes.iter().enumerate() {
            let col = &mut wts.data[c * stride + at..c * stride + at + tl];
            col.fill(class.log_pi);
            let mut ln_at = 0;
            for (term, group) in class.terms.iter().zip(&model.groups) {
                match &group.prior {
                    TermPrior::Normal { .. } => {
                        let xs = &view.real_column(group.attrs[0])[lo..hi];
                        term.accumulate_log_prob_real(xs, &[], col);
                    }
                    TermPrior::LogNormal { .. } => {
                        let xs = &view.real_column(group.attrs[0])[lo..hi];
                        let ln_xs = &scratch.ln_x[ln_at..ln_at + tl];
                        ln_at += tl;
                        term.accumulate_log_prob_real(xs, ln_xs, col);
                    }
                    TermPrior::Multinomial { missing_level, .. } => {
                        let ls = &view.discrete_column(group.attrs[0])[lo..hi];
                        if *missing_level {
                            term.accumulate_log_prob_discrete_with_missing(ls, col);
                        } else {
                            term.accumulate_log_prob_discrete(ls, col);
                        }
                    }
                    TermPrior::MultiNormal { .. } => {
                        // Gather the tile's block columns attribute-major
                        // into the reusable flat buffer (replaces the
                        // per-call `Vec<&[f64]>` of column pointers).
                        let d = group.attrs.len();
                        scratch.mvn_gather.clear();
                        scratch.mvn_gather.resize(d * tl, 0.0);
                        for (a, &attr) in group.attrs.iter().enumerate() {
                            scratch.mvn_gather[a * tl..(a + 1) * tl]
                                .copy_from_slice(&view.real_column(attr)[lo..hi]);
                        }
                        term.accumulate_log_prob_mvn_flat(
                            &scratch.mvn_gather,
                            col,
                            &mut scratch.mvn_diff,
                            &mut scratch.mvn_scratch,
                        );
                    }
                }
            }
        }

        // Phase 2 (tile): log-sum-exp normalization, column-major. Every
        // pass is a long stride-1 loop over the tile with independent
        // per-item lanes (`rm[t]`, `sums[t]`, `accwr[t]`), so the compiler
        // can vectorize the exponential and there is no serial
        // accumulation chain — the structure that makes the blocked kernel
        // faster than the row-at-a-time reference, not just cache-friendlier.
        let rm = &mut scratch.rowmax[..tl];
        let sums = &mut scratch.sums[..tl];
        let accwr = &mut scratch.accwr[..tl];

        // Pass A: per-item row maxima. All-(-inf) rows cannot occur:
        // log_pi is finite and term kernels add finite values
        // (multinomial smoothing keeps log_p finite).
        rm.fill(f64::NEG_INFINITY);
        for c in 0..j {
            let col = &wts.data[c * stride + at..c * stride + at + tl];
            for (m, &v) in rm.iter_mut().zip(col) {
                // A select, not an `if`: the branch form mispredicts on
                // randomly ordered data (which class holds the running max
                // is item-dependent) and costs several ms per E-step.
                *m = if v > *m { v } else { *m };
            }
        }

        // Pass B: exponentials in place (the tile's log densities become
        // unnormalized weights), plus the per-item sum and the
        // complete-likelihood numerator Σ_c e·r. The `e > 0` select
        // protects the `0 · (−∞)` corner exactly like the reference's
        // `w > 0.0` guard.
        sums.fill(0.0);
        accwr.fill(0.0);
        for c in 0..j {
            let col = &mut wts.data[c * stride + at..c * stride + at + tl];
            for t in 0..tl {
                let r = col[t];
                let e = fast_exp(r - rm[t]);
                col[t] = e;
                sums[t] += e;
                accwr[t] += if e > 0.0 { e * r } else { 0.0 };
            }
        }

        // Pass C: the two scalar reductions, i-ascending as before (one
        // loop, so each chain's add latency hides behind the other's
        // work), then reciprocals for the normalization pass.
        for ((m, a), s) in rm.iter().zip(accwr.iter()).zip(sums.iter()) {
            log_likelihood += m + s.ln();
            complete_ll += a / s;
        }
        for s in sums.iter_mut() {
            *s = 1.0 / *s;
        }

        // Pass D: normalize in place, column by column (elementwise, so it
        // vectorizes), then fold each column segment into its class
        // weight sum in the class-lane sweep, one lane per class.
        for c in 0..j {
            let col = &mut wts.data[c * stride + at..c * stride + at + tl];
            for (w, &inv) in col.iter_mut().zip(sums.iter()) {
                *w *= inv;
            }
        }
        // The columns are read through a slice the closure owns: one that
        // borrowed `wts` itself kept pass B's loop from vectorizing.
        let data: &[f64] = &wts.data;
        let cols = move |c: usize| &data[c * stride + at..c * stride + at + tl];
        let cws = &mut scratch.class_weight_sums[..];
        class_blocks(lanes, j, &mut ClassSums { cols, cws });

        // The tile's weights are final; hand them to the sink while the
        // column segments are still cache-resident.
        sink.tile(lo, hi, wts, at, &scratch.ln_x);

        lo = hi;
    }

    let k = model.n_attrs() as u64;
    let ops = (n as u64) * (j as u64) * (k + 2);
    EStepScalars { log_likelihood, complete_ll, ops }
}

/// Pass D's class weight sums as a class-block pass: each block's
/// column segments `cols(c)` summed in item order, one chain per class
/// starting at zero, and each tile total added to its entry of `cws`.
struct ClassSums<'a, F> {
    cols: F,
    cws: &'a mut [f64],
}

impl<'a, F: Fn(usize) -> &'a [f64]> ClassBlocks for ClassSums<'_, F> {
    #[inline(always)]
    fn block<L: Lanes>(&mut self, lanes: L, c0: usize, k: usize) {
        let mut acc = lanes.splat(0.0);
        class_lanes(
            lanes,
            &class_block(c0, k, &self.cols),
            #[inline(always)]
            |_, w| acc = lanes.add(acc, w),
        );
        for (cw, acc) in self.cws[c0..c0 + k].iter_mut().zip(lanes.store(acc)) {
            *cw += acc;
        }
    }
}

/// The pre-blocking reference E-step, retained verbatim as the oracle the
/// blocked kernel is tested against (`blocked_kernel_matches_naive_to_rounding`
/// checks outputs to rounding and op counts exactly). Full-column phase 1,
/// then a strided full-matrix phase 2.
pub fn update_wts_naive(
    model: &Model,
    view: &DataView<'_>,
    classes: &[ClassParams],
    wts: &mut WtsMatrix,
) -> EStepOut {
    let n = view.len();
    let j = classes.len();
    assert!(j >= 1, "need at least one class");
    wts.reset(n, j);

    // Phase 1: joint log densities, column by column (cache-friendly).
    for (c, class) in classes.iter().enumerate() {
        let col = wts.class_column_mut(c);
        col.iter_mut().for_each(|v| *v = class.log_pi);
        for (term, group) in class.terms.iter().zip(&model.groups) {
            match &group.prior {
                TermPrior::Normal { .. } => {
                    term.accumulate_log_prob_real(view.real_column(group.attrs[0]), &[], col);
                }
                TermPrior::LogNormal { .. } => {
                    let xs = view.real_column(group.attrs[0]);
                    let ln_xs: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
                    term.accumulate_log_prob_real(xs, &ln_xs, col);
                }
                TermPrior::Multinomial { missing_level, .. } => {
                    let ls = view.discrete_column(group.attrs[0]);
                    if *missing_level {
                        term.accumulate_log_prob_discrete_with_missing(ls, col);
                    } else {
                        term.accumulate_log_prob_discrete(ls, col);
                    }
                }
                TermPrior::MultiNormal { .. } => {
                    let cols: Vec<&[f64]> =
                        group.attrs.iter().map(|&a| view.real_column(a)).collect();
                    term.accumulate_log_prob_mvn(&cols, col);
                }
            }
        }
    }

    // Phase 2: per-item normalization (log-sum-exp across the row) and the
    // three reductions — strided `wts.data[c * n + i]` walks over the whole
    // matrix, which is what the blocked kernel eliminates.
    let mut class_weight_sums = vec![0.0; j];
    let mut log_likelihood = 0.0;
    let mut complete_ll = 0.0;
    let mut row = vec![0.0; j];
    for i in 0..n {
        let mut max = f64::NEG_INFINITY;
        for (c, r) in row.iter_mut().enumerate() {
            let v = wts.data[c * n + i];
            *r = v;
            if v > max {
                max = v;
            }
        }
        let mut sum = 0.0;
        for r in &row {
            sum += (r - max).exp();
        }
        let lse = max + sum.ln();
        log_likelihood += lse;
        for (c, &r) in row.iter().enumerate() {
            let w = (r - lse).exp();
            wts.data[c * n + i] = w;
            class_weight_sums[c] += w;
            if w > 0.0 {
                complete_ll += w * r;
            }
        }
    }

    let k = model.n_attrs() as u64;
    let ops = (n as u64) * (j as u64) * (k + 2);
    EStepOut { class_weight_sums, log_likelihood, complete_ll, ops }
}

/// Abstract op count of one E-step with the given dimensions (for cost
/// accounting without running it).
pub fn estep_ops(n: usize, j: usize, k: usize) -> u64 {
    (n as u64) * (j as u64) * (k as u64 + 2)
}

/// Branch-free `exp` for the log-sum-exp pass (where inputs are
/// `r − max ≤ 0`). This is the blocked kernel's single biggest win over
/// the reference: libm `exp` is a call with data-dependent branches, so
/// the compiler can neither inline nor vectorize the normalization loop
/// around it.
///
/// Construction: round-to-nearest integer `n = ⌊x·log₂e⌉` via the
/// 1.5·2^52 shifter (no `round()` libcall), Cody–Waite two-part ln 2
/// argument reduction to `|r| ≤ ½ln2`, a degree-12 Horner polynomial
/// (Taylor coefficients; truncation `r¹³/13!` is below one ulp on that
/// interval), and a bit-assembled power-of-two scale. The integer `n`
/// is read straight out of the shifter's mantissa bits (the shifted sum
/// stores `2^51 + n` in its low 52 bits) rather than via an `f64 → i64`
/// conversion, which has no packed form below AVX-512DQ and would stop the
/// surrounding loop from vectorizing in the plain and AVX2 instances (see
/// `model::wide`); the bit read vectorizes at every level. Relative error
/// vs libm `exp` is a few ulps (≲ 1e-15) across the supported domain.
///
/// Inputs below −708 return exactly `0.0`: true `exp` underflows to
/// subnormals there, which contribute nothing to a weight sum of order 1,
/// and returning a true zero preserves the `w > 0.0` guard that protects
/// the `0 · (−∞)` complete-likelihood corner.
///
/// Edge cases, handled by branch-free selects after the pipeline so the
/// hot path stays vectorizable:
/// * **NaN propagates.** A `max`/`min` clamp ignores a NaN operand and
///   would silently turn a NaN log-density into `exp(−708)` — a tiny
///   finite weight — corrupting the weight normalization downstream
///   without a trace; `clamp` forwards NaN but the integer exponent
///   assembly then produces garbage bits rather than NaN. A final
///   `is_nan` select returns the input itself, payload intact.
/// * **Inputs above +709 saturate to `+∞`.** The `ni << 52` exponent
///   assembly only covers normal range (`n ≤ 1023`, i.e. `x ≲ 709.78`);
///   beyond it the shifted exponent would wrap into garbage bits. The
///   log-sum-exp caller only ever passes `r − max ≤ 0`, but the guard
///   makes the helper total over `f64`.
#[inline(always)]
fn fast_exp(x: f64) -> f64 {
    const LOG2E: f64 = std::f64::consts::LOG2_E;
    // fdlibm's split of ln 2, quoted at its published precision (the
    // extra digits round to the same f64): LN2_HI has enough trailing
    // zeros that `n · LN2_HI` is exact for every |n| < 2^20 reachable
    // here.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f64 = 6.931_471_803_691_238_164_9e-1;
    #[allow(clippy::excessive_precision)]
    const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
    // The 1.5 · 2^52 round-to-nearest shifter.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    // Clamping to [−708, 709] keeps the assembled exponent in normal
    // range; the final selects map everything outside (and NaN) to the
    // documented results.
    let xc = x.clamp(-708.0, 709.0);
    let t = xc * LOG2E + SHIFT;
    let nf = t - SHIFT;
    let r = (xc - nf * LN2_HI) - nf * LN2_LO;
    let p = 1.0 / 479_001_600.0; // 1/12!
    let p = p * r + 1.0 / 39_916_800.0;
    let p = p * r + 1.0 / 3_628_800.0;
    let p = p * r + 1.0 / 362_880.0;
    let p = p * r + 1.0 / 40_320.0;
    let p = p * r + 1.0 / 5_040.0;
    let p = p * r + 1.0 / 720.0;
    let p = p * r + 1.0 / 120.0;
    let p = p * r + 1.0 / 24.0;
    let p = p * r + 1.0 / 6.0;
    let p = p * r + 0.5;
    let p = p * r + 1.0;
    let p = p * r + 1.0;
    // `t` lies in [2^52, 2^53), so its mantissa field holds the integer
    // `2^51 + n` exactly; peel `n` back out with integer ops only and
    // fold the `− 2^51` and the `+ 1023` exponent bias into one constant.
    let ni = (t.to_bits() & ((1u64 << 52) - 1)) as i64 + (1023 - (1i64 << 51));
    let scale = f64::from_bits((ni << 52) as u64);
    let v = p * scale;
    // Ordered selects: saturate the unrepresentable tails first, then let
    // NaN (for which both comparisons are false) override everything.
    let v = if x > 709.0 { f64::INFINITY } else { v };
    let v = if x < -708.0 { 0.0 } else { v };
    if x.is_nan() {
        x
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::dataset::{Dataset, Value};
    use crate::data::schema::{Attribute, Schema};
    use crate::data::stats::GlobalStats;
    use crate::model::prior::TermParams;

    fn two_cluster_setup() -> (Dataset, Model, Vec<ClassParams>) {
        let schema = Schema::new(vec![Attribute::real("x", 0.01)]);
        let data = Dataset::from_rows(
            schema.clone(),
            &[
                vec![Value::Real(-5.0)],
                vec![Value::Real(-5.1)],
                vec![Value::Real(5.0)],
                vec![Value::Real(5.1)],
            ],
        );
        let stats = GlobalStats::compute(&data.full_view());
        let model = Model::new(schema, &stats);
        let classes = vec![
            ClassParams::new(2.0, 0.5, vec![TermParams::normal(-5.0, 0.5)]),
            ClassParams::new(2.0, 0.5, vec![TermParams::normal(5.0, 0.5)]),
        ];
        (data, model, classes)
    }

    #[test]
    fn weights_are_normalized_per_item() {
        let (data, model, classes) = two_cluster_setup();
        let mut wts = WtsMatrix::new(0, 0);
        let out = update_wts(&model, &data.full_view(), &classes, &mut wts);
        for i in 0..4 {
            let s: f64 = wts.item_weights(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "item {i}: {s}");
        }
        let total: f64 = out.class_weight_sums.iter().sum();
        assert!((total - 4.0).abs() < 1e-12);
    }

    #[test]
    fn tile_scratch_is_sized_to_a_short_partition() {
        // A 16-item partition of a larger dataset, as a rank of a large
        // machine holds: its tile buffers hold 16 entries, not a full tile.
        let schema = Schema::new(vec![Attribute::real("x", 0.01)]);
        let rows: Vec<Vec<Value>> =
            (0..ESTEP_TILE + 40).map(|i| vec![Value::Real(i as f64)]).collect();
        let data = Dataset::from_rows(schema.clone(), &rows);
        let model = Model::new(schema, &GlobalStats::compute(&data.full_view()));
        let classes = vec![
            ClassParams::new(2.0, 0.5, vec![TermParams::normal(10.0, 4.0)]),
            ClassParams::new(2.0, 0.5, vec![TermParams::normal(200.0, 4.0)]),
        ];
        let view = data.view(100, 116);
        let mut wts = WtsMatrix::default();
        let mut scratch = EStepScratch::default();
        update_wts_into(&model, &view, &classes, &mut wts, &mut scratch);
        for (name, buf) in
            [("rowmax", &scratch.rowmax), ("sums", &scratch.sums), ("accwr", &scratch.accwr)]
        {
            assert!(buf.capacity() <= 16, "{name} holds {} entries", buf.capacity());
        }
        // The tile-resident entry's weights: one 16-row tile of two classes.
        assert_eq!(scratch.tile.capacity(), 0, "the whole-matrix entry used the tile");
        let mut stats = SuffStats::zeros(crate::model::suffstats::StatLayout::new(&model, 2));
        estep_and_stats_into(&model, &view, &classes, &mut scratch, &mut stats);
        assert_eq!(scratch.tile.capacity(), 16 * 2);
    }

    #[test]
    fn well_separated_items_get_confident_weights() {
        let (data, model, classes) = two_cluster_setup();
        let mut wts = WtsMatrix::new(0, 0);
        update_wts(&model, &data.full_view(), &classes, &mut wts);
        assert!(wts.item_weights(0)[0] > 0.999);
        assert!(wts.item_weights(2)[1] > 0.999);
    }

    #[test]
    fn log_likelihood_matches_manual_computation() {
        let (data, model, classes) = two_cluster_setup();
        let mut wts = WtsMatrix::new(0, 0);
        let out = update_wts(&model, &data.full_view(), &classes, &mut wts);
        let mut expect = 0.0;
        let v = data.full_view();
        for i in 0..4 {
            let x = v.real_column(0)[i];
            let lp: Vec<f64> =
                classes.iter().map(|c| c.log_pi + c.terms[0].log_prob_real(x)).collect();
            expect += crate::math::log_sum_exp(&lp);
        }
        assert!((out.log_likelihood - expect).abs() < 1e-10);
    }

    #[test]
    fn complete_ll_never_exceeds_incomplete() {
        // By Jensen: Σ w ln f ≤ ln Σ f when w are the posteriors.
        let (data, model, classes) = two_cluster_setup();
        let mut wts = WtsMatrix::new(0, 0);
        let out = update_wts(&model, &data.full_view(), &classes, &mut wts);
        assert!(out.complete_ll <= out.log_likelihood + 1e-12);
    }

    #[test]
    fn partition_estep_sums_to_full() {
        let (data, model, classes) = two_cluster_setup();
        let mut wts = WtsMatrix::new(0, 0);
        let full = update_wts(&model, &data.full_view(), &classes, &mut wts);

        let mut acc_ll = 0.0;
        let mut acc_cll = 0.0;
        let mut acc_w = [0.0; 2];
        for range in crate::data::dataset::block_partition(4, 3) {
            let part = update_wts(&model, &data.view(range.start, range.end), &classes, &mut wts);
            acc_ll += part.log_likelihood;
            acc_cll += part.complete_ll;
            for (a, b) in acc_w.iter_mut().zip(&part.class_weight_sums) {
                *a += b;
            }
        }
        assert!((acc_ll - full.log_likelihood).abs() < 1e-10);
        assert!((acc_cll - full.complete_ll).abs() < 1e-10);
        for (a, b) in acc_w.iter().zip(&full.class_weight_sums) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn single_class_gets_weight_one() {
        let (data, model, _) = two_cluster_setup();
        let classes = vec![ClassParams::new(4.0, 1.0, vec![TermParams::normal(0.0, 5.0)])];
        let mut wts = WtsMatrix::new(0, 0);
        let out = update_wts(&model, &data.full_view(), &classes, &mut wts);
        assert!(wts.class_column(0).iter().all(|&w| (w - 1.0).abs() < 1e-12));
        assert!((out.class_weight_sums[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ops_formula_matches_helper() {
        let (data, model, classes) = two_cluster_setup();
        let mut wts = WtsMatrix::new(0, 0);
        let out = update_wts(&model, &data.full_view(), &classes, &mut wts);
        assert_eq!(out.ops, estep_ops(4, 2, 1));
    }

    /// Many items (forcing several tiles plus a ragged tail): the blocked
    /// kernel must match the retained naive reference to final-rounding
    /// precision, and both must charge `estep_ops` for the E-step. Phase 1
    /// is the identical operation sequence; phase 2 replaces two libm
    /// `exp` calls per element with one `fast_exp` plus a normalization
    /// multiply, so outputs agree to a few ulps rather than bitwise. Two
    /// inputs: two well-separated classes on one real attribute, and
    /// eight overlapping classes on two real attributes.
    #[test]
    fn blocked_kernel_matches_naive_to_rounding() {
        fn close(a: f64, b: f64, what: &str) {
            let tol = 1e-12 * a.abs().max(b.abs()).max(1e-300);
            assert!((a - b).abs() <= tol, "{what}: {a} vs {b}");
        }
        fn check(schema: Schema, rows: &[Vec<Value>], classes: &[ClassParams]) {
            let data = Dataset::from_rows(schema.clone(), rows);
            let stats = GlobalStats::compute(&data.full_view());
            let model = Model::new(schema, &stats);
            let (n, j) = (rows.len(), classes.len());

            let mut wts_naive = WtsMatrix::new(0, 0);
            let naive = update_wts_naive(&model, &data.full_view(), classes, &mut wts_naive);

            let mut wts_blocked = WtsMatrix::new(0, 0);
            let mut scratch = EStepScratch::default();
            let blocked =
                update_wts_into(&model, &data.full_view(), classes, &mut wts_blocked, &mut scratch);

            close(naive.log_likelihood, blocked.log_likelihood, "log likelihood");
            close(naive.complete_ll, blocked.complete_ll, "complete log likelihood");
            assert_eq!(naive.ops, estep_ops(n, j, model.n_attrs()), "J={j}");
            assert_eq!(blocked.ops, naive.ops, "J={j}");
            for (a, b) in naive.class_weight_sums.iter().zip(&scratch.class_weight_sums) {
                close(*a, *b, "class weight sums");
            }
            for c in 0..j {
                for (a, b) in wts_naive.class_column(c).iter().zip(wts_blocked.class_column(c)) {
                    close(*a, *b, "weight matrix");
                }
            }
        }
        let n = 2 * ESTEP_TILE + 37;

        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                let x = if i % 2 == 0 { -5.0 } else { 5.0 } + (i as f64) * 1e-3;
                vec![Value::Real(x)]
            })
            .collect();
        let classes = [
            ClassParams::new(n as f64 / 2.0, 0.5, vec![TermParams::normal(-5.0, 0.7)]),
            ClassParams::new(n as f64 / 2.0, 0.5, vec![TermParams::normal(5.0, 0.7)]),
        ];
        check(Schema::new(vec![Attribute::real("x", 0.01)]), &rows, &classes);

        let center = |c: usize| (1.5 * c as f64, (c % 3) as f64);
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                let (x, y) = center(i % 8);
                let jitter = ((i * 37) % 101) as f64 / 101.0 - 0.5;
                vec![Value::Real(x + jitter), Value::Real(y - jitter)]
            })
            .collect();
        let classes: Vec<ClassParams> = (0..8)
            .map(|c| {
                let (x, y) = center(c);
                let terms = vec![TermParams::normal(x, 0.8), TermParams::normal(y, 0.8)];
                ClassParams::new(n as f64 / 8.0, 0.125, terms)
            })
            .collect();
        let schema = Schema::new(vec![Attribute::real("x", 0.01), Attribute::real("y", 0.01)]);
        check(schema, &rows, &classes);
    }

    /// The fused single-pass E+M kernel vs the two-pass form
    /// (`update_wts_into` then `SuffStats::accumulate`): weights, scalars,
    /// class weight sums, and the sufficient statistics must all be
    /// **bitwise** identical, and the op counts must match — across
    /// several tiles plus a ragged tail, on a mixed real + discrete
    /// schema with missing values. Two classes, and thirteen, whose
    /// 8-, 4- and 1-class chains all carry across tiles.
    #[test]
    fn fused_estep_mstep_is_bitwise_identical_to_two_pass() {
        use crate::model::init::init_classes;
        use crate::model::suffstats::{StatLayout, SuffStats};

        let schema = Schema::new(vec![Attribute::real("x", 0.01), Attribute::discrete("c", 3)]);
        let n = 2 * ESTEP_TILE + 37;
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                let x = if i % 7 == 3 {
                    Value::Missing
                } else {
                    Value::Real(if i % 2 == 0 { -5.0 } else { 5.0 } + (i as f64) * 1e-3)
                };
                let c = if i % 11 == 5 { Value::Missing } else { Value::Discrete((i % 3) as u32) };
                vec![x, c]
            })
            .collect();
        let data = Dataset::from_rows(schema.clone(), &rows);
        let gstats = GlobalStats::compute(&data.full_view());
        let model = Model::new(schema, &gstats);
        let third = (1.0f64 / 3.0).ln();
        let classes = vec![
            ClassParams::new(
                n as f64 / 2.0,
                0.5,
                vec![
                    TermParams::normal(-5.0, 0.7),
                    TermParams::Multinomial { log_p: vec![third; 3] },
                ],
            ),
            ClassParams::new(
                n as f64 / 2.0,
                0.5,
                vec![
                    TermParams::normal(5.0, 0.7),
                    TermParams::Multinomial { log_p: vec![third; 3] },
                ],
            ),
        ];
        let view = data.full_view();

        for classes in [classes, init_classes(&model, &view, 13, 5)] {
            let j = classes.len();

            // Two-pass reference: E-step, then a whole-partition accumulate.
            let mut wts_two = WtsMatrix::new(0, 0);
            let mut scratch_two = EStepScratch::default();
            let e_two = update_wts_into(&model, &view, &classes, &mut wts_two, &mut scratch_two);
            let mut stats_two = SuffStats::zeros(StatLayout::new(&model, j));
            let mops_two = stats_two.accumulate(&model, &view, &wts_two);

            // Fused single pass.
            let mut wts_fused = WtsMatrix::new(0, 0);
            let mut scratch_fused = EStepScratch::default();
            let mut stats_fused = SuffStats::zeros(StatLayout::new(&model, j));
            let mut carry = Vec::new();
            let (e_fused, mops_fused) = update_wts_and_stats_into(
                &model,
                &view,
                &classes,
                &mut wts_fused,
                &mut scratch_fused,
                &mut stats_fused,
                &mut carry,
            );

            assert_eq!(e_two.log_likelihood.to_bits(), e_fused.log_likelihood.to_bits());
            assert_eq!(e_two.complete_ll.to_bits(), e_fused.complete_ll.to_bits());
            assert_eq!(e_two.ops, e_fused.ops);
            assert_eq!(mops_two, mops_fused, "J={j}: statistics op counts must match");
            for (c, (a, b)) in scratch_two
                .class_weight_sums
                .iter()
                .zip(&scratch_fused.class_weight_sums)
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "J={j}: class weight sum {c}");
            }
            for c in 0..j {
                for (i, (a, b)) in
                    wts_two.class_column(c).iter().zip(wts_fused.class_column(c)).enumerate()
                {
                    assert_eq!(a.to_bits(), b.to_bits(), "J={j}: weight [{c}][{i}]");
                }
            }
            for (i, (a, b)) in stats_two.data.iter().zip(&stats_fused.data).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "J={j}: stat slot {i}: {a} vs {b}");
            }
        }
    }

    /// Every term family the kernels special-case: Normal with missing
    /// values, LogNormal, Multinomial without and with a missing level, and
    /// a 2-D MultiNormal block with a missing component, over
    /// `2 · ESTEP_TILE + 37` items, so the last tile is ragged.
    fn mixed() -> (Dataset, Model) {
        let schema = Schema::new(vec![
            Attribute::real("x", 0.01),
            Attribute::positive_real("y", 0.01),
            Attribute::discrete("c", 3),
            Attribute::discrete("d", 4),
            Attribute::real("u", 0.01),
            Attribute::real("v", 0.01),
        ]);
        let rows: Vec<Vec<Value>> = (0..2 * ESTEP_TILE + 37)
            .map(|i| {
                let s = (i as f64 * 0.37).sin();
                let side = if i % 3 == 0 { -3.0 } else { 2.0 };
                let miss = |every: usize, at: usize, v: Value| {
                    if i % every == at {
                        Value::Missing
                    } else {
                        v
                    }
                };
                vec![
                    miss(7, 3, Value::Real(side + s)),
                    Value::Real((0.5 * side + 0.3 * s).exp()),
                    miss(11, 5, Value::Discrete((i % 3) as u32)),
                    miss(5, 1, Value::Discrete((i * 7 % 4) as u32)),
                    Value::Real(side + 0.8 * s),
                    miss(13, 4, Value::Real(-side + 0.6 * s)),
                ]
            })
            .collect();
        let data = Dataset::from_rows(schema.clone(), &rows);
        let gstats = GlobalStats::compute(&data.full_view());
        let model =
            Model::with_correlated(schema, &gstats, &[vec![4, 5]]).with_missing_levels(&[3]);
        (data, model)
    }

    /// Every kernel instance this CPU supports (see `model::wide`) against
    /// the plain one, bit for bit: the E-step alone, both fused E+M
    /// kernels and `SuffStats::accumulate`, on the [`mixed`] schema, at
    /// class counts that run every block width (8, 4 and 1 classes, 13
    /// running all three) and leave remainders, over a ragged last tile.
    #[test]
    fn every_kernel_instance_is_bitwise_identical_to_plain() {
        use crate::model::init::init_classes;
        use crate::model::suffstats::{StatLayout, SuffStats};
        use crate::model::wide::{run_wide, Isa};

        let (data, model) = mixed();
        let view = data.full_view();

        // Every output bit of the four kernels, in one vector.
        let outputs = |isa: Isa, classes: &[ClassParams]| -> Vec<u64> {
            let j = classes.len();
            let mut bits = Vec::new();
            let push_e = |bits: &mut Vec<u64>, e: EStepScalars, s: &EStepScratch| {
                bits.extend([e.log_likelihood.to_bits(), e.complete_ll.to_bits(), e.ops]);
                bits.extend(s.class_weight_sums.iter().map(|v| v.to_bits()));
            };
            let push_w = |bits: &mut Vec<u64>, w: &WtsMatrix| {
                bits.extend((0..j).flat_map(|c| w.class_column(c)).map(|v| v.to_bits()));
            };

            let (mut wts, mut scratch) = (WtsMatrix::default(), EStepScratch::default());
            let mut stats = SuffStats::zeros(StatLayout::new(&model, j));
            let wts_out = Some(&mut wts);
            let (e, ops) = fused_on(isa, &model, &view, classes, wts_out, &mut scratch, &mut stats);
            push_e(&mut bits, e, &scratch);
            push_w(&mut bits, &wts);
            bits.push(ops);
            bits.extend(stats.data.iter().map(|v| v.to_bits()));

            let mut scratch = EStepScratch::default();
            let mut stats = SuffStats::zeros(StatLayout::new(&model, j));
            let (e, ops) = fused_on(isa, &model, &view, classes, None, &mut scratch, &mut stats);
            push_e(&mut bits, e, &scratch);
            bits.push(ops);
            bits.extend(stats.data.iter().map(|v| v.to_bits()));

            let (mut wts, mut scratch) = (WtsMatrix::default(), EStepScratch::default());
            let tiled = Tiled {
                model: &model,
                view: &view,
                classes,
                wts: Some(&mut wts),
                scratch: &mut scratch,
                sink: &mut NoSink,
            };
            let e = run_wide(isa, tiled);
            push_e(&mut bits, e, &scratch);
            push_w(&mut bits, &wts);
            let mut stats = SuffStats::zeros(StatLayout::new(&model, j));
            bits.push(stats.accumulate_on(isa, &model, &view, &wts));
            bits.extend(stats.data.iter().map(|v| v.to_bits()));
            bits
        };

        for j in [1, 3, 5, 8, 13, 24] {
            let classes = init_classes(&model, &view, j, 7 + j as u64);
            let plain = outputs(Isa::Plain, &classes);
            for &isa in &Isa::ALL[1..] {
                if !isa.supported() {
                    println!("skipping the {isa:?} instance: this CPU does not support it");
                    continue;
                }
                let wide = outputs(isa, &classes);
                assert_eq!(plain.len(), wide.len());
                if let Some(k) = plain.iter().zip(&wide).position(|(a, b)| a != b) {
                    panic!(
                        "J={j}: {isa:?} differs from Plain at output {k}: {:#x} vs {:#x}",
                        wide[k], plain[k]
                    );
                }
            }
        }
    }

    /// The EM cycle's tile-resident entry against the two passes it
    /// replaces (`update_wts_into`, then `SuffStats::accumulate`), bit for
    /// bit: the scalars, w_j, every statistic and both op counts. On every
    /// instance this CPU supports, on the [`mixed`] schema, at every class
    /// block width, over a partition shorter than one tile and over a
    /// ragged multi-tile one that starts past the dataset's first item.
    #[test]
    fn tile_resident_entry_is_bitwise_the_two_passes() {
        use crate::model::init::init_classes;
        use crate::model::suffstats::{StatLayout, SuffStats};
        use crate::model::wide::{run_wide, Isa};

        let (data, model) = mixed();
        let short = data.view(40, 40 + ESTEP_TILE / 2 + 3);
        let ragged = data.view(9, data.len());
        assert!(short.len() < ESTEP_TILE && ragged.len() > 2 * ESTEP_TILE);
        assert!(ragged.len() % ESTEP_TILE != 0);
        for &isa in Isa::ALL.iter().filter(|isa| isa.supported()) {
            for view in [&short, &ragged] {
                for j in [1, 3, 5, 8, 13, 24] {
                    let classes = init_classes(&model, view, j, 11 + j as u64);
                    let what = format!("{isa:?}, n={}, J={j}", view.len());

                    let (mut wts, mut two) = (WtsMatrix::default(), EStepScratch::default());
                    let tiled = Tiled {
                        model: &model,
                        view,
                        classes: &classes,
                        wts: Some(&mut wts),
                        scratch: &mut two,
                        sink: &mut NoSink,
                    };
                    let e_two = run_wide(isa, tiled);
                    let mut stats_two = SuffStats::zeros(StatLayout::new(&model, j));
                    let ops_two = stats_two.accumulate_on(isa, &model, view, &wts);

                    let mut one = EStepScratch::default();
                    let mut stats_one = SuffStats::zeros(StatLayout::new(&model, j));
                    let (e_one, ops_one) =
                        fused_on(isa, &model, view, &classes, None, &mut one, &mut stats_one);

                    assert_eq!(
                        e_one.log_likelihood.to_bits(),
                        e_two.log_likelihood.to_bits(),
                        "{what}"
                    );
                    assert_eq!(e_one.complete_ll.to_bits(), e_two.complete_ll.to_bits(), "{what}");
                    assert_eq!((e_one.ops, ops_one), (e_two.ops, ops_two), "{what}: op counts");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let (wj_one, wj_two) = (&one.class_weight_sums, &two.class_weight_sums);
                    assert_eq!(bits(wj_one), bits(wj_two), "{what}: w_j");
                    assert_eq!(bits(&stats_one.data), bits(&stats_two.data), "{what}: statistics");
                    let rows = ESTEP_TILE.min(view.len());
                    assert_eq!(one.tile.capacity(), rows * j, "{what}: one tile of weights");
                }
            }
        }
    }

    /// Pass D's class weight sums against a per-class scalar fold of the
    /// weights it leaves, bit for bit, on every instance this CPU
    /// supports: every class count whose last block runs on a narrower
    /// lane type (J = 1..=17), several full blocks and more, over
    /// one-tile partitions of every ragged length.
    #[test]
    fn pass_d_class_sums_are_a_per_class_scalar_fold() {
        use crate::model::init::init_classes;
        use crate::model::wide::{run_wide, Isa};

        let (data, model) = mixed();
        for &isa in Isa::ALL.iter().filter(|isa| isa.supported()) {
            for n in crate::model::wide::TILE_LENGTHS {
                let view = data.view(3, 3 + n);
                for j in (1..=17).chain([24, 33]) {
                    let classes = init_classes(&model, &view, j, 5 + j as u64);
                    let (mut wts, mut scratch) = (WtsMatrix::default(), EStepScratch::default());
                    let tiled = Tiled {
                        model: &model,
                        view: &view,
                        classes: &classes,
                        wts: Some(&mut wts),
                        scratch: &mut scratch,
                        sink: &mut NoSink,
                    };
                    run_wide(isa, tiled);
                    for c in 0..j {
                        let mut acc = 0.0;
                        for &w in wts.class_column(c) {
                            acc += w;
                        }
                        let want = 0.0 + acc;
                        let got = scratch.class_weight_sums[c];
                        assert_eq!(got.to_bits(), want.to_bits(), "{isa:?}, n={n}, J={j}, c={c}");
                    }
                }
            }
        }
    }

    /// The heap gate on the E-step's scratch: after the tile-resident
    /// entry, every buffer together holds no more than the tile's shape
    /// calls for (see [`EStepScratch::capacity`]), on the [`mixed`]
    /// schema (one LogNormal group, a 2-D MultiNormal block), over
    /// partitions shorter than a tile, of one ragged chunk and of several
    /// tiles. A per-rank copy of the tile in another layout would fail it.
    #[test]
    fn every_scratch_buffer_is_bounded_by_the_tile() {
        use crate::model::init::init_classes;
        use crate::model::suffstats::StatLayout;

        let (data, model) = mixed();
        let (ln_groups, d) = (1, 2);
        for (lo, hi) in [(5, 11), (40, 40 + ESTEP_TILE / 2 + 3), (9, data.len())] {
            let view = data.view(lo, hi);
            for j in [1, 5, 24] {
                let classes = init_classes(&model, &view, j, 3);
                let mut scratch = EStepScratch::default();
                let mut stats = SuffStats::zeros(StatLayout::new(&model, j));
                estep_and_stats_into(&model, &view, &classes, &mut scratch, &mut stats);
                let rows = ESTEP_TILE.min(view.len());
                // A buffer's first allocation holds at least four doubles.
                let bound = j.max(4) + rows * (j + 3 + ln_groups + d) + 2 * d.max(4);
                let held = scratch.capacity();
                assert!(held <= bound, "n={}, J={j}: {held} doubles, over {bound}", view.len());
            }
        }
    }

    /// `fast_exp` against libm `exp`: a few ulps of relative error across
    /// the log-sum-exp input range, exact at 0, exactly zero below −708,
    /// and well-behaved at −∞ (an all-but-impossible log density must not
    /// poison the weights with NaN).
    #[test]
    fn fast_exp_tracks_libm_exp() {
        let mut x = -740.0;
        while x <= 20.0 {
            let (got, want) = (fast_exp(x), x.exp());
            if x < -708.0 {
                assert_eq!(got, 0.0, "x={x}");
            } else {
                let rel = (got - want).abs() / want;
                assert!(rel < 1e-14, "x={x}: fast {got:e} vs libm {want:e} (rel {rel:e})");
            }
            x += 0.0137;
        }
        assert_eq!(fast_exp(0.0).to_bits(), 1.0f64.to_bits(), "exp(0) must be exactly 1");
        assert_eq!(fast_exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(fast_exp(-1e9), 0.0);
    }

    /// Regression: `x.max(-708.0)` ignores a NaN operand, so the pre-fix
    /// implementation mapped a NaN log-density to the finite `exp(−708)`
    /// and corrupted the weight normalization silently. NaN must come back
    /// out as NaN.
    #[test]
    fn fast_exp_propagates_nan() {
        assert!(fast_exp(f64::NAN).is_nan());
        assert!(fast_exp(-f64::NAN).is_nan());
    }

    /// Regression: the `ni << 52` exponent assembly only covers normal
    /// range; inputs above +709 (including `+∞`) must saturate to `+∞`
    /// rather than wrap the exponent bits into garbage.
    #[test]
    fn fast_exp_saturates_positive_overflow() {
        assert_eq!(fast_exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(fast_exp(710.0), f64::INFINITY);
        assert_eq!(fast_exp(1e9), f64::INFINITY);
        // Just inside the guard: still finite and accurate.
        let rel = (fast_exp(709.0) - 709.0f64.exp()).abs() / 709.0f64.exp();
        assert!(rel < 1e-14, "rel {rel:e}");
    }

    /// `exp(1)` through the fast path agrees with Euler's number to a few
    /// ulps (the positive side of the domain is exercised explicitly; the
    /// sweep above is dominated by negative log-sum-exp inputs).
    #[test]
    fn fast_exp_at_one_matches_e() {
        let rel = (fast_exp(1.0) - std::f64::consts::E).abs() / std::f64::consts::E;
        assert!(rel < 1e-15, "fast_exp(1)={:e} rel {rel:e}", fast_exp(1.0));
    }

    /// `reset` keeps capacity: shrinking and re-growing within the
    /// high-water mark must not reallocate.
    #[test]
    fn reset_keeps_capacity_and_shape() {
        let mut wts = WtsMatrix::new(100, 4);
        let cap = wts.data.capacity();
        wts.reset(100, 2);
        assert_eq!((wts.n_items(), wts.n_classes()), (100, 2));
        assert_eq!(wts.data.capacity(), cap, "shrink must keep capacity");
        wts.reset(100, 4);
        assert_eq!(wts.data.capacity(), cap, "regrow within capacity must not allocate");
        assert_eq!(wts.data.len(), 400);
    }
}
