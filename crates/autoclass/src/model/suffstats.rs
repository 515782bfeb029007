//! Weighted sufficient statistics: the quantities P-AutoClass exchanges.
//!
//! Per class the statistics are laid out flat as
//! `[w_j, attr0 block, attr1 block, ...]`, and per classification as `J`
//! consecutive class blocks. This flat layout is exactly what goes into
//! the Allreduce in the parallel `update_parameters`: partial statistics
//! computed on each processor's partition sum element-wise to the global
//! statistics.

use crate::data::dataset::DataView;
use crate::model::class::Model;
use crate::model::estep::WtsMatrix;
use crate::model::prior::TermPrior;
use crate::model::wide::{
    class_block, class_blocks, class_lanes, run_wide, ClassBlocks, Isa, Lanes, Wide, LANES,
};

/// Index arithmetic for the flat statistics vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatLayout {
    /// Number of classes J.
    pub j: usize,
    /// Per-attribute (offset within a class block, block length).
    pub attr_blocks: Vec<(usize, usize)>,
    /// Length of one class block (1 + Σ attr lengths).
    pub stride: usize,
}

impl StatLayout {
    /// Layout for `j` classes of the given model (one block per term
    /// group).
    pub fn new(model: &Model, j: usize) -> Self {
        assert!(j >= 1, "need at least one class");
        let mut attr_blocks = Vec::with_capacity(model.groups.len());
        let mut offset = 1; // slot 0 is the class weight
        for g in &model.groups {
            let len = g.prior.stat_len();
            attr_blocks.push((offset, len));
            offset += len;
        }
        StatLayout { j, attr_blocks, stride: offset }
    }

    /// Total flat length (`j * stride`).
    pub fn len(&self) -> usize {
        self.j * self.stride
    }

    /// True when the layout is empty (never: `j ≥ 1`, stride ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat range of class `c`'s whole block.
    pub fn class_range(&self, c: usize) -> std::ops::Range<usize> {
        let start = c * self.stride;
        start..start + self.stride
    }

    /// Flat index of class `c`'s weight.
    pub fn weight_index(&self, c: usize) -> usize {
        c * self.stride
    }

    /// Flat range of class `c`, attribute `k`'s statistics block.
    pub fn attr_range(&self, c: usize, k: usize) -> std::ops::Range<usize> {
        let (off, len) = self.attr_blocks[k];
        let start = c * self.stride + off;
        start..start + len
    }
}

/// Flat weighted sufficient statistics for one classification.
#[derive(Debug, Clone, PartialEq)]
pub struct SuffStats {
    /// Index arithmetic.
    pub layout: StatLayout,
    /// The flat values; element-wise summable across partitions.
    pub data: Vec<f64>,
}

impl SuffStats {
    /// Zeroed statistics with the given layout.
    pub fn zeros(layout: StatLayout) -> Self {
        let data = vec![0.0; layout.len()];
        SuffStats { layout, data }
    }

    /// Class `c`'s accumulated weight w_c.
    pub fn class_weight(&self, c: usize) -> f64 {
        self.data[self.layout.weight_index(c)]
    }

    /// Class `c`, attribute `k`'s statistics block.
    pub fn attr_stats(&self, c: usize, k: usize) -> &[f64] {
        &self.data[self.layout.attr_range(c, k)]
    }

    /// Accumulate this partition's weighted statistics (the local part of
    /// `update_parameters`). Returns the number of abstract ops performed,
    /// for the virtual-time model.
    ///
    /// Each scalar accumulator (the class weight sum and each
    /// Normal/LogNormal `(s0, s1, s2)`) is one left-fold chain over the
    /// items that continues from the value already in the statistics and
    /// leaves its sum there; the per-item block writes (Multinomial,
    /// MultiNormal) add in item order. So accumulating a partition's tiles
    /// in ascending order, as the fused E+M kernels do, gives the bits of
    /// one call over the whole partition, and so does accumulating
    /// consecutive partitions one after another. Runs on the widest kernel
    /// instance the CPU supports.
    pub fn accumulate(&mut self, model: &Model, view: &DataView<'_>, wts: &WtsMatrix) -> u64 {
        self.accumulate_on(Isa::best(), model, view, wts)
    }

    /// [`SuffStats::accumulate`] on the kernel instance for `isa`.
    pub(crate) fn accumulate_on(
        &mut self,
        isa: Isa,
        model: &Model,
        view: &DataView<'_>,
        wts: &WtsMatrix,
    ) -> u64 {
        assert_eq!(wts.n_items(), view.len(), "weights/partition size mismatch");
        self.fold_tile_on(isa, model, view, wts, 0, 0, view.len(), None)
    }

    /// Fold in the items `[lo, hi)` of this partition, whose weights are
    /// the rows `at..at + (hi - lo)` of `wts`, on the kernel instance for
    /// `isa`: [`SuffStats::accumulate`] over one tile, which the fused E+M
    /// kernels call once per finished tile. `logs`, when given, holds
    /// `ln x` of those items, group-major over the LogNormal groups, as
    /// the E-step's phase 1 leaves it; without it the kernel takes the
    /// logarithms itself. Returns abstract ops, summing over a
    /// partition's tiles to exactly the untiled count.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fold_tile_on(
        &mut self,
        isa: Isa,
        model: &Model,
        view: &DataView<'_>,
        wts: &WtsMatrix,
        at: usize,
        lo: usize,
        hi: usize,
        logs: Option<&[f64]>,
    ) -> u64 {
        run_wide(isa, Accumulate { stats: self, model, view, wts, at, lo, hi, logs })
    }

    /// Element-wise merge of another partition's statistics (what the
    /// Allreduce computes).
    pub fn merge(&mut self, other: &SuffStats) {
        assert_eq!(self.layout, other.layout, "cannot merge different layouts");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Total weight across classes (should equal the number of items whose
    /// weights were accumulated; each item contributes exactly 1).
    pub fn total_weight(&self) -> f64 {
        (0..self.layout.j).map(|c| self.class_weight(c)).sum()
    }
}

/// The statistics `data[start + at]` of a block's classes, whose blocks
/// start at `starts` (at most `L::W`), as the first lanes of one vector.
#[inline(always)]
fn load_chain<L: Lanes>(lanes: L, data: &[f64], starts: &[usize], at: usize) -> L::V {
    let mut chain = [0.0; LANES];
    for (x, &start) in chain.iter_mut().zip(starts) {
        *x = data[start + at];
    }
    lanes.load(&chain)
}

/// Store the first `starts.len()` lanes of `v` at `data[start + at]`.
#[inline(always)]
fn store_chain<L: Lanes>(lanes: L, data: &mut [f64], starts: &[usize], at: usize, v: L::V) {
    for (&start, x) in starts.iter().zip(lanes.store(v)) {
        data[start + at] = x;
    }
}

/// Continue the chains `(s0, s1, s2)` of one scalar real group for the
/// classes of `cols` over the items of `xs`, in the class-lane sweep: the
/// weighted count, sum and sum of squares of `value(t)` (`xs[t]` for
/// Normal, its logarithm for LogNormal) over the items whose `xs[t]` is
/// not missing; and, when `WEIGHT`, the class weight `w` over every item.
#[inline(always)]
fn moments<L: Lanes, const WEIGHT: bool>(
    lanes: L,
    cols: &[&[f64]; LANES],
    xs: &[f64],
    value: impl Fn(usize) -> f64,
    w: L::V,
    sums: [L::V; 3],
) -> (L::V, [L::V; 3]) {
    assert_eq!(cols[0].len(), xs.len(), "weights/values length mismatch");
    let (mut w_sum, [mut s0, mut s1, mut s2]) = (w, sums);
    class_lanes(
        lanes,
        cols,
        #[inline(always)]
        |t, w| {
            let skip = xs[t].is_nan();
            let v = lanes.splat(value(t));
            let wv = lanes.mul(w, v);
            if WEIGHT {
                w_sum = lanes.add(w_sum, w);
            }
            s0 = lanes.add_unless(s0, w, skip);
            s1 = lanes.add_unless(s1, wv, skip);
            s2 = lanes.add_unless(s2, lanes.mul(wv, v), skip);
        },
    );
    (w_sum, [s0, s1, s2])
}

/// [`moments`] of a Normal group's values `xs`, or of a LogNormal group's
/// logarithms: `ln_xs` when the caller has them, else taken per item.
#[inline(always)]
fn real_group<L: Lanes, const WEIGHT: bool>(
    lanes: L,
    cols: &[&[f64]; LANES],
    xs: &[f64],
    log_normal: bool,
    ln_xs: Option<&[f64]>,
    w: L::V,
    sums: [L::V; 3],
) -> (L::V, [L::V; 3]) {
    match (log_normal, ln_xs) {
        (true, Some(ln_xs)) => moments::<L, WEIGHT>(lanes, cols, xs, |t| ln_xs[t], w, sums),
        (true, None) => moments::<L, WEIGHT>(lanes, cols, xs, |t| xs[t].ln(), w, sums),
        (false, _) => moments::<L, WEIGHT>(lanes, cols, xs, |t| xs[t], w, sums),
    }
}

/// One statistics kernel call: accumulate the items `[lo, hi)`, whose
/// weights are the rows `at..at + (hi - lo)` of `wts`, each chain
/// continuing from its statistic.
struct Accumulate<'a, 'v> {
    stats: &'a mut SuffStats,
    model: &'a Model,
    view: &'a DataView<'v>,
    wts: &'a WtsMatrix,
    at: usize,
    lo: usize,
    hi: usize,
    logs: Option<&'a [f64]>,
}

impl<'a> Accumulate<'a, '_> {
    /// Class `c`'s weights of the tile.
    #[inline(always)]
    fn col(&self, c: usize) -> &'a [f64] {
        &self.wts.class_column(c)[self.at..self.at + self.hi - self.lo]
    }
}

impl Wide for Accumulate<'_, '_> {
    type Out = u64;

    /// The class weight and each Normal/LogNormal `(s0, s1, s2)` chain
    /// run in the class-lane sweep, a block of classes to a vector, one
    /// lane per class ([`Accumulate::block`]); each chain still adds its
    /// items in ascending order, so every sum keeps the bits of a
    /// one-class-at-a-time fold. Multinomial and MultiNormal blocks take
    /// one class at a time, each item in order.
    #[inline(always)]
    fn run<L: Lanes>(mut self, lanes: L) -> u64 {
        let (n, j, lo, hi) = (self.view.len(), self.stats.layout.j, self.lo, self.hi);
        assert_eq!(self.wts.n_classes(), j, "weights/layout class count mismatch");
        assert!(lo <= hi && hi <= n, "tile [{lo}, {hi}) out of range for {n} items");
        let rows = self.at + (hi - lo);
        assert!(rows <= self.wts.n_items(), "tile rows past the end of the weights");
        class_blocks(lanes, j, &mut self);
        let (model, view) = (self.model, self.view);
        for c in 0..j {
            let w = self.col(c);
            let (layout, data) = (&self.stats.layout, &mut self.stats.data);
            for (k, group) in model.groups.iter().enumerate() {
                match &group.prior {
                    TermPrior::Normal { .. } | TermPrior::LogNormal { .. } => {}
                    TermPrior::Multinomial { missing_level, .. } => {
                        let ls = &view.discrete_column(group.attrs[0])[lo..hi];
                        let block = &mut data[layout.attr_range(c, k)];
                        let missing_slot = block.len() - 1;
                        for (&lv, &wi) in ls.iter().zip(w) {
                            if lv != crate::data::dataset::MISSING_DISCRETE {
                                block[lv as usize] += wi;
                            } else if *missing_level {
                                block[missing_slot] += wi;
                            }
                        }
                    }
                    TermPrior::MultiNormal { dim, .. } => {
                        // Joint block: skip items missing *any* block value.
                        let d = *dim;
                        let block = &mut data[layout.attr_range(c, k)];
                        'items: for (t, &wi) in w.iter().enumerate() {
                            let i = lo + t;
                            for &attr in &group.attrs {
                                if view.real_column(attr)[i].is_nan() {
                                    continue 'items;
                                }
                            }
                            block[0] += wi;
                            for a in 0..d {
                                let xa = view.real_column(group.attrs[a])[i];
                                block[1 + a] += wi * xa;
                                for b in 0..=a {
                                    let xb = view.real_column(group.attrs[b])[i];
                                    block[1 + d + crate::model::prior::tri_index(a, b)] +=
                                        wi * xa * xb;
                                }
                            }
                        }
                    }
                }
            }
        }
        // Per class: the weight, then one op per item per scalar or
        // multinomial group and `d` per MultiNormal block.
        let per_item: usize = 1 + model
            .groups
            .iter()
            .map(|g| match g.prior {
                TermPrior::MultiNormal { dim, .. } => dim,
                _ => 1,
            })
            .sum::<usize>();
        ((hi - lo) * j * per_item) as u64
    }
}

impl ClassBlocks for Accumulate<'_, '_> {
    /// The class weight and scalar real chains of the classes
    /// `c0..c0 + k`, one sweep per scalar real group. The class weight
    /// rides along the first group's sweep only, and a model with no such
    /// group sweeps it alone.
    #[inline(always)]
    fn block<L: Lanes>(&mut self, lanes: L, c0: usize, k: usize) {
        let (lo, hi, tl) = (self.lo, self.hi, self.hi - self.lo);
        let cols = class_block(c0, k, |c| self.col(c));
        let (layout, data) = (&self.stats.layout, &mut self.stats.data);
        let mut starts = [0; LANES];
        for (l, start) in starts[..k].iter_mut().enumerate() {
            *start = layout.class_range(c0 + l).start;
        }
        let starts = &starts[..k];
        // The class weight is each class block's first statistic.
        let mut w_sum = load_chain(lanes, data, starts, 0);
        let mut w_done = false;
        let mut logs_at = 0;
        for (group, &(at, _)) in self.model.groups.iter().zip(&layout.attr_blocks) {
            let log_normal = match group.prior {
                TermPrior::Normal { .. } => false,
                TermPrior::LogNormal { .. } => true,
                _ => continue,
            };
            let xs = &self.view.real_column(group.attrs[0])[lo..hi];
            let ln_xs = match self.logs {
                Some(logs) if log_normal => {
                    logs_at += tl;
                    Some(&logs[logs_at - tl..logs_at])
                }
                _ => None,
            };
            let sums = [
                load_chain(lanes, data, starts, at),
                load_chain(lanes, data, starts, at + 1),
                load_chain(lanes, data, starts, at + 2),
            ];
            let (w, sums) = if w_done {
                real_group::<L, false>(lanes, &cols, xs, log_normal, ln_xs, w_sum, sums)
            } else {
                real_group::<L, true>(lanes, &cols, xs, log_normal, ln_xs, w_sum, sums)
            };
            (w_sum, w_done) = (w, true);
            for (s, chain) in sums.into_iter().enumerate() {
                store_chain(lanes, data, starts, at + s, chain);
            }
        }
        if !w_done {
            class_lanes(
                lanes,
                &cols,
                #[inline(always)]
                |_, w| w_sum = lanes.add(w_sum, w),
            );
        }
        store_chain(lanes, data, starts, 0, w_sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::dataset::{Dataset, Value};
    use crate::data::schema::{Attribute, Schema};
    use crate::data::stats::GlobalStats;

    fn setup() -> (Dataset, Model) {
        let schema = Schema::new(vec![Attribute::real("x", 0.1), Attribute::discrete("c", 2)]);
        let data = Dataset::from_rows(
            schema.clone(),
            &[
                vec![Value::Real(1.0), Value::Discrete(0)],
                vec![Value::Real(2.0), Value::Discrete(1)],
                vec![Value::Missing, Value::Discrete(1)],
                vec![Value::Real(4.0), Value::Missing],
            ],
        );
        let stats = GlobalStats::compute(&data.full_view());
        let model = Model::new(schema, &stats);
        (data, model)
    }

    fn uniform_wts(n: usize, j: usize) -> WtsMatrix {
        let mut w = WtsMatrix::new(n, j);
        let u = 1.0 / j as f64;
        for c in 0..j {
            w.class_column_mut(c).iter_mut().for_each(|v| *v = u);
        }
        w
    }

    #[test]
    fn layout_indexing() {
        let (_, model) = setup();
        let l = StatLayout::new(&model, 3);
        // stride = 1 (weight) + 3 (normal) + 2 (multinomial)
        assert_eq!(l.stride, 6);
        assert_eq!(l.len(), 18);
        assert_eq!(l.weight_index(2), 12);
        assert_eq!(l.attr_range(1, 0), 7..10);
        assert_eq!(l.attr_range(1, 1), 10..12);
    }

    #[test]
    fn accumulate_counts_weighted_values() {
        let (data, model) = setup();
        let wts = uniform_wts(4, 2);
        let mut s = SuffStats::zeros(StatLayout::new(&model, 2));
        s.accumulate(&model, &data.full_view(), &wts);
        // Each class got half of each item.
        assert!((s.class_weight(0) - 2.0).abs() < 1e-12);
        assert!((s.class_weight(1) - 2.0).abs() < 1e-12);
        let b = s.attr_stats(0, 0);
        // Non-missing x: {1,2,4} each with weight 0.5.
        assert!((b[0] - 1.5).abs() < 1e-12);
        assert!((b[1] - 3.5).abs() < 1e-12);
        assert!((b[2] - 10.5).abs() < 1e-12);
        let d = s.attr_stats(0, 1);
        // Levels: one 0, two 1s, one missing; each weight 0.5.
        assert!((d[0] - 0.5).abs() < 1e-12);
        assert!((d[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partition_accumulation_merges_to_whole() {
        let (data, model) = setup();
        let layout = StatLayout::new(&model, 2);

        let wts_full = uniform_wts(4, 2);
        let mut whole = SuffStats::zeros(layout.clone());
        whole.accumulate(&model, &data.full_view(), &wts_full);

        let mut left = SuffStats::zeros(layout.clone());
        left.accumulate(&model, &data.view(0, 2), &uniform_wts(2, 2));
        let mut right = SuffStats::zeros(layout);
        right.accumulate(&model, &data.view(2, 4), &uniform_wts(2, 2));
        left.merge(&right);

        for (a, b) in left.data.iter().zip(&whole.data) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn tiled_accumulation_is_bitwise_identical_to_untiled() {
        let (data, model) = setup();
        let layout = StatLayout::new(&model, 2);
        let view = data.full_view();
        let wts = uniform_wts(4, 2);

        let mut whole = SuffStats::zeros(layout.clone());
        let ops_whole = whole.accumulate(&model, &view, &wts);

        let mut tiled = SuffStats::zeros(layout);
        let mut ops_tiled = 0;
        for (lo, hi) in [(0, 1), (1, 3), (3, 4)] {
            ops_tiled += tiled.fold_tile_on(Isa::best(), &model, &view, &wts, lo, lo, hi, None);
        }

        assert_eq!(ops_whole, ops_tiled, "op counts must match");
        for (i, (a, b)) in whole.data.iter().zip(&tiled.data).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "slot {i}: {a} vs {b}");
        }
    }

    /// The statistics kernel's class-lane sweep against a per-class scalar
    /// fold kept here, bit for bit, on every instance this CPU supports:
    /// the class weights, a Normal and a LogNormal group's `(s0, s1, s2)`
    /// and a Multinomial block, each continuing from non-zero statistics.
    /// Every class count whose last block runs on a narrower lane type
    /// (J = 1..=17) and several full blocks and more, over tiles of
    /// every ragged length, with missing values on chunk edges of every
    /// width; the LogNormal logarithms come from the kernel itself and, as
    /// on the fused path, from the caller.
    #[test]
    fn the_sweep_is_bitwise_a_per_class_scalar_fold() {
        let schema = Schema::new(vec![
            Attribute::real("x", 0.1),
            Attribute::positive_real("y", 0.1),
            Attribute::discrete("c", 3),
        ]);
        // First and last items of chunks of 2 and 4, and a tile's last.
        let x_missing = [0, 7, 8, 15, 16, 63, 64, 71, 72, 255];
        let y_missing = [1, 3, 4, 11, 12, 17, 65, 67, 68, 254];
        let rows: Vec<Vec<Value>> = (0..256)
            .map(|i| {
                let s = (i as f64 * 0.61).sin();
                let x = if x_missing.contains(&i) { Value::Missing } else { Value::Real(3.0 * s) };
                let y = if y_missing.contains(&i) { Value::Missing } else { Value::Real(1.5 + s) };
                vec![x, y, Value::Discrete((i % 3) as u32)]
            })
            .collect();
        let data = Dataset::from_rows(schema.clone(), &rows);
        let model = Model::new(schema, &GlobalStats::compute(&data.full_view()));
        let weight = |c: usize, t: usize| ((c * 31 + t * 17) % 97) as f64 / 97.0 + 0.001;

        for &isa in Isa::ALL.iter().filter(|isa| isa.supported()) {
            for n in crate::model::wide::TILE_LENGTHS {
                let view = data.view(0, n);
                let (xs, ys) = (view.real_column(0), view.real_column(1));
                let logs: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
                for j in (1..=17).chain([24, 33]) {
                    let mut wts = WtsMatrix::new(n, j);
                    for c in 0..j {
                        for (t, w) in wts.class_column_mut(c).iter_mut().enumerate() {
                            *w = weight(c, t);
                        }
                    }
                    let layout = StatLayout::new(&model, j);
                    let start: Vec<f64> = (0..layout.len()).map(|i| (i % 5) as f64 - 1.5).collect();

                    let mut want = start.clone();
                    for c in 0..j {
                        let w = wts.class_column(c);
                        for &wi in w {
                            want[layout.weight_index(c)] += wi;
                        }
                        for (k, vs) in [xs, ys].into_iter().enumerate() {
                            let s = &mut want[layout.attr_range(c, k)];
                            for (&x, &wi) in vs.iter().zip(w) {
                                let v = if k == 1 { x.ln() } else { x };
                                let skip = x.is_nan();
                                s[0] += if skip { -0.0 } else { wi };
                                s[1] += if skip { -0.0 } else { wi * v };
                                s[2] += if skip { -0.0 } else { wi * v * v };
                            }
                        }
                        let levels = &mut want[layout.attr_range(c, 2)];
                        for (&lv, &wi) in view.discrete_column(2).iter().zip(w) {
                            levels[lv as usize] += wi;
                        }
                    }

                    for given in [None, Some(&logs[..])] {
                        let mut got = SuffStats { layout: layout.clone(), data: start.clone() };
                        got.fold_tile_on(isa, &model, &view, &wts, 0, 0, n, given);
                        for (i, (a, b)) in got.data.iter().zip(&want).enumerate() {
                            let what =
                                format!("{isa:?}, n={n}, J={j}, logs given: {}", given.is_some());
                            assert_eq!(a.to_bits(), b.to_bits(), "{what}, slot {i}: {a} vs {b}");
                        }
                    }
                }
            }
        }
    }

    /// With no Normal or LogNormal group for the class weight to ride
    /// along, the sweep folds it alone: bitwise a per-class scalar fold,
    /// on every instance this CPU supports, at class counts that run
    /// every lane type.
    #[test]
    fn a_model_without_real_groups_sweeps_the_class_weight_alone() {
        let schema = Schema::new(vec![Attribute::discrete("c", 3)]);
        let rows: Vec<Vec<Value>> = (0..19).map(|i| vec![Value::Discrete(i % 3)]).collect();
        let data = Dataset::from_rows(schema.clone(), &rows);
        let model = Model::new(schema, &GlobalStats::compute(&data.full_view()));
        let view = data.full_view();
        for &isa in Isa::ALL.iter().filter(|isa| isa.supported()) {
            for j in [1, 2, 3, 5, 8, 13] {
                let mut wts = WtsMatrix::new(19, j);
                for c in 0..j {
                    for (t, w) in wts.class_column_mut(c).iter_mut().enumerate() {
                        *w = ((c * 7 + t * 5) % 11) as f64 / 11.0;
                    }
                }
                let mut stats = SuffStats::zeros(StatLayout::new(&model, j));
                stats.accumulate_on(isa, &model, &view, &wts);
                for c in 0..j {
                    let mut want = 0.0;
                    for &w in wts.class_column(c) {
                        want += w;
                    }
                    let got = stats.class_weight(c);
                    assert_eq!(got.to_bits(), want.to_bits(), "{isa:?}, J={j}, class {c}");
                }
            }
        }
    }

    #[test]
    fn total_weight_equals_items() {
        let (data, model) = setup();
        let wts = uniform_wts(4, 2);
        let mut s = SuffStats::zeros(StatLayout::new(&model, 2));
        s.accumulate(&model, &data.full_view(), &wts);
        assert!((s.total_weight() - 4.0).abs() < 1e-12);
    }
}
