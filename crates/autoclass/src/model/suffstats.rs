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
use crate::model::wide::{run_wide, Isa, Wide, LANES};

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
        self.fold_tile_on(isa, model, view, wts, 0, 0, view.len())
    }

    /// Fold in the items `[lo, hi)` of this partition, whose weights are
    /// the rows `at..at + (hi - lo)` of `wts`, on the kernel instance for
    /// `isa`: [`SuffStats::accumulate`] over one tile, which the fused E+M
    /// kernels call once per finished tile. Returns abstract ops, summing
    /// over a partition's tiles to exactly the untiled count.
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
    ) -> u64 {
        run_wide(isa, Accumulate { stats: self, model, view, wts, at, lo, hi })
    }

    /// The statistics kernel: accumulate items `[lo, hi)`, whose weights
    /// are the rows `at..at + (hi - lo)` of `wts`, each chain continuing
    /// from its statistic.
    ///
    /// The chains advance [`LANES`] classes per item loop, one lane per
    /// class, then `LANES / 2`, then one class at a time for the
    /// remainder. Each chain still adds its items in ascending order, so
    /// every sum keeps the bits of a one-class-at-a-time fold.
    #[inline(always)]
    fn accumulate_range(
        &mut self,
        model: &Model,
        view: &DataView<'_>,
        wts: &WtsMatrix,
        at: usize,
        lo: usize,
        hi: usize,
    ) -> u64 {
        let n = view.len();
        let j = self.layout.j;
        assert_eq!(wts.n_classes(), j, "weights/layout class count mismatch");
        assert!(lo <= hi && hi <= n, "tile [{lo}, {hi}) out of range for {n} items");
        assert!(at + (hi - lo) <= wts.n_items(), "tile rows past the end of the weights");
        let mut c0 = 0;
        while c0 + LANES <= j {
            self.accumulate_classes::<LANES>(model, view, wts, at, lo, hi, c0);
            c0 += LANES;
        }
        if c0 + LANES / 2 <= j {
            self.accumulate_classes::<{ LANES / 2 }>(model, view, wts, at, lo, hi, c0);
            c0 += LANES / 2;
        }
        for c in c0..j {
            self.accumulate_classes::<1>(model, view, wts, at, lo, hi, c);
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

    /// [`SuffStats::accumulate_range`] for the `L` classes `c0..c0 + L`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn accumulate_classes<const L: usize>(
        &mut self,
        model: &Model,
        view: &DataView<'_>,
        wts: &WtsMatrix,
        at: usize,
        lo: usize,
        hi: usize,
        c0: usize,
    ) {
        let cols: [&[f64]; L] =
            std::array::from_fn(|l| &wts.class_column(c0 + l)[at..at + (hi - lo)]);
        // The class weights: `L` independent left folds.
        let mut wsum: [f64; L] =
            std::array::from_fn(|l| self.data[self.layout.weight_index(c0 + l)]);
        for t in 0..hi - lo {
            for (s, col) in wsum.iter_mut().zip(&cols) {
                *s += col[t];
            }
        }
        for (l, s) in wsum.into_iter().enumerate() {
            self.data[self.layout.weight_index(c0 + l)] = s;
        }
        for (k, group) in model.groups.iter().enumerate() {
            match &group.prior {
                TermPrior::Normal { .. } | TermPrior::LogNormal { .. } => {
                    let xs = &view.real_column(group.attrs[0])[lo..hi];
                    let mut s: [[f64; 3]; L] = std::array::from_fn(|l| {
                        let block = &self.data[self.layout.attr_range(c0 + l, k)];
                        [block[0], block[1], block[2]]
                    });
                    if matches!(group.prior, TermPrior::LogNormal { .. }) {
                        moments(xs, &cols, &mut s, f64::ln);
                    } else {
                        moments(xs, &cols, &mut s, |x| x);
                    }
                    for (l, s) in s.iter().enumerate() {
                        self.data[self.layout.attr_range(c0 + l, k)].copy_from_slice(s);
                    }
                }
                TermPrior::Multinomial { missing_level, .. } => {
                    let ls = &view.discrete_column(group.attrs[0])[lo..hi];
                    for (l, w) in cols.iter().enumerate() {
                        let block = &mut self.data[self.layout.attr_range(c0 + l, k)];
                        let missing_slot = block.len() - 1;
                        for (&lv, &wi) in ls.iter().zip(*w) {
                            if lv != crate::data::dataset::MISSING_DISCRETE {
                                block[lv as usize] += wi;
                            } else if *missing_level {
                                block[missing_slot] += wi;
                            }
                        }
                    }
                }
                TermPrior::MultiNormal { dim, .. } => {
                    // Joint block: skip items missing *any* block value.
                    let d = *dim;
                    for (l, w) in cols.iter().enumerate() {
                        let block = &mut self.data[self.layout.attr_range(c0 + l, k)];
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

/// Continue the `(s0, s1, s2)` chains of one scalar real group for `L`
/// classes over the items of `xs`, whose weights are `cols`: the weighted
/// count, sum and sum of squares of `f(x)` (`f` is `ln` for LogNormal).
#[inline(always)]
fn moments<const L: usize>(
    xs: &[f64],
    cols: &[&[f64]; L],
    s: &mut [[f64; 3]; L],
    f: impl Fn(f64) -> f64,
) {
    for col in cols {
        assert_eq!(col.len(), xs.len(), "weights/values length mismatch");
    }
    for (t, &x) in xs.iter().enumerate() {
        let v = f(x);
        // A missing value adds -0.0, the exact additive identity: the
        // bits of skipping the item, with no branch.
        let skip = x.is_nan();
        for (s, col) in s.iter_mut().zip(cols) {
            let w = col[t];
            let wv = w * v;
            s[0] += if skip { -0.0 } else { w };
            s[1] += if skip { -0.0 } else { wv };
            s[2] += if skip { -0.0 } else { wv * v };
        }
    }
}

/// One statistics kernel call as a [`Wide`] kernel.
struct Accumulate<'a, 'v> {
    stats: &'a mut SuffStats,
    model: &'a Model,
    view: &'a DataView<'v>,
    wts: &'a WtsMatrix,
    at: usize,
    lo: usize,
    hi: usize,
}

impl Wide for Accumulate<'_, '_> {
    type Out = u64;

    #[inline(always)]
    fn run(self) -> u64 {
        let Accumulate { stats, model, view, wts, at, lo, hi } = self;
        stats.accumulate_range(model, view, wts, at, lo, hi)
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
            ops_tiled += tiled.fold_tile_on(Isa::best(), &model, &view, &wts, lo, lo, hi);
        }

        assert_eq!(ops_whole, ops_tiled, "op counts must match");
        for (i, (a, b)) in whole.data.iter().zip(&tiled.data).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "slot {i}: {a} vs {b}");
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
