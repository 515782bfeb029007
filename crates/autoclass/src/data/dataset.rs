//! Column-major dataset storage with missing values and zero-copy views.
//!
//! AutoClass reads the entire dataset once and then scans it every EM
//! cycle, so the hot layout is column-major: each attribute's values are
//! contiguous. Missing values use in-band sentinels (`NaN` for reals,
//! `u32::MAX` for discretes) so the hot loops need no side lookups.

use crate::data::schema::{AttributeKind, Schema};

/// Sentinel for a missing discrete value.
pub const MISSING_DISCRETE: u32 = u32::MAX;

/// One cell of a row during construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A real measurement.
    Real(f64),
    /// A categorical level index.
    Discrete(u32),
    /// Not recorded.
    Missing,
}

/// One column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Real values; missing entries are `NaN`.
    Real(Vec<f64>),
    /// Level indices; missing entries are [`MISSING_DISCRETE`].
    Discrete(Vec<u32>),
}

impl Column {
    fn len(&self) -> usize {
        match self {
            Column::Real(v) => v.len(),
            Column::Discrete(v) => v.len(),
        }
    }
}

/// An immutable, column-major dataset conforming to a [`Schema`].
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    schema: Schema,
    n: usize,
    columns: Vec<Column>,
}

impl Dataset {
    /// Build from rows of [`Value`]s.
    ///
    /// # Panics
    /// Panics if any row's arity or value kinds disagree with the schema,
    /// or a discrete value is out of range — dataset construction errors
    /// are programming/workload-definition errors here, not user input.
    pub fn from_rows(schema: Schema, rows: &[Vec<Value>]) -> Self {
        let mut columns: Vec<Column> = schema
            .attributes
            .iter()
            .map(|a| match a.kind {
                AttributeKind::Real { .. } | AttributeKind::PositiveReal { .. } => {
                    Column::Real(Vec::with_capacity(rows.len()))
                }
                AttributeKind::Discrete { .. } => Column::Discrete(Vec::with_capacity(rows.len())),
            })
            .collect();
        for (ri, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), schema.len(), "row {ri} has wrong arity");
            for (ci, (value, attr)) in row.iter().zip(&schema.attributes).enumerate() {
                match (&mut columns[ci], value, &attr.kind) {
                    (Column::Real(col), Value::Real(x), AttributeKind::Real { .. }) => {
                        assert!(x.is_finite(), "row {ri} col {ci}: non-finite real");
                        col.push(*x);
                    }
                    (Column::Real(col), Value::Real(x), AttributeKind::PositiveReal { .. }) => {
                        assert!(
                            x.is_finite() && *x > 0.0,
                            "row {ri} col {ci}: PositiveReal must be finite and > 0"
                        );
                        col.push(*x);
                    }
                    (Column::Real(col), Value::Missing, _) => col.push(f64::NAN),
                    (
                        Column::Discrete(col),
                        Value::Discrete(l),
                        AttributeKind::Discrete { levels, .. },
                    ) => {
                        assert!(
                            (*l as usize) < *levels,
                            "row {ri} col {ci}: level {l} out of range (<{levels})"
                        );
                        col.push(*l);
                    }
                    (Column::Discrete(col), Value::Missing, _) => col.push(MISSING_DISCRETE),
                    _ => panic!("row {ri} col {ci}: value kind does not match schema"),
                }
            }
        }
        Dataset { n: rows.len(), schema, columns }
    }

    /// Build directly from columns (used by generators; avoids the row
    /// detour for large synthetic datasets).
    ///
    /// # Panics
    /// Panics on schema/column mismatch or ragged columns.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Self {
        assert_eq!(columns.len(), schema.len(), "column count mismatch");
        let n = columns.first().map_or(0, Column::len);
        for (ci, (col, attr)) in columns.iter().zip(&schema.attributes).enumerate() {
            assert_eq!(col.len(), n, "column {ci} is ragged");
            match (col, &attr.kind) {
                (Column::Real(_), AttributeKind::Real { .. })
                | (Column::Real(_), AttributeKind::PositiveReal { .. })
                | (Column::Discrete(_), AttributeKind::Discrete { .. }) => {}
                _ => panic!("column {ci} kind does not match schema"),
            }
            if let (Column::Discrete(v), AttributeKind::Discrete { levels, .. }) = (col, &attr.kind)
            {
                for (ri, &l) in v.iter().enumerate() {
                    assert!(
                        l == MISSING_DISCRETE || (l as usize) < *levels,
                        "row {ri} col {ci}: level {l} out of range"
                    );
                }
            }
        }
        Dataset { n, schema, columns }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Borrow a column.
    pub fn column(&self, c: usize) -> &Column {
        &self.columns[c]
    }

    /// A zero-copy view of rows `start..end` (a processor's partition).
    pub fn view(&self, start: usize, end: usize) -> DataView<'_> {
        assert!(start <= end && end <= self.n, "view {start}..{end} out of range 0..{}", self.n);
        DataView { data: self, start, end }
    }

    /// A view of the whole dataset.
    pub fn full_view(&self) -> DataView<'_> {
        self.view(0, self.n)
    }
}

/// A contiguous row range of a [`Dataset`]; the unit of data distribution
/// in P-AutoClass (each processor owns one block).
#[derive(Debug, Clone, Copy)]
pub struct DataView<'a> {
    data: &'a Dataset,
    start: usize,
    end: usize,
}

impl<'a> DataView<'a> {
    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view covers no rows.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Global row index of the view's first row.
    pub fn start(&self) -> usize {
        self.start
    }

    /// The schema of the underlying dataset.
    pub fn schema(&self) -> &'a Schema {
        &self.data.schema
    }

    /// A view of the *entire* underlying dataset, regardless of this
    /// view's range. Used by drivers that designate one rank to process
    /// everything (e.g. the WtsOnly baseline's master step).
    pub fn whole_dataset(&self) -> DataView<'a> {
        self.data.full_view()
    }

    /// Real-valued slice of column `c` restricted to this view.
    ///
    /// # Panics
    /// Panics if column `c` is not real.
    pub fn real_column(&self, c: usize) -> &'a [f64] {
        match &self.data.columns[c] {
            Column::Real(v) => &v[self.start..self.end],
            Column::Discrete(_) => panic!("column {c} is discrete, not real"),
        }
    }

    /// Discrete slice of column `c` restricted to this view.
    ///
    /// # Panics
    /// Panics if column `c` is not discrete.
    pub fn discrete_column(&self, c: usize) -> &'a [u32] {
        match &self.data.columns[c] {
            Column::Discrete(v) => &v[self.start..self.end],
            Column::Real(_) => panic!("column {c} is real, not discrete"),
        }
    }
}

/// Block partition of `n` rows over `p` processors: contiguous ranges whose
/// sizes differ by at most one (remainder spread over the first ranks),
/// exactly covering `0..n`. This is the SPMD decomposition from the paper:
/// equal-sized blocks mean no load balancing is needed.
pub fn block_partition(n: usize, p: usize) -> Vec<std::ops::Range<usize>> {
    assert!(p > 0, "need at least one processor");
    (0..p).map(|r| block_range(n, p, r)).collect()
}

/// Rank `r`'s block of [`block_partition`]`(n, p)`, in O(1): what a
/// processor that touches only its own block needs.
///
/// # Panics
/// Panics if `p == 0` or `r >= p`.
pub fn block_range(n: usize, p: usize, r: usize) -> std::ops::Range<usize> {
    assert!(p > 0, "need at least one processor");
    assert!(r < p, "rank {r} out of range for {p} processors");
    let base = n / p;
    let extra = n % p;
    let start = r * base + r.min(extra);
    start..start + base + usize::from(r < extra)
}

/// Contiguous partition of `n` rows proportional to `weights` (e.g.
/// relative processor speeds on a heterogeneous machine), exactly covering
/// `0..n`. Shares are `floor(n·w_r/Σw)` with the remainder given to the
/// ranks with the largest fractional parts (largest-remainder method), so
/// sizes deviate from the exact proportion by less than one row.
pub fn weighted_partition(n: usize, weights: &[f64]) -> Vec<std::ops::Range<usize>> {
    assert!(!weights.is_empty(), "need at least one processor");
    assert!(
        weights.iter().all(|&w| w.is_finite() && w >= 0.0),
        "weights must be finite and non-negative"
    );
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "at least one weight must be positive");
    let p = weights.len();
    let mut sizes: Vec<usize> = Vec::with_capacity(p);
    let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(p);
    let mut assigned = 0usize;
    for (r, &w) in weights.iter().enumerate() {
        let exact = n as f64 * w / total;
        let base = exact.floor() as usize;
        sizes.push(base);
        assigned += base;
        fracs.push((r, exact - base as f64));
    }
    // Hand out the remaining rows to the largest fractional parts
    // (ties broken by rank for determinism).
    fracs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for &(r, _) in fracs.iter().take(n - assigned) {
        sizes[r] += 1;
    }
    let mut start = 0;
    sizes
        .into_iter()
        .map(|len| {
            let range = start..start + len;
            start += len;
            range
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::schema::Attribute;

    fn small() -> Dataset {
        let schema = Schema::new(vec![Attribute::real("x", 0.1), Attribute::discrete("c", 3)]);
        Dataset::from_rows(
            schema,
            &[
                vec![Value::Real(1.0), Value::Discrete(0)],
                vec![Value::Real(2.0), Value::Missing],
                vec![Value::Missing, Value::Discrete(2)],
                vec![Value::Real(4.0), Value::Discrete(1)],
            ],
        )
    }

    #[test]
    fn round_trips_values_and_missing() {
        let d = small();
        assert_eq!(d.len(), 4);
        let v = d.full_view();
        let xs = v.real_column(0);
        assert_eq!(xs[0], 1.0);
        assert!(xs[2].is_nan());
        let cs = v.discrete_column(1);
        assert_eq!(cs[0], 0);
        assert_eq!(cs[1], MISSING_DISCRETE);
        assert_eq!(cs[3], 1);
    }

    #[test]
    fn views_restrict_rows() {
        let d = small();
        let v = d.view(1, 3);
        assert_eq!(v.len(), 2);
        assert_eq!(v.start(), 1);
        assert_eq!(v.real_column(0)[0], 2.0);
        assert_eq!(v.discrete_column(1)[1], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn view_bounds_checked() {
        small().view(2, 9);
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn ragged_rows_rejected() {
        let schema = Schema::reals(2, 0.1);
        Dataset::from_rows(schema, &[vec![Value::Real(1.0)]]);
    }

    #[test]
    #[should_panic(expected = "level 7 out of range")]
    fn out_of_range_level_rejected() {
        let schema = Schema::new(vec![Attribute::discrete("c", 3)]);
        Dataset::from_rows(schema, &[vec![Value::Discrete(7)]]);
    }

    #[test]
    #[should_panic(expected = "does not match schema")]
    fn kind_mismatch_rejected() {
        let schema = Schema::new(vec![Attribute::discrete("c", 3)]);
        Dataset::from_rows(schema, &[vec![Value::Real(1.0)]]);
    }

    #[test]
    fn from_columns_checks_shape() {
        let schema = Schema::new(vec![Attribute::real("x", 0.1)]);
        let d = Dataset::from_columns(schema, vec![Column::Real(vec![1.0, 2.0])]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_columns_rejects_ragged() {
        let schema = Schema::new(vec![Attribute::real("x", 0.1), Attribute::real("y", 0.1)]);
        Dataset::from_columns(schema, vec![Column::Real(vec![1.0, 2.0]), Column::Real(vec![1.0])]);
    }

    #[test]
    fn weighted_partition_is_proportional_and_exact() {
        for n in [0usize, 1, 10, 997] {
            let weights = [1.0, 2.0, 1.0, 4.0];
            let parts = weighted_partition(n, &weights);
            assert_eq!(parts.len(), 4);
            let mut next = 0;
            for r in &parts {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, n, "n={n}");
            // Proportionality within one row.
            let total: f64 = weights.iter().sum();
            for (r, w) in parts.iter().zip(&weights) {
                let exact = n as f64 * w / total;
                assert!(
                    (r.len() as f64 - exact).abs() < 1.0,
                    "n={n}: {} vs exact {exact}",
                    r.len()
                );
            }
        }
    }

    #[test]
    fn weighted_partition_with_equal_weights_matches_block() {
        for n in [0usize, 7, 100, 103] {
            for p in [1usize, 3, 7] {
                let a = weighted_partition(n, &vec![1.0; p]);
                let b = block_partition(n, p);
                let sa: Vec<usize> = a.iter().map(|r| r.len()).collect();
                let mut sb: Vec<usize> = b.iter().map(|r| r.len()).collect();
                // Both spread the remainder, possibly to different ranks;
                // the multisets of sizes must agree.
                let mut sa = sa;
                sa.sort_unstable();
                sb.sort_unstable();
                assert_eq!(sa, sb, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn weighted_partition_zero_weight_rank_gets_nothing() {
        let parts = weighted_partition(100, &[1.0, 0.0, 1.0]);
        assert_eq!(parts[1].len(), 0);
        assert_eq!(parts[0].len() + parts[2].len(), 100);
    }

    #[test]
    #[should_panic(expected = "at least one weight must be positive")]
    fn weighted_partition_rejects_all_zero() {
        weighted_partition(10, &[0.0, 0.0]);
    }

    #[test]
    fn block_partition_covers_exactly() {
        for n in [0usize, 1, 7, 100, 101, 109] {
            for p in [1usize, 2, 3, 7, 10] {
                let parts = block_partition(n, p);
                assert_eq!(parts.len(), p);
                let mut next = 0;
                for r in &parts {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, n, "n={n} p={p}");
                let sizes: Vec<usize> = parts.iter().map(|r| r.len()).collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1, "n={n} p={p}: sizes {sizes:?}");
            }
        }
    }
}
