//! The fixed model structure and per-class parameter sets.

use crate::data::schema::{AttributeKind, Schema};
use crate::data::stats::GlobalStats;
use crate::model::prior::{TermParams, TermPrior};

/// One modeling unit: a term prior over one attribute (the usual case) or
/// over a block of correlated real attributes (`multi_normal_cn`).
#[derive(Debug, Clone, PartialEq)]
pub struct TermGroup {
    /// Schema column indices this term covers, in modeling order.
    pub attrs: Vec<usize>,
    /// The term family and its data-derived prior.
    pub prior: TermPrior,
}

/// The model structure "T" of the Bayesian-classification formulation:
/// the partition of attributes into term groups with data-derived priors,
/// plus the dataset size. Fixed during a classification try; only the
/// number of classes and the continuous parameters "V" vary. AutoClass's
/// *model-level* search compares alternative structures (e.g. independent
/// vs correlated attributes) by their marginal scores — see
/// [`crate::search::compare_structures`].
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Term groups; together they cover every attribute exactly once.
    pub groups: Vec<TermGroup>,
    /// Total number of items N (global, across all processors).
    pub n_total: f64,
    /// The schema the model was built against.
    pub schema: Schema,
}

impl Model {
    /// Derive the default model structure — every attribute independent —
    /// from a schema and global statistics.
    pub fn new(schema: Schema, stats: &GlobalStats) -> Self {
        let groups = schema
            .attributes
            .iter()
            .enumerate()
            .map(|(c, a)| TermGroup {
                attrs: vec![c],
                prior: TermPrior::for_attribute(a, stats, c),
            })
            .collect();
        Model { groups, n_total: stats.n, schema }
    }

    /// Model structure with the given blocks of real attributes modeled
    /// jointly (full covariance, AutoClass's `multi_normal_cn`); every
    /// attribute not covered by a block gets its default independent term.
    ///
    /// # Panics
    /// Panics if a block is smaller than 2, repeats or overlaps
    /// attributes, references out-of-range columns, or includes a
    /// non-`Real` attribute (log-normal and discrete attributes cannot
    /// join a covariance block).
    pub fn with_correlated(schema: Schema, stats: &GlobalStats, blocks: &[Vec<usize>]) -> Self {
        let k = schema.len();
        let mut owner: Vec<Option<usize>> = vec![None; k];
        for (b, block) in blocks.iter().enumerate() {
            assert!(block.len() >= 2, "correlated block {b} needs at least 2 attributes");
            for &a in block {
                assert!(a < k, "block {b}: attribute {a} out of range");
                assert!(
                    matches!(schema.attributes[a].kind, AttributeKind::Real { .. }),
                    "block {b}: attribute {a} ({:?}) is not Real",
                    schema.attributes[a].name
                );
                assert!(owner[a].is_none(), "attribute {a} appears in more than one block");
                owner[a] = Some(b);
            }
        }
        let mut groups = Vec::new();
        for block in blocks {
            let mean0 = block.iter().map(|&a| stats.mean(a)).collect();
            let vars0: Vec<f64> = block
                .iter()
                .map(|&a| {
                    let err = match schema.attributes[a].kind {
                        AttributeKind::Real { error } => error,
                        _ => unreachable!("validated above"),
                    };
                    stats.variance(a).max(err * err)
                })
                .collect();
            let min_sigma = block
                .iter()
                .map(|&a| match schema.attributes[a].kind {
                    AttributeKind::Real { error } => error,
                    _ => unreachable!("validated above"),
                })
                .fold(f64::INFINITY, f64::min);
            groups.push(TermGroup {
                attrs: block.clone(),
                prior: TermPrior::multi_normal(mean0, vars0, min_sigma),
            });
        }
        for (c, a) in schema.attributes.iter().enumerate() {
            if owner[c].is_none() {
                groups.push(TermGroup {
                    attrs: vec![c],
                    prior: TermPrior::for_attribute(a, stats, c),
                });
            }
        }
        Model { groups, n_total: stats.n, schema }
    }

    /// Turn on explicit missing-level modeling for the given discrete
    /// attributes (AutoClass's informative-missingness option): each
    /// listed attribute's multinomial term gets an extra level holding
    /// the "missing" outcome, so missingness itself becomes evidence
    /// about class membership (instead of being ignored).
    ///
    /// # Panics
    /// Panics if an index is out of range or not a discrete attribute.
    pub fn with_missing_levels(mut self, attrs: &[usize]) -> Self {
        for &a in attrs {
            assert!(a < self.schema.len(), "attribute {a} out of range");
            let group = self
                .groups
                .iter_mut()
                .find(|g| g.attrs == [a])
                .unwrap_or_else(|| panic!("attribute {a} is not a singleton group"));
            match &mut group.prior {
                TermPrior::Multinomial { levels, alpha, missing_level } => {
                    *missing_level = true;
                    // Keep AutoClass's 1/L smoothing consistent with the
                    // new slot count.
                    *alpha = 1.0 / (*levels + 1) as f64;
                }
                other => panic!("attribute {a} is not discrete: {other:?}"),
            }
        }
        self
    }

    /// Feed `word` the bits of everything the M-step, the scores and the
    /// class decoding read from the model: every term prior, in group
    /// order (see [`TermPrior::key_words`]), and `n_total`.
    pub fn key_words(&self, word: &mut impl FnMut(u64)) {
        word(self.groups.len() as u64);
        for g in &self.groups {
            g.prior.key_words(word);
        }
        word(self.n_total.to_bits());
    }

    /// Number of attributes K.
    pub fn n_attrs(&self) -> usize {
        self.schema.len()
    }

    /// Number of term groups (equals K for the default structure).
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Flattened parameter length of one class (1 for the weight plus the
    /// term parameter blocks) — the unit broadcast to all processors after
    /// initialization in P-AutoClass.
    pub fn class_param_len(&self) -> usize {
        1 + self.groups.iter().map(|g| g.prior.param_len()).sum::<usize>()
    }

    /// MAP mixture proportion for a class with expected count `w` among
    /// `j` classes over `n` items: AutoClass's `(w + 1/J) / (N + 1)`.
    pub fn map_pi(w: f64, n: f64, j: usize) -> f64 {
        (w + 1.0 / j as f64) / (n + 1.0)
    }
}

/// MAP parameters of one class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassParams {
    /// Expected item count w_j = Σ_i w_ij.
    pub weight: f64,
    /// MAP mixture proportion π_j.
    pub pi: f64,
    /// Cached ln π_j.
    pub log_pi: f64,
    /// Per-attribute term parameters, in schema order.
    pub terms: Vec<TermParams>,
}

impl ClassParams {
    /// Build with the log proportion cached.
    pub fn new(weight: f64, pi: f64, terms: Vec<TermParams>) -> Self {
        assert!(pi > 0.0 && pi <= 1.0, "mixture proportion must be in (0,1], got {pi}");
        ClassParams { weight, pi, log_pi: pi.ln(), terms }
    }

    /// Flatten `[weight, term blocks...]` for broadcast.
    pub fn to_flat(&self, out: &mut Vec<f64>) {
        out.push(self.weight);
        for t in &self.terms {
            t.to_flat(out);
        }
    }

    /// Rebuild a class from its flat block; `pi` is recomputed from the
    /// weight so every processor derives identical proportions.
    pub fn from_flat(model: &Model, j: usize, flat: &[f64]) -> Self {
        assert_eq!(flat.len(), model.class_param_len(), "flat class block length");
        let weight = flat[0];
        let mut offset = 1;
        let terms = model
            .groups
            .iter()
            .map(|g| {
                let len = g.prior.param_len();
                let t = g.prior.unflatten_params(&flat[offset..offset + len]);
                offset += len;
                t
            })
            .collect();
        let pi = Model::map_pi(weight, model.n_total, j);
        ClassParams::new(weight, pi, terms)
    }

    /// In-place variant of [`ClassParams::from_flat`]: overwrite this class
    /// from its flat block, allocation-free when the term shapes already
    /// match (the steady state of a search). Produces bitwise the same
    /// class as a rebuild.
    pub fn from_flat_into(&mut self, model: &Model, j: usize, flat: &[f64]) {
        assert_eq!(flat.len(), model.class_param_len(), "flat class block length");
        if self.terms.len() != model.groups.len() {
            *self = ClassParams::from_flat(model, j, flat);
            return;
        }
        let weight = flat[0];
        let pi = Model::map_pi(weight, model.n_total, j);
        assert!(pi > 0.0 && pi <= 1.0, "mixture proportion must be in (0,1], got {pi}");
        self.weight = weight;
        self.pi = pi;
        self.log_pi = pi.ln();
        let mut offset = 1;
        for (g, term) in model.groups.iter().zip(&mut self.terms) {
            let len = g.prior.param_len();
            g.prior.unflatten_params_into(&flat[offset..offset + len], term);
            offset += len;
        }
    }
}

/// Flatten a whole class list (the broadcast payload).
pub fn classes_to_flat(classes: &[ClassParams]) -> Vec<f64> {
    let mut out = Vec::new();
    for c in classes {
        c.to_flat(&mut out);
    }
    out
}

/// Rebuild a class list from its broadcast payload.
pub fn classes_from_flat(model: &Model, j: usize, flat: &[f64]) -> Vec<ClassParams> {
    let stride = model.class_param_len();
    assert_eq!(flat.len(), stride * j, "flat classes length");
    flat.chunks_exact(stride).map(|b| ClassParams::from_flat(model, j, b)).collect()
}

/// In-place variant of [`classes_from_flat`]: refill `classes` from the
/// broadcast payload, allocation-free when it already holds `j` classes of
/// the right term shapes; a shape change falls back to a rebuild. Bitwise
/// equal to [`classes_from_flat`] either way.
pub fn classes_from_flat_into(
    model: &Model,
    j: usize,
    flat: &[f64],
    classes: &mut Vec<ClassParams>,
) {
    let stride = model.class_param_len();
    assert_eq!(flat.len(), stride * j, "flat classes length");
    if classes.len() != j {
        *classes = classes_from_flat(model, j, flat);
        return;
    }
    for (class, block) in classes.iter_mut().zip(flat.chunks_exact(stride)) {
        class.from_flat_into(model, j, block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::dataset::{Dataset, Value};
    use crate::data::schema::Attribute;
    use crate::model::prior::TermParams;

    fn model() -> Model {
        let schema = Schema::new(vec![Attribute::real("x", 0.1), Attribute::discrete("c", 3)]);
        let data = Dataset::from_rows(
            schema.clone(),
            &[
                vec![Value::Real(0.0), Value::Discrete(0)],
                vec![Value::Real(2.0), Value::Discrete(1)],
                vec![Value::Real(4.0), Value::Discrete(2)],
            ],
        );
        let stats = GlobalStats::compute(&data.full_view());
        Model::new(schema, &stats)
    }

    #[test]
    fn model_shapes() {
        let m = model();
        assert_eq!(m.n_attrs(), 2);
        assert_eq!(m.n_total, 3.0);
        // 1 weight + 2 normal params + 3 multinomial log-probs
        assert_eq!(m.class_param_len(), 6);
    }

    #[test]
    fn map_pi_is_smoothed_and_normalized() {
        // Weights summing to N give proportions summing to 1.
        let n = 100.0;
        let j = 4;
        let ws = [50.0, 30.0, 15.0, 5.0];
        let total: f64 = ws.iter().map(|&w| Model::map_pi(w, n, j)).sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
        // Empty class still has positive probability.
        assert!(Model::map_pi(0.0, n, j) > 0.0);
    }

    #[test]
    fn class_flat_round_trip() {
        let m = model();
        let classes = vec![
            ClassParams::new(
                2.0,
                Model::map_pi(2.0, m.n_total, 2),
                vec![
                    TermParams::normal(1.0, 0.5),
                    TermParams::Multinomial { log_p: vec![-0.1, -2.0, -3.0] },
                ],
            ),
            ClassParams::new(
                1.0,
                Model::map_pi(1.0, m.n_total, 2),
                vec![
                    TermParams::normal(3.0, 1.5),
                    TermParams::Multinomial { log_p: vec![-1.0, -1.0, -1.0] },
                ],
            ),
        ];
        let flat = classes_to_flat(&classes);
        assert_eq!(flat.len(), 2 * m.class_param_len());
        let back = classes_from_flat(&m, 2, &flat);
        assert_eq!(back, classes);
    }

    #[test]
    #[should_panic(expected = "must be in (0,1]")]
    fn zero_pi_rejected() {
        ClassParams::new(1.0, 0.0, vec![]);
    }
}
