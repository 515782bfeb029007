//! `update_parameters`: the M-step. Turns global sufficient statistics
//! into MAP class parameters. Purely deterministic given the statistics,
//! which is why every processor in P-AutoClass can compute identical
//! parameters after the Allreduce.

use crate::model::class::{ClassParams, Model};
use crate::model::suffstats::SuffStats;

/// Compute MAP parameters for every class from global statistics.
///
/// Returns the classes and the abstract op count (for virtual time; the
/// per-class work is proportional to the statistics length).
pub fn stats_to_classes(model: &Model, stats: &SuffStats) -> (Vec<ClassParams>, u64) {
    let j = stats.layout.j;
    let n = model.n_total;
    let mut classes = Vec::with_capacity(j);
    for c in 0..j {
        let weight = stats.class_weight(c);
        let pi = Model::map_pi(weight, n, j);
        let terms = model
            .groups
            .iter()
            .enumerate()
            .map(|(k, group)| group.prior.map_params(stats.attr_stats(c, k)))
            .collect();
        classes.push(ClassParams::new(weight, pi, terms));
    }
    (classes, mstep_ops(stats))
}

/// Abstract op count of deriving every class from `stats`: one statistics
/// stride per class. What [`stats_to_classes`] and
/// [`stats_to_classes_into`] return, known before they run.
pub fn mstep_ops(stats: &SuffStats) -> u64 {
    (stats.layout.j * stats.layout.stride) as u64
}

/// In-place variant of [`stats_to_classes`] for the allocation-free EM
/// cycle: when `classes` already has the right shape (same class count,
/// same term count per class — the steady state of a `BIG_LOOP` search)
/// every class is updated without heap allocation; after a shape change
/// (first cycle, class death) it falls back to a full rebuild.
///
/// Returns the abstract op count, matching [`stats_to_classes`].
pub fn stats_to_classes_into(
    model: &Model,
    stats: &SuffStats,
    classes: &mut Vec<ClassParams>,
) -> u64 {
    let j = stats.layout.j;
    let reusable =
        classes.len() == j && classes.iter().all(|c| c.terms.len() == model.groups.len());
    if !reusable {
        let (rebuilt, ops) = stats_to_classes(model, stats);
        *classes = rebuilt;
        return ops;
    }
    let mut ops = 0;
    for (c, class) in classes.iter_mut().enumerate() {
        ops += stats_to_class_into(model, stats, c, class);
    }
    ops
}

/// Update a single class in place from global statistics — the per-class
/// unit of [`stats_to_classes_into`]. `class` must already have the right
/// term shape. Returns the abstract op count (one class stride), summing
/// over classes to exactly the [`stats_to_classes_into`] count.
fn stats_to_class_into(model: &Model, stats: &SuffStats, c: usize, class: &mut ClassParams) -> u64 {
    let j = stats.layout.j;
    let n = model.n_total;
    let weight = stats.class_weight(c);
    let pi = Model::map_pi(weight, n, j);
    assert!(pi > 0.0 && pi <= 1.0, "mixture proportion out of range: {pi}");
    class.weight = weight;
    class.pi = pi;
    class.log_pi = pi.ln();
    for (k, (group, term)) in model.groups.iter().zip(&mut class.terms).enumerate() {
        group.prior.map_params_into(stats.attr_stats(c, k), term);
    }
    stats.layout.stride as u64
}

/// Log prior density of a full classification's parameters at their MAP
/// values: the mixture-proportion Dirichlet plus every term prior.
/// Reported alongside the likelihood; also exercised by tests to ensure
/// priors stay proper (finite) everywhere the search can reach.
pub fn log_param_prior(model: &Model, classes: &[ClassParams]) -> f64 {
    let j = classes.len() as f64;
    // Uniform Dirichlet(1) over proportions: density Γ(J) on the simplex.
    let mut lp = crate::math::ln_gamma(j);
    for class in classes {
        for (group, term) in model.groups.iter().zip(&class.terms) {
            lp += group.prior.log_param_prior(term);
        }
    }
    lp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::dataset::{Dataset, Value};
    use crate::data::schema::{Attribute, Schema};
    use crate::data::stats::GlobalStats;
    use crate::model::estep::{update_wts, WtsMatrix};
    use crate::model::prior::TermParams;
    use crate::model::suffstats::{StatLayout, SuffStats};

    fn setup() -> (Dataset, Model) {
        let schema = Schema::new(vec![Attribute::real("x", 0.01), Attribute::discrete("c", 2)]);
        let data = Dataset::from_rows(
            schema.clone(),
            &[
                vec![Value::Real(-4.0), Value::Discrete(0)],
                vec![Value::Real(-4.2), Value::Discrete(0)],
                vec![Value::Real(4.0), Value::Discrete(1)],
                vec![Value::Real(4.2), Value::Discrete(1)],
            ],
        );
        let stats = GlobalStats::compute(&data.full_view());
        let model = Model::new(schema, &stats);
        (data, model)
    }

    #[test]
    fn em_cycle_moves_means_toward_clusters() {
        let (data, model) = setup();
        // Start slightly off-center.
        let classes = vec![
            ClassParams::new(
                2.0,
                0.5,
                vec![
                    TermParams::normal(-1.0, 3.0),
                    TermParams::Multinomial { log_p: vec![(0.5f64).ln(); 2] },
                ],
            ),
            ClassParams::new(
                2.0,
                0.5,
                vec![
                    TermParams::normal(1.0, 3.0),
                    TermParams::Multinomial { log_p: vec![(0.5f64).ln(); 2] },
                ],
            ),
        ];
        let mut wts = WtsMatrix::new(0, 0);
        let mut new_classes = classes;
        let mut ops = 0;
        for _ in 0..15 {
            update_wts(&model, &data.full_view(), &new_classes, &mut wts);
            let mut stats = SuffStats::zeros(StatLayout::new(&model, 2));
            stats.accumulate(&model, &data.full_view(), &wts);
            (new_classes, ops) = stats_to_classes(&model, &stats);
        }
        assert!(ops > 0);
        let m0 = match new_classes[0].terms[0] {
            TermParams::Normal { mean, .. } => mean,
            _ => panic!(),
        };
        let m1 = match new_classes[1].terms[0] {
            TermParams::Normal { mean, .. } => mean,
            _ => panic!(),
        };
        assert!(m0 < -2.0, "class 0 mean should move toward -4.x, got {m0}");
        assert!(m1 > 2.0, "class 1 mean should move toward +4.x, got {m1}");
        // Proportions stay normalized.
        let pi_sum: f64 = new_classes.iter().map(|c| c.pi).sum();
        assert!((pi_sum - 1.0).abs() < 1e-9, "{pi_sum}");
    }

    #[test]
    fn em_does_not_decrease_log_likelihood() {
        // The defining property of EM. Run several cycles and check
        // monotonicity of the incomplete-data log likelihood.
        let (data, model) = setup();
        let mut classes = vec![
            ClassParams::new(
                2.0,
                0.5,
                vec![
                    TermParams::normal(-0.5, 4.0),
                    TermParams::Multinomial { log_p: vec![(0.6f64).ln(), (0.4f64).ln()] },
                ],
            ),
            ClassParams::new(
                2.0,
                0.5,
                vec![
                    TermParams::normal(0.5, 4.0),
                    TermParams::Multinomial { log_p: vec![(0.4f64).ln(), (0.6f64).ln()] },
                ],
            ),
        ];
        let mut wts = WtsMatrix::new(0, 0);
        let mut prev = f64::NEG_INFINITY;
        for cycle in 0..10 {
            let e = update_wts(&model, &data.full_view(), &classes, &mut wts);
            assert!(
                e.log_likelihood >= prev - 1e-9,
                "cycle {cycle}: ll decreased {prev} -> {}",
                e.log_likelihood
            );
            prev = e.log_likelihood;
            let mut stats = SuffStats::zeros(StatLayout::new(&model, 2));
            stats.accumulate(&model, &data.full_view(), &wts);
            classes = stats_to_classes(&model, &stats).0;
        }
    }

    #[test]
    fn in_place_mstep_matches_rebuild_bitwise() {
        let (data, model) = setup();
        let classes = vec![
            ClassParams::new(
                2.0,
                0.5,
                vec![
                    TermParams::normal(-1.0, 3.0),
                    TermParams::Multinomial { log_p: vec![(0.5f64).ln(); 2] },
                ],
            ),
            ClassParams::new(
                2.0,
                0.5,
                vec![
                    TermParams::normal(1.0, 3.0),
                    TermParams::Multinomial { log_p: vec![(0.5f64).ln(); 2] },
                ],
            ),
        ];
        let mut wts = WtsMatrix::new(0, 0);
        update_wts(&model, &data.full_view(), &classes, &mut wts);
        let mut stats = SuffStats::zeros(StatLayout::new(&model, 2));
        stats.accumulate(&model, &data.full_view(), &wts);

        let (rebuilt, ops) = stats_to_classes(&model, &stats);
        let mut in_place = classes;
        let ops2 = stats_to_classes_into(&model, &stats, &mut in_place);
        assert_eq!(ops, ops2);
        for (a, b) in rebuilt.iter().zip(&in_place) {
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            assert_eq!(a.pi.to_bits(), b.pi.to_bits());
            assert_eq!(a.log_pi.to_bits(), b.log_pi.to_bits());
            assert_eq!(a.terms, b.terms, "in-place terms must equal the rebuild");
        }
        // Shape mismatch (class death) falls back to a rebuild.
        let mut shrunk = vec![in_place[0].clone()];
        stats_to_classes_into(&model, &stats, &mut shrunk);
        assert_eq!(shrunk.len(), 2);
    }

    #[test]
    fn log_param_prior_is_finite_after_updates() {
        let (data, model) = setup();
        let classes = vec![ClassParams::new(
            4.0,
            1.0,
            vec![
                TermParams::normal(0.0, 1.0),
                TermParams::Multinomial { log_p: vec![(0.5f64).ln(); 2] },
            ],
        )];
        let mut wts = WtsMatrix::new(0, 0);
        update_wts(&model, &data.full_view(), &classes, &mut wts);
        let mut stats = SuffStats::zeros(StatLayout::new(&model, 1));
        stats.accumulate(&model, &data.full_view(), &wts);
        let (classes, _) = stats_to_classes(&model, &stats);
        assert!(log_param_prior(&model, &classes).is_finite());
    }
}
