//! `update_approximations`: classification scoring and convergence.
//!
//! AutoClass ranks classifications by an approximation to the marginal
//! likelihood P(X|T). We implement the Cheeseman–Stutz (CS) estimate —
//! introduced for AutoClass itself:
//!
//! ```text
//! ln P(X|T) ≈ ln P(X̂|T) + ln P(X|V̂,T) − ln P(X̂|V̂,T)
//! ```
//!
//! where `X̂` is the completed data (items fractionally assigned by their
//! membership weights), `V̂` the MAP parameters. `ln P(X̂|T)` has a closed
//! form because all term priors are conjugate: it decomposes into the
//! Dirichlet-multinomial marginal of the class assignments plus per-class,
//! per-attribute marginals.

use crate::math::ln_gamma;
use crate::model::class::Model;
use crate::model::suffstats::SuffStats;

/// Scores of one classification state at the current cycle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Approximation {
    /// Incomplete-data log likelihood at MAP, ln P(X|V̂,T).
    pub log_likelihood: f64,
    /// Complete-data log likelihood at MAP, ln P(X̂|V̂,T).
    pub complete_ll: f64,
    /// Complete-data log marginal ln P(X̂|T).
    pub complete_marginal: f64,
    /// The Cheeseman–Stutz marginal-likelihood estimate.
    pub cs_score: f64,
}

/// Closed-form complete-data log marginal of the class-assignment part:
/// Dirichlet(1)-multinomial over J classes with fractional counts w_j.
pub fn assignment_log_marginal(class_weights: &[f64], n_total: f64) -> f64 {
    let j = class_weights.len() as f64;
    let mut out = ln_gamma(j) - ln_gamma(n_total + j);
    for &w in class_weights {
        // lnΓ(w + 1): fractional counts are fine for Γ.
        out += ln_gamma(w + 1.0);
    }
    out
}

/// Evaluate the approximation from global statistics and E-step totals.
pub fn evaluate(
    model: &Model,
    stats: &SuffStats,
    log_likelihood: f64,
    complete_ll: f64,
) -> Approximation {
    let j = stats.layout.j;
    // Inline of `assignment_log_marginal` over the class weights straight
    // from the statistics vector — same arithmetic order, no collected Vec
    // (this runs once per EM cycle inside the allocation-free hot loop).
    let mut complete_marginal = ln_gamma(j as f64) - ln_gamma(model.n_total + j as f64);
    for c in 0..j {
        complete_marginal += ln_gamma(stats.class_weight(c) + 1.0);
    }
    for c in 0..j {
        for (k, group) in model.groups.iter().enumerate() {
            complete_marginal += group.prior.log_marginal(stats.attr_stats(c, k));
        }
    }
    // The complete-data likelihood at MAP includes the assignment part
    // Σ_j w_j ln π_j, which `complete_ll` (from the E-step) already carries.
    let cs_score = complete_marginal + log_likelihood - complete_ll;
    Approximation { log_likelihood, complete_ll, complete_marginal, cs_score }
}

/// Convergence test on successive log likelihoods: relative change below
/// `rel_eps` (guarding division for tiny magnitudes).
pub fn converged(prev_ll: f64, ll: f64, rel_eps: f64) -> bool {
    if !prev_ll.is_finite() {
        return false;
    }
    let delta = (ll - prev_ll).abs();
    delta <= rel_eps * ll.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::dataset::{Dataset, Value};
    use crate::data::schema::{Attribute, Schema};
    use crate::data::stats::GlobalStats;
    use crate::model::class::ClassParams;
    use crate::model::estep::{update_wts, WtsMatrix};
    use crate::model::mstep::stats_to_classes;
    use crate::model::prior::TermParams;
    use crate::model::suffstats::{StatLayout, SuffStats};

    fn gaussian_pair_data(n_per: usize) -> Dataset {
        let schema = Schema::new(vec![Attribute::real("x", 0.01)]);
        let mut rows = Vec::new();
        for i in 0..n_per {
            // Two well-separated deterministic "clusters".
            let jitter = (i as f64 * 0.37).sin() * 0.3;
            rows.push(vec![Value::Real(-5.0 + jitter)]);
            rows.push(vec![Value::Real(5.0 + jitter)]);
        }
        Dataset::from_rows(schema, &rows)
    }

    fn run_em(data: &Dataset, j: usize, means: &[f64]) -> (Model, SuffStats, f64, f64) {
        let stats_g = GlobalStats::compute(&data.full_view());
        let model = Model::new(data.schema().clone(), &stats_g);
        let mut classes: Vec<ClassParams> = means
            .iter()
            .map(|&m| {
                ClassParams::new(
                    data.len() as f64 / j as f64,
                    1.0 / j as f64,
                    vec![TermParams::normal(m, 2.0)],
                )
            })
            .collect();
        let mut wts = WtsMatrix::new(0, 0);
        let mut e = update_wts(&model, &data.full_view(), &classes, &mut wts);
        for _ in 0..20 {
            let mut s = SuffStats::zeros(StatLayout::new(&model, j));
            s.accumulate(&model, &data.full_view(), &wts);
            classes = stats_to_classes(&model, &s).0;
            e = update_wts(&model, &data.full_view(), &classes, &mut wts);
        }
        let mut s = SuffStats::zeros(StatLayout::new(&model, j));
        s.accumulate(&model, &data.full_view(), &wts);
        (model, s, e.log_likelihood, e.complete_ll)
    }

    #[test]
    fn assignment_marginal_decreases_with_n() {
        // More data = smaller probability of any particular completion.
        let a = assignment_log_marginal(&[5.0, 5.0], 10.0);
        let b = assignment_log_marginal(&[50.0, 50.0], 100.0);
        assert!(a > b);
    }

    #[test]
    fn cs_score_is_below_likelihood() {
        // The marginal integrates over parameters, so it must be below the
        // maximized likelihood (Occam factor is negative in log space).
        let data = gaussian_pair_data(40);
        let (model, stats, ll, cll) = run_em(&data, 2, &[-4.0, 4.0]);
        let a = evaluate(&model, &stats, ll, cll);
        assert!(a.cs_score < a.log_likelihood, "{} vs {}", a.cs_score, a.log_likelihood);
        assert!(a.cs_score.is_finite());
    }

    #[test]
    fn cs_score_prefers_true_structure_over_overfit() {
        // Two planted clusters: J=2 should beat J=5 on the CS score even
        // if J=5 attains a (slightly) higher raw likelihood.
        let data = gaussian_pair_data(60);
        let (model2, stats2, ll2, cll2) = run_em(&data, 2, &[-4.0, 4.0]);
        let (model5, stats5, ll5, cll5) = run_em(&data, 5, &[-6.0, -4.0, 0.0, 4.0, 6.0]);
        let a2 = evaluate(&model2, &stats2, ll2, cll2);
        let a5 = evaluate(&model5, &stats5, ll5, cll5);
        assert!(a2.cs_score > a5.cs_score, "J=2 {} should beat J=5 {}", a2.cs_score, a5.cs_score);
    }

    #[test]
    fn cs_score_prefers_true_structure_over_underfit() {
        let data = gaussian_pair_data(60);
        let (model2, stats2, ll2, cll2) = run_em(&data, 2, &[-4.0, 4.0]);
        let (model1, stats1, ll1, cll1) = run_em(&data, 1, &[0.0]);
        let a2 = evaluate(&model2, &stats2, ll2, cll2);
        let a1 = evaluate(&model1, &stats1, ll1, cll1);
        assert!(a2.cs_score > a1.cs_score, "J=2 {} should beat J=1 {}", a2.cs_score, a1.cs_score);
    }

    #[test]
    fn convergence_detector() {
        assert!(!converged(f64::NEG_INFINITY, -100.0, 1e-6));
        assert!(converged(-100.0, -100.0, 1e-6));
        assert!(converged(-100.0000001, -100.0, 1e-6));
        assert!(!converged(-120.0, -100.0, 1e-6));
        // Near zero: absolute guard kicks in.
        assert!(converged(1e-9, 0.0, 1e-6));
    }
}
