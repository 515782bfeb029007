//! Per-attribute model terms: conjugate priors, MAP updates, and
//! complete-data marginals.
//!
//! AutoClass models each attribute independently within a class ("single"
//! model terms). Three term families are implemented:
//!
//! * [`TermPrior::Normal`] — AutoClass's `single_normal_cn` for real
//!   attributes: a Gaussian per class with a Normal-Inverse-Gamma (NIG)
//!   conjugate prior derived from the global data statistics
//!   (empirical Bayes, as AutoClass does), and the measurement error as a
//!   floor on the modeled standard deviation.
//! * [`TermPrior::LogNormal`] — `single_normal_ln` for strictly positive
//!   reals: the Normal term applied to ln(x) with the Jacobian term
//!   −ln(x) in the density.
//! * [`TermPrior::Multinomial`] — `single_multinomial` for discrete
//!   attributes: a per-class multinomial with a symmetric Dirichlet
//!   prior of concentration `α = 1/levels` (AutoClass's choice, which
//!   makes the MAP estimate `(c_l + 1/L)/(n + 1)`).
//!
//! Missing values contribute nothing to a term's statistics or density —
//! a documented simplification of AutoClass, which can optionally model
//! "missing" as an extra level.

use crate::data::schema::{Attribute, AttributeKind};
use crate::data::stats::GlobalStats;
use crate::math::{ln_gamma, LN_2PI};

/// Sufficient-statistic layout per term, always `[s0, s1, s2]` for the
/// normal families (weighted count, weighted sum, weighted sum of squares,
/// on the modeling scale) and per-level weighted counts for multinomials.
#[derive(Debug, Clone, PartialEq)]
pub enum TermPrior {
    /// Gaussian class model with NIG prior.
    Normal {
        /// Prior mean (global mean).
        mean0: f64,
        /// Prior variance scale (global variance, floored).
        var0: f64,
        /// Prior pseudo-count on the mean.
        kappa0: f64,
        /// Prior pseudo-count on the variance (degrees of freedom).
        nu0: f64,
        /// Floor on the modeled standard deviation (measurement error).
        min_sigma: f64,
    },
    /// Gaussian on ln(x) with NIG prior (for strictly positive reals).
    LogNormal {
        /// Prior mean of ln(x).
        mean0: f64,
        /// Prior variance of ln(x), floored.
        var0: f64,
        /// Prior pseudo-count on the mean.
        kappa0: f64,
        /// Prior pseudo-count on the variance.
        nu0: f64,
        /// Floor on the modeled std-dev of ln(x) (relative error).
        min_sigma: f64,
    },
    /// Multinomial class model with symmetric Dirichlet prior.
    Multinomial {
        /// Number of observed levels L.
        levels: usize,
        /// Dirichlet concentration per level (AutoClass uses 1/L).
        alpha: f64,
        /// Model "missing" as an explicit extra level (AutoClass's
        /// informative-missingness option): the term then has L+1 slots,
        /// the last holding the missing level. When false, missing
        /// values contribute nothing (missing-at-random).
        missing_level: bool,
    },
    /// Jointly Gaussian block over `dim` real attributes with full
    /// covariance — AutoClass's `multi_normal_cn` term — under a
    /// Normal-Inverse-Wishart (NIW) conjugate prior. Statistics are
    /// `[s0, Σw·x (dim), Σw·x xᵀ packed lower-tri (dim(dim+1)/2)]`; items
    /// with *any* missing value in the block are skipped (a documented
    /// simplification).
    MultiNormal {
        /// Block dimensionality d.
        dim: usize,
        /// Prior mean μ0 (global means), length d.
        mean0: Vec<f64>,
        /// Prior scatter S0, dense row-major d×d (diag of global
        /// variances, so `E[Σ]` under the prior is the global diagonal).
        scatter0: Vec<f64>,
        /// Prior pseudo-count on the mean.
        kappa0: f64,
        /// Prior degrees of freedom (≥ d + 2 so the prior covariance
        /// expectation exists).
        nu0: f64,
        /// Diagonal jitter floor (smallest measurement error in the
        /// block) applied when the MAP covariance is near-singular.
        min_sigma: f64,
    },
}

/// Packed lower-triangle index for symmetric statistics: `(i, j)` with
/// `j ≤ i` maps to `i(i+1)/2 + j`.
#[inline]
pub fn tri_index(i: usize, j: usize) -> usize {
    debug_assert!(j <= i);
    i * (i + 1) / 2 + j
}

/// Prior pseudo-count on class-conditional means and variances: one
/// pseudo-observation at the global statistics. Matches AutoClass's
/// weakly-informative empirical priors.
const PSEUDO_COUNT: f64 = 1.0;

impl TermPrior {
    /// Feed `word` every bit of this prior, as 64-bit words: the family,
    /// then each field (floats by their bit patterns, vectors after their
    /// length). Two priors feed the same words exactly when they are the
    /// same prior, bit for bit, so the words can key anything computed
    /// from the prior.
    pub fn key_words(&self, word: &mut impl FnMut(u64)) {
        fn floats(xs: &[f64], word: &mut impl FnMut(u64)) {
            word(xs.len() as u64);
            xs.iter().for_each(|x| word(x.to_bits()));
        }
        match self {
            TermPrior::Normal { mean0, var0, kappa0, nu0, min_sigma } => {
                word(0);
                floats(&[*mean0, *var0, *kappa0, *nu0, *min_sigma], word);
            }
            TermPrior::LogNormal { mean0, var0, kappa0, nu0, min_sigma } => {
                word(1);
                floats(&[*mean0, *var0, *kappa0, *nu0, *min_sigma], word);
            }
            TermPrior::Multinomial { levels, alpha, missing_level } => {
                word(2);
                word(*levels as u64);
                word(alpha.to_bits());
                word(u64::from(*missing_level));
            }
            TermPrior::MultiNormal { dim, mean0, scatter0, kappa0, nu0, min_sigma } => {
                word(3);
                word(*dim as u64);
                floats(mean0, word);
                floats(scatter0, word);
                floats(&[*kappa0, *nu0, *min_sigma], word);
            }
        }
    }

    /// Build the prior for one attribute from the global statistics.
    pub fn for_attribute(attr: &Attribute, stats: &GlobalStats, c: usize) -> TermPrior {
        match attr.kind {
            AttributeKind::Real { error } => {
                let var0 = stats.variance(c).max(error * error);
                TermPrior::Normal {
                    mean0: stats.mean(c),
                    var0,
                    kappa0: PSEUDO_COUNT,
                    nu0: PSEUDO_COUNT,
                    min_sigma: error,
                }
            }
            AttributeKind::PositiveReal { error } => {
                let var0 = stats.ln_variance(c).max(error * error);
                TermPrior::LogNormal {
                    mean0: stats.ln_mean(c),
                    var0,
                    kappa0: PSEUDO_COUNT,
                    nu0: PSEUDO_COUNT,
                    min_sigma: error,
                }
            }
            AttributeKind::Discrete { levels, .. } => {
                TermPrior::Multinomial { levels, alpha: 1.0 / levels as f64, missing_level: false }
            }
        }
    }

    /// Build the NIW prior for a correlated block of real attributes.
    /// `mean0` and `vars0` are the attributes' global means/variances
    /// (variances floored by squared measurement errors).
    pub fn multi_normal(mean0: Vec<f64>, vars0: Vec<f64>, min_sigma: f64) -> TermPrior {
        let d = mean0.len();
        assert!(d >= 2, "a correlated block needs at least 2 attributes");
        assert_eq!(vars0.len(), d);
        let mut scatter0 = vec![0.0; d * d];
        for (i, &v) in vars0.iter().enumerate() {
            scatter0[i * d + i] = v.max(min_sigma * min_sigma);
        }
        TermPrior::MultiNormal {
            dim: d,
            mean0,
            scatter0,
            kappa0: PSEUDO_COUNT,
            // With νn-normalization E[Σ] = S0/(ν0 − d − 1); d+2 makes the
            // prior expectation exactly the global diagonal.
            nu0: (d + 2) as f64,
            min_sigma,
        }
    }

    /// Length of this term's per-class sufficient-statistic block.
    pub fn stat_len(&self) -> usize {
        match self {
            TermPrior::Normal { .. } | TermPrior::LogNormal { .. } => 3,
            TermPrior::Multinomial { levels, missing_level, .. } => {
                levels + usize::from(*missing_level)
            }
            TermPrior::MultiNormal { dim, .. } => 1 + dim + dim * (dim + 1) / 2,
        }
    }

    /// MAP parameters given a sufficient-statistic block.
    pub fn map_params(&self, stats: &[f64]) -> TermParams {
        debug_assert_eq!(stats.len(), self.stat_len());
        match *self {
            TermPrior::Normal { mean0, var0, kappa0, nu0, min_sigma } => {
                let (mean, sigma) =
                    nig_map(stats[0], stats[1], stats[2], mean0, var0, kappa0, nu0, min_sigma);
                TermParams::normal(mean, sigma)
            }
            TermPrior::LogNormal { mean0, var0, kappa0, nu0, min_sigma } => {
                let (mean, sigma) =
                    nig_map(stats[0], stats[1], stats[2], mean0, var0, kappa0, nu0, min_sigma);
                TermParams::log_normal(mean, sigma)
            }
            TermPrior::Multinomial { alpha, .. } => {
                // Slot count includes the optional missing level.
                let slots = stats.len() as f64;
                let total: f64 = stats.iter().sum();
                let denom = total + slots * alpha;
                let log_p = stats.iter().map(|c| ((c + alpha) / denom).ln()).collect();
                TermParams::Multinomial { log_p }
            }
            TermPrior::MultiNormal { dim, ref mean0, ref scatter0, kappa0, nu0, min_sigma } => {
                let (mean, cov) = niw_map(stats, dim, mean0, scatter0, kappa0, nu0, min_sigma);
                TermParams::multi_normal(mean, &cov, min_sigma)
            }
        }
    }

    /// In-place variant of [`map_params`] for the allocation-free M-step:
    /// when `out` already holds a parameter value of the matching shape it
    /// is overwritten without touching the heap. Normal/log-normal terms
    /// are plain scalar stores; multinomial refills the existing `log_p`
    /// vector. Correlated Gaussian blocks fall back to [`map_params`]
    /// (the NIW update builds a fresh Cholesky factor; documented in
    /// DESIGN.md as the one family outside the zero-allocation guarantee).
    ///
    /// [`map_params`]: TermPrior::map_params
    pub fn map_params_into(&self, stats: &[f64], out: &mut TermParams) {
        debug_assert_eq!(stats.len(), self.stat_len());
        match (self, &mut *out) {
            (TermPrior::Multinomial { alpha, .. }, TermParams::Multinomial { log_p })
                if log_p.len() == stats.len() =>
            {
                let slots = stats.len() as f64;
                let total: f64 = stats.iter().sum();
                let denom = total + slots * alpha;
                for (lp, c) in log_p.iter_mut().zip(stats) {
                    *lp = ((c + alpha) / denom).ln();
                }
            }
            // Normal/LogNormal construction is heap-free already; mismatched
            // shapes (first cycle, class death) rebuild via map_params.
            _ => *out = self.map_params(stats),
        }
    }

    /// Log prior density evaluated at MAP parameters (used in reports and
    /// as part of the posterior-at-MAP diagnostic).
    pub fn log_param_prior(&self, params: &TermParams) -> f64 {
        match (self, params) {
            (
                TermPrior::Normal { mean0, var0, kappa0, nu0, .. }
                | TermPrior::LogNormal { mean0, var0, kappa0, nu0, .. },
                TermParams::Normal { mean, sigma, .. } | TermParams::LogNormal { mean, sigma, .. },
            ) => nig_log_density(*mean, sigma * sigma, *mean0, *var0, *kappa0, *nu0),
            (TermPrior::Multinomial { alpha, .. }, TermParams::Multinomial { log_p }) => {
                let l = log_p.len() as f64;
                ln_gamma(l * alpha) - l * ln_gamma(*alpha)
                    + (alpha - 1.0) * log_p.iter().sum::<f64>()
            }
            (
                TermPrior::MultiNormal { dim, mean0, scatter0, kappa0, nu0, .. },
                TermParams::MultiNormal { mean, chol, .. },
            ) => {
                let d = *dim;
                let df = d as f64;
                let log_det_sigma = crate::linalg::log_det_from_chol(chol, d);
                let sigma_inv = crate::linalg::inverse_from_chol(chol, d);
                // ln N(μ | μ0, Σ/κ0)
                let diff: Vec<f64> = mean.iter().zip(mean0).map(|(a, b)| a - b).collect();
                let mut scratch = vec![0.0; d];
                let maha = crate::linalg::mahalanobis_sq(chol, d, &diff, &mut scratch);
                let ln_n = -0.5 * df * LN_2PI
                    - 0.5 * (log_det_sigma - df * kappa0.ln())
                    - 0.5 * kappa0 * maha;
                // ln IW(Σ | ν0, S0)
                let chol_s0 = crate::linalg::cholesky(scatter0, d)
                    // lint:allow(unwrap): prior scatter is positive definite by construction
                    .expect("prior scatter is positive definite");
                let log_det_s0 = crate::linalg::log_det_from_chol(&chol_s0, d);
                let ln_iw = 0.5 * nu0 * log_det_s0
                    - 0.5 * nu0 * df * 2.0f64.ln()
                    - crate::linalg::ln_multigamma(d, 0.5 * nu0)
                    - 0.5 * (nu0 + df + 1.0) * log_det_sigma
                    - 0.5 * crate::linalg::trace_product(scatter0, &sigma_inv, d);
                ln_n + ln_iw
            }
            _ => panic!("prior/parameter kind mismatch"),
        }
    }

    /// Complete-data log marginal likelihood of this term's block: the
    /// probability of the (weighted) class data with parameters integrated
    /// out against the conjugate prior. The Cheeseman–Stutz score sums
    /// these over classes and attributes.
    pub fn log_marginal(&self, stats: &[f64]) -> f64 {
        debug_assert_eq!(stats.len(), self.stat_len());
        match *self {
            TermPrior::Normal { mean0, var0, kappa0, nu0, .. } => {
                nig_log_marginal(stats[0], stats[1], stats[2], mean0, var0, kappa0, nu0)
            }
            TermPrior::LogNormal { mean0, var0, kappa0, nu0, .. } => {
                // On the ln scale; the Jacobian Σw·(−ln x) is part of the
                // complete-data likelihood and is carried by the E-step's
                // `complete_ll` term, so it cancels in the CS score.
                nig_log_marginal(stats[0], stats[1], stats[2], mean0, var0, kappa0, nu0)
            }
            TermPrior::Multinomial { alpha, .. } => {
                let l = stats.len() as f64;
                let total: f64 = stats.iter().sum();
                let mut out = ln_gamma(l * alpha) - ln_gamma(total + l * alpha);
                for &c in stats {
                    out += ln_gamma(c + alpha) - ln_gamma(alpha);
                }
                out
            }
            TermPrior::MultiNormal { dim, ref mean0, ref scatter0, kappa0, nu0, min_sigma } => {
                niw_log_marginal(stats, dim, mean0, scatter0, kappa0, nu0, min_sigma)
            }
        }
    }
}

/// Unpack the NIW posterior pieces shared by the MAP update and the
/// marginal: returns `(s0, x̄, Sn, κn, νn)` with `Sn` dense. Degenerate
/// `s0 ≈ 0` is handled by the callers.
#[allow(clippy::type_complexity)]
fn niw_posterior(
    stats: &[f64],
    d: usize,
    mean0: &[f64],
    scatter0: &[f64],
    kappa0: f64,
    nu0: f64,
) -> (f64, Vec<f64>, Vec<f64>, f64, f64) {
    let s0 = stats[0];
    let sums = &stats[1..1 + d];
    let cp = &stats[1 + d..];
    let xbar: Vec<f64> =
        if s0 > 0.0 { sums.iter().map(|s| s / s0).collect() } else { mean0.to_vec() };
    let kappa_n = kappa0 + s0;
    let nu_n = nu0 + s0;
    // Sn = S0 + (CP − s0·x̄x̄ᵀ) + κ0 s0/κn (x̄−μ0)(x̄−μ0)ᵀ
    let mut sn = scatter0.to_vec();
    if s0 > 0.0 {
        let shrink = kappa0 * s0 / kappa_n;
        for i in 0..d {
            for j in 0..=i {
                let scatter = cp[tri_index(i, j)] - s0 * xbar[i] * xbar[j];
                let pull = shrink * (xbar[i] - mean0[i]) * (xbar[j] - mean0[j]);
                let v = scatter + pull;
                sn[i * d + j] += v;
                if i != j {
                    sn[j * d + i] += v;
                }
            }
        }
    }
    (s0, xbar, sn, kappa_n, nu_n)
}

/// MAP mean/covariance of the NIW posterior. The covariance is floored by
/// adding `min_sigma²` diagonal jitter until it is positive definite.
fn niw_map(
    stats: &[f64],
    d: usize,
    mean0: &[f64],
    scatter0: &[f64],
    kappa0: f64,
    nu0: f64,
    min_sigma: f64,
) -> (Vec<f64>, Vec<f64>) {
    let (s0, _, sn, kappa_n, nu_n) = niw_posterior(stats, d, mean0, scatter0, kappa0, nu0);
    let sums = &stats[1..1 + d];
    let mean: Vec<f64> = (0..d).map(|i| (kappa0 * mean0[i] + sums[i]) / kappa_n).collect();
    let denom = nu_n + d as f64 + 2.0; // MAP of the NIW covariance
    let mut cov: Vec<f64> = sn.iter().map(|v| v / denom).collect();
    // Ensure positive-definiteness: symmetric by construction, but a
    // collapsed class can be rank-deficient; jitter the diagonal.
    let jitter = (min_sigma * min_sigma).max(1e-12);
    let mut tries = 0;
    while crate::linalg::cholesky(&cov, d).is_none() {
        for i in 0..d {
            cov[i * d + i] += jitter * (1 << tries) as f64;
        }
        tries += 1;
        assert!(tries < 64, "covariance cannot be repaired");
    }
    let _ = s0;
    (mean, cov)
}

/// NIW complete-data log marginal of a weighted block (standard conjugate
/// result with the weighted count s0 in place of n).
fn niw_log_marginal(
    stats: &[f64],
    d: usize,
    mean0: &[f64],
    scatter0: &[f64],
    kappa0: f64,
    nu0: f64,
    min_sigma: f64,
) -> f64 {
    let (s0, _, mut sn, kappa_n, nu_n) = niw_posterior(stats, d, mean0, scatter0, kappa0, nu0);
    if s0 <= 0.0 {
        return 0.0;
    }
    let df = d as f64;
    let chol_s0 = crate::linalg::cholesky(scatter0, d)
        // lint:allow(unwrap): prior scatter is positive definite by construction
        .expect("prior scatter is positive definite");
    let log_det_s0 = crate::linalg::log_det_from_chol(&chol_s0, d);
    let jitter = (min_sigma * min_sigma).max(1e-12);
    let mut tries = 0;
    let chol_sn = loop {
        match crate::linalg::cholesky(&sn, d) {
            Some(l) => break l,
            None => {
                for i in 0..d {
                    sn[i * d + i] += jitter * (1 << tries) as f64;
                }
                tries += 1;
                assert!(tries < 64, "posterior scatter cannot be repaired");
            }
        }
    };
    let log_det_sn = crate::linalg::log_det_from_chol(&chol_sn, d);
    -0.5 * s0 * df * std::f64::consts::PI.ln() + crate::linalg::ln_multigamma(d, 0.5 * nu_n)
        - crate::linalg::ln_multigamma(d, 0.5 * nu0)
        + 0.5 * nu0 * log_det_s0
        - 0.5 * nu_n * log_det_sn
        + 0.5 * df * (kappa0.ln() - kappa_n.ln())
}

/// MAP of a Gaussian with NIG prior given weighted stats `[s0, s1, s2]`.
#[allow(clippy::too_many_arguments)]
fn nig_map(
    s0: f64,
    s1: f64,
    s2: f64,
    mean0: f64,
    var0: f64,
    kappa0: f64,
    nu0: f64,
    min_sigma: f64,
) -> (f64, f64) {
    let kappa_n = kappa0 + s0;
    let mean = (kappa0 * mean0 + s1) / kappa_n;
    // Scatter around the posterior mean plus the prior pull.
    let ss = (s2 - 2.0 * mean * s1 + mean * mean * s0).max(0.0);
    let var = (nu0 * var0 + ss + kappa0 * (mean - mean0).powi(2)) / (nu0 + s0);
    let sigma = var.sqrt().max(min_sigma);
    (mean, sigma)
}

/// Log NIG density at (mean, var): `Normal(mean | mean0, var/kappa0) ×
/// InvGamma(var | nu0/2, nu0·var0/2)`.
fn nig_log_density(mean: f64, var: f64, mean0: f64, var0: f64, kappa0: f64, nu0: f64) -> f64 {
    let a = 0.5 * nu0;
    let b = 0.5 * nu0 * var0;
    let log_normal =
        -0.5 * LN_2PI - 0.5 * (var / kappa0).ln() - 0.5 * kappa0 * (mean - mean0).powi(2) / var;
    let log_invgamma = a * b.ln() - ln_gamma(a) - (a + 1.0) * var.ln() - b / var;
    log_normal + log_invgamma
}

/// Complete-data log marginal of weighted Gaussian data under the NIG
/// prior (standard conjugate result, with the weighted count `s0` playing
/// the role of n).
fn nig_log_marginal(
    s0: f64,
    s1: f64,
    s2: f64,
    mean0: f64,
    var0: f64,
    kappa0: f64,
    nu0: f64,
) -> f64 {
    if s0 <= 0.0 {
        return 0.0; // no data: marginal of the empty set is 1
    }
    let a0 = 0.5 * nu0;
    let b0 = 0.5 * nu0 * var0;
    let kappa_n = kappa0 + s0;
    let a_n = a0 + 0.5 * s0;
    let xbar = s1 / s0;
    let scatter = (s2 - s1 * s1 / s0).max(0.0);
    let b_n = b0 + 0.5 * scatter + 0.5 * kappa0 * s0 * (xbar - mean0).powi(2) / kappa_n;
    ln_gamma(a_n) - ln_gamma(a0) + a0 * b0.ln() - a_n * b_n.ln()
        + 0.5 * (kappa0.ln() - kappa_n.ln())
        - 0.5 * s0 * LN_2PI
}

/// MAP parameters of one term for one class.
#[derive(Debug, Clone, PartialEq)]
pub enum TermParams {
    /// Gaussian: `log_norm` caches `−ln σ − ½ln 2π`.
    Normal {
        /// Class-conditional mean.
        mean: f64,
        /// Class-conditional standard deviation (≥ the term's floor).
        sigma: f64,
        /// Cached log normalization constant.
        log_norm: f64,
    },
    /// Gaussian on ln(x) with the −ln x Jacobian applied per value.
    LogNormal {
        /// Class-conditional mean of ln(x).
        mean: f64,
        /// Class-conditional std-dev of ln(x).
        sigma: f64,
        /// Cached log normalization constant.
        log_norm: f64,
    },
    /// Multinomial: cached log level probabilities.
    Multinomial {
        /// `log_p[l]` = ln q_l; all finite by the Dirichlet smoothing.
        log_p: Vec<f64>,
    },
    /// Correlated Gaussian block: mean vector plus the lower-triangular
    /// Cholesky factor of the covariance (dense row-major d×d).
    MultiNormal {
        /// Class-conditional mean, length d.
        mean: Vec<f64>,
        /// Cholesky factor L with L·Lᵀ = Σ.
        chol: Vec<f64>,
        /// Cached `−(d/2)·ln 2π − ½·ln det Σ`.
        log_norm: f64,
    },
}

impl TermParams {
    /// Correlated Gaussian parameters from a dense covariance matrix,
    /// with the normalization constant precomputed.
    ///
    /// # Panics
    /// Panics if the covariance is not positive definite even after the
    /// caller's flooring (a programming error in the M-step).
    pub fn multi_normal(mean: Vec<f64>, cov: &[f64], _min_sigma: f64) -> Self {
        let d = mean.len();
        let chol = crate::linalg::cholesky(cov, d)
            // lint:allow(unwrap): covariance is floored to positive definite upstream
            .expect("covariance must be positive definite");
        let log_det = crate::linalg::log_det_from_chol(&chol, d);
        let log_norm = -0.5 * d as f64 * LN_2PI - 0.5 * log_det;
        TermParams::MultiNormal { mean, chol, log_norm }
    }

    /// Rebuild a correlated Gaussian from its flat `[mean, chol]` block.
    fn multi_normal_from_flat(d: usize, flat: &[f64]) -> Self {
        let mean = flat[..d].to_vec();
        let chol = flat[d..].to_vec();
        debug_assert_eq!(chol.len(), d * d);
        let log_det = crate::linalg::log_det_from_chol(&chol, d);
        let log_norm = -0.5 * d as f64 * LN_2PI - 0.5 * log_det;
        TermParams::MultiNormal { mean, chol, log_norm }
    }

    /// Log density of one d-vector under a correlated Gaussian block.
    /// Any NaN component marks the whole block missing (contributes 0).
    pub fn log_prob_vec(&self, x: &[f64]) -> f64 {
        match self {
            TermParams::MultiNormal { mean, chol, log_norm } => {
                let d = mean.len();
                debug_assert_eq!(x.len(), d);
                if x.iter().any(|v| v.is_nan()) {
                    return 0.0;
                }
                let diff: Vec<f64> = x.iter().zip(mean).map(|(a, b)| a - b).collect();
                let mut scratch = vec![0.0; d];
                log_norm - 0.5 * crate::linalg::mahalanobis_sq(chol, d, &diff, &mut scratch)
            }
            _ => panic!("log_prob_vec on a non-MultiNormal term"),
        }
    }

    /// Add the correlated block's log densities for whole columns into
    /// `out` (`cols[a][i]` is attribute `a` of item `i`).
    pub fn accumulate_log_prob_mvn(&self, cols: &[&[f64]], out: &mut [f64]) {
        match self {
            TermParams::MultiNormal { mean, chol, log_norm } => {
                let d = mean.len();
                assert_eq!(cols.len(), d, "column count must match block dimension");
                let n = out.len();
                debug_assert!(cols.iter().all(|c| c.len() == n));
                let mut diff = vec![0.0; d];
                let mut scratch = vec![0.0; d];
                'items: for (i, o) in out.iter_mut().enumerate() {
                    for (a, col) in cols.iter().enumerate() {
                        let x = col[i];
                        if x.is_nan() {
                            continue 'items;
                        }
                        diff[a] = x - mean[a];
                    }
                    *o += log_norm
                        - 0.5 * crate::linalg::mahalanobis_sq(chol, d, &diff, &mut scratch);
                }
            }
            _ => panic!("accumulate_log_prob_mvn on a non-MultiNormal term"),
        }
    }

    /// Allocation-free variant of [`accumulate_log_prob_mvn`] for the
    /// blocked E-step: `xs` is an attribute-major flat gather of the block
    /// columns (`xs[a * n + i]` is attribute `a` of item `i`, with
    /// `n = out.len()`), and the two workspaces are caller-owned so the
    /// steady state performs no heap allocation. Arithmetic is element-wise
    /// identical to the slice-of-columns variant.
    ///
    /// [`accumulate_log_prob_mvn`]: TermParams::accumulate_log_prob_mvn
    pub fn accumulate_log_prob_mvn_flat(
        &self,
        xs: &[f64],
        out: &mut [f64],
        diff: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
    ) {
        match self {
            TermParams::MultiNormal { mean, chol, log_norm } => {
                let d = mean.len();
                let n = out.len();
                assert_eq!(xs.len(), d * n, "flat gather must be d × n attribute-major");
                diff.clear();
                diff.resize(d, 0.0);
                scratch.clear();
                scratch.resize(d, 0.0);
                'items: for (i, o) in out.iter_mut().enumerate() {
                    for (a, dst) in diff.iter_mut().enumerate() {
                        let x = xs[a * n + i];
                        if x.is_nan() {
                            continue 'items;
                        }
                        *dst = x - mean[a];
                    }
                    *o += log_norm - 0.5 * crate::linalg::mahalanobis_sq(chol, d, diff, scratch);
                }
            }
            _ => panic!("accumulate_log_prob_mvn_flat on a non-MultiNormal term"),
        }
    }
}

impl TermParams {
    /// Gaussian parameters with the normalization constant precomputed.
    pub fn normal(mean: f64, sigma: f64) -> Self {
        TermParams::Normal { mean, sigma, log_norm: -sigma.ln() - 0.5 * LN_2PI }
    }

    /// Log-normal parameters with the normalization constant precomputed.
    pub fn log_normal(mean: f64, sigma: f64) -> Self {
        TermParams::LogNormal { mean, sigma, log_norm: -sigma.ln() - 0.5 * LN_2PI }
    }

    /// Log density of one real value (NaN = missing contributes 0).
    pub fn log_prob_real(&self, x: f64) -> f64 {
        match self {
            TermParams::Normal { mean, sigma, log_norm } => {
                if x.is_nan() {
                    return 0.0;
                }
                let z = (x - mean) / sigma;
                log_norm - 0.5 * z * z
            }
            TermParams::LogNormal { mean, sigma, log_norm } => {
                if x.is_nan() {
                    return 0.0;
                }
                let lx = x.ln();
                let z = (lx - mean) / sigma;
                log_norm - 0.5 * z * z - lx
            }
            _ => panic!("scalar real value for a non-scalar term"),
        }
    }

    /// Log probability of one discrete level (MISSING contributes 0).
    pub fn log_prob_discrete(&self, l: u32) -> f64 {
        match self {
            TermParams::Multinomial { log_p } => {
                if l == crate::data::dataset::MISSING_DISCRETE {
                    0.0
                } else {
                    log_p[l as usize]
                }
            }
            _ => panic!("discrete value for real term"),
        }
    }

    /// Add this term's log densities for a whole column into `out`
    /// (the hot kernel of `update_wts`; one call per class × attribute).
    /// `ln_xs` holds `xs[i].ln()` for a LogNormal term, so a caller that
    /// runs every class over one column takes each logarithm once; a
    /// Normal term ignores it (pass `&[]`).
    ///
    /// A missing (NaN) value adds `-0.0`, the exact additive identity
    /// (`o + -0.0` is `o` for every `o`, signed zeros included), so the
    /// skip is a select rather than a branch and the loop vectorizes at
    /// every ISA level with the bits of a branch that skips the add. The
    /// test is on `x`: a negative `x` has a NaN logarithm but is not
    /// missing. The parameters are bound by value: a select on a value
    /// read through a reference makes the read conditional, which the
    /// wide instances compile to a masked gather per vector.
    /// Always inlined, so the E-step's wide instances compile it at their
    /// own width.
    #[inline(always)]
    pub fn accumulate_log_prob_real(&self, xs: &[f64], ln_xs: &[f64], out: &mut [f64]) {
        debug_assert_eq!(xs.len(), out.len());
        match *self {
            TermParams::Normal { mean, sigma, log_norm } => {
                let inv = 1.0 / sigma;
                for (&x, o) in xs.iter().zip(out.iter_mut()) {
                    let z = (x - mean) * inv;
                    *o += if x.is_nan() { -0.0 } else { log_norm - 0.5 * z * z };
                }
            }
            TermParams::LogNormal { mean, sigma, log_norm } => {
                assert_eq!(ln_xs.len(), xs.len(), "one logarithm per value");
                let inv = 1.0 / sigma;
                for ((&x, &lx), o) in xs.iter().zip(ln_xs).zip(out.iter_mut()) {
                    let z = (lx - mean) * inv;
                    *o += if x.is_nan() { -0.0 } else { log_norm - 0.5 * z * z - lx };
                }
            }
            _ => panic!("real column for a non-scalar-real term"),
        }
    }

    /// Like [`TermParams::log_prob_discrete`], but for a term whose last
    /// slot models the missing level: MISSING maps to that slot instead
    /// of contributing 0.
    pub fn log_prob_discrete_with_missing(&self, l: u32) -> f64 {
        match self {
            TermParams::Multinomial { log_p } => {
                if l == crate::data::dataset::MISSING_DISCRETE {
                    // lint:allow(unwrap): multinomial terms always carry a missing slot
                    *log_p.last().expect("missing-level term has slots")
                } else {
                    log_p[l as usize]
                }
            }
            _ => panic!("discrete value for real term"),
        }
    }

    /// Batched form of [`TermParams::log_prob_discrete_with_missing`].
    pub fn accumulate_log_prob_discrete_with_missing(&self, ls: &[u32], out: &mut [f64]) {
        debug_assert_eq!(ls.len(), out.len());
        match self {
            TermParams::Multinomial { log_p } => {
                // lint:allow(unwrap): multinomial terms always carry a missing slot
                let missing = *log_p.last().expect("missing-level term has slots");
                for (l, o) in ls.iter().zip(out.iter_mut()) {
                    *o += if *l == crate::data::dataset::MISSING_DISCRETE {
                        missing
                    } else {
                        log_p[*l as usize]
                    };
                }
            }
            _ => panic!("discrete column for real term"),
        }
    }

    /// Add this term's log probabilities for a discrete column into `out`.
    pub fn accumulate_log_prob_discrete(&self, ls: &[u32], out: &mut [f64]) {
        debug_assert_eq!(ls.len(), out.len());
        match self {
            TermParams::Multinomial { log_p } => {
                for (l, o) in ls.iter().zip(out.iter_mut()) {
                    if *l != crate::data::dataset::MISSING_DISCRETE {
                        *o += log_p[*l as usize];
                    }
                }
            }
            _ => panic!("discrete column for real term"),
        }
    }

    /// Flatten to f64s (for broadcasting initial parameters in
    /// P-AutoClass). Paired with [`TermPrior::param_len`] and
    /// [`TermPrior::unflatten_params`].
    pub fn to_flat(&self, out: &mut Vec<f64>) {
        match self {
            TermParams::Normal { mean, sigma, .. } | TermParams::LogNormal { mean, sigma, .. } => {
                out.push(*mean);
                out.push(*sigma);
            }
            TermParams::Multinomial { log_p } => out.extend_from_slice(log_p),
            TermParams::MultiNormal { mean, chol, .. } => {
                out.extend_from_slice(mean);
                out.extend_from_slice(chol);
            }
        }
    }
}

impl TermPrior {
    /// Number of f64s in this term's flattened parameter block.
    pub fn param_len(&self) -> usize {
        match self {
            TermPrior::Normal { .. } | TermPrior::LogNormal { .. } => 2,
            TermPrior::Multinomial { levels, missing_level, .. } => {
                levels + usize::from(*missing_level)
            }
            TermPrior::MultiNormal { dim, .. } => dim + dim * dim,
        }
    }

    /// Rebuild parameters from a flat block (inverse of
    /// [`TermParams::to_flat`]).
    pub fn unflatten_params(&self, flat: &[f64]) -> TermParams {
        debug_assert_eq!(flat.len(), self.param_len());
        match self {
            TermPrior::Normal { .. } => TermParams::normal(flat[0], flat[1]),
            TermPrior::LogNormal { .. } => TermParams::log_normal(flat[0], flat[1]),
            TermPrior::Multinomial { .. } => TermParams::Multinomial { log_p: flat.to_vec() },
            TermPrior::MultiNormal { dim, .. } => TermParams::multi_normal_from_flat(*dim, flat),
        }
    }

    /// In-place variant of [`unflatten_params`] for the allocation-free
    /// broadcast path: a multinomial term of matching shape refills its
    /// existing `log_p` vector; everything else rebuilds (Normal/LogNormal
    /// construction is heap-free already; correlated Gaussian blocks build
    /// a fresh Cholesky factor, exactly as in [`map_params_into`]).
    ///
    /// [`unflatten_params`]: TermPrior::unflatten_params
    /// [`map_params_into`]: TermPrior::map_params_into
    pub fn unflatten_params_into(&self, flat: &[f64], out: &mut TermParams) {
        debug_assert_eq!(flat.len(), self.param_len());
        match (self, &mut *out) {
            (TermPrior::Multinomial { .. }, TermParams::Multinomial { log_p })
                if log_p.len() == flat.len() =>
            {
                log_p.copy_from_slice(flat);
            }
            _ => *out = self.unflatten_params(flat),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normal_prior() -> TermPrior {
        TermPrior::Normal { mean0: 0.0, var0: 1.0, kappa0: 1.0, nu0: 1.0, min_sigma: 0.01 }
    }

    #[test]
    fn normal_map_shrinks_toward_prior() {
        let p = normal_prior();
        // 4 points at x=10 with total weight 4.
        let params = p.map_params(&[4.0, 40.0, 400.0]);
        match params {
            TermParams::Normal { mean, sigma, .. } => {
                // Posterior mean = (0*1 + 40)/5 = 8: pulled toward 0.
                assert!((mean - 8.0).abs() < 1e-12, "{mean}");
                assert!(sigma > 0.01);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn normal_map_with_no_data_is_prior() {
        let p = normal_prior();
        match p.map_params(&[0.0, 0.0, 0.0]) {
            TermParams::Normal { mean, sigma, .. } => {
                assert_eq!(mean, 0.0);
                assert!((sigma - 1.0).abs() < 1e-12);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn sigma_is_floored_at_measurement_error() {
        let p =
            TermPrior::Normal { mean0: 0.0, var0: 1e-12, kappa0: 1.0, nu0: 1.0, min_sigma: 0.5 };
        // Tight cluster at 0: raw sigma would be ~0.
        match p.map_params(&[100.0, 0.0, 0.0]) {
            TermParams::Normal { sigma, .. } => assert_eq!(sigma, 0.5),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn multinomial_map_is_smoothed() {
        let p = TermPrior::Multinomial { levels: 2, alpha: 0.5, missing_level: false };
        match p.map_params(&[3.0, 0.0]) {
            TermParams::Multinomial { log_p } => {
                let q0 = log_p[0].exp();
                let q1 = log_p[1].exp();
                assert!((q0 - 3.5 / 4.0).abs() < 1e-12);
                assert!((q1 - 0.5 / 4.0).abs() < 1e-12);
                assert!((q0 + q1 - 1.0).abs() < 1e-12);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn normal_log_prob_is_gaussian() {
        let t = TermParams::normal(1.0, 2.0);
        let lp = t.log_prob_real(1.0);
        // Density at the mean: -ln σ - 0.5 ln 2π
        assert!((lp - (-(2.0f64).ln() - 0.5 * LN_2PI)).abs() < 1e-12);
        assert!(t.log_prob_real(3.0) < lp);
        assert_eq!(t.log_prob_real(f64::NAN), 0.0);
    }

    #[test]
    fn log_normal_integrates_jacobian() {
        // LogNormal(0, 1) density at x = 1: ln x = 0, so density is
        // N(0|0,1) / 1.
        let t = TermParams::log_normal(0.0, 1.0);
        let lp = t.log_prob_real(1.0);
        assert!((lp - (-0.5 * LN_2PI)).abs() < 1e-12);
        // Same z-score but larger x has a smaller density (Jacobian).
        let t2 = TermParams::log_normal((10.0f64).ln(), 1.0);
        assert!(t2.log_prob_real(10.0) < lp);
    }

    #[test]
    fn batch_kernels_match_scalar() {
        let t = TermParams::normal(0.5, 1.5);
        let xs = [0.0, 1.0, f64::NAN, -3.0];
        let mut out = vec![0.0; 4];
        t.accumulate_log_prob_real(&xs, &[], &mut out);
        for (x, o) in xs.iter().zip(&out) {
            assert!((o - t.log_prob_real(*x)).abs() < 1e-12);
        }

        // A negative value has a NaN logarithm but is not missing: its
        // NaN density must reach the sum, not be skipped.
        let t = TermParams::log_normal(0.5, 1.5);
        let xs = [0.5, 1.0, f64::NAN, 7.0, -2.0];
        let ln_xs = xs.map(f64::ln);
        let mut out = vec![0.0; 5];
        t.accumulate_log_prob_real(&xs, &ln_xs, &mut out);
        for (x, o) in xs[..4].iter().zip(&out) {
            assert!((o - t.log_prob_real(*x)).abs() < 1e-12);
        }
        assert!(out[4].is_nan());

        let m = TermParams::Multinomial { log_p: vec![(0.25f64).ln(), (0.75f64).ln()] };
        let ls = [0u32, 1, crate::data::dataset::MISSING_DISCRETE, 1];
        let mut out = vec![0.0; 4];
        m.accumulate_log_prob_discrete(&ls, &mut out);
        for (l, o) in ls.iter().zip(&out) {
            assert!((o - m.log_prob_discrete(*l)).abs() < 1e-12);
        }
    }

    #[test]
    fn marginal_prefers_tight_data_given_same_count() {
        let p = normal_prior();
        // Tight around prior mean vs spread far away, same weight.
        let tight = p.log_marginal(&[10.0, 0.0, 0.1]);
        let spread = p.log_marginal(&[10.0, 0.0, 1000.0]);
        assert!(tight > spread);
        assert_eq!(p.log_marginal(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn marginal_is_a_proper_probability_for_multinomial() {
        // For one observation the Dirichlet-multinomial marginal must be
        // the prior predictive: P(level l) = alpha / (L * alpha) = 1/L.
        let p = TermPrior::Multinomial { levels: 4, alpha: 0.25, missing_level: false };
        let m = p.log_marginal(&[1.0, 0.0, 0.0, 0.0]);
        assert!((m - (0.25f64).ln()).abs() < 1e-10, "{m}");
    }

    #[test]
    fn nig_marginal_is_prior_predictive_for_one_point() {
        // One observation x under NIG(μ0=0, κ0=1, ν0=1, σ0²=1) has the
        // Student-t(ν0) predictive with scale sqrt((1+1/κ0)·σ0²)=sqrt(2).
        let m = nig_log_marginal(1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0);
        // t_1 (Cauchy) with scale sqrt(2) at x=0: ln(1/(π·sqrt(2))).
        let expect = (1.0 / (std::f64::consts::PI * 2.0f64.sqrt())).ln();
        assert!((m - expect).abs() < 1e-10, "{m} vs {expect}");
    }

    #[test]
    fn param_flatten_round_trip() {
        for (prior, params) in [
            (normal_prior(), TermParams::normal(1.5, 2.5)),
            (
                TermPrior::LogNormal {
                    mean0: 0.0,
                    var0: 1.0,
                    kappa0: 1.0,
                    nu0: 1.0,
                    min_sigma: 0.1,
                },
                TermParams::log_normal(-1.0, 0.5),
            ),
            (
                TermPrior::Multinomial { levels: 3, alpha: 1.0 / 3.0, missing_level: false },
                TermParams::Multinomial { log_p: vec![-1.0, -2.0, -0.5] },
            ),
        ] {
            let mut flat = Vec::new();
            params.to_flat(&mut flat);
            assert_eq!(flat.len(), prior.param_len());
            let back = prior.unflatten_params(&flat);
            assert_eq!(back, params);
        }
    }

    #[test]
    fn log_param_prior_is_finite() {
        let p = normal_prior();
        let params = p.map_params(&[10.0, 5.0, 30.0]);
        assert!(p.log_param_prior(&params).is_finite());

        let m = TermPrior::Multinomial { levels: 3, alpha: 1.0 / 3.0, missing_level: false };
        let params = m.map_params(&[1.0, 2.0, 3.0]);
        assert!(m.log_param_prior(&params).is_finite());
    }
}
