//! # datagen — seeded synthetic workloads for clustering experiments
//!
//! The paper evaluates P-AutoClass on a synthetic dataset of tuples with
//! two real attributes (5 000 to 100 000 tuples). This crate generates
//! that workload — and richer ones for the examples — reproducibly from a
//! `u64` seed.
//!
//! * [`paper_dataset`] — the Figure 6–8 workload: 2-D Gaussian mixture.
//! * [`GaussianMixture`] — general d-dimensional mixtures with per-
//!   component means/spreads/weights, returning planted labels.
//! * [`MixedMixture`] — real + discrete attributes per class.
//! * [`satellite_image`] — a raster of spectral signatures (the Landsat
//!   use case AutoClass was famously applied to, Kanefsky et al. 1994).
//! * [`protein_sequences`] — categorical sequence data (the Hunter &
//!   States protein-classification use case).
//! * [`inject_missing`] — random missing-value injection.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use autoclass::data::{Attribute, Column, Dataset, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A standard normal draw (Box–Muller; avoids a rand_distr dependency).
fn std_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draw a component index from normalized weights.
fn draw_component(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u: f64 = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

/// One Gaussian component: isotropic with a per-dimension mean.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Component mean, one entry per dimension.
    pub mean: Vec<f64>,
    /// Isotropic standard deviation (> 0).
    pub sigma: f64,
    /// Unnormalized mixing weight (> 0).
    pub weight: f64,
}

/// A d-dimensional Gaussian mixture generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianMixture {
    /// Mixture components; all means must share one dimensionality.
    pub components: Vec<Component>,
    /// Measurement error recorded in the generated schema.
    pub error: f64,
}

impl GaussianMixture {
    /// `k` well-separated components arranged on a circle in `dims`
    /// dimensions (the first two dimensions carry the circle; the rest
    /// are unit noise around 0).
    pub fn well_separated(k: usize, dims: usize, separation: f64) -> Self {
        assert!(k >= 1 && dims >= 1);
        let components = (0..k)
            .map(|c| {
                let angle = 2.0 * std::f64::consts::PI * c as f64 / k as f64;
                let mut mean = vec![0.0; dims];
                mean[0] = separation * angle.cos();
                if dims > 1 {
                    mean[1] = separation * angle.sin();
                }
                Component { mean, sigma: 1.0, weight: 1.0 }
            })
            .collect();
        GaussianMixture { components, error: 0.01 }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.components.first().map_or(0, |c| c.mean.len())
    }

    /// Generate `n` items; returns the dataset and the planted component
    /// label of each item.
    pub fn generate(&self, n: usize, seed: u64) -> (Dataset, Vec<usize>) {
        assert!(!self.components.is_empty(), "mixture needs components");
        let dims = self.dims();
        assert!(
            self.components.iter().all(|c| c.mean.len() == dims),
            "all components must share a dimensionality"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = self.components.iter().map(|c| c.weight).collect();
        let mut cols: Vec<Vec<f64>> = vec![Vec::with_capacity(n); dims];
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let c = draw_component(&mut rng, &weights);
            labels.push(c);
            let comp = &self.components[c];
            for (d, col) in cols.iter_mut().enumerate() {
                col.push(comp.mean[d] + comp.sigma * std_normal(&mut rng));
            }
        }
        let schema = Schema::reals(dims, self.error);
        let data = Dataset::from_columns(schema, cols.into_iter().map(Column::Real).collect());
        (data, labels)
    }
}

/// The paper's synthetic workload: `n` tuples of two real attributes drawn
/// from `k` well-separated Gaussian clusters. The paper does not state its
/// cluster count; the experiments ask the system to *find* the structure
/// starting from `start_j_list`, so any well-separated k exercises the
/// same code paths. We default to 8 (matching the scaleup runs that group
/// data into 8 and 16 clusters).
pub fn paper_dataset(n: usize, seed: u64) -> Dataset {
    GaussianMixture::well_separated(8, 2, 12.0).generate(n, seed).0
}

/// Per-class spec of a mixed real/discrete generator.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedClass {
    /// Means of the real attributes.
    pub means: Vec<f64>,
    /// Shared standard deviation of the real attributes.
    pub sigma: f64,
    /// Per discrete attribute: level probabilities (normalized here).
    pub level_probs: Vec<Vec<f64>>,
    /// Unnormalized mixing weight.
    pub weight: f64,
}

/// Generator of datasets with both real and discrete attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedMixture {
    /// The classes; all must agree on attribute counts and level counts.
    pub classes: Vec<MixedClass>,
    /// Measurement error for the real attributes.
    pub error: f64,
}

impl MixedMixture {
    /// Generate `n` items; returns dataset and planted labels.
    pub fn generate(&self, n: usize, seed: u64) -> (Dataset, Vec<usize>) {
        assert!(!self.classes.is_empty(), "mixture needs classes");
        let first = &self.classes[0];
        let n_real = first.means.len();
        let n_disc = first.level_probs.len();
        for c in &self.classes {
            assert_eq!(c.means.len(), n_real, "real attribute count mismatch");
            assert_eq!(c.level_probs.len(), n_disc, "discrete attribute count mismatch");
            for (k, lp) in c.level_probs.iter().enumerate() {
                assert_eq!(
                    lp.len(),
                    first.level_probs[k].len(),
                    "level count mismatch at discrete attribute {k}"
                );
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = self.classes.iter().map(|c| c.weight).collect();
        let mut real_cols: Vec<Vec<f64>> = vec![Vec::with_capacity(n); n_real];
        let mut disc_cols: Vec<Vec<u32>> = vec![Vec::with_capacity(n); n_disc];
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let ci = draw_component(&mut rng, &weights);
            labels.push(ci);
            let class = &self.classes[ci];
            for (d, col) in real_cols.iter_mut().enumerate() {
                col.push(class.means[d] + class.sigma * std_normal(&mut rng));
            }
            for (k, col) in disc_cols.iter_mut().enumerate() {
                col.push(draw_component(&mut rng, &class.level_probs[k]) as u32);
            }
        }
        let mut attrs: Vec<Attribute> =
            (0..n_real).map(|d| Attribute::real(format!("x{d}"), self.error)).collect();
        for (k, lp) in first.level_probs.iter().enumerate() {
            attrs.push(Attribute::discrete(format!("d{k}"), lp.len()));
        }
        let schema = Schema::new(attrs);
        let mut cols: Vec<Column> = real_cols.into_iter().map(Column::Real).collect();
        cols.extend(disc_cols.into_iter().map(Column::Discrete));
        (Dataset::from_columns(schema, cols), labels)
    }
}

/// A synthetic "satellite image": a `side × side` raster whose pixels
/// belong to spatially coherent land-cover regions, each with a distinct
/// spectral signature over `bands` channels. Returned flattened to one
/// tuple per pixel (plus the planted cover label per pixel) — the shape of
/// the Landsat classification task AutoClass took >130 hours on.
///
/// Spatial coherence comes from assigning covers by thresholded low-
/// frequency sinusoids, so regions are contiguous rather than salt-and-
/// pepper; the clustering itself only sees the spectra.
pub fn satellite_image(
    side: usize,
    bands: usize,
    covers: usize,
    seed: u64,
) -> (Dataset, Vec<usize>) {
    assert!(covers >= 2 && bands >= 1 && side >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    // Spectral signature per cover: distinct band means in [20, 220].
    let signatures: Vec<Vec<f64>> = (0..covers)
        .map(|c| {
            (0..bands)
                .map(|b| {
                    let t = ((c * bands + b) as f64 * 0.618_033_9).fract();
                    20.0 + 200.0 * t + rng.gen_range(-5.0..5.0)
                })
                .collect()
        })
        .collect();
    let noise = 6.0;
    let (fx, fy): (f64, f64) = (rng.gen_range(1.0..3.0), rng.gen_range(1.0..3.0));
    let mut cols: Vec<Vec<f64>> = vec![Vec::with_capacity(side * side); bands];
    let mut labels = Vec::with_capacity(side * side);
    for y in 0..side {
        for x in 0..side {
            let u = x as f64 / side as f64;
            let v = y as f64 / side as f64;
            // Smooth field in [0,1) → cover index: contiguous regions.
            let field = 0.5
                + 0.25 * (2.0 * std::f64::consts::PI * fx * u).sin()
                + 0.25 * (2.0 * std::f64::consts::PI * fy * v).cos();
            let cover = ((field.rem_euclid(1.0)) * covers as f64) as usize % covers;
            labels.push(cover);
            for (b, col) in cols.iter_mut().enumerate() {
                col.push(signatures[cover][b] + noise * std_normal(&mut rng));
            }
        }
    }
    let schema =
        Schema::new((0..bands).map(|b| Attribute::real(format!("band{b}"), 1.0)).collect());
    let data = Dataset::from_columns(schema, cols.into_iter().map(Column::Real).collect());
    (data, labels)
}

/// Synthetic "protein-like" sequences: `n` items, each a sequence of
/// `positions` categorical attributes over an `alphabet`-letter alphabet,
/// generated from `families` position-specific level distributions (the
/// Hunter & States Bayesian protein-classification setting).
pub fn protein_sequences(
    n: usize,
    positions: usize,
    alphabet: usize,
    families: usize,
    seed: u64,
) -> (Dataset, Vec<usize>) {
    assert!(alphabet >= 2 && families >= 1 && positions >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    // Each family strongly prefers one letter per position.
    let prefs: Vec<Vec<usize>> = (0..families)
        .map(|_| (0..positions).map(|_| rng.gen_range(0..alphabet)).collect())
        .collect();
    let mut cols: Vec<Vec<u32>> = vec![Vec::with_capacity(n); positions];
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let fam = rng.gen_range(0..families);
        labels.push(fam);
        for (p, col) in cols.iter_mut().enumerate() {
            // 70 % the family's preferred letter, otherwise uniform.
            let letter = if rng.gen_bool(0.7) { prefs[fam][p] } else { rng.gen_range(0..alphabet) };
            col.push(letter as u32);
        }
    }
    let schema = Schema::new(
        (0..positions).map(|p| Attribute::discrete(format!("pos{p}"), alphabet)).collect(),
    );
    let data = Dataset::from_columns(schema, cols.into_iter().map(Column::Discrete).collect());
    (data, labels)
}

/// Two-dimensional Gaussian blobs with a *common within-class
/// correlation* ρ — the workload that separates AutoClass's independent
/// (`single_normal_cn`) and correlated (`multi_normal_cn`) model
/// structures. `k` components on a circle of radius `separation`, unit
/// marginal variances, correlation `rho` in (−1, 1).
pub fn correlated_blobs(
    k: usize,
    separation: f64,
    rho: f64,
    n: usize,
    seed: u64,
) -> (Dataset, Vec<usize>) {
    assert!(rho.abs() < 1.0, "correlation must be in (-1, 1)");
    let mut rng = StdRng::seed_from_u64(seed);
    // Cholesky of [[1, ρ], [ρ, 1]]: L = [[1, 0], [ρ, sqrt(1-ρ²)]].
    let l21 = rho;
    let l22 = (1.0 - rho * rho).sqrt();
    let mut c0 = Vec::with_capacity(n);
    let mut c1 = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let c = rng.gen_range(0..k);
        labels.push(c);
        let angle = 2.0 * std::f64::consts::PI * c as f64 / k as f64;
        let (mx, my) = (separation * angle.cos(), separation * angle.sin());
        let z1 = std_normal(&mut rng);
        let z2 = std_normal(&mut rng);
        c0.push(mx + z1);
        c1.push(my + l21 * z1 + l22 * z2);
    }
    let schema = Schema::reals(2, 0.01);
    let data = Dataset::from_columns(schema, vec![Column::Real(c0), Column::Real(c1)]);
    (data, labels)
}

/// A mixture of log-normal components over strictly positive attributes
/// (e.g. incomes, masses, durations) — exercises AutoClass's
/// `single_normal_ln` term. Component `c` has per-dimension medians
/// `medians[c]` and a shared log-scale sigma.
#[derive(Debug, Clone, PartialEq)]
pub struct LogNormalMixture {
    /// Per-component, per-dimension medians (> 0).
    pub medians: Vec<Vec<f64>>,
    /// Standard deviation on the ln scale (shared).
    pub ln_sigma: f64,
    /// Relative measurement error recorded in the schema.
    pub error: f64,
}

impl LogNormalMixture {
    /// Generate `n` items; returns dataset (PositiveReal attributes) and
    /// planted labels.
    pub fn generate(&self, n: usize, seed: u64) -> (Dataset, Vec<usize>) {
        assert!(!self.medians.is_empty(), "mixture needs components");
        let dims = self.medians[0].len();
        assert!(
            self.medians.iter().all(|m| m.len() == dims && m.iter().all(|&x| x > 0.0)),
            "medians must be positive and share a dimensionality"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let k = self.medians.len();
        let mut cols: Vec<Vec<f64>> = vec![Vec::with_capacity(n); dims];
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let c = rng.gen_range(0..k);
            labels.push(c);
            for (d, col) in cols.iter_mut().enumerate() {
                let ln_x = self.medians[c][d].ln() + self.ln_sigma * std_normal(&mut rng);
                col.push(ln_x.exp());
            }
        }
        let schema = Schema::new(
            (0..dims).map(|d| Attribute::positive_real(format!("m{d}"), self.error)).collect(),
        );
        let data = Dataset::from_columns(schema, cols.into_iter().map(Column::Real).collect());
        (data, labels)
    }
}

/// Replace a fraction of values with missing, uniformly at random, and
/// return a new dataset. `fraction` in [0, 1].
pub fn inject_missing(data: &Dataset, fraction: f64, seed: u64) -> Dataset {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let view = data.full_view();
    let schema = data.schema().clone();
    let cols =
        schema
            .attributes
            .iter()
            .enumerate()
            .map(|(c, attr)| match attr.kind {
                autoclass::data::AttributeKind::Real { .. }
                | autoclass::data::AttributeKind::PositiveReal { .. } => Column::Real(
                    view.real_column(c)
                        .iter()
                        .map(|&x| if rng.gen_bool(fraction) { f64::NAN } else { x })
                        .collect(),
                ),
                autoclass::data::AttributeKind::Discrete { .. } => Column::Discrete(
                    view.discrete_column(c)
                        .iter()
                        .map(|&l| {
                            if rng.gen_bool(fraction) {
                                autoclass::data::MISSING_DISCRETE
                            } else {
                                l
                            }
                        })
                        .collect(),
                ),
            })
            .collect();
    Dataset::from_columns(schema, cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dataset_shape() {
        let d = paper_dataset(500, 1);
        assert_eq!(d.len(), 500);
        assert_eq!(d.schema().len(), 2);
        assert!(d.schema().attributes.iter().all(|a| a.kind.is_real()));
    }

    #[test]
    fn generation_is_reproducible() {
        let a = paper_dataset(200, 7);
        let b = paper_dataset(200, 7);
        assert_eq!(a, b);
        let c = paper_dataset(200, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn labels_cover_all_components() {
        let gm = GaussianMixture::well_separated(5, 3, 20.0);
        let (d, labels) = gm.generate(1000, 3);
        assert_eq!(d.len(), 1000);
        assert_eq!(d.schema().len(), 3);
        for c in 0..5 {
            assert!(labels.contains(&c), "component {c} unused");
        }
    }

    #[test]
    fn separated_clusters_are_actually_separated() {
        let gm = GaussianMixture::well_separated(3, 2, 30.0);
        let (d, labels) = gm.generate(600, 5);
        let v = d.full_view();
        // Mean of each planted cluster on dim 0 should be close to its
        // component mean (within a few standard errors).
        for c in 0..3 {
            let xs: Vec<f64> = v
                .real_column(0)
                .iter()
                .zip(&labels)
                .filter(|&(_, &l)| l == c)
                .map(|(&x, _)| x)
                .collect();
            let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
            assert!((mean - gm.components[c].mean[0]).abs() < 0.5, "component {c}: {mean}");
        }
    }

    #[test]
    fn mixed_mixture_generates_both_kinds() {
        let mm = MixedMixture {
            classes: vec![
                MixedClass {
                    means: vec![-5.0],
                    sigma: 1.0,
                    level_probs: vec![vec![0.9, 0.1]],
                    weight: 1.0,
                },
                MixedClass {
                    means: vec![5.0],
                    sigma: 1.0,
                    level_probs: vec![vec![0.1, 0.9]],
                    weight: 1.0,
                },
            ],
            error: 0.01,
        };
        let (d, labels) = mm.generate(400, 9);
        assert_eq!(d.schema().len(), 2);
        let v = d.full_view();
        // Class-0 items should mostly carry level 0.
        let mut hits = 0;
        let mut total = 0;
        for (i, &l) in labels.iter().enumerate() {
            if l == 0 {
                total += 1;
                if v.discrete_column(1)[i] == 0 {
                    hits += 1;
                }
            }
        }
        assert!(hits as f64 > 0.7 * total as f64, "{hits}/{total}");
    }

    #[test]
    fn satellite_image_has_coherent_regions() {
        let side = 64;
        let (d, labels) = satellite_image(side, 4, 4, 11);
        assert_eq!(d.len(), side * side);
        assert_eq!(d.schema().len(), 4);
        // Spatial coherence: most horizontal neighbors share a cover
        // (far more than the 1/covers = 25 % a random scatter would give).
        let mut same = 0;
        let mut total = 0;
        for y in 0..side {
            for x in 0..side - 1 {
                total += 1;
                if labels[y * side + x] == labels[y * side + x + 1] {
                    same += 1;
                }
            }
        }
        assert!(same as f64 > 0.75 * total as f64, "{same}/{total}");
    }

    #[test]
    fn protein_sequences_are_family_biased() {
        let (d, labels) = protein_sequences(300, 10, 4, 3, 13);
        assert_eq!(d.len(), 300);
        assert_eq!(d.schema().len(), 10);
        assert!(labels.iter().all(|&f| f < 3));
        // Each column stays within the alphabet.
        let v = d.full_view();
        for p in 0..10 {
            assert!(v.discrete_column(p).iter().all(|&l| l < 4));
        }
    }

    #[test]
    fn lognormal_mixture_is_positive_and_labeled() {
        let lm = LogNormalMixture {
            medians: vec![vec![1.0, 10.0], vec![100.0, 0.5]],
            ln_sigma: 0.3,
            error: 0.05,
        };
        let (d, labels) = lm.generate(500, 21);
        assert_eq!(d.len(), 500);
        assert_eq!(d.schema().len(), 2);
        let v = d.full_view();
        for c in 0..2 {
            assert!(v.real_column(c).iter().all(|&x| x > 0.0));
        }
        assert!(labels.contains(&0) && labels.contains(&1));
        // Median of component-0 items on dim 0 should be near 1.0 (ln ≈ 0).
        let mut xs: Vec<f64> = v
            .real_column(0)
            .iter()
            .zip(&labels)
            .filter(|&(_, &l)| l == 0)
            .map(|(&x, _)| x)
            .collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[xs.len() / 2];
        assert!((median.ln()).abs() < 0.2, "median {median}");
    }

    #[test]
    fn inject_missing_hits_roughly_the_fraction() {
        let d = paper_dataset(2000, 3);
        let dm = inject_missing(&d, 0.25, 4);
        let v = dm.full_view();
        let missing = v.real_column(0).iter().filter(|x| x.is_nan()).count();
        let frac = missing as f64 / 2000.0;
        assert!((frac - 0.25).abs() < 0.05, "{frac}");
        // Zero fraction is the identity.
        let d0 = inject_missing(&d, 0.0, 4);
        assert_eq!(d0, d);
    }
}
