//! The AutoClass search: `base_cycle`, classification tries, and the
//! `BIG_LOOP` over the number of classes.
//!
//! Structure mirrors the sequential AutoClass C program the paper
//! parallelizes (its Figures 1–3):
//!
//! ```text
//! BIG_LOOP {
//!   select the number of classes (from start_j_list)
//!   new classification try:            // the hot part
//!     repeat base_cycle {
//!       update_wts                      // E-step
//!       update_parameters               // M-step
//!       update_approximations           // scoring + convergence
//!     } until converged or max_cycles
//!   duplicates elimination
//!   select the best classification
//! }
//! ```

use std::time::Instant;

use crate::data::dataset::DataView;
use crate::data::stats::GlobalStats;
use crate::model::{
    converged, evaluate, init_classes, log_param_prior, stats_to_classes_into, update_wts_into,
    Approximation, ClassParams, CycleWorkspace, Model,
};

/// Search configuration. Defaults reproduce the paper's experimental setup
/// where it is specified (`start_j_list = 2,4,8,16,24,50,64`).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Numbers of classes to try (the paper's `start_j_list`).
    pub start_j_list: Vec<usize>,
    /// Random restarts per entry of `start_j_list`.
    pub tries_per_j: usize,
    /// Hard cap on EM cycles per try.
    pub max_cycles: usize,
    /// Relative log-likelihood change below which a try has converged.
    pub rel_delta_ll: f64,
    /// Classes whose expected count falls below this are removed
    /// ("class death"), shrinking J during a try.
    pub min_class_weight: f64,
    /// Base random seed; every try derives its own stream from it.
    pub seed: u64,
    /// How many best classifications to keep in the result.
    pub max_stored: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            start_j_list: vec![2, 4, 8, 16, 24, 50, 64],
            tries_per_j: 2,
            max_cycles: 200,
            rel_delta_ll: 1e-6,
            min_class_weight: 1.0,
            seed: 0xAC1A55,
            max_stored: 10,
        }
    }
}

impl SearchConfig {
    /// A small configuration for tests and examples: few classes, few
    /// tries, loose convergence.
    pub fn quick(start_j_list: Vec<usize>, seed: u64) -> Self {
        SearchConfig {
            start_j_list,
            tries_per_j: 1,
            max_cycles: 50,
            rel_delta_ll: 1e-5,
            seed,
            ..SearchConfig::default()
        }
    }
}

/// A finished classification (one try's result).
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Final MAP class parameters, sorted by decreasing weight.
    pub classes: Vec<ClassParams>,
    /// The J the try started with.
    pub j_initial: usize,
    /// Scores at the final cycle.
    pub approx: Approximation,
    /// Log prior density of the final parameters (reporting).
    pub log_prior: f64,
    /// EM cycles run.
    pub cycles: usize,
    /// Whether the convergence criterion fired (vs hitting `max_cycles`).
    pub converged: bool,
    /// The seed this try ran with.
    pub seed: u64,
}

impl Classification {
    /// Effective number of classes after class death.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// The ranking score (Cheeseman–Stutz marginal estimate).
    pub fn score(&self) -> f64 {
        self.approx.cs_score
    }
}

/// Wall-clock seconds spent per phase — the measurement behind the paper's
/// claim that `base_cycle` is ~99.5 % of runtime with `update_wts` and
/// `update_parameters` dominating.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseProfile {
    /// Initialization (structure setup + random class seeding).
    pub init: f64,
    /// `update_wts` total.
    pub wts: f64,
    /// `update_parameters` total.
    pub params: f64,
    /// `update_approximations` total.
    pub approx: f64,
    /// Everything else in the search loop.
    pub other: f64,
    /// Total EM cycles across all tries.
    pub cycles: usize,
}

impl PhaseProfile {
    /// Total profiled time.
    pub fn total(&self) -> f64 {
        self.init + self.wts + self.params + self.approx + self.other
    }

    /// Fraction of time in `base_cycle` (wts+params+approx).
    pub fn base_cycle_fraction(&self) -> f64 {
        let t = self.total();
        if t > 0.0 {
            (self.wts + self.params + self.approx) / t
        } else {
            0.0
        }
    }
}

/// Result of a whole search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best classification by CS score.
    pub best: Classification,
    /// All retained classifications, best first, duplicates removed.
    pub all: Vec<Classification>,
    /// Phase timing.
    pub profile: PhaseProfile,
}

/// One EM cycle (`base_cycle`): E-step, M-step, scoring. Updates `classes`
/// in place and returns the cycle's scores. Shared verbatim by the parallel
/// driver, which inserts Allreduces between the same phases.
///
/// Every buffer the cycle needs lives in `ws`: after the first cycle at a
/// given model shape, a call performs no heap allocation (asserted by the
/// counting-allocator test in `tests/alloc_free.rs`; correlated-Gaussian
/// models are the documented exception — their NIW M-step rebuilds a
/// Cholesky factor).
pub fn base_cycle(
    model: &Model,
    view: &DataView<'_>,
    classes: &mut Vec<ClassParams>,
    ws: &mut CycleWorkspace,
    profile: &mut PhaseProfile,
) -> Approximation {
    ws.reset_stats(model, classes.len());
    let CycleWorkspace { wts, estep, stats, .. } = ws;
    let Some(stats) = stats else { unreachable!("reset_stats installs the statistics buffer") };

    let t0 = Instant::now();
    let e = update_wts_into(model, view, classes, wts, estep);
    let t1 = Instant::now();
    profile.wts += (t1 - t0).as_secs_f64();

    stats.accumulate(model, view, wts);
    stats_to_classes_into(model, stats, classes);
    let t2 = Instant::now();
    profile.params += (t2 - t1).as_secs_f64();

    let approx = evaluate(model, stats, e.log_likelihood, e.complete_ll);
    profile.approx += t2.elapsed().as_secs_f64();
    profile.cycles += 1;

    approx
}

/// Whether class `c` survives class death: its expected count reaches
/// `min_weight`, or it is the heaviest class (weight `max_w`), which is
/// kept unconditionally so J ≥ 1.
fn survives(c: &ClassParams, min_weight: f64, max_w: f64) -> bool {
    c.weight >= min_weight || c.weight == max_w
}

fn heaviest(classes: &[ClassParams]) -> f64 {
    classes.iter().map(|c| c.weight).fold(f64::NEG_INFINITY, f64::max)
}

/// Whether [`apply_class_death`] would remove a class, without touching
/// `classes`.
pub fn class_death_due(classes: &[ClassParams], min_weight: f64) -> bool {
    let max_w = heaviest(classes);
    classes.len() > 1 && !classes.iter().all(|c| survives(c, min_weight, max_w))
}

/// Remove classes whose expected count dropped below the threshold.
/// Returns true when anything was removed. Never removes the last class.
pub fn apply_class_death(classes: &mut Vec<ClassParams>, min_weight: f64) -> bool {
    if classes.len() <= 1 {
        return false;
    }
    let before = classes.len();
    let max_w = heaviest(classes);
    classes.retain(|c| survives(c, min_weight, max_w));
    if classes.is_empty() {
        unreachable!("the heaviest class is always retained");
    }
    classes.len() != before
}

/// Run one classification try: initialize J classes, cycle to convergence.
/// The caller-provided workspace is reused across tries (and across the
/// whole `BIG_LOOP`), so steady-state cycles are allocation-free.
pub fn try_classification(
    model: &Model,
    view: &DataView<'_>,
    j: usize,
    config: &SearchConfig,
    seed: u64,
    ws: &mut CycleWorkspace,
    profile: &mut PhaseProfile,
) -> Classification {
    let t0 = Instant::now();
    let mut classes = init_classes(model, view, j, seed);
    profile.init += t0.elapsed().as_secs_f64();

    let mut prev_ll = f64::NEG_INFINITY;
    let mut cycles = 0;
    let mut did_converge = false;
    let mut approx = Approximation {
        log_likelihood: f64::NEG_INFINITY,
        complete_ll: f64::NEG_INFINITY,
        complete_marginal: f64::NEG_INFINITY,
        cs_score: f64::NEG_INFINITY,
    };
    while cycles < config.max_cycles {
        let a = base_cycle(model, view, &mut classes, ws, profile);
        approx = a;
        cycles += 1;
        // Class death restarts the convergence watch: the likelihood
        // landscape changed.
        if apply_class_death(&mut classes, config.min_class_weight) {
            prev_ll = f64::NEG_INFINITY;
            continue;
        }
        if converged(prev_ll, a.log_likelihood, config.rel_delta_ll) {
            did_converge = true;
            break;
        }
        prev_ll = a.log_likelihood;
    }

    let t3 = Instant::now();
    classes.sort_by(|a, b| b.weight.total_cmp(&a.weight));
    let log_prior = log_param_prior(model, &classes);
    profile.other += t3.elapsed().as_secs_f64();

    Classification {
        classes,
        j_initial: j,
        approx,
        log_prior,
        cycles,
        converged: did_converge,
        seed,
    }
}

/// Are two classifications duplicates? AutoClass removes re-discoveries of
/// the same solution from different starts. We call two results duplicates
/// when they have the same effective J, nearly equal scores, and nearly
/// equal sorted class-weight vectors.
pub fn is_duplicate(a: &Classification, b: &Classification) -> bool {
    if a.n_classes() != b.n_classes() {
        return false;
    }
    let score_close = (a.score() - b.score()).abs() <= 1e-4 * a.score().abs().max(1.0);
    if !score_close {
        return false;
    }
    // Classes are sorted by weight already.
    let n = a.classes.iter().map(|c| c.weight).sum::<f64>().max(1.0);
    a.classes.iter().zip(&b.classes).all(|(x, y)| (x.weight - y.weight).abs() <= 0.01 * n)
}

/// The full search (`BIG_LOOP`): every J in `start_j_list`, several tries
/// each, duplicate elimination, best-first ranking.
pub fn search(view: &DataView<'_>, config: &SearchConfig) -> SearchResult {
    let stats = GlobalStats::compute(view);
    let model = Model::new(view.schema().clone(), &stats);
    search_with_model(view, &model, config)
}

/// [`search`] against an explicit model structure (e.g. one built with
/// [`Model::with_correlated`]).
pub fn search_with_model(
    view: &DataView<'_>,
    model: &Model,
    config: &SearchConfig,
) -> SearchResult {
    let t0 = Instant::now();
    let model = model.clone();
    let mut profile = PhaseProfile::default();
    profile.init += t0.elapsed().as_secs_f64();

    // One workspace for the whole BIG_LOOP: the weight matrix, scratch
    // buffers, and statistics grow to their high-water mark on the first
    // try and are reused by every subsequent cycle.
    let mut ws = CycleWorkspace::new();
    let mut all: Vec<Classification> = Vec::new();
    for (ji, &j) in config.start_j_list.iter().enumerate() {
        for t in 0..config.tries_per_j {
            let seed = crate::model::derive_seed(config.seed, (ji * config.tries_per_j + t) as u64);
            let c = try_classification(&model, view, j, config, seed, &mut ws, &mut profile);
            let tx = Instant::now();
            if !all.iter().any(|existing| is_duplicate(existing, &c)) {
                all.push(c);
            }
            profile.other += tx.elapsed().as_secs_f64();
        }
    }
    let tx = Instant::now();
    all.sort_by(|a, b| b.score().total_cmp(&a.score()));
    all.truncate(config.max_stored);
    profile.other += tx.elapsed().as_secs_f64();

    // lint:allow(unwrap): the config validation guarantees at least one try
    let best = all.first().expect("at least one try ran").clone();
    SearchResult { best, all, profile }
}

/// AutoClass's *model-level* search: given candidate attribute structures
/// (each a list of correlated blocks; the empty list is the default
/// all-independent structure), run the parameter-level search under each
/// and rank the structures by their best Cheeseman–Stutz score. Returns
/// `(block list, result)` pairs, best structure first.
///
/// This is the second of the paper's two search levels ("regardless of
/// any V, AutoClass searches for the most probable T").
pub fn compare_structures(
    view: &DataView<'_>,
    candidates: &[Vec<Vec<usize>>],
    config: &SearchConfig,
) -> Vec<(Vec<Vec<usize>>, SearchResult)> {
    assert!(!candidates.is_empty(), "need at least one candidate structure");
    let stats = GlobalStats::compute(view);
    let mut out: Vec<(Vec<Vec<usize>>, SearchResult)> = candidates
        .iter()
        .map(|blocks| {
            let model = if blocks.is_empty() {
                Model::new(view.schema().clone(), &stats)
            } else {
                Model::with_correlated(view.schema().clone(), &stats, blocks)
            };
            (blocks.clone(), search_with_model(view, &model, config))
        })
        .collect();
    out.sort_by(|a, b| b.1.best.score().total_cmp(&a.1.best.score()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::dataset::{Dataset, Value};
    use crate::data::schema::Schema;

    /// Three well-separated 2-D Gaussian blobs, deterministic.
    fn blobs(n_per: usize) -> Dataset {
        let schema = Schema::reals(2, 0.05);
        let centers = [(-8.0, -8.0), (0.0, 8.0), (8.0, -4.0)];
        let mut rows = Vec::new();
        for i in 0..n_per {
            for (cx, cy) in centers {
                let a = (i as f64 * 0.7).sin();
                let b = (i as f64 * 1.3).cos();
                rows.push(vec![Value::Real(cx + a), Value::Real(cy + b)]);
            }
        }
        Dataset::from_rows(schema, &rows)
    }

    #[test]
    fn search_recovers_planted_cluster_count() {
        let data = blobs(60);
        let config = SearchConfig {
            start_j_list: vec![1, 2, 3, 4, 6],
            tries_per_j: 2,
            max_cycles: 60,
            ..SearchConfig::default()
        };
        let result = search(&data.full_view(), &config);
        assert_eq!(
            result.best.n_classes(),
            3,
            "expected 3 classes, scores: {:?}",
            result.all.iter().map(|c| (c.n_classes(), c.score())).collect::<Vec<_>>()
        );
        assert!(result.best.converged);
    }

    #[test]
    fn tries_are_reproducible() {
        let data = blobs(20);
        let config = SearchConfig::quick(vec![3], 99);
        let a = search(&data.full_view(), &config);
        let b = search(&data.full_view(), &config);
        assert_eq!(a.best.classes, b.best.classes);
        assert_eq!(a.best.approx, b.best.approx);
    }

    #[test]
    fn class_death_removes_empty_classes() {
        let data = blobs(40);
        // Ask for far more classes than the data supports.
        let config = SearchConfig {
            start_j_list: vec![10],
            tries_per_j: 3,
            max_cycles: 80,
            ..SearchConfig::default()
        };
        let result = search(&data.full_view(), &config);
        assert!(
            result.best.n_classes() < 10,
            "class death should prune, got {}",
            result.best.n_classes()
        );
    }

    #[test]
    fn apply_class_death_keeps_heaviest() {
        let mk = |w: f64| ClassParams::new(w, 0.5, vec![]);
        let mut classes = vec![mk(0.1), mk(0.2)];
        // Both below threshold: the heaviest must survive.
        let removed = apply_class_death(&mut classes, 1.0);
        assert!(removed);
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].weight, 0.2);
    }

    #[test]
    fn profile_accounts_for_base_cycle_dominance() {
        let data = blobs(80);
        let config = SearchConfig::quick(vec![3, 5], 7);
        let result = search(&data.full_view(), &config);
        // The paper measured ~99.5 %; on tiny data the constant parts are
        // relatively bigger, so just require clear dominance.
        assert!(
            result.profile.base_cycle_fraction() > 0.5,
            "fraction = {}",
            result.profile.base_cycle_fraction()
        );
        assert!(result.profile.cycles > 0);
    }

    #[test]
    fn classifications_sorted_by_score() {
        let data = blobs(30);
        let config = SearchConfig {
            start_j_list: vec![1, 3],
            tries_per_j: 2,
            ..SearchConfig::quick(vec![], 3)
        };
        let result = search(&data.full_view(), &config);
        for w in result.all.windows(2) {
            assert!(w[0].score() >= w[1].score());
        }
        assert_eq!(result.best.score(), result.all[0].score());
    }

    #[test]
    fn duplicate_detection() {
        let data = blobs(30);
        let config = SearchConfig::quick(vec![3], 5);
        let result = search(&data.full_view(), &config);
        let c = &result.best;
        assert!(is_duplicate(c, c));
        let mut other = c.clone();
        other.approx.cs_score += 100.0;
        assert!(!is_duplicate(c, &other));
    }
}
