//! # kmeans — sequential and message-passing parallel k-means
//!
//! The hard-assignment counterpart to AutoClass, included as the
//! related-work baseline (the paper cites Stoffel & Belkoniene's parallel
//! k-means for large data sets, Euro-Par '99). The parallel version uses
//! the same SPMD pattern as P-AutoClass — block-partitioned data, one
//! Allreduce of per-cluster sums and counts per iteration — so the two
//! algorithms can be compared on identical simulated machines.
//!
//! Works on the real attributes of a dataset (k-means has no natural
//! treatment of categorical attributes; schemas with discrete columns are
//! rejected). Missing values are rejected too: Lloyd's algorithm needs
//! complete vectors.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use autoclass::data::{block_range, DataView, Dataset};
use mpsim::{run_spmd, Comm, MachineSpec, RankStats, ReduceOp, SimError, SimOptions, SpmdComm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// k-means configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence threshold on total centroid movement (L2).
    pub tol: f64,
    /// Seed for the k-means++-style initialization.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig { k: 8, max_iters: 100, tol: 1e-6, seed: 1 }
    }
}

/// Fitted k-means model.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster centroids, `k × d`.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances of items to their centroids.
    pub inertia: f64,
    /// Iterations actually run.
    pub iterations: usize,
    /// Whether centroid movement fell below the tolerance.
    pub converged: bool,
}

/// Validate that the view is all-real with no missing values and return
/// its dimensionality.
fn check_dims(view: &DataView<'_>) -> usize {
    let schema = view.schema();
    for (c, a) in schema.attributes.iter().enumerate() {
        assert!(a.kind.is_real(), "k-means requires real attributes (column {c} is discrete)");
        assert!(
            !view.real_column(c).iter().any(|x| x.is_nan()),
            "k-means requires complete data (column {c} has missing values)"
        );
    }
    schema.len()
}

/// Squared Euclidean distance between an item (row `i` of `view`) and a
/// centroid.
fn dist2(view: &DataView<'_>, i: usize, centroid: &[f64]) -> f64 {
    centroid
        .iter()
        .enumerate()
        .map(|(c, &m)| {
            let d = view.real_column(c)[i] - m;
            d * d
        })
        .sum()
}

/// k-means++-style initialization over a view: first centroid uniform,
/// subsequent ones proportional to squared distance from the nearest
/// chosen centroid.
pub fn init_centroids(view: &DataView<'_>, k: usize, seed: u64) -> Vec<Vec<f64>> {
    let d = check_dims(view);
    let n = view.len();
    assert!(n > 0, "cannot initialize centroids from an empty view");
    let mut rng = StdRng::seed_from_u64(seed);
    let row = |i: usize| -> Vec<f64> { (0..d).map(|c| view.real_column(c)[i]).collect() };

    let mut centroids = vec![row(rng.gen_range(0..n))];
    let mut d2: Vec<f64> = (0..n).map(|i| dist2(view, i, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut u = rng.gen_range(0.0..total);
            let mut pick = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if u < w {
                    pick = i;
                    break;
                }
                u -= w;
            }
            pick
        };
        let c = row(next);
        for (i, d) in d2.iter_mut().enumerate() {
            *d = d.min(dist2(view, i, &c));
        }
        centroids.push(c);
    }
    centroids
}

/// One assignment pass: returns per-cluster (count, per-dim sums) flattened
/// as `[count_0, sums_0.., count_1, sums_1..]`, the local inertia, and the
/// assignments. The flat layout is the Allreduce payload.
fn assign_and_accumulate(
    view: &DataView<'_>,
    centroids: &[Vec<f64>],
) -> (Vec<f64>, f64, Vec<usize>) {
    let d = view.schema().len();
    let k = centroids.len();
    let stride = d + 1;
    let mut acc = vec![0.0; k * stride];
    let mut inertia = 0.0;
    let mut assign = Vec::with_capacity(view.len());
    for i in 0..view.len() {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (c, centroid) in centroids.iter().enumerate() {
            let dd = dist2(view, i, centroid);
            if dd < best_d {
                best_d = dd;
                best = c;
            }
        }
        inertia += best_d;
        assign.push(best);
        acc[best * stride] += 1.0;
        for c in 0..d {
            acc[best * stride + 1 + c] += view.real_column(c)[i];
        }
    }
    (acc, inertia, assign)
}

/// Recompute centroids from accumulated counts/sums; empty clusters keep
/// their previous centroid (a standard fix that also makes the parallel
/// and sequential paths agree exactly).
fn centroids_from_acc(acc: &[f64], d: usize, prev: &[Vec<f64>]) -> (Vec<Vec<f64>>, f64) {
    let stride = d + 1;
    let k = acc.len() / stride;
    let mut movement = 0.0;
    let centroids = (0..k)
        .map(|c| {
            let count = acc[c * stride];
            if count > 0.0 {
                let m: Vec<f64> = (0..d).map(|j| acc[c * stride + 1 + j] / count).collect();
                movement +=
                    m.iter().zip(&prev[c]).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
                m
            } else {
                prev[c].clone()
            }
        })
        .collect();
    (centroids, movement)
}

/// Sequential Lloyd's algorithm.
pub fn kmeans_seq(view: &DataView<'_>, config: &KMeansConfig) -> (KMeansResult, Vec<usize>) {
    let d = check_dims(view);
    let mut centroids = init_centroids(view, config.k, config.seed);
    let mut result_assign = Vec::new();
    let mut inertia = 0.0;
    let mut iterations = 0;
    let mut converged = false;
    while iterations < config.max_iters {
        let (acc, local_inertia, assign) = assign_and_accumulate(view, &centroids);
        inertia = local_inertia;
        result_assign = assign;
        let (next, movement) = centroids_from_acc(&acc, d, &centroids);
        centroids = next;
        iterations += 1;
        if movement <= config.tol {
            converged = true;
            break;
        }
    }
    (KMeansResult { centroids, inertia, iterations, converged }, result_assign)
}

/// Result of a parallel k-means run on a simulated machine.
#[derive(Debug, Clone)]
pub struct ParallelKMeans {
    /// The fitted model (identical on all ranks; rank 0's copy).
    pub result: KMeansResult,
    /// Virtual elapsed seconds.
    pub elapsed: f64,
    /// Per-rank statistics.
    pub ranks: Vec<RankStats>,
}

/// The per-rank body, exposed for composition in larger SPMD programs.
pub fn kmeans_rank_body(comm: &mut Comm, data: &Dataset, config: &KMeansConfig) -> KMeansResult {
    let part = block_range(data.len(), comm.size(), comm.rank());
    let view = data.view(part.start, part.end);
    let d = view.schema().len();
    let k = config.k;

    // Rank 0 initializes from its partition and broadcasts (same pattern
    // as P-AutoClass initialization).
    let mut flat = if comm.rank() == 0 {
        let c = init_centroids(&view, k, config.seed);
        c.into_iter().flatten().collect()
    } else {
        vec![0.0; k * d]
    };
    comm.work((view.len() * k * d) as u64); // init distance scans
    comm.broadcast_f64s(0, &mut flat);
    let mut centroids: Vec<Vec<f64>> = flat.chunks_exact(d).map(|c| c.to_vec()).collect();

    let mut iterations = 0;
    let mut converged = false;
    let mut inertia = 0.0;
    while iterations < config.max_iters {
        let (mut acc, local_inertia, _) = assign_and_accumulate(&view, &centroids);
        comm.work((view.len() * k * d) as u64);
        comm.allreduce_f64s(&mut acc, ReduceOp::Sum);
        inertia = comm.allreduce_scalar(local_inertia, ReduceOp::Sum);
        let (next, movement) = centroids_from_acc(&acc, d, &centroids);
        comm.work((k * d) as u64);
        centroids = next;
        iterations += 1;
        // `movement` is computed from identical global accumulators on
        // every rank, so the loop exit is coherent without a vote.
        if movement <= config.tol {
            converged = true;
            break;
        }
    }
    KMeansResult { centroids, inertia, iterations, converged }
}

/// Run parallel k-means on the given simulated machine.
///
/// # Errors
/// Propagates engine failures.
pub fn kmeans_parallel(
    data: &Dataset,
    machine: &MachineSpec,
    config: &KMeansConfig,
) -> Result<ParallelKMeans, SimError> {
    let out =
        run_spmd(machine, &SimOptions::default(), |comm| kmeans_rank_body(comm, data, config))?;
    // lint:allow(unwrap): machines have at least one rank
    let result = out.per_rank.into_iter().next().expect("at least one rank");
    Ok(ParallelKMeans { result, elapsed: out.elapsed, ranks: out.ranks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::presets;

    fn blob_data(n: usize) -> Dataset {
        datagen::GaussianMixture::well_separated(3, 2, 20.0).generate(n, 5).0
    }

    #[test]
    fn sequential_kmeans_finds_separated_blobs() {
        let data = blob_data(600);
        let config = KMeansConfig { k: 3, seed: 2, ..KMeansConfig::default() };
        let (result, assign) = kmeans_seq(&data.full_view(), &config);
        assert!(result.converged);
        assert_eq!(assign.len(), 600);
        // With separation 20 and sigma 1, inertia per item ≈ d·sigma² = 2.
        let per_item = result.inertia / 600.0;
        assert!(per_item < 4.0, "inertia/item = {per_item}");
    }

    #[test]
    fn parallel_matches_sequential() {
        let data = blob_data(500);
        let config = KMeansConfig { k: 3, seed: 4, ..KMeansConfig::default() };
        // P=1 parallel is sequential-equivalent by construction; compare
        // higher P against it.
        let base = kmeans_parallel(&data, &presets::zero_cost(1), &config).unwrap();
        for p in [2usize, 4, 7] {
            let out = kmeans_parallel(&data, &presets::zero_cost(p), &config).unwrap();
            assert!(
                (out.result.inertia - base.result.inertia).abs()
                    < 1e-6 * base.result.inertia.max(1.0),
                "p={p}: inertia {} vs {}",
                out.result.inertia,
                base.result.inertia
            );
        }
    }

    #[test]
    fn parallel_init_note_p1_equals_seq() {
        // At P=1 the parallel body initializes exactly like the
        // sequential one, so results must agree bitwise.
        let data = blob_data(300);
        let config = KMeansConfig { k: 4, seed: 9, ..KMeansConfig::default() };
        let (seq, _) = kmeans_seq(&data.full_view(), &config);
        let par = kmeans_parallel(&data, &presets::zero_cost(1), &config).unwrap();
        assert_eq!(par.result, seq);
    }

    #[test]
    fn kmeans_scales_like_pautoclass() {
        // Same qualitative behaviour on the simulated CS-2: big data
        // scales, and 10 processors beat 1.
        let data = blob_data(20_000);
        let config = KMeansConfig { k: 8, max_iters: 5, tol: 0.0, seed: 3 };
        let t1 = kmeans_parallel(&data, &presets::meiko_cs2(1), &config).unwrap().elapsed;
        let t10 = kmeans_parallel(&data, &presets::meiko_cs2(10), &config).unwrap().elapsed;
        let speedup = t1 / t10;
        assert!(speedup > 5.0, "speedup {speedup:.2}");
    }

    #[test]
    #[should_panic(expected = "requires real attributes")]
    fn discrete_schema_rejected() {
        let (data, _) = datagen::protein_sequences(50, 3, 4, 2, 1);
        let _ = kmeans_seq(&data.full_view(), &KMeansConfig::default());
    }

    #[test]
    #[should_panic(expected = "complete data")]
    fn missing_values_rejected() {
        let data = datagen::inject_missing(&blob_data(100), 0.2, 1);
        let _ = kmeans_seq(&data.full_view(), &KMeansConfig::default());
    }

    #[test]
    fn empty_cluster_keeps_previous_centroid() {
        // Force an empty cluster: k larger than distinct points.
        let data = blob_data(10);
        let config = KMeansConfig { k: 9, max_iters: 10, seed: 1, ..KMeansConfig::default() };
        let (result, _) = kmeans_seq(&data.full_view(), &config);
        assert_eq!(result.centroids.len(), 9);
        assert!(result.centroids.iter().all(|c| c.iter().all(|x| x.is_finite())));
    }
}
