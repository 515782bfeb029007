//! The allreduce algorithm is an implementation detail: every algorithm —
//! including Rabenseifner and the size-adaptive `Auto` selector — must run
//! the full search cleanly under complete verification (fingerprint
//! cross-checks + replication-invariant hashing prove every rank holds
//! bitwise-identical classes after every cycle), on power-of-two and
//! awkward communicator sizes, with partitions that don't divide evenly.
//!
//! Different algorithms associate the floating-point sums differently, so
//! cross-algorithm results are compared within reduction-order tolerance
//! against a PerTerm/RecursiveDoubling baseline; within one algorithm,
//! cross-rank equality is bitwise (enforced by `SimOptions::verified`).

use autoclass::search::SearchConfig;
use mpsim::{presets, AllreduceAlgo, SimOptions};
use pautoclass::{run_search_with, Exchange, ParallelConfig, Strategy};

fn config(exchange: Exchange) -> ParallelConfig {
    ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![3],
            tries_per_j: 1,
            max_cycles: 25,
            rel_delta_ll: 1e-7,
            min_class_weight: 1.0,
            seed: 4242,
            max_stored: 10,
        },
        strategy: Strategy::Full { exchange },
        partition: pautoclass::Partitioning::Block,
        correlated_blocks: Vec::new(),
    }
}

const ALGOS: &[AllreduceAlgo] = &[
    AllreduceAlgo::Linear,
    AllreduceAlgo::RecursiveDoubling,
    AllreduceAlgo::Ring,
    AllreduceAlgo::Rabenseifner,
    AllreduceAlgo::Auto,
];

#[test]
fn every_allreduce_algorithm_verifies_and_agrees() {
    // 301 items: not divisible by any tested P, so every run exercises
    // uneven partitions (and, inside Rabenseifner/Ring, uneven chunks).
    let data = datagen::paper_dataset(301, 11);

    for exchange in [Exchange::Fused, Exchange::PerTerm] {
        let cfg = config(exchange);
        for p in [2usize, 3, 5, 8] {
            let mut baseline: Option<(f64, usize)> = None;
            for &algo in ALGOS {
                let mut spec = presets::zero_cost(p);
                spec.allreduce = algo;
                let out = run_search_with(&data, &spec, &cfg, &SimOptions::verified())
                    .unwrap_or_else(|e| panic!("{exchange:?} P={p} {algo:?}: {e}"));
                assert!(out.cycles > 0, "{exchange:?} P={p} {algo:?}: ran no cycles");
                let ll = out.best.approx.log_likelihood;
                let j = out.best.classes.len();
                match baseline {
                    None => baseline = Some((ll, j)),
                    Some((ll0, j0)) => {
                        assert!(
                            (ll - ll0).abs() <= 1e-6 * ll0.abs(),
                            "{exchange:?} P={p} {algo:?}: ll {ll} vs baseline {ll0}"
                        );
                        assert_eq!(j, j0, "{exchange:?} P={p} {algo:?}: class count diverged");
                    }
                }
            }
        }
    }
}

#[test]
fn rabenseifner_and_auto_match_their_plain_runs_bitwise() {
    // Verification only observes: for the two new algorithms, a verified
    // run must reproduce the unverified run bit for bit.
    let data = datagen::paper_dataset(301, 11);
    let cfg = config(Exchange::Fused);
    for algo in [AllreduceAlgo::Rabenseifner, AllreduceAlgo::Auto] {
        for p in [2usize, 3, 5, 8] {
            let mut spec = presets::zero_cost(p);
            spec.allreduce = algo;
            let plain = run_search_with(&data, &spec, &cfg, &SimOptions::default())
                .unwrap_or_else(|e| panic!("{algo:?} P={p} unverified: {e}"));
            let verified = run_search_with(&data, &spec, &cfg, &SimOptions::verified())
                .unwrap_or_else(|e| panic!("{algo:?} P={p} verified: {e}"));
            assert_eq!(
                verified.best.approx.log_likelihood.to_bits(),
                plain.best.approx.log_likelihood.to_bits(),
                "{algo:?} P={p}: verification changed the result"
            );
            assert_eq!(verified.cycles, plain.cycles, "{algo:?} P={p}");
        }
    }
}
