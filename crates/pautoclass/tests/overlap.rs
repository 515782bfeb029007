//! The overlapped (pipelined) cycle is a pure scheduling change: it must
//! reproduce the blocking `Fused` exchange bit for bit — same weights, same
//! likelihoods, same convergence trajectory — for every allreduce algorithm
//! and communicator size, while hiding wire time behind the M-step on a
//! machine with real communication costs.
//!
//! Bitwise equality holds because the pipelined path reuses the exact
//! collective geometry of the blocking path: the `w_j` exchange is its own
//! j-length allreduce in both, and the statistics buffer is either chunked
//! per class with an order-transparent algorithm (per-element fold
//! independent of buffer geometry) or shipped whole.

use autoclass::model::classes_to_flat;
use autoclass::search::SearchConfig;
use mpsim::{presets, AllreduceAlgo, SimOptions};
use pautoclass::{run_fixed_j, run_search_with, Exchange, ParallelConfig, Strategy};

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
fn pipelined_matches_blocking_fused_bitwise_for_every_algorithm() {
    // 301 items: not divisible by any tested P, so every run exercises
    // uneven partitions. Full verification keeps the collective
    // fingerprinting and replication hashing live throughout.
    let data = datagen::paper_dataset(301, 11);
    let fused_cfg = config(Exchange::Fused);
    let piped_cfg = config(Exchange::Pipelined);

    for p in [1usize, 2, 3, 5, 8] {
        for &algo in ALGOS {
            let mut spec = presets::zero_cost(p);
            spec.allreduce = algo;
            let fused = run_search_with(&data, &spec, &fused_cfg, &SimOptions::verified())
                .unwrap_or_else(|e| panic!("Fused P={p} {algo:?}: {e}"));
            let piped = run_search_with(&data, &spec, &piped_cfg, &SimOptions::verified())
                .unwrap_or_else(|e| panic!("Pipelined P={p} {algo:?}: {e}"));

            assert_eq!(piped.cycles, fused.cycles, "P={p} {algo:?}: cycle counts differ");
            assert_eq!(
                piped.best.approx.log_likelihood.to_bits(),
                fused.best.approx.log_likelihood.to_bits(),
                "P={p} {algo:?}: log-likelihood diverged"
            );
            assert_eq!(
                piped.best.approx.complete_ll.to_bits(),
                fused.best.approx.complete_ll.to_bits(),
                "P={p} {algo:?}: complete log-likelihood diverged"
            );
            assert_eq!(
                piped.best.approx.cs_score.to_bits(),
                fused.best.approx.cs_score.to_bits(),
                "P={p} {algo:?}: Cheeseman-Stutz score diverged"
            );

            let ff = classes_to_flat(&fused.best.classes);
            let pf = classes_to_flat(&piped.best.classes);
            assert_eq!(ff.len(), pf.len(), "P={p} {algo:?}: class layout diverged");
            for (i, (a, b)) in ff.iter().zip(&pf).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "P={p} {algo:?}: class parameter {i} diverged ({a} vs {b})"
                );
            }
        }
    }
}

#[test]
fn pipelined_hides_wire_time_that_the_blocking_cycle_exposes() {
    // On a machine with real LogGP costs the pipelined schedule must (a)
    // report hidden (overlapped) communication where the blocking cycle
    // reports none, and (b) not be slower per cycle.
    let data = datagen::paper_dataset(600, 11);
    for p in [4usize, 6, 8] {
        let machine = presets::meiko_cs2(p);
        let fused = run_fixed_j(&data, &machine, 8, 4, 7, &config(Exchange::Fused)).unwrap();
        let piped = run_fixed_j(&data, &machine, 8, 4, 7, &config(Exchange::Pipelined)).unwrap();

        assert_eq!(
            piped.log_likelihood.to_bits(),
            fused.log_likelihood.to_bits(),
            "P={p}: fixed-J pipelined run diverged from blocking Fused"
        );

        let fused_hidden: f64 = fused.ranks.iter().map(|r| r.hidden_comm).sum();
        let piped_hidden: f64 = piped.ranks.iter().map(|r| r.hidden_comm).sum();
        assert_eq!(fused_hidden, 0.0, "P={p}: blocking cycle reported overlap");
        assert!(piped_hidden > 0.0, "P={p}: pipelined cycle hid no communication");
        assert!(
            piped.per_cycle <= fused.per_cycle,
            "P={p}: pipelined cycle slower than blocking ({} > {})",
            piped.per_cycle,
            fused.per_cycle
        );
    }
}
