//! Qualitative reproduction of the paper's scaling results on the
//! simulated Meiko CS-2: speedup grows with dataset size, small datasets
//! saturate, and scaleup (fixed data per processor) stays nearly flat.
//! `cargo xtask report` prints the full curves (Figs 6–8); these
//! tests pin the *shapes* so regressions in the cost model or the drivers
//! are caught.

use mpsim::{presets, SpmdComm};
use pautoclass::{run_fixed_j, ParallelConfig};

/// Virtual seconds per base_cycle for a dataset of `n` at `p` processors.
fn cycle_time(n: usize, p: usize, j: usize) -> f64 {
    let data = datagen::paper_dataset(n, 99);
    let machine = presets::meiko_cs2(p);
    let config = ParallelConfig::default();
    run_fixed_j(&data, &machine, j, 3, 7, &config).unwrap().per_cycle
}

#[test]
fn speedup_improves_with_dataset_size() {
    // Fig 7's headline: larger datasets scale better.
    let j = 16;
    let speedup = |n: usize| cycle_time(n, 1, j) / cycle_time(n, 10, j);
    let small = speedup(2_000);
    let large = speedup(40_000);
    assert!(large > small + 0.5, "speedup at 10 procs: small(2k)={small:.2} large(40k)={large:.2}");
    assert!(large > 6.0, "large dataset should scale well, got {large:.2}");
    assert!(large < 10.5, "speedup cannot exceed linear, got {large:.2}");
}

#[test]
fn small_datasets_saturate() {
    // Fig 7: for small datasets there is an optimal processor count and
    // little or no gain beyond it.
    let j = 16;
    let t: Vec<f64> = [1, 2, 4, 8, 10].iter().map(|&p| cycle_time(1_000, p, j)).collect();
    let speedups: Vec<f64> = t.iter().map(|&x| t[0] / x).collect();
    // Speedup at 10 procs must be well below linear...
    assert!(speedups[4] < 6.0, "speedups: {speedups:?}");
    // ...and the marginal gain from 8 to 10 procs must be small or negative.
    let marginal = speedups[4] - speedups[3];
    assert!(marginal < 0.5, "marginal gain 8→10: {marginal:.2} ({speedups:?})");
}

#[test]
fn large_datasets_keep_scaling_to_ten_processors() {
    let j = 16;
    let t8 = cycle_time(60_000, 8, j);
    let t10 = cycle_time(60_000, 10, j);
    assert!(t10 < t8, "t8={t8} t10={t10}: 60k tuples should still gain at 10 procs");
}

#[test]
fn scaleup_is_nearly_flat() {
    // Fig 8: 10 000 tuples per processor, J = 8 and 16; time per cycle
    // should stay nearly constant as processors (and data) grow.
    for j in [8usize, 16] {
        let times: Vec<f64> = (1..=10)
            .map(|p| {
                let data = datagen::paper_dataset(10_000 * p, 7);
                let machine = presets::meiko_cs2(p);
                run_fixed_j(&data, &machine, j, 2, 3, &ParallelConfig::default()).unwrap().per_cycle
            })
            .collect();
        let t1 = times[0];
        for (i, &t) in times.iter().enumerate() {
            assert!(
                t < 1.35 * t1,
                "J={j}: cycle time at p={} is {t:.4}s vs {t1:.4}s at p=1 ({times:?})",
                i + 1
            );
        }
    }
}

#[test]
fn elapsed_decomposes_into_compute_and_overhead() {
    let data = datagen::paper_dataset(5_000, 1);
    let machine = presets::meiko_cs2(6);
    let out = run_fixed_j(&data, &machine, 8, 3, 1, &ParallelConfig::default()).unwrap();
    for r in &out.ranks {
        assert!(r.compute > 0.0, "rank {} did no modeled compute", r.rank);
        let sum = r.compute + r.comm + r.idle;
        assert!((r.elapsed - sum).abs() < 1e-9);
    }
    // With 6 equal partitions the compute should dominate at this size.
    let r0 = &out.ranks[0];
    assert!(r0.compute > r0.comm, "compute {} vs comm {}", r0.compute, r0.comm);
}

#[test]
fn weighted_partitioning_fixes_heterogeneous_imbalance() {
    // The paper's equal-block decomposition assumes homogeneous nodes.
    // With one node at half speed, equal blocks drag every cycle to the
    // slow node's pace; speed-proportional blocks recover most of it.
    let data = datagen::paper_dataset(8_000, 3);
    let p = 4;
    let mut speeds = vec![1.0; p];
    speeds[0] = 0.5;
    let slow = presets::meiko_cs2(p).with_rank_speeds(speeds.clone());

    let block = pautoclass::ParallelConfig::default();
    let weighted = pautoclass::ParallelConfig {
        partition: pautoclass::Partitioning::Weighted(speeds),
        ..pautoclass::ParallelConfig::default()
    };
    let t_homog = run_fixed_j(&data, &presets::meiko_cs2(p), 8, 3, 7, &block).unwrap().per_cycle;
    let t_block = run_fixed_j(&data, &slow, 8, 3, 7, &block).unwrap().per_cycle;
    let t_weighted = run_fixed_j(&data, &slow, 8, 3, 7, &weighted).unwrap().per_cycle;

    assert!(t_block > 1.5 * t_homog, "slow node should hurt: {t_block} vs {t_homog}");
    assert!(t_weighted < 1.25 * t_homog, "weighted should recover: {t_weighted} vs {t_homog}");
    assert!(t_weighted < t_block);
}

#[test]
fn weighted_and_block_partitioning_agree_numerically() {
    // Decomposition changes who computes what, not the mathematics: one
    // parallel base cycle from *identical* starting classes must produce
    // the same global result under any contiguous partitioning.
    // (End-to-end runs can differ because initialization draws from rank
    // 0's partition, whose contents depend on the decomposition.)
    use autoclass::data::GlobalStats;
    use autoclass::model::{init_classes, CycleWorkspace, Model};
    use mpsim::run_spmd_default;
    use pautoclass::driver::{parallel_base_cycle, Tail};
    use pautoclass::{Partitioning, Strategy};
    use std::sync::Arc;

    let data = datagen::paper_dataset(2_000, 5);
    let p = 5;
    let gstats = GlobalStats::compute(&data.full_view());
    let model = Model::new(data.schema().clone(), &gstats);
    let classes0 = Arc::new(Tail {
        classes: init_classes(&model, &data.full_view(), 8, 77),
        approx: Default::default(),
    });

    let run = |partition: Partitioning| {
        let spec = presets::zero_cost(p);
        run_spmd_default(&spec, |comm| {
            let parts = partition.ranges(data.len(), comm.size());
            let part = &parts[comm.rank()];
            let view = data.view(part.start, part.end);
            let mut ws = CycleWorkspace::new();
            let mut tail = Arc::clone(&classes0);
            let approx =
                parallel_base_cycle(comm, &model, &view, &mut tail, &mut ws, Strategy::default());
            (tail.classes.clone(), approx.log_likelihood)
        })
        .unwrap()
        .per_rank
        .remove(0)
    };

    let (ca, lla) = run(Partitioning::Block);
    let (cb, llb) = run(Partitioning::Weighted(vec![3.0, 1.0, 1.0, 2.0, 1.0]));
    assert!((lla - llb).abs() < 1e-9 * lla.abs(), "{lla} vs {llb}");
    for (x, y) in ca.iter().zip(&cb) {
        assert!((x.weight - y.weight).abs() < 1e-8, "{} vs {}", x.weight, y.weight);
    }
}
