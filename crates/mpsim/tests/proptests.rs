//! Property-based tests: collectives must agree with sequential reductions
//! for arbitrary inputs, communicator sizes, and algorithms.

use mpsim::{presets, run_spmd_default, AllreduceAlgo, Communicator, ReduceOp, SpmdComm};
use proptest::prelude::*;

fn op_strategy() -> impl Strategy<Value = ReduceOp> {
    prop_oneof![Just(ReduceOp::Sum), Just(ReduceOp::Min), Just(ReduceOp::Max), Just(ReduceOp::Prod),]
}

fn algo_strategy() -> impl Strategy<Value = AllreduceAlgo> {
    prop_oneof![
        Just(AllreduceAlgo::Linear),
        Just(AllreduceAlgo::RecursiveDoubling),
        Just(AllreduceAlgo::Ring),
        Just(AllreduceAlgo::Rabenseifner),
        // On a flat topology every rank is its own node, so Hierarchical
        // degenerates to Rabenseifner among all ranks — still worth
        // sweeping for the degenerate-geometry edge cases.
        Just(AllreduceAlgo::Hierarchical),
        Just(AllreduceAlgo::Auto),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn allreduce_equals_sequential_fold(
        p in 1usize..9,
        n in 0usize..40,
        seed in 0u64..1_000_000,
        op in op_strategy(),
        algo in algo_strategy(),
    ) {
        // Deterministic pseudo-data per (rank, index) derived from the seed.
        let value = |rank: usize, i: usize| -> f64 {
            let h = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((rank * 40 + i) as u64);
            // Map to a modest range to keep Prod away from overflow.
            ((h >> 32) as f64 / u32::MAX as f64) * 2.0 - 1.0
        };

        let spec = presets::zero_cost(p);
        let out = run_spmd_default(&spec, |c| {
            let mut buf: Vec<f64> = (0..n).map(|i| value(c.rank(), i)).collect();
            c.allreduce_f64s_with(&mut buf, op, algo);
            buf
        }).unwrap();

        let mut expect: Vec<f64> = (0..n).map(|i| value(0, i)).collect();
        for r in 1..p {
            let other: Vec<f64> = (0..n).map(|i| value(r, i)).collect();
            op.fold(&mut expect, &other);
        }
        for rank in 0..p {
            for (a, b) in out.per_rank[rank].iter().zip(&expect) {
                prop_assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "rank {rank}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn gather_scatter_round_trip(
        p in 1usize..8,
        chunk in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let value = |rank: usize, i: usize| -> f64 {
            (seed.wrapping_add((rank * chunk + i) as u64) % 1000) as f64
        };
        let spec = presets::zero_cost(p);
        let out = run_spmd_default(&spec, |c| {
            let mine: Vec<f64> = (0..chunk).map(|i| value(c.rank(), i)).collect();
            // Gather to root, broadcast the concatenation back, and let
            // every rank slice out its own block: everyone must recover
            // exactly what they contributed.
            let mut all = c.gather_f64s(0, &mine).unwrap_or_else(|| vec![0.0; chunk * c.size()]);
            c.broadcast_f64s(0, &mut all);
            let back = all[c.rank() * chunk..(c.rank() + 1) * chunk].to_vec();
            (mine, back)
        }).unwrap();
        for (mine, back) in out.per_rank {
            prop_assert_eq!(mine, back);
        }
    }

    #[test]
    fn clocks_are_monotone_and_consistent(
        p in 1usize..6,
        work in 0u64..100_000,
        msg in 0usize..256,
    ) {
        let spec = presets::meiko_cs2(p);
        let out = run_spmd_default(&spec, |c| {
            let t0 = c.now();
            c.work(work);
            let t1 = c.now();
            let mut buf = vec![c.rank() as f64; msg];
            c.allreduce_f64s(&mut buf, ReduceOp::Sum);
            let t2 = c.now();
            (t0, t1, t2)
        }).unwrap();
        for (rank, (t0, t1, t2)) in out.per_rank.iter().enumerate() {
            prop_assert!(t0 <= t1 && t1 <= t2, "rank {rank}: {t0} {t1} {t2}");
        }
        for r in &out.ranks {
            let sum = r.compute + r.comm + r.idle;
            prop_assert!((r.elapsed - sum).abs() < 1e-9);
        }
    }
}
