//! Phase-span attribution and collective message accounting.
//!
//! The report harness depends on two invariants checked here across every
//! allreduce algorithm at both power-of-two and non-power-of-two P:
//!
//! 1. every constituent message of a collective is counted exactly once in
//!    `RankStats`, with world-wide send and receive totals symmetric and
//!    consistent with the recorded event trace;
//! 2. the per-phase buckets partition each rank's elapsed virtual time
//!    (sum within 1e-9) and soak up the collective's messages into the
//!    enclosing span.

use mpsim::{
    presets, run_spmd, AllreduceAlgo, EventKind, ReduceOp, RunStats, SimOptions, SpmdComm,
    DEFAULT_PHASE,
};

const ALGOS: [AllreduceAlgo; 5] = [
    AllreduceAlgo::Linear,
    AllreduceAlgo::RecursiveDoubling,
    AllreduceAlgo::Ring,
    AllreduceAlgo::Rabenseifner,
    AllreduceAlgo::Auto,
];

/// Both power-of-two and non-power-of-two sizes: recursive doubling and
/// Rabenseifner take the pow2-parking path at 5 and 6.
const SIZES: [usize; 4] = [2, 4, 5, 6];

#[test]
fn allreduce_messages_counted_consistently_across_algorithms() {
    for algo in ALGOS {
        for p in SIZES {
            let mut spec = presets::meiko_cs2(p);
            spec.allreduce = algo;
            let opts = SimOptions { record_events: true, ..Default::default() };
            let out = run_spmd(&spec, &opts, |c| {
                c.enter_phase("allreduce");
                let mut buf = vec![c.rank() as f64 + 1.0; 33]; // odd length
                c.allreduce_f64s(&mut buf, ReduceOp::Sum);
                c.exit_phase();
                buf[0]
            })
            .unwrap();
            let label = format!("{algo:?} P={p}");
            // World-wide symmetry: every constituent message sent was
            // received (collectives never fire-and-forget).
            let agg = RunStats::from_ranks(&out.ranks);
            agg.check_message_symmetry().unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(agg, out.stats, "{label}: engine aggregate differs");
            for (rank, (events, stats)) in out.events.iter().zip(&out.ranks).enumerate() {
                // Stats agree with the recorded trace.
                let sends = events.iter().filter(|e| e.kind == EventKind::Send).count() as u64;
                let recvs = events.iter().filter(|e| e.kind == EventKind::Recv).count() as u64;
                assert_eq!(sends, stats.msgs_sent, "{label} rank {rank} sends");
                assert_eq!(recvs, stats.msgs_recvd, "{label} rank {rank} recvs");
                // All traffic happened inside the span: the "allreduce"
                // bucket holds every message, the default bucket none.
                let ar = stats.phase("allreduce").unwrap_or_else(|| panic!("{label}: no span"));
                assert_eq!(ar.msgs_sent, stats.msgs_sent, "{label} rank {rank} phase sends");
                assert_eq!(ar.msgs_recvd, stats.msgs_recvd, "{label} rank {rank} phase recvs");
                assert_eq!(ar.bytes_sent, stats.bytes_sent, "{label} rank {rank} phase bytes");
                assert_eq!(ar.collectives, 1, "{label} rank {rank} collective count");
                let other = stats.phase(DEFAULT_PHASE).unwrap_or_else(|| panic!("{label}"));
                assert_eq!(other.msgs_sent, 0, "{label} rank {rank} default-bucket sends");
            }
            if p > 1 {
                assert!(agg.total_msgs > 0, "{label}: no messages moved");
            }
        }
    }
}

#[test]
fn phase_buckets_sum_to_elapsed_on_every_rank() {
    for algo in ALGOS {
        for p in SIZES {
            let mut spec = presets::meiko_cs2(p);
            spec.allreduce = algo;
            let opts = SimOptions { record_events: true, ..Default::default() };
            let out = run_spmd(&spec, &opts, |c| {
                // Unequal compute so some ranks idle inside the collective.
                c.enter_phase("estep");
                c.work(10_000 * (c.rank() as u64 + 1));
                c.exit_phase();
                c.enter_phase("allreduce");
                let mut buf = vec![1.0; 40];
                c.allreduce_f64s(&mut buf, ReduceOp::Sum);
                c.exit_phase();
                c.work(5_000); // default bucket
            })
            .unwrap();
            for stats in &out.ranks {
                let sum = stats.phases_total();
                assert!(
                    (sum - stats.elapsed).abs() <= 1e-9,
                    "{algo:?} P={p} rank {}: phases sum {sum:.15} vs elapsed {:.15}",
                    stats.rank,
                    stats.elapsed
                );
                // The global split agrees with the bucket split per kind.
                let compute: f64 = stats.phases.iter().map(|ph| ph.compute).sum();
                let comm: f64 = stats.phases.iter().map(|ph| ph.comm).sum();
                let idle: f64 = stats.phases.iter().map(|ph| ph.idle).sum();
                assert!((compute - stats.compute).abs() <= 1e-9, "{algo:?} P={p}");
                assert!((comm - stats.comm).abs() <= 1e-9, "{algo:?} P={p}");
                assert!((idle - stats.idle).abs() <= 1e-9, "{algo:?} P={p}");
            }
        }
    }
}

#[test]
fn nested_spans_attribute_to_the_innermost_phase() {
    let spec = presets::meiko_cs2(4);
    let out = run_spmd(&spec, &SimOptions::default(), |c| {
        c.enter_phase("search");
        c.work(1_000);
        c.enter_phase("allreduce");
        let mut buf = vec![c.rank() as f64; 8];
        c.allreduce_f64s(&mut buf, ReduceOp::Sum);
        c.exit_phase();
        c.work(2_000);
        c.exit_phase();
    })
    .unwrap();
    for stats in &out.ranks {
        let search = stats.phase("search").expect("search span");
        let ar = stats.phase("allreduce").expect("allreduce span");
        // The collective's traffic lands in the inner span only.
        assert_eq!(search.msgs_sent, 0);
        assert_eq!(ar.msgs_sent, stats.msgs_sent);
        assert!(ar.msgs_sent > 0);
        // Compute around the collective stays with the outer span.
        assert!(search.compute > 0.0);
        assert_eq!(ar.compute, 0.0);
        assert!((stats.phases_total() - stats.elapsed).abs() <= 1e-9);
    }
}

#[test]
fn reentering_a_phase_accumulates_into_one_bucket() {
    let spec = presets::meiko_cs2(2);
    let out = run_spmd(&spec, &SimOptions::default(), |c| {
        for _ in 0..3 {
            c.enter_phase("estep");
            c.work(1_000);
            c.exit_phase();
            c.enter_phase("allreduce");
            let mut buf = vec![1.0; 4];
            c.allreduce_f64s(&mut buf, ReduceOp::Sum);
            c.exit_phase();
        }
    })
    .unwrap();
    for stats in &out.ranks {
        // Exactly three buckets: other, estep, allreduce — not one per
        // iteration.
        let names: Vec<&str> = stats.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, [DEFAULT_PHASE, "estep", "allreduce"], "rank {}", stats.rank);
        let ar = stats.phase("allreduce").expect("allreduce span");
        assert_eq!(ar.collectives, 3);
    }
}

#[test]
fn unbalanced_exit_phase_is_tolerated() {
    let spec = presets::zero_cost(2);
    let out = run_spmd(&spec, &SimOptions::default(), |c| {
        c.exit_phase(); // nothing open: no-op
        c.enter_phase("estep");
        c.work(100);
        c.exit_phase();
        c.exit_phase(); // extra: no-op, stays in default bucket
        c.work(50);
        c.barrier();
    })
    .unwrap();
    for stats in &out.ranks {
        assert!(stats.phase("estep").is_some());
        assert!((stats.phases_total() - stats.elapsed).abs() <= 1e-9);
    }
}
