//! Non-blocking communication: values, timing, accounting, and misuse.
//!
//! The overlap model's contract, checked across every allreduce algorithm:
//!
//! 1. `iallreduce` installs bitwise the same result as the blocking call —
//!    the data movement runs eagerly; only *time* is deferred;
//! 2. wire time posted before a stretch of `work()` hides behind it: the
//!    post+work+wait schedule finishes no later than the blocking
//!    schedule, the hidden portion shows up in `hidden_comm`, and the
//!    compute/comm/idle buckets still partition elapsed time;
//! 3. misuse is diagnosed with the culprit rank: waiting a request twice
//!    fails with `RequestMisuse`, dropping one without waiting panics the
//!    rank, and mismatched posted lengths trip the collective fingerprint
//!    checker.

use mpsim::{
    presets, run_spmd, run_spmd_default, AllreduceAlgo, Communicator, ReduceOp, SimError,
    SimOptions, SpmdComm, DEFAULT_PHASE,
};

const ALGOS: [AllreduceAlgo; 5] = [
    AllreduceAlgo::Linear,
    AllreduceAlgo::RecursiveDoubling,
    AllreduceAlgo::Ring,
    AllreduceAlgo::Rabenseifner,
    AllreduceAlgo::Auto,
];

const SIZES: [usize; 4] = [1, 2, 5, 8];

fn payload(rank: usize, len: usize) -> Vec<f64> {
    (0..len).map(|i| ((rank * 31 + i * 7) % 13) as f64 - 4.0).collect()
}

#[test]
fn iallreduce_matches_blocking_bitwise_across_algorithms() {
    for algo in ALGOS {
        for p in SIZES {
            let mut spec = presets::meiko_cs2(p);
            spec.allreduce = algo;
            let label = format!("{algo:?} P={p}");
            let blocking = run_spmd(&spec, &SimOptions::verified(), |c| {
                let mut buf = payload(c.rank(), 37);
                c.allreduce_f64s(&mut buf, ReduceOp::Sum);
                buf
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
            let nonblocking = run_spmd(&spec, &SimOptions::verified(), |c| {
                let mut buf = payload(c.rank(), 37);
                let mut req = c.iallreduce_f64s(&mut buf, ReduceOp::Sum);
                c.work(50_000); // overlap window
                c.wait(&mut req);
                buf
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
            for (rank, (b, nb)) in blocking.per_rank.iter().zip(&nonblocking.per_rank).enumerate() {
                let b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                let nb: Vec<u64> = nb.iter().map(|v| v.to_bits()).collect();
                assert_eq!(b, nb, "{label} rank {rank}: result bits differ");
            }
        }
    }
}

#[test]
fn posted_wire_time_hides_behind_compute() {
    // Enough compute to cover the whole wire time of a Linear allreduce on
    // the Meiko model: the non-blocking schedule must finish earlier than
    // the blocking one by exactly the hidden time, and the buckets must
    // still partition elapsed.
    let p = 4;
    let spec = presets::meiko_cs2(p);
    let work_ops: u64 = 2_000_000;
    let blocking = run_spmd_default(&spec, |c| {
        let mut buf = payload(c.rank(), 256);
        c.allreduce_f64s(&mut buf, ReduceOp::Sum);
        c.work(work_ops);
        buf[0]
    })
    .unwrap();
    let nonblocking = run_spmd_default(&spec, |c| {
        let mut buf = payload(c.rank(), 256);
        let mut req = c.iallreduce_f64s(&mut buf, ReduceOp::Sum);
        c.work(work_ops);
        c.wait(&mut req);
        buf[0]
    })
    .unwrap();
    assert!(
        nonblocking.elapsed < blocking.elapsed,
        "overlap did not shorten the run: nb {} vs blocking {}",
        nonblocking.elapsed,
        blocking.elapsed
    );
    for r in &nonblocking.ranks {
        assert!(r.hidden_comm > 0.0, "rank {}: nothing was hidden", r.rank);
        // Outside any span the default bucket holds all of it.
        let hidden: f64 = r.phases.iter().map(|p| p.hidden_comm).sum();
        assert_eq!(hidden, r.hidden_comm, "rank {}: phase buckets' hidden time", r.rank);
        assert_eq!(r.phase(DEFAULT_PHASE).map(|p| p.hidden_comm), Some(r.hidden_comm));
        let sum = r.compute + r.comm + r.idle;
        assert!(
            (sum - r.elapsed).abs() <= 1e-9 * r.elapsed.max(1.0),
            "rank {}: buckets {} != elapsed {}",
            r.rank,
            sum,
            r.elapsed
        );
        let phases = r.phases_total();
        assert!(
            (phases - r.elapsed).abs() <= 1e-9 * r.elapsed.max(1.0),
            "rank {}: phases {} != elapsed {}",
            r.rank,
            phases,
            r.elapsed
        );
    }
    // Nothing hidden in the blocking run.
    assert!(blocking.ranks.iter().all(|r| r.hidden_comm == 0.0));
}

#[test]
fn hidden_time_is_booked_to_the_phase_that_waits() {
    // The overlap a wait uncovers lands in the bucket of the span open at
    // the wait, as a shadow measure outside that bucket's total.
    let spec = presets::meiko_cs2(4);
    let out = run_spmd_default(&spec, |c| {
        let mut buf = payload(c.rank(), 256);
        c.enter_phase("overlap");
        let mut req = c.iallreduce_f64s(&mut buf, ReduceOp::Sum);
        c.work(2_000_000);
        c.wait(&mut req);
        c.exit_phase();
        buf[0]
    })
    .unwrap();
    for r in &out.ranks {
        assert!(r.hidden_comm > 0.0, "rank {}: nothing was hidden", r.rank);
        let Some(span) = r.phase("overlap") else { panic!("rank {}: no overlap bucket", r.rank) };
        assert_eq!(span.hidden_comm, r.hidden_comm, "rank {}: span's hidden time", r.rank);
        assert_eq!(r.phase(DEFAULT_PHASE).map(|p| p.hidden_comm), Some(0.0));
        let phases = r.phases_total();
        assert!(
            (phases - r.elapsed).abs() <= 1e-9 * r.elapsed.max(1.0),
            "rank {}: phases {} != elapsed {}",
            r.rank,
            phases,
            r.elapsed
        );
    }
}

#[test]
fn wait_without_compute_costs_the_full_wire_time() {
    // Post-then-wait with no work in between degenerates to the blocking
    // schedule: same elapsed, nothing hidden beyond rounding.
    let spec = presets::meiko_cs2(3);
    let blocking = run_spmd_default(&spec, |c| {
        let mut buf = payload(c.rank(), 64);
        c.allreduce_f64s(&mut buf, ReduceOp::Sum);
        buf[0]
    })
    .unwrap();
    let nonblocking = run_spmd_default(&spec, |c| {
        let mut buf = payload(c.rank(), 64);
        let mut req = c.iallreduce_f64s(&mut buf, ReduceOp::Sum);
        c.wait(&mut req);
        buf[0]
    })
    .unwrap();
    assert!(
        (nonblocking.elapsed - blocking.elapsed).abs() <= 1e-12,
        "immediate wait should match blocking: nb {} vs {}",
        nonblocking.elapsed,
        blocking.elapsed
    );
}

#[test]
fn completions_stay_fifo_across_posts() {
    // Two back-to-back posts waited in order: after each wait the clock
    // must be monotone, and waiting the second first would still be legal
    // (it completes no earlier than the first's horizon).
    let spec = presets::meiko_cs2(4);
    run_spmd_default(&spec, |c| {
        let mut a = payload(c.rank(), 128);
        let mut b = payload(c.rank(), 8);
        let mut ra = c.iallreduce_f64s(&mut a, ReduceOp::Sum);
        let mut rb = c.iallreduce_f64s(&mut b, ReduceOp::Sum);
        c.work(10_000);
        // Wait out of post order: the small second collective may not
        // complete before the large first one.
        c.wait(&mut rb);
        let t_b = c.now();
        c.wait(&mut ra);
        let t_a = c.now();
        assert!(t_a >= t_b, "clock went backwards: {t_a} < {t_b}");
        (t_a, t_b)
    })
    .unwrap();
}

#[test]
fn wait_twice_is_diagnosed_with_rank() {
    let spec = presets::meiko_cs2(3);
    let err = run_spmd_default(&spec, |c| {
        let mut buf = payload(c.rank(), 16);
        let mut req = c.iallreduce_f64s(&mut buf, ReduceOp::Sum);
        c.wait(&mut req);
        if c.rank() == 1 {
            c.wait(&mut req); // misuse
        }
        c.barrier();
    })
    .unwrap_err();
    match err {
        SimError::RequestMisuse { rank, detail } => {
            assert_eq!(rank, 1, "culprit rank");
            assert!(detail.contains("waited twice"), "{detail}");
        }
        other => panic!("expected RequestMisuse, got {other}"),
    }
}

#[test]
fn drop_without_wait_panics_the_culprit_rank() {
    let spec = presets::meiko_cs2(3);
    let err = run_spmd_default(&spec, |c| {
        if c.rank() == 2 {
            let mut buf = payload(c.rank(), 16);
            let _dropped = c.iallreduce_f64s(&mut buf, ReduceOp::Sum);
            // falls out of scope unwaited
        } else {
            let mut buf = payload(c.rank(), 16);
            let mut req = c.iallreduce_f64s(&mut buf, ReduceOp::Sum);
            c.wait(&mut req);
        }
        c.barrier();
    })
    .unwrap_err();
    match err {
        SimError::RankPanicked { rank, message } => {
            assert_eq!(rank, 2, "culprit rank");
            assert!(message.contains("dropped without wait"), "{message}");
            assert!(message.contains("rank 2"), "{message}");
        }
        other => panic!("expected RankPanicked, got {other}"),
    }
}

#[test]
fn mismatched_posted_lengths_trip_the_fingerprint_checker() {
    let spec = presets::meiko_cs2(4);
    let err = run_spmd(&spec, &SimOptions::verified(), |c| {
        let len = if c.rank() == 3 { 9 } else { 8 };
        let mut buf = payload(c.rank(), len);
        let mut req = c.iallreduce_f64s(&mut buf, ReduceOp::Sum);
        c.wait(&mut req);
    })
    .unwrap_err();
    match err {
        SimError::CollectiveDivergence { detail, .. } => {
            assert!(detail.contains("elems") || detail.contains("9"), "{detail}");
        }
        other => panic!("expected CollectiveDivergence, got {other}"),
    }
}
