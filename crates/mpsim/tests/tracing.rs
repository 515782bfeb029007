//! Tests of the optional message-event trace and heterogeneous rank
//! speeds.

use mpsim::{
    presets, run_spmd, run_spmd_default, Communicator, EventKind, ReduceOp, SimOptions, SpmdComm,
};

#[test]
fn trace_is_empty_when_disabled() {
    let spec = presets::zero_cost(3);
    let out = run_spmd_default(&spec, |c| {
        c.barrier();
    })
    .unwrap();
    assert!(out.events.iter().all(|e| e.is_empty()));
}

#[test]
fn trace_records_every_message() {
    let spec = presets::meiko_cs2(4);
    let opts = SimOptions { record_events: true, ..Default::default() };
    let out = run_spmd(&spec, &opts, |c| {
        let mut buf = vec![c.rank() as f64; 16];
        c.allreduce_f64s(&mut buf, ReduceOp::Sum);
        c.barrier();
    })
    .unwrap();
    for (rank, (events, stats)) in out.events.iter().zip(&out.ranks).enumerate() {
        let sends = events.iter().filter(|e| e.kind == EventKind::Send).count() as u64;
        let recvs = events.iter().filter(|e| e.kind == EventKind::Recv).count() as u64;
        assert_eq!(sends, stats.msgs_sent, "rank {rank} send count");
        assert_eq!(recvs, stats.msgs_recvd, "rank {rank} recv count");
        assert!(sends > 0, "rank {rank} sent nothing?");
        // Event times are monotone on each rank and within elapsed time.
        for w in events.windows(2) {
            assert!(w[0].t <= w[1].t, "rank {rank}: events out of order");
        }
        for e in events {
            assert!(e.t <= stats.elapsed + 1e-12);
            assert!(e.peer < 4);
        }
    }
    // Byte accounting matches the trace.
    for (events, stats) in out.events.iter().zip(&out.ranks) {
        let sent: u64 =
            events.iter().filter(|e| e.kind == EventKind::Send).map(|e| e.bytes as u64).sum();
        assert_eq!(sent, stats.bytes_sent);
    }
}

#[test]
fn slow_rank_takes_proportionally_longer_to_compute() {
    let spec = presets::meiko_cs2(2).with_rank_speeds(vec![0.5, 1.0]);
    let out = run_spmd_default(&spec, |c| {
        c.work(1_000_000);
        c.now()
    })
    .unwrap();
    let (t0, t1) = (out.per_rank[0], out.per_rank[1]);
    assert!((t0 / t1 - 2.0).abs() < 1e-9, "t0={t0} t1={t1}");
}

#[test]
fn invalid_speeds_fall_back_to_unit() {
    let mut spec = presets::zero_cost(2);
    spec.rank_speed = vec![f64::NAN, 0.0];
    assert_eq!(spec.speed(0), 1.0);
    assert_eq!(spec.speed(1), 1.0);
    assert_eq!(spec.speed(5), 1.0); // out of range: homogeneous default
}

#[test]
#[should_panic(expected = "one speed per rank")]
fn with_rank_speeds_validates_length() {
    let _ = presets::zero_cost(3).with_rank_speeds(vec![1.0]);
}

#[test]
fn collective_mismatch_is_detected() {
    // A broadcast whose root passes a longer buffer than the others must
    // surface as a CollectiveMismatch, not a hang or silent corruption.
    let spec = presets::zero_cost(3);
    let r = run_spmd(&spec, &SimOptions::default(), |c| {
        let mut buf = vec![1.0; if c.rank() == 0 { 3 } else { 2 }]; // wrong: lengths differ
        c.broadcast_f64s(0, &mut buf);
    });
    match r {
        Err(mpsim::SimError::CollectiveMismatch { detail, .. }) => {
            assert!(detail.contains("buffer length"), "{detail}");
        }
        other => panic!("expected CollectiveMismatch, got {other:?}"),
    }
}
