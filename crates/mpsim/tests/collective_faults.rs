//! A dropped message inside a collective is a failed peer: the receiver
//! stops at the receive the message would have completed and waits there
//! on its sender, so the run names the sender, the kind and the sender's
//! message number — even when the sender has a later message with the
//! same tag for the same receiver, which the receiver must not take in
//! the dropped one's place.

use mpsim::{
    presets, run_spmd, AllreduceAlgo, Communicator, FaultAction, FaultKind, FaultPlan, FaultSpec,
    FaultTrigger, ReduceOp, SimError, SimOptions, SpmdComm,
};

/// One allreduce of `len` elements with `algo` on `meiko_cs2(p)`, rank 1
/// dropping its first message to `dst`.
fn drop_in_allreduce(p: usize, len: usize, algo: AllreduceAlgo, dst: usize) -> SimError {
    let plan = FaultPlan::new(vec![FaultSpec {
        rank: 1,
        action: FaultAction::Drop { dst },
        trigger: FaultTrigger::AtSendSeq(1),
    }]);
    let opts = SimOptions { fault: Some(plan), ..SimOptions::default() };
    run_spmd(&presets::meiko_cs2(p), &opts, |c| {
        let mut v: Vec<f64> = (0..len).map(|i| (c.rank() * len + i) as f64).collect();
        c.allreduce_f64s_with(&mut v, ReduceOp::Sum, algo);
        v
    })
    .expect_err("a dropped message must fail the run")
}

fn assert_names_the_drop(err: SimError, receiver: usize) {
    match err {
        SimError::PeerFailed { rank, peer, kind, seq, .. } => {
            assert_eq!((rank, peer, kind, seq), (receiver, 1, FaultKind::Drop, 1), "{err}");
        }
        other => panic!("expected PeerFailed naming rank 1's drop, got {other:?}"),
    }
}

#[test]
fn a_drop_inside_a_ring_allreduce_names_its_sender() {
    // Rank 1 sends to rank 2 in every round of the ring, all with the
    // collective's tag; the first of them is lost.
    assert_names_the_drop(drop_in_allreduce(4, 9, AllreduceAlgo::Ring, 2), 2);
}

#[test]
fn a_drop_inside_a_rabenseifner_allreduce_names_its_sender() {
    // At P = 2 the two ranks exchange once per half; rank 1's
    // reduce-scatter message to rank 0 is lost, its allgather message is
    // not.
    assert_names_the_drop(drop_in_allreduce(2, 3, AllreduceAlgo::Rabenseifner, 0), 0);
}
