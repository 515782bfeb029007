//! End-to-end tests of the SPMD correctness verifier: full-strength runs
//! must stay quiet on correct programs, and injected faults — mismatched
//! collectives, skipped collectives, diverging "replicated" values — must
//! be diagnosed with a precise error naming the culprit.

use std::time::{Duration, Instant};

use mpsim::{
    presets, run_spmd, AllreduceAlgo, Communicator, ReduceOp, SimError, SimOptions, SpmdComm,
    VerifyOptions,
};
use proptest::prelude::*;

#[test]
fn full_verification_is_quiet_on_a_correct_program() {
    // Exercise every collective (world and group) with all checks on: the
    // verifier must not produce false positives.
    let spec = presets::zero_cost(5);
    let out = run_spmd(&spec, &SimOptions::verified(), |c| {
        c.barrier();
        let mut b = vec![0.0; 4];
        if c.rank() == 0 {
            b = vec![1.0, 2.0, 3.0, 4.0];
        }
        c.broadcast_f64s(0, &mut b);
        c.verify_replicated("bcast payload", &b);
        let mut acc = vec![c.rank() as f64; 3];
        c.allreduce_f64s(&mut acc, ReduceOp::Sum);
        c.verify_replicated("allreduce payload", &acc);
        let mine = vec![c.rank() as f64; c.rank() + 1]; // ragged: allowed
        let _ = c.gather_f64s(2, &mine);
        let _ = c.allgather_f64s(&mine);
        {
            let mut sub = c.split(|r| (r % 2) as u32);
            sub.barrier();
            let mut v = vec![1.0, 1.0];
            sub.allreduce_f64s(&mut v, ReduceOp::Sum);
            let mut w = vec![sub.rank() as f64];
            w[0] = 7.0;
            sub.broadcast_f64s(0, &mut w);
            let _ = sub.gather_f64s(0, &v);
        }
        acc[0]
    })
    .unwrap();
    assert!(out.per_rank.iter().all(|&v| v == 0.0 + 1.0 + 2.0 + 3.0 + 4.0));
}

#[test]
fn all_allreduce_algorithms_pass_replication_hashing() {
    for algo in [AllreduceAlgo::Linear, AllreduceAlgo::RecursiveDoubling, AllreduceAlgo::Ring] {
        for p in [1usize, 2, 3, 4, 7] {
            let spec = presets::zero_cost(p);
            run_spmd(&spec, &SimOptions::verified(), |c| {
                let mut buf: Vec<f64> =
                    (0..10).map(|i| (c.rank() * 10 + i) as f64 * 0.37).collect();
                c.allreduce_f64s_with(&mut buf, ReduceOp::Sum, algo);
                buf
            })
            .unwrap_or_else(|e| panic!("{algo:?} p={p}: {e}"));
        }
    }
}

#[test]
fn wrong_root_is_reported_as_divergence() {
    let spec = presets::zero_cost(3);
    let r = run_spmd::<(), _>(&spec, &SimOptions::verified(), |c| {
        let root = if c.rank() == 2 { 1 } else { 0 };
        let mut b = vec![0.0];
        c.broadcast_f64s(root, &mut b);
    });
    match r {
        Err(SimError::CollectiveDivergence { seq, detail, .. }) => {
            assert_eq!(seq, 1);
            assert!(detail.contains("root=0") && detail.contains("root=1"), "{detail}");
        }
        other => panic!("expected CollectiveDivergence, got {other:?}"),
    }
}

#[test]
fn wrong_reduce_op_is_reported_as_divergence() {
    let spec = presets::zero_cost(4);
    let r = run_spmd::<(), _>(&spec, &SimOptions::verified(), |c| {
        let op = if c.rank() == 3 { ReduceOp::Max } else { ReduceOp::Sum };
        let mut b = vec![1.0, 2.0];
        c.allreduce_f64s(&mut b, op);
    });
    match r {
        Err(SimError::CollectiveDivergence { detail, .. }) => {
            assert!(detail.contains("op=Sum") && detail.contains("op=Max"), "{detail}");
            assert!(detail.contains("rank 3"), "{detail}");
        }
        other => panic!("expected CollectiveDivergence, got {other:?}"),
    }
}

#[test]
fn differing_nested_split_colors_are_reported_as_divergence() {
    // Colors are a collective argument: world rank 2 files group rank 0
    // under a different color than the rest of its group, so the nested
    // split's color-table hashes disagree.
    let spec = presets::zero_cost(4);
    let r = run_spmd::<(), _>(&spec, &SimOptions::verified(), |c| {
        let me = c.rank();
        let mut sub = c.split(|r| (r % 2) as u32);
        sub.split(|r| u32::from(r == 0 && me != 2)).barrier();
    });
    match r {
        Err(SimError::CollectiveDivergence { detail, .. }) => {
            assert!(detail.contains("Split") && detail.contains("colors="), "{detail}");
        }
        other => panic!("expected CollectiveDivergence, got {other:?}"),
    }
}

#[test]
fn group_collective_divergence_names_world_ranks() {
    let spec = presets::zero_cost(4);
    let r = run_spmd::<(), _>(&spec, &SimOptions::verified(), |c| {
        let me = c.rank();
        let mut sub = c.split(|r| (r % 2) as u32);
        // World rank 3 (group rank 1 of the odd group) calls a barrier
        // while its partner calls an allreduce.
        if me == 3 {
            sub.barrier();
        } else {
            let mut v = vec![1.0];
            sub.allreduce_f64s(&mut v, ReduceOp::Sum);
        }
    });
    match r {
        Err(SimError::CollectiveDivergence { detail, .. }) => {
            assert!(detail.contains("rank 3"), "{detail}");
            assert!(detail.contains("Barrier") && detail.contains("Allreduce"), "{detail}");
        }
        other => panic!("expected CollectiveDivergence, got {other:?}"),
    }
}

#[test]
fn replicated_value_divergence_is_reported_with_label() {
    let spec = presets::zero_cost(3);
    let r = run_spmd::<(), _>(&spec, &SimOptions::verified(), |c| {
        // "Replicated" model parameters that rank 1 computed differently.
        let params = if c.rank() == 1 { vec![1.0, 2.0 + 1e-15] } else { vec![1.0, 2.0] };
        c.verify_replicated("model params", &params);
    });
    match r {
        Err(SimError::ReplicationDivergence { seq, detail, .. }) => {
            assert_eq!(seq, 1);
            assert!(detail.contains("model params"), "{detail}");
            assert!(detail.contains("rank 1") || detail.contains("rank 0"), "{detail}");
        }
        other => panic!("expected ReplicationDivergence, got {other:?}"),
    }
}

#[test]
fn verification_off_keeps_legacy_behaviour() {
    // With every check disabled nothing is registered and a correct
    // program runs exactly as before.
    let spec = presets::zero_cost(4);
    let opts = SimOptions { verify: VerifyOptions::none(), ..Default::default() };
    let out = run_spmd(&spec, &opts, |c| c.allreduce_scalar(1.0, ReduceOp::Sum)).unwrap();
    assert!(out.per_rank.iter().all(|&v| v == 4.0));
}

/// What fault the proptest injects on the victim rank.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// Victim calls `barrier` where everyone else calls `allreduce`.
    WrongKind,
    /// Victim passes a buffer of a different length to the allreduce.
    WrongLen,
    /// Victim skips the collective entirely and returns.
    Skip,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Inject a random fault on a random rank after a random number of
    /// healthy collectives: the error must name the right rank, the right
    /// sequence number, and the right collective kinds.
    #[test]
    fn injected_fault_is_pinpointed(
        p in 2usize..7,
        victim_frac in 0usize..1000,
        healthy in 0u64..4,
        fault in prop_oneof![Just(Fault::WrongKind), Just(Fault::WrongLen), Just(Fault::Skip)],
    ) {
        let victim = victim_frac % p;
        let spec = presets::zero_cost(p);
        let start = Instant::now();
        let r = run_spmd::<(), _>(&spec, &SimOptions::verified(), |c| {
            for _ in 0..healthy {
                let mut v = vec![1.0, 2.0];
                c.allreduce_f64s(&mut v, ReduceOp::Sum);
            }
            let is_victim = c.rank() == victim;
            match (fault, is_victim) {
                (Fault::Skip, true) => {} // simply never joins
                (Fault::WrongKind, true) => c.barrier(),
                (Fault::WrongLen, true) => {
                    let mut v = vec![0.0; 5];
                    c.allreduce_f64s(&mut v, ReduceOp::Sum);
                }
                (_, false) => {
                    let mut v = vec![0.0; 2];
                    c.allreduce_f64s(&mut v, ReduceOp::Sum);
                }
            }
        });
        let elapsed = start.elapsed();
        let faulty_seq = healthy + 1;
        match (fault, r) {
            (Fault::WrongKind, Err(SimError::CollectiveDivergence { seq, detail, .. })) => {
                prop_assert_eq!(seq, faulty_seq, "{}", detail);
                prop_assert!(detail.contains(&format!("rank {victim}")), "{}", detail);
                prop_assert!(detail.contains("Barrier"), "{}", detail);
                prop_assert!(detail.contains("Allreduce"), "{}", detail);
            }
            (Fault::WrongLen, Err(SimError::CollectiveDivergence { seq, detail, .. })) => {
                prop_assert_eq!(seq, faulty_seq, "{}", detail);
                prop_assert!(detail.contains(&format!("rank {victim}")), "{}", detail);
                prop_assert!(detail.contains("elems=5"), "{}", detail);
                prop_assert!(detail.contains("elems=2"), "{}", detail);
            }
            (Fault::Skip, Err(SimError::Deadlock { detail, .. })) => {
                // The victim finished without joining; some rank is stuck
                // waiting on it and the detector must say so.
                prop_assert!(
                    detail.contains(&format!("waits on rank {victim}")),
                    "{}", detail
                );
                prop_assert!(detail.contains("finished"), "{}", detail);
                prop_assert!(
                    elapsed < Duration::from_secs(5),
                    "diagnosis took {:?}", elapsed
                );
            }
            (_, other) => prop_assert!(false, "fault {:?} produced {:?}", fault, other),
        }
    }
}
