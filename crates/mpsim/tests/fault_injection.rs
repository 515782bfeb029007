//! Fault injection end-to-end: every injected fault must surface as a
//! typed error naming the culprit rank/seq/kind — never a hang, never an
//! untyped panic — across all allreduce algorithms and the non-blocking
//! paths, and must coexist with the PR 1 wait-for-graph detector.

use std::error::Error;
use std::time::Duration;

use mpsim::{
    presets, run_spmd, AllreduceAlgo, Communicator, DecodeError, FaultAction, FaultPlan, FaultSpec,
    FaultTrigger, ReduceOp, SimError, SimOptions, SpmdComm,
};
use proptest::prelude::*;

const ALGOS: [AllreduceAlgo; 5] = [
    AllreduceAlgo::Linear,
    AllreduceAlgo::RecursiveDoubling,
    AllreduceAlgo::Ring,
    AllreduceAlgo::Rabenseifner,
    AllreduceAlgo::Auto,
];

fn opts_with(plan: FaultPlan) -> SimOptions {
    SimOptions { fault: Some(plan), ..Default::default() }
}

/// A small SPMD body exercising collectives in a loop: work + allreduce,
/// like one EM cycle.
fn allreduce_rounds(c: &mut mpsim::Comm, rounds: usize, algo: AllreduceAlgo) -> Vec<f64> {
    let mut buf = vec![c.rank() as f64 + 1.0; 64];
    for _ in 0..rounds {
        c.work(10_000);
        c.allreduce_f64s_with(&mut buf, ReduceOp::Sum, algo);
    }
    buf
}

#[test]
fn crash_is_typed_across_all_algorithms_and_sizes() {
    for algo in ALGOS {
        for p in [2usize, 4, 5, 8] {
            let mut spec = presets::meiko_cs2(p);
            spec.allreduce = algo;
            let plan = FaultPlan::new(vec![FaultSpec {
                rank: 1,
                action: FaultAction::Crash,
                trigger: FaultTrigger::AtSendSeq(3),
            }]);
            let start = std::time::Instant::now();
            let r = run_spmd(&spec, &opts_with(plan), |c| allreduce_rounds(c, 8, algo));
            match r {
                Err(SimError::RankCrashed { rank, seq, .. }) => {
                    assert_eq!(rank, 1, "{algo:?} p={p}");
                    assert!(seq <= 3, "{algo:?} p={p}: died at seq {seq}");
                }
                other => panic!("{algo:?} p={p}: expected RankCrashed, got {other:?}"),
            }
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "{algo:?} p={p}: detection too slow ({:?})",
                start.elapsed()
            );
        }
    }
}

#[test]
fn crash_detection_works_on_nonblocking_paths() {
    let spec = presets::meiko_cs2(4);
    let plan = FaultPlan::new(vec![FaultSpec {
        rank: 2,
        action: FaultAction::Crash,
        trigger: FaultTrigger::AtSendSeq(2),
    }]);
    let r = run_spmd(&spec, &opts_with(plan), |c| {
        let mut buf = vec![c.rank() as f64; 32];
        for _ in 0..6 {
            let mut req = c.iallreduce_f64s(&mut buf, ReduceOp::Sum);
            c.work(50_000);
            c.wait(&mut req);
        }
        buf
    });
    assert!(matches!(r, Err(SimError::RankCrashed { rank: 2, .. })), "got {r:?}");
}

#[test]
fn dropped_message_names_culprit_and_seq() {
    let mut spec = presets::meiko_cs2(2);
    spec.allreduce = AllreduceAlgo::Linear;
    let plan = FaultPlan::new(vec![FaultSpec {
        rank: 1,
        action: FaultAction::Drop { dst: 0 },
        trigger: FaultTrigger::AtSendSeq(2),
    }]);
    let r = run_spmd(&spec, &opts_with(plan), |c| allreduce_rounds(c, 4, AllreduceAlgo::Linear));
    match r {
        Err(SimError::PeerFailed { peer, kind, seq, .. }) => {
            assert_eq!(peer, 1);
            assert_eq!(kind, mpsim::FaultKind::Drop);
            assert_eq!(seq, 2);
        }
        other => panic!("expected PeerFailed(drop), got {other:?}"),
    }
}

#[test]
fn delay_past_virtual_timeout_is_typed() {
    let spec = presets::meiko_cs2(2);
    let plan = FaultPlan::new(vec![FaultSpec {
        rank: 1,
        action: FaultAction::Delay { dst: 0, secs: 10.0 },
        trigger: FaultTrigger::AtSendSeq(1),
    }])
    .with_virtual_timeout(1.0);
    let r = run_spmd(&spec, &opts_with(plan), |c| allreduce_rounds(c, 3, AllreduceAlgo::Linear));
    match r {
        Err(SimError::Timeout { from, waited, limit, .. }) => {
            assert_eq!(from, 1);
            assert!(waited > limit, "waited {waited} vs limit {limit}");
            assert!((limit - 1.0).abs() < 1e-12);
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
}

#[test]
fn tolerated_delay_recovers_bit_identically_but_later() {
    let spec = presets::meiko_cs2(3);
    let baseline =
        run_spmd(&spec, &SimOptions::default(), |c| allreduce_rounds(c, 4, AllreduceAlgo::Linear))
            .unwrap();
    let plan = FaultPlan::new(vec![FaultSpec {
        rank: 1,
        action: FaultAction::Delay { dst: 0, secs: 0.25 },
        trigger: FaultTrigger::AtSendSeq(2),
    }]);
    let faulted =
        run_spmd(&spec, &opts_with(plan), |c| allreduce_rounds(c, 4, AllreduceAlgo::Linear))
            .unwrap();
    for (a, b) in baseline.per_rank.iter().zip(&faulted.per_rank) {
        let a_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
        let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a_bits, b_bits, "a delayed message must not change values");
    }
    assert!(
        faulted.elapsed > baseline.elapsed + 0.2,
        "delay must show up in virtual time: {} vs {}",
        faulted.elapsed,
        baseline.elapsed
    );
}

#[test]
fn degraded_link_slows_the_run_without_changing_results() {
    let spec = presets::meiko_cs2(2);
    let baseline =
        run_spmd(&spec, &SimOptions::default(), |c| allreduce_rounds(c, 4, AllreduceAlgo::Linear))
            .unwrap();
    let plan = FaultPlan::new(vec![FaultSpec {
        rank: 1,
        action: FaultAction::DegradeLink { dst: 0, factor: 100.0 },
        trigger: FaultTrigger::AtTime(0.0),
    }]);
    let degraded =
        run_spmd(&spec, &opts_with(plan), |c| allreduce_rounds(c, 4, AllreduceAlgo::Linear))
            .unwrap();
    for (a, b) in baseline.per_rank.iter().zip(&degraded.per_rank) {
        let a_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
        let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a_bits, b_bits);
    }
    assert!(
        degraded.elapsed > baseline.elapsed,
        "degraded link must cost virtual time: {} vs {}",
        degraded.elapsed,
        baseline.elapsed
    );
}

#[test]
fn corruption_is_caught_by_the_envelope_checksum() {
    let spec = presets::meiko_cs2(2);
    let plan = FaultPlan::new(vec![FaultSpec {
        rank: 1,
        action: FaultAction::Corrupt { dst: 0, byte: 11, mask: 0x40 },
        trigger: FaultTrigger::AtSendSeq(1),
    }]);
    let r = run_spmd(&spec, &opts_with(plan), |c| allreduce_rounds(c, 2, AllreduceAlgo::Linear));
    match &r {
        Err(e @ SimError::PayloadCorrupt { from, seq, cause, .. }) => {
            assert_eq!((*from, *seq), (1, 1));
            assert!(matches!(cause, DecodeError::ChecksumMismatch { .. }), "{cause:?}");
            // Satellite: the mpsim fault is reachable via source() chaining.
            let src = e.source().expect("PayloadCorrupt has a source");
            assert!(src.to_string().contains("checksum"), "{src}");
        }
        other => panic!("expected PayloadCorrupt, got {other:?}"),
    }
}

#[test]
fn corruption_of_an_empty_payload_is_still_caught() {
    // Barrier messages carry no bytes; the fault layer corrupts the
    // checksum itself so the fault cannot vanish.
    let spec = presets::meiko_cs2(2);
    let plan = FaultPlan::new(vec![FaultSpec {
        rank: 1,
        action: FaultAction::Corrupt { dst: 0, byte: 0, mask: 0xFF },
        trigger: FaultTrigger::AtSendSeq(1),
    }]);
    let r = run_spmd(&spec, &opts_with(plan), |c| {
        for _ in 0..3 {
            c.barrier();
        }
    });
    assert!(matches!(r, Err(SimError::PayloadCorrupt { from: 1, .. })), "got {r:?}");
}

#[test]
fn fault_detection_coexists_with_the_wait_for_graph_detector() {
    // With every verification layer on, an injected crash must still be
    // reported as the root cause — not misdiagnosed as a deadlock and not
    // drowned out by collective-fingerprint bookkeeping.
    let mut opts = SimOptions::verified();
    opts.fault = Some(FaultPlan::new(vec![FaultSpec {
        rank: 1,
        action: FaultAction::Crash,
        trigger: FaultTrigger::AtSendSeq(2),
    }]));
    let spec = presets::meiko_cs2(4);
    let start = std::time::Instant::now();
    let r = run_spmd(&spec, &opts, |c| allreduce_rounds(c, 6, AllreduceAlgo::RecursiveDoubling));
    assert!(matches!(r, Err(SimError::RankCrashed { rank: 1, .. })), "got {r:?}");
    assert!(start.elapsed() < Duration::from_secs(10));
}

#[test]
fn spent_plans_do_not_refire_on_rerun() {
    // The restart-from-checkpoint contract: re-running the same options
    // after the fault fired must succeed, because one-shot faults stay
    // spent across engine runs.
    let spec = presets::meiko_cs2(2);
    let plan = FaultPlan::new(vec![FaultSpec {
        rank: 1,
        action: FaultAction::Drop { dst: 0 },
        trigger: FaultTrigger::AtSendSeq(1),
    }]);
    let opts = opts_with(plan.clone());
    let first = run_spmd(&spec, &opts, |c| allreduce_rounds(c, 2, AllreduceAlgo::Linear));
    assert!(first.is_err());
    assert_eq!(plan.fired_count(), 1);
    let second = run_spmd(&spec, &opts, |c| allreduce_rounds(c, 2, AllreduceAlgo::Linear));
    assert!(second.is_ok(), "spent fault refired: {second:?}");
}

#[test]
fn seeded_plans_run_to_a_typed_outcome() {
    // Whatever a seeded plan injects, the run must end in Ok (tolerated
    // fault) or a typed fault error — never a hang or untyped panic.
    for seed in 0..12u64 {
        let p = 2 + (seed as usize % 4);
        let spec = presets::meiko_cs2(p);
        let plan = FaultPlan::seeded(seed, p);
        let r = run_spmd(&spec, &opts_with(plan), |c| {
            allreduce_rounds(c, 6, AllreduceAlgo::RecursiveDoubling)
        });
        match r {
            Ok(_) => {}
            Err(
                SimError::RankCrashed { .. }
                | SimError::PeerFailed { .. }
                | SimError::Timeout { .. }
                | SimError::PayloadCorrupt { .. },
            ) => {}
            Err(other) => panic!("seed {seed}: untyped outcome {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    // Satellite: random byte flips never panic the harness and the error
    // always names the offending message seq.
    #[test]
    fn random_byte_flips_never_panic_and_name_the_seq(
        byte in 0usize..512,
        mask in 0u64..256,
        at_seq in 1u64..4,
    ) {
        let spec = presets::meiko_cs2(2);
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            action: FaultAction::Corrupt { dst: 0, byte, mask: mask as u8 },
            trigger: FaultTrigger::AtSendSeq(at_seq),
        }]);
        let r = run_spmd(&spec, &opts_with(plan), |c| {
            allreduce_rounds(c, 4, AllreduceAlgo::Linear)
        });
        match r {
            Err(SimError::PayloadCorrupt { from, seq, .. }) => {
                prop_assert_eq!(from, 1);
                prop_assert_eq!(seq, at_seq);
            }
            other => panic!("expected PayloadCorrupt at seq {at_seq}, got {other:?}"),
        }
    }
}
