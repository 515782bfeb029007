//! Cooperative-engine tests: large-`P` runs, the bounded-mailbox memory
//! guarantee, and the invariants (phase partition, message symmetry) the
//! engine must keep at every size.

use mpsim::{presets, run_spmd, Communicator, ReduceOp, SimOptions, SpmdComm};
use proptest::prelude::*;

/// A representative SPMD body: a phase-bucketed neighbor exchange plus an
/// allreduce, touching point-to-point, collectives, and phase accounting.
fn exchange_body(c: &mut mpsim::Comm) -> Vec<f64> {
    let me = c.rank();
    let p = c.size();
    c.enter_phase("estep");
    c.work(50 + (me as u64 % 7) * 10);
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    if p > 1 {
        c.send_f64s(right, 3, &[me as f64, (me * me) as f64]);
        let from_left = c.recv_f64s(left, 3);
        assert_eq!(from_left[0], left as f64);
    }
    c.exit_phase();
    c.enter_phase("allreduce");
    let mut sums = vec![1.0, me as f64];
    c.allreduce_f64s(&mut sums, ReduceOp::Sum);
    c.exit_phase();
    sums
}

#[test]
fn cooperative_runs_1024_ranks() {
    let spec = presets::zero_cost(1024);
    let out = run_spmd(&spec, &SimOptions::verified(), exchange_body).unwrap();
    let p = 1024.0_f64;
    let expect = vec![p, p * (p - 1.0) / 2.0];
    for r in &out.per_rank {
        assert_eq!(*r, expect);
    }
    out.stats.check_message_symmetry().unwrap();
}

#[test]
fn bounded_mailbox_holds_under_a_flood() {
    // A sender that fires 10_000 envelopes before the receiver drains any
    // would hold all of them in flight on an unbounded channel; the
    // cooperative mailbox bound forces the sender to park and caps the
    // peak at `max_inflight_per_pair`.
    const BOUND: usize = 8;
    const MSGS: usize = 10_000;
    let spec = presets::zero_cost(2);
    let opts = SimOptions { max_inflight_per_pair: BOUND, ..SimOptions::default() };
    let out = run_spmd(&spec, &opts, |c| {
        if c.rank() == 0 {
            for i in 0..MSGS {
                c.send_f64s(1, 9, &[i as f64]);
            }
            0.0
        } else {
            let mut last = 0.0;
            for _ in 0..MSGS {
                last = c.recv_f64s(0, 9)[0];
            }
            last
        }
    })
    .unwrap();
    assert_eq!(out.per_rank[1], (MSGS - 1) as f64);
    assert!(
        out.mailbox_high_water <= BOUND,
        "high water {} exceeds bound {BOUND}",
        out.mailbox_high_water
    );
    assert!(out.mailbox_high_water > 0, "flood never used the mailbox");
}

#[test]
fn a_sender_parked_on_a_rank_that_returns_is_released() {
    // With one envelope in flight per pair, rank 0's second send parks on
    // rank 1's full mailbox. Rank 1 returns without receiving, so its
    // finish must wake the parked sender, whose send then sees the closed
    // endpoint and returns; the run ends normally.
    let spec = presets::zero_cost(2);
    let opts = SimOptions { max_inflight_per_pair: 1, ..SimOptions::default() };
    let out = run_spmd(&spec, &opts, |c| {
        if c.rank() == 0 {
            for i in 0..3 {
                c.send_f64s(1, 5, &[f64::from(i)]);
            }
        }
        c.rank()
    })
    .unwrap();
    assert_eq!(out.per_rank, [0, 1]);
    assert_eq!(out.mailbox_high_water, 1);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// At large `P` under the cooperative engine, every rank's phase
    /// buckets still partition its elapsed virtual time exactly.
    #[test]
    fn phases_partition_elapsed_at_large_p(
        pick in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let p = [64usize, 256, 1024][pick];
        let spec = presets::zero_cost(p);
        let out = run_spmd(&spec, &SimOptions::default(), |c| {
            c.enter_phase("estep");
            c.work(10 + (c.rank() as u64).wrapping_mul(seed) % 97);
            c.exit_phase();
            let mut v = vec![seed as f64, c.rank() as f64];
            c.allreduce_f64s(&mut v, ReduceOp::Max);
            v
        }).unwrap();
        for stats in &out.ranks {
            let sum = stats.phases_total();
            prop_assert!(
                (sum - stats.elapsed).abs() <= 1e-9,
                "P={p} rank {}: phases sum {sum:.15} vs elapsed {:.15}",
                stats.rank,
                stats.elapsed
            );
        }
        let symmetry = out.stats.check_message_symmetry();
        prop_assert!(symmetry.is_ok(), "P={p}: {symmetry:?}");
    }
}
