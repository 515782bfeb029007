//! Cross-backend determinism for *nested* sub-communicators: collectives
//! on a group split from a group must be bitwise identical between the
//! simulated and the native backend — the contract the fleet-parallel
//! model search rests on when each fleet sub-partitions further (and when
//! the shrink-recovery path runs inside a fleet). Covers P ∈ {4, 6, 8}
//! including ragged outer and inner group sizes. A split itself moves no
//! message on either backend.

use mpsim::{presets, Communicator, ReduceOp, SpmdComm};
use proptest::prelude::*;
use shmcomm::{run_native, NativeOptions};

/// Deterministic pseudo-random payload (same LCG as cross_backend.rs).
fn payload(rank: usize, n: usize, seed: u64) -> Vec<f64> {
    let mut x = seed ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1.0e6
        })
        .collect()
}

/// Outer color: contiguous blocks of `outer` groups; inner color: a
/// modulus within the group, so ragged inner groups arise whenever the
/// outer group size is not a multiple of `inner_mod`.
fn body<C: Communicator>(
    comm: &mut C,
    outer: usize,
    inner_mod: usize,
    n: usize,
    seed: u64,
) -> Vec<u64> {
    let me = comm.rank();
    let p = comm.size();
    let outer_color = |r: usize| (r * outer / p) as u32;
    let inner_color = |r: usize| (r % inner_mod) as u32;
    let mut out: Vec<u64> = Vec::new();
    {
        let mut sub = comm.split(outer_color);
        let mut inner = sub.split(inner_color);
        inner.barrier();
        // Allreduce of rank-distinct payloads: a fold-order or membership
        // bug shows up in the last bit.
        let mut buf = payload(me, n, seed);
        inner.allreduce_f64s(&mut buf, ReduceOp::Sum);
        out.extend(buf.iter().map(|v| v.to_bits()));
        // Broadcast from the inner root.
        let mut b = payload(inner.members()[0], n.max(1), seed ^ 0xB0);
        inner.broadcast_f64s(0, &mut b);
        out.extend(b.iter().map(|v| v.to_bits()));
        // Gather to the inner root, root re-reduces.
        if let Some(g) = inner.gather_f64s(0, &[me as f64 + 0.25]) {
            out.extend(g.iter().map(|v| v.to_bits()));
        }
        // Scalar allreduce default impl goes through the same schedule.
        out.push(inner.allreduce_scalar(me as f64 * 0.5 + 1.0, ReduceOp::Max).to_bits());
        // Membership bookkeeping must agree too.
        out.push(inner.rank() as u64);
        out.push(inner.size() as u64);
        out.extend(inner.members().iter().map(|&r| r as u64));
    }
    // A world collective after the nested groups drop still lines up.
    out.push(comm.allreduce_scalar(1.0, ReduceOp::Sum).to_bits());
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn nested_split_collectives_bitwise_identical_across_backends(
        p in prop_oneof![Just(4usize), Just(6usize), Just(8usize)],
        outer in 2usize..4,
        inner_mod in 1usize..4,
        n in 1usize..9,
        seed in 0u64..u64::MAX,
    ) {
        let machine = presets::meiko_cs2(p);
        let sim =
            mpsim::run_spmd_default(&machine, |c| body(c, outer, inner_mod, n, seed)).unwrap();
        let native =
            run_native(&machine, &NativeOptions::default(), |c| body(c, outer, inner_mod, n, seed))
                .unwrap();
        prop_assert_eq!(&sim.per_rank, &native.per_rank);
    }
}

#[test]
fn ragged_nested_groups_sum_exactly() {
    // P = 6 -> outer {0,1,2,3} / {4,5} -> inner splits by parity of the
    // group rank: inner groups {0,2},{1,3} and {4},{5} (singletons).
    fn run<C: Communicator>(comm: &mut C) -> (usize, f64) {
        let me = comm.rank();
        let mut sub = comm.split(|r| u32::from(r >= 4));
        let mut inner = sub.split(|r| (r % 2) as u32);
        let sum = inner.allreduce_scalar(me as f64, ReduceOp::Sum);
        (inner.size(), sum)
    }
    let machine = presets::meiko_cs2(6);
    let sim = mpsim::run_spmd_default(&machine, run).unwrap();
    let native = run_native(&machine, &NativeOptions::default(), run).unwrap();
    assert_eq!(sim.per_rank, native.per_rank);
    let expect = [(2, 2.0), (2, 4.0), (2, 2.0), (2, 4.0), (1, 4.0), (1, 5.0)];
    for (rank, (size, sum)) in sim.per_rank.iter().enumerate() {
        assert_eq!((*size, *sum), expect[rank], "rank {rank}");
    }
}

#[test]
fn splits_move_no_messages_on_the_native_backend() {
    // Every rank derives the membership from the shared color function,
    // so neither the world split nor the nested split sends anything.
    let machine = presets::meiko_cs2(6);
    let out = run_native(&machine, &NativeOptions::default(), |c| {
        c.barrier();
        let before = c.stats().msgs_sent;
        let members = {
            let mut sub = c.split(|r| (r % 2) as u32);
            let inner = sub.split(|r| u32::from(r == 0));
            inner.members().to_vec()
        };
        let sent = c.stats().msgs_sent - before;
        c.barrier();
        (members, sent)
    })
    .unwrap();
    for (rank, (members, sent)) in out.per_rank.iter().enumerate() {
        assert_eq!(*sent, 0, "rank {rank}");
        let outer: Vec<usize> = (0..6).filter(|r| r % 2 == rank % 2).collect();
        let inner = if rank == outer[0] { vec![rank] } else { outer[1..].to_vec() };
        assert_eq!(*members, inner, "rank {rank}");
    }
}
