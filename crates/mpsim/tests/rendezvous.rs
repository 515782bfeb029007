//! Collectives at one rendezvous: every collective runs as one plan
//! executed by the last member to arrive, whatever the options. These
//! tests check that the layers that watch each message — event recording,
//! the verifier, an armed fault plan that never fires — change nothing
//! bit for bit, and that a rendezvous that can never complete is
//! diagnosed, not hung. (The plan run as point-to-point messages is held
//! to the rendezvous, fault by fault, inside the crate.)

use std::time::{Duration, Instant};

use mpsim::{
    presets, run_spmd, AllreduceAlgo, Comm, Communicator, FaultPlan, MachineSpec, ReduceOp,
    SimError, SimOptions, SpmdComm, VerifyOptions,
};
use proptest::prelude::*;

const ALGOS: [AllreduceAlgo; 6] = [
    AllreduceAlgo::Linear,
    AllreduceAlgo::RecursiveDoubling,
    AllreduceAlgo::Ring,
    AllreduceAlgo::Rabenseifner,
    AllreduceAlgo::Hierarchical,
    AllreduceAlgo::Auto,
];

const OPS: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max];

/// One drawn program.
#[derive(Debug, Clone, Copy)]
struct Case {
    algo: AllreduceAlgo,
    op: ReduceOp,
    len: usize,
    root: usize,
    colors: usize,
    seed: u64,
}

/// Pseudo-random data for `(rank, salt)`, in `[0.5, 1.5)` so products
/// stay finite.
fn data(seed: u64, rank: usize, salt: u64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let h = (seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_mul(6364136223846793005)
                .wrapping_add((rank * 1000 + i) as u64);
            0.5 + (h >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

fn bits(out: &mut Vec<u64>, v: &[f64]) {
    out.extend(v.iter().map(|x| x.to_bits()));
}

/// Every shared collective on the world, on a one-level group and on a
/// two-level group, with rank-dependent compute between them and phase
/// spans around some; returns every result's bits.
fn program(c: &mut Comm, k: Case) -> Vec<u64> {
    let (me, p) = (c.rank(), c.size());
    let root = k.root % p;
    let mut out = Vec::new();
    c.enter_phase("mix");
    c.work(100 + 37 * (me as u64 % 5));
    let mut v = data(k.seed, me, 1, k.len);
    c.allreduce_f64s_with(&mut v, k.op, k.algo);
    bits(&mut out, &v);
    let mut b = data(k.seed, me, 2, k.len);
    c.broadcast_f64s(root, &mut b);
    bits(&mut out, &b);
    c.exit_phase();
    if let Some(g) = c.gather_f64s(root, &data(k.seed, me, 3, me % 3)) {
        bits(&mut out, &g);
    }
    for block in c.allgather_f64s(&data(k.seed, me, 4, (me + 1) % 4)) {
        bits(&mut out, &block);
    }
    c.work(10 * (p - me) as u64);
    c.barrier();
    c.enter_phase("overlap");
    let mut w = data(k.seed, me, 5, k.len);
    let mut req = c.iallreduce_f64s_with(&mut w, k.op, k.algo);
    c.work(50 + 13 * (me as u64 % 7));
    c.wait(&mut req);
    c.exit_phase();
    bits(&mut out, &w);
    {
        let colors = k.colors;
        let mut sub = c.split(|r| (r % colors) as u32);
        let (sr, sp) = (sub.rank(), sub.size());
        let mut g = data(k.seed, me, 6, k.len);
        sub.allreduce_f64s(&mut g, k.op);
        bits(&mut out, &g);
        sub.work(20 * sr as u64);
        let mut gb = data(k.seed, me, 7, k.len);
        sub.broadcast_f64s(sp - 1, &mut gb);
        bits(&mut out, &gb);
        if let Some(x) = sub.gather_f64s(sp / 2, &data(k.seed, me, 8, sr % 2 + 1)) {
            bits(&mut out, &x);
        }
        sub.barrier();
        let mut inner = sub.split(|r| u32::from(r % 3 == 0));
        let mut h = data(k.seed, me, 9, k.len);
        inner.allreduce_f64s(&mut h, k.op);
        bits(&mut out, &h);
        let mut hb = data(k.seed, me, 10, k.len);
        inner.broadcast_f64s(0, &mut hb);
        bits(&mut out, &hb);
        inner.barrier();
    }
    out.push(c.allreduce_scalar(me as f64, ReduceOp::Max).to_bits());
    out
}

fn machine(p: usize, node_size: usize) -> MachineSpec {
    if node_size == 0 {
        presets::meiko_cs2(p)
    } else {
        presets::hier_cluster(p, node_size)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Default options and every layer on (events, the verifier, a fault
    /// plan with no fault) give the same result bits, per-rank clocks,
    /// phase buckets and message counters, and `RunStats`. The replay log
    /// is left out: the writes to its rings are charged on the clock.
    #[test]
    fn every_layer_on_changes_no_bit(
        p in 1usize..65,
        node_size in 0usize..9,
        algo in 0..ALGOS.len(),
        op in 0usize..4,
        len_kind in 0usize..4,
        root in 0usize..64,
        colors in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let len = match len_kind {
            0 => 0,
            1 => 1,
            2 => (p / 2).max(1),
            _ => p + 3,
        };
        let case = Case { algo: ALGOS[algo], op: OPS[op], len, root, colors, seed };
        let spec = machine(p, node_size);
        let layers = SimOptions {
            record_events: true,
            verify: VerifyOptions::all(),
            fault: Some(FaultPlan::new(Vec::new())),
            ..SimOptions::default()
        };
        let plain = run_spmd(&spec, &SimOptions::default(), |c| program(c, case)).unwrap();
        let watched = run_spmd(&spec, &layers, |c| program(c, case)).unwrap();
        prop_assert!(plain.per_rank == watched.per_rank, "{case:?} P={p}: results differ");
        for (a, b) in plain.ranks.iter().zip(&watched.ranks) {
            prop_assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits(), "{:?} rank {}", case, a.rank);
            prop_assert!(a == b, "{case:?} rank {}: {a:?} != {b:?}", a.rank);
        }
        prop_assert_eq!(plain.stats, watched.stats, "{:?} P={}", case, p);
    }
}

/// Run `body` on `p` ranks with default options; return its error and how
/// long the run took to fail.
fn failure(p: usize, body: impl Fn(&mut Comm) + Sync) -> (SimError, Duration) {
    let start = Instant::now();
    let err = run_spmd::<(), _>(&presets::zero_cost(p), &SimOptions::default(), body)
        .expect_err("the run must fail");
    (err, start.elapsed())
}

#[test]
fn a_member_skipping_a_group_allreduce_is_a_deadlock_naming_it() {
    let (err, took) = failure(4, |c| {
        let me = c.rank();
        let mut sub = c.split(|_| 0);
        if me != 2 {
            let mut v = vec![1.0, 2.0];
            sub.allreduce_f64s(&mut v, ReduceOp::Sum);
        }
    });
    match err {
        SimError::Deadlock { detail, .. } => {
            assert!(detail.contains("waits on rank 2"), "{detail}");
            assert!(detail.contains("finished"), "{detail}");
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
    assert!(took < Duration::from_secs(1), "diagnosis took {took:?}");
}

#[test]
fn an_allreduce_against_a_receive_is_a_two_rank_cycle() {
    let (err, took) = failure(2, |c| {
        if c.rank() == 0 {
            let mut v = vec![1.0];
            c.allreduce_f64s(&mut v, ReduceOp::Sum);
        } else {
            let _ = c.recv_f64s(0, 5);
        }
    });
    match err {
        SimError::Deadlock { mut cycle, detail, .. } => {
            cycle.sort_unstable();
            assert_eq!(cycle, vec![0, 1], "{detail}");
            assert!(detail.contains("rank 0 waits on rank 1"), "{detail}");
            assert!(detail.contains("rank 1 waits on rank 0"), "{detail}");
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
    assert!(took < Duration::from_secs(1), "diagnosis took {took:?}");
}

#[test]
fn a_panic_while_others_wait_at_a_rendezvous_is_reported() {
    let (err, took) = failure(4, |c| {
        if c.rank() == 3 {
            panic!("rank 3 gives up");
        }
        let mut v = vec![1.0; 3];
        c.allreduce_f64s(&mut v, ReduceOp::Sum);
    });
    match err {
        SimError::RankPanicked { rank, message } => {
            assert_eq!(rank, 3);
            assert!(message.contains("gives up"), "{message}");
        }
        other => panic!("expected RankPanicked, got {other:?}"),
    }
    assert!(took < Duration::from_secs(1), "diagnosis took {took:?}");
}
