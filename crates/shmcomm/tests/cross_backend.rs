//! Cross-backend determinism property: for every deterministic allreduce
//! algorithm, every communicator size (including non-powers-of-two and
//! sizes larger than the payload), and random f64 payloads, the simulated
//! backend and the native backend produce **bitwise identical** results.
//! This is the contract that lets one driver treat the two machines as
//! interchangeable: the machine spec chooses the schedule, the schedule
//! fixes the fold order, and the fold order fixes every bit.

use mpsim::{presets, AllreduceAlgo, Communicator, GroupCommunicator, ReduceOp};
use proptest::prelude::*;
use shmcomm::{run_native, NativeOptions};

/// Deterministic pseudo-random payload: the proptest seed drives an LCG so
/// every rank derives the same values without sharing state.
fn payload(rank: usize, n: usize, seed: u64) -> Vec<f64> {
    let mut x = seed ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Spread across magnitudes so reduction order matters: a fold
            // order bug shows up as a last-bit difference here.
            ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1.0e6
        })
        .collect()
}

/// Every reduction operator.
fn ops() -> impl Strategy<Value = ReduceOp> {
    prop_oneof![Just(ReduceOp::Sum), Just(ReduceOp::Prod), Just(ReduceOp::Max), Just(ReduceOp::Min)]
}

fn body<C: Communicator>(
    comm: &mut C,
    n: usize,
    seed: u64,
    op: ReduceOp,
    algo: AllreduceAlgo,
) -> Vec<u64> {
    let mut buf = payload(comm.rank(), n, seed);
    comm.allreduce_f64s_with(&mut buf, op, algo);
    buf.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn allreduce_is_bitwise_identical_across_backends(
        p in prop_oneof![Just(2usize), Just(3usize), Just(5usize), Just(8usize)],
        // n < P, n = 0, and non-multiples of P all exercise the ragged
        // chunking paths of ring and Rabenseifner.
        n in 0usize..21,
        seed in 0u64..u64::MAX,
        op in ops(),
        algo in prop_oneof![
            Just(AllreduceAlgo::Linear),
            Just(AllreduceAlgo::OrderedLinear),
            Just(AllreduceAlgo::RecursiveDoubling),
            Just(AllreduceAlgo::Ring),
            Just(AllreduceAlgo::Rabenseifner),
        ],
    ) {
        let machine = presets::meiko_cs2(p);
        let sim = mpsim::run_spmd_default(&machine, |c| body(c, n, seed, op, algo)).unwrap();
        let native =
            run_native(&machine, &NativeOptions::default(), |c| body(c, n, seed, op, algo))
                .unwrap();
        // All ranks agree within each backend...
        for bits in &sim.per_rank {
            prop_assert_eq!(bits, &sim.per_rank[0]);
        }
        for bits in &native.per_rank {
            prop_assert_eq!(bits, &native.per_rank[0]);
        }
        // ...and the two backends agree with each other, bit for bit.
        prop_assert_eq!(&sim.per_rank, &native.per_rank);
    }

    #[test]
    fn hierarchical_is_bitwise_identical_across_backends(
        // (P, ranks per node): full nodes, and a last node left partial
        // when P is not a multiple of the node size.
        (p, node_size) in prop_oneof![
            Just((4usize, 2usize)),
            Just((6usize, 4usize)),
            Just((7usize, 3usize)),
            Just((8usize, 4usize)),
        ],
        n in 0usize..21,
        seed in 0u64..u64::MAX,
        op in ops(),
    ) {
        let machine = presets::hier_cluster(p, node_size);
        let algo = AllreduceAlgo::Hierarchical;
        let sim = mpsim::run_spmd_default(&machine, |c| body(c, n, seed, op, algo)).unwrap();
        let native =
            run_native(&machine, &NativeOptions::default(), |c| body(c, n, seed, op, algo))
                .unwrap();
        for bits in &sim.per_rank {
            prop_assert_eq!(bits, &sim.per_rank[0]);
        }
        prop_assert_eq!(&sim.per_rank, &native.per_rank);
    }

    #[test]
    fn auto_selection_is_backend_invariant(
        p in prop_oneof![Just(2usize), Just(4usize), Just(8usize)],
        n in 1usize..600,
        seed in 0u64..u64::MAX,
    ) {
        // Auto resolves through the same `select_allreduce` cost model on
        // both backends, so even the *choice* of schedule — not just its
        // execution — must coincide.
        let machine = presets::modern_cluster(p);
        let sim = mpsim::run_spmd_default(&machine, |c| {
            body(c, n, seed, ReduceOp::Sum, AllreduceAlgo::Auto)
        })
        .unwrap();
        let native = run_native(&machine, &NativeOptions::default(), |c| {
            body(c, n, seed, ReduceOp::Sum, AllreduceAlgo::Auto)
        })
        .unwrap();
        prop_assert_eq!(&sim.per_rank, &native.per_rank);
    }
}

#[test]
fn broadcast_gather_and_subcomm_collectives_match() {
    // The remaining collective surface: broadcast, gather, barrier, and
    // the split/sub-communicator path all carry bits unchanged.
    fn body<C: Communicator>(comm: &mut C) -> Vec<u64> {
        let me = comm.rank();
        let mut buf = payload(0, 7, 0xDEAD_BEEF);
        comm.broadcast_f64s(0, &mut buf);
        let gathered = comm.gather_f64s(0, &[me as f64 * 0.1 + 1.0]);
        comm.barrier();
        let mut out: Vec<u64> = buf.iter().map(|v| v.to_bits()).collect();
        if let Some(g) = gathered {
            out.extend(g.iter().map(|v| v.to_bits()));
        }
        // Odd/even sub-groups each reduce their own payload.
        let mut sub = comm.split((me % 2) as u32);
        let mut s = payload(me, 5, 7);
        sub.allreduce_f64s(&mut s, ReduceOp::Sum);
        out.extend(s.iter().map(|v| v.to_bits()));
        out
    }
    let machine = presets::meiko_cs2(6);
    let sim = mpsim::run_spmd_default(&machine, |c| body(c)).unwrap();
    let native = run_native(&machine, &NativeOptions::default(), |c| body(c)).unwrap();
    assert_eq!(sim.per_rank, native.per_rank);
}

#[test]
fn nonblocking_requests_match_the_eager_sim() {
    // mpsim's iallreduce moves data eagerly (only virtual time is
    // deferred); the native backend completes it at post time. Both
    // orderings must deliver identical bits through wait().
    fn body<C: Communicator>(comm: &mut C) -> Vec<u64> {
        let mut buf = payload(comm.rank(), 12, 42);
        let mut req = comm.iallreduce_f64s(&mut buf, ReduceOp::Sum);
        comm.work(500);
        comm.wait(&mut req);
        let me = comm.rank();
        let p = comm.size();
        let mut sreq = comm.isend_f64s((me + 1) % p, 3, &buf[..4]);
        let mut rreq = comm.irecv_f64s((me + p - 1) % p, 3);
        comm.wait(&mut sreq);
        let ring = comm.wait(&mut rreq).expect("irecv must yield the payload");
        buf.iter().chain(ring.iter()).map(|v| v.to_bits()).collect()
    }
    let machine = presets::meiko_cs2(4);
    let sim = mpsim::run_spmd_default(&machine, |c| body(c)).unwrap();
    let native = run_native(&machine, &NativeOptions::default(), |c| body(c)).unwrap();
    assert_eq!(sim.per_rank, native.per_rank);
}
