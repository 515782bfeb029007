//! Cross-backend determinism property: for every deterministic allreduce
//! algorithm, every communicator size (including non-powers-of-two and
//! sizes larger than the payload), and random f64 payloads, the simulated
//! backend and the native backend produce **bitwise identical** results.
//! This is the contract that lets one driver treat the two machines as
//! interchangeable: the machine spec chooses the schedule, the schedule
//! fixes the fold order, and the fold order fixes every bit.

use mpsim::{presets, AllreduceAlgo, CommError, Communicator, ReduceOp, SimError, SpmdComm};
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
        let mut sub = comm.split(|r| (r % 2) as u32);
        let mut s = payload(me, 5, 7);
        sub.allreduce_f64s(&mut s, ReduceOp::Sum);
        out.extend(s.iter().map(|v| v.to_bits()));
        out
    }
    let machine = presets::meiko_cs2(6);
    let sim = mpsim::run_spmd_default(&machine, body).unwrap();
    let native = run_native(&machine, &NativeOptions::default(), body).unwrap();
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
        buf.iter().map(|v| v.to_bits()).collect()
    }
    let machine = presets::meiko_cs2(4);
    let sim = mpsim::run_spmd_default(&machine, body).unwrap();
    let native = run_native(&machine, &NativeOptions::default(), body).unwrap();
    assert_eq!(sim.per_rank, native.per_rank);
}

#[test]
fn request_misuse_names_the_culprit_rank_on_both_backends() {
    // Both backends hand out `mpsim::Request`, so one body misuses it on
    // either: the culprit waits its request twice, or drops it unwaited.
    const CULPRIT: usize = 1;
    fn body<C: Communicator>(comm: &mut C, twice: bool) {
        let mut buf = payload(comm.rank(), 4, 1);
        let mut req = comm.iallreduce_f64s(&mut buf, ReduceOp::Sum);
        if comm.rank() != CULPRIT {
            comm.wait(&mut req);
        } else if twice {
            comm.wait(&mut req);
            comm.wait(&mut req);
        } else {
            drop(req);
        }
    }
    let machine = presets::meiko_cs2(3);
    let native = |twice| run_native(&machine, &NativeOptions::default(), |c| body(c, twice));

    match mpsim::run_spmd_default(&machine, |c| body(c, true)).unwrap_err() {
        SimError::RequestMisuse { rank, detail } => {
            assert_eq!(rank, CULPRIT, "{detail}");
            assert!(detail.contains("waited twice"), "{detail}");
        }
        other => panic!("expected RequestMisuse, got {other}"),
    }
    match native(true).map(|_| ()).unwrap_err() {
        CommError::Request { rank, detail } => {
            assert_eq!(rank, CULPRIT, "{detail}");
            assert!(detail.contains("waited twice"), "{detail}");
        }
        other => panic!("expected CommError::Request, got {other}"),
    }

    match mpsim::run_spmd_default(&machine, |c| body(c, false)).unwrap_err() {
        SimError::RankPanicked { rank, message } => {
            assert_eq!(rank, CULPRIT, "{message}");
            assert!(message.contains("rank 1: non-blocking request dropped"), "{message}");
        }
        other => panic!("expected RankPanicked, got {other}"),
    }
    match native(false).map(|_| ()).unwrap_err() {
        CommError::RankPanicked { rank, detail } => {
            assert_eq!(rank, CULPRIT, "{detail}");
            assert!(detail.contains("rank 1: non-blocking request dropped"), "{detail}");
        }
        other => panic!("expected CommError::RankPanicked, got {other}"),
    }
}

/// Scratch values alive anywhere in the process (see [`Tracked`]).
static TRACKED_LIVE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// A scratch buffer that counts how many of its kind are alive, so a test
/// can see a lent value go with its run.
struct Tracked(Vec<f64>);

impl Default for Tracked {
    fn default() -> Self {
        TRACKED_LIVE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Tracked(Vec::new())
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        TRACKED_LIVE.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// What one member saw inside `with_scratch`: the value's address, its
/// capacity, and whether this member grew it.
type Lent = (usize, usize, bool);

#[test]
fn with_scratch_lends_one_host_value_on_the_simulator_and_own_storage_natively() {
    use std::sync::atomic::Ordering;
    const P: usize = 8;
    const CAP: usize = 64;
    // Every member borrows on the world and on its half of a split: it
    // grows the value if it finds it empty. Returns the two borrows, the
    // address of the member's own value and its capacity afterwards.
    fn body<C: Communicator>(comm: &mut C, culprit: Option<usize>) -> (Lent, Lent, usize, usize) {
        fn borrow(s: &mut Tracked) -> Lent {
            let grew = s.0.capacity() == 0;
            if grew {
                s.0.reserve_exact(CAP);
            }
            (s as *const Tracked as usize, s.0.capacity(), grew)
        }
        let mut own = Tracked::default();
        let me = comm.rank();
        let world = comm.with_scratch(&mut own, |s| {
            assert_ne!(culprit, Some(me), "rank {me} fails inside the lend");
            borrow(s)
        });
        let mut half = comm.split(|r| (r % 2) as u32);
        let group = half.with_scratch(&mut own, borrow);
        (world, group, &own as *const Tracked as usize, own.0.capacity())
    }
    let machine = presets::meiko_cs2(P);

    let sim = mpsim::run_spmd_default(&machine, |c| body(c, None)).unwrap();
    let host = sim.per_rank[0].0 .0;
    for (r, &(world, group, own, own_cap)) in sim.per_rank.iter().enumerate() {
        // One value, grown once by the first member and found grown by
        // every later one, on the world and on both halves.
        assert_eq!((world.0, world.1, group.0, group.1), (host, CAP, host, CAP), "rank {r}");
        assert_ne!(own, host, "rank {r} borrowed its own value");
        assert_eq!(own_cap, 0, "rank {r}'s own value was touched");
    }
    let grown = sim.per_rank.iter().map(|(w, g, ..)| usize::from(w.2) + usize::from(g.2));
    assert_eq!(grown.sum::<usize>(), 1, "more than one member grew the host value");
    assert_eq!(TRACKED_LIVE.load(Ordering::Relaxed), 0, "the lent value outlived the run");

    let native = run_native(&machine, &NativeOptions::default(), |c| body(c, None)).unwrap();
    for (r, &(world, group, own, own_cap)) in native.per_rank.iter().enumerate() {
        // Each member works on its own value, grown on the world call.
        assert_eq!((world.0, world.2, group.0, group.2), (own, true, own, false), "rank {r}");
        assert_eq!(own_cap, CAP, "rank {r}");
    }
    assert_eq!(TRACKED_LIVE.load(Ordering::Relaxed), 0);

    // A member that panics inside the lend fails the run, and the value
    // it held goes with it.
    match mpsim::run_spmd_default(&machine, |c| body(c, Some(3))).unwrap_err() {
        SimError::RankPanicked { rank, .. } => assert_eq!(rank, 3),
        other => panic!("expected RankPanicked, got {other}"),
    }
    assert_eq!(TRACKED_LIVE.load(Ordering::Relaxed), 0, "a value outlived the failed run");
    let failed = run_native(&machine, &NativeOptions::default(), |c| body(c, Some(3)));
    match failed.map(|_| ()).unwrap_err() {
        CommError::RankPanicked { rank, .. } => assert_eq!(rank, 3),
        other => panic!("expected CommError::RankPanicked, got {other}"),
    }
    assert_eq!(TRACKED_LIVE.load(Ordering::Relaxed), 0);
}
