//! Inconsistent collective arguments fail the run with a typed
//! `CollectiveMismatch` on both backends — never a panic, and never a
//! silently shared tag space. Covers buffer lengths that differ across
//! ranks, under every allreduce schedule and in the group broadcast and
//! allreduce, with verification off (so no fingerprint check runs first);
//! and split colors beyond what the group tag layout can hold.

use mpsim::{
    presets, AllreduceAlgo, CommError, Communicator, MachineSpec, ReduceOp, SimError, SimOptions,
    SpmdComm, VerifyOptions,
};
use shmcomm::{run_native, NativeOptions};

/// A collective called with rank 1's buffer one element longer than the
/// others'.
#[derive(Debug, Clone, Copy)]
enum Lengths {
    World(AllreduceAlgo),
    GroupBroadcast,
    GroupAllreduce,
}

const LENGTH_CASES: [Lengths; 7] = [
    Lengths::World(AllreduceAlgo::Linear),
    Lengths::World(AllreduceAlgo::RecursiveDoubling),
    Lengths::World(AllreduceAlgo::Ring),
    Lengths::World(AllreduceAlgo::Rabenseifner),
    Lengths::World(AllreduceAlgo::Hierarchical),
    Lengths::GroupBroadcast,
    Lengths::GroupAllreduce,
];

fn machine(case: Lengths) -> MachineSpec {
    match case {
        // P = 3 on two-rank nodes: one full node and one partial.
        Lengths::World(AllreduceAlgo::Hierarchical) => presets::hier_cluster(3, 2),
        _ => presets::meiko_cs2(3),
    }
}

fn mismatched_lengths<C: Communicator>(comm: &mut C, case: Lengths) {
    let mut buf = vec![1.0; 2 + usize::from(comm.rank() == 1)];
    match case {
        Lengths::World(algo) => comm.allreduce_f64s_with(&mut buf, ReduceOp::Sum, algo),
        Lengths::GroupBroadcast => comm.split(|_| 0).broadcast_f64s(0, &mut buf),
        Lengths::GroupAllreduce => comm.split(|_| 0).allreduce_f64s(&mut buf, ReduceOp::Sum),
    }
}

/// A split whose colors the group tag layout cannot hold.
#[derive(Debug, Clone, Copy)]
enum Colors {
    /// Rank 1's first-level color has the nested-group marker bit.
    MarkerBit,
    /// Every member's nested color is wider than 15 bits.
    WideNested,
    /// Every rank splits a nested group again.
    ThirdLevel,
}

fn bad_colors<C: Communicator>(comm: &mut C, case: Colors) {
    match case {
        Colors::MarkerBit => {
            comm.split(|r| if r == 1 { 1 << 30 } else { 0 });
        }
        Colors::WideNested => {
            comm.split(|_| 0).split(|_| 1 << 15);
        }
        Colors::ThirdLevel => {
            comm.split(|_| 0).split(|_| 0).split(|_| 0);
        }
    }
}

/// The rank that must report each color case (when only one rank is at
/// fault), and a fragment its detail must contain.
fn expected(case: Colors) -> (Option<usize>, &'static str) {
    match case {
        Colors::MarkerBit => (Some(1), "0x40000000"),
        Colors::WideNested => (None, "child color 0x8000"),
        Colors::ThirdLevel => (None, "parent color 0x40000000"),
    }
}

const COLOR_CASES: [Colors; 3] = [Colors::MarkerBit, Colors::WideNested, Colors::ThirdLevel];

fn sim_mismatch<F: Fn(&mut mpsim::Comm) + Sync>(machine: &MachineSpec, body: F) -> (usize, String) {
    let opts = SimOptions { verify: VerifyOptions::none(), ..SimOptions::default() };
    match mpsim::run_spmd(machine, &opts, body) {
        Err(SimError::CollectiveMismatch { rank, detail }) => (rank, detail),
        other => panic!("expected CollectiveMismatch, got {:?}", other.err()),
    }
}

fn native_mismatch<F: Fn(&mut shmcomm::NativeComm) + Sync>(
    machine: &MachineSpec,
    body: F,
) -> (usize, String) {
    match run_native(machine, &NativeOptions::default(), body) {
        Err(CommError::Sim(SimError::CollectiveMismatch { rank, detail })) => (rank, detail),
        other => panic!("expected CollectiveMismatch, got {:?}", other.err()),
    }
}

#[test]
fn length_mismatch_is_typed_on_the_simulator() {
    for case in LENGTH_CASES {
        let (_, detail) = sim_mismatch(&machine(case), |c| mismatched_lengths(c, case));
        assert!(detail.contains("buffer length"), "{case:?}: {detail}");
    }
}

#[test]
fn length_mismatch_is_typed_natively() {
    for case in LENGTH_CASES {
        let (_, detail) = native_mismatch(&machine(case), |c| mismatched_lengths(c, case));
        assert!(detail.contains("buffer length"), "{case:?}: {detail}");
    }
}

#[test]
fn color_limits_are_typed_on_the_simulator() {
    for case in COLOR_CASES {
        let (rank, detail) = sim_mismatch(&presets::meiko_cs2(3), |c| bad_colors(c, case));
        let (culprit, fragment) = expected(case);
        assert!(culprit.is_none_or(|r| r == rank), "{case:?}: rank {rank}: {detail}");
        assert!(detail.contains(fragment), "{case:?}: {detail}");
    }
}

#[test]
fn color_limits_are_typed_natively() {
    for case in COLOR_CASES {
        let (rank, detail) = native_mismatch(&presets::meiko_cs2(3), |c| bad_colors(c, case));
        let (culprit, fragment) = expected(case);
        assert!(culprit.is_none_or(|r| r == rank), "{case:?}: rank {rank}: {detail}");
        assert!(detail.contains(fragment), "{case:?}: {detail}");
    }
}
