//! Tests of the virtual-time model: determinism, monotonicity, and the
//! qualitative cost behaviour the figure harnesses rely on.

use mpsim::{
    presets, run_spmd_default, AllreduceAlgo, Communicator, MachineSpec, ReduceOp, SpmdComm,
};

fn elapsed_of(spec: &MachineSpec, body: impl Fn(&mut mpsim::Comm) + Sync) -> f64 {
    run_spmd_default(spec, |c| body(c)).unwrap().elapsed
}

#[test]
fn virtual_time_is_deterministic() {
    let spec = presets::meiko_cs2(6);
    let run = || {
        elapsed_of(&spec, |c| {
            c.work(10_000);
            let mut buf = vec![c.rank() as f64; 32];
            c.allreduce_f64s(&mut buf, ReduceOp::Sum);
            c.work(5_000);
            c.barrier();
        })
    };
    let a = run();
    let b = run();
    let c = run();
    assert!(a > 0.0);
    assert_eq!(a, b, "virtual time must not depend on host scheduling");
    assert_eq!(b, c);
}

#[test]
fn compute_time_scales_with_ops() {
    let spec = presets::meiko_cs2(1);
    let t1 = elapsed_of(&spec, |c| c.work(1_000));
    let t2 = elapsed_of(&spec, |c| c.work(2_000));
    assert!((t2 / t1 - 2.0).abs() < 1e-9, "t1={t1} t2={t2}");
}

#[test]
fn communication_costs_grow_with_message_size() {
    let spec = presets::meiko_cs2(2);
    let small = elapsed_of(&spec, |c| {
        let mut buf = vec![0.0; 8];
        c.allreduce_f64s(&mut buf, ReduceOp::Sum);
    });
    let large = elapsed_of(&spec, |c| {
        let mut buf = vec![0.0; 1 << 16];
        c.allreduce_f64s(&mut buf, ReduceOp::Sum);
    });
    assert!(large > small, "large={large} small={small}");
}

#[test]
fn linear_allreduce_latency_grows_with_p() {
    // Small message: latency-dominated; linear allreduce is O(P) latencies.
    let time_at = |p: usize| {
        let spec = presets::meiko_cs2(p);
        elapsed_of(&spec, |c| {
            let mut buf = vec![1.0; 8];
            c.allreduce_f64s_with(&mut buf, ReduceOp::Sum, AllreduceAlgo::Linear);
        })
    };
    let t2 = time_at(2);
    let t10 = time_at(10);
    assert!(t10 > 3.0 * t2, "t2={t2} t10={t10}");
}

#[test]
fn recursive_doubling_beats_linear_for_small_messages_at_scale() {
    let spec = presets::meiko_cs2(10);
    let lin = elapsed_of(&spec, |c| {
        let mut buf = vec![1.0; 8];
        c.allreduce_f64s_with(&mut buf, ReduceOp::Sum, AllreduceAlgo::Linear);
    });
    let rd = elapsed_of(&spec, |c| {
        let mut buf = vec![1.0; 8];
        c.allreduce_f64s_with(&mut buf, ReduceOp::Sum, AllreduceAlgo::RecursiveDoubling);
    });
    assert!(rd < lin, "rd={rd} lin={lin}");
}

#[test]
fn ring_beats_recursive_doubling_for_long_messages() {
    // Bandwidth-dominated regime: ring moves ~2m bytes per rank, recursive
    // doubling moves ~m log2(P).
    let spec = presets::meiko_cs2(8);
    let n = 1 << 20; // 8 MiB of f64s
    let rd = elapsed_of(&spec, |c| {
        let mut buf = vec![1.0; n];
        c.allreduce_f64s_with(&mut buf, ReduceOp::Sum, AllreduceAlgo::RecursiveDoubling);
    });
    let ring = elapsed_of(&spec, |c| {
        let mut buf = vec![1.0; n];
        c.allreduce_f64s_with(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring);
    });
    assert!(ring < rd, "ring={ring} rd={rd}");
}

#[test]
fn ideal_machine_charges_nothing_for_comm() {
    let spec = presets::ideal(8);
    let t = elapsed_of(&spec, |c| {
        let mut buf = vec![1.0; 1024];
        c.allreduce_f64s(&mut buf, ReduceOp::Sum);
        c.barrier();
    });
    assert_eq!(t, 0.0);
}

#[test]
fn stats_partition_elapsed_time() {
    let spec = presets::meiko_cs2(4);
    let out = run_spmd_default(&spec, |c| {
        c.work(50_000);
        let mut buf = vec![c.rank() as f64; 64];
        c.allreduce_f64s(&mut buf, ReduceOp::Sum);
    })
    .unwrap();
    for r in &out.ranks {
        let sum = r.compute + r.comm + r.idle;
        assert!((r.elapsed - sum).abs() < 1e-9, "rank {}: {} vs {}", r.rank, r.elapsed, sum);
        assert!(r.compute > 0.0);
    }
    assert_eq!(out.elapsed, out.ranks.iter().map(|r| r.elapsed).fold(0.0, f64::max));
    // All ranks did identical compute, so nobody should be mostly idle,
    // but the allreduce must have charged someone some comm time.
    assert!(out.stats.total_msgs > 0);
    assert!(out.stats.total_bytes > 0);
}

#[test]
fn measured_compute_advances_clock() {
    let mut spec = presets::meiko_cs2(1);
    spec.compute.wall_scale = 100.0; // make even a tiny closure visible
    let out = run_spmd_default(&spec, |c| {
        c.measured(|| {
            // A small but nonzero amount of real work.
            let mut x = 0u64;
            for i in 0..100_000u64 {
                x = x.wrapping_add(i * i);
            }
            std::hint::black_box(x);
        });
        c.now()
    })
    .unwrap();
    assert!(out.per_rank[0] > 0.0);
}

#[test]
fn skewed_compute_shows_up_as_idle_on_waiters() {
    let spec = presets::meiko_cs2(2);
    let out = run_spmd_default(&spec, |c| {
        if c.rank() == 0 {
            c.work(1_000_000); // rank 0 is the straggler
        }
        c.barrier();
    })
    .unwrap();
    assert!(out.ranks[1].idle > 0.0, "rank 1 should wait for the straggler");
    assert!(out.ranks[0].idle < out.ranks[1].idle);
    // Both ranks leave the barrier at (almost) the same virtual time.
    assert!((out.ranks[0].elapsed - out.ranks[1].elapsed).abs() < 1e-3);
}
