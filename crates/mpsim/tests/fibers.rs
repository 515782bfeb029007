//! The engine's ranks are fibers on the thread that calls `run_spmd`:
//! independent runs on independent threads, nested runs, backtraces and
//! deep stacks inside a rank, and a guard page that turns a stack
//! overflow into the death of the process, also on a stack recycled from
//! an earlier launch. On x86_64 Linux the stacks are pooled: a second
//! launch maps none, and a launch that cannot map its stacks is a typed
//! error. (That no thread is started per rank is `no_rank_threads.rs`,
//! alone in its binary.)

use std::sync::Barrier;

use mpsim::{presets, run_spmd_default, Comm, Communicator, ReduceOp, SimError, SpmdComm};

/// Point-to-point ring traffic, uneven compute and collectives, so the
/// scheduler switches ranks often and in a clock-dependent order.
fn busy_body(c: &mut Comm) -> Vec<f64> {
    let me = c.rank();
    let p = c.size();
    let mut v = vec![me as f64 + 0.5, (me * me) as f64];
    for round in 0..3 {
        c.work(1_000 * ((me + round) % 5) as u64);
        c.send_f64s((me + 1) % p, 4, &v);
        let left = c.recv_f64s((me + p - 1) % p, 4);
        v[0] += left[0] / 3.0;
        c.allreduce_f64s(&mut v, ReduceOp::Sum);
    }
    v
}

#[test]
fn concurrent_runs_on_four_threads_agree_bit_for_bit() {
    let spec = presets::hier_cluster(48, 8);
    let fingerprint = |out: mpsim::SpmdOutput<Vec<f64>>| -> Vec<u64> {
        let values = out.per_rank.iter().flatten().map(|x| x.to_bits());
        let clocks = out.ranks.iter().map(|r| r.elapsed.to_bits());
        values.chain(clocks).chain([out.elapsed.to_bits()]).collect()
    };
    let alone = fingerprint(run_spmd_default(&spec, busy_body).unwrap());
    let start = Barrier::new(4);
    let runs: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    (0..3)
                        .map(|_| fingerprint(run_spmd_default(&spec, busy_body).unwrap()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(runs.len(), 12);
    assert!(runs.iter().all(|run| *run == alone), "a concurrent run differs from the run alone");
}

#[test]
fn run_spmd_nests_inside_a_rank() {
    let inner_alone = run_spmd_default(&presets::meiko_cs2(4), busy_body).unwrap();
    let out = run_spmd_default(&presets::meiko_cs2(3), |c| {
        let inner = run_spmd_default(&presets::meiko_cs2(4), busy_body).unwrap();
        let mut total = vec![inner.elapsed, c.rank() as f64];
        c.allreduce_f64s(&mut total, ReduceOp::Sum);
        (inner.per_rank, total)
    })
    .unwrap();
    for (values, total) in &out.per_rank {
        assert_eq!(*values, inner_alone.per_rank);
        assert_eq!(total[0].to_bits(), (3.0 * inner_alone.elapsed).to_bits());
        assert_eq!(total[1], 3.0);
    }
}

#[test]
fn a_rank_that_takes_a_backtrace_and_panics_is_reported() {
    let r = run_spmd_default::<(), _>(&presets::zero_cost(4), |c| {
        if c.rank() == 2 {
            let trace = std::backtrace::Backtrace::force_capture().to_string();
            panic!("rank 2 gives up after a {}-byte backtrace", trace.len());
        }
        c.barrier();
    });
    match r {
        Err(SimError::RankPanicked { rank, message }) => {
            assert_eq!(rank, 2);
            assert!(message.contains("gives up after a"), "{message}");
        }
        other => panic!("expected RankPanicked, got {other:?}"),
    }
}

/// Recurse until `depth_bytes` of stack lie between `top` and the current
/// frame, then meet every other rank there, so all of them are suspended
/// that deep at once.
fn dig(c: &mut Comm, top: usize, depth_bytes: usize) -> u32 {
    let pad = [c.rank() as u8; 1024];
    let here = std::hint::black_box(&pad).as_ptr() as usize;
    let levels = if top - here >= depth_bytes {
        c.barrier();
        0
    } else {
        dig(c, top, depth_bytes) + 1
    };
    levels + u32::from(std::hint::black_box(pad)[0] == u8::MAX)
}

#[test]
fn a_rank_can_use_half_its_stack() {
    let out = run_spmd_default(&presets::zero_cost(4), |c| {
        let top = 0u8;
        let top = std::hint::black_box(&top) as *const u8 as usize;
        dig(c, top, 512 * 1024)
    })
    .unwrap();
    assert!(out.per_rank.iter().all(|&levels| levels > 100), "{:?}", out.per_rank);
}

/// Set in a child process this binary starts to the name of the one test
/// the child runs; nothing else reads it.
#[cfg(all(unix, not(mpsim_tsan)))]
const CHILD: &str = "MPSIM_FIBERS_TEST_CHILD";

/// Run the test `name` alone in a child process started from this binary
/// and return the child's output; `None` in that child, which then runs
/// the test's child part. A child's memory maps, resource limits and
/// stack pool are its own, and it may die.
#[cfg(all(unix, not(mpsim_tsan)))]
fn in_child(name: &str) -> Option<std::process::Output> {
    if std::env::var_os(CHILD).is_some_and(|v| v == name) {
        return None;
    }
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", name, "--test-threads=1", "--nocapture"])
        .env(CHILD, name)
        .output()
        .unwrap();
    Some(child)
}

/// Recurse until the frames reach 64 KiB past the end of a 1 MiB stack
/// that starts at `top`, then return normally.
#[cfg(all(unix, not(mpsim_tsan)))]
fn overflow(top: usize) -> u64 {
    let pad = [1u64; 512];
    let here = std::hint::black_box(&pad).as_ptr() as usize;
    let below = if top - here > (1 << 20) + (64 << 10) { 0 } else { overflow(top) };
    below + std::hint::black_box(pad)[0]
}

#[cfg(all(unix, not(mpsim_tsan)))]
#[test]
fn stack_overflow_in_a_rank_kills_the_process() {
    use std::os::unix::process::ExitStatusExt;

    let Some(child) = in_child("stack_overflow_in_a_rank_kills_the_process") else {
        // A first launch, so the overflowing one runs on recycled stacks
        // where they are pooled: the pool hands each rank of a launch of
        // the same size the stack it had before.
        run_spmd_default(&presets::zero_cost(2), |c| c.barrier()).unwrap();
        // Rank 0's stack was mapped first, so rank 1's usually lies just
        // below it; rank 1 finishes before rank 0 runs off its stack, so
        // without the guard page the overflow would land, unnoticed, in
        // rank 1's unused stack.
        let r = run_spmd_default(&presets::zero_cost(2), |c| {
            if c.rank() == 1 {
                c.send_f64s(0, 1, &[1.0]);
                return 0;
            }
            c.recv_f64s(1, 1);
            let top = 0u8;
            overflow(std::hint::black_box(&top) as *const u8 as usize)
        });
        // Reaching this line means the overflow went unnoticed.
        println!("child survived: {r:?}");
        return;
    };
    let stderr = String::from_utf8_lossy(&child.stderr);
    let signal = child.status.signal();
    assert!(signal.is_some(), "the child was not killed: {:?}\n{stderr}", child.status);
    const SIGSEGV: i32 = 11;
    const SIGABRT: i32 = 6;
    if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        // A fiber stack: std's handler does not know its guard page.
        assert_eq!(signal, Some(SIGSEGV), "{stderr}");
    } else {
        // A thread stack: std reports the overflow and aborts.
        assert_eq!(signal, Some(SIGABRT), "{stderr}");
        assert!(stderr.contains("has overflowed its stack"), "{stderr}");
    }
}

/// Rank stacks mapped in this process, pooled or in use: each is a
/// read-write mapping of exactly 1 MiB right above a one-page `PROT_NONE`
/// guard.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(mpsim_tsan)))]
fn rank_stacks() -> usize {
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
    let mut below: Option<(usize, usize, bool)> = None;
    let mut stacks = 0;
    for line in maps.lines() {
        let mut fields = line.split_whitespace();
        let (range, perms) = (fields.next().unwrap(), fields.next().unwrap());
        let (lo, hi) = range.split_once('-').unwrap();
        let lo = usize::from_str_radix(lo, 16).unwrap();
        let hi = usize::from_str_radix(hi, 16).unwrap();
        let guarded =
            below.is_some_and(|(g_lo, g_hi, none)| none && g_hi == lo && g_hi - g_lo == 4096);
        if guarded && perms == "rw-p" && hi - lo == 1 << 20 {
            stacks += 1;
        }
        below = Some((lo, hi, perms == "---p"));
    }
    stacks
}

#[cfg(all(target_os = "linux", target_arch = "x86_64", not(mpsim_tsan)))]
#[test]
fn a_second_launch_maps_no_new_stack() {
    let Some(child) = in_child("a_second_launch_maps_no_new_stack") else {
        let launch = || {
            run_spmd_default(&presets::zero_cost(256), |c| {
                c.barrier();
                rank_stacks()
            })
            .unwrap()
            .per_rank[0]
        };
        let first = launch();
        let pooled = rank_stacks();
        let second = launch();
        assert!(first >= 256, "{first} rank stacks seen during a launch of 256 ranks");
        assert_eq!(pooled, first, "the first launch's stacks were not kept");
        assert_eq!(second, pooled, "the second launch mapped {} stacks", second - pooled);
        return;
    };
    assert!(child.status.success(), "{}", String::from_utf8_lossy(&child.stderr));
}

/// The C library's resource-limit calls and the one limit used here.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(mpsim_tsan)))]
mod rlimit {
    #[repr(C)]
    pub struct Rlimit {
        pub cur: u64,
        pub max: u64,
    }
    extern "C" {
        pub fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        pub fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    pub const RLIMIT_AS: i32 = 9;
}

#[cfg(all(target_os = "linux", target_arch = "x86_64", not(mpsim_tsan)))]
#[test]
fn a_launch_that_cannot_map_its_stacks_is_a_typed_error() {
    use rlimit::{getrlimit, setrlimit, Rlimit, RLIMIT_AS};

    let Some(child) = in_child("a_launch_that_cannot_map_its_stacks_is_a_typed_error") else {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let vm_kib: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmSize:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap();
        let mut old = Rlimit { cur: 0, max: 0 };
        // SAFETY: `old` is a live, writable `struct rlimit`.
        assert_eq!(unsafe { getrlimit(RLIMIT_AS, &raw mut old) }, 0);
        // Room for about 64 of the 256 rank stacks.
        let low = Rlimit { cur: (vm_kib << 10) + (64 << 20), max: old.max };
        // SAFETY: `low` is a live `struct rlimit`; lowering a soft limit
        // is always allowed.
        assert_eq!(unsafe { setrlimit(RLIMIT_AS, &raw const low) }, 0);
        let r = run_spmd_default(&presets::zero_cost(256), |c| c.barrier());
        // SAFETY: `old` is a live `struct rlimit`; the soft limit goes
        // back up to at most the unchanged hard limit.
        assert_eq!(unsafe { setrlimit(RLIMIT_AS, &raw const old) }, 0);
        match r {
            Err(SimError::InvalidMachine(detail)) => {
                assert!(detail.contains("256 ranks"), "{detail}");
                println!("typed error: {detail}");
            }
            other => panic!("expected InvalidMachine, got {other:?}"),
        }
        // The stacks made before the failure went back to the pool.
        run_spmd_default(&presets::zero_cost(8), |c| c.barrier()).unwrap();
        return;
    };
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(
        child.status.success() && stdout.contains("typed error: "),
        "{:?}\n{stdout}\n{}",
        child.status,
        String::from_utf8_lossy(&child.stderr)
    );
}
