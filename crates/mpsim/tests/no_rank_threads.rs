//! Ranks are fibers on the thread that calls `run_spmd`, not threads of
//! their own. One `#[test]` in its own binary, so no concurrently running
//! test starts or ends a thread while the process's threads are counted.

#![cfg(all(target_os = "linux", target_arch = "x86_64", not(mpsim_tsan)))]

use mpsim::{presets, run_spmd_default, SpmdComm};

fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task").map(Iterator::count).unwrap_or(0)
}

#[test]
fn ranks_start_no_threads() {
    let caller = std::thread::current().id();
    let before = tasks();
    assert!(before > 0, "cannot read /proc/self/task");
    let out = run_spmd_default(&presets::zero_cost(256), |c| {
        c.barrier();
        (tasks(), std::thread::current().id() == caller)
    })
    .unwrap();
    assert!(out.per_rank.iter().all(|&(n, _)| n == before), "{before} before: {:?}", out.per_rank);
    assert!(out.per_rank.iter().all(|&(_, on_caller)| on_caller), "a rank ran on another thread");
}
