//! The phase ledger both backends book through allocates only when a rank
//! enters a phase for the first time: re-entering and leaving a phase
//! allocates nothing, and a statistics snapshot allocates its one vector
//! of buckets and no string per phase.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpsim::{presets, run_spmd, RankStats, SimOptions, SpmdComm};
use shmcomm::{run_native, NativeOptions};

/// Counts the allocator calls made on the calling thread. Simulated ranks
/// share their launcher's thread but switch only at communication, and
/// native ranks run on their own threads, so a window with no
/// communication in it counts one rank's allocations alone.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn count() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is the system's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The phases of one EM cycle, nested the way the driver nests them.
const PHASES: [&str; 3] = ["estep", "mstep", "allreduce"];

/// Enter and leave every phase of [`PHASES`] inside a `"search"` span.
fn cycle(comm: &mut impl SpmdComm) {
    comm.enter_phase("search");
    for name in PHASES {
        comm.enter_phase(name);
        comm.exit_phase();
    }
    comm.exit_phase();
}

/// Allocations of 100 cycles of phases the rank has entered before.
fn reentry(comm: &mut impl SpmdComm) -> u64 {
    cycle(comm);
    let before = allocs();
    for _ in 0..100 {
        cycle(comm);
    }
    allocs() - before
}

/// Allocations of a snapshot, and the buckets in it.
fn snapshot(stats: impl FnOnce() -> RankStats) -> (u64, usize) {
    let before = allocs();
    let stats = stats();
    (allocs() - before, stats.phases.len())
}

fn expect(counts: &[(u64, (u64, usize))]) {
    for &(reentry, (snapshot, buckets)) in counts {
        assert_eq!(reentry, 0, "re-entering known phases allocated");
        assert_eq!(buckets, 1 + 1 + PHASES.len(), "\"other\", \"search\" and the cycle's");
        assert_eq!(snapshot, 1, "a snapshot of {buckets} buckets allocated more than its vector");
    }
}

#[test]
fn the_simulated_ledger_allocates_only_a_new_phase_and_the_snapshot() {
    let out = run_spmd(&presets::meiko_cs2(2), &SimOptions::default(), |comm| {
        (reentry(comm), snapshot(|| comm.stats()))
    })
    .unwrap();
    expect(&out.per_rank);
}

#[test]
fn the_native_ledger_allocates_only_a_new_phase_and_the_snapshot() {
    let out = run_native(&presets::meiko_cs2(2), &NativeOptions::default(), |comm| {
        (reentry(comm), snapshot(|| comm.stats()))
    })
    .unwrap();
    expect(&out.per_rank);
}
