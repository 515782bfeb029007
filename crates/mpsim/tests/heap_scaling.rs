//! The simulator's memory grows with the machine, not with its square: a
//! counting `#[global_allocator]` records the peak live heap of a
//! default-option barrier and of a default-option hierarchical allreduce
//! of 58 elements at `P = 512` and `P = 1024`, and doubling `P` must not
//! much more than double either (the allreduce's rendezvous seats are
//! `O(P len)`). Any per-run table indexed by (rank, rank) — 16 bytes a
//! pair costs 4 MiB at `P = 512` and 16 MiB at `P = 1024` — pushes the
//! ratio towards 4. Each probe runs once unmeasured first, so its plan is
//! already in the process-wide plan cache: the cache's own size is
//! bounded on its own (see `mpsim::schedule`), and evicting a plan inside
//! a measured run would hide that run's growth.
//!
//! One `#[test]` in its own binary, so no concurrently running test shares
//! the allocator's counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mpsim::{presets, run_spmd, Comm, MachineSpec, ReduceOp, SimOptions};

/// The system allocator, counting live heap bytes and their peak.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters are statistics
// that publish no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from the caller, who upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from the caller, who upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded from the caller, who upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak heap growth, in bytes, over what was live before a default-option
/// run of `body` on `spec`, measured on the second of two runs.
fn peak_bytes(spec: &MachineSpec, body: impl Fn(&mut Comm) + Sync) -> usize {
    let opts = SimOptions::default();
    drop(run_spmd(spec, &opts, &body).expect("the probe runs"));
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    let out = run_spmd(spec, &opts, &body).expect("the probe runs");
    let peak = PEAK_BYTES.load(Ordering::Relaxed);
    drop(out);
    peak - base
}

fn barrier(p: usize) -> usize {
    peak_bytes(&presets::zero_cost(p), |c| c.barrier())
}

fn hier_allreduce(p: usize) -> usize {
    peak_bytes(&presets::hier_cluster(p, 8), |c| {
        let mut buf = vec![c.rank() as f64; 58];
        c.allreduce_f64s(&mut buf, ReduceOp::Sum);
    })
}

#[test]
fn peak_heap_grows_linearly_in_p() {
    let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
    for (probe, half, full) in [
        ("barrier", barrier(512), barrier(1024)),
        ("hier_cluster allreduce", hier_allreduce(512), hier_allreduce(1024)),
    ] {
        let ratio = full as f64 / half as f64;
        println!(
            "{probe} peak heap: P=512 {:.2} MiB, P=1024 {:.2} MiB, ratio {ratio:.2}",
            mib(half),
            mib(full)
        );
        assert!(
            ratio < 2.5,
            "{probe}: doubling P grew the peak heap {ratio:.2}x ({:.2} -> {:.2} MiB): \
             some state is O(P^2)",
            mib(half),
            mib(full)
        );
    }
}
