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
//! The same allocator also counts allocations: a collective at the
//! rendezvous allocates a few times per call, not once or more per
//! member, so at `P = 64` an allreduce on the world or on a group makes
//! fewer than `P / 2` allocations.
//!
//! The tests share the allocator's counters, so each holds `SERIAL` while
//! it measures; the binary holds no other test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use mpsim::{presets, run_spmd, Comm, Communicator, MachineSpec, ReduceOp, SimOptions, SpmdComm};

/// The system allocator, counting live heap bytes, their peak and the
/// allocations made.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Held by a test while it reads the counters.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

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
    ALLOCS.fetch_add(1, Ordering::Relaxed);
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
    let _serial = serial();
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

/// Allocations a default-option run of `body(comm, calls)` on `spec`
/// makes per call: `(allocations at 200 calls - at 100) / 100`, so the
/// launch's own allocations cancel out. A first run caches the plan.
fn allocs_per_call(spec: &MachineSpec, body: impl Fn(&mut Comm, usize) + Sync) -> f64 {
    let opts = SimOptions::default();
    let allocs = |calls: usize| {
        let before = ALLOCS.load(Ordering::Relaxed);
        drop(run_spmd(spec, &opts, |c| body(c, calls)).expect("the probe runs"));
        ALLOCS.load(Ordering::Relaxed) - before
    };
    allocs(1);
    let (hundred, two_hundred) = (allocs(100), allocs(200));
    (two_hundred as f64 - hundred as f64) / 100.0
}

#[test]
fn no_collective_allocates_per_member() {
    let _serial = serial();
    const P: usize = 64;
    let spec = presets::meiko_cs2(P);
    let world = allocs_per_call(&spec, |c, calls| {
        let mut buf = vec![c.rank() as f64; 58];
        for _ in 0..calls {
            c.allreduce_f64s(&mut buf, ReduceOp::Sum);
        }
    });
    let group = allocs_per_call(&spec, |c, calls| {
        let mut sub = c.split(|r| (r % 2) as u32);
        let mut buf = vec![sub.rank() as f64; 58];
        for _ in 0..calls {
            sub.allreduce_f64s(&mut buf, ReduceOp::Sum);
        }
    });
    for (probe, per_call) in [("world allreduce", world), ("group allreduce", group)] {
        println!("{probe} at P={P}: {per_call:.1} allocations per call");
        assert!(
            per_call < (P / 2) as f64,
            "{probe} at P={P} makes {per_call:.1} allocations per call: \
             some rendezvous state is allocated per member"
        );
    }
}
