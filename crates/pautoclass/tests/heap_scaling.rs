//! A search's memory grows with the machine, not with its square: a
//! counting `#[global_allocator]` records the peak live heap of a
//! default-option `run_search_with` on `hier_cluster(p, 8)` at `P = 512`
//! and `P = 1024`, on one 16 384-item dataset, and doubling `P` must not
//! much more than double it. A rank that keeps state for every rank, such
//! as all `P` partition ranges when it reads only its own, adds `O(P)`
//! bytes per rank, which pushes the ratio towards 4: at these sizes, 16
//! bytes a (rank, rank) pair is 4 MiB at `P = 512` and 16 MiB at
//! `P = 1024`, against a search that otherwise peaks at a few MiB.
//!
//! The peak at `P = 1024` is also held to an absolute bound,
//! [`PEAK_AT_1024_MIB`]: each rank's heap is sized to its own 16-item
//! partition, the classes every rank derives identically are held once
//! per host, not once per rank, and so is the E-step scratch the ranks
//! borrow in turn.
//!
//! One `#[test]` in its own binary, so no concurrently running test shares
//! the allocator's counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use autoclass::search::SearchConfig;
use mpsim::{presets, SimOptions};
use pautoclass::{run_search_with, Exchange, ParallelConfig, Strategy};

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

/// Peak heap growth, in bytes, of a default-option search at `p` ranks
/// over what was live before it.
fn search_peak_bytes(data: &autoclass::data::Dataset, p: usize) -> usize {
    let config = ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![2, 4, 8],
            tries_per_j: 1,
            max_cycles: 5,
            rel_delta_ll: 0.0,
            min_class_weight: 0.0,
            seed: 0xF16,
            max_stored: 3,
        },
        strategy: Strategy::Full { exchange: Exchange::Fused },
        ..ParallelConfig::default()
    };
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    let out = run_search_with(data, &presets::hier_cluster(p, 8), &config, &SimOptions::default())
        .expect("the search runs");
    let peak = PEAK_BYTES.load(Ordering::Relaxed);
    drop(out);
    peak - base
}

/// The most a search at `P = 1024` may peak at, in MiB. It peaks at
/// about 4.4; an E-step scratch per rank (about 1.4 KiB each at these
/// 16-item partitions: 5.8 MiB in all) or a class list per rank (about
/// 2 KiB each) takes it past the bound.
const PEAK_AT_1024_MIB: f64 = 5.0;

#[test]
fn search_peak_heap_grows_linearly_in_p() {
    let data = datagen::paper_dataset(16_384, 7);
    let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
    let (half, full) = (search_peak_bytes(&data, 512), search_peak_bytes(&data, 1024));
    let ratio = full as f64 / half as f64;
    println!(
        "search peak heap: P=512 {:.2} MiB, P=1024 {:.2} MiB, ratio {ratio:.2}",
        mib(half),
        mib(full)
    );
    assert!(
        ratio < 2.5,
        "doubling P grew the search's peak heap {ratio:.2}x ({:.2} -> {:.2} MiB): \
         some per-rank state is O(P)",
        mib(half),
        mib(full)
    );
    assert!(
        mib(full) <= PEAK_AT_1024_MIB,
        "the search at P=1024 peaked at {:.2} MiB, over {PEAK_AT_1024_MIB} MiB",
        mib(full)
    );
}
