//! No EM cycle holds the `n × J` weight matrix. A Full-strategy cycle
//! computes the weights one `ESTEP_TILE`-item tile at a time and folds
//! each tile into the local statistics while it is in cache, so a rank's
//! weight storage is one tile, `min(n, ESTEP_TILE) × J` doubles, not its
//! partition's `n/P × J`.
//!
//! A counting `#[global_allocator]` records the peak live heap of a
//! Fused search at the paper's shape (J = 24 on `meiko_cs2(8)`, 30 000
//! items), which must stay under [`PEAK_MIB`]: eight per-rank matrices
//! of 3 750 × 24 doubles alone are 5.5 MiB. Then each Full exchange runs
//! a few cycles on the world and the Fused one on each half of a split,
//! and every rank's workspace must hold no weight matrix, at most one
//! tile of weights, and no E-step buffer past the tile's shape (a copy of
//! the tile in another layout would fail it).
//!
//! One `#[test]` in its own binary, so no concurrently running test shares
//! the allocator's counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use autoclass::data::{block_range, Dataset};
use autoclass::model::{CycleWorkspace, ESTEP_TILE};
use autoclass::search::SearchConfig;
use mpsim::{presets, run_spmd, Communicator, SimOptions, SpmdComm};
use pautoclass::driver::{blocking_cycle, build_model, init_classes_parallel, parallel_base_cycle};
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

const P: usize = 8;
const J: usize = 24;

/// The most the search may peak at over what was live before it, in MiB.
/// It peaks at about 0.5 MiB; with a weight matrix per rank it peaked at
/// about 5.6.
const PEAK_MIB: f64 = 1.5;

/// Peak heap growth, in bytes, of a Fused search of `J` classes on
/// `meiko_cs2(P)` over what was live before it.
fn search_peak_bytes(data: &Dataset) -> usize {
    let config = ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![J],
            tries_per_j: 1,
            max_cycles: 3,
            rel_delta_ll: 0.0,
            min_class_weight: 0.0,
            seed: 0xF16,
            max_stored: 1,
        },
        strategy: Strategy::Full { exchange: Exchange::Fused },
        ..ParallelConfig::default()
    };
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    let out = run_search_with(data, &presets::meiko_cs2(P), &config, &SimOptions::default())
        .expect("the search runs");
    let peak = PEAK_BYTES.load(Ordering::Relaxed);
    assert_eq!(out.best.classes.len(), J, "no class may die");
    drop(out);
    peak - base
}

/// Each rank's weight storage after cycles of every Full exchange on the
/// world, then Fused cycles on its half of a split: the doubles its
/// weight matrix holds, those its one-tile buffer holds, and those every
/// buffer of its E-step scratch holds.
fn weight_storage(data: &Dataset) -> Vec<(usize, usize, usize)> {
    let out = run_spmd(&presets::meiko_cs2(P), &SimOptions::default(), |comm| {
        let part = block_range(data.len(), comm.size(), comm.rank());
        let view = data.view(part.start, part.end);
        let model = build_model(comm, &view, &[], "allreduce");
        let mut tail = init_classes_parallel(comm, &model, &view, J, 3);
        let mut ws = CycleWorkspace::new();
        for exchange in [Exchange::Fused, Exchange::PerTerm, Exchange::Pipelined] {
            let strategy = Strategy::Full { exchange };
            for _ in 0..2 {
                parallel_base_cycle(comm, &model, &view, &mut tail, &mut ws, strategy);
            }
        }
        let mut half = comm.split(|r| (r % 2) as u32);
        let part = block_range(data.len(), half.size(), half.rank());
        let view = data.view(part.start, part.end);
        let strategy = Strategy::Full { exchange: Exchange::Fused };
        for _ in 0..2 {
            blocking_cycle(&mut half, &model, &view, &mut tail, &mut ws, strategy);
        }
        (ws.wts.capacity(), ws.estep.tile.capacity(), ws.estep.capacity())
    })
    .expect("the cycles run");
    out.per_rank
}

#[test]
fn no_cycle_holds_the_weight_matrix() {
    let data = datagen::paper_dataset(30_000, 5);
    let mib = search_peak_bytes(&data) as f64 / (1024.0 * 1024.0);
    println!("Fused search at J = {J}, P = {P}: peak heap {mib:.2} MiB");
    assert!(mib <= PEAK_MIB, "the search peaked at {mib:.2} MiB, over {PEAK_MIB} MiB");

    // The scratch of an all-Normal model: the class sums, and per tile
    // row the weights and the three per-item sums; nothing else.
    let scratch_bound = J + ESTEP_TILE * (J + 3);
    for (rank, (matrix, tile, scratch)) in weight_storage(&data).into_iter().enumerate() {
        assert_eq!(matrix, 0, "rank {rank} shaped a weight matrix");
        assert!(tile <= ESTEP_TILE * J, "rank {rank} holds {tile} weights, over one tile");
        assert!(
            scratch <= scratch_bound,
            "rank {rank}'s E-step scratch holds {scratch} doubles, over {scratch_bound}"
        );
    }
}
