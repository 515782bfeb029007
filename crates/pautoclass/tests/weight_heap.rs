//! No EM cycle holds the `n × J` weight matrix, and a simulated host
//! holds one tile of weights, not one per rank. A Full-strategy cycle
//! computes the weights one `ESTEP_TILE`-item tile at a time and folds
//! each tile into the local statistics while it is in cache, so its
//! weight storage is one tile, `min(n, ESTEP_TILE) × J` doubles, not its
//! partition's `n/P × J`; and the ranks of a simulated run borrow that
//! tile, with the rest of the E-step scratch, from the host
//! (`SpmdComm::with_scratch`), one at a time.
//!
//! A counting `#[global_allocator]` records the peak live heap of two
//! Fused searches over what was live before each:
//! * the paper's shape (J = 24 on `meiko_cs2(8)`, 30 000 items), which
//!   must stay under [`PEAK_MIB`]: eight per-rank matrices of 3 750 × 24
//!   doubles alone are 5.5 MiB;
//! * the recovery workload's shape (J = 16 on `meiko_cs2(64)`, 32 768
//!   items, 512 per rank), which must stay under [`MANY_RANKS_PEAK_MIB`]:
//!   a full 256 × 16 tile per rank alone is 2 MiB.
//!
//! Then each Full exchange runs a few cycles on the world and the Fused
//! one on each half of a split, and every rank's workspace must hold no
//! weight matrix and no E-step scratch, while the value the ranks borrow
//! holds at most one tile of weights and no E-step buffer past the
//! tile's shape (a copy of the tile in another layout would fail it).
//!
//! One `#[test]` in its own binary, so no concurrently running test shares
//! the allocator's counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use autoclass::data::{block_range, Dataset};
use autoclass::model::{CycleWorkspace, EStepScratch, ESTEP_TILE};
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

/// The most the paper-shape search may peak at over what was live before
/// it, in MiB. It peaks at about 0.1 MiB; with a weight matrix per rank
/// it peaked at about 5.6.
const PEAK_MIB: f64 = 1.5;

/// The most the recovery-shape search (`meiko_cs2(64)`, J = 16) may peak
/// at over what was live before it, in MiB. A one-tile scratch per rank,
/// 64 tiles of 256 × 16 doubles, is 2 MiB on its own.
const MANY_RANKS_PEAK_MIB: f64 = 1.0;

/// Peak heap growth, in bytes, of a Fused search of `j` classes on
/// `meiko_cs2(p)` over what was live before it.
fn search_peak_bytes(data: &Dataset, p: usize, j: usize) -> usize {
    let config = ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![j],
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
    let out = run_search_with(data, &presets::meiko_cs2(p), &config, &SimOptions::default())
        .expect("the search runs");
    let peak = PEAK_BYTES.load(Ordering::Relaxed);
    assert_eq!(out.best.classes.len(), j, "no class may die");
    drop(out);
    peak - base
}

/// Each rank's weight storage after cycles of every Full exchange on the
/// world, then Fused cycles on its half of a split: the doubles its
/// weight matrix holds, those every buffer of its own E-step scratch
/// holds, and those of the scratch it borrows from the host: its one-tile
/// buffer and every buffer.
fn weight_storage(data: &Dataset) -> Vec<(usize, usize, usize, usize)> {
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
        let lent = half.with_scratch(&mut EStepScratch::default(), |s: &mut EStepScratch| {
            (s.tile.capacity(), s.capacity())
        });
        (ws.wts.capacity(), ws.estep.capacity(), lent.0, lent.1)
    })
    .expect("the cycles run");
    out.per_rank
}

#[test]
fn no_cycle_holds_the_weight_matrix() {
    let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
    let data = datagen::paper_dataset(30_000, 5);
    let paper = mib(search_peak_bytes(&data, P, J));
    println!("Fused search at J = {J}, P = {P}: peak heap {paper:.2} MiB");
    assert!(paper <= PEAK_MIB, "the search peaked at {paper:.2} MiB, over {PEAK_MIB} MiB");

    let many = mib(search_peak_bytes(&datagen::paper_dataset(32_768, 5), 64, 16));
    println!("Fused search at J = 16, P = 64: peak heap {many:.2} MiB");
    assert!(
        many <= MANY_RANKS_PEAK_MIB,
        "the search at P = 64 peaked at {many:.2} MiB, over {MANY_RANKS_PEAK_MIB} MiB"
    );

    // The host's scratch for an all-Normal model: the class sums, and per
    // tile row the weights and the three per-item sums; nothing else.
    let scratch_bound = J + ESTEP_TILE * (J + 3);
    for (rank, storage) in weight_storage(&data).into_iter().enumerate() {
        let (matrix, own, tile, lent) = storage;
        assert_eq!(matrix, 0, "rank {rank} shaped a weight matrix");
        assert_eq!(own, 0, "rank {rank} keeps an E-step scratch of its own");
        assert!(tile <= ESTEP_TILE * J, "rank {rank} borrows {tile} weights, over one tile");
        assert!(
            lent <= scratch_bound,
            "rank {rank}'s borrowed E-step scratch holds {lent} doubles, over {scratch_bound}"
        );
    }
}
