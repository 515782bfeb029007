//! The replicated tail runs once per host on the simulator (see
//! `pautoclass::driver::replicated_tail`): the first rank derives the
//! classes and scores, and every rank whose inputs match bit for bit
//! takes a handle to them. These tests hold that the sharing is
//! invisible. A search equals, bit for bit and in virtual time, the same
//! search with every verifier check on, where each rank derives for
//! itself; inputs that differ in one bit never share a result; the store
//! is empty after a fault-free run and untouched with replication
//! checking on; a rank that shares a kept result allocates nothing and
//! holds the very value the deriving rank holds; and the deriving rank
//! derives into a spare the store kept, not into a copy of the class
//! list every rank shares.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use autoclass::data::{block_range, GlobalStats};
use autoclass::model::{
    classes_to_flat, evaluate, init_classes, stats_to_classes, CycleWorkspace, Model, StatLayout,
    SuffStats, TermPrior, WtsMatrix,
};
use autoclass::search::{Classification, SearchConfig};
use mpsim::{
    presets, run_spmd, Comm, Communicator, SimOptions, SpmdComm, SpmdOutput, VerifyOptions,
};
use pautoclass::driver::{
    build_model, init_classes_parallel, parallel_base_cycle, replicated_tail, Source,
};
use pautoclass::{
    run_search_fleet_with, run_search_with, Exchange, FleetConfig, ParallelConfig, ParallelOutcome,
    Strategy,
};

/// Counts the allocator calls made on the calling thread, so tests running
/// in parallel on other threads do not disturb a count.
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

fn config(strategy: Strategy) -> ParallelConfig {
    ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![2, 4],
            tries_per_j: 1,
            max_cycles: 12,
            rel_delta_ll: 1e-7,
            min_class_weight: 1.0,
            seed: 5,
            max_stored: 10,
        },
        strategy,
        ..ParallelConfig::default()
    }
}

const STRATEGIES: [Strategy; 4] = [
    Strategy::Full { exchange: Exchange::Fused },
    Strategy::Full { exchange: Exchange::PerTerm },
    Strategy::WtsOnly,
    Strategy::Full { exchange: Exchange::Pipelined },
];

fn checked() -> SimOptions {
    SimOptions { verify: VerifyOptions::all(), ..SimOptions::default() }
}

/// Every bit of every retained classification.
fn bits(all: &[Classification]) -> Vec<Vec<u64>> {
    all.iter()
        .map(|c| {
            let mut b = vec![c.score().to_bits(), c.cycles as u64, c.classes.len() as u64];
            b.extend(classes_to_flat(&c.classes).iter().map(|v| v.to_bits()));
            b
        })
        .collect()
}

fn assert_same(shared: &ParallelOutcome, derived: &ParallelOutcome, what: &str) {
    assert_eq!(bits(&shared.all), bits(&derived.all), "{what}: classifications");
    assert_eq!(shared.cycles, derived.cycles, "{what}: cycles");
    assert_eq!(shared.elapsed.to_bits(), derived.elapsed.to_bits(), "{what}: virtual time");
    assert_eq!(shared.ranks, derived.ranks, "{what}: per-rank statistics");
}

#[test]
fn the_search_equals_the_search_where_every_rank_derives() {
    let data = datagen::paper_dataset(480, 3);
    for strategy in STRATEGIES {
        let cfg = config(strategy);
        for p in [3usize, 8] {
            let m = presets::meiko_cs2(p);
            let shared = run_search_with(&data, &m, &cfg, &SimOptions::default()).unwrap();
            let derived = run_search_with(&data, &m, &cfg, &checked()).unwrap();
            assert!(shared.cycles > 0, "{strategy:?} P={p}: no cycle ran");
            assert_same(&shared, &derived, &format!("{strategy:?} P={p}"));
        }
    }
}

#[test]
fn the_fleet_search_equals_the_fleet_search_where_every_rank_derives() {
    let data = datagen::paper_dataset(480, 3);
    let cfg = config(Strategy::Full { exchange: Exchange::Fused });
    for groups in [1usize, 2] {
        let fc = FleetConfig { groups, round_cycles: 3, ..FleetConfig::default() };
        let m = presets::meiko_cs2(8);
        let shared = run_search_fleet_with(&data, &m, &cfg, &fc, &SimOptions::default()).unwrap();
        let derived = run_search_fleet_with(&data, &m, &cfg, &fc, &checked()).unwrap();
        assert_eq!(shared.fleet, derived.fleet, "G={groups}: scheduler counters");
        assert_same(&shared.outcome, &derived.outcome, &format!("G={groups}"));
    }
}

/// `x` with one mantissa bit flipped.
fn flip(x: &mut f64) {
    *x = f64::from_bits(x.to_bits() ^ (1 << 40));
}

/// What a rank derives for itself: its classes and scores.
fn own_tail(model: &Model, stats: &SuffStats, scalars: [f64; 2]) -> Vec<u64> {
    let (classes, _) = stats_to_classes(model, stats);
    let a = evaluate(model, stats, scalars[0], scalars[1]);
    let mut b = vec![a.cs_score.to_bits(), a.complete_marginal.to_bits()];
    b.extend(classes_to_flat(&classes).iter().map(|v| v.to_bits()));
    b
}

#[test]
fn inputs_one_bit_apart_never_share_an_entry() {
    let data = datagen::paper_dataset(300, 4);
    let view = data.full_view();
    let model = Model::new(data.schema().clone(), &GlobalStats::compute(&view));
    let j = 3;
    let classes = init_classes(&model, &view, j, 17);
    let mut wts = WtsMatrix::new(0, 0);
    let e = autoclass::model::update_wts(&model, &view, &classes, &mut wts);
    let mut stats = SuffStats::zeros(StatLayout::new(&model, j));
    stats.accumulate(&model, &view, &wts);
    let scalars = [e.log_likelihood, e.complete_ll];

    // The same inputs, then one bit flipped in a prior, in the reduced
    // statistics, or in a scalar.
    let mut other_model = model.clone();
    match &mut other_model.groups[0].prior {
        TermPrior::Normal { mean0, .. } | TermPrior::LogNormal { mean0, .. } => flip(mean0),
        TermPrior::Multinomial { alpha, .. } => flip(alpha),
        TermPrior::MultiNormal { kappa0, .. } => flip(kappa0),
    }
    let mut other_stats = stats.clone();
    flip(&mut other_stats.data[stats.layout.attr_range(0, 0).start + 1]);
    let mut other_scalars = scalars;
    flip(&mut other_scalars[1]);
    let inputs = [
        (&model, &stats, scalars),
        (&other_model, &stats, scalars),
        (&model, &other_stats, scalars),
        (&model, &stats, other_scalars),
    ];
    let mine = own_tail(&model, &stats, scalars);
    for (i, &(m, st, sc)) in inputs.iter().enumerate() {
        let theirs = own_tail(m, st, sc);
        assert_eq!(i == 0, theirs == mine, "input {i}: the flipped bit must change the result");
        // Two ranks on one communicator: rank 0 runs first and keeps its
        // result; rank 1, with input `i`, may share it only when the
        // inputs are the same.
        let out = run_spmd(&presets::zero_cost(2), &SimOptions::default(), |comm| {
            let (m, st, sc) = if comm.rank() == 0 { inputs[0] } else { inputs[i] };
            let mut tail = Arc::default();
            let approx = replicated_tail(comm, m, st, sc, Source::Stats, &mut tail);
            let mut b = vec![approx.cs_score.to_bits(), approx.complete_marginal.to_bits()];
            b.extend(classes_to_flat(&tail.classes).iter().map(|v| v.to_bits()));
            b
        })
        .unwrap();
        assert_eq!(out.per_rank, [mine.clone(), theirs], "input {i}");
        assert_eq!((out.replicas.shared, out.replicas.left), (u64::from(i == 0), 0), "input {i}");
    }
}

/// A few cycles of every strategy on the world, then one tail on each
/// half of a split, returning each rank's final classes.
fn cycles_and_groups(comm: &mut Comm, data: &autoclass::data::Dataset) -> Vec<u64> {
    let part = block_range(data.len(), comm.size(), comm.rank());
    let view = data.view(part.start, part.end);
    let model = build_model(comm, &view, &[], "allreduce");
    let mut tail = init_classes_parallel(comm, &model, &view, 4, 9);
    let mut ws = CycleWorkspace::new();
    let mut approx = Default::default();
    for strategy in STRATEGIES {
        approx = parallel_base_cycle(comm, &model, &view, &mut tail, &mut ws, strategy);
    }
    let stats = ws.stats.as_ref().expect("the cycles installed statistics");
    let scalars = [approx.log_likelihood, approx.complete_ll];
    let mut half = comm.split(|r| (r % 2) as u32);
    replicated_tail(&mut half, &model, stats, scalars, Source::Stats, &mut tail);
    classes_to_flat(&tail.classes).iter().map(|v| v.to_bits()).collect()
}

#[test]
fn the_store_empties_and_checking_replication_never_consults_it() {
    let data = datagen::paper_dataset(400, 6);
    let m = presets::meiko_cs2(6);
    let run = |opts: &SimOptions| -> SpmdOutput<Vec<u64>> {
        run_spmd(&m, opts, |comm| cycles_and_groups(comm, &data)).unwrap()
    };
    let shared = run(&SimOptions::default());
    let derived = run(&checked());
    assert_eq!(shared.per_rank, derived.per_rank);
    assert_eq!(shared.ranks, derived.ranks);
    // One kept result per derivation: the initial decode, four cycles on
    // the world of six, and one tail on each half of three.
    let r = shared.replicas;
    assert_eq!((r.kept, r.shared, r.left), (7, 5 * 5 + 2 * 2, 0), "{r:?}");
    assert_eq!(derived.replicas, Default::default(), "a checking run must derive everywhere");
}

#[test]
fn sharing_a_kept_result_allocates_nothing() {
    let data = datagen::paper_dataset(400, 8);
    let p = 4;
    let out = run_spmd(&presets::zero_cost(p), &SimOptions::default(), |comm| {
        let part = block_range(data.len(), comm.size(), comm.rank());
        let view = data.view(part.start, part.end);
        let model = build_model(comm, &view, &[], "allreduce");
        let mut tail = init_classes_parallel(comm, &model, &view, 5, 3);
        let mut ws = CycleWorkspace::new();
        let strategy = Strategy::Full { exchange: Exchange::Fused };
        let a = parallel_base_cycle(comm, &model, &view, &mut tail, &mut ws, strategy);
        let stats = ws.stats.as_ref().expect("the cycle installed statistics");
        let scalars = [a.log_likelihood, a.complete_ll];
        replicated_tail(comm, &model, stats, scalars, Source::Stats, &mut tail);
        comm.barrier();
        let before = allocs();
        replicated_tail(comm, &model, stats, scalars, Source::Stats, &mut tail);
        let allocated = allocs() - before;
        comm.barrier();
        // Every rank still holds its handle, so the addresses compare.
        (allocated, Arc::as_ptr(&tail) as usize)
    })
    .unwrap();
    // One rank derived and kept a handle; every other rank took one.
    let sharers = out.per_rank.iter().filter(|&&(n, _)| n == 0).count();
    assert_eq!(sharers, p - 1, "allocations per rank: {:?}", out.per_rank);
    // One value, held by all the ranks.
    assert!(out.per_rank.iter().all(|&(_, at)| at == out.per_rank[0].1), "{:?}", out.per_rank);
    // The initial decode, the cycle's tail and the two tails above: each
    // kept once and shared by the other ranks.
    assert_eq!((out.replicas.kept, out.replicas.shared), (4, 4 * (p as u64 - 1)));
}

const CYCLES: usize = 10;

/// Allocations made by all the ranks of `meiko_cs2(p)` over `CYCLES`
/// cycles of `strategy` at J = 5, after three warm-up cycles.
fn allocs_over_cycles(data: &autoclass::data::Dataset, p: usize, strategy: Strategy) -> u64 {
    let out = run_spmd(&presets::meiko_cs2(p), &SimOptions::default(), |comm| {
        let part = block_range(data.len(), comm.size(), comm.rank());
        let view = data.view(part.start, part.end);
        let model = build_model(comm, &view, &[], "allreduce");
        let mut tail = init_classes_parallel(comm, &model, &view, 5, 3);
        let mut ws = CycleWorkspace::new();
        for _ in 0..3 {
            parallel_base_cycle(comm, &model, &view, &mut tail, &mut ws, strategy);
        }
        comm.barrier();
        let before = allocs();
        for _ in 0..CYCLES {
            parallel_base_cycle(comm, &model, &view, &mut tail, &mut ws, strategy);
        }
        comm.barrier();
        (std::thread::current().id(), allocs() - before)
    })
    .unwrap();
    // Fibers share the calling thread, whose counter sees every rank
    // between rank 0's two reads; thread-backed ranks count their own.
    if out.per_rank.iter().all(|(t, _)| *t == out.per_rank[0].0) {
        out.per_rank[0].1
    } else {
        out.per_rank.iter().map(|(_, n)| n).sum()
    }
}

#[test]
fn a_pipelined_cycle_allocates_at_most_its_request_vector_beyond_a_fused_one() {
    let data = datagen::paper_dataset(400, 8);
    let p = 4;
    let fused = allocs_over_cycles(&data, p, Strategy::Full { exchange: Exchange::Fused });
    let pipelined = allocs_over_cycles(&data, p, Strategy::Full { exchange: Exchange::Pipelined });
    // The one extra allocation per rank and cycle is the vector of
    // statistics requests; a rank that copied the shared class list to
    // derive into would add that copy's allocations on top.
    let per = |n: u64| n as f64 / (p * CYCLES) as f64;
    assert!(
        pipelined <= fused + (p * CYCLES) as u64,
        "allocations per rank per cycle: Pipelined {}, Fused {}",
        per(pipelined),
        per(fused)
    );
}

/// Fused allocations per rank and cycle at `meiko_cs2(4)`, J = 5: the
/// per-meeting state of the collectives. When the deriving rank copied
/// the shared class list to derive into, instead of a spare the store
/// kept, it was 4.85.
const FUSED_ALLOCS_PER_RANK_CYCLE: f64 = 3.1;

#[test]
fn a_fused_cycle_derives_into_a_spare_not_a_copy() {
    let data = datagen::paper_dataset(400, 8);
    let p = 4;
    let fused = allocs_over_cycles(&data, p, Strategy::Full { exchange: Exchange::Fused });
    let per = fused as f64 / (p * CYCLES) as f64;
    println!("Fused allocations per rank per cycle: {per}");
    assert!(per <= FUSED_ALLOCS_PER_RANK_CYCLE, "{per} allocations per rank per cycle");
}
