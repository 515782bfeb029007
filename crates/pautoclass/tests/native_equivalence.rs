//! The tentpole gate for the native backend: the full verified P-AutoClass
//! search produces **bitwise identical** results whether the driver runs on
//! the simulated multicomputer (`mpsim::Comm`, virtual time) or on real
//! cores (`shmcomm::NativeComm`, wall-clock time). Classifications,
//! log-likelihoods, and the replication hashes of every flat parameter
//! vector must agree to the last bit at P ∈ {1, 2, 4, 8}, and on the
//! hierarchical fat-tree cluster with its hierarchical allreduce — the
//! machine spec only chooses algorithms; the numbers come from identical
//! fold orders on both backends.

use autoclass::model::classes_to_flat;
use autoclass::search::SearchConfig;
use mpsim::{hash_f64s, presets, SimOptions};
use pautoclass::{
    run_search_native, run_search_with, Exchange, ParallelConfig, ParallelOutcome, Strategy,
};
use shmcomm::NativeOptions;

fn config(strategy: Strategy) -> ParallelConfig {
    ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![2, 4],
            tries_per_j: 1,
            max_cycles: 30,
            rel_delta_ll: 1e-7,
            min_class_weight: 1.0,
            seed: 99,
            max_stored: 10,
        },
        strategy,
        partition: pautoclass::Partitioning::Block,
        correlated_blocks: Vec::new(),
    }
}

/// Hash every stored classification's flat parameter vector — the same
/// FNV-1a the replication verifier uses, so "equal hashes" here means
/// exactly what the in-run replication checks mean.
fn classification_hashes(out: &ParallelOutcome) -> Vec<u64> {
    out.all.iter().map(|c| hash_f64s(&classes_to_flat(&c.classes))).collect()
}

fn assert_bitwise_identical(sim: &ParallelOutcome, native: &ParallelOutcome, label: &str) {
    assert_eq!(
        sim.best.approx.log_likelihood.to_bits(),
        native.best.approx.log_likelihood.to_bits(),
        "{label}: best log-likelihood diverged across backends"
    );
    assert_eq!(
        sim.best.score().to_bits(),
        native.best.score().to_bits(),
        "{label}: best CS score diverged across backends"
    );
    assert_eq!(sim.cycles, native.cycles, "{label}: cycle counts diverged");
    assert_eq!(sim.all.len(), native.all.len(), "{label}: stored classification counts diverged");
    assert_eq!(
        classification_hashes(sim),
        classification_hashes(native),
        "{label}: classification parameter hashes diverged"
    );
    for (cs, cn) in sim.all.iter().zip(&native.all) {
        assert_eq!(cs.cycles, cn.cycles, "{label}: per-try cycle counts diverged");
        assert_eq!(cs.converged, cn.converged, "{label}: convergence flags diverged");
        assert_eq!(
            cs.approx.log_likelihood.to_bits(),
            cn.approx.log_likelihood.to_bits(),
            "{label}: per-try log-likelihoods diverged"
        );
    }
}

#[test]
fn verified_search_is_bitwise_identical_across_backends() {
    let data = datagen::paper_dataset(600, 9);
    let cfg = config(Strategy::Full { exchange: Exchange::Fused });
    let machines = [1usize, 2, 4, 8]
        .map(|p| (format!("meiko_cs2 P={p}"), presets::meiko_cs2(p)))
        .into_iter()
        .chain([("hier_cluster(8, 4)".to_string(), presets::hier_cluster(8, 4))]);
    for (label, spec) in machines {
        let sim = run_search_with(&data, &spec, &cfg, &SimOptions::verified())
            .unwrap_or_else(|e| panic!("{label} sim: {e}"));
        let native = run_search_native(&data, &spec, &cfg, &NativeOptions::verified())
            .unwrap_or_else(|e| panic!("{label} native: {e}"));
        assert_bitwise_identical(&sim, &native, &label);
        assert!(native.elapsed > 0.0, "{label}: native run must report wall-clock time");
        assert!(sim.cycles > 0, "{label}: search ran no cycles");
    }
}

#[test]
fn every_exchange_strategy_is_backend_invariant() {
    // The PerTerm ablation, the fused exchange, and the pipelined
    // (overlapped) exchange all ride the same deterministic collectives;
    // natively the pipelined non-blocking allreduce degenerates to an
    // eager one, which preserves the numbers exactly.
    let data = datagen::paper_dataset(400, 11);
    for strategy in [
        Strategy::Full { exchange: Exchange::PerTerm },
        Strategy::Full { exchange: Exchange::Fused },
        Strategy::Full { exchange: Exchange::Pipelined },
        Strategy::WtsOnly,
    ] {
        let cfg = config(strategy);
        let spec = presets::modern_cluster(4);
        let sim = run_search_with(&data, &spec, &cfg, &SimOptions::default())
            .unwrap_or_else(|e| panic!("{strategy:?} sim: {e}"));
        let native = run_search_native(&data, &spec, &cfg, &NativeOptions::default())
            .unwrap_or_else(|e| panic!("{strategy:?} native: {e}"));
        assert_bitwise_identical(&sim, &native, &format!("{strategy:?}"));
    }
}

#[test]
fn native_stats_fill_the_same_phase_shapes() {
    // `xtask report` and the calibration harness consume RankStats from
    // either backend; the native run must populate the same phase names
    // and conservation law (phase totals partition elapsed wall time).
    let data = datagen::paper_dataset(300, 5);
    let cfg = config(Strategy::Full { exchange: Exchange::Fused });
    let native =
        run_search_native(&data, &presets::meiko_cs2(4), &cfg, &NativeOptions::default()).unwrap();
    assert_eq!(native.ranks.len(), 4);
    for (r, rs) in native.ranks.iter().enumerate() {
        assert!(rs.phase("search").is_some(), "rank {r}: missing the search phase bucket");
        let sum: f64 = rs.phases.iter().map(|p| p.total()).sum();
        let rel = (sum - rs.elapsed).abs() / rs.elapsed.max(1e-9);
        assert!(rel < 1e-6, "rank {r}: phase totals {sum} must partition elapsed {}", rs.elapsed);
        assert!(rs.bytes_sent > 0, "rank {r}: a 4-rank search must communicate");
    }
}
