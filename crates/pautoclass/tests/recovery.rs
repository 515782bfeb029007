//! Checkpoint/restart and recovery-policy tests: the fault-tolerant
//! supervisor must turn every injected fault into either a bit-identical
//! recovered result or a typed error naming the culprit — never a hang,
//! never a panic, never silently different numbers.

use autoclass::model::classes_to_flat;
use autoclass::search::SearchConfig;
use mpsim::{
    presets, CommError, FaultAction, FaultPlan, FaultSpec, FaultTrigger, SimError, SimOptions,
    RECOVERY_PHASE,
};
use pautoclass::{
    corrupt_shard, decode_shard, from_shards, run_search_ft, run_search_ft_native, run_search_with,
    to_shards, CheckpointError, Exchange, FtConfig, NativeOptions, ParallelConfig, ParallelOutcome,
    RecoveryPolicy, RunError, SearchCheckpoint, ShardFault, StandbyConfig, Strategy,
};
use proptest::prelude::*;

fn config(seed: u64) -> ParallelConfig {
    ParallelConfig {
        search: SearchConfig::quick(vec![3], seed),
        strategy: Strategy::Full { exchange: Exchange::Fused },
        ..ParallelConfig::default()
    }
}

fn ft(policy: RecoveryPolicy) -> FtConfig {
    FtConfig { checkpoint_every: 4, policy, max_restarts: 1, ..FtConfig::default() }
}

fn opts_with(plan: FaultPlan) -> SimOptions {
    SimOptions { fault: Some(plan), ..SimOptions::default() }
}

fn crash(rank: usize, seq: u64) -> FaultPlan {
    FaultPlan::new(vec![FaultSpec {
        rank,
        action: FaultAction::Crash,
        trigger: FaultTrigger::AtSendSeq(seq),
    }])
}

/// The best classification's score and parameters as raw bit patterns —
/// the strictest possible "same result" comparison.
fn result_bits(o: &ParallelOutcome) -> (u64, Vec<u64>) {
    let flat = classes_to_flat(&o.best.classes);
    (o.best.score().to_bits(), flat.iter().map(|v| v.to_bits()).collect())
}

#[test]
fn unfaulted_ft_run_matches_the_plain_search_bit_for_bit() {
    let data = datagen::paper_dataset(240, 7);
    let machine = presets::meiko_cs2(4);
    let cfg = config(11);
    let plain = run_search_with(&data, &machine, &cfg, &SimOptions::default()).unwrap();
    let ftc = ft(RecoveryPolicy::RestartFromCheckpoint);
    let out = run_search_ft(&data, &machine, &cfg, &ftc, &SimOptions::default()).unwrap();
    assert_eq!(out.attempts, 1);
    assert!(out.faults.is_empty());
    assert!(!out.shrunk);
    assert_eq!(out.survivors, 4);
    assert_eq!(
        result_bits(&out.outcome),
        result_bits(&plain),
        "checkpoints must not change numbers"
    );
    assert_eq!(out.outcome.cycles, plain.cycles);
    // ...but they do cost virtual time (the serialized bytes are charged
    // as work on every rank).
    assert!(out.outcome.elapsed >= plain.elapsed, "checkpoint work should not be free");
}

#[test]
fn crash_restart_recovers_bit_identically() {
    let data = datagen::paper_dataset(240, 7);
    let machine = presets::meiko_cs2(4);
    let cfg = config(11);
    let ftc = ft(RecoveryPolicy::RestartFromCheckpoint);
    let baseline = run_search_ft(&data, &machine, &cfg, &ftc, &SimOptions::default()).unwrap();

    let out = run_search_ft(&data, &machine, &cfg, &ftc, &opts_with(crash(1, 12))).unwrap();
    assert_eq!(out.attempts, 2, "one failed run plus the recovery");
    assert_eq!(out.faults.len(), 1);
    assert!(
        matches!(
            &out.faults[0],
            SimError::RankCrashed { rank: 1, .. } | SimError::PeerFailed { peer: 1, .. }
        ),
        "fault must name rank 1: {}",
        out.faults[0]
    );
    assert!(!out.shrunk);
    assert_eq!(
        result_bits(&out.outcome),
        result_bits(&baseline.outcome),
        "recovery must be bit-identical"
    );
    assert_eq!(out.outcome.cycles, baseline.outcome.cycles);
}

#[test]
fn corruption_restart_recovers_bit_identically() {
    let data = datagen::paper_dataset(240, 7);
    let machine = presets::meiko_cs2(4);
    let cfg = config(11);
    let ftc = ft(RecoveryPolicy::RestartFromCheckpoint);
    let baseline = run_search_ft(&data, &machine, &cfg, &ftc, &SimOptions::default()).unwrap();

    let plan = FaultPlan::new(vec![FaultSpec {
        rank: 1,
        action: FaultAction::Corrupt { dst: 0, byte: 5, mask: 0x20 },
        trigger: FaultTrigger::AtSendSeq(8),
    }]);
    let out = run_search_ft(&data, &machine, &cfg, &ftc, &opts_with(plan)).unwrap();
    assert_eq!(out.attempts, 2);
    assert!(
        matches!(&out.faults[0], SimError::PayloadCorrupt { from: 1, .. }),
        "fault must name the corrupting sender: {}",
        out.faults[0]
    );
    assert_eq!(result_bits(&out.outcome), result_bits(&baseline.outcome));
}

#[test]
fn abort_policy_surfaces_the_typed_culprit() {
    let data = datagen::paper_dataset(240, 7);
    let machine = presets::meiko_cs2(4);
    let cfg = config(11);
    let ftc = ft(RecoveryPolicy::Abort);
    let culprit = |err: RunError| match err {
        RunError::Sim(SimError::RankCrashed { rank, seq, .. })
        | RunError::Comm(CommError::Sim(SimError::RankCrashed { rank, seq, .. })) => (rank, seq),
        other => panic!("expected the crash diagnosis, got {other}"),
    };
    let sim = run_search_ft(&data, &machine, &cfg, &ftc, &opts_with(crash(1, 12))).unwrap_err();
    let (rank, seq) = culprit(sim);
    assert_eq!(rank, 1);
    assert!(seq <= 12, "crash at or before its trigger seq, got {seq}");
    // One crash rule on both backends: the native error names the same
    // rank and the same count of sends made.
    let opts = NativeOptions { fault: Some(crash(1, 12)), ..NativeOptions::default() };
    let native = run_search_ft_native(&data, &machine, &cfg, &ftc, &opts).unwrap_err();
    assert_eq!(culprit(native), (rank, seq));
}

#[test]
fn shrink_completes_on_the_survivors_and_reports_the_cost() {
    let data = datagen::paper_dataset(240, 7);
    let machine = presets::meiko_cs2(4);
    let cfg = config(11);
    let ftc = ft(RecoveryPolicy::ShrinkAndRedistribute);
    let out = run_search_ft(&data, &machine, &cfg, &ftc, &opts_with(crash(1, 12))).unwrap();
    assert_eq!(out.attempts, 2);
    assert!(out.shrunk);
    assert_eq!(out.survivors, 3, "P-1 ranks must finish the search");
    assert!(out.recovery_time > 0.0, "rebuild cost must land in the recovery bucket");
    assert!(out.outcome.best.n_classes() >= 2, "the degraded run still classifies");
    // The excluded rank does no searching: its elapsed time stops at the
    // communicator split, strictly before the survivors'.
    let excluded = &out.outcome.ranks[1];
    let max_elapsed = out.outcome.ranks.iter().map(|r| r.elapsed).fold(0.0, f64::max);
    assert!(excluded.elapsed < max_elapsed, "culprit must leave the computation");
    // Every rank's buckets partition its elapsed time, and the survivors
    // book the EM cycle's phases as world ranks do.
    for r in &out.outcome.ranks {
        let gap = (r.phases_total() - r.elapsed).abs();
        assert!(gap <= 1e-9 * r.elapsed.max(1.0), "rank {}: phases miss elapsed by {gap}", r.rank);
    }
    for rank in [0, 2, 3] {
        for name in ["estep", "mstep", "allreduce"] {
            let t = out.outcome.ranks[rank].phase(name).map_or(0.0, |ph| ph.total());
            assert!(t > 0.0, "survivor {rank} books no {name:?} time");
        }
    }
    // The rebuild stays recovery time, to the bit it was before the
    // survivors' cycles booked their own phases.
    let recovery: Vec<u64> = (out.outcome.ranks.iter())
        .map(|r| r.phase(RECOVERY_PHASE).map_or(0, |ph| ph.total().to_bits()))
        .collect();
    let want = [0x3f4a_566d_74f8_7a7b, 0, 0x3f49_266c_a646_7b3a, 0x3f50_81d8_5ccd_e14a];
    assert_eq!(recovery, want, "per-rank recovery bits");
    assert_eq!(out.recovery_time.to_bits(), want[3], "the recovery record");
}

#[test]
fn restart_without_any_checkpoint_replays_from_scratch() {
    let data = datagen::paper_dataset(240, 7);
    let machine = presets::meiko_cs2(4);
    let cfg = config(11);
    // checkpoint_every = 0 disables snapshots entirely.
    let ftc = FtConfig {
        checkpoint_every: 0,
        policy: RecoveryPolicy::RestartFromCheckpoint,
        max_restarts: 1,
        ..FtConfig::default()
    };
    let baseline = run_search_ft(&data, &machine, &cfg, &ftc, &SimOptions::default()).unwrap();
    let out = run_search_ft(&data, &machine, &cfg, &ftc, &opts_with(crash(2, 9))).unwrap();
    assert_eq!(out.attempts, 2);
    assert_eq!(result_bits(&out.outcome), result_bits(&baseline.outcome));
}

#[test]
fn a_recurring_fault_exhausts_the_restart_budget() {
    let data = datagen::paper_dataset(240, 7);
    let machine = presets::meiko_cs2(4);
    let cfg = config(11);
    let ftc = ft(RecoveryPolicy::RestartFromCheckpoint);
    // Two independent crashes. Rank 2 dies at send 5 — before the first
    // checkpoint — so attempt 1 fails and the restart replays from
    // scratch; rank 1's crash at send 12 then fires on attempt 2,
    // exhausting the budget, and must surface as the final error.
    let plan = FaultPlan::new(vec![
        FaultSpec { rank: 2, action: FaultAction::Crash, trigger: FaultTrigger::AtSendSeq(5) },
        FaultSpec { rank: 1, action: FaultAction::Crash, trigger: FaultTrigger::AtSendSeq(12) },
    ]);
    let err = run_search_ft(&data, &machine, &cfg, &ftc, &opts_with(plan)).unwrap_err();
    assert!(
        matches!(
            err,
            RunError::Sim(
                SimError::RankCrashed { .. }
                    | SimError::PeerFailed { .. }
                    | SimError::Timeout { .. }
            )
        ),
        "budget exhaustion must return the typed fault, got {err}"
    );
}

#[test]
fn promote_spare_preserves_p_and_recovers_bit_identically() {
    let data = datagen::paper_dataset(240, 7);
    let machine = presets::meiko_cs2(4);
    let cfg = config(11);
    let ftc = ft(RecoveryPolicy::PromoteSpare);
    let baseline = run_search_ft(&data, &machine, &cfg, &ftc, &SimOptions::default()).unwrap();
    assert_eq!(baseline.attempts, 1);
    assert_eq!(baseline.promotions, 0, "no fault, no promotion");

    let out = run_search_ft(&data, &machine, &cfg, &ftc, &opts_with(crash(1, 13))).unwrap();
    assert_eq!(out.attempts, 2, "one failed run plus the promoted retry");
    assert_eq!(out.promotions, 1, "exactly one spare consumed");
    assert_eq!(out.replays, 0);
    assert!(!out.fell_back, "a healthy spare pool must not fall back");
    assert!(!out.shrunk, "promotion must preserve P");
    assert_eq!(out.survivors, 4);
    assert!(out.recovery_time > 0.0, "shard load + handshake must be charged");
    assert_eq!(
        result_bits(&out.outcome),
        result_bits(&baseline.outcome),
        "a promoted spare must reproduce the fault-free numbers bit for bit"
    );
    assert_eq!(out.outcome.cycles, baseline.outcome.cycles);
}

#[test]
fn promote_spare_on_the_native_backend_matches_the_fault_free_run() {
    let data = datagen::paper_dataset(240, 7);
    let machine = presets::meiko_cs2(4);
    let cfg = config(11);
    let ftc = ft(RecoveryPolicy::PromoteSpare);
    let baseline =
        run_search_ft_native(&data, &machine, &cfg, &ftc, &NativeOptions::default()).unwrap();
    let opts = NativeOptions { fault: Some(crash(1, 13)), ..NativeOptions::default() };
    let out = run_search_ft_native(&data, &machine, &cfg, &ftc, &opts).unwrap();
    assert_eq!(out.attempts, 2);
    assert_eq!(out.promotions, 1);
    assert!(!out.fell_back);
    assert!(!out.shrunk);
    assert_eq!(out.survivors, 4, "promotion on real threads must preserve P");
    assert_eq!(
        result_bits(&out.outcome),
        result_bits(&baseline.outcome),
        "native promotion must be bit-identical to the native fault-free run"
    );
}

#[test]
fn local_replay_is_strictly_cheaper_than_a_full_rollback() {
    let data = datagen::paper_dataset(240, 7);
    let machine = presets::meiko_cs2(4);
    let cfg = config(11);
    let restart_cfg = ft(RecoveryPolicy::RestartFromCheckpoint);
    let baseline =
        run_search_ft(&data, &machine, &cfg, &restart_cfg, &SimOptions::default()).unwrap();

    // The identical fault cell under both policies.
    let restart =
        run_search_ft(&data, &machine, &cfg, &restart_cfg, &opts_with(crash(1, 13))).unwrap();
    let replay_cfg = ft(RecoveryPolicy::LocalReplay);
    let replay =
        run_search_ft(&data, &machine, &cfg, &replay_cfg, &opts_with(crash(1, 13))).unwrap();

    assert_eq!(restart.attempts, 2);
    assert_eq!(replay.attempts, 2);
    assert_eq!(replay.replays, 1, "the log must cover the gap back to the checkpoint");
    assert!(!replay.fell_back, "no ring eviction at the default capacity");
    assert!(restart.recovery_time > 0.0);
    assert!(
        replay.recovery_time < restart.recovery_time,
        "replaying {} envelopes locally must undercut the global rollback: {} vs {}",
        replay.replays,
        replay.recovery_time,
        restart.recovery_time
    );
    assert_eq!(result_bits(&replay.outcome), result_bits(&baseline.outcome));
    assert_eq!(result_bits(&restart.outcome), result_bits(&baseline.outcome));
}

#[test]
fn exhausted_spares_fall_back_deterministically() {
    let data = datagen::paper_dataset(240, 7);
    let machine = presets::meiko_cs2(4);
    let cfg = config(11);
    // One spare (the StandbyConfig default), two independent crashes on
    // the same logical rank: the first consumes the spare, the second
    // finds the pool empty and must take the fallback lattice.
    let ftc = FtConfig {
        checkpoint_every: 4,
        policy: RecoveryPolicy::PromoteSpare,
        max_restarts: 2,
        ..FtConfig::default()
    };
    let baseline = run_search_ft(&data, &machine, &cfg, &ftc, &SimOptions::default()).unwrap();
    let plan = || {
        FaultPlan::new(vec![
            FaultSpec { rank: 1, action: FaultAction::Crash, trigger: FaultTrigger::AtSendSeq(5) },
            FaultSpec { rank: 1, action: FaultAction::Crash, trigger: FaultTrigger::AtSendSeq(9) },
        ])
    };
    let out = run_search_ft(&data, &machine, &cfg, &ftc, &opts_with(plan())).unwrap();
    assert_eq!(out.attempts, 3, "crash, promoted retry, fallback restart");
    assert_eq!(out.promotions, 1, "only one spare existed to consume");
    assert!(out.fell_back, "the empty pool must be reported, not hidden");
    assert!(!out.shrunk, "the fallback is a restart, not a shrink");
    assert_eq!(out.faults.len(), 2);
    assert_eq!(result_bits(&out.outcome), result_bits(&baseline.outcome));

    // The fallback decision is part of the deterministic contract: a
    // second run of the same cell must retrace it exactly.
    let again = run_search_ft(&data, &machine, &cfg, &ftc, &opts_with(plan())).unwrap();
    assert_eq!(
        (again.attempts, again.promotions, again.fell_back),
        (out.attempts, out.promotions, out.fell_back)
    );
    assert_eq!(result_bits(&again.outcome), result_bits(&out.outcome));
}

#[test]
fn a_corrupt_shard_is_refused_and_the_promotion_falls_back() {
    let data = datagen::paper_dataset(240, 7);
    let machine = presets::meiko_cs2(4);
    let cfg = config(11);
    let culprit = 1usize;
    let ftc = FtConfig {
        standby: StandbyConfig {
            shard_fault: Some(ShardFault { logical_rank: culprit, byte: 7, mask: 0x40 }),
            ..StandbyConfig::default()
        },
        ..ft(RecoveryPolicy::PromoteSpare)
    };
    let baseline = run_search_ft(
        &data,
        &machine,
        &cfg,
        &ft(RecoveryPolicy::PromoteSpare),
        &SimOptions::default(),
    )
    .unwrap();
    let out = run_search_ft(&data, &machine, &cfg, &ftc, &opts_with(crash(culprit, 13))).unwrap();
    assert_eq!(out.attempts, 2);
    assert_eq!(out.promotions, 0, "a corrupt shard must not consume the spare");
    assert!(out.fell_back, "integrity failure must take the fallback restart");
    assert!(
        out.faults
            .iter()
            .any(|f| matches!(f, SimError::PayloadCorrupt { from, .. } if *from == culprit)),
        "the diagnosis must name the shard's logical rank: {:?}",
        out.faults
    );
    assert_eq!(
        result_bits(&out.outcome),
        result_bits(&baseline.outcome),
        "the intact full copy must still recover bit-identically"
    );
}

#[test]
fn the_native_backend_refuses_local_replay_with_a_typed_error() {
    let data = datagen::paper_dataset(240, 7);
    let machine = presets::meiko_cs2(4);
    let cfg = config(11);
    let ftc = ft(RecoveryPolicy::LocalReplay);
    let err =
        run_search_ft_native(&data, &machine, &cfg, &ftc, &NativeOptions::default()).unwrap_err();
    match err {
        RunError::Comm(CommError::Unsupported { what, backend }) => {
            assert_eq!(backend, "native");
            assert!(what.contains("LocalReplay"), "refusal must name the policy: {what}");
        }
        other => panic!("expected the typed refusal, got {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    // Satellite: shard corruption at *any* offset under *any* mask is
    // detected by the per-shard checksum and attributed to the owning
    // logical rank; the untouched shard set still reassembles exactly.
    #[test]
    fn any_shard_corruption_is_a_typed_error_naming_the_owner(
        p in 1usize..6,
        pick in 0usize..6,
        byte in 0usize..10_000,
        mask in 0u64..256,
    ) {
        let ck = SearchCheckpoint {
            ji: 1,
            try_idx: 2,
            cycle: 17,
            j_current: 4,
            seed: 4242,
            prev_ll: -321.5,
            approx: [-1.0e3, -1.1e3, -1.2e3, -1.3e3],
            total_cycles: 51,
            classes_flat: vec![0.25; 40],
            best: Vec::new(),
        };
        let bytes = ck.to_bytes();
        let shards = to_shards(&bytes, p);
        prop_assert_eq!(&from_shards(&shards).unwrap(), &bytes, "intact set must round-trip");

        let victim = pick % p;
        let mut damaged = shards[victim].clone();
        corrupt_shard(&mut damaged, byte, mask as u8);
        match decode_shard(&damaged) {
            Err(CheckpointError::ShardCorrupt { logical_rank, .. }) => {
                prop_assert_eq!(logical_rank, victim, "corruption must name its owner");
            }
            other => prop_assert!(false, "offset {byte} mask {mask:#x}: expected ShardCorrupt, got {other:?}"),
        }
    }

    // Satellite: checkpoint round-trips are exact for any shape the
    // search can produce (any schedule position, any parameter bits).
    #[test]
    fn checkpoint_round_trip_is_bit_exact(
        ji in 0usize..5,
        try_idx in 0usize..4,
        cycle in 0usize..200,
        seed in 0u64..u64::MAX,
        raw in prop::collection::vec(0u64..1_000_000_000, 1..60),
    ) {
        let classes_flat: Vec<f64> =
            raw.iter().map(|&v| (v as f64) * 0.125e-3 - 40_000.0).collect();
        let ck = SearchCheckpoint {
            ji,
            try_idx,
            cycle,
            j_current: 1 + classes_flat.len() % 7,
            seed,
            prev_ll: if cycle == 0 { f64::NEG_INFINITY } else { -(cycle as f64) * 13.5 },
            approx: [-1.0e4, -1.1e4, -1.2e4, -1.3e4],
            total_cycles: cycle * 3,
            classes_flat,
            best: Vec::new(),
        };
        let back = SearchCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        prop_assert_eq!(back, ck);
    }

    // Satellite: no truncation or byte flip may panic the decoder, and
    // every one must be rejected with a typed error.
    #[test]
    fn mangled_checkpoints_are_typed_errors_never_panics(
        cut in 0usize..1_000,
        pos in 0usize..1_000,
        mask in 1u64..256,
    ) {
        let ck = SearchCheckpoint {
            ji: 2,
            try_idx: 0,
            cycle: 9,
            j_current: 3,
            seed: 77,
            prev_ll: -512.25,
            approx: [-1.0, -2.0, -3.0, -4.0],
            total_cycles: 21,
            classes_flat: vec![0.5; 30],
            best: Vec::new(),
        };
        let bytes = ck.to_bytes();
        let cut = cut % bytes.len();
        prop_assert!(
            SearchCheckpoint::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes must be rejected"
        );
        let mut flipped = bytes.clone();
        let pos = pos % bytes.len();
        flipped[pos] ^= mask as u8;
        prop_assert!(
            SearchCheckpoint::from_bytes(&flipped).is_err(),
            "byte flip at {pos} must be rejected"
        );
    }
}
