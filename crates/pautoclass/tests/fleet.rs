//! Fleet-parallel search tests: the G-way candidate parallelism must
//! change *where* candidates run, never their numbers. With duplicate
//! abandonment disabled the consensus winner (and the whole retained
//! list) is bit-identical to the serial search on a machine of one
//! fleet's size, on both backends; the scheduler's
//! duplicate elimination and work stealing are exercised separately; the
//! control plane costs O(G) messages, none at G = 1; and the
//! fault-tolerant supervisor recovers per policy with the damage confined
//! to the culprit's fleet.

use autoclass::model::classes_to_flat;
use autoclass::search::{Classification, SearchConfig};
use mpsim::{
    presets, AllreduceAlgo, FaultAction, FaultPlan, FaultSpec, FaultTrigger, MachineSpec, SimError,
    SimOptions,
};
use pautoclass::{
    run_search_fleet, run_search_fleet_ft, run_search_fleet_native, run_search_fleet_with,
    run_search_with, Consensus, Exchange, FleetConfig, FtConfig, NativeOptions, ParallelConfig,
    ParallelOutcome, RecoveryPolicy, RunError, ShardFault, Strategy,
};

/// The equivalence claim is pinned to the deterministic pair the group
/// collectives mirror: recursive-doubling allreduce + fused exchange.
fn rd_machine(p: usize) -> MachineSpec {
    let mut m = presets::meiko_cs2(p);
    m.allreduce = AllreduceAlgo::RecursiveDoubling;
    m
}

fn config(j_list: Vec<usize>, seed: u64) -> ParallelConfig {
    ParallelConfig {
        search: SearchConfig::quick(j_list, seed),
        strategy: Strategy::Full { exchange: Exchange::Fused },
        ..ParallelConfig::default()
    }
}

/// Which time axis a run's phase buckets were booked on.
#[derive(Clone, Copy, Debug)]
enum Axis {
    Virtual,
    Wall,
}

/// Every rank's phase buckets partition its elapsed time (to rounding on
/// the virtual clock, and as the report's native gate allows on the wall
/// clock), and every rank named in `cycling` books the EM cycle's own
/// phases, as a world rank does.
fn assert_cycle_phases(what: &str, out: &ParallelOutcome, axis: Axis, cycling: &[usize]) {
    for r in &out.ranks {
        let gap = (r.phases_total() - r.elapsed).abs();
        let tol = match axis {
            Axis::Virtual => 1e-9 * r.elapsed.max(1.0),
            Axis::Wall => 1e-6 * r.elapsed.max(1e-12),
        };
        assert!(gap <= tol, "{what} ({axis:?}): rank {}'s phases miss elapsed by {gap}", r.rank);
    }
    for &rank in cycling {
        for name in ["estep", "mstep", "allreduce"] {
            let t = out.ranks[rank].phase(name).map_or(0.0, |ph| ph.total());
            assert!(t > 0.0, "{what} ({axis:?}): rank {rank} books no {name:?} time");
        }
    }
}

/// Score and parameter bits of every retained classification — the
/// strictest "same result" comparison.
fn all_bits(all: &[Classification]) -> Vec<(u64, Vec<u64>)> {
    all.iter()
        .map(|c| {
            (c.score().to_bits(), classes_to_flat(&c.classes).iter().map(|v| v.to_bits()).collect())
        })
        .collect()
}

#[test]
fn fleet_of_two_selects_the_serial_best_bit_for_bit() {
    let data = datagen::paper_dataset(360, 11);
    let cfg = config(vec![3, 5], 7);
    // Serial reference: the whole search on a machine of one fleet's size.
    let serial = run_search_with(&data, &rd_machine(4), &cfg, &SimOptions::default()).unwrap();
    // Fleet run: twice the ranks, two concurrent sub-searches of four.
    let fc = FleetConfig { groups: 2, ..FleetConfig::default() };
    let out = run_search_fleet(&data, &rd_machine(8), &cfg, &fc).unwrap();
    assert_eq!(out.fleet.groups, 2);
    assert_eq!(out.fleet.candidates, 2, "one candidate per J value");
    assert_eq!(out.fleet.dedup_hits, 0, "abandonment is off by default");
    assert_eq!(
        out.outcome.best.approx.log_likelihood.to_bits(),
        serial.best.approx.log_likelihood.to_bits(),
        "the consensus winner's log likelihood must match the serial search exactly"
    );
    assert_eq!(all_bits(&out.outcome.all), all_bits(&serial.all));
    assert_eq!(out.outcome.cycles, serial.cycles);
    assert_eq!(out.outcome.best.seed, serial.best.seed);
    assert_eq!(out.outcome.best.converged, serial.best.converged);
}

#[test]
fn single_fleet_degenerates_to_the_serial_search() {
    let data = datagen::paper_dataset(300, 3);
    let cfg = config(vec![2, 4], 5);
    let serial = run_search_with(&data, &rd_machine(4), &cfg, &SimOptions::default()).unwrap();
    let fc = FleetConfig { groups: 1, ..FleetConfig::default() };
    let out = run_search_fleet(&data, &rd_machine(4), &cfg, &fc).unwrap();
    assert_eq!(out.fleet.groups, 1);
    assert_eq!(out.fleet.steals, 0);
    assert_eq!(all_bits(&out.outcome.all), all_bits(&serial.all));
    assert_eq!(out.outcome.cycles, serial.cycles);
}

#[test]
fn fleet_search_matches_across_backends() {
    // Every fleet rank runs the world's cycle and books its phases, on
    // either clock, one fleet or two.
    let data = datagen::paper_dataset(240, 9);
    let cfg = config(vec![2, 3], 13);
    let m = rd_machine(4);
    for groups in [1, 2] {
        let what = format!("G = {groups}");
        let fc = FleetConfig { groups, ..FleetConfig::default() };
        let sim = run_search_fleet_with(&data, &m, &cfg, &fc, &SimOptions::default()).unwrap();
        let native =
            run_search_fleet_native(&data, &m, &cfg, &fc, &NativeOptions::default()).unwrap();
        assert_eq!(all_bits(&native.outcome.all), all_bits(&sim.outcome.all), "{what}");
        assert_eq!(sim.fleet.rounds, native.fleet.rounds, "{what}");
        assert_eq!(sim.outcome.cycles, native.outcome.cycles, "{what}");
        assert_cycle_phases(&what, &sim.outcome, Axis::Virtual, &[0, 1, 2, 3]);
        assert_cycle_phases(&what, &native.outcome, Axis::Wall, &[0, 1, 2, 3]);
    }
}

#[test]
fn overlapping_schedules_are_abandoned_as_duplicates() {
    // Four restarts of the same J on well-separated data: the tries land
    // in the same basin, so once one fleet converges, the other's
    // running twin must match its fingerprint and be cut short.
    let data = datagen::paper_dataset(300, 21);
    let cfg = ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![3],
            tries_per_j: 4,
            max_cycles: 60,
            rel_delta_ll: 1e-6,
            min_class_weight: 1.0,
            seed: 17,
            max_stored: 10,
        },
        strategy: Strategy::Full { exchange: Exchange::Fused },
        ..ParallelConfig::default()
    };
    let fc = FleetConfig {
        groups: 2,
        round_cycles: 3,
        dedup_every: 1,
        consensus: Consensus::GlobalBest,
    };
    let out = run_search_fleet(&data, &rd_machine(4), &cfg, &fc).unwrap();
    assert_eq!(out.fleet.candidates, 4, "every candidate must be accounted for");
    assert!(
        out.fleet.dedup_hits > 0,
        "restarts of the same J must trip the duplicate filter, stats: {:?}",
        out.fleet
    );
    assert!(out.fleet.dedup_saved_cycles > 0, "an abandoned candidate saves its cycle budget");
    assert!(out.outcome.best.n_classes() >= 2);
}

#[test]
fn an_idle_fleet_steals_queued_candidates() {
    // Three candidates over two fleets: fleet 0 owns two, fleet 1 owns
    // one. With single-cycle rounds fleet 1 goes idle while fleet 0's
    // queue still holds its second candidate — it must be stolen, and
    // the result must still match the serial chain bit for bit.
    let data = datagen::paper_dataset(300, 5);
    let cfg = config(vec![2, 3, 4], 19);
    let serial = run_search_with(&data, &rd_machine(2), &cfg, &SimOptions::default()).unwrap();
    let fc = FleetConfig { groups: 2, round_cycles: 1, ..FleetConfig::default() };
    let out = run_search_fleet(&data, &rd_machine(4), &cfg, &fc).unwrap();
    assert_eq!(out.fleet.candidates, 3);
    assert!(
        out.fleet.steals > 0,
        "fleet 1 must steal the queued candidate, stats: {:?}",
        out.fleet
    );
    assert_eq!(all_bits(&out.outcome.all), all_bits(&serial.all));
}

#[test]
fn ensemble_consensus_votes_out_a_replicated_labeling() {
    let data = datagen::paper_dataset(240, 31);
    let cfg = config(vec![2, 3, 4], 23);
    let fc = FleetConfig {
        groups: 2,
        consensus: Consensus::Ensemble { voters: 3 },
        ..FleetConfig::default()
    };
    let m = rd_machine(4);
    let sim = run_search_fleet(&data, &m, &cfg, &fc).unwrap();
    let ens = sim.fleet.ensemble.clone().expect("ensemble stage must run");
    assert!(ens.voters >= 2, "at least two models must vote");
    assert!(
        ens.agreement > 1.0 / ens.voters as f64 - 1e-12 && ens.agreement <= 1.0,
        "agreement must be a mean vote fraction, got {}",
        ens.agreement
    );
    // The vote is part of the deterministic contract: the native backend
    // produces the identical summary, down to the labeling hash.
    let native = run_search_fleet_native(&data, &m, &cfg, &fc, &NativeOptions::default()).unwrap();
    assert_eq!(native.fleet.ensemble, Some(ens));
}

// ---- The control plane: message-free splits, leaders-only exchange -----

/// Messages sent in `phase`, summed over ranks.
fn phase_msgs(out: &ParallelOutcome, phase: &str) -> u64 {
    out.ranks.iter().filter_map(|r| r.phase(phase)).map(|ph| ph.msgs_sent).sum()
}

#[test]
fn a_single_fleet_costs_the_serial_search_within_5_percent() {
    // G = 1: the splits, the round exchange and the consensus move no
    // message, so the fleet search costs the serial search's virtual time
    // within 5% at every P.
    let data = datagen::paper_dataset(480, 5);
    let cfg = config(vec![2, 3, 4], 29);
    let opts = SimOptions::default();
    for p in [8, 64] {
        let m = rd_machine(p);
        let serial = run_search_with(&data, &m, &cfg, &opts).unwrap();
        let fc = FleetConfig { groups: 1, round_cycles: 2, ..FleetConfig::default() };
        let out = run_search_fleet_with(&data, &m, &cfg, &fc, &opts).unwrap();
        assert_eq!(all_bits(&out.outcome.all), all_bits(&serial.all), "P = {p}");
        assert!(out.fleet.rounds > 3, "several rounds must run: {:?}", out.fleet);
        assert_eq!(phase_msgs(&out.outcome, "dedup"), 0, "P = {p}");
        assert_eq!(phase_msgs(&out.outcome, "consensus"), 0, "P = {p}");
        assert!(
            out.outcome.elapsed <= 1.05 * serial.elapsed,
            "P = {p}: G = 1 took {} virtual s, the serial search {}",
            out.outcome.elapsed,
            serial.elapsed
        );
    }
}

#[test]
fn the_exchange_runs_over_the_leaders_and_down_each_fleet() {
    // P = 16, G = 4: each round, recursive doubling among the four leaders
    // (4 × log2 4 messages) and a binomial broadcast down each fleet of
    // four (3 messages per fleet); the consensus gather reaches rank 0
    // from the three other leaders only, not from all fifteen ranks. Every
    // verifier runs, so each message-free split's color table and each
    // group collective is cross-checked too.
    let data = datagen::paper_dataset(480, 5);
    let cfg = config(vec![2, 3, 4, 5], 29);
    let fc = FleetConfig { groups: 4, round_cycles: 2, ..FleetConfig::default() };
    let out =
        run_search_fleet_with(&data, &rd_machine(16), &cfg, &fc, &SimOptions::verified()).unwrap();
    let rounds = out.fleet.rounds as u64;
    assert!(rounds > 1, "{:?}", out.fleet);
    assert_eq!(phase_msgs(&out.outcome, "dedup"), rounds * (4 * 2 + 4 * 3));
    let root = out.outcome.ranks[0].phase("consensus").expect("rank 0 ran the consensus");
    assert_eq!(root.msgs_recvd, 3);
}

// ---- Fault tolerance: one test per recovery policy at G = 2 ------------

fn ft(policy: RecoveryPolicy) -> FtConfig {
    FtConfig { checkpoint_every: 2, policy, max_restarts: 1, ..FtConfig::default() }
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

#[test]
fn fleet_crash_restart_recovers_bit_identically() {
    let data = datagen::paper_dataset(240, 7);
    let m = rd_machine(4);
    let cfg = config(vec![2, 3], 11);
    let fc = FleetConfig { groups: 2, ..FleetConfig::default() };
    let ftc = ft(RecoveryPolicy::RestartFromCheckpoint);
    let baseline = run_search_fleet_ft(&data, &m, &cfg, &fc, &ftc, &SimOptions::default()).unwrap();
    assert_eq!(baseline.attempts, 1);

    let out = run_search_fleet_ft(&data, &m, &cfg, &fc, &ftc, &opts_with(crash(1, 14))).unwrap();
    assert_eq!(out.attempts, 2, "one failed run plus the recovery");
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
        all_bits(&out.outcome.outcome.all),
        all_bits(&baseline.outcome.outcome.all),
        "round-granular restart must be bit-identical"
    );
    assert_eq!(out.outcome.outcome.cycles, baseline.outcome.outcome.cycles);
    assert_eq!(out.outcome.fleet.candidates, baseline.outcome.fleet.candidates);
}

#[test]
fn fleet_abort_policy_surfaces_the_typed_culprit() {
    let data = datagen::paper_dataset(240, 7);
    let cfg = config(vec![2, 3], 11);
    let fc = FleetConfig { groups: 2, ..FleetConfig::default() };
    let err = run_search_fleet_ft(
        &data,
        &rd_machine(4),
        &cfg,
        &fc,
        &ft(RecoveryPolicy::Abort),
        &opts_with(crash(2, 14)),
    )
    .unwrap_err();
    match err {
        RunError::Sim(SimError::RankCrashed { rank, .. }) => assert_eq!(rank, 2),
        RunError::Sim(SimError::PeerFailed { peer, .. }) => assert_eq!(peer, 2),
        other => panic!("expected the crash diagnosis, got {other}"),
    }
}

#[test]
fn fleet_shrink_confines_the_damage_to_the_culprits_fleet() {
    // P = 6, G = 2: fleets {0,1,2} and {3,4,5}. Crashing rank 4 must
    // leave fleet 0 untouched and finish fleet 1 on its two survivors.
    let data = datagen::paper_dataset(240, 7);
    let cfg = config(vec![2, 3], 11);
    let fc = FleetConfig { groups: 2, ..FleetConfig::default() };
    let ftc = ft(RecoveryPolicy::ShrinkAndRedistribute);
    let out = run_search_fleet_ft(&data, &rd_machine(6), &cfg, &fc, &ftc, &opts_with(crash(4, 14)))
        .unwrap();
    assert_eq!(out.attempts, 2);
    assert!(out.shrunk);
    assert_eq!(out.survivors, 5, "P-1 ranks must finish the search");
    assert!(out.recovery_time > 0.0, "the shrink cost must land in the recovery bucket");
    assert_eq!(out.outcome.fleet.groups, 2, "both fleets must still run");
    assert_eq!(out.outcome.fleet.candidates, 2);
    assert!(out.outcome.outcome.best.n_classes() >= 2, "the degraded run still classifies");
    // The excluded rank leaves at the split, strictly before the
    // survivors finish.
    let excluded = &out.outcome.outcome.ranks[4];
    let max_elapsed = out.outcome.outcome.ranks.iter().map(|r| r.elapsed).fold(0.0, f64::max);
    assert!(excluded.elapsed < max_elapsed, "culprit must leave the computation");
}

#[test]
fn fleet_refuses_local_replay_instead_of_restarting() {
    // The fleet supervisor keeps no replay log: asked for a local replay,
    // as the policy or as the spare pool's fallback, it must say so up
    // front rather than recover by a silent full restart.
    let data = datagen::paper_dataset(240, 7);
    let cfg = config(vec![2, 3], 11);
    let fc = FleetConfig { groups: 2, ..FleetConfig::default() };
    let mut promote = ft(RecoveryPolicy::PromoteSpare);
    promote.standby.fallback = RecoveryPolicy::LocalReplay;
    for ftc in [ft(RecoveryPolicy::LocalReplay), promote] {
        let err =
            run_search_fleet_ft(&data, &rd_machine(4), &cfg, &fc, &ftc, &opts_with(crash(1, 14)))
                .unwrap_err();
        assert!(
            matches!(err, RunError::Comm(mpsim::CommError::Unsupported { .. })),
            "{:?}: expected a typed refusal, got {err}",
            ftc.policy
        );
    }
}

#[test]
fn a_shrink_below_the_fleet_count_keeps_every_candidate() {
    // P = 2, G = 2: the shrink leaves one survivor, so the search resumes
    // with one fleet, which must take over the other fleet's queue and
    // retained candidates from the round image.
    let data = datagen::paper_dataset(240, 7);
    let cfg = config(vec![2, 3], 11);
    let fc = FleetConfig { groups: 2, round_cycles: 2, ..FleetConfig::default() };
    let ftc = FtConfig { checkpoint_every: 1, ..ft(RecoveryPolicy::ShrinkAndRedistribute) };
    let m = rd_machine(2);
    let baseline = run_search_fleet_ft(&data, &m, &cfg, &fc, &ftc, &SimOptions::default()).unwrap();
    let want = (baseline.outcome.fleet.candidates, baseline.outcome.outcome.all.len());
    assert_eq!(want.0, 2, "one candidate per J value");
    for seq in [5, 20] {
        let out =
            run_search_fleet_ft(&data, &m, &cfg, &fc, &ftc, &opts_with(crash(1, seq))).unwrap();
        assert!(out.shrunk && out.survivors == 1, "crash at send {seq}: {out:?}");
        assert_eq!(out.outcome.fleet.groups, 1, "crash at send {seq}");
        let got = (out.outcome.fleet.candidates, out.outcome.outcome.all.len());
        assert_eq!(got, want, "crash at send {seq}: candidates and retained count");
    }
}

/// The fault-free run and the run with rank 2 crashed at its 45th send,
/// which fires after the first round image is stored (G = 2, eight-cycle
/// rounds, an image every two rounds).
fn crash_after_a_round_image(
    policy: RecoveryPolicy,
    shard_fault: Option<ShardFault>,
) -> (pautoclass::FleetFtOutcome, pautoclass::FleetFtOutcome) {
    let data = datagen::paper_dataset(240, 7);
    let cfg = config(vec![2, 3], 11);
    let fc = FleetConfig { groups: 2, round_cycles: 8, ..FleetConfig::default() };
    let mut ftc = ft(policy);
    ftc.standby.shard_fault = shard_fault;
    let m = rd_machine(4);
    let baseline = run_search_fleet_ft(&data, &m, &cfg, &fc, &ftc, &SimOptions::default()).unwrap();
    assert_eq!((baseline.attempts, baseline.recovery_time), (1, 0.0));
    let out = run_search_fleet_ft(&data, &m, &cfg, &fc, &ftc, &opts_with(crash(2, 45))).unwrap();
    assert_eq!(out.attempts, 2);
    assert_eq!(
        all_bits(&out.outcome.outcome.all),
        all_bits(&baseline.outcome.outcome.all),
        "recovery must keep the fault-free bits"
    );
    (baseline, out)
}

#[test]
fn fleet_restart_from_a_round_image_charges_the_reload() {
    let (_, out) = crash_after_a_round_image(RecoveryPolicy::RestartFromCheckpoint, None);
    assert!(!out.fell_back);
    // Every rank reloads the image under "recovery", as on the world.
    assert!(out.recovery_time > 0.0, "the restart charged nothing");
}

#[test]
fn fleet_promotion_from_a_round_image_charges_the_shard_load() {
    let (_, out) = crash_after_a_round_image(RecoveryPolicy::PromoteSpare, None);
    assert_eq!((out.promotions, out.fell_back), (1, false));
    // The spare loads the culprit's shard and handshakes, as on the world.
    assert!(out.recovery_time > 0.0, "the promotion charged nothing");
}

#[test]
fn fleet_promotion_on_a_corrupt_shard_falls_back_to_a_restart() {
    let corrupt = ShardFault { logical_rank: 2, byte: 7, mask: 0x40 };
    let (_, out) = crash_after_a_round_image(RecoveryPolicy::PromoteSpare, Some(corrupt));
    assert_eq!((out.promotions, out.fell_back), (0, true));
    assert!(
        matches!(out.faults.get(1), Some(SimError::PayloadCorrupt { from: 2, .. })),
        "the corrupt shard must name its owner: {:?}",
        out.faults
    );
}
