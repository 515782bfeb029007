//! Golden hashes of whole searches: every search entry point (plain,
//! fault-tolerant under each recovery policy, fleet, fault-tolerant
//! fleet) on fixed inputs, reduced to one FNV-1a hash of every bit that
//! must not move under a refactor of the search loop: each retained
//! classification's score and flat parameters, the cycle count, the
//! elapsed virtual time, the supervisor's recovery record, and (outside
//! the shrink scenarios) each rank's phase-bucket totals by name.
//!
//! The hashes were recorded before the search loop was written once for
//! every entry point. A changed hash is a behaviour change, not a test
//! to update. The one exception is a declared change of phase
//! attribution: `fleet` and `fleet_ft_restart` were re-recorded when
//! fleet ranks began to run the world's cycle and book its phases, and
//! their phase-free pins, recorded before that change, held.

use autoclass::model::classes_to_flat;
use autoclass::search::{Classification, SearchConfig};
use mpsim::{
    presets, AllreduceAlgo, FaultAction, FaultPlan, FaultSpec, FaultTrigger, MachineSpec,
    RankStats, SimOptions,
};
use pautoclass::{
    run_search_fleet, run_search_fleet_ft, run_search_ft, run_search_with, Exchange, FleetConfig,
    FtConfig, ParallelConfig, ParallelOutcome, RecoveryPolicy, Strategy,
};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }
    fn bytes(&mut self, s: &[u8]) {
        self.word(s.len() as u64);
        for &b in s {
            self.word(u64::from(b));
        }
    }
}

fn data() -> autoclass::data::Dataset {
    datagen::paper_dataset(240, 7)
}

fn machine() -> MachineSpec {
    presets::meiko_cs2(4)
}

fn config(exchange: Exchange) -> ParallelConfig {
    ParallelConfig {
        search: SearchConfig::quick(vec![2, 3], 11),
        strategy: Strategy::Full { exchange },
        ..ParallelConfig::default()
    }
}

fn ft(policy: RecoveryPolicy) -> FtConfig {
    FtConfig { checkpoint_every: 2, policy, max_restarts: 1, ..FtConfig::default() }
}

fn crash(rank: usize, seq: u64) -> SimOptions {
    SimOptions {
        fault: Some(FaultPlan::new(vec![FaultSpec {
            rank,
            action: FaultAction::Crash,
            trigger: FaultTrigger::AtSendSeq(seq),
        }])),
        ..SimOptions::default()
    }
}

fn classifications(h: &mut Fnv, all: &[Classification]) {
    h.word(all.len() as u64);
    for c in all {
        h.f(c.score());
        let flat = classes_to_flat(&c.classes);
        h.word(flat.len() as u64);
        for v in flat {
            h.f(v);
        }
    }
}

/// Each rank's phase totals, by name (sorted, so only the values count,
/// not the order in which the phases were first entered).
fn phases(h: &mut Fnv, ranks: &[RankStats]) {
    for r in ranks {
        let mut named: Vec<(&str, f64)> = r.phases.iter().map(|ph| (ph.name, ph.total())).collect();
        named.sort_by(|a, b| a.0.cmp(b.0));
        h.word(named.len() as u64);
        for (name, total) in named {
            h.bytes(name.as_bytes());
            h.f(total);
        }
    }
}

fn outcome(h: &mut Fnv, o: &ParallelOutcome, with_phases: bool) {
    classifications(h, &o.all);
    h.word(o.cycles as u64);
    h.f(o.elapsed);
    if with_phases {
        phases(h, &o.ranks);
    }
}

#[track_caller]
fn check(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: golden hash moved: got {got:#018x}, want {want:#018x}");
}

fn plain(exchange: Exchange) -> u64 {
    let out = run_search_with(&data(), &machine(), &config(exchange), &SimOptions::default())
        .expect("plain search");
    let mut h = Fnv::new();
    outcome(&mut h, &out, true);
    h.0
}

/// An FT run's hash; `expect` checks the run took the intended path, so a
/// golden value can't be recorded from a run that recovered some other
/// way.
fn ft_run(
    policy: RecoveryPolicy,
    opts: &SimOptions,
    expect: impl Fn(&pautoclass::FtOutcome),
) -> u64 {
    let out = run_search_ft(&data(), &machine(), &config(Exchange::Fused), &ft(policy), opts)
        .expect("fault-tolerant search");
    expect(&out);
    let mut h = Fnv::new();
    outcome(&mut h, &out.outcome, !out.shrunk);
    h.word(out.attempts as u64);
    h.word(out.promotions as u64);
    h.word(out.replays as u64);
    h.word(out.survivors as u64);
    h.word(u64::from(out.shrunk));
    h.f(out.recovery_time);
    h.0
}

fn fleet_machine() -> MachineSpec {
    let mut m = machine();
    m.allreduce = AllreduceAlgo::RecursiveDoubling;
    m
}

fn fleet_config() -> FleetConfig {
    FleetConfig { groups: 2, round_cycles: 3, ..FleetConfig::default() }
}

/// A fault-tolerant fleet run's hash, with the phase totals when
/// `with_phases` and the run did not shrink.
fn fleet_ft_run(
    policy: RecoveryPolicy,
    opts: &SimOptions,
    with_phases: bool,
    expect: impl Fn(&pautoclass::FleetFtOutcome),
) -> u64 {
    let out = run_search_fleet_ft(
        &data(),
        &fleet_machine(),
        &config(Exchange::Fused),
        &fleet_config(),
        &ft(policy),
        opts,
    )
    .expect("fault-tolerant fleet search");
    expect(&out);
    let mut h = Fnv::new();
    outcome(&mut h, &out.outcome.outcome, with_phases && !out.shrunk);
    h.word(out.attempts as u64);
    h.word(out.promotions as u64);
    h.word(out.survivors as u64);
    h.word(u64::from(out.shrunk));
    h.f(out.recovery_time);
    h.0
}

#[test]
fn plain_fused() {
    check("plain_fused", plain(Exchange::Fused), 0x246a_c5f5_7d8d_699c);
}

#[test]
fn plain_pipelined() {
    check("plain_pipelined", plain(Exchange::Pipelined), 0xca1c_e32a_945e_fce9);
}

#[test]
fn ft_no_fault() {
    let got = ft_run(RecoveryPolicy::RestartFromCheckpoint, &SimOptions::default(), |o| {
        assert_eq!(o.attempts, 1);
    });
    check("ft_no_fault", got, 0xaccc_880d_79f2_3533);
}

#[test]
fn ft_restart() {
    let got = ft_run(RecoveryPolicy::RestartFromCheckpoint, &crash(1, 30), |o| {
        assert_eq!((o.attempts, o.promotions, o.replays, o.shrunk), (2, 0, 0, false));
        assert!(o.recovery_time > 0.0, "restart from a checkpoint");
    });
    check("ft_restart", got, 0xd709_d5a5_2b15_0119);
}

#[test]
fn ft_promote() {
    let got = ft_run(RecoveryPolicy::PromoteSpare, &crash(1, 30), |o| {
        assert_eq!((o.attempts, o.promotions, o.fell_back), (2, 1, false));
    });
    check("ft_promote", got, 0x2f8f_2cc5_c769_fea5);
}

#[test]
fn ft_local_replay() {
    let got = ft_run(RecoveryPolicy::LocalReplay, &crash(1, 30), |o| {
        assert_eq!((o.attempts, o.replays, o.fell_back), (2, 1, false));
    });
    check("ft_local_replay", got, 0x2c59_e1da_26c6_15a8);
}

#[test]
fn ft_shrink() {
    let got = ft_run(RecoveryPolicy::ShrinkAndRedistribute, &crash(1, 30), |o| {
        assert_eq!((o.attempts, o.survivors, o.shrunk), (2, 3, true));
    });
    check("ft_shrink", got, 0x5b24_7991_353f_b9a7);
}

fn fleet_run(with_phases: bool) -> u64 {
    let out =
        run_search_fleet(&data(), &fleet_machine(), &config(Exchange::Fused), &fleet_config())
            .expect("fleet search");
    assert_eq!(out.fleet.groups, 2);
    let mut h = Fnv::new();
    outcome(&mut h, &out.outcome, with_phases);
    h.0
}

#[test]
fn fleet() {
    check("fleet", fleet_run(true), 0xf882_c847_675f_f061);
}

/// The fleet's hash without its phase totals: results, cycles and
/// elapsed time only, which a change to phase attribution cannot move.
#[test]
fn fleet_phase_free() {
    check("fleet_phase_free", fleet_run(false), 0x7f1d_557b_d2a3_8637);
}

fn fleet_ft_restart_run(with_phases: bool) -> u64 {
    fleet_ft_run(RecoveryPolicy::RestartFromCheckpoint, &crash(1, 14), with_phases, |o| {
        assert_eq!((o.attempts, o.shrunk), (2, false));
    })
}

#[test]
fn fleet_ft_restart() {
    check("fleet_ft_restart", fleet_ft_restart_run(true), 0xd490_8423_0e5e_7aa0);
}

/// The restarted fleet's hash without its phase totals: results, cycles,
/// elapsed time and the recovery record.
#[test]
fn fleet_ft_restart_phase_free() {
    check("fleet_ft_restart_phase_free", fleet_ft_restart_run(false), 0x0c9a_fcbe_8ca0_61e0);
}

#[test]
fn fleet_ft_shrink() {
    let got = fleet_ft_run(RecoveryPolicy::ShrinkAndRedistribute, &crash(1, 14), true, |o| {
        assert_eq!((o.attempts, o.survivors, o.shrunk), (2, 3, true));
    });
    check("fleet_ft_shrink", got, 0x875b_6f71_0658_dc54);
}
