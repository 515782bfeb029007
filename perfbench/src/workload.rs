//! The four workloads: their inputs, the library calls (ops) one pass
//! makes, and the checks every op's result must pass.
//!
//! Each workload is a closed loop with one client: a pass runs its ops
//! back to back, and passes repeat until the run's time is up. Every
//! simulated op uses the cooperative engine, which runs one rank thread
//! at a time; the native op runs two ranks on real threads.

use autoclass::data::Dataset;
use autoclass::search::SearchConfig;
use mpsim::{
    presets, AllreduceAlgo, Engine, FaultAction, FaultPlan, FaultSpec, FaultTrigger, MachineSpec,
    SimOptions,
};
use pautoclass::{
    run_search_fleet_with, run_search_ft, run_search_native, run_search_with, Exchange,
    FleetConfig, FleetStats, FtConfig, NativeOptions, ParallelConfig, ParallelOutcome,
    RecoveryPolicy, Strategy,
};

use crate::affinity;
use crate::measure::Tracer;

/// Ranks of the native op: the core count of the machine the benchmark
/// was sized on.
pub const NATIVE_P: usize = 2;

/// The rank the recovery workload crashes. Not rank 0, which publishes
/// the checkpoints.
const CULPRIT: usize = 5;

/// One library call of a pass.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `run_search_with` on the workload's machine.
    Search,
    /// `run_search_native` at [`NATIVE_P`] ranks.
    Native,
    /// `run_search_fleet_with` with this many fleets.
    Fleet(usize),
    /// `run_search_ft` without a fault.
    Ft,
    /// `run_search_ft` with one crash of [`CULPRIT`] halfway through its
    /// sends, recovered under this policy.
    FtCrash(RecoveryPolicy),
}

impl Op {
    pub fn is_native(self) -> bool {
        matches!(self, Op::Native)
    }

    /// The library function the op calls, used as its span name.
    fn function(self) -> &'static str {
        match self {
            Op::Search => "pautoclass::run_search_with",
            Op::Native => "pautoclass::run_search_native",
            Op::Fleet(_) => "pautoclass::run_search_fleet_with",
            Op::Ft | Op::FtCrash(_) => "pautoclass::run_search_ft",
        }
    }
}

/// A workload: inputs, machine and the ops of one pass.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Items in the dataset (`datagen::paper_dataset(n, seed)`).
    pub n: usize,
    /// Ranks of the simulated machine.
    pub p: usize,
    shape: fn(usize) -> MachineSpec,
    spares: usize,
    pub config: ParallelConfig,
    pub ops: Vec<(&'static str, Op)>,
    checkpoint_every: usize,
}

fn search(j: &[usize], tries: usize, cycles: usize) -> ParallelConfig {
    ParallelConfig {
        search: SearchConfig {
            start_j_list: j.to_vec(),
            tries_per_j: tries,
            max_cycles: cycles,
            // A fixed number of cycles and no class death: the work of an
            // op does not depend on the data seed, so runs on different
            // seeds time the same work.
            rel_delta_ll: 0.0,
            min_class_weight: 0.0,
            seed: 0xF16,
            max_stored: j.len() * tries,
        },
        strategy: Strategy::Full { exchange: Exchange::Fused },
        ..ParallelConfig::default()
    }
}

/// The CS-2 with recursive-doubling allreduce: the pairing under which a
/// fleet's numbers equal a serial search at the fleet's size.
fn rd_meiko(p: usize) -> MachineSpec {
    MachineSpec { allreduce: AllreduceAlgo::RecursiveDoubling, ..presets::meiko_cs2(p) }
}

fn hier(p: usize) -> MachineSpec {
    presets::hier_cluster(p, 8)
}

impl Workload {
    /// The named workload; `smoke` shrinks it to a size that runs in a
    /// fraction of a second for tests.
    pub fn new(name: &str, smoke: bool) -> Option<Self> {
        let s = |full: usize, small: usize| if smoke { small } else { full };
        // The native ops open a pass, right after the run times their
        // yardstick. A short native search repeats, so that a pass holds
        // about 50 ms of native work rather than a few milliseconds of
        // scheduling jitter.
        let ops = |native: usize, sim: &[(&'static str, Op)]| {
            let mut ops = vec![("native", Op::Native); s(native, 1)];
            ops.extend_from_slice(sim);
            ops
        };
        let w = match name {
            // The paper's experiment (Figs. 6-7): kernels dominate. The
            // per-rank weight matrix at J = 24 is about 1.4 MB on the
            // P = 8 simulated machine and 5.8 MB per native rank, on both
            // sides of a 4 MiB L2.
            "paper-p8" => Workload {
                name: "paper-p8",
                n: s(60_000, 2_000),
                p: 8,
                shape: presets::meiko_cs2,
                spares: 0,
                config: search(if smoke { &[2, 4] } else { &[2, 4, 8, 16, 24] }, 1, s(10, 3)),
                ops: ops(1, &[("sim", Op::Search)]),
                checkpoint_every: 0,
            },
            // 16 items per rank: the kernels barely run, the allreduce is
            // nearly all of virtual time, and the simulator's own per-rank
            // cost is most of host time. Engine and collective changes
            // show here.
            "largep-p1024" => Workload {
                name: "largep-p1024",
                n: s(16_384, 1_024),
                p: s(1024, 64),
                shape: hier,
                spares: 0,
                config: search(if smoke { &[2, 4] } else { &[2, 4, 8] }, 1, s(5, 2)),
                ops: ops(4, &[("sim", Op::Search)]),
                checkpoint_every: 0,
            },
            // Collectives over split sub-communicators and the fleet
            // control plane, which costs most at large P and G = 1.
            "fleet-p256" => Workload {
                name: "fleet-p256",
                n: s(1_536, 512),
                p: s(256, 32),
                shape: rd_meiko,
                spares: 0,
                config: search(&[2, 3, 4, 5], 2, s(5, 2)),
                ops: ops(16, &[("fleet-g1", Op::Fleet(1)), ("fleet-g8", Op::Fleet(8))]),
                checkpoint_every: 0,
            },
            // Checkpoint writes on top of the search, and the three
            // recovery paths after one crash.
            "recovery-p64" => Workload {
                name: "recovery-p64",
                n: s(32_768, 2_048),
                p: s(64, 8),
                shape: presets::meiko_cs2,
                spares: 1,
                config: search(if smoke { &[2, 4] } else { &[4, 8, 16] }, 1, s(8, 4)),
                ops: ops(
                    1,
                    &[
                        ("plain", Op::Search),
                        ("ft", Op::Ft),
                        ("ft-restart", Op::FtCrash(RecoveryPolicy::RestartFromCheckpoint)),
                        ("ft-promote", Op::FtCrash(RecoveryPolicy::PromoteSpare)),
                        ("ft-replay", Op::FtCrash(RecoveryPolicy::LocalReplay)),
                    ],
                ),
                checkpoint_every: 2,
            },
            _ => return None,
        };
        Some(w)
    }

    /// The workload's machine at `p` ranks (its spares only at its own P).
    pub fn machine(&self, p: usize) -> MachineSpec {
        let m = (self.shape)(p);
        if p == self.p {
            m.with_spares(self.spares)
        } else {
            m
        }
    }

    pub fn candidates(&self) -> usize {
        self.config.search.start_j_list.len() * self.config.search.tries_per_j
    }

    fn ft_config(&self, policy: RecoveryPolicy) -> FtConfig {
        FtConfig { checkpoint_every: self.checkpoint_every, policy, ..FtConfig::default() }
    }

    /// Run one pass: every op once, in order, each inside a span.
    /// `next_op` numbers the op executions of the whole run.
    pub fn pass(&self, data: &Dataset, tracer: &mut Tracer, next_op: &mut usize) -> Vec<OpOut> {
        let mut outs: Vec<OpOut> = Vec::with_capacity(self.ops.len());
        // The crash fires halfway through the culprit's sends in the
        // fault-free checkpointed run, well after the first checkpoint.
        let mut crash_at = 0u64;
        for &(label, op) in &self.ops {
            let id = *next_op;
            *next_op += 1;
            let (result, host_s) =
                tracer.span(op.function(), id, |_| self.exec(op, data, crash_at));
            if let (Op::Ft, Ok(ft)) = (op, &result) {
                crash_at = ft.out.ranks.get(CULPRIT).map_or(0, |r| r.msgs_sent / 2);
            }
            outs.push(OpOut { label, op, host_s, result });
        }
        outs
    }

    fn exec(&self, op: Op, data: &Dataset, crash_at: u64) -> Result<Done, String> {
        let coop = SimOptions { engine: Engine::Cooperative, ..SimOptions::default() };
        let machine = self.machine(self.p);
        let done = |out: ParallelOutcome| Done { out, fleet: None, ft: None };
        match op {
            Op::Search => run_search_with(data, &machine, &self.config, &coop).map(done),
            Op::Native => affinity::unpinned(|| {
                run_search_native(
                    data,
                    &self.machine(NATIVE_P),
                    &self.config,
                    &NativeOptions::default(),
                )
            })
            .map(done),
            Op::Fleet(groups) => {
                let fc = FleetConfig { groups, ..FleetConfig::default() };
                run_search_fleet_with(data, &machine, &self.config, &fc, &coop).map(|f| Done {
                    out: f.outcome,
                    fleet: Some(f.fleet),
                    ft: None,
                })
            }
            Op::Ft | Op::FtCrash(_) => {
                let (policy, opts) = match op {
                    Op::FtCrash(policy) => {
                        if crash_at == 0 {
                            return Err("no fault-free checkpointed run to place the crash".into());
                        }
                        let plan = FaultPlan::new(vec![FaultSpec {
                            rank: CULPRIT,
                            action: FaultAction::Crash,
                            trigger: FaultTrigger::AtSendSeq(crash_at),
                        }]);
                        (policy, SimOptions { fault: Some(plan), ..coop })
                    }
                    _ => (RecoveryPolicy::RestartFromCheckpoint, coop),
                };
                run_search_ft(data, &machine, &self.config, &self.ft_config(policy), &opts).map(
                    |f| {
                        let ft = FtRecord {
                            attempts: f.attempts,
                            recovery_time: f.recovery_time,
                            promotions: f.promotions,
                            replays: f.replays,
                            fell_back: f.fell_back,
                        };
                        Done { out: f.outcome, fleet: None, ft: Some(ft) }
                    },
                )
            }
        }
        .map_err(|e| format!("{}: {e}", op.function()))
    }

    /// Results every pass is checked against, computed once per run.
    pub fn references(&self, data: &Dataset) -> Result<Refs, String> {
        let coop = SimOptions { engine: Engine::Cooperative, ..SimOptions::default() };
        let serial = |p: usize| {
            run_search_with(data, &self.machine(p), &self.config, &coop)
                .map(|o| Fingerprint::of(&o, true))
                .map_err(|e| format!("reference search at P={p}: {e}"))
        };
        let has_fleet = self.ops.iter().any(|(_, op)| matches!(op, Op::Fleet(_)));
        Ok(Refs {
            sim_at_native_p: serial(NATIVE_P)?,
            serial: if has_fleet { Some(serial(self.p)?) } else { None },
            serial_g8: if has_fleet { Some(serial(self.p / 8)?) } else { None },
        })
    }

    /// Check one pass. Returns the failures as (op index, message).
    pub fn check(&self, pass: &[Record], first: &[Record], refs: &Refs) -> Vec<(usize, String)> {
        let mut bad = Vec::new();
        let ft_model = pass.iter().find(|r| matches!(r.op, Op::Ft)).and_then(|r| r.fp);
        for (i, rec) in pass.iter().enumerate() {
            let Some(fp) = rec.fp else {
                bad.push((i, format!("{}: {}", rec.label, rec.error.clone().unwrap_or_default())));
                continue;
            };
            let mut fail = |msg: String| bad.push((i, format!("{}: {msg}", rec.label)));
            // rerun = rerun: the same op on the same data repeats bit for
            // bit, virtual time included.
            if first.get(i).and_then(|f| f.fp) != Some(fp) {
                fail("differs from the first pass".into());
            }
            match rec.op {
                // simulator = native
                Op::Native if !fp.same_model(&refs.sim_at_native_p) => {
                    fail(format!("differs from the simulated search at P={NATIVE_P}"))
                }
                // A fleet's winner is the serial search's at the fleet's size.
                Op::Fleet(g) => {
                    let want = if g == 1 { refs.serial } else { refs.serial_g8 };
                    if !want.is_some_and(|w| fp.same_model(&w)) {
                        fail(format!("G={g} winner differs from the serial search"));
                    }
                }
                // Checkpoints change no numbers; recovery restores them.
                Op::Search | Op::FtCrash(_) if self.checkpoint_every > 0 => {
                    if !ft_model.is_some_and(|m| fp.same_model(&m)) {
                        fail("winner differs from the fault-free checkpointed run".into());
                    }
                    if let (Op::FtCrash(policy), Some(ft)) = (rec.op, rec.ft) {
                        let (promotions, replays) = match policy {
                            RecoveryPolicy::PromoteSpare => (1, 0),
                            RecoveryPolicy::LocalReplay => (0, 1),
                            _ => (0, 0),
                        };
                        if ft.attempts != 2
                            || ft.promotions != promotions
                            || ft.replays != replays
                            || ft.fell_back
                            || ft.recovery_time <= 0.0
                        {
                            fail(format!("unexpected recovery record {ft:?}"));
                        }
                    }
                }
                _ => {}
            }
        }
        bad
    }
}

/// What a successful op returned.
#[derive(Debug)]
pub struct Done {
    pub out: ParallelOutcome,
    pub fleet: Option<FleetStats>,
    pub ft: Option<FtRecord>,
}

/// The supervisor's recovery record of a fault-tolerant op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtRecord {
    pub attempts: usize,
    pub recovery_time: f64,
    pub promotions: usize,
    pub replays: usize,
    pub fell_back: bool,
}

/// One executed op with its host time.
#[derive(Debug)]
pub struct OpOut {
    pub label: &'static str,
    pub op: Op,
    pub host_s: f64,
    pub result: Result<Done, String>,
}

impl OpOut {
    /// The compact record kept for every pass.
    pub fn record(&self) -> Record {
        let ok = self.result.as_ref().ok();
        Record {
            label: self.label,
            op: self.op,
            fp: ok.map(|d| Fingerprint::of(&d.out, !self.op.is_native())),
            ft: ok.and_then(|d| d.ft),
            error: self.result.as_ref().err().cloned(),
        }
    }
}

/// What the checks need of one executed op.
#[derive(Debug, Clone)]
pub struct Record {
    pub label: &'static str,
    pub op: Op,
    pub fp: Option<Fingerprint>,
    pub ft: Option<FtRecord>,
    pub error: Option<String>,
}

/// The bits that identify a search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    ll: u64,
    score: u64,
    seed: u64,
    cycles: usize,
    /// Virtual elapsed time; `None` for a native run, whose elapsed time
    /// is wall time.
    elapsed: Option<u64>,
}

impl Fingerprint {
    fn of(out: &ParallelOutcome, simulated: bool) -> Self {
        Fingerprint {
            ll: out.best.approx.log_likelihood.to_bits(),
            score: out.best.score().to_bits(),
            seed: out.best.seed,
            cycles: out.cycles,
            elapsed: simulated.then(|| out.elapsed.to_bits()),
        }
    }

    /// The same winning model, whatever the clock.
    fn same_model(&self, other: &Fingerprint) -> bool {
        (self.ll, self.score, self.seed, self.cycles)
            == (other.ll, other.score, other.seed, other.cycles)
    }
}

/// Reference results of a run.
#[derive(Debug, Clone)]
pub struct Refs {
    /// The search simulated at the native op's rank count.
    sim_at_native_p: Fingerprint,
    /// The serial search at the fleet workload's P and at P/8.
    serial: Option<Fingerprint>,
    serial_g8: Option<Fingerprint>,
}

impl Refs {
    /// Searches run to compute these references.
    pub fn runs(&self) -> usize {
        1 + usize::from(self.serial.is_some()) + usize::from(self.serial_g8.is_some())
    }

    /// Virtual seconds of the serial search the fleets are measured
    /// against, if the workload has fleets.
    pub fn serial_elapsed(&self) -> Option<f64> {
        self.serial.and_then(|f| f.elapsed).map(f64::from_bits)
    }
}
