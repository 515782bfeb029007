//! Fault-tolerant search: checkpointing, failure handling, and the
//! recovery policies.
//!
//! One supervisor attempt loop (`supervise`) serves every fault-tolerant
//! entry point: [`run_search_ft`] and [`run_search_ft_native`] run the
//! world search on it, [`crate::run_search_fleet_ft`] the fleet search.
//! They differ only in the launcher, in how a native `CommError` yields
//! its simulated fault, and in the search (`Supervised`): its body on the
//! whole machine and on the survivors' group, and its checkpoint image.
//! Each attempt snapshots the search's (bitwise replicated) state every
//! `k` EM cycles — a [`SearchCheckpoint`] — or every `k` BSP rounds — the
//! fleet's round image — into one store, and resumes from the latest
//! image. When the engine dies with a recoverable fault — a crashed rank,
//! a dropped or corrupted message, a receive timeout (see
//! `mpsim::fault`) — the supervisor applies the configured
//! [`RecoveryPolicy`]:
//!
//! * [`RecoveryPolicy::Abort`] — return the typed error; the diagnosis
//!   (culprit rank, sequence number, fault kind) is the product.
//! * [`RecoveryPolicy::RestartFromCheckpoint`] — re-run on the full
//!   machine from the latest checkpoint. One-shot faults in a
//!   [`mpsim::FaultPlan`] stay spent across re-runs, and the EM search is
//!   deterministic, so the final classification is **bitwise identical**
//!   to an unfaulted run's.
//! * [`RecoveryPolicy::ShrinkAndRedistribute`] — exclude the culprit
//!   rank, rebuild a (P−1)-rank communicator with `Communicator::split`,
//!   repartition the data over the survivors, and resume from the
//!   checkpoint: the same search, on the survivors' group. The rebuild
//!   cost is measured under the `"recovery"` phase bucket and reported
//!   as [`FtOutcome::recovery_time`].
//! * [`RecoveryPolicy::PromoteSpare`] — promote a warm spare slot into
//!   the failed logical rank through the machine's member table
//!   (`MachineSpec::promote`), taking the culprit's own fleet's spare
//!   first (`spare_for`; the world is one fleet): `P` is preserved, every
//!   collective schedule is unchanged, and the result stays bitwise
//!   identical. Only
//!   the promoted rank loads the culprit's checkpoint *shard*
//!   (`checkpoint::to_shards`); a corrupt shard surfaces as
//!   [`SimError::PayloadCorrupt`] naming the shard's owner and the
//!   supervisor falls back to a full restart from the intact image. An
//!   exhausted spare pool falls back — deterministically — to
//!   [`crate::StandbyConfig::fallback`].
//! * [`RecoveryPolicy::LocalReplay`] — restart only the culprit from its
//!   shard and replay its in-flight delivery log ([`mpsim::ReplayLog`])
//!   locally; the survivors stall just to the replay horizon. Its
//!   recovery virtual time is strictly below a full restart's (see
//!   `BASE_LOCAL_OPS`). When the bounded ring evicted entries since the
//!   last checkpoint the log no longer covers the gap, and the supervisor
//!   falls back like an exhausted spare pool. Simulated backends only:
//!   [`run_search_ft_native`] refuses it with a typed
//!   `CommError::Unsupported`.

use std::sync::Mutex;

use autoclass::data::{block_partition, Dataset};
use mpsim::{
    run_spmd, CommError, Communicator, DecodeError, Group, MachineSpec, RankStats, ReplayLog,
    RunStats, SimError, SimOptions, SpmdComm, RECOVERY_PHASE,
};
use shmcomm::{run_native, NativeOptions};

use crate::checkpoint::{
    corrupt_shard, decode_shard, to_shards, CheckpointError, SearchCheckpoint,
};
use crate::config::{FtConfig, ParallelConfig, RecoveryPolicy, ShardFault};
use crate::error::RunError;
use crate::run::{CheckpointStore, ParallelOutcome, WorldSearch};

/// Result of a fault-tolerant search: the search's own outcome
/// ([`ParallelOutcome`] for [`run_search_ft`], [`crate::FleetOutcome`]
/// for [`crate::run_search_fleet_ft`]) with the supervisor's recovery
/// record.
#[derive(Debug, Clone)]
pub struct FtOutcome<T = ParallelOutcome> {
    /// The search result (rank 0's — identical on every surviving rank).
    pub outcome: T,
    /// Engine runs launched, including the successful one (1 = no fault).
    pub attempts: usize,
    /// The typed fault each failed attempt died with, in order.
    pub faults: Vec<SimError>,
    /// Whether the final attempt ran on a shrunken communicator.
    pub shrunk: bool,
    /// Ranks that computed the final result (`P`, or `P − 1` after a
    /// shrink).
    pub survivors: usize,
    /// Virtual seconds spent rebuilding after faults (checkpoint reload,
    /// communicator shrink, shard load, replay, resynchronization): the
    /// maximum `"recovery"` phase-bucket total over ranks. Zero when no
    /// fault fired.
    pub recovery_time: f64,
    /// Spare slots promoted into failed logical ranks
    /// ([`RecoveryPolicy::PromoteSpare`]).
    pub promotions: usize,
    /// Faults recovered by replaying the culprit's delivery log locally
    /// ([`RecoveryPolicy::LocalReplay`]).
    pub replays: usize,
    /// Whether any recovery had to walk the fallback lattice (spare pool
    /// exhausted, replay ring evicted, or a corrupt checkpoint shard).
    pub fell_back: bool,
}

/// Structural cost, in abstract compute ops, of a full rollback: every
/// rank tears down, reloads the whole checkpoint image and rebuilds its
/// replicated state.
const BASE_RESTART_OPS: u64 = 512;
/// Structural cost of a localized restart (spare promotion or local
/// replay): only the culprit's slot rebuilds, and it loads a `1/P`
/// checkpoint shard instead of the whole image. Kept far below
/// [`BASE_RESTART_OPS`] so a local recovery stays strictly cheaper than a
/// rollback even for a tiny checkpoint with a full default replay ring:
/// `64 + 4 × 64 = 320 < 512`, and the shard load is a `1/P` fraction of
/// the full reload on top.
const BASE_LOCAL_OPS: u64 = 64;
/// Checkpoint (re)load cost per 8-byte word.
const CKPT_LOAD_OPS_PER_WORD: u64 = 8;
/// Cost of re-applying one logged envelope during a local replay.
const REPLAY_OPS_PER_ENTRY: u64 = 4;

/// How the next attempt recovers from the previous attempt's fault —
/// decided by the supervisor, charged by the rank body's prologue under
/// the `"recovery"` phase so [`FtOutcome::recovery_time`] compares
/// policies on the same axis.
#[derive(Debug, Clone, Copy)]
enum Recovery {
    /// First attempt, or a recovery whose cost is accounted elsewhere
    /// (the shrink body charges its own `"recovery"` span).
    None,
    /// Full rollback: every rank reloads the whole checkpoint image.
    Restart {
        /// Checkpoint image size in 8-byte words (0 = none taken yet).
        ck_words: u64,
    },
    /// A spare was promoted into the culprit's logical slot: only the
    /// promoted rank loads the culprit's shard, then announces itself;
    /// the survivors just handshake and resynchronize.
    Promote {
        /// Logical rank the spare was promoted into.
        culprit: usize,
        /// Checkpoint image size in 8-byte words.
        ck_words: u64,
    },
    /// The culprit restarts alone from its shard and replays its bounded
    /// delivery log; the survivors stall only to the replay horizon.
    Replay {
        /// The restarted logical rank.
        culprit: usize,
        /// Checkpoint image size in 8-byte words.
        ck_words: u64,
        /// Logged envelopes replayed (bounded by the ring capacity).
        entries: u64,
    },
}

/// Charge the decided recovery's virtual-time cost at the top of the
/// re-run, under the `"recovery"` phase. The collective pattern is the
/// mechanism's own: a rollback resynchronizes everyone after a full
/// reload; a promotion is a shard load on one slot plus a ready
/// handshake; a replay is culprit-local with the survivors stalled at the
/// barrier until the replay horizon catches up.
fn recovery_prologue<C: SpmdComm>(comm: &mut C, recovery: Recovery) {
    let p = comm.size().max(1) as u64;
    let shard_words = move |ck_words: u64| ck_words.div_ceil(p);
    match recovery {
        Recovery::None => {}
        Recovery::Restart { ck_words } => {
            comm.enter_phase(RECOVERY_PHASE);
            comm.work(BASE_RESTART_OPS + CKPT_LOAD_OPS_PER_WORD * ck_words);
            comm.barrier();
            comm.exit_phase();
        }
        Recovery::Promote { culprit, ck_words } => {
            comm.enter_phase(RECOVERY_PHASE);
            if comm.rank() == culprit {
                comm.work(BASE_LOCAL_OPS + CKPT_LOAD_OPS_PER_WORD * shard_words(ck_words));
            }
            // The promoted spare announces it holds the slot; one word of
            // payload is enough for the handshake.
            let mut ready = [culprit as f64];
            comm.broadcast_f64s(culprit, &mut ready);
            comm.barrier();
            comm.exit_phase();
        }
        Recovery::Replay { culprit, ck_words, entries } => {
            comm.enter_phase(RECOVERY_PHASE);
            if comm.rank() == culprit {
                comm.work(
                    BASE_LOCAL_OPS
                        + CKPT_LOAD_OPS_PER_WORD * shard_words(ck_words)
                        + REPLAY_OPS_PER_ENTRY * entries,
                );
            }
            comm.barrier();
            comm.exit_phase();
        }
    }
}

/// A search the supervisor runs: the world search ([`WorldSearch`]) or
/// the fleet search (`crate::fleet`). Each supplies only what differs:
/// its search on the whole machine and on the survivors' group after a
/// shrink, its image decoder, and its outcome. The attempt loop, the
/// store, the recovery prologue and the culprit's secession are written
/// once, in [`supervise`] and [`attempt_body`].
pub(crate) trait Supervised: Sync {
    /// The decoded checkpoint image an attempt resumes from.
    type Image: Sync;
    /// One rank's result.
    type Found: Send;
    /// The entry point's result.
    type Outcome;

    /// Decode the image the search published into the store.
    fn decode(bytes: &[u8]) -> Result<Self::Image, CheckpointError>;
    /// Groups the machine is split into, for [`spare_for`].
    fn groups(&self) -> usize {
        1
    }
    /// The search on the whole machine.
    fn on_world<C: Communicator>(
        &self,
        comm: &mut C,
        checkpoints: Option<(usize, &CheckpointStore)>,
        resume: Option<&Self::Image>,
    ) -> Self::Found;
    /// The search on the survivors' group, after one of `orig_p` ranks left.
    fn on_survivors<W: Communicator>(
        &self,
        sub: &mut Group<'_, W>,
        orig_p: usize,
        checkpoints: Option<(usize, &CheckpointStore)>,
        resume: Option<&Self::Image>,
    ) -> Self::Found;
    /// The entry point's outcome from one rank's result and the run's
    /// statistics.
    fn outcome(
        found: Self::Found,
        elapsed: f64,
        ranks: Vec<RankStats>,
        stats: RunStats,
    ) -> Result<Self::Outcome, RunError>;
}

/// Run the parallel search with checkpoint/restart supervision.
///
/// Behaves exactly like [`crate::run_search_with`] when no fault fires
/// (the checkpoints add virtual time but change no numbers). See the
/// module docs for what happens when one does.
///
/// # Errors
/// Non-recoverable engine errors (program bugs, verifier divergences),
/// recoverable faults under [`RecoveryPolicy::Abort`] or past
/// `max_restarts`, undecodable checkpoints, empty searches, and a
/// partitioning that fails [`crate::Partitioning::validate`].
pub fn run_search_ft(
    data: &Dataset,
    machine: &MachineSpec,
    config: &ParallelConfig,
    ft: &FtConfig,
    opts: &SimOptions,
) -> Result<FtOutcome, RunError> {
    config.partition.validate(machine.p)?;
    supervise_sim(&WorldSearch { data, config }, machine, ft, opts)
}

/// Supervise `search` on the simulated machine. Under
/// [`RecoveryPolicy::LocalReplay`] the run keeps a replay log (unless
/// `opts` already brings one).
pub(crate) fn supervise_sim<S: Supervised>(
    search: &S,
    machine: &MachineSpec,
    ft: &FtConfig,
    opts: &SimOptions,
) -> Result<FtOutcome<S::Outcome>, RunError> {
    let mut opts = opts.clone();
    if matches!(ft.policy, RecoveryPolicy::LocalReplay) && opts.replay.is_none() {
        opts.replay = Some(ReplayLog::new(ft.standby.replay_capacity));
    }
    let launch = |m: &MachineSpec, at: &Attempt<'_, S::Image>| {
        run_spmd(m, &opts, |comm| attempt_body(comm, search, ft, at))
            .map(|out| (out.per_rank, out.elapsed, out.ranks, out.stats))
    };
    supervise(search, machine, ft, opts.replay.as_ref(), launch, |e| Some(e))
}

/// [`run_search_ft`] on real cores: the same rank body and the same
/// supervisor, driven by `shmcomm::run_native` with wall-clock time.
/// Injected faults arrive as `CommError::Sim` (see
/// `shmcomm::NativeOptions::fault`), so the culprit diagnosis — and
/// therefore every recovery decision — is identical to the simulated
/// supervisor's; results stay bitwise identical across backends.
///
/// # Errors
/// [`RecoveryPolicy::LocalReplay`] is refused up front with a typed
/// `CommError::Unsupported` — the native backend keeps no in-flight
/// replay log. Native failure modes without a simulated culprit (a
/// panicked rank, a poisoned lock) propagate unrecovered, as do the
/// errors [`run_search_ft`] propagates.
pub fn run_search_ft_native(
    data: &Dataset,
    machine: &MachineSpec,
    config: &ParallelConfig,
    ft: &FtConfig,
    opts: &NativeOptions,
) -> Result<FtOutcome, RunError> {
    if matches!(ft.policy, RecoveryPolicy::LocalReplay) {
        return Err(RunError::Comm(CommError::Unsupported {
            what: "RecoveryPolicy::LocalReplay (no in-flight replay log)".into(),
            backend: "native",
        }));
    }
    config.partition.validate(machine.p)?;
    let search = WorldSearch { data, config };
    let launch = |m: &MachineSpec, at: &Attempt<'_, SearchCheckpoint>| {
        run_native(m, opts, |comm| attempt_body(comm, &search, ft, at))
            .map(|out| (out.per_rank, out.elapsed, out.ranks, out.stats))
    };
    // Only simulated-typed faults carry a culprit diagnosis; genuinely
    // native failures propagate unrecovered.
    supervise(&search, machine, ft, None, launch, |e| match e {
        CommError::Sim(sim) => Some(sim),
        _ => None,
    })
}

/// What one attempt of a supervised search starts from, as decided by the
/// supervisor after the previous attempt's fault.
struct Attempt<'a, I> {
    /// The rank a shrink excluded, if any.
    excluded: Option<usize>,
    /// The recovery toll the attempt's prologue charges.
    recovery: Recovery,
    /// The latest checkpoint, decoded.
    resume: Option<&'a I>,
    /// Where the attempt publishes its checkpoints.
    store: &'a CheckpointStore,
}

/// One finished attempt, whichever backend ran it: each rank's result,
/// the elapsed time, and the run's statistics.
type Launched<R> = (Vec<Option<R>>, f64, Vec<RankStats>, RunStats);

/// The supervisor's attempt loop, the only one: every search and backend
/// runs through it. `launch` runs one attempt on the (possibly promoted)
/// machine; `sim_error` yields the simulated fault a launch error
/// carries, if any, which the supervisor may recover from. `replay` is
/// the run's replay log, whose horizon restarts with every attempt.
fn supervise<S: Supervised, E: Into<RunError>>(
    search: &S,
    machine: &MachineSpec,
    ft: &FtConfig,
    replay: Option<&ReplayLog>,
    mut launch: impl FnMut(&MachineSpec, &Attempt<'_, S::Image>) -> Result<Launched<S::Found>, E>,
    sim_error: impl Fn(&E) -> Option<&SimError>,
) -> Result<FtOutcome<S::Outcome>, RunError> {
    let store: CheckpointStore = Mutex::new(None);
    let mut sup = Supervisor::new(machine, ft, search.groups());
    let mut attempts = 0usize;
    let mut recovery = Recovery::None;
    loop {
        attempts += 1;
        let resume = {
            // lint:allow(unwrap): mutex poisoning only follows another panic
            let guard = store.lock().expect("checkpoint store lock");
            match guard.as_deref() {
                Some(bytes) => Some(S::decode(bytes)?),
                None => None,
            }
        };
        if let Some(log) = replay {
            // Fresh horizon per attempt: the decided prologue has already
            // charged the previous attempt's replay.
            log.reset();
        }
        let at =
            Attempt { excluded: sup.excluded, recovery, resume: resume.as_ref(), store: &store };
        match launch(&sup.machine_now, &at) {
            Ok((per_rank, elapsed, ranks, stats)) => {
                let recovery_time = ranks
                    .iter()
                    .filter_map(|r| r.phase(RECOVERY_PHASE))
                    .map(|ph| ph.total())
                    .fold(0.0, f64::max);
                let Some(found) = per_rank.into_iter().flatten().next() else {
                    return Err(RunError::EmptySearch);
                };
                let outcome = S::outcome(found, elapsed, ranks, stats)?;
                return Ok(sup.finish(outcome, attempts, recovery_time));
            }
            Err(e) => match sim_error(&e).and_then(|sim| sup.plan(sim, &store, replay)) {
                Some(r) => recovery = r,
                None => return Err(e.into()),
            },
        }
    }
}

/// The rank body of one supervised attempt. On the full machine: the
/// decided recovery prologue, then the search. After a shrink: the
/// culprit secedes at a message-free split (booked as recovery) and the
/// survivors run the search on their group. Both publish checkpoints
/// and resume from `at.resume`. Returns `None` on the excluded rank.
fn attempt_body<C: Communicator, S: Supervised>(
    comm: &mut C,
    search: &S,
    ft: &FtConfig,
    at: &Attempt<'_, S::Image>,
) -> Option<S::Found> {
    let checkpoints = Some((ft.checkpoint_every, at.store));
    let Some(culprit) = at.excluded else {
        recovery_prologue(comm, at.recovery);
        return Some(search.on_world(comm, checkpoints, at.resume));
    };
    let orig_p = comm.size();
    comm.enter_phase(RECOVERY_PHASE);
    let secede = comm.rank() == culprit;
    // Every rank knows the culprit, so the shrink moves no message.
    let mut sub = comm.split(|r| u32::from(r == culprit));
    sub.exit_phase();
    if secede {
        // The suspect rank leaves the computation entirely.
        return None;
    }
    // Survivors-only by design: the excluded rank has already left and
    // every collective the search runs is on the shrunk communicator
    // `sub`, whose membership is exactly the ranks that took this path.
    Some(search.on_survivors(&mut sub, orig_p, checkpoints, at.resume))
}

/// The recovery decision state of every supervised search and backend:
/// the (possibly promoted) machine, the effective policy after any
/// fallback, and the running recovery tallies.
struct Supervisor<'a> {
    ft: &'a FtConfig,
    /// The machine the next attempt runs on — `p` never changes, but
    /// promotions rewrite its member table.
    machine_now: MachineSpec,
    /// Groups the search splits the machine into, for [`spare_for`].
    groups: usize,
    /// The policy in force — starts at `ft.policy` and moves one step
    /// down the fallback lattice when a mechanism runs out of resources.
    policy_now: RecoveryPolicy,
    excluded: Option<usize>,
    /// Which spare slots a promotion has consumed.
    spare_used: Vec<bool>,
    promotions: usize,
    replays: usize,
    fell_back: bool,
    faults: Vec<SimError>,
}

impl<'a> Supervisor<'a> {
    fn new(machine: &MachineSpec, ft: &'a FtConfig, groups: usize) -> Self {
        let mut machine_now = machine.clone();
        if matches!(ft.policy, RecoveryPolicy::PromoteSpare) {
            // The standby pool rides on the engine's warm spare slots.
            machine_now.spares = machine_now.spares.max(ft.standby.spares);
        }
        Supervisor {
            ft,
            spare_used: vec![false; machine_now.spares],
            machine_now,
            groups,
            policy_now: ft.policy,
            excluded: None,
            promotions: 0,
            replays: 0,
            fell_back: false,
            faults: Vec::new(),
        }
    }

    /// Wrap a successful attempt's outcome with the recovery record.
    fn finish<T>(self, outcome: T, attempts: usize, recovery_time: f64) -> FtOutcome<T> {
        FtOutcome {
            outcome,
            attempts,
            faults: self.faults,
            shrunk: self.excluded.is_some(),
            survivors: self.machine_now.p - usize::from(self.excluded.is_some()),
            recovery_time,
            promotions: self.promotions,
            replays: self.replays,
            fell_back: self.fell_back,
        }
    }

    /// Decide how the next attempt recovers from `e`, mutating the
    /// machine (promotion), the effective policy (fallback), and the
    /// tallies. `None` means the fault is unrecoverable under the current
    /// configuration and the caller propagates the original error. The
    /// fallback lattice is one step deep: a fallback policy that itself
    /// cannot proceed ends recovery rather than looping.
    fn plan(
        &mut self,
        e: &SimError,
        store: &CheckpointStore,
        replay: Option<&ReplayLog>,
    ) -> Option<Recovery> {
        // Only injected-fault errors are recoverable; anything else (a
        // genuine bug, a verifier divergence) propagates.
        let (culprit, sent) = e.fault_origin()?;
        self.faults.push(e.clone());
        if matches!(self.policy_now, RecoveryPolicy::Abort)
            || self.faults.len() > self.ft.max_restarts
        {
            return None;
        }
        let ck_words = {
            // lint:allow(unwrap): mutex poisoning only follows another panic
            let guard = store.lock().expect("checkpoint store lock");
            guard.as_deref().map_or(0, |b| (b.len() / 8) as u64)
        };
        let mut steps = 0;
        loop {
            steps += 1;
            if steps > 2 {
                return None;
            }
            match self.policy_now {
                RecoveryPolicy::Abort => return None,
                RecoveryPolicy::RestartFromCheckpoint => {
                    // With no stored image the "restart" is a from-scratch
                    // re-execution: the whole search is re-paid in the
                    // ordinary phases and there is nothing to reload, so no
                    // rollback toll is charged.
                    return Some(if ck_words == 0 {
                        Recovery::None
                    } else {
                        Recovery::Restart { ck_words }
                    });
                }
                RecoveryPolicy::ShrinkAndRedistribute => {
                    if self.machine_now.p < 2 || self.excluded.is_some_and(|r| r != culprit) {
                        // Can't drop below one rank, and excluding a
                        // second distinct rank would need nested shrink
                        // levels this supervisor doesn't implement.
                        return None;
                    }
                    self.excluded = Some(culprit);
                    // The shrink body measures its own rebuild cost.
                    return Some(Recovery::None);
                }
                RecoveryPolicy::PromoteSpare => {
                    let p = self.machine_now.p;
                    let Some(k) = spare_for(culprit, p, self.groups, &self.spare_used) else {
                        self.fell_back = true;
                        self.policy_now = self.ft.standby.fallback;
                        continue;
                    };
                    if let Err(shard_err) =
                        check_culprit_shard(store, p, culprit, self.ft.standby.shard_fault)
                    {
                        // The spare cannot trust its shard; record the
                        // corruption (naming the shard's owner) and fall
                        // back to a full restart from the intact image.
                        self.faults.push(shard_err);
                        self.fell_back = true;
                        return Some(Recovery::Restart { ck_words });
                    }
                    self.machine_now.promote(culprit, p + k);
                    self.spare_used[k] = true;
                    self.promotions += 1;
                    return Some(Recovery::Promote { culprit, ck_words });
                }
                RecoveryPolicy::LocalReplay => match replay {
                    // Charge what the culprit's program received before
                    // the fault, not what a live culprit happened to log
                    // before the failure reached it.
                    Some(log) if log.evicted(culprit) == 0 => {
                        self.replays += 1;
                        return Some(Recovery::Replay {
                            culprit,
                            ck_words,
                            entries: log.len_within(culprit, sent) as u64,
                        });
                    }
                    // Ring evicted entries (or no log at all): the log no
                    // longer covers the gap back to the checkpoint.
                    _ => {
                        self.fell_back = true;
                        self.policy_now = self.ft.standby.fallback;
                        continue;
                    }
                },
            }
        }
    }
}

/// Load-check the culprit's checkpoint shard the way a promoted spare
/// would, applying any injected [`ShardFault`] first. A corrupt shard
/// surfaces as [`SimError::PayloadCorrupt`] naming the shard's owner.
fn check_culprit_shard(
    store: &CheckpointStore,
    p: usize,
    culprit: usize,
    injected: Option<ShardFault>,
) -> Result<(), SimError> {
    // lint:allow(unwrap): mutex poisoning only follows another panic
    let guard = store.lock().expect("checkpoint store lock");
    let Some(bytes) = guard.as_deref() else {
        return Ok(()); // nothing checkpointed yet: nothing to load
    };
    let mut shards = to_shards(bytes, p);
    if let Some(f) = injected {
        if let Some(shard) = shards.get_mut(f.logical_rank) {
            corrupt_shard(shard, f.byte, f.mask);
        }
    }
    match decode_shard(&shards[culprit]) {
        Ok(_) => Ok(()),
        Err(CheckpointError::ShardCorrupt { logical_rank, expected, found }) => {
            Err(SimError::PayloadCorrupt {
                rank: culprit,
                from: logical_rank,
                seq: 0,
                cause: DecodeError::ChecksumMismatch { expected, found },
            })
        }
        // Unreachable with our own framing, but never a panic path: any
        // other decode failure still reads as a corrupt shard.
        Err(_) => Err(SimError::PayloadCorrupt {
            rank: culprit,
            from: culprit,
            seq: 0,
            cause: DecodeError::RaggedLength { len: shards[culprit].len() },
        }),
    }
}

/// Which spare slot serves a failed rank. Spares are dealt round-robin
/// over the `groups` fleets — spare `k` is attached to fleet `k mod G` —
/// and a culprit consumes its *own fleet's* unused spare first (keeping
/// the warm slot topologically near the fleet it backs), falling back to
/// the lowest-numbered unused spare of any fleet. With one group (the
/// world search) that is simply the lowest unused slot. `None` when the
/// pool is exhausted.
fn spare_for(culprit: usize, p: usize, groups: usize, used: &[bool]) -> Option<usize> {
    let g = groups.clamp(1, p.max(1));
    let fleet = block_partition(p, g).iter().position(|r| r.contains(&culprit)).unwrap_or(0);
    used.iter()
        .enumerate()
        .filter(|&(_, &taken)| !taken)
        .map(|(k, _)| k)
        .min_by_key(|&k| (usize::from(k % g != fleet), k))
}

#[cfg(test)]
mod tests {
    use super::spare_for;

    #[test]
    fn spares_prefer_the_culprits_own_fleet() {
        // P = 8, G = 2: fleets {0..4} and {4..8}; spare 0 backs fleet 0,
        // spare 1 backs fleet 1.
        let used = [false, false];
        assert_eq!(spare_for(2, 8, 2, &used), Some(0));
        assert_eq!(spare_for(6, 8, 2, &used), Some(1));
        // Own fleet's spare taken: borrow the lowest unused one.
        assert_eq!(spare_for(6, 8, 2, &[false, true]), Some(0));
        // Pool exhausted.
        assert_eq!(spare_for(1, 8, 2, &[true, true]), None);
        // More spares than fleets: round-robin attachment.
        assert_eq!(spare_for(5, 8, 2, &[true, false, false, false]), Some(1));
        assert_eq!(spare_for(5, 8, 2, &[true, true, false, false]), Some(3));
    }

    #[test]
    fn one_group_takes_spares_left_to_right() {
        for culprit in 0..4 {
            assert_eq!(spare_for(culprit, 4, 1, &[false, false]), Some(0));
            assert_eq!(spare_for(culprit, 4, 1, &[true, false]), Some(1));
            assert_eq!(spare_for(culprit, 4, 1, &[true, true]), None);
        }
    }
}
