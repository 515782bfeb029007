//! The SPMD launcher: one closure per rank on the cooperative engine.
//!
//! [`run_spmd`] hands each rank a [`Comm`] and harvests results and
//! per-rank statistics. A panic on any rank aborts the whole run and is
//! reported as a [`SimError`]. Ranks are cooperatively scheduled tasks on
//! a virtual-time-ordered run queue with lazily created per-pair
//! mailboxes (see the `coop` module): each rank body runs as a stackful
//! fiber on the calling thread, which runs the scheduler loop, so no
//! thread is started per rank and a handoff is a stack switch. Exactly
//! one rank runs at a time, a blocked receive costs nothing, and a run
//! that can never progress is diagnosed structurally the moment no rank
//! is runnable — there is no wall-clock timer.
//!
//! # Stack overflow
//!
//! Each rank has a 1 MiB stack with a guard page below it, recycled
//! from an earlier launch where one is pooled (see the `fiber` module); a
//! launch that cannot map the stacks it needs returns
//! [`SimError::InvalidMachine`]. On x86_64
//! Linux, where a rank's stack is a fiber stack rather than a thread's,
//! running off its end kills the process with `SIGSEGV` and no message:
//! std's handler only recognizes its threads' own guard pages. On other
//! targets a rank runs on a thread of its own, and an overflow prints
//! "has overflowed its stack" before aborting. Either way the process
//! dies rather than corrupting memory.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Once};

use crate::comm::{AbortPanic, Comm, Net};
use crate::coop::CoopShared;
use crate::cost::MachineSpec;
use crate::error::SimError;
use crate::fault::{FaultPlan, FaultState};
use crate::fiber::Fiber;
use crate::replica::ReplicaStats;
use crate::trace::{RankStats, RunStats};
use crate::verify::{VerifyOptions, VerifyState};

/// The execution engine carrying the ranks. There is one: the
/// cooperative virtual-time scheduler (see the module docs).
///
/// [`run_spmd`] never reads [`SimOptions::engine`]; the enum and the
/// field exist only so that code naming `Engine::Cooperative` keeps
/// compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Cooperative virtual-time scheduler with lazy per-pair mailboxes.
    #[default]
    Cooperative,
}

/// Engine knobs that are about the *simulation host*, not the modeled
/// machine (which lives in [`MachineSpec`]).
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Execution engine; never read (see [`Engine`]).
    pub engine: Engine,
    /// Most envelopes allowed in flight on any single (sender, receiver)
    /// pair; a sender at the bound parks until the receiver drains.
    /// Bounds the simulator's memory on send-heavy programs at large `P`.
    pub max_inflight_per_pair: usize,
    /// Record a per-rank message event trace (see
    /// [`crate::trace::Event`]); returned in [`SpmdOutput::events`].
    pub record_events: bool,
    /// Which correctness checks run alongside the program (see
    /// [`crate::verify`]). The default runs none; deadlock diagnosis is
    /// the scheduler's and always on.
    pub verify: VerifyOptions,
    /// Deterministic fault plan to inject into the run (see
    /// [`crate::fault`]); `None` simulates perfectly reliable hardware.
    /// Because the plan's fired flags are shared across clones, a
    /// supervisor can re-run the same options after a recovery without
    /// one-shot faults recurring.
    pub fault: Option<FaultPlan>,
    /// In-flight replay log (see [`crate::replay`]): when set, every
    /// delivered message's coordinates are recorded into the rank's
    /// bounded ring (and a small virtual-time write cost is charged), so
    /// a localized-recovery supervisor can replay a failed rank's traffic
    /// since its last checkpoint instead of rolling the world back.
    /// Shared across clones, like [`SimOptions::fault`].
    pub replay: Option<crate::replay::ReplayLog>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            engine: Engine::default(),
            max_inflight_per_pair: 1024,
            record_events: false,
            verify: VerifyOptions::default(),
            fault: None,
            replay: None,
        }
    }
}

impl SimOptions {
    /// Options with every verification layer enabled: collective
    /// fingerprinting and replication hashing.
    pub fn verified() -> Self {
        SimOptions { verify: VerifyOptions::all(), ..Default::default() }
    }
}

/// Everything a finished SPMD run produces.
#[derive(Debug)]
pub struct SpmdOutput<T> {
    /// Each rank's return value, indexed by rank.
    pub per_rank: Vec<T>,
    /// Elapsed virtual time: the maximum final clock over all ranks.
    pub elapsed: f64,
    /// Per-rank statistics, including the per-phase breakdown fed by
    /// [`SpmdComm::enter_phase`](crate::SpmdComm::enter_phase) spans.
    pub ranks: Vec<RankStats>,
    /// Aggregate statistics (both send- and receive-side traffic totals;
    /// see [`RunStats::check_message_symmetry`]).
    pub stats: RunStats,
    /// Per-rank message event traces; empty vectors unless
    /// [`SimOptions::record_events`] was set.
    pub events: Vec<Vec<crate::trace::Event>>,
    /// Largest number of envelopes any single (sender, receiver) mailbox
    /// held at once, against [`SimOptions::max_inflight_per_pair`].
    pub mailbox_high_water: usize,
    /// One row per warm spare slot ([`MachineSpec::spares`]), rank ids
    /// `p..p+spares`, all zero. Spares stand outside the scheduler for the
    /// whole run — they run no code, are not collective participants and
    /// are never scheduled, so no stall diagnosis can name them — and
    /// accrue no virtual time until a recovery supervisor promotes their
    /// slot into a failed logical rank. Kept out of [`SpmdOutput::ranks`]
    /// so aggregate statistics and symmetry checks keep describing the `p`
    /// working ranks.
    pub spare_ranks: Vec<RankStats>,
    /// What the members' replicated derivations did: how many were kept
    /// for the other members, how many members shared one, and how many
    /// were still in the store at the end (see [`crate::replica`]).
    pub replicas: ReplicaStats,
}

/// Run `f` as an SPMD program on the machine described by `spec`.
///
/// `f` is invoked once per rank with that rank's [`Comm`]; it may borrow
/// from the caller's stack (every rank runs while `run_spmd` waits), which
/// is how a shared read-only dataset is distributed without copying.
///
/// # Errors
/// Returns the first rank failure by severity: a root cause (a user panic,
/// an injected crash, a proven deadlock) beats a peer's failure diagnosis
/// beats a follow-on abort, so the root cause is reported rather than a
/// symptom. A machine with no rank, or one whose rank stacks cannot be
/// mapped, is [`SimError::InvalidMachine`] before any rank runs.
pub fn run_spmd<T, F>(
    spec: &MachineSpec,
    opts: &SimOptions,
    f: F,
) -> Result<SpmdOutput<T>, SimError>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    let p = spec.p;
    if p == 0 {
        return Err(SimError::InvalidMachine("machine must have at least 1 rank".into()));
    }
    install_panic_capture();
    let net = Arc::new(Net {
        spec: spec.clone(),
        fault: opts.fault.as_ref().map(|plan| FaultState::new(plan.clone(), p)),
        replay: opts.replay.clone(),
    });
    let abort = Arc::new(AtomicBool::new(false));
    let verify = opts.verify.any().then(|| Arc::new(VerifyState::new(opts.verify.clone())));
    let coop = Arc::new(CoopShared::new(
        p,
        opts.max_inflight_per_pair,
        Arc::clone(&net),
        Arc::clone(&abort),
    ));

    let mut slots: Vec<Option<RankOutcome<T>>> = (0..p).map(|_| None).collect();
    // A failed launch drops the fibers already made, which pools their
    // stacks.
    let mut fibers = slots
        .iter_mut()
        .enumerate()
        .map(|(rank, slot)| {
            let net = Arc::clone(&net);
            let abort = Arc::clone(&abort);
            let coop = Arc::clone(&coop);
            let verify = verify.clone();
            let record_events = opts.record_events;
            let f = &f;
            Fiber::new(move || {
                let mut comm =
                    Comm::new(rank, net, Arc::clone(&coop), abort.clone(), record_events, verify);
                let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut comm)));
                let res = settle_rank(rank, outcome, &mut comm, &abort);
                // Retire the rank *after* settle_rank has set the abort
                // flag, so finish's abort cascade sees it.
                coop.finish(rank, res.is_err());
                *slot = Some(res);
            })
        })
        .collect::<std::io::Result<Vec<Fiber<'_>>>>()
        .map_err(|e| SimError::InvalidMachine(format!("cannot map stacks for {p} ranks: {e}")))?;
    while let Some(rank) = coop.next_rank() {
        fibers[rank].resume();
    }
    // Last rank first: the pool hands out the most recently dropped stack
    // first, so the next launch of this size puts every rank on the stack
    // it had here.
    fibers.into_iter().rev().for_each(drop);
    // lint:allow(unwrap): the loop ends only once every rank has finished
    let results = slots.into_iter().map(|slot| slot.expect("every rank ran to completion"));
    let mailbox_high_water = coop.high_water();
    let replicas = coop.replicas.stats();
    let spare_ranks =
        (p..p + spec.spares).map(|rank| RankStats { rank, ..RankStats::default() }).collect();

    let mut first_error: Option<SimError> = None;
    let mut per_rank = Vec::with_capacity(p);
    let mut ranks = Vec::with_capacity(p);
    let mut events = Vec::with_capacity(p);
    for r in results {
        match r {
            Ok((value, stats, ev)) => {
                per_rank.push(value);
                ranks.push(stats);
                events.push(ev);
            }
            Err(e) => {
                let sev = severity(&e);
                match &first_error {
                    Some(cur) if severity(cur) >= sev => {}
                    _ => first_error = Some(e),
                }
            }
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }

    let stats = RunStats::from_ranks(&ranks);
    Ok(SpmdOutput {
        elapsed: stats.elapsed,
        per_rank,
        ranks,
        stats,
        events,
        mailbox_high_water,
        spare_ranks,
        replicas,
    })
}

type RankOutcome<T> = Result<(T, RankStats, Vec<crate::trace::Event>), SimError>;

/// Finish one rank's run: classify the outcome and, for a root-cause
/// failure, raise the abort flag.
fn settle_rank<T>(
    rank: usize,
    outcome: std::thread::Result<T>,
    comm: &mut Comm,
    abort: &AtomicBool,
) -> RankOutcome<T> {
    match outcome {
        Ok(value) => Ok((value, comm.stats(), comm.take_events())),
        Err(payload) => {
            let err = classify_panic(rank, payload);
            // An injected crash must not tear the other ranks down from
            // the outside: turning the silent death into a typed error is
            // the failure-detection path's job, and the first detector
            // sets the abort flag itself.
            if !matches!(err, SimError::RankCrashed { .. }) {
                abort.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            Err(err)
        }
    }
}

/// Convenience wrapper using default options.
pub fn run_spmd_default<T, F>(spec: &MachineSpec, f: F) -> Result<SpmdOutput<T>, SimError>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    run_spmd(spec, &SimOptions::default(), f)
}

fn severity(e: &SimError) -> u8 {
    match e {
        SimError::RankPanicked { .. } => 3,
        SimError::CollectiveMismatch { .. } => 3,
        SimError::CollectiveDivergence { .. } => 3,
        SimError::Deadlock { .. } => 3,
        SimError::ReplicationDivergence { .. } => 3,
        SimError::RequestMisuse { .. } => 3,
        // Root causes of injected faults outrank the errors they cascade
        // into, so the report always names the culprit.
        SimError::RankCrashed { .. } => 3,
        SimError::PayloadCorrupt { .. } => 3,
        SimError::PeerFailed { .. } => 2,
        SimError::Timeout { .. } => 2,
        SimError::InvalidMachine(_) => 2,
        SimError::Aborted { .. } => 1,
    }
}

thread_local! {
    /// `file:line:column` of the last panic thrown on this thread,
    /// captured by the hook below. Read by [`classify_panic`], which runs
    /// on the panicking rank's fiber right after the unwind, before any
    /// other rank can run on this thread.
    static LAST_PANIC_LOCATION: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

static PANIC_CAPTURE: Once = Once::new();

/// Install (once, process-wide) a panic hook that remembers each panic's
/// source location per thread, and silences the default stderr report for
/// the engine's own [`AbortPanic`] payloads — those carry structured
/// errors that the harvest reports properly; printing them would spam
/// every aborted rank's backtrace.
fn install_panic_capture() {
    PANIC_CAPTURE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(loc) = info.location() {
                let rendered = format!("{}:{}:{}", loc.file(), loc.line(), loc.column());
                LAST_PANIC_LOCATION.with(|c| *c.borrow_mut() = Some(rendered));
            }
            if info.payload().downcast_ref::<AbortPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

fn classify_panic(rank: usize, payload: Box<dyn std::any::Any + Send>) -> SimError {
    match payload.downcast::<AbortPanic>() {
        Ok(abort) => abort.0,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                // `panic_any` with a custom type: the payload cannot be
                // rendered (stable Rust cannot name a `dyn Any`'s concrete
                // type), but the hook captured where it was thrown —
                // report that identity instead of discarding it.
                match LAST_PANIC_LOCATION.with(|c| c.borrow_mut().take()) {
                    Some(loc) => format!("non-string panic payload thrown at {loc}"),
                    None => "non-string panic payload".to_string(),
                }
            };
            SimError::RankPanicked { rank, message }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::presets;
    use crate::traits::{Communicator, SpmdComm};
    use std::time::{Duration, Instant};

    #[test]
    fn zero_ranks_is_invalid() {
        let mut spec = presets::zero_cost(1);
        spec.p = 0;
        let r = run_spmd_default(&spec, |c| c.rank());
        assert!(matches!(r, Err(SimError::InvalidMachine(_))));
    }

    #[test]
    fn single_rank_runs() {
        let spec = presets::zero_cost(1);
        let out = run_spmd_default(&spec, |c| c.rank() + 10).unwrap();
        assert_eq!(out.per_rank, vec![10]);
        assert_eq!(out.elapsed, 0.0);
    }

    #[test]
    fn ranks_see_distinct_ids() {
        let spec = presets::zero_cost(5);
        let out = run_spmd_default(&spec, |c| (c.rank(), c.size())).unwrap();
        for (i, (r, s)) in out.per_rank.iter().enumerate() {
            assert_eq!(*r, i);
            assert_eq!(*s, 5);
        }
    }

    #[test]
    fn user_panic_is_reported_with_rank() {
        let spec = presets::zero_cost(3);
        let r = run_spmd_default::<(), _>(&spec, |c| {
            if c.rank() == 1 {
                panic!("deliberate test failure");
            }
            // Other ranks block so the abort path is exercised.
            c.barrier();
        });
        match r {
            Err(SimError::RankPanicked { rank, message }) => {
                assert_eq!(rank, 1);
                assert!(message.contains("deliberate"));
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_collective_is_diagnosed_as_deadlock() {
        // Rank 1 skips the barrier and finishes; rank 0 blocks forever.
        let spec = presets::zero_cost(2);
        let start = Instant::now();
        let r = run_spmd_default::<(), _>(&spec, |c| {
            if c.rank() == 0 {
                c.barrier(); // rank 1 never joins
            }
        });
        let elapsed = start.elapsed();
        match r {
            Err(SimError::Deadlock { detail, .. }) => {
                assert!(detail.contains("rank 0 waits on rank 1"), "{detail}");
                assert!(detail.contains("finished"), "{detail}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
        // Structural: no polling, no timer — diagnosis is immediate.
        assert!(elapsed < Duration::from_secs(1), "diagnosis took {elapsed:?}");
    }

    #[test]
    fn cooperative_engine_carries_spares_outside_the_baton() {
        let spec = presets::zero_cost(3).with_spares(2);
        let out = run_spmd_default(&spec, |c| {
            c.barrier();
            c.rank()
        })
        .unwrap();
        assert_eq!(out.per_rank, vec![0, 1, 2]);
        assert_eq!(out.ranks.len(), 3, "aggregates must keep describing the working ranks");
        let ids: Vec<usize> = out.spare_ranks.iter().map(|r| r.rank).collect();
        assert_eq!(ids, vec![3, 4], "one stats row per spare slot");
        for s in &out.spare_ranks {
            assert_eq!(s.elapsed, 0.0, "a parked spare accrues no virtual time");
        }
    }

    #[test]
    fn non_string_panic_payload_is_identified_by_location() {
        struct Custom {
            #[allow(dead_code)]
            code: u32,
        }
        let spec = presets::zero_cost(1);
        let r = run_spmd_default::<(), _>(&spec, |_c| {
            std::panic::panic_any(Custom { code: 42 });
        });
        match r {
            Err(SimError::RankPanicked { rank, message }) => {
                assert_eq!(rank, 0);
                // The message names where the payload was thrown, so a
                // custom panic type is traceable instead of anonymous.
                assert!(message.contains("engine.rs"), "message was: {message}");
                assert!(message.contains("non-string panic payload"), "message was: {message}");
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
    }

    #[test]
    fn cooperative_ring_passes_a_token() {
        let spec = presets::zero_cost(4);
        let out = run_spmd_default(&spec, |c| {
            let p = c.size();
            let me = c.rank();
            if me == 0 {
                c.send_f64s(1, 5, &[1.0]);
                c.recv_f64s(p - 1, 5)[0]
            } else {
                let v = c.recv_f64s(me - 1, 5)[0];
                c.send_f64s((me + 1) % p, 5, &[v + 1.0]);
                v
            }
        })
        .unwrap();
        assert_eq!(out.per_rank, vec![4.0, 1.0, 2.0, 3.0]);
        assert!(out.mailbox_high_water >= 1);
    }

    #[test]
    fn send_recv_cycle_is_diagnosed_with_full_wait_graph() {
        // Classic head-to-head deadlock: every rank receives from its right
        // neighbour before sending anything.
        let spec = presets::zero_cost(3);
        let start = Instant::now();
        let r = run_spmd_default::<(), _>(&spec, |c| {
            let from = (c.rank() + 1) % c.size();
            let _ = c.recv_f64s(from, 7);
        });
        let elapsed = start.elapsed();
        match r {
            Err(SimError::Deadlock { cycle, detail, .. }) => {
                let mut cycle = cycle;
                cycle.sort_unstable();
                assert_eq!(cycle, vec![0, 1, 2], "{detail}");
                for rank in 0..3 {
                    assert!(
                        detail.contains(&format!("rank {rank} waits on rank {}", (rank + 1) % 3)),
                        "{detail}"
                    );
                }
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
        assert!(elapsed < Duration::from_secs(1), "diagnosis took {elapsed:?}");
    }

    /// Run `body` on `p` ranks and return the `Deadlock` it must end in.
    fn expect_deadlock(p: usize, body: impl Fn(&mut Comm) + Sync) -> (Vec<usize>, String) {
        match run_spmd_default::<(), _>(&presets::zero_cost(p), body) {
            Err(SimError::Deadlock { cycle, detail, .. }) => (cycle, detail),
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn wait_on_a_returned_rank_names_the_finished_peer() {
        let (cycle, detail) = expect_deadlock(3, |c| {
            if c.rank() == 0 {
                let _ = c.recv_f64s(2, 9);
            }
        });
        assert!(cycle.is_empty(), "{detail}");
        assert!(detail.contains("rank 0 waits on rank 2"), "{detail}");
        assert!(detail.contains("already finished"), "{detail}");
    }

    #[test]
    fn stashed_wrong_tag_envelope_still_closes_the_cycle() {
        // Rank 0 pulls rank 1's tag-3 envelope into its stash while
        // waiting for tag 7; nothing else is in flight, so the two
        // receives wait on each other for good.
        let (mut cycle, detail) = expect_deadlock(2, |c| {
            if c.rank() == 1 {
                c.send_f64s(0, 3, &[1.0]);
            }
            let _ = c.recv_f64s(1 - c.rank(), 7);
        });
        cycle.sort_unstable();
        assert_eq!(cycle, vec![0, 1], "{detail}");
        assert!(detail.contains("rank 0 waits on rank 1 (tag 0x7)"), "{detail}");
    }

    #[test]
    fn receive_from_a_busy_sender_is_never_diagnosed() {
        // Rank 0 blocks long before rank 1's message exists: a wait on a
        // rank that is still running is not a stall.
        let spec = presets::hier_cluster(2, 1);
        let out = run_spmd_default(&spec, |c| {
            if c.rank() == 0 {
                let v = c.recv_f64s(1, 7);
                c.send_f64s(1, 8, &v);
                v[0]
            } else {
                c.work(1 << 30);
                c.send_f64s(0, 7, &[42.0]);
                c.recv_f64s(0, 8)[0]
            }
        })
        .unwrap();
        assert_eq!(out.per_rank, vec![42.0, 42.0]);
        assert!(out.ranks[0].idle > 0.0, "rank 0 should have waited for the late send");
    }

    #[test]
    fn wait_on_a_rank_that_returned_after_its_receive_is_diagnosed() {
        let (cycle, detail) = expect_deadlock(2, |c| {
            if c.rank() == 0 {
                let _ = c.recv_f64s(1, 7);
            } else {
                c.send_f64s(0, 7, &[1.0]);
                let _ = c.recv_f64s(0, 8);
            }
        });
        assert!(cycle.is_empty(), "{detail}");
        assert!(detail.contains("rank 1 waits on rank 0"), "{detail}");
        assert!(detail.contains("already finished"), "{detail}");
    }

    #[test]
    fn cooperative_detects_deadlock_even_without_verification() {
        // With every verifier off the scheduler still proves the stall
        // structurally and reports a typed deadlock naming the cycle.
        let spec = presets::zero_cost(3);
        let opts =
            SimOptions { verify: crate::verify::VerifyOptions::none(), ..Default::default() };
        let start = Instant::now();
        let r = run_spmd::<(), _>(&spec, &opts, |c| {
            let from = (c.rank() + 1) % c.size();
            let _ = c.recv_f64s(from, 7);
        });
        let elapsed = start.elapsed();
        match r {
            Err(SimError::Deadlock { cycle, detail, .. }) => {
                let mut cycle = cycle;
                cycle.sort_unstable();
                assert_eq!(cycle, vec![0, 1, 2], "{detail}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
        assert!(elapsed < Duration::from_secs(1), "diagnosis took {elapsed:?}");
    }
}
