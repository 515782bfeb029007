//! Deterministic fault injection for the simulated multicomputer.
//!
//! A [`FaultPlan`] describes, ahead of a run, a set of failures to inject
//! at the channel/endpoint layer: a rank crash, a dropped / delayed /
//! corrupted message, or a degraded link. Every fault is pinned to a
//! deterministic trigger — the culprit's *n*-th sent message or a virtual
//! time — so the same plan against the same program produces the same
//! failure, the same detection, and the same typed error on every run.
//!
//! Faults are injected at three checkpoints: the send entry and receive
//! entry of every message, point-to-point or inside a collective at its
//! rendezvous alike, and [`crate::SpmdComm::work`]. Detection happens on the
//! *receiving* side, where a wait that can provably never be satisfied
//! surfaces as [`crate::SimError::PeerFailed`] naming the culprit rank,
//! message seq, kind, and phase — instead of a hang. Delays additionally
//! interact with the plan's optional *virtual-time timeout*: a message
//! whose arrival would force the receiver to idle longer than the limit
//! fails the run with [`crate::SimError::Timeout`].
//!
//! One-shot faults (crash, drop, delay, corrupt) are spent when they fire
//! and — because the fired flags are shared by [`FaultPlan::clone`] — stay
//! spent across engine re-runs, which is what lets a restart-from-checkpoint
//! replay the same plan without the fault recurring. A degraded link is
//! persistent once triggered: it models broken hardware, not a transient.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::SimError;

/// The kind of an injected fault; the label typed errors carry so a
/// supervisor can tell what happened without parsing strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// A rank died.
    Crash,
    /// A message was silently discarded in transit.
    Drop,
    /// A message's departure was delayed.
    Delay,
    /// A message's payload was flipped in transit.
    Corrupt,
    /// A link's effective bandwidth was permanently reduced.
    DegradeLink,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::Crash => "crash",
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Corrupt => "corrupt",
            FaultKind::DegradeLink => "degraded link",
        };
        f.write_str(s)
    }
}

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum FaultAction {
    /// The culprit rank dies at the next injection checkpoint. Its peers
    /// are *not* torn down by the engine; they must detect the failure,
    /// which is the point of the exercise.
    Crash,
    /// The culprit's next message to `dst` is discarded after the sender
    /// has charged its endpoint costs (the sender believes it sent).
    Drop {
        /// Destination rank of the discarded message.
        dst: usize,
    },
    /// The culprit's next message to `dst` departs `secs` virtual seconds
    /// late. Payloads are untouched, so a run that tolerates the delay
    /// finishes with bit-identical results, just later.
    Delay {
        /// Destination rank of the delayed message.
        dst: usize,
        /// Extra virtual seconds added to the departure time.
        secs: f64,
    },
    /// The culprit's next message to `dst` has one payload byte XOR-ed
    /// with `mask` *after* the sender computes the envelope checksum, so
    /// the receiver detects it on arrival. For empty payloads the
    /// checksum itself is corrupted instead.
    Corrupt {
        /// Destination rank of the corrupted message.
        dst: usize,
        /// Payload byte index to flip (taken modulo the payload length).
        byte: usize,
        /// XOR mask applied to that byte (`0` is promoted to `1` so the
        /// fault can never be a no-op).
        mask: u8,
    },
    /// From the trigger onward, every message on the link to `dst` pays
    /// `factor`× its per-byte wire cost. Persistent: degraded hardware
    /// does not heal on restart.
    DegradeLink {
        /// Destination rank of the degraded link.
        dst: usize,
        /// Bandwidth slowdown factor (≥ 1.0).
        factor: f64,
    },
}

impl FaultAction {
    /// The kind label this action surfaces in typed errors.
    pub fn kind(&self) -> FaultKind {
        match self {
            FaultAction::Crash => FaultKind::Crash,
            FaultAction::Drop { .. } => FaultKind::Drop,
            FaultAction::Delay { .. } => FaultKind::Delay,
            FaultAction::Corrupt { .. } => FaultKind::Corrupt,
            FaultAction::DegradeLink { .. } => FaultKind::DegradeLink,
        }
    }
}

/// When an injected fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum FaultTrigger {
    /// At the culprit's `n`-th sent message (1-based, counted across all
    /// destinations). Message faults fire on the first matching send with
    /// seq ≥ `n`; a crash fires at the first injection checkpoint that
    /// reaches this send count.
    AtSendSeq(u64),
    /// At the first injection checkpoint at or after virtual time `t`
    /// seconds on the culprit's clock.
    AtTime(f64),
}

impl FaultTrigger {
    /// Whether the send numbered `seq`, or a checkpoint at time `now`,
    /// reaches this trigger.
    fn reached(self, seq: u64, now: f64) -> bool {
        match self {
            FaultTrigger::AtSendSeq(n) => seq >= n,
            FaultTrigger::AtTime(t) => now >= t,
        }
    }
}

/// One planned fault: who misbehaves, how, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The culprit rank.
    pub rank: usize,
    /// What happens.
    pub action: FaultAction,
    /// When it happens.
    pub trigger: FaultTrigger,
}

/// A deterministic, shareable fault plan for one or more engine runs.
///
/// Cloning shares the fired flags, so a supervisor that re-runs the same
/// plan after a recovery (restart from checkpoint, shrink and resume) sees
/// one-shot faults exactly once. Call [`FaultPlan::reset`] to re-arm.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    specs: Arc<Vec<FaultSpec>>,
    fired: Arc<Vec<AtomicBool>>,
    virtual_timeout: Option<f64>,
}

impl FaultPlan {
    /// A plan injecting the given faults.
    pub fn new(specs: Vec<FaultSpec>) -> Self {
        let fired = (0..specs.len()).map(|_| AtomicBool::new(false)).collect();
        FaultPlan { specs: Arc::new(specs), fired: Arc::new(fired), virtual_timeout: None }
    }

    /// Enable the virtual-time timeout: any receive whose message would
    /// force the receiver to idle more than `secs` virtual seconds fails
    /// the run with [`crate::SimError::Timeout`] instead of absorbing the
    /// wait. Applies to every collective too, since they are built on the
    /// same receive path.
    pub fn with_virtual_timeout(mut self, secs: f64) -> Self {
        self.virtual_timeout = Some(secs);
        self
    }

    /// The configured virtual-time receive timeout, if any.
    pub fn virtual_timeout(&self) -> Option<f64> {
        self.virtual_timeout
    }

    /// The planned faults.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// How many of the planned faults have fired so far (across every run
    /// sharing this plan).
    pub fn fired_count(&self) -> usize {
        self.fired.iter().filter(|f| f.load(Ordering::Relaxed)).count()
    }

    /// Re-arm every fault (for reusing one plan across unrelated runs).
    pub fn reset(&self) {
        for f in self.fired.iter() {
            f.store(false, Ordering::Relaxed);
        }
    }

    /// The one crash rule, for every backend: at an injection checkpoint
    /// of `rank`, whose current send count is `seq`, fire the first armed
    /// crash spec that the *next* send (`seq + 1`) or the time `now`
    /// reaches. The simulator's injection checkpoints ask through its
    /// fault state; the native backend, which carries none, asks at each
    /// send entry. The shared fired flags keep
    /// each fault one-shot across a supervisor's re-runs. A crash that
    /// fires is reported with `seq`: the sends the rank made.
    pub fn crash_now(&self, rank: usize, seq: u64, now: f64) -> bool {
        self.specs.iter().enumerate().any(|(i, s)| {
            s.rank == rank
                && matches!(s.action, FaultAction::Crash)
                && s.trigger.reached(seq + 1, now)
                && !self.fired[i].swap(true, Ordering::Relaxed)
        })
    }

    /// A deterministic pseudo-random single-fault plan: `seed` fully
    /// determines the culprit, kind, destination, and trigger for a
    /// machine of `p` ranks. Useful for randomized robustness sweeps that
    /// must stay reproducible.
    pub fn seeded(seed: u64, p: usize) -> Self {
        assert!(p > 0, "fault plan needs at least one rank");
        let mut s = seed;
        let mut next = move || {
            // splitmix64: the same generator the search uses to derive
            // per-try seeds, so plans are portable across hosts.
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let rank = (next() % p as u64) as usize;
        let dst = if p == 1 { 0 } else { (rank + 1 + (next() % (p as u64 - 1)) as usize) % p };
        let action = match next() % 5 {
            0 => FaultAction::Crash,
            1 => FaultAction::Drop { dst },
            2 => FaultAction::Delay { dst, secs: 1.0 + (next() % 100) as f64 / 10.0 },
            3 => {
                FaultAction::Corrupt { dst, byte: (next() % 64) as usize, mask: (next() as u8) | 1 }
            }
            _ => FaultAction::DegradeLink { dst, factor: 2.0 + (next() % 8) as f64 },
        };
        let trigger = FaultTrigger::AtSendSeq(1 + next() % 32);
        FaultPlan::new(vec![FaultSpec { rank, action, trigger }])
    }
}

/// Record of a fault that actually fired, kept so *other* ranks can later
/// explain a hopeless wait with the culprit's coordinates.
#[derive(Debug, Clone)]
pub(crate) struct FailureRecord {
    pub kind: FaultKind,
    /// The culprit's message seq at the moment the fault fired.
    pub seq: u64,
    /// The culprit's active phase at the moment the fault fired.
    pub phase: String,
}

/// What the fault layer tells the sender of one message to do with it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SendDirective {
    /// `false`: discard the envelope instead of enqueueing it.
    pub dropped: bool,
    /// Extra virtual seconds added to the departure time.
    pub extra_delay: f64,
    /// Flip payload byte `.0 % len` with XOR mask `.1` (after checksum).
    pub corrupt: Option<(usize, u8)>,
    /// Active bandwidth slowdown on this link, if degraded.
    pub degrade_factor: Option<f64>,
}

/// Shared per-run fault state built by the engine from a [`FaultPlan`].
/// Every per-link table is sparse: it holds only the links a fault hit.
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Per-rank failure record; set by the culprit *before* it dies so a
    /// peer can never observe the death without its explanation.
    failed: Mutex<Vec<Option<FailureRecord>>>,
    /// First dropped message per (src, dst) link.
    dropped: Mutex<BTreeMap<(usize, usize), FailureRecord>>,
    /// Active slowdown factor per degraded (src, dst) link; `None` when no
    /// spec degrades a link, so a send takes no lock for it.
    degrade: Option<Mutex<BTreeMap<(usize, usize), f64>>>,
}

impl FaultState {
    pub fn new(plan: FaultPlan, p: usize) -> Self {
        let degrades =
            plan.specs.iter().any(|s| matches!(s.action, FaultAction::DegradeLink { .. }));
        FaultState {
            plan,
            failed: Mutex::new(vec![None; p]),
            dropped: Mutex::new(BTreeMap::new()),
            degrade: degrades.then(Mutex::default),
        }
    }

    pub fn virtual_timeout(&self) -> Option<f64> {
        self.plan.virtual_timeout
    }

    fn try_fire(&self, idx: usize) -> bool {
        !self.plan.fired[idx].swap(true, Ordering::Relaxed)
    }

    /// Check crash specs for `rank` at an injection checkpoint by
    /// [`FaultPlan::crash_now`]'s rule. `seq` is the rank's current send
    /// count (the next send would be `seq + 1`). On a hit the failure
    /// record is published, then returned so the comm layer can die with a
    /// typed error.
    pub fn crash_due(&self, rank: usize, seq: u64, now: f64, phase: &str) -> Option<FailureRecord> {
        if !self.plan.crash_now(rank, seq, now) {
            return None;
        }
        let rec = FailureRecord { kind: FaultKind::Crash, seq, phase: phase.to_string() };
        // lint:allow(unwrap): mutex poisoning only follows another panic
        self.failed.lock().expect("fault state lock")[rank] = Some(rec.clone());
        Some(rec)
    }

    /// Apply message-level faults to the send `src → dst` with seq `seq`.
    pub fn on_send(
        &self,
        src: usize,
        dst: usize,
        seq: u64,
        now: f64,
        phase: &str,
    ) -> SendDirective {
        let mut d = SendDirective::default();
        for (i, s) in self.plan.specs.iter().enumerate() {
            if s.rank != src {
                continue;
            }
            match s.action {
                FaultAction::Drop { dst: d2 }
                    if d2 == dst && s.trigger.reached(seq, now) && self.try_fire(i) =>
                {
                    d.dropped = true;
                    let rec =
                        FailureRecord { kind: FaultKind::Drop, seq, phase: phase.to_string() };
                    // lint:allow(unwrap): mutex poisoning only follows another panic
                    self.dropped.lock().expect("fault state lock").insert((src, dst), rec);
                }
                FaultAction::Delay { dst: d2, secs }
                    if d2 == dst && s.trigger.reached(seq, now) && self.try_fire(i) =>
                {
                    d.extra_delay += secs;
                }
                FaultAction::Corrupt { dst: d2, byte, mask }
                    if d2 == dst && s.trigger.reached(seq, now) && self.try_fire(i) =>
                {
                    d.corrupt = Some((byte, mask | 1));
                }
                FaultAction::DegradeLink { dst: d2, factor }
                    if d2 == dst && s.trigger.reached(seq, now) && self.try_fire(i) =>
                {
                    if let Some(degrade) = &self.degrade {
                        // lint:allow(unwrap): mutex poisoning only follows another panic
                        degrade.lock().expect("fault state lock").insert((src, dst), factor);
                    }
                }
                _ => {}
            }
        }
        if let Some(degrade) = &self.degrade {
            // lint:allow(unwrap): mutex poisoning only follows another panic
            d.degrade_factor = degrade.lock().expect("fault state lock").get(&(src, dst)).copied();
        }
        d
    }

    /// Explain why `me`'s wait on `src` can never be satisfied, if the
    /// fault record proves it: either `src` failed, or the link dropped a
    /// message and has nothing else in flight (`in_flight` counts the
    /// envelopes delivered to `me`'s mailbox from `src` and not yet
    /// pulled; dropped envelopes never reach a mailbox).
    pub fn diagnose_wait(&self, me: usize, src: usize, in_flight: usize) -> Option<SimError> {
        if let Some(err) = self.crashed(me, src) {
            return Some(err);
        }
        // lint:allow(unwrap): mutex poisoning only follows another panic
        let dropped = self.dropped.lock().expect("fault state lock");
        if let Some(rec) = dropped.get(&(src, me)) {
            if in_flight == 0 {
                return Some(SimError::PeerFailed {
                    rank: me,
                    peer: src,
                    kind: FaultKind::Drop,
                    seq: rec.seq,
                    phase: rec.phase.clone(),
                });
            }
        }
        None
    }

    /// Explain why `me`'s wait on `peer` can never be satisfied if `peer`
    /// failed.
    pub fn crashed(&self, me: usize, peer: usize) -> Option<SimError> {
        // lint:allow(unwrap): mutex poisoning only follows another panic
        let rec = self.failed.lock().expect("fault state lock")[peer].clone()?;
        Some(SimError::PeerFailed {
            rank: me,
            peer,
            kind: rec.kind,
            seq: rec.seq,
            phase: rec.phase,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_faults_fire_once_and_stay_spent_across_clones() {
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            action: FaultAction::Drop { dst: 0 },
            trigger: FaultTrigger::AtSendSeq(3),
        }]);
        let st = FaultState::new(plan.clone(), 2);
        assert!(!st.on_send(1, 0, 2, 0.0, "p").dropped);
        assert!(st.on_send(1, 0, 3, 0.0, "p").dropped);
        assert!(!st.on_send(1, 0, 4, 0.0, "p").dropped, "one-shot must not refire");
        // A fresh state over a *clone* of the plan sees the fault spent.
        let st2 = FaultState::new(plan.clone(), 2);
        assert!(!st2.on_send(1, 0, 3, 0.0, "p").dropped);
        assert_eq!(plan.fired_count(), 1);
        plan.reset();
        assert_eq!(plan.fired_count(), 0);
    }

    #[test]
    fn degraded_link_is_persistent() {
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 0,
            action: FaultAction::DegradeLink { dst: 1, factor: 4.0 },
            trigger: FaultTrigger::AtTime(1.0),
        }]);
        let st = FaultState::new(plan, 2);
        assert_eq!(st.on_send(0, 1, 1, 0.5, "p").degrade_factor, None);
        assert_eq!(st.on_send(0, 1, 2, 1.5, "p").degrade_factor, Some(4.0));
        // Still degraded long after the trigger fired once.
        assert_eq!(st.on_send(0, 1, 3, 9.0, "p").degrade_factor, Some(4.0));
    }

    #[test]
    fn drop_is_diagnosed_only_when_the_link_is_drained() {
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            action: FaultAction::Drop { dst: 0 },
            trigger: FaultTrigger::AtSendSeq(1),
        }]);
        let st = FaultState::new(plan, 2);
        assert!(st.on_send(1, 0, 1, 0.0, "estep").dropped);
        assert!(!st.on_send(1, 0, 2, 0.0, "estep").dropped);
        // One delivered message not yet pulled: the wait might be for it.
        assert!(st.diagnose_wait(0, 1, 1).is_none());
        // Link drained: the wait can only be for the dropped message.
        match st.diagnose_wait(0, 1, 0) {
            Some(SimError::PeerFailed { rank, peer, kind, seq, phase }) => {
                assert_eq!((rank, peer, kind, seq), (0, 1, FaultKind::Drop, 1));
                assert_eq!(phase, "estep");
            }
            other => panic!("expected PeerFailed, got {other:?}"),
        }
    }

    #[test]
    fn crash_record_names_seq_and_phase() {
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 2,
            action: FaultAction::Crash,
            trigger: FaultTrigger::AtTime(5.0),
        }]);
        let st = FaultState::new(plan, 4);
        assert!(st.crash_due(2, 7, 4.9, "mstep").is_none());
        let rec = st.crash_due(2, 7, 5.1, "mstep").expect("crash fires");
        assert_eq!((rec.kind, rec.seq, rec.phase.as_str()), (FaultKind::Crash, 7, "mstep"));
        assert!(st.crash_due(2, 8, 6.0, "mstep").is_none(), "crash is one-shot");
        // Peers asking about rank 2 get the record.
        assert!(matches!(
            st.diagnose_wait(0, 2, 0),
            Some(SimError::PeerFailed { peer: 2, kind: FaultKind::Crash, seq: 7, .. })
        ));
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 6);
        let b = FaultPlan::seeded(42, 6);
        assert_eq!(a.specs(), b.specs());
        let c = FaultPlan::seeded(43, 6);
        // Different seed, different plan (overwhelmingly likely; pinned).
        assert_ne!(a.specs(), c.specs());
        assert!(a.specs()[0].rank < 6);
    }
}
