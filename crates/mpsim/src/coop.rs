//! Cooperative virtual-time scheduler: the simulator's execution engine.
//!
//! Every rank body runs as a stackful fiber (see [`crate::fiber`]) on the
//! thread that called [`crate::run_spmd`], and that thread runs the
//! scheduler loop: take the runnable rank with the smallest virtual clock
//! ([`CoopShared::next_rank`]) and resume it until it blocks or finishes.
//! So exactly one rank runs at a time, a handoff is one stack switch to
//! the loop and one back into the next rank, and a blocked receive costs
//! nothing until its message arrives. Mailboxes are created lazily per
//! communicating pair, so memory scales with the communication graph
//! actually used, not with `P^2`.
//!
//! # Collectives at one rendezvous
//!
//! A collective moves no envelope. Each member lends its [`Seat`] — its
//! buffer, its message endpoint (clock, counters, event trace; swapped
//! in, not shared) and its call's plan key, kept by its `Comm` from one
//! collective to the next so that lending it allocates nothing — to the
//! meeting keyed by `(communicator id, sequence number)` and suspends.
//! The last member to arrive runs the whole plan on its own fiber
//! ([`schedule::run_central`]): the same folds in the same order, and per
//! member, in its program order, each message booked exactly as a
//! point-to-point message is — LogGP charges, counters, events, fault
//! plan, timeout and checksum checks, replay log. It then hands every
//! waiting member its seat back, marks it runnable at its new clock and
//! keeps running, so a collective costs one resume per member instead of
//! one handoff per message. Running the plan centrally changes no result
//! because the cost model keeps no link state: a member's charges depend
//! only on the plan and the members' clocks at arrival.
//!
//! A fault inside a collective stops a member's program at the step its
//! messages would have stopped it. A member left waiting on a message its
//! sender never sent then blocks as that receive (from that sender, with
//! the collective's tag), so a stall is diagnosed exactly as on the wire.
//!
//! # Scheduling discipline
//!
//! A rank runs until it *blocks* — a receive with an empty mailbox, a
//! send into a mailbox at its in-flight bound, or a rendezvous other
//! members have not reached yet — and then suspends back to the loop,
//! which resumes the runnable rank with the smallest frozen virtual clock
//! (rank id breaks ties; rank 0 runs first). Because this is a
//! conservative simulation in which every receive names its source, the
//! virtual-time results are schedule independent: the run queue's
//! ordering is a memory/locality heuristic (it keeps per-rank clocks
//! advancing roughly together), **not** a correctness requirement.
//!
//! # Stall rescue
//!
//! When no rank is runnable and at least one is blocked, the run can never
//! make progress — the scheduler *knows* this structurally, so it needs no
//! wall-clock timeout. The blocked rank diagnosed first (ascending rank
//! order) is resumed with a typed error: the fault layer gets the first
//! word (crashed/dropped peers), then the scheduler's own wait-for edges,
//! which always end in either a wait on a finished rank or a cycle. A rank
//! waiting at a rendezvous waits on the lowest member that has not
//! arrived, so a member that skips a collective is named, and one that
//! crashed is a failed peer.
//!
//! # Switching
//!
//! A rank marks itself blocked and releases the scheduler lock before it
//! suspends, and retakes the lock once resumed: no lock is ever held
//! across a switch, so the next rank on the thread never finds it taken.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::comm::{Envelope, Net};
use crate::error::SimError;
use crate::fiber;
use crate::replica::{Replicas, Scratch};
use crate::schedule::{self, Seat, Seating};

/// Outcome of a [`CoopShared::deposit`] that did not fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Deposit {
    /// The envelope is in the destination's mailbox.
    Delivered,
    /// The destination already finished or failed; the envelope was
    /// discarded.
    Closed,
}

/// Where a rank is in its lifecycle, from the scheduler's point of view.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RankStatus {
    /// Runnable; has exactly one entry on the run queue.
    Ready,
    /// Resumed by the scheduler loop and not yet blocked or finished.
    Running,
    /// Suspended in a blocking receive from `src` with `tag`. The `(src, me)`
    /// mailbox is empty for as long as this holds: the rank blocks only on
    /// an empty mailbox and is readied by the next deposit into it.
    RecvWait { src: usize, tag: u64 },
    /// Suspended in a send to `dst` whose mailbox is at the in-flight bound.
    SendWait { dst: usize },
    /// Suspended at the rendezvous of collective `seq` on communicator
    /// `comm`, waiting for the members that have not arrived yet.
    CollWait { comm: u64, seq: u64 },
    /// Returned from its body normally.
    Done,
    /// Unwound with an error.
    Failed,
}

impl RankStatus {
    fn is_blocked(&self) -> bool {
        matches!(
            self,
            RankStatus::RecvWait { .. } | RankStatus::SendWait { .. } | RankStatus::CollWait { .. }
        )
    }

    fn is_gone(&self) -> bool {
        matches!(self, RankStatus::Done | RankStatus::Failed)
    }
}

/// Run-queue entry: orders by smallest virtual clock, then smallest rank.
/// `BinaryHeap` is a max-heap, so the comparison is reversed here.
struct HeapEntry {
    clock: f64,
    rank: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.clock.total_cmp(&self.clock).then_with(|| other.rank.cmp(&self.rank))
    }
}

struct CoopState {
    /// Written only through [`CoopState::set_status`].
    status: Vec<RankStatus>,
    /// Ranks whose status is `SendWait`, so a finishing rank looks for
    /// senders parked on its mailboxes only while some sender is parked.
    send_waits: usize,
    /// Each rank's virtual clock, frozen when it last blocked;
    /// the run-queue key. Invariant: a `Ready` rank has exactly one heap
    /// entry, pushed with its current frozen clock, so entries are never
    /// stale.
    clocks: Vec<f64>,
    ready: BinaryHeap<HeapEntry>,
    /// Lazily created mailboxes: `(src, dst)` to the FIFO of envelopes in
    /// flight on that link.
    mail: BTreeMap<(usize, usize), VecDeque<Envelope>>,
    /// Error to hand a rank the next time it is scheduled (stall rescue or
    /// abort cascade).
    pending: Vec<Option<SimError>>,
    /// Largest number of envelopes any single mailbox ever held.
    high_water: usize,
    /// Collectives some but not all members have arrived at, by
    /// `(communicator id, sequence number)`.
    meetings: BTreeMap<(u64, u64), Meeting>,
    /// Each rank's seat back from a rendezvous that ran while it was
    /// blocked, until it is next resumed.
    inbox: Vec<Option<Box<Seat>>>,
}

impl CoopState {
    /// Set `rank`'s status, keeping [`CoopState::send_waits`] in step.
    fn set_status(&mut self, rank: usize, status: RankStatus) {
        let parked = |s: &RankStatus| usize::from(matches!(s, RankStatus::SendWait { .. }));
        self.send_waits = self.send_waits + parked(&status) - parked(&self.status[rank]);
        self.status[rank] = status;
    }
}

/// A collective some of its members have arrived at.
struct Meeting {
    /// World ranks of the members, ascending; `None` for the world.
    members: Option<Vec<usize>>,
    /// Deposited seats, by dense rank.
    seats: Vec<Option<Box<Seat>>>,
    arrived: usize,
}

impl Meeting {
    fn world(&self, dense: usize) -> usize {
        self.members.as_ref().map_or(dense, |m| m[dense])
    }

    /// World rank of the lowest member that has not arrived yet.
    fn first_missing(&self) -> Option<usize> {
        self.seats.iter().position(Option::is_none).map(|i| self.world(i))
    }
}

/// Shared state of one cooperative run: the scheduler proper plus the
/// wire its rendezvous books messages on and whose fault layer it
/// consults when the run stalls.
pub(crate) struct CoopShared {
    state: Mutex<CoopState>,
    /// Per-pair in-flight envelope bound; a sender at the bound blocks
    /// until the receiver drains (see
    /// [`crate::SimOptions::max_inflight_per_pair`]).
    max_inflight: usize,
    net: Arc<Net>,
    abort: Arc<AtomicBool>,
    /// Results of replicated derivations, kept for the members still to
    /// call (see [`crate::replica`]).
    pub(crate) replicas: Replicas,
    /// The scratch values lent to one member at a time (see
    /// [`crate::SpmdComm::with_scratch`]).
    pub(crate) scratch: Scratch,
}

impl CoopShared {
    pub(crate) fn new(
        p: usize,
        max_inflight: usize,
        net: Arc<Net>,
        abort: Arc<AtomicBool>,
    ) -> Self {
        assert!(p > 0, "cooperative scheduler needs at least one rank");
        // Every rank starts runnable at clock zero, so rank 0 runs first.
        let ready = (0..p).map(|rank| HeapEntry { clock: 0.0, rank }).collect();
        CoopShared {
            state: Mutex::new(CoopState {
                status: vec![RankStatus::Ready; p],
                send_waits: 0,
                clocks: vec![0.0; p],
                ready,
                mail: BTreeMap::new(),
                pending: (0..p).map(|_| None).collect(),
                high_water: 0,
                meetings: BTreeMap::new(),
                inbox: (0..p).map(|_| None).collect(),
            }),
            max_inflight: max_inflight.max(1),
            net,
            abort,
            replicas: Replicas::default(),
            scratch: Scratch::default(),
        }
    }

    /// The scheduler never panics while holding the lock, so a poisoned
    /// mutex still guards consistent state; recover it rather than
    /// cascading a secondary panic through every blocked rank.
    fn lock(&self) -> MutexGuard<'_, CoopState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Largest per-pair mailbox depth observed over the whole run.
    pub(crate) fn high_water(&self) -> usize {
        self.lock().high_water
    }

    fn make_ready(state: &mut CoopState, rank: usize) {
        debug_assert!(state.status[rank].is_blocked(), "only blocked ranks re-enter the queue");
        state.set_status(rank, RankStatus::Ready);
        let clock = state.clocks[rank];
        state.ready.push(HeapEntry { clock, rank });
    }

    /// The rank the scheduler loop resumes next: the runnable rank with
    /// the smallest virtual clock. If none is runnable but some rank is
    /// blocked, the run has stalled for good, so pick a victim and hand it
    /// a typed diagnosis instead. `None` once every rank has finished.
    pub(crate) fn next_rank(&self) -> Option<usize> {
        let state = &mut *self.lock();
        let next = match state.ready.pop() {
            Some(e) => e.rank,
            None if state.status.iter().any(RankStatus::is_blocked) => {
                let (victim, err) = self.diagnose_stall(state);
                state.pending[victim] = Some(err);
                victim
            }
            None => return None,
        };
        state.set_status(next, RankStatus::Running);
        Some(next)
    }

    /// Block `me` as `status` with its clock frozen at `now`: release the
    /// lock, suspend back to the scheduler loop, and retake the lock once
    /// resumed.
    fn block<'a>(
        &'a self,
        me: usize,
        status: RankStatus,
        now: f64,
        mut state: MutexGuard<'a, CoopState>,
    ) -> MutexGuard<'a, CoopState> {
        debug_assert!(status.is_blocked());
        state.set_status(me, status);
        state.clocks[me] = now;
        drop(state);
        fiber::suspend();
        self.lock()
    }

    /// Pick the victim of a provable stall and its typed error: the fault
    /// layer first, then the structural diagnosis on the scheduler's own
    /// wait edges. Total: at a stall every blocked rank's wait chain ends
    /// in a finished rank or a cycle.
    fn diagnose_stall(&self, state: &CoopState) -> (usize, SimError) {
        if let Some(fs) = &self.net.fault {
            for (r, status) in state.status.iter().enumerate() {
                let err = match *status {
                    RankStatus::RecvWait { src, .. } => {
                        let in_flight = state.mail.get(&(src, r)).map_or(0, VecDeque::len);
                        fs.diagnose_wait(r, src, in_flight)
                    }
                    RankStatus::CollWait { comm, seq } => state
                        .meetings
                        .get(&(comm, seq))
                        .and_then(Meeting::first_missing)
                        .and_then(|m| fs.crashed(r, m)),
                    _ => None,
                };
                if let Some(err) = err {
                    return (r, err);
                }
            }
        }
        self.structural_stall(state)
    }

    /// Deadlock diagnosis from the scheduler's own wait edges, covering
    /// receive waits and sends blocked on a bounded mailbox alike. Blocked
    /// ranks' mailboxes from their named source are empty by construction,
    /// so nothing is in flight: a wait on a finished rank is hopeless and a
    /// cycle is a deadlock.
    fn structural_stall(&self, state: &CoopState) -> (usize, SimError) {
        let p = state.status.len();
        let absent = |comm: u64, seq: u64| -> Option<usize> {
            state.meetings.get(&(comm, seq)).and_then(Meeting::first_missing)
        };
        let target = |r: usize| -> Option<usize> {
            match state.status[r] {
                RankStatus::RecvWait { src, .. } => Some(src),
                RankStatus::SendWait { dst } => Some(dst),
                RankStatus::CollWait { comm, seq } => absent(comm, seq),
                _ => None,
            }
        };
        let edge = |r: usize| -> String {
            match state.status[r] {
                RankStatus::RecvWait { src, tag, .. } => {
                    format!("rank {r} waits on rank {src} (tag {tag:#x})")
                }
                RankStatus::SendWait { dst } => {
                    format!("rank {r} waits to send to rank {dst} (mailbox at bound)")
                }
                RankStatus::CollWait { comm, seq } => match absent(comm, seq) {
                    Some(m) => format!(
                        "rank {r} waits on rank {m} (collective {seq} of communicator {comm:#x})"
                    ),
                    None => format!("rank {r}"),
                },
                _ => format!("rank {r}"),
            }
        };
        for r in 0..p {
            if let Some(on) = target(r) {
                if state.status[on].is_gone() {
                    let detail =
                        format!("{} which already finished; no message can ever arrive", edge(r));
                    return (r, SimError::Deadlock { rank: r, cycle: Vec::new(), detail });
                }
            }
        }
        // Every blocked rank waits on another blocked rank, so a walk from
        // the lowest blocked rank must close a cycle.
        let first_blocked = (0..p).find(|&r| state.status[r].is_blocked());
        // lint:allow(unwrap): at least one blocked rank exists at a stall
        let start = first_blocked.expect("stall has a blocked rank");
        let mut path = vec![start];
        let mut cur = start;
        let cycle = loop {
            // lint:allow(unwrap): blocked ranks always have a wait target
            let next = target(cur).expect("blocked rank has a wait target");
            if let Some(pos) = path.iter().position(|&r| r == next) {
                break path.split_off(pos);
            }
            path.push(next);
            cur = next;
        };
        // lint:allow(unwrap): a cycle is non-empty
        let victim = *cycle.iter().min().expect("cycle is non-empty");
        let detail = format!(
            "wait-for cycle: {}",
            cycle.iter().map(|&r| edge(r)).collect::<Vec<_>>().join("; ")
        );
        (victim, SimError::Deadlock { rank: victim, cycle, detail })
    }

    /// Take the next envelope `src` has in flight to `me`, or block until
    /// one arrives (or a stall rescue / abort cascade resumes `me` with an
    /// error). `now` freezes this rank's virtual clock for the scheduler.
    pub(crate) fn pull_or_block(
        &self,
        me: usize,
        src: usize,
        tag: u64,
        now: f64,
    ) -> Result<Envelope, SimError> {
        let mut state = self.lock();
        loop {
            if let Some(err) = state.pending[me].take() {
                return Err(err);
            }
            if let Some(env) = state.mail.get_mut(&(src, me)).and_then(VecDeque::pop_front) {
                // Draining may reopen a mailbox the sender is blocked on.
                if state.status[src] == (RankStatus::SendWait { dst: me }) {
                    Self::make_ready(&mut state, src);
                }
                return Ok(env);
            }
            state = self.block(me, RankStatus::RecvWait { src, tag }, now, state);
        }
    }

    /// Put `env` in flight from `me` to `dst`, blocking while the mailbox
    /// is at the in-flight bound. Depositing to a finished rank reports
    /// [`Deposit::Closed`] (a buffered send to a rank that will never
    /// receive again is legal; the caller unwinds its bookkeeping).
    pub(crate) fn deposit(
        &self,
        me: usize,
        dst: usize,
        env: Envelope,
        now: f64,
    ) -> Result<Deposit, SimError> {
        let mut state = self.lock();
        let mut env = Some(env);
        loop {
            if let Some(err) = state.pending[me].take() {
                return Err(err);
            }
            if state.status[dst].is_gone() {
                return Ok(Deposit::Closed);
            }
            let q = state.mail.entry((me, dst)).or_default();
            if q.len() < self.max_inflight {
                // lint:allow(unwrap): env is only taken on this returning path
                q.push_back(env.take().expect("envelope deposited once"));
                let depth = q.len();
                state.high_water = state.high_water.max(depth);
                if matches!(state.status[dst], RankStatus::RecvWait { src, .. } if src == me) {
                    Self::make_ready(&mut state, dst);
                }
                return Ok(Deposit::Delivered);
            }
            state = self.block(me, RankStatus::SendWait { dst }, now, state);
        }
    }

    /// Lend `me`'s seat to the rendezvous `at` and hand it back once
    /// the collective has run. Every member but the last blocks; the last
    /// to arrive runs the whole plan on its own fiber
    /// ([`schedule::run_central`]), hands each waiting member its seat,
    /// marks it runnable at its new clock and keeps running, so every
    /// member is resumed exactly once. A stall rescue or abort cascade
    /// resumes a waiting member with an error instead.
    pub(crate) fn meet(
        &self,
        me: usize,
        at: Seating<'_>,
        seat: Box<Seat>,
    ) -> Result<Box<Seat>, SimError> {
        let now = seat.ep.clock.now();
        let key = (at.comm, at.seq);
        let mut state = self.lock();
        if let Some(err) = state.pending[me].take() {
            return Err(err);
        }
        let p = state.status.len();
        let m = state.meetings.entry(key).or_insert_with(|| {
            let size = at.members.map_or(p, <[usize]>::len);
            Meeting {
                members: at.members.map(<[usize]>::to_vec),
                seats: (0..size).map(|_| None).collect(),
                arrived: 0,
            }
        });
        if m.seats.get(at.rank).is_none_or(Option::is_some) || m.world(at.rank) != me {
            let detail = format!(
                "rank {me} met collective {} of communicator {:#x} as member {} of {}, \
                 which does not match the members already there",
                at.seq,
                at.comm,
                at.rank,
                m.seats.len()
            );
            return Err(SimError::CollectiveMismatch { rank: me, detail });
        }
        m.seats[at.rank] = Some(seat);
        m.arrived += 1;
        if m.arrived == m.seats.len() {
            // lint:allow(unwrap): the entry was found or inserted above
            let mut m = state.meetings.remove(&key).expect("meeting is present");
            // Every other member is suspended, so the plan runs without the
            // lock.
            drop(state);
            let mut seats: Vec<Box<Seat>> =
                std::mem::take(&mut m.seats).into_iter().flatten().collect();
            schedule::run_central(&self.net, m.members.as_deref(), at.tag, &mut seats)?;
            let world = |i: usize| m.world(i);
            let mut state = self.lock();
            let mut mine = None;
            for (i, seat) in seats.into_iter().enumerate() {
                let r = world(i);
                if r == me {
                    mine = Some(seat);
                } else if state.status[r] == (RankStatus::CollWait { comm: at.comm, seq: at.seq }) {
                    state.clocks[r] = seat.ep.clock.now();
                    state.inbox[r] = Some(seat);
                    Self::make_ready(&mut state, r);
                }
            }
            // lint:allow(unwrap): the caller's own seat is among the members'
            return Ok(mine.expect("caller is a member"));
        }
        loop {
            state = self.block(me, RankStatus::CollWait { comm: at.comm, seq: at.seq }, now, state);
            if let Some(err) = state.pending[me].take() {
                return Err(err);
            }
            if let Some(seat) = state.inbox[me].take() {
                return Ok(seat);
            }
        }
    }

    /// Retire `me` from the run: mark it done or failed, make senders
    /// blocked on its mailboxes runnable (their deposit observes the
    /// closed endpoint), and cascade the abort to every blocked rank when
    /// the run is aborting (blocked ranks do not poll the abort flag, so
    /// the flag alone cannot reach them). The rank's body then returns to
    /// the scheduler loop.
    ///
    /// The engine must set the abort flag *before* calling this, so the
    /// cascade sees it.
    pub(crate) fn finish(&self, me: usize, failed: bool) {
        let mut state = self.lock();
        state.set_status(me, if failed { RankStatus::Failed } else { RankStatus::Done });
        state.pending[me] = None;
        let p = state.status.len();
        // Only a parked sender needs the scan: without one, finishing is
        // O(1) and a launch does not pay O(P²) for its ranks' returns.
        if state.send_waits > 0 {
            for r in 0..p {
                if state.status[r] == (RankStatus::SendWait { dst: me }) {
                    Self::make_ready(&mut state, r);
                }
            }
        }
        if failed && self.abort.load(Ordering::Relaxed) {
            // An injected RankCrashed does not set the abort flag, so the
            // peers live on and the failure-detection machinery (stall
            // rescue via the fault layer) gets to do its job.
            for r in 0..p {
                if state.status[r].is_blocked() {
                    state.pending[r] = Some(SimError::Aborted { rank: r });
                    Self::make_ready(&mut state, r);
                }
            }
        }
    }
}
