//! Cooperative virtual-time scheduler: the simulator's execution engine.
//!
//! Ranks live on OS threads (Rust has no stable coroutines), but at most
//! **one rank runs at a time**: a single baton is handed from rank to
//! rank, every other thread is parked on its own condvar, and a blocked
//! receive costs nothing until its message arrives. Mailboxes are created
//! lazily per communicating pair, so memory scales with the communication
//! graph actually used, not with `P^2`.
//!
//! # Collectives at one rendezvous
//!
//! On the default path (no fault plan, event recording, verifier or
//! replay log) a collective moves no envelope. Each member deposits a
//! [`Seat`] — its buffer, its clock (moved, not shared) and its call's
//! plan key — at the meeting keyed by `(communicator id, sequence
//! number)` and parks. The last member to arrive runs the whole plan on
//! its own thread ([`schedule::run_central`]): the same folds in the same
//! order, and per member, in its program order, the same LogGP charges
//! the plan's messages would make. It then hands every parked member its
//! seat back, marks it runnable at its new clock and keeps running, so a
//! collective costs one wake per member instead of one handoff per
//! message. Logical messages are still counted in every member's
//! statistics. Running the plan centrally changes no result because the
//! cost model keeps no link state: a member's charges depend only on the
//! plan and the members' clocks at arrival.
//!
//! # Scheduling discipline
//!
//! A rank runs until it *blocks* — a receive with an empty mailbox, a
//! send into a mailbox at its in-flight bound, or a rendezvous other
//! members have not reached yet — and then hands the baton
//! to the runnable rank with the smallest frozen virtual clock (rank id
//! breaks ties). Because this is a conservative simulation in which every
//! receive names its source, the virtual-time results are schedule
//! independent: the run queue's ordering is a memory/locality heuristic
//! (it keeps per-rank clocks advancing roughly together), **not** a
//! correctness requirement.
//!
//! # Stall rescue
//!
//! When no rank is runnable and at least one is blocked, the run can never
//! make progress — the scheduler *knows* this structurally, so it needs no
//! wall-clock timeout. The blocked rank diagnosed first (ascending rank
//! order) is woken with a typed error: the fault layer gets the first word
//! (crashed/dropped peers), then the scheduler's own wait-for edges, which
//! always end in either a wait on a finished rank or a cycle. A rank
//! parked at a rendezvous waits on the lowest member that has not
//! arrived, so a member that skips a collective is named.
//!
//! # Handoff
//!
//! A handoff picks the next rank under the scheduler lock but wakes it
//! only after releasing the lock, so the woken thread never blocks on a
//! mutex its waker still holds: one wake, one sleep. The waker then waits
//! for the baton with a predicate loop, so a baton handed back before it
//! sleeps is not lost.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::comm::Envelope;
use crate::cost::MachineSpec;
use crate::error::SimError;
use crate::fault::FaultState;
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
    /// Holds the baton.
    Running,
    /// Parked in a blocking receive from `src` with `tag`. The `(src, me)`
    /// mailbox is empty for as long as this holds: the rank parks only on
    /// an empty mailbox and is readied by the next deposit into it.
    RecvWait { src: usize, tag: u64 },
    /// Parked in a send to `dst` whose mailbox is at the in-flight bound.
    SendWait { dst: usize },
    /// Parked at the rendezvous of collective `seq` on communicator
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
    /// The rank currently holding the baton; `None` only transiently
    /// inside a handoff (or at the end of the run).
    running: Option<usize>,
    status: Vec<RankStatus>,
    /// Each rank's virtual clock, frozen when it last gave up the baton;
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
    /// parked, until it next holds the baton.
    inbox: Vec<Option<Box<Seat>>>,
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
/// fault layer it consults when the run stalls.
pub(crate) struct CoopShared {
    state: Mutex<CoopState>,
    /// One condvar per rank: each parked thread waits only on its own, so
    /// a handoff wakes exactly the intended thread.
    cvs: Vec<Condvar>,
    /// Per-pair in-flight envelope bound; a sender at the bound parks
    /// until the receiver drains (see
    /// [`crate::SimOptions::max_inflight_per_pair`]).
    max_inflight: usize,
    fault: Option<Arc<FaultState>>,
    abort: Arc<AtomicBool>,
}

impl CoopShared {
    pub(crate) fn new(
        p: usize,
        max_inflight: usize,
        fault: Option<Arc<FaultState>>,
        abort: Arc<AtomicBool>,
    ) -> Self {
        assert!(p > 0, "cooperative scheduler needs at least one rank");
        let mut status = vec![RankStatus::Ready; p];
        // Seed the run queue with every rank at clock zero except rank 0,
        // which is born holding the baton.
        status[0] = RankStatus::Running;
        let ready = (1..p).map(|rank| HeapEntry { clock: 0.0, rank }).collect();
        CoopShared {
            state: Mutex::new(CoopState {
                running: Some(0),
                status,
                clocks: vec![0.0; p],
                ready,
                mail: BTreeMap::new(),
                pending: (0..p).map(|_| None).collect(),
                high_water: 0,
                meetings: BTreeMap::new(),
                inbox: (0..p).map(|_| None).collect(),
            }),
            cvs: (0..p).map(|_| Condvar::new()).collect(),
            max_inflight: max_inflight.max(1),
            fault,
            abort,
        }
    }

    /// The scheduler never panics while holding the lock, so a poisoned
    /// mutex still guards consistent state; recover it rather than
    /// cascading a secondary panic through every parked rank.
    fn lock(&self) -> MutexGuard<'_, CoopState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn wait_for_baton<'a>(
        &'a self,
        me: usize,
        mut state: MutexGuard<'a, CoopState>,
    ) -> MutexGuard<'a, CoopState> {
        while state.running != Some(me) {
            state = self.cvs[me].wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        state
    }

    /// Park the calling rank's thread until it is first scheduled.
    pub(crate) fn wait_first_turn(&self, me: usize) {
        let state = self.lock();
        drop(self.wait_for_baton(me, state));
    }

    /// Largest per-pair mailbox depth observed over the whole run.
    pub(crate) fn high_water(&self) -> usize {
        self.lock().high_water
    }

    fn make_ready(state: &mut CoopState, rank: usize) {
        debug_assert!(state.status[rank].is_blocked(), "only blocked ranks re-enter the queue");
        state.status[rank] = RankStatus::Ready;
        let clock = state.clocks[rank];
        state.ready.push(HeapEntry { clock, rank });
    }

    /// Give the baton to the runnable rank with the smallest virtual
    /// clock; if none is runnable but some rank is blocked, the run has
    /// stalled for good — pick a victim and hand it a typed diagnosis
    /// instead. Returns the rank to wake, which the caller must do with
    /// [`Self::handoff`] or [`Self::wake`] *after* releasing the lock.
    fn schedule_next(&self, state: &mut CoopState) -> Option<usize> {
        debug_assert!(state.running.is_none());
        let next = match state.ready.pop() {
            Some(e) => e.rank,
            None if state.status.iter().any(RankStatus::is_blocked) => {
                let (victim, err) = self.diagnose_stall(state);
                state.pending[victim] = Some(err);
                victim
            }
            None => return None,
        };
        state.status[next] = RankStatus::Running;
        state.running = Some(next);
        Some(next)
    }

    fn wake(&self, next: Option<usize>) {
        if let Some(next) = next {
            self.cvs[next].notify_one();
        }
    }

    /// Give up the baton from `me` (already marked blocked and scheduled
    /// away from): release the lock, wake `next`, and park until the
    /// baton comes back. A stall rescue that picked `me` itself needs no
    /// wake and keeps the lock.
    fn handoff<'a>(
        &'a self,
        me: usize,
        next: Option<usize>,
        state: MutexGuard<'a, CoopState>,
    ) -> MutexGuard<'a, CoopState> {
        if next == Some(me) {
            return state;
        }
        drop(state);
        self.wake(next);
        self.wait_for_baton(me, self.lock())
    }

    /// Pick the victim of a provable stall and its typed error: the fault
    /// layer first, then the structural diagnosis on the scheduler's own
    /// wait edges. Total: at a stall every blocked rank's wait chain ends
    /// in a finished rank or a cycle.
    fn diagnose_stall(&self, state: &CoopState) -> (usize, SimError) {
        if let Some(fs) = &self.fault {
            for (r, status) in state.status.iter().enumerate() {
                if let RankStatus::RecvWait { src, .. } = *status {
                    let in_flight = state.mail.get(&(src, r)).map_or(0, VecDeque::len);
                    if let Some(err) = fs.diagnose_wait(r, src, in_flight) {
                        return (r, err);
                    }
                }
            }
        }
        self.structural_stall(state)
    }

    /// Deadlock diagnosis from the scheduler's own wait edges, covering
    /// receive waits and sends parked on a bounded mailbox alike. Blocked
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

    /// Take the next envelope `src` has in flight to `me`, or park until
    /// one arrives (or a stall rescue / abort cascade wakes `me` with an
    /// error). `now` freezes this rank's virtual clock for the scheduler.
    ///
    /// The mailbox check and the park happen under one lock acquisition,
    /// so a deposit can never slip between "saw it empty" and "parked"
    /// (the classic lost wakeup).
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
                // Draining may reopen a mailbox the sender is parked on.
                if state.status[src] == (RankStatus::SendWait { dst: me }) {
                    Self::make_ready(&mut state, src);
                }
                return Ok(env);
            }
            state.status[me] = RankStatus::RecvWait { src, tag };
            state.clocks[me] = now;
            state.running = None;
            let next = self.schedule_next(&mut state);
            state = self.handoff(me, next, state);
        }
    }

    /// Put `env` in flight from `me` to `dst`, parking while the mailbox
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
            state.status[me] = RankStatus::SendWait { dst };
            state.clocks[me] = now;
            state.running = None;
            let next = self.schedule_next(&mut state);
            state = self.handoff(me, next, state);
        }
    }

    /// Deposit `me`'s seat at the rendezvous `at` and take it back once
    /// the collective has run. Every member but the last parks; the last
    /// to arrive runs the whole plan on its own thread
    /// ([`schedule::run_central`]), hands each parked member its seat,
    /// marks it runnable at its new clock and keeps the baton, so every
    /// member is woken exactly once, by an ordinary handoff. A stall
    /// rescue or abort cascade wakes a parked member with an error
    /// instead.
    pub(crate) fn meet(
        &self,
        me: usize,
        at: Seating<'_>,
        seat: Box<Seat>,
        spec: &MachineSpec,
    ) -> Result<Box<Seat>, SimError> {
        let now = seat.clock.now();
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
            // Every other rank is parked, so the plan runs without the lock.
            drop(state);
            let mut seats: Vec<Box<Seat>> =
                std::mem::take(&mut m.seats).into_iter().flatten().collect();
            let world = |i: usize| m.world(i);
            schedule::run_central(spec, &world, &mut seats)?;
            let mut state = self.lock();
            let mut mine = None;
            for (i, seat) in seats.into_iter().enumerate() {
                let r = world(i);
                if r == me {
                    mine = Some(seat);
                } else if state.status[r] == (RankStatus::CollWait { comm: at.comm, seq: at.seq }) {
                    state.clocks[r] = seat.clock.now();
                    state.inbox[r] = Some(seat);
                    Self::make_ready(&mut state, r);
                }
            }
            // lint:allow(unwrap): the caller's own seat is among the members'
            return Ok(mine.expect("caller is a member"));
        }
        loop {
            state.status[me] = RankStatus::CollWait { comm: at.comm, seq: at.seq };
            state.clocks[me] = now;
            state.running = None;
            let next = self.schedule_next(&mut state);
            state = self.handoff(me, next, state);
            if let Some(err) = state.pending[me].take() {
                return Err(err);
            }
            if let Some(seat) = state.inbox[me].take() {
                return Ok(seat);
            }
        }
    }

    /// Retire `me` from the run: mark it done or failed, wake senders
    /// parked on its mailboxes (their deposit observes the closed
    /// endpoint), cascade the abort to every parked rank when the run is
    /// aborting (parked ranks no longer poll the abort flag, so the flag
    /// alone cannot reach them), and hand the baton on.
    ///
    /// The engine must set the abort flag *before* calling this, so the
    /// cascade sees it.
    pub(crate) fn finish(&self, me: usize, failed: bool) {
        let mut state = self.lock();
        state.status[me] = if failed { RankStatus::Failed } else { RankStatus::Done };
        state.pending[me] = None;
        let p = state.status.len();
        for r in 0..p {
            if state.status[r] == (RankStatus::SendWait { dst: me }) {
                Self::make_ready(&mut state, r);
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
        if state.running == Some(me) {
            state.running = None;
            let next = self.schedule_next(&mut state);
            drop(state);
            self.wake(next);
        }
    }
}
