//! The per-rank communicator: point-to-point messaging with virtual time.
//!
//! A [`Comm`] is handed to each rank's closure by the SPMD engine. It plays
//! the role of `MPI_COMM_WORLD`: it implements [`SpmdComm`] and
//! [`Communicator`] — the rank, the communicator size, blocking and
//! non-blocking point-to-point messages — and the schedules' hooks
//! ([`crate::collectives`]), so every collective the traits provide runs
//! on it.
//!
//! A shared collective is a plan (see [`crate::schedule`]) run at one
//! rendezvous of its members (see `crate::coop`): the rank lends its
//! buffer and its endpoint — clock, counters, event trace — to the
//! meeting, and the last member to arrive runs the plan for all of them.
//! Every message of a run, point-to-point or inside a collective, is
//! booked by the same two methods, `Endpoint::send` and
//! `Endpoint::recv`: the LogGP charge, the counters, the event, the fault
//! plan's checkpoints and directives, the timeout and checksum checks
//! and the replay-ring record.
//!
//! # Virtual time
//!
//! Real values move between ranks — point-to-point through the
//! cooperative scheduler's per-pair mailboxes, collectives at their
//! rendezvous (see `crate::coop`) — but *time* is modeled: the
//! sender charges endpoint overhead and stamps the message with its
//! departure time; the receiver advances to
//! `max(own clock, departure + transit)` (waiting counts as idle time) and
//! then charges its own endpoint overhead. Transit time comes from the
//! machine's [`crate::cost::NetworkModel`] and topology hop count. This is
//! a conservative parallel simulation: because every `recv` names its
//! source, virtual timestamps never need roll-back.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::clock::Clock;
use crate::collectives::ReduceOp;
use crate::coop::{CoopShared, Deposit};
use crate::cost::AllreduceAlgo;
use crate::cost::MachineSpec;
use crate::error::SimError;
use crate::fault::FaultState;
use crate::ledger::PhaseLedger;
use crate::payload::{checksum_f64s, DecodeError};
use crate::replay::{ReplayEntry, ReplayLog};
use crate::replica::ReplicaKey;
use crate::schedule::{Buf, PlanKey, Seat, Seating, Stop};
use crate::trace::{Event, EventKind, RankStats};
use crate::traits::{Communicator, SpmdComm};
use crate::verify::{hash_f64s, CollFingerprint, VerifyState, USER_REPL_COMM, WORLD_COMM};

/// Highest tag value available to user point-to-point messages. Collectives
/// use tags above this range so that user traffic can never be confused
/// with collective traffic.
pub const MAX_USER_TAG: u64 = (1 << 32) - 1;

/// Panic payload used internally to carry a structured error out of a rank.
pub(crate) struct AbortPanic(pub SimError);

/// A message on the simulated wire.
#[derive(Debug)]
pub(crate) struct Envelope {
    pub tag: u64,
    pub stamp: Stamp,
    pub data: Vec<f64>,
}

/// What the wire attaches to a message that left its sender.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp {
    /// Sender's per-rank message sequence number (1-based): its send
    /// count, so integrity and failure errors can name the exact message.
    pub seq: u64,
    /// Sender's virtual time at which the message left the NIC.
    pub depart: f64,
    /// FNV-1a checksum of the payload as sent, stamped only when a fault
    /// plan is active (0 otherwise) and checked on arrival.
    pub sum: u64,
    /// Checksum of the payload as it arrives: `sum` unless the fault plan
    /// corrupted it.
    pub found: u64,
}

/// What every message of a run is charged against, shared by its ranks:
/// the machine, and the fault plan and replay log when installed.
pub(crate) struct Net {
    pub spec: MachineSpec,
    pub fault: Option<FaultState>,
    pub replay: Option<ReplayLog>,
}

/// Handle for a non-blocking collective, on either backend.
///
/// On [`Comm`] the collective progresses in *virtual* time while the rank
/// keeps computing: endpoint overhead (LogGP `o`) was charged on the CPU
/// clock at post, and the wire time (`L`/`g`/`G`) elapses concurrently
/// with subsequent [`SpmdComm::work`]. [`Communicator::wait`] blocks only
/// for whatever wire time has not yet been hidden, and credits the hidden
/// portion to the clock's overlap shadow accounting. A backend with no
/// deferred wire (the native one) posts requests complete at post.
///
/// Every request must be retired by exactly one [`Communicator::wait`] (or
/// [`Communicator::waitall`]): waiting twice fails the run with the
/// backend's typed error ([`SimError::RequestMisuse`] here), and dropping
/// an unwaited request panics the owning rank — both name the culprit
/// rank.
#[derive(Debug)]
#[must_use = "non-blocking requests must be retired with wait / waitall"]
pub struct Request {
    rank: usize,
    /// Time at post (after idle retraction): start of the window during
    /// which the operation's wire time can hide behind other work.
    window_start: f64,
    /// Time at which the operation's wire activity finishes.
    completion: f64,
    done: bool,
}

impl Request {
    /// A request posted by `rank` whose wire activity runs from
    /// `window_start` to `completion` (equal for one complete at post).
    pub fn new(rank: usize, window_start: f64, completion: f64) -> Self {
        Request { rank, window_start, completion, done: false }
    }

    /// Retire the request, returning its `(window_start, completion)`
    /// window; a second retirement is `Err` with the detail the backend's
    /// typed misuse error carries.
    pub fn retire(&mut self) -> Result<(f64, f64), String> {
        if self.done {
            return Err(format!("request posted at t={:.9}s waited twice", self.window_start));
        }
        self.done = true;
        Ok((self.window_start, self.completion))
    }
}

impl Drop for Request {
    fn drop(&mut self) {
        // Dropping an unretired request loses its completion accounting:
        // fail loudly, naming the culprit rank. Suppressed while already
        // panicking so request cleanup during an abort cannot mask the
        // original error.
        if !self.done && !std::thread::panicking() {
            panic!("rank {}: non-blocking request dropped without wait", self.rank);
        }
    }
}

/// One rank's end of the wire: its clock, its phase ledger and everything
/// a message it sends or receives is booked into. A [`Comm`] owns one and
/// lends it to each rendezvous, where the plan's messages are booked into
/// it by the same methods that book the envelopes
/// [`Communicator::send_f64s`] and [`Communicator::recv_f64s`] move. The default is the stand-in a [`Seat`]
/// holds while its member keeps its own endpoint.
#[derive(Debug)]
pub(crate) struct Endpoint {
    /// World rank.
    pub rank: usize,
    pub clock: Clock,
    /// Messages sent so far, across phases: the last one's sequence
    /// number.
    sent: u64,
    /// The phase buckets every advance of the clock and every message is
    /// also booked into, and the open phase spans.
    ledger: PhaseLedger,
    /// Message event trace; `None` when tracing is disabled.
    events: Option<Vec<Event>>,
}

impl Default for Endpoint {
    /// The stand-in: allocates nothing, and nothing is booked into it.
    fn default() -> Self {
        Endpoint {
            rank: 0,
            clock: Clock::default(),
            sent: 0,
            ledger: PhaseLedger::empty(),
            events: None,
        }
    }
}

impl Endpoint {
    fn new(rank: usize, record_events: bool) -> Self {
        Endpoint {
            rank,
            clock: Clock::new(),
            sent: 0,
            ledger: PhaseLedger::new(),
            events: record_events.then(Vec::new),
        }
    }

    /// Advance the clock by `dt` seconds of computation, in the phase.
    #[inline]
    fn compute(&mut self, dt: f64) {
        self.ledger.bucket().compute += self.clock.advance_compute(dt);
    }

    /// Advance the clock by `dt` seconds of endpoint work, in the phase.
    #[inline]
    fn comm(&mut self, dt: f64) {
        self.ledger.bucket().comm += self.clock.advance_comm(dt);
    }

    /// Idle until time `t`, in the phase.
    #[inline]
    fn wait_until(&mut self, t: f64) {
        self.ledger.bucket().idle += self.clock.wait_until(t);
    }

    #[inline]
    fn event(&mut self, kind: EventKind, peer: usize, bytes: usize, tag: u64) {
        if let Some(events) = &mut self.events {
            events.push(Event { t: self.clock.now(), kind, peer, bytes, tag });
        }
    }

    /// Fault-injection checkpoint (send entry, receive entry,
    /// [`SpmdComm::work`]): the typed error this rank dies with when the fault
    /// plan crashes it now. Its failure record is published before this
    /// returns, so no peer can observe the death without its explanation.
    #[inline]
    pub fn crash(&self, net: &Net) -> Option<SimError> {
        let fs = net.fault.as_ref()?;
        let rec = fs.crash_due(self.rank, self.sent, self.clock.now(), self.ledger.current())?;
        Some(SimError::RankCrashed { rank: self.rank, seq: rec.seq, phase: rec.phase })
    }

    /// Book a send of `data` to `dst` with `tag`: count it, charge
    /// endpoint overhead, record the event, then apply the fault plan's
    /// directive for it. Returns the message's stamp, or `None` when the
    /// wire drops it: the sender has charged all its costs and believes
    /// the message left.
    #[inline]
    pub fn send(&mut self, net: &Net, dst: usize, tag: u64, data: &[f64]) -> Option<Stamp> {
        let len = 8 * data.len();
        self.sent += 1;
        let b = self.ledger.bucket();
        b.msgs_sent += 1;
        b.bytes_sent += len as u64;
        self.comm(net.spec.network.overhead);
        self.event(EventKind::Send, dst, len, tag);
        let (seq, now) = (self.sent, self.clock.now());
        let (depart, sum, found) = match &net.fault {
            None => (now, 0, 0),
            Some(fs) => self.faulted(net, fs, dst, data, seq)?,
        };
        Some(Stamp { seq, depart, sum, found })
    }

    /// Apply the fault plan's directive to message `seq`, `data` to `dst`,
    /// leaving now: its departure and its checksums as sent and as they
    /// arrive, or `None` when the wire drops it.
    fn faulted(
        &self,
        net: &Net,
        fs: &FaultState,
        dst: usize,
        data: &[f64],
        seq: u64,
    ) -> Option<(f64, u64, u64)> {
        let len = 8 * data.len();
        let mut depart = self.clock.now();
        let d = fs.on_send(self.rank, dst, seq, depart, self.ledger.current());
        let clean = checksum_f64s(data, None);
        let (sum, found) = match d.corrupt {
            None => (clean, clean),
            // Nothing to flip: corrupt the checksum instead so the fault
            // is still observable on arrival.
            Some((_, mask)) if len == 0 => (clean ^ u64::from(mask), clean),
            Some((byte, mask)) => (clean, checksum_f64s(data, Some((byte % len, mask)))),
        };
        depart += d.extra_delay;
        if let Some(factor) = d.degrade_factor {
            // Inflate departure by the extra per-byte wire time of the
            // degraded link; latency and endpoint overhead are as built.
            let per_byte =
                net.spec.transit(len, self.rank, dst) - net.spec.transit(0, self.rank, dst);
            depart += (factor - 1.0) * per_byte;
        }
        (!d.dropped).then_some((depart, sum, found))
    }

    /// Virtual time at which a message of `len` bytes from `src` stamped
    /// `stamp` arrives here.
    #[inline]
    fn arrival(&self, net: &Net, src: usize, len: usize, stamp: &Stamp) -> f64 {
        stamp.depart + net.spec.transit(len, src, self.rank)
    }

    /// The fault plan's virtual-time timeout and checksum verification
    /// of a message from `src` this rank waits for until `arrival`.
    fn check(
        &self,
        fs: &FaultState,
        src: usize,
        stamp: &Stamp,
        arrival: f64,
    ) -> Result<(), SimError> {
        if let Some(limit) = fs.virtual_timeout() {
            let waited = arrival - self.clock.now();
            if waited > limit {
                let phase = self.ledger.current().to_string();
                let (rank, seq) = (self.rank, stamp.seq);
                return Err(SimError::Timeout { rank, from: src, seq, waited, limit, phase });
            }
        }
        if stamp.found != stamp.sum {
            let cause = DecodeError::ChecksumMismatch { expected: stamp.sum, found: stamp.found };
            return Err(SimError::PayloadCorrupt {
                rank: self.rank,
                from: src,
                seq: stamp.seq,
                cause,
            });
        }
        Ok(())
    }

    /// Book a message delivered from `src`: count it, record the event,
    /// and log its coordinates into the replay ring when one is
    /// installed, charging the bounded-ring write on this rank's clock —
    /// recovery logging is not free.
    #[inline]
    fn delivered(&mut self, net: &Net, src: usize, tag: u64, len: usize, stamp: &Stamp) {
        let b = self.ledger.bucket();
        b.msgs_recvd += 1;
        b.bytes_recvd += len as u64;
        self.event(EventKind::Recv, src, len, tag);
        let Some(log) = &net.replay else { return };
        let entry =
            ReplayEntry { src, tag, seq: stamp.seq, at: self.sent, checksum: stamp.sum, len };
        log.record(self.rank, entry);
        let dt =
            ReplayLog::WRITE_OPS as f64 * net.spec.compute.sec_per_op / net.spec.speed(self.rank);
        self.compute(dt);
    }

    /// Book the blocking receive of a message of `len` bytes from `src`:
    /// check it, idle until it arrives, charge endpoint overhead, and book
    /// its delivery.
    #[inline]
    pub fn recv(
        &mut self,
        net: &Net,
        src: usize,
        tag: u64,
        len: usize,
        stamp: &Stamp,
    ) -> Result<(), SimError> {
        let arrival = self.arrival(net, src, len, stamp);
        if let Some(fs) = &net.fault {
            self.check(fs, src, stamp, arrival)?;
        }
        self.wait_until(arrival);
        self.comm(net.spec.network.overhead);
        self.delivered(net, src, tag, len, stamp);
        Ok(())
    }
}

/// Per-rank communicator for one SPMD run. Not `Clone`: exactly one per
/// rank, mirroring an MPI process.
pub struct Comm {
    rank: usize,
    size: usize,
    /// The machine, fault plan and replay log every message is charged
    /// against.
    net: Arc<Net>,
    /// This rank's clock, counters and event trace.
    ep: Endpoint,
    /// The scheduler and mailboxes shared by every rank of the run.
    coop: Arc<CoopShared>,
    /// Messages received out of tag order, keyed by source, in arrival
    /// order. Lazily created so an idle pair costs nothing at large `P`.
    stash: BTreeMap<usize, VecDeque<Envelope>>,
    abort: Arc<AtomicBool>,
    /// Monotone counter giving every collective call a unique tag; all
    /// ranks must invoke collectives in the same order (SPMD discipline),
    /// exactly as MPI requires.
    pub(crate) coll_seq: u64,
    /// Monotone counter for user-level [`SpmdComm::verify_replicated`] calls.
    repl_seq: u64,
    /// Shared verification state; `None` when every check is disabled.
    pub(crate) verify: Option<Arc<VerifyState>>,
    /// Completion horizon of non-blocking collectives already posted:
    /// later posts may not complete before earlier ones (the wire is
    /// FIFO per endpoint), so each new completion is clamped to at least
    /// this value.
    nb_horizon: f64,
    /// This rank's seat at the rendezvous, lent to each meeting and taken
    /// back after it, so a collective allocates nothing per member: its
    /// buffer is refilled in place and its endpoint swapped in and out.
    /// Made at the first meeting.
    seat: Option<Box<Seat>>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        net: Arc<Net>,
        coop: Arc<CoopShared>,
        abort: Arc<AtomicBool>,
        record_events: bool,
        verify: Option<Arc<VerifyState>>,
    ) -> Self {
        let size = net.spec.p;
        Comm {
            rank,
            size,
            net,
            ep: Endpoint::new(rank, record_events),
            coop,
            stash: BTreeMap::new(),
            abort,
            coll_seq: 0,
            repl_seq: 0,
            verify,
            nb_horizon: 0.0,
            seat: None,
        }
    }

    /// Run `f`, measure its wall-clock duration, and charge it (scaled by
    /// [`crate::cost::ComputeModel::wall_scale`]) as virtual compute time.
    pub fn measured<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let dt = start.elapsed().as_secs_f64() * self.net.spec.compute.wall_scale;
        self.ep.compute(dt);
        out
    }

    fn check_abort(&self) {
        if self.abort.load(Ordering::Relaxed) {
            std::panic::panic_any(AbortPanic(SimError::Aborted { rank: self.rank }));
        }
    }

    pub(crate) fn fail(&self, err: SimError) -> ! {
        self.abort.store(true, Ordering::Relaxed);
        std::panic::panic_any(AbortPanic(err));
    }

    /// Die with `err`, an injected crash. Deliberately does *not* set the
    /// shared abort flag — the peers must detect the failure through the
    /// fault records (that detection path is the machinery under test),
    /// not be torn down by the engine.
    fn die(err: SimError) -> ! {
        std::panic::panic_any(AbortPanic(err));
    }

    /// Fault-injection checkpoint: die here when the plan says this rank
    /// crashes now.
    fn fault_checkpoint(&self) {
        if let Some(err) = self.ep.crash(&self.net) {
            Self::die(err);
        }
    }

    /// Take the next envelope from `src` with exactly `tag` off the wire
    /// (or the stash), parking until the scheduler delivers it. No
    /// virtual-time or statistics bookkeeping happens here; callers pair
    /// this with [`Endpoint::recv`] (blocking receive) or the non-blocking
    /// completion path in [`Communicator::wait`].
    fn pull_envelope(&mut self, src: usize, tag: u64) -> Envelope {
        assert!(src < self.size, "recv from rank {src} but size is {}", self.size);
        self.fault_checkpoint();
        // First consume any stashed message with a matching tag.
        if let Some(q) = self.stash.get_mut(&src) {
            if let Some(pos) = q.iter().position(|e| e.tag == tag) {
                // lint:allow(unwrap): the index came from position() on the same deque
                return q.remove(pos).expect("position is valid");
            }
        }
        self.await_envelope(src, tag)
    }

    /// Park until the scheduler delivers the next envelope from `src` with
    /// exactly `tag`, stashing others from `src`. No wall-clock deadline:
    /// a wait that can never be satisfied is detected structurally the
    /// moment the run has no runnable rank, and surfaces here as a typed
    /// error.
    fn await_envelope(&mut self, src: usize, tag: u64) -> Envelope {
        loop {
            self.check_abort();
            match self.coop.pull_or_block(self.rank, src, tag, self.ep.clock.now()) {
                Ok(env) if env.tag == tag => return env,
                Ok(env) => self.stash.entry(src).or_default().push_back(env),
                Err(err) => self.fail(err),
            }
        }
    }

    /// Split a completed overlap window `[window_start, completion]` into
    /// its hidden part (elapsed behind other work since the post — shadow
    /// accounting) and its exposed remainder (charged as idle).
    fn finish_window(&mut self, window_start: f64, completion: f64) {
        let ep = &mut self.ep;
        let hidden = (completion.min(ep.clock.now()) - window_start).max(0.0);
        ep.ledger.bucket().hidden_comm += ep.clock.add_overlap(hidden);
        ep.wait_until(completion);
    }

    /// Turn an eagerly-executed collective into a non-blocking request.
    ///
    /// The caller ran the full blocking movement (so buffers, messages,
    /// fingerprints, and replication hashes are exactly those of the
    /// blocking call); this retracts the idle the movement charged —
    /// leaving endpoint overhead on the CPU clock per LogGP — and records
    /// the as-if-blocking finish as the request's completion, clamped to
    /// the FIFO horizon of earlier posts.
    fn nb_retract(&mut self, idle_before: f64) -> Request {
        let ep = &mut self.ep;
        let finish = ep.clock.now();
        let idle_delta = ep.clock.idle() - idle_before;
        let bucket = ep.ledger.bucket();
        bucket.idle -= ep.clock.retract_idle(idle_delta, bucket.idle);
        let completion = finish.max(self.nb_horizon);
        self.nb_horizon = completion;
        Request::new(self.rank, self.ep.clock.now(), completion)
    }

    /// Run plan `key` at the rendezvous `at`: lend this rank's seat,
    /// holding its buffer, endpoint and arguments, park until the last
    /// member has run the plan for everyone, then take the seat back with
    /// the result and the endpoint the plan's messages were booked into.
    ///
    /// A fault inside the collective stops this rank's program where the
    /// messages would have: an injected crash dies here; a timeout or
    /// corrupt payload fails the run; a receive whose sender never sent
    /// waits here as that receive would, until the scheduler's stall
    /// diagnosis names the culprit.
    pub(crate) fn meet(&mut self, at: Seating<'_>, key: PlanKey, op: ReduceOp, buf: &mut Buf<'_>) {
        self.check_abort();
        let mut seat = self.seat.take().unwrap_or_else(|| {
            Box::new(Seat {
                ep: Endpoint::default(),
                key,
                op,
                data: Vec::new(),
                blocks: Vec::new(),
                stop: None,
            })
        });
        seat.key = key;
        seat.op = op;
        match buf {
            Buf::Flat(b) => {
                seat.data.clear();
                seat.data.extend_from_slice(b);
            }
            Buf::Blocks(bl) => seat.data = std::mem::take(&mut bl[at.rank]),
        }
        std::mem::swap(&mut self.ep, &mut seat.ep);
        let mut seat = match self.coop.meet(self.rank, at, seat) {
            Ok(seat) => seat,
            Err(err) => self.fail(err),
        };
        std::mem::swap(&mut self.ep, &mut seat.ep);
        let stop = seat.stop.take();
        match buf {
            Buf::Flat(b) => b.copy_from_slice(&seat.data),
            Buf::Blocks(bl) if seat.blocks.is_empty() => {
                bl[at.rank] = std::mem::take(&mut seat.data)
            }
            Buf::Blocks(bl) => **bl = std::mem::take(&mut seat.blocks),
        }
        self.seat = Some(seat);
        match stop.map(|stop| *stop) {
            None => {}
            Some(Stop::Crashed(err)) => Self::die(err),
            Some(Stop::Failed(err)) => self.fail(err),
            Some(Stop::Waits { src }) => {
                // Nothing of this collective ever moves as an envelope, so
                // this parks until the stall diagnosis or an abort ends it.
                self.await_envelope(src, at.tag);
                self.fail(SimError::CollectiveMismatch {
                    rank: self.rank,
                    detail: format!(
                        "a message tagged {:#x} from rank {src} arrived outside its collective",
                        at.tag
                    ),
                });
            }
        }
    }

    /// Snapshot of this rank's statistics with the clock folded in.
    pub fn stats(&self) -> RankStats {
        let (clock, ledger) = (&self.ep.clock, &self.ep.ledger);
        RankStats {
            rank: self.rank,
            elapsed: clock.now(),
            compute: clock.compute(),
            comm: clock.comm(),
            idle: clock.idle(),
            hidden_comm: clock.overlap(),
            msgs_sent: ledger.total(|p| p.msgs_sent),
            bytes_sent: ledger.total(|p| p.bytes_sent),
            msgs_recvd: ledger.total(|p| p.msgs_recvd),
            bytes_recvd: ledger.total(|p| p.bytes_recvd),
            collectives: ledger.total(|p| p.collectives),
            phases: ledger.phases().to_vec(),
        }
    }

    /// Take the recorded event trace (empty when tracing was disabled).
    pub(crate) fn take_events(&mut self) -> Vec<Event> {
        self.ep.events.take().unwrap_or_default()
    }

    /// Count a world collective in the current phase (and so run-wide) and
    /// return its sequence number.
    pub(crate) fn count_collective(&mut self) -> u64 {
        self.coll_seq += 1;
        self.ep.ledger.bucket().collectives += 1;
        self.coll_seq
    }
}

impl SpmdComm for Comm {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.size
    }
    /// Charge `ops` abstract operations of local compute to the virtual
    /// clock (see [`crate::cost::ComputeModel::sec_per_op`]), scaled by
    /// this rank's relative speed on heterogeneous machines.
    fn work(&mut self, ops: u64) {
        self.fault_checkpoint();
        let spec = &self.net.spec;
        let dt = ops as f64 * spec.compute.sec_per_op / spec.speed(self.rank);
        self.ep.compute(dt);
    }
    fn enter_phase(&mut self, name: &'static str) {
        self.ep.ledger.enter(name);
    }
    fn exit_phase(&mut self) {
        self.ep.ledger.exit();
    }
    fn checks_replication(&self) -> bool {
        self.verify.as_ref().is_some_and(|v| v.opts().check_replication)
    }
    /// Hash the local buffer and cross-check the digest against the other
    /// ranks'; a mismatch fails the run with
    /// [`SimError::ReplicationDivergence`] naming the diverging ranks and
    /// hashes. One branch unless
    /// [`crate::verify::VerifyOptions::check_replication`] is on, so calls
    /// can stay in production code paths.
    fn verify_replicated(&mut self, label: &str, data: &[f64]) {
        let Some(v) = &self.verify else { return };
        if !v.opts().check_replication {
            return;
        }
        self.repl_seq += 1;
        let hash = hash_f64s(data);
        if let Err(e) =
            v.check_replication(self.rank, USER_REPL_COMM, self.repl_seq, self.size, label, hash)
        {
            self.fail(e);
        }
    }
    fn replay_truncate(&mut self) {
        if let Some(log) = &self.net.replay {
            log.truncate(self.rank);
        }
    }
    fn derive_replicated<T, K, D>(&mut self, key: K, out: &mut Arc<T>, derive: D)
    where
        T: Clone + Send + Sync + 'static,
        K: Fn(&mut ReplicaKey<'_>),
        D: FnOnce(&mut T),
    {
        self.derive_replicated_in(WORLD_COMM, self.size, key, out, derive);
    }
    /// The run's one value of type `T`, borrowed for the call (see
    /// [`crate::replica`]); `own` is not touched.
    fn with_scratch<T, R>(&mut self, _own: &mut T, f: impl FnOnce(&mut T) -> R) -> R
    where
        T: Default + Send + 'static,
    {
        self.coop.scratch.with(f)
    }
}

impl Communicator for Comm {
    fn machine(&self) -> &MachineSpec {
        &self.net.spec
    }
    /// Current virtual time on this rank, in seconds.
    fn now(&self) -> f64 {
        self.ep.clock.now()
    }

    /// # Panics
    /// Panics if `dst` is out of range.
    fn send_f64s(&mut self, dst: usize, tag: u64, values: &[f64]) {
        assert!(dst < self.size, "send to rank {dst} but size is {}", self.size);
        self.check_abort();
        self.fault_checkpoint();
        let Some(stamp) = self.ep.send(&self.net, dst, tag, values) else {
            return;
        };
        let env = Envelope { tag, stamp, data: values.to_vec() };
        // A gone receiver means the run is aborting after a failure
        // elsewhere, or `dst` already finished its body and will never
        // receive again. The latter is legal for a buffered send: the
        // values are simply never read.
        match self.coop.deposit(self.rank, dst, env, self.ep.clock.now()) {
            Ok(Deposit::Delivered) => {}
            Ok(Deposit::Closed) => self.check_abort(),
            // Woken with a typed error (stall rescue or abort cascade)
            // while parked on a full mailbox: the envelope never got in
            // flight.
            Err(err) => self.fail(err),
        }
    }
    fn recv_f64s(&mut self, src: usize, tag: u64) -> Vec<f64> {
        let env = self.pull_envelope(src, tag);
        if let Err(err) = self.ep.recv(&self.net, src, tag, 8 * env.data.len(), &env.stamp) {
            self.fail(err);
        }
        env.data
    }
    /// Advance the virtual clock over the collective's *exposed* remainder
    /// (idle) and credit the portion that already elapsed behind other
    /// work to the overlap shadow accounting; waiting twice fails the run
    /// with [`SimError::RequestMisuse`].
    fn wait(&mut self, req: &mut Request) {
        match req.retire() {
            Ok((window_start, completion)) => self.finish_window(window_start, completion),
            Err(detail) => self.fail(SimError::RequestMisuse { rank: self.rank, detail }),
        }
    }
    /// The data movement runs *eagerly*: on return `buf` already holds the
    /// reduction, and the messages, collective fingerprint, and
    /// replication hash are exactly those of the blocking
    /// [`Communicator::allreduce_f64s_with`] — so results are bitwise
    /// identical to the blocking call under every algorithm, and all
    /// verification layers see the same collective. What is deferred is
    /// *time*: the idle (wire) portion of the collective's cost is rolled
    /// off the clock and becomes the returned request's pending window,
    /// free to hide behind subsequent [`SpmdComm::work`]. Endpoint
    /// overhead (LogGP `o`) stays on the CPU clock at post, and `wait`
    /// blocks only for whatever wire time was not hidden. Completions are
    /// clamped FIFO-monotone across posts on the same rank.
    fn iallreduce_f64s_with(
        &mut self,
        buf: &mut [f64],
        op: ReduceOp,
        algo: AllreduceAlgo,
    ) -> Request {
        let idle_before = self.ep.clock.idle();
        self.allreduce_f64s_with(buf, op, algo);
        self.nb_retract(idle_before)
    }

    fn coll_seq(&self) -> u64 {
        self.coll_seq
    }
    fn checks_collectives(&self) -> bool {
        self.verify.as_ref().is_some_and(|v| v.opts().check_collectives)
    }
    fn check_collective(&mut self, comm: u64, seq: u64, size: usize, fp: CollFingerprint) {
        let Some(v) = &self.verify else { return };
        if !v.opts().check_collectives {
            return;
        }
        if let Err(e) = v.check_collective(self.rank, comm, seq, size, fp) {
            self.fail(e);
        }
    }
    fn check_replication(&mut self, comm: u64, seq: u64, size: usize, label: &str, buf: &[f64]) {
        let Some(v) = &self.verify else { return };
        if !v.opts().check_replication {
            return;
        }
        if let Err(e) = v.check_replication(self.rank, comm, seq, size, label, hash_f64s(buf)) {
            self.fail(e);
        }
    }
    fn rendezvous(
        &mut self,
        at: Seating<'_>,
        key: PlanKey,
        op: ReduceOp,
        buf: &mut Buf<'_>,
    ) -> bool {
        self.meet(at, key, op, buf);
        true
    }
    fn derive_replicated_in<T, K, D>(
        &mut self,
        comm: u64,
        size: usize,
        key: K,
        out: &mut Arc<T>,
        derive: D,
    ) where
        T: Clone + Send + Sync + 'static,
        K: Fn(&mut ReplicaKey<'_>),
        D: FnOnce(&mut T),
    {
        if size < 2 || self.checks_replication() {
            derive(Arc::make_mut(out));
        } else {
            self.coop.replicas.derive(comm, size, key, out, derive);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Endpoint;

    /// [`Comm::meet`](super::Comm::meet) swaps the endpoint in and out of
    /// its seat on every collective, so it must not grow: the clock's five
    /// seconds, the rank, the send count, the event trace, and a phase
    /// ledger of two vectors and an index.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_endpoint_is_no_larger_than_its_parts() {
        assert_eq!(std::mem::size_of::<Endpoint>(), 136);
    }
}
