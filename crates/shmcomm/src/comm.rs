//! The per-rank native communicator: typed point-to-point messaging over
//! `mpsc` channels, tag-matched with a per-source stash, plus wall-clock
//! phase attribution feeding the same [`RankStats`] shapes the simulator
//! reports.
//!
//! # Timing model
//!
//! Where `mpsim` *charges* virtual time, this backend *measures* real
//! time. Every communication entry point closes the open interval since
//! the previous one and books it as **compute** in the current phase
//! bucket (whatever the rank did between comm calls was its own code);
//! the body of a send (serialize + enqueue) is booked as **comm**, and
//! time spent blocked inside a receive is booked as **idle** — waiting on
//! a peer is the native analogue of the simulator's wire-wait. The
//! buckets therefore partition elapsed wall time exactly like the
//! simulated clock's do: `Σ phases[i].total() == elapsed`.
//!
//! [`SpmdComm::work`] is a timing no-op: the real kernel already ran on
//! this thread and its duration lands in the compute bucket implicitly.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpsim::error::SimError;
use mpsim::traits::CommError;
use mpsim::verify::USER_REPL_COMM;
use mpsim::{
    AllreduceAlgo, CollFingerprint, Communicator, MachineSpec, PhaseLedger, RankStats, ReduceOp,
    Request, SpmdComm,
};

/// How long a blocked receive sleeps per poll before re-checking the
/// abort flag and its deadline.
const RECV_SLICE: Duration = Duration::from_millis(10);

/// A typed message between ranks: `f64` payloads travel verbatim (no
/// byte codec — both endpoints share an address space), so bit patterns
/// are preserved trivially.
#[derive(Debug)]
pub(crate) struct Msg {
    pub tag: u64,
    pub values: Vec<f64>,
}

/// Panic payload carrying a typed [`CommError`] out of a rank thread;
/// `run_native` catches and classifies it, so backend failures surface
/// as errors, never as raw panics.
pub(crate) struct NativeAbort(pub CommError);

/// Cross-rank registry asserting that replicated values are bitwise
/// identical on every rank, mirroring the simulator's replication
/// verifier: the first rank to post a `(comm, seq, label)` key stores
/// its hash, later ranks compare, and the slot is retired once the whole
/// group has posted.
pub(crate) struct ReplCheck {
    slots: Mutex<ReplSlots>,
}

/// `(comm_id, seq)` → (label, first poster's hash, ranks posted so far).
type ReplSlots = std::collections::BTreeMap<(u64, u64), (String, u64, usize)>;

impl ReplCheck {
    pub(crate) fn new() -> Self {
        ReplCheck { slots: Mutex::new(std::collections::BTreeMap::new()) }
    }

    /// Post `hash` as this rank's digest for slot `(comm, seq)`; `group`
    /// ranks are expected in total.
    pub(crate) fn check(
        &self,
        rank: usize,
        comm: u64,
        seq: u64,
        group: usize,
        label: &str,
        hash: u64,
    ) -> Result<(), CommError> {
        let mut slots = match self.slots.lock() {
            Ok(g) => g,
            Err(_) => {
                return Err(CommError::Poisoned {
                    rank,
                    detail: "replication registry (another rank panicked mid-check)".into(),
                })
            }
        };
        let entry = slots.entry((comm, seq)).or_insert_with(|| (label.to_string(), hash, 0usize));
        if entry.0 != label || entry.1 != hash {
            return Err(CommError::Replication {
                rank,
                label: label.to_string(),
                detail: format!(
                    "hash {:#018x} (label {:?}) != first poster's {:#018x} (label {:?})",
                    hash, label, entry.1, entry.0
                ),
            });
        }
        entry.2 += 1;
        if entry.2 >= group {
            slots.remove(&(comm, seq));
        }
        Ok(())
    }
}

/// One rank's endpoint of the native shared-memory machine: the
/// wall-clock implementor of [`mpsim::Communicator`].
pub struct NativeComm {
    rank: usize,
    size: usize,
    machine: MachineSpec,
    /// Start of this rank's body, origin of [`Communicator::now`].
    start: Instant,
    /// End of the last interval already booked into a bucket.
    last_stamp: Instant,
    /// `senders[dst]` enqueues into `dst`'s inbox from this rank.
    senders: Vec<Sender<Msg>>,
    /// `inboxes[src]` receives what `src` sent to this rank.
    inboxes: Vec<Receiver<Msg>>,
    /// Per-source out-of-order messages already drained from the channel.
    stash: Vec<VecDeque<Msg>>,
    pub(crate) abort: Arc<AtomicBool>,
    recv_timeout: Duration,
    /// Replication registry; `None` when checking is off.
    repl: Option<Arc<ReplCheck>>,
    /// Deterministic crash injection (see `NativeOptions::fault`).
    fault: Option<mpsim::FaultPlan>,
    /// Messages this rank has sent — the native send-sequence axis
    /// `FaultTrigger::AtSendSeq` counts along.
    send_seq: u64,
    pub(crate) coll_seq: u64,
    repl_seq: u64,
    /// The phase buckets the measured intervals and messages are booked
    /// into, and the open phase spans.
    ledger: PhaseLedger,
}

impl NativeComm {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        size: usize,
        machine: MachineSpec,
        senders: Vec<Sender<Msg>>,
        inboxes: Vec<Receiver<Msg>>,
        abort: Arc<AtomicBool>,
        repl: Option<Arc<ReplCheck>>,
        recv_timeout: Duration,
        fault: Option<mpsim::FaultPlan>,
    ) -> Self {
        let now = Instant::now();
        NativeComm {
            rank,
            size,
            machine,
            start: now,
            last_stamp: now,
            senders,
            stash: (0..size).map(|_| VecDeque::new()).collect(),
            inboxes,
            abort,
            recv_timeout,
            repl,
            fault,
            send_seq: 0,
            coll_seq: 0,
            repl_seq: 0,
            ledger: PhaseLedger::new(),
        }
    }

    /// Raise a typed backend failure: flag the abort (so peers blocked in
    /// receives fail fast instead of timing out) and unwind with the
    /// error as payload for `run_native` to classify.
    pub(crate) fn fail(&self, e: CommError) -> ! {
        self.abort.store(true, Ordering::SeqCst);
        std::panic::panic_any(NativeAbort(e));
    }

    // ---- wall-clock bookkeeping -------------------------------------

    /// Book the open interval since `last_stamp` as compute in the
    /// current phase (the rank was running its own code).
    pub(crate) fn stamp_compute(&mut self) {
        let now = Instant::now();
        self.ledger.bucket().compute += now.duration_since(self.last_stamp).as_secs_f64();
        self.last_stamp = now;
    }

    /// Book the open interval as communication endpoint work.
    fn stamp_comm(&mut self) {
        let now = Instant::now();
        self.ledger.bucket().comm += now.duration_since(self.last_stamp).as_secs_f64();
        self.last_stamp = now;
    }

    /// Book the open interval as idle (blocked waiting on a peer).
    fn stamp_idle(&mut self) {
        let now = Instant::now();
        self.ledger.bucket().idle += now.duration_since(self.last_stamp).as_secs_f64();
        self.last_stamp = now;
    }

    /// Snapshot this rank's statistics in the same shape the simulator
    /// reports: per-phase buckets (synthetic `"other"` first) that
    /// partition elapsed wall time.
    pub fn stats(&mut self) -> RankStats {
        self.stamp_compute();
        let phases = self.ledger.phases();
        RankStats {
            rank: self.rank,
            elapsed: self.last_stamp.duration_since(self.start).as_secs_f64(),
            compute: phases.iter().map(|p| p.compute).sum(),
            comm: phases.iter().map(|p| p.comm).sum(),
            idle: phases.iter().map(|p| p.idle).sum(),
            hidden_comm: 0.0,
            msgs_sent: self.ledger.total(|p| p.msgs_sent),
            bytes_sent: self.ledger.total(|p| p.bytes_sent),
            msgs_recvd: self.ledger.total(|p| p.msgs_recvd),
            bytes_recvd: self.ledger.total(|p| p.bytes_recvd),
            collectives: self.coll_seq,
            phases: phases.to_vec(),
        }
    }

    // ---- point-to-point ---------------------------------------------

    /// Drain `src`'s channel until the message tagged `tag` appears,
    /// stashing out-of-order messages. Fails typed: abort flag →
    /// `Aborted`, closed channel → `Disconnected`, deadline →
    /// `Timeout`.
    fn pull(&mut self, src: usize, tag: u64) -> Msg {
        if src >= self.size {
            self.fail(CommError::Sim(SimError::InvalidMachine(format!(
                "rank {}: recv from nonexistent rank {src}",
                self.rank
            ))));
        }
        if let Some(pos) = self.stash[src].iter().position(|m| m.tag == tag) {
            if let Some(m) = self.stash[src].remove(pos) {
                return m;
            }
        }
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            if self.abort.load(Ordering::SeqCst) {
                self.fail(CommError::Sim(SimError::Aborted { rank: self.rank }));
            }
            match self.inboxes[src].recv_timeout(RECV_SLICE) {
                Ok(m) if m.tag == tag => return m,
                Ok(m) => self.stash[src].push_back(m),
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        self.fail(CommError::Timeout { rank: self.rank, from: src, tag });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.fail(CommError::Disconnected {
                        rank: self.rank,
                        peer: src,
                        detail: format!("peer's thread is gone while waiting for tag {tag}"),
                    });
                }
            }
        }
    }

    /// Count a world collective in the current phase and return its
    /// sequence number.
    pub(crate) fn count_collective(&mut self) -> u64 {
        self.coll_seq += 1;
        self.ledger.bucket().collectives += 1;
        self.coll_seq
    }
}

impl SpmdComm for NativeComm {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.size
    }
    /// Timing no-op: real compute is measured implicitly (the kernel
    /// already ran on this thread; its duration lands in the current
    /// phase's compute bucket at the next comm call).
    fn work(&mut self, _ops: u64) {}
    fn enter_phase(&mut self, name: &'static str) {
        self.stamp_compute();
        self.ledger.enter(name);
    }
    fn exit_phase(&mut self) {
        self.stamp_compute();
        self.ledger.exit();
    }
    fn checks_replication(&self) -> bool {
        self.repl.is_some()
    }
    fn verify_replicated(&mut self, label: &str, data: &[f64]) {
        let Some(repl) = self.repl.clone() else { return };
        self.repl_seq += 1;
        let hash = mpsim::hash_f64s(data);
        if let Err(e) = repl.check(self.rank, USER_REPL_COMM, self.repl_seq, self.size, label, hash)
        {
            self.fail(e);
        }
    }
}

impl Communicator for NativeComm {
    /// The machine description this native run is being compared against.
    /// Only its *decision* surface matters here — algorithm selection
    /// (`allreduce`, `network` for `Auto`) — so both backends take
    /// identical branches; its timing parameters predict nothing about
    /// real silicon.
    fn machine(&self) -> &MachineSpec {
        &self.machine
    }
    /// Wall-clock seconds since this rank's body started.
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Buffered: the channel is unbounded, the same guarantee the
    /// simulator's buffered sends give the collective schedules.
    fn send_f64s(&mut self, dst: usize, tag: u64, values: &[f64]) {
        self.stamp_compute();
        // Same injection point and rule as the simulated transport: a due
        // crash fires at the send boundary, before any bytes move, so
        // peers see a vanished rank rather than a half-delivered
        // collective, and the error names the sends made.
        if let Some(plan) = &self.fault {
            if plan.crash_now(self.rank, self.send_seq, self.start.elapsed().as_secs_f64()) {
                let phase = self.ledger.current().to_string();
                let (rank, seq) = (self.rank, self.send_seq);
                self.fail(CommError::Sim(SimError::RankCrashed { rank, seq, phase }));
            }
        }
        self.send_seq += 1;
        if dst >= self.size {
            self.fail(CommError::Sim(SimError::InvalidMachine(format!(
                "rank {}: send to nonexistent rank {dst}",
                self.rank
            ))));
        }
        let b = self.ledger.bucket();
        b.msgs_sent += 1;
        b.bytes_sent += (values.len() * 8) as u64;
        if self.senders[dst].send(Msg { tag, values: values.to_vec() }).is_err() {
            self.fail(CommError::Disconnected {
                rank: self.rank,
                peer: dst,
                detail: format!("send of tag {tag} found the peer's inbox closed"),
            });
        }
        self.stamp_comm();
    }
    /// Time spent blocked is booked as idle in the current phase.
    fn recv_f64s(&mut self, src: usize, tag: u64) -> Vec<f64> {
        self.stamp_compute();
        let msg = self.pull(src, tag);
        let b = self.ledger.bucket();
        b.msgs_recvd += 1;
        b.bytes_recvd += (msg.values.len() * 8) as u64;
        self.stamp_idle();
        msg.values
    }
    fn wait(&mut self, req: &mut Request) {
        if let Err(detail) = req.retire() {
            self.fail(CommError::Request { rank: self.rank, detail });
        }
    }
    /// Like the simulator's, the data movement runs *eagerly*: on return
    /// `buf` already holds the reduction — bitwise identical to the
    /// blocking call — and the returned request is complete at post. The
    /// simulator defers only virtual wire time; on real silicon there is
    /// no deferred wire to hide, so `wait` only retires the request.
    fn iallreduce_f64s_with(
        &mut self,
        buf: &mut [f64],
        op: ReduceOp,
        algo: AllreduceAlgo,
    ) -> Request {
        self.allreduce_f64s_with(buf, op, algo);
        let now = self.now();
        Request::new(self.rank, now, now)
    }

    fn coll_seq(&self) -> u64 {
        self.coll_seq
    }
    /// The native backend has no fingerprint verifier.
    fn check_collective(&mut self, _comm: u64, _seq: u64, _size: usize, _fp: CollFingerprint) {}
    fn check_replication(&mut self, comm: u64, seq: u64, size: usize, label: &str, buf: &[f64]) {
        let Some(repl) = self.repl.clone() else { return };
        let hash = mpsim::hash_f64s(buf);
        if let Err(e) = repl.check(self.rank, comm, seq, size, label, hash) {
            self.fail(e);
        }
    }
}
