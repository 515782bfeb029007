//! Backend-neutral communication traits: the surface the P-AutoClass
//! driver actually uses, abstracted away from the simulator.
//!
//! [`SpmdComm`] is what every communicator offers, world or group: rank
//! and size, local work, phase spans, barrier, broadcast, allreduce and
//! gather, plus the replication check and replay-log truncation (which a
//! group leaves off). Code written against it, such as `pautoclass`'s one
//! EM try loop, runs unchanged on the world and on a split's group.
//! [`Communicator`] adds what only a world has: point-to-point
//! sends/receives, non-blocking and algorithm-pinned allreduces, the
//! machine description, `split`, and the hooks a world lends its groups.
//! Every collective entry point is written once, as a provided method of
//! one of the two, over the [`Collective`] hooks the schedules run on.
//! [`crate::Comm`] implements [`Communicator`] for the simulated backend
//! and the `shmcomm` crate's `NativeComm` for a wall-clock native backend
//! over OS threads; a group is the one [`crate::subcomm::Group`] type,
//! split from either, with its membership and nested `split` as inherent
//! methods. One generic SPMD driver runs on both.
//!
//! `split` takes the colors as a collective argument — a function every
//! rank evaluates for every rank — so each rank derives the membership
//! locally and a split moves no message on either backend (see
//! [`crate::subcomm`]).
//!
//! # Determinism contract
//!
//! Reductions must fold in a *fixed, rank-ordered or tree-ordered*
//! sequence that depends only on `(algorithm, P, length)` — never on
//! arrival order, scheduling, or wall-clock races — so that two backends
//! running the same driver produce bitwise-identical `f64` results. Both
//! backends run the one copy of every schedule in [`crate::schedule`], so
//! the fold orders are identical by construction.
//!
//! # Errors
//!
//! Backends surface failures as [`CommError`], a backend-neutral type:
//! the simulator's typed [`SimError`]s pass through as
//! [`CommError::Sim`], while native-backend failure modes that have no
//! simulated analogue (a disconnected channel, a poisoned mutex) get
//! their own variants instead of escaping as raw panics.

use std::sync::Arc;

use crate::collectives::ReduceOp;
use crate::comm::Request;
use crate::cost::{AllreduceAlgo, MachineSpec};
use crate::error::SimError;
use crate::replica::ReplicaKey;
use crate::schedule::{self, Buf, Collective, PlanKey, Seating};
use crate::subcomm::Group;
use crate::verify::CollFingerprint;

/// A backend-neutral communication failure.
///
/// Every backend maps its failure modes here: the simulated engine's
/// errors arrive as [`CommError::Sim`] (preserving rank/sequence
/// diagnostics), and the native backend's shared-memory failure modes —
/// which the simulator cannot produce — get typed variants so callers
/// never have to parse panic strings.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CommError {
    /// A simulated-engine failure (rank panic, deadlock, verifier
    /// divergence, injected fault) with its full diagnostics.
    Sim(SimError),
    /// A rank's thread panicked with an unstructured payload.
    RankPanicked {
        /// The panicking rank, when identifiable.
        rank: usize,
        /// The panic message.
        detail: String,
    },
    /// A channel to a peer disconnected while traffic was still expected
    /// (the peer's thread is gone without a recorded cause).
    Disconnected {
        /// The rank that observed the disconnection.
        rank: usize,
        /// The peer whose endpoint vanished.
        peer: usize,
        /// What the rank was doing when the channel died.
        detail: String,
    },
    /// A shared lock was poisoned by a panic on another thread.
    Poisoned {
        /// The rank that found the lock poisoned.
        rank: usize,
        /// Which lock, and during what operation.
        detail: String,
    },
    /// A replicated value diverged across ranks on the native backend.
    Replication {
        /// The rank that detected the divergence.
        rank: usize,
        /// The caller-supplied label of the replicated value.
        label: String,
        /// Hash diagnostics.
        detail: String,
    },
    /// A non-blocking request was misused (waited twice).
    Request {
        /// The offending rank.
        rank: usize,
        /// What went wrong.
        detail: String,
    },
    /// A blocking receive exceeded the backend's wall-clock timeout.
    Timeout {
        /// The waiting rank.
        rank: usize,
        /// The peer it was waiting on.
        from: usize,
        /// The message tag it was waiting for.
        tag: u64,
    },
    /// The machine specification cannot be executed (e.g. zero ranks).
    InvalidMachine {
        /// Why the specification was rejected.
        detail: String,
    },
    /// The backend cannot express the requested mechanism (e.g. the
    /// native backend has no in-flight replay log, so
    /// `RecoveryPolicy::LocalReplay` is refused with this variant rather
    /// than silently degraded).
    Unsupported {
        /// The mechanism that was requested.
        what: String,
        /// Which backend refused it.
        backend: &'static str,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Sim(e) => write!(f, "{e}"),
            CommError::RankPanicked { rank, detail } => {
                write!(f, "rank {rank} panicked: {detail}")
            }
            CommError::Disconnected { rank, peer, detail } => {
                write!(f, "rank {rank}: channel to rank {peer} disconnected ({detail})")
            }
            CommError::Poisoned { rank, detail } => {
                write!(f, "rank {rank}: poisoned lock: {detail}")
            }
            CommError::Replication { rank, label, detail } => {
                write!(f, "rank {rank}: replicated value {label:?} diverged: {detail}")
            }
            CommError::Request { rank, detail } => {
                write!(f, "rank {rank}: request misuse: {detail}")
            }
            CommError::Timeout { rank, from, tag } => {
                write!(f, "rank {rank}: receive from rank {from} (tag {tag}) timed out")
            }
            CommError::InvalidMachine { detail } => write!(f, "invalid machine: {detail}"),
            CommError::Unsupported { what, backend } => {
                write!(f, "the {backend} backend does not support {what}")
            }
        }
    }
}

impl std::error::Error for CommError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for CommError {
    fn from(e: SimError) -> Self {
        CommError::Sim(e)
    }
}

/// The surface every communicator offers, world or group: identity,
/// local work, phase spans and the collectives the search runs on. Code
/// that only needs these (the EM try loop, checkpoint publication, class
/// seeding) is written once against this trait and runs on the world and
/// on a split's group alike.
///
/// Each collective here is written once, as a provided method over the
/// [`Collective`] hooks and the shared schedules of [`crate::schedule`].
/// Collectives must be called by every member in the same order with
/// compatible arguments. The replication check and the replay log default
/// to what a group has: no check and no log.
pub trait SpmdComm: Collective {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;
    /// Number of ranks in the communicator.
    fn size(&self) -> usize;
    /// Account `ops` abstract operations of local compute on this rank's
    /// clock. The simulator charges virtual time; the native backend
    /// measures real time implicitly, so this is free there.
    fn work(&mut self, ops: u64);
    /// Open a named phase span on the rank's (world) clock: until the
    /// matching [`SpmdComm::exit_phase`], every clock advance and every
    /// message and collective on this rank is attributed to the bucket
    /// named `name`. Spans nest, and re-entering a name accumulates into
    /// the same bucket; whatever runs outside any span lands in the
    /// implicit [`crate::DEFAULT_PHASE`] bucket.
    fn enter_phase(&mut self, name: &'static str);
    /// Close the innermost open phase span (a no-op when none is open).
    fn exit_phase(&mut self);

    /// Synchronize all members (dissemination barrier, `ceil(log2 P)`
    /// rounds).
    fn barrier(&mut self) {
        schedule::barrier(self);
    }
    /// Broadcast `buf` from member `root` to all members (binomial tree).
    /// On entry only `root`'s buffer is meaningful; all members pass
    /// buffers of the same length.
    fn broadcast_f64s(&mut self, root: usize, buf: &mut [f64]) {
        schedule::broadcast(self, root, buf);
    }
    /// Gather each member's (possibly differently sized) vector to
    /// `root`, concatenated in rank order: `Some` on the root, `None`
    /// elsewhere.
    fn gather_f64s(&mut self, root: usize, mine: &[f64]) -> Option<Vec<f64>> {
        schedule::gather(self, root, mine)
    }
    /// Allreduce with the communicator's default algorithm: a world's
    /// machine algorithm ([`crate::MachineSpec::allreduce`]), a group's
    /// recursive doubling. On exit every member holds the element-wise
    /// reduction of all members' buffers.
    fn allreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) {
        let (algo, node_size) = self.default_allreduce(buf.len());
        schedule::allreduce(self, buf, op, algo, node_size);
    }
    /// Allreduce of a single scalar; returns the reduced value.
    fn allreduce_scalar(&mut self, value: f64, op: ReduceOp) -> f64 {
        let mut buf = [value];
        self.allreduce_f64s(&mut buf, op);
        buf[0]
    }

    /// Whether replication-invariant hashing is enabled for this run.
    fn checks_replication(&self) -> bool {
        false
    }
    /// Assert that `data` is bitwise identical on every member
    /// (collective; no-op unless replication checking is enabled).
    fn verify_replicated(&mut self, _label: &str, _data: &[f64]) {}
    /// Drop this rank's in-flight replay-log entries (called by a
    /// checkpoint publisher right after a snapshot is stored: nothing
    /// delivered before the snapshot can need replaying). A no-op without
    /// a replay log, mirroring how [`SpmdComm::work`] is free on the
    /// native backend.
    fn replay_truncate(&mut self) {}

    /// Run `derive` on `out`'s value, where `derive` is a pure function of
    /// the words `key` feeds and writes all of the value from them alone.
    /// Every member calls this at the same point with its own `out`,
    /// typically right after the reduction that made its inputs equal to
    /// every other member's; local work is charged by the caller, as
    /// before.
    ///
    /// The default derives through [`Arc::make_mut`], and so do the native
    /// backend's threads, whose handles are their own (so in place), and
    /// any simulated run that checks replication, where every member
    /// deriving for itself is the proof. Elsewhere on the simulator, whose
    /// members share one host thread, the first member derives and the
    /// store keeps a handle to its result, and each later member whose key
    /// matches it word for word takes a handle to that one value (see
    /// [`crate::replica`]): the same bits behind `out`, at the cost of a
    /// compare, and one copy per host instead of one per member.
    fn derive_replicated<T, K, D>(&mut self, key: K, out: &mut Arc<T>, derive: D)
    where
        Self: Sized,
        T: Clone + Send + Sync + 'static,
        K: Fn(&mut ReplicaKey<'_>),
        D: FnOnce(&mut T),
    {
        let _ = key;
        derive(Arc::make_mut(out));
    }

    /// Run `f` on scratch storage of type `T` that this member needs only
    /// for the call, such as the E-step's tile buffers, and return what
    /// `f` returns. `f` gets no communicator, so it cannot suspend; what
    /// must outlive the call belongs in the member's own storage.
    ///
    /// The default runs `f(own)`, as a world whose members run on threads
    /// of their own must (the native backend's). The simulator runs every
    /// member on one host thread, one at a time, so there the members
    /// borrow one value of type `T` per run in turn and `own` stays
    /// untouched: the value the first member grew is the one the next
    /// finds, and the host keeps one instead of one per member. A member
    /// that finds no value to borrow gets a fresh `T::default()`, never a
    /// value another member holds. The value goes with the run.
    fn with_scratch<T, R>(&mut self, own: &mut T, f: impl FnOnce(&mut T) -> R) -> R
    where
        Self: Sized,
        T: Default + Send + 'static,
    {
        f(own)
    }
}

/// The world-communicator surface the SPMD driver is generic over: the
/// shared [`SpmdComm`] surface plus point-to-point messaging, the
/// machine description, the non-blocking allreduce and its [`Request`]
/// (one type on both backends), algorithm-pinned allreduces,
/// `split`, and what a world lends the groups split from it (its
/// collective sequence, the communicator-scoped verifier hooks and its
/// rendezvous).
///
/// Implementations: [`crate::Comm`] (simulated virtual time) and
/// `shmcomm::NativeComm` (wall-clock OS threads). All methods carry the
/// SPMD discipline of their concrete counterparts: collectives must be
/// called by every rank in the same order with compatible arguments, and
/// every non-blocking request must be retired by exactly one
/// [`Communicator::wait`] / [`Communicator::waitall`].
pub trait Communicator: SpmdComm {
    /// The machine description (used for algorithm selection; on the
    /// native backend it describes the machine being *compared against*,
    /// so both backends take identical algorithm-choice branches).
    fn machine(&self) -> &MachineSpec;
    /// Current time on this rank, in seconds (virtual or wall-clock,
    /// depending on the backend).
    fn now(&self) -> f64;

    /// Blocking typed send of an `f64` slice to world rank `dst`.
    /// Buffered, like an `MPI_Send` that always finds buffer space, so
    /// send-then-receive exchanges cannot deadlock.
    fn send_f64s(&mut self, dst: usize, tag: u64, values: &[f64]);
    /// Blocking receive of the message from `src` with exactly `tag`;
    /// messages from `src` with other tags are kept for later receives.
    fn recv_f64s(&mut self, src: usize, tag: u64) -> Vec<f64>;
    /// Retire a non-blocking request (see [`Request::retire`]). Waiting on
    /// a request twice fails the run naming this rank.
    fn wait(&mut self, req: &mut Request);
    /// Retire every request in order.
    fn waitall(&mut self, reqs: &mut [Request]) {
        for req in reqs {
            self.wait(req);
        }
    }

    /// Allreduce with an explicit algorithm. `Auto` resolves here, before
    /// the fingerprint is posted (see [`AllreduceAlgo::resolve`]), so
    /// every rank and backend dispatches to the same concrete schedule.
    fn allreduce_f64s_with(&mut self, buf: &mut [f64], op: ReduceOp, algo: AllreduceAlgo) {
        let (algo, node_size) = self.machine().allreduce_schedule(algo, buf.len());
        schedule::allreduce(self, buf, op, algo, node_size);
    }
    /// Non-blocking allreduce with the machine's default algorithm (see
    /// [`Communicator::iallreduce_f64s_with`]).
    fn iallreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) -> Request {
        let algo = self.machine().allreduce;
        self.iallreduce_f64s_with(buf, op, algo)
    }
    /// Non-blocking allreduce with an explicit algorithm. Data movement
    /// may run eagerly (both current backends do), which keeps results
    /// bitwise identical to the blocking call; only completion timing is
    /// deferred.
    fn iallreduce_f64s_with(
        &mut self,
        buf: &mut [f64],
        op: ReduceOp,
        algo: AllreduceAlgo,
    ) -> Request;

    /// Split the communicator by `color_of(r)`, rank `r`'s color, which
    /// every rank computes identically for every rank; ranks of equal
    /// color form a group. Collective over the world communicator, with no
    /// message (see [`crate::subcomm`]).
    fn split(&mut self, color_of: impl Fn(usize) -> u32) -> Group<'_, Self>
    where
        Self: Sized,
    {
        Group::of_world(self, color_of)
    }

    /// Sequence number of the most recent world collective.
    fn coll_seq(&self) -> u64;
    /// Whether [`Communicator::check_collective`] reads the fingerprints
    /// it is given; when it does not, a split skips hashing its color
    /// table.
    fn checks_collectives(&self) -> bool {
        false
    }
    /// Cross-check collective `seq` of communicator `comm` (`size` ranks)
    /// against the other members' fingerprints.
    fn check_collective(&mut self, comm: u64, seq: u64, size: usize, fp: CollFingerprint);
    /// Cross-check a replicated result of collective `seq` of
    /// communicator `comm` (`size` ranks).
    fn check_replication(&mut self, comm: u64, seq: u64, size: usize, label: &str, buf: &[f64]);
    /// Run plan `key` at one rendezvous of every member instead of as
    /// messages, if this world has one (the simulator's does). Returns
    /// `false`, leaving `buf` alone, when the plan must run as messages.
    fn rendezvous(
        &mut self,
        _at: Seating<'_>,
        _key: PlanKey,
        _op: ReduceOp,
        _buf: &mut Buf<'_>,
    ) -> bool {
        false
    }
    /// [`SpmdComm::derive_replicated`] for a member of communicator
    /// `comm` (`size` members). The default derives through
    /// [`Arc::make_mut`], as a world whose members run on threads of their
    /// own must (the native backend's, whose handles are never shared).
    fn derive_replicated_in<T, K, D>(
        &mut self,
        _comm: u64,
        _size: usize,
        _key: K,
        out: &mut Arc<T>,
        derive: D,
    ) where
        T: Clone + Send + Sync + 'static,
        K: Fn(&mut ReplicaKey<'_>),
        D: FnOnce(&mut T),
    {
        derive(Arc::make_mut(out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::presets;
    use crate::engine::run_spmd_default;

    /// A generic SPMD body exercising the trait surface end to end on the
    /// simulated backend.
    fn generic_body<C: Communicator>(comm: &mut C) -> (f64, f64, usize) {
        comm.enter_phase("trait-test");
        let me = comm.rank() as f64;
        let sum = comm.allreduce_scalar(me + 1.0, ReduceOp::Sum);
        let mut buf = vec![me; 3];
        comm.allreduce_f64s_with(&mut buf, ReduceOp::Max, AllreduceAlgo::RecursiveDoubling);
        let mut req = comm.iallreduce_f64s(&mut buf, ReduceOp::Sum);
        comm.work(10);
        comm.wait(&mut req);
        let sub_size = {
            let sub = comm.split(|r| (r % 2) as u32);
            sub.size()
        };
        comm.exit_phase();
        (sum, buf[0], sub_size)
    }

    #[test]
    fn comm_implements_the_trait() {
        let spec = presets::zero_cost(4);
        let out = run_spmd_default(&spec, generic_body).unwrap();
        for (rank, (sum, m, sub)) in out.per_rank.iter().enumerate() {
            assert_eq!(*sum, 10.0, "rank {rank}");
            // max over ranks = 3, then summed over 4 ranks by iallreduce.
            assert_eq!(*m, 12.0, "rank {rank}");
            assert_eq!(*sub, 2, "rank {rank}");
        }
    }

    #[test]
    fn comm_error_display_names_causes() {
        let e = CommError::from(SimError::Aborted { rank: 1 });
        assert!(std::error::Error::source(&e).is_some());
        let d = CommError::Disconnected { rank: 0, peer: 2, detail: "recv".into() };
        assert!(d.to_string().contains("rank 2"));
        let p = CommError::Poisoned { rank: 1, detail: "replication registry".into() };
        assert!(p.to_string().contains("poisoned"));
    }
}
