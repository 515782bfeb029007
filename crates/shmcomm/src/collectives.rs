//! Collectives on the native backend. [`NativeComm`] implements the
//! point-to-point surface and hooks of [`mpsim::schedule`] and runs that
//! module's schedules — the simulator's own code — so results are bitwise
//! identical across backends under every algorithm by construction.
//!
//! There is no shared accumulator and no atomics race on payloads: every
//! partial reduction is owned by exactly one thread, and values cross
//! threads only through channel messages, so arrival timing can never
//! reorder a floating-point fold. `Auto` resolves through the same
//! [`mpsim::select_allreduce`] before anything is posted, keeping the
//! *algorithm choice* itself identical across backends.

use mpsim::error::SimError;
use mpsim::schedule::{self, Collective, PointToPoint, World};
use mpsim::traits::CommError;
use mpsim::verify::WORLD_COMM;
use mpsim::{AllreduceAlgo, CollFingerprint, ReduceOp};

use crate::comm::{NativeComm, NativeReq, ReqKind};

impl PointToPoint for NativeComm {
    fn rank(&self) -> usize {
        self.rank()
    }
    fn size(&self) -> usize {
        self.size()
    }
    fn send(&mut self, to: usize, tag: u64, data: &[f64]) {
        self.send_f64s(to, tag, data);
    }
    fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        self.recv_f64s(from, tag)
    }
    fn mismatch(&self, detail: String) -> ! {
        self.fail(CommError::Sim(SimError::CollectiveMismatch { rank: self.rank(), detail }))
    }
}

impl Collective for NativeComm {
    /// Count the collective in the current phase and allocate its tag.
    /// The native backend has no fingerprint verifier.
    fn coll_enter(&mut self, _fp: CollFingerprint) -> u64 {
        schedule::COLL_TAG_BASE + self.count_collective()
    }
    fn check_replicated(&mut self, label: &str, buf: &[f64]) {
        self.check_replication(WORLD_COMM, self.coll_seq, self.size(), label, buf);
    }
}

impl World for NativeComm {
    fn coll_seq(&self) -> u64 {
        self.coll_seq
    }
    fn check_collective(&mut self, _comm: u64, _seq: u64, _size: usize, _fp: CollFingerprint) {}
    fn check_replication(&mut self, comm: u64, seq: u64, size: usize, label: &str, buf: &[f64]) {
        self.check_replicated_in(comm, seq, size, label, buf);
    }
}

impl NativeComm {
    /// Synchronize all ranks (dissemination barrier, `ceil(log2 P)` rounds).
    pub fn barrier(&mut self) {
        schedule::barrier(self);
    }

    /// Broadcast `buf` from `root` to all ranks (binomial tree).
    pub fn broadcast_f64s(&mut self, root: usize, buf: &mut [f64]) {
        schedule::broadcast(self, root, buf);
    }

    /// Allreduce with the machine's default algorithm.
    pub fn allreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) {
        let algo = self.machine().allreduce;
        self.allreduce_f64s_with(buf, op, algo);
    }

    /// Allreduce with an explicit algorithm. `Auto` resolves through the
    /// same pure selection function as the simulator — on the machine
    /// spec this run is compared against — so both backends dispatch to
    /// the same concrete schedule.
    pub fn allreduce_f64s_with(&mut self, buf: &mut [f64], op: ReduceOp, algo: AllreduceAlgo) {
        let machine = self.machine();
        let algo = match algo {
            AllreduceAlgo::Auto => {
                mpsim::select_allreduce(self.size(), buf.len(), &machine.network)
            }
            other => other,
        };
        let node_size = machine.topology.node_size();
        schedule::allreduce(self, buf, op, algo, node_size);
    }

    /// Allreduce of a single scalar; returns the reduced value.
    pub fn allreduce_scalar(&mut self, value: f64, op: ReduceOp) -> f64 {
        let mut buf = [value];
        self.allreduce_f64s(&mut buf, op);
        buf[0]
    }

    /// Non-blocking allreduce with the machine's default algorithm.
    pub fn iallreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) -> NativeReq {
        let algo = self.machine().allreduce;
        self.iallreduce_f64s_with(buf, op, algo)
    }

    /// Non-blocking allreduce with an explicit algorithm. Like the
    /// simulator's, the data movement runs *eagerly*: on return `buf`
    /// already holds the reduction — bitwise identical to the blocking
    /// call — and the returned request is complete. The simulator defers
    /// only virtual wire time (hidden behind later `work`); on real
    /// silicon there is no deferred wire to hide, so the pipelined
    /// driver degenerates gracefully to its synchronous schedule.
    pub fn iallreduce_f64s_with(
        &mut self,
        buf: &mut [f64],
        op: ReduceOp,
        algo: AllreduceAlgo,
    ) -> NativeReq {
        self.allreduce_f64s_with(buf, op, algo);
        NativeReq { rank: self.rank(), kind: ReqKind::Ready, done: false }
    }

    /// Gather each rank's (possibly differently sized) vector to `root`,
    /// concatenated in rank order. `Some` on the root.
    pub fn gather_f64s(&mut self, root: usize, mine: &[f64]) -> Option<Vec<f64>> {
        schedule::gather(self, root, mine)
    }
}
