//! Collective operations on the world [`Comm`].
//!
//! The shared schedules — barrier, broadcast, gather, allgather and the
//! allreduce family — live in [`crate::schedule`], written once for both
//! backends and every sub-communicator; this module connects `Comm` to
//! them and adds the simulator-only collectives (binomial reduce, scatter,
//! all-to-all, scan). Every algorithm is the textbook message-passing one,
//! so the simulated communication pattern — and therefore the modeled
//! cost — is the one a real MPI implementation would produce.

use crate::comm::Comm;
use crate::cost::AllreduceAlgo;
use crate::error::SimError;
use crate::schedule::{self, fp, Collective, PointToPoint, World};
use crate::verify::{hash_f64s, CollFingerprint, CollKind, WORLD_COMM};

/// Element-wise reduction operator over `f64` vectors. All operators are
/// commutative, which the recursive-doubling algorithm exploits to keep
/// results bitwise identical on every rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise product.
    Prod,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
}

impl ReduceOp {
    /// Fold `other` into `acc` element-wise.
    ///
    /// # Panics
    /// Panics if lengths differ (collective argument mismatch).
    pub fn fold(self, acc: &mut [f64], other: &[f64]) {
        assert_eq!(acc.len(), other.len(), "reduce buffers must have equal length");
        match self {
            ReduceOp::Sum => acc.iter_mut().zip(other).for_each(|(a, b)| *a += b),
            ReduceOp::Prod => acc.iter_mut().zip(other).for_each(|(a, b)| *a *= b),
            ReduceOp::Min => acc.iter_mut().zip(other).for_each(|(a, b)| *a = a.min(*b)),
            ReduceOp::Max => acc.iter_mut().zip(other).for_each(|(a, b)| *a = a.max(*b)),
        }
    }
}

impl PointToPoint for Comm {
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
        self.fail(SimError::CollectiveMismatch { rank: self.rank(), detail })
    }
}

impl Collective for Comm {
    /// Allocate the collective's unique tag, count it, and — when
    /// collective checking is enabled — cross-validate this rank's
    /// fingerprint against the other ranks' claims for the same sequence
    /// number, failing the run on divergence.
    fn coll_enter(&mut self, fp: CollFingerprint) -> u64 {
        let seq = self.count_collective();
        self.check_collective(WORLD_COMM, seq, self.size(), fp);
        schedule::COLL_TAG_BASE + seq
    }
    fn check_replicated(&mut self, label: &str, buf: &[f64]) {
        self.check_replication(WORLD_COMM, self.coll_seq, self.size(), label, buf);
    }
}

impl World for Comm {
    fn coll_seq(&self) -> u64 {
        self.coll_seq
    }
    fn check_collective(&mut self, comm: u64, seq: u64, size: usize, fp: CollFingerprint) {
        let Some(v) = &self.verify else { return };
        if !v.opts().check_collectives {
            return;
        }
        if let Err(e) = v.check_collective(self.rank(), comm, seq, size, fp) {
            self.fail(e);
        }
    }
    fn check_replication(&mut self, comm: u64, seq: u64, size: usize, label: &str, buf: &[f64]) {
        let Some(v) = &self.verify else { return };
        if !v.opts().check_replication {
            return;
        }
        if let Err(e) = v.check_replication(self.rank(), comm, seq, size, label, hash_f64s(buf)) {
            self.fail(e);
        }
    }
}

impl Comm {
    /// Synchronize all ranks (dissemination barrier, `ceil(log2 P)` rounds).
    pub fn barrier(&mut self) {
        schedule::barrier(self);
    }

    /// Broadcast `buf` from `root` to all ranks (binomial tree). On entry
    /// only `root`'s buffer is meaningful; on exit every rank holds the
    /// root's data. All ranks must pass buffers of the same length.
    pub fn broadcast_f64s(&mut self, root: usize, buf: &mut [f64]) {
        schedule::broadcast(self, root, buf);
    }

    /// Reduce element-wise into `root` (binomial tree). After the call the
    /// root's `buf` holds the reduction over all ranks; other ranks' `buf`
    /// contents are unspecified.
    pub fn reduce_f64s(&mut self, root: usize, buf: &mut [f64], op: ReduceOp) {
        let p = self.size();
        if p <= 1 {
            return;
        }
        let tag = self.coll_enter(fp(CollKind::Reduce, Some(root), Some(op), buf.len()));
        let me = self.rank();
        let vrank = (me + p - root) % p;

        let mut mask = 1usize;
        while mask < p {
            if vrank & mask == 0 {
                let vsrc = vrank | mask;
                if vsrc < p {
                    let src = (vsrc + root) % p;
                    let data = self.recv_f64s(src, tag);
                    op.fold(buf, &data);
                }
            } else {
                let vdst = vrank & !mask;
                let dst = (vdst + root) % p;
                self.send_f64s(dst, tag, buf);
                break;
            }
            mask <<= 1;
        }
    }

    /// Allreduce with the machine's default algorithm (see
    /// [`crate::cost::MachineSpec::allreduce`]). On exit every rank holds
    /// the element-wise reduction of all ranks' buffers.
    pub fn allreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) {
        let algo = self.machine().allreduce;
        self.allreduce_f64s_with(buf, op, algo);
    }

    /// Allreduce with an explicit algorithm. `Auto` resolves here, before
    /// the fingerprint is posted: the selection is a pure function of
    /// (P, length, network parameters), all identical on every rank, so
    /// every rank dispatches to the same concrete algorithm.
    pub fn allreduce_f64s_with(&mut self, buf: &mut [f64], op: ReduceOp, algo: AllreduceAlgo) {
        let machine = self.machine();
        let algo = match algo {
            AllreduceAlgo::Auto => {
                crate::cost::select_allreduce(self.size(), buf.len(), &machine.network)
            }
            other => other,
        };
        let node_size = machine.topology.node_size();
        schedule::allreduce(self, buf, op, algo, node_size);
    }

    /// Non-blocking allreduce with the machine's default algorithm. See
    /// [`Comm::iallreduce_f64s_with`].
    pub fn iallreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) -> crate::comm::Request {
        let algo = self.machine().allreduce;
        self.iallreduce_f64s_with(buf, op, algo)
    }

    /// Non-blocking allreduce with an explicit algorithm.
    ///
    /// The data movement runs *eagerly*: on return `buf` already holds the
    /// reduction, and the messages, collective fingerprint, and
    /// replication hash are exactly those of the blocking
    /// [`Comm::allreduce_f64s_with`] — so results are bitwise identical to
    /// the blocking call under every algorithm, and all verification
    /// layers see the same collective. What is deferred is *time*: the
    /// idle (wire) portion of the collective's cost is rolled off the
    /// clock and becomes the returned request's pending window, free to
    /// hide behind subsequent [`Comm::work`]. Endpoint overhead (LogGP
    /// `o`) stays on the CPU clock at post, and [`Comm::wait`] blocks only
    /// for whatever wire time was not hidden. Completions are clamped
    /// FIFO-monotone across posts on the same rank.
    pub fn iallreduce_f64s_with(
        &mut self,
        buf: &mut [f64],
        op: ReduceOp,
        algo: AllreduceAlgo,
    ) -> crate::comm::Request {
        let idle0 = self.nb_idle_snapshot();
        self.allreduce_f64s_with(buf, op, algo);
        self.nb_retract(idle0)
    }

    /// Allreduce of a single scalar; returns the reduced value.
    pub fn allreduce_scalar(&mut self, value: f64, op: ReduceOp) -> f64 {
        let mut buf = [value];
        self.allreduce_f64s(&mut buf, op);
        buf[0]
    }

    /// Gather each rank's (possibly differently sized) vector to `root`,
    /// concatenated in rank order. Returns `Some` on the root, `None`
    /// elsewhere.
    pub fn gather_f64s(&mut self, root: usize, mine: &[f64]) -> Option<Vec<f64>> {
        schedule::gather(self, root, mine)
    }

    /// Allgather over a ring: every rank ends with every rank's vector
    /// (`result[r]` is rank `r`'s contribution). Vectors may differ in
    /// length across ranks.
    pub fn allgather_f64s(&mut self, mine: &[f64]) -> Vec<Vec<f64>> {
        schedule::allgather(self, mine)
    }

    /// Scatter: `root` supplies one block per rank; every rank receives its
    /// block. Non-roots must pass `None`.
    ///
    /// # Panics
    /// Panics (as a collective mismatch) if the root provides a number of
    /// blocks different from the communicator size, or a non-root provides
    /// data.
    pub fn scatter_f64s(&mut self, root: usize, blocks: Option<&[Vec<f64>]>) -> Vec<f64> {
        let p = self.size();
        let me = self.rank();
        let tag =
            self.coll_enter(fp(CollKind::Scatter, Some(root), None, blocks.map_or(0, |b| b.len())));
        if me == root {
            let blocks = match blocks {
                Some(b) if b.len() == p => b,
                Some(b) => self.mismatch(format!("scatter got {} blocks for {} ranks", b.len(), p)),
                None => self.mismatch("scatter root must supply blocks".into()),
            };
            for (dst, block) in blocks.iter().enumerate() {
                if dst != me {
                    self.send_f64s(dst, tag, block);
                }
            }
            blocks[me].clone()
        } else {
            if blocks.is_some() {
                self.mismatch("scatter non-root must pass None".into());
            }
            self.recv_f64s(root, tag)
        }
    }

    /// All-to-all personalized exchange: `send[d]` goes to rank `d`;
    /// returns `recv` with `recv[s]` from rank `s`.
    pub fn alltoall_f64s(&mut self, send: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let p = self.size();
        let me = self.rank();
        if send.len() != p {
            self.mismatch(format!("alltoall got {} blocks for {} ranks", send.len(), p));
        }
        let tag = self.coll_enter(fp(CollKind::Alltoall, None, None, send.len()));
        let mut recv: Vec<Vec<f64>> = vec![Vec::new(); p];
        recv[me] = send[me].clone();
        // Pairwise exchange by offset; sends are buffered so the
        // send-then-recv order cannot deadlock.
        for offset in 1..p {
            let dst = (me + offset) % p;
            let src = (me + p - offset) % p;
            self.send_f64s(dst, tag, &send[dst]);
            recv[src] = self.recv_f64s(src, tag);
        }
        recv
    }

    /// Inclusive prefix reduction in rank order: rank `r` ends with the
    /// reduction of ranks `0..=r`. Linear chain (deterministic order).
    pub fn scan_f64s(&mut self, buf: &mut [f64], op: ReduceOp) {
        let p = self.size();
        let me = self.rank();
        if p <= 1 {
            return;
        }
        let tag = self.coll_enter(fp(CollKind::Scan, None, Some(op), buf.len()));
        if me > 0 {
            let prefix = self.recv_f64s(me - 1, tag);
            // Keep rank order: result = reduce(prefix, mine).
            let mut acc = prefix;
            op.fold(&mut acc, buf);
            buf.copy_from_slice(&acc);
        }
        if me + 1 < p {
            self.send_f64s(me + 1, tag, buf);
        }
    }

    /// Broadcast a single `u64` from `root` (handy for sizes and seeds).
    pub fn broadcast_u64(&mut self, root: usize, value: u64) -> u64 {
        // Reuse the f64 tree via bit transmutation to keep one tree
        // implementation; u64 bit patterns survive the f64 round-trip
        // because the payload codec is bit-exact.
        let mut buf = [f64::from_bits(value)];
        self.broadcast_f64s(root, &mut buf);
        buf[0].to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_applies_elementwise() {
        let mut a = vec![1.0, 2.0, 3.0];
        ReduceOp::Sum.fold(&mut a, &[10.0, 20.0, 30.0]);
        assert_eq!(a, vec![11.0, 22.0, 33.0]);

        let mut b = vec![1.0, 5.0];
        ReduceOp::Min.fold(&mut b, &[3.0, 2.0]);
        assert_eq!(b, vec![1.0, 2.0]);

        let mut c = vec![1.0, 5.0];
        ReduceOp::Max.fold(&mut c, &[3.0, 2.0]);
        assert_eq!(c, vec![3.0, 5.0]);

        let mut d = vec![2.0, 3.0];
        ReduceOp::Prod.fold(&mut d, &[4.0, 0.5]);
        assert_eq!(d, vec![8.0, 1.5]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn fold_rejects_mismatched_lengths() {
        let mut a = vec![1.0];
        ReduceOp::Sum.fold(&mut a, &[1.0, 2.0]);
    }
}
