//! The collective schedules, each written exactly once.
//!
//! Every barrier, broadcast, gather, allgather and allreduce in the
//! workspace is one generic function in this module. The simulator's
//! [`Comm`](crate::Comm), the native backend's `shmcomm::NativeComm`, and
//! the sub-communicator [`Group`](crate::subcomm::Group) split from either
//! all run these same functions, so the sequence of sends, receives and
//! [`ReduceOp::fold`] calls a rank performs depends only on
//! `(algorithm, P, length)` — on every communicator and both backends, by
//! construction. That is what makes results bitwise identical across
//! backends.
//!
//! A schedule sees a communicator through three small traits:
//!
//! * [`PointToPoint`]: dense `rank`/`size`, tagged `send`/`recv` of `f64`
//!   blocks, and a typed `mismatch` for inconsistent arguments;
//! * [`Collective`]: the entry hook that allocates a collective's tag and
//!   posts its fingerprint, and the replication-check hook run on a
//!   replicated result;
//! * [`World`]: what a world communicator lends the groups split from it
//!   (its collective sequence and the communicator-scoped verifier hooks).
//!
//! A member-list view maps the dense indices of a subset of ranks onto the
//! underlying communicator; the hierarchical allreduce runs Rabenseifner
//! over the node leaders through one, and every group talks to its world
//! through one.
//!
//! # SPMD discipline
//!
//! As with MPI, all ranks must call the same sequence of collectives with
//! compatible arguments. Each collective consumes one slot of the
//! communicator's sequence number, which becomes its message tag, so a
//! rank that skips a collective deadlocks (and is diagnosed) rather than
//! silently corrupting a later one. A buffer whose length disagrees with
//! what a peer sends fails the run with
//! [`SimError::CollectiveMismatch`](crate::SimError::CollectiveMismatch),
//! whether or not the fingerprint verifier is on.
//!
//! # Phase attribution
//!
//! Collectives carry no phase tagging of their own: every constituent
//! send/recv and all idle time waiting on peers is charged to whatever
//! phase span (see [`Comm::enter_phase`](crate::Comm::enter_phase)) is
//! open on the calling rank.

use std::ops::Range;

use crate::collectives::ReduceOp;
use crate::cost::AllreduceAlgo;
use crate::traits::Communicator;
use crate::verify::{CollFingerprint, CollKind};

/// Base of the tag space reserved for world collectives (above all user
/// tags); a world collective's tag is this plus its sequence number.
pub const COLL_TAG_BASE: u64 = 1 << 32;

/// The point-to-point surface a schedule runs on.
pub trait PointToPoint {
    /// This rank's dense index in `0..size()`.
    fn rank(&self) -> usize;
    /// Number of ranks taking part.
    fn size(&self) -> usize;
    /// Buffered send of `data` to dense rank `to`.
    fn send(&mut self, to: usize, tag: u64, data: &[f64]);
    /// Blocking receive of the message from dense rank `from` with `tag`.
    fn recv(&mut self, from: usize, tag: u64) -> Vec<f64>;
    /// Fail the run with a typed collective-argument mismatch.
    fn mismatch(&self, detail: String) -> !;
}

/// A communicator collectives run on: the point-to-point surface plus the
/// per-communicator entry and replication hooks.
pub trait Collective: PointToPoint {
    /// Enter a collective: allocate its tag and post its fingerprint.
    fn coll_enter(&mut self, fp: CollFingerprint) -> u64;
    /// Cross-check a replicated result across ranks (no-op unless
    /// replication checking is on).
    fn check_replicated(&mut self, label: &str, buf: &[f64]);
}

/// A world communicator: what it lends the groups split from it.
pub trait World: Collective + Communicator {
    /// Sequence number of the most recent world collective.
    fn coll_seq(&self) -> u64;
    /// Cross-check collective `seq` of communicator `comm` (`size` ranks)
    /// against the other members' fingerprints.
    fn check_collective(&mut self, comm: u64, seq: u64, size: usize, fp: CollFingerprint);
    /// Cross-check a replicated result of collective `seq` of
    /// communicator `comm` (`size` ranks).
    fn check_replication(&mut self, comm: u64, seq: u64, size: usize, label: &str, buf: &[f64]);
}

/// A view of a subset of ranks as a dense communicator: index `i` is
/// `members[i]` on the underlying one.
pub(crate) struct Members<'a, S> {
    pub(crate) inner: &'a mut S,
    /// Ranks of the members on `inner`, ascending; index = dense rank.
    pub(crate) members: Vec<usize>,
    /// This rank's position within `members`.
    pub(crate) rank: usize,
}

impl<S: PointToPoint> PointToPoint for Members<'_, S> {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.members.len()
    }
    fn send(&mut self, to: usize, tag: u64, data: &[f64]) {
        self.inner.send(self.members[to], tag, data);
    }
    fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        self.inner.recv(self.members[from], tag)
    }
    fn mismatch(&self, detail: String) -> ! {
        self.inner.mismatch(detail)
    }
}

/// The fingerprint a collective posts on entry.
pub(crate) fn fp(
    kind: CollKind,
    root: Option<usize>,
    op: Option<ReduceOp>,
    elems: usize,
) -> CollFingerprint {
    CollFingerprint { kind, root, op, elems: Some(elems) }
}

/// Receive from `from` and fold the block into `acc`.
fn recv_fold<S: PointToPoint>(s: &mut S, from: usize, tag: u64, op: ReduceOp, acc: &mut [f64]) {
    let data = s.recv(from, tag);
    check_len(s, from, acc, &data);
    op.fold(acc, &data);
}

/// Receive from `from` and overwrite `dst` with the block.
fn recv_copy<S: PointToPoint>(s: &mut S, from: usize, tag: u64, dst: &mut [f64]) {
    let data = s.recv(from, tag);
    check_len(s, from, dst, &data);
    dst.copy_from_slice(&data);
}

fn check_len<S: PointToPoint>(s: &S, from: usize, mine: &[f64], data: &[f64]) {
    if mine.len() != data.len() {
        s.mismatch(format!(
            "buffer length {} != {} elements received from rank {from}",
            mine.len(),
            data.len()
        ));
    }
}

/// Chunk `c` of a balanced partition of `n` elements into `parts` chunks
/// whose sizes differ by at most one (empty when `n < parts`).
fn chunk(n: usize, parts: usize, c: usize) -> Range<usize> {
    let base = n / parts;
    let extra = n % parts;
    let start = c * base + c.min(extra);
    start..start + base + usize::from(c < extra)
}

/// Synchronize all ranks (dissemination barrier, `ceil(log2 P)` rounds of
/// zero-length messages).
pub fn barrier<C: Collective>(c: &mut C) {
    let p = c.size();
    if p <= 1 {
        return;
    }
    let tag = c.coll_enter(fp(CollKind::Barrier, None, None, 0));
    let me = c.rank();
    let mut k = 1usize;
    while k < p {
        c.send((me + k) % p, tag, &[]);
        let _ = c.recv((me + p - k) % p, tag);
        k <<= 1;
    }
}

/// Broadcast `buf` from `root` to all ranks (binomial tree). On entry only
/// `root`'s buffer is meaningful; all ranks pass buffers of one length.
pub fn broadcast<C: Collective>(c: &mut C, root: usize, buf: &mut [f64]) {
    let p = c.size();
    if p <= 1 {
        return;
    }
    let tag = c.coll_enter(fp(CollKind::Broadcast, Some(root), None, buf.len()));
    let me = c.rank();
    let vrank = (me + p - root) % p;
    // Receive from the parent in the binomial tree.
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask != 0 {
            recv_copy(c, (me + p - mask) % p, tag, buf);
            break;
        }
        mask <<= 1;
    }
    // Forward to children.
    mask >>= 1;
    while mask > 0 {
        if vrank + mask < p {
            c.send((me + mask) % p, tag, buf);
        }
        mask >>= 1;
    }
    // Every rank now holds the root's data — a replication invariant.
    c.check_replicated("broadcast result", buf);
}

/// Gather each rank's (possibly differently sized) vector to `root`,
/// concatenated in rank order. `Some` on the root, `None` elsewhere.
pub fn gather<C: Collective>(c: &mut C, root: usize, mine: &[f64]) -> Option<Vec<f64>> {
    let p = c.size();
    let me = c.rank();
    let tag = c.coll_enter(fp(CollKind::Gather, Some(root), None, mine.len()));
    if me != root {
        c.send(root, tag, mine);
        return None;
    }
    let mut all = Vec::with_capacity(mine.len() * p);
    for src in 0..p {
        if src == me {
            all.extend_from_slice(mine);
        } else {
            all.extend(c.recv(src, tag));
        }
    }
    Some(all)
}

/// Allgather over a ring: `result[r]` is rank `r`'s vector. Vectors may
/// differ in length across ranks.
pub fn allgather<C: Collective>(c: &mut C, mine: &[f64]) -> Vec<Vec<f64>> {
    let p = c.size();
    let me = c.rank();
    let tag = c.coll_enter(fp(CollKind::Allgather, None, None, mine.len()));
    let mut blocks: Vec<Vec<f64>> = vec![Vec::new(); p];
    blocks[me] = mine.to_vec();
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    // Step s forwards the block received at step s - 1 (our own at s = 0).
    for step in 0..p - 1 {
        c.send(right, tag, &blocks[(me + p - step) % p]);
        blocks[(me + p - step - 1) % p] = c.recv(left, tag);
    }
    blocks
}

/// Allreduce `buf` with the concrete schedule `algo`; `node_size` is the
/// machine's ranks per node, read only by [`AllreduceAlgo::Hierarchical`].
/// On exit every rank holds the element-wise reduction of all ranks'
/// buffers, bitwise identical everywhere.
pub fn allreduce<C: Collective>(
    c: &mut C,
    buf: &mut [f64],
    op: ReduceOp,
    algo: AllreduceAlgo,
    node_size: usize,
) {
    if c.size() <= 1 {
        return;
    }
    // The fingerprint is posted before dispatch, so a length or operator
    // divergence is caught even when the schedule would route the
    // mismatched buffers past each other.
    let tag = c.coll_enter(fp(CollKind::Allreduce, None, Some(op), buf.len()));
    match algo {
        AllreduceAlgo::Linear | AllreduceAlgo::OrderedLinear => linear(c, buf, op, tag),
        AllreduceAlgo::RecursiveDoubling => recursive_doubling(c, buf, op, tag),
        AllreduceAlgo::Ring => ring(c, buf, op, tag),
        AllreduceAlgo::Rabenseifner => rabenseifner(c, buf, op, tag),
        AllreduceAlgo::Hierarchical => hierarchical(c, buf, op, tag, node_size),
        AllreduceAlgo::Auto => unreachable!("Auto is resolved before dispatch"),
    }
    c.check_replicated("allreduce result", buf);
}

/// Linear allreduce: rank 0 folds every rank's vector in rank order, then
/// sends the result back to each rank individually. `O(P)` latencies —
/// the behaviour of early-90s MPI reductions.
fn linear<S: PointToPoint>(s: &mut S, buf: &mut [f64], op: ReduceOp, tag: u64) {
    if s.rank() != 0 {
        s.send(0, tag, buf);
        recv_copy(s, 0, tag, buf);
        return;
    }
    for src in 1..s.size() {
        recv_fold(s, src, tag, op, buf);
    }
    for dst in 1..s.size() {
        s.send(dst, tag, buf);
    }
}

/// The non-power-of-two pre-step of MPICH. Ranks at or above the largest
/// power of two `pow2 ≤ P` are parked: each hands its vector to rank
/// `me - pow2`, waits for the final result, and gets `None`. Every other
/// rank folds in its parked partner's vector, if it has one, and gets
/// `Some(pow2)`.
fn park<S: PointToPoint>(s: &mut S, buf: &mut [f64], op: ReduceOp, tag: u64) -> Option<usize> {
    let p = s.size();
    let me = s.rank();
    let pow2 = if p.is_power_of_two() { p } else { p.next_power_of_two() / 2 };
    if me >= pow2 {
        s.send(me - pow2, tag, buf);
        recv_copy(s, me - pow2, tag, buf);
        return None;
    }
    if me + pow2 < p {
        recv_fold(s, me + pow2, tag, op, buf);
    }
    Some(pow2)
}

/// The post-step matching [`park`]: hand the result to the parked partner.
fn unpark<S: PointToPoint>(s: &mut S, buf: &[f64], tag: u64, pow2: usize) {
    let me = s.rank();
    if me + pow2 < s.size() {
        s.send(me + pow2, tag, buf);
    }
}

/// Recursive doubling: `log2 P'` rounds of pairwise full-vector exchanges
/// among the `P'` unparked ranks. Both partners fold the same two values
/// with a commutative op, so all ranks stay bitwise identical.
fn recursive_doubling<S: PointToPoint>(s: &mut S, buf: &mut [f64], op: ReduceOp, tag: u64) {
    let Some(pow2) = park(s, buf, op, tag) else { return };
    let me = s.rank();
    let mut mask = 1usize;
    while mask < pow2 {
        s.send(me ^ mask, tag, buf);
        recv_fold(s, me ^ mask, tag, op, buf);
        mask <<= 1;
    }
    unpark(s, buf, tag, pow2);
}

/// Ring allreduce: reduce-scatter then allgather, `2(P-1)` rounds of
/// `~m/P`-sized messages over a balanced (ragged) chunk partition.
/// Bandwidth-optimal for long vectors.
fn ring<C: Collective>(c: &mut C, buf: &mut [f64], op: ReduceOp, tag: u64) {
    let p = c.size();
    let me = c.rank();
    let n = buf.len();
    if n == 0 {
        // Still synchronize so the collective sequence stays aligned.
        barrier(c);
        return;
    }
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    // Reduce-scatter: after p-1 steps, rank r owns the fully reduced
    // chunk (r + 1) % p.
    for step in 0..p - 1 {
        c.send(right, tag, &buf[chunk(n, p, (me + p - step) % p)]);
        recv_fold(c, left, tag, op, &mut buf[chunk(n, p, (me + p - step - 1) % p)]);
    }
    // Allgather: circulate the reduced chunks.
    for step in 0..p - 1 {
        c.send(right, tag, &buf[chunk(n, p, (me + 1 + p - step) % p)]);
        recv_copy(c, left, tag, &mut buf[chunk(n, p, (me + p - step) % p)]);
    }
}

/// Rabenseifner's allreduce: recursive-halving reduce-scatter followed by
/// a recursive-doubling allgather — `2·log2 P'` rounds moving about
/// `2m(P'−1)/P'` bytes per rank (`P'` = largest power of two ≤ P), the
/// ring's bandwidth optimality with logarithmic latency. Excess ranks are
/// parked as in recursive doubling. The element space is split into the
/// ring's balanced chunk partition over the `P'` group, so any length
/// works, including lengths shorter than `P'`. Each chunk is reduced
/// along a fixed binary tree on exactly one owner and then copied
/// verbatim to all ranks, so the result is bitwise identical everywhere.
fn rabenseifner<S: PointToPoint>(s: &mut S, buf: &mut [f64], op: ReduceOp, tag: u64) {
    let Some(pow2) = park(s, buf, op, tag) else { return };
    let me = s.rank();
    let n = buf.len();
    // Element span of the chunk interval [lo, hi).
    let span = |lo: usize, hi: usize| chunk(n, pow2, lo).start..chunk(n, pow2, hi - 1).end;

    // Reduce-scatter by recursive halving: each round gives the partner
    // half of the remaining chunk interval and folds the kept half. After
    // log2(pow2) rounds rank r owns exactly chunk r, fully reduced.
    let (mut lo, mut hi) = (0usize, pow2);
    let mut mask = pow2 >> 1;
    while mask > 0 {
        let mid = lo + (hi - lo) / 2;
        let (keep, give) =
            if me & mask == 0 { ((lo, mid), (mid, hi)) } else { ((mid, hi), (lo, mid)) };
        s.send(me ^ mask, tag, &buf[span(give.0, give.1)]);
        recv_fold(s, me ^ mask, tag, op, &mut buf[span(keep.0, keep.1)]);
        (lo, hi) = keep;
        mask >>= 1;
    }

    // Allgather by recursive doubling: the owned interval (always mask
    // chunks long and mask-aligned) doubles until it is [0, pow2); the
    // partner's interval is the mirror of ours within the doubled block.
    let mut mask = 1usize;
    while mask < pow2 {
        s.send(me ^ mask, tag, &buf[span(lo, hi)]);
        let plo = lo ^ mask;
        recv_copy(s, me ^ mask, tag, &mut buf[span(plo, plo + mask)]);
        lo = lo.min(plo);
        hi = lo + 2 * mask;
        mask <<= 1;
    }
    unpark(s, buf, tag, pow2);
}

/// Hierarchical allreduce for fat-tree-of-multicore-node machines (see
/// [`AllreduceAlgo::Hierarchical`]): an ascending-rank linear fold onto
/// each node's leader over the intra-node fabric, Rabenseifner among the
/// leaders over the inter-node network, then an intra-node send of the
/// result. Fold orders are fixed, so the result is bitwise identical on
/// every rank. On a flat topology every rank is its own leader and this
/// is plain Rabenseifner.
fn hierarchical<S: PointToPoint>(
    s: &mut S,
    buf: &mut [f64],
    op: ReduceOp,
    tag: u64,
    node_size: usize,
) {
    let p = s.size();
    let me = s.rank();
    let ns = node_size.clamp(1, p);
    let leader = me / ns * ns;
    let node_end = (leader + ns).min(p);
    if me != leader {
        s.send(leader, tag, buf);
        recv_copy(s, leader, tag, buf);
        return;
    }
    for src in leader + 1..node_end {
        recv_fold(s, src, tag, op, buf);
    }
    let mut leaders =
        Members { inner: &mut *s, members: (0..p).step_by(ns).collect(), rank: me / ns };
    rabenseifner(&mut leaders, buf, op, tag);
    for dst in leader + 1..node_end {
        s.send(dst, tag, buf);
    }
}
