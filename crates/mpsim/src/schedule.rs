//! The collective schedules, each written exactly once, as data.
//!
//! Every barrier, broadcast, gather, allgather and allreduce in the
//! workspace is a `Plan`: a list of rounds of point-to-point `Step`s
//! in the communicator's dense ranks, each moving a range of the buffer
//! (folded into the receiver's with [`ReduceOp::fold`], or copied over
//! it) or one rank's whole contributed block. A plan depends only on its
//! [`PlanKey`] — shape, size, length, root and node size — so it is built
//! once, kept in a small bounded cache (`plan`) and indexed per rank:
//! rank `r`'s program is its steps in round order, within a round its
//! sends before its receives.
//!
//! A plan runs two ways, with the same folds in the same order, so the
//! results are bitwise identical:
//!
//! * **As messages,** on the native backend (`shmcomm`): [`exchange`]
//!   walks one rank's program over its world's `send_f64s`/`recv_f64s`
//!   ([`crate::Communicator`]), a group's members addressed by world rank.
//! * **At one rendezvous,** on the simulator: every member lends its
//!   buffer and its message endpoint (clock, counters, event trace) to
//!   one meeting point, and the last to arrive runs the whole plan for
//!   all of them (`run_central`). Each member's messages are booked in
//!   its own program order by the methods that book a point-to-point
//!   message (`crate::comm::Endpoint`), so each member pays exactly the
//!   LogGP costs, and meets exactly the fault plan, timeout and checksum
//!   checks, replay log and event trace, its messages would have (see
//!   `crate::coop`).
//!
//! Either way the sequence of sends, receives and folds a rank performs
//! depends only on the plan key — on every communicator and both
//! backends, by construction. That is what makes results bitwise
//! identical across backends.
//!
//! A collective sees a communicator through one hook trait,
//! [`Collective`]: the entry hook that allocates a collective's tag and
//! posts its fingerprint, the replication check run on a replicated
//! result, the hook that runs a plan, a typed `mismatch`, and the default
//! allreduce schedule. Dense `rank` and `size` come from
//! [`crate::SpmdComm`], whose provided methods (and
//! [`crate::Communicator`]'s) are the one body of every collective entry
//! point, on every communicator and both backends.
//!
//! # SPMD discipline
//!
//! As with MPI, all ranks must call the same sequence of collectives with
//! compatible arguments. Each collective consumes one slot of the
//! communicator's sequence number, which becomes its message tag and its
//! rendezvous key, so a rank that skips a collective deadlocks (and is
//! diagnosed) rather than silently corrupting a later one. A buffer whose
//! length disagrees with a peer's fails the run with
//! [`SimError::CollectiveMismatch`],
//! whether or not the fingerprint verifier is on.
//!
//! # Phase attribution
//!
//! Collectives carry no phase tagging of their own: every constituent
//! send/recv and all idle time waiting on peers is charged to whatever
//! phase span (see [`SpmdComm::enter_phase`]) is
//! open on the calling rank.

use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

use crate::collectives::ReduceOp;
use crate::comm::{Endpoint, Net, Stamp};
use crate::cost::AllreduceAlgo;
use crate::error::SimError;
use crate::traits::{Communicator, SpmdComm};
use crate::verify::{CollFingerprint, CollKind, WORLD_COMM};

/// Base of the tag space reserved for world collectives (above all user
/// tags); a world collective's tag is this plus its sequence number.
pub const COLL_TAG_BASE: u64 = 1 << 32;

/// The hooks the schedules run on, below the public
/// [`SpmdComm`] surface: each world communicator and
/// [`Group`](crate::subcomm::Group) implements them once, and every
/// collective [`SpmdComm`] and [`Communicator`] offer is written once over
/// them.
pub trait Collective {
    /// Fail the run with a typed collective-argument mismatch.
    fn mismatch(&self, detail: String) -> !;
    /// Enter a collective: allocate its tag and post its fingerprint.
    fn coll_enter(&mut self, fp: CollFingerprint) -> u64;
    /// Cross-check a replicated result across ranks (no-op unless
    /// replication checking is on).
    fn check_replicated(&mut self, label: &str, buf: &[f64]);
    /// Run this rank's part of the plan `key` names, for the collective
    /// just entered with `tag`: at the simulator's rendezvous, or as
    /// messages ([`exchange`]) on a world without one.
    fn run_plan(&mut self, key: PlanKey, tag: u64, op: ReduceOp, buf: &mut Buf<'_>);
    /// The schedule and node size of an allreduce of `len` elements with
    /// the communicator's default algorithm: a world's machine algorithm,
    /// resolved ([`crate::MachineSpec::allreduce_schedule`]); a group's
    /// recursive doubling with node size 1.
    fn default_allreduce(&self, len: usize) -> (AllreduceAlgo, usize);
}

/// Where a member meets the other members of one collective.
#[derive(Debug, Clone, Copy)]
pub struct Seating<'a> {
    /// Registry id of the communicator (the verifier's id).
    pub comm: u64,
    /// The collective's sequence number on that communicator.
    pub seq: u64,
    /// World ranks of the members, ascending; `None` for the world itself.
    pub members: Option<&'a [usize]>,
    /// The caller's dense rank among the members.
    pub rank: usize,
    /// The collective's message tag, which its events, replay-log
    /// entries and stalled receives carry.
    pub tag: u64,
}

impl Seating<'_> {
    /// The seat of world rank `rank` at world collective `seq`.
    pub fn world(seq: u64, rank: usize, tag: u64) -> Seating<'static> {
        Seating { comm: WORLD_COMM, seq, members: None, rank, tag }
    }
}

/// Run `at`'s part of the plan `key` names as messages over the world
/// communicator `w`, addressing each member by its world rank.
pub fn exchange<W: Communicator + ?Sized>(
    w: &mut W,
    at: Seating<'_>,
    key: PlanKey,
    op: ReduceOp,
    buf: &mut Buf<'_>,
) {
    plan(key).run(w, &at, op, buf);
}

/// The fingerprint a collective posts on entry.
pub(crate) fn fp(
    kind: CollKind,
    root: Option<usize>,
    op: Option<ReduceOp>,
    elems: usize,
) -> CollFingerprint {
    CollFingerprint { kind, root, op, elems: Some(elems), colors: None }
}

/// Fail through `s` unless the buffer a message lands in is exactly as
/// long as the message.
pub(crate) fn check_len<S: Collective + ?Sized>(s: &S, from: usize, mine: &[f64], data: &[f64]) {
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

/// Which schedule family a plan belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// Dissemination barrier: `ceil(log2 P)` rounds of empty messages.
    Barrier,
    /// Binomial-tree broadcast from the root.
    Broadcast,
    /// Every rank's block to the root, received in rank order.
    Gather,
    /// Ring allgather of every rank's block.
    Allgather,
    /// The allreduce schedule of a concrete algorithm (never `Auto`).
    Allreduce(AllreduceAlgo),
}

/// Everything a plan depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanKey {
    /// The schedule family.
    pub(crate) shape: Shape,
    /// Number of ranks taking part.
    pub(crate) size: usize,
    /// Elements in each rank's buffer (0 for barriers and for the block
    /// collectives, whose blocks may differ in length).
    pub(crate) len: usize,
    /// Root of a broadcast or gather (0 otherwise).
    pub(crate) root: usize,
    /// Ranks per node, read by the hierarchical allreduce (1 otherwise).
    pub(crate) node_size: usize,
}

impl PlanKey {
    fn new(shape: Shape, size: usize) -> Self {
        PlanKey { shape, size, len: 0, root: 0, node_size: 1 }
    }

    /// The allreduce plan for `algo` over `size` ranks of `len` elements.
    fn allreduce(algo: AllreduceAlgo, size: usize, len: usize, node_size: usize) -> Self {
        let node_size =
            if algo == AllreduceAlgo::Hierarchical { node_size.clamp(1, size.max(1)) } else { 1 };
        PlanKey { len, node_size, ..PlanKey::new(Shape::Allreduce(algo), size) }
    }
}

/// What one step moves from its source to its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Move {
    /// Elements `lo..hi` of the source's buffer, folded into the same
    /// range of the destination's (`dst = dst op src`).
    Fold(u32, u32),
    /// Elements `lo..hi` of the source's buffer, copied over the same
    /// range of the destination's.
    Copy(u32, u32),
    /// The whole block contributed by rank `b`, copied to the
    /// destination's block `b` (gather and allgather).
    Block(u32),
}

/// One message of a plan, in dense ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Step {
    /// Sending rank.
    src: u32,
    /// Receiving rank.
    dst: u32,
    /// What the message carries and how it lands.
    what: Move,
}

/// Marks a receive in a rank's program (otherwise a send).
const RECV: u32 = 1 << 31;

/// A collective schedule as data: rounds of steps, plus each rank's
/// program in the order that rank performs them.
#[derive(Debug)]
pub(crate) struct Plan {
    key: PlanKey,
    steps: Vec<Step>,
    /// Round `i` is `steps[rounds[i]..rounds[i + 1]]`.
    rounds: Vec<u32>,
    /// Rank `r`'s program is `program[starts[r]..starts[r + 1]]`: step
    /// indices, with [`RECV`] set on receives.
    starts: Vec<u32>,
    program: Vec<u32>,
}

/// The buffer a collective works on, as the plan's moves address it.
pub enum Buf<'a> {
    /// One flat buffer (barrier, broadcast, allreduce).
    Flat(&'a mut [f64]),
    /// One block per rank, indexed by dense rank (gather, allgather); on
    /// entry only the caller's own block is meaningful.
    Blocks(&'a mut Vec<Vec<f64>>),
}

impl Buf<'_> {
    /// The data a send of `what` carries.
    fn part(&self, what: Move) -> &[f64] {
        match (self, what) {
            (Buf::Flat(b), Move::Fold(lo, hi) | Move::Copy(lo, hi)) => &b[lo as usize..hi as usize],
            (Buf::Blocks(bl), Move::Block(i)) => &bl[i as usize],
            _ => unreachable!("a plan's moves match its buffer's shape"),
        }
    }

    /// Land the message `data` from `from` as `what` says, failing through
    /// `s` when its length disagrees with the range it lands in.
    fn land<S: Collective + ?Sized>(
        &mut self,
        s: &S,
        from: usize,
        what: Move,
        op: ReduceOp,
        data: Vec<f64>,
    ) {
        match (self, what) {
            (Buf::Flat(b), Move::Fold(lo, hi)) => {
                let dst = &mut b[lo as usize..hi as usize];
                check_len(s, from, dst, &data);
                op.fold(dst, &data);
            }
            (Buf::Flat(b), Move::Copy(lo, hi)) => {
                let dst = &mut b[lo as usize..hi as usize];
                check_len(s, from, dst, &data);
                dst.copy_from_slice(&data);
            }
            (Buf::Blocks(bl), Move::Block(i)) => bl[i as usize] = data,
            _ => unreachable!("a plan's moves match its buffer's shape"),
        }
    }
}

impl Plan {
    /// The plan's rounds, in order.
    fn rounds(&self) -> impl Iterator<Item = &[Step]> + '_ {
        self.rounds.windows(2).map(|w| &self.steps[w[0] as usize..w[1] as usize])
    }

    /// Heap bytes the plan holds.
    fn bytes(&self) -> usize {
        std::mem::size_of::<Plan>()
            + self.steps.capacity() * std::mem::size_of::<Step>()
            + (self.rounds.capacity() + self.starts.capacity() + self.program.capacity()) * 4
    }

    /// Run `at`'s part of the plan as messages over `w`.
    fn run<W: Communicator + ?Sized>(
        &self,
        w: &mut W,
        at: &Seating<'_>,
        op: ReduceOp,
        buf: &mut Buf<'_>,
    ) {
        let me = at.rank;
        let world = |r: u32| at.members.map_or(r as usize, |m| m[r as usize]);
        let ops = &self.program[self.starts[me] as usize..self.starts[me + 1] as usize];
        for &code in ops {
            let st = self.steps[(code & !RECV) as usize];
            if code & RECV == 0 {
                w.send_f64s(world(st.dst), at.tag, buf.part(st.what));
            } else {
                let data = w.recv_f64s(world(st.src), at.tag);
                buf.land(w, st.src as usize, st.what, op, data);
            }
        }
    }

    /// Build the plan `key` names.
    fn build(key: PlanKey) -> Plan {
        let mut b = Builder { steps: Vec::new(), rounds: vec![0] };
        let (p, n) = (key.size, key.len);
        match key.shape {
            Shape::Barrier => barrier_steps(&mut b, p),
            Shape::Broadcast => broadcast_steps(&mut b, p, key.root, n),
            Shape::Gather => gather_steps(&mut b, p, key.root),
            Shape::Allgather => allgather_steps(&mut b, p),
            Shape::Allreduce(AllreduceAlgo::Linear) => linear_steps(&mut b, p, n),
            Shape::Allreduce(AllreduceAlgo::RecursiveDoubling) => {
                recursive_doubling_steps(&mut b, p, n, &|r| r);
            }
            Shape::Allreduce(AllreduceAlgo::Ring) => ring_steps(&mut b, p, n),
            Shape::Allreduce(AllreduceAlgo::Rabenseifner) => {
                rabenseifner_steps(&mut b, p, n, &|r| r);
            }
            Shape::Allreduce(AllreduceAlgo::Hierarchical) => {
                hierarchical_steps(&mut b, p, n, key.node_size);
            }
            Shape::Allreduce(AllreduceAlgo::Auto) => {
                unreachable!("Auto is resolved before a plan is keyed")
            }
        }
        b.index(key)
    }
}

/// Rounds of steps under construction.
struct Builder {
    steps: Vec<Step>,
    rounds: Vec<u32>,
}

impl Builder {
    fn step(&mut self, src: usize, dst: usize, what: Move) {
        self.steps.push(Step { src: src as u32, dst: dst as u32, what });
    }

    /// Close the current round (nothing to close when it is empty).
    fn round(&mut self) {
        let end = self.steps.len() as u32;
        if self.rounds[self.rounds.len() - 1] != end {
            self.rounds.push(end);
        }
    }

    /// Index every rank's program: its steps round by round, within a
    /// round its sends before its receives, each in step order.
    fn index(mut self, key: PlanKey) -> Plan {
        self.round();
        let p = key.size;
        let mut starts = vec![0u32; p + 1];
        for st in &self.steps {
            starts[st.src as usize + 1] += 1;
            starts[st.dst as usize + 1] += 1;
        }
        for r in 0..p {
            starts[r + 1] += starts[r];
        }
        let mut next = starts[..p].to_vec();
        let mut program = vec![0u32; 2 * self.steps.len()];
        let mut put = |rank: u32, code: u32| {
            let at = &mut next[rank as usize];
            program[*at as usize] = code;
            *at += 1;
        };
        for w in self.rounds.windows(2) {
            let round = w[0]..w[1];
            for i in round.clone() {
                put(self.steps[i as usize].src, i);
            }
            for i in round {
                put(self.steps[i as usize].dst, i | RECV);
            }
        }
        Plan { key, steps: self.steps, rounds: self.rounds, starts, program }
    }
}

/// Range move helpers over `usize` ranges.
fn fold(r: Range<usize>) -> Move {
    Move::Fold(r.start as u32, r.end as u32)
}

fn copy(r: Range<usize>) -> Move {
    Move::Copy(r.start as u32, r.end as u32)
}

/// Dissemination barrier: in round `k` every rank sends an empty message
/// `k` ranks ahead and receives one from `k` ranks behind.
fn barrier_steps(b: &mut Builder, p: usize) {
    let mut k = 1usize;
    while k < p {
        for me in 0..p {
            b.step(me, (me + k) % p, copy(0..0));
        }
        b.round();
        k <<= 1;
    }
}

/// Binomial-tree broadcast: in the round of mask `m` (from the largest
/// power of two below `P` down to 1) every relative rank that is a
/// multiple of `2m` forwards to the relative rank `m` above it. A rank
/// receives once, in the round of its lowest set bit, and forwards in
/// every later round.
fn broadcast_steps(b: &mut Builder, p: usize, root: usize, n: usize) {
    let mut mask = 1usize;
    while mask < p {
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        for v in (0..p).step_by(2 * mask) {
            if v + mask < p {
                b.step((v + root) % p, (v + mask + root) % p, copy(0..n));
            }
        }
        b.round();
        mask >>= 1;
    }
}

/// Gather: every other rank's block to the root, received in rank order.
fn gather_steps(b: &mut Builder, p: usize, root: usize) {
    for src in (0..p).filter(|&src| src != root) {
        b.step(src, root, Move::Block(src as u32));
    }
}

/// Ring allgather: step `s` forwards to the right the block received at
/// step `s - 1` (a rank's own at `s = 0`).
fn allgather_steps(b: &mut Builder, p: usize) {
    for step in 0..p.saturating_sub(1) {
        for me in 0..p {
            b.step(me, (me + 1) % p, Move::Block(((me + p - step) % p) as u32));
        }
        b.round();
    }
}

/// Linear allreduce: rank 0 folds every rank's vector in rank order, then
/// sends the result back to each rank individually. `O(P)` latencies —
/// the behaviour of early-90s MPI reductions.
fn linear_steps(b: &mut Builder, p: usize, n: usize) {
    for src in 1..p {
        b.step(src, 0, fold(0..n));
    }
    b.round();
    for dst in 1..p {
        b.step(0, dst, copy(0..n));
    }
    b.round();
}

/// Largest power of two `≤ p`.
fn pow2_floor(p: usize) -> usize {
    if p.is_power_of_two() {
        p
    } else {
        p.next_power_of_two() / 2
    }
}

/// The non-power-of-two pre-step of MPICH over ranks `rk(0..p)`: each rank
/// at or above the largest power of two `pow2 ≤ P` hands its vector to
/// rank `me - pow2`, which folds it in; the parked rank then waits for
/// [`unpark_steps`]. Returns `pow2`.
fn park_steps(b: &mut Builder, p: usize, n: usize, rk: &dyn Fn(usize) -> usize) -> usize {
    let pow2 = pow2_floor(p);
    for me in pow2..p {
        b.step(rk(me), rk(me - pow2), fold(0..n));
    }
    b.round();
    pow2
}

/// The post-step matching [`park_steps`]: hand the result to the parked
/// partner.
fn unpark_steps(b: &mut Builder, p: usize, n: usize, pow2: usize, rk: &dyn Fn(usize) -> usize) {
    for me in pow2..p {
        b.step(rk(me - pow2), rk(me), copy(0..n));
    }
    b.round();
}

/// Recursive doubling: `log2 P'` rounds of pairwise full-vector exchanges
/// among the `P'` unparked ranks. Both partners fold the same two values
/// with a commutative op, so all ranks stay bitwise identical.
fn recursive_doubling_steps(b: &mut Builder, p: usize, n: usize, rk: &dyn Fn(usize) -> usize) {
    let pow2 = park_steps(b, p, n, rk);
    let mut mask = 1usize;
    while mask < pow2 {
        for me in 0..pow2 {
            b.step(rk(me), rk(me ^ mask), fold(0..n));
        }
        b.round();
        mask <<= 1;
    }
    unpark_steps(b, p, n, pow2, rk);
}

/// Ring allreduce: reduce-scatter then allgather, `2(P-1)` rounds of
/// `~m/P`-sized messages over a balanced (ragged) chunk partition.
/// Bandwidth-optimal for long vectors. Needs `n > 0`: an empty ring
/// allreduce runs a barrier instead (see [`allreduce`]).
fn ring_steps(b: &mut Builder, p: usize, n: usize) {
    // Reduce-scatter: after p-1 steps, rank r owns the fully reduced
    // chunk (r + 1) % p.
    for step in 0..p - 1 {
        for me in 0..p {
            b.step(me, (me + 1) % p, fold(chunk(n, p, (me + p - step) % p)));
        }
        b.round();
    }
    // Allgather: circulate the reduced chunks.
    for step in 0..p - 1 {
        for me in 0..p {
            b.step(me, (me + 1) % p, copy(chunk(n, p, (me + 1 + p - step) % p)));
        }
        b.round();
    }
}

/// Rabenseifner's allreduce over ranks `rk(0..p)`: recursive-halving
/// reduce-scatter followed by a recursive-doubling allgather — `2·log2 P'`
/// rounds moving about `2m(P'−1)/P'` bytes per rank (`P'` = largest power
/// of two ≤ P), the ring's bandwidth optimality with logarithmic latency.
/// Excess ranks are parked as in recursive doubling. The element space is
/// split into the ring's balanced chunk partition over the `P'` group, so
/// any length works, including lengths shorter than `P'`. Each chunk is
/// reduced along a fixed binary tree on exactly one owner and then copied
/// verbatim to all ranks, so the result is bitwise identical everywhere.
fn rabenseifner_steps(b: &mut Builder, p: usize, n: usize, rk: &dyn Fn(usize) -> usize) {
    let pow2 = park_steps(b, p, n, rk);
    // Element span of the chunk interval [lo, hi).
    let span = |(lo, hi): (usize, usize)| chunk(n, pow2, lo).start..chunk(n, pow2, hi - 1).end;
    // Each rank's chunk interval; partners share theirs until they split it.
    let mut owned = vec![(0usize, pow2); pow2];

    // Reduce-scatter by recursive halving: each round gives the partner
    // half of the remaining chunk interval and folds the kept half. After
    // log2(pow2) rounds rank r owns exactly chunk r, fully reduced.
    let mut mask = pow2 >> 1;
    while mask > 0 {
        for (me, iv) in owned.iter_mut().enumerate() {
            let (lo, hi) = *iv;
            let mid = lo + (hi - lo) / 2;
            let (keep, give) =
                if me & mask == 0 { ((lo, mid), (mid, hi)) } else { ((mid, hi), (lo, mid)) };
            b.step(rk(me), rk(me ^ mask), fold(span(give)));
            *iv = keep;
        }
        b.round();
        mask >>= 1;
    }

    // Allgather by recursive doubling: the owned interval (always mask
    // chunks long and mask-aligned) doubles until it is [0, pow2); the
    // partner's interval is the mirror of ours within the doubled block.
    let mut mask = 1usize;
    while mask < pow2 {
        for (me, iv) in owned.iter_mut().enumerate() {
            b.step(rk(me), rk(me ^ mask), copy(span(*iv)));
            let lo = iv.0.min(iv.0 ^ mask);
            *iv = (lo, lo + 2 * mask);
        }
        b.round();
        mask <<= 1;
    }
    unpark_steps(b, p, n, pow2, rk);
}

/// Hierarchical allreduce for fat-tree-of-multicore-node machines (see
/// [`AllreduceAlgo::Hierarchical`]): an ascending-rank linear fold onto
/// each node's leader over the intra-node fabric, Rabenseifner among the
/// leaders over the inter-node network, then an intra-node send of the
/// result. Fold orders are fixed, so the result is bitwise identical on
/// every rank. On a flat topology every rank is its own leader and this
/// is plain Rabenseifner.
fn hierarchical_steps(b: &mut Builder, p: usize, n: usize, ns: usize) {
    let nodes = || (0..p).step_by(ns).map(move |leader| (leader, (leader + ns).min(p)));
    for (leader, end) in nodes() {
        for src in leader + 1..end {
            b.step(src, leader, fold(0..n));
        }
    }
    b.round();
    rabenseifner_steps(b, p.div_ceil(ns), n, &|i| i * ns);
    for (leader, end) in nodes() {
        for dst in leader + 1..end {
            b.step(leader, dst, copy(0..n));
        }
    }
    b.round();
}

/// Most plans the cache keeps, and most heap bytes they may hold: about
/// two `hier_cluster(1024, 8)` allreduce plans. Rebuilding an evicted
/// plan costs far less than running it, while every cached byte counts
/// in a run's peak heap.
const PLAN_CACHE_ENTRIES: usize = 32;
const PLAN_CACHE_BYTES: usize = 1 << 18;

/// Plans kept for reuse, most recently used first.
static PLANS: Mutex<Vec<Arc<Plan>>> = Mutex::new(Vec::new());

/// The plan `key` names, from the cache or freshly built. The cache is
/// shared by every run in the process and both backends, and holds at
/// most 32 plans and 256 KiB of them (the most recently used plan always
/// stays, however large).
pub(crate) fn plan(key: PlanKey) -> Arc<Plan> {
    // A poisoned cache still holds whole plans: entries are only ever
    // inserted, moved or dropped as a unit.
    let mut plans = PLANS.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(i) = plans.iter().position(|p| p.key == key) {
        plans[..=i].rotate_right(1);
        return Arc::clone(&plans[0]);
    }
    let built = Arc::new(Plan::build(key));
    plans.insert(0, Arc::clone(&built));
    let mut bytes: usize = plans.iter().map(|p| p.bytes()).sum();
    while plans.len() > 1 && (plans.len() > PLAN_CACHE_ENTRIES || bytes > PLAN_CACHE_BYTES) {
        if let Some(evicted) = plans.pop() {
            bytes -= evicted.bytes();
        }
    }
    built
}

/// One member's seat at a rendezvous: what it brings — its arguments,
/// buffer and endpoint — and, once the plan has run, what it takes away.
#[derive(Debug)]
pub(crate) struct Seat {
    pub ep: Endpoint,
    pub key: PlanKey,
    pub op: ReduceOp,
    /// The member's flat buffer, or the block it contributes.
    pub data: Vec<f64>,
    /// Every member's block, once this member has received any (a
    /// gather's root, every allgather member); empty otherwise.
    pub blocks: Vec<Vec<f64>>,
    /// Where the member's program stopped short of its end, if it did.
    pub stop: Option<Box<Stop>>,
}

/// Why a member's program stopped inside a collective, at the step its
/// messages would have stopped it.
#[derive(Debug)]
pub(crate) enum Stop {
    /// The fault plan crashed it at a send or receive entry.
    Crashed(SimError),
    /// A message it received failed the timeout or checksum check.
    Failed(SimError),
    /// It waits on a message that world rank `src` never sent: `src`
    /// crashed or stopped first, or the wire dropped the message.
    Waits { src: usize },
}

/// Fail unless every seat holds the same collective call as dense rank
/// 0's; `world` maps dense ranks to the world ranks errors name.
fn check_seats(seats: &[Box<Seat>], world: &dyn Fn(usize) -> usize) -> Result<(), SimError> {
    let (k0, op0, r0) = (seats[0].key, seats[0].op, world(0));
    for (i, s) in seats.iter().enumerate().skip(1) {
        let k = s.key;
        let detail = if k.shape != k0.shape || k.size != k0.size {
            format!(
                "collective {:?} on {} ranks != {:?} on {} at rank {r0}",
                k.shape, k.size, k0.shape, k0.size
            )
        } else if k.len != k0.len {
            format!("buffer length {} != {} elements at rank {r0}", k.len, k0.len)
        } else if k.root != k0.root {
            format!("root {} != {} at rank {r0}", k.root, k0.root)
        } else if k.node_size != k0.node_size {
            format!("node size {} != {} at rank {r0}", k.node_size, k0.node_size)
        } else if s.op != op0 {
            format!("reduce op {:?} != {op0:?} at rank {r0}", s.op)
        } else {
            continue;
        };
        return Err(SimError::CollectiveMismatch { rank: world(i), detail });
    }
    Ok(())
}

/// Run a whole plan for every member at once: `seats[i]` is dense rank
/// `i`, world rank `members[i]` (`i` without a member list), and every
/// message is tagged `tag`. Each member's messages are booked into its
/// endpoint in its own program order, exactly as [`Plan::run`] over the
/// simulator's messages books them: per send, the crash checkpoint, then
/// [`Endpoint::send`]; per receive, the crash checkpoint, then
/// [`Endpoint::recv`]. Rounds run all their sends before any receive, so
/// a step's payload is the sender's buffer before the round's folds, as
/// on the wire.
///
/// A member stops at the step where its messages would stop it (see
/// [`Stop`]) and takes no further step, so a member that waits on it
/// stops in turn; a member whose receives all arrived finishes as if
/// nothing failed. Fails with a typed mismatch when the members disagree
/// on the call.
pub(crate) fn run_central(
    net: &Net,
    members: Option<&[usize]>,
    tag: u64,
    seats: &mut [Box<Seat>],
) -> Result<(), SimError> {
    let world = |i: usize| members.map_or(i, |m| m[i]);
    check_seats(seats, &world)?;
    let plan = plan(seats[0].key);
    let op = seats[0].op;
    let moved = |st: &Step| match st.what {
        Move::Fold(lo, hi) | Move::Copy(lo, hi) => (hi - lo) as usize,
        Move::Block(b) => seats[b as usize].data.len(),
    };
    // Per step of the current round: its stamp and where its payload sits
    // in `staged`, unless it was never sent. Both are sized for the widest
    // round up front, so they allocate once per collective.
    let mut sent: Vec<Option<(Stamp, Range<usize>)>> =
        Vec::with_capacity(plan.rounds().map(<[Step]>::len).max().unwrap_or(0));
    let widest = plan.rounds().map(|round| round.iter().map(moved).sum()).max();
    let mut staged: Vec<f64> = Vec::with_capacity(widest.unwrap_or(0));
    // Only a fault plan stops a member.
    let faults = net.fault.is_some();
    for round in plan.rounds() {
        sent.clear();
        staged.clear();
        for st in round {
            let (src, dst) = (st.src as usize, st.dst as usize);
            if faults && halted(&mut seats[src], net) {
                sent.push(None);
                continue;
            }
            let at = staged.len();
            match st.what {
                Move::Fold(lo, hi) | Move::Copy(lo, hi) => {
                    staged.extend_from_slice(&seats[src].data[lo as usize..hi as usize]);
                }
                // Blocks are never folded, so the block a rank forwards is
                // still its contributor's.
                Move::Block(b) => staged.extend_from_slice(&seats[b as usize].data),
            }
            let stamp = seats[src].ep.send(net, world(dst), tag, &staged[at..]);
            sent.push(stamp.map(|stamp| (stamp, at..staged.len())));
        }
        for (st, msg) in round.iter().zip(&sent) {
            let (src, dst) = (st.src as usize, st.dst as usize);
            let seat = &mut seats[dst];
            if faults && halted(seat, net) {
                continue;
            }
            let Some((stamp, payload)) = msg else {
                seat.stop = Some(Box::new(Stop::Waits { src: world(src) }));
                continue;
            };
            let data = &staged[payload.clone()];
            if let Err(err) = seat.ep.recv(net, world(src), tag, 8 * data.len(), stamp) {
                seat.stop = Some(Box::new(Stop::Failed(err)));
                continue;
            }
            match st.what {
                Move::Fold(lo, hi) => op.fold(&mut seat.data[lo as usize..hi as usize], data),
                Move::Copy(lo, hi) => seat.data[lo as usize..hi as usize].copy_from_slice(data),
                Move::Block(b) => {
                    if seat.blocks.is_empty() {
                        seat.blocks = vec![Vec::new(); plan.key.size];
                        seat.blocks[dst] = seat.data.clone();
                    }
                    seat.blocks[b as usize] = data.to_vec();
                }
            }
        }
    }
    Ok(())
}

/// Whether `seat`'s member has stopped, or stops now: the crash
/// checkpoint at the entry of its next send or receive.
#[cold]
fn halted(seat: &mut Seat, net: &Net) -> bool {
    if seat.stop.is_none() {
        seat.stop = seat.ep.crash(net).map(|err| Box::new(Stop::Crashed(err)));
    }
    seat.stop.is_some()
}

/// Synchronize all ranks (dissemination barrier, `ceil(log2 P)` rounds of
/// zero-length messages).
pub(crate) fn barrier<C: SpmdComm + ?Sized>(c: &mut C) {
    let p = c.size();
    if p <= 1 {
        return;
    }
    let tag = c.coll_enter(fp(CollKind::Barrier, None, None, 0));
    c.run_plan(PlanKey::new(Shape::Barrier, p), tag, ReduceOp::Sum, &mut Buf::Flat(&mut []));
}

/// Broadcast `buf` from `root` to all ranks (binomial tree). On entry only
/// `root`'s buffer is meaningful; all ranks pass buffers of one length.
pub(crate) fn broadcast<C: SpmdComm + ?Sized>(c: &mut C, root: usize, buf: &mut [f64]) {
    let p = c.size();
    if p <= 1 {
        return;
    }
    let tag = c.coll_enter(fp(CollKind::Broadcast, Some(root), None, buf.len()));
    let key = PlanKey { len: buf.len(), root, ..PlanKey::new(Shape::Broadcast, p) };
    c.run_plan(key, tag, ReduceOp::Sum, &mut Buf::Flat(buf));
    // Every rank now holds the root's data — a replication invariant.
    c.check_replicated("broadcast result", buf);
}

/// Gather each rank's (possibly differently sized) vector to `root`,
/// concatenated in rank order. `Some` on the root, `None` elsewhere.
pub(crate) fn gather<C: SpmdComm + ?Sized>(
    c: &mut C,
    root: usize,
    mine: &[f64],
) -> Option<Vec<f64>> {
    let p = c.size();
    let me = c.rank();
    let tag = c.coll_enter(fp(CollKind::Gather, Some(root), None, mine.len()));
    let mut blocks = vec![Vec::new(); p];
    blocks[me] = mine.to_vec();
    let key = PlanKey { root, ..PlanKey::new(Shape::Gather, p) };
    c.run_plan(key, tag, ReduceOp::Sum, &mut Buf::Blocks(&mut blocks));
    (me == root).then(|| blocks.concat())
}

/// Allgather over a ring: `result[r]` is rank `r`'s vector. Vectors may
/// differ in length across ranks.
pub(crate) fn allgather<C: SpmdComm + ?Sized>(c: &mut C, mine: &[f64]) -> Vec<Vec<f64>> {
    let p = c.size();
    let tag = c.coll_enter(fp(CollKind::Allgather, None, None, mine.len()));
    let mut blocks = vec![Vec::new(); p];
    blocks[c.rank()] = mine.to_vec();
    c.run_plan(
        PlanKey::new(Shape::Allgather, p),
        tag,
        ReduceOp::Sum,
        &mut Buf::Blocks(&mut blocks),
    );
    blocks
}

/// Allreduce `buf` with the concrete schedule `algo`; `node_size` is the
/// machine's ranks per node, read only by [`AllreduceAlgo::Hierarchical`].
/// On exit every rank holds the element-wise reduction of all ranks'
/// buffers, bitwise identical everywhere.
pub(crate) fn allreduce<C: SpmdComm + ?Sized>(
    c: &mut C,
    buf: &mut [f64],
    op: ReduceOp,
    algo: AllreduceAlgo,
    node_size: usize,
) {
    let p = c.size();
    if p <= 1 {
        return;
    }
    // The fingerprint is posted before dispatch, so a length or operator
    // divergence is caught even when the schedule would route the
    // mismatched buffers past each other.
    let tag = c.coll_enter(fp(CollKind::Allreduce, None, Some(op), buf.len()));
    if algo == AllreduceAlgo::Ring && buf.is_empty() {
        // An empty ring has no chunks to circulate; still synchronize so
        // the collective sequence stays aligned.
        barrier(c);
    } else {
        c.run_plan(PlanKey::allreduce(algo, p, buf.len(), node_size), tag, op, &mut Buf::Flat(buf));
    }
    c.check_replicated("allreduce result", buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_keys(p: usize, n: usize) -> Vec<PlanKey> {
        let mut keys = vec![
            PlanKey::new(Shape::Barrier, p),
            PlanKey { len: n, root: p / 2, ..PlanKey::new(Shape::Broadcast, p) },
            PlanKey { root: p - 1, ..PlanKey::new(Shape::Gather, p) },
            PlanKey::new(Shape::Allgather, p),
        ];
        for algo in [
            AllreduceAlgo::Linear,
            AllreduceAlgo::RecursiveDoubling,
            AllreduceAlgo::Ring,
            AllreduceAlgo::Rabenseifner,
            AllreduceAlgo::Hierarchical,
        ] {
            keys.push(PlanKey::allreduce(algo, p, n.max(1), 3));
        }
        keys
    }

    #[test]
    fn every_program_is_its_steps_sends_first_within_a_round() {
        for p in [2usize, 3, 5, 8, 13] {
            for key in all_keys(p, 7) {
                let plan = Plan::build(key);
                for me in 0..p {
                    let mut expect = Vec::new();
                    let mut base = 0u32;
                    for round in plan.rounds() {
                        let idx = |i: usize| base + i as u32;
                        let sends = round.iter().enumerate().filter(|(_, s)| s.src as usize == me);
                        expect.extend(sends.map(|(i, _)| idx(i)));
                        let recvs = round.iter().enumerate().filter(|(_, s)| s.dst as usize == me);
                        expect.extend(recvs.map(|(i, _)| idx(i) | RECV));
                        base += round.len() as u32;
                    }
                    let got = &plan.program[plan.starts[me] as usize..plan.starts[me + 1] as usize];
                    assert_eq!(got, &expect[..], "{key:?} rank {me}");
                }
            }
        }
    }

    #[test]
    fn hierarchical_plan_moves_the_probed_message_count() {
        // 896 node members fold up and get the result back (2 x 896), and
        // 128 leaders run Rabenseifner's 2 x 7 rounds (1 792).
        let plan = Plan::build(PlanKey::allreduce(AllreduceAlgo::Hierarchical, 1024, 58, 8));
        assert_eq!(plan.steps.len(), 3584);
    }

    #[test]
    fn plans_grow_as_p_log_p() {
        // `tests/heap_scaling.rs` measures runs with their plans already
        // cached, so the plans' own growth is pinned here: doubling P from
        // 512 grows a barrier plan by 2 x 10/9 and an allreduce plan by 2.
        for key in [
            |p| PlanKey::new(Shape::Barrier, p),
            |p| PlanKey::allreduce(AllreduceAlgo::Hierarchical, p, 58, 8),
        ] {
            let ratio =
                Plan::build(key(1024)).bytes() as f64 / Plan::build(key(512)).bytes() as f64;
            assert!(ratio < 2.5, "{:?}: {ratio:.2}", key(1024));
        }
    }

    #[test]
    fn cache_returns_one_plan_per_key_and_stays_bounded() {
        let key = PlanKey::allreduce(AllreduceAlgo::Ring, 6, 11, 1);
        assert!(Arc::ptr_eq(&plan(key), &plan(key)));
        for size in 2..2 + 2 * PLAN_CACHE_ENTRIES {
            plan(PlanKey::new(Shape::Barrier, size));
        }
        let plans = PLANS.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(plans.len() <= PLAN_CACHE_ENTRIES);
        assert!(
            plans.len() == 1 || plans.iter().map(|p| p.bytes()).sum::<usize>() <= PLAN_CACHE_BYTES
        );
    }
}
