//! Sub-communicators: the `MPI_Comm_split` analogue, for both backends.
//!
//! [`Communicator::split`] partitions a world communicator by color;
//! ranks sharing a color form a [`Group`] with dense ranks `0..group
//! size` ordered by world rank, and [`Group::split`] partitions a group
//! once more. A group borrows its world communicator and runs the shared
//! [`crate::schedule`] collectives on it, mapping group ranks to world
//! ranks through its member list, in a tag space and rendezvous keys
//! disjoint from world traffic and from every other group's. The group
//! type is generic over the world: `Group<'_, Comm>` is the simulator's
//! and `Group<'_, shmcomm::NativeComm>` the native backend's, so both
//! derive the same members, tags and registry ids from one protocol. It
//! implements [`SpmdComm`] and the schedules' [`Collective`] hooks once,
//! for both; its allreduce is always recursive doubling, whatever the
//! machine's default algorithm.
//!
//! The colors are a collective argument: every rank passes the same color
//! function, `color_of(r)` being parent rank `r`'s color, so each rank
//! works out its own group's membership locally and a split moves no
//! message. It still takes one collective sequence number on the parent,
//! which keeps the registry ids and tags of successive splits distinct and
//! lets the verifier diagnose a rank that skips the split. When the world
//! checks collectives ([`Communicator::checks_collectives`]), the
//! fingerprint also carries a hash of the whole color table, so a rank
//! whose colors differ fails the run with a collective divergence;
//! otherwise nothing reads that hash and a rank evaluates only the colors
//! it needs: its own, and one per parent rank to find its group.
//!
//! As with MPI, a split is itself collective: every rank of the parent
//! communicator must call it, in the same relative order with respect to
//! other collectives.

use std::sync::Arc;

use crate::collectives::ReduceOp;
use crate::cost::AllreduceAlgo;
use crate::replica::ReplicaKey;
use crate::schedule::{self, fp, Buf, Collective, PlanKey, Seating};
use crate::traits::{Communicator, SpmdComm};
use crate::verify::{hash_f64s, CollFingerprint, CollKind};

/// Tag-space marker for sub-communicator traffic (bit 63).
const SUB_TAG_BASE: u64 = 1 << 63;

/// Marker bit (bit 30 of the color key) for groups formed by splitting a
/// group — keeps a nested group's tags and verifier registry ids disjoint
/// from every first-level split's. First-level colors may not set it.
const NESTED_COLOR_BIT: u32 = 1 << 30;

/// Largest color a nested split takes, for the parent group and for the
/// child: the nested key packs both side by side, 15 bits each.
const NESTED_COLOR_MAX: u32 = 0x7FFF;

/// A communicator over a subset of a world communicator's ranks.
pub struct Group<'a, W> {
    world: &'a mut W,
    /// World ranks of the members, ascending; index = group rank.
    members: Vec<usize>,
    /// This rank's position within `members`.
    rank: usize,
    /// Color key the group was formed with (part of the tag space).
    color: u32,
    /// Per-group collective sequence number.
    seq: u64,
    /// Registry id for the verifiers: distinguishes this group from the
    /// world communicator and from groups of other splits/colors.
    comm_id: u64,
}

/// The fingerprint a split of a `size`-rank parent posts: the size and,
/// when `hashed` (the world checks collectives), a hash of the whole
/// color table.
fn split_fp(size: usize, color_of: &impl Fn(usize) -> u32, hashed: bool) -> CollFingerprint {
    let colors = hashed.then(|| {
        let table: Vec<f64> = (0..size).map(|r| f64::from(color_of(r))).collect();
        hash_f64s(&table)
    });
    CollFingerprint { colors, ..fp(CollKind::Split, None, None, size) }
}

impl<'a, W: Communicator> Group<'a, W> {
    /// Split `world` by `color_of(r)`, world rank `r`'s color, which every
    /// rank must compute identically for every rank: ranks of equal color
    /// form a group ([`Communicator::split`]). Collective over `world`, but
    /// no message moves. A color with bit 30 set fails the run with a
    /// typed collective mismatch: that bit marks nested groups.
    pub(crate) fn of_world(world: &'a mut W, color_of: impl Fn(usize) -> u32) -> Self {
        let (size, me) = (world.size(), world.rank());
        let color = color_of(me);
        if color & NESTED_COLOR_BIT != 0 {
            world
                .mismatch(format!("split color {color:#x} sets bit 30, which marks nested groups"));
        }
        let hashed = world.checks_collectives();
        world.coll_enter(split_fp(size, &color_of, hashed));
        let members: Vec<usize> = (0..size).filter(|&r| color_of(r) == color).collect();
        // All members entered the same split, so they agree on the world
        // collective sequence number and derive the same id; including it
        // keeps successive same-color splits distinct in the registries.
        let comm_id = SUB_TAG_BASE | (u64::from(color) << 32) | world.coll_seq();
        Group::new(world, members, me, color, comm_id)
    }

    /// A group over `members` (world ranks, ascending) that contains the
    /// calling world rank `me`.
    fn new(world: &'a mut W, members: Vec<usize>, me: usize, color: u32, comm_id: u64) -> Self {
        let rank = members
            .iter()
            .position(|&r| r == me)
            // lint:allow(unwrap): the members are the ranks of the caller's own color
            .expect("calling rank is in its own color group");
        Group { world, members, rank, color, seq: 0, comm_id }
    }

    /// World ranks of the group, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Split this group by `color_of(r)`, group rank `r`'s color, which
    /// every member must compute identically for every member: members of
    /// equal color form a nested sub-communicator (`MPI_Comm_split` on a
    /// non-world communicator), with dense ranks ordered by parent group
    /// rank. Collective over this group, with no message (see
    /// [`Communicator::split`]).
    ///
    /// Two levels of splitting are supported, with colors up to `0x7FFF`
    /// at each: a larger color, or a split of a nested group, fails the
    /// run with a typed collective mismatch rather than letting two
    /// groups share a tag space.
    pub fn split(&mut self, color_of: impl Fn(usize) -> u32) -> Group<'_, W> {
        let color = color_of(self.rank);
        if self.color > NESTED_COLOR_MAX || color > NESTED_COLOR_MAX {
            self.mismatch(format!(
                "nested split takes colors up to {NESTED_COLOR_MAX:#x} at two levels; \
                 got parent color {:#x}, child color {color:#x}",
                self.color
            ));
        }
        let hashed = self.world.checks_collectives();
        self.coll_enter(split_fp(self.size(), &color_of, hashed));
        // Child membership in *world* ranks, so the nested group talks
        // straight to the world like any first-level group.
        let members: Vec<usize> =
            (0..self.size()).filter(|&r| color_of(r) == color).map(|r| self.members[r]).collect();
        let me = self.members[self.rank];
        let key = NESTED_COLOR_BIT | (self.color << 15) | color;
        // All members agree on the parent's collective sequence here (they
        // all entered this split), so they derive the same registry id;
        // including it keeps successive same-color nested splits distinct
        // in the registries.
        let comm_id = SUB_TAG_BASE | (u64::from(key) << 32) | self.seq;
        Group::new(&mut *self.world, members, me, key, comm_id)
    }
}

impl<W: Communicator> SpmdComm for Group<'_, W> {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.members.len()
    }
    /// Local compute on the member's world clock.
    fn work(&mut self, ops: u64) {
        self.world.work(ops);
    }
    fn enter_phase(&mut self, name: &'static str) {
        self.world.enter_phase(name);
    }
    fn exit_phase(&mut self) {
        self.world.exit_phase();
    }
    fn derive_replicated<T, K, D>(&mut self, key: K, out: &mut Arc<T>, derive: D)
    where
        T: Clone + Send + Sync + 'static,
        K: Fn(&mut ReplicaKey<'_>),
        D: FnOnce(&mut T),
    {
        let size = self.members.len();
        self.world.derive_replicated_in(self.comm_id, size, key, out, derive);
    }
    /// The world's lend: a group's members are members of its world.
    fn with_scratch<T, R>(&mut self, own: &mut T, f: impl FnOnce(&mut T) -> R) -> R
    where
        T: Default + Send + 'static,
    {
        self.world.with_scratch(own, f)
    }
}

impl<W: Communicator> Collective for Group<'_, W> {
    fn mismatch(&self, detail: String) -> ! {
        self.world.mismatch(detail)
    }
    /// Allocate the group collective's tag and cross-validate its
    /// fingerprint against the other members (world-rank labelled, so
    /// divergence reports stay unambiguous).
    fn coll_enter(&mut self, fp: CollFingerprint) -> u64 {
        self.seq += 1;
        let size = self.members.len();
        self.world.check_collective(self.comm_id, self.seq, size, fp);
        SUB_TAG_BASE | (u64::from(self.color) << 32) | self.seq
    }
    fn check_replicated(&mut self, label: &str, buf: &[f64]) {
        let size = self.members.len();
        self.world.check_replication(self.comm_id, self.seq, size, label, buf);
    }
    /// Meet at the world's rendezvous, keyed by this group's id and
    /// sequence; a world without one (the native backend's) exchanges the
    /// plan's messages with the members.
    fn run_plan(&mut self, key: PlanKey, tag: u64, op: ReduceOp, buf: &mut Buf<'_>) {
        let members = Some(&self.members[..]);
        let at = Seating { comm: self.comm_id, seq: self.seq, members, rank: self.rank, tag };
        if !self.world.rendezvous(at, key, op, buf) {
            schedule::exchange(self.world, at, key, op, buf);
        }
    }
    /// Always recursive doubling, whatever the machine's default.
    fn default_allreduce(&self, _len: usize) -> (AllreduceAlgo, usize) {
        (AllreduceAlgo::RecursiveDoubling, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::presets;
    use crate::engine::run_spmd_default;

    #[test]
    fn split_forms_dense_groups() {
        let spec = presets::zero_cost(7);
        let out = run_spmd_default(&spec, |c| {
            let color = (c.rank() % 2) as u32;
            let sub = c.split(|r| (r % 2) as u32);
            (color, sub.rank(), sub.size(), sub.members().to_vec())
        })
        .unwrap();
        // Even group: world ranks 0,2,4,6; odd group: 1,3,5.
        for (rank, (color, sub_rank, size, members)) in out.per_rank.iter().enumerate() {
            if *color == 0 {
                assert_eq!(*size, 4);
                assert_eq!(*members, vec![0, 2, 4, 6]);
                assert_eq!(*sub_rank, rank / 2);
            } else {
                assert_eq!(*size, 3);
                assert_eq!(*members, vec![1, 3, 5]);
                assert_eq!(*sub_rank, rank / 2);
            }
        }
    }

    #[test]
    fn group_allreduce_stays_within_the_group() {
        let spec = presets::zero_cost(6);
        let out = run_spmd_default(&spec, |c| {
            let mut sub = c.split(|r| (r % 2) as u32);
            let mut buf = vec![1.0];
            sub.allreduce_f64s(&mut buf, ReduceOp::Sum);
            buf[0]
        })
        .unwrap();
        // Each group has 3 members; sums must not leak across groups.
        assert!(out.per_rank.iter().all(|&v| v == 3.0), "{:?}", out.per_rank);
    }

    #[test]
    fn group_broadcast_and_gather() {
        let spec = presets::zero_cost(5);
        let out = run_spmd_default(&spec, |c| {
            let color = u32::from(c.rank() >= 2); // {0,1} and {2,3,4}
            let mut sub = c.split(|r| u32::from(r >= 2));
            let mut buf = vec![0.0];
            if sub.rank() == 0 {
                buf[0] = 100.0 + f64::from(color);
            }
            sub.broadcast_f64s(0, &mut buf);
            let gathered = sub.gather_f64s(0, &[sub.rank() as f64]);
            (buf[0], gathered)
        })
        .unwrap();
        for (rank, (b, g)) in out.per_rank.iter().enumerate() {
            let color = usize::from(rank >= 2);
            assert_eq!(*b, 100.0 + color as f64, "rank {rank}");
            if rank == 0 {
                assert_eq!(g.as_deref(), Some(&[0.0, 1.0][..]));
            } else if rank == 2 {
                assert_eq!(g.as_deref(), Some(&[0.0, 1.0, 2.0][..]));
            } else {
                assert!(g.is_none());
            }
        }
    }

    #[test]
    fn group_barrier_and_world_collectives_interleave() {
        // Sub-collectives must not corrupt world collectives run after.
        let spec = presets::zero_cost(4);
        let out = run_spmd_default(&spec, |c| {
            {
                let mut sub = c.split(|r| (r / 2) as u32);
                sub.barrier();
                let mut v = vec![sub.rank() as f64];
                sub.allreduce_f64s(&mut v, ReduceOp::Sum);
                assert_eq!(v[0], 1.0); // 0 + 1 within each pair
            }
            c.allreduce_scalar(1.0, ReduceOp::Sum)
        })
        .unwrap();
        assert!(out.per_rank.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn nested_split_forms_dense_groups() {
        // World {0..8} -> halves by rank/4 -> pairs by (rank/2)%2.
        let spec = presets::zero_cost(8);
        let out = run_spmd_default(&spec, |c| {
            let mut sub = c.split(|r| (r / 4) as u32);
            // Group rank r of a half is world rank 4h + r.
            let mut inner = sub.split(|r| ((r / 2) % 2) as u32);
            let mut v = vec![inner.members()[inner.rank()] as f64];
            inner.allreduce_f64s(&mut v, ReduceOp::Sum);
            (inner.rank(), inner.size(), inner.members().to_vec(), v[0])
        })
        .unwrap();
        for (rank, (sub_rank, size, members, sum)) in out.per_rank.iter().enumerate() {
            // Pairs {0,1},{2,3},{4,5},{6,7} in world ranks.
            let base = rank - rank % 2;
            assert_eq!(*size, 2, "rank {rank}");
            assert_eq!(*members, vec![base, base + 1], "rank {rank}");
            assert_eq!(*sub_rank, rank % 2, "rank {rank}");
            assert_eq!(*sum, (base + base + 1) as f64, "rank {rank}");
        }
    }

    #[test]
    fn nested_split_ragged_groups_and_world_interleave() {
        // World of 7 -> {0,1,2,3} / {4,5,6} -> inner ragged splits; then a
        // world collective must still line up.
        let spec = presets::zero_cost(7);
        let out = run_spmd_default(&spec, |c| {
            let me = c.rank();
            let inner_sum = {
                let mut sub = c.split(|r| u32::from(r >= 4));
                let mut inner = sub.split(|r| u32::from(r == 0));
                inner.barrier();
                let mut v = vec![1.0];
                inner.allreduce_f64s(&mut v, ReduceOp::Sum);
                let gathered = inner.gather_f64s(0, &[me as f64]);
                if let Some(g) = &gathered {
                    assert_eq!(g.len(), inner.size());
                }
                v[0]
            };
            (inner_sum, c.allreduce_scalar(1.0, ReduceOp::Sum))
        })
        .unwrap();
        for (rank, (inner_sum, world_sum)) in out.per_rank.iter().enumerate() {
            // Group {0,1,2,3}: inner groups {0} and {1,2,3}; group
            // {4,5,6}: inner groups {4} and {5,6}.
            let expect = match rank {
                0 | 4 => 1.0,
                1..=3 => 3.0,
                _ => 2.0,
            };
            assert_eq!(*inner_sum, expect, "rank {rank}");
            assert_eq!(*world_sum, 7.0, "rank {rank}");
        }
    }

    #[test]
    fn splits_move_no_messages_and_take_no_time() {
        // A barrier before and after brackets a world split and a nested
        // split on a machine with real latencies: the splits add nothing
        // to any rank's clock or message counts, and the run's totals
        // equal those of the same run without them.
        let spec = presets::meiko_cs2(7);
        let run = |with_splits: bool| {
            run_spmd_default(&spec, move |c| {
                c.work(1000 * (c.rank() as u64 + 1));
                c.barrier();
                let (before, t0) = (c.stats(), c.now());
                let members = with_splits.then(|| {
                    let mut sub = c.split(|r| (r % 3) as u32);
                    let inner = sub.split(|r| u32::from(r == 0));
                    inner.members().to_vec()
                });
                let (after, t1) = (c.stats(), c.now());
                c.barrier();
                let moved =
                    (after.msgs_sent - before.msgs_sent, after.msgs_recvd - before.msgs_recvd);
                (members, moved, t1 - t0)
            })
            .unwrap()
        };
        let (split, plain) = (run(true), run(false));
        for (rank, (members, moved, dt)) in split.per_rank.iter().enumerate() {
            assert_eq!(*moved, (0, 0), "rank {rank}");
            assert_eq!(*dt, 0.0, "rank {rank}");
            let outer: Vec<usize> = (0..7).filter(|r| r % 3 == rank % 3).collect();
            let inner: Vec<usize> = if rank == outer[0] { vec![rank] } else { outer[1..].to_vec() };
            assert_eq!(members.as_deref(), Some(&inner[..]), "rank {rank}");
        }
        assert_eq!(split.stats, plain.stats);
        for (s, p) in split.ranks.iter().zip(&plain.ranks) {
            assert_eq!(s.elapsed, p.elapsed, "rank {}", s.rank);
        }
    }

    #[test]
    fn differing_color_functions_are_a_collective_divergence() {
        // Rank 2 computes a different color table: the split's fingerprint
        // carries the table's hash, so the verifier names the divergence
        // instead of letting the groups disagree on membership.
        let spec = presets::zero_cost(4);
        let err = crate::engine::run_spmd(&spec, &crate::SimOptions::verified(), |c| {
            let me = c.rank();
            c.split(|r| u32::from(r == 3 || (me == 2 && r == 0))).size()
        })
        .unwrap_err();
        match err {
            crate::SimError::CollectiveDivergence { detail, .. } => {
                assert!(detail.contains("Split") && detail.contains("colors="), "{detail}");
            }
            other => panic!("expected CollectiveDivergence, got {other:?}"),
        }
    }

    #[test]
    fn a_skipped_split_is_a_collective_divergence() {
        // The split holds a collective slot on its parent although it moves
        // no message, so a rank that runs a barrier in its place is caught.
        let spec = presets::zero_cost(4);
        let err = crate::engine::run_spmd(&spec, &crate::SimOptions::verified(), |c| {
            if c.rank() == 0 {
                c.barrier();
            } else {
                c.split(|_| 0).barrier();
            }
        })
        .unwrap_err();
        match err {
            crate::SimError::CollectiveDivergence { detail, .. } => {
                assert!(detail.contains("Split") && detail.contains("Barrier"), "{detail}");
            }
            other => panic!("expected CollectiveDivergence, got {other:?}"),
        }
    }

    #[test]
    fn singleton_groups_are_fine() {
        let spec = presets::zero_cost(3);
        let out = run_spmd_default(&spec, |c| {
            let mut sub = c.split(|r| r as u32); // every rank alone
            sub.barrier();
            let mut v = vec![7.0];
            sub.allreduce_f64s(&mut v, ReduceOp::Sum);
            (sub.size(), v[0])
        })
        .unwrap();
        assert!(out.per_rank.iter().all(|&(s, v)| s == 1 && v == 7.0));
    }
}
