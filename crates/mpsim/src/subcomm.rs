//! Sub-communicators: the `MPI_Comm_split` analogue, for both backends.
//!
//! [`split`] partitions a world communicator by a `color`; ranks sharing a
//! color form a [`Group`] with dense ranks `0..group size` ordered by world
//! rank, and [`Group::split`] partitions a group once more. A group borrows
//! its world communicator and runs the shared [`crate::schedule`]
//! collectives through a member-list view of it, in a tag space disjoint
//! from world traffic and from every other group's. The group type is
//! generic over the world: [`SubComm`] is the simulator's and
//! `shmcomm::NativeSubComm` the native backend's, so both derive the same
//! members, tags and registry ids from one protocol.
//!
//! As with MPI, `split` is itself collective: every rank of the parent
//! communicator must call it (with whatever color), in the same relative
//! order with respect to other collectives.

use crate::collectives::ReduceOp;
use crate::comm::Comm;
use crate::cost::AllreduceAlgo;
use crate::schedule::{self, Collective, Members, PointToPoint, World};
use crate::verify::CollFingerprint;

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
    /// The world, seen through the member list (world ranks, ascending;
    /// index = group rank).
    view: Members<'a, W>,
    /// Color key the group was formed with (part of the tag space).
    color: u32,
    /// Per-group collective sequence number.
    seq: u64,
    /// Registry id for the verifiers: distinguishes this group from the
    /// world communicator and from groups of other splits/colors.
    comm_id: u64,
}

/// The simulator's sub-communicator.
pub type SubComm<'a> = Group<'a, Comm>;

impl Comm {
    /// Split the world communicator by color: ranks passing equal colors
    /// form a group. Collective over the world communicator.
    pub fn split(&mut self, color: u32) -> SubComm<'_> {
        split(self, color)
    }
}

/// Split `world` by color: ranks passing equal colors form a group.
/// Collective over `world`. A color with bit 30 set fails the run with a
/// typed collective mismatch: that bit marks nested groups.
pub fn split<W: World>(world: &mut W, color: u32) -> Group<'_, W> {
    if color & NESTED_COLOR_BIT != 0 {
        world.mismatch(format!("split color {color:#x} sets bit 30, which marks nested groups"));
    }
    // Allgather (world) of colors to agree on the membership.
    let all = schedule::allgather(world, &[f64::from(color)]);
    let members: Vec<usize> =
        all.iter().enumerate().filter(|(_, c)| c[0] as u32 == color).map(|(r, _)| r).collect();
    let me = PointToPoint::rank(world);
    // All members observed the same split allgather, so they agree on the
    // world collective sequence number and derive the same id; including
    // it keeps successive same-color splits distinct in the registries.
    let comm_id = SUB_TAG_BASE | (u64::from(color) << 32) | world.coll_seq();
    Group::new(world, members, me, color, comm_id)
}

impl<'a, W: World> Group<'a, W> {
    /// A group over `members` (world ranks, ascending) that contains the
    /// calling world rank `me`.
    fn new(world: &'a mut W, members: Vec<usize>, me: usize, color: u32, comm_id: u64) -> Self {
        let rank = members
            .iter()
            .position(|&r| r == me)
            // lint:allow(unwrap): the color exchange included this rank's own color
            .expect("calling rank is in its own color group");
        Group { view: Members { inner: world, members, rank }, color, seq: 0, comm_id }
    }

    /// This rank's id within the group.
    pub fn rank(&self) -> usize {
        self.view.rank
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.view.members.len()
    }

    /// World ranks of the group, ascending.
    pub fn members(&self) -> &[usize] {
        &self.view.members
    }

    /// Access the underlying world communicator (e.g. for `work`).
    pub fn world(&mut self) -> &mut W {
        self.view.inner
    }

    /// Account local compute on the member's world clock, so group-local
    /// algorithms (e.g. a shrunk EM resume after a rank failure) read
    /// naturally without reaching for [`Group::world`] on every step.
    pub fn work(&mut self, ops: u64) {
        self.view.inner.work(ops);
    }

    /// Synchronize the group (dissemination barrier over group ranks).
    pub fn barrier(&mut self) {
        schedule::barrier(self);
    }

    /// Broadcast from the group-rank `root` to the group (binomial tree).
    pub fn broadcast_f64s(&mut self, root: usize, buf: &mut [f64]) {
        schedule::broadcast(self, root, buf);
    }

    /// Allreduce over the group; always recursive doubling, whatever the
    /// machine's default algorithm.
    pub fn allreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) {
        schedule::allreduce(self, buf, op, AllreduceAlgo::RecursiveDoubling, 1);
    }

    /// Allreduce of a single scalar over the group; the group analogue of
    /// [`Comm::allreduce_scalar`].
    pub fn allreduce_scalar(&mut self, value: f64, op: ReduceOp) -> f64 {
        let mut buf = [value];
        self.allreduce_f64s(&mut buf, op);
        buf[0]
    }

    /// Gather variable-length vectors to the group-rank `root`,
    /// concatenated in group-rank order. `Some` on the root.
    pub fn gather_f64s(&mut self, root: usize, mine: &[f64]) -> Option<Vec<f64>> {
        schedule::gather(self, root, mine)
    }

    /// Split this group by color: members passing equal colors form a
    /// nested sub-communicator (`MPI_Comm_split` on a non-world
    /// communicator), with dense ranks ordered by parent group rank. The
    /// membership exchange runs as a group gather + broadcast. Collective
    /// over this group.
    ///
    /// Two levels of splitting are supported, with colors up to `0x7FFF`
    /// at each: a larger color, or a split of a nested group, fails the
    /// run with a typed collective mismatch rather than letting two
    /// groups share a tag space.
    pub fn split(&mut self, color: u32) -> Group<'_, W> {
        if self.color > NESTED_COLOR_MAX || color > NESTED_COLOR_MAX {
            self.mismatch(format!(
                "nested split takes colors up to {NESTED_COLOR_MAX:#x} at two levels; \
                 got parent color {:#x}, child color {color:#x}",
                self.color
            ));
        }
        let mut all = vec![0.0; self.size()];
        if let Some(gathered) = self.gather_f64s(0, &[f64::from(color)]) {
            all.copy_from_slice(&gathered);
        }
        self.broadcast_f64s(0, &mut all);
        // Child membership in *world* ranks, so the nested group talks
        // straight to the world like any first-level group.
        let members: Vec<usize> = all
            .iter()
            .enumerate()
            .filter(|(_, c)| **c as u32 == color)
            .map(|(r, _)| self.view.members[r])
            .collect();
        let me = self.view.members[self.view.rank];
        let key = NESTED_COLOR_BIT | (self.color << 15) | color;
        // All members agree on the parent's collective sequence here (they
        // just ran the same gather + broadcast), so they derive the same
        // registry id; including it keeps successive same-color nested
        // splits distinct in the registries.
        let comm_id = SUB_TAG_BASE | (u64::from(key) << 32) | self.seq;
        Group::new(&mut *self.view.inner, members, me, key, comm_id)
    }
}

impl<W: World> PointToPoint for Group<'_, W> {
    fn rank(&self) -> usize {
        self.view.rank
    }
    fn size(&self) -> usize {
        self.view.members.len()
    }
    fn send(&mut self, to: usize, tag: u64, data: &[f64]) {
        self.view.send(to, tag, data);
    }
    fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        self.view.recv(from, tag)
    }
    fn mismatch(&self, detail: String) -> ! {
        self.view.mismatch(detail)
    }
}

impl<W: World> Collective for Group<'_, W> {
    /// Allocate the group collective's tag and cross-validate its
    /// fingerprint against the other members (world-rank labelled, so
    /// divergence reports stay unambiguous).
    fn coll_enter(&mut self, fp: CollFingerprint) -> u64 {
        self.seq += 1;
        let size = self.size();
        self.view.inner.check_collective(self.comm_id, self.seq, size, fp);
        SUB_TAG_BASE | (u64::from(self.color) << 32) | self.seq
    }
    fn check_replicated(&mut self, label: &str, buf: &[f64]) {
        let size = self.size();
        self.view.inner.check_replication(self.comm_id, self.seq, size, label, buf);
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
            let sub = c.split(color);
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
            let color = (c.rank() % 2) as u32;
            let mut sub = c.split(color);
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
            let mut sub = c.split(color);
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
                let mut sub = c.split((c.rank() / 2) as u32);
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
            let inner_color = ((c.rank() / 2) % 2) as u32;
            let mut sub = c.split((c.rank() / 4) as u32);
            let mut inner = sub.split(inner_color);
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
                let mut sub = c.split(u32::from(me >= 4));
                let inner_color = u32::from(sub.rank() == 0);
                let mut inner = sub.split(inner_color);
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
    fn singleton_groups_are_fine() {
        let spec = presets::zero_cost(3);
        let out = run_spmd_default(&spec, |c| {
            let mut sub = c.split(c.rank() as u32); // every rank alone
            sub.barrier();
            let mut v = vec![7.0];
            sub.allreduce_f64s(&mut v, ReduceOp::Sum);
            (sub.size(), v[0])
        })
        .unwrap();
        assert!(out.per_rank.iter().all(|&(s, v)| s == 1 && v == 7.0));
    }
}
