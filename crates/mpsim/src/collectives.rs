//! The reduction operators, and the world [`Comm`]'s hooks into the
//! shared schedules.
//!
//! The schedules — barrier, broadcast, gather, allgather and the
//! allreduce family — live in [`crate::schedule`], written once for both
//! backends and every sub-communicator, and every collective entry point
//! is a provided method of [`SpmdComm`] or [`crate::Communicator`]; this
//! module connects `Comm` to them through the [`Collective`] hooks. Every
//! algorithm is the textbook message-passing one, so the simulated
//! communication pattern — and therefore the modeled cost — is the one a
//! real MPI implementation would produce.

use crate::comm::Comm;
use crate::cost::AllreduceAlgo;
use crate::error::SimError;
use crate::schedule::{self, Buf, Collective, PlanKey, Seating};
use crate::traits::{Communicator, SpmdComm};
use crate::verify::{CollFingerprint, WORLD_COMM};

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

impl Collective for Comm {
    fn mismatch(&self, detail: String) -> ! {
        self.fail(SimError::CollectiveMismatch { rank: self.rank(), detail })
    }
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
    fn run_plan(&mut self, key: PlanKey, tag: u64, op: ReduceOp, buf: &mut Buf<'_>) {
        self.meet(Seating::world(self.coll_seq, self.rank(), tag), key, op, buf);
    }
    fn default_allreduce(&self, len: usize) -> (AllreduceAlgo, usize) {
        let machine = self.machine();
        machine.allreduce_schedule(machine.allreduce, len)
    }
}

impl Comm {
    /// [`SpmdComm::allreduce_f64s`], callable on a `Comm` without the
    /// trait in scope, as the benchmark's collective probe calls it.
    pub fn allreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) {
        SpmdComm::allreduce_f64s(self, buf, op);
    }

    /// Allgather over a ring: every rank ends with every rank's vector
    /// (`result[r]` is rank `r`'s contribution). Vectors may differ in
    /// length across ranks.
    pub fn allgather_f64s(&mut self, mine: &[f64]) -> Vec<Vec<f64>> {
        schedule::allgather(self, mine)
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
