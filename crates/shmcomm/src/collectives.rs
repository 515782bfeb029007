//! Collectives on the native backend. [`NativeComm`] implements the
//! [`Collective`] hooks of [`mpsim::schedule`], so every collective entry
//! point — each a provided method of [`mpsim::SpmdComm`] or
//! [`mpsim::Communicator`] — runs that module's schedules, the
//! simulator's own code, as messages: results are bitwise identical
//! across backends under every algorithm by construction.
//!
//! There is no shared accumulator and no atomics race on payloads: every
//! partial reduction is owned by exactly one thread, and values cross
//! threads only through channel messages, so arrival timing can never
//! reorder a floating-point fold. `Auto` resolves through the same
//! [`mpsim::AllreduceAlgo::resolve`] before anything is posted, keeping
//! the *algorithm choice* itself identical across backends.

use mpsim::error::SimError;
use mpsim::schedule::{self, Buf, Collective, PlanKey, Seating};
use mpsim::traits::CommError;
use mpsim::verify::WORLD_COMM;
use mpsim::{AllreduceAlgo, CollFingerprint, Communicator, ReduceOp, SpmdComm};

use crate::comm::NativeComm;

impl Collective for NativeComm {
    fn mismatch(&self, detail: String) -> ! {
        self.fail(CommError::Sim(SimError::CollectiveMismatch { rank: self.rank(), detail }))
    }
    /// Count the collective in the current phase and allocate its tag.
    /// The native backend has no fingerprint verifier.
    fn coll_enter(&mut self, _fp: CollFingerprint) -> u64 {
        schedule::COLL_TAG_BASE + self.count_collective()
    }
    fn check_replicated(&mut self, label: &str, buf: &[f64]) {
        self.check_replication(WORLD_COMM, self.coll_seq, self.size(), label, buf);
    }
    /// Exchange the plan's messages over the channel mesh.
    fn run_plan(&mut self, key: PlanKey, tag: u64, op: ReduceOp, buf: &mut Buf<'_>) {
        schedule::exchange(self, Seating::world(self.coll_seq, self.rank(), tag), key, op, buf);
    }
    fn default_allreduce(&self, len: usize) -> (AllreduceAlgo, usize) {
        let machine = self.machine();
        machine.allreduce_schedule(machine.allreduce, len)
    }
}
