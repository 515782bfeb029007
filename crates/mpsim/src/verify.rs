//! SPMD correctness verification: collective fingerprinting and
//! replication-invariant hashing.
//!
//! A simulated SPMD program can go wrong in ways that a real MPI program
//! would only reveal as a hang or as silently wrong numbers: a rank calling
//! a different collective than its peers, a send/recv cycle, or a
//! supposedly replicated value drifting apart across ranks. Each of those
//! becomes a precise, fast [`SimError`]:
//!
//! * **Collective fingerprinting** ([`VerifyOptions::check_collectives`]):
//!   every collective call posts a [`CollFingerprint`] — kind, root,
//!   reduction operator, element count — into a per-run registry keyed by
//!   `(communicator, sequence number)`. The first rank to arrive sets the
//!   reference; any later rank whose fingerprint differs fails the run
//!   immediately, naming both ranks and both calls.
//! * **Deadlock detection** (always on, not an option here): a send/recv
//!   cycle or a wait on a rank that already returned is proven by the
//!   scheduler itself the moment no rank is runnable, and reported as a
//!   [`SimError::Deadlock`] naming the wait-for cycle or the finished peer
//!   (see [`crate::engine`]). It needs no state beyond the scheduler's own.
//! * **Replication hashing** ([`VerifyOptions::check_replication`]):
//!   allreduce and broadcast results — which the simulator guarantees to be
//!   bitwise identical on every rank — are hashed per rank and
//!   cross-checked; [`crate::SpmdComm::verify_replicated`] extends the same
//!   check to any value the program asserts is replicated (P-AutoClass
//!   uses it on the model parameters across the EM loop).

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::collectives::ReduceOp;
use crate::error::SimError;

/// Lock a verifier mutex, recovering from poisoning: a rank that panics
/// (e.g. while aborting the run) may die holding a lock, and the detectors
/// on surviving ranks must keep working through the teardown rather than
/// cascade the panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which verification layers run during an SPMD run (see
/// [`crate::SimOptions::verify`]). The default runs none of them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Cross-validate every collective call's fingerprint across ranks.
    pub check_collectives: bool,
    /// Hash allreduce/broadcast results (and explicit
    /// [`crate::SpmdComm::verify_replicated`] buffers) per rank and require
    /// bitwise identity.
    pub check_replication: bool,
}

impl VerifyOptions {
    /// Every check enabled.
    pub fn all() -> Self {
        VerifyOptions { check_collectives: true, check_replication: true }
    }

    /// Every check disabled (the fast path: no shared state is consulted);
    /// the same as the default.
    pub fn none() -> Self {
        VerifyOptions::default()
    }

    pub(crate) fn any(&self) -> bool {
        self.check_collectives || self.check_replication
    }
}

/// The kind of collective a rank invoked (part of a [`CollFingerprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variants mirror the Comm methods one-to-one
pub enum CollKind {
    Barrier,
    Broadcast,
    Allreduce,
    Gather,
    Allgather,
    Split,
}

impl CollKind {
    /// Whether every rank must pass the same element count (gather-style
    /// collectives legitimately take different lengths per rank).
    fn uniform_len(self) -> bool {
        matches!(
            self,
            CollKind::Barrier | CollKind::Broadcast | CollKind::Allreduce | CollKind::Split
        )
    }
}

/// What one rank claimed the collective at a given sequence number was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollFingerprint {
    /// Which collective was called.
    pub kind: CollKind,
    /// Root rank, for rooted collectives.
    pub root: Option<usize>,
    /// Reduction operator, for reductions.
    pub op: Option<ReduceOp>,
    /// Number of `f64` elements in the caller's buffer (compared only for
    /// collectives whose length must be uniform across ranks).
    pub elems: Option<usize>,
    /// Hash of a split's color table, every parent rank's color: the one
    /// argument a split's ranks must agree on.
    pub colors: Option<u64>,
}

impl CollFingerprint {
    fn describe(&self) -> String {
        let mut s = format!("{:?}", self.kind);
        let mut args = Vec::new();
        if let Some(root) = self.root {
            args.push(format!("root={root}"));
        }
        if let Some(op) = self.op {
            args.push(format!("op={op:?}"));
        }
        if let Some(elems) = self.elems {
            args.push(format!("elems={elems}"));
        }
        if let Some(colors) = self.colors {
            args.push(format!("colors={colors:#018x}"));
        }
        if !args.is_empty() {
            s.push('(');
            s.push_str(&args.join(", "));
            s.push(')');
        }
        s
    }

    fn matches(&self, other: &CollFingerprint) -> bool {
        self.kind == other.kind
            && self.root == other.root
            && self.op == other.op
            && (!self.kind.uniform_len() || self.elems == other.elems)
            && self.colors == other.colors
    }
}

/// First poster's claim for one `(comm, seq)` slot of the registry.
struct Slot<T> {
    value: T,
    first_rank: usize,
    posted: usize,
    expected: usize,
}

/// A registry of first-poster claims, keyed by `(communicator, sequence)`.
type SlotRegistry<T> = Mutex<BTreeMap<(u64, u64), Slot<T>>>;

/// Shared verification state for one SPMD run.
pub(crate) struct VerifyState {
    opts: VerifyOptions,
    fingerprints: SlotRegistry<CollFingerprint>,
    /// Replication hashes; the value carries (hash, label).
    hashes: SlotRegistry<(u64, String)>,
}

/// Communicator id of the world communicator in the verification
/// registries (both backends).
pub const WORLD_COMM: u64 = 0;
/// Communicator id for user-level [`crate::SpmdComm::verify_replicated`] calls
/// (both backends).
pub const USER_REPL_COMM: u64 = u64::MAX;

impl VerifyState {
    pub(crate) fn new(opts: VerifyOptions) -> Self {
        VerifyState {
            opts,
            fingerprints: Mutex::new(BTreeMap::new()),
            hashes: Mutex::new(BTreeMap::new()),
        }
    }

    pub(crate) fn opts(&self) -> &VerifyOptions {
        &self.opts
    }

    /// Post `fp` as `world_rank`'s claim for collective number `seq` on
    /// communicator `comm` (`expected` = number of ranks that will post).
    pub(crate) fn check_collective(
        &self,
        world_rank: usize,
        comm: u64,
        seq: u64,
        expected: usize,
        fp: CollFingerprint,
    ) -> Result<(), SimError> {
        let mut reg = lock(&self.fingerprints);
        post(&mut reg, world_rank, comm, seq, expected, fp, |mine, slot| {
            mine.matches(&slot.value).then_some(()).ok_or_else(|| SimError::CollectiveDivergence {
                rank: world_rank,
                seq,
                detail: format!(
                    "rank {} called {} but rank {} called {}{}",
                    slot.first_rank,
                    slot.value.describe(),
                    world_rank,
                    mine.describe(),
                    if comm == WORLD_COMM { String::new() } else { format!(" (comm {comm:#x})") },
                ),
            })
        })
    }

    /// Post `hash` as `world_rank`'s digest of a value that must be
    /// bitwise identical on all `expected` ranks of `comm`.
    pub(crate) fn check_replication(
        &self,
        world_rank: usize,
        comm: u64,
        seq: u64,
        expected: usize,
        label: &str,
        hash: u64,
    ) -> Result<(), SimError> {
        let mut reg = lock(&self.hashes);
        post(&mut reg, world_rank, comm, seq, expected, (hash, label.to_string()), |mine, slot| {
            (mine.0 == slot.value.0 && mine.1 == slot.value.1).then_some(()).ok_or_else(|| {
                SimError::ReplicationDivergence {
                    rank: world_rank,
                    seq,
                    detail: format!(
                        "\"{}\" hashed {:#018x} on rank {} but \"{}\" hashed {:#018x} on rank {}",
                        slot.value.1, slot.value.0, slot.first_rank, mine.1, mine.0, world_rank,
                    ),
                }
            })
        })
    }
}

/// Post a value into a `(comm, seq)` slot registry: the first poster sets
/// the reference, later posters are compared against it by `check`, and the
/// slot is garbage-collected once all expected ranks have posted.
fn post<T: Clone, F>(
    reg: &mut BTreeMap<(u64, u64), Slot<T>>,
    rank: usize,
    comm: u64,
    seq: u64,
    expected: usize,
    value: T,
    check: F,
) -> Result<(), SimError>
where
    F: FnOnce(&T, &Slot<T>) -> Result<(), SimError>,
{
    match reg.get_mut(&(comm, seq)) {
        None => {
            reg.insert((comm, seq), Slot { value, first_rank: rank, posted: 1, expected });
            Ok(())
        }
        Some(slot) => {
            check(&value, slot)?;
            slot.posted += 1;
            if slot.posted >= slot.expected {
                reg.remove(&(comm, seq));
            }
            Ok(())
        }
    }
}

/// FNV-1a over the bit patterns of an `f64` slice: cheap, deterministic,
/// and collision-resistant enough for divergence *detection* (a divergence
/// missed by a 64-bit hash collision is astronomically unlikely).
///
/// Public so other backends (and cross-backend gates like the native
/// column of `cargo xtask report`) compute replication hashes with the
/// exact same function the simulated verifier uses.
pub fn hash_f64s(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(kind: CollKind) -> CollFingerprint {
        CollFingerprint { kind, root: None, op: None, elems: Some(4), colors: None }
    }

    #[test]
    fn fingerprints_match_on_equal_calls() {
        let v = VerifyState::new(VerifyOptions::all());
        for rank in 0..3 {
            v.check_collective(rank, WORLD_COMM, 1, 3, fp(CollKind::Allreduce)).unwrap();
        }
        // Slot was garbage-collected, so the same seq can be reused by a
        // later (sub)communicator generation without a stale comparison.
        assert!(v.fingerprints.lock().unwrap().is_empty());
    }

    #[test]
    fn fingerprint_divergence_names_both_ranks() {
        let v = VerifyState::new(VerifyOptions::all());
        v.check_collective(0, WORLD_COMM, 1, 2, fp(CollKind::Allreduce)).unwrap();
        let err = v.check_collective(1, WORLD_COMM, 1, 2, fp(CollKind::Barrier)).unwrap_err();
        match err {
            SimError::CollectiveDivergence { rank, seq, detail } => {
                assert_eq!(rank, 1);
                assert_eq!(seq, 1);
                assert!(detail.contains("rank 0"), "{detail}");
                assert!(detail.contains("Allreduce"), "{detail}");
                assert!(detail.contains("Barrier"), "{detail}");
            }
            other => panic!("expected CollectiveDivergence, got {other:?}"),
        }
    }

    #[test]
    fn gather_style_lengths_may_vary() {
        let v = VerifyState::new(VerifyOptions::all());
        let a = CollFingerprint {
            kind: CollKind::Gather,
            root: Some(0),
            op: None,
            elems: Some(3),
            colors: None,
        };
        let b = CollFingerprint { elems: Some(7), ..a };
        v.check_collective(0, WORLD_COMM, 1, 2, a).unwrap();
        v.check_collective(1, WORLD_COMM, 1, 2, b).unwrap();
    }

    #[test]
    fn uniform_lengths_must_match() {
        let v = VerifyState::new(VerifyOptions::all());
        let a = CollFingerprint {
            kind: CollKind::Allreduce,
            root: None,
            op: Some(ReduceOp::Sum),
            elems: Some(3),
            colors: None,
        };
        let b = CollFingerprint { elems: Some(7), ..a };
        v.check_collective(0, WORLD_COMM, 1, 2, a).unwrap();
        let err = v.check_collective(1, WORLD_COMM, 1, 2, b).unwrap_err();
        assert!(matches!(err, SimError::CollectiveDivergence { seq: 1, .. }), "{err:?}");
    }

    #[test]
    fn replication_divergence_reports_hashes() {
        let v = VerifyState::new(VerifyOptions::all());
        v.check_replication(0, WORLD_COMM, 1, 2, "wj", 0xAB).unwrap();
        let err = v.check_replication(1, WORLD_COMM, 1, 2, "wj", 0xCD).unwrap_err();
        match err {
            SimError::ReplicationDivergence { rank, seq, detail } => {
                assert_eq!(rank, 1);
                assert_eq!(seq, 1);
                assert!(detail.contains("wj"), "{detail}");
                assert!(detail.contains("rank 0"), "{detail}");
            }
            other => panic!("expected ReplicationDivergence, got {other:?}"),
        }
    }

    #[test]
    fn hash_distinguishes_values_and_orders() {
        assert_ne!(hash_f64s(&[1.0, 2.0]), hash_f64s(&[2.0, 1.0]));
        assert_ne!(hash_f64s(&[0.0]), hash_f64s(&[-0.0])); // bitwise, not ==
        assert_eq!(hash_f64s(&[1.5, -3.25]), hash_f64s(&[1.5, -3.25]));
    }
}
