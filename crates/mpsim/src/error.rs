//! Error types for the simulated multicomputer.

use std::fmt;

use crate::fault::FaultKind;
use crate::payload::DecodeError;

/// Errors surfaced by the SPMD engine or by communication primitives.
///
/// Marked `#[non_exhaustive]`: later robustness work will add variants, so
/// downstream matches must keep a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
#[allow(missing_docs)] // field names are self-describing
pub enum SimError {
    /// A rank's user code panicked. The message is the panic payload when
    /// it was a string, or a placeholder otherwise.
    RankPanicked { rank: usize, message: String },
    /// The run was aborted because another rank failed first.
    Aborted { rank: usize },
    /// Invalid machine description (e.g. zero ranks).
    InvalidMachine(String),
    /// A collective was called with arguments inconsistent across ranks
    /// (detected where cheaply possible, e.g. mismatched buffer lengths).
    CollectiveMismatch { rank: usize, detail: String },
    /// Cross-rank collective divergence caught by the fingerprint checker
    /// (see [`crate::verify`]): at the same sequence number two ranks
    /// called different collectives, or the same collective with
    /// incompatible root / operator / element count. `seq` is the
    /// per-communicator collective sequence number at which they diverged.
    CollectiveDivergence { rank: usize, seq: u64, detail: String },
    /// The wait-for-graph detector (see [`crate::verify`]) proved the run
    /// can never make progress: a cycle of ranks blocked on each other, or
    /// a rank blocked on a rank that already finished. `cycle` lists the
    /// ranks forming the cycle (empty for the finished-peer case); `detail`
    /// renders the full wait-for graph.
    Deadlock { rank: usize, cycle: Vec<usize>, detail: String },
    /// Replication-invariant violation (see [`crate::verify`]): a value
    /// that must be bitwise identical on every rank of the communicator
    /// (an allreduce/broadcast result, or a buffer passed to
    /// [`crate::SpmdComm::verify_replicated`]) hashed differently across ranks.
    ReplicationDivergence { rank: usize, seq: u64, detail: String },
    /// A non-blocking [`crate::Request`] was used incorrectly on a rank:
    /// waited twice, or completed out of protocol. Dropping a request
    /// without waiting panics the rank instead (surfacing as
    /// [`SimError::RankPanicked`]) because `Drop` has no error channel.
    RequestMisuse { rank: usize, detail: String },
    /// An injected fault (see [`crate::fault::FaultPlan`]) killed this
    /// rank. `seq` is the rank's send count and `phase` its active phase
    /// bucket at the moment of death — the coordinates a supervisor needs
    /// to decide where to resume.
    RankCrashed { rank: usize, seq: u64, phase: String },
    /// `rank`'s blocking receive can provably never be satisfied because
    /// `peer` failed (crashed, or dropped the only message the wait could
    /// match). `kind`, `seq`, and `phase` are the *culprit's* coordinates
    /// at the moment its fault fired — this is the typed replacement for a
    /// hang.
    PeerFailed { rank: usize, peer: usize, kind: FaultKind, seq: u64, phase: String },
    /// A message's arrival would have forced the receiver to idle longer
    /// than the fault plan's virtual-time timeout
    /// (see [`crate::fault::FaultPlan::with_virtual_timeout`]); `waited`
    /// is the idle the receiver would have absorbed, `seq` the sender's
    /// message seq, `phase` the *receiver's* active phase.
    Timeout { rank: usize, from: usize, seq: u64, waited: f64, limit: f64, phase: String },
    /// A received payload failed integrity checking: the envelope
    /// checksum did not match, or decoding found a malformed length.
    /// `seq` is the sender's message seq; `cause` is the typed decode
    /// failure, also reachable through [`std::error::Error::source`].
    PayloadCorrupt { rank: usize, from: usize, seq: u64, cause: DecodeError },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            SimError::Aborted { rank } => {
                write!(f, "rank {rank} aborted because another rank failed")
            }
            SimError::InvalidMachine(msg) => write!(f, "invalid machine: {msg}"),
            SimError::CollectiveMismatch { rank, detail } => {
                write!(f, "collective argument mismatch on rank {rank}: {detail}")
            }
            SimError::CollectiveDivergence { rank, seq, detail } => {
                write!(f, "collective divergence at collective #{seq} (rank {rank}): {detail}")
            }
            SimError::Deadlock { rank, cycle, detail } => {
                write!(f, "deadlock detected by rank {rank}")?;
                if !cycle.is_empty() {
                    write!(f, " (cycle: {cycle:?})")?;
                }
                write!(f, ": {detail}")
            }
            SimError::ReplicationDivergence { rank, seq, detail } => {
                write!(f, "replication divergence at check #{seq} (rank {rank}): {detail}")
            }
            SimError::RequestMisuse { rank, detail } => {
                write!(f, "non-blocking request misuse on rank {rank}: {detail}")
            }
            SimError::RankCrashed { rank, seq, phase } => {
                write!(
                    f,
                    "rank {rank} crashed (injected fault) after message #{seq} in phase {phase:?}"
                )
            }
            SimError::PeerFailed { rank, peer, kind, seq, phase } => write!(
                f,
                "rank {rank}: peer rank {peer} failed ({kind} at message #{seq} in phase \
                 {phase:?}); the pending receive can never complete"
            ),
            SimError::Timeout { rank, from, seq, waited, limit, phase } => write!(
                f,
                "rank {rank}: message #{seq} from rank {from} arrived {waited:.6}s of virtual \
                 idle late (timeout {limit:.6}s) in phase {phase:?}"
            ),
            SimError::PayloadCorrupt { rank, from, seq, cause } => write!(
                f,
                "rank {rank}: corrupt payload in message #{seq} from rank {from}: {cause}"
            ),
        }
    }
}

impl SimError {
    /// The rank an injected fault blames, and the sends its program made
    /// before the fault: a crash's send count, or one less than the
    /// faulted message's seq (a drop, a late or corrupt message). `None`
    /// for an error no injected fault caused.
    pub fn fault_origin(&self) -> Option<(usize, u64)> {
        match self {
            SimError::RankCrashed { rank, seq, .. } => Some((*rank, *seq)),
            SimError::PeerFailed { peer, kind: FaultKind::Crash, seq, .. } => Some((*peer, *seq)),
            SimError::PeerFailed { peer, seq, .. }
            | SimError::Timeout { from: peer, seq, .. }
            | SimError::PayloadCorrupt { from: peer, seq, .. } => {
                Some((*peer, seq.saturating_sub(1)))
            }
            _ => None,
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::PayloadCorrupt { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_is_informative() {
        let e = SimError::RankPanicked { rank: 3, message: "boom".into() };
        assert!(e.to_string().contains("rank 3"));
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn errors_compare_by_value() {
        assert_eq!(SimError::Aborted { rank: 2 }, SimError::Aborted { rank: 2 });
        assert_ne!(SimError::Aborted { rank: 2 }, SimError::Aborted { rank: 3 });
    }

    #[test]
    fn fault_errors_name_culprit_coordinates() {
        let e = SimError::PeerFailed {
            rank: 0,
            peer: 3,
            kind: FaultKind::Drop,
            seq: 17,
            phase: "allreduce".into(),
        };
        let s = e.to_string();
        assert!(s.contains("rank 3"), "{s}");
        assert!(s.contains("drop"), "{s}");
        assert!(s.contains("#17"), "{s}");
        assert!(s.contains("allreduce"), "{s}");
    }

    #[test]
    fn fault_origin_counts_the_culprits_sends_before_the_fault() {
        let phase = String::new;
        let crashed = SimError::RankCrashed { rank: 2, seq: 5, phase: phase() };
        assert_eq!(crashed.fault_origin(), Some((2, 5)));
        let peer = |kind| SimError::PeerFailed { rank: 0, peer: 2, kind, seq: 5, phase: phase() };
        assert_eq!(peer(FaultKind::Crash).fault_origin(), Some((2, 5)));
        assert_eq!(peer(FaultKind::Drop).fault_origin(), Some((2, 4)));
        let late =
            SimError::Timeout { rank: 0, from: 2, seq: 5, waited: 2.0, limit: 1.0, phase: phase() };
        assert_eq!(late.fault_origin(), Some((2, 4)));
        let cause = DecodeError::RaggedLength { len: 3 };
        let corrupt = SimError::PayloadCorrupt { rank: 0, from: 2, seq: 5, cause };
        assert_eq!(corrupt.fault_origin(), Some((2, 4)));
        assert_eq!(SimError::Aborted { rank: 1 }.fault_origin(), None);
    }

    #[test]
    fn payload_corrupt_chains_its_decode_cause() {
        let e = SimError::PayloadCorrupt {
            rank: 1,
            from: 2,
            seq: 9,
            cause: DecodeError::RaggedLength { len: 13 },
        };
        let src = e.source().expect("has a source");
        assert!(src.to_string().contains("13"), "{src}");
        assert!(e.to_string().contains("#9"), "{}", e);
    }
}
