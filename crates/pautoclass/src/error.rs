//! Error type for the parallel entry points.

use mpsim::{CommError, SimError};

use crate::checkpoint::CheckpointError;

/// Why a parallel run could not produce an outcome.
///
/// Wraps the engine's [`SimError`] (rank panics, deadlocks, injected
/// faults, verifier divergences — each carrying rank/sequence
/// diagnostics) and adds the driver-level failure modes that previously
/// `expect`ed their way into a panic inside the library. Marked
/// `#[non_exhaustive]`: future failure modes (like the checkpoint
/// variant added for fault tolerance) must not break downstream matches.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RunError {
    /// The SPMD engine reported a failure; see the wrapped error for the
    /// offending rank and collective sequence number.
    Sim(SimError),
    /// The search finished without storing any classification — an empty
    /// `start_j_list` or a configuration that discarded every try.
    EmptySearch,
    /// A checkpoint could not be decoded (truncated, corrupted, or from
    /// an incompatible version), so the requested recovery is impossible.
    Checkpoint(CheckpointError),
    /// The communication backend reported a failure — backend-neutral:
    /// wraps a simulator error on the simulated machine and a native
    /// failure (panicked rank, poisoned lock, disconnected channel,
    /// receive timeout) on real cores.
    Comm(CommError),
    /// The configured [`crate::Partitioning`] cannot split the data over
    /// the machine; rejected before any rank starts.
    Partition(PartitionError),
}

/// Why a [`crate::Partitioning`] was rejected.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PartitionError {
    /// `Weighted` needs exactly one weight per rank.
    WeightCount {
        /// Weights supplied.
        weights: usize,
        /// Ranks of the machine.
        p: usize,
    },
    /// A weight is negative, infinite or NaN.
    BadWeight {
        /// The rank the weight belongs to.
        rank: usize,
        /// The offending weight.
        weight: f64,
    },
    /// Every weight is zero, so no rank would get data.
    NoPositiveWeight,
    /// The fleet search block-partitions each fleet itself; it takes
    /// only [`crate::Partitioning::Block`].
    BlockOnly,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::WeightCount { weights, p } => {
                write!(f, "{weights} partition weight(s) for {p} ranks: need one per rank")
            }
            PartitionError::BadWeight { rank, weight } => {
                write!(f, "partition weight {weight} of rank {rank} is not finite and non-negative")
            }
            PartitionError::NoPositiveWeight => write!(f, "every partition weight is zero"),
            PartitionError::BlockOnly => {
                write!(f, "the fleet search takes only Partitioning::Block")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "simulated run failed: {e}"),
            RunError::EmptySearch => {
                write!(f, "search produced no classification (empty start_j_list?)")
            }
            RunError::Checkpoint(e) => write!(f, "cannot resume from checkpoint: {e}"),
            RunError::Comm(e) => write!(f, "communication backend failed: {e}"),
            RunError::Partition(e) => write!(f, "invalid data partitioning: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Sim(e) => Some(e),
            RunError::EmptySearch => None,
            RunError::Checkpoint(e) => Some(e),
            RunError::Comm(e) => Some(e),
            RunError::Partition(e) => Some(e),
        }
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

impl From<CheckpointError> for RunError {
    fn from(e: CheckpointError) -> Self {
        RunError::Checkpoint(e)
    }
}

impl From<PartitionError> for RunError {
    fn from(e: PartitionError) -> Self {
        RunError::Partition(e)
    }
}

impl From<CommError> for RunError {
    fn from(e: CommError) -> Self {
        RunError::Comm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cause() {
        let e = RunError::from(SimError::Aborted { rank: 3 });
        assert!(e.to_string().contains("simulated run failed"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(RunError::EmptySearch.to_string().contains("no classification"));
    }

    #[test]
    fn comm_errors_chain_their_cause() {
        let e = RunError::from(CommError::Poisoned { rank: 2, detail: "store".into() });
        assert!(e.to_string().contains("communication backend failed"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn checkpoint_errors_chain_their_cause() {
        let e = RunError::from(CheckpointError::BadVersion { found: 9 });
        assert!(e.to_string().contains("cannot resume"), "{e}");
        let src = std::error::Error::source(&e).map(ToString::to_string);
        assert!(src.is_some_and(|s| s.contains("version 9")), "source must be the decode error");
    }
}
