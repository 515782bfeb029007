//! Configuration of a P-AutoClass run: parallelization strategy, the
//! statistics-exchange pattern, and the data decomposition.

use autoclass::data::{block_partition, block_range, weighted_partition};
use autoclass::search::SearchConfig;

use crate::error::PartitionError;

/// How the global sufficient statistics are exchanged in the parallel
/// `update_parameters`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exchange {
    /// One Allreduce per (class, attribute) statistics block — the
    /// pattern in the paper's Figure 5, where the reduction sits inside
    /// the class/attribute loops. Many small latency-bound messages.
    PerTerm,
    /// A single Allreduce of the whole flat statistics vector — the
    /// natural fusion optimization; one of the A-strategy ablation's
    /// columns in `cargo xtask report`.
    /// The two cycle log-likelihood scalars piggyback on the same
    /// message, so one collective per cycle replaces three.
    Fused,
    /// The overlapped cycle: the one-pass E+M kernel every `Full` cycle
    /// runs, then the statistics leave as *non-blocking* chunked
    /// Allreduces — one per class when the machine's algorithm reduces
    /// element-wise independently of buffer geometry (Linear,
    /// RecursiveDoubling), whole-buffer otherwise — and each class's
    /// derivation is charged while later chunks are still on the wire.
    /// Results are bitwise identical to [`Exchange::Fused`]; only the
    /// schedule (and hence the virtual time) differs.
    Pipelined,
}

/// Which functions are parallelized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's P-AutoClass: both `update_wts` and `update_parameters`
    /// run on partitions, with Allreduce combining partial results.
    Full {
        /// Statistics exchange pattern.
        exchange: Exchange,
    },
    /// The earlier MIMD prototype the paper compares against (Miller &
    /// Guo): only `update_wts` is parallel; the full weight matrix is
    /// gathered to rank 0, which computes the parameters sequentially and
    /// broadcasts them.
    WtsOnly,
}

impl Default for Strategy {
    fn default() -> Self {
        Strategy::Full { exchange: Exchange::PerTerm }
    }
}

/// How the dataset is decomposed across processors.
#[derive(Debug, Clone, PartialEq)]
pub enum Partitioning {
    /// Equal-sized contiguous blocks — the paper's decomposition, which
    /// needs no load balancing on a homogeneous machine.
    Block,
    /// Contiguous blocks proportional to the given per-rank weights (one
    /// per rank) — e.g. relative processor speeds on a heterogeneous
    /// machine. See the A-imbalance section of `cargo xtask report`.
    Weighted(Vec<f64>),
}

impl Partitioning {
    /// Check that this partitioning can split a dataset over `p`
    /// processors. Every entry point calls it before launch, so a bad
    /// partitioning is one typed error instead of a panic on every rank.
    ///
    /// # Errors
    /// A `Weighted` partitioning whose weight count is not `p`, with a
    /// negative or non-finite weight, or with no positive weight.
    pub fn validate(&self, p: usize) -> Result<(), PartitionError> {
        let Partitioning::Weighted(w) = self else { return Ok(()) };
        if w.len() != p {
            return Err(PartitionError::WeightCount { weights: w.len(), p });
        }
        if let Some((rank, &weight)) =
            w.iter().enumerate().find(|(_, w)| !(**w >= 0.0 && w.is_finite()))
        {
            return Err(PartitionError::BadWeight { rank, weight });
        }
        if !w.iter().any(|&x| x > 0.0) {
            return Err(PartitionError::NoPositiveWeight);
        }
        Ok(())
    }

    /// The per-rank row ranges for `n` items over `p` processors.
    ///
    /// # Panics
    /// Panics if the partitioning fails [`Partitioning::validate`].
    pub fn ranges(&self, n: usize, p: usize) -> Vec<std::ops::Range<usize>> {
        match self {
            Partitioning::Block => block_partition(n, p),
            Partitioning::Weighted(w) => {
                assert_eq!(w.len(), p, "need one partition weight per rank");
                weighted_partition(n, w)
            }
        }
    }

    /// Rank `r`'s rows of [`Partitioning::ranges`]`(n, p)`: O(1) for
    /// `Block`, so a rank's set-up does not grow with `p`.
    ///
    /// # Panics
    /// Panics if the partitioning fails [`Partitioning::validate`] or
    /// `r >= p`.
    pub fn range(&self, n: usize, p: usize, r: usize) -> std::ops::Range<usize> {
        match self {
            Partitioning::Block => block_range(n, p, r),
            Partitioning::Weighted(_) => self.ranges(n, p)[r].clone(),
        }
    }
}

/// What the fault-tolerant supervisor does when a run dies with a
/// recoverable engine fault (a crashed rank, a dropped or corrupted
/// message, a receive timeout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecoveryPolicy {
    /// Propagate the typed error to the caller; the diagnosis (culprit
    /// rank, sequence number, fault kind) is the product.
    Abort,
    /// Re-run on the full machine from the latest checkpoint (from
    /// scratch if none was taken yet). The final classification is
    /// bitwise identical to an unfaulted run: the checkpoint restores
    /// replicated state exactly and the EM search is deterministic.
    RestartFromCheckpoint,
    /// Exclude the culprit rank, rebuild a (P−1)-rank communicator via
    /// `Communicator::split`, repartition the data over the survivors, and resume
    /// from the latest checkpoint. Completes on degraded hardware; the
    /// rebuild cost is reported under the `"recovery"` phase bucket.
    ShrinkAndRedistribute,
    /// Promote a warm spare slot (see `MachineSpec::spares`) into the
    /// failed logical rank via the member table: P is preserved, every
    /// collective schedule is unchanged, and the final classification is
    /// bitwise identical to the fault-free run. Only the promoted rank
    /// loads the culprit's checkpoint *shard*; the survivors pay a
    /// handshake and a barrier in the `"recovery"` bucket. When the spare
    /// pool is exhausted the supervisor falls back — deterministically —
    /// to [`StandbyConfig::fallback`].
    PromoteSpare,
    /// Restart only the failed rank from its checkpoint and replay its
    /// in-flight delivery log (see `mpsim::ReplayLog`) locally: the
    /// survivors stall just until the replay horizon catches up, instead
    /// of the whole machine rolling back. Recovery virtual time is
    /// strictly below [`RecoveryPolicy::RestartFromCheckpoint`]'s on the
    /// same fault. Falls back to a full restart when the ring evicted
    /// entries since the last checkpoint (the log no longer covers the
    /// gap). Simulated backends only — the native backend refuses it
    /// with a typed `CommError::Unsupported`.
    LocalReplay,
}

/// Deterministic corruption injected into one checkpoint shard — the
/// shard-level analogue of `FaultAction::Corrupt`, used to exercise the
/// promotion path's integrity checking (a promoted spare that loads a
/// corrupt shard must surface `PayloadCorrupt` naming the shard's
/// logical rank and fall back to a full restart from the intact copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFault {
    /// Which logical rank's shard is corrupted.
    pub logical_rank: usize,
    /// Byte offset flipped, modulo the shard's length.
    pub byte: usize,
    /// XOR mask (forced non-zero by the injector).
    pub mask: u8,
}

/// Localized-recovery knobs shared by [`RecoveryPolicy::PromoteSpare`]
/// and [`RecoveryPolicy::LocalReplay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StandbyConfig {
    /// Warm spare slots the supervisor may promote (also how many spare
    /// park-threads the engine keeps warm; see `MachineSpec::spares`).
    pub spares: usize,
    /// Per-rank replay-ring capacity, in delivered envelopes.
    pub replay_capacity: usize,
    /// Policy applied — deterministically — when a promotion is needed
    /// but the spare pool is exhausted, or when a replay log no longer
    /// covers the gap back to the checkpoint.
    pub fallback: RecoveryPolicy,
    /// Deterministic shard-corruption injection for tests and the
    /// report's R-standby sweep; `None` on healthy storage.
    pub shard_fault: Option<ShardFault>,
}

impl Default for StandbyConfig {
    fn default() -> Self {
        StandbyConfig {
            spares: 1,
            replay_capacity: 64,
            fallback: RecoveryPolicy::RestartFromCheckpoint,
            shard_fault: None,
        }
    }
}

/// Checkpoint/restart configuration for [`crate::run_search_ft`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FtConfig {
    /// Take a checkpoint every this many EM cycles — BSP rounds in the
    /// fleet search (0 disables checkpointing; a restart then replays
    /// from scratch).
    pub checkpoint_every: usize,
    /// What to do when a run dies with a recoverable fault.
    pub policy: RecoveryPolicy,
    /// How many failed runs the supervisor will recover from before
    /// giving up and returning the error (guards against a fault that
    /// recurs on every attempt).
    pub max_restarts: usize,
    /// Localized-recovery knobs (spare pool, replay ring, fallback
    /// lattice); only read under [`RecoveryPolicy::PromoteSpare`] and
    /// [`RecoveryPolicy::LocalReplay`].
    pub standby: StandbyConfig,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            checkpoint_every: 4,
            policy: RecoveryPolicy::RestartFromCheckpoint,
            max_restarts: 1,
            standby: StandbyConfig::default(),
        }
    }
}

/// How the fleet consensus stage combines the per-fleet winners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consensus {
    /// Gather every fleet's completed candidates to rank 0, replay the
    /// sequential duplicate-elimination chain in schedule order, and pick
    /// the best by Cheeseman–Stutz score — bit-identical to the serial
    /// search given the same candidate set.
    GlobalBest,
    /// [`Consensus::GlobalBest`] plus an ensemble classification: the top
    /// `voters` models each label every item, labels are aligned to the
    /// best model's classes by a greedy confusion-matrix match, and a
    /// per-item majority vote produces a consensus labeling with an
    /// agreement score (the co-association idea from consensus
    /// clustering).
    Ensemble {
        /// How many of the top-scored models vote (clamped to the number
        /// of retained classifications).
        voters: usize,
    },
}

/// The second parallelism axis: split the machine into `groups`
/// concurrent sub-searches ("fleets") over disjoint sub-communicators.
/// Each fleet draws candidates (J values × restart tries) from the shared
/// schedule, exchanges convergence fingerprints with the other fleets
/// every round to abandon duplicate basins early, steals queued
/// candidates when it runs dry, and joins a final consensus stage. See
/// [`crate::run_search_fleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of concurrent sub-searches. Fleets are contiguous rank
    /// blocks (sizes differ by at most one). Clamped to the rank count.
    pub groups: usize,
    /// EM cycles each fleet runs between two fingerprint exchanges (the
    /// BSP round length). Longer rounds amortize the exchange; shorter
    /// rounds abandon duplicates and steal work sooner.
    pub round_cycles: usize,
    /// Probe for cross-fleet duplicates every this many EM cycles of a
    /// running candidate (0 disables duplicate abandonment — every
    /// candidate then runs to its own convergence, which is the
    /// configuration whose result is bit-identical to the serial search).
    pub dedup_every: usize,
    /// What the consensus stage produces.
    pub consensus: Consensus,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { groups: 2, round_cycles: 8, dedup_every: 0, consensus: Consensus::GlobalBest }
    }
}

/// Full configuration of a parallel search.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelConfig {
    /// The search settings (shared with sequential AutoClass).
    pub search: SearchConfig,
    /// Parallelization strategy.
    pub strategy: Strategy,
    /// Data decomposition.
    pub partition: Partitioning,
    /// Blocks of real attributes modeled with full covariance
    /// (`multi_normal_cn`); empty = all attributes independent. See
    /// [`autoclass::Model::with_correlated`].
    pub correlated_blocks: Vec<Vec<usize>>,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            search: SearchConfig::default(),
            strategy: Strategy::default(),
            partition: Partitioning::Block,
            correlated_blocks: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = ParallelConfig::default();
        assert_eq!(c.strategy, Strategy::Full { exchange: Exchange::PerTerm });
        assert_eq!(c.search.start_j_list, vec![2, 4, 8, 16, 24, 50, 64]);
    }
}
