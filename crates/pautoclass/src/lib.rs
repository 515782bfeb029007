//! # pautoclass — P-AutoClass: SPMD parallel Bayesian classification
//!
//! The paper's contribution: AutoClass parallelized for shared-nothing
//! MIMD multicomputers. The dataset is block-partitioned across P
//! processors; each EM cycle runs `update_wts` and `update_parameters` on
//! the local partition and combines the partial class weights and
//! sufficient statistics with Allreduce, so every processor holds
//! identical global parameters — the same semantics as sequential
//! AutoClass.
//!
//! The message-passing substrate is [`mpsim`], a deterministic simulated
//! multicomputer: the computation and the communication pattern are real;
//! elapsed time comes from a calibrated machine model (see DESIGN.md for
//! the substitution rationale — the original ran on a Meiko CS-2 via MPI).
//!
//! ## Quick start
//!
//! ```
//! use autoclass::search::SearchConfig;
//! use pautoclass::{run_search, ParallelConfig};
//!
//! let data = datagen::paper_dataset(2_000, 42);
//! let machine = mpsim::presets::meiko_cs2(4);
//! let config = ParallelConfig {
//!     search: SearchConfig::quick(vec![4, 8], 42),
//!     ..ParallelConfig::default()
//! };
//! let out = run_search(&data, &machine, &config).unwrap();
//! assert!(out.best.n_classes() >= 2);
//! assert!(out.elapsed > 0.0); // virtual seconds on the simulated CS-2
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod driver;
pub mod error;
pub mod fleet;
pub mod recover;
pub mod run;

pub use checkpoint::{
    corrupt_shard, decode_shard, from_shards, to_shards, CheckpointError, CkptClassification,
    SearchCheckpoint,
};
pub use config::{
    Consensus, Exchange, FleetConfig, FtConfig, ParallelConfig, Partitioning, RecoveryPolicy,
    ShardFault, StandbyConfig, Strategy,
};
pub use error::{PartitionError, RunError};
pub use fleet::{
    run_search_fleet, run_search_fleet_ft, run_search_fleet_native, run_search_fleet_with,
    EnsembleSummary, FleetFtOutcome, FleetOutcome, FleetStats,
};
pub use recover::{run_search_ft, run_search_ft_native, FtOutcome};
pub use run::{
    run_fixed_j, run_search, run_search_native, run_search_with, CycleTiming, ParallelOutcome,
};
// The native entry point's options type, so callers need not depend on the
// backend crate directly.
pub use shmcomm::NativeOptions;
