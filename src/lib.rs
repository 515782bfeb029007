//! # p-autoclass — the facade crate
//!
//! Reproduction of *“Scalable Parallel Clustering for Data Mining on
//! Multicomputers”* (Foti, Lipari, Pizzuti, Talia — the P-AutoClass
//! paper, IPPS 2000 workshops). This crate re-exports the workspace
//! members under one roof and hosts the runnable examples and the
//! cross-crate integration tests.
//!
//! * [`autoclass`] — sequential AutoClass (Bayesian mixture clustering).
//! * [`pautoclass`] — the paper's SPMD parallelization.
//! * [`mpsim`] — the simulated message-passing multicomputer substrate.
//! * [`datagen`] — seeded synthetic workloads.
//! * [`kmeans`] — the hard-assignment parallel baseline.
//!
//! Start with `examples/quickstart.rs`, then see DESIGN.md for the system
//! inventory and EXPERIMENTS.md for the paper-vs-measured record.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use autoclass;
pub use datagen;
pub use kmeans;
pub use mpsim;
pub use pautoclass;
