//! # shmcomm — the native shared-memory backend for the SPMD driver
//!
//! Where [`mpsim`] runs the SPMD program on OS threads under *virtual*
//! time from LogGP cost models, this crate runs the very same program on
//! OS threads under *wall-clock* time: one `std::thread` per rank, an
//! `mpsc` channel mesh for typed messages, and the simulator's own
//! collective schedules ([`mpsim::schedule`]: one copy of each, run by
//! both backends) and sub-communicator type, so the numerical results are
//! bitwise identical across backends by construction while the reported
//! times come from real silicon.
//!
//! Both backends implement [`mpsim::Communicator`], whose provided
//! methods (and [`mpsim::SpmdComm`]'s) are the one body of every
//! collective entry point; groups split from either are the one
//! [`mpsim::subcomm::Group`] type (`Group<'_, NativeComm>` here). A driver
//! written against the trait picks its machine with one call:
//!
//! ```
//! use mpsim::{presets, Communicator, ReduceOp};
//! use shmcomm::{run_native, NativeOptions};
//!
//! fn body<C: Communicator>(comm: &mut C) -> f64 {
//!     let mut local = vec![comm.rank() as f64 + 1.0];
//!     comm.allreduce_f64s(&mut local, ReduceOp::Sum);
//!     local[0]
//! }
//!
//! let machine = presets::meiko_cs2(4);
//! let sim = mpsim::run_spmd_default(&machine, |c| body(c)).unwrap();
//! let native = run_native(&machine, &NativeOptions::default(), |c| body(c)).unwrap();
//! assert_eq!(sim.per_rank, native.per_rank); // bitwise identical
//! ```
//!
//! ## Timing and reporting
//!
//! Per-phase wall-clock timing feeds the same [`mpsim::RankStats`] /
//! [`mpsim::PhaseStats`] shapes the simulator reports (see
//! [`comm`] for the attribution rules), so `xtask report`'s tables and
//! the calibration harness consume either backend's stats unchanged.
//!
//! ## Failure model
//!
//! Backend failures are *typed*: a rank that panics, a poisoned lock, a
//! disconnected channel, or a receive timeout all surface from
//! [`run_native`] as [`mpsim::CommError`] variants, never as raw panics
//! on the caller's thread.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collectives;
pub mod comm;
pub mod engine;

pub use comm::NativeComm;
pub use engine::{run_native, NativeOptions, NativeOutput};
