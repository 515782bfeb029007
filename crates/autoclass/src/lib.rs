//! # autoclass — Bayesian unsupervised classification, in Rust
//!
//! A from-scratch reimplementation of **AutoClass** (Cheeseman & Stutz,
//! NASA Ames): finite-mixture-model clustering where class membership is
//! probabilistic, parameters are MAP estimates under conjugate priors
//! derived from the data, and alternative classifications (different
//! numbers of classes) are ranked by an approximation to the marginal
//! likelihood (the Cheeseman–Stutz estimate).
//!
//! This crate is the *sequential* system; the `pautoclass` crate layers
//! the paper's SPMD parallelization on top of the same kernels.
//!
//! ## Quick start
//!
//! ```
//! use autoclass::data::{Dataset, Schema, Value};
//! use autoclass::search::{search, SearchConfig};
//!
//! // Two obvious 1-D clusters.
//! let schema = Schema::reals(1, 0.05);
//! let rows: Vec<Vec<Value>> = (0..60)
//!     .map(|i| {
//!         let c = if i % 2 == 0 { -5.0 } else { 5.0 };
//!         vec![Value::Real(c + (i as f64 * 0.61).sin())]
//!     })
//!     .collect();
//! let data = Dataset::from_rows(schema, &rows);
//!
//! let result = search(&data.full_view(), &SearchConfig::quick(vec![1, 2, 3], 41));
//! assert_eq!(result.best.n_classes(), 2);
//! ```
//!
//! ## Structure
//! * [`data`] — schemas, column-major datasets, views, global stats, CSV
//! * [`model`] — term priors/parameters, E-step, M-step, sufficient
//!   statistics, Cheeseman–Stutz scoring, initialization
//! * [`mod@search`] — `base_cycle`, tries, and the `BIG_LOOP`
//! * [`report`] — influence-value reports
//! * [`predict`] — posterior membership for new items
//! * [`math`] — log-gamma / log-sum-exp utilities

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod data;
pub mod linalg;
pub mod math;
pub mod model;
pub mod predict;
pub mod report;
pub mod search;
pub mod store;

pub use data::{Dataset, Schema, Value};
pub use model::{ClassParams, Model};
pub use search::{search, Classification, SearchConfig, SearchResult};
