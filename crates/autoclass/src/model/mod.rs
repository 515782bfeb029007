//! The Bayesian finite-mixture model: priors, parameters, E/M steps,
//! sufficient statistics, scoring, and initialization.

pub mod approx;
pub mod class;
pub mod estep;
pub mod init;
pub mod mstep;
pub mod prior;
pub mod suffstats;
mod wide;
pub mod workspace;

pub use approx::{converged, evaluate, Approximation};
pub use class::{
    classes_from_flat, classes_from_flat_into, classes_to_flat, ClassParams, Model, TermGroup,
};
pub use estep::{
    estep_and_stats_into, estep_ops, update_wts, update_wts_and_stats_into, update_wts_into,
    update_wts_naive, EStepOut, EStepScalars, EStepScratch, WtsMatrix, ESTEP_TILE,
};
pub use init::{derive_seed, init_classes};
pub use mstep::{log_param_prior, mstep_ops, stats_to_classes, stats_to_classes_into};
pub use prior::{TermParams, TermPrior};
pub use suffstats::{StatLayout, SuffStats};
pub use workspace::CycleWorkspace;
