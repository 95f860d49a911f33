//! # rt-bench
//!
//! Experiment binaries regenerating the paper's evaluation plus the
//! ablations.  Nothing here gates a change: the repository's benchmark is the
//! `rtbench/` package, and the deterministic counts these experiments print
//! are pinned by tests.
//!
//! The library part holds the experiment drivers the binaries (`fig18_5`,
//! `delay_validation`, `dps_ablation`, `feasibility_ablation`, `coexistence`,
//! `multiswitch`) share.  Each binary takes no arguments and prints
//! human-readable tables to stdout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use experiments::{
    admission_sweep, delay_validation, AdmissionRunResult, DelayValidationResult, Fig18Row,
};
pub use report::Table;
