//! # rt-bench
//!
//! Experiment harnesses regenerating the paper's evaluation plus the
//! ablations, and dependency-free micro-benchmarks.  Nothing here gates a
//! change: the repository's benchmark is the `rtbench/` package, and the
//! deterministic counts these experiments print are pinned by tests.
//!
//! The library part holds the reusable experiment drivers so the binaries
//! (`fig18_5`, `delay_validation`, `dps_ablation`, `feasibility_ablation`,
//! `coexistence`, `multiswitch`) and the `benches/` targets share one
//! implementation; [`microbench`] is the small in-repo harness the bench
//! targets run on (the workspace carries no external crates).
//!
//! Binaries print human-readable tables to stdout and, when given a path as
//! the first CLI argument, also write the raw results as JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod microbench;
pub mod report;

pub use experiments::{
    admission_sweep, delay_validation, AdmissionRunResult, DelayValidationResult, Fig18Row,
};
pub use microbench::{BenchResult, MicroBench};
pub use report::{Table, ToJson};
