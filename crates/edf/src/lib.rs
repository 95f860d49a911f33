//! # rt-edf
//!
//! Earliest-Deadline-First scheduling theory and queueing primitives, as used
//! by the paper's per-link admission control (§18.3):
//!
//! * [`task`] — the periodic task model `{P, C, d}` that each half of an RT
//!   channel (uplink part, downlink part) maps onto,
//! * [`taskset`] — utilisation, hyperperiod, busy period and the workload
//!   function `h(t)` of Eq. 18.3,
//! * [`feasibility`] — the two-constraint feasibility test (utilisation ≤ 1,
//!   `h(t) ≤ t` at the Eq. 18.5 check-points within the first busy period,
//!   Eq. 18.4),
//! * [`queue`] — the deadline-sorted (EDF) output queue and the FCFS
//!   best-effort queue used by end nodes and switch ports,
//! * [`schedule`] — a slot-accurate single-link EDF schedule generator used
//!   to cross-validate the analytical test in property tests and in the
//!   feasibility-ablation experiment.
//!
//! Everything here is expressed in integer time slots ([`rt_types::Slots`]);
//! conversion to wall-clock time is the simulator's business.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod feasibility;
pub mod queue;
pub mod schedule;
pub mod task;
pub mod taskset;

#[cfg(test)]
pub(crate) mod testgen;

pub use feasibility::{
    DemandScratch, FeasibilityConfig, FeasibilityOutcome, FeasibilityTester, FeasibilityVerdict,
};
pub use queue::{EdfQueue, FcfsQueue};
pub use schedule::{simulate_edf_schedule, ScheduleOutcome};
pub use task::PeriodicTask;
pub use taskset::TaskSet;
