//! The only module that touches the product's API.
//!
//! Everything the benchmark asks of `rt-types`, `rt-frames`, `rt-edf`,
//! `rt-netsim`, `rt-core` and `rt-traffic` goes through here, and only
//! through their public items, so a later fold of that API needs a follow-up
//! in this directory and nowhere else.  Nothing is imported from `rt-bench`:
//! cleaning up the legacy bench bins cannot move these numbers.

pub mod churn;
pub mod kernels;
pub mod traced;
pub mod wire;

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;
use crate::span::{Profile, Span};

/// Smoke runs divide every size by this.
pub const SMOKE_DIVISOR: u64 = 50;

/// What one fresh, untraced repeat of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Repeat {
    /// Everything before the timed window.
    pub setup_s: f64,
    /// The timed window.
    pub window_s: f64,
    /// Units of work done in the window: admission verdicts on `churn_*`,
    /// data frames delivered on `wire_*`.
    pub work: u64,
    /// Host nanoseconds of each blocking call the user made in the window.
    pub latencies_ns: Vec<u64>,
    /// Work offered to, and accepted by, the system in the window.
    pub offered: u64,
    pub accepted: u64,
    /// Operations attempted over the whole repeat, and how many of them
    /// broke a check.  A rejection is a verdict, not a failure.
    pub attempted: u64,
    pub failed: u64,
    /// One line per broken check.
    pub failures: Vec<String>,
    /// Hash over the simulated outcome; equal seeds must give equal digests.
    pub digest: u64,
    /// Exact, seed-determined facts worth printing beside the digest.
    pub facts: Vec<(&'static str, f64)>,
    /// Measured side notes that are no metric of their own.
    pub notes: Vec<(&'static str, f64)>,
}

impl Repeat {
    pub(crate) fn fail(&mut self, operations: u64, what: String) {
        self.failed += operations.max(1);
        self.failures.push(what);
    }

    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, what());
        }
    }
}

/// A traced repeat: the same run with the wrappers in place, plus the layer
/// kernels replayed on what it captured.
#[derive(Debug, Clone, Default)]
pub struct TracedRepeat {
    pub repeat: Repeat,
    /// Per-layer metric values by name.  A layer the workload does not
    /// exercise is absent and reads as 0.
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
    pub profile: Profile,
    /// Spans that did not fit the buffer (a broken check if not 0).
    pub dropped_spans: u64,
    /// Measured side notes of the traced pass itself.
    pub notes: Vec<(&'static str, f64)>,
}

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChurnCentral,
    ChurnDistributed,
    ChurnFaults,
    WirePreload,
    WireRt,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ChurnCentral,
        Workload::ChurnDistributed,
        Workload::ChurnFaults,
        Workload::WirePreload,
        Workload::WireRt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnCentral => "churn_central",
            Workload::ChurnDistributed => "churn_distributed",
            Workload::ChurnFaults => "churn_faults",
            Workload::WirePreload => "wire_preload",
            Workload::WireRt => "wire_rt",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sizes this workload runs at, for the result file.
    pub fn sizes(self, smoke: bool) -> Value {
        match self {
            Workload::ChurnCentral | Workload::ChurnDistributed | Workload::ChurnFaults => {
                churn::Plan::of(self, smoke).to_json()
            }
            Workload::WirePreload => wire::PreloadPlan::of(smoke).to_json(),
            Workload::WireRt => wire::RtPlan::of(smoke).to_json(),
        }
    }

    /// One fresh repeat: build everything, run, check, drop everything.  The
    /// `wire_*` workloads draw nothing from the seed.
    pub fn run(self, seed: u64, smoke: bool) -> Repeat {
        match self {
            Workload::ChurnCentral | Workload::ChurnDistributed | Workload::ChurnFaults => {
                churn::run(&churn::Plan::of(self, smoke), seed)
            }
            Workload::WirePreload => wire::run_preload(&wire::PreloadPlan::of(smoke)),
            Workload::WireRt => wire::run_rt(&wire::RtPlan::of(smoke)),
        }
    }

    /// One traced repeat plus the kernels of the layers this workload uses.
    pub fn run_traced(self, seed: u64, smoke: bool) -> TracedRepeat {
        match self {
            Workload::ChurnCentral | Workload::ChurnDistributed | Workload::ChurnFaults => {
                churn::run_traced(&churn::Plan::of(self, smoke), seed, smoke)
            }
            Workload::WirePreload => wire::run_preload_traced(&wire::PreloadPlan::of(smoke), smoke),
            Workload::WireRt => wire::run_rt_traced(&wire::RtPlan::of(smoke), smoke),
        }
    }
}

/// FNV-1a over 64-bit words: the digest of a run's simulated outcome.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn mix(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Seconds since `since`.
pub(crate) fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

pub fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("all"), None);
    }

    #[test]
    fn fnv_tells_sequences_apart() {
        let digest = |words: &[u64]| {
            let mut fnv = Fnv::new();
            words.iter().for_each(|&w| fnv.mix(w));
            fnv.finish()
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[3, 2, 1]));
        assert_ne!(digest(&[]), digest(&[0]));
    }

    #[test]
    fn a_failed_check_counts_at_least_one_operation() {
        let mut repeat = Repeat::default();
        repeat.check(true, || unreachable!());
        repeat.check(false, || "broken".into());
        repeat.fail(0, "also broken".into());
        repeat.fail(3, "three frames lost".into());
        assert_eq!(repeat.failed, 5);
        assert_eq!(repeat.failures.len(), 3);
    }
}
