//! A tiny, dependency-free micro-benchmark harness.
//!
//! The workspace carries no external crates, so the `benches/` targets are
//! plain `harness = false` binaries built on this module instead of a
//! benchmarking framework.  The design goals are modest and explicit:
//!
//! * **calibrated sampling** — each benchmark first estimates the cost of
//!   one iteration, then sizes its samples so a sample runs long enough to
//!   be measurable above timer noise,
//! * **robust summary** — several samples are taken and the *minimum* (the
//!   least-disturbed run), median and mean ns/iteration are reported,
//! * **machine-readable output** — results can be dumped as JSON through
//!   [`crate::report::ToJson`] when the bench is given a path argument.
//!
//! This intentionally does not do statistical outlier analysis; it is a
//! regression thermometer, not a laboratory instrument.

use std::time::{Duration as StdDuration, Instant};

use crate::report::{json_object, Table, ToJson};

/// One benchmark's summarised timing.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Number of samples taken.
    pub samples: usize,
    /// Fastest observed ns/iteration.
    pub min_ns: f64,
    /// Median ns/iteration across samples.
    pub median_ns: f64,
    /// Mean ns/iteration across samples.
    pub mean_ns: f64,
}

impl ToJson for BenchResult {
    fn to_json(&self) -> String {
        json_object(&[
            ("name", self.name.to_json()),
            ("iters_per_sample", self.iters_per_sample.to_json()),
            ("samples", self.samples.to_json()),
            ("min_ns", self.min_ns.to_json()),
            ("median_ns", self.median_ns.to_json()),
            ("mean_ns", self.mean_ns.to_json()),
        ])
    }
}

/// A group of benchmarks sharing configuration, collecting results as they
/// run.
#[derive(Debug)]
pub struct MicroBench {
    /// Minimum wall-clock time one sample should take.
    pub min_sample_time: StdDuration,
    /// Number of samples per benchmark.
    pub samples: usize,
    /// Hard cap on iterations per sample (guards against free functions).
    pub max_iters_per_sample: u64,
    results: Vec<BenchResult>,
}

impl Default for MicroBench {
    fn default() -> Self {
        MicroBench {
            min_sample_time: StdDuration::from_millis(40),
            samples: 7,
            max_iters_per_sample: 10_000_000,
            results: Vec::new(),
        }
    }
}

impl MicroBench {
    /// A harness with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// A quick harness for CI smoke runs (shorter samples, fewer of them).
    pub fn quick() -> Self {
        MicroBench {
            min_sample_time: StdDuration::from_millis(10),
            samples: 3,
            ..Self::default()
        }
    }

    /// Run one benchmark: `f` is called repeatedly; its return value is
    /// black-boxed so the work is not optimised away.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> &BenchResult {
        // Calibrate: time a single iteration (re-timing a few times for very
        // fast functions so the estimate is not pure timer noise).
        let mut calibration_iters: u64 = 1;
        let per_iter = loop {
            let start = Instant::now();
            for _ in 0..calibration_iters {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= StdDuration::from_millis(1)
                || calibration_iters >= self.max_iters_per_sample
            {
                break elapsed.as_nanos().max(1) / u128::from(calibration_iters);
            }
            calibration_iters = (calibration_iters * 10).min(self.max_iters_per_sample);
        };
        let iters_per_sample = ((self.min_sample_time.as_nanos() / per_iter.max(1)).max(1) as u64)
            .min(self.max_iters_per_sample);

        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed();
            per_iter_ns.push(elapsed.as_nanos() as f64 / iters_per_sample as f64);
        }
        per_iter_ns.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let min_ns = per_iter_ns[0];
        let median_ns = per_iter_ns[per_iter_ns.len() / 2];
        let mean_ns = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64;
        self.results.push(BenchResult {
            name: name.to_string(),
            iters_per_sample,
            samples: self.samples,
            min_ns,
            median_ns,
            mean_ns,
        });
        self.results.last().expect("just pushed")
    }

    /// All results collected so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Print a results table and, if the process received a CLI argument,
    /// also dump the results there as JSON.
    pub fn finish(&self, title: &str) {
        println!("\n{title}");
        let mut table = Table::new(&["benchmark", "min ns/iter", "median ns/iter", "mean ns/iter"]);
        for r in &self.results {
            table.row_strings(vec![
                r.name.clone(),
                format!("{:.1}", r.min_ns),
                format!("{:.1}", r.median_ns),
                format!("{:.1}", r.mean_ns),
            ]);
        }
        table.print();
        crate::report::maybe_write_json_from_args(&self.results);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something_plausible() {
        let mut harness = MicroBench {
            min_sample_time: StdDuration::from_micros(200),
            samples: 3,
            ..MicroBench::default()
        };
        let r = harness.bench("sum", || (0..100u64).sum::<u64>()).clone();
        assert_eq!(r.samples, 3);
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.mean_ns * 1.0001);
        assert_eq!(harness.results().len(), 1);
        assert!(r.to_json().contains("\"name\": \"sum\""));
    }

    #[test]
    fn quick_profile_is_cheaper() {
        let q = MicroBench::quick();
        assert!(q.samples < MicroBench::default().samples);
    }
}
