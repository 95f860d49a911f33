//! From the repeats of one workload to what is printed and written: the
//! summary of each end-to-end metric, the per-layer values of a traced pass,
//! the line the driver reads, and the entry in a result file.

use crate::adapter::{ratio, Repeat, TracedRepeat, Workload};
use crate::json::Value;
use crate::metrics::{self, EndToEnd, Headline, END_TO_END, PER_LAYER};
use crate::span::{span_line, Profile, Span};
use crate::stats::{percentile, tail, Better, Summary};

/// The raw spans of this many requests go to `rtbench-trace.jsonl`.
const TRACED_REQUESTS_KEPT: u32 = 2_000;

/// What a traced pass adds to a workload's outcome.
#[derive(Debug, Clone)]
pub struct Layers {
    /// One value per entry of [`PER_LAYER`], in that order.
    pub values: Vec<f64>,
    pub profile: Profile,
    pub spans: Vec<Span>,
}

/// Everything one invocation learned about one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub smoke: bool,
    pub repeats: usize,
    /// One summary per entry of [`END_TO_END`], in that order.
    pub end_to_end: Vec<Summary>,
    /// Latency samples behind each repeat's percentiles.
    pub latency_samples: usize,
    /// The tail of the latency samples, per repeat.  No bounded metric: from
    /// run to run it spreads wider than any bound could be (see the README);
    /// a traced pass reports it among the per-layer metrics.
    pub latency_tail_us: Summary,
    /// Which percentile the tail is at this sample count.
    pub tail_percentile: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digest: u64,
    pub facts: Vec<(&'static str, f64)>,
    pub notes: Vec<(&'static str, f64)>,
    pub layers: Option<Layers>,
}

impl Outcome {
    /// Summarise the untraced repeats of `workload`.  `peak_rss_mb` is the
    /// process's peak after its first repeat: one value, not one per repeat.
    pub fn of(
        workload: Workload,
        seed: u64,
        smoke: bool,
        mut repeats: Vec<Repeat>,
        peak_rss_mb: f64,
    ) -> Outcome {
        let mut throughput = Vec::new();
        let mut p50_us = Vec::new();
        let mut tail_us = Vec::new();
        let mut tail_percentile = 1.0;
        let mut accepted = Vec::new();
        let mut setup = Vec::new();
        let mut failures = Vec::new();
        let (mut attempted, mut failed) = (0, 0);
        for (i, repeat) in repeats.iter_mut().enumerate() {
            repeat.latencies_ns.sort_unstable();
            let (p, tail) = tail(&repeat.latencies_ns);
            tail_percentile = p;
            throughput.push(if repeat.window_s > 0.0 {
                repeat.work as f64 / repeat.window_s
            } else {
                0.0
            });
            p50_us.push(percentile(&repeat.latencies_ns, 0.50) as f64 / 1e3);
            tail_us.push(tail as f64 / 1e3);
            accepted.push(ratio(repeat.accepted, repeat.offered));
            setup.push(repeat.setup_s);
            attempted += repeat.attempted;
            failed += repeat.failed;
            failures.extend(repeat.failures.iter().map(|f| format!("repeat {i}: {f}")));
        }
        // Every repeat simulates the same thing; two that disagree mean the
        // system is not deterministic, whatever else passed.
        let first = repeats.first();
        let digest = first.map_or(0, |r| r.digest);
        if repeats.iter().any(|r| r.digest != digest) {
            failed += 1;
            failures.push("repeats at one seed disagree on the simulated outcome".into());
        }
        // In the order of `END_TO_END`.
        let values = [throughput, p50_us, accepted, vec![peak_rss_mb], setup];
        Outcome {
            workload,
            seed,
            smoke,
            repeats: repeats.len(),
            end_to_end: END_TO_END
                .iter()
                .zip(values)
                .map(|(m, v)| Summary::of(v, m.better))
                .collect(),
            latency_samples: first.map_or(0, |r| r.latencies_ns.len()),
            latency_tail_us: Summary::of(tail_us, Better::Lower),
            tail_percentile,
            attempted,
            failed,
            failures,
            digest,
            facts: first.map_or_else(Vec::new, |r| r.facts.clone()),
            notes: first.map_or_else(Vec::new, |r| r.notes.clone()),
            layers: None,
        }
    }

    /// Fold in the traced pass.  Its timings feed the per-layer metrics only;
    /// its checks count like any repeat's.
    pub fn attach(&mut self, traced: TracedRepeat) {
        let TracedRepeat {
            repeat,
            mut layers,
            spans,
            profile,
            dropped_spans,
            notes,
        } = traced;
        self.attempted += repeat.attempted;
        self.failed += repeat.failed;
        self.failures
            .extend(repeat.failures.iter().map(|f| format!("traced: {f}")));
        if dropped_spans != 0 {
            self.failed += 1;
            self.failures.push(format!(
                "traced: {dropped_spans} spans did not fit the buffer"
            ));
        }
        if repeat.digest != self.digest {
            self.failed += 1;
            self.failures
                .push("traced: tracing changed the simulated outcome".into());
        }
        // The traced window over the time the best untraced repeat of this
        // process took for the same work.
        let best = self.summary("throughput_per_s").map_or(0.0, |s| s.best);
        if best > 0.0 && repeat.work > 0 {
            layers.insert(
                "trace_overhead_ratio",
                repeat.window_s * best / repeat.work as f64,
            );
        }
        layers.insert("latency_tail_us", self.latency_tail_us.best);
        self.notes.extend(notes);
        self.layers = Some(Layers {
            values: PER_LAYER
                .iter()
                .map(|m| layers.get(m.name).copied().unwrap_or(0.0))
                .collect(),
            profile,
            spans,
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn summary(&self, name: &str) -> Option<&Summary> {
        END_TO_END
            .iter()
            .position(|m| m.name == name)
            .map(|i| &self.end_to_end[i])
    }

    /// The value that stands for the run.
    pub fn headline(metric: &EndToEnd, summary: &Summary) -> f64 {
        match metric.headline {
            Headline::Best => summary.best,
            Headline::Median => summary.median,
        }
    }

    /// Every metric by name with its unit, then the digest and the checks.
    pub fn print(&self) {
        println!(
            "rtbench {}  seed={} repeats={} smoke={}",
            self.workload.name(),
            self.seed,
            self.repeats,
            self.smoke
        );
        println!("  why: {}", metrics::why(self.workload.name()));
        for (metric, summary) in END_TO_END.iter().zip(&self.end_to_end) {
            let which = match metric.headline {
                Headline::Best => "best",
                Headline::Median => "median",
            };
            let values: Vec<String> = summary.values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "  {:<18} {:>14.4} {:<6} {which} of [{}]; quartile spread {:.2} %",
                metric.name,
                Self::headline(metric, summary),
                metric.unit,
                values.join(", "),
                100.0 * summary.spread(),
            );
        }
        let tails: Vec<String> = self
            .latency_tail_us
            .values
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect();
        println!(
            "  latency samples per repeat: {}; tail p{} = {:.4} us, best of [{}] (no bound)",
            self.latency_samples,
            100.0 * self.tail_percentile,
            self.latency_tail_us.best,
            tails.join(", ")
        );
        println!("  digest {:016x}", self.digest);
        for (name, value) in &self.facts {
            println!("  fact {name} = {value}");
        }
        for (name, value) in &self.notes {
            println!("  note {name} = {value:.6}");
        }
        if let Some(layers) = &self.layers {
            println!("  per-layer metrics (traced pass; 0 = layer not exercised here):");
            for (metric, value) in PER_LAYER.iter().zip(&layers.values) {
                println!("    {:<44} {:>16.4} {}", metric.name, value, metric.unit);
            }
            println!(
                "  spans: {:<34} {:>9} {:>12} {:>12} {:>10} {:>10}",
                "name", "count", "total ms", "self ms", "p50 ns", "p99 ns"
            );
            for (name, stats) in &layers.profile.by_name {
                println!(
                    "         {:<34} {:>9} {:>12.3} {:>12.3} {:>10} {:>10}",
                    name,
                    stats.count,
                    stats.total_ns as f64 / 1e6,
                    stats.self_ns as f64 / 1e6,
                    stats.duration_p50(),
                    crate::stats::percentile(&stats.durations, 0.99),
                );
            }
        }
        println!(
            "  checks: {} operations attempted, {} failed (failed_ratio {})",
            self.attempted,
            self.failed,
            ratio(self.failed, self.attempted)
        );
        for failure in &self.failures {
            println!("  FAILED {failure}");
        }
    }

    /// The one line the driver reads: every end-to-end metric of an untraced
    /// run, every per-layer metric of a traced one.
    pub fn contract_line(&self) -> String {
        let metric = |value: f64, unit: &str| {
            Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
        };
        let metrics: Vec<(String, Value)> = match &self.layers {
            Some(layers) => PER_LAYER
                .iter()
                .zip(&layers.values)
                .map(|(m, v)| (m.name.to_string(), metric(*v, m.unit)))
                .collect(),
            None => END_TO_END
                .iter()
                .zip(&self.end_to_end)
                .map(|(m, s)| (m.name.to_string(), metric(Self::headline(m, s), m.unit)))
                .collect(),
        };
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::count(self.attempted.max(1))),
            ("failed", Value::count(self.failed)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_compact()
    }

    /// This workload's entry in a result file.
    pub fn to_json(&self) -> Value {
        let end_to_end = END_TO_END
            .iter()
            .zip(&self.end_to_end)
            .map(|(m, s)| {
                (
                    m.name.to_string(),
                    Value::obj([
                        ("unit", Value::str(m.unit)),
                        ("better", Value::str(m.better.as_str())),
                        ("value", Value::Num(Self::headline(m, s))),
                        ("best", Value::Num(s.best)),
                        ("median", Value::Num(s.median)),
                        ("q1", Value::Num(s.q1)),
                        ("q3", Value::Num(s.q3)),
                        (
                            "values",
                            Value::Arr(s.values.iter().map(|v| Value::Num(*v)).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        let pairs = |items: &[(&'static str, f64)]| {
            Value::Obj(
                items
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Num(*v)))
                    .collect(),
            )
        };
        let mut entry = vec![
            ("name".to_string(), Value::str(self.workload.name())),
            ("sizes".to_string(), self.workload.sizes(self.smoke)),
            ("repeats".to_string(), Value::count(self.repeats as u64)),
            (
                "latency_samples".to_string(),
                Value::count(self.latency_samples as u64),
            ),
            (
                "tail_percentile".to_string(),
                Value::Num(self.tail_percentile),
            ),
            (
                "latency_tail_us".to_string(),
                Value::Num(self.latency_tail_us.best),
            ),
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::count(self.attempted)),
            ("failed".to_string(), Value::count(self.failed)),
            (
                "failures".to_string(),
                Value::Arr(self.failures.iter().map(Value::str).collect()),
            ),
            (
                "digest".to_string(),
                Value::Str(format!("{:016x}", self.digest)),
            ),
            ("facts".to_string(), pairs(&self.facts)),
            ("notes".to_string(), pairs(&self.notes)),
            ("end_to_end".to_string(), Value::Obj(end_to_end)),
        ];
        if let Some(layers) = &self.layers {
            let per_layer = PER_LAYER
                .iter()
                .zip(&layers.values)
                .map(|(m, v)| {
                    (
                        m.name.to_string(),
                        Value::obj([
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("value", Value::Num(*v)),
                        ]),
                    )
                })
                .collect();
            entry.push(("per_layer".to_string(), Value::Obj(per_layer)));
            entry.push(("spans".to_string(), layers.profile.to_json()));
        }
        Value::Obj(entry)
    }

    /// The raw spans of the first requests, one JSON object per line, each
    /// tagged with the workload.
    pub fn trace_lines(&self) -> String {
        let Some(layers) = &self.layers else {
            return String::new();
        };
        let first_request = layers.spans.first().map_or(0, |s| s.request);
        layers
            .spans
            .iter()
            .enumerate()
            .take_while(|(_, span)| span.request - first_request < TRACED_REQUESTS_KEPT)
            .map(|(i, span)| span_line(self.workload.name(), i, span) + "\n")
            .collect()
    }
}

/// A whole result file: what ran, where, and each workload's entry.
pub fn file(
    host: Value,
    seed: u64,
    smoke: bool,
    traced: bool,
    limit: Value,
    workloads: Vec<Value>,
) -> Value {
    Value::obj([
        ("rtbench", Value::count(1)),
        ("smoke", Value::Bool(smoke)),
        ("traced", Value::Bool(traced)),
        ("seed", Value::count(seed)),
        ("limit", limit),
        ("host", host),
        ("workloads", Value::Arr(workloads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::span::NO_PARENT;

    fn repeat(window_s: f64, setup_s: f64, digest: u64) -> Repeat {
        Repeat {
            setup_s,
            window_s,
            work: 1_000,
            latencies_ns: (1..=100).map(|i| i * 1_000).collect(),
            offered: 1_000,
            accepted: 540,
            attempted: 1_100,
            digest,
            ..Repeat::default()
        }
    }

    fn outcome() -> Outcome {
        let repeats = vec![
            repeat(0.5, 0.3, 7),
            repeat(0.4, 0.1, 7),
            repeat(0.8, 0.2, 7),
        ];
        Outcome::of(Workload::ChurnCentral, 20644, false, repeats, 12.5)
    }

    #[test]
    fn headline_is_the_best_repeat_except_for_setup() {
        let outcome = outcome();
        let value = |name: &str| {
            let i = END_TO_END.iter().position(|m| m.name == name).unwrap();
            Outcome::headline(&END_TO_END[i], &outcome.end_to_end[i])
        };
        assert_eq!(value("throughput_per_s"), 2_500.0);
        assert_eq!(value("latency_p50_us"), 50.0);
        // 100 samples: ten lie beyond the 90th percentile, one beyond the 99th.
        assert_eq!(outcome.latency_tail_us.best, 90.0);
        assert_eq!(outcome.tail_percentile, 0.90);
        assert_eq!(value("accepted_ratio"), 0.54);
        assert_eq!(value("peak_rss_mb"), 12.5);
        assert_eq!(value("setup_s"), 0.2);
        assert!(outcome.correct());
        assert_eq!((outcome.attempted, outcome.repeats), (3_300, 3));
        assert_eq!(outcome.latency_samples, 100);
    }

    #[test]
    fn disagreeing_repeats_are_a_failure() {
        let repeats = vec![repeat(0.5, 0.3, 7), repeat(0.4, 0.1, 8)];
        let outcome = Outcome::of(Workload::WireRt, 1, false, repeats, 1.0);
        assert!(!outcome.correct());
        assert_eq!(outcome.failed, 1);
        assert!(outcome.contract_line().contains("\"correct\": false"));
    }

    #[test]
    fn contract_line_carries_exactly_the_declared_metrics() {
        let mut outcome = outcome();
        let line = json::parse(&outcome.contract_line()).unwrap();
        let Value::Obj(keys) = &line else {
            panic!("an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        assert_eq!(
            line.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit"))
                .and_then(|u| u.as_str()),
            Some("s")
        );

        // A traced pass switches the line to the per-layer metrics.
        let span = Span {
            name: "core.manager.request",
            start_ns: 0,
            end_ns: 10,
            parent: NO_PARENT,
            request: 3,
        };
        let mut traced = TracedRepeat {
            repeat: repeat(0.6, 0.1, 7),
            spans: vec![span],
            ..TracedRepeat::default()
        };
        traced.layers.insert("core.manager.request_ns_p50", 10.0);
        outcome.attach(traced);
        let line = json::parse(&outcome.contract_line()).unwrap();
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        let value = |name: &str| {
            line.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
        };
        assert_eq!(value("core.manager.request_ns_p50"), Some(10.0));
        assert_eq!(value("netsim.sim.ns_per_event"), Some(0.0));
        // 0.6 s traced over the best untraced window of 0.4 s.
        assert!((value("trace_overhead_ratio").unwrap() - 1.5).abs() < 1e-9);
        assert_eq!(value("latency_tail_us"), Some(90.0));
        assert_eq!(outcome.attempted, 4_400);
        assert!(outcome
            .trace_lines()
            .starts_with("{\"workload\": \"churn_central\", \"span\": 0, "));
        assert!(json::parse(outcome.trace_lines().trim()).is_ok());
    }

    #[test]
    fn a_traced_pass_that_simulates_something_else_fails() {
        let mut outcome = outcome();
        outcome.attach(TracedRepeat {
            repeat: repeat(0.6, 0.1, 99),
            dropped_spans: 2,
            ..TracedRepeat::default()
        });
        assert_eq!(outcome.failed, 2);
        assert!(!outcome.correct());
    }

    #[test]
    fn file_entry_round_trips_through_the_parser() {
        let entry = outcome().to_json();
        let text = file(
            Value::obj([("cores", Value::count(2))]),
            20644,
            false,
            false,
            Value::obj([("repeats", Value::count(3))]),
            vec![entry.clone()],
        )
        .to_pretty();
        let parsed = json::parse(&text).unwrap();
        let workloads = parsed.get("workloads").and_then(|w| w.as_arr()).unwrap();
        assert_eq!(workloads[0], entry);
        assert_eq!(
            workloads[0].get("digest").and_then(|d| d.as_str()),
            Some("0000000000000007")
        );
        assert_eq!(parsed.get("seed").and_then(|s| s.as_f64()), Some(20644.0));
    }
}
