//! `rtbench compare A.json B.json`: did B get worse than A by more than the
//! benchmark's own bounds?
//!
//! A is the reference, B the candidate.  The verdict is per workload and per
//! end-to-end metric; nothing is averaged across them.  Files from different
//! hosts, or from smoke runs, are not compared at all.

use crate::json::Value;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::Better;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse than the reference by more than the bound.
    Breach,
    /// A seed-determined metric got worse at the same seed: the behaviour
    /// changed, however small the step.
    ExactWorse,
    /// More operations failed a check than in the reference.
    MoreFailures,
    /// The hosts differ; the numbers say nothing about the code.
    Unresolved,
    /// One of the files lacks the value.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Breach => "BREACH",
            Verdict::ExactWorse => "BREACH (exact metric got worse)",
            Verdict::MoreFailures => "BREACH (more failed operations)",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "MISSING",
        }
    }

    fn passes(self) -> bool {
        self == Verdict::Ok
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// How much worse B is than A, as a share of A; negative when better.
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Why no verdict can be given, when none can.
    pub unresolved: Option<String>,
    /// Workloads whose digests differ at equal seeds.
    pub changed_statistics: Vec<String>,
}

impl Comparison {
    pub fn passes(&self) -> bool {
        self.unresolved.is_none() && self.rows.iter().all(|r| r.verdict.passes())
    }

    pub fn print(&self) {
        println!(
            "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
            "workload", "metric", "A", "B", "worse by", "bound"
        );
        for row in &self.rows {
            println!(
                "{:<18} {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%  {}",
                row.workload,
                row.metric,
                row.a,
                row.b,
                100.0 * row.worse_by,
                100.0 * row.bound,
                row.verdict.label()
            );
        }
        for workload in &self.changed_statistics {
            println!("{workload}: simulated statistics changed (digests differ at equal seed)");
        }
        match &self.unresolved {
            Some(why) => println!("unresolved: {why}"),
            None if self.passes() => println!("no metric is worse than its bound allows"),
            None => println!("at least one metric is worse than its bound allows"),
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

fn judge(metric: &EndToEnd, a: f64, b: f64, same_seed: bool) -> (f64, Verdict) {
    let worse = worse_by(metric.better, a, b);
    let verdict = if metric.exact && same_seed && worse > 0.0 {
        Verdict::ExactWorse
    } else if worse > metric.bound {
        Verdict::Breach
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

fn workloads(file: &Value) -> Result<&[Value], String> {
    file.get("workloads")
        .and_then(|w| w.as_arr())
        .ok_or_else(|| "not an rtbench result file: no workloads".to_string())
}

fn named<'a>(entries: &'a [Value], name: &str) -> Option<&'a Value> {
    entries
        .iter()
        .find(|w| w.get("name").and_then(|n| n.as_str()) == Some(name))
}

/// Compare two parsed result files.  `Err` is a refusal: the files cannot be
/// compared at all.
pub fn compare(a: &Value, b: &Value) -> Result<Comparison, String> {
    for (label, file) in [("A", a), ("B", b)] {
        if file.get("rtbench").is_none() {
            return Err(format!("{label} is not an rtbench result file"));
        }
        if file.get("smoke").and_then(|s| s.as_bool()) != Some(false) {
            return Err(format!(
                "{label} is a smoke run: its sizes are too small to time"
            ));
        }
    }
    let host = |file: &Value, key: &str| file.get("host").and_then(|h| h.get(key)).cloned();
    let unresolved = ["cores", "cpu_model"]
        .into_iter()
        .find(|key| host(a, key) != host(b, key) || host(a, key).is_none())
        .map(|key| {
            format!(
                "the hosts differ in {key} ({} vs {})",
                host(a, key).map_or("missing".into(), |v| v.to_compact()),
                host(b, key).map_or("missing".into(), |v| v.to_compact()),
            )
        });
    let same_seed = a.get("seed").is_some() && a.get("seed") == b.get("seed");

    let (entries_a, entries_b) = (workloads(a)?, workloads(b)?);
    let mut comparison = Comparison {
        rows: Vec::new(),
        unresolved,
        changed_statistics: Vec::new(),
    };
    for entry_a in entries_a {
        let name = entry_a
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or("a workload entry has no name")?;
        let entry_b = named(entries_b, name);
        let value = |entry: Option<&Value>, metric: &str| {
            entry?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()
        };
        for metric in &END_TO_END {
            let (a, b) = (
                value(Some(entry_a), metric.name),
                value(entry_b, metric.name),
            );
            let row = match (a, b) {
                (Some(a), Some(b)) => {
                    let (worse_by, verdict) = judge(metric, a, b, same_seed);
                    Row {
                        workload: name.to_string(),
                        metric: metric.name,
                        a,
                        b,
                        worse_by,
                        bound: metric.bound,
                        verdict: if comparison.unresolved.is_some() {
                            Verdict::Unresolved
                        } else {
                            verdict
                        },
                    }
                }
                _ => Row {
                    workload: name.to_string(),
                    metric: metric.name,
                    a: a.unwrap_or(0.0),
                    b: b.unwrap_or(0.0),
                    worse_by: 0.0,
                    bound: metric.bound,
                    verdict: Verdict::Missing,
                },
            };
            comparison.rows.push(row);
        }
        let Some(entry_b) = entry_b else { continue };
        // Failed operations: any increase is a regression, host or no host.
        let failed = |entry: &Value| entry.get("failed").and_then(|f| f.as_f64()).unwrap_or(0.0);
        if failed(entry_b) > failed(entry_a) {
            comparison.rows.push(Row {
                workload: name.to_string(),
                metric: "failed",
                a: failed(entry_a),
                b: failed(entry_b),
                worse_by: 0.0,
                bound: 0.0,
                verdict: Verdict::MoreFailures,
            });
        }
        if same_seed && entry_a.get("digest") != entry_b.get("digest") {
            comparison.changed_statistics.push(name.to_string());
        }
    }
    Ok(comparison)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result file with one workload whose metrics are `values`, in the
    /// order of `END_TO_END`.
    fn file(cpu: &str, seed: u64, digest: &str, failed: u64, values: [f64; 5]) -> Value {
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, Value::obj([("value", Value::Num(v))])));
        Value::obj([
            ("rtbench", Value::count(1)),
            ("smoke", Value::Bool(false)),
            ("seed", Value::count(seed)),
            (
                "host",
                Value::obj([("cores", Value::count(2)), ("cpu_model", Value::str(cpu))]),
            ),
            (
                "workloads",
                Value::Arr(vec![Value::obj([
                    ("name", Value::str("churn_central")),
                    ("failed", Value::count(failed)),
                    ("digest", Value::str(digest)),
                    ("end_to_end", Value::obj(metrics)),
                ])]),
            ),
        ])
    }

    // throughput, p50, accepted, rss, setup
    const BASE: [f64; 5] = [20_000.0, 40.0, 0.54, 8.0, 0.5];

    fn verdicts(comparison: &Comparison) -> Vec<(&'static str, Verdict)> {
        comparison
            .rows
            .iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    /// `BASE` with one metric made worse by `share` of its value.
    fn worse(metric: &str, share: f64) -> [f64; 5] {
        let mut values = BASE;
        for (m, v) in END_TO_END.iter().zip(&mut values) {
            if m.name == metric {
                *v *= match m.better {
                    Better::Higher => 1.0 - share,
                    Better::Lower => 1.0 + share,
                };
            }
        }
        values
    }

    #[test]
    fn equal_files_pass_and_noise_inside_the_bounds_passes() {
        let a = file("xeon", 1, "d", 0, BASE);
        assert!(compare(&a, &a).unwrap().passes());
        // Every timed metric worse by four fifths of its bound.
        let mut values = BASE;
        for (m, v) in END_TO_END.iter().zip(&mut values) {
            if !m.exact {
                *v = worse(m.name, 0.8 * m.bound)
                    [END_TO_END.iter().position(|n| n.name == m.name).unwrap()];
            }
        }
        let comparison = compare(&a, &file("xeon", 1, "d", 0, values)).unwrap();
        assert!(comparison.passes(), "{:?}", verdicts(&comparison));
        assert!(comparison.changed_statistics.is_empty());
        // Better in every direction is never a breach.
        let better = file("xeon", 1, "d", 0, [30_000.0, 20.0, 0.6, 4.0, 0.1]);
        assert!(compare(&a, &better).unwrap().passes());
    }

    #[test]
    fn a_breach_in_either_direction_fails() {
        let a = file("xeon", 1, "d", 0, BASE);
        for (i, metric) in END_TO_END.iter().enumerate().filter(|(_, m)| !m.exact) {
            let b = file("xeon", 1, "d", 0, worse(metric.name, metric.bound + 0.01));
            let comparison = compare(&a, &b).unwrap();
            assert!(!comparison.passes(), "{}", metric.name);
            for (j, row) in comparison.rows.iter().enumerate() {
                let expected = if i == j { Verdict::Breach } else { Verdict::Ok };
                assert_eq!(row.verdict, expected, "{} / {}", metric.name, row.metric);
            }
            assert!((comparison.rows[i].worse_by - metric.bound - 0.01).abs() < 1e-9);
        }
    }

    #[test]
    fn an_exact_metric_may_not_decrease_at_the_same_seed() {
        let a = file("xeon", 1, "d", 0, BASE);
        let fewer = file("xeon", 1, "e", 0, [20_000.0, 40.0, 0.5399, 8.0, 0.5]);
        let comparison = compare(&a, &fewer).unwrap();
        assert!(!comparison.passes());
        assert_eq!(
            verdicts(&comparison)[2],
            ("accepted_ratio", Verdict::ExactWorse)
        );
        assert_eq!(comparison.changed_statistics, ["churn_central"]);
        // At another seed the same step is inside the bound, and digests are
        // expected to differ.
        let other_seed = file("xeon", 2, "e", 0, [20_000.0, 40.0, 0.5399, 8.0, 0.5]);
        let comparison = compare(&a, &other_seed).unwrap();
        assert!(comparison.passes());
        assert!(comparison.changed_statistics.is_empty());
        // An increase is fine.
        let more = file("xeon", 1, "d", 0, [20_000.0, 40.0, 0.55, 8.0, 0.5]);
        assert!(compare(&a, &more).unwrap().passes());
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "accepted_ratio" && m.exact));
    }

    #[test]
    fn more_failed_operations_fail_whatever_the_timings() {
        let a = file("xeon", 1, "d", 0, BASE);
        let b = file("xeon", 1, "d", 3, BASE);
        let comparison = compare(&a, &b).unwrap();
        assert!(!comparison.passes());
        assert_eq!(
            comparison.rows.last().map(|r| r.verdict),
            Some(Verdict::MoreFailures)
        );
    }

    #[test]
    fn other_hosts_are_unresolved_and_smoke_files_are_refused() {
        let a = file("xeon", 1, "d", 0, BASE);
        let elsewhere = file("epyc", 1, "d", 0, BASE);
        let comparison = compare(&a, &elsewhere).unwrap();
        assert!(!comparison.passes());
        assert!(comparison
            .unresolved
            .as_deref()
            .unwrap()
            .contains("cpu_model"));
        assert!(comparison
            .rows
            .iter()
            .all(|r| r.verdict == Verdict::Unresolved));

        let Value::Obj(mut pairs) = a.clone() else {
            unreachable!()
        };
        pairs[1].1 = Value::Bool(true);
        let smoke = Value::Obj(pairs);
        assert!(compare(&a, &smoke).unwrap_err().contains("smoke"));
        assert!(compare(&smoke, &a).unwrap_err().contains("smoke"));
        assert!(compare(&Value::Null, &a).is_err());
    }

    #[test]
    fn a_workload_missing_from_the_candidate_does_not_pass() {
        let a = file("xeon", 1, "d", 0, BASE);
        let Value::Obj(mut pairs) = a.clone() else {
            unreachable!()
        };
        pairs[4].1 = Value::Arr(vec![]);
        let comparison = compare(&a, &Value::Obj(pairs)).unwrap();
        assert!(!comparison.passes());
        assert!(comparison
            .rows
            .iter()
            .all(|r| r.verdict == Verdict::Missing));
    }
}
