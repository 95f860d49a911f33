//! Benchmark-trajectory gate: compare a fresh `BENCH_fabric.json` /
//! `BENCH_multiswitch.json` (or any artifact of the same row shapes)
//! against the previous run's artifact and fail on regressions.
//!
//! Six checks are gated:
//!
//! * **throughput** — rows carrying `events_per_second`, matched by
//!   `(fabric, scheduler)` (falling back to `fabric`, then `name`);
//!   a drop beyond the threshold (default 20 %) fails the run,
//! * **sharded throughput** — among the throughput rows whose fabric
//!   carries a `+shards{N}` suffix (the parallel fabric sweep), the *best*
//!   current row is compared against the *best* baseline row and gated at
//!   a fixed 20 % regardless of the CLI threshold: which shard count wins
//!   may shift with the host, so the winners are compared — and relaxing
//!   the single-thread gate must never relax the parallel path,
//! * **churn admission rate** — rows carrying `admissions_per_second`
//!   (the multiswitch part-6 churn soak, matched by `(fabric,
//!   placement)`); a drop beyond a *fixed* 20 % fails the run regardless
//!   of the CLI threshold, so relaxing the wire-level throughput gate
//!   never relaxes the admission hot path,
//! * **steady-state acceptance** — rows carrying `acceptance_ratio`;
//!   the churn process is seeded, so the ratio is deterministic and *any*
//!   decrease against the baseline fails the run,
//! * **allocation pressure** — rows carrying `allocs_per_frame` (the
//!   counting-allocator rows of `BENCH_simulator.json`); the gate is
//!   *inverted* — lower is better — so an **increase** beyond the same
//!   threshold fails the run (an alloc-count regression means the
//!   zero-copy frame path grew a per-frame allocation back),
//! * **admission quality** — rows carrying `accepted_channels`; these are
//!   deterministic integers, so *any* decrease against the baseline fails
//!   the run (fewer admitted channels means the admission control or the
//!   fail-over path lost capacity, which no throughput number excuses),
//! * **convergence admission** — rows carrying
//!   `accepted_under_convergence` (the multiswitch part-5b stale-view
//!   run); seeded and deterministic, so *any* decrease fails — losing
//!   admissions inside the link-state convergence window means the
//!   distributed control plane got more conservative (or less correct)
//!   about disagreement,
//! * **routing rebuild latency** — rows carrying `rebuild_ns` (the fabric
//!   routing microbench, matched by `(fabric, mode)`); the gate is
//!   *inverted* and fixed at a generous 50 % — only an order-of-change
//!   regression, i.e. the incremental or structural path silently falling
//!   back to a from-scratch sweep, should trip it,
//! * **resident routing bytes** — rows carrying `table_bytes`; inverted
//!   and fixed at 10 % — the byte counts are deterministic, so a
//!   regression means a routing mode started materialising state it
//!   promised not to hold (e.g. the table-free structural mode growing an
//!   O(V²) table back),
//! * **central-vs-distributed parity** — rows carrying both
//!   `accepted_channels_central` and `accepted_channels_distributed` (the
//!   multiswitch part-5 parity row) are checked *within the current
//!   artifact*, no baseline needed: the distributed control plane must
//!   admit exactly the central oracle's channel count, and an
//!   `identical_channel_set: false` flag fails outright.
//!
//! An artifact may be a top-level array of rows or an object whose
//! top-level values are arrays of rows (the `multiswitch` shape); new rows
//! (no baseline counterpart) and removed rows only warn.  A missing
//! baseline file is not an error — the first run of a trajectory has
//! nothing to compare against.
//!
//! Usage: `cargo run -p rt-bench --bin bench_diff -- <baseline.json>
//! <current.json> [threshold]`, threshold as a fraction (e.g. `0.2`).

use std::collections::BTreeMap;
use std::process::ExitCode;

use rt_bench::report::{parse_json, JsonValue, Table};

/// The comparison key of one row: whatever identity fields it carries.
fn row_key(row: &JsonValue) -> String {
    let fabric = row
        .get("fabric")
        .or_else(|| row.get("name"))
        .and_then(|v| v.as_str())
        .unwrap_or("?");
    let qualifier = row
        .get("scheduler")
        .or_else(|| row.get("placement"))
        .or_else(|| row.get("mode"))
        .and_then(|v| v.as_str());
    match qualifier {
        Some(qualifier) => format!("{fabric}/{qualifier}"),
        None => fabric.to_string(),
    }
}

/// The shard count a comparison key carries, parsed from the `+shards{N}`
/// fabric suffix the sharded fabric-bench rows use
/// (`torus_8x8_1024+shards4/calendar` → `Some(4)`); `None` for every
/// single-thread row, including other `+`-suffixed variants like `+owned`.
fn shard_count_of(key: &str) -> Option<usize> {
    let rest = &key[key.find("+shards")? + "+shards".len()..];
    let digits: &str = &rest[..rest.find('/').unwrap_or(rest.len())];
    (!digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
        .then(|| digits.parse().ok())
        .flatten()
}

/// The best (highest events/s) sharded throughput row of a metric table —
/// the number the parallel simulator is judged by: which shard count wins
/// may shift with the host's core count, so the gate compares the winners,
/// not each shard count in isolation.
fn best_sharded(throughput: &BTreeMap<String, f64>) -> Option<(&str, f64)> {
    throughput
        .iter()
        .filter(|(key, _)| shard_count_of(key).is_some())
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(key, &eps)| (key.as_str(), eps))
}

/// Fixed fractional threshold for the best-sharded-row gate.  Like the
/// churn admissions/s gate it is *not* CLI-tunable: CI relaxes the
/// single-thread events/s gate on noisy shared runners, and that must
/// never also relax the parallel path.
const SHARDED_THRESHOLD: f64 = 0.20;

/// The sharded-throughput gate: compare the best sharded row of the
/// current artifact against the best sharded row of the baseline and fail
/// beyond [`SHARDED_THRESHOLD`].  Returns the regression messages.
fn sharded_regressions(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
) -> Vec<String> {
    let (Some((base_key, before)), Some((now_key, now))) =
        (best_sharded(baseline), best_sharded(current))
    else {
        return Vec::new();
    };
    let change = now / before - 1.0;
    if before > 0.0 && change < -SHARDED_THRESHOLD {
        vec![format!(
            "best sharded row dropped {:.1}% ({base_key} {before:.0} -> {now_key} {now:.0}, \
             > {:.0}% fixed threshold)",
            -change * 100.0,
            SHARDED_THRESHOLD * 100.0
        )]
    } else {
        Vec::new()
    }
}

/// The rows of an artifact: a top-level array, or every element of every
/// array value of a top-level object (the `multiswitch` results shape).
fn rows_of(doc: &JsonValue) -> Vec<&JsonValue> {
    match doc {
        JsonValue::Array(rows) => rows.iter().collect(),
        JsonValue::Object(map) => map
            .values()
            .filter_map(|v| v.as_array())
            .flatten()
            .collect(),
        _ => Vec::new(),
    }
}

/// The gated metric tables of one artifact.
#[derive(Debug, Default)]
struct Metrics {
    /// `key → events_per_second`.
    throughput: BTreeMap<String, f64>,
    /// `key → accepted_channels`.
    accepted: BTreeMap<String, f64>,
    /// `key → allocs_per_frame` (gated inverted: an increase fails).
    allocs: BTreeMap<String, f64>,
    /// `key → admissions_per_second` (gated at a fixed 20 %).
    admissions: BTreeMap<String, f64>,
    /// `key → acceptance_ratio` (deterministic: any decrease fails).
    acceptance: BTreeMap<String, f64>,
    /// `key → accepted_under_convergence` (deterministic: any decrease
    /// fails).
    convergence: BTreeMap<String, f64>,
    /// `key → rebuild_ns` (routing rebuild-after-cut latency, gated
    /// inverted at a fixed generous threshold: an increase fails).
    rebuild: BTreeMap<String, f64>,
    /// `key → table_bytes` (resident routing bytes, gated inverted: an
    /// increase fails — a blow-up here means a mode started materialising
    /// state it promised not to hold).
    table_bytes: BTreeMap<String, f64>,
}

impl Metrics {
    /// Every gated table.
    fn tables(&self) -> [&BTreeMap<String, f64>; 8] {
        [
            &self.throughput,
            &self.accepted,
            &self.allocs,
            &self.admissions,
            &self.acceptance,
            &self.convergence,
            &self.rebuild,
            &self.table_bytes,
        ]
    }
}

/// The keys of every baseline row, of any gated table, that the current
/// artifact no longer carries.  A removed row is reported, never failed: a
/// benchmark that stops measuring a configuration must not wedge the gate.
fn removed_rows<'a>(baseline: &'a Metrics, current: &Metrics) -> Vec<&'a str> {
    let mut removed = Vec::new();
    for (before, now) in baseline.tables().into_iter().zip(current.tables()) {
        removed.extend(
            before
                .keys()
                .filter(|key| !now.contains_key(*key))
                .map(String::as_str),
        );
    }
    removed
}

/// The events/s gate: fail any `events_per_second` that dropped beyond the
/// fractional threshold against its baseline row.  Returns `(table rows,
/// regressions)`.
fn throughput_regressions(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    threshold: f64,
) -> (Vec<Vec<String>>, Vec<String>) {
    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    for (key, &now) in current {
        match baseline.get(key) {
            Some(&before) if before > 0.0 => {
                let change = now / before - 1.0;
                rows.push(vec![
                    key.clone(),
                    format!("{before:.0}"),
                    format!("{now:.0}"),
                    format!("{:+.1}%", change * 100.0),
                ]);
                if change < -threshold {
                    regressions.push(format!(
                        "{key} events/s dropped {:.1}% (> {:.0}% threshold)",
                        -change * 100.0,
                        threshold * 100.0
                    ));
                }
            }
            _ => {
                rows.push(vec![
                    key.clone(),
                    "(new)".into(),
                    format!("{now:.0}"),
                    "-".into(),
                ]);
            }
        }
    }
    (rows, regressions)
}

fn metrics(doc: &JsonValue) -> Result<Metrics, String> {
    let mut out = Metrics::default();
    for row in rows_of(doc) {
        if let Some(eps) = row.get("events_per_second").and_then(|v| v.as_f64()) {
            out.throughput.insert(row_key(row), eps);
        }
        if let Some(accepted) = row.get("accepted_channels").and_then(|v| v.as_f64()) {
            out.accepted.insert(row_key(row), accepted);
        }
        if let Some(apf) = row.get("allocs_per_frame").and_then(|v| v.as_f64()) {
            out.allocs.insert(row_key(row), apf);
        }
        if let Some(aps) = row.get("admissions_per_second").and_then(|v| v.as_f64()) {
            out.admissions.insert(row_key(row), aps);
        }
        if let Some(ratio) = row.get("acceptance_ratio").and_then(|v| v.as_f64()) {
            out.acceptance.insert(row_key(row), ratio);
        }
        if let Some(accepted) = row
            .get("accepted_under_convergence")
            .and_then(|v| v.as_f64())
        {
            out.convergence.insert(row_key(row), accepted);
        }
        if let Some(ns) = row.get("rebuild_ns").and_then(|v| v.as_f64()) {
            out.rebuild.insert(row_key(row), ns);
        }
        if let Some(bytes) = row.get("table_bytes").and_then(|v| v.as_f64()) {
            out.table_bytes.insert(row_key(row), bytes);
        }
    }
    if out.tables().iter().all(|table| table.is_empty()) {
        return Err(
            "no rows with an events_per_second, accepted_channels, allocs_per_frame, \
             admissions_per_second, acceptance_ratio, accepted_under_convergence, \
             rebuild_ns or table_bytes field"
                .into(),
        );
    }
    Ok(out)
}

/// Fixed fractional threshold for the churn admissions/s gate.  Unlike the
/// wire-level events/s gate this one is *not* tunable from the CLI: CI runs
/// the multiswitch comparison with the events/s gate effectively disabled
/// (the simulated wire rate is noisy on shared runners), and relaxing that
/// must never also relax the admission hot path.
const ADMISSIONS_THRESHOLD: f64 = 0.20;

/// The churn admission-rate gate: fail any `admissions_per_second` that
/// dropped beyond [`ADMISSIONS_THRESHOLD`] against its baseline row.
/// Returns `(table rows, regressions)`.
fn admission_rate_regressions(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
) -> (Vec<Vec<String>>, Vec<String>) {
    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    for (key, &now) in current {
        match baseline.get(key) {
            Some(&before) if before > 0.0 => {
                let change = now / before - 1.0;
                rows.push(vec![
                    key.clone(),
                    format!("{before:.0}"),
                    format!("{now:.0}"),
                    format!("{:+.1}%", change * 100.0),
                ]);
                if change < -ADMISSIONS_THRESHOLD {
                    regressions.push(format!(
                        "{key} admissions/s dropped {:.1}% (> {:.0}% fixed threshold)",
                        -change * 100.0,
                        ADMISSIONS_THRESHOLD * 100.0
                    ));
                }
            }
            _ => {
                rows.push(vec![
                    key.clone(),
                    "(new)".into(),
                    format!("{now:.0}"),
                    "-".into(),
                ]);
            }
        }
    }
    (rows, regressions)
}

/// The steady-state acceptance gate: the churn process is seeded, so the
/// ratio is exactly reproducible and *any* decrease fails (beyond a 1e-9
/// epsilon absorbing JSON round-trip formatting).  Returns `(table rows,
/// regressions)`.
fn acceptance_regressions(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
) -> (Vec<Vec<String>>, Vec<String>) {
    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    for (key, &now) in current {
        match baseline.get(key) {
            Some(&before) => {
                rows.push(vec![
                    key.clone(),
                    format!("{before:.4}"),
                    format!("{now:.4}"),
                    format!("{:+.4}", now - before),
                ]);
                if now < before - 1e-9 {
                    regressions.push(format!(
                        "{key} acceptance ratio dropped {before:.4} -> {now:.4}"
                    ));
                }
            }
            None => {
                rows.push(vec![
                    key.clone(),
                    "(new)".into(),
                    format!("{now:.4}"),
                    "-".into(),
                ]);
            }
        }
    }
    (rows, regressions)
}

/// The convergence-admission gate: `accepted_under_convergence` counts the
/// channels admitted while a link-state flood was still propagating (the
/// multiswitch part-5b run).  The run is seeded, so the count is exactly
/// reproducible and *any* decrease fails.  Returns `(table rows,
/// regressions)`.
fn convergence_regressions(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
) -> (Vec<Vec<String>>, Vec<String>) {
    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    for (key, &now) in current {
        match baseline.get(key) {
            Some(&before) => {
                rows.push(vec![
                    key.clone(),
                    format!("{before:.0}"),
                    format!("{now:.0}"),
                    format!("{:+.0}", now - before),
                ]);
                if now < before {
                    regressions.push(format!(
                        "{key} accepted-under-convergence dropped {before:.0} -> {now:.0}"
                    ));
                }
            }
            None => {
                rows.push(vec![
                    key.clone(),
                    "(new)".into(),
                    format!("{now:.0}"),
                    "-".into(),
                ]);
            }
        }
    }
    (rows, regressions)
}

/// The inverted allocation-pressure gate: fail any `allocs_per_frame` that
/// *rose* beyond the fractional threshold against its baseline row.
/// Returns `(table rows, regressions)`.
fn alloc_regressions(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    threshold: f64,
) -> (Vec<Vec<String>>, Vec<String>) {
    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    for (key, &now) in current {
        match baseline.get(key) {
            Some(&before) if before > 0.0 => {
                let change = now / before - 1.0;
                rows.push(vec![
                    key.clone(),
                    format!("{before:.2}"),
                    format!("{now:.2}"),
                    format!("{:+.1}%", change * 100.0),
                ]);
                if change > threshold {
                    regressions.push(format!(
                        "{key} allocs/frame rose {:.1}% (> {:.0}% threshold)",
                        change * 100.0,
                        threshold * 100.0
                    ));
                }
            }
            _ => {
                rows.push(vec![
                    key.clone(),
                    "(new)".into(),
                    format!("{now:.2}"),
                    "-".into(),
                ]);
            }
        }
    }
    (rows, regressions)
}

/// Fixed fractional threshold for the routing rebuild-latency gate.
/// Deliberately generous: the absolute numbers are micro/milliseconds on a
/// shared runner, so only an order-of-change regression — the incremental
/// path silently falling back to a from-scratch sweep — should trip it.
/// Not CLI-tunable for the same reason as the admissions gate: relaxing
/// the wire-level throughput gate must never relax the rebuild path.
const REBUILD_THRESHOLD: f64 = 0.50;

/// Fixed fractional threshold for the resident-routing-bytes gate.  The
/// byte counts are deterministic (same fabric, same layout, run over run),
/// so the margin only absorbs intentional small bookkeeping changes; a
/// structural row regressing past it means the table-free mode started
/// materialising the O(V²) table it exists to avoid.
const TABLE_BYTES_THRESHOLD: f64 = 0.10;

/// The inverted routing rebuild-latency gate: fail any `rebuild_ns` that
/// *rose* beyond [`REBUILD_THRESHOLD`] against its baseline row.  Returns
/// `(table rows, regressions)`.
fn rebuild_regressions(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
) -> (Vec<Vec<String>>, Vec<String>) {
    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    for (key, &now) in current {
        match baseline.get(key) {
            Some(&before) if before > 0.0 => {
                let change = now / before - 1.0;
                rows.push(vec![
                    key.clone(),
                    format!("{:.3}", before / 1e6),
                    format!("{:.3}", now / 1e6),
                    format!("{:+.1}%", change * 100.0),
                ]);
                if change > REBUILD_THRESHOLD {
                    regressions.push(format!(
                        "{key} rebuild latency rose {:.1}% (> {:.0}% fixed threshold)",
                        change * 100.0,
                        REBUILD_THRESHOLD * 100.0
                    ));
                }
            }
            _ => {
                rows.push(vec![
                    key.clone(),
                    "(new)".into(),
                    format!("{:.3}", now / 1e6),
                    "-".into(),
                ]);
            }
        }
    }
    (rows, regressions)
}

/// The inverted resident-routing-bytes gate: fail any `table_bytes` that
/// *rose* beyond [`TABLE_BYTES_THRESHOLD`] against its baseline row.
/// Returns `(table rows, regressions)`.
fn table_bytes_regressions(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
) -> (Vec<Vec<String>>, Vec<String>) {
    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    for (key, &now) in current {
        match baseline.get(key) {
            Some(&before) if before > 0.0 => {
                let change = now / before - 1.0;
                rows.push(vec![
                    key.clone(),
                    format!("{before:.0}"),
                    format!("{now:.0}"),
                    format!("{:+.1}%", change * 100.0),
                ]);
                if change > TABLE_BYTES_THRESHOLD {
                    regressions.push(format!(
                        "{key} resident routing bytes rose {:.1}% (> {:.0}% fixed threshold)",
                        change * 100.0,
                        TABLE_BYTES_THRESHOLD * 100.0
                    ));
                }
            }
            _ => {
                rows.push(vec![
                    key.clone(),
                    "(new)".into(),
                    format!("{now:.0}"),
                    "-".into(),
                ]);
            }
        }
    }
    (rows, regressions)
}

fn load(path: &str) -> Result<Metrics, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    metrics(&parse_json(&text).map_err(|e| format!("parse {path}: {e}"))?)
}

/// In-artifact parity check: every row that reports both a central and a
/// distributed accepted-channel count must agree (and must not carry an
/// explicit `identical_channel_set: false`).  Returns the violations.
fn parity_violations(doc: &JsonValue) -> Vec<String> {
    let mut violations = Vec::new();
    for row in rows_of(doc) {
        let central = row
            .get("accepted_channels_central")
            .and_then(|v| v.as_f64());
        let distributed = row
            .get("accepted_channels_distributed")
            .and_then(|v| v.as_f64());
        if let (Some(c), Some(d)) = (central, distributed) {
            if c != d {
                violations.push(format!(
                    "{}: distributed accepted {d:.0} != central accepted {c:.0}",
                    row_key(row)
                ));
            }
        }
        if let Some(JsonValue::Bool(false)) = row.get("identical_channel_set") {
            violations.push(format!(
                "{}: accepted counts match but the channel sets differ",
                row_key(row)
            ));
        }
    }
    violations
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(baseline_path), Some(current_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: bench_diff <baseline.json> <current.json> [threshold]");
        return ExitCode::from(2);
    };
    let threshold: f64 = args
        .get(2)
        .map(|t| t.parse().expect("threshold must be a number"))
        .unwrap_or(0.20);

    // Central-vs-distributed parity: checked within the current artifact —
    // deterministic, so no baseline is involved and it gates even the
    // first run of a trajectory.
    let parity_regressions = match std::fs::read_to_string(current_path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_json(&text).map_err(|e| e.to_string()))
    {
        Ok(doc) => parity_violations(&doc),
        Err(e) => {
            eprintln!("error: unusable current artifact ({e})");
            return ExitCode::FAILURE;
        }
    };

    if !std::path::Path::new(baseline_path).exists() {
        println!(
            "no baseline at {baseline_path}: nothing to compare (first run of the trajectory)"
        );
        if parity_regressions.is_empty() {
            return ExitCode::SUCCESS;
        }
        for regression in &parity_regressions {
            eprintln!("REGRESSION: {regression}");
        }
        return ExitCode::FAILURE;
    }
    let baseline = match load(baseline_path) {
        Ok(b) => b,
        Err(e) => {
            // A corrupt baseline must not wedge the pipeline forever
            // (parity, being baseline-free, still gates).
            eprintln!("warning: unusable baseline ({e}); skipping comparison");
            if parity_regressions.is_empty() {
                return ExitCode::SUCCESS;
            }
            for regression in &parity_regressions {
                eprintln!("REGRESSION: {regression}");
            }
            return ExitCode::FAILURE;
        }
    };
    let current = match load(current_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: unusable current artifact ({e})");
            return ExitCode::FAILURE;
        }
    };

    let mut regressions = parity_regressions;

    // Throughput: fail beyond the fractional threshold.
    let mut table = Table::new(&["benchmark", "baseline ev/s", "current ev/s", "change"]);
    let (rows, failures) =
        throughput_regressions(&baseline.throughput, &current.throughput, threshold);
    for row in rows {
        table.row_strings(row);
    }
    table.print();
    regressions.extend(failures);

    // Sharded throughput: the best `+shards{N}` row carries the parallel
    // simulator's headline number; gated at a fixed 20 % independent of
    // the CLI threshold (per-row noise at one shard count must not hide a
    // regression of the winner, and a relaxed single-thread gate must not
    // relax the parallel path).
    regressions.extend(sharded_regressions(
        &baseline.throughput,
        &current.throughput,
    ));

    // Allocation pressure: inverted gate, an increase beyond the threshold
    // fails.
    if !current.allocs.is_empty() || !baseline.allocs.is_empty() {
        let mut table = Table::new(&[
            "measurement",
            "baseline allocs/frame",
            "current allocs/frame",
            "change",
        ]);
        let (rows, alloc_failures) =
            alloc_regressions(&baseline.allocs, &current.allocs, threshold);
        for row in rows {
            table.row_strings(row);
        }
        table.print();
        regressions.extend(alloc_failures);
    }

    // Churn admission rate: fixed 20 % gate, independent of the CLI
    // threshold.
    if !current.admissions.is_empty() || !baseline.admissions.is_empty() {
        let mut table = Table::new(&[
            "churn run",
            "baseline admissions/s",
            "current admissions/s",
            "change",
        ]);
        let (rows, failures) =
            admission_rate_regressions(&baseline.admissions, &current.admissions);
        for row in rows {
            table.row_strings(row);
        }
        table.print();
        regressions.extend(failures);
    }

    // Steady-state acceptance: deterministic ratios, any decrease fails.
    if !current.acceptance.is_empty() || !baseline.acceptance.is_empty() {
        let mut table = Table::new(&[
            "churn run",
            "baseline acceptance",
            "current acceptance",
            "change",
        ]);
        let (rows, failures) = acceptance_regressions(&baseline.acceptance, &current.acceptance);
        for row in rows {
            table.row_strings(row);
        }
        table.print();
        regressions.extend(failures);
    }

    // Convergence admission: deterministic counts, any decrease fails.
    if !current.convergence.is_empty() || !baseline.convergence.is_empty() {
        let mut table = Table::new(&[
            "stale-view run",
            "baseline accepted",
            "current accepted",
            "change",
        ]);
        let (rows, failures) = convergence_regressions(&baseline.convergence, &current.convergence);
        for row in rows {
            table.row_strings(row);
        }
        table.print();
        regressions.extend(failures);
    }

    // Routing rebuild-after-cut latency: inverted gate at a fixed generous
    // threshold.
    if !current.rebuild.is_empty() || !baseline.rebuild.is_empty() {
        let mut table = Table::new(&[
            "routing mode",
            "baseline rebuild ms",
            "current rebuild ms",
            "change",
        ]);
        let (rows, failures) = rebuild_regressions(&baseline.rebuild, &current.rebuild);
        for row in rows {
            table.row_strings(row);
        }
        table.print();
        regressions.extend(failures);
    }

    // Resident routing bytes: inverted gate; the counts are deterministic,
    // so the margin only absorbs intentional bookkeeping changes.
    if !current.table_bytes.is_empty() || !baseline.table_bytes.is_empty() {
        let mut table = Table::new(&["routing mode", "baseline bytes", "current bytes", "change"]);
        let (rows, failures) = table_bytes_regressions(&baseline.table_bytes, &current.table_bytes);
        for row in rows {
            table.row_strings(row);
        }
        table.print();
        regressions.extend(failures);
    }

    // Admission quality: deterministic counts, any decrease fails.
    if !current.accepted.is_empty() || !baseline.accepted.is_empty() {
        let mut table = Table::new(&[
            "scenario",
            "baseline accepted",
            "current accepted",
            "change",
        ]);
        for (key, &now) in &current.accepted {
            match baseline.accepted.get(key) {
                Some(&before) => {
                    table.row_strings(vec![
                        key.clone(),
                        format!("{before:.0}"),
                        format!("{now:.0}"),
                        format!("{:+.0}", now - before),
                    ]);
                    if now < before {
                        regressions.push(format!(
                            "{key} accepted channels dropped {before:.0} -> {now:.0}"
                        ));
                    }
                }
                None => {
                    table.row_strings(vec![
                        key.clone(),
                        "(new)".into(),
                        format!("{now:.0}"),
                        "-".into(),
                    ]);
                }
            }
        }
        table.print();
    }

    for key in removed_rows(&baseline, &current) {
        println!("note: baseline row '{key}' has no current counterpart");
    }

    if regressions.is_empty() {
        println!(
            "\nno throughput or allocs/frame regression beyond {:.0}%, no admissions/s regression \
             beyond the fixed {:.0}%, and no accepted-channel or acceptance-ratio regression \
             against {baseline_path}",
            threshold * 100.0,
            ADMISSIONS_THRESHOLD * 100.0
        );
        ExitCode::SUCCESS
    } else {
        for regression in &regressions {
            eprintln!("REGRESSION: {regression}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rows: &[(&str, &str, f64)]) -> JsonValue {
        JsonValue::Array(
            rows.iter()
                .map(|(fabric, scheduler, eps)| {
                    let mut m = BTreeMap::new();
                    m.insert("fabric".into(), JsonValue::String(fabric.to_string()));
                    m.insert("scheduler".into(), JsonValue::String(scheduler.to_string()));
                    m.insert("events_per_second".into(), JsonValue::Number(*eps));
                    JsonValue::Object(m)
                })
                .collect(),
        )
    }

    fn admission_doc(rows: &[(&str, f64)]) -> JsonValue {
        let rows: Vec<JsonValue> = rows
            .iter()
            .map(|(fabric, accepted)| {
                let mut m = BTreeMap::new();
                m.insert("fabric".into(), JsonValue::String(fabric.to_string()));
                m.insert("accepted_channels".into(), JsonValue::Number(*accepted));
                JsonValue::Object(m)
            })
            .collect();
        let mut top = BTreeMap::new();
        top.insert("admission_quality".into(), JsonValue::Array(rows));
        JsonValue::Object(top)
    }

    fn parity_doc(central: f64, distributed: f64, identical: bool) -> JsonValue {
        let mut m = BTreeMap::new();
        m.insert(
            "fabric".into(),
            JsonValue::String("torus_1024_parity".into()),
        );
        m.insert(
            "accepted_channels_central".into(),
            JsonValue::Number(central),
        );
        m.insert(
            "accepted_channels_distributed".into(),
            JsonValue::Number(distributed),
        );
        m.insert("identical_channel_set".into(), JsonValue::Bool(identical));
        let mut top = BTreeMap::new();
        top.insert(
            "distributed_parity".into(),
            JsonValue::Array(vec![JsonValue::Object(m)]),
        );
        JsonValue::Object(top)
    }

    #[test]
    fn parity_passes_when_counts_and_sets_match() {
        assert!(parity_violations(&parity_doc(40.0, 40.0, true)).is_empty());
        // Rows without parity fields are ignored.
        assert!(parity_violations(&admission_doc(&[("ring", 24.0)])).is_empty());
    }

    #[test]
    fn parity_fails_on_count_mismatch_or_divergent_sets() {
        let v = parity_violations(&parity_doc(40.0, 38.0, true));
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("38 != central accepted 40"), "{v:?}");
        // Equal counts but different channel sets is still a failure.
        let v = parity_violations(&parity_doc(40.0, 40.0, false));
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("channel sets differ"), "{v:?}");
    }

    fn alloc_doc(rows: &[(&str, f64)]) -> JsonValue {
        JsonValue::Array(
            rows.iter()
                .map(|(name, apf)| {
                    let mut m = BTreeMap::new();
                    m.insert("name".into(), JsonValue::String(name.to_string()));
                    m.insert("allocs_per_frame".into(), JsonValue::Number(*apf));
                    JsonValue::Object(m)
                })
                .collect(),
        )
    }

    #[test]
    fn allocs_per_frame_rows_are_collected() {
        let m = metrics(&alloc_doc(&[("torus_hot_path", 1.1), ("torus+owned", 1.4)])).unwrap();
        assert_eq!(m.allocs.len(), 2);
        assert_eq!(m.allocs["torus_hot_path"], 1.1);
        assert!(m.throughput.is_empty() && m.accepted.is_empty());
    }

    #[test]
    fn alloc_gate_is_inverted() {
        let base = metrics(&alloc_doc(&[("torus", 1.0)])).unwrap().allocs;
        // A decrease (improvement) passes, however large.
        let better = metrics(&alloc_doc(&[("torus", 0.2)])).unwrap().allocs;
        assert!(alloc_regressions(&base, &better, 0.2).1.is_empty());
        // An increase within the threshold passes.
        let close = metrics(&alloc_doc(&[("torus", 1.15)])).unwrap().allocs;
        assert!(alloc_regressions(&base, &close, 0.2).1.is_empty());
        // An increase beyond the threshold fails.
        let worse = metrics(&alloc_doc(&[("torus", 1.3)])).unwrap().allocs;
        let (rows, failures) = alloc_regressions(&base, &worse, 0.2);
        assert_eq!(rows.len(), 1);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("rose 30.0%"), "{failures:?}");
        // New rows (no baseline) only report, never fail.
        let fresh = metrics(&alloc_doc(&[("ring", 9.0)])).unwrap().allocs;
        let (rows, failures) = alloc_regressions(&base, &fresh, 0.2);
        assert_eq!(rows[0][1], "(new)");
        assert!(failures.is_empty());
    }

    fn churn_doc(rows: &[(&str, &str, f64, f64)]) -> JsonValue {
        let rows: Vec<JsonValue> = rows
            .iter()
            .map(|(fabric, placement, aps, ratio)| {
                let mut m = BTreeMap::new();
                m.insert("fabric".into(), JsonValue::String(fabric.to_string()));
                m.insert("placement".into(), JsonValue::String(placement.to_string()));
                m.insert("admissions_per_second".into(), JsonValue::Number(*aps));
                m.insert("acceptance_ratio".into(), JsonValue::Number(*ratio));
                JsonValue::Object(m)
            })
            .collect();
        let mut top = BTreeMap::new();
        top.insert("churn_soak".into(), JsonValue::Array(rows));
        JsonValue::Object(top)
    }

    #[test]
    fn churn_rows_key_on_fabric_and_placement() {
        let m = metrics(&churn_doc(&[
            ("fat_tree_16", "central", 17_000.0, 0.55),
            ("fat_tree_16", "distributed", 4_000.0, 0.55),
        ]))
        .unwrap();
        // Central and distributed rows of the same fabric must not collide.
        assert_eq!(m.admissions.len(), 2);
        assert_eq!(m.admissions["fat_tree_16/central"], 17_000.0);
        assert_eq!(m.admissions["fat_tree_16/distributed"], 4_000.0);
        assert_eq!(m.acceptance["fat_tree_16/central"], 0.55);
    }

    #[test]
    fn admission_rate_gate_uses_the_fixed_threshold() {
        let base = metrics(&churn_doc(&[("fat_tree_16", "central", 10_000.0, 0.5)]))
            .unwrap()
            .admissions;
        // A drop within 20 % passes.
        let close = metrics(&churn_doc(&[("fat_tree_16", "central", 8_500.0, 0.5)]))
            .unwrap()
            .admissions;
        assert!(admission_rate_regressions(&base, &close).1.is_empty());
        // A drop beyond 20 % fails.
        let worse = metrics(&churn_doc(&[("fat_tree_16", "central", 7_000.0, 0.5)]))
            .unwrap()
            .admissions;
        let (rows, failures) = admission_rate_regressions(&base, &worse);
        assert_eq!(rows.len(), 1);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("dropped 30.0%"), "{failures:?}");
        // An improvement passes, and new rows only report.
        let better = metrics(&churn_doc(&[
            ("fat_tree_16", "central", 14_000.0, 0.5),
            ("torus_4d", "central", 9_000.0, 0.7),
        ]))
        .unwrap()
        .admissions;
        let (rows, failures) = admission_rate_regressions(&base, &better);
        assert_eq!(rows.len(), 2);
        assert!(failures.is_empty());
    }

    #[test]
    fn any_acceptance_ratio_decrease_fails() {
        let base = metrics(&churn_doc(&[("torus_4d", "central", 9_000.0, 0.7550)]))
            .unwrap()
            .acceptance;
        // Equal ratio passes (the process is seeded, equal is the norm).
        let same = base.clone();
        assert!(acceptance_regressions(&base, &same).1.is_empty());
        // An increase passes.
        let better = metrics(&churn_doc(&[("torus_4d", "central", 9_000.0, 0.7600)]))
            .unwrap()
            .acceptance;
        assert!(acceptance_regressions(&base, &better).1.is_empty());
        // Any decrease fails, even a tiny one.
        let worse = metrics(&churn_doc(&[("torus_4d", "central", 9_000.0, 0.7549)]))
            .unwrap()
            .acceptance;
        let (_, failures) = acceptance_regressions(&base, &worse);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("0.7550 -> 0.7549"), "{failures:?}");
    }

    fn convergence_doc(rows: &[(&str, f64)]) -> JsonValue {
        let rows: Vec<JsonValue> = rows
            .iter()
            .map(|(fabric, accepted)| {
                let mut m = BTreeMap::new();
                m.insert("fabric".into(), JsonValue::String(fabric.to_string()));
                m.insert(
                    "accepted_under_convergence".into(),
                    JsonValue::Number(*accepted),
                );
                JsonValue::Object(m)
            })
            .collect();
        let mut top = BTreeMap::new();
        top.insert("convergence_admission".into(), JsonValue::Array(rows));
        JsonValue::Object(top)
    }

    #[test]
    fn any_convergence_admission_decrease_fails() {
        let base = metrics(&convergence_doc(&[("torus_1024_convergence", 12.0)]))
            .unwrap()
            .convergence;
        assert_eq!(base["torus_1024_convergence"], 12.0);
        // Equal passes (the run is seeded, equal is the norm).
        assert!(convergence_regressions(&base, &base.clone()).1.is_empty());
        // An increase passes.
        let better = metrics(&convergence_doc(&[("torus_1024_convergence", 14.0)]))
            .unwrap()
            .convergence;
        assert!(convergence_regressions(&base, &better).1.is_empty());
        // Any decrease fails, even by one channel.
        let worse = metrics(&convergence_doc(&[("torus_1024_convergence", 11.0)]))
            .unwrap()
            .convergence;
        let (rows, failures) = convergence_regressions(&base, &worse);
        assert_eq!(rows.len(), 1);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("dropped 12 -> 11"), "{failures:?}");
        // New rows (no baseline) only report, never fail.
        let fresh = metrics(&convergence_doc(&[("ring_convergence", 5.0)]))
            .unwrap()
            .convergence;
        let (rows, failures) = convergence_regressions(&base, &fresh);
        assert_eq!(rows[0][1], "(new)");
        assert!(failures.is_empty());
    }

    fn routing_doc(rows: &[(&str, &str, f64, f64)]) -> JsonValue {
        JsonValue::Array(
            rows.iter()
                .map(|(fabric, mode, rebuild_ns, table_bytes)| {
                    let mut m = BTreeMap::new();
                    m.insert("fabric".into(), JsonValue::String(fabric.to_string()));
                    m.insert("mode".into(), JsonValue::String(mode.to_string()));
                    m.insert("rebuild_ns".into(), JsonValue::Number(*rebuild_ns));
                    m.insert("table_bytes".into(), JsonValue::Number(*table_bytes));
                    JsonValue::Object(m)
                })
                .collect(),
        )
    }

    #[test]
    fn routing_rows_key_on_fabric_and_mode() {
        let m = metrics(&routing_doc(&[
            ("fat_tree_32", "full", 80e6, 6.5e6),
            ("fat_tree_32", "incremental", 0.9e6, 6.5e6),
            ("fat_tree_32", "structural", 1.1e6, 11e3),
        ]))
        .unwrap();
        // The three modes of one fabric must not collide.
        assert_eq!(m.rebuild.len(), 3);
        assert_eq!(m.rebuild["fat_tree_32/full"], 80e6);
        assert_eq!(m.rebuild["fat_tree_32/incremental"], 0.9e6);
        assert_eq!(m.table_bytes["fat_tree_32/structural"], 11e3);
        assert!(m.throughput.is_empty() && m.allocs.is_empty());
    }

    #[test]
    fn rebuild_gate_is_inverted_at_the_fixed_threshold() {
        let base = metrics(&routing_doc(&[(
            "fat_tree_32",
            "incremental",
            1.0e6,
            6.5e6,
        )]))
        .unwrap()
        .rebuild;
        // A speed-up passes, however large, as does noise within 50 %.
        let better = metrics(&routing_doc(&[(
            "fat_tree_32",
            "incremental",
            0.2e6,
            6.5e6,
        )]))
        .unwrap()
        .rebuild;
        assert!(rebuild_regressions(&base, &better).1.is_empty());
        let close = metrics(&routing_doc(&[(
            "fat_tree_32",
            "incremental",
            1.4e6,
            6.5e6,
        )]))
        .unwrap()
        .rebuild;
        assert!(rebuild_regressions(&base, &close).1.is_empty());
        // A rise beyond 50 % — the incremental path degenerating — fails.
        let worse = metrics(&routing_doc(&[(
            "fat_tree_32",
            "incremental",
            1.8e6,
            6.5e6,
        )]))
        .unwrap()
        .rebuild;
        let (rows, failures) = rebuild_regressions(&base, &worse);
        assert_eq!(rows.len(), 1);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("rose 80.0%"), "{failures:?}");
        // New rows (no baseline) only report, never fail.
        let fresh = metrics(&routing_doc(&[("torus_4d", "incremental", 2.0e6, 1e6)]))
            .unwrap()
            .rebuild;
        let (rows, failures) = rebuild_regressions(&base, &fresh);
        assert_eq!(rows[0][1], "(new)");
        assert!(failures.is_empty());
    }

    #[test]
    fn table_bytes_gate_catches_a_rematerialised_table() {
        let base = metrics(&routing_doc(&[(
            "fat_tree_32",
            "structural",
            1.0e6,
            11_000.0,
        )]))
        .unwrap()
        .table_bytes;
        // Equal (the deterministic norm) and small bookkeeping drift pass.
        assert!(table_bytes_regressions(&base, &base.clone()).1.is_empty());
        let drift = metrics(&routing_doc(&[(
            "fat_tree_32",
            "structural",
            1.0e6,
            11_500.0,
        )]))
        .unwrap()
        .table_bytes;
        assert!(table_bytes_regressions(&base, &drift).1.is_empty());
        // The structural mode growing a table back fails loudly.
        let blown = metrics(&routing_doc(&[("fat_tree_32", "structural", 1.0e6, 6.5e6)]))
            .unwrap()
            .table_bytes;
        let (rows, failures) = table_bytes_regressions(&base, &blown);
        assert_eq!(rows.len(), 1);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("resident routing bytes rose"),
            "{failures:?}"
        );
    }

    #[test]
    fn shard_counts_parse_from_the_fabric_suffix() {
        assert_eq!(shard_count_of("torus_8x8_1024+shards4/calendar"), Some(4));
        assert_eq!(shard_count_of("torus_8x8_1024+shards16/calendar"), Some(16));
        // Bare fabric (no scheduler qualifier) parses too.
        assert_eq!(shard_count_of("torus_8x8_1024+shards2"), Some(2));
        // Single-thread rows — bare, store-suffixed, schedulers — do not.
        assert_eq!(shard_count_of("torus_8x8_1024/calendar"), None);
        assert_eq!(shard_count_of("torus_8x8_1024+owned/heap"), None);
        assert_eq!(shard_count_of("star/heap"), None);
        // A malformed suffix is not a sharded row.
        assert_eq!(shard_count_of("torus+shards/calendar"), None);
        assert_eq!(shard_count_of("torus+shardsx4/calendar"), None);
    }

    #[test]
    fn the_best_sharded_row_wins_regardless_of_shard_count() {
        let m = metrics(&doc(&[
            ("torus_8x8_1024", "calendar", 9e6),
            ("torus_8x8_1024+shards2", "calendar", 12e6),
            ("torus_8x8_1024+shards8", "calendar", 11e6),
            ("torus_8x8_1024+shards4", "calendar", 21e6),
        ]))
        .unwrap();
        let (key, eps) = best_sharded(&m.throughput).expect("sharded rows exist");
        assert_eq!(key, "torus_8x8_1024+shards4/calendar");
        assert_eq!(eps, 21e6);
        // No sharded rows -> no winner, and the gate stays silent.
        let single = metrics(&doc(&[("star", "heap", 1e6)])).unwrap();
        assert!(best_sharded(&single.throughput).is_none());
        assert!(sharded_regressions(&m.throughput, &single.throughput).is_empty());
        assert!(sharded_regressions(&single.throughput, &m.throughput).is_empty());
    }

    #[test]
    fn the_sharded_gate_compares_winners_at_the_fixed_threshold() {
        let base = metrics(&doc(&[
            ("torus_8x8_1024+shards4", "calendar", 20e6),
            ("torus_8x8_1024+shards8", "calendar", 18e6),
        ]))
        .unwrap()
        .throughput;
        // A drop within 20 % of the winner passes...
        let close = metrics(&doc(&[("torus_8x8_1024+shards4", "calendar", 17e6)]))
            .unwrap()
            .throughput;
        assert!(sharded_regressions(&base, &close).is_empty());
        // ...as does the winner moving to a different shard count.
        let moved = metrics(&doc(&[
            ("torus_8x8_1024+shards4", "calendar", 10e6),
            ("torus_8x8_1024+shards8", "calendar", 19e6),
        ]))
        .unwrap()
        .throughput;
        assert!(sharded_regressions(&base, &moved).is_empty());
        // A drop of the winner beyond 20 % fails.
        let worse = metrics(&doc(&[
            ("torus_8x8_1024+shards4", "calendar", 15e6),
            ("torus_8x8_1024+shards8", "calendar", 14e6),
        ]))
        .unwrap()
        .throughput;
        let failures = sharded_regressions(&base, &worse);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("dropped 25.0%"), "{failures:?}");
    }

    #[test]
    fn keys_combine_fabric_and_scheduler() {
        let m = metrics(&doc(&[("star", "heap", 1e6), ("star", "calendar", 2e6)])).unwrap();
        assert_eq!(m.throughput.len(), 2);
        assert_eq!(m.throughput["star/heap"], 1e6);
        assert_eq!(m.throughput["star/calendar"], 2e6);
        assert!(m.accepted.is_empty());
    }

    /// The module doc's "removed rows only warn": the fabric bench dropping
    /// its heap and owned-store rows leaves the surviving row gated as
    /// before and the lost ones listed, not failed.
    #[test]
    fn removed_rows_only_warn() {
        let baseline = metrics(&doc(&[
            ("star", "heap", 1e6),
            ("star", "calendar", 2e6),
            ("star+owned", "calendar", 2.1e6),
        ]))
        .unwrap();
        let current = metrics(&doc(&[("star", "calendar", 1.9e6)])).unwrap();
        let (rows, failures) =
            throughput_regressions(&baseline.throughput, &current.throughput, 0.2);
        assert_eq!(rows.len(), 1, "only the surviving row is compared");
        assert!(failures.is_empty(), "{failures:?}");
        assert!(sharded_regressions(&baseline.throughput, &current.throughput).is_empty());
        assert_eq!(
            removed_rows(&baseline, &current),
            ["star+owned/calendar", "star/heap"]
        );
        // The surviving row is still gated.
        let slower = metrics(&doc(&[("star", "calendar", 1e6)])).unwrap();
        let (_, failures) = throughput_regressions(&baseline.throughput, &slower.throughput, 0.2);
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn rows_without_gated_metrics_are_skipped() {
        let mut m = BTreeMap::new();
        m.insert("name".into(), JsonValue::String("x".into()));
        let only_named = JsonValue::Array(vec![JsonValue::Object(m)]);
        assert!(metrics(&only_named).is_err());
        assert!(metrics(&JsonValue::Array(vec![])).is_err());
        assert!(metrics(&JsonValue::Null).is_err());
    }

    #[test]
    fn object_docs_flatten_their_arrays() {
        let m = metrics(&admission_doc(&[
            ("ring_shortest_path", 24.0),
            ("torus_1024_failover", 40.0),
        ]))
        .unwrap();
        assert!(m.throughput.is_empty());
        assert_eq!(m.accepted.len(), 2);
        assert_eq!(m.accepted["ring_shortest_path"], 24.0);
        assert_eq!(m.accepted["torus_1024_failover"], 40.0);
    }

    #[test]
    fn mixed_docs_carry_both_metric_tables() {
        // One object holding a throughput array beside an admission array.
        let mut top = BTreeMap::new();
        let JsonValue::Array(fabric) = doc(&[("torus_8x8_1024", "calendar", 3e6)]) else {
            unreachable!()
        };
        top.insert("fabric".into(), JsonValue::Array(fabric));
        let JsonValue::Object(adm) = admission_doc(&[("dumbbell_asymmetric", 60.0)]) else {
            unreachable!()
        };
        top.extend(adm);
        let m = metrics(&JsonValue::Object(top)).unwrap();
        assert_eq!(m.throughput["torus_8x8_1024/calendar"], 3e6);
        assert_eq!(m.accepted["dumbbell_asymmetric"], 60.0);
    }
}
