//! Ablation B: the exact two-constraint feasibility test vs the
//! utilisation-only (Liu & Layland) shortcut.
//!
//! With constrained deadlines (`d < P`, as in the paper's parameters) the
//! utilisation bound alone over-admits: it accepts channels whose frames
//! then miss deadlines.  The experiment quantifies both the over-admission
//! and its consequence (per-link deadline misses in a slot-accurate EDF
//! schedule), plus the admission-decision cost of the exact test.
//!
//! Usage: `cargo run -p rt-bench --bin feasibility_ablation [results.json]`

use std::time::Instant;

use rt_bench::experiments::{run_admission, run_admission_returning_controller};
use rt_bench::report::{json_object, maybe_write_json_from_args, Table, ToJson};
use rt_core::{DpsKind, RtChannelSpec};
use rt_edf::schedule::simulate_over_hyperperiod;
use rt_traffic::{RequestPattern, Scenario};
use rt_types::Slots;

#[derive(Debug)]
struct FeasibilityRow {
    test: String,
    requested: u64,
    accepted: u64,
    links_with_misses: u64,
    total_misses: u64,
    admission_time_us: u128,
}

impl ToJson for FeasibilityRow {
    fn to_json(&self) -> String {
        json_object(&[
            ("test", self.test.to_json()),
            ("requested", self.requested.to_json()),
            ("accepted", self.accepted.to_json()),
            ("links_with_misses", self.links_with_misses.to_json()),
            ("total_misses", self.total_misses.to_json()),
            ("admission_time_us", self.admission_time_us.to_json()),
        ])
    }
}

fn run_case(utilisation_only: bool, requested: u64) -> FeasibilityRow {
    let scenario = Scenario::paper_master_slave();
    let nodes = scenario.nodes();
    let spec = RtChannelSpec::paper_default();
    let requests = RequestPattern::MasterSlaveRoundRobin.generate(&scenario, requested, spec);

    let start = Instant::now();
    let result = run_admission(&nodes, &requests, DpsKind::Symmetric, utilisation_only);
    let elapsed = start.elapsed().as_micros();

    // Re-run keeping the controller so the per-link task sets can be
    // simulated slot-by-slot over their hyperperiod.
    let controller =
        run_admission_returning_controller(&nodes, &requests, DpsKind::Symmetric, utilisation_only);
    let mut links_with_misses = 0u64;
    let mut total_misses = 0u64;
    for (link, _load) in controller.loaded_links() {
        let set = controller.link_taskset(link);
        let outcome = simulate_over_hyperperiod(&set, Slots::new(100_000));
        if !outcome.is_miss_free() {
            links_with_misses += 1;
            total_misses += outcome.misses.len() as u64;
        }
    }

    FeasibilityRow {
        test: if utilisation_only {
            "utilisation-only".to_string()
        } else {
            "exact (h(t) <= t)".to_string()
        },
        requested,
        accepted: result.accepted,
        links_with_misses,
        total_misses,
        admission_time_us: elapsed,
    }
}

fn main() {
    println!("Ablation B — exact feasibility test vs utilisation-only admission");
    println!("(paper parameters C=3, P=100, D=40 => d << P, SDPS, master/slave)\n");

    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "admission test",
        "requested",
        "accepted",
        "links with misses",
        "total misses",
        "admission time (us)",
    ]);
    for requested in [60u64, 120, 200] {
        for utilisation_only in [false, true] {
            let row = run_case(utilisation_only, requested);
            table.row_strings(vec![
                row.test.clone(),
                row.requested.to_string(),
                row.accepted.to_string(),
                row.links_with_misses.to_string(),
                row.total_misses.to_string(),
                row.admission_time_us.to_string(),
            ]);
            rows.push(row);
        }
    }
    table.print();
    println!();
    println!("The exact test accepts fewer channels but every accepted set is schedulable;");
    println!("the utilisation-only test over-admits and the resulting per-link EDF schedules miss deadlines.");

    maybe_write_json_from_args(&rows);
}
