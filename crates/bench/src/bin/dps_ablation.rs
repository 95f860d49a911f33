//! Ablation A: deadline-partitioning schemes beyond the paper's comparison.
//!
//! Compares SDPS, ADPS, utilisation-weighted ADPS and the feasibility-guided
//! search DPS across several request patterns (master→slave round-robin and
//! random, slave→master, uniform, hotspot) and across homogeneous
//! (paper parameters) vs heterogeneous channel specs.
//!
//! Usage: `cargo run -p rt-bench --bin dps_ablation`

use rt_bench::experiments::run_admission;
use rt_bench::report::Table;
use rt_core::{DpsKind, RtChannelSpec};
use rt_traffic::{HeterogeneousSpecs, RequestPattern, Scenario};

fn main() {
    let scenario = Scenario::paper_master_slave();
    let nodes = scenario.nodes();
    let requested = 200u64;

    let patterns: Vec<(&str, RequestPattern)> = vec![
        ("master->slave RR", RequestPattern::MasterSlaveRoundRobin),
        (
            "master->slave rand",
            RequestPattern::MasterSlaveRandom { seed: 7 },
        ),
        ("slave->master RR", RequestPattern::SlaveToMasterRoundRobin),
        ("uniform", RequestPattern::Uniform { seed: 7 }),
        ("hotspot", RequestPattern::Hotspot),
    ];

    println!("Ablation A — accepted channels out of {requested} requested, per DPS and request pattern\n");
    let mut table = Table::new(&[
        "pattern",
        "specs",
        "SDPS",
        "ADPS",
        "ADPS-util",
        "Search-DPS",
    ]);

    for (pattern_name, pattern) in &patterns {
        for specs_kind in ["paper", "heterogeneous"] {
            let requests = match specs_kind {
                "paper" => pattern.generate(&scenario, requested, RtChannelSpec::paper_default()),
                _ => {
                    let mut gen = HeterogeneousSpecs::new(42);
                    pattern.generate_with(&scenario, requested, |_| gen.next_spec())
                }
            };
            let mut accepted = Vec::new();
            for dps in DpsKind::ALL {
                let result = run_admission(&nodes, &requests, dps, false);
                accepted.push(result.accepted);
            }
            table.row_strings(vec![
                pattern_name.to_string(),
                specs_kind.to_string(),
                accepted[0].to_string(),
                accepted[1].to_string(),
                accepted[2].to_string(),
                accepted[3].to_string(),
            ]);
        }
    }
    table.print();
    println!();
    println!("Reading guide: ADPS >= SDPS whenever load is asymmetric (master/slave, hotspot);");
    println!("the utilisation-weighted variant matters when channel specs are heterogeneous;");
    println!("Search-DPS is the per-request upper bound any partitioning scheme can reach.");
}
