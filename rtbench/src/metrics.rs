//! The names the benchmark reports under: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics.  `BENCHMARK.json` at the root
//! of the repository repeats these tables; a unit test keeps the two equal.

use crate::stats::Better;

/// Why each workload exists, in one line.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "churn_central",
        "closed-loop churn on fat_tree(16), central manager: route lookup, deadline partition, per-link EDF test and ledger commit do the work; the operator's fast path",
    ),
    (
        "churn_distributed",
        "same fabric, seed and arrivals through the distributed manager: the two-phase reservation protocol and its codec dominate, the feasibility test is a small share",
    ),
    (
        "churn_faults",
        "central churn on a 4-D torus with a trunk cut or repaired every 100 arrivals: fail-over, re-admission and next-hop rebuilds; writes beside reads, cache keeps missing",
    ),
    (
        "wire_preload",
        "1M small frames injected up front on the 1024-node torus: a seven-figure pending-event set, per-hop forwarding and cold arena allocation; rt-core idle; unseeded",
    ),
    (
        "wire_rt",
        "full stack through RtNetwork: 600 establishments over the wire, periodic RT plus best-effort traffic, few pending events; pump and RtLayer decode dominate; checks the paper's bound; unseeded",
    ),
];

/// Which repeat stands for the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Headline {
    /// The least-disturbed repeat (maximum of a rate, minimum of a time).
    Best,
    /// The median repeat.
    Median,
}

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the reference value by which the metric may get worse
    /// before `compare` (and the driver) call it a regression.
    pub bound: f64,
    pub headline: Headline,
    /// Determined by the seed alone: at equal seeds any worsening is a
    /// change in behaviour, whatever the bound.
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        headline: Headline::Best,
        exact: false,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        headline: Headline::Best,
        exact: false,
    },
    EndToEnd {
        name: "accepted_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.10,
        headline: Headline::Best,
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        headline: Headline::Best,
        exact: false,
    },
    // Set-up is timed once per repeat and reported as the median, with the
    // widest bound: work moved out of the window must show here.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        headline: Headline::Median,
        exact: false,
    },
];

/// A metric of one layer, read off the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 54] = [
    lower("traffic.churn.pump_self_ns_per_attempt", "ns"),
    lower("traffic.churn.frames_per_attempt", "count"),
    lower("core.manager.request_ns_p50", "ns"),
    lower("core.manager.request_ns_p99", "ns"),
    lower("core.manager.response_ns_p50", "ns"),
    lower("core.manager.teardown_ns_p50", "ns"),
    lower("core.manager.busy_share", "ratio"),
    lower("core.manager.allocs_per_attempt", "count"),
    lower("core.manager.probe_ns_p50", "ns"),
    lower("core.manager.reserve_ns_p50", "ns"),
    lower("core.manager.confirm_ns_p50", "ns"),
    lower("core.manager.release_ns_p50", "ns"),
    lower("core.manager.tick_ns_per_attempt", "ns"),
    lower("core.manager.link_failure_ms_p50", "ms"),
    lower("core.manager.link_repair_ms_p50", "ms"),
    lower("core.manager.fault_share", "ratio"),
    lower("types.router.route_calls_per_attempt", "count"),
    lower("types.router.route_ns_p50", "ns"),
    lower("types.router.busy_share", "ratio"),
    lower("types.router.full_rebuilds", "count"),
    lower("types.router.incremental_rebuilds", "count"),
    higher("types.router.cache_hit_ratio", "ratio"),
    lower("types.router.rebuild_ms_p50", "ms"),
    lower("types.router.table_bytes", "B"),
    lower("edf.feasibility.test_ns_p50_load", "ns"),
    lower("edf.feasibility.test_ns_max_load", "ns"),
    lower("core.ledger.reserve_release_ns", "ns"),
    lower("core.dps.partition_ns", "ns"),
    lower("frames.codec.request_roundtrip_ns", "ns"),
    lower("frames.reservation.roundtrip_ns", "ns"),
    lower("frames.rt_data.build_ns", "ns"),
    lower("frames.rt_data.classify_ns", "ns"),
    lower("frames.arena.alloc_free_ns", "ns"),
    higher("frames.arena.reuse_ratio", "ratio"),
    lower("frames.arena.high_water", "count"),
    lower("netsim.sim.ns_per_event", "ns"),
    lower("netsim.sim.events_per_frame", "count"),
    lower("netsim.sim.inject_ns_per_frame", "ns"),
    lower("netsim.sim.poll_ns_per_frame", "ns"),
    lower("netsim.sim.allocs_per_frame", "count"),
    lower("netsim.event.push_pop_ns_1k", "ns"),
    lower("netsim.event.push_pop_ns_1m", "ns"),
    lower("netsim.port.rt_enqueue_dequeue_ns", "ns"),
    lower("netsim.sim.stream_ns_per_event", "ns"),
    lower("netsim.shard.ns_per_event_2", "ns"),
    lower("core.network.inject_ns_per_frame", "ns"),
    lower("core.network.run_ns_per_event", "ns"),
    lower("core.network.pump_overhead_ratio", "ratio"),
    lower("core.network.bytes_per_frame", "B"),
    lower("core.network.sim_establish_us_p50", "us"),
    lower("core.network.control_frames_per_establish", "count"),
    lower("netsim.sim.rt_worst_over_bound", "ratio"),
    lower("trace_overhead_ratio", "ratio"),
    lower("latency_tail_us", "us"),
];

/// Why the workload called `name` exists.
pub fn why(name: &str) -> &'static str {
    WORKLOADS.iter().find(|w| w.0 == name).map_or("", |w| w.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Workload;
    use crate::json;

    /// The contract's limits on a name and on a unit.
    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(is_name(name), "{name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(is_unit(unit), "{unit}");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    #[test]
    fn bounds_fit_the_contract_and_setup_has_the_widest() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for metric in &END_TO_END {
            assert!(
                metric.bound > 0.0 && metric.bound <= 0.25,
                "{}",
                metric.name
            );
            assert!(metric.bound <= setup.bound, "{}", metric.name);
        }
    }

    #[test]
    fn workload_table_matches_the_adapter() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        let table: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(names, table);
    }

    #[test]
    fn benchmark_json_repeats_these_tables() {
        let file =
            json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            file.get(key)
                .and_then(|v| v.as_arr())
                .expect("a list")
                .to_vec()
        };
        let text = |v: &json::Value, key: &str| {
            v.get(key)
                .and_then(|s| s.as_str())
                .expect("a string")
                .to_string()
        };

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(|b| b.as_f64()).expect("a bound");
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(per_layer, expected);

        let paths: Vec<String> = list("paths")
            .iter()
            .map(|p| p.as_str().expect("a path").to_string())
            .collect();
        assert_eq!(paths, ["rtbench"]);
    }
}
