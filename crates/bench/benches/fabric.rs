//! Micro-bench: fabric event throughput.
//!
//! Four fabrics at two scales — the 16-node star / 4-switch tree / 4-switch
//! ring baselines of the earlier PRs, plus the 64-switch / 1024-node torus
//! (`FabricScenario::torus(8, 8, 8, 8)`).  The workload is pre-generated and
//! injected up front (`inject_batch`), so the pending-event population is
//! proportional to the frame count — the regime the calendar queue exists
//! for.  Every injected frame must be delivered.
//!
//! Row keying: one row per fabric under the `fabric/calendar` key the
//! trajectory has always used for the default configuration, so
//! `bench_diff` keeps comparing like with like; the heap and owned-store
//! rows of earlier artifacts have no counterpart any more (the simulator
//! has one scheduler and one frame representation) and only warn there.
//!
//! The run closes with the routing microbench: rebuild-after-cut latency
//! and resident routing bytes on the 1280-switch `fat_tree(32)`, one row
//! per mode (from-scratch, incremental, structural), cross-checked
//! entry-for-entry before any number is reported.
//!
//! The run always dumps its numbers as `BENCH_fabric.json` (via the in-repo
//! JSON encoder) so CI can archive the throughput trajectory per PR and
//! `bench_diff` can flag regressions; set `BENCH_FABRIC_JSON` to override
//! the path.

use std::time::Instant;

use rt_bench::report::{json_object, write_artifact, ToJson};
use rt_netsim::{ShardedSimulator, SimConfig, Simulator};
use rt_traffic::{FabricScenario, ScenarioFrameSource};
use rt_types::{Duration, NextHopCache, Topology};

/// Shard counts swept on the scaling fabric (the sharded simulator is
/// pointless on the millisecond-scale baselines).  `1` measures the pure
/// coordinator/windowing overhead against the single-thread calendar row.
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One fabric workload: a topology and a frame schedule.
struct Workload {
    name: &'static str,
    topology: Topology,
    nodes: u32,
    frames: u64,
    /// Injection spacing; small spacing at high frame counts is what keeps
    /// tens of thousands of events pending at once.
    spacing: Duration,
    source: ScenarioFrameSource,
}

impl Workload {
    fn new(
        name: &'static str,
        scenario: FabricScenario,
        frames: u64,
        spacing: Duration,
    ) -> Workload {
        Workload {
            name,
            topology: scenario.topology(),
            nodes: scenario.node_count(),
            frames,
            spacing,
            // Small payloads keep frame construction and delivery cloning
            // cheap, so the measurement weighs the event loop, not memcpy.
            source: ScenarioFrameSource::new(scenario, frames, spacing).payload_len(64),
        }
    }
}

fn workloads() -> Vec<Workload> {
    vec![
        // The historical baselines (star = 1 switch, tree = 4-switch line,
        // ring = the line closed), 16 nodes each.
        Workload::new(
            "star",
            FabricScenario::line(1, 8, 8),
            4_000,
            Duration::from_micros(2),
        ),
        Workload::new(
            "tree",
            FabricScenario::line(4, 2, 2),
            4_000,
            Duration::from_micros(2),
        ),
        Workload::new(
            "ring",
            FabricScenario::ring(4, 2, 2),
            4_000,
            Duration::from_micros(2),
        ),
        // The scaling fabric: 64 switches, 1024 nodes, 2M frames injected
        // up front -> a seven-figure pending-event population.
        Workload::new(
            "torus_8x8_1024",
            FabricScenario::torus(8, 8, 8, 8),
            2_000_000,
            Duration::from_nanos(500),
        ),
    ]
}

struct DriveOutcome {
    events: u64,
    delivered: u64,
    elapsed_ns: u64,
}

/// Run one workload: build the fabric, inject the whole pre-generated
/// batch, drain.  Only the simulation (not the frame generation) is timed.
fn drive(workload: &Workload) -> DriveOutcome {
    let mut sim = Simulator::with_topology(SimConfig::default(), workload.topology.clone())
        .expect("bench fabrics are valid");
    let batch = workload.source.clone().drain_all();
    let start = Instant::now();
    sim.inject_batch(batch).expect("bench injections are valid");
    sim.run_to_idle();
    let elapsed = start.elapsed();
    DriveOutcome {
        events: sim.events_processed(),
        delivered: sim.poll_deliveries().len() as u64,
        elapsed_ns: elapsed.as_nanos() as u64,
    }
}

/// [`drive`] on the sharded simulator: same pre-generated batch, `shards`
/// worker threads under the default (BFS-regions) partition.
fn drive_sharded(workload: &Workload, shards: usize) -> DriveOutcome {
    let mut sim = ShardedSimulator::new(SimConfig::default(), workload.topology.clone(), shards)
        .expect("bench fabrics satisfy the lookahead bound");
    let batch = workload.source.clone().drain_all();
    let start = Instant::now();
    sim.inject_batch(batch).expect("bench injections are valid");
    sim.run_to_idle();
    let elapsed = start.elapsed();
    DriveOutcome {
        events: sim.events_processed(),
        delivered: sim.poll_deliveries().len() as u64,
        elapsed_ns: elapsed.as_nanos() as u64,
    }
}

/// One fabric measurement, encoded with the in-repo encoder.
struct ThroughputRow {
    fabric: String,
    nodes: u32,
    frames: u64,
    spacing_ns: u64,
    events: u64,
    elapsed_ns: u64,
    events_per_second: f64,
    events_per_frame: f64,
}

impl ToJson for ThroughputRow {
    fn to_json(&self) -> String {
        json_object(&[
            ("fabric", self.fabric.to_json()),
            // Half of the `fabric/calendar` key `bench_diff` matches rows on.
            ("scheduler", "calendar".to_json()),
            ("nodes", self.nodes.to_json()),
            ("frames", self.frames.to_json()),
            ("spacing_ns", self.spacing_ns.to_json()),
            ("events", self.events.to_json()),
            ("elapsed_ns", self.elapsed_ns.to_json()),
            ("events_per_second", self.events_per_second.to_json()),
            ("events_per_frame", self.events_per_frame.to_json()),
        ])
    }
}

/// One routing-mode measurement on the datacenter fabric: how long it takes
/// to recover a servable routing state after a single trunk cut, and how
/// many bytes of routing state stay resident at steady state.
struct RoutingRow {
    fabric: &'static str,
    /// `full` (from-scratch per-destination BFS, the pre-incremental
    /// baseline), `incremental` (single-delta column repair from the
    /// previous table) or `structural` (closed-form next hops + sparse
    /// detour overlay).
    mode: &'static str,
    switches: u32,
    rebuild_ns: u64,
    table_bytes: u64,
}

impl ToJson for RoutingRow {
    fn to_json(&self) -> String {
        json_object(&[
            ("fabric", self.fabric.to_json()),
            ("mode", self.mode.to_json()),
            ("switches", self.switches.to_json()),
            ("rebuild_ns", self.rebuild_ns.to_json()),
            ("table_bytes", self.table_bytes.to_json()),
        ])
    }
}

/// A heterogeneous artifact row: the throughput sweep and the routing
/// microbench share one `BENCH_fabric.json`, keyed apart by field presence
/// (`events_per_second` vs `rebuild_ns`).
enum Row {
    Throughput(ThroughputRow),
    Routing(RoutingRow),
}

impl ToJson for Row {
    fn to_json(&self) -> String {
        match self {
            Row::Throughput(r) => r.to_json(),
            Row::Routing(r) => r.to_json(),
        }
    }
}

/// The routing microbench: rebuild-after-cut latency and resident routing
/// bytes on `fat_tree(32)` (1280 switches), one row per mode.
///
/// All three modes are checked entry-for-entry identical on the degraded
/// fabric before any number is reported, so the speed-ups can never come
/// from answering a different routing question.  The in-binary asserts pin
/// the two claims the trajectory gates: the incremental repair beats the
/// from-scratch rebuild by >=10x, and structural steady-state routing
/// memory is O(V), orders of magnitude under the O(V^2) table.
fn routing_rows() -> Vec<Row> {
    const FABRIC: &str = "fat_tree_32";
    const RUNS: usize = 3;
    let healthy = Topology::fat_tree(32).expect("k=32 is a valid fat tree");
    let switches = healthy.switches().count() as u32;
    let (a, b) = healthy.trunks().next().expect("fat tree has trunks");
    let mut degraded = healthy.clone();
    degraded.fail_trunk(a, b).expect("trunk exists");

    // From-scratch baseline: a cold cache on the degraded fabric pays one
    // per-destination BFS sweep — exactly what every fingerprint flip cost
    // before the incremental path existed.
    let mut full_ns = u64::MAX;
    let mut full_bytes = 0u64;
    let mut full_dense = None;
    for _ in 0..RUNS {
        let cache = NextHopCache::new();
        let start = Instant::now();
        let dense = cache.get_dense(&degraded);
        full_ns = full_ns.min(start.elapsed().as_nanos() as u64);
        assert_eq!(cache.stats().full_rebuilds, 1);
        full_bytes = dense.resident_bytes() as u64;
        full_dense = Some(dense);
    }
    let full_dense = full_dense.expect("at least one run happened");

    // Incremental: prime the cache on the healthy fabric (untimed), then
    // time the single-cut repair.
    let mut incremental_ns = u64::MAX;
    let mut incremental_bytes = 0u64;
    for _ in 0..RUNS {
        let cache = NextHopCache::new();
        cache.get_dense(&healthy);
        let start = Instant::now();
        let dense = cache.get_dense(&degraded);
        incremental_ns = incremental_ns.min(start.elapsed().as_nanos() as u64);
        let stats = cache.stats();
        assert_eq!(stats.incremental_rebuilds, 1, "the cut is a single delta");
        assert_eq!(stats.full_rebuilds, 1, "only the healthy prime is full");
        incremental_bytes = dense.resident_bytes() as u64;
        for t in 0..switches {
            for s in 0..switches {
                assert_eq!(
                    dense.next_hop_index(s, t),
                    full_dense.next_hop_index(s, t),
                    "incremental repair must be byte-identical at ({s}, {t})"
                );
            }
        }
    }

    // Structural: closed-form next hops, no table at all while healthy; a
    // cut only costs the sparse detour overlay.
    let mut structural_ns = u64::MAX;
    let mut structural_bytes = 0u64;
    for _ in 0..RUNS {
        let cache = NextHopCache::structural();
        let dense = cache.get_dense(&healthy);
        structural_bytes = dense.resident_bytes() as u64;
        let start = Instant::now();
        let dense = cache.get_dense(&degraded);
        structural_ns = structural_ns.min(start.elapsed().as_nanos() as u64);
        let stats = cache.stats();
        assert_eq!(
            stats.full_rebuilds, 0,
            "structural mode never builds a table"
        );
        assert_eq!(stats.incremental_rebuilds, 0);
        for t in 0..switches {
            for s in 0..switches {
                assert_eq!(
                    dense.next_hop_index(s, t),
                    full_dense.next_hop_index(s, t),
                    "structural detour must be byte-identical at ({s}, {t})"
                );
            }
        }
    }

    assert!(
        full_ns >= 10 * incremental_ns,
        "incremental repair must beat the from-scratch rebuild >=10x \
         (full {full_ns} ns vs incremental {incremental_ns} ns)"
    );
    assert!(
        structural_bytes * 50 < full_bytes,
        "structural routing state must be O(V), far under the O(V^2) table \
         ({structural_bytes} B vs {full_bytes} B)"
    );

    println!("routing rebuild-after-cut on {FABRIC} ({switches} switches):");
    for (mode, ns, bytes) in [
        ("full", full_ns, full_bytes),
        ("incremental", incremental_ns, incremental_bytes),
        ("structural", structural_ns, structural_bytes),
    ] {
        println!(
            "{:<22} {:<12} rebuild {:>9.3} ms, resident {:>10} B ({:.1}x vs full rebuild)",
            FABRIC,
            mode,
            ns as f64 / 1e6,
            bytes,
            full_ns as f64 / ns as f64,
        );
    }
    println!();

    [
        ("full", full_ns, full_bytes),
        ("incremental", incremental_ns, incremental_bytes),
        ("structural", structural_ns, structural_bytes),
    ]
    .into_iter()
    .map(|(mode, rebuild_ns, table_bytes)| {
        Row::Routing(RoutingRow {
            fabric: FABRIC,
            mode,
            switches,
            rebuild_ns,
            table_bytes,
        })
    })
    .collect()
}

/// The fastest of `runs` drives (the usual micro-bench "least disturbed
/// run" summary); every run must deliver every injected frame.
fn best_of(
    runs: usize,
    fabric: &str,
    frames: u64,
    drive: impl Fn() -> DriveOutcome,
) -> DriveOutcome {
    (0..runs)
        .map(|_| {
            let outcome = drive();
            assert_eq!(
                outcome.delivered, frames,
                "{fabric}: every injected frame must be delivered"
            );
            outcome
        })
        .min_by_key(|outcome| outcome.elapsed_ns)
        .expect("at least one run happened")
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();
    println!("fabric event throughput");
    println!("(workloads injected up front; identical frame sequences per fabric)\n");
    for workload in workloads() {
        // The millisecond-scale fabrics get extra samples because they are
        // the ones shared-CI noise can swing past the bench_diff gate; the
        // multi-second torus is dominated by its own working set and stays
        // at two.
        let runs = if workload.frames > 100_000 { 2 } else { 5 };
        let row = |fabric: String, outcome: &DriveOutcome| ThroughputRow {
            fabric,
            nodes: workload.nodes,
            frames: workload.frames,
            spacing_ns: workload.spacing.as_nanos(),
            events: outcome.events,
            elapsed_ns: outcome.elapsed_ns,
            events_per_second: outcome.events as f64 / (outcome.elapsed_ns as f64 / 1e9),
            events_per_frame: outcome.events as f64 / workload.frames as f64,
        };
        let outcome = best_of(runs, workload.name, workload.frames, || drive(&workload));
        let single = row(workload.name.to_string(), &outcome);
        let single_per_second = single.events_per_second;
        println!(
            "{:<22} {:>8} events in {:>7.1} ms -> {:>6.2} M events/s, {:>5.1} events/frame\n",
            single.fabric,
            single.events,
            single.elapsed_ns as f64 / 1e6,
            single_per_second / 1e6,
            single.events_per_frame,
        );
        rows.push(Row::Throughput(single));

        // The shard sweep: the conservative-windowed parallel simulator on
        // the scaling fabric, one row per shard count under a
        // `+shards{N}` fabric suffix.  `bench_diff` gates the best sharded
        // row, so a regression in the parallel path fails CI even when the
        // single-thread rows hold.
        if workload.name == "torus_8x8_1024" {
            for shards in SHARD_SWEEP {
                let fabric = format!("{}+shards{}", workload.name, shards);
                let outcome = best_of(runs, &fabric, workload.frames, || {
                    drive_sharded(&workload, shards)
                });
                let sharded = row(fabric, &outcome);
                println!(
                    "{:<22} {:>8} events in {:>7.1} ms -> {:>6.2} M events/s, {:.2}x vs one thread",
                    sharded.fabric,
                    sharded.events,
                    sharded.elapsed_ns as f64 / 1e6,
                    sharded.events_per_second / 1e6,
                    sharded.events_per_second / single_per_second,
                );
                rows.push(Row::Throughput(sharded));
            }
            println!();
        }
    }

    rows.extend(routing_rows());

    write_artifact("BENCH_FABRIC_JSON", "BENCH_fabric.json", &rows);
}
