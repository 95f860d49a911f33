//! Ablation D (future work of the paper): RT channels over a multi-switch
//! fabric — admission analysis *and* wire-level simulation, on trees and
//! meshes.
//!
//! **Part 1 — dumbbell (tree).**  Two access switches joined by a single
//! trunk, masters on one side and slaves on the other, so every channel
//! crosses three links (uplink, trunk, downlink) and the trunk is the shared
//! bottleneck.  The experiment sweeps the number of requested channels and,
//! for each point:
//!
//! 1. runs multi-hop admission analytically (symmetric vs. load-proportional
//!    deadline split), and
//! 2. replays the *asymmetric* run on the wire: the same requests are
//!    established through the simulated fabric (handshake frames crossing
//!    the trunk), periodic traffic is driven on every admitted channel, and
//!    the measured worst-case delay is checked against the multi-hop
//!    Eq. 18.1 analogue `d_i·slot + T_latency(hops)`.
//!
//! **Part 2 — mesh (ring) vs. spanning tree.**  A ring of four access
//! switches is the line plus one *redundant* closing trunk.  The same
//! cross-switch request sequence is driven twice through `RtNetworkBuilder`:
//! once over the spanning line under `TreeRouter` (the pre-mesh behaviour)
//! and once over the ring under `ShortestPathRouter`.  The redundant trunk
//! both shortens routes (fewer hops → more slack per link) and removes the
//! middle-trunk bottleneck, so the mesh admits more channels; every admitted
//! channel is again validated on the wire against its hop-aware bound.
//!
//! **Part 4 — survivability (1024-node torus, scripted trunk cut).**  Forty
//! channels are admitted over the 8×8×16 torus with `KShortestRouter`
//! fallback, eight of them pinned across one grid trunk.  Mid-run that
//! trunk is cut: every affected channel must be re-routed (the torus is
//! redundant — zero drops), traffic generated after re-admission must meet
//! the new hop-aware bounds with zero deadline misses, and every channel
//! whose links are disjoint from the failure and the re-routes must deliver
//! byte-for-byte identically to a fault-free reference run.  The
//! accepted / re-routed / dropped counts land in the JSON artifact as
//! admission-quality rows, which the `bench_diff` gate tracks alongside
//! events/s.
//!
//! **Part 5 — central vs distributed control plane (1024-node torus).**
//! The same request sequence — a cross-switch sweep plus a *hot-trunk*
//! block in which every request contends for the `sw0 <-> sw1` trunk's
//! slack — is driven twice over the 8×8×16 torus: once under the paper's
//! centralised manager (control frames teleport… well, forward to one
//! switch) and once under the distributed per-switch managers with
//! two-phase reservation frames hopping the fabric.  The accepted channel
//! sets must be *identical* — routes and deadline splits admission for
//! admission, ids under the admission-order remapping (raw ids differ by
//! construction: per-switch id blocks vs the central global sequencer);
//! what differs is the honest price: control-frame count, control-frame
//! link traversals ("admission hops") and admission latency in simulated
//! time all land in the artifact, and `bench_diff` fails CI if the
//! accepted sets ever diverge.  **Part 5b** cuts a trunk and establishes
//! the next batch while the link-state flood is still propagating —
//! admission against stale views — then settles and audits that no
//! reservation slack leaked; `bench_diff` gates the deterministic
//! `accepted_under_convergence` count (any decrease fails).
//!
//! **Part 6 — churn soak (fat tree + 4-D torus).**  A long-running
//! admission service: a seeded arrival/departure process (exponential
//! inter-arrivals and holding times, heterogeneous specs, uniform endpoint
//! pairs) churns establish/release through the real control protocol on
//! the k=16 fat tree (320 switches / 1024 hosts) and a 4×4×4×4 torus
//! (256 switches / 1024 hosts), under both the central and the distributed
//! manager.  Reported per run: admissions/s, steady-state acceptance
//! ratio, and p50/p99 establishment latency — all gated by `bench_diff`
//! (a >20 % admissions/s drop or *any* acceptance-ratio decrease fails
//! CI), plus a per-fabric central-vs-distributed trace-parity row.  The
//! fat-tree soak additionally runs under the table-free
//! `StructuralRouter` (the `structural` placement row) and must reproduce
//! the tabled run's trace hash bit for bit.  A
//! flapping-trunk run cuts and repairs a core trunk three times mid-churn
//! (the routing-rebuild hot path), and a fixed-size 6-switch-ring run
//! shows the repair re-optimisation recovering the acceptance ratio.
//! `RT_SOAK_REQUESTS` scales the measured window (CI smokes 50 000; a
//! full-scale 250 000-per-run artifact is over a million cumulative
//! admission decisions).
//!
//! Usage: `cargo run -p rt-bench --bin multiswitch [results.json]`.  The
//! results are additionally always written to `BENCH_multiswitch.json` at
//! the workspace root (override with `BENCH_MULTISWITCH_JSON`) so CI can
//! archive the trajectory like the fabric baseline.

use std::sync::Arc;
use std::time::Instant;

use std::collections::BTreeSet;

use rt_bench::report::{
    json_object, maybe_write_json_from_args, write_artifact, Histogram, Table, ToJson,
};
use rt_core::multihop::{HopLink, MultiHopAdmission, MultiHopDps, SwitchId, Topology};
use rt_core::{
    ChannelRoute, DistributedChannelManager, FabricChannelManager, RtChannelSpec, RtNetwork,
};
use rt_traffic::{
    ChurnConfig, ChurnEvent, ChurnProcess, ChurnReport, FabricScenario, FailoverScenario,
};
use rt_types::{
    ChannelId, Duration, KShortestRouter, ManagerPlacement, NodeId, Router, ShortestPathRouter,
    SimTime, StructuralRouter, TreeRouter,
};

#[derive(Debug)]
struct MultiSwitchRow {
    requested: u64,
    symmetric_accepted: u64,
    asymmetric_accepted: u64,
    trunk_load_symmetric: usize,
    trunk_load_asymmetric: usize,
    // Wire-level validation of the asymmetric run.
    simulated_established: u64,
    simulated_frames: u64,
    simulated_misses: u64,
    worst_latency_ns: u64,
    worst_bound_ns: u64,
}

impl ToJson for MultiSwitchRow {
    fn to_json(&self) -> String {
        json_object(&[
            ("requested", self.requested.to_json()),
            ("symmetric_accepted", self.symmetric_accepted.to_json()),
            ("asymmetric_accepted", self.asymmetric_accepted.to_json()),
            ("trunk_load_symmetric", self.trunk_load_symmetric.to_json()),
            (
                "trunk_load_asymmetric",
                self.trunk_load_asymmetric.to_json(),
            ),
            (
                "simulated_established",
                self.simulated_established.to_json(),
            ),
            ("simulated_frames", self.simulated_frames.to_json()),
            ("simulated_misses", self.simulated_misses.to_json()),
            ("worst_latency_ns", self.worst_latency_ns.to_json()),
            ("worst_bound_ns", self.worst_bound_ns.to_json()),
        ])
    }
}

/// One router's wire-level numbers at one sweep point of the mesh
/// experiment.
#[derive(Debug, Default)]
struct WireOutcome {
    established: u64,
    frames: u64,
    misses: u64,
    worst_latency_ns: u64,
    worst_bound_ns: u64,
}

#[derive(Debug)]
struct MeshRow {
    requested: u64,
    tree: WireOutcome,
    mesh: WireOutcome,
}

impl ToJson for MeshRow {
    fn to_json(&self) -> String {
        let enc = |o: &WireOutcome| {
            json_object(&[
                ("established", o.established.to_json()),
                ("frames", o.frames.to_json()),
                ("misses", o.misses.to_json()),
                ("worst_latency_ns", o.worst_latency_ns.to_json()),
                ("worst_bound_ns", o.worst_bound_ns.to_json()),
            ])
        };
        json_object(&[
            ("requested", self.requested.to_json()),
            ("tree_router_line", enc(&self.tree)),
            ("shortest_path_ring", enc(&self.mesh)),
        ])
    }
}

/// One fail-over survivability run (part 4).
#[derive(Debug)]
struct FailoverRow {
    requested: u64,
    accepted: u64,
    rerouted: u64,
    dropped: u64,
    deadline_misses: u64,
    link_failure_drops: u64,
    unaffected_identical: bool,
    events: u64,
    elapsed_ns: u64,
}

impl ToJson for FailoverRow {
    fn to_json(&self) -> String {
        // No events_per_second here on purpose: this run is dominated by
        // fixed costs (18 ms of wall clock), so a throughput gate on it
        // would be noise; the throughput trajectory lives in
        // `benches/fabric.rs`.  The admission-quality fields are the gated
        // metrics.
        json_object(&[
            ("fabric", "torus_1024_failover".to_json()),
            ("requested", self.requested.to_json()),
            ("accepted_channels", self.accepted.to_json()),
            ("rerouted_channels", self.rerouted.to_json()),
            ("dropped_channels", self.dropped.to_json()),
            ("deadline_misses", self.deadline_misses.to_json()),
            ("link_failure_drops", self.link_failure_drops.to_json()),
            ("unaffected_identical", self.unaffected_identical.to_json()),
            ("events", self.events.to_json()),
            ("elapsed_ns", self.elapsed_ns.to_json()),
        ])
    }
}

/// Per-scenario admission-quality metrics for the trajectory gate: how many
/// channels each scenario accepted (and, for fail-over scenarios, re-routed
/// / dropped).  `bench_diff` fails CI when `accepted_channels` regresses.
#[derive(Debug)]
struct AdmissionRow {
    scenario: String,
    accepted: u64,
    rerouted: u64,
    dropped: u64,
}

impl ToJson for AdmissionRow {
    fn to_json(&self) -> String {
        json_object(&[
            ("fabric", self.scenario.to_json()),
            ("accepted_channels", self.accepted.to_json()),
            ("rerouted_channels", self.rerouted.to_json()),
            ("dropped_channels", self.dropped.to_json()),
        ])
    }
}

/// One control-plane placement's numbers for the identical torus workload
/// (part 5).
#[derive(Debug)]
struct DistributedRow {
    placement: &'static str,
    requested: u64,
    accepted: u64,
    control_frames: u64,
    control_hops: u64,
    /// Link-state flood frames, counted separately from the reservation
    /// traffic (zero in a fault-free run).
    link_state_frames: u64,
    /// Simulated time consumed by all establishment handshakes.
    admission_ns: u64,
    /// Mean control-frame link traversals per *accepted* channel — the
    /// admission latency measured in real hops.
    hops_per_accepted: f64,
    events: u64,
    elapsed_ns: u64,
}

impl ToJson for DistributedRow {
    fn to_json(&self) -> String {
        json_object(&[
            ("fabric", format!("torus_1024_{}", self.placement).to_json()),
            ("placement", self.placement.to_json()),
            ("requested", self.requested.to_json()),
            ("accepted_channels", self.accepted.to_json()),
            ("rerouted_channels", 0u64.to_json()),
            ("dropped_channels", 0u64.to_json()),
            ("control_frames", self.control_frames.to_json()),
            ("control_hops", self.control_hops.to_json()),
            ("link_state_frames", self.link_state_frames.to_json()),
            ("admission_ns", self.admission_ns.to_json()),
            ("hops_per_accepted", self.hops_per_accepted.to_json()),
            ("events", self.events.to_json()),
            ("elapsed_ns", self.elapsed_ns.to_json()),
        ])
    }
}

/// The central-vs-distributed parity verdict (part 5), gated in-artifact by
/// `bench_diff`: the two accepted counts must be equal, and the admitted
/// routes and deadline splits must match admission for admission (raw ids
/// differ by construction — the distributed manager allocates from
/// per-switch id blocks — so `identical_channel_set` is checked under the
/// admission-order id remapping).
#[derive(Debug)]
struct ParityRow {
    central_accepted: u64,
    distributed_accepted: u64,
    identical_channel_set: bool,
}

/// Part 5b — admission *during* the link-state convergence window (the cut
/// has been announced but the flood is still propagating, so per-switch
/// views disagree).  `bench_diff` gates `accepted_under_convergence`: the
/// run is seeded and deterministic, so any decrease fails CI.
#[derive(Debug)]
struct ConvergenceRow {
    requested: u64,
    accepted_under_convergence: u64,
    rerouted_by_cut: u64,
    control_frames: u64,
    link_state_frames: u64,
    link_state_hops: u64,
}

impl ToJson for ConvergenceRow {
    fn to_json(&self) -> String {
        json_object(&[
            ("fabric", "torus_1024_convergence".to_json()),
            ("requested", self.requested.to_json()),
            (
                "accepted_under_convergence",
                self.accepted_under_convergence.to_json(),
            ),
            ("rerouted_by_cut", self.rerouted_by_cut.to_json()),
            ("control_frames", self.control_frames.to_json()),
            ("link_state_frames", self.link_state_frames.to_json()),
            ("link_state_hops", self.link_state_hops.to_json()),
        ])
    }
}

impl ToJson for ParityRow {
    fn to_json(&self) -> String {
        json_object(&[
            ("fabric", "torus_1024_parity".to_json()),
            ("accepted_channels_central", self.central_accepted.to_json()),
            (
                "accepted_channels_distributed",
                self.distributed_accepted.to_json(),
            ),
            (
                "identical_channel_set",
                self.identical_channel_set.to_json(),
            ),
        ])
    }
}

/// One churn-soak run's metrics (part 6): the long-running admission
/// service under a seeded arrival/departure process.  `bench_diff` gates
/// `admissions_per_second` (a >20 % drop fails) and `acceptance_ratio`
/// (any decrease fails — the workload is seeded, so the ratio is exactly
/// reproducible run to run).
#[derive(Debug)]
struct ChurnRow {
    fabric: String,
    placement: &'static str,
    attempts: u64,
    admitted: u64,
    acceptance_ratio: f64,
    admissions_per_second: f64,
    p50_establish_ns: u64,
    p99_establish_ns: u64,
    peak_active: u64,
    dropped_by_faults: u64,
    trace_hash: String,
}

impl ToJson for ChurnRow {
    fn to_json(&self) -> String {
        json_object(&[
            ("fabric", self.fabric.to_json()),
            ("placement", self.placement.to_json()),
            ("attempts", self.attempts.to_json()),
            ("admitted", self.admitted.to_json()),
            ("acceptance_ratio", self.acceptance_ratio.to_json()),
            (
                "admissions_per_second",
                self.admissions_per_second.to_json(),
            ),
            ("p50_establish_ns", self.p50_establish_ns.to_json()),
            ("p99_establish_ns", self.p99_establish_ns.to_json()),
            ("peak_active", self.peak_active.to_json()),
            ("dropped_by_faults", self.dropped_by_faults.to_json()),
            ("trace_hash", self.trace_hash.to_json()),
        ])
    }
}

/// The per-fabric churn parity verdict (part 6): central and distributed
/// placements driven by the identical seeded process must produce the
/// byte-identical admission trace.  Reuses the parity field names so the
/// in-artifact `bench_diff` gate applies with no baseline needed.
#[derive(Debug)]
struct ChurnParityRow {
    fabric: String,
    central_admitted: u64,
    distributed_admitted: u64,
    identical_trace: bool,
}

impl ToJson for ChurnParityRow {
    fn to_json(&self) -> String {
        json_object(&[
            ("fabric", format!("{}_churn_parity", self.fabric).to_json()),
            ("accepted_channels_central", self.central_admitted.to_json()),
            (
                "accepted_channels_distributed",
                self.distributed_admitted.to_json(),
            ),
            ("identical_channel_set", self.identical_trace.to_json()),
        ])
    }
}

/// The churn-with-faults recovery row (part 6): acceptance ratio before the
/// cut, while degraded, and after the repair re-optimisation.
#[derive(Debug)]
struct ChurnRecoveryRow {
    acceptance_pre_cut: f64,
    acceptance_degraded: f64,
    acceptance_recovered: f64,
    rerouted_by_cut: u64,
    rerouted_by_repair: u64,
    dropped_by_faults: u64,
}

impl ToJson for ChurnRecoveryRow {
    fn to_json(&self) -> String {
        json_object(&[
            ("fabric", "ring_6_churn_recovery".to_json()),
            ("acceptance_pre_cut", self.acceptance_pre_cut.to_json()),
            ("acceptance_degraded", self.acceptance_degraded.to_json()),
            ("acceptance_recovered", self.acceptance_recovered.to_json()),
            ("rerouted_by_cut", self.rerouted_by_cut.to_json()),
            ("rerouted_by_repair", self.rerouted_by_repair.to_json()),
            ("dropped_by_faults", self.dropped_by_faults.to_json()),
        ])
    }
}

/// The whole experiment, for the JSON dump.
#[derive(Debug)]
struct Results {
    dumbbell: Vec<MultiSwitchRow>,
    mesh: Vec<MeshRow>,
    failover: Vec<FailoverRow>,
    distributed: Vec<DistributedRow>,
    parity: Vec<ParityRow>,
    convergence: Vec<ConvergenceRow>,
    admission_quality: Vec<AdmissionRow>,
    churn: Vec<ChurnRow>,
    churn_parity: Vec<ChurnParityRow>,
    churn_recovery: Vec<ChurnRecoveryRow>,
}

impl ToJson for Results {
    fn to_json(&self) -> String {
        json_object(&[
            ("dumbbell", self.dumbbell.to_json()),
            ("mesh_vs_tree", self.mesh.to_json()),
            ("failover", self.failover.to_json()),
            ("distributed_admission", self.distributed.to_json()),
            ("distributed_parity", self.parity.to_json()),
            ("convergence_admission", self.convergence.to_json()),
            ("admission_quality", self.admission_quality.to_json()),
            ("churn_soak", self.churn.to_json()),
            ("churn_parity", self.churn_parity.to_json()),
            ("churn_recovery", self.churn_recovery.to_json()),
        ])
    }
}

/// Two switches, `masters` nodes on switch 0 and `slaves` nodes on switch 1.
fn dumbbell(masters: u32, slaves: u32) -> Topology {
    let mut t = Topology::new();
    t.add_switch(SwitchId::new(0));
    t.add_switch(SwitchId::new(1));
    t.add_trunk(SwitchId::new(0), SwitchId::new(1))
        .expect("single fresh trunk");
    for i in 0..masters {
        t.attach_node(NodeId::new(i), SwitchId::new(0))
            .expect("fresh node");
    }
    for i in 0..slaves {
        t.attach_node(NodeId::new(masters + i), SwitchId::new(1))
            .expect("fresh node");
    }
    t
}

fn request_pair(i: u64, masters: u32, slaves: u32) -> (NodeId, NodeId) {
    (
        NodeId::new((i % u64::from(masters)) as u32),
        NodeId::new(masters + (i % u64::from(slaves)) as u32),
    )
}

/// Analytical admission only.
fn analyse(dps: MultiHopDps, masters: u32, slaves: u32, requested: u64) -> (u64, usize) {
    let spec = RtChannelSpec::paper_default();
    let mut admission = MultiHopAdmission::new(dumbbell(masters, slaves), dps);
    for i in 0..requested {
        let (source, destination) = request_pair(i, masters, slaves);
        let _ = admission
            .request(source, destination, spec)
            .expect("valid request");
    }
    let trunk_load = admission.link_load(HopLink::Trunk {
        from: SwitchId::new(0),
        to: SwitchId::new(1),
    });
    (admission.accepted_count(), trunk_load)
}

/// Establish a request sequence over the wire, drive periodic traffic and
/// validate every admitted channel against its hop-aware bound.
fn drive_on_the_wire(
    mut net: RtNetwork,
    requests: &[(NodeId, NodeId)],
    messages: u64,
) -> WireOutcome {
    let spec = RtChannelSpec::paper_default();
    let mut established = Vec::new();
    for &(source, destination) in requests {
        if let Some(tx) = net
            .establish_channel(source, destination, spec)
            .expect("establishment cannot error on a known topology")
        {
            established.push((source, tx));
        }
    }
    let start = net.now() + Duration::from_millis(1);
    for (source, tx) in &established {
        net.send_periodic(*source, tx.id, messages, 1400, start)
            .expect("channel was just established");
    }
    net.run_to_completion().expect("simulation completes");

    let stats = net.simulator().stats();
    let mut outcome = WireOutcome {
        established: established.len() as u64,
        frames: stats.rt_delivered,
        misses: stats.total_deadline_misses,
        ..WireOutcome::default()
    };
    for (_, tx) in &established {
        let Some(ch) = stats.channel(tx.id) else {
            continue;
        };
        let bound = net
            .channel_deadline_bound(tx.id)
            .expect("established channel has a bound")
            .as_nanos();
        let latency = ch.max_latency.as_nanos();
        outcome.worst_latency_ns = outcome.worst_latency_ns.max(latency);
        outcome.worst_bound_ns = outcome.worst_bound_ns.max(bound);
        assert!(
            latency <= bound,
            "channel {} measured {latency} ns > bound {bound} ns",
            tx.id
        );
    }
    outcome
}

/// The same dumbbell request sequence, run over the simulated wire with the
/// asymmetric split.
fn simulate_dumbbell(masters: u32, slaves: u32, requested: u64, messages: u64) -> WireOutcome {
    let net = RtNetwork::builder()
        .topology(dumbbell(masters, slaves))
        .multihop_dps(MultiHopDps::Asymmetric)
        .build()
        .expect("the dumbbell is a valid fabric");
    let requests: Vec<_> = (0..requested)
        .map(|i| request_pair(i, masters, slaves))
        .collect();
    drive_on_the_wire(net, &requests, messages)
}

fn part1_dumbbell(masters: u32, slaves: u32, messages: u64) -> Vec<MultiSwitchRow> {
    println!(
        "Part 1 — dumbbell fabric ({masters} masters on sw0, {slaves} slaves on sw1, one trunk)"
    );
    println!("every channel crosses uplink + trunk + downlink; C=3, P=100, D=40");
    println!("analysis: symmetric vs load-proportional multi-hop split; simulation: asymmetric run on the wire\n");

    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "requested",
        "sym accepted",
        "asym accepted",
        "trunk ch (sym/asym)",
        "sim established",
        "sim frames",
        "sim misses",
        "worst lat (us)",
        "bound (us)",
    ]);
    for requested in (20..=200).step_by(20) {
        let (sym, sym_trunk) = analyse(MultiHopDps::Symmetric, masters, slaves, requested);
        let (asym, asym_trunk) = analyse(MultiHopDps::Asymmetric, masters, slaves, requested);
        let wire = simulate_dumbbell(masters, slaves, requested, messages);
        assert_eq!(
            wire.established, asym,
            "wire-level admission must match the analytical run"
        );
        table.row_strings(vec![
            requested.to_string(),
            sym.to_string(),
            asym.to_string(),
            format!("{sym_trunk}/{asym_trunk}"),
            wire.established.to_string(),
            wire.frames.to_string(),
            wire.misses.to_string(),
            format!("{:.1}", wire.worst_latency_ns as f64 / 1000.0),
            format!("{:.1}", wire.worst_bound_ns as f64 / 1000.0),
        ]);
        rows.push(MultiSwitchRow {
            requested,
            symmetric_accepted: sym,
            asymmetric_accepted: asym,
            trunk_load_symmetric: sym_trunk,
            trunk_load_asymmetric: asym_trunk,
            simulated_established: wire.established,
            simulated_frames: wire.frames,
            simulated_misses: wire.misses,
            worst_latency_ns: wire.worst_latency_ns,
            worst_bound_ns: wire.worst_bound_ns,
        });
    }
    table.print();
    println!();
    let all_met = rows.iter().all(|r| r.simulated_misses == 0);
    println!(
        "The single trunk carries every channel, so it saturates long before the access links;"
    );
    println!("the load-proportional split hands the trunk most of each deadline and admits more channels.");
    println!(
        "Wire-level validation: every admitted channel met its hop-aware Eq. 18.1 bound: {}",
        if all_met { "YES" } else { "NO" }
    );
    rows
}

fn part2_mesh(messages: u64) -> Vec<MeshRow> {
    const SWITCHES: u32 = 4;
    const MASTERS: u32 = 2;
    const SLAVES: u32 = 2;
    let line = FabricScenario::line(SWITCHES, MASTERS, SLAVES);
    let ring = FabricScenario::ring(SWITCHES, MASTERS, SLAVES);
    println!("\nPart 2 — mesh vs spanning tree ({SWITCHES} access switches, {MASTERS} masters + {SLAVES} slaves each)");
    println!("identical cross-switch request sequences; TreeRouter over the line vs ShortestPathRouter over the ring");
    println!("(the ring = the line + one redundant closing trunk)\n");

    let spec = RtChannelSpec::paper_default();
    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "requested",
        "tree accepted",
        "mesh accepted",
        "tree worst/bound (us)",
        "mesh worst/bound (us)",
        "misses (tree/mesh)",
    ]);
    for requested in (8..=48).step_by(8) {
        // The scenarios share node allocation, so one request list serves
        // both fabrics.
        let requests: Vec<(NodeId, NodeId)> = line
            .cross_switch_requests(requested, spec)
            .iter()
            .map(|r| (r.source, r.destination))
            .collect();
        let tree_router: Arc<dyn Router> = Arc::new(TreeRouter::new());
        let tree = drive_on_the_wire(
            RtNetwork::builder()
                .topology(line.topology())
                .router_arc(tree_router)
                .multihop_dps(MultiHopDps::Asymmetric)
                .build()
                .expect("TreeRouter accepts the line"),
            &requests,
            messages,
        );
        let mesh = drive_on_the_wire(
            RtNetwork::builder()
                .topology(ring.topology())
                .router(ShortestPathRouter::new())
                .multihop_dps(MultiHopDps::Asymmetric)
                .build()
                .expect("ShortestPathRouter accepts the ring"),
            &requests,
            messages,
        );
        assert!(
            mesh.established >= tree.established,
            "the redundant trunk must never admit fewer channels"
        );
        table.row_strings(vec![
            requested.to_string(),
            tree.established.to_string(),
            mesh.established.to_string(),
            format!(
                "{:.1}/{:.1}",
                tree.worst_latency_ns as f64 / 1000.0,
                tree.worst_bound_ns as f64 / 1000.0
            ),
            format!(
                "{:.1}/{:.1}",
                mesh.worst_latency_ns as f64 / 1000.0,
                mesh.worst_bound_ns as f64 / 1000.0
            ),
            format!("{}/{}", tree.misses, mesh.misses),
        ]);
        rows.push(MeshRow {
            requested,
            tree,
            mesh,
        });
    }
    table.print();
    println!();
    let gained: u64 = rows
        .iter()
        .map(|r| r.mesh.established - r.tree.established)
        .sum();
    println!("The closing trunk shortens end-of-line routes and bypasses the middle trunks,");
    println!("admitting {gained} extra channels over the sweep; every admitted channel still met");
    println!("its hop-aware Eq. 18.1 bound on the wire, under both routers.");
    rows
}

/// The links of a route, as a set for disjointness checks.
fn link_set(route: &ChannelRoute) -> BTreeSet<HopLink> {
    route.path.iter().copied().collect()
}

/// Part 4: scripted mid-run trunk cut on the 1024-node torus with
/// k-shortest fail-over — the survivability experiment of the fail-over PR.
fn part4_survivability(messages: u64) -> FailoverRow {
    let scenario = FailoverScenario::torus_link_cut(8, 8, 8, 8);
    let (cut_from, cut_to) = scenario.cut_trunk();
    let spec = RtChannelSpec::paper_default();
    println!("\nPart 4 — survivability (8x8 torus, 1024 nodes; cut trunk {cut_from} <-> {cut_to} mid-run)");
    println!(
        "40 channels admitted with KShortestRouter fallback, 8 pinned across the doomed trunk"
    );

    // Eight channels guaranteed to cross the doomed trunk (masters on sw0
    // -> slaves on sw1) plus 32 background neighbour-to-neighbour channels
    // that stay clear of it (switches 1..33, each to its successor — the
    // direct trunk, never via sw0).  The pinned channels get a roomier
    // deadline (60 slots): after the cut, their 3-trunk detours have two
    // more hops than the direct route, and the experiment's contract is
    // that *every* one of them re-admits.
    let pinned_spec = RtChannelSpec::new(spec.period, spec.capacity, rt_types::Slots::new(60))
        .expect("valid pinned spec");
    let mut pairs: Vec<(NodeId, NodeId, RtChannelSpec)> = (0..8u64)
        .map(|i| {
            (
                scenario.fabric().master(0, i),
                scenario.fabric().slave(1, i),
                pinned_spec,
            )
        })
        .collect();
    pairs.extend((1..33u32).map(|s| {
        (
            scenario.fabric().master(s, u64::from(s)),
            scenario.fabric().slave(s + 1, u64::from(s)),
            spec,
        )
    }));
    let requested = pairs.len() as u64;

    // Drive one run; `cut` selects the failure world.  Both worlds use the
    // same fixed timeline so their traces are comparable.
    type ChannelTrace = Vec<(u32, u64, bool)>;
    struct RunOutcome {
        traces: std::collections::BTreeMap<u16, ChannelTrace>,
        routes_before: Vec<ChannelRoute>,
        rerouted: Vec<ChannelRoute>,
        dropped: Vec<ChannelRoute>,
        misses: u64,
        link_drops: u64,
        events: u64,
    }
    let drive = |cut: bool| -> RunOutcome {
        let mut net = RtNetwork::builder()
            .topology(scenario.fabric().topology())
            .router(KShortestRouter::new(4))
            .multihop_dps(MultiHopDps::Asymmetric)
            .build()
            .expect("the torus builds under k-shortest routing");
        let mut established: Vec<(NodeId, ChannelId)> = Vec::new();
        for &(src, dst, pair_spec) in &pairs {
            if let Some(tx) = net
                .establish_channel(src, dst, pair_spec)
                .expect("establishment cannot error on a known topology")
            {
                established.push((src, tx.id));
            }
        }
        let routes_before: Vec<ChannelRoute> = established
            .iter()
            .filter_map(|&(_, id)| net.manager().channel_route(id))
            .collect();
        // Fixed timeline: batch 1 well after establishment, the cut lands
        // mid-flight of its first messages, batch 2 after re-admission.
        let start1 = SimTime::from_millis(100);
        assert!(
            net.now() < start1,
            "establishment must finish before batch 1"
        );
        for &(src, id) in &established {
            net.send_periodic(src, id, messages, 1000, start1)
                .expect("channel was just established");
        }
        let cut_at = start1 + Duration::from_micros(400);
        net.run_until(cut_at).expect("pre-cut traffic dispatches");
        let (rerouted, dropped) = if cut {
            let report = net
                .fail_trunk(cut_from, cut_to)
                .expect("the doomed trunk exists");
            (report.rerouted, report.dropped)
        } else {
            (Vec::new(), Vec::new())
        };
        let start2 = cut_at + Duration::from_millis(5);
        for &(src, id) in &established {
            if net.manager().channel_route(id).is_some() {
                net.send_periodic(src, id, messages, 1000, start2)
                    .expect("channel is still admitted");
            }
        }
        net.run_to_completion().expect("simulation completes");
        let stats = net.simulator().stats();
        assert_eq!(
            net.simulator().injected_count(),
            stats.total_delivered() + stats.total_dropped(),
            "frame conservation must hold, cut={cut}"
        );
        let mut traces: std::collections::BTreeMap<u16, ChannelTrace> =
            std::collections::BTreeMap::new();
        for m in net.received_messages() {
            traces.entry(m.message.channel.get()).or_default().push((
                m.receiver.get(),
                m.delivered_at.as_nanos(),
                m.missed_deadline,
            ));
        }
        RunOutcome {
            traces,
            routes_before,
            rerouted,
            dropped,
            misses: stats.total_deadline_misses,
            link_drops: stats.failed_link_dropped,
            events: net.simulator().events_processed(),
        }
    };

    let started = Instant::now();
    let with_cut = drive(true);
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    let reference = drive(false);

    let accepted = with_cut.routes_before.len() as u64;
    // Every affected channel must have been re-routed: the torus is
    // redundant, so nothing may be dropped.
    assert!(
        with_cut.dropped.is_empty(),
        "the torus must re-route every affected channel, dropped {:?}",
        with_cut.dropped.iter().map(|r| r.id).collect::<Vec<_>>()
    );
    assert_eq!(
        with_cut.rerouted.len(),
        8,
        "exactly the eight pinned channels cross the doomed trunk"
    );
    // Zero deadline misses — including the frames generated after
    // re-admission, which are stamped and scheduled against the new routes.
    assert_eq!(
        with_cut.misses, 0,
        "fail-over must not cause a single deadline miss"
    );

    // Byte-for-byte: channels whose links are disjoint from every affected
    // channel's old and new route cannot tell the two worlds apart.
    let affected_ids: BTreeSet<u16> = with_cut.rerouted.iter().map(|r| r.id.get()).collect();
    let mut excluded_links: BTreeSet<HopLink> = BTreeSet::new();
    for route in with_cut
        .routes_before
        .iter()
        .filter(|r| affected_ids.contains(&r.id.get()))
        .chain(with_cut.rerouted.iter())
    {
        excluded_links.extend(link_set(route));
    }
    let mut compared = 0u64;
    let mut identical = true;
    for route in &with_cut.routes_before {
        if affected_ids.contains(&route.id.get()) || !link_set(route).is_disjoint(&excluded_links) {
            continue;
        }
        compared += 1;
        if with_cut.traces.get(&route.id.get()) != reference.traces.get(&route.id.get()) {
            identical = false;
        }
    }
    assert!(
        compared > 0,
        "the workload must contain unaffected channels"
    );
    assert!(
        identical,
        "channels off the failed path must deliver byte-for-byte identically"
    );

    println!(
        "  accepted {accepted}/{requested}, re-routed {}, dropped 0, misses 0, \
         {} frames lost on the dead trunk, {compared} unaffected channels byte-for-byte identical",
        with_cut.rerouted.len(),
        with_cut.link_drops,
    );
    println!(
        "  {} events in {:.1} ms",
        with_cut.events,
        elapsed_ns as f64 / 1e6,
    );
    FailoverRow {
        requested,
        accepted,
        rerouted: with_cut.rerouted.len() as u64,
        dropped: with_cut.dropped.len() as u64,
        deadline_misses: with_cut.misses,
        link_failure_drops: with_cut.link_drops,
        unaffected_identical: identical,
        events: with_cut.events,
        elapsed_ns,
    }
}

/// Part 5: central vs distributed admission on the 1024-node torus — same
/// request sequence, identical accepted channel set, honestly-priced
/// control plane.
fn part5_distributed() -> (Vec<DistributedRow>, ParityRow) {
    let fabric = FabricScenario::torus(8, 8, 8, 8);
    let spec = RtChannelSpec::paper_default();
    // A cross-switch sweep over the whole torus plus a hot-trunk block:
    // sixteen requests all contending for the sw0 <-> sw1 trunk's slack,
    // sized beyond its capacity so the later ones must detour (k-shortest)
    // or be rejected — with their partial reservations rolled back.
    let mut requests: Vec<(NodeId, NodeId)> = fabric
        .cross_switch_requests(32, spec)
        .iter()
        .map(|r| (r.source, r.destination))
        .collect();
    requests.extend(
        fabric
            .hot_trunk_requests(16, spec)
            .iter()
            .map(|r| (r.source, r.destination)),
    );
    let requested = requests.len() as u64;
    println!(
        "\nPart 5 — central vs distributed control plane (8x8 torus, 1024 nodes, {requested} requests)"
    );
    println!("32 spread across the fabric + 16 contending for the sw0<->sw1 trunk's slack");

    type ChannelSig = (u16, Vec<HopLink>, Vec<u64>);
    let drive = |placement: ManagerPlacement| -> (Vec<ChannelSig>, DistributedRow) {
        let mut net = RtNetwork::builder()
            .topology(fabric.topology())
            .router(KShortestRouter::new(3))
            .multihop_dps(MultiHopDps::Asymmetric)
            .manager_placement(placement)
            .build()
            .expect("the torus builds under k-shortest routing");
        let started = Instant::now();
        let mut admitted: Vec<ChannelSig> = Vec::new();
        for &(src, dst) in &requests {
            if let Some(tx) = net
                .establish_channel(src, dst, spec)
                .expect("establishment cannot error on a known topology")
            {
                let route = net
                    .manager()
                    .channel_route(tx.id)
                    .expect("admitted channel has a route");
                admitted.push((
                    tx.id.get(),
                    route.path.iter().copied().collect(),
                    route.link_deadlines.iter().map(|s| s.get()).collect(),
                ));
            }
        }
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        let stats = net.simulator().stats();
        let accepted = admitted.len() as u64;
        let row = DistributedRow {
            placement: match placement {
                ManagerPlacement::Central => "central",
                ManagerPlacement::Distributed => "distributed",
            },
            requested,
            accepted,
            control_frames: stats.control_frames,
            control_hops: stats.control_hops,
            link_state_frames: stats.link_state_frames,
            admission_ns: net.now().as_nanos(),
            hops_per_accepted: if accepted == 0 {
                0.0
            } else {
                stats.control_hops as f64 / accepted as f64
            },
            events: net.simulator().events_processed(),
            elapsed_ns,
        };
        (admitted, row)
    };

    let (central_set, central_row) = drive(ManagerPlacement::Central);
    let (dist_set, dist_row) = drive(ManagerPlacement::Distributed);
    assert!(central_row.accepted > 0, "the torus must admit channels");
    assert!(
        central_row.accepted < requested,
        "the hot trunk must reject some requests"
    );
    // Raw ids differ by construction (per-switch id blocks vs the central
    // global sequencer), so parity is routes + deadline splits admission
    // for admission, and the admission-order id pairing must be a
    // bijection on both sides.
    let placement_free = |set: &[ChannelSig]| -> Vec<(Vec<HopLink>, Vec<u64>)> {
        set.iter().map(|(_, p, d)| (p.clone(), d.clone())).collect()
    };
    let distinct_ids = |set: &[ChannelSig]| {
        set.iter()
            .map(|(id, _, _)| *id)
            .collect::<BTreeSet<_>>()
            .len()
    };
    let identical = placement_free(&central_set) == placement_free(&dist_set)
        && distinct_ids(&central_set) == central_set.len()
        && distinct_ids(&dist_set) == dist_set.len();
    assert!(
        identical,
        "the distributed manager must admit the oracle's exact channel set \
         (routes and splits under id remapping)"
    );
    let mut table = Table::new(&[
        "placement",
        "accepted",
        "control frames",
        "control hops",
        "hops/accepted",
        "admission (sim ms)",
    ]);
    for row in [&central_row, &dist_row] {
        table.row_strings(vec![
            row.placement.to_string(),
            format!("{}/{}", row.accepted, row.requested),
            row.control_frames.to_string(),
            row.control_hops.to_string(),
            format!("{:.1}", row.hops_per_accepted),
            format!("{:.2}", row.admission_ns as f64 / 1e6),
        ]);
    }
    table.print();
    println!(
        "identical accepted channel set: YES ({} channels, routes/deadline splits equal, \
         ids equal under admission-order remapping)",
        central_row.accepted
    );
    println!(
        "the distributed control plane pays its admission latency in real store-and-forward hops;"
    );
    println!("bench_diff gates the parity (and the accepted counts) in CI.");
    let parity = ParityRow {
        central_accepted: central_row.accepted,
        distributed_accepted: dist_row.accepted,
        identical_channel_set: identical,
    };
    (vec![central_row, dist_row], parity)
}

/// Part 5b: admission during the convergence window.  A trunk is cut and
/// the link-state flood is injected onto the wire *without* being pumped to
/// quiescence, so the next batch of establishment handshakes genuinely
/// races the announcement through the fabric: some coordinators still hold
/// the pre-cut view and probe routes over the dead trunk.  Those attempts
/// abort mid-handshake and their leased partial reservations are reclaimed
/// — after settling, the manager's quiescence audit proves zero slack
/// leaked.  The accepted count is seeded-deterministic; `bench_diff` gates
/// it as `accepted_under_convergence` (any decrease fails).
fn part5b_convergence() -> ConvergenceRow {
    let fabric = FabricScenario::torus(8, 8, 8, 8);
    let spec = RtChannelSpec::paper_default();
    let mut net = RtNetwork::builder()
        .topology(fabric.topology())
        .router(KShortestRouter::new(3))
        .multihop_dps(MultiHopDps::Asymmetric)
        .manager_placement(ManagerPlacement::Distributed)
        .build()
        .expect("the torus builds under k-shortest routing");
    // Warm channels pinned across the doomed trunk, so the cut also walks
    // the fail-over path of the per-switch ledgers.
    let warm: Vec<(NodeId, NodeId)> = fabric
        .hot_trunk_requests(4, spec)
        .iter()
        .map(|r| (r.source, r.destination))
        .collect();
    for &(src, dst) in &warm {
        net.establish_channel(src, dst, spec)
            .expect("establishment cannot error on a known topology");
    }
    let report = net
        .fail_trunk(SwitchId::new(0), SwitchId::new(1))
        .expect("the hot trunk exists");
    // The LinkState flood is now in flight but NOT yet converged; this
    // batch contends for the dead trunk's slack against stale views.
    let mut accepted = 0u64;
    let requests: Vec<(NodeId, NodeId)> = fabric
        .hot_trunk_requests(16, spec)
        .iter()
        .map(|r| (r.source, r.destination))
        .collect();
    let requested = requests.len() as u64;
    for &(src, dst) in &requests {
        if net
            .establish_channel(src, dst, spec)
            .expect("establishment cannot error on a known topology")
            .is_some()
        {
            accepted += 1;
        }
    }
    net.settle().expect("the fabric settles to quiescence");
    net.manager()
        .audit_quiescent()
        .expect("no reservation slack may survive the settle");
    let stats = net.simulator().stats();
    println!(
        "\nPart 5b — admission under convergence (trunk sw0<->sw1 cut, flood still propagating)"
    );
    println!(
        "  {accepted}/{requested} accepted while views disagreed; {} re-routed by the cut; \
         {} link-state frames ({} hops) vs {} reservation frames; zero slack leaked (audited)",
        report.rerouted.len(),
        stats.link_state_frames,
        stats.link_state_hops,
        stats.control_frames,
    );
    assert!(
        accepted > 0,
        "the redundant torus must admit channels even mid-convergence"
    );
    ConvergenceRow {
        requested,
        accepted_under_convergence: accepted,
        rerouted_by_cut: report.rerouted.len() as u64,
        control_frames: stats.control_frames,
        link_state_frames: stats.link_state_frames,
        link_state_hops: stats.link_state_hops,
    }
}

/// The churn soak seed — every random stream of part 6 derives from it.
const SOAK_SEED: u64 = 0x50a4;

/// Run one churn soak on one fabric under one placement.
fn churn_run(topology: &Topology, distributed: bool, config: ChurnConfig) -> ChurnReport {
    churn_run_with(
        topology,
        distributed,
        config,
        Arc::new(ShortestPathRouter::new()),
    )
}

/// [`churn_run`] with an explicit router (the structural-routing smoke
/// drives the identical soak through [`StructuralRouter`]).
fn churn_run_with(
    topology: &Topology,
    distributed: bool,
    config: ChurnConfig,
    router: Arc<dyn Router>,
) -> ChurnReport {
    let process = ChurnProcess::new(config, topology).expect("soak fabric carries churn");
    if distributed {
        let mut manager =
            DistributedChannelManager::new(topology.clone(), MultiHopDps::Asymmetric, router);
        process.run(&mut manager).expect("churn drives the manager")
    } else {
        let mut manager = FabricChannelManager::new(MultiHopAdmission::with_router(
            topology.clone(),
            MultiHopDps::Asymmetric,
            router,
        ));
        process.run(&mut manager).expect("churn drives the manager")
    }
}

/// Fold a churn report into its gated artifact row.
fn churn_row(fabric: &str, placement: &'static str, report: &ChurnReport) -> ChurnRow {
    let mut histogram = Histogram::new(2_000, 2_048);
    for &latency in &report.measured_latencies {
        histogram.record(latency);
    }
    ChurnRow {
        fabric: fabric.to_string(),
        placement,
        attempts: report.attempts,
        admitted: report.admitted,
        acceptance_ratio: report.acceptance_ratio(),
        admissions_per_second: report.admissions_per_second(),
        p50_establish_ns: histogram.p50(),
        p99_establish_ns: histogram.p99(),
        peak_active: report.peak_active as u64,
        dropped_by_faults: report.dropped_by_faults,
        trace_hash: format!("{:016x}", report.trace_hash),
    }
}

/// Part 6: the churn soak — a long-running admission service on the k=16
/// fat tree (320 switches, 1024 hosts) and a 4-D torus (256 switches, 1024
/// hosts), central and distributed placements, plus a churn-with-faults run
/// that shows repair re-optimisation recovering the acceptance ratio.
fn part6_churn_soak() -> (Vec<ChurnRow>, Vec<ChurnParityRow>, Vec<ChurnRecoveryRow>) {
    let measured: u64 = std::env::var("RT_SOAK_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let warmup = (measured / 10).max(1_000);
    println!(
        "\nPart 6 — churn soak: long-running admission service, seeded arrival/departure process"
    );
    println!(
        "  {warmup} warm-up + {measured} measured arrivals per run (RT_SOAK_REQUESTS overrides);"
    );
    println!("  offered load near each fabric's capacity knee; heterogeneous spec sweep, uniform endpoint pairs");

    let fat_tree = Topology::fat_tree(16).expect("the k=16 fat tree builds");
    let torus = Topology::torus_nd(&[4, 4, 4, 4], 4).expect("the 4-D torus builds");

    let mut rows = Vec::new();
    let mut parity = Vec::new();
    let mut table = Table::new(&[
        "fabric",
        "placement",
        "admitted",
        "acceptance",
        "admissions/s",
        "p50 (us)",
        "p99 (us)",
        "peak active",
    ]);
    // Offered load (steady-state concurrent channels, Little's law) tuned
    // to each fabric's capacity knee under the heterogeneous spec sweep,
    // so the acceptance ratio is a sensitive gate: well below 1.0, well
    // above saturation collapse.
    const FAT_TREE_HOLDING: f64 = 1_000.0;
    const TORUS_HOLDING: f64 = 2_500.0;
    let fabrics = [
        ("fat_tree_16", &fat_tree, FAT_TREE_HOLDING),
        ("torus_4d", &torus, TORUS_HOLDING),
    ];
    for (name, topology, holding) in fabrics {
        let config = ChurnConfig::new(SOAK_SEED)
            .windows(warmup, measured)
            .load(1.0, holding)
            .without_trace();
        let central = churn_run(topology, false, config.clone());
        let distributed = churn_run(topology, true, config.clone());
        // The two placements saw the identical arrival sequence, so their
        // admission traces must match event for event — under the
        // admission-order id renumbering, since raw ids come from
        // per-switch blocks on one side and a global sequencer on the
        // other.
        assert_eq!(
            central.normalized_trace_hash, distributed.normalized_trace_hash,
            "{name}: central and distributed churn traces diverge"
        );
        // The structural-routing smoke: the identical fat-tree soak through
        // the table-free StructuralRouter.  On a healthy structure-tagged
        // fabric its closed-form next hops are byte-identical to the
        // ShortestPathRouter table, so the *raw* trace hash must match —
        // every admission decision, id and release, at full soak scale.
        let structural = (name == "fat_tree_16").then(|| {
            let report = churn_run_with(topology, false, config, Arc::new(StructuralRouter::new()));
            assert_eq!(
                central.trace_hash, report.trace_hash,
                "{name}: structural routing diverged from the tabled soak"
            );
            report
        });
        for (placement, report) in [("central", &central), ("distributed", &distributed)]
            .into_iter()
            .chain(structural.iter().map(|r| ("structural", r)))
        {
            let row = churn_row(name, placement, report);
            table.row_strings(vec![
                name.to_string(),
                placement.to_string(),
                format!("{}/{}", row.admitted, row.attempts),
                format!("{:.4}", row.acceptance_ratio),
                format!("{:.0}", row.admissions_per_second),
                format!("{:.1}", row.p50_establish_ns as f64 / 1000.0),
                format!("{:.1}", row.p99_establish_ns as f64 / 1000.0),
                row.peak_active.to_string(),
            ]);
            rows.push(row);
        }
        parity.push(ChurnParityRow {
            fabric: name.to_string(),
            central_admitted: central.admitted,
            distributed_admitted: distributed.admitted,
            identical_trace: central.normalized_trace_hash == distributed.normalized_trace_hash,
        });
    }
    table.print();

    // Churn with faults on the fat tree: a core<->aggregation trunk
    // *flaps* — three cut/repair pairs spread across the measured window —
    // while the soak keeps churning.  The fat tree is redundant, so each
    // cut re-routes, and every flap flips the topology fingerprint between
    // the healthy and degraded graphs: the admissions/s of this row is the
    // routing-rebuild hot path the memoized next-hop cache protects (a
    // single-entry cache recomputes the full table on every flip).
    let (trunk_a, trunk_b) = fat_tree.trunks().next().expect("the fat tree has trunks");
    let mut config = ChurnConfig::new(SOAK_SEED)
        .windows(warmup, measured)
        .load(1.0, FAT_TREE_HOLDING)
        .without_trace();
    let mut flips = 0u64;
    for flap in 0..3u64 {
        let cut_at = warmup + measured * (2 * flap + 1) / 8;
        let repair_at = warmup + measured * (2 * flap + 2) / 8;
        config = config
            .cut_at(cut_at, trunk_a, trunk_b)
            .repair_at(repair_at, trunk_a, trunk_b);
        flips += 2;
    }
    let faulted = churn_run(&fat_tree, false, config);
    // The fat tree is path-redundant, but at knee load an alternate path
    // can lack slack, so a handful of drops under the cuts is legitimate.
    println!(
        "  fault flaps: trunk {trunk_a}<->{trunk_b} cut/repaired {flips} times across the window; \
         {} dropped, {:.0} admissions/s under fault churn",
        faulted.dropped_by_faults,
        faulted.admissions_per_second(),
    );
    let mut faulted_row = churn_row("fat_tree_16", "central", &faulted);
    faulted_row.fabric = "fat_tree_16_churn_faults".into();
    rows.push(faulted_row);

    let recovery = churn_recovery();
    (rows, parity, vec![recovery])
}

/// The recovery experiment: on a small ring every trunk carries a large
/// fraction of the fabric's capacity and the only detour is the long way
/// round, so cutting one visibly depresses the steady-state acceptance
/// ratio and the repair re-optimisation visibly restores it.  Fixed window
/// sizes keep the three ratios exactly reproducible run to run.
fn churn_recovery() -> ChurnRecoveryRow {
    let small = Topology::ring(6, 4);
    let warmup = 2_000u64;
    let measured = 9_000u64;
    let cut_at = warmup + measured / 3;
    let repair_at = warmup + (measured * 2) / 3;
    let (trunk_a, trunk_b) = small.trunks().next().expect("the ring has trunks");
    let config = ChurnConfig::new(SOAK_SEED)
        .windows(warmup, measured)
        .load(1.0, 250.0)
        .cut_at(cut_at, trunk_a, trunk_b)
        .repair_at(repair_at, trunk_a, trunk_b);
    let report = churn_run(&small, false, config);

    // Windowed acceptance from the trace: arrivals are the Admitted /
    // Rejected events in process order.
    let mut segments = [(0u64, 0u64); 3];
    let mut rerouted_by_cut = 0u64;
    let mut rerouted_by_repair = 0u64;
    let mut arrival = 0u64;
    for event in &report.trace {
        match event {
            ChurnEvent::Admitted(_) | ChurnEvent::Rejected => {
                if arrival >= warmup {
                    let segment = if arrival < cut_at {
                        0
                    } else if arrival < repair_at {
                        1
                    } else {
                        2
                    };
                    segments[segment].0 += 1;
                    if matches!(event, ChurnEvent::Admitted(_)) {
                        segments[segment].1 += 1;
                    }
                }
                arrival += 1;
            }
            ChurnEvent::TrunkCut { rerouted, .. } => rerouted_by_cut += u64::from(*rerouted),
            ChurnEvent::TrunkRepaired { rerouted } => rerouted_by_repair += u64::from(*rerouted),
            ChurnEvent::Released(_) => {}
        }
    }
    let ratio = |(attempts, admitted): (u64, u64)| {
        if attempts == 0 {
            0.0
        } else {
            admitted as f64 / attempts as f64
        }
    };
    let recovery = ChurnRecoveryRow {
        acceptance_pre_cut: ratio(segments[0]),
        acceptance_degraded: ratio(segments[1]),
        acceptance_recovered: ratio(segments[2]),
        rerouted_by_cut,
        rerouted_by_repair,
        dropped_by_faults: report.dropped_by_faults,
    };
    println!(
        "  recovery (6-switch ring, trunk {trunk_a}<->{trunk_b}): acceptance pre-cut {:.4} -> \
         degraded {:.4} -> recovered {:.4} ({} re-routed by the cut, {} migrated back by the repair)",
        recovery.acceptance_pre_cut,
        recovery.acceptance_degraded,
        recovery.acceptance_recovered,
        rerouted_by_cut,
        rerouted_by_repair,
    );
    assert!(
        recovery.acceptance_degraded < recovery.acceptance_pre_cut,
        "losing a trunk must depress the steady-state acceptance ratio"
    );
    assert!(
        recovery.acceptance_recovered > recovery.acceptance_degraded,
        "the repair re-optimisation must lift acceptance back off the degraded level"
    );
    recovery
}

fn main() {
    let messages = 10u64;
    let dumbbell_rows = part1_dumbbell(10, 50, messages);
    let mesh_rows = part2_mesh(messages);
    let failover_row = part4_survivability(3);
    let (distributed_rows, parity_row) = part5_distributed();
    let convergence_row = part5b_convergence();
    let (churn_rows, churn_parity_rows, churn_recovery_rows) = part6_churn_soak();
    // Admission-quality trajectory: one row per scenario, gated by
    // bench_diff (an accepted-channel regression fails CI).  The torus
    // fail-over run is NOT duplicated here — its FailoverRow already
    // carries the gated fields under the "torus_1024_failover" key, and
    // two rows with one key would shadow each other in the gate.
    let last_dumbbell = dumbbell_rows.last().expect("part 1 sweeps at least once");
    let last_mesh = mesh_rows.last().expect("part 2 sweeps at least once");
    let admission_quality = vec![
        AdmissionRow {
            scenario: "dumbbell_asymmetric".into(),
            accepted: last_dumbbell.asymmetric_accepted,
            rerouted: 0,
            dropped: 0,
        },
        AdmissionRow {
            scenario: "line_tree_router".into(),
            accepted: last_mesh.tree.established,
            rerouted: 0,
            dropped: 0,
        },
        AdmissionRow {
            scenario: "ring_shortest_path".into(),
            accepted: last_mesh.mesh.established,
            rerouted: 0,
            dropped: 0,
        },
    ];
    let results = Results {
        dumbbell: dumbbell_rows,
        mesh: mesh_rows,
        failover: vec![failover_row],
        distributed: distributed_rows,
        parity: vec![parity_row],
        convergence: vec![convergence_row],
        admission_quality,
        churn: churn_rows,
        churn_parity: churn_parity_rows,
        churn_recovery: churn_recovery_rows,
    };
    println!();
    write_artifact("BENCH_MULTISWITCH_JSON", "BENCH_multiswitch.json", &results);
    maybe_write_json_from_args(&results);
}
