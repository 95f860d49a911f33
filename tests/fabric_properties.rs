//! Randomized property harness for the fabric: random connected topologies
//! and random workloads, checked against invariants that must hold on
//! *every* fabric — not just the hand-picked scenarios of the unit tests.
//!
//! The invariants, each checked across a fixed seed matrix (seeds `0..32`,
//! via the in-repo deterministic PRNG, in the spirit of `rt-edf`'s
//! `testgen`):
//!
//! 1. **Frame conservation** — once the event queue drains, every injected
//!    frame is accounted for: `injected = delivered + dropped` (best-effort
//!    overflow, unroutable, failed-link and released-channel drops), with
//!    and without fault injection.
//! 2. **Scheduler equivalence** — the calendar queue pops the `(time,
//!    event)` sequence the binary heap would, on every random fabric +
//!    workload (+ fault script): `cargo test` builds the queue with its
//!    reference heap beside the calendar, checked on every pop.
//! 3. **Admission soundness** — channels admitted by the per-link EDF
//!    analysis never miss a deadline on the wire, and every measured
//!    latency stays below the hop-aware Eq. 18.1 bound
//!    `d·slot + T_latency(h)`.
//! 4. **What goes in comes out** — every delivered frame is struct-equal,
//!    and `encode()`-byte-equal, to the frame injected under its id, faulted
//!    or not, with Ethernet payloads of 0, 1, 45, 46 (the padding boundary)
//!    and 1500 bytes in every workload.
//! 5. **Churn determinism** — the long-running admission churn process
//!    replays a byte-identical admission trace from the same seed, and the
//!    central and distributed control planes produce that same trace,
//!    including under a scripted trunk cut + repair.
//!
//! A failing seed reproduces exactly: every random choice derives from the
//! seed through `Xoshiro256`.

mod common;
#[path = "common/frames.rs"]
mod frames;

use std::ops::Range;

use common::ControlHarness;
use frames::{be_frame, rt_frame};
use switched_rt_ethernet::core::{ChannelManager, MultiHopDps, RtChannelSpec, RtNetwork};
use switched_rt_ethernet::netsim::{
    Delivery, FaultScript, FrameId, FrameInjection, SimConfig, Simulator,
};
use switched_rt_ethernet::types::{
    ChannelId, ConnectionRequestId, Duration, MacAddr, ManagerPlacement, NextHopCache, NodeId,
    RoutePolicy, ShortestPathRouter, SimTime, Slots, SwitchId, Topology, Xoshiro256,
};

/// The fixed seed matrix: every invariant below holds for all of these.
const SEEDS: u64 = 32;

/// Seed count for the adversarial mid-handshake fault invariant,
/// overridable via `RT_ADVERSARIAL_SEEDS` (CI soaks crank it up; quick
/// local runs dial it down).  Defaults to the fixed 32-seed matrix.
fn adversarial_seeds() -> u64 {
    std::env::var("RT_ADVERSARIAL_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SEEDS)
}

// --- generators -----------------------------------------------------------

/// A random *connected* topology: a random spanning tree over 2–5 switches,
/// up to two extra (redundant) trunks, and 1–3 nodes per switch.
fn random_topology(rng: &mut Xoshiro256) -> Topology {
    let switches = rng.range_inclusive(2, 5) as u32;
    let mut t = Topology::new();
    for s in 0..switches {
        t.add_switch(SwitchId::new(s));
    }
    // Spanning tree: each switch hangs off a random earlier one.
    for s in 1..switches {
        let parent = rng.below(u64::from(s)) as u32;
        t.add_trunk(SwitchId::new(s), SwitchId::new(parent))
            .expect("tree trunks are fresh");
    }
    // Redundant extras (duplicates and self-loops are simply skipped).
    for _ in 0..rng.below(3) {
        let a = rng.below(u64::from(switches)) as u32;
        let b = rng.below(u64::from(switches)) as u32;
        if a != b {
            let _ = t.add_trunk(SwitchId::new(a), SwitchId::new(b));
        }
    }
    let mut next_node = 0u32;
    for s in 0..switches {
        for _ in 0..rng.range_inclusive(1, 3) {
            t.attach_node(NodeId::new(next_node), SwitchId::new(s))
                .expect("fresh node");
            next_node += 1;
        }
    }
    t
}

/// Ethernet payload lengths every workload carries: empty, one byte, either
/// side of the 46-byte minimum (where `encode` starts or stops padding) and
/// the MTU.
const BOUNDARY_PAYLOADS: [usize; 5] = [0, 1, 45, 46, 1500];

/// A bare Ethernet frame of an ethertype no codec claims (best effort on
/// the wire), carrying `payload_len` random bytes.
fn raw_frame(
    rng: &mut Xoshiro256,
    from: NodeId,
    to: NodeId,
    payload_len: usize,
) -> rt_frames::EthernetFrame {
    let payload = (0..payload_len).map(|_| rng.below(256) as u8).collect();
    rt_frames::EthernetFrame::new(
        MacAddr::for_node(to),
        MacAddr::for_node(from),
        0x88b6,
        payload,
    )
    .unwrap()
}

/// A random mixed workload over the attached nodes: RT frames with random
/// channels/deadlines plus best-effort frames, at random times within ~2 ms.
/// The first five frames are bare Ethernet, one per [`BOUNDARY_PAYLOADS`].
fn random_workload(rng: &mut Xoshiro256, topology: &Topology) -> Vec<FrameInjection> {
    let nodes: Vec<NodeId> = topology.nodes().collect();
    let frames = rng.range_inclusive(40, 160);
    let mut batch = Vec::with_capacity(frames as usize);
    for i in 0..frames as usize {
        let src = nodes[rng.below(nodes.len() as u64) as usize];
        let mut dst = nodes[rng.below(nodes.len() as u64) as usize];
        if dst == src {
            dst = nodes[(nodes.iter().position(|&n| n == src).unwrap() + 1) % nodes.len()];
        }
        let at = SimTime::from_nanos(rng.below(2_000_000));
        let payload = rng.range_inclusive(50, 1400) as usize;
        let eth = if let Some(&boundary) = BOUNDARY_PAYLOADS.get(i) {
            raw_frame(rng, src, dst, boundary)
        } else if rng.chance(0.5) {
            let channel = rng.range_inclusive(1, 6) as u16;
            let deadline = at + Duration::from_nanos(rng.range_inclusive(50_000, 3_000_000));
            rt_frame(src, dst, channel, deadline, payload)
        } else {
            be_frame(src, dst, payload)
        };
        batch.push(FrameInjection { node: src, eth, at });
    }
    batch
}

/// A random fault script over the topology's trunks: one cut somewhere in
/// the workload window, sometimes followed by a repair — and sometimes a
/// whole-switch kill on top (with its own optional trunk splice-back).
fn random_faults(rng: &mut Xoshiro256, topology: &Topology) -> FaultScript {
    let trunks: Vec<(SwitchId, SwitchId)> = topology.trunks().collect();
    if trunks.is_empty() {
        return FaultScript::new();
    }
    let (a, b) = trunks[rng.below(trunks.len() as u64) as usize];
    let cut_at = SimTime::from_nanos(rng.range_inclusive(100_000, 1_500_000));
    let mut script = FaultScript::new().fail_at(cut_at, a, b);
    if rng.chance(0.5) {
        script = script.repair_at(cut_at + Duration::from_millis(1), a, b);
    }
    // Sometimes also kill a whole switch — one not touching the cut trunk,
    // so the script stays valid (cutting an already-dead trunk is a script
    // bug, not a fault) — and sometimes splice one of its trunks back
    // afterwards.
    if rng.chance(0.25) {
        let candidates: Vec<SwitchId> = topology.switches().filter(|&s| s != a && s != b).collect();
        if !candidates.is_empty() {
            let victim = candidates[rng.below(candidates.len() as u64) as usize];
            let kill_at = SimTime::from_nanos(rng.range_inclusive(100_000, 1_500_000));
            script = script.fail_switch_at(kill_at, victim);
            if rng.chance(0.5) {
                if let Some(neighbour) = topology.neighbours(victim).next() {
                    script =
                        script.repair_at(kill_at + Duration::from_millis(1), victim, neighbour);
                }
            }
        }
    }
    script
}

// --- invariant drivers ----------------------------------------------------

/// Invariant 4: each delivery carries exactly the frame injected under its
/// id — the same struct, hence the same wire bytes.
fn assert_deliveries_are_what_went_in(
    context: &str,
    ids: Range<FrameId>,
    workload: &[FrameInjection],
    deliveries: &[Delivery],
) {
    assert_eq!(ids.end.get() - ids.start.get(), workload.len() as u64);
    for delivery in deliveries {
        assert!(
            ids.contains(&delivery.frame),
            "{context}: {:?} was never injected",
            delivery.frame
        );
        let sent = &workload[(delivery.frame.get() - ids.start.get()) as usize].eth;
        assert_eq!(
            delivery.eth, *sent,
            "{context}: {:?} changed in flight",
            delivery.frame
        );
        assert_eq!(delivery.eth.encode(), sent.encode());
    }
}

/// Run one seed's workload (and optional fault script); assert
/// conservation and that what went in came out; return the deliveries.
fn drive(seed: u64, with_faults: bool) -> Vec<Delivery> {
    let mut rng = Xoshiro256::new(seed);
    let topology = random_topology(&mut rng);
    let workload = random_workload(&mut rng, &topology);
    let faults = random_faults(&mut rng, &topology);
    let mut sim = Simulator::with_topology(SimConfig::default(), topology)
        .expect("generated fabric is valid");
    let ids = sim
        .inject_batch(workload.clone())
        .expect("workload is valid");
    if with_faults {
        sim.schedule_faults(&faults).expect("faults are in-window");
    }
    sim.run_to_idle();
    let stats = sim.stats();
    assert_eq!(
        sim.injected_count(),
        stats.total_delivered() + stats.total_dropped(),
        "seed {seed}: conservation violated ({} injected, {} delivered, {} dropped; {})",
        sim.injected_count(),
        stats.total_delivered(),
        stats.total_dropped(),
        stats.summary(),
    );
    assert_eq!(stats.clamped_events, 0, "seed {seed}: causality violated");
    let deliveries = sim.poll_deliveries();
    assert_deliveries_are_what_went_in(&format!("seed {seed}"), ids, &workload, &deliveries);
    deliveries
}

// --- the properties -------------------------------------------------------

/// Invariants 1 + 2 + 4 on fault-free fabrics: conservation and unchanged
/// frames on every seed, the calendar checked against the heap pop by pop.
#[test]
fn random_fabrics_conserve_frames_and_are_scheduler_invariant() {
    for seed in 0..SEEDS {
        let deliveries = drive(seed, false);
        // The boundary frames are the first five injected; none is lost.
        for boundary in 0..BOUNDARY_PAYLOADS.len() as u64 {
            assert!(
                deliveries.iter().any(|d| d.frame.get() == boundary),
                "seed {seed}: boundary frame {boundary} was not delivered"
            );
        }
    }
}

/// Invariants 1 + 2 + 4 *under fault injection*: a scripted trunk cut (and
/// sometimes a repair) mid-workload must neither lose track of a frame nor
/// alter one, and the fault events pop in the heap's order too.
#[test]
fn random_fabrics_with_faults_conserve_frames_and_are_scheduler_invariant() {
    for seed in 0..SEEDS {
        drive(seed, true);
    }
}

/// Invariant 4: on fault-free random fabrics, the *distributed* control
/// plane (per-switch slack ledgers, two-phase reservation in control frames
/// that traverse the wire) admits the **identical** channel set as the
/// central [`FabricChannelManager`] oracle — same ids, same routes, same
/// per-link deadline splits, same rejections — and the admitted channels'
/// data frames deliver byte-for-byte identically.
#[test]
fn central_and_distributed_control_planes_are_equivalent_on_random_fabrics() {
    for seed in 0..SEEDS {
        let drive = |placement: ManagerPlacement| {
            let mut rng = Xoshiro256::new(0xd15c_0000 ^ seed);
            let topology = random_topology(&mut rng);
            let nodes: Vec<NodeId> = topology.nodes().collect();
            let mut net = RtNetwork::builder()
                .topology(topology)
                .router(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
                    k: 3,
                }))
                .multihop_dps(if rng.chance(0.5) {
                    MultiHopDps::Asymmetric
                } else {
                    MultiHopDps::Symmetric
                })
                .manager_placement(placement)
                .build()
                .expect("generated fabric builds");
            // A random request sequence sized to provoke both admissions
            // and rejections (the trunks of the small fabrics saturate).
            let mut admitted = Vec::new();
            let mut verdicts = Vec::new();
            for _ in 0..10 {
                let src = nodes[rng.below(nodes.len() as u64) as usize];
                let mut dst = nodes[rng.below(nodes.len() as u64) as usize];
                if dst == src {
                    dst = nodes[(nodes.iter().position(|&n| n == src).unwrap() + 1) % nodes.len()];
                }
                let spec = RtChannelSpec::new(
                    Slots::new(rng.range_inclusive(60, 140)),
                    Slots::new(rng.range_inclusive(1, 3)),
                    Slots::new(rng.range_inclusive(30, 60)),
                )
                .expect("generated spec is valid");
                match net.establish_channel(src, dst, spec).unwrap() {
                    Some(tx) => {
                        let route = net
                            .manager()
                            .channel_route(tx.id)
                            .expect("admitted channel has a route");
                        verdicts.push(true);
                        admitted.push((src, tx.id, route.path.clone(), route.link_deadlines));
                    }
                    None => verdicts.push(false),
                }
            }
            // Periodic traffic on a fixed absolute timeline (identical in
            // both worlds, regardless of how long establishment took).
            let start = SimTime::from_millis(50);
            assert!(
                net.now() < start,
                "seed {seed}: establishment must finish before the data timeline"
            );
            for &(src, id, _, _) in &admitted {
                net.send_periodic(src, id, 5, 600, start).unwrap();
            }
            net.run_to_completion().unwrap();
            let stats = net.simulator().stats();
            assert_eq!(
                net.simulator().injected_count(),
                stats.total_delivered() + stats.total_dropped(),
                "seed {seed}: conservation violated under {placement:?} ({})",
                stats.summary()
            );
            assert!(
                stats.all_deadlines_met(),
                "seed {seed}: {placement:?} missed"
            );
            let deliveries: Vec<_> = net
                .received_messages()
                .iter()
                .map(|m| {
                    (
                        m.receiver,
                        m.channel,
                        m.payload_len,
                        m.delivered_at.as_nanos(),
                    )
                })
                .collect();
            (verdicts, admitted, deliveries)
        };
        let central = drive(ManagerPlacement::Central);
        let distributed = drive(ManagerPlacement::Distributed);
        assert_eq!(
            central.0, distributed.0,
            "seed {seed}: accept/reject verdicts diverge"
        );
        // Ids are compared through the admission-order remapping (the
        // distributed manager allocates from per-switch blocks, the oracle
        // from a global sequencer); sources, routes and deadline splits
        // must agree exactly.
        assert_eq!(central.1.len(), distributed.1.len(), "seed {seed}");
        let mut remap = std::collections::BTreeMap::new();
        for (k, ((c_src, c_id, c_path, c_splits), (d_src, d_id, d_path, d_splits))) in
            central.1.iter().zip(distributed.1.iter()).enumerate()
        {
            assert_eq!(c_src, d_src, "seed {seed}: admission {k} sources diverge");
            assert_eq!(c_path, d_path, "seed {seed}: admission {k} routes diverge");
            assert_eq!(
                c_splits, d_splits,
                "seed {seed}: admission {k} deadline splits diverge"
            );
            assert_eq!(
                remap.insert(*d_id, *c_id),
                None,
                "seed {seed}: distributed id {d_id} double-admitted"
            );
        }
        // Deliveries match byte-for-byte once the distributed channel ids
        // are remapped onto the central ones.
        let remapped: Vec<_> = distributed
            .2
            .into_iter()
            .map(|(rx, ch, payload, at)| (rx, remap[&ch], payload, at))
            .collect();
        assert_eq!(
            central.2, remapped,
            "seed {seed}: data delivery diverges byte-for-byte under id remapping"
        );
    }
}

/// Invariant 5: the churn process (the long-running admission soak of
/// `rt-traffic`) is **deterministic and placement-invariant** on every
/// random fabric: the same seed replays a byte-identical admission trace,
/// and the central oracle and the distributed per-switch control plane
/// produce that *same* trace — same admits, same rejects, same channel
/// ids, same release order — arrival by arrival, including under a
/// scripted trunk cut + repair whenever the fabric has a redundant trunk.
#[test]
fn churn_is_deterministic_and_placement_invariant_on_random_fabrics() {
    use std::sync::Arc;
    use switched_rt_ethernet::core::{
        DistributedChannelManager, FabricChannelManager, MultiHopAdmission,
    };
    use switched_rt_ethernet::traffic::{ChurnConfig, ChurnProcess};

    /// Is the topology still connected with trunk `(a, b)` removed?  Only
    /// such trunks may be cut: the churn process treats an unroutable
    /// establishment as a hard error, not a rejection.
    fn connected_without(topology: &Topology, cut: (SwitchId, SwitchId)) -> bool {
        let switches: Vec<SwitchId> = topology.switches().collect();
        let mut reached = vec![switches[0]];
        let mut frontier = vec![switches[0]];
        while let Some(s) = frontier.pop() {
            for (a, b) in topology.trunks() {
                if (a, b) == cut || (b, a) == cut {
                    continue;
                }
                let next = if a == s {
                    b
                } else if b == s {
                    a
                } else {
                    continue;
                };
                if !reached.contains(&next) {
                    reached.push(next);
                    frontier.push(next);
                }
            }
        }
        reached.len() == switches.len()
    }

    for seed in 0..SEEDS {
        let mut rng = Xoshiro256::new(0xc4a8_0000 ^ seed);
        let topology = random_topology(&mut rng);
        let dps = if rng.chance(0.5) {
            MultiHopDps::Asymmetric
        } else {
            MultiHopDps::Symmetric
        };
        // The first seeds churn 500 arrivals, the rest a quarter of that:
        // every fabric is still drawn, cut, repaired and compared.
        let (warmup, measured) = if seed < 4 { (100, 400) } else { (25, 100) };
        let mut config = ChurnConfig::new(seed)
            .windows(warmup, measured)
            .load(1.0, rng.range_inclusive(10, 60) as f64);
        // Cut (and later repair) a redundant trunk mid-run when the fabric
        // has one — fail-over and repair re-optimisation must be just as
        // deterministic as plain admission.
        if let Some((a, b)) = topology
            .trunks()
            .find(|&trunk| connected_without(&topology, trunk))
        {
            config =
                config
                    .cut_at(warmup + measured / 8, a, b)
                    .repair_at(warmup + measured / 2, a, b);
        }
        let process = ChurnProcess::new(config, &topology).expect("generated config is valid");

        let central = |process: &ChurnProcess| {
            let mut manager = FabricChannelManager::new(MultiHopAdmission::with_router(
                topology.clone(),
                dps,
                Arc::new(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
                    k: 3,
                })),
            ));
            process.run(&mut manager).expect("churn run completes")
        };
        let first = central(&process);
        let second = central(&process);
        assert_eq!(
            first.trace, second.trace,
            "seed {seed}: same seed must replay a byte-identical trace"
        );
        assert_eq!(first.trace_hash, second.trace_hash, "seed {seed}");

        let mut manager = DistributedChannelManager::new(
            topology.clone(),
            dps,
            Arc::new(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
                k: 3,
            })),
        );
        let distributed = process.run(&mut manager).expect("churn run completes");
        // Raw ids differ (per-switch id blocks), so placement parity is the
        // admission-order-normalized hash plus an explicit event remapping.
        assert_eq!(
            first.normalized_trace_hash, distributed.normalized_trace_hash,
            "seed {seed}: normalized admission traces diverge across placements"
        );
        assert_eq!(first.trace.len(), distributed.trace.len(), "seed {seed}");
        {
            use switched_rt_ethernet::traffic::ChurnEvent;
            let mut remap = std::collections::BTreeMap::new();
            for (ce, de) in first.trace.iter().zip(distributed.trace.iter()) {
                match (ce, de) {
                    (ChurnEvent::Admitted(a), ChurnEvent::Admitted(b)) => {
                        remap.insert(*a, *b);
                    }
                    (ChurnEvent::Released(a), ChurnEvent::Released(b)) => {
                        assert_eq!(
                            remap.get(a),
                            Some(b),
                            "seed {seed}: release order diverges across placements"
                        );
                    }
                    (x, y) => assert_eq!(x, y, "seed {seed}: event kinds diverge"),
                }
            }
        }
        assert!(
            first.attempts == warmup + measured && first.admitted > 0,
            "seed {seed}: the run must admit something ({} attempts, {} admitted)",
            first.attempts,
            first.admitted
        );
    }
}

/// Tentpole invariant: **adversarial mid-handshake fault survival**.  On
/// every random fabric, random trunk cuts, switch kills and repairs are
/// injected *between* individual control-frame deliveries of the two-phase
/// reservation — inside the convergence window where per-switch topology
/// views disagree and link-state floods are still propagating.  Frames
/// addressed to killed switches are lost, stranded partial reservations
/// must expire through their leases.  After every seed settles:
///
/// * **zero slack leak** — on every link of the fabric, the reserved load
///   equals the sum over currently admitted channels crossing it, and the
///   manager's own quiescence audit (ledgers ↔ registry ↔ id blocks)
///   passes;
/// * **no double admission** — no channel id is ever handed to two
///   admissions.
#[test]
fn adversarial_mid_handshake_faults_never_leak_slack_or_double_admit() {
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;
    use switched_rt_ethernet::core::DistributedChannelManager;
    use switched_rt_ethernet::types::HopLink;

    let mut total_accepted = 0usize;
    let mut total_verdicts = 0usize;
    for seed in 0..adversarial_seeds() {
        let mut rng = Xoshiro256::new(0xad7e_0000 ^ seed);
        let topology = random_topology(&mut rng);
        let nodes: Vec<NodeId> = topology.nodes().collect();
        let mut mgr = DistributedChannelManager::new(
            topology.clone(),
            if rng.chance(0.5) {
                MultiHopDps::Asymmetric
            } else {
                MultiHopDps::Symmetric
            },
            Arc::new(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
                k: 3,
            })),
        );
        let mut h = ControlHarness::new(&topology);
        let mut now = SimTime::from_millis(1);
        let mut alive: Vec<(SwitchId, SwitchId)> = topology.trunks().collect();
        let mut cut: Vec<(SwitchId, SwitchId)> = Vec::new();
        let mut dead: Vec<SwitchId> = Vec::new();

        for r in 0..8u8 {
            let src = nodes[rng.below(nodes.len() as u64) as usize];
            let mut dst = nodes[rng.below(nodes.len() as u64) as usize];
            if dst == src {
                dst = nodes[(nodes.iter().position(|&n| n == src).unwrap() + 1) % nodes.len()];
            }
            let src_switch = topology.switch_of(src).unwrap();
            if dead.contains(&src_switch) {
                // A node behind a killed access switch cannot even submit.
                continue;
            }
            let spec = RtChannelSpec::new(
                Slots::new(rng.range_inclusive(60, 140)),
                Slots::new(rng.range_inclusive(1, 3)),
                Slots::new(rng.range_inclusive(30, 60)),
            )
            .expect("generated spec is valid");
            h.submit(src, dst, spec, ConnectionRequestId::new(r));

            // Deliver the handshake frame by frame; one random fault fires
            // after a random number of deliveries — mid-probe, mid-reserve
            // or mid-confirm.
            let fault_step = rng.range_inclusive(1, 8);
            let accept = rng.chance(0.8);
            let mut steps = 0u64;
            loop {
                if h.awaiting_answer() > 0 {
                    h.answer(accept);
                }
                now = now.saturating_add(Duration::from_micros(10));
                if !h.step(&mut mgr, now).unwrap() {
                    if h.awaiting_answer() > 0 {
                        continue;
                    }
                    break;
                }
                steps += 1;
                if steps == fault_step {
                    match rng.below(3) {
                        0 if !alive.is_empty() => {
                            let k = rng.below(alive.len() as u64) as usize;
                            let (a, b) = alive.swap_remove(k);
                            mgr.handle_link_failure(a, b).unwrap();
                            h.flood(&mut mgr);
                            cut.push((a, b));
                        }
                        1 => {
                            let candidates: Vec<SwitchId> = topology
                                .switches()
                                .filter(|s| {
                                    !dead.contains(s)
                                        && alive.iter().any(|&(a, b)| a == *s || b == *s)
                                })
                                .collect();
                            if let Some(&s) =
                                candidates.get(rng.below(candidates.len().max(1) as u64) as usize)
                            {
                                mgr.handle_switch_failure(s).unwrap();
                                h.kill(s);
                                h.flood(&mut mgr);
                                dead.push(s);
                                alive.retain(|&(a, b)| a != s && b != s);
                            }
                        }
                        _ => {
                            if let Some(k) = (0..cut.len()).find(|&k| {
                                let (a, b) = cut[k];
                                !dead.contains(&a) && !dead.contains(&b)
                            }) {
                                let (a, b) = cut.remove(k);
                                mgr.handle_link_repair(a, b).unwrap();
                                h.flood(&mut mgr);
                                alive.push((a, b));
                            }
                        }
                    }
                }
            }
            // Half the time, let stranded leases expire before the next
            // arrival; the other half leaves them pending so the next
            // handshake races them.
            if rng.chance(0.5) {
                now = h.settle(&mut mgr, now).unwrap();
            }
        }
        now = h.settle(&mut mgr, now).unwrap();

        // Zero leak, externally: on every link of the fabric, the reserved
        // load equals the sum over admitted channels whose route crosses
        // it.  Stranded reservations, aborted handshakes and killed
        // coordinators must all have washed out.
        let mut expected: BTreeMap<HopLink, usize> = BTreeMap::new();
        for id in mgr.channel_ids() {
            let route = mgr
                .channel_route(id)
                .expect("registered channel has a route");
            for &link in &route.path {
                *expected.entry(link).or_default() += 1;
            }
        }
        for node in topology.nodes() {
            for link in [HopLink::Uplink(node), HopLink::Downlink(node)] {
                assert_eq!(
                    mgr.link_load(link),
                    expected.get(&link).copied().unwrap_or(0),
                    "seed {seed}: slack leak on {link}"
                );
            }
        }
        for (a, b) in topology.trunks() {
            for (from, to) in [(a, b), (b, a)] {
                let link = HopLink::Trunk { from, to };
                assert_eq!(
                    mgr.link_load(link),
                    expected.get(&link).copied().unwrap_or(0),
                    "seed {seed}: slack leak on {link}"
                );
            }
        }
        // Zero leak, internally: ledgers ↔ registry ↔ id blocks.
        mgr.audit_quiescent()
            .unwrap_or_else(|e| panic!("seed {seed}: quiescence audit failed: {e}"));

        // No double admission, ever.
        let accepted: Vec<ChannelId> = h.verdicts.iter().filter_map(|v| *v).collect();
        let unique: BTreeSet<ChannelId> = accepted.iter().copied().collect();
        assert_eq!(
            unique.len(),
            accepted.len(),
            "seed {seed}: a channel id was double-admitted"
        );
        total_accepted += accepted.len();
        total_verdicts += h.verdicts.len();
    }
    assert!(
        total_accepted > 0 && total_verdicts > total_accepted,
        "the adversarial matrix must admit and reject something \
         ({total_accepted} accepted / {total_verdicts} verdicts)"
    );
}

/// Views are shared, never written through.  All sites start on one
/// `Topology` allocation; a link-state write moves the writing site alone.
/// Random cuts and repairs (few enough at a time to keep the fabric
/// connected, so every flood reaches every site) — and, later, a switch
/// kill — are injected while earlier floods are still in flight and the
/// link-state frames delivered one at a time; every site is mirrored by a `Topology` of its own that
/// changes only when that site applies an announcement (newer epoch than it
/// has seen for that trunk).  After every delivery:
///
/// * each site's `view_of` equals its model on `fingerprint()` and
///   `failed_trunks()` — a write at one site never shows at another;
/// * two sites read one allocation exactly when their models agree, so the
///   distinct allocations never outnumber the distinct states, and once a
///   flood has converged every site that heard it is on one allocation —
///   also after cut → repair back to the healthy fabric.
#[test]
fn sites_share_one_view_per_fabric_state_and_never_see_each_others_writes() {
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use switched_rt_ethernet::core::DistributedChannelManager;
    use switched_rt_ethernet::frames::{Frame, ReservationOp};

    type Trunk = (SwitchId, SwitchId);
    /// One site's mirror: its fabric, and the newest epoch applied per trunk.
    struct Model {
        fabric: Topology,
        seen: BTreeMap<Trunk, u64>,
    }
    impl Model {
        fn apply(&mut self, (a, b): Trunk, alive: bool, epoch: u64) {
            let seen = self.seen.entry((a.min(b), a.max(b))).or_insert(0);
            if epoch > *seen {
                *seen = epoch;
                let _ = if alive {
                    self.fabric.repair_trunk(a, b)
                } else {
                    self.fabric.fail_trunk(a, b)
                };
            }
        }
    }

    let (mut shared_mid_flood, mut converged, mut healed) = (0, 0, 0);
    for seed in 0..adversarial_seeds() {
        for topology in [Topology::ring(5, 1), Topology::torus(3, 3, 2)] {
            let mut rng = Xoshiro256::new(0x51a7_ed00 ^ seed);
            let mut mgr = DistributedChannelManager::new(
                topology.clone(),
                MultiHopDps::Asymmetric,
                Arc::new(ShortestPathRouter::new()),
            );
            let mut h = ControlHarness::new(&topology);
            let now = SimTime::from_millis(1);
            let mut models: BTreeMap<SwitchId, Model> = topology
                .switches()
                .map(|s| {
                    let (fabric, seen) = (topology.clone(), BTreeMap::new());
                    (s, Model { fabric, seen })
                })
                .collect();
            let mut epoch = 0u64;

            // What must hold after every delivery and every injected event.
            let check = |mgr: &DistributedChannelManager, models: &BTreeMap<SwitchId, Model>| {
                let mut allocation_of: BTreeMap<Vec<Trunk>, *const Topology> = BTreeMap::new();
                let mut state_of: BTreeMap<*const Topology, Vec<Trunk>> = BTreeMap::new();
                for (s, model) in models {
                    let view = mgr.view_of(*s).expect("every switch has a site");
                    let failed: Vec<Trunk> = model.fabric.failed_trunks().collect();
                    assert_eq!(view.fingerprint(), model.fabric.fingerprint(), "{s}");
                    assert_eq!(view.failed_trunks().collect::<Vec<_>>(), failed, "{s}");
                    let at: *const Topology = view;
                    assert_eq!(
                        *allocation_of.entry(failed.clone()).or_insert(at),
                        at,
                        "{s}"
                    );
                    assert_eq!(*state_of.entry(at).or_insert(failed.clone()), failed, "{s}");
                }
                allocation_of.len()
            };
            assert_eq!(check(&mgr, &models), 1, "every site starts on one view");

            // An API-level trunk event: both adjacent switches apply it at
            // once, under one fresh epoch.
            let mut originate = |models: &mut BTreeMap<SwitchId, Model>, trunk: Trunk, alive| {
                epoch += 1;
                for origin in [trunk.0, trunk.1] {
                    models.get_mut(&origin).unwrap().apply(trunk, alive, epoch);
                }
            };
            // Deliver one queued frame, mirroring it into the receiver's model.
            let deliver = |mgr: &mut DistributedChannelManager,
                           h: &mut ControlHarness,
                           models: &mut BTreeMap<SwitchId, Model>| {
                if let Some((at, _, Frame::Reservation(frame))) = h.next() {
                    assert_eq!(frame.op, ReservationOp::LinkState);
                    let trunk = (
                        SwitchId::new(frame.values[0] as u32),
                        SwitchId::new(frame.values[1] as u32),
                    );
                    let (alive, epoch) = (frame.values[2] != 0, frame.values[3]);
                    models.get_mut(at).unwrap().apply(trunk, alive, epoch);
                }
                h.step(mgr, now).unwrap()
            };

            // A ring survives one cut in one piece, the 4-regular torus three.
            let cuts_at_once = if topology.switch_count() == 5 { 1 } else { 3 };
            let mut killed = None;
            for event in 0..12 {
                let cut: Vec<Trunk> = mgr.topology().failed_trunks().collect();
                let up: Vec<Trunk> = mgr.topology().trunks().collect();
                let healing = (7..10).contains(&event);
                let full = killed.is_none() && cut.len() == cuts_at_once;
                if event == 10 {
                    // One switch dies: its trunks are cut one epoch each, it
                    // applies them itself but announces nothing, and no frame
                    // reaches it any more.
                    let dead = SwitchId::new(rng.below(topology.switch_count() as u64) as u32);
                    let neighbours: Vec<SwitchId> = mgr.topology().neighbours(dead).collect();
                    if mgr.handle_switch_failure(dead).is_ok() {
                        for n in neighbours {
                            originate(&mut models, (dead, n), false);
                        }
                        h.kill(dead);
                        killed = Some(dead);
                    }
                } else if !cut.is_empty() && (healing || full || rng.chance(0.4)) {
                    let (a, b) = cut[rng.below(cut.len() as u64) as usize];
                    if Some(a) != killed && Some(b) != killed {
                        mgr.handle_link_repair(a, b).unwrap();
                        originate(&mut models, (a, b), true);
                    }
                } else if !healing {
                    let (a, b) = up[rng.below(up.len() as u64) as usize];
                    mgr.handle_link_failure(a, b).unwrap();
                    originate(&mut models, (a, b), false);
                }
                h.flood(&mut mgr);
                check(&mgr, &models);
                // Mostly a partial delivery, so the next event lands while
                // sites still disagree; the healing stretch drains.
                let deliveries = if healing {
                    usize::MAX
                } else {
                    rng.below(30) as usize
                };
                for _ in 0..deliveries {
                    if !deliver(&mut mgr, &mut h, &mut models) {
                        break;
                    }
                    let states = check(&mgr, &models);
                    shared_mid_flood += usize::from(states > 1 && states < models.len());
                }
                if healing {
                    // Every flood has drained over a connected fabric: all
                    // sites have heard everything and are on one allocation —
                    // the healthy fabric's, once the last cut is repaired.
                    assert_eq!(check(&mgr, &models), 1);
                    converged += 1;
                    if mgr.topology().failed_trunks().next().is_none() {
                        let view = mgr.view_of(SwitchId::new(0)).unwrap();
                        assert_eq!(view.fingerprint(), topology.fingerprint());
                        healed += 1;
                    }
                }
            }
            // Past the kill the fabric may be in pieces; what is left to
            // deliver still never writes through a shared view.
            while deliver(&mut mgr, &mut h, &mut models) {
                check(&mgr, &models);
            }
        }
    }
    // The walks really held several states at once with sites sharing them,
    // really converged, and really came back to the healthy fabric.
    assert!(
        shared_mid_flood > 50 && converged > 0 && healed > 0,
        "{shared_mid_flood} shared mid-flood, {converged} converged, {healed} healed"
    );
}

/// Invariant 3: on random fabrics, every channel the analysis admits keeps
/// its promise on the wire — zero deadline misses and every latency within
/// the hop-aware Eq. 18.1 bound.
#[test]
fn admitted_channels_never_miss_deadlines_on_random_fabrics() {
    for seed in 0..SEEDS {
        let mut rng = Xoshiro256::new(0x5eed_0000 ^ seed);
        let topology = random_topology(&mut rng);
        let nodes: Vec<NodeId> = topology.nodes().collect();
        let mut net = RtNetwork::builder()
            .topology(topology)
            .router(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
                k: 3,
            }))
            .multihop_dps(if rng.chance(0.5) {
                MultiHopDps::Asymmetric
            } else {
                MultiHopDps::Symmetric
            })
            .build()
            .expect("generated fabric builds");
        // A handful of random channel requests; rejections are fine (that
        // is admission doing its job), admitted ones must deliver.
        let mut admitted = Vec::new();
        for _ in 0..6 {
            let src = nodes[rng.below(nodes.len() as u64) as usize];
            let mut dst = nodes[rng.below(nodes.len() as u64) as usize];
            if dst == src {
                dst = nodes[(nodes.iter().position(|&n| n == src).unwrap() + 1) % nodes.len()];
            }
            let spec = RtChannelSpec::new(
                Slots::new(rng.range_inclusive(60, 140)),
                Slots::new(rng.range_inclusive(1, 3)),
                Slots::new(rng.range_inclusive(30, 60)),
            )
            .expect("generated spec is valid");
            if let Some(tx) = net.establish_channel(src, dst, spec).unwrap() {
                admitted.push((src, tx.id));
            }
        }
        let start = net.now() + Duration::from_millis(1);
        for &(src, id) in &admitted {
            net.send_periodic(src, id, 5, 600, start).unwrap();
        }
        net.run_to_completion().unwrap();
        let stats = net.simulator().stats();
        assert!(
            stats.all_deadlines_met(),
            "seed {seed}: {} admitted channels missed deadlines ({})",
            admitted.len(),
            stats.summary()
        );
        assert!(net.received_messages().iter().all(|m| !m.missed_deadline));
        for &(_, id) in &admitted {
            let bound = net.channel_deadline_bound(id).expect("admitted channel");
            if let Some(ch) = stats.channel(id) {
                assert!(
                    ch.max_latency <= bound,
                    "seed {seed}: channel {id} worst {} exceeds bound {bound}",
                    ch.max_latency
                );
            }
        }
        // Conservation holds for the full stack too (handshake frames
        // included).
        assert_eq!(
            net.simulator().injected_count(),
            stats.total_delivered() + stats.total_dropped(),
            "seed {seed}: full-stack conservation violated ({})",
            stats.summary()
        );
    }
}

// --- incremental rebuilds -------------------------------------------------

/// The incremental single-delta rebuild must be invisible: after any cut
/// (including disconnecting ones) and after the matching repair, the
/// cached table equals a from-scratch build — across the full random
/// fabric matrix, with the cache counters proving the cheap path ran.
#[test]
fn incremental_rebuilds_match_from_scratch_across_seeds() {
    let mut incremental_seen = 0u64;
    for seed in 0..SEEDS {
        let mut rng = Xoshiro256::new(0x10c4_e000 ^ seed);
        let topology = random_topology(&mut rng);
        let trunks: Vec<(SwitchId, SwitchId)> = topology.trunks().collect();
        let (a, b) = trunks[rng.below(trunks.len() as u64) as usize];

        // Healthy -> cut: the cache must take the single-delta path and
        // still match a from-scratch build of the degraded fabric.
        let cache = NextHopCache::new();
        let healthy_cached = cache.get(&topology);
        let mut degraded = topology.clone();
        degraded.fail_trunk(a, b).unwrap();
        let after_cut = cache.get(&degraded);
        assert_eq!(
            *after_cut,
            *NextHopCache::new().get(&degraded),
            "seed {seed}: incremental cut {a}-{b} diverges from scratch"
        );
        let stats = cache.stats();
        assert_eq!(stats.full_rebuilds, 1, "seed {seed}: cut fell back to full");
        incremental_seen += stats.incremental_rebuilds;

        // Cut -> repair, through a cache that never saw the healthy
        // fabric: the repair delta must reproduce the healthy table.
        let repair_cache = NextHopCache::new();
        repair_cache.get(&degraded);
        let mut repaired = degraded.clone();
        repaired.repair_trunk(a, b).unwrap();
        let after_repair = repair_cache.get(&repaired);
        assert_eq!(
            *after_repair, *healthy_cached,
            "seed {seed}: incremental repair {a}-{b} diverges from the healthy table"
        );
        let stats = repair_cache.stats();
        assert_eq!(
            stats.full_rebuilds, 1,
            "seed {seed}: repair fell back to full"
        );
        incremental_seen += stats.incremental_rebuilds;
    }
    assert_eq!(
        incremental_seen,
        2 * SEEDS,
        "every cut and every repair must take the incremental path"
    );
}
