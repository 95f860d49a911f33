//! Deterministic fail-over regressions: cut a ring / torus trunk mid-run
//! and prove the three guarantees of the failure model:
//!
//! 1. every affected admitted channel is re-routed over a surviving path
//!    (or reported dropped when none can admit it), keeping its channel id,
//! 2. frames generated after re-admission meet the hop-aware Eq. 18.1 bound
//!    of the *new* route — zero post-re-admission deadline misses,
//! 3. channels whose links are disjoint from the failure and from every
//!    re-route keep byte-for-byte identical delivery sequences to a
//!    fault-free run, and the whole fail-over story is scheduler-invariant
//!    and frame-conserving.

use std::collections::{BTreeMap, BTreeSet};

use switched_rt_ethernet::core::{ChannelRoute, MultiHopDps, RtChannelSpec, RtNetwork};
use switched_rt_ethernet::traffic::FailoverScenario;
use switched_rt_ethernet::types::{
    ChannelId, Duration, HopLink, NodeId, RoutePolicy, ShortestPathRouter, SimTime, Slots, SwitchId,
};

fn conservation_holds(net: &RtNetwork) {
    let stats = net.simulator().stats();
    assert_eq!(
        net.simulator().injected_count(),
        stats.total_delivered() + stats.total_dropped(),
        "conservation violated: {}",
        stats.summary()
    );
}

/// Ring closing-trunk cut mid-run: the affected channel is re-routed the
/// long way around (same id), frames in flight over the dead trunk are lost
/// and counted, post-re-admission traffic meets the new 5-hop bound, and a
/// same-switch bystander channel delivers byte-for-byte as in a fault-free
/// run.
#[test]
fn ring_trunk_cut_mid_run_reroutes_and_meets_bounds() {
    let scenario = FailoverScenario::ring_trunk_cut(4, 1, 1);
    let (cut_from, cut_to) = scenario.cut_trunk();
    let spec = RtChannelSpec::paper_default();
    let start1 = SimTime::from_millis(5);
    // Mid-flight cut: 100 us after the first message's frames start, some
    // are still crossing the fabric.
    let cut_at = start1 + Duration::from_micros(100);
    let start2 = cut_at + Duration::from_millis(1);

    let drive = |cut: bool| {
        let mut net = RtNetwork::builder()
            .topology(scenario.fabric().topology())
            .router(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
                k: 3,
            }))
            .multihop_dps(MultiHopDps::Symmetric)
            .build()
            .unwrap();
        // Affected: master on sw0 -> slave on sw3 via the closing trunk.
        let affected_src = scenario.fabric().master(0, 0);
        let affected = net
            .establish_channel(affected_src, scenario.fabric().slave(3, 0), spec)
            .unwrap()
            .expect("empty ring admits the channel");
        assert_eq!(
            net.manager().channel_route(affected.id).unwrap().path.len(),
            3
        );
        // Bystander: master -> slave on sw2, disjoint from the cut trunk
        // and from the affected channel's re-route (which only adds trunk
        // hops and the same sw3 downlink).
        let local_src = scenario.fabric().master(2, 0);
        let local = net
            .establish_channel(local_src, scenario.fabric().slave(2, 0), spec)
            .unwrap()
            .expect("same-switch channel is admitted");

        net.send_periodic(affected_src, affected.id, 3, 700, start1)
            .unwrap();
        net.send_periodic(local_src, local.id, 8, 700, start1)
            .unwrap();
        net.run_until(cut_at).unwrap();
        if cut {
            let report = net.fail_trunk(cut_from, cut_to).unwrap();
            assert_eq!(report.rerouted.len(), 1, "the cross-ring channel re-routes");
            assert_eq!(
                report.rerouted[0].id, affected.id,
                "channel id is preserved"
            );
            assert_eq!(report.rerouted[0].path.len(), 5, "the long way around");
            assert!(report.dropped.is_empty());
            assert_eq!(report.unaffected, 1);
            // Post-re-admission traffic on the new route.
            net.send_periodic(affected_src, affected.id, 5, 700, start2)
                .unwrap();
        }
        net.run_to_completion().unwrap();
        conservation_holds(&net);

        let local_seq: Vec<(u64, bool)> = net
            .received_messages()
            .iter()
            .filter(|m| m.channel == local.id)
            .map(|m| (m.delivered_at.as_nanos(), m.missed_deadline))
            .collect();
        (net, affected.id, local_seq)
    };

    let (net, affected_id, local_with_cut) = drive(true);
    let stats = net.simulator().stats();
    // Nothing — pre-cut, in-flight or post-re-admission — missed a
    // deadline; frames lost on the dead trunk are counted, not delivered.
    assert!(
        stats.all_deadlines_met(),
        "deadline misses after fail-over: {}",
        stats.summary()
    );
    assert!(net.received_messages().iter().all(|m| !m.missed_deadline));
    // Every measured latency on the re-routed channel fits the *new* 5-hop
    // bound (post-re-admission the layer stamps against it, and the wire
    // enforces the re-partitioned per-hop budgets).
    let bound_after = net.channel_deadline_bound(affected_id).unwrap();
    let worst = stats.channel(affected_id).unwrap().max_latency;
    assert!(
        worst <= bound_after,
        "worst {worst} exceeds post-fail-over bound {bound_after}"
    );
    // The re-route really avoided the dead trunk and used the detour.
    assert!(net
        .simulator()
        .stats()
        .hop_link(HopLink::Trunk {
            from: SwitchId::new(1),
            to: SwitchId::new(2),
        })
        .is_some());

    // Byte-for-byte: the sw2-local channel cannot tell the two worlds
    // apart.
    let (_, _, local_without_cut) = drive(false);
    assert!(!local_with_cut.is_empty());
    assert_eq!(
        local_with_cut, local_without_cut,
        "a channel off the failed path must keep its exact delivery sequence"
    );
}

/// Torus grid-trunk cut: a redundant fabric re-routes *every* affected
/// channel (nothing is dropped), and post-cut traffic meets the new bounds
/// with zero misses.
#[test]
fn torus_link_cut_reroutes_all_affected_channels() {
    let scenario = FailoverScenario::torus_link_cut(3, 3, 1, 1);
    let (cut_from, cut_to) = scenario.cut_trunk();
    let spec = RtChannelSpec::paper_default();
    let mut net = RtNetwork::builder()
        .topology(scenario.fabric().topology())
        .router(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
            k: 4,
        }))
        .multihop_dps(MultiHopDps::Asymmetric)
        .build()
        .unwrap();
    // Two channels crossing the doomed trunk (one per direction) and one
    // far away.
    let crossing = [
        (
            scenario.fabric().master(0, 0),
            scenario.fabric().slave(1, 0),
        ),
        (
            scenario.fabric().master(1, 0),
            scenario.fabric().slave(0, 0),
        ),
    ];
    let mut affected_ids = Vec::new();
    for &(src, dst) in &crossing {
        let tx = net.establish_channel(src, dst, spec).unwrap().unwrap();
        assert_eq!(
            net.manager().channel_route(tx.id).unwrap().path.len(),
            3,
            "pre-cut routes use the direct trunk"
        );
        affected_ids.push((src, tx.id));
    }
    let far_src = scenario.fabric().master(4, 0);
    let far = net
        .establish_channel(far_src, scenario.fabric().slave(5, 0), spec)
        .unwrap()
        .unwrap();

    let report = net.fail_trunk(cut_from, cut_to).unwrap();
    assert_eq!(report.rerouted.len(), 2, "the torus re-routes everything");
    assert!(report.dropped.is_empty(), "redundancy means no drops");
    assert_eq!(report.unaffected, 1);
    for (_, id) in &affected_ids {
        let route = net.manager().channel_route(*id).unwrap();
        assert_eq!(route.path.len(), 4, "the detour adds exactly one trunk hop");
        assert!(!route.path.iter().any(|l| matches!(
            l,
            HopLink::Trunk { from, to }
            if (*from == cut_from && *to == cut_to) || (*from == cut_to && *to == cut_from)
        )));
    }

    // Post-re-admission traffic on all three channels: zero misses, every
    // latency within its channel's (new) bound.
    let start = net.now() + Duration::from_millis(1);
    for &(src, id) in &affected_ids {
        net.send_periodic(src, id, 6, 900, start).unwrap();
    }
    net.send_periodic(far_src, far.id, 6, 900, start).unwrap();
    net.run_to_completion().unwrap();
    conservation_holds(&net);
    let stats = net.simulator().stats();
    assert!(stats.all_deadlines_met(), "{}", stats.summary());
    for (_, id) in affected_ids.iter().chain([(far_src, far.id)].iter()) {
        let bound = net.channel_deadline_bound(*id).unwrap();
        let worst = stats.channel(*id).unwrap().max_latency;
        assert!(worst <= bound, "channel {id}: {worst} > {bound}");
    }
}

/// The same cut at scale: the 8x8 torus with 1 024 nodes, 40 channels under
/// k-shortest fallback, eight of them pinned across the doomed trunk, the cut
/// landing mid-flight of the first batch.  Every count is exact, and every
/// channel link-disjoint from the old and the new routes of the affected
/// ones delivers exactly as in a fault-free run on the same timeline.
#[test]
fn torus_1024_mid_run_cut_reroutes_the_pinned_eight_and_spares_the_rest() {
    let scenario = FailoverScenario::torus_link_cut(8, 8, 8, 8);
    let (cut_from, cut_to) = scenario.cut_trunk();
    let spec = RtChannelSpec::paper_default();
    // The pinned channels (sw0 -> sw1) get a roomier deadline: their
    // three-trunk detours have two more hops than the direct route and all
    // eight must re-admit.  The background is 32 neighbour-to-neighbour
    // channels (switch s to s + 1, the direct trunk, never via sw0).
    let pinned_spec = RtChannelSpec::new(spec.period, spec.capacity, Slots::new(60)).unwrap();
    let fabric = scenario.fabric();
    let mut pairs: Vec<_> = (0..8u64)
        .map(|i| (fabric.master(0, i), fabric.slave(1, i), pinned_spec))
        .collect();
    pairs.extend((1..33u32).map(|s| {
        (
            fabric.master(s, u64::from(s)),
            fabric.slave(s + 1, u64::from(s)),
            spec,
        )
    }));

    type Trace = Vec<(NodeId, u64, bool)>;
    let drive = |cut: bool| {
        let mut net = RtNetwork::builder()
            .topology(fabric.topology())
            .router(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
                k: 4,
            }))
            .multihop_dps(MultiHopDps::Asymmetric)
            .build()
            .unwrap();
        let mut routes_before: Vec<ChannelRoute> = Vec::new();
        for &(src, dst, pair_spec) in &pairs {
            if let Some(tx) = net.establish_channel(src, dst, pair_spec).unwrap() {
                routes_before.push(net.manager().channel_route(tx.id).unwrap());
            }
        }
        // One timeline for both worlds: batch 1 well after establishment,
        // the cut mid-flight of its first messages, batch 2 after
        // re-admission.
        let start1 = SimTime::from_millis(100);
        assert!(net.now() < start1, "establishment ends before batch 1");
        for r in &routes_before {
            net.send_periodic(r.source, r.id, 3, 1000, start1).unwrap();
        }
        let cut_at = start1 + Duration::from_micros(400);
        net.run_until(cut_at).unwrap();
        let report = cut.then(|| net.fail_trunk(cut_from, cut_to).unwrap());
        let start2 = cut_at + Duration::from_millis(5);
        for r in &routes_before {
            net.send_periodic(r.source, r.id, 3, 1000, start2).unwrap();
        }
        net.run_to_completion().unwrap();
        conservation_holds(&net);
        let mut traces: BTreeMap<ChannelId, Trace> = BTreeMap::new();
        for m in net.received_messages() {
            let at = m.delivered_at.as_nanos();
            let seen = (m.receiver, at, m.missed_deadline);
            traces.entry(m.channel).or_default().push(seen);
        }
        let misses = net.simulator().stats().total_deadline_misses;
        (routes_before, report, traces, misses)
    };

    let (routes_before, report, traces, misses) = drive(true);
    let report = report.expect("the cut world reports its fail-over");
    assert_eq!(routes_before.len(), 40, "40 of 40 admitted");
    assert_eq!(
        report.rerouted.len(),
        8,
        "exactly the pinned eight re-route"
    );
    assert!(report.dropped.is_empty(), "the torus is redundant");
    assert_eq!(misses, 0, "post-re-admission frames meet the new bounds");

    let (_, _, reference, _) = drive(false);
    let affected: BTreeSet<ChannelId> = report.rerouted.iter().map(|r| r.id).collect();
    let touched: BTreeSet<HopLink> = routes_before
        .iter()
        .filter(|r| affected.contains(&r.id))
        .chain(&report.rerouted)
        .flat_map(|r| r.path.iter().copied())
        .collect();
    let bystanders: Vec<ChannelId> = routes_before
        .iter()
        .filter(|r| r.path.iter().all(|l| !touched.contains(l)))
        .map(|r| r.id)
        .collect();
    assert_eq!(bystanders.len(), 30);
    for id in bystanders {
        assert!(!traces[&id].is_empty());
        assert_eq!(
            traces[&id], reference[&id],
            "channel {id} is off the failed path and must not notice the cut"
        );
    }
}

/// A released channel's frames are dropped on the wire and counted — the
/// full-stack version of the teardown satellite: teardown races ahead of
/// already-scheduled periodic traffic, and none of it is delivered.
#[test]
fn teardown_drops_late_frames_instead_of_delivering_them() {
    let scenario = FailoverScenario::ring_trunk_cut(4, 1, 1);
    let spec = RtChannelSpec::paper_default();
    let mut net = RtNetwork::builder()
        .topology(scenario.fabric().topology())
        .multihop_dps(MultiHopDps::Symmetric)
        .build()
        .unwrap();
    let src = scenario.fabric().master(0, 0);
    let tx = net
        .establish_channel(src, scenario.fabric().slave(3, 0), spec)
        .unwrap()
        .unwrap();
    // Schedule 4 messages (12 frames) well in the future, then tear the
    // channel down before any of them reaches the fabric.
    let start = net.now() + Duration::from_millis(20);
    net.send_periodic(src, tx.id, 4, 500, start).unwrap();
    net.teardown_channel(src, tx.id).unwrap();
    assert_eq!(net.channel_count(), 0);
    net.run_to_completion().unwrap();

    let stats = net.simulator().stats();
    assert_eq!(
        net.received_messages().len(),
        0,
        "released channel must not deliver"
    );
    assert_eq!(
        stats.released_channel_dropped,
        4 * spec.capacity.get(),
        "every late frame is dropped and counted: {}",
        stats.summary()
    );
    conservation_holds(&net);
}

/// A teardown landing while data frames are at *every* stage of flight —
/// on the uplink, inside a switch, already on the destination downlink —
/// must never abort the run: frames behind the release are dropped and
/// counted, frames already past their last switch are delivered to a
/// receiver that has forgotten the channel and are simply ignored.
#[test]
fn mid_flight_teardown_never_aborts_the_run() {
    use switched_rt_ethernet::core::RtNetwork;
    use switched_rt_ethernet::types::Topology;
    let spec = RtChannelSpec::paper_default();
    // Sweep the teardown instant across the delivery pipeline of one
    // 3-frame message over a 3-hop route.
    for offset_us in [10u64, 60, 90, 120, 150, 180, 400] {
        let mut net = RtNetwork::builder()
            .topology(Topology::line(2, 1))
            .multihop_dps(MultiHopDps::Symmetric)
            .build()
            .unwrap();
        let src = switched_rt_ethernet::types::NodeId::new(0);
        let dst = switched_rt_ethernet::types::NodeId::new(1);
        let tx = net.establish_channel(src, dst, spec).unwrap().unwrap();
        let start = net.now();
        net.send_periodic(src, tx.id, 1, 500, start).unwrap();
        net.run_until(start + Duration::from_micros(offset_us))
            .unwrap();
        net.teardown_channel(src, tx.id).unwrap();
        net.run_to_completion()
            .unwrap_or_else(|e| panic!("offset {offset_us} us: run aborted: {e}"));
        conservation_holds(&net);
        assert_eq!(net.channel_count(), 0);
    }
}

/// The entire fail-over path — establishment, mid-run cut, re-admission,
/// post-cut traffic — in one calendar: control frames, a drained port and
/// re-routed data interleave (debug builds check every pop against the
/// reference heap), and the run conserves frames.
#[test]
fn failover_runs_are_scheduler_invariant() {
    let scenario = FailoverScenario::ring_trunk_cut(4, 2, 2);
    let (cut_from, cut_to) = scenario.cut_trunk();
    let spec = RtChannelSpec::paper_default();
    let mut net = RtNetwork::builder()
        .topology(scenario.fabric().topology())
        .router(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
            k: 3,
        }))
        .multihop_dps(MultiHopDps::Asymmetric)
        .build()
        .unwrap();
    let pairs = [
        (
            scenario.fabric().master(0, 0),
            scenario.fabric().slave(3, 0),
        ),
        (
            scenario.fabric().master(1, 0),
            scenario.fabric().slave(2, 0),
        ),
        (
            scenario.fabric().master(2, 1),
            scenario.fabric().slave(0, 1),
        ),
    ];
    let mut channels = Vec::new();
    for &(src, dst) in &pairs {
        if let Some(tx) = net.establish_channel(src, dst, spec).unwrap() {
            channels.push((src, tx.id));
        }
    }
    let start = SimTime::from_millis(5);
    for &(src, id) in &channels {
        net.send_periodic(src, id, 4, 800, start).unwrap();
    }
    let cut_at = start + Duration::from_micros(150);
    net.run_until(cut_at).unwrap();
    net.fail_trunk(cut_from, cut_to).unwrap();
    let start2 = cut_at + Duration::from_millis(1);
    for &(src, id) in &channels {
        if net.manager().channel_route(id).is_some() {
            net.send_periodic(src, id, 4, 800, start2).unwrap();
        }
    }
    net.run_to_completion().unwrap();
    conservation_holds(&net);
    assert!(!channels.is_empty(), "the empty ring admits channels");
    assert!(net.received_messages().iter().all(|m| !m.missed_deadline));
}
