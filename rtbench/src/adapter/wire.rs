//! The `wire_*` workloads: traffic replayed on the simulated fabric, the
//! 64-switch / 1024-node torus `FabricScenario::torus(8, 8, 8, 8)`.
//!
//! `wire_preload` injects a million small frames up front and drains them:
//! a seven-figure pending-event set, cold arena allocation, `rt-core` idle.
//! `wire_rt` runs the whole stack through `RtNetwork`: establishment over the
//! wire, periodic RT traffic on every admitted channel, best-effort cross
//! traffic, and the check that no channel exceeded the paper's bound.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rt_core::{MultiHopDps, RtNetwork};
use rt_netsim::{SimConfig, Simulator};
use rt_traffic::{FabricScenario, HeterogeneousSpecs, ScenarioFrameSource};
use rt_types::{Duration, Router, ShortestPathRouter};

use super::kernels::{self, Bench};
use super::traced::{router_state, Traced};
use super::{ratio, secs, Fnv, Repeat, TracedRepeat, SMOKE_DIVISOR};
use crate::alloc::{allocations, live_bytes};
use crate::json::Value;
use crate::span::{Profile, Tracer};
use crate::stats::{percentile, quartiles};

fn torus() -> FabricScenario {
    FabricScenario::torus(8, 8, 8, 8)
}

/// Run `f` inside a span of `tracer`, if there is one.
fn phase<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let open = tracer.map(|t| (t, t.enter(name)));
    let result = f();
    if let Some((tracer, open)) = open {
        tracer.exit(open);
    }
    result
}

/// Store what the kernels measured, turning a kernel that lost frames into
/// a broken check.
fn kernel(traced: &mut TracedRepeat, name: &'static str, outcome: Result<f64, String>) -> f64 {
    match outcome {
        Ok(value) => {
            traced.layers.insert(name, value);
            value
        }
        Err(e) => {
            traced.repeat.fail(1, format!("kernel {name}: {e}"));
            0.0
        }
    }
}

// --- wire_preload ---------------------------------------------------------

/// What `wire_preload` runs.
#[derive(Debug, Clone, Copy)]
pub struct PreloadPlan {
    frames: u64,
}

impl PreloadPlan {
    /// 64-byte payloads keep frame construction and delivery copies small,
    /// so the run weighs the event loop, not `memcpy`.
    const PAYLOAD: usize = 64;
    /// Half a microsecond apart: far faster than the fabric drains, so
    /// nearly the whole batch is pending at once.
    const SPACING: Duration = Duration::from_nanos(500);

    pub fn of(smoke: bool) -> PreloadPlan {
        PreloadPlan {
            frames: 1_000_000 / if smoke { SMOKE_DIVISOR } else { 1 },
        }
    }

    pub fn to_json(self) -> Value {
        Value::obj([
            ("fabric", Value::str("torus(8,8,8,8)")),
            ("frames", Value::count(self.frames)),
            ("payload_bytes", Value::count(Self::PAYLOAD as u64)),
            ("spacing_ns", Value::count(Self::SPACING.as_nanos())),
        ])
    }
}

/// What the traced pass reads off a `wire_preload` run besides the spans.
#[derive(Debug, Default)]
struct PreloadSeen {
    events: u64,
    allocations: u64,
    arena_reuses: u64,
    arena_fresh: u64,
    arena_high_water: u64,
}

fn preload(plan: &PreloadPlan, tracer: Option<&Tracer>) -> (Repeat, PreloadSeen) {
    let mut repeat = Repeat {
        attempted: plan.frames,
        offered: plan.frames,
        ..Repeat::default()
    };
    let started = Instant::now();
    let scenario = torus();
    let mut sim = Simulator::with_topology(SimConfig::default(), scenario.topology())
        .expect("the benchmark fabrics are valid");
    let batch = ScenarioFrameSource::new(scenario, plan.frames, PreloadPlan::SPACING)
        .payload_len(PreloadPlan::PAYLOAD)
        .drain_all();
    repeat.setup_s = secs(started);

    let allocations_before = allocations();
    let window = Instant::now();
    let injected = phase(tracer, "netsim.sim.inject_batch", || {
        sim.inject_batch(batch)
    });
    phase(tracer, "netsim.sim.run_to_idle", || sim.run_to_idle());
    let deliveries = phase(tracer, "netsim.sim.poll_deliveries", || {
        sim.poll_deliveries()
    });
    repeat.window_s = secs(window);
    let seen_allocations = allocations() - allocations_before;

    if let Err(e) = injected {
        repeat.fail(plan.frames, format!("inject_batch refused the batch: {e}"));
    }
    let delivered = deliveries.len() as u64;
    let stats = sim.stats();
    repeat.work = delivered;
    repeat.accepted = delivered;
    // The user makes one blocking replay per repeat; it is the one latency
    // sample this workload has.
    repeat.latencies_ns = vec![(repeat.window_s * 1e9) as u64];
    if delivered != plan.frames {
        repeat.fail(
            plan.frames.abs_diff(delivered),
            format!("{delivered} of {} frames delivered", plan.frames),
        );
    }
    for (count, what) in [
        (stats.total_dropped(), "frames dropped"),
        (sim.arena_outstanding() as u64, "arena buffers leaked"),
        (stats.clamped_events, "events clamped to the present"),
    ] {
        if count != 0 {
            repeat.fail(count, format!("{count} {what}"));
        }
    }
    let mut digest = Fnv::new();
    for delivery in &deliveries {
        digest.mix(delivery.frame.get());
        digest.mix(u64::from(delivery.receiver.get()));
        digest.mix(delivery.delivered_at.as_nanos());
    }
    repeat.digest = digest.finish();
    let events = sim.events_processed();
    repeat.facts = vec![
        ("events", events as f64),
        ("events_per_frame", ratio(events, delivered)),
        ("sim_end_ns", sim.now().as_nanos() as f64),
    ];
    let arena = sim.arena_stats();
    let seen = PreloadSeen {
        events,
        allocations: seen_allocations,
        arena_reuses: arena.reuses,
        arena_fresh: arena.fresh_allocations,
        arena_high_water: arena.high_water as u64,
    };
    (repeat, seen)
}

pub fn run_preload(plan: &PreloadPlan) -> Repeat {
    preload(plan, None).0
}

pub fn run_preload_traced(plan: &PreloadPlan, smoke: bool) -> TracedRepeat {
    let bench = Bench::of(smoke);
    let tracer = Tracer::new(16);
    let (repeat, seen) = preload(plan, Some(&tracer));
    let (spans, dropped_spans) = tracer.finish();
    let mut traced = TracedRepeat {
        repeat,
        layers: BTreeMap::new(),
        profile: Profile::of(&spans),
        spans,
        dropped_spans,
        notes: Vec::new(),
    };
    let frames = plan.frames;
    let span_ns = |name: &str| traced.profile.get(name).total_ns;
    let per_layer = [
        (
            "netsim.sim.ns_per_event",
            ratio(span_ns("netsim.sim.run_to_idle"), seen.events),
        ),
        ("netsim.sim.events_per_frame", ratio(seen.events, frames)),
        (
            "netsim.sim.inject_ns_per_frame",
            ratio(span_ns("netsim.sim.inject_batch"), frames),
        ),
        (
            "netsim.sim.poll_ns_per_frame",
            ratio(span_ns("netsim.sim.poll_deliveries"), frames),
        ),
        (
            "netsim.sim.allocs_per_frame",
            ratio(seen.allocations, frames),
        ),
        (
            "frames.arena.reuse_ratio",
            ratio(seen.arena_reuses, seen.arena_reuses + seen.arena_fresh),
        ),
        ("frames.arena.high_water", seen.arena_high_water as f64),
        (
            "frames.arena.alloc_free_ns",
            kernels::arena_alloc_free(PreloadPlan::PAYLOAD + 60, &bench),
        ),
        (
            "netsim.event.push_pop_ns_1m",
            kernels::event_push_pop(1_000_000, &bench),
        ),
    ];
    traced.layers.extend(per_layer);
    let streamed = kernels::stream_ns_per_event(torus(), frames, PreloadPlan::PAYLOAD);
    kernel(&mut traced, "netsim.sim.stream_ns_per_event", streamed);
    let sharded = kernels::shard2_ns_per_event(torus(), frames / 4);
    kernel(&mut traced, "netsim.shard.ns_per_event_2", sharded);
    traced
}

// --- wire_rt --------------------------------------------------------------

/// What `wire_rt` runs.
#[derive(Debug, Clone, Copy)]
pub struct RtPlan {
    establishments: u64,
    messages: u64,
    best_effort_frames: u64,
}

impl RtPlan {
    const RT_PAYLOAD: usize = 1_000;
    const BE_PAYLOAD: usize = 1_200;
    const BE_SPACING: Duration = Duration::from_micros(3);
    const SETUP_SAMPLES: usize = 5;
    /// The spec stream is drawn from this seed whatever `--seed` says.
    /// Under today's default (calendar) scheduler the cost of
    /// `run_to_completion` moves 1.8x with the mix of periods drawn (62k
    /// frames/s at seed 3, 108k at seed 5; 137k and 153k on the heap
    /// scheduler), so a seeded mix would measure the draw, not the code.
    /// Seed it once the scheduler no longer cares.
    const SPEC_SEED: u64 = 20644;

    pub fn of(smoke: bool) -> RtPlan {
        let divisor = if smoke { SMOKE_DIVISOR } else { 1 };
        RtPlan {
            establishments: 600 / divisor,
            messages: 100 / divisor,
            best_effort_frames: 40_000 / divisor,
        }
    }

    pub fn to_json(self) -> Value {
        Value::obj([
            ("fabric", Value::str("torus(8,8,8,8)")),
            ("spec_seed", Value::count(Self::SPEC_SEED)),
            ("establishments", Value::count(self.establishments)),
            ("messages_per_channel", Value::count(self.messages)),
            ("rt_payload_bytes", Value::count(Self::RT_PAYLOAD as u64)),
            ("best_effort_frames", Value::count(self.best_effort_frames)),
            (
                "best_effort_payload_bytes",
                Value::count(Self::BE_PAYLOAD as u64),
            ),
            (
                "best_effort_spacing_ns",
                Value::count(Self::BE_SPACING.as_nanos()),
            ),
        ])
    }
}

/// The paper's bound for a channel with deadline `deadline_slots` admitted on
/// a route of `hops` links, recomputed from the public link parameters and
/// nothing else: `d·slot + h·(propagation + slot) + (h−1)·switch_latency`.
/// Deliberately not `RtNetwork::channel_deadline_bound`: the check must not
/// share code with what it checks.
pub fn independent_bound_ns(config: &SimConfig, deadline_slots: u64, hops: u64) -> u64 {
    let slot = config.link_speed.slot_duration().as_nanos();
    deadline_slots * slot
        + hops * (config.propagation_delay.as_nanos() + slot)
        + hops.saturating_sub(1) * config.switch_latency.as_nanos()
}

/// What the traced pass reads off a `wire_rt` run besides the spans.
#[derive(Debug, Default)]
struct RtSeen {
    rt_frames_sent: u64,
    data_frames: u64,
    run_events: u64,
    control_frames: u64,
    /// Simulated nanoseconds each establishment took, ascending.
    sim_establish_ns: Vec<u64>,
    live_bytes_grown: u64,
    arena_reuses: u64,
    arena_fresh: u64,
    arena_high_water: u64,
    worst_over_bound: f64,
    router: Vec<(&'static str, f64)>,
}

fn rt(plan: &RtPlan, tracer: Option<&Tracer>) -> (Repeat, RtSeen) {
    let mut repeat = Repeat {
        offered: plan.establishments,
        ..Repeat::default()
    };
    let mut seen = RtSeen::default();
    let scenario = torus();
    // Building the network takes a few milliseconds, too little to time
    // once: build it several times and keep the median time and the last
    // network.
    let mut setups = Vec::with_capacity(RtPlan::SETUP_SAMPLES);
    let mut net = None;
    for _ in 0..RtPlan::SETUP_SAMPLES {
        let started = Instant::now();
        let router: Arc<dyn Router> = match tracer {
            Some(tracer) => Arc::new(Traced::new(ShortestPathRouter::new(), tracer.clone())),
            None => Arc::new(ShortestPathRouter::new()),
        };
        let built = RtNetwork::builder()
            .topology(scenario.topology())
            .multihop_dps(MultiHopDps::Asymmetric)
            .router_arc(router)
            .build();
        setups.push(secs(started));
        match built {
            Ok(built) => net = Some(built),
            Err(e) => {
                repeat.fail(1, format!("the network did not build: {e}"));
                return (repeat, seen);
            }
        }
    }
    let Some(mut net) = net else {
        return (repeat, seen);
    };
    repeat.setup_s = quartiles(&setups).1;
    let mut specs = HeterogeneousSpecs::new(RtPlan::SPEC_SEED);

    let live_before = live_bytes();
    if let Some(tracer) = tracer {
        tracer.set_recording(true);
    }
    let window = Instant::now();
    let mut established = Vec::new();
    for i in 0..plan.establishments {
        let (source, destination) = scenario.cross_switch_pair(i);
        let spec = specs.next_spec();
        if let Some(tracer) = tracer {
            tracer.next_request();
        }
        let sim_before = net.now();
        let call = Instant::now();
        let verdict = phase(tracer, "core.network.establish_channel", || {
            net.establish_channel(source, destination, spec)
        });
        repeat.latencies_ns.push(call.elapsed().as_nanos() as u64);
        seen.sim_establish_ns
            .push(net.now().saturating_duration_since(sim_before).as_nanos());
        match verdict {
            Ok(Some(tx)) => established.push((source, tx)),
            Ok(None) => {}
            Err(e) => repeat.fail(1, format!("establishment {i} ended without a verdict: {e}")),
        }
    }
    repeat.accepted = established.len() as u64;
    seen.control_frames = net.simulator().stats().control_frames;
    seen.sim_establish_ns.sort_unstable();

    if let Some(tracer) = tracer {
        tracer.next_request();
    }
    let traffic_starts = net.now() + Duration::from_millis(1);
    for (source, tx) in &established {
        let sent = phase(tracer, "core.network.send_periodic", || {
            net.send_periodic(
                *source,
                tx.id,
                plan.messages,
                RtPlan::RT_PAYLOAD,
                traffic_starts,
            )
        });
        match sent {
            Ok(()) => seen.rt_frames_sent += plan.messages * tx.spec.capacity.get(),
            Err(e) => repeat.fail(1, format!("send_periodic on {}: {e}", tx.id)),
        }
    }
    let best_effort_sent = phase(tracer, "core.network.send_best_effort", || {
        (0..plan.best_effort_frames)
            .filter(|&k| {
                let (source, destination) = scenario.cross_switch_pair(7 * k + 3);
                let at = traffic_starts + RtPlan::BE_SPACING.saturating_mul(k);
                net.send_best_effort(source, destination, RtPlan::BE_PAYLOAD, at)
                    .is_ok()
            })
            .count() as u64
    });
    let events_before = net.simulator().events_processed();
    let ran = phase(tracer, "core.network.run_to_completion", || {
        net.run_to_completion()
    });
    repeat.window_s = secs(window);
    if let Some(tracer) = tracer {
        tracer.set_recording(false);
    }
    seen.live_bytes_grown = live_bytes().wrapping_sub(live_before);
    seen.run_events = net.simulator().events_processed() - events_before;
    if let Err(e) = ran {
        repeat.fail(1, format!("run_to_completion: {e}"));
    }

    // Data frames only: the control frames of the handshakes are the cost of
    // establishing, not traffic delivered.
    let rt_delivered = net.received_messages().len() as u64;
    let be_delivered = net.best_effort_received();
    seen.data_frames = rt_delivered + be_delivered;
    repeat.work = seen.data_frames;
    repeat.attempted = plan.establishments + seen.rt_frames_sent + plan.best_effort_frames;

    let sim = net.simulator();
    let stats = sim.stats();
    let late = net
        .received_messages()
        .iter()
        .filter(|m| m.missed_deadline)
        .count() as u64;
    let misses = stats.total_deadline_misses.max(late);
    if misses != 0 {
        repeat.fail(misses, format!("{misses} deadline misses"));
    }
    let accounted = stats.total_delivered() + stats.total_dropped();
    if sim.injected_count() != accounted {
        repeat.fail(
            sim.injected_count().abs_diff(accounted),
            format!(
                "{} frames injected, {accounted} delivered or dropped",
                sim.injected_count()
            ),
        );
    }
    for (lost, what) in [
        (
            seen.rt_frames_sent.abs_diff(rt_delivered),
            "RT frames of admitted channels not delivered",
        ),
        (
            plan.best_effort_frames - best_effort_sent,
            "best-effort frames refused at injection",
        ),
        (
            best_effort_sent.abs_diff(be_delivered + stats.be_dropped),
            "best-effort frames unaccounted for",
        ),
    ] {
        if lost != 0 {
            repeat.fail(lost, format!("{lost} {what}"));
        }
    }

    let mut digest = Fnv::new();
    for (_, tx) in &established {
        let id = tx.id;
        let (Some(route), Some(channel)) = (net.manager().channel_route(id), stats.channel(id))
        else {
            repeat.fail(
                1,
                format!("admitted channel {id} left no route or no statistics"),
            );
            continue;
        };
        let bound = independent_bound_ns(
            sim.config(),
            route.spec.deadline.get(),
            route.path.len() as u64,
        );
        let worst = channel.max_latency.as_nanos();
        seen.worst_over_bound = seen.worst_over_bound.max(ratio(worst, bound));
        repeat.check(worst <= bound, || {
            format!("channel {id}: worst latency {worst} ns over its {bound} ns bound")
        });
        digest.mix(u64::from(id.get()));
        digest.mix(channel.delivered);
        digest.mix(worst);
    }
    digest.mix(rt_delivered);
    digest.mix(be_delivered);
    digest.mix(net.now().as_nanos());
    repeat.digest = digest.finish();
    repeat.facts = vec![
        ("admitted", repeat.accepted as f64),
        ("rt_frames", rt_delivered as f64),
        ("best_effort_frames", be_delivered as f64),
        ("best_effort_dropped", stats.be_dropped as f64),
        ("events", sim.events_processed() as f64),
        ("sim_end_ns", net.now().as_nanos() as f64),
        ("rt_worst_over_bound", seen.worst_over_bound),
    ];
    let arena = sim.arena_stats();
    seen.arena_reuses = arena.reuses;
    seen.arena_fresh = arena.fresh_allocations;
    seen.arena_high_water = arena.high_water as u64;
    seen.router = router_state(net.router().as_ref(), sim.topology());
    (repeat, seen)
}

pub fn run_rt(plan: &RtPlan) -> Repeat {
    rt(plan, None).0
}

pub fn run_rt_traced(plan: &RtPlan, smoke: bool) -> TracedRepeat {
    let bench = Bench::of(smoke);
    // One span per establishment and per send, plus the router calls under
    // each establishment.  Recording starts with the window: building the
    // network (and its first next-hop table) is set-up.
    let tracer = Tracer::new(64 + 8 * plan.establishments as usize);
    tracer.set_recording(false);
    let (repeat, seen) = rt(plan, Some(&tracer));
    let (spans, dropped_spans) = tracer.finish();
    let mut traced = TracedRepeat {
        repeat,
        layers: BTreeMap::new(),
        profile: Profile::of(&spans),
        spans,
        dropped_spans,
        notes: Vec::new(),
    };
    let window_ns = (traced.repeat.window_s * 1e9) as u64;
    traced.notes.push((
        "traced_layers_share_of_window",
        ratio(traced.profile.covered_ns, window_ns),
    ));

    let span_ns = |name: &str| traced.profile.get(name).total_ns;
    let run_ns_per_event = ratio(span_ns("core.network.run_to_completion"), seen.run_events);
    let (router_calls, _, router_total) = traced.profile.sum("types.router.");
    let lookup_p50 = traced
        .profile
        .duration_p50_of(&["types.router.route", "types.router.routes"]);
    let (build_ns, classify_ns) = kernels::rt_data(RtPlan::RT_PAYLOAD, &bench);
    let per_layer = [
        (
            "core.network.inject_ns_per_frame",
            ratio(span_ns("core.network.send_periodic"), seen.rt_frames_sent),
        ),
        ("core.network.run_ns_per_event", run_ns_per_event),
        (
            "core.network.bytes_per_frame",
            ratio(seen.live_bytes_grown, seen.data_frames),
        ),
        (
            "core.network.sim_establish_us_p50",
            percentile(&seen.sim_establish_ns, 0.50) as f64 / 1e3,
        ),
        (
            "core.network.control_frames_per_establish",
            ratio(seen.control_frames, plan.establishments),
        ),
        ("netsim.sim.rt_worst_over_bound", seen.worst_over_bound),
        (
            "types.router.route_calls_per_attempt",
            ratio(router_calls, plan.establishments),
        ),
        ("types.router.route_ns_p50", lookup_p50 as f64),
        ("types.router.busy_share", ratio(router_total, window_ns)),
        (
            "frames.arena.reuse_ratio",
            ratio(seen.arena_reuses, seen.arena_reuses + seen.arena_fresh),
        ),
        ("frames.arena.high_water", seen.arena_high_water as f64),
        ("frames.rt_data.build_ns", build_ns),
        ("frames.rt_data.classify_ns", classify_ns),
        (
            "frames.arena.alloc_free_ns",
            kernels::arena_alloc_free(RtPlan::RT_PAYLOAD + 60, &bench),
        ),
        (
            "netsim.event.push_pop_ns_1k",
            kernels::event_push_pop(1_000, &bench),
        ),
        (
            "netsim.port.rt_enqueue_dequeue_ns",
            kernels::port_enqueue_dequeue(&bench),
        ),
    ];
    traced.layers.extend(per_layer);
    traced.layers.extend(seen.router.iter().copied());
    let streamed =
        kernels::stream_ns_per_event(torus(), seen.data_frames.max(1), RtPlan::RT_PAYLOAD);
    let stream_ns = kernel(&mut traced, "netsim.sim.stream_ns_per_event", streamed);
    if stream_ns > 0.0 {
        traced.layers.insert(
            "core.network.pump_overhead_ratio",
            run_ns_per_event / stream_ns,
        );
    }
    traced
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_bound_agrees_with_the_simulators_latency_term() {
        let config = SimConfig::default();
        let slot = config.link_speed.slot_duration().as_nanos();
        for hops in 2..=8u64 {
            for deadline in [0u64, 1, 40, 400] {
                assert_eq!(
                    independent_bound_ns(&config, deadline, hops),
                    deadline * slot + config.t_latency_for_hops(hops as usize).as_nanos(),
                    "h = {hops}, d = {deadline}"
                );
            }
        }
        // The deadline term is the one `LinkSpeed` converts slots with.
        assert_eq!(
            independent_bound_ns(&config, 40, 2) - independent_bound_ns(&config, 0, 2),
            config
                .link_speed
                .slots_to_duration(rt_types::Slots::new(40))
                .as_nanos()
        );
    }

    #[test]
    fn smoke_plans_are_fifty_times_smaller() {
        assert_eq!(
            PreloadPlan::of(true).frames * 50,
            PreloadPlan::of(false).frames
        );
        let (full, smoke) = (RtPlan::of(false), RtPlan::of(true));
        assert_eq!(smoke.establishments * 50, full.establishments);
        assert_eq!(smoke.messages * 50, full.messages);
        assert_eq!(smoke.best_effort_frames * 50, full.best_effort_frames);
    }
}
