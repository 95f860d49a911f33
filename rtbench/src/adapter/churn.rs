//! The `churn_*` workloads: a closed loop of one client establishing and
//! releasing channels through the real control protocol.
//!
//! `ChurnProcess` sends the next arrival only after the previous verdict, so
//! a slower manager receives less load; the offered load is the configured
//! mean of concurrent channels, not a rate.  The protocol pump is private to
//! `rt-traffic`, so the window and the per-arrival latencies are the ones
//! `ChurnReport` clocks itself; the wall time of `run()` seen from outside
//! is kept beside them.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use rt_core::manager::SwitchAction;
use rt_core::{
    ChannelManager, DistributedChannelManager, FabricChannelManager, MultiHopAdmission, MultiHopDps,
};
use rt_frames::Frame;
use rt_traffic::{ChurnConfig, ChurnProcess, ChurnReport};
use rt_types::{NodeId, Router, RtError, RtResult, ShortestPathRouter, Topology};

use super::kernels::{self, Bench};
use super::traced::{router_state, Traced};
use super::{ratio, secs, Repeat, TracedRepeat, Workload, SMOKE_DIVISOR};
use crate::json::Value;
use crate::span::{Profile, Tracer};

/// Room for the spans of the largest traced churn window (about 40 manager
/// and router calls per distributed arrival, 4 per central one).
const SPAN_CAPACITY: usize = 2_000_000;

/// A lease sweep that has not converged after this many ticks never will.
const MAX_SETTLE_TICKS: u32 = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fabric {
    /// `Topology::fat_tree(16)`: 320 switches, 1024 hosts.
    FatTree16,
    /// `Topology::torus_nd(&[4, 4, 4, 4], 4)`: 256 switches, 1024 hosts.
    Torus4d,
}

/// What one churn workload runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    fabric: Fabric,
    distributed: bool,
    warmup: u64,
    measured: u64,
    /// Mean holding time in ticks at one arrival per tick: the mean number
    /// of concurrent channels offered, tuned to each fabric's capacity knee.
    holding: f64,
    /// One scripted trunk event per this many measured arrivals.
    fault_every: Option<u64>,
}

impl Plan {
    pub fn of(workload: Workload, smoke: bool) -> Plan {
        let plan = match workload {
            Workload::ChurnDistributed => Plan {
                fabric: Fabric::FatTree16,
                distributed: true,
                warmup: 3_000,
                measured: 8_000,
                holding: 1_000.0,
                fault_every: None,
            },
            Workload::ChurnFaults => Plan {
                fabric: Fabric::Torus4d,
                distributed: false,
                warmup: 10_000,
                measured: 25_000,
                holding: 2_500.0,
                fault_every: Some(100),
            },
            _ => Plan {
                fabric: Fabric::FatTree16,
                distributed: false,
                warmup: 10_000,
                measured: 100_000,
                holding: 1_000.0,
                fault_every: None,
            },
        };
        if smoke {
            Plan {
                warmup: plan.warmup / SMOKE_DIVISOR,
                measured: plan.measured / SMOKE_DIVISOR,
                ..plan
            }
        } else {
            plan
        }
    }

    pub fn to_json(self) -> Value {
        Value::obj([
            (
                "fabric",
                Value::str(match self.fabric {
                    Fabric::FatTree16 => "fat_tree(16)",
                    Fabric::Torus4d => "torus_nd([4,4,4,4],4)",
                }),
            ),
            (
                "placement",
                Value::str(if self.distributed {
                    "distributed"
                } else {
                    "central"
                }),
            ),
            ("warmup_arrivals", Value::count(self.warmup)),
            ("measured_arrivals", Value::count(self.measured)),
            ("mean_holding_ticks", Value::Num(self.holding)),
            ("fault_events", Value::count(self.fault_events())),
        ])
    }

    fn fault_events(&self) -> u64 {
        self.fault_every.map_or(0, |every| self.measured / every)
    }

    fn topology(&self) -> Topology {
        match self.fabric {
            Fabric::FatTree16 => Topology::fat_tree(16),
            Fabric::Torus4d => Topology::torus_nd(&[4, 4, 4, 4], 4),
        }
        .expect("the benchmark fabrics are valid")
    }

    /// The seeded arrival process, with the fault script if the plan has
    /// one: event `e` lands in the middle of the `e`-th stretch of
    /// `fault_every` measured arrivals and alternates cut and repair of
    /// trunk `(37·flap) mod n`, so one trunk is down at a time and the
    /// 8-entry next-hop cache keeps meeting fabric states it has dropped.
    fn process(&self, seed: u64, topology: &Topology) -> ChurnProcess {
        let mut config = ChurnConfig::new(seed)
            .windows(self.warmup, self.measured)
            .load(1.0, self.holding)
            .without_trace();
        if let Some(every) = self.fault_every {
            let trunks: Vec<_> = topology.trunks().collect();
            for event in 0..self.fault_events() {
                let at = self.warmup + every * event + every / 2;
                let (a, b) = trunks[(37 * (event / 2) % trunks.len() as u64) as usize];
                config = if event % 2 == 0 {
                    config.cut_at(at, a, b)
                } else {
                    config.repair_at(at, a, b)
                };
            }
        }
        ChurnProcess::new(config, topology).expect("the fault script lies inside the run")
    }
}

fn central(topology: Topology, router: Arc<dyn Router>) -> FabricChannelManager {
    FabricChannelManager::new(MultiHopAdmission::with_router(
        topology,
        MultiHopDps::Asymmetric,
        router,
    ))
}

fn distributed(topology: Topology, router: Arc<dyn Router>) -> DistributedChannelManager {
    DistributedChannelManager::new(topology, MultiHopDps::Asymmetric, router)
}

/// Fire the manager's pending timeouts until none remains, delivering what
/// each emits, so that `audit_quiescent` is answerable.  The churn pump
/// delivers every frame at time zero and never ticks, so a distributed
/// manager ends a run still holding lease records; a central one holds none.
fn settle<M: ChannelManager>(manager: &mut M) -> RtResult<()> {
    for _ in 0..MAX_SETTLE_TICKS {
        let Some(at) = manager.next_timeout() else {
            return Ok(());
        };
        let mut queue: VecDeque<_> = manager.on_tick(at)?.emissions.into();
        while let Some((_, action)) = queue.pop_front() {
            if let SwitchAction::SendControl { to, frame } = action {
                let frame = Frame::Reservation(frame);
                queue.extend(
                    manager
                        .handle_frame_at(to, NodeId::SWITCH, &frame, at)?
                        .emissions,
                );
            }
        }
    }
    Err(RtError::ProtocolViolation(format!(
        "lease sweeps did not converge in {MAX_SETTLE_TICKS} ticks"
    )))
}

/// Run the process against `manager` and check the outcome.  `started` is
/// when the repeat began building its fabric.
fn drive<M: ChannelManager>(
    plan: &Plan,
    process: &ChurnProcess,
    manager: &mut M,
    started: Instant,
) -> (Repeat, Option<ChurnReport>) {
    let mut repeat = Repeat {
        attempted: plan.warmup + plan.measured,
        ..Repeat::default()
    };
    let run_started = Instant::now();
    let outcome = process.run(manager);
    let run_wall_s = secs(run_started);
    let wall_s = secs(started);
    let mut report = match outcome {
        Ok(report) => report,
        Err(e) => {
            repeat.fail(1, format!("an arrival ended without a verdict: {e}"));
            return (repeat, None);
        }
    };
    repeat.window_s = report.measured_elapsed.as_secs_f64();
    repeat.setup_s = wall_s - repeat.window_s;
    repeat.work = report.measured_attempts;
    repeat.offered = report.measured_attempts;
    repeat.accepted = report.measured_admitted;
    repeat.latencies_ns = std::mem::take(&mut report.measured_latencies);
    repeat.digest = report.normalized_trace_hash;
    repeat.facts = vec![
        ("admitted_total", report.admitted as f64),
        ("peak_active", report.peak_active as f64),
        ("active_at_end", report.active_at_end as f64),
        ("dropped_by_faults", report.dropped_by_faults as f64),
    ];
    repeat.notes = vec![("run_wall_s", run_wall_s)];

    if let Err(e) = settle(manager) {
        repeat.fail(1, format!("the manager did not settle: {e}"));
    }
    let pending = manager.pending_count() as u64;
    if pending != 0 {
        repeat.fail(pending, format!("{pending} reservations still pending"));
    }
    if let Err(e) = manager.audit_quiescent() {
        repeat.fail(1, format!("quiescence audit: {e}"));
    }
    repeat.check(report.measured_attempts == plan.measured, || {
        format!(
            "{} of {} arrivals measured",
            report.measured_attempts, plan.measured
        )
    });
    (repeat, Some(report))
}

pub fn run(plan: &Plan, seed: u64) -> Repeat {
    let started = Instant::now();
    let topology = plan.topology();
    let process = plan.process(seed, &topology);
    let router: Arc<dyn Router> = Arc::new(ShortestPathRouter::new());
    if plan.distributed {
        let mut manager = distributed(topology, router);
        drive(plan, &process, &mut manager, started).0
    } else {
        let mut manager = central(topology, router);
        drive(plan, &process, &mut manager, started).0
    }
}

pub fn run_traced(plan: &Plan, seed: u64, smoke: bool) -> TracedRepeat {
    let bench = Bench::of(smoke);
    let tracer = Tracer::new(SPAN_CAPACITY);
    tracer.set_recording(false);
    let started = Instant::now();
    let topology = plan.topology();
    let process = plan.process(seed, &topology);
    let router = Arc::new(Traced::new(ShortestPathRouter::new(), tracer.clone()));
    let shared: Arc<dyn Router> = router.clone();

    let mut layers = BTreeMap::new();
    let (repeat, report, allocations, opened_ns) = if plan.distributed {
        let mut manager = Traced::after_warmup(
            distributed(topology.clone(), shared),
            tracer.clone(),
            plan.warmup,
        );
        let (repeat, report) = drive(plan, &process, &mut manager, started);
        layers.insert(
            "frames.reservation.roundtrip_ns",
            kernels::reservation_roundtrip(&bench),
        );
        (
            repeat,
            report,
            manager.allocations(),
            manager.window_opened_ns(),
        )
    } else {
        let mut manager = Traced::after_warmup(
            central(topology.clone(), shared),
            tracer.clone(),
            plan.warmup,
        );
        let (repeat, report) = drive(plan, &process, &mut manager, started);
        // The feasibility, ledger and partition kernels replay what the run
        // left in the central ledger; the distributed manager keeps its
        // per-site ledgers private.
        let admission = manager.inner().admission();
        let (p50_load, max_load) = kernels::feasibility(admission, &bench);
        layers.insert("edf.feasibility.test_ns_p50_load", p50_load);
        layers.insert("edf.feasibility.test_ns_max_load", max_load);
        layers.insert(
            "core.ledger.reserve_release_ns",
            kernels::ledger_reserve_release(admission, &bench),
        );
        layers.insert(
            "core.dps.partition_ns",
            kernels::dps_partition(admission, &bench),
        );
        (
            repeat,
            report,
            manager.allocations(),
            manager.window_opened_ns(),
        )
    };
    layers.insert(
        "frames.codec.request_roundtrip_ns",
        kernels::request_roundtrip(&bench),
    );

    let (spans, dropped_spans) = tracer.finish();
    let mut traced = TracedRepeat {
        repeat,
        layers,
        profile: Profile::of(&spans),
        spans,
        dropped_spans,
        notes: Vec::new(),
    };
    let (Some(report), Some(opened_ns)) = (report, opened_ns) else {
        traced
            .repeat
            .fail(1, "the traced run did not reach its window".into());
        return traced;
    };

    // The window as the process clocked it, laid over the tracer's clock.
    // Spans after it (the settling sweep) are kept but not charged to it.
    let window_ns = report.measured_elapsed.as_nanos() as u64;
    let in_window = traced
        .spans
        .partition_point(|s| s.start_ns < opened_ns + window_ns);
    let window = Profile::of(&traced.spans[..in_window]);
    let seen_ns = traced.spans[..in_window]
        .last()
        .map_or(0, |s| s.end_ns - opened_ns);
    traced
        .repeat
        .check(seen_ns.abs_diff(window_ns) * 10 <= window_ns, || {
            format!("the wrappers saw a {seen_ns} ns window, the process a {window_ns} ns one")
        });
    traced.notes.push((
        "traced_layers_share_of_window",
        ratio(window.covered_ns, window_ns),
    ));
    traced
        .layers
        .extend(window_metrics(&window, window_ns, report.measured_attempts));
    traced.layers.extend([
        (
            "core.manager.allocs_per_attempt",
            ratio(allocations, report.measured_attempts),
        ),
        // The pump never ticks, so today these spans all come from the
        // settling sweep after the window; they are charged per measured
        // arrival anyway, so a pump that starts ticking shows up here.
        (
            "core.manager.tick_ns_per_attempt",
            ratio(
                traced.profile.get("core.manager.tick").total_ns
                    + traced.profile.get("core.manager.next_timeout").total_ns,
                report.measured_attempts,
            ),
        ),
    ]);
    traced
        .layers
        .extend(router_state(router.as_ref(), &topology));
    traced.profile = window;
    traced
}

/// The per-layer metrics that are pure arithmetic on the spans of the
/// measured window.
fn window_metrics(window: &Profile, window_ns: u64, attempts: u64) -> Vec<(&'static str, f64)> {
    let per_attempt = |n: u64| ratio(n, attempts);
    let share = |ns: u64| ratio(ns, window_ns);
    let self_p50 = |span: &str| window.get(span).self_p50() as f64;

    // Manager calls that carry no protocol frame: fault notifications and
    // timer work.
    const NOT_FRAMES: [&str; 6] = [
        "core.manager.link_failure",
        "core.manager.link_repair",
        "core.manager.switch_failure",
        "core.manager.tick",
        "core.manager.next_timeout",
        "core.manager.drain_control",
    ];
    let (manager_calls, manager_self, _) = window.sum("core.manager.");
    let not_frames: u64 = NOT_FRAMES.iter().map(|n| window.get(n).count).sum();
    let (router_calls, _, router_total) = window.sum("types.router.");
    let failure = window.get("core.manager.link_failure");
    let repair = window.get("core.manager.link_repair");
    vec![
        // What the window holds beyond the traced layers is the pump's own.
        (
            "traffic.churn.pump_self_ns_per_attempt",
            per_attempt(window_ns.saturating_sub(window.covered_ns)),
        ),
        (
            "traffic.churn.frames_per_attempt",
            per_attempt(manager_calls - not_frames),
        ),
        (
            "core.manager.request_ns_p50",
            self_p50("core.manager.request"),
        ),
        (
            "core.manager.request_ns_p99",
            window.get("core.manager.request").self_p99() as f64,
        ),
        (
            "core.manager.response_ns_p50",
            self_p50("core.manager.response"),
        ),
        (
            "core.manager.teardown_ns_p50",
            self_p50("core.manager.teardown"),
        ),
        ("core.manager.probe_ns_p50", self_p50("core.manager.probe")),
        (
            "core.manager.reserve_ns_p50",
            self_p50("core.manager.reserve"),
        ),
        (
            "core.manager.confirm_ns_p50",
            self_p50("core.manager.confirm"),
        ),
        (
            "core.manager.release_ns_p50",
            self_p50("core.manager.release"),
        ),
        ("core.manager.busy_share", share(manager_self)),
        (
            "core.manager.link_failure_ms_p50",
            failure.self_p50() as f64 / 1e6,
        ),
        (
            "core.manager.link_repair_ms_p50",
            repair.self_p50() as f64 / 1e6,
        ),
        // Fault handling with everything under it: fail-over, re-admission,
        // the routing rebuilds they trigger, and the link-state flood.
        (
            "core.manager.fault_share",
            share(
                failure.total_ns
                    + repair.total_ns
                    + window.get("core.manager.drain_control").total_ns
                    + window.get("core.manager.link_state").total_ns,
            ),
        ),
        (
            "types.router.route_calls_per_attempt",
            per_attempt(router_calls),
        ),
        (
            "types.router.route_ns_p50",
            window.duration_p50_of(&["types.router.route", "types.router.routes"]) as f64,
        ),
        ("types.router.busy_share", share(router_total)),
        (
            "types.router.rebuild_ms_p50",
            window.get("types.router.rebuild").duration_p50() as f64 / 1e6,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Span, NO_PARENT};

    #[test]
    fn smoke_plans_keep_the_shape_and_shrink_the_windows() {
        for workload in [
            Workload::ChurnCentral,
            Workload::ChurnDistributed,
            Workload::ChurnFaults,
        ] {
            let (full, smoke) = (Plan::of(workload, false), Plan::of(workload, true));
            assert_eq!(smoke.warmup * SMOKE_DIVISOR, full.warmup);
            assert_eq!(smoke.measured * SMOKE_DIVISOR, full.measured);
            assert_eq!(smoke.fabric, full.fabric);
            assert_eq!(smoke.distributed, full.distributed);
        }
        let faults = Plan::of(Workload::ChurnFaults, false);
        assert_eq!(faults.fault_events(), 250, "125 flaps");
        assert_eq!(Plan::of(Workload::ChurnCentral, false).fault_events(), 0);
    }

    #[test]
    fn window_metrics_charge_each_layer_its_own_time() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        // Two arrivals in a 1000 ns window: a request that spends 60 of its
        // 100 ns in the router, its response, and a bare request; then one
        // trunk cut whose fail-over rebuilds a table.
        let spans = [
            span("core.manager.request", 0, 100, NO_PARENT),
            span("types.router.routes", 20, 80, 0),
            span("core.manager.response", 110, 120, NO_PARENT),
            span("core.manager.request", 200, 250, NO_PARENT),
            span("core.manager.link_failure", 300, 700, NO_PARENT),
            span("types.router.rebuild", 350, 650, 4),
        ];
        let metrics: BTreeMap<_, _> = window_metrics(&Profile::of(&spans), 1_000, 2)
            .into_iter()
            .collect();
        // 560 ns of the window lie under a traced call; the pump keeps 440.
        assert_eq!(metrics["traffic.churn.pump_self_ns_per_attempt"], 220.0);
        assert_eq!(metrics["traffic.churn.frames_per_attempt"], 1.5);
        // Self times: 40 and 50 ns; the nearest-rank median is the lower.
        assert_eq!(metrics["core.manager.request_ns_p50"], 40.0);
        assert_eq!(metrics["core.manager.response_ns_p50"], 10.0);
        // Manager self time: 40 + 10 + 50 + 100 of 1000.
        assert_eq!(metrics["core.manager.busy_share"], 0.2);
        assert_eq!(metrics["core.manager.fault_share"], 0.4);
        assert_eq!(metrics["core.manager.link_failure_ms_p50"], 100.0 / 1e6);
        assert_eq!(metrics["types.router.route_calls_per_attempt"], 1.0);
        assert_eq!(metrics["types.router.route_ns_p50"], 60.0);
        assert_eq!(metrics["types.router.busy_share"], 0.36);
        assert_eq!(metrics["types.router.rebuild_ms_p50"], 300.0 / 1e6);
        assert_eq!(metrics["core.manager.probe_ns_p50"], 0.0);
    }
}
