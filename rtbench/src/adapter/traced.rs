//! Delegating wrappers that open a span around every call into a layer.
//!
//! `Traced<M: ChannelManager>` stands where the churn pump expects a
//! manager, `Traced<R: Router>` is handed to the manager (or to the network
//! builder) as its `Arc<dyn Router>`, and `Traced<S: TrafficSource>` feeds
//! the simulator.  Each forwards every method of its trait — the defaulted
//! ones too, or the wrapped type's overrides would be lost — and changes no
//! argument and no result.

use std::sync::Arc;

use rt_core::manager::{
    ChannelRoute, ControlOutcome, FailoverReport, ReleasedChannel, SwitchAction,
};
use rt_core::ChannelManager;
use rt_frames::reservation::ReservationOp;
use rt_frames::{Frame, RequestFrame, ResponseFrame};
use rt_netsim::{FrameInjection, TrafficSource};
use rt_types::{
    ChannelId, DenseNextHop, HopLink, NextHopCache, NextHopTable, NodeId, Route, Router, RtResult,
    SimTime, SwitchId, Topology,
};

use super::ratio;
use crate::alloc::allocations;
use crate::span::{Open, Tracer};

/// `inner`, with a span around each call.
#[derive(Debug)]
pub struct Traced<T> {
    inner: T,
    tracer: Tracer,
    /// Manager only: request frames still to pass before the measured
    /// window opens and recording starts.  The churn pump is private, so the
    /// wrapper finds the window by counting arrivals, as the process does.
    warmup_left: u64,
    /// Manager only: allocations made inside manager calls while recording.
    allocations: u64,
    /// Manager only: nanoseconds on the tracer's clock at which the window
    /// opened.
    window_opened_ns: Option<u64>,
}

impl<T> Traced<T> {
    /// Wrap `inner`, recording from the first call.
    pub fn new(inner: T, tracer: Tracer) -> Self {
        Traced {
            inner,
            tracer,
            warmup_left: 0,
            allocations: 0,
            window_opened_ns: None,
        }
    }

    /// Wrap a manager whose first `warmup` arrivals are not recorded.  The
    /// tracer must not be recording yet.
    pub fn after_warmup(inner: T, tracer: Tracer, warmup: u64) -> Self {
        Traced {
            warmup_left: warmup,
            ..Traced::new(inner, tracer)
        }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Allocations made inside manager calls since the window opened.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// When the measured window opened, on the tracer's clock.
    pub fn window_opened_ns(&self) -> Option<u64> {
        self.window_opened_ns
    }
}

fn frame_span(frame: &Frame) -> &'static str {
    match frame {
        Frame::Request(_) => "core.manager.request",
        Frame::Response(_) => "core.manager.response",
        Frame::Teardown(_) => "core.manager.teardown",
        Frame::Reservation(r) => match r.op {
            ReservationOp::Probe => "core.manager.probe",
            ReservationOp::Reserve => "core.manager.reserve",
            ReservationOp::Rollback => "core.manager.rollback",
            ReservationOp::ReserveFailed => "core.manager.reserve_failed",
            ReservationOp::Confirm => "core.manager.confirm",
            ReservationOp::Release => "core.manager.release",
            ReservationOp::LinkState => "core.manager.link_state",
        },
        Frame::RtData(_) | Frame::BestEffort(_) => "core.manager.other",
    }
}

impl<M: ChannelManager> Traced<M> {
    /// Run one manager call inside a span, counting its allocations.
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce(&mut M) -> R) -> R {
        if self.warmup_left == 0 && self.window_opened_ns.is_none() {
            self.tracer.set_recording(true);
            self.window_opened_ns = Some(self.tracer.now_ns());
        }
        let before = allocations();
        let open = self.tracer.enter(name);
        let result = f(&mut self.inner);
        self.tracer.exit(open);
        if self.window_opened_ns.is_some() {
            self.allocations += allocations() - before;
        }
        result
    }
}

impl<M: ChannelManager> ChannelManager for Traced<M> {
    fn handle_request(&mut self, frame: &RequestFrame) -> RtResult<Vec<SwitchAction>> {
        self.call("core.manager.request", |m| m.handle_request(frame))
    }

    fn handle_response(&mut self, frame: &ResponseFrame) -> RtResult<Vec<SwitchAction>> {
        self.call("core.manager.response", |m| m.handle_response(frame))
    }

    fn handle_teardown(&mut self, channel: ChannelId) -> RtResult<ReleasedChannel> {
        self.call("core.manager.teardown", |m| m.handle_teardown(channel))
    }

    fn channel_count(&self) -> usize {
        self.inner.channel_count()
    }

    fn pending_count(&self) -> usize {
        self.inner.pending_count()
    }

    fn channel_ids(&self) -> Vec<ChannelId> {
        self.inner.channel_ids()
    }

    fn channel_route(&self, id: ChannelId) -> Option<ChannelRoute> {
        self.inner.channel_route(id)
    }

    fn link_load(&self, link: HopLink) -> usize {
        self.inner.link_load(link)
    }

    fn schedules_hops(&self) -> bool {
        self.inner.schedules_hops()
    }

    fn handle_link_failure(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport> {
        self.tracer.next_request();
        self.call("core.manager.link_failure", |m| {
            m.handle_link_failure(from, to)
        })
    }

    fn handle_link_repair(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport> {
        self.tracer.next_request();
        self.call("core.manager.link_repair", |m| {
            m.handle_link_repair(from, to)
        })
    }

    fn handle_switch_failure(&mut self, switch: SwitchId) -> RtResult<FailoverReport> {
        self.tracer.next_request();
        self.call("core.manager.switch_failure", |m| {
            m.handle_switch_failure(switch)
        })
    }

    fn handle_frame_at(
        &mut self,
        at: SwitchId,
        from: NodeId,
        frame: &Frame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        // An arrival or a tear-down from a node starts a new request; the
        // reservation traffic and the response that follow belong to it.
        let arrival = matches!(frame, Frame::Request(_));
        if arrival || matches!(frame, Frame::Teardown(_)) {
            self.tracer.next_request();
        }
        let outcome = self.call(frame_span(frame), |m| {
            m.handle_frame_at(at, from, frame, now)
        });
        if arrival {
            self.warmup_left = self.warmup_left.saturating_sub(1);
        }
        outcome
    }

    fn next_timeout(&self) -> Option<SimTime> {
        let open = self.tracer.enter("core.manager.next_timeout");
        let timeout = self.inner.next_timeout();
        self.tracer.exit(open);
        timeout
    }

    fn on_tick(&mut self, now: SimTime) -> RtResult<ControlOutcome> {
        self.call("core.manager.tick", |m| m.on_tick(now))
    }

    fn drain_control(&mut self) -> Vec<(SwitchId, SwitchAction)> {
        self.call("core.manager.drain_control", |m| m.drain_control())
    }

    fn audit_quiescent(&self) -> RtResult<()> {
        self.inner.audit_quiescent()
    }
}

impl<R: Router> Traced<R> {
    /// Run one router call inside a span.  A call during which the
    /// next-hop cache missed paid for a table rebuild; it is renamed
    /// `types.router.rebuild` so route look-ups and rebuilds summarise
    /// apart.
    fn look_up<T>(&self, name: &'static str, f: impl FnOnce(&R) -> T) -> T {
        let misses = |r: &R| r.next_hop_cache().map_or(0, |c| c.stats().misses);
        let before = misses(&self.inner);
        let open: Open = self.tracer.enter(name);
        let result = f(&self.inner);
        self.tracer.exit(open);
        if misses(&self.inner) > before {
            self.tracer.rename(open, "types.router.rebuild");
        }
        result
    }
}

impl<R: Router> Router for Traced<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn validate(&self, topology: &Topology) -> RtResult<()> {
        self.inner.validate(topology)
    }

    fn route(&self, topology: &Topology, source: NodeId, destination: NodeId) -> RtResult<Route> {
        self.look_up("types.router.route", |r| {
            r.route(topology, source, destination)
        })
    }

    fn next_hop_cache(&self) -> Option<&NextHopCache> {
        self.inner.next_hop_cache()
    }

    fn next_hop_table(&self, topology: &Topology) -> Arc<NextHopTable> {
        self.look_up("types.router.next_hop_table", |r| {
            r.next_hop_table(topology)
        })
    }

    fn dense_next_hop(&self, topology: &Topology) -> Arc<DenseNextHop> {
        self.look_up("types.router.dense_next_hop", |r| {
            r.dense_next_hop(topology)
        })
    }

    fn routes(
        &self,
        topology: &Topology,
        source: NodeId,
        destination: NodeId,
    ) -> RtResult<Vec<Route>> {
        self.look_up("types.router.routes", |r| {
            r.routes(topology, source, destination)
        })
    }
}

/// The state of a router's next-hop cache after a run, as per-layer metrics.
/// The counters cover the router's whole life, set-up and warm-up included:
/// the first build of the healthy fabric is the one full rebuild every run
/// pays.
pub fn router_state(router: &dyn Router, topology: &Topology) -> Vec<(&'static str, f64)> {
    let mut state = vec![(
        "types.router.table_bytes",
        router.dense_next_hop(topology).resident_bytes() as f64,
    )];
    if let Some(cache) = router.next_hop_cache() {
        let stats = cache.stats();
        let lookups = stats.hits + stats.misses;
        state.extend([
            ("types.router.full_rebuilds", stats.full_rebuilds as f64),
            (
                "types.router.incremental_rebuilds",
                stats.incremental_rebuilds as f64,
            ),
            ("types.router.cache_hit_ratio", ratio(stats.hits, lookups)),
        ]);
    }
    state
}

impl<S: TrafficSource> TrafficSource for Traced<S> {
    fn next_batch(&mut self, horizon: SimTime) -> Vec<FrameInjection> {
        let open = self.tracer.enter("traffic.source.next_batch");
        let batch = self.inner.next_batch(horizon);
        self.tracer.exit(open);
        batch
    }

    fn is_exhausted(&self) -> bool {
        self.inner.is_exhausted()
    }
}
