//! Long-running churn workloads: a seeded arrival/departure process that
//! drives a [`ChannelManager`] through millions of establish/release
//! cycles.
//!
//! A [`ChurnProcess`] models an admission service under load: channel
//! requests arrive as a Poisson-style process (exponential inter-arrival
//! times), each admitted channel stays up for an exponentially distributed
//! holding time and is then torn down, and the request mix reuses the
//! [`HeterogeneousSpecs`] period/capacity/deadline sweep over uniformly
//! random endpoint pairs.  The process runs a warm-up window (the fabric
//! fills to steady state) followed by a measurement window, and can
//! interleave scripted trunk cut/repair events mid-churn.
//!
//! The driver speaks the real control protocol — request, forwarded
//! request, response, tear-down, and (under distributed placement) the
//! two-phase reservation frames — but pumps the frames synchronously
//! instead of through the wire simulator, so a single soak run can push
//! millions of cumulative requests through the exact production admission
//! code.  The same pump drives the central [`FabricChannelManager`] and the
//! [`DistributedChannelManager`]: byte-identical traces across placements
//! are a checkable invariant, not an assumption.
//!
//! Every random choice derives from the seed, so a churn trace is
//! reproducible: same seed, same topology, same manager kind → the same
//! [`ChurnEvent`] sequence, every run.
//!
//! [`FabricChannelManager`]: rt_core::FabricChannelManager
//! [`DistributedChannelManager`]: rt_core::DistributedChannelManager

use std::cmp::Reverse;
use std::collections::{hash_map, BinaryHeap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use rt_core::manager::SwitchAction;
use rt_core::protocol::ChannelRequest as ProtocolRequest;
use rt_core::{ChannelManager, RtChannelSpec};
use rt_frames::codec::TeardownFrame;
use rt_frames::rt_response::ResponseVerdict;
use rt_frames::{Frame, ReservationFrame, ResponseFrame};
use rt_types::rng::Xoshiro256;
use rt_types::{
    ChannelId, ConnectionRequestId, FoldState, MacAddr, NodeId, RtError, RtResult, SimTime,
    SwitchId, Topology,
};

use crate::pattern::HeterogeneousSpecs;

/// A scripted fault action, pinned to an arrival index so it lands at the
/// same point of the request sequence on every run (the churn analogue of
/// the simulator's time-pinned `FaultScript`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnFaultKind {
    /// Fail the trunk: affected channels fail over to surviving routes.
    Cut,
    /// Repair the trunk: detoured channels re-optimise back to primaries.
    Repair,
}

/// One scripted trunk event inside a churn run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnFault {
    /// The arrival index (0-based) *before* which the fault fires.
    pub at_arrival: u64,
    /// The trunk to cut or repair.
    pub trunk: (SwitchId, SwitchId),
    /// Cut or repair.
    pub kind: ChurnFaultKind,
}

/// Configuration of a churn run: arrival process, holding times, window
/// sizes and the optional fault script.
///
/// Times are abstract ticks on the process's virtual clock — only their
/// ratio matters.  With mean inter-arrival `a` and mean holding `h`, the
/// steady-state offered load is `h / a` concurrent channels (Little's law),
/// so `holding / interarrival` picks how full the fabric runs.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Seed for every random stream (arrivals, holding times, endpoints,
    /// specs all derive from it).
    pub seed: u64,
    /// Arrivals before the measurement window opens (fabric fill).
    pub warmup: u64,
    /// Arrivals inside the measurement window.
    pub measured: u64,
    /// Mean inter-arrival time in virtual ticks (exponential).
    pub mean_interarrival: f64,
    /// Mean channel holding time in virtual ticks (exponential).
    pub mean_holding: f64,
    /// Scripted trunk cut/repair events, applied in order.
    pub faults: Vec<ChurnFault>,
    /// Record the full [`ChurnEvent`] trace (determinism tests).  The FNV
    /// trace hash is always computed; soak runs switch the trace off to
    /// keep millions of arrivals cheap.
    pub record_trace: bool,
}

impl ChurnConfig {
    /// A config with sensible defaults: 1 000 warm-up arrivals, 10 000
    /// measured arrivals, offered load of 50 concurrent channels, full
    /// trace recording, no faults.
    pub fn new(seed: u64) -> Self {
        ChurnConfig {
            seed,
            warmup: 1_000,
            measured: 10_000,
            mean_interarrival: 1.0,
            mean_holding: 50.0,
            faults: Vec::new(),
            record_trace: true,
        }
    }

    /// Set the warm-up / measured window sizes.
    pub fn windows(mut self, warmup: u64, measured: u64) -> Self {
        self.warmup = warmup;
        self.measured = measured;
        self
    }

    /// Set the offered load: mean inter-arrival and mean holding ticks.
    pub fn load(mut self, mean_interarrival: f64, mean_holding: f64) -> Self {
        self.mean_interarrival = mean_interarrival;
        self.mean_holding = mean_holding;
        self
    }

    /// Cut a trunk just before arrival `at_arrival`.
    pub fn cut_at(mut self, at_arrival: u64, a: SwitchId, b: SwitchId) -> Self {
        self.faults.push(ChurnFault {
            at_arrival,
            trunk: (a, b),
            kind: ChurnFaultKind::Cut,
        });
        self
    }

    /// Repair a trunk just before arrival `at_arrival`.
    pub fn repair_at(mut self, at_arrival: u64, a: SwitchId, b: SwitchId) -> Self {
        self.faults.push(ChurnFault {
            at_arrival,
            trunk: (a, b),
            kind: ChurnFaultKind::Repair,
        });
        self
    }

    /// Disable full trace recording (the hash is still computed).
    pub fn without_trace(mut self) -> Self {
        self.record_trace = false;
        self
    }
}

/// One observable event of a churn run, in process order.  The sequence is
/// a complete, deterministic account of the admission history — two runs
/// (or two manager placements) agree iff their traces are identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// An arrival was admitted as this channel.
    Admitted(ChannelId),
    /// An arrival was rejected by admission control.
    Rejected,
    /// An admitted channel's holding time expired and it was torn down.
    Released(ChannelId),
    /// A scripted trunk cut fired: so many channels re-routed, so many
    /// dropped for lack of a surviving feasible route.
    TrunkCut {
        /// Channels re-admitted over surviving routes.
        rerouted: u16,
        /// Channels released without a surviving feasible route.
        dropped: u16,
    },
    /// A scripted trunk repair fired: so many detoured channels migrated
    /// back to their primary routes (a repair never drops).
    TrunkRepaired {
        /// Channels re-admitted onto the repaired primary routes.
        rerouted: u16,
    },
}

impl ChurnEvent {
    /// Fold this event into a running FNV-1a hash, a channel id as the
    /// word `channel` makes of it.
    fn fold(&self, hash: &mut u64, channel: impl FnOnce(ChannelId) -> u64) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut mix = |word: u64| {
            *hash ^= word;
            *hash = hash.wrapping_mul(PRIME);
        };
        match *self {
            ChurnEvent::Admitted(id) => {
                mix(1);
                mix(channel(id));
            }
            ChurnEvent::Rejected => mix(2),
            ChurnEvent::Released(id) => {
                mix(3);
                mix(channel(id));
            }
            ChurnEvent::TrunkCut { rerouted, dropped } => {
                mix(4);
                mix(u64::from(rerouted));
                mix(u64::from(dropped));
            }
            ChurnEvent::TrunkRepaired { rerouted } => {
                mix(5);
                mix(u64::from(rerouted));
            }
        }
    }
}

/// What a churn run measured.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Total arrivals driven (warm-up + measured).
    pub attempts: u64,
    /// Total arrivals admitted.
    pub admitted: u64,
    /// Arrivals inside the measurement window.
    pub measured_attempts: u64,
    /// Admitted arrivals inside the measurement window.
    pub measured_admitted: u64,
    /// Wall-clock nanoseconds per measured establishment attempt
    /// (request → final verdict through the full control protocol).
    pub measured_latencies: Vec<u64>,
    /// Wall-clock span of the measurement window.
    pub measured_elapsed: Duration,
    /// Most channels concurrently established at any point.
    pub peak_active: usize,
    /// Channels still established when the run ended.
    pub active_at_end: usize,
    /// Channels dropped by scripted trunk cuts.
    pub dropped_by_faults: u64,
    /// The deterministic event trace (empty when recording is off).
    pub trace: Vec<ChurnEvent>,
    /// FNV-1a hash over the full event sequence — always computed, equal
    /// iff the traces are equal.
    pub trace_hash: u64,
    /// FNV-1a hash over the event sequence with channel ids renumbered by
    /// admission order (the first `Admitted` becomes 1, the second 2, …;
    /// `Released` follows the remapping).  Two placements that admit and
    /// release the *same channels in the same order* agree on this hash
    /// even when their id allocators differ — the parity invariant under
    /// the distributed manager's per-switch id blocks.
    pub normalized_trace_hash: u64,
}

impl ChurnReport {
    /// Fraction of measured arrivals that were admitted.
    pub fn acceptance_ratio(&self) -> f64 {
        if self.measured_attempts == 0 {
            return 0.0;
        }
        self.measured_admitted as f64 / self.measured_attempts as f64
    }
}

/// Admission-order renumbering of channel ids for the normalized hash: the
/// raw id of each *live* channel → its admission sequence number.  A raw id
/// reused after its release gets a fresh number, so allocator wrap-around
/// never aliases two distinct channels; a channel that is released (or
/// dropped by a fault) is forgotten, so the map holds the live channels and
/// nothing else.
#[derive(Debug, Default)]
struct AdmissionOrderIds {
    admitted: u64,
    live: HashMap<u16, u64, FoldState>,
}

impl AdmissionOrderIds {
    /// A channel was admitted under `raw`: its number, one past the last.
    fn admitted(&mut self, raw: u16) -> u64 {
        self.admitted += 1;
        self.live.insert(raw, self.admitted);
        self.admitted
    }

    /// The channel under `raw` is gone: the number it was admitted with, 0
    /// if no live channel holds that id.
    fn released(&mut self, raw: u16) -> u64 {
        self.live.remove(&raw).unwrap_or(0)
    }

    /// Ids currently mapped.
    fn len(&self) -> usize {
        self.live.len()
    }
}

/// An established channel the process will eventually tear down.
#[derive(Debug, Clone, Copy)]
struct ActiveChannel {
    source: NodeId,
    /// The source's access switch — where the tear-down frame enters the
    /// fabric (the coordinator under distributed placement).
    access: SwitchId,
    /// Admission sequence number — the placement-invariant departure
    /// tie-break (raw ids differ across placements by construction), and
    /// what tells this channel's departure entry from one a dropped
    /// earlier holder of the same raw id left in the heap.
    admit_order: u64,
}

/// The seeded arrival/departure process.  Construct once per run; `run`
/// consumes the configured number of arrivals against one manager.
#[derive(Debug)]
pub struct ChurnProcess {
    config: ChurnConfig,
    /// Attached nodes with their access switches, in ascending node order.
    endpoints: Vec<(NodeId, SwitchId)>,
}

impl ChurnProcess {
    /// Build a churn process over the fabric's attached nodes.  Fails if
    /// the topology has fewer than two nodes (no channel has distinct
    /// endpoints) or the fault script names an arrival outside the run.
    pub fn new(config: ChurnConfig, topology: &Topology) -> RtResult<Self> {
        let endpoints: Vec<(NodeId, SwitchId)> = topology
            .nodes()
            .map(|n| {
                let access = topology
                    .switch_of(n)
                    .ok_or_else(|| RtError::Config(format!("node {n} has no access switch")))?;
                Ok((n, access))
            })
            .collect::<RtResult<_>>()?;
        if endpoints.len() < 2 {
            return Err(RtError::Config(format!(
                "churn needs at least two attached nodes, topology has {}",
                endpoints.len()
            )));
        }
        let total = config.warmup + config.measured;
        if let Some(fault) = config.faults.iter().find(|f| f.at_arrival >= total) {
            return Err(RtError::Config(format!(
                "churn fault at arrival {} is outside the run ({} arrivals)",
                fault.at_arrival, total
            )));
        }
        Ok(ChurnProcess { config, endpoints })
    }

    /// The configuration this process runs.
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// Drive the full arrival/departure process against `manager`.
    ///
    /// The manager must have been built over the same topology the process
    /// was constructed with (the process addresses control frames to the
    /// nodes' access switches).  Works against any [`ChannelManager`] —
    /// central or distributed — through the synchronous protocol pump.
    pub fn run<M: ChannelManager + ?Sized>(&self, manager: &mut M) -> RtResult<ChurnReport> {
        let cfg = &self.config;
        let mut arrivals_rng = Xoshiro256::new(cfg.seed).derive(1);
        let mut holding_rng = Xoshiro256::new(cfg.seed).derive(2);
        let mut endpoint_rng = Xoshiro256::new(cfg.seed).derive(3);
        let mut specs = HeterogeneousSpecs::new(cfg.seed ^ 0x6368_7572_6e21_0000);

        let mut faults = cfg.faults.clone();
        faults.sort_by_key(|f| f.at_arrival);
        let mut next_fault = 0usize;

        let total = cfg.warmup + cfg.measured;
        let mut report = ChurnReport {
            attempts: 0,
            admitted: 0,
            measured_attempts: 0,
            measured_admitted: 0,
            measured_latencies: Vec::with_capacity(cfg.measured as usize),
            measured_elapsed: Duration::ZERO,
            peak_active: 0,
            active_at_end: 0,
            dropped_by_faults: 0,
            trace: Vec::new(),
            trace_hash: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
            normalized_trace_hash: 0xcbf2_9ce4_8422_2325,
        };
        let mut norm_ids = AdmissionOrderIds::default();
        let record = |report: &mut ChurnReport, ids: &mut AdmissionOrderIds, event: ChurnEvent| {
            event.fold(&mut report.trace_hash, |id| u64::from(id.get()));
            event.fold(&mut report.normalized_trace_hash, |id| match event {
                ChurnEvent::Admitted(_) => ids.admitted(id.get()),
                _ => ids.released(id.get()),
            });
            if cfg.record_trace {
                report.trace.push(event);
            }
        };

        // Virtual clock state: the active channels by raw id, and their
        // departures in a min-heap on (tick, admission order, raw id): raw
        // ids are placement-dependent under per-switch id blocks, so
        // same-tick departures tie-break on the admission order, which both
        // placements share.  A channel a fault drops leaves its entry in the
        // heap; the entry is skipped when it comes up, since its id is no
        // longer active under that admission order.
        let mut clock = 0u64;
        let mut active: HashMap<u16, ActiveChannel, FoldState> = HashMap::default();
        let mut departures: BinaryHeap<Reverse<(u64, u64, u16)>> = BinaryHeap::new();
        let mut pump = ProtocolPump::new();
        let mut window_started = None;

        for arrival in 0..total {
            if arrival == cfg.warmup {
                window_started = Some(Instant::now());
            }
            // Scripted faults pinned to this arrival fire first.
            while faults
                .get(next_fault)
                .is_some_and(|f| f.at_arrival == arrival)
            {
                let fault = faults[next_fault];
                next_fault += 1;
                let (a, b) = fault.trunk;
                match fault.kind {
                    ChurnFaultKind::Cut => {
                        let outcome = manager.handle_link_failure(a, b)?;
                        pump.flood(manager)?;
                        for dropped in &outcome.dropped {
                            let id = dropped.id.get();
                            // No `Released` will name this channel.
                            norm_ids.released(id);
                            active.remove(&id);
                        }
                        report.dropped_by_faults += outcome.dropped.len() as u64;
                        record(
                            &mut report,
                            &mut norm_ids,
                            ChurnEvent::TrunkCut {
                                rerouted: outcome.rerouted.len() as u16,
                                dropped: outcome.dropped.len() as u16,
                            },
                        );
                    }
                    ChurnFaultKind::Repair => {
                        let outcome = manager.handle_link_repair(a, b)?;
                        pump.flood(manager)?;
                        record(
                            &mut report,
                            &mut norm_ids,
                            ChurnEvent::TrunkRepaired {
                                rerouted: outcome.rerouted.len() as u16,
                            },
                        );
                    }
                }
            }

            // Advance the clock to this arrival, tearing down every channel
            // whose holding time expired on the way.
            let step = arrivals_rng.exponential(cfg.mean_interarrival).round() as u64;
            clock += step.max(1);
            while let Some(&Reverse((when, order, id))) = departures.peek() {
                if when > clock {
                    break;
                }
                departures.pop();
                let channel = match active.entry(id) {
                    hash_map::Entry::Occupied(entry) if entry.get().admit_order == order => {
                        entry.remove()
                    }
                    _ => continue,
                };
                pump.release(manager, channel.access, channel.source, ChannelId::new(id))?;
                record(
                    &mut report,
                    &mut norm_ids,
                    ChurnEvent::Released(ChannelId::new(id)),
                );
            }

            // The arrival itself: uniform distinct endpoint pair, a spec
            // from the heterogeneous sweep, one full establishment
            // handshake.
            let (source, src_switch) =
                self.endpoints[endpoint_rng.below(self.endpoints.len() as u64) as usize];
            let mut di = endpoint_rng.below(self.endpoints.len() as u64) as usize;
            if self.endpoints[di].0 == source {
                di = (di + 1) % self.endpoints.len();
            }
            let (destination, dst_switch) = self.endpoints[di];
            let spec = specs.next_spec();
            let request_id = ConnectionRequestId::new((arrival & 0xff) as u8);

            let started = Instant::now();
            let verdict = pump.establish(
                manager,
                src_switch,
                dst_switch,
                source,
                destination,
                spec,
                request_id,
            )?;
            let latency = started.elapsed().as_nanos() as u64;

            report.attempts += 1;
            let measured = arrival >= cfg.warmup;
            if measured {
                report.measured_attempts += 1;
                report.measured_latencies.push(latency);
            }
            match verdict {
                Some(id) => {
                    report.admitted += 1;
                    if measured {
                        report.measured_admitted += 1;
                    }
                    let holding = holding_rng.exponential(cfg.mean_holding).round() as u64;
                    let departs_at = clock + holding.max(1);
                    let admit_order = report.admitted;
                    active.insert(
                        id.get(),
                        ActiveChannel {
                            source,
                            access: src_switch,
                            admit_order,
                        },
                    );
                    departures.push(Reverse((departs_at, admit_order, id.get())));
                    report.peak_active = report.peak_active.max(active.len());
                    record(&mut report, &mut norm_ids, ChurnEvent::Admitted(id));
                }
                None => record(&mut report, &mut norm_ids, ChurnEvent::Rejected),
            }
            debug_assert_eq!(
                norm_ids.len(),
                active.len(),
                "the renumbering holds the live channels and nothing else"
            );
        }

        report.measured_elapsed = window_started
            .map(|t| t.elapsed())
            .unwrap_or(Duration::ZERO);
        report.active_at_end = active.len();
        Ok(report)
    }
}

/// The synchronous control-protocol pump: delivers control frames to the
/// manager switch by switch, exactly as the wire would, but without the
/// simulator in between.  Destinations always accept (the node-side RT
/// layer rejects only on an incoming-channel cap, which churn does not
/// configure).
#[derive(Debug)]
struct ProtocolPump {
    queue: VecDeque<(SwitchId, NodeId, Frame)>,
}

impl ProtocolPump {
    fn new() -> Self {
        ProtocolPump {
            queue: VecDeque::new(),
        }
    }

    /// One full establishment handshake; returns the admitted channel id or
    /// `None` on rejection.
    #[allow(clippy::too_many_arguments)]
    fn establish<M: ChannelManager + ?Sized>(
        &mut self,
        manager: &mut M,
        src_switch: SwitchId,
        dst_switch: SwitchId,
        source: NodeId,
        destination: NodeId,
        spec: RtChannelSpec,
        request_id: ConnectionRequestId,
    ) -> RtResult<Option<ChannelId>> {
        let request = ProtocolRequest {
            source,
            destination,
            spec,
            request_id,
        }
        .to_frame();
        let first = (src_switch, source, Frame::Request(request));
        let mut verdict = None;
        self.drain(manager, [first], |action| match action {
            SwitchAction::ForwardRequest { to, frame } => {
                // The destination node accepts and answers through its own
                // access switch, like the RT layer would.
                debug_assert_eq!(to, destination);
                let response = ResponseFrame {
                    rt_channel_id: frame.rt_channel_id,
                    switch_mac: MacAddr::for_switch(),
                    verdict: ResponseVerdict::Accepted,
                    connection_request_id: frame.connection_request_id,
                };
                Some((dst_switch, to, Frame::Response(response)))
            }
            SwitchAction::SendResponse { frame, .. } => {
                verdict = Some(match frame.verdict {
                    ResponseVerdict::Accepted => frame.rt_channel_id,
                    ResponseVerdict::Rejected => None,
                });
                None
            }
            SwitchAction::SendControl { .. } => None,
        })?;
        verdict.ok_or_else(|| {
            RtError::ProtocolViolation("establishment pump drained without a verdict".into())
        })
    }

    /// Tear a channel down from its source's access switch (the coordinator
    /// under distributed placement), draining any follow-up reservation
    /// traffic (the distributed release fan-out along the route).
    fn release<M: ChannelManager + ?Sized>(
        &mut self,
        manager: &mut M,
        access: SwitchId,
        source: NodeId,
        id: ChannelId,
    ) -> RtResult<()> {
        let teardown = Frame::Teardown(TeardownFrame { rt_channel_id: id });
        self.drain(manager, [(access, source, teardown)], |_| None)
    }

    /// Propagate a topology event's link-state flood to convergence: drain
    /// the control frames the fault origins queued (empty under central
    /// placement) and pump them — and every re-flood they trigger — switch
    /// to switch until the fabric is quiet.  Churn's faults are applied
    /// between arrivals, so the flood always converges before the next
    /// admission: traces stay placement-identical.
    fn flood<M: ChannelManager + ?Sized>(&mut self, manager: &mut M) -> RtResult<()> {
        let origins = manager.drain_control().into_iter();
        let seeds = origins.filter_map(|(_, action)| match action {
            SwitchAction::SendControl { to, frame } => Some(to_switch(to, frame)),
            _ => None,
        });
        self.drain(manager, seeds, |_| None)
    }

    /// Deliver `first` in order, and every frame the deliveries emit, until
    /// nothing is left: reservation frames go to the switch they are sent
    /// to, any other emission to `other`, which may answer with a frame to
    /// deliver.  The pump is synchronous: every frame is delivered in zero
    /// simulated time, so reservation leases never expire mid-pump.
    fn drain<M: ChannelManager + ?Sized>(
        &mut self,
        manager: &mut M,
        first: impl IntoIterator<Item = (SwitchId, NodeId, Frame)>,
        mut other: impl FnMut(SwitchAction) -> Option<(SwitchId, NodeId, Frame)>,
    ) -> RtResult<()> {
        self.queue.clear();
        self.queue.extend(first);
        while let Some((at, from, frame)) = self.queue.pop_front() {
            let outcome = manager.handle_frame_at(at, from, &frame, SimTime::ZERO)?;
            for (_, action) in outcome.emissions {
                match action {
                    SwitchAction::SendControl { to, frame } => {
                        self.queue.push_back(to_switch(to, frame));
                    }
                    action => self.queue.extend(other(action)),
                }
            }
        }
        Ok(())
    }
}

/// A reservation frame as the pump delivers it: to the switch it is sent
/// to, from that switch's control plane.
fn to_switch(to: SwitchId, frame: ReservationFrame) -> (SwitchId, NodeId, Frame) {
    (to, NodeId::SWITCH, Frame::Reservation(frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_core::{
        DistributedChannelManager, FabricChannelManager, MultiHopAdmission, MultiHopDps,
    };
    use rt_types::{Router, ShortestPathRouter};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn central(topology: &Topology) -> FabricChannelManager {
        central_with(
            topology,
            MultiHopDps::Symmetric,
            Arc::new(ShortestPathRouter::new()),
        )
    }

    fn central_with(
        topology: &Topology,
        dps: MultiHopDps,
        router: Arc<dyn Router>,
    ) -> FabricChannelManager {
        FabricChannelManager::new(MultiHopAdmission::with_router(
            topology.clone(),
            dps,
            router,
        ))
    }

    fn distributed(topology: &Topology) -> DistributedChannelManager {
        DistributedChannelManager::new(
            topology.clone(),
            MultiHopDps::Symmetric,
            Arc::new(ShortestPathRouter::new()),
        )
    }

    #[test]
    fn churn_reaches_steady_state_and_is_deterministic() {
        let topology = Topology::fat_tree(4).unwrap();
        let config = ChurnConfig::new(7).windows(200, 800).load(1.0, 40.0);
        let process = ChurnProcess::new(config, &topology).unwrap();

        let run = |process: &ChurnProcess| {
            let mut manager = central(&topology);
            process.run(&mut manager).unwrap()
        };
        let first = run(&process);
        let second = run(&process);

        assert_eq!(first.attempts, 1_000);
        assert_eq!(first.measured_attempts, 800);
        assert!(first.admitted > 0, "some arrivals must be admitted");
        assert!(
            first
                .trace
                .iter()
                .any(|e| matches!(e, ChurnEvent::Released(_))),
            "holding times must expire mid-run"
        );
        assert!(first.peak_active > 0 && first.active_at_end > 0);
        // Same seed, same fabric, same manager → byte-identical trace.
        assert_eq!(first.trace, second.trace);
        assert_eq!(first.trace_hash, second.trace_hash);
        assert_eq!(first.measured_admitted, second.measured_admitted);
    }

    #[test]
    fn central_and_distributed_churn_traces_agree() {
        let topology = Topology::fat_tree(4).unwrap();
        let config = ChurnConfig::new(11).windows(100, 400).load(1.0, 30.0);
        let process = ChurnProcess::new(config, &topology).unwrap();

        let mut c = central(&topology);
        let mut d = distributed(&topology);
        let central_report = process.run(&mut c).unwrap();
        let distributed_report = process.run(&mut d).unwrap();

        // Raw ids differ by construction (the distributed manager allocates
        // from per-switch blocks), so parity is checked on the
        // admission-order-normalized hash and an explicit id remapping.
        assert_eq!(central_report.trace.len(), distributed_report.trace.len());
        let mut remap: BTreeMap<ChannelId, ChannelId> = BTreeMap::new();
        for (i, (ce, de)) in central_report
            .trace
            .iter()
            .zip(distributed_report.trace.iter())
            .enumerate()
        {
            match (ce, de) {
                (ChurnEvent::Admitted(a), ChurnEvent::Admitted(b)) => {
                    remap.insert(*a, *b);
                }
                (ChurnEvent::Released(a), ChurnEvent::Released(b)) => {
                    assert_eq!(remap.get(a), Some(b), "release order must agree at {i}");
                }
                (x, y) => assert_eq!(x, y, "non-admission events must be identical at {i}"),
            }
        }
        assert_eq!(
            central_report.normalized_trace_hash,
            distributed_report.normalized_trace_hash
        );
        assert_eq!(c.channel_count(), d.channel_count());
        let mapped: std::collections::BTreeSet<ChannelId> = c
            .channel_ids()
            .into_iter()
            .map(|id| *remap.get(&id).expect("surviving channel was admitted"))
            .collect();
        let d_ids: std::collections::BTreeSet<ChannelId> = d.channel_ids().into_iter().collect();
        assert_eq!(mapped, d_ids);
    }

    #[test]
    fn ring_acceptance_drops_under_a_cut_and_recovers_on_repair() {
        // On a small ring every trunk carries a large share of the capacity
        // and the only detour is the long way round, so a cut visibly
        // depresses steady-state acceptance and the repair re-optimisation
        // visibly restores it.  Seeded: the counts are exact.
        let topology = Topology::ring(6, 4);
        let (warmup, measured) = (2_000u64, 9_000u64);
        let cut_at = warmup + measured / 3;
        let repair_at = warmup + measured * 2 / 3;
        let (a, b) = topology.trunks().next().unwrap();
        let config = ChurnConfig::new(0x50a4)
            .windows(warmup, measured)
            .load(1.0, 250.0)
            .cut_at(cut_at, a, b)
            .repair_at(repair_at, a, b);
        let process = ChurnProcess::new(config, &topology).unwrap();
        let mut manager = central_with(
            &topology,
            MultiHopDps::Asymmetric,
            Arc::new(ShortestPathRouter::new()),
        );
        let report = process.run(&mut manager).unwrap();

        // (attempts, admitted) of the measured arrivals before the cut,
        // while degraded, and after the repair.
        let mut segments = [(0u64, 0u64); 3];
        let (mut rerouted_by_cut, mut rerouted_by_repair) = (0u64, 0u64);
        let mut arrival = 0u64;
        for event in &report.trace {
            match event {
                ChurnEvent::Admitted(_) | ChurnEvent::Rejected => {
                    if arrival >= warmup {
                        let segment =
                            usize::from(arrival >= cut_at) + usize::from(arrival >= repair_at);
                        segments[segment].0 += 1;
                        segments[segment].1 += u64::from(matches!(event, ChurnEvent::Admitted(_)));
                    }
                    arrival += 1;
                }
                ChurnEvent::TrunkCut { rerouted, .. } => rerouted_by_cut += u64::from(*rerouted),
                ChurnEvent::TrunkRepaired { rerouted } => {
                    rerouted_by_repair += u64::from(*rerouted)
                }
                ChurnEvent::Released(_) => {}
            }
        }
        let [pre_cut, degraded, recovered] = segments;
        assert_eq!([pre_cut.0, degraded.0, recovered.0], [3_000; 3]);
        // 0.7683 -> 0.6603 -> 0.7667
        assert_eq!([pre_cut.1, degraded.1, recovered.1], [2_305, 1_981, 2_300]);
        assert!(degraded.1 < pre_cut.1 && recovered.1 > degraded.1);
        assert_eq!((rerouted_by_cut, rerouted_by_repair), (9, 17));
    }

    #[test]
    fn scripted_faults_interleave_with_churn() {
        // A 3×3 torus has redundant paths, so a cut re-routes rather than
        // drops and the repair migrates detours back.
        let topology = Topology::torus_nd(&[3, 3], 2).unwrap();
        let (a, b) = topology.trunks().next().unwrap();
        let config = ChurnConfig::new(3)
            .windows(100, 300)
            .load(1.0, 60.0)
            .cut_at(150, a, b)
            .repair_at(250, a, b);
        let process = ChurnProcess::new(config, &topology).unwrap();
        let mut manager = central(&topology);
        let report = process.run(&mut manager).unwrap();

        let cut = report
            .trace
            .iter()
            .find(|e| matches!(e, ChurnEvent::TrunkCut { .. }))
            .expect("cut event recorded");
        assert!(matches!(cut, ChurnEvent::TrunkCut { .. }));
        assert!(
            report
                .trace
                .iter()
                .any(|e| matches!(e, ChurnEvent::TrunkRepaired { .. })),
            "repair event recorded"
        );
        // Churn continues past the faults.
        assert_eq!(report.attempts, 400);
    }

    /// `trace_hash` (and, the central ids not having wrapped, also
    /// `normalized_trace_hash`) of the two runs below, read at the commit
    /// before the renumbering learnt to forget.
    const PLAIN_HASH: u64 = 0xe9a6_f982_eeb7_b8b3;
    const FAULTED_HASH: u64 = 0xed71_8552_0f6c_eeda;

    /// The renumbering behind `normalized_trace_hash` forgets a channel when
    /// it goes, and hashes what it always hashed.
    #[test]
    fn admission_order_ids_hold_the_live_channels_and_nothing_else() {
        let mut ids = AdmissionOrderIds::default();
        assert_eq!((ids.admitted(7), ids.admitted(8)), (1, 2));
        assert_eq!(ids.released(7), 1);
        assert_eq!(ids.released(7), 0, "a second release finds nothing");
        assert_eq!(ids.released(99), 0, "an id never admitted folds 0");
        assert_eq!(ids.admitted(7), 3, "a reused raw id gets a fresh number");
        assert_eq!((ids.released(7), ids.len()), (3, 1));

        // 5 000 arrivals replayed from the recorded trace: the map is the
        // live set after every event, and the replay folds to the hash the
        // run reported (the values the map-that-never-forgot produced).
        let topology = Topology::fat_tree(4).unwrap();
        let config = ChurnConfig::new(23).windows(1_000, 4_000).load(1.0, 40.0);
        let mut manager = central(&topology);
        let process = ChurnProcess::new(config, &topology).unwrap();
        let report = process.run(&mut manager).unwrap();
        let (mut ids, mut live, mut peak) = (AdmissionOrderIds::default(), 0usize, 0usize);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |byte: u64| hash = (hash ^ byte).wrapping_mul(0x0000_0100_0000_01b3);
        for event in &report.trace {
            match *event {
                ChurnEvent::Admitted(id) => {
                    live += 1;
                    mix(1);
                    mix(ids.admitted(id.get()));
                }
                ChurnEvent::Released(id) => {
                    live -= 1;
                    mix(3);
                    mix(ids.released(id.get()));
                }
                ChurnEvent::Rejected => mix(2),
                ref fault => panic!("no fault was scripted: {fault:?}"),
            }
            assert_eq!(ids.len(), live);
            peak = peak.max(live);
        }
        assert_eq!(hash, report.normalized_trace_hash);
        assert_eq!((peak, live), (report.peak_active, report.active_at_end));
        assert_eq!(
            (report.trace_hash, report.normalized_trace_hash),
            (PLAIN_HASH, PLAIN_HASH)
        );

        // Under faults that drop channels no `Released` names them: the run
        // itself holds the map to the live set (a debug assertion per
        // arrival), and the hashes are again the old ones.
        let ring = Topology::ring(6, 4);
        let (a, b) = ring.trunks().next().unwrap();
        let mut config = ChurnConfig::new(29).windows(500, 4_500).load(1.0, 250.0);
        for flap in 0..20 {
            config = config
                .cut_at(200 + 200 * flap, a, b)
                .repair_at(300 + 200 * flap, a, b);
        }
        let mut manager = central(&ring);
        let process = ChurnProcess::new(config, &ring).unwrap();
        let report = process.run(&mut manager).unwrap();
        assert!(report.dropped_by_faults > 0, "the cuts dropped channels");
        assert_eq!(
            (report.trace_hash, report.normalized_trace_hash),
            (FAULTED_HASH, FAULTED_HASH)
        );
    }

    #[test]
    fn config_validation_rejects_bad_setups() {
        let topology = Topology::fat_tree(4).unwrap();
        let late_fault =
            ChurnConfig::new(1)
                .windows(10, 10)
                .cut_at(20, SwitchId::new(0), SwitchId::new(1));
        assert!(ChurnProcess::new(late_fault, &topology).is_err());

        let mut lonely = Topology::new();
        lonely.add_switch(SwitchId::new(0));
        lonely
            .attach_node(NodeId::new(0), SwitchId::new(0))
            .unwrap();
        assert!(ChurnProcess::new(ChurnConfig::new(1), &lonely).is_err());
    }

    #[test]
    fn trace_hash_matches_trace_equality() {
        let topology = Topology::fat_tree(4).unwrap();
        let process_a = ChurnProcess::new(ChurnConfig::new(5).windows(50, 150), &topology).unwrap();
        let process_b = ChurnProcess::new(ChurnConfig::new(6).windows(50, 150), &topology).unwrap();
        let mut m1 = central(&topology);
        let mut m2 = central(&topology);
        let r1 = process_a.run(&mut m1).unwrap();
        let r2 = process_b.run(&mut m2).unwrap();
        assert_ne!(r1.trace, r2.trace, "different seeds diverge");
        assert_ne!(r1.trace_hash, r2.trace_hash);

        // Trace recording off still hashes identically.
        let quiet = ChurnProcess::new(
            ChurnConfig::new(5).windows(50, 150).without_trace(),
            &topology,
        )
        .unwrap();
        let mut m3 = central(&topology);
        let r3 = quiet.run(&mut m3).unwrap();
        assert!(r3.trace.is_empty());
        assert_eq!(r3.trace_hash, r1.trace_hash);
    }
}
