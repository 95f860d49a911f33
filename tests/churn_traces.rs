//! The churn soak's trace hashes, pinned.
//!
//! Each run below is one of the benchmark's three churn workloads at its
//! `--smoke` size (1/50 of the measured run), on seed 20644 and the same
//! cut/repair script: `rtbench run --workload all --smoke` prints these
//! digests.  The managers and the churn engine keep their per-arrival tables
//! hashed, and only the outputs that promise ascending ids sort; an order
//! that leaks from a hashed table into a verdict, a fail-over or a
//! departure changes a hash here.

use std::collections::BTreeSet;
use std::sync::Arc;

use switched_rt_ethernet::core::manager::SwitchAction;
use switched_rt_ethernet::core::{
    ChannelManager, ChannelRoute, ControlOutcome, DistributedChannelManager, FabricChannelManager,
    FailoverReport, MultiHopAdmission, MultiHopDps, ReleasedChannel,
};
use switched_rt_ethernet::frames::{Frame, RequestFrame, ReservationOp, ResponseFrame};
use switched_rt_ethernet::traffic::{ChurnConfig, ChurnProcess};
use switched_rt_ethernet::types::{
    ChannelId, Duration, HopLink, NodeId, Router, RtResult, ShortestPathRouter, SimTime, SwitchId,
    Topology,
};

/// The benchmark's seed.
const SEED: u64 = 20644;

/// One churn workload at smoke size.
struct Soak {
    topology: Topology,
    warmup: u64,
    measured: u64,
    holding: f64,
    /// One scripted trunk event per this many measured arrivals.
    fault_every: Option<u64>,
}

impl Soak {
    /// The seeded process, with the fault script if there is one: event `e`
    /// lands in the middle of the `e`-th stretch of `fault_every` measured
    /// arrivals and alternates cut and repair of trunk `(37·flap) mod n`.
    fn process(&self) -> ChurnProcess {
        let mut config = ChurnConfig::new(SEED)
            .windows(self.warmup, self.measured)
            .load(1.0, self.holding)
            .without_trace();
        if let Some(every) = self.fault_every {
            let trunks: Vec<_> = self.topology.trunks().collect();
            for event in 0..self.measured / every {
                let at = self.warmup + every * event + every / 2;
                let (a, b) = trunks[(37 * (event / 2) % trunks.len() as u64) as usize];
                config = if event % 2 == 0 {
                    config.cut_at(at, a, b)
                } else {
                    config.repair_at(at, a, b)
                };
            }
        }
        ChurnProcess::new(config, &self.topology).expect("the fault script lies inside the run")
    }

    fn normalized_trace_hash(&self, manager: &mut impl ChannelManager) -> u64 {
        let report = self
            .process()
            .run(manager)
            .expect("every arrival gets a verdict");
        assert_eq!(report.measured_attempts, self.measured);
        report.normalized_trace_hash
    }

    fn central(&self) -> u64 {
        let router: Arc<dyn Router> = Arc::new(ShortestPathRouter::new());
        let admission =
            MultiHopAdmission::with_router(self.topology.clone(), MultiHopDps::Asymmetric, router);
        self.normalized_trace_hash(&mut FabricChannelManager::new(admission))
    }

    fn distributed(&self) -> u64 {
        let router: Arc<dyn Router> = Arc::new(ShortestPathRouter::new());
        let topology = self.topology.clone();
        let mut manager = DistributedChannelManager::new(topology, MultiHopDps::Asymmetric, router);
        self.normalized_trace_hash(&mut manager)
    }
}

fn fat_tree_16() -> Topology {
    Topology::fat_tree(16).expect("fat_tree(16) is valid")
}

#[test]
fn churn_central_smoke_trace_is_pinned() {
    let soak = Soak {
        topology: fat_tree_16(),
        warmup: 200,
        measured: 2_000,
        holding: 1_000.0,
        fault_every: None,
    };
    assert_eq!(format!("{:016x}", soak.central()), "24d9209a0f110e6d");
}

#[test]
fn churn_distributed_smoke_trace_is_pinned() {
    let soak = Soak {
        topology: fat_tree_16(),
        warmup: 60,
        measured: 160,
        holding: 1_000.0,
        fault_every: None,
    };
    assert_eq!(format!("{:016x}", soak.distributed()), "4f7c4934a5bf8a39");
}

#[test]
fn churn_faults_smoke_trace_is_pinned() {
    let soak = Soak {
        topology: Topology::torus_nd(&[4, 4, 4, 4], 4).expect("the 4-D torus is valid"),
        warmup: 200,
        measured: 500,
        holding: 2_500.0,
        fault_every: Some(100),
    };
    assert_eq!(format!("{:016x}", soak.central()), "0560908332dd47b4");
}

/// The distributed manager with the instant of every Request it is handed,
/// and the key of every handshake whose first Probe it is handed, on the
/// record.
#[derive(Debug)]
struct KeyLog {
    manager: DistributedChannelManager,
    requests: Vec<SimTime>,
    keys: Vec<(SwitchId, u16)>,
}

impl ChannelManager for KeyLog {
    fn handle_request(&mut self, frame: &RequestFrame) -> RtResult<Vec<SwitchAction>> {
        self.manager.handle_request(frame)
    }

    fn handle_response(&mut self, frame: &ResponseFrame) -> RtResult<Vec<SwitchAction>> {
        self.manager.handle_response(frame)
    }

    fn handle_teardown(&mut self, channel: ChannelId) -> RtResult<ReleasedChannel> {
        self.manager.handle_teardown(channel)
    }

    fn channel_count(&self) -> usize {
        self.manager.channel_count()
    }

    fn pending_count(&self) -> usize {
        self.manager.pending_count()
    }

    fn channel_ids(&self) -> Vec<ChannelId> {
        self.manager.channel_ids()
    }

    fn channel_route(&self, id: ChannelId) -> Option<ChannelRoute> {
        self.manager.channel_route(id)
    }

    fn link_load(&self, link: HopLink) -> usize {
        self.manager.link_load(link)
    }

    fn schedules_hops(&self) -> bool {
        self.manager.schedules_hops()
    }

    fn handle_link_failure(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport> {
        self.manager.handle_link_failure(from, to)
    }

    fn handle_link_repair(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport> {
        self.manager.handle_link_repair(from, to)
    }

    fn handle_switch_failure(&mut self, switch: SwitchId) -> RtResult<FailoverReport> {
        self.manager.handle_switch_failure(switch)
    }

    fn handle_frame_at(
        &mut self,
        at: SwitchId,
        from: NodeId,
        frame: &Frame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        match frame {
            Frame::Request(_) => self.requests.push(now),
            Frame::Reservation(f) if f.op == ReservationOp::Probe && f.hop == 1 => {
                self.keys.push((f.coordinator, f.token));
            }
            _ => {}
        }
        self.manager.handle_frame_at(at, from, frame, now)
    }

    fn next_timeout(&self) -> Option<SimTime> {
        self.manager.next_timeout()
    }

    fn on_tick(&mut self, now: SimTime) -> RtResult<ControlOutcome> {
        self.manager.on_tick(now)
    }

    fn drain_control(&mut self) -> Vec<(SwitchId, SwitchAction)> {
        self.manager.drain_control()
    }

    fn audit_quiescent(&self) -> RtResult<()> {
        self.manager.audit_quiescent()
    }
}

/// How soon a reservation token can come round again under
/// `churn_distributed` at smoke size, against the 50 ms lease that bounds
/// how long a copy of a handshake's frame can find its key live.  One `u16`
/// counter serves every coordinator and each request takes its next free
/// token, so a token is handed out again only 65 535 requests later:
/// here the first Probes show one key per handshake, tokens in request
/// order, none twice.  But the churn pump delivers every frame at
/// simulated time zero, so the 220 requests — and any 65 535 of a longer
/// run — fall on one instant: the shortest simulated interval before a
/// token comes round is zero, below the lease.  Only the request count
/// stands between a held-back copy and a new handshake under its key.
#[test]
fn a_token_can_come_round_before_a_lease_runs_out() {
    let soak = Soak {
        topology: fat_tree_16(),
        warmup: 60,
        measured: 160,
        holding: 1_000.0,
        fault_every: None,
    };
    let router: Arc<dyn Router> = Arc::new(ShortestPathRouter::new());
    let manager =
        DistributedChannelManager::new(soak.topology.clone(), MultiHopDps::Asymmetric, router);
    let lease = manager.lease_duration();
    let mut log = KeyLog {
        manager,
        requests: Vec::new(),
        keys: Vec::new(),
    };
    assert_eq!(
        format!("{:016x}", soak.normalized_trace_hash(&mut log)),
        "4f7c4934a5bf8a39"
    );
    assert_eq!(log.requests.len(), 220);
    let distinct: BTreeSet<_> = log.keys.iter().collect();
    assert_eq!(distinct.len(), log.keys.len(), "a key handed out twice");
    assert!(log.keys.windows(2).all(|pair| pair[0].1 < pair[1].1));
    let (first, last) = (log.requests.iter().min(), log.requests.iter().max());
    let span = *last.unwrap() - *first.unwrap();
    assert_eq!(span, Duration::ZERO, "the requests span simulated time");
    assert!(span < lease);
}
