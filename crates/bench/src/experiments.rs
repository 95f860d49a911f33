//! Reusable experiment drivers shared by the experiment binaries.

use rt_core::{DpsKind, MultiHopAdmission, Refusal, RtChannelSpec, RtNetwork};
use rt_edf::FeasibilityTester;
use rt_traffic::{ChannelRequest, RequestPattern, Scenario};
use rt_types::{Duration, HopLink, NodeId, SimTime, SwitchId, Topology};

/// Aggregate result of feeding a request sequence to one admission
/// controller configuration.
#[derive(Debug, Clone)]
pub struct AdmissionRunResult {
    /// Number of requests submitted.
    pub requested: u64,
    /// Number of requests accepted.
    pub accepted: u64,
    /// Rejections whose bottleneck was an uplink.
    pub rejected_uplink: u64,
    /// Rejections whose bottleneck was a downlink.
    pub rejected_downlink: u64,
    /// Rejections no single link is to blame for (the deadline could not be
    /// partitioned).
    pub rejected_other: u64,
}

impl AdmissionRunResult {
    /// Acceptance ratio in `[0, 1]`.
    pub fn acceptance_ratio(&self) -> f64 {
        if self.requested == 0 {
            0.0
        } else {
            self.accepted as f64 / self.requested as f64
        }
    }
}

/// Feed `requests` to a fresh admission controller over the single-switch
/// star of `nodes` using `dps`, handing every refusal to `refused`; the
/// controller comes back for whoever wants to look at what it admitted.
fn admit_all(
    nodes: &[NodeId],
    requests: &[ChannelRequest],
    dps: DpsKind,
    utilisation_only: bool,
    mut refused: impl FnMut(Refusal),
) -> MultiHopAdmission {
    let star = Topology::star(SwitchId::new(0), nodes.iter().copied());
    let mut admission = MultiHopAdmission::new(star, dps);
    if utilisation_only {
        admission = admission.with_tester(FeasibilityTester::utilisation_only());
    }
    for req in requests {
        if let Err(refusal) = admission
            .request(req.source, req.destination, req.spec)
            .expect("a valid request over known nodes cannot error")
        {
            refused(refusal);
        }
    }
    admission
}

/// Feed `requests` to a fresh star admission controller (`nodes`, `dps`,
/// `utilisation_only` as for [`run_admission_returning_controller`]) and
/// count the verdicts, rejections by the kind of link that refused.
pub fn run_admission(
    nodes: &[NodeId],
    requests: &[ChannelRequest],
    dps: DpsKind,
    utilisation_only: bool,
) -> AdmissionRunResult {
    let mut result = AdmissionRunResult {
        requested: requests.len() as u64,
        accepted: 0,
        rejected_uplink: 0,
        rejected_downlink: 0,
        rejected_other: 0,
    };
    let admission = admit_all(
        nodes,
        requests,
        dps,
        utilisation_only,
        |refusal| match refusal.link {
            Some(HopLink::Uplink(_)) => result.rejected_uplink += 1,
            Some(HopLink::Downlink(_)) => result.rejected_downlink += 1,
            _ => result.rejected_other += 1,
        },
    );
    result.accepted = admission.accepted_count();
    result
}

/// The controller state after running `requests`, for experiments that need
/// to inspect per-link task sets afterwards (e.g. the feasibility ablation).
/// `utilisation_only` switches the feasibility test to the Liu & Layland
/// utilisation bound (Constraint 1 only), which is what Ablation B compares
/// against.
pub fn run_admission_returning_controller(
    nodes: &[NodeId],
    requests: &[ChannelRequest],
    dps: DpsKind,
    utilisation_only: bool,
) -> MultiHopAdmission {
    admit_all(nodes, requests, dps, utilisation_only, |_| {})
}

/// One row of the Figure 18.5 reproduction.
#[derive(Debug, Clone)]
pub struct Fig18Row {
    /// Number of requested channels.
    pub requested: u64,
    /// Channels accepted under symmetric deadline partitioning.
    pub sdps_accepted: u64,
    /// Channels accepted under asymmetric deadline partitioning.
    pub adps_accepted: u64,
}

/// Reproduce Figure 18.5: for each number of requested channels, count how
/// many are accepted under SDPS and under ADPS.
///
/// The workload matches the paper: the master/slave scenario (10 masters,
/// 50 slaves), every requested channel with identical parameters
/// `C_i = 3, P_i = 100, d_i = 40`, requests issued master → slave.
pub fn admission_sweep(points: &[u64]) -> Vec<Fig18Row> {
    let scenario = Scenario::paper_master_slave();
    let nodes = scenario.nodes();
    let spec = RtChannelSpec::paper_default();
    let pattern = RequestPattern::MasterSlaveRoundRobin;
    points
        .iter()
        .map(|&requested| {
            let requests = pattern.generate(&scenario, requested, spec);
            let sdps = run_admission(&nodes, &requests, DpsKind::Symmetric, false);
            let adps = run_admission(&nodes, &requests, DpsKind::Asymmetric, false);
            Fig18Row {
                requested,
                sdps_accepted: sdps.accepted,
                adps_accepted: adps.accepted,
            }
        })
        .collect()
}

/// Result of the end-to-end delay validation experiment (Eq. 18.1).
#[derive(Debug, Clone)]
pub struct DelayValidationResult {
    /// The DPS used by the switch.
    pub dps: String,
    /// Channels the experiment asked for.
    pub channels_requested: u64,
    /// Channels actually established over the wire.
    pub channels_established: u64,
    /// Real-time frames delivered.
    pub frames_delivered: u64,
    /// Frames that arrived after their stamped deadline.
    pub deadline_misses: u64,
    /// Worst observed end-to-end latency (nanoseconds).
    pub worst_latency_ns: u64,
    /// The analytical bound `d_i + T_latency` (nanoseconds).
    pub bound_ns: u64,
    /// `true` when every frame met the bound.
    pub all_within_bound: bool,
}

/// Establish `channels` channels (master → slave, paper parameters) over the
/// simulated network, drive `messages` periodic messages on each and check
/// the measured worst-case delay against the Eq. 18.1 bound.
pub fn delay_validation(channels: u64, messages: u64, dps: DpsKind) -> DelayValidationResult {
    let scenario = Scenario::paper_master_slave();
    let spec = RtChannelSpec::paper_default();
    let mut net = RtNetwork::builder()
        .nodes(scenario.nodes())
        .dps(dps)
        .build()
        .expect("a star always builds");
    let requests = RequestPattern::MasterSlaveRoundRobin.generate(&scenario, channels, spec);
    let mut established = Vec::new();
    for req in &requests {
        if let Some(tx) = net
            .establish_channel(req.source, req.destination, req.spec)
            .expect("establishment cannot error on a known topology")
        {
            established.push((req.source, tx));
        }
    }
    let start = net.now() + Duration::from_millis(1);
    for (source, tx) in &established {
        net.send_periodic(*source, tx.id, messages, 1400, start)
            .expect("channel was just established");
    }
    net.run_to_completion().expect("simulation completes");

    let stats = net.simulator().stats();
    let worst = stats
        .worst_case_latency()
        .unwrap_or(Duration::ZERO)
        .as_nanos();
    let bound = net.deadline_bound(&spec).as_nanos();
    DelayValidationResult {
        dps: format!("{dps:?}"),
        channels_requested: channels,
        channels_established: established.len() as u64,
        frames_delivered: stats.rt_delivered,
        deadline_misses: stats.total_deadline_misses,
        worst_latency_ns: worst,
        bound_ns: bound,
        all_within_bound: worst <= bound && stats.total_deadline_misses == 0,
    }
}

/// Result of one coexistence run (Ablation C).
#[derive(Debug, Clone)]
pub struct CoexistenceResult {
    /// Offered best-effort load as a fraction of one link's capacity.
    pub be_load_fraction: f64,
    /// Real-time frames delivered.
    pub rt_delivered: u64,
    /// Real-time deadline misses.
    pub rt_misses: u64,
    /// Worst real-time latency in nanoseconds.
    pub rt_worst_latency_ns: u64,
    /// Best-effort frames delivered.
    pub be_delivered: u64,
    /// Best-effort frames dropped at full queues.
    pub be_dropped: u64,
}

/// Run the coexistence experiment: a handful of RT channels plus best-effort
/// cross traffic whose offered load is `be_load_fraction` of one link's
/// capacity, all sharing the same uplink/downlink pair.
pub fn coexistence_run(
    be_load_fraction: f64,
    rt_channels: u64,
    messages: u64,
) -> CoexistenceResult {
    let scenario = Scenario::new(2, 4);
    let spec = RtChannelSpec::paper_default();
    let dps = DpsKind::Asymmetric;
    let mut net = RtNetwork::builder()
        .nodes(scenario.nodes())
        .dps(dps)
        .build()
        .expect("a star always builds");
    // RT channels all from master 0 to slave 2 (same uplink and downlink).
    let mut established = Vec::new();
    for _ in 0..rt_channels {
        if let Some(tx) = net
            .establish_channel(scenario.master(0), scenario.slave(0), spec)
            .expect("establishment works")
        {
            established.push(tx);
        }
    }
    let start = net.now() + Duration::from_millis(1);
    for tx in &established {
        net.send_periodic(scenario.master(0), tx.id, messages, 1400, start)
            .expect("send periodic");
    }
    // Best-effort traffic on the same node pair.  One full-size frame takes
    // one slot; to offer `f` of the link we send a frame every slot/f.
    let slot = net.simulator().config().link_speed.slot_duration();
    let horizon = net
        .simulator()
        .config()
        .link_speed
        .slots_to_duration(rt_types::Slots::new(spec.period.get() * messages));
    if be_load_fraction > 0.0 {
        let gap =
            Duration::from_nanos(((slot.as_nanos() as f64) / be_load_fraction).round() as u64);
        let mut t = start;
        while t < start + horizon {
            net.send_best_effort(scenario.master(0), scenario.slave(0), 1400, t)
                .expect("send best effort");
            t += gap;
        }
    }
    net.run_to_completion().expect("simulation completes");
    let stats = net.simulator().stats();
    CoexistenceResult {
        be_load_fraction,
        rt_delivered: stats.rt_delivered,
        rt_misses: stats.total_deadline_misses,
        rt_worst_latency_ns: stats
            .worst_case_latency()
            .unwrap_or(Duration::ZERO)
            .as_nanos(),
        be_delivered: stats.be_delivered,
        be_dropped: stats.be_dropped,
    }
}

/// A convenient absolute start time for experiments that need one.
pub fn experiment_epoch() -> SimTime {
    SimTime::ZERO
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig18_5_shape_matches_the_paper() {
        let rows = admission_sweep(&[20, 60, 120, 200]);
        assert_eq!(rows.len(), 4);
        // Below saturation both schemes accept everything.
        assert_eq!(rows[0].sdps_accepted, 20);
        assert_eq!(rows[0].adps_accepted, 20);
        // SDPS saturates at 6 channels per master uplink = 60.
        assert_eq!(rows[2].sdps_accepted, 60);
        assert_eq!(rows[3].sdps_accepted, 60);
        // ADPS keeps accepting well beyond SDPS (paper: ~110 at 200
        // requests) — require at least 1.5x.
        assert!(
            rows[3].adps_accepted >= 90,
            "ADPS only accepted {}",
            rows[3].adps_accepted
        );
        assert!(rows[3].adps_accepted as f64 >= 1.5 * rows[3].sdps_accepted as f64);
        // Acceptance is monotone in the number of requests.
        assert!(rows
            .windows(2)
            .all(|w| w[0].adps_accepted <= w[1].adps_accepted));
    }

    #[test]
    fn run_admission_classifies_rejections() {
        let scenario = Scenario::paper_master_slave();
        let spec = RtChannelSpec::paper_default();
        let requests = RequestPattern::MasterSlaveRoundRobin.generate(&scenario, 200, spec);
        let result = run_admission(&scenario.nodes(), &requests, DpsKind::Symmetric, false);
        assert_eq!(result.requested, 200);
        assert_eq!(result.accepted, 60);
        assert_eq!(
            result.accepted
                + result.rejected_uplink
                + result.rejected_downlink
                + result.rejected_other,
            200
        );
        // With the master/slave pattern the bottleneck is the uplink.
        assert!(result.rejected_uplink > 0);
        assert_eq!(result.rejected_other, 0);
        assert!((result.acceptance_ratio() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn delay_validation_meets_the_bound() {
        // Small instance to keep the test fast: 12 channels, 5 messages.
        let result = delay_validation(12, 5, DpsKind::Asymmetric);
        assert_eq!(result.channels_established, 12);
        assert!(result.frames_delivered > 0);
        assert_eq!(result.deadline_misses, 0);
        assert!(
            result.all_within_bound,
            "worst {} > bound {}",
            result.worst_latency_ns, result.bound_ns
        );
    }

    #[test]
    fn coexistence_preserves_rt_guarantees_under_be_load() {
        let result = coexistence_run(0.9, 2, 5);
        assert!(result.rt_delivered > 0);
        assert_eq!(result.rt_misses, 0, "RT frames must not miss under BE load");
        assert!(result.be_delivered > 0);
    }
}
