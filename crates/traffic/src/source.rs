//! Wire-level workload generation: turning a [`FabricScenario`] into the
//! actual deadline-stamped Ethernet frames the simulator transports.
//!
//! [`ScenarioFrameSource`] is both a bulk generator (everything up front,
//! via [`ScenarioFrameSource::drain_all`] + `Simulator::inject_batch`) and a
//! pull-driven [`TrafficSource`] for `Simulator::run_with_source`, which
//! keeps the pending-event population proportional to one injection window
//! instead of the whole experiment.  Both modes produce the *identical*
//! frame sequence, so they are interchangeable in equivalence tests.

use rt_frames::rt_data::{DeadlineStamp, RtDataFrame};
use rt_netsim::{FrameInjection, TrafficSource};
use rt_types::{ChannelId, Duration, MacAddr, NodeId, SimTime};

use crate::fabric::FabricScenario;

/// A deterministic cross-switch RT frame workload over a fabric scenario:
/// frame `k` travels from a master on access switch `k mod S` to a slave on
/// a different switch (rotating over the others, the same walk as
/// [`FabricScenario::cross_switch_requests`]), injected `spacing` apart.
#[derive(Debug, Clone)]
pub struct ScenarioFrameSource {
    scenario: FabricScenario,
    total: u64,
    emitted: u64,
    spacing: Duration,
    relative_deadline: Duration,
    payload_len: usize,
}

impl ScenarioFrameSource {
    /// A source of `total` frames, one every `spacing`, starting at time
    /// zero, with a 10 ms relative deadline and 1000-byte payloads.
    /// Requires a scenario with at least one master and one slave per
    /// switch.
    pub fn new(scenario: FabricScenario, total: u64, spacing: Duration) -> Self {
        ScenarioFrameSource {
            scenario,
            total,
            emitted: 0,
            spacing,
            relative_deadline: Duration::from_millis(10),
            payload_len: 1000,
        }
    }

    /// Override the payload length.
    pub fn payload_len(mut self, payload_len: usize) -> Self {
        self.payload_len = payload_len;
        self
    }

    /// Override the relative deadline stamped on every frame.
    pub fn relative_deadline(mut self, deadline: Duration) -> Self {
        self.relative_deadline = deadline;
        self
    }

    /// Total frames this source produces.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `(source, destination)` of frame `k`: exactly
    /// [`FabricScenario::cross_switch_pair`], so the wire workload matches
    /// the admission workload request for request.
    pub fn pair(&self, k: u64) -> (NodeId, NodeId) {
        self.scenario.cross_switch_pair(k)
    }

    /// When frame `k` is injected.
    fn injected_at(&self, k: u64) -> SimTime {
        SimTime::ZERO + self.spacing.saturating_mul(k)
    }

    fn frame(&self, k: u64) -> FrameInjection {
        let (source, destination) = self.pair(k);
        let at = self.injected_at(k);
        let deadline = at + self.relative_deadline;
        // A bounded pool of channel ids keeps the per-channel statistics
        // maps small at any workload size.
        let channel = ChannelId::new((k % 1024) as u16 + 1);
        let eth = RtDataFrame {
            eth_src: MacAddr::for_node(source),
            eth_dst: MacAddr::for_node(destination),
            stamp: DeadlineStamp::new(deadline.as_nanos(), channel)
                .expect("nonzero channel id is always valid"),
            src_port: 0x4000,
            dst_port: 0x4001,
            payload: vec![0u8; self.payload_len],
        }
        .into_ethernet()
        .expect("generated RT frames are well-formed");
        FrameInjection {
            node: source,
            eth,
            at,
        }
    }

    /// Every remaining frame at once — feed to `Simulator::inject_batch`
    /// for the scheduler-stress (deep pending queue) workloads.
    pub fn drain_all(&mut self) -> Vec<FrameInjection> {
        let batch = (self.emitted..self.total).map(|k| self.frame(k)).collect();
        self.emitted = self.total;
        batch
    }
}

impl TrafficSource for ScenarioFrameSource {
    fn next_batch(&mut self, horizon: SimTime) -> Vec<FrameInjection> {
        let mut out = Vec::new();
        while self.emitted < self.total {
            if self.injected_at(self.emitted) >= horizon {
                break;
            }
            out.push(self.frame(self.emitted));
            self.emitted += 1;
        }
        out
    }

    fn is_exhausted(&self) -> bool {
        self.emitted >= self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_netsim::{SimConfig, Simulator};

    fn small_source(total: u64) -> ScenarioFrameSource {
        ScenarioFrameSource::new(
            FabricScenario::ring(4, 1, 1),
            total,
            Duration::from_micros(50),
        )
    }

    #[test]
    fn frames_cross_switches_and_are_time_ordered() {
        let mut source = small_source(32);
        let topology = FabricScenario::ring(4, 1, 1).topology();
        let frames = source.drain_all();
        assert_eq!(frames.len(), 32);
        let mut prev = SimTime::ZERO;
        for (k, f) in frames.iter().enumerate() {
            assert!(f.at >= prev, "frame {k} out of order");
            prev = f.at;
            let (src, dst) = small_source(32).pair(k as u64);
            assert_eq!(f.node, src);
            assert_ne!(topology.switch_of(src), topology.switch_of(dst));
        }
        assert!(source.is_exhausted());
        assert!(source.next_batch(SimTime::MAX).is_empty());
    }

    #[test]
    fn pull_mode_emits_the_same_sequence_as_drain_all() {
        let all = small_source(40).drain_all();
        let mut pulled = Vec::new();
        let mut source = small_source(40);
        let mut horizon = SimTime::from_micros(333);
        while !source.is_exhausted() {
            pulled.extend(source.next_batch(horizon));
            horizon += Duration::from_micros(333);
        }
        assert_eq!(all.len(), pulled.len());
        for (a, b) in all.iter().zip(&pulled) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.at, b.at);
            assert_eq!(a.eth.encode(), b.eth.encode());
        }
        // Respect the horizon strictly.
        let mut source = small_source(40);
        for f in source.next_batch(SimTime::from_micros(100)) {
            assert!(f.at < SimTime::from_micros(100));
        }
    }

    #[test]
    fn source_drives_a_simulation_end_to_end() {
        let scenario = FabricScenario::ring(4, 1, 1);
        let mut sim = Simulator::with_topology(SimConfig::default(), scenario.topology()).unwrap();
        let mut source = ScenarioFrameSource::new(scenario, 60, Duration::from_micros(100));
        sim.run_with_source(&mut source, Duration::from_millis(1))
            .unwrap();
        assert_eq!(sim.poll_deliveries().len(), 60);
        assert_eq!(sim.stats().rt_delivered, 60);
    }

    #[test]
    fn upfront_and_pull_driven_runs_deliver_identically() {
        let scenario = FabricScenario::torus(2, 2, 1, 1);
        let run_upfront = || {
            let mut sim =
                Simulator::with_topology(SimConfig::default(), scenario.topology()).unwrap();
            let mut source =
                ScenarioFrameSource::new(scenario.clone(), 50, Duration::from_micros(80));
            sim.inject_batch(source.drain_all()).unwrap();
            sim.run_to_idle();
            sim.poll_deliveries()
                .iter()
                .map(|d| (d.frame, d.receiver, d.delivered_at))
                .collect::<Vec<_>>()
        };
        let run_pulled = || {
            let mut sim =
                Simulator::with_topology(SimConfig::default(), scenario.topology()).unwrap();
            let mut source =
                ScenarioFrameSource::new(scenario.clone(), 50, Duration::from_micros(80));
            sim.run_with_source(&mut source, Duration::from_micros(500))
                .unwrap();
            sim.poll_deliveries()
                .iter()
                .map(|d| (d.frame, d.receiver, d.delivered_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run_upfront(), run_pulled());
    }
}
