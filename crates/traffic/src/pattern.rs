//! Channel-request patterns.
//!
//! A pattern produces the sequence of channel requests an experiment feeds
//! to the admission controller.  The paper's Figure 18.5 experiment requests
//! between 20 and 200 channels with identical parameters (`C=3, P=100,
//! D=40`) in a master/slave configuration; the ablations also use uniform
//! and hotspot patterns and heterogeneous channel parameters.

use rt_core::RtChannelSpec;
use rt_types::rng::Xoshiro256;
use rt_types::{NodeId, Slots};

use crate::scenario::Scenario;

/// One channel request an experiment will submit to admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelRequest {
    /// Requesting (source) node.
    pub source: NodeId,
    /// Destination node.
    pub destination: NodeId,
    /// The requested traffic contract.
    pub spec: RtChannelSpec,
}

/// The built-in request patterns.
#[derive(Debug, Clone)]
pub enum RequestPattern {
    /// The paper's pattern: request `i` goes from master `i mod M` to a
    /// slave chosen round-robin, so load spreads evenly over the master
    /// uplinks (which then become the bottlenecks).
    MasterSlaveRoundRobin,
    /// Master→slave with the slave chosen uniformly at random.
    MasterSlaveRandom {
        /// RNG seed.
        seed: u64,
    },
    /// Slaves answer back: request `i` goes from a slave to a master,
    /// loading the master *downlinks* instead.
    SlaveToMasterRoundRobin,
    /// Any node to any other node, uniformly at random.
    Uniform {
        /// RNG seed.
        seed: u64,
    },
    /// All requests target one hotspot destination (the first slave), so its
    /// downlink is the single bottleneck.
    Hotspot,
}

impl RequestPattern {
    /// Generate `count` requests with identical `spec` for `scenario`.
    pub fn generate(
        &self,
        scenario: &Scenario,
        count: u64,
        spec: RtChannelSpec,
    ) -> Vec<ChannelRequest> {
        self.generate_with(scenario, count, |_| spec)
    }

    /// Generate `count` requests with per-request specs supplied by
    /// `spec_for` (called with the request index).
    pub fn generate_with(
        &self,
        scenario: &Scenario,
        count: u64,
        mut spec_for: impl FnMut(u64) -> RtChannelSpec,
    ) -> Vec<ChannelRequest> {
        let mut out = Vec::with_capacity(count as usize);
        match self {
            RequestPattern::MasterSlaveRoundRobin => {
                for i in 0..count {
                    out.push(ChannelRequest {
                        source: scenario.master(i),
                        destination: scenario.slave(i),
                        spec: spec_for(i),
                    });
                }
            }
            RequestPattern::MasterSlaveRandom { seed } => {
                let mut rng = Xoshiro256::new(*seed);
                for i in 0..count {
                    let slave = rng.below(u64::from(scenario.slave_count()));
                    out.push(ChannelRequest {
                        source: scenario.master(i),
                        destination: scenario.slave(slave),
                        spec: spec_for(i),
                    });
                }
            }
            RequestPattern::SlaveToMasterRoundRobin => {
                for i in 0..count {
                    out.push(ChannelRequest {
                        source: scenario.slave(i),
                        destination: scenario.master(i),
                        spec: spec_for(i),
                    });
                }
            }
            RequestPattern::Uniform { seed } => {
                let mut rng = Xoshiro256::new(*seed);
                let n = u64::from(scenario.node_count());
                for i in 0..count {
                    let source = rng.below(n);
                    let mut destination = rng.below(n);
                    while destination == source {
                        destination = rng.below(n);
                    }
                    out.push(ChannelRequest {
                        source: NodeId::new(source as u32),
                        destination: NodeId::new(destination as u32),
                        spec: spec_for(i),
                    });
                }
            }
            RequestPattern::Hotspot => {
                let hotspot = scenario.slave(0);
                for i in 0..count {
                    // Sources rotate over every node except the hotspot.
                    let mut source =
                        scenario.nodes()[(i % u64::from(scenario.node_count() - 1)) as usize];
                    if source == hotspot {
                        source = *scenario.nodes().last().expect("non-empty scenario");
                    }
                    out.push(ChannelRequest {
                        source,
                        destination: hotspot,
                        spec: spec_for(i),
                    });
                }
            }
        }
        out
    }
}

/// A generator of heterogeneous (randomised) channel specs for the ablation
/// experiments: periods, capacities and deadlines drawn uniformly from
/// configurable ranges, always respecting `C ≤ P` and `d ≥ 2C`.
#[derive(Debug, Clone)]
pub struct HeterogeneousSpecs {
    rng: Xoshiro256,
    /// Inclusive period range in slots.
    pub period: (u64, u64),
    /// Inclusive capacity range in slots.
    pub capacity: (u64, u64),
    /// Deadline as a fraction of the period, inclusive range (values below
    /// `2C/P` are clamped up so the spec stays valid).
    pub deadline_fraction: (f64, f64),
}

impl HeterogeneousSpecs {
    /// A generator with the given seed and default ranges loosely centred on
    /// the paper's parameters.
    pub fn new(seed: u64) -> Self {
        HeterogeneousSpecs {
            rng: Xoshiro256::new(seed),
            period: (50, 400),
            capacity: (1, 8),
            deadline_fraction: (0.2, 1.0),
        }
    }

    /// Draw the next spec.
    pub fn next_spec(&mut self) -> RtChannelSpec {
        let period = self.rng.range_inclusive(self.period.0, self.period.1);
        let capacity = self
            .rng
            .range_inclusive(self.capacity.0, self.capacity.1)
            .min(period);
        let frac = self.deadline_fraction.0
            + self.rng.unit() * (self.deadline_fraction.1 - self.deadline_fraction.0);
        let deadline = ((period as f64 * frac).round() as u64).max(2 * capacity);
        RtChannelSpec::new(
            Slots::new(period),
            Slots::new(capacity),
            Slots::new(deadline),
        )
        .expect("generated spec must be valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario::paper_master_slave()
    }

    #[test]
    fn round_robin_pattern_spreads_over_masters_and_slaves() {
        let reqs = RequestPattern::MasterSlaveRoundRobin.generate(
            &scenario(),
            100,
            RtChannelSpec::paper_default(),
        );
        assert_eq!(reqs.len(), 100);
        // Each of the 10 masters appears exactly 10 times.
        for m in scenario().masters() {
            assert_eq!(reqs.iter().filter(|r| r.source == m).count(), 10);
        }
        // Every request is master -> slave.
        for r in &reqs {
            assert!(scenario().is_master(r.source));
            assert!(scenario().is_slave(r.destination));
        }
    }

    #[test]
    fn random_master_slave_is_reproducible() {
        let a = RequestPattern::MasterSlaveRandom { seed: 9 }.generate(
            &scenario(),
            50,
            RtChannelSpec::paper_default(),
        );
        let b = RequestPattern::MasterSlaveRandom { seed: 9 }.generate(
            &scenario(),
            50,
            RtChannelSpec::paper_default(),
        );
        let c = RequestPattern::MasterSlaveRandom { seed: 10 }.generate(
            &scenario(),
            50,
            RtChannelSpec::paper_default(),
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
        for r in &a {
            assert!(scenario().is_master(r.source));
            assert!(scenario().is_slave(r.destination));
        }
    }

    #[test]
    fn slave_to_master_pattern_reverses_direction() {
        let reqs = RequestPattern::SlaveToMasterRoundRobin.generate(
            &scenario(),
            60,
            RtChannelSpec::paper_default(),
        );
        for r in &reqs {
            assert!(scenario().is_slave(r.source));
            assert!(scenario().is_master(r.destination));
        }
    }

    #[test]
    fn uniform_pattern_never_self_loops() {
        let reqs = RequestPattern::Uniform { seed: 3 }.generate(
            &scenario(),
            500,
            RtChannelSpec::paper_default(),
        );
        assert!(reqs.iter().all(|r| r.source != r.destination));
    }

    #[test]
    fn hotspot_pattern_targets_one_destination() {
        let s = scenario();
        let reqs = RequestPattern::Hotspot.generate(&s, 80, RtChannelSpec::paper_default());
        let hotspot = s.slave(0);
        assert!(reqs.iter().all(|r| r.destination == hotspot));
        assert!(reqs.iter().all(|r| r.source != hotspot));
    }

    #[test]
    fn generate_with_allows_per_request_specs() {
        let mut gen = HeterogeneousSpecs::new(1);
        let reqs = RequestPattern::MasterSlaveRoundRobin
            .generate_with(&scenario(), 30, |_| gen.next_spec());
        assert_eq!(reqs.len(), 30);
        // Not all specs identical (overwhelmingly likely with this seed).
        assert!(reqs.windows(2).any(|w| w[0].spec != w[1].spec));
    }

    #[test]
    fn heterogeneous_specs_are_always_valid_and_reproducible() {
        let mut a = HeterogeneousSpecs::new(7);
        let mut b = HeterogeneousSpecs::new(7);
        for _ in 0..500 {
            let s = a.next_spec();
            assert!(s.validate().is_ok());
            assert_eq!(s, b.next_spec());
        }
    }
}
