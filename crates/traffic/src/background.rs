//! A best-effort background traffic generator.
//!
//! The paper's network carries ordinary TCP/IP traffic alongside the RT
//! channels, queued FCFS behind all real-time frames.  What matters for the
//! real-time guarantees is *how much* best-effort load is offered and in
//! what arrival pattern, not a full TCP implementation, so the generator
//! draws Poisson arrivals between random node pairs.  The coexistence
//! integration test drives it; the `coexistence` bin and example pace their
//! own best-effort frames.

use rt_types::rng::Xoshiro256;
use rt_types::{Duration, NodeId, SimTime};

use crate::scenario::Scenario;

/// One best-effort frame to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackgroundFrame {
    /// Sending node.
    pub source: NodeId,
    /// Receiving node.
    pub destination: NodeId,
    /// UDP payload size in bytes.
    pub payload_len: usize,
    /// Injection time.
    pub at: SimTime,
}

/// Configuration of a Poisson background source.
#[derive(Debug, Clone, Copy)]
pub struct PoissonConfig {
    /// Mean inter-arrival time between frames.
    pub mean_interarrival: Duration,
    /// Payload size of every frame.
    pub payload_len: usize,
}

/// A generator of best-effort background traffic over a scenario.
#[derive(Debug, Clone)]
pub struct BackgroundTraffic {
    rng: Xoshiro256,
}

impl BackgroundTraffic {
    /// Create a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        BackgroundTraffic {
            rng: Xoshiro256::new(seed),
        }
    }

    fn random_pair(&mut self, scenario: &Scenario) -> (NodeId, NodeId) {
        let n = u64::from(scenario.node_count());
        let src = self.rng.below(n);
        let mut dst = self.rng.below(n);
        while dst == src {
            dst = self.rng.below(n);
        }
        (NodeId::new(src as u32), NodeId::new(dst as u32))
    }

    /// Generate Poisson traffic between random node pairs over
    /// `[start, start + window)`.
    pub fn poisson(
        &mut self,
        scenario: &Scenario,
        config: PoissonConfig,
        start: SimTime,
        window: Duration,
    ) -> Vec<BackgroundFrame> {
        let mut frames = Vec::new();
        let end = start + window;
        let mut t = start;
        loop {
            let gap = self
                .rng
                .exponential(config.mean_interarrival.as_nanos() as f64)
                .round() as u64;
            t += Duration::from_nanos(gap.max(1));
            if t >= end {
                break;
            }
            let (source, destination) = self.random_pair(scenario);
            frames.push(BackgroundFrame {
                source,
                destination,
                payload_len: config.payload_len,
                at: t,
            });
        }
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario::new(2, 4)
    }

    #[test]
    fn poisson_traffic_is_reproducible_and_in_window() {
        let config = PoissonConfig {
            mean_interarrival: Duration::from_micros(100),
            payload_len: 800,
        };
        let start = SimTime::from_millis(1);
        let window = Duration::from_millis(20);
        let a = BackgroundTraffic::new(3).poisson(&scenario(), config, start, window);
        let b = BackgroundTraffic::new(3).poisson(&scenario(), config, start, window);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for f in &a {
            assert!(f.at >= start && f.at < start + window);
            assert_ne!(f.source, f.destination);
            assert!(f.source.get() < 6 && f.destination.get() < 6);
        }
        // Roughly window/mean frames expected; allow a wide margin.
        let expected = 200.0;
        assert!((a.len() as f64) > expected * 0.6 && (a.len() as f64) < expected * 1.4);
    }

    #[test]
    fn poisson_arrival_times_are_increasing() {
        let config = PoissonConfig {
            mean_interarrival: Duration::from_micros(50),
            payload_len: 100,
        };
        let frames = BackgroundTraffic::new(8).poisson(
            &scenario(),
            config,
            SimTime::ZERO,
            Duration::from_millis(5),
        );
        assert!(frames.windows(2).all(|w| w[0].at <= w[1].at));
    }
}
