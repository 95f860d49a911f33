//! Best-effort background traffic generators for the coexistence experiment.
//!
//! The paper's network carries ordinary TCP/IP traffic alongside the RT
//! channels, queued FCFS behind all real-time frames.  For the coexistence
//! experiment we do not need a full TCP implementation — what matters for
//! the real-time guarantees is *how much* best-effort load is offered and in
//! what arrival pattern — so two generators are provided: Poisson arrivals
//! and a bursty on/off source.

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

/// Configuration of a bursty on/off background source.
#[derive(Debug, Clone, Copy)]
pub struct BurstyConfig {
    /// Number of frames per burst.
    pub burst_len: u32,
    /// Gap between frames inside a burst.
    pub intra_burst_gap: Duration,
    /// Mean gap between bursts (exponentially distributed).
    pub mean_burst_gap: Duration,
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

    /// Generate bursty on/off traffic from one fixed source to one fixed
    /// destination over `[start, start + window)`.
    pub fn bursty(
        &mut self,
        source: NodeId,
        destination: NodeId,
        config: BurstyConfig,
        start: SimTime,
        window: Duration,
    ) -> Vec<BackgroundFrame> {
        let mut frames = Vec::new();
        let end = start + window;
        let mut t = start;
        while t < end {
            for k in 0..config.burst_len {
                let at = t + config.intra_burst_gap.saturating_mul(u64::from(k));
                if at >= end {
                    break;
                }
                frames.push(BackgroundFrame {
                    source,
                    destination,
                    payload_len: config.payload_len,
                    at,
                });
            }
            let gap = self
                .rng
                .exponential(config.mean_burst_gap.as_nanos() as f64)
                .round() as u64;
            t = t
                + config
                    .intra_burst_gap
                    .saturating_mul(u64::from(config.burst_len))
                + Duration::from_nanos(gap.max(1));
        }
        frames
    }

    /// The total offered load (payload bytes per second) of a frame list
    /// over a window — useful for labelling experiment axes.
    pub fn offered_load_bps(frames: &[BackgroundFrame], window: Duration) -> f64 {
        if window.as_nanos() == 0 {
            return 0.0;
        }
        let bytes: u64 = frames.iter().map(|f| f.payload_len as u64).sum();
        (bytes * 8) as f64 / window.as_secs_f64()
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

    #[test]
    fn bursty_traffic_shape() {
        let config = BurstyConfig {
            burst_len: 5,
            intra_burst_gap: Duration::from_micros(10),
            mean_burst_gap: Duration::from_millis(1),
            payload_len: 1400,
        };
        let frames = BackgroundTraffic::new(4).bursty(
            NodeId::new(0),
            NodeId::new(3),
            config,
            SimTime::ZERO,
            Duration::from_millis(10),
        );
        assert!(!frames.is_empty());
        assert!(frames.iter().all(|f| f.source == NodeId::new(0)));
        assert!(frames.iter().all(|f| f.destination == NodeId::new(3)));
        assert!(frames.iter().all(|f| f.at < SimTime::from_millis(10)));
        // Bursts of 5: at least one run of 5 frames spaced by 10 us.
        let tight_gaps = frames
            .windows(2)
            .filter(|w| w[1].at.saturating_duration_since(w[0].at) == Duration::from_micros(10))
            .count();
        assert!(tight_gaps >= 4);
    }

    #[test]
    fn offered_load_computation() {
        let frames = vec![
            BackgroundFrame {
                source: NodeId::new(0),
                destination: NodeId::new(1),
                payload_len: 1000,
                at: SimTime::ZERO,
            };
            10
        ];
        let load = BackgroundTraffic::offered_load_bps(&frames, Duration::from_secs(1));
        assert!((load - 80_000.0).abs() < 1e-6);
        assert_eq!(
            BackgroundTraffic::offered_load_bps(&frames, Duration::ZERO),
            0.0
        );
    }
}
