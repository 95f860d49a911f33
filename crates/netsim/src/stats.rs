//! Measurement: per-channel latency and deadline statistics, per-link
//! utilisation, and global counters.
//!
//! The delay-validation experiment (Eq. 18.1) compares the measured
//! worst-case end-to-end delay of every admitted channel against its
//! guaranteed bound `d_i + T_latency`, so the statistics keep exact minimum /
//! maximum / mean latencies per RT channel as well as the number of frames
//! delivered after their absolute deadline.
//!
//! Link accounting is on the per-event hot path (every transmission records
//! one entry), so it is stored *densely*: one [`LinkStats`] slot per output
//! port, indexed by the simulator's contiguous port ids, with the
//! [`HopLink`]-keyed queries resolving against the port registry only on the
//! (cold) read side.

use std::collections::BTreeMap;

use rt_types::{ChannelId, Duration, HopLink, SimTime};

/// Latency statistics for one RT channel.
#[derive(Debug, Clone, Copy)]
pub struct ChannelStats {
    /// Frames delivered on this channel.
    pub delivered: u64,
    /// Frames delivered after their absolute deadline.
    pub deadline_misses: u64,
    /// Smallest observed end-to-end latency.
    pub min_latency: Duration,
    /// Largest observed end-to-end latency.
    pub max_latency: Duration,
    /// Sum of latencies (for the mean).
    total_latency: Duration,
}

impl ChannelStats {
    fn new() -> Self {
        ChannelStats {
            delivered: 0,
            deadline_misses: 0,
            min_latency: Duration::from_nanos(u64::MAX),
            max_latency: Duration::ZERO,
            total_latency: Duration::ZERO,
        }
    }

    fn record(&mut self, latency: Duration, missed: bool) {
        self.delivered += 1;
        if missed {
            self.deadline_misses += 1;
        }
        self.min_latency = if latency < self.min_latency {
            latency
        } else {
            self.min_latency
        };
        self.max_latency = if latency > self.max_latency {
            latency
        } else {
            self.max_latency
        };
        self.total_latency += latency;
    }

    /// Mean end-to-end latency over all delivered frames.
    pub fn mean_latency(&self) -> Duration {
        if self.delivered == 0 {
            Duration::ZERO
        } else {
            self.total_latency / self.delivered
        }
    }
}

/// Transmission statistics for one directed link.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Frames transmitted on the link.
    pub frames: u64,
    /// Wire bytes transmitted (including preamble and inter-frame gap).
    pub wire_bytes: u64,
    /// Accumulated transmission time.
    pub busy_time: Duration,
}

impl LinkStats {
    #[inline]
    fn record(&mut self, wire_bytes: usize, tx_time: Duration) {
        self.frames += 1;
        self.wire_bytes += wire_bytes as u64;
        self.busy_time += tx_time;
    }

    /// Utilisation of the link over an observation window of length
    /// `elapsed`.
    pub fn utilisation(&self, elapsed: Duration) -> f64 {
        if elapsed.as_nanos() == 0 {
            0.0
        } else {
            self.busy_time.as_nanos() as f64 / elapsed.as_nanos() as f64
        }
    }
}

/// All measurements accumulated during one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Per-RT-channel latency statistics.
    pub channels: BTreeMap<u16, ChannelStats>,
    /// The directed link of every port, indexed by dense port id
    /// (installed by the simulator at construction).
    port_links: Vec<HopLink>,
    /// Per-port transmission statistics, same indexing.
    port_stats: Vec<LinkStats>,
    /// Real-time frames delivered (data + control).
    pub rt_delivered: u64,
    /// Best-effort frames delivered.
    pub be_delivered: u64,
    /// Best-effort frames dropped at full queues.
    pub be_dropped: u64,
    /// Frames dropped because the switch had no forwarding entry.
    pub unroutable_dropped: u64,
    /// Frames lost to a failed link: drained from a dead port's queues,
    /// cut mid-serialisation, or forwarded onto a dead trunk by a stale
    /// per-channel forwarding entry before re-routing caught up.
    pub failed_link_dropped: u64,
    /// Frames of a *released* (torn-down) RT channel dropped at the first
    /// switch: the fabric forgets a channel's wire state on release, so
    /// late frames are discarded, never silently delivered.
    pub released_channel_dropped: u64,
    /// Control-plane frames (establishment, reservation, tear-down) ever
    /// registered with the fabric, from any injection path.  The
    /// control-plane *overhead* of a run: under distributed admission the
    /// two-phase reservation emits more of these than the paper's
    /// teleport-to-the-manager model.  Link-state floods are counted
    /// separately ([`SimStats::link_state_frames`]) so this stays a pure
    /// per-admission reservation count.
    pub control_frames: u64,
    /// Link traversals by control-plane frames: every port transmission of
    /// a control frame counts one.  Admission latency in *real hops* — the
    /// wire work the control plane consumed.
    pub control_hops: u64,
    /// Link-state flood frames registered with the fabric: topology
    /// convergence overhead, split from [`SimStats::control_frames`] so a
    /// trunk event does not pollute per-admission reservation counts.
    pub link_state_frames: u64,
    /// Link traversals by link-state flood frames — the wire work one
    /// topology event costs before every switch's view has converged.
    pub link_state_hops: u64,
    /// Total real-time deadline misses across all channels.
    pub total_deadline_misses: u64,
    /// Events whose scheduled time lay in the past and was clamped to the
    /// current simulation time.  Debug builds panic instead; a non-zero
    /// count in a release build is a causality bug that must not hide.
    pub clamped_events: u64,
}

impl SimStats {
    /// Statistics over a fixed set of output ports: `port_links[p]` is the
    /// directed link driven by dense port id `p`.
    pub fn for_ports(port_links: Vec<HopLink>) -> Self {
        let port_stats = vec![LinkStats::default(); port_links.len()];
        SimStats {
            port_links,
            port_stats,
            ..SimStats::default()
        }
    }

    /// Record the delivery of a real-time data frame belonging to `channel`.
    pub fn record_rt_delivery(
        &mut self,
        channel: Option<ChannelId>,
        injected_at: SimTime,
        delivered_at: SimTime,
        deadline: Option<SimTime>,
    ) {
        self.rt_delivered += 1;
        let latency = delivered_at.saturating_duration_since(injected_at);
        let missed = deadline.is_some_and(|d| delivered_at > d);
        if missed {
            self.total_deadline_misses += 1;
        }
        if let Some(ch) = channel {
            self.channels
                .entry(ch.get())
                .or_insert_with(ChannelStats::new)
                .record(latency, missed);
        }
    }

    /// Record the delivery of a best-effort frame.
    pub fn record_be_delivery(&mut self) {
        self.be_delivered += 1;
    }

    /// Record a best-effort drop at a full queue.
    pub fn record_be_drop(&mut self) {
        self.be_dropped += 1;
    }

    /// Record a frame dropped for lack of a forwarding entry.
    pub fn record_unroutable(&mut self) {
        self.unroutable_dropped += 1;
    }

    /// Record a frame lost to a failed link.
    pub fn record_failed_link_drop(&mut self) {
        self.failed_link_dropped += 1;
    }

    /// Record a frame of a released channel dropped at a switch.
    pub fn record_released_channel_drop(&mut self) {
        self.released_channel_dropped += 1;
    }

    /// Frames delivered to a final receiver, either class.
    pub fn total_delivered(&self) -> u64 {
        self.rt_delivered + self.be_delivered
    }

    /// Frames dropped for any reason.  Together with
    /// [`SimStats::total_delivered`] this accounts for every frame the
    /// simulator ever registered: once the event queue drains, `injected =
    /// delivered + dropped` — the conservation invariant the property
    /// harness pins.
    pub fn total_dropped(&self) -> u64 {
        self.be_dropped
            + self.unroutable_dropped
            + self.failed_link_dropped
            + self.released_channel_dropped
    }

    /// Record a past-time event clamped to the current simulation time.
    pub fn record_clamped(&mut self) {
        self.clamped_events += 1;
    }

    /// Record the injection of a control-plane frame.
    pub fn record_control_frame(&mut self) {
        self.control_frames += 1;
    }

    /// Record one link traversal by a control-plane frame.
    #[inline]
    pub fn record_control_hop(&mut self) {
        self.control_hops += 1;
    }

    /// Record the injection of a link-state flood frame.
    pub fn record_link_state_frame(&mut self) {
        self.link_state_frames += 1;
    }

    /// Record one link traversal by a link-state flood frame.
    #[inline]
    pub fn record_link_state_hop(&mut self) {
        self.link_state_hops += 1;
    }

    /// Record a transmission on the port with dense id `port` (hot path:
    /// one array write, no map).  Ports are registered via
    /// [`SimStats::for_ports`]; an unregistered port id is a caller bug and
    /// asserts in debug builds (release builds drop the sample rather than
    /// panicking mid-simulation).
    #[inline]
    pub fn record_transmission(&mut self, port: usize, wire_bytes: usize, tx_time: Duration) {
        match self.port_stats.get_mut(port) {
            Some(stats) => stats.record(wire_bytes, tx_time),
            None => debug_assert!(false, "transmission on unregistered port {port}"),
        }
    }

    /// Statistics for one channel, if any frame was delivered on it.
    pub fn channel(&self, id: ChannelId) -> Option<&ChannelStats> {
        self.channels.get(&id.get())
    }

    /// Statistics for any directed link of the fabric, including trunks.
    /// `None` if the link never transmitted (or is not a port of the
    /// fabric).
    pub fn hop_link(&self, link: HopLink) -> Option<&LinkStats> {
        let port = self.port_links.iter().position(|&l| l == link)?;
        let stats = &self.port_stats[port];
        (stats.frames > 0).then_some(stats)
    }

    /// Every directed link that transmitted at least one frame, with its
    /// statistics.
    pub fn links(&self) -> impl Iterator<Item = (HopLink, &LinkStats)> {
        self.port_links
            .iter()
            .zip(self.port_stats.iter())
            .filter(|(_, s)| s.frames > 0)
            .map(|(&l, s)| (l, s))
    }

    /// The worst (largest) per-channel maximum latency, if any channel
    /// delivered frames.
    pub fn worst_case_latency(&self) -> Option<Duration> {
        self.channels.values().map(|c| c.max_latency).max()
    }

    /// `true` if no real-time frame missed its deadline.
    pub fn all_deadlines_met(&self) -> bool {
        self.total_deadline_misses == 0
    }

    /// A one-line human summary of the run's global counters — what the
    /// examples and experiment binaries print at the end.
    pub fn summary(&self) -> String {
        format!(
            "rt={} be={} be_dropped={} unroutable={} link_failed={} released={} deadline_misses={} clamped_events={} control={} link_state={}",
            self.rt_delivered,
            self.be_delivered,
            self.be_dropped,
            self.unroutable_dropped,
            self.failed_link_dropped,
            self.released_channel_dropped,
            self.total_deadline_misses,
            self.clamped_events,
            self.control_frames,
            self.link_state_frames,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_types::NodeId;

    #[test]
    fn channel_stats_accumulate() {
        let mut s = SimStats::default();
        let ch = ChannelId::new(5);
        s.record_rt_delivery(
            Some(ch),
            SimTime::from_micros(0),
            SimTime::from_micros(100),
            Some(SimTime::from_micros(200)),
        );
        s.record_rt_delivery(
            Some(ch),
            SimTime::from_micros(1000),
            SimTime::from_micros(1300),
            Some(SimTime::from_micros(1200)),
        );
        let c = s.channel(ch).unwrap();
        assert_eq!(c.delivered, 2);
        assert_eq!(c.deadline_misses, 1);
        assert_eq!(c.min_latency, Duration::from_micros(100));
        assert_eq!(c.max_latency, Duration::from_micros(300));
        assert_eq!(c.mean_latency(), Duration::from_micros(200));
        assert_eq!(s.total_deadline_misses, 1);
        assert!(!s.all_deadlines_met());
        assert_eq!(s.worst_case_latency(), Some(Duration::from_micros(300)));
    }

    #[test]
    fn rt_delivery_without_channel_counts_globally_only() {
        let mut s = SimStats::default();
        s.record_rt_delivery(None, SimTime::ZERO, SimTime::from_micros(10), None);
        assert_eq!(s.rt_delivered, 1);
        assert!(s.channels.is_empty());
        assert!(s.all_deadlines_met());
    }

    #[test]
    fn link_stats_utilisation() {
        let link = HopLink::Uplink(NodeId::new(3));
        let other = HopLink::Downlink(NodeId::new(3));
        let mut s = SimStats::for_ports(vec![link, other]);
        s.record_transmission(0, 1538, Duration::from_micros(123));
        s.record_transmission(0, 1538, Duration::from_micros(123));
        let l = s.hop_link(link).unwrap();
        assert_eq!(l.frames, 2);
        assert_eq!(l.wire_bytes, 3076);
        assert_eq!(l.busy_time, Duration::from_micros(246));
        let u = l.utilisation(Duration::from_micros(1000));
        assert!((u - 0.246).abs() < 1e-9);
        assert_eq!(l.utilisation(Duration::ZERO), 0.0);
        // A port that never transmitted reports no stats.
        assert!(s.hop_link(other).is_none());
        assert_eq!(s.links().count(), 1);
    }

    #[test]
    fn best_effort_counters() {
        let mut s = SimStats::default();
        s.record_be_delivery();
        s.record_be_delivery();
        s.record_be_drop();
        s.record_unroutable();
        s.record_clamped();
        assert_eq!(s.be_delivered, 2);
        assert_eq!(s.be_dropped, 1);
        assert_eq!(s.unroutable_dropped, 1);
        assert_eq!(s.clamped_events, 1);
        assert!(s.summary().contains("clamped_events=1"));
        assert!(s.summary().contains("be_dropped=1"));
    }

    #[test]
    fn failure_counters_roll_into_total_dropped() {
        let mut s = SimStats::default();
        s.record_be_delivery();
        s.record_rt_delivery(None, SimTime::ZERO, SimTime::from_micros(1), None);
        s.record_be_drop();
        s.record_unroutable();
        s.record_failed_link_drop();
        s.record_failed_link_drop();
        s.record_released_channel_drop();
        assert_eq!(s.failed_link_dropped, 2);
        assert_eq!(s.released_channel_dropped, 1);
        assert_eq!(s.total_delivered(), 2);
        assert_eq!(s.total_dropped(), 5);
        assert!(s.summary().contains("link_failed=2"));
        assert!(s.summary().contains("released=1"));
    }

    #[test]
    fn empty_stats_queries() {
        let s = SimStats::default();
        assert!(s.worst_case_latency().is_none());
        assert!(s.channel(ChannelId::new(1)).is_none());
        assert!(s.hop_link(HopLink::Uplink(NodeId::new(0))).is_none());
        assert!(s.all_deadlines_met());
        assert_eq!(s.links().count(), 0);
    }
}
