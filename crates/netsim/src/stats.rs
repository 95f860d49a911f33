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

    /// Fold another accumulator for the same channel into this one —
    /// min/max take the extremes, counts and the latency sum add, so the
    /// merge of per-shard accumulators is indistinguishable from one
    /// accumulator that saw every delivery.
    fn merge(&mut self, other: &ChannelStats) {
        self.delivered += other.delivered;
        self.deadline_misses += other.deadline_misses;
        self.min_latency = self.min_latency.min(other.min_latency);
        self.max_latency = self.max_latency.max(other.max_latency);
        self.total_latency += other.total_latency;
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

    /// Fold another run's measurements into this one.
    ///
    /// This is the reduction step of the sharded simulator: every worker
    /// accumulates into its own `SimStats` (registered over the *full* port
    /// set, so dense port ids agree), and the coordinator folds them into the
    /// injection-side accumulator at the end of the run.  Every counter is a
    /// sum, per-channel statistics merge commutatively, and per-port link
    /// stats add slot-wise — so the merged result is exactly what a
    /// single-thread run would have recorded, which the equivalence suite
    /// pins against the oracle (including the `control_frames` /
    /// `link_state_frames` split that `summary()` reports).
    pub fn merge_from(&mut self, other: &SimStats) {
        for (id, stats) in &other.channels {
            self.channels
                .entry(*id)
                .or_insert_with(ChannelStats::new)
                .merge(stats);
        }
        if self.port_links.is_empty() && !other.port_links.is_empty() {
            self.port_links = other.port_links.clone();
            self.port_stats = vec![LinkStats::default(); self.port_links.len()];
        }
        debug_assert!(
            other.port_links.is_empty() || self.port_links == other.port_links,
            "merged stats must be registered over the same port set"
        );
        for (mine, theirs) in self.port_stats.iter_mut().zip(other.port_stats.iter()) {
            mine.frames += theirs.frames;
            mine.wire_bytes += theirs.wire_bytes;
            mine.busy_time += theirs.busy_time;
        }
        self.rt_delivered += other.rt_delivered;
        self.be_delivered += other.be_delivered;
        self.be_dropped += other.be_dropped;
        self.unroutable_dropped += other.unroutable_dropped;
        self.failed_link_dropped += other.failed_link_dropped;
        self.released_channel_dropped += other.released_channel_dropped;
        self.control_frames += other.control_frames;
        self.control_hops += other.control_hops;
        self.link_state_frames += other.link_state_frames;
        self.link_state_hops += other.link_state_hops;
        self.total_deadline_misses += other.total_deadline_misses;
        self.clamped_events += other.clamped_events;
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
    fn merge_reproduces_a_single_accumulator() {
        let links = vec![
            HopLink::Uplink(NodeId::new(0)),
            HopLink::Downlink(NodeId::new(0)),
        ];
        let ch = ChannelId::new(7);
        // One accumulator that saw everything, and two shard-local
        // accumulators that split the same history between them.
        let mut whole = SimStats::for_ports(links.clone());
        let mut parts = [
            SimStats::for_ports(links.clone()),
            SimStats::for_ports(links.clone()),
        ];
        let deliveries = [
            (SimTime::ZERO, SimTime::from_micros(50), None),
            (
                SimTime::from_micros(10),
                SimTime::from_micros(200),
                Some(SimTime::from_micros(100)),
            ),
            (SimTime::from_micros(20), SimTime::from_micros(40), None),
        ];
        for (i, &(injected, delivered, deadline)) in deliveries.iter().enumerate() {
            for s in [&mut whole, &mut parts[i % 2]] {
                s.record_rt_delivery(Some(ch), injected, delivered, deadline);
            }
        }
        for s in [&mut whole, &mut parts[0]] {
            s.record_be_delivery();
            s.record_be_drop();
            s.record_control_frame();
            s.record_control_hop();
            s.record_transmission(0, 1538, Duration::from_micros(123));
        }
        for s in [&mut whole, &mut parts[1]] {
            s.record_unroutable();
            s.record_failed_link_drop();
            s.record_released_channel_drop();
            s.record_link_state_frame();
            s.record_link_state_hop();
            s.record_transmission(1, 84, Duration::from_micros(7));
            s.record_clamped();
        }

        let mut merged = SimStats::for_ports(links);
        let [a, b] = parts;
        merged.merge_from(&a);
        merged.merge_from(&b);

        assert_eq!(merged.summary(), whole.summary());
        assert!(merged.summary().contains("control=1"));
        let (mc, wc) = (
            merged.channel(ch).expect("merged channel"),
            whole.channel(ch).expect("whole channel"),
        );
        assert_eq!(mc.delivered, wc.delivered);
        assert_eq!(mc.deadline_misses, wc.deadline_misses);
        assert_eq!(mc.min_latency, wc.min_latency);
        assert_eq!(mc.max_latency, wc.max_latency);
        assert_eq!(mc.mean_latency(), wc.mean_latency());
        assert_eq!(merged.control_hops, whole.control_hops);
        assert_eq!(merged.link_state_hops, whole.link_state_hops);
        assert_eq!(merged.total_delivered(), whole.total_delivered());
        assert_eq!(merged.total_dropped(), whole.total_dropped());
        assert_eq!(merged.links().count(), whole.links().count());
        for (link, ws) in whole.links() {
            let ms = merged.hop_link(link).expect("merged link stats");
            assert_eq!(ms.frames, ws.frames);
            assert_eq!(ms.wire_bytes, ws.wire_bytes);
            assert_eq!(ms.busy_time, ws.busy_time);
        }
    }

    #[test]
    fn merge_into_unregistered_stats_adopts_the_port_registry() {
        let links = vec![HopLink::Uplink(NodeId::new(1))];
        let mut part = SimStats::for_ports(links);
        part.record_transmission(0, 100, Duration::from_micros(1));
        let mut merged = SimStats::default();
        merged.merge_from(&part);
        assert_eq!(merged.links().count(), 1);
        // Merging a port-less accumulator into a registered one is a no-op
        // on the link side.
        merged.merge_from(&SimStats::default());
        assert_eq!(merged.links().count(), 1);
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
