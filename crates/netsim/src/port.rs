//! The dual-queue output port of Figure 18.2.
//!
//! Every transmitter in the network — an end node's NIC on its uplink, and
//! each switch port on its downlink — owns one [`OutputPort`]: a
//! deadline-sorted queue for real-time frames and a FCFS queue for
//! best-effort frames.  Real-time frames always win over best-effort frames;
//! a best-effort frame that has already started transmitting is not
//! preempted (Ethernet cannot abort a frame on the wire), which is the source
//! of the one-frame blocking term in the paper's `T_latency`.

use rt_edf::{EdfQueue, FcfsQueue};
use rt_types::SimTime;

use crate::sim::FrameId;

/// Which of the two queues a frame belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Deadline-stamped real-time traffic (and RT-layer control frames).
    RealTime,
    /// Everything else, served FCFS behind all real-time traffic.
    BestEffort,
}

/// A frame waiting in (or selected from) an output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedFrame {
    /// The frame's identity (payload is owned by the simulator).
    pub frame: FrameId,
    /// The queue it was taken from.
    pub class: TrafficClass,
    /// Absolute deadline for real-time frames (nanoseconds of simulated
    /// time); `None` for best-effort frames.
    pub deadline: Option<SimTime>,
}

/// Statistics kept per output port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCounters {
    /// Real-time frames enqueued.
    pub rt_enqueued: u64,
    /// Best-effort frames enqueued (accepted).
    pub be_enqueued: u64,
    /// Best-effort frames dropped because the bounded queue was full.
    pub be_dropped: u64,
    /// Frames of either class that started transmission.
    pub transmitted: u64,
    /// Peak occupancy of the real-time queue.
    pub rt_peak_depth: usize,
    /// Peak occupancy of the best-effort queue.
    pub be_peak_depth: usize,
}

/// One output port: RT queue + best-effort queue + the busy state of the
/// attached directed link.
#[derive(Debug)]
pub struct OutputPort {
    rt: EdfQueue<QueuedFrame>,
    be: FcfsQueue<QueuedFrame>,
    /// The port is transmitting until this time (exclusive upper edge): it
    /// is busy exactly while `busy_until > now`.  Nothing clears it — a
    /// completion handled at `busy_until` finds the port free by the clock
    /// alone, and so does any other event of that instant, whichever runs
    /// first; the one that starts the next frame moves it forward.
    busy_until: Option<SimTime>,
    counters: PortCounters,
}

impl OutputPort {
    /// A port with an unbounded best-effort queue.
    pub fn new() -> Self {
        OutputPort {
            rt: EdfQueue::new(),
            be: FcfsQueue::new(),
            busy_until: None,
            counters: PortCounters::default(),
        }
    }

    /// A port whose best-effort queue holds at most `be_capacity` frames
    /// (additional best-effort arrivals are dropped, as in a real switch).
    pub fn with_be_capacity(be_capacity: usize) -> Self {
        OutputPort {
            rt: EdfQueue::new(),
            be: FcfsQueue::bounded(be_capacity),
            busy_until: None,
            counters: PortCounters::default(),
        }
    }

    /// Enqueue a real-time frame with its absolute deadline.
    pub fn enqueue_rt(&mut self, frame: FrameId, deadline: SimTime) {
        self.rt.push(
            deadline.as_nanos(),
            QueuedFrame {
                frame,
                class: TrafficClass::RealTime,
                deadline: Some(deadline),
            },
        );
        self.counters.rt_enqueued += 1;
        self.counters.rt_peak_depth = self.counters.rt_peak_depth.max(self.rt.len());
    }

    /// Enqueue a best-effort frame; returns `false` if it was dropped.
    pub fn enqueue_be(&mut self, frame: FrameId) -> bool {
        let accepted = self.be.push(QueuedFrame {
            frame,
            class: TrafficClass::BestEffort,
            deadline: None,
        });
        if accepted {
            self.counters.be_enqueued += 1;
            self.counters.be_peak_depth = self.counters.be_peak_depth.max(self.be.len());
        } else {
            self.counters.be_dropped += 1;
        }
        accepted
    }

    /// `true` if the port is currently transmitting at `now`.
    pub fn is_busy(&self, now: SimTime) -> bool {
        self.busy_until.is_some_and(|t| t > now)
    }

    /// Mark the port busy until `until` (called when a transmission starts).
    pub fn set_busy_until(&mut self, until: SimTime) {
        self.busy_until = Some(until);
    }

    /// Select the next frame to transmit: the earliest-deadline real-time
    /// frame if any, otherwise the oldest best-effort frame.  Returns `None`
    /// when both queues are empty.  The caller is responsible for checking
    /// [`OutputPort::is_busy`] first.
    pub fn dequeue_next(&mut self) -> Option<QueuedFrame> {
        let next = if let Some((_, f)) = self.rt.pop() {
            Some(f)
        } else {
            self.be.pop()
        };
        if next.is_some() {
            self.counters.transmitted += 1;
        }
        next
    }

    /// Remove and return every waiting frame (RT first, in EDF order, then
    /// best-effort in FCFS order) *without* counting them as transmitted —
    /// what happens to a port's queues when its link is cut: the frames are
    /// lost, not sent.
    pub fn drain(&mut self) -> Vec<QueuedFrame> {
        let mut lost = Vec::with_capacity(self.queued());
        while let Some((_, f)) = self.rt.pop() {
            lost.push(f);
        }
        while let Some(f) = self.be.pop() {
            lost.push(f);
        }
        lost
    }

    /// Number of frames waiting (both classes).
    pub fn queued(&self) -> usize {
        self.rt.len() + self.be.len()
    }

    /// Number of real-time frames waiting.
    pub fn queued_rt(&self) -> usize {
        self.rt.len()
    }

    /// Number of best-effort frames waiting.
    pub fn queued_be(&self) -> usize {
        self.be.len()
    }

    /// `true` if nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.rt.is_empty() && self.be.is_empty()
    }

    /// The per-port counters.
    pub fn counters(&self) -> PortCounters {
        self.counters
    }
}

impl Default for OutputPort {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(v: u64) -> FrameId {
        FrameId::new(v)
    }

    #[test]
    fn rt_has_strict_priority_over_be() {
        let mut p = OutputPort::new();
        p.enqueue_be(fid(1));
        p.enqueue_be(fid(2));
        p.enqueue_rt(fid(3), SimTime::from_micros(500));
        p.enqueue_rt(fid(4), SimTime::from_micros(100));
        assert_eq!(p.queued(), 4);

        // EDF among RT frames: frame 4 (earlier deadline) first.
        assert_eq!(p.dequeue_next().unwrap().frame, fid(4));
        assert_eq!(p.dequeue_next().unwrap().frame, fid(3));
        // Then FCFS among best-effort.
        assert_eq!(p.dequeue_next().unwrap().frame, fid(1));
        assert_eq!(p.dequeue_next().unwrap().frame, fid(2));
        assert!(p.dequeue_next().is_none());
        assert_eq!(p.counters().transmitted, 4);
    }

    #[test]
    fn busy_tracking() {
        let mut p = OutputPort::new();
        assert!(!p.is_busy(SimTime::ZERO));
        p.set_busy_until(SimTime::from_micros(10));
        assert!(p.is_busy(SimTime::from_micros(5)));
        // Free at the completion instant by the clock alone.
        assert!(!p.is_busy(SimTime::from_micros(10)));
        // The next frame started in that instant holds the port to its own
        // end, whatever else that instant handles.
        p.set_busy_until(SimTime::from_micros(20));
        assert!(p.is_busy(SimTime::from_micros(10)));
        assert!(p.is_busy(SimTime::from_micros(19)));
        assert!(!p.is_busy(SimTime::from_micros(20)));
    }

    #[test]
    fn bounded_be_queue_drops() {
        let mut p = OutputPort::with_be_capacity(2);
        assert!(p.enqueue_be(fid(1)));
        assert!(p.enqueue_be(fid(2)));
        assert!(!p.enqueue_be(fid(3)));
        assert_eq!(p.counters().be_dropped, 1);
        assert_eq!(p.counters().be_enqueued, 2);
        // RT frames are never dropped.
        p.enqueue_rt(fid(4), SimTime::from_micros(1));
        assert_eq!(p.queued_rt(), 1);
    }

    #[test]
    fn peak_depth_counters() {
        let mut p = OutputPort::new();
        for i in 0..5 {
            p.enqueue_rt(fid(i), SimTime::from_micros(i));
        }
        p.dequeue_next();
        for i in 5..8 {
            p.enqueue_be(fid(i));
        }
        assert_eq!(p.counters().rt_peak_depth, 5);
        assert_eq!(p.counters().be_peak_depth, 3);
        assert_eq!(p.queued_rt(), 4);
        assert_eq!(p.queued_be(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn queued_frame_carries_class_and_deadline() {
        let mut p = OutputPort::new();
        p.enqueue_rt(fid(1), SimTime::from_micros(7));
        p.enqueue_be(fid(2));
        let rt = p.dequeue_next().unwrap();
        assert_eq!(rt.class, TrafficClass::RealTime);
        assert_eq!(rt.deadline, Some(SimTime::from_micros(7)));
        let be = p.dequeue_next().unwrap();
        assert_eq!(be.class, TrafficClass::BestEffort);
        assert_eq!(be.deadline, None);
    }
}
