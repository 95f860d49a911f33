//! The dual-queue output port of Figure 18.2.
//!
//! Every transmitter in the network — an end node's NIC on its uplink, and
//! each switch port on its downlink — owns one [`OutputPort`]: a
//! deadline-sorted queue for real-time frames and a FCFS queue for
//! best-effort frames.  Real-time frames always win over best-effort frames;
//! a best-effort frame that has already started transmitting is not
//! preempted (Ethernet cannot abort a frame on the wire), which is the source
//! of the one-frame blocking term in the paper's `T_latency`.
//!
//! A port holds frame ids only: the queue a frame waits in is its class,
//! and the EDF key its deadline; everything else about the frame stays in
//! the simulator's frame table.

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

/// One output port: RT queue + best-effort queue + the busy state of the
/// attached directed link.
#[derive(Debug)]
pub struct OutputPort {
    rt: EdfQueue<FrameId>,
    be: FcfsQueue<FrameId>,
    /// The port is transmitting until this time (exclusive upper edge): it
    /// is busy exactly while `busy_until > now`.  Nothing clears it — a
    /// completion handled at `busy_until` finds the port free by the clock
    /// alone, and so does any other event of that instant, whichever runs
    /// first; the one that starts the next frame moves it forward.
    busy_until: Option<SimTime>,
}

impl OutputPort {
    /// A port with an unbounded best-effort queue.
    pub fn new() -> Self {
        Self::with_queues(FcfsQueue::new())
    }

    /// A port whose best-effort queue holds at most `be_capacity` frames
    /// (additional best-effort arrivals are dropped, as in a real switch).
    pub fn with_be_capacity(be_capacity: usize) -> Self {
        Self::with_queues(FcfsQueue::bounded(be_capacity))
    }

    fn with_queues(be: FcfsQueue<FrameId>) -> Self {
        OutputPort {
            rt: EdfQueue::new(),
            be,
            busy_until: None,
        }
    }

    /// Enqueue a real-time frame with its absolute deadline.
    pub fn enqueue_rt(&mut self, frame: FrameId, deadline: SimTime) {
        self.rt.push(deadline.as_nanos(), frame);
    }

    /// Enqueue a best-effort frame; returns `false` if it was dropped.
    pub fn enqueue_be(&mut self, frame: FrameId) -> bool {
        self.be.push(frame)
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
    pub fn dequeue_next(&mut self) -> Option<FrameId> {
        match self.rt.pop() {
            Some((_, frame)) => Some(frame),
            None => self.be.pop(),
        }
    }

    /// Remove and return every waiting frame (RT first, in EDF order, then
    /// best-effort in FCFS order) — what happens to a port's queues when its
    /// link is cut: the frames are lost, not sent.
    pub fn drain(&mut self) -> Vec<FrameId> {
        let mut lost = Vec::with_capacity(self.queued());
        while let Some(frame) = self.dequeue_next() {
            lost.push(frame);
        }
        lost
    }

    /// Number of frames waiting (both classes).
    pub fn queued(&self) -> usize {
        self.rt.len() + self.be.len()
    }

    /// `true` if nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.rt.is_empty() && self.be.is_empty()
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
        assert_eq!(p.dequeue_next(), Some(fid(4)));
        assert_eq!(p.dequeue_next(), Some(fid(3)));
        // Then FCFS among best-effort.
        assert_eq!(p.dequeue_next(), Some(fid(1)));
        assert_eq!(p.dequeue_next(), Some(fid(2)));
        assert_eq!(p.dequeue_next(), None);
        assert!(p.is_empty());
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
        // RT frames are never dropped.
        p.enqueue_rt(fid(4), SimTime::from_micros(1));
        assert_eq!(p.queued(), 3);
        assert_eq!(p.drain(), [fid(4), fid(1), fid(2)]);
    }

    /// A cut port gives up every waiting frame in the order it would have
    /// sent them: RT by deadline (ties in arrival order), then best effort.
    #[test]
    fn drain_empties_both_queues_in_service_order() {
        let mut p = OutputPort::new();
        for i in 0..5 {
            p.enqueue_rt(fid(i), SimTime::from_micros(10 - i % 2));
        }
        assert_eq!(p.dequeue_next(), Some(fid(1)));
        for i in 5..8 {
            p.enqueue_be(fid(i));
        }
        let order = [3, 0, 2, 4, 5, 6, 7].map(fid);
        assert_eq!(p.drain(), order);
        assert!(p.is_empty());
        assert_eq!(p.dequeue_next(), None);
    }
}
