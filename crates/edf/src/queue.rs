//! The two output queues of the RT layer (Figure 18.2).
//!
//! Every output port — in an end node's NIC and in each switch port — holds
//! two queues: a **deadline-sorted queue** for real-time frames (served EDF)
//! and a **FCFS queue** for everything else.  The RT queue always has strict
//! priority over the best-effort queue; within the RT queue the frame with
//! the earliest absolute deadline is transmitted first, and ties are broken
//! in arrival order so that the schedule is deterministic.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An entry in the deadline-sorted queue.
#[derive(Debug, Clone)]
struct EdfEntry<T> {
    /// Absolute deadline; smaller is more urgent.
    deadline: u64,
    /// Monotonic arrival sequence number; breaks deadline ties FIFO.
    seq: u64,
    item: T,
}

impl<T> PartialEq for EdfEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl<T> Eq for EdfEntry<T> {}

impl<T> Ord for EdfEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the smallest deadline (then the
        // smallest sequence number) is at the top.
        other
            .deadline
            .cmp(&self.deadline)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for EdfEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deadline-sorted (EDF) queue.
///
/// `pop` always returns the item with the smallest absolute deadline;
/// among equal deadlines the one that was pushed first wins.
#[derive(Debug, Clone)]
pub struct EdfQueue<T> {
    heap: BinaryHeap<EdfEntry<T>>,
    next_seq: u64,
}

impl<T> Default for EdfQueue<T> {
    fn default() -> Self {
        EdfQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<T> EdfQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Enqueue `item` with the given absolute deadline.
    pub fn push(&mut self, deadline: u64, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(EdfEntry {
            deadline,
            seq,
            item,
        });
    }

    /// Dequeue the most urgent item, returning `(deadline, item)`.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|e| (e.deadline, e.item))
    }

    /// The deadline of the most urgent item without removing it.
    pub fn peek_deadline(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.deadline)
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Iterate over queued items in no particular order (for statistics).
    pub fn iter_unordered(&self) -> impl Iterator<Item = (u64, &T)> {
        self.heap.iter().map(|e| (e.deadline, &e.item))
    }
}

/// A First-Come-First-Served queue for best-effort traffic, with an optional
/// capacity bound (frames arriving at a full queue are dropped, which is what
/// a real switch does to best-effort traffic under overload).
#[derive(Debug, Clone)]
pub struct FcfsQueue<T> {
    queue: VecDeque<T>,
    capacity: Option<usize>,
    dropped: u64,
}

impl<T> Default for FcfsQueue<T> {
    fn default() -> Self {
        FcfsQueue {
            queue: VecDeque::new(),
            capacity: None,
            dropped: 0,
        }
    }
}

impl<T> FcfsQueue<T> {
    /// An unbounded FCFS queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// A FCFS queue that holds at most `capacity` items.  The capacity is a
    /// bound, not a reservation: the buffer is allocated on first use (a
    /// fabric has thousands of ports, most of which never see a best-effort
    /// frame).
    pub fn bounded(capacity: usize) -> Self {
        FcfsQueue {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// Slots the buffer has allocated so far.
    #[cfg(test)]
    fn buffer_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of items dropped because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Enqueue `item`; returns `false` (and counts a drop) if the queue is
    /// bounded and full.
    pub fn push(&mut self, item: T) -> bool {
        if let Some(cap) = self.capacity {
            if self.queue.len() >= cap {
                self.dropped += 1;
                return false;
            }
        }
        self.queue.push_back(item);
        true
    }

    /// Dequeue the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.queue.pop_front()
    }

    /// Peek at the oldest item.
    pub fn peek(&self) -> Option<&T> {
        self.queue.front()
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_types::rng::Xoshiro256;

    #[test]
    fn edf_orders_by_deadline() {
        let mut q = EdfQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_deadline(), Some(10));
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn edf_ties_break_fifo() {
        let mut q = EdfQueue::new();
        q.push(5, "first");
        q.push(5, "second");
        q.push(5, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn edf_interleaved_push_pop() {
        let mut q = EdfQueue::new();
        q.push(100, 1u32);
        q.push(50, 2);
        assert_eq!(q.pop(), Some((50, 2)));
        q.push(10, 3);
        q.push(70, 4);
        assert_eq!(q.pop(), Some((10, 3)));
        assert_eq!(q.pop(), Some((70, 4)));
        assert_eq!(q.pop(), Some((100, 1)));
    }

    #[test]
    fn edf_clear_and_iter() {
        let mut q = EdfQueue::new();
        q.push(1, 'x');
        q.push(2, 'y');
        assert_eq!(q.iter_unordered().count(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn fcfs_preserves_order() {
        let mut q = FcfsQueue::new();
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(q.push(3));
        assert_eq!(q.peek(), Some(&1));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fcfs_bounded_drops_when_full() {
        let mut q = FcfsQueue::bounded(2);
        assert!(q.push('a'));
        assert!(q.push('b'));
        assert!(!q.push('c'));
        assert_eq!(q.len(), 2);
        assert_eq!(q.dropped(), 1);
        q.pop();
        assert!(q.push('c'));
        assert_eq!(q.dropped(), 1);
    }

    #[test]
    fn fcfs_bound_reserves_nothing_until_used() {
        let mut q = FcfsQueue::bounded(1024);
        assert_eq!(q.buffer_capacity(), 0, "an unused queue owns no buffer");
        for item in 0..1024 {
            assert!(q.push(item));
        }
        assert!(!q.push(1024), "push capacity + 1 is refused");
        assert_eq!(q.len(), 1024);
        assert_eq!(q.dropped(), 1);
    }

    #[test]
    fn fcfs_clear() {
        let mut q = FcfsQueue::bounded(4);
        q.push(1);
        q.push(2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// Popping everything from an EdfQueue yields deadlines in
    /// non-decreasing order regardless of insertion order.
    #[test]
    fn prop_edf_pop_sorted() {
        let mut rng = Xoshiro256::new(0xedf_0001);
        for _ in 0..64 {
            let n = rng.below(100) as usize;
            let deadlines: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
            let mut q = EdfQueue::new();
            for (i, d) in deadlines.iter().enumerate() {
                q.push(*d, i);
            }
            let mut prev = None;
            while let Some((d, _)) = q.pop() {
                if let Some(p) = prev {
                    assert!(d >= p);
                }
                prev = Some(d);
            }
        }
    }

    /// FCFS output equals its input sequence.
    #[test]
    fn prop_fcfs_order_preserved() {
        let mut rng = Xoshiro256::new(0xedf_0002);
        for _ in 0..64 {
            let n = rng.below(100) as usize;
            let items: Vec<u16> = (0..n).map(|_| rng.below(1 << 16) as u16).collect();
            let mut q = FcfsQueue::new();
            for it in &items {
                q.push(*it);
            }
            let mut out = Vec::new();
            while let Some(it) = q.pop() {
                out.push(it);
            }
            assert_eq!(out, items);
        }
    }

    /// Among equal deadlines, EDF pops in insertion order (stable).
    #[test]
    fn prop_edf_stable_for_equal_deadlines() {
        for n in 1usize..50 {
            let mut q = EdfQueue::new();
            for i in 0..n {
                q.push(42, i);
            }
            let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
            let expected: Vec<usize> = (0..n).collect();
            assert_eq!(popped, expected);
        }
    }
}
