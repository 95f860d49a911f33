//! The discrete-event core: a time-ordered event queue with deterministic
//! tie-breaking.
//!
//! Determinism matters: the experiments must be exactly reproducible from a
//! seed, so events scheduled for the same instant are processed in the order
//! they were scheduled (FIFO), never in heap or bucket order.  Every
//! [`EventScheduler`] must honour the total order `(time, seq)`.  The
//! [`CalendarScheduler`] is the O(1)-amortised structure every simulation
//! runs on; the [`HeapScheduler`] is the straightforward reference it is
//! checked against — event by event inside every debug-build [`EventQueue`],
//! and directly by this module's differential tests in any build.
//!
//! Beside the calendar, an [`EventQueue`] keeps FIFO *delay lanes*: an
//! event scheduled a fixed delay `d` after the current instant goes to the
//! lane of `d`, where it lands behind every earlier event of that lane in
//! `(time, seq)` order — no priority-queue operation is needed to keep an
//! already ordered stream ordered.  The forwarding core's hop events (a
//! transmission's end, a switch or node arrival) are such streams; every pop
//! merges the lane heads with the calendar's minimum.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;

use rt_types::{Duration, NodeId, SimTime, SwitchId};

use crate::sim::FrameId;

/// Something that happens at a point in simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A frame (already built by the application / RT layer) is handed to a
    /// node's NIC output queues.
    EnqueueAtNode {
        /// The node whose uplink will carry the frame.
        node: NodeId,
        /// The frame, by id (the simulator owns the payload).
        frame: FrameId,
    },
    /// The node's uplink finished serialising a frame onto the wire.
    NodeTxComplete {
        /// The transmitting node.
        node: NodeId,
        /// The frame that completed.
        frame: FrameId,
    },
    /// A frame fully arrived at a switch input (store-and-forward: the last
    /// bit has been received and the switch processing latency has elapsed).
    ArriveAtSwitch {
        /// The switch that received the frame.
        switch: SwitchId,
        /// The frame.
        frame: FrameId,
    },
    /// A switch output port towards end node `to` (its downlink) finished
    /// serialising a frame.
    SwitchTxComplete {
        /// The destination node of the port.
        to: NodeId,
        /// The frame that completed.
        frame: FrameId,
    },
    /// A trunk port between two switches finished serialising a frame.
    TrunkTxComplete {
        /// The transmitting switch.
        from: SwitchId,
        /// The receiving switch.
        to: SwitchId,
        /// The frame that completed.
        frame: FrameId,
    },
    /// A frame fully arrived at its destination node.
    ArriveAtNode {
        /// The receiving node.
        node: NodeId,
        /// The frame.
        frame: FrameId,
    },
    /// Fault injection: the trunk between `from` and `to` is cut at this
    /// instant.  Both directed ports die, their queues are lost, and frames
    /// mid-serialisation are lost with the cable.
    FailTrunk {
        /// One end of the trunk.
        from: SwitchId,
        /// The other end.
        to: SwitchId,
    },
    /// Fault injection: a previously failed trunk comes back at this
    /// instant; forwarding tables recover on the spot.
    RepairTrunk {
        /// One end of the trunk.
        from: SwitchId,
        /// The other end.
        to: SwitchId,
    },
    /// Fault injection: every healthy trunk incident to `switch` is cut at
    /// this instant, atomically (a whole switch dropping off the fabric).
    /// Repairs splice the trunks back one at a time.
    FailSwitch {
        /// The switch losing all its trunks.
        switch: SwitchId,
    },
}

/// An event plus its scheduled time and a FIFO sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScheduledEvent {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (time, seq): invert for BinaryHeap.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The pending-event store of the simulation: a priority queue over the
/// total order `(time, seq)` — earliest time first, FIFO (ascending `seq`)
/// among equal times.
///
/// Implementations must be exact: `pop` always returns the global minimum,
/// never an approximation, so that every scheduler yields the identical
/// event sequence for identical inputs.
pub trait EventScheduler: std::fmt::Debug {
    /// Insert an event.  Its key `(time, seq)` is later than the key of
    /// every event popped so far, and no pending event carries its `seq`.
    /// Seqs need not arrive in order: a seq reserved earlier may be pushed
    /// after later ones were, at an instant not popped yet (or at the
    /// instant being popped, if it is later than that instant's last pop).
    fn push(&mut self, time: SimTime, seq: u64, event: Event);

    /// Remove and return the `(time, seq)`-minimal event.
    fn pop(&mut self) -> Option<(SimTime, Event)>;

    /// Remove and return the minimal event only if its time is at or
    /// before `limit`.  Semantically `peek_time() <= limit` then `pop()`,
    /// but implementations whose peek is not O(1) override it to run the
    /// min search once (the windowed `run_until` path calls this per
    /// event).
    fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, Event)> {
        if self.peek_time()? <= limit {
            self.pop()
        } else {
            None
        }
    }

    /// Remove the `(time, seq)`-minimal event *and every other event
    /// scheduled at the same time*, appending them to `out` in FIFO
    /// (ascending `seq`) order — but only if that time is at or before
    /// `limit`.  Returns the run's time, or `None` when nothing is pending
    /// in the window.  Semantically a `pop_at_or_before` followed by
    /// `peek_time`-guarded pops; implementations whose min search is not
    /// O(1) locate the run once.
    fn pop_run_at_or_before(&mut self, limit: SimTime, out: &mut Vec<Event>) -> Option<SimTime> {
        let (time, event) = self.pop_at_or_before(limit)?;
        out.push(event);
        while self.peek_time() == Some(time) {
            let (_, event) = self.pop().expect("peek_time just saw an event pending");
            out.push(event);
        }
        Some(time)
    }

    /// The time of the minimal event without removing it.
    fn peek_time(&self) -> Option<SimTime>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// `true` if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The reference scheduler: a plain binary heap.  O(log n) per operation
/// and increasingly cache-hostile as the pending population grows (half the
/// calendar's throughput on the 1024-node torus), but trivially correct —
/// the [`CalendarScheduler`] is validated against it and nothing runs on it.
#[derive(Debug, Default)]
pub struct HeapScheduler {
    heap: BinaryHeap<ScheduledEvent>,
    /// The key of the last popped event: debug builds assert that every
    /// push lands after it, the [`EventScheduler::push`] contract.
    popped: Option<(SimTime, u64)>,
}

impl HeapScheduler {
    /// An empty heap scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventScheduler for HeapScheduler {
    fn push(&mut self, time: SimTime, seq: u64, event: Event) {
        debug_assert!(
            self.popped.is_none_or(|popped| (time, seq) > popped),
            "event filed at ({time}, seq {seq}) behind the last pop {:?}: {event:?}",
            self.popped
        );
        self.heap.push(ScheduledEvent { time, seq, event });
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        let e = self.heap.pop()?;
        self.popped = Some((e.time, e.seq));
        Some((e.time, e.event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// One slab slot of the calendar queue: a pending event plus an intrusive
/// link (`next` chains slots within a bucket, within the overflow list, or
/// within the free list).
#[derive(Debug)]
struct CalendarSlot {
    time: u64,
    seq: u64,
    next: u32,
    event: Event,
}

/// "No slot" sentinel for the intrusive links.
const NIL: u32 = u32::MAX;
/// Marks a free slot while [`CalendarScheduler::compact`] sweeps the slab.
const FREE: u32 = u32::MAX - 1;
/// Slab slots (192 KiB) up to which a draining calendar keeps its slab.
const SLAB_FLOOR: usize = 4 * 1024;

/// A placeholder event for vacated slots (never observable outside).
fn placeholder_event() -> Event {
    Event::EnqueueAtNode {
        node: NodeId::new(0),
        frame: FrameId::new(0),
    }
}

/// A Brown-style calendar queue: an array of time buckets of self-resizing
/// width, unordered within a bucket (the pop selects the `(time, seq)`
/// minimum, which preserves FIFO exactly), with a lazily sorted overflow
/// list for events beyond the current bucket "year".
///
/// The pending set lives in one contiguous **slab** of `CalendarSlot`s
/// with intrusive `next` links; a bucket is a 4-byte head index into the
/// slab, and vacated slots go on a free list for reuse.  This keeps the
/// bucket array small enough to stay cache-resident at six-figure pending
/// populations and makes push/pop allocation-free in steady state — the
/// naive `Vec<Vec<Entry>>` layout measurably slowed the *rest* of the
/// simulator down by evicting its hot state from cache.  The slab follows
/// its population: once a pop leaves at most half of it live (above a
/// 4 Ki-slot floor), the live slots move down, the storage shrinks in
/// place and every link is rebuilt under the same geometry.
///
/// ## Behaviour
///
/// * An event with time `t` in the current year lands in bucket
///   `(t >> width_shift) & bucket_mask`; later years go to the `overflow`
///   list.
/// * `pop` advances a cursor over the buckets of the current year; because
///   bucket index is monotone in time within a year, the first non-empty
///   bucket at or after the cursor holds the global minimum.
/// * A chain of at most `WIDTH_SAMPLE` events is walked for its minimum.
///   A longer one is detached once into the **ordered bucket**, a binary
///   heap: pops and peeks read its top and pushes landing at or behind the
///   cursor join it, so `k` events in one bucket cost O(log k) each
///   however their times are distributed — all at one nanosecond included.
/// * When the year drains, the earliest year present in the overflow is
///   migrated into the buckets ("lazily sorted": the overflow is scanned,
///   never kept ordered).
/// * When the pending population outgrows (or far undershoots) the bucket
///   count, the queue resizes: the bucket count tracks the population and
///   the bucket width is re-estimated from the observed event spacing, so
///   the average bucket holds O(1) events.  In between, a longer chain
///   that is spread over as many instants narrows the width to its own
///   span per instant.
///
/// All decisions are functions of queue content only — no wall clock, no
/// randomness — so the structure is exactly deterministic.
#[derive(Debug)]
pub struct CalendarScheduler {
    /// Slot storage; `buckets`, `active`, `overflow_head` and `free_head`
    /// index into this.
    slab: Vec<CalendarSlot>,
    /// Head slot of each bucket (`NIL` = empty).
    buckets: Vec<u32>,
    /// The ordered bucket, `(time, seq, slot)` with the minimum on top: while
    /// non-empty it holds every current-year event at or behind `cursor`,
    /// whose chains are all empty.
    active: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Head of the free-slot list.
    free_head: u32,
    /// Head of the (unsorted) overflow list: events in years after
    /// `current_year`.
    overflow_head: u32,
    /// Events on the overflow list, the earliest of their times, and the
    /// latest time ever put there: `floor` to `latest` spans the population.
    overflow_len: usize,
    overflow_min: u64,
    latest: u64,
    /// log2 of the bucket width in nanoseconds.
    width_shift: u32,
    /// `buckets.len() - 1` (the bucket count is a power of two).
    bucket_mask: u64,
    /// The year currently spread over `buckets` (`time >> year_shift`).
    current_year: u64,
    /// Next bucket index to examine in the current year.
    cursor: usize,
    /// Events of `current_year`: in the chains or in `active`.
    in_buckets: usize,
    /// Time of the last popped event: the lower bound the
    /// [`EventScheduler`] contract guarantees for every future push.  The
    /// resize anchor — `current_year` may never advance past this year, or
    /// a later legal push at a nearer time would be misfiled.
    floor: u64,
    /// Resizes performed (exposed for tests and diagnostics).
    resizes: u64,
    /// Reusable `(seq, slot)` scratch for the batched same-time drain.
    run_scratch: Vec<(u64, u32)>,
    /// Slots examined so far: see [`CalendarScheduler::examined`].
    #[cfg(test)]
    work: u64,
}

/// Initial and minimal number of buckets.
const MIN_BUCKETS: usize = 16;
/// Hard cap on the bucket count (2^20 head indices = 4 MiB).
const MAX_BUCKETS: usize = 1 << 20;
/// Initial bucket width: 2^13 ns ≈ 8.2 µs, about one small-frame slot.
const INITIAL_WIDTH_SHIFT: u32 = 13;
/// Events per bucket the resize aims for.  A handful keeps the bucket
/// array (the randomly-accessed part) several times smaller than the
/// pending set while the in-bucket min scan stays a short walk over
/// adjacent slab slots.
const TARGET_OCCUPANCY: usize = 1;
/// Events a spacing estimate is drawn from — the nearest pending times at
/// a resize, the instants of one long chain in between — and so the
/// longest chain popped by walking it.  A width that fits the events never
/// gets near (a busy bucket of the 1024-node torus run holds a dozen), and
/// on chains that short the walk beats the heap.
const WIDTH_SAMPLE: usize = 64;

/// The width, as a shift, whose buckets hold [`TARGET_OCCUPANCY`] events
/// spaced `gap` nanoseconds apart.
fn width_shift_for(gap: u64) -> u32 {
    let width = gap.saturating_mul(TARGET_OCCUPANCY as u64);
    (64 - width.leading_zeros()).clamp(4, 40)
}

impl Default for CalendarScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarScheduler {
    /// An empty calendar queue with the initial geometry.
    pub fn new() -> Self {
        CalendarScheduler {
            slab: Vec::new(),
            buckets: vec![NIL; MIN_BUCKETS],
            active: BinaryHeap::new(),
            free_head: NIL,
            overflow_head: NIL,
            overflow_len: 0,
            overflow_min: u64::MAX,
            latest: 0,
            width_shift: INITIAL_WIDTH_SHIFT,
            bucket_mask: (MIN_BUCKETS - 1) as u64,
            current_year: 0,
            cursor: 0,
            in_buckets: 0,
            floor: 0,
            resizes: 0,
            run_scratch: Vec::new(),
            #[cfg(test)]
            work: 0,
        }
    }

    /// Number of resizes performed so far (test hook).
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Current bucket count (test hook).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Events currently parked in the overflow list (test hook).
    pub fn overflow_len(&self) -> usize {
        self.overflow_len
    }

    /// Count `n` slots examined (chain and re-seat steps, empty buckets,
    /// heap levels): tests bound a pop's work by count (test builds only).
    #[inline(always)]
    fn examined(&mut self, _n: usize) {
        #[cfg(test)]
        (self.work += _n as u64);
    }

    fn year_of(&self, time: u64) -> u64 {
        time >> (self.width_shift + self.buckets.len().trailing_zeros())
    }

    fn bucket_of(&self, time: u64) -> usize {
        ((time >> self.width_shift) & self.bucket_mask) as usize
    }

    /// Take a slot off the free list (or grow the slab) and fill it.
    fn alloc_slot(&mut self, time: u64, seq: u64, event: Event) -> u32 {
        if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slab[slot as usize];
            self.free_head = s.next;
            s.time = time;
            s.seq = seq;
            s.event = event;
            slot
        } else {
            let slot = self.slab.len() as u32;
            self.slab.push(CalendarSlot {
                time,
                seq,
                next: NIL,
                event,
            });
            slot
        }
    }

    /// Return a slot to the free list and move its event out.
    fn release_slot(&mut self, slot: u32) -> (u64, Event) {
        let s = &mut self.slab[slot as usize];
        let time = s.time;
        let event = std::mem::replace(&mut s.event, placeholder_event());
        s.next = self.free_head;
        self.free_head = slot;
        (time, event)
    }

    /// Link an (already filled) slot into its home: the ordered bucket, a
    /// current-year chain or the overflow list.
    #[inline]
    fn link(&mut self, slot: u32) {
        let time = self.slab[slot as usize].time;
        if self.year_of(time) == self.current_year {
            let bucket = self.bucket_of(time);
            self.in_buckets += 1;
            // At or behind the ordered bucket (behind is legal after a
            // refused probe): join it, so its top stays the minimum.
            if !self.active.is_empty() && bucket <= self.cursor {
                self.examined(self.active.len().ilog2() as usize + 1);
                let seq = self.slab[slot as usize].seq;
                return self.active.push(Reverse((time, seq, slot)));
            }
            self.slab[slot as usize].next = self.buckets[bucket];
            self.buckets[bucket] = slot;
            // Never skip an event inserted behind the scan position.
            if bucket < self.cursor {
                self.cursor = bucket;
            }
        } else {
            debug_assert!(self.year_of(time) > self.current_year, "past-year insert");
            self.slab[slot as usize].next = self.overflow_head;
            self.overflow_head = slot;
            self.overflow_len += 1;
            self.overflow_min = self.overflow_min.min(time);
            self.latest = self.latest.max(time);
        }
    }

    /// Spread the overflow year of `min_time`, the overflow minimum, over
    /// the buckets: detach the whole list and re-link every slot, so that
    /// this-year slots land in buckets and the rest re-forms the list.
    fn seat_year_of(&mut self, min_time: u64) {
        debug_assert_eq!(self.in_buckets, 0);
        self.current_year = self.year_of(min_time);
        self.cursor = 0;
        self.examined(self.overflow_len);
        let mut walk = std::mem::replace(&mut self.overflow_head, NIL);
        (self.overflow_len, self.overflow_min) = (0, u64::MAX);
        while walk != NIL {
            let next = self.slab[walk as usize].next;
            self.link(walk);
            walk = next;
        }
    }

    /// The current year has drained: move the earliest overflow year into
    /// the buckets, unless its first event lies after `limit` or nothing is
    /// pending (`false`).  Migrating advances `current_year`, which is only
    /// safe when a pop follows immediately (it re-establishes the floor/year
    /// invariant) — so far-future overflow is refused *before* migrating, or
    /// a later near-time push would be misfiled into a "past year".
    #[cold]
    fn migrate(&mut self, limit: u64) -> bool {
        let min_time = self.overflow_min;
        if self.overflow_head == NIL || min_time > limit {
            return false;
        }
        self.seat_year_of(min_time);
        // A migrated year may hold far more events than the buckets were
        // sized for.  The resize re-anchors at the (older) floor, which can
        // push the year back to overflow: migrate again under the new geometry.
        if self.in_buckets > 2 * TARGET_OCCUPANCY * self.buckets.len()
            && self.buckets.len() < MAX_BUCKETS
        {
            self.resize();
            if self.in_buckets == 0 {
                self.seat_year_of(min_time);
            }
        }
        true
    }

    /// Drop the free slots: every live slot moves down, in slab order, into
    /// the first `len()` places, and the slab is cut there and its storage
    /// shrunk in place.  One pass, no second buffer; every link is stale
    /// afterwards, so the caller re-links.
    fn compact(&mut self) {
        if self.slab.len() == self.len() {
            return;
        }
        let mut walk = std::mem::replace(&mut self.free_head, NIL);
        while walk != NIL {
            walk = std::mem::replace(&mut self.slab[walk as usize].next, FREE);
        }
        let mut live = 0;
        for slot in 0..self.slab.len() {
            if self.slab[slot].next != FREE {
                self.slab.swap(live, slot);
                live += 1;
            }
        }
        debug_assert_eq!(live, self.len(), "every slot off the free list is live");
        self.examined(self.slab.len());
        self.slab.truncate(live);
        self.slab.shrink_to_fit();
    }

    /// Link every slot of the compacted slab afresh under the current
    /// geometry, the year anchored at the push floor: a future push may
    /// legally carry any time >= floor, and anchoring past it would misfile
    /// that push into a "past year".  If everything pending is far in the
    /// future the buckets simply stay empty until pop migrates.
    fn relink(&mut self) {
        self.buckets.fill(NIL);
        self.active.clear();
        self.overflow_head = NIL;
        (self.overflow_len, self.overflow_min) = (0, u64::MAX);
        self.in_buckets = 0;
        self.cursor = 0;
        self.current_year = self.year_of(self.floor);
        self.examined(self.slab.len());
        for slot in 0..self.slab.len() as u32 {
            self.link(slot);
        }
    }

    /// Grow or shrink so the population fits the bucket count, and
    /// re-estimate the bucket width from the observed event spacing.
    fn resize(&mut self) {
        self.compact();
        // Estimate the typical spacing between consecutive events from the
        // spread of the nearest pending times: (k-th smallest − smallest) /
        // k.  This tracks the local density and ignores far-future outliers.
        let mut times: Vec<u64> = self.slab.iter().map(|s| s.time).collect();
        let mut width_shift = self.width_shift;
        if times.len() >= 2 {
            let k = (times.len() - 1).min(WIDTH_SAMPLE);
            let kth = *times.select_nth_unstable(k).1;
            let min = *times[..k].iter().min().unwrap_or(&kth).min(&kth);
            // A zero gap is many simultaneous events: keep the width.
            if let gap @ 1.. = (kth - min) / k as u64 {
                width_shift = width_shift_for(gap);
            }
        }
        self.reseat(width_shift);
    }

    /// Re-seat every live event under the bucket count that fits the
    /// population and the given width: the slab drops its free slots and
    /// every link is rebuilt.
    #[cold]
    fn reseat(&mut self, width_shift: u32) {
        let target_buckets = (self.len() / TARGET_OCCUPANCY)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        if target_buckets == self.buckets.len() && width_shift == self.width_shift {
            return;
        }
        self.compact();
        self.buckets = vec![NIL; target_buckets];
        self.bucket_mask = (target_buckets - 1) as u64;
        self.width_shift = width_shift;
        self.resizes += 1;
        self.relink();
    }

    /// Detach the long chain under the cursor into the ordered bucket.  If
    /// it is spread over more than [`WIDTH_SAMPLE`] instants, also narrow
    /// the width to its span per instant (events at one instant share a
    /// bucket at any width, so they do not count).  The re-seat re-anchors
    /// at the floor, which may send the events back to the overflow list,
    /// to be migrated — or refused — like any other.
    #[cold]
    fn load(&mut self) {
        let mut walk = std::mem::replace(&mut self.buckets[self.cursor], NIL);
        while walk != NIL {
            let s = &self.slab[walk as usize];
            self.active.push(Reverse((s.time, s.seq, walk)));
            walk = s.next;
        }
        self.examined(self.active.len());
        let mut instants: Vec<u64> = self.active.iter().map(|&Reverse((t, ..))| t).collect();
        instants.sort_unstable();
        instants.dedup();
        if instants.len() > WIDTH_SAMPLE {
            let gap = (instants[instants.len() - 1] - instants[0]) / instants.len() as u64;
            // A dense corner must not shrink the year to a sliver of the
            // population's span: every year costs a pass over the overflow.
            let span = self.latest.saturating_sub(self.floor);
            let sparsest = span / (WIDTH_SAMPLE * self.len()) as u64;
            let width_shift = width_shift_for(gap.max(sparsest));
            if width_shift < self.width_shift {
                self.reseat(width_shift);
            }
        }
    }

    /// Settle the cursor on the bucket holding the global minimum: its slot
    /// and, in a chain, the slot linked before it (`NIL` at the head).  When
    /// nothing is pending at or before `limit`, the refusal carries a lower
    /// bound of the minimal `(time, seq)`: the minimum itself when it was
    /// found, the overflow's earliest time when the year stayed put.  A
    /// refusal commits the cursor (repeated window probes do not rescan the
    /// same empty buckets) but never the year.
    #[inline]
    fn locate(&mut self, limit: u64) -> Result<(u32, u32), (u64, u64)> {
        loop {
            if self.in_buckets == 0 && !self.migrate(limit) {
                return Err((self.overflow_min, 0));
            }
            if let Some(&Reverse((time, seq, slot))) = self.active.peek() {
                return if time <= limit {
                    Ok((slot, NIL))
                } else {
                    Err((time, seq))
                };
            }
            let mut cursor = self.cursor;
            while self.buckets[cursor] == NIL {
                cursor += 1;
            }
            let mut slot = self.buckets[cursor];
            let (mut prev, mut behind, mut len) = (NIL, slot, 1);
            let mut walk = self.slab[slot as usize].next;
            while walk != NIL {
                let s = &self.slab[walk as usize];
                let min = &self.slab[slot as usize];
                if (s.time, s.seq) < (min.time, min.seq) {
                    (slot, prev) = (walk, behind);
                }
                behind = walk;
                walk = s.next;
                len += 1;
            }
            self.examined(cursor - self.cursor + len);
            self.cursor = cursor;
            if len <= WIDTH_SAMPLE {
                let min = &self.slab[slot as usize];
                return if min.time <= limit {
                    Ok((slot, prev))
                } else {
                    Err((min.time, min.seq))
                };
            }
            self.load();
        }
    }

    /// Unlink every event at `time`, the minimum, from the chain under the
    /// cursor in **one** walk and release them to `emit` in FIFO order.
    /// Equal times land in the same bucket at any geometry, so this really
    /// is the whole run; a `locate` per event would rescan the same chain.
    fn drain_run(&mut self, time: u64, emit: &mut impl FnMut(u64, Event)) {
        let mut run = std::mem::take(&mut self.run_scratch);
        let mut prev = NIL;
        let mut walk = self.buckets[self.cursor];
        while walk != NIL {
            let s = &self.slab[walk as usize];
            let next = s.next;
            if s.time == time {
                run.push((s.seq, walk));
                if prev == NIL {
                    self.buckets[self.cursor] = next;
                } else {
                    self.slab[prev as usize].next = next;
                }
            } else {
                prev = walk;
            }
            walk = next;
        }
        self.in_buckets -= run.len();
        // The bucket chain is unordered; FIFO comes from the seq sort.
        run.sort_unstable_by_key(|&(seq, _)| seq);
        for (seq, slot) in run.drain(..) {
            emit(seq, self.release_slot(slot).1);
        }
        self.run_scratch = run;
        self.floor = time;
    }

    /// Remove the minimum [`CalendarScheduler::locate`] found — the top of
    /// the ordered bucket whenever there is one — advancing the push floor.
    #[inline]
    fn take(&mut self, slot: u32, prev: u32) -> (SimTime, Event) {
        if self.active.pop().is_some() {
            self.examined(self.active.len().max(1).ilog2() as usize + 1);
        } else if prev == NIL {
            self.buckets[self.cursor] = self.slab[slot as usize].next;
        } else {
            self.slab[prev as usize].next = self.slab[slot as usize].next;
        }
        self.in_buckets -= 1;
        let (time, event) = self.release_slot(slot);
        // The popped minimum is the new lower bound for future pushes.
        self.floor = time;
        (SimTime::from_nanos(time), event)
    }

    /// Shrink once the pops have left the bucket array mostly empty, or the
    /// slab at most half live above [`SLAB_FLOOR`].  A compaction leaves the
    /// slab all live, so the next one comes only after pops have freed half
    /// the slab it cuts: O(1) amortised per pop, and a population hovering
    /// at the threshold cannot compact twice in a row.
    fn shrink_if_sparse(&mut self) {
        if self.len() * 8 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.resize();
        } else if self.slab.len() > SLAB_FLOOR && 2 * self.len() <= self.slab.len() {
            self.compact();
            self.relink();
        }
    }

    /// `Ok` with the `(time, seq)` of the minimal event if it lies at or
    /// before `limit`; otherwise `Err` with a key later than `limit` and no
    /// later than the minimum (`SimTime::MAX` when nothing is pending).
    /// Like a refused pop it may settle the cursor and order a long bucket;
    /// it moves the year only when the minimum is at or before `limit`, so
    /// a caller passes as `limit` the earliest time it could pop next (the
    /// year invariant then holds whichever source it pops).
    pub(crate) fn peek_key(&mut self, limit: SimTime) -> Result<(SimTime, u64), (SimTime, u64)> {
        let key = |(time, seq)| (SimTime::from_nanos(time), seq);
        match self.locate(limit.as_nanos()) {
            Ok((slot, _)) => {
                let s = &self.slab[slot as usize];
                Ok(key((s.time, s.seq)))
            }
            Err(bound) => Err(key(bound)),
        }
    }

    /// [`EventScheduler::pop_run_at_or_before`] with each event's `seq`:
    /// the run is appended to `out` as `(seq, event)` in FIFO order.
    pub(crate) fn pop_run_keyed(
        &mut self,
        limit: SimTime,
        out: &mut Vec<(u64, Event)>,
    ) -> Option<SimTime> {
        self.pop_run_with(limit, &mut |seq, event| out.push((seq, event)))
    }

    /// The minimal same-time run at or before `limit`, handed to `emit` as
    /// `(seq, event)` in FIFO order.
    #[inline]
    fn pop_run_with(
        &mut self,
        limit: SimTime,
        emit: &mut impl FnMut(u64, Event),
    ) -> Option<SimTime> {
        let (slot, _) = self.locate(limit.as_nanos()).ok()?;
        let time = self.slab[slot as usize].time;
        if self.active.is_empty() {
            self.drain_run(time, emit);
        }
        // The run is the top of the ordered bucket, in FIFO order.
        while let Some(&Reverse((next, seq, slot))) = self.active.peek() {
            if next != time {
                break;
            }
            emit(seq, self.take(slot, NIL).1);
        }
        self.shrink_if_sparse();
        Some(SimTime::from_nanos(time))
    }
}

impl EventScheduler for CalendarScheduler {
    #[inline]
    fn push(&mut self, time: SimTime, seq: u64, event: Event) {
        let slot = self.alloc_slot(time.as_nanos(), seq, event);
        self.link(slot);
        if self.len() > 2 * TARGET_OCCUPANCY * self.buckets.len()
            && self.buckets.len() < MAX_BUCKETS
        {
            self.resize();
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    #[inline]
    fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, Event)> {
        let (slot, prev) = self.locate(limit.as_nanos()).ok()?;
        let popped = self.take(slot, prev);
        self.shrink_if_sparse();
        Some(popped)
    }

    fn pop_run_at_or_before(&mut self, limit: SimTime, out: &mut Vec<Event>) -> Option<SimTime> {
        self.pop_run_with(limit, &mut |_, event| out.push(event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        let time = if let Some(&Reverse((time, ..))) = self.active.peek() {
            Some(time)
        } else if self.in_buckets == 0 {
            // Buckets drained: the minimum lives in the overflow list.
            (self.overflow_head != NIL).then_some(self.overflow_min)
        } else {
            let mut ahead = self.buckets[self.cursor..].iter();
            let mut walk = *ahead.find(|&&head| head != NIL)?;
            let mut min = u64::MAX;
            while walk != NIL {
                min = min.min(self.slab[walk as usize].time);
                walk = self.slab[walk as usize].next;
            }
            Some(min)
        };
        time.map(SimTime::from_nanos)
    }

    fn len(&self) -> usize {
        self.in_buckets + self.overflow_len
    }
}

/// A time-ordered event queue with FIFO tie-breaking and a monotone clock,
/// on the [`CalendarScheduler`] and up to 16 FIFO delay lanes.
///
/// [`EventQueue::schedule`] files an event at an absolute time into the
/// calendar.  The crate-private `schedule_after` files an event a fixed
/// delay after a given instant into the lane of that delay, first come
/// first served, and into the calendar once the lanes are taken.  Every pop
/// flavour takes the `(time, seq)` minimum over the lane heads and the
/// calendar, and a same-time run that spans several of them is merged by
/// `seq`: the total order is the one a single scheduler would give.
///
/// The crate-private `defer` holds a batch of frame injections without
/// filing them: their seqs are reserved, and each injection's event is filed
/// into the calendar under its seq just before the queue pops its instant.
/// The queue keeps only a cursor per batch; a frame's time and event are
/// read off the simulator's frame table when they are needed.
///
/// In debug builds the queue also feeds every event to a [`HeapScheduler`]
/// and asserts on every pop that the reference yields the same `(time,
/// event)` sequence, so every simulation a debug build runs is a
/// scheduler-equivalence test; release builds carry nothing of it.
#[derive(Debug, Default)]
pub struct EventQueue {
    scheduler: CalendarScheduler,
    /// A key no later than the calendar's minimal `(time, seq)`: a lane
    /// head before it pops without a look at the calendar.
    calendar_bound: (SimTime, u64),
    lanes: DelayLanes,
    /// The deferred batches, the least head key on top, and how many of
    /// their injections are not filed yet.
    deferred: BinaryHeap<Reverse<Deferred>>,
    deferred_len: usize,
    /// Reusable scratch: the lanes at the earliest time, and a calendar run
    /// with its `seq`s for merging with them.
    fronts: Fronts,
    merge: Vec<(u64, Event)>,
    #[cfg(debug_assertions)]
    shadow: Shadow,
    next_seq: u64,
    now: SimTime,
    processed: u64,
}

/// The most distinct delays that get a lane.  The forwarding core uses one
/// per transmission time (one per frame size), one for a switch arrival and
/// one for a node arrival: 3 for traffic of one frame size, 5 for the full
/// stack's mix of RT data, control and best-effort frames on the torus.
const MAX_LANES: usize = 16;

/// FIFO queues of events, one per fixed delay: each lane is in `(time,
/// seq)` order because its events were scheduled at non-decreasing instants
/// with strictly increasing `seq`.
#[derive(Debug, Default)]
struct DelayLanes {
    /// The delay of each lane, in nanoseconds, in order of first use.
    delays: Vec<u64>,
    queues: Vec<VecDeque<ScheduledEvent>>,
    /// Events in all lanes.
    len: usize,
}

impl DelayLanes {
    /// The lane an event `delay` after its instant, due at `at`, joins: the
    /// delay's own lane (a new one while fewer than [`MAX_LANES`] exist),
    /// unless `at` lies before the lane's last event — an instant that went
    /// back — or no lane is free (`None`: the calendar takes it).
    #[inline]
    fn lane_for(&mut self, delay: u64, at: SimTime) -> Option<usize> {
        let lane = match self.delays.iter().position(|&d| d == delay) {
            Some(lane) => lane,
            None if self.delays.len() < MAX_LANES => {
                self.delays.push(delay);
                self.queues.push(VecDeque::new());
                self.delays.len() - 1
            }
            None => return None,
        };
        match self.queues[lane].back() {
            Some(last) if last.time > at => None,
            _ => Some(lane),
        }
    }

    #[inline]
    fn push(&mut self, lane: usize, event: ScheduledEvent) {
        self.queues[lane].push_back(event);
        self.len += 1;
    }

    /// The earliest time at the lanes' fronts, with every lane whose front
    /// is at that time in `fronts`.
    #[inline]
    fn earliest(&self, fronts: &mut Fronts) -> Option<SimTime> {
        fronts.len = 0;
        let mut earliest: Option<SimTime> = None;
        for (lane, queue) in self.queues.iter().enumerate() {
            let Some(e) = queue.front() else { continue };
            if earliest.is_none_or(|time| e.time < time) {
                earliest = Some(e.time);
                fronts.len = 0;
            }
            if earliest == Some(e.time) {
                fronts.keys[fronts.len] = (e.seq, lane);
                fronts.len += 1;
            }
        }
        earliest
    }

    /// Remove lane `lane`'s front event.
    #[inline]
    fn pop(&mut self, lane: usize) -> (SimTime, Event) {
        let e = self.queues[lane]
            .pop_front()
            .expect("only a lane with a front event is popped");
        self.len -= 1;
        (e.time, e.event)
    }

    /// Move every event at `time` — of the lanes in `fronts`, which
    /// [`DelayLanes::earliest`] found at `time`, and of `calendar`, a run at
    /// `time` in `seq` order — to `out`, merged by `seq`.
    #[inline]
    fn merge_at(
        &mut self,
        time: SimTime,
        fronts: &mut Fronts,
        calendar: impl Iterator<Item = (u64, Event)>,
        out: &mut Vec<Event>,
    ) {
        let mut calendar = calendar.peekable();
        loop {
            let Some(at) = (0..fronts.len).min_by_key(|&at| fronts.keys[at]) else {
                out.extend(calendar.map(|(_, event)| event));
                return;
            };
            let (seq, lane) = fronts.keys[at];
            if calendar.peek().is_some_and(|&(first, _)| first < seq) {
                out.extend(calendar.next().map(|(_, event)| event));
                continue;
            }
            out.push(self.pop(lane).1);
            match self.queues[lane].front() {
                Some(next) if next.time == time => fronts.keys[at].0 = next.seq,
                _ => {
                    fronts.len -= 1;
                    fronts.keys[at] = fronts.keys[fronts.len];
                }
            }
        }
    }
}

/// The injections of one batch not filed yet: a cursor over frames
/// `next..end`, whose seqs were reserved in a block.  The cursor's frames
/// are those of the batch not earlier than any frame before them, so it
/// runs in time order; a frame whose time goes back below the cursor's tail
/// was filed at once ([`EventQueue::defer`]) and is stepped over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Deferred {
    /// The `(time, seq)` of frame `next`.
    head: (SimTime, u64),
    next: u64,
    end: u64,
}

impl Deferred {
    /// The cursor past its head: at the next frame not earlier than the
    /// head (those between were filed at `defer`), or `None` at the end.
    fn step(self, injection: Injection<'_>) -> Option<Deferred> {
        let (tail, seq) = self.head;
        (self.next + 1..self.end)
            .zip(seq + 1..)
            .find_map(|(next, seq)| {
                let (at, _) = injection(FrameId::new(next));
                (at >= tail).then_some(Deferred {
                    head: (at, seq),
                    next,
                    end: self.end,
                })
            })
    }
}

/// A deferred injection's time and event, read off the frame table.
pub(crate) type Injection<'a> = &'a dyn Fn(FrameId) -> (SimTime, Event);

/// The lookup of a queue that never deferred anything.
fn nothing_deferred(frame: FrameId) -> (SimTime, Event) {
    unreachable!("frame {frame:?} deferred, but its injections are not reachable here")
}

/// The `(seq, lane)` of the lanes whose front events share the earliest
/// time.
#[derive(Debug, Default)]
struct Fronts {
    keys: [(u64, usize); MAX_LANES],
    len: usize,
}

impl Fronts {
    /// The front with the least `seq`: the lanes' `(time, seq)` minimum.
    #[inline]
    fn first(&self) -> Option<(u64, usize)> {
        self.keys[..self.len].iter().copied().min()
    }
}

/// The reference beside the calendar (debug builds only).
#[cfg(debug_assertions)]
#[derive(Debug, Default)]
struct Shadow {
    heap: HeapScheduler,
    /// Reusable scratch for the reference's same-time runs.
    run: Vec<Event>,
}

#[cfg(debug_assertions)]
impl Shadow {
    /// The reference must pop what the calendar popped, or refuse with it.
    fn check_pop(&mut self, limit: SimTime, calendar: Option<&(SimTime, Event)>) {
        let heap = self.heap.pop_at_or_before(limit);
        if heap.as_ref() != calendar {
            let at = calendar.or(heap.as_ref()).map(|(time, _)| *time);
            diverged(at, calendar.map(|(_, e)| e), heap.as_ref().map(|(_, e)| e));
        }
    }

    /// The reference must drain the run the calendar drained, or refuse
    /// with it.
    fn check_run(&mut self, limit: SimTime, time: Option<SimTime>, calendar: &[Event]) {
        self.run.clear();
        let heap_time = self.heap.pop_run_at_or_before(limit, &mut self.run);
        if heap_time != time || self.run != calendar {
            let first = self
                .run
                .iter()
                .zip(calendar)
                .take_while(|(h, c)| h == c)
                .count();
            diverged(time.or(heap_time), calendar.get(first), self.run.get(first));
        }
    }
}

#[cfg(debug_assertions)]
#[cold]
fn diverged(at: Option<SimTime>, calendar: Option<&Event>, heap: Option<&Event>) -> ! {
    let at = at.expect("a divergence has an event on at least one side");
    panic!(
        "the calendar diverged from the reference heap at {at}: \
         the calendar popped {calendar:?}, the heap popped {heap:?}"
    )
}

impl EventQueue {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current simulation time (the time of the last event popped).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events, the deferred injections included.
    pub fn len(&self) -> usize {
        self.scheduler.len() + self.lanes.len + self.deferred_len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The next `seq`, with the event fed to the debug-build reference.
    #[inline]
    fn take_seq(&mut self, _at: SimTime, _event: &Event) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        #[cfg(debug_assertions)]
        self.shadow.heap.push(_at, seq, _event.clone());
        seq
    }

    /// Hand out `count` consecutive seqs for [`EventQueue::schedule_reserved`]
    /// and return the first: exactly the seqs the next `count` schedules
    /// would have taken.  `None` if the seq space cannot hold them.
    pub fn reserve(&mut self, count: u64) -> Option<u64> {
        let first = self.next_seq;
        self.next_seq = first.checked_add(count)?;
        Some(first)
    }

    /// [`EventQueue::schedule`] under a seq handed out by
    /// [`EventQueue::reserve`]: the event pops where it would have, had it
    /// been scheduled when the seq was reserved, provided its key `(at,
    /// seq)` is later than the last pop's (debug builds assert it).  Filed
    /// into the calendar; same clamp and return value as `schedule`.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: Event) -> bool {
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        debug_assert!(
            at >= self.now,
            "event filed in the past: {at} < {} ({event:?})",
            self.now
        );
        let clamped = at < self.now;
        let at = at.max(self.now);
        #[cfg(debug_assertions)]
        self.shadow.heap.push(at, seq, event.clone());
        self.calendar_bound = self.calendar_bound.min((at, seq));
        self.scheduler.push(at, seq, event);
        clamped
    }

    /// Schedule `event` at absolute time `at`.  Scheduling in the past is a
    /// programming error and panics in debug builds; in release builds the
    /// event is clamped to `now` so the simulation stays causally ordered,
    /// and the clamp is reported (returns `true`) so the caller can count
    /// it — the simulator folds this into `SimStats::clamped_events`, where
    /// the bug cannot hide.
    pub fn schedule(&mut self, at: SimTime, event: Event) -> bool {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {} ({event:?})",
            self.now
        );
        let clamped = at < self.now;
        let at = at.max(self.now);
        let seq = self.take_seq(at, &event);
        self.calendar_bound = self.calendar_bound.min((at, seq));
        self.scheduler.push(at, seq, event);
        clamped
    }

    /// The calendar's minimal `(time, seq)` if its time is at or before
    /// `limit`, read from the bound when that settles it.
    #[inline]
    fn calendar_head(&mut self, limit: SimTime) -> Option<(SimTime, u64)> {
        if self.calendar_bound.0 > limit {
            return None;
        }
        let head = self.scheduler.peek_key(limit);
        self.calendar_bound = head.unwrap_or_else(|bound| bound);
        head.ok()
    }

    /// Take the injections of frames `frames`, whose seqs `first_seq..` were
    /// reserved in a block ([`EventQueue::reserve`]), without filing them:
    /// one cursor holds the frames not earlier than any before them, and
    /// each is filed just before its instant pops.  A frame whose time goes
    /// back below the cursor's tail is filed now.  `injection` gives a
    /// frame's time, which must not lie in the past, and its event.
    pub(crate) fn defer(
        &mut self,
        frames: Range<FrameId>,
        first_seq: u64,
        injection: Injection<'_>,
    ) {
        let (start, end) = (frames.start.get(), frames.end.get());
        let mut head = None;
        let mut tail = SimTime::ZERO;
        for (frame, seq) in (start..end).zip(first_seq..) {
            let (at, event) = injection(FrameId::new(frame));
            if at < tail {
                self.schedule_reserved(at, seq, event);
                continue;
            }
            head.get_or_insert(Deferred {
                head: (at, seq),
                next: frame,
                end,
            });
            tail = at;
            self.deferred_len += 1;
        }
        self.deferred.extend(head.map(Reverse));
    }

    /// The time of the earliest deferred injection.
    #[inline]
    fn deferred_time(&self) -> Option<SimTime> {
        self.deferred.peek().map(|Reverse(d)| d.head.0)
    }

    /// File every deferred injection at `time`, the earliest instant of the
    /// deferred batches, under its reserved seq; returns the least key filed.
    fn file_deferred(&mut self, time: SimTime, injection: Injection<'_>) -> (SimTime, u64) {
        let Some(&Reverse(Deferred { head: least, .. })) = self.deferred.peek() else {
            unreachable!("an injection is due at {time}")
        };
        while let Some(&Reverse(batch)) = self.deferred.peek().filter(|b| b.0.head.0 == time) {
            self.deferred.pop();
            let mut cursor = Some(batch);
            while let Some(batch) = cursor.filter(|b| b.head.0 == time) {
                let (at, seq) = batch.head;
                self.schedule_reserved(at, seq, injection(FrameId::new(batch.next)).1);
                self.deferred_len -= 1;
                cursor = batch.step(injection);
            }
            self.deferred.extend(cursor.map(Reverse));
        }
        least
    }

    /// [`EventQueue::calendar_head`], with the deferred injections of the
    /// earliest instant filed first if that instant comes no later than the
    /// calendar's minimum and `limit`: the instant pops next unless a lane
    /// head precedes it, so its injections join the calendar now.
    #[inline]
    fn calendar_head_filing(
        &mut self,
        limit: SimTime,
        injection: Injection<'_>,
    ) -> Option<(SimTime, u64)> {
        let Some(due) = self.deferred_time().filter(|&time| time <= limit) else {
            return self.calendar_head(limit);
        };
        match self.calendar_head(due) {
            Some(head) if head.0 < due => Some(head),
            head => {
                let filed = self.file_deferred(due, injection);
                Some(head.map_or(filed, |head| head.min(filed)))
            }
        }
    }

    /// Schedule `event` `delay` after the instant `from` (the time of the
    /// event being handled), in the FIFO lane of `delay`.  Same contract
    /// and return value as [`EventQueue::schedule`], which it falls back on
    /// when no lane can take the event.
    #[inline]
    pub(crate) fn schedule_after(&mut self, from: SimTime, delay: Duration, event: Event) -> bool {
        let time = from + delay;
        let lane = match self.lanes.lane_for(delay.as_nanos(), time) {
            Some(lane) if time >= self.now => lane,
            _ => return self.schedule(time, event),
        };
        let seq = self.take_seq(time, &event);
        self.lanes.push(lane, ScheduledEvent { time, seq, event });
        false
    }

    /// The time of the next event without removing it, a deferred
    /// injection's included.
    pub fn peek_time(&self) -> Option<SimTime> {
        let lane = self.lanes.earliest(&mut Fronts::default());
        [lane, self.scheduler.peek_time(), self.deferred_time()]
            .into_iter()
            .flatten()
            .min()
    }

    /// Pop the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_until(SimTime::MAX)
    }

    /// Pop the next event only if it is scheduled at or before `limit` (one
    /// min search: the calendar's peek is not O(1)).
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, Event)> {
        self.pop_until_filing(limit, &nothing_deferred)
    }

    /// [`EventQueue::pop_until`] on a queue that may hold deferred
    /// injections, read through `injection`.
    pub(crate) fn pop_until_filing(
        &mut self,
        limit: SimTime,
        injection: Injection<'_>,
    ) -> Option<(SimTime, Event)> {
        let lane = self
            .lanes
            .earliest(&mut self.fronts)
            .filter(|&time| time <= limit);
        // The calendar is asked only about what could precede the lanes.
        let calendar_limit = lane.unwrap_or(limit);
        let first = lane.zip(self.fronts.first());
        let popped = match (first, self.calendar_head_filing(calendar_limit, injection)) {
            (Some((time, (seq, lane))), calendar)
                if calendar.is_none_or(|key| (time, seq) < key) =>
            {
                Some(self.lanes.pop(lane))
            }
            (_, Some(_)) => self.scheduler.pop_at_or_before(calendar_limit),
            (_, None) => None,
        };
        #[cfg(debug_assertions)]
        self.shadow.check_pop(limit, popped.as_ref());
        let (time, event) = popped?;
        self.now = time;
        self.processed += 1;
        Some((time, event))
    }

    /// [`EventQueue::pop_run_until_filing`] on a queue that never deferred
    /// anything.
    #[cfg(test)]
    pub(crate) fn pop_run_until(
        &mut self,
        limit: SimTime,
        out: &mut Vec<Event>,
    ) -> Option<SimTime> {
        self.pop_run_until_filing(limit, out, &nothing_deferred)
    }

    /// Drain the whole run of events at the minimal pending time into
    /// `out` (cleared first; FIFO order), advancing the clock to that time,
    /// if that time is at or before `limit`.  One min search per *instant*
    /// instead of per event.  The deferred injections of the instant,
    /// read through `injection`, are filed just before it pops, so the run
    /// holds them in `seq` order.
    pub(crate) fn pop_run_until_filing(
        &mut self,
        limit: SimTime,
        out: &mut Vec<Event>,
        injection: Injection<'_>,
    ) -> Option<SimTime> {
        out.clear();
        let time = self.drain_run(limit, out, injection);
        #[cfg(debug_assertions)]
        self.shadow.check_run(limit, time, out);
        let time = time?;
        self.now = time;
        self.processed += out.len() as u64;
        Some(time)
    }

    /// The run of [`EventQueue::pop_run_until_filing`], from whichever sources hold
    /// it: the calendar alone hands its run over as it is, lanes are merged
    /// by `seq` with each other and with the calendar.
    #[inline]
    fn drain_run(
        &mut self,
        limit: SimTime,
        out: &mut Vec<Event>,
        injection: Injection<'_>,
    ) -> Option<SimTime> {
        let lane = self
            .lanes
            .earliest(&mut self.fronts)
            .filter(|&time| time <= limit);
        let calendar = self
            .calendar_head_filing(lane.unwrap_or(limit), injection)
            .map(|(time, _)| time);
        let time = match (lane, calendar) {
            (Some(lane), Some(calendar)) => lane.min(calendar),
            (lane, calendar) => lane.or(calendar)?,
        };
        if calendar != Some(time) {
            self.lanes
                .merge_at(time, &mut self.fronts, std::iter::empty(), out);
        } else if lane != Some(time) {
            self.scheduler.pop_run_at_or_before(time, out);
        } else {
            let mut merge = std::mem::take(&mut self.merge);
            self.scheduler.pop_run_keyed(time, &mut merge);
            self.lanes
                .merge_at(time, &mut self.fronts, merge.drain(..), out);
            self.merge = merge;
        }
        Some(time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_types::rng::Xoshiro256;

    fn ev(node: u32, frame: u64) -> Event {
        Event::EnqueueAtNode {
            node: NodeId::new(node),
            frame: FrameId::new(frame),
        }
    }

    /// The reference heap and the calendar, fed the same pushes: every pop
    /// flavour asserts that the two agree before handing back what they
    /// yielded.  The schedulers are driven directly — no [`EventQueue`]
    /// between them — so the comparison holds in release builds, where the
    /// queue carries no shadow.
    #[derive(Default)]
    struct Pair {
        heap: HeapScheduler,
        cal: CalendarScheduler,
        seq: u64,
        now: SimTime,
        heap_run: Vec<Event>,
        /// Prefixed to every assertion message (the seed of a property run).
        context: String,
    }

    impl Pair {
        fn schedule(&mut self, at: SimTime, event: Event) {
            self.heap.push(at, self.seq, event.clone());
            self.cal.push(at, self.seq, event);
            self.seq += 1;
        }

        /// Both popped the same, and agree on what is left.
        fn settle<T: PartialEq + std::fmt::Debug>(&self, heap: T, cal: T) -> T {
            let context = &self.context;
            assert_eq!(heap, cal, "{context}: the calendar diverged from the heap");
            assert_eq!(
                self.heap.peek_time(),
                self.cal.peek_time(),
                "{context}: peek diverged"
            );
            assert_eq!(
                self.heap.len(),
                self.cal.len(),
                "{context}: populations diverged"
            );
            cal
        }

        fn pop(&mut self) -> Option<(SimTime, Event)> {
            self.pop_until(SimTime::MAX)
        }

        fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, Event)> {
            let heap = self.heap.pop_at_or_before(limit);
            let cal = self.cal.pop_at_or_before(limit);
            let popped = self.settle(heap, cal);
            self.now = popped.as_ref().map_or(self.now, |&(time, _)| time);
            popped
        }

        fn pop_run(&mut self, out: &mut Vec<Event>) -> Option<SimTime> {
            self.pop_run_until(SimTime::MAX, out)
        }

        fn pop_run_until(&mut self, limit: SimTime, out: &mut Vec<Event>) -> Option<SimTime> {
            out.clear();
            let mut heap_run = std::mem::take(&mut self.heap_run);
            heap_run.clear();
            let heap = self.heap.pop_run_at_or_before(limit, &mut heap_run);
            let cal = self.cal.pop_run_at_or_before(limit, out);
            let (time, _) = self.settle((heap, &heap_run), (cal, out));
            self.heap_run = heap_run;
            self.now = time.unwrap_or(self.now);
            time
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), ev(3, 3));
        q.schedule(SimTime::from_nanos(10), ev(1, 1));
        q.schedule(SimTime::from_nanos(20), ev(2, 2));
        assert_eq!(q.len(), 3);
        let (t1, e1) = q.pop().unwrap();
        assert_eq!(t1, SimTime::from_nanos(10));
        assert_eq!(e1, ev(1, 1));
        assert_eq!(q.now(), SimTime::from_nanos(10));
        assert_eq!(q.pop().unwrap().0, SimTime::from_nanos(20));
        assert_eq!(q.pop().unwrap().0, SimTime::from_nanos(30));
        assert!(q.pop().is_none());
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            q.schedule(t, ev(i, i as u64));
        }
        for i in 0..10 {
            let (_, e) = q.pop().unwrap();
            assert_eq!(e, ev(i, i as u64), "event {i} out of order");
        }
    }

    #[test]
    fn pop_until_respects_limit() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), ev(1, 1));
        q.schedule(SimTime::from_nanos(200), ev(2, 2));
        assert!(q.pop_until(SimTime::from_nanos(50)).is_none());
        assert!(q.pop_until(SimTime::from_nanos(100)).is_some());
        assert!(q.pop_until(SimTime::from_nanos(150)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), ev(1, 1));
        q.pop();
        q.schedule(SimTime::from_nanos(50), ev(2, 2));
    }

    /// In release builds the past-time clamp is counted instead of
    /// panicking (debug builds assert, so this can only run there).
    #[test]
    #[cfg(not(debug_assertions))]
    fn clamped_events_are_counted_in_release() {
        let mut q = EventQueue::new();
        assert!(!q.schedule(SimTime::from_nanos(100), ev(1, 1)));
        q.pop();
        assert!(q.schedule(SimTime::from_nanos(50), ev(2, 2)));
        // The clamped event runs at `now`, keeping causal order.
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(100));
    }

    #[test]
    fn clock_is_monotone() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ev(1, 1));
        q.schedule(SimTime::from_nanos(10), ev(2, 2));
        q.schedule(SimTime::from_nanos(40), ev(3, 3));
        let mut prev = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= prev);
            prev = t;
        }
    }

    // --- the debug-build shadow -------------------------------------------

    /// The shadow is not decoration: with one event in the reference that
    /// the calendar never saw, the very next pop panics and says where.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "diverged from the reference heap at 100ns: the calendar popped \
                    Some(EnqueueAtNode { node: NodeId(1), frame: FrameId(1) }), the heap popped \
                    Some(EnqueueAtNode { node: NodeId(9), frame: FrameId(9) })"
    )]
    fn a_desynchronised_shadow_panics_on_the_next_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), ev(1, 1));
        q.shadow
            .heap
            .push(SimTime::from_nanos(50), u64::MAX, ev(9, 9));
        q.pop();
    }

    /// The run flavours are checked too: two equal-time events swapped in
    /// the reference (the FIFO rule broken on one side) fail the drain.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "diverged from the reference heap at")]
    fn a_shadow_that_breaks_fifo_panics_on_the_next_run() {
        let mut q = EventQueue::new();
        let at = SimTime::from_nanos(100);
        q.scheduler.push(at, 0, ev(1, 1));
        q.scheduler.push(at, 1, ev(2, 2));
        q.shadow.heap.push(at, 1, ev(1, 1));
        q.shadow.heap.push(at, 0, ev(2, 2));
        q.pop_run_until(SimTime::MAX, &mut Vec::new());
    }

    // --- calendar-specific behaviour -------------------------------------

    /// Deterministic pseudo-random times without external crates.
    fn scramble(k: u64) -> u64 {
        k.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
    }

    #[test]
    fn calendar_matches_heap_on_a_large_scrambled_workload() {
        let mut pair = Pair::default();
        // Mixed phases: bulk pre-load, then interleaved push/pop with times
        // clustered at several scales (including exact ties).
        for k in 0..5_000u64 {
            pair.schedule(SimTime::from_nanos(scramble(k) % 10_000_000), ev(0, k));
        }
        let mut seq = 5_000u64;
        for round in 0..5_000u64 {
            let (now, _) = pair.pop().unwrap();
            // Re-schedule a couple of follow-ups relative to `now`,
            // including same-instant ties and far-future spikes.
            for offset in [0u64, 1, 777, 123_456, 500_000_000] {
                let t = now + rt_types::Duration::from_nanos(offset + scramble(round) % 9_999);
                pair.schedule(t, ev(1, seq));
                seq += 1;
            }
        }
        while pair.pop().is_some() {}
    }

    #[test]
    fn calendar_resizes_under_load() {
        let mut cal = CalendarScheduler::new();
        assert_eq!(cal.bucket_count(), MIN_BUCKETS);
        for k in 0..10_000u64 {
            cal.push(SimTime::from_nanos(k * 1000), k, ev(0, k));
        }
        assert!(cal.resizes() > 0, "10k events must trigger growth");
        assert!(
            cal.bucket_count() >= 10_000 / (2 * TARGET_OCCUPANCY),
            "bucket count {} must track the population",
            cal.bucket_count()
        );
        // Drain; shrink back towards the floor.
        let mut prev = SimTime::ZERO;
        for _ in 0..10_000 {
            let (t, _) = cal.pop().unwrap();
            assert!(t >= prev);
            prev = t;
        }
        assert!(cal.pop().is_none());
        assert_eq!(cal.bucket_count(), MIN_BUCKETS, "drained queue shrinks");
    }

    #[test]
    fn calendar_far_future_events_go_to_overflow_and_come_back_ordered() {
        let mut cal = CalendarScheduler::new();
        // A cluster now, plus far-future stragglers years of bucket-time
        // away.
        for k in 0..50u64 {
            cal.push(SimTime::from_nanos(k * 100), k, ev(0, k));
        }
        for k in 0..50u64 {
            cal.push(SimTime::from_secs(3600 + k), 50 + k, ev(1, 50 + k));
        }
        assert!(
            cal.overflow_len() > 0,
            "hour-away events must be parked in overflow"
        );
        // peek_time never reports an overflow event while nearer ones wait.
        assert_eq!(cal.peek_time(), Some(SimTime::ZERO));
        let mut prev = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = cal.pop() {
            assert!(t >= prev, "overflow migration broke the order");
            prev = t;
            popped += 1;
        }
        assert_eq!(popped, 100);
        assert_eq!(cal.overflow_len(), 0);
    }

    /// Regression: a growth resize while *only* far-future events are
    /// pending must not advance the year anchor past the push floor — a
    /// later, perfectly legal near-time push (time >= now) would otherwise
    /// be misfiled behind the far-future events (and trip a debug assert).
    #[test]
    fn calendar_resize_keeps_the_anchor_at_the_push_floor() {
        for variant in ["fresh", "after_pop"] {
            let mut pair = Pair::default();
            if variant == "after_pop" {
                // Advance the clock a little first so floor > 0.
                pair.schedule(SimTime::from_nanos(500), ev(9, 999));
                pair.pop();
            }
            // Enough hour-away events to trigger the growth resize while
            // nothing near-time is pending.
            for k in 0..40u64 {
                let t = SimTime::from_secs(3600) + rt_types::Duration::from_nanos(k * 100);
                pair.schedule(t, ev(0, k));
            }
            // A legal near-time event must still come out first.
            pair.schedule(SimTime::from_micros(1), ev(1, 40));
            let mut prev = SimTime::ZERO;
            while let Some((t, _)) = pair.pop() {
                assert!(t >= prev, "clock ran backwards ({variant})");
                prev = t;
            }
        }
    }

    /// Regression: `pop_until` with only far-future events pending must
    /// refuse *without* migrating the calendar's year forward — a later
    /// near-time push (legal: time >= now) would otherwise land in a
    /// "past year".  This is the windowed `run_until` / `run_with_source`
    /// sequence.
    #[test]
    fn calendar_refused_pop_until_does_not_break_later_near_pushes() {
        let mut pair = Pair::default();
        for k in 0..40u64 {
            pair.schedule(SimTime::from_secs(3600 + k), ev(0, k));
        }
        // A windowed probe far below the pending minimum refuses...
        assert!(pair.pop_until(SimTime::from_millis(1)).is_none());
        // ...and a near-time push afterwards must still order first.
        pair.schedule(SimTime::from_micros(7), ev(1, 40));
        assert_eq!(pair.pop(), Some((SimTime::from_micros(7), ev(1, 40))));
        while pair.pop().is_some() {}
    }

    /// Regression: a refused probe may *load* the bucket it stops at into
    /// the ordered bucket (here 200 events at one instant) and leaves the
    /// cursor on it.  A push that then lands behind that bucket — legal,
    /// its time is not before `now` — must still come out first, `peek_time`
    /// must see it, and the year anchor must not have moved.
    #[test]
    fn calendar_push_behind_a_loaded_bucket_after_a_refusal_is_found_first() {
        for refuse_with_run in [false, true] {
            let mut cal = CalendarScheduler::new();
            let mut heap = HeapScheduler::new();
            let flood = SimTime::from_millis(1);
            let mut seq = 0u64;
            let mut push = |cal: &mut CalendarScheduler, heap: &mut HeapScheduler, at: SimTime| {
                cal.push(at, seq, ev(0, seq));
                heap.push(at, seq, ev(0, seq));
                seq += 1;
            };
            for k in 0..200u64 {
                push(&mut cal, &mut heap, flood);
                if k % 50 == 0 {
                    let later = flood + rt_types::Duration::from_nanos(1 + k);
                    push(&mut cal, &mut heap, later);
                }
            }
            let year = cal.current_year;
            let limit = SimTime::from_micros(900);
            let mut out = Vec::new();
            if refuse_with_run {
                assert_eq!(cal.pop_run_at_or_before(limit, &mut out), None);
                assert_eq!(heap.pop_run_at_or_before(limit, &mut out), None);
            } else {
                assert_eq!(cal.pop_at_or_before(limit), None);
                assert_eq!(heap.pop_at_or_before(limit), None);
            }
            assert!(out.is_empty());
            assert_eq!(cal.active.len(), 204, "the probe ordered the bucket");
            assert_eq!(cal.current_year, year, "a refusal never moves the year");
            assert_eq!(cal.peek_time(), Some(flood));
            // Behind the loaded bucket, inside it ahead of the flood, inside
            // it among the flood, and beyond it.
            for at in [5_000u64, 999_999, 1_000_000, 1_000_030, 3_000_000] {
                push(&mut cal, &mut heap, SimTime::from_nanos(at));
            }
            assert_eq!(cal.peek_time(), Some(SimTime::from_nanos(5_000)));
            // A second refusal, now below the pushed minimum, changes nothing.
            assert_eq!(cal.pop_at_or_before(SimTime::from_nanos(4_999)), None);
            assert_eq!(cal.len(), heap.len());
            loop {
                let (c, h) = (cal.pop(), heap.pop());
                assert_eq!(c, h, "calendar diverged after a push behind the cursor");
                if c.is_none() {
                    break;
                }
            }
        }
    }

    /// Regression, shrink-path variant: draining a large near-time
    /// population down to a far-future remainder triggers shrink resizes;
    /// a near-time push right after a pop must still order correctly.
    #[test]
    fn calendar_shrink_resize_keeps_the_anchor_at_the_push_floor() {
        let mut pair = Pair::default();
        for k in 0..2_000u64 {
            pair.schedule(SimTime::from_nanos(k * 50), ev(0, k));
        }
        for k in 0..20u64 {
            pair.schedule(SimTime::from_secs(100 + k), ev(1, 2_000 + k));
        }
        // Drain the near population (forcing shrink resizes while the
        // far-future tail remains), pushing a fresh near event every so
        // often.
        let mut seq = 3_000u64;
        let mut prev = SimTime::ZERO;
        while let Some((t, _)) = pair.pop() {
            assert!(t >= prev);
            prev = t;
            if seq < 3_200 && t < SimTime::from_secs(1) {
                pair.schedule(t + rt_types::Duration::from_nanos(25), ev(2, seq));
                seq += 1;
            }
        }
    }

    #[test]
    fn pop_run_drains_whole_same_time_runs_in_fifo_order() {
        let mut q = EventQueue::new();
        // Three instants: a 5-event run, a singleton, a 3-event run.
        for i in 0..5u64 {
            q.schedule(SimTime::from_micros(10), ev(0, i));
        }
        q.schedule(SimTime::from_micros(20), ev(1, 100));
        for i in 0..3u64 {
            q.schedule(SimTime::from_micros(30), ev(2, 200 + i));
        }
        let mut out = Vec::new();
        let t = q.pop_run_until(SimTime::MAX, &mut out).unwrap();
        assert_eq!(t, SimTime::from_micros(10));
        assert_eq!(q.now(), t);
        assert_eq!(
            out,
            (0..5).map(|i| ev(0, i)).collect::<Vec<_>>(),
            "first run must be complete and FIFO"
        );
        assert_eq!(
            q.pop_run_until(SimTime::MAX, &mut out),
            Some(SimTime::from_micros(20))
        );
        assert_eq!(out, vec![ev(1, 100)]);
        assert_eq!(
            q.pop_run_until(SimTime::MAX, &mut out),
            Some(SimTime::from_micros(30))
        );
        assert_eq!(out.len(), 3);
        assert_eq!(q.pop_run_until(SimTime::MAX, &mut out), None);
        assert!(out.is_empty(), "a refused pop_run leaves out cleared");
        assert_eq!(q.processed(), 9);
    }

    #[test]
    fn pop_run_until_respects_the_window() {
        let mut q = EventQueue::new();
        for i in 0..4u64 {
            q.schedule(SimTime::from_nanos(100), ev(0, i));
        }
        q.schedule(SimTime::from_nanos(200), ev(1, 10));
        let mut out = Vec::new();
        assert_eq!(q.pop_run_until(SimTime::from_nanos(50), &mut out), None);
        assert_eq!(q.len(), 5, "a refused window drains nothing");
        assert_eq!(
            q.pop_run_until(SimTime::from_nanos(100), &mut out),
            Some(SimTime::from_nanos(100))
        );
        assert_eq!(out.len(), 4);
        assert_eq!(q.pop_run_until(SimTime::from_nanos(150), &mut out), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_run_matches_single_pops_on_a_scrambled_workload() {
        // The batched drain must yield the exact single-pop sequence on
        // both schedulers, including follow-up pushes landing in the run
        // that was just drained ("same-instant" ties are legal re-pushes).
        let mut single = HeapScheduler::new();
        let mut runs = Pair::default();
        // Clustered times with many exact ties (only 500 distinct instants
        // for 2000 events).
        for k in 0..2_000u64 {
            let t = SimTime::from_nanos((scramble(k) % 500) * 1_000);
            single.push(t, k, ev(0, k));
            runs.schedule(t, ev(0, k));
        }
        let mut seq = 2_000u64;
        let mut out = Vec::new();
        while let Some(t) = runs.pop_run(&mut out) {
            for e in &out {
                let (st, se) = single.pop().unwrap();
                assert_eq!((st, &se), (t, e), "batched drain diverged from single pops");
            }
            if seq < 2_400 {
                for offset in [0u64, 0, 3_000] {
                    let at = t + rt_types::Duration::from_nanos(offset);
                    single.push(at, seq, ev(1, seq));
                    runs.schedule(at, ev(1, seq));
                    seq += 1;
                }
            }
        }
        assert!(single.pop().is_none());
    }

    #[test]
    fn calendar_identical_times_preserve_fifo_across_resizes() {
        let mut cal = CalendarScheduler::new();
        let t = SimTime::from_micros(123);
        for k in 0..1000u64 {
            cal.push(t, k, ev(0, k));
        }
        for k in 0..1000u64 {
            let (pt, e) = cal.pop().unwrap();
            assert_eq!(pt, t);
            assert_eq!(e, ev(0, k), "FIFO broken at {k}");
        }
    }

    #[test]
    fn calendar_empty_year_gaps_are_skipped() {
        let mut cal = CalendarScheduler::new();
        // Three events in three distant years.
        cal.push(SimTime::from_nanos(5), 0, ev(0, 0));
        cal.push(SimTime::from_secs(10), 1, ev(0, 1));
        cal.push(SimTime::from_secs(20), 2, ev(0, 2));
        assert_eq!(cal.pop().unwrap().0, SimTime::from_nanos(5));
        assert_eq!(cal.pop().unwrap().0, SimTime::from_secs(10));
        assert_eq!(cal.pop().unwrap().0, SimTime::from_secs(20));
        assert!(cal.pop().is_none());
        assert!(cal.peek_time().is_none());
    }

    // --- skew and flood: by count, not by clock --------------------------

    /// Seeds of the calendar and lane properties: `RT_ADVERSARIAL_SEEDS`,
    /// else 4 in a debug build (where the queue's own shadow heap doubles
    /// every push) and 32 in a release build.  CI runs all 32 in release.
    fn skew_seeds() -> u64 {
        std::env::var("RT_ADVERSARIAL_SEEDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(if cfg!(debug_assertions) { 4 } else { 32 })
    }

    /// The bimodal hold model — the shape of `send_periodic` on the wire: a
    /// far-future periodic population preloaded channel by channel (100
    /// messages each, periods of 1–10 ms, every channel starting at the
    /// same instant), and under it cascades of near-future events a few
    /// hundred nanoseconds ahead of `now` (every popped event of generation
    /// < 3 schedules a successor).  The common start is what blinds the
    /// resize: the nearest pending times are all one instant, a zero gap,
    /// and the width stays where the first channel alone had put it.
    fn preload_bimodal(rng: &mut Xoshiro256, far: u64, mut schedule: impl FnMut(SimTime, Event)) {
        for channel in 0..far / 100 {
            let period = 1_000_000 + rng.below(9_000_000);
            for message in 0..100 {
                let at = SimTime::from_nanos(1_000_000 + message * period);
                schedule(at, ev(0, channel * 100 + message));
            }
        }
    }

    fn cascade(rng: &mut Xoshiro256, now: SimTime, event: &Event) -> Option<(SimTime, Event)> {
        let Event::EnqueueAtNode { node, frame } = event else {
            return None;
        };
        let generation = node.get();
        (generation < 3).then(|| {
            let ahead = rt_types::Duration::from_nanos(100 + rng.below(800));
            (now + ahead, ev(generation + 1, frame.get()))
        })
    }

    /// The seeds of the bimodal hold model, popped through a random mix of
    /// `pop` / `pop_until` / `pop_run` / `pop_run_until` (refused windows
    /// included): heap and calendar yield the identical `(time, event)`
    /// sequence.
    #[test]
    fn skewed_bimodal_hold_model_matches_the_heap_on_every_pop_flavour() {
        for seed in 0..skew_seeds() {
            let mut rng = Xoshiro256::new(0x5ca1_ab1e ^ seed);
            let mut pair = Pair {
                context: format!("seed {seed}"),
                ..Pair::default()
            };
            let far = 10_000 + (seed % 4) * 30_000;
            preload_bimodal(&mut rng, far, |at, event| pair.schedule(at, event));
            let mut out = Vec::new();
            let mut popped = 0u64;
            while popped < 40_000 && !pair.heap.is_empty() {
                // A window that ends a little ahead of `now`: sometimes
                // past the next event, often (between cascades) before it.
                let limit = pair.now + rt_types::Duration::from_nanos(rng.below(40_000));
                // A single pop reads as a run of one.
                let single = |popped: Option<(SimTime, Event)>, out: &mut Vec<Event>| {
                    out.clear();
                    popped.map(|(time, event)| {
                        out.push(event);
                        time
                    })
                };
                let now = match rng.below(4) {
                    0 => single(pair.pop(), &mut out),
                    1 => single(pair.pop_until(limit), &mut out),
                    2 => pair.pop_run(&mut out),
                    _ => pair.pop_run_until(limit, &mut out),
                };
                let Some(now) = now else { continue };
                popped += out.len() as u64;
                for event in &out {
                    if let Some((at, next)) = cascade(&mut rng, now, event) {
                        pair.schedule(at, next);
                    }
                }
            }
        }
    }

    /// The slab across its compaction point, on a skewed population (a near
    /// cluster, a flood at one instant, far stragglers): grown past
    /// [`SLAB_FLOOR`], drained to an eighth, refilled and drained to empty,
    /// with pushes at the floor in between, through every pop flavour.
    /// Every pop matches the heap;
    /// after every pop the slab's capacity is at most four times the live
    /// count or twice the floor; and a compaction comes only after as many
    /// pops as half the slab it cut, so a population hovering at the
    /// threshold cannot compact twice in a row.
    #[test]
    fn slab_compaction_under_skew_matches_the_heap_and_follows_the_population() {
        for seed in 0..skew_seeds() {
            let mut rng = Xoshiro256::new(0xc0_3ac7 ^ seed);
            let mut pair = Pair {
                context: format!("seed {seed}"),
                ..Pair::default()
            };
            let (mut out, mut frame) = (Vec::new(), 0u64);
            let (mut compactions, mut popped_since) = (0, 0);
            for last in [false, true] {
                let grow = 2 * SLAB_FLOOR as u64 + rng.below(SLAB_FLOOR as u64);
                for _ in 0..grow {
                    let ahead = match rng.below(10) {
                        0 => 1_000_000_000 + rng.below(1_000_000_000),
                        1..=4 => 1_000_000,
                        _ => rng.below(2_000_000),
                    };
                    let at = pair.now + rt_types::Duration::from_nanos(ahead);
                    pair.schedule(at, ev(0, frame));
                    frame += 1;
                }
                let stop = if last { 0 } else { pair.cal.len() / 8 };
                while pair.cal.len() > stop {
                    let (slab, resizes) = (pair.cal.slab.len(), pair.cal.resizes());
                    let limit = pair.now + rt_types::Duration::from_nanos(rng.below(50_000));
                    // Runs are rare, so that single pops reach into the
                    // flood and a compaction meets the ordered bucket.
                    popped_since += match rng.below(16) {
                        0 => pair.pop_run(&mut out).map_or(0, |_| out.len()),
                        1 => pair.pop_run_until(limit, &mut out).map_or(0, |_| out.len()),
                        2..=8 => usize::from(pair.pop().is_some()),
                        _ => usize::from(pair.pop_until(limit).is_some()),
                    };
                    let (live, capacity) = (pair.cal.len(), pair.cal.slab.capacity());
                    assert!(
                        capacity <= 4 * live || capacity <= 2 * SLAB_FLOOR,
                        "seed {seed}: a slab of {capacity} slots for {live} events"
                    );
                    if pair.cal.slab.len() < slab {
                        if pair.cal.resizes() == resizes {
                            compactions += 1;
                            assert!(
                                popped_since >= slab / 2,
                                "seed {seed}: {slab} slots compacted after {popped_since} pops"
                            );
                        }
                        popped_since = 0;
                    }
                    // A push at the floor: the earliest time still legal.
                    if rng.below(3) == 0 {
                        pair.schedule(pair.now, ev(1, frame));
                        frame += 1;
                    }
                }
            }
            assert!(compactions >= 2, "seed {seed}: {compactions} compactions");
            assert!(pair.cal.slab.capacity() <= 2 * SLAB_FLOOR);
        }
    }

    /// The queue — lanes and calendar — and the reference heap, fed the
    /// same events: the queue through `schedule_after` (lane events) and
    /// `schedule` (calendar events), the heap by absolute time.  Every pop
    /// flavour asserts that the two agree, with `peek_time` and `len`
    /// after it, so the comparison holds in release builds too.
    struct LanePair {
        queue: EventQueue,
        heap: HeapScheduler,
        seq: u64,
        heap_run: Vec<Event>,
        context: String,
    }

    impl LanePair {
        fn new(context: String) -> Self {
            LanePair {
                queue: EventQueue::new(),
                heap: HeapScheduler::new(),
                seq: 0,
                heap_run: Vec::new(),
                context,
            }
        }

        fn schedule(&mut self, at: SimTime, event: Event) {
            self.heap.push(at, self.seq, event.clone());
            self.queue.schedule(at, event);
            self.seq += 1;
        }

        fn schedule_after(&mut self, from: SimTime, delay: u64, event: Event) {
            let delay = rt_types::Duration::from_nanos(delay);
            self.heap.push(from + delay, self.seq, event.clone());
            self.queue.schedule_after(from, delay, event);
            self.seq += 1;
        }

        /// `count` seqs for later pushes, the heap's in step.
        fn reserve(&mut self, count: u64) -> u64 {
            let first = self.queue.reserve(count).expect("the seq space holds them");
            assert_eq!(first, self.seq, "{}: reserved the wrong seqs", self.context);
            self.seq += count;
            first
        }

        fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: Event) {
            self.heap.push(at, seq, event.clone());
            self.queue.schedule_reserved(at, seq, event);
        }

        fn settle<T: PartialEq + std::fmt::Debug>(&self, heap: T, queue: T) -> T {
            let context = &self.context;
            assert_eq!(heap, queue, "{context}: the lanes diverged from the heap");
            assert_eq!(
                self.heap.peek_time(),
                self.queue.peek_time(),
                "{context}: peek diverged"
            );
            assert_eq!(
                self.heap.len(),
                self.queue.len(),
                "{context}: populations diverged"
            );
            queue
        }

        fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, Event)> {
            let heap = self.heap.pop_at_or_before(limit);
            let queue = self.queue.pop_until(limit);
            self.settle(heap, queue)
        }

        fn pop_run_until(&mut self, limit: SimTime, out: &mut Vec<Event>) -> Option<SimTime> {
            let mut heap_run = std::mem::take(&mut self.heap_run);
            heap_run.clear();
            let heap = self.heap.pop_run_at_or_before(limit, &mut heap_run);
            let queue = self.queue.pop_run_until(limit, out);
            let (time, _) = self.settle((heap, &heap_run), (queue, out));
            self.heap_run = heap_run;
            time
        }
    }

    /// The delay lanes beside the calendar against the reference heap, in
    /// every pop flavour, on a cascade that makes each popped event
    /// schedule follow-ups: 20 distinct delays (so four overflow into the
    /// calendar), a zero delay, every time a multiple of 100 ns (so one
    /// instant often holds lane and calendar events alike), instants handled
    /// ahead of the clock and then behind that (the lane refuses an event
    /// that would precede its tail), far-future calendar events, and windows
    /// that refuse.  Beside them, seqs reserved in blocks and pushed later —
    /// after later seqs were scheduled, out of order within the block, at
    /// instants not popped yet, often tied with pending events.
    #[test]
    fn prop_lanes_and_calendar_match_the_heap_on_every_pop_flavour() {
        for seed in 0..skew_seeds() {
            let mut rng = Xoshiro256::new(0x1a9e5 ^ seed);
            let mut pair = LanePair::new(format!("seed {seed}"));
            let delays: Vec<u64> = (0..20).map(|k| k * 100 * (1 + seed % 3)).collect();
            for k in 0..2_000 {
                let at = 100 * rng.below(if k % 50 == 0 { 10_000_000 } else { 2_000 });
                pair.schedule(SimTime::from_nanos(at), ev(0, k));
            }
            let mut frame = 10_000u64;
            let mut out = Vec::new();
            let (mut lanes_used, mut spanned, mut ties) = (0, 0, 0);
            // Reserved seqs not pushed yet, and how many were pushed behind
            // a later seq.
            let (mut reserved, mut late_pushes) = (Vec::new(), 0);
            while pair.seq < 40_000 && !pair.heap.is_empty() {
                match rng.below(16) {
                    0 => {
                        let count = 1 + rng.below(6);
                        let first = pair.reserve(count);
                        reserved.extend(first..first + count);
                    }
                    1 if !reserved.is_empty() => {
                        // Any reserved seq, at an instant after the clock.
                        let seq = reserved.swap_remove(rng.below(reserved.len() as u64) as usize);
                        let ahead = 100
                            * match rng.below(8) {
                                0 => 1 + rng.below(100_000),
                                1..=3 => 1,
                                _ => 1 + rng.below(30),
                            };
                        let at = pair.queue.now() + rt_types::Duration::from_nanos(ahead);
                        late_pushes += usize::from(seq + 1 < pair.seq);
                        frame += 1;
                        pair.schedule_reserved(at, seq, ev(2, frame));
                    }
                    _ => {}
                }
                let now = pair.queue.now();
                let lane = pair.queue.lanes.earliest(&mut Fronts::default());
                ties += usize::from(lane.is_some() && lane == pair.queue.scheduler.peek_time());
                let limit = now + rt_types::Duration::from_nanos(100 * rng.below(30));
                let popped = match rng.below(4) {
                    0 => pair.pop_until(SimTime::MAX).map(|(t, e)| (t, vec![e])),
                    1 => pair.pop_until(limit).map(|(t, e)| (t, vec![e])),
                    2 => pair
                        .pop_run_until(SimTime::MAX, &mut out)
                        .map(|t| (t, out.clone())),
                    _ => pair
                        .pop_run_until(limit, &mut out)
                        .map(|t| (t, out.clone())),
                };
                let Some((now, events)) = popped else {
                    continue;
                };
                for _ in &events {
                    for _ in 0..rng.below(3) {
                        frame += 1;
                        let event = ev(1, frame);
                        match rng.below(8) {
                            0 => {
                                let at = now + rt_types::Duration::from_nanos(100 * rng.below(40));
                                pair.schedule(at, event);
                            }
                            // An instant handled ahead of the clock.
                            1 => {
                                let from = now + rt_types::Duration::from_nanos(100 * rng.below(5));
                                let delay = delays[rng.below(20) as usize];
                                pair.schedule_after(from, delay, event);
                            }
                            _ => {
                                let delay = delays[rng.below(20) as usize];
                                pair.schedule_after(now, delay, event);
                            }
                        }
                    }
                }
                lanes_used = lanes_used.max(pair.queue.lanes.queues.len());
                spanned += usize::from(events.len() > 1);
            }
            assert_eq!(lanes_used, MAX_LANES, "seed {seed}: every lane in use");
            assert!(
                spanned > 100,
                "seed {seed}: only {spanned} multi-event runs"
            );
            assert!(ties > 100, "seed {seed}: only {ties} lane-calendar ties");
            assert!(
                late_pushes > 100,
                "seed {seed}: only {late_pushes} reserved seqs pushed behind later ones"
            );
            let now = pair.queue.now();
            for seq in reserved {
                pair.schedule_reserved(now + rt_types::Duration::from_nanos(100), seq, ev(3, seq));
            }
            while pair.pop_until(SimTime::MAX).is_some() {}
        }
    }

    /// A reserved event filed ahead of the lanes' front, while the calendar
    /// holds only a far event (so a refused probe has moved the calendar's
    /// bound past the lane), pops first: the filing lowers the bound.
    #[test]
    fn a_reserved_event_ahead_of_the_lanes_pops_before_them() {
        let mut q = EventQueue::new();
        let reserved = q.reserve(1).expect("the seq space is empty");
        q.schedule(SimTime::from_nanos(10_000), ev(0, 1));
        assert_eq!(q.pop_until(SimTime::ZERO), None);
        q.schedule_after(SimTime::ZERO, Duration::from_nanos(1_000), ev(0, 2));
        q.schedule_reserved(SimTime::from_nanos(500), reserved, ev(0, 3));
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [ev(0, 3), ev(0, 2), ev(0, 1)]);
    }

    /// Slots examined per pop, on the calendar alone.
    fn work_per_pop(cal: &CalendarScheduler, work_before: u64, pops: u64) -> f64 {
        (cal.work - work_before) as f64 / pops as f64
    }

    /// The work of a pop is bounded by count: at most `2·log₂(pending)`
    /// slots examined per pop, resizes and migrations included, on the
    /// bimodal hold model — where a width frozen at the preload's spacing
    /// made the unordered chain walk 137 slots per pop — and on 200 000
    /// events at one nanosecond with pushes landing in the bucket while it
    /// is being popped, where it was linear in the flood.
    #[test]
    fn work_per_pop_is_logarithmic_under_skew_and_flood() {
        for far in [10_000u64, 100_000] {
            let mut rng = Xoshiro256::new(far);
            let mut queue = EventQueue::new();
            preload_bimodal(&mut rng, far, |at, event| {
                queue.schedule(at, event);
            });
            let mut cal = CalendarScheduler::new();
            let mut seq = 0u64;
            while let Some((at, event)) = queue.pop() {
                cal.push(at, seq, event);
                seq += 1;
            }
            let (before, pops) = (cal.work, 4 * far);
            for _ in 0..pops {
                let (now, event) = cal.pop().expect("four pops per preloaded event");
                if let Some((at, next)) = cascade(&mut rng, now, &event) {
                    cal.push(at, seq, next);
                    seq += 1;
                }
            }
            let bound = 2.0 * (far as f64).log2();
            let work = work_per_pop(&cal, before, pops);
            assert!(
                work <= bound,
                "bimodal, {far} far events: {work:.1} slots per pop > {bound:.1}"
            );
        }

        let flood = 200_000u64;
        let instant = SimTime::from_micros(77);
        let mut cal = CalendarScheduler::new();
        for k in 0..flood {
            cal.push(instant, k, ev(0, k));
        }
        let before = cal.work;
        let mut seq = flood;
        for k in 0..flood {
            let (at, event) = cal.pop().expect("the flood is pending");
            assert_eq!((at, event), (instant, ev(0, k)), "FIFO broken in the flood");
            // Every fourth pop re-floods the instant being drained.
            if k % 4 == 0 && seq < flood + 1_000 {
                cal.push(instant, seq, ev(1, seq));
                seq += 1;
            }
        }
        let bound = 2.0 * (flood as f64).log2();
        let work = work_per_pop(&cal, before, flood);
        assert!(
            work <= bound,
            "one-instant flood: {work:.1} slots per pop > {bound:.1}"
        );
    }

    /// Width re-estimation cannot thrash: neither a flood at one instant
    /// (no width separates it) nor a population alternating dense clusters
    /// and wide gaps (a narrowing at least halves the width, and only a
    /// population resize widens it again) costs more than O(log n) resizes.
    #[test]
    fn width_re_estimation_does_not_thrash() {
        let n = 100_000u64;
        let budget = 4 * n.ilog2() as u64;

        let mut flood = CalendarScheduler::new();
        for k in 0..n {
            // One instant, plus a straggler a nanosecond later every 1000.
            let at = 500_000 + u64::from(k % 1_000 == 999);
            flood.push(SimTime::from_nanos(at), k, ev(0, k));
        }
        while flood.pop().is_some() {}
        assert!(
            flood.resizes() <= budget,
            "flood: {} resizes",
            flood.resizes()
        );

        let mut mixed = CalendarScheduler::new();
        for k in 0..n {
            // Clusters of 200 events 3 ns apart, one cluster per 2 ms.
            let at = (k / 200) * 2_000_000 + (k % 200) * 3;
            mixed.push(SimTime::from_nanos(at), k, ev(0, k));
        }
        let mut rng = Xoshiro256::new(9);
        let mut seq = n;
        while let Some((now, event)) = mixed.pop() {
            // Keep re-populating both regimes for a while: a near event
            // into the cluster, a far one into a gap.
            if seq < 2 * n {
                for ahead in [1 + rng.below(50), 700_000 + rng.below(600_000)] {
                    let at = now + rt_types::Duration::from_nanos(ahead);
                    mixed.push(at, seq, event.clone());
                    seq += 1;
                }
            }
        }
        assert!(
            mixed.resizes() <= budget,
            "alternating: {} resizes",
            mixed.resizes()
        );
    }
}
