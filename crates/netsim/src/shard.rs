//! Sharded (parallel) fabric simulation: conservative PDES over worker
//! threads, pinned byte-for-byte against the single-thread [`Simulator`].
//!
//! # Model
//!
//! A **shard** owns a set of switches (assigned by a deterministic
//! [`rt_types::partition_switches`] partition) together with every output
//! port that *originates* at them: the uplink/downlink pair of each attached
//! node and the directed trunk ports leaving an owned switch.  Each shard
//! drives the one forwarding core (`crate::switch`) over a lane of its own —
//! its own calendar, ports and [`SimStats`] — through a sink that stages
//! switch arrivals and parks deliveries and drops; the coordinator folds
//! everything back together at the end of the run, moving the frames' bytes
//! into their deliveries.  No forwarding rule lives in this file.
//!
//! # Synchronisation
//!
//! The only cross-shard edge is a frame finishing transmission on an
//! inter-shard trunk: its `ArriveAtSwitch` fires a fixed **lookahead**
//! `L = propagation_delay + switch_latency` after the `TrunkTxComplete`.
//! The coordinator therefore runs classic conservative time windows: with
//! `V` the globally minimal pending time, every shard may safely execute
//! `[V, V + L)` — no event executed in the window can produce a cross-shard
//! arrival inside it.  Cross-shard arrivals travel as `(time, switch,
//! FrameId)` triples over lock-free SPSC rings (the record stays in the
//! shared fabric, the bytes with the coordinator); ring overflow spills
//! through the coordinator, so the rings bound memory, never correctness.
//!
//! # Determinism (oracle pinning)
//!
//! The single-thread run is the oracle: same deliveries, same bytes, same
//! counters, at every shard count.  Three mechanisms make the parallel run
//! reproduce it exactly:
//!
//! 1. **Staged arrivals.**  *Every* switch arrival — local or cross-shard —
//!    is staged and ingested at window starts in `(arrival_time, tx_start,
//!    frame_id)` order, where `tx_start = arrival − L − tx_time` is the
//!    instant the producing transmission began.  Because the minimum frame
//!    transmission time exceeds `L` (checked at construction), producing
//!    `TxComplete`s always execute in an earlier window than the arrival's
//!    ingestion, so this order reproduces the oracle's FIFO sequence
//!    numbers for same-instant arrivals.
//! 2. **Ranked injections and faults.**  The preloaded event set (frame
//!    injections, scripted faults) is drained in global `(time, seq)` order
//!    and replayed with explicit ranks: workers interleave injections
//!    before same-time derived events exactly as the oracle's sequence
//!    numbers do, and a fault barrier executes injections ranked before the
//!    fault, then the fault, then resumes windows.
//! 3. **Canonical delivery merge.**  Per-shard delivery lists merge on the
//!    key `(delivered_at, sched_at, tx_start, frame_id)` — the times the
//!    oracle scheduled and executed the delivering events — which
//!    reproduces the oracle's `poll_deliveries` order byte for byte.
//!
//! Faults synchronise on a barrier: the coordinator applies the topology
//! mutation and re-pulls the routing tables (the function the single-thread
//! simulator calls), then every worker kills or revives the listed ports in
//! its lane, which drains the dead queues it owns into `failed_link_dropped`
//! and dooms frames caught mid-serialisation — so a cut inter-shard trunk
//! loses exactly the frames the oracle loses, while frames whose
//! transmission already completed (ring entries in flight) arrive exactly as
//! they do in the oracle.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use rt_frames::EthernetFrame;
use rt_types::{
    effective_shards, partition_switches, ChannelId, DenseNextHop, Duration, HopLink, NodeId,
    Route, Router, RtError, RtResult, ShardStrategy, SimTime, SwitchId, Topology,
    MIN_FRAME_WIRE_BYTES,
};

use crate::event::Event;
use crate::sim::{Delivery, FaultScript, FrameId, FrameInjection, LinkFault, SimConfig, Simulator};
use crate::stats::SimStats;
use crate::switch::{self, Core, Fabric, Lane, PortFlips, Sink};

/// Capacity (entries) of each inter-shard ring; a power of two.  Overflow
/// is handled by spilling through the coordinator, so this only sizes the
/// fast path.
const RING_CAPACITY: usize = 1024;

const WORKER_ALIVE: &str = "a worker holds its channels until Finish unless it panicked";

// ---------------------------------------------------------------------------
// SPSC ring
// ---------------------------------------------------------------------------

/// One cross-shard arrival: a frame becomes eligible for forwarding at
/// dense switch `switch` at `time_ns`.
#[derive(Debug, Clone, Copy)]
struct RingEntry {
    time_ns: u64,
    switch: u32,
    frame: u64,
}

/// A bounded lock-free single-producer single-consumer ring carrying
/// [`RingEntry`] triples as three parallel atomic lanes (the workspace
/// forbids `unsafe`, so the slots are atomics rather than raw cells).
///
/// `head`/`tail` are monotonic counters; the producer publishes a slot with
/// a `Release` store of `tail` and the consumer observes it with an
/// `Acquire` load, so the relaxed lane stores happen-before the read side.
struct SpscRing {
    head: AtomicUsize,
    tail: AtomicUsize,
    times: Vec<AtomicU64>,
    switches: Vec<AtomicU64>,
    frames: Vec<AtomicU64>,
    mask: usize,
}

impl SpscRing {
    fn new(capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two());
        SpscRing {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            times: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            switches: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            frames: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            mask: capacity - 1,
        }
    }

    /// Producer side: `false` when the ring is full (the caller spills the
    /// entry through the coordinator instead).
    fn push(&self, entry: RingEntry) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.times.len() {
            return false;
        }
        let i = tail & self.mask;
        self.times[i].store(entry.time_ns, Ordering::Relaxed);
        self.switches[i].store(entry.switch as u64, Ordering::Relaxed);
        self.frames[i].store(entry.frame, Ordering::Relaxed);
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }

    /// Consumer side: append every published entry to `out`.
    fn drain_into(&self, out: &mut Vec<RingEntry>) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        let mut cursor = head;
        while cursor != tail {
            let i = cursor & self.mask;
            out.push(RingEntry {
                time_ns: self.times[i].load(Ordering::Relaxed),
                switch: self.switches[i].load(Ordering::Relaxed) as u32,
                frame: self.frames[i].load(Ordering::Relaxed),
            });
            cursor = cursor.wrapping_add(1);
        }
        self.head.store(tail, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Coordinator <-> worker protocol
// ---------------------------------------------------------------------------

/// One step of the barrier protocol, coordinator to worker.
enum Command {
    /// Execute every owned event with `time < end_excl` (exclusive), after
    /// ingesting `spilled` ring-overflow arrivals and draining the inbound
    /// rings.  `dense` is the routing table to forward with (refreshed
    /// after faults).
    Window {
        end_excl: SimTime,
        dense: Arc<DenseNextHop>,
        spilled: Vec<RingEntry>,
    },
    /// A scripted fault fires at `at` with global sequence rank `rank`:
    /// execute injections at `at` ranked before it, then kill / revive the
    /// ports listed (port ids into the full dense port space).
    Fault {
        at: SimTime,
        rank: u64,
        flips: Arc<PortFlips>,
    },
    /// The run is over; send the final report and exit.
    Finish,
}

/// Barrier acknowledgement, worker to coordinator.
struct Report {
    shard: u32,
    /// Earliest pending work this shard knows about: its injection list,
    /// its calendar, its staged arrivals, and everything it pushed onto
    /// outbound rings since the last report.  `u64::MAX` when idle.
    next_ns: u64,
    /// Ring-overflow entries, routed to their destination shard via the
    /// next `Window` command.
    spill: Vec<(u32, RingEntry)>,
}

/// End-of-run hand-back from one worker.
struct WorkerFinal {
    stats: SimStats,
    deliveries: Vec<(DeliveryKey, Delivery)>,
    discarded: Vec<FrameId>,
    processed: u64,
    last_ns: u64,
}

/// Canonical merge key: `(delivered_at, sched_at, tx_start, frame_id)` —
/// see the module docs for why this reproduces the oracle's delivery order.
type DeliveryKey = [u64; 4];

/// A cross- or intra-shard switch arrival parked until its window opens.
#[derive(Debug, Clone, Copy)]
struct Staged {
    time_ns: u64,
    tx_start_ns: u64,
    switch: u32,
    frame: FrameId,
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// A shard's [`Sink`]: switch arrivals are staged for deterministic
/// ingestion or pushed onto the owning shard's ring, and deliveries (without
/// their bytes), drops and (in the lane) statistics are parked for the
/// end-of-run merge — the delivery list and the bytes are the coordinator's.
struct ShardSink<'a> {
    fabric: &'a Fabric,
    /// Dense switch index → owning shard.
    assignment: &'a [u32],
    shard: u32,
    staging: Vec<Staged>,
    /// Earliest arrival in `staging` (`u64::MAX` when it is empty).
    staged_min_ns: u64,
    /// `outbox[c]`: ring we produce for shard `c`.
    outbox: Vec<Arc<SpscRing>>,
    spill: Vec<(u32, RingEntry)>,
    outbound_min_ns: u64,
    deliveries: Vec<(DeliveryKey, Delivery)>,
    discarded: Vec<FrameId>,
}

impl ShardSink<'_> {
    /// Park an arrival.  `tx_start` recovers the instant the producing
    /// transmission began, the tie-break the deterministic ingestion order
    /// sorts on.
    fn stage(&mut self, time_ns: u64, switch: u32, frame: FrameId) {
        let tx = self.fabric.tx_time(self.fabric.record(frame).wire_bytes);
        let lookahead = self.fabric.switch_arrival_delay();
        self.staged_min_ns = self.staged_min_ns.min(time_ns);
        self.staging.push(Staged {
            time_ns,
            tx_start_ns: time_ns.saturating_sub((lookahead + tx).as_nanos()),
            switch,
            frame,
        });
    }
}

impl Sink for ShardSink<'_> {
    /// Stage the arrival locally, or hand it to the owning shard's ring
    /// (spilling through the coordinator when full).
    fn switch_arrival(
        &mut self,
        _lane: &mut Lane,
        now: SimTime,
        after: Duration,
        switch: u32,
        frame: FrameId,
    ) {
        let at = now + after;
        let dest = self.assignment[switch as usize];
        if dest == self.shard {
            self.stage(at.as_nanos(), switch, frame);
        } else {
            let entry = RingEntry {
                time_ns: at.as_nanos(),
                switch,
                frame: frame.get(),
            };
            self.outbound_min_ns = self.outbound_min_ns.min(entry.time_ns);
            if !self.outbox[dest as usize].push(entry) {
                self.spill.push((dest, entry));
            }
        }
    }

    fn deliver(&mut self, delivery: Delivery, since_scheduled: Duration) {
        let sched_ns = delivery
            .delivered_at
            .as_nanos()
            .saturating_sub(since_scheduled.as_nanos());
        let tx = self
            .fabric
            .tx_time(self.fabric.record(delivery.frame).wire_bytes);
        let key = [
            delivery.delivered_at.as_nanos(),
            sched_ns,
            sched_ns.saturating_sub(tx.as_nanos()),
            delivery.frame.get(),
        ];
        self.deliveries.push((key, delivery));
    }

    fn discard(&mut self, frame: FrameId) {
        self.discarded.push(frame);
    }
}

/// One shard's execution state: a [`Lane`] over the full dense port space
/// (only owned ports are ever touched) driven through the forwarding core,
/// plus what the window protocol needs around it.
struct Worker<'a> {
    lane: Lane,
    sink: ShardSink<'a>,
    batch: Vec<Event>,
    /// Preloaded frame injections owned by this shard, in global
    /// `(time, rank)` order.
    injections: VecDeque<(SimTime, u64, Event)>,
    /// `inbox[p]`: ring produced by shard `p` for us.
    inbox: Vec<Arc<SpscRing>>,
    ring_scratch: Vec<RingEntry>,
    /// Reusable scratch for the arrivals one window ingests.
    due: Vec<Staged>,
    last_ns: u64,
}

impl<'a> Worker<'a> {
    /// The forwarding core over this shard's lane and sink.
    fn core(&mut self) -> Core<'_, ShardSink<'a>> {
        Core {
            fabric: self.sink.fabric,
            lane: &mut self.lane,
            sink: &mut self.sink,
        }
    }

    /// Pull every published inbound ring entry into the staging area.
    fn drain_rings(&mut self) {
        let mut scratch = std::mem::take(&mut self.ring_scratch);
        for (producer, ring) in self.inbox.iter().enumerate() {
            if producer as u32 != self.sink.shard {
                ring.drain_into(&mut scratch);
            }
        }
        for entry in scratch.drain(..) {
            self.sink
                .stage(entry.time_ns, entry.switch, FrameId::new(entry.frame));
        }
        self.ring_scratch = scratch;
    }

    /// Move every staged arrival due before `end_excl` into the calendar,
    /// in the canonical `(time, tx_start, frame)` order that reproduces the
    /// oracle's same-instant FIFO sequence.
    fn ingest_staged(&mut self, end_excl: SimTime) {
        let end_ns = end_excl.as_nanos();
        let mut due = std::mem::take(&mut self.due);
        let mut kept_min_ns = u64::MAX;
        self.sink.staging.retain(|s| {
            if s.time_ns < end_ns {
                due.push(*s);
                false
            } else {
                kept_min_ns = kept_min_ns.min(s.time_ns);
                true
            }
        });
        self.sink.staged_min_ns = kept_min_ns;
        due.sort_unstable_by_key(|s| (s.time_ns, s.tx_start_ns, s.frame.get()));
        for s in due.drain(..) {
            let switch = self.lane.dense.switch_at(s.switch);
            self.lane.schedule(
                SimTime::from_nanos(s.time_ns),
                Event::ArriveAtSwitch {
                    switch,
                    frame: s.frame,
                },
            );
        }
        self.due = due;
    }

    /// Execute every owned event strictly before `end_excl`, interleaving
    /// preloaded injections before same-time derived events (they carry
    /// lower oracle sequence numbers).
    fn run_window(&mut self, end_excl: SimTime, dense: Arc<DenseNextHop>, spilled: Vec<RingEntry>) {
        self.lane.dense = dense;
        for entry in spilled {
            self.sink
                .stage(entry.time_ns, entry.switch, FrameId::new(entry.frame));
        }
        self.drain_rings();
        self.ingest_staged(end_excl);
        let end_incl = SimTime::from_nanos(end_excl.as_nanos().saturating_sub(1));
        loop {
            let next_injection = match self.injections.front() {
                Some(&(t, _, _)) if t < end_excl => Some(t),
                _ => None,
            };
            let next_calendar = self.lane.events.peek_time().filter(|&t| t < end_excl);
            match (next_injection, next_calendar) {
                (None, None) => break,
                (Some(t), None) => self.handle_injections_at(t, u64::MAX),
                (Some(t), Some(c)) if t <= c => self.handle_injections_at(t, u64::MAX),
                _ => {
                    let mut batch = std::mem::take(&mut self.batch);
                    if let Some(time) = self.lane.events.pop_run_until(end_incl, &mut batch) {
                        self.last_ns = self.last_ns.max(time.as_nanos());
                        for event in batch.drain(..) {
                            self.core().handle(time, event);
                        }
                    }
                    self.batch = batch;
                }
            }
        }
    }

    /// Execute every consecutive preloaded injection at exactly time `t`
    /// whose rank does not exceed `max_rank`.
    fn handle_injections_at(&mut self, t: SimTime, max_rank: u64) {
        self.last_ns = self.last_ns.max(t.as_nanos());
        while matches!(self.injections.front(), Some(&(it, rank, _)) if it == t && rank <= max_rank)
        {
            if let Some((_, _, event)) = self.injections.pop_front() {
                self.core().handle(t, event);
            }
        }
    }

    /// Fault barrier: injections at `at` ranked before the fault fire
    /// first (the oracle pops them first), then the ports the fault names
    /// die or revive in this lane exactly as in the single-thread run.
    fn fault_step(&mut self, at: SimTime, rank: u64, flips: &PortFlips) {
        self.handle_injections_at(at, rank);
        self.core().flip_ports(flips, at);
        self.drain_rings();
    }

    /// Acknowledge a barrier with the earliest pending work this shard
    /// knows about.
    fn make_report(&mut self) -> Report {
        let mut next_ns = self.sink.staged_min_ns.min(self.sink.outbound_min_ns);
        if let Some(&(t, _, _)) = self.injections.front() {
            next_ns = next_ns.min(t.as_nanos());
        }
        if let Some(t) = self.lane.events.peek_time() {
            next_ns = next_ns.min(t.as_nanos());
        }
        self.sink.outbound_min_ns = u64::MAX;
        Report {
            shard: self.sink.shard,
            next_ns,
            spill: std::mem::take(&mut self.sink.spill),
        }
    }
}

/// Worker thread body: answer barrier commands until `Finish`, then hand
/// every accumulated result back.
fn worker_main(
    mut worker: Worker<'_>,
    commands: mpsc::Receiver<Command>,
    reports: mpsc::Sender<Report>,
    finals: mpsc::Sender<WorkerFinal>,
) {
    let _ = reports.send(worker.make_report());
    while let Ok(command) = commands.recv() {
        match command {
            Command::Window {
                end_excl,
                dense,
                spilled,
            } => worker.run_window(end_excl, dense, spilled),
            Command::Fault { at, rank, flips } => worker.fault_step(at, rank, &flips),
            Command::Finish => break,
        }
        let _ = reports.send(worker.make_report());
    }
    let _ = finals.send(WorkerFinal {
        stats: worker.lane.stats,
        deliveries: worker.sink.deliveries,
        discarded: worker.sink.discarded,
        processed: worker.lane.events.processed(),
        last_ns: worker.last_ns,
    });
}

// ---------------------------------------------------------------------------
// ShardedSimulator
// ---------------------------------------------------------------------------

/// The sharded front-end of the fabric simulator.
///
/// Construction, injection and channel management all delegate to an inner
/// single-thread [`Simulator`]; [`ShardedSimulator::run_to_idle`] then
/// executes the preloaded event set across worker threads under the
/// conservative window protocol described in the [module docs](self), and
/// merges deliveries and statistics back so that every observable —
/// `poll_deliveries`, `stats().summary()`, per-channel and per-link
/// counters — is byte-for-byte identical to the single-thread run.
pub struct ShardedSimulator {
    pub(crate) inner: Simulator,
    shards: usize,
    strategy: ShardStrategy,
    /// Dense switch index -> owning shard.
    assignment: Vec<u32>,
    windows_executed: u64,
    extra_processed: u64,
    finished_at: SimTime,
}

impl ShardedSimulator {
    /// Build a sharded fabric over `topology` with (up to) `shards` worker
    /// shards and the default partition strategy.
    ///
    /// Fails when the configuration violates the conservative-window
    /// soundness condition: the minimum frame transmission time must cover
    /// the trunk lookahead `propagation_delay + switch_latency`, so that
    /// arrival ingestion order can reproduce the oracle's event sequence
    /// (see the module docs).
    pub fn new(config: SimConfig, topology: Topology, shards: usize) -> RtResult<Self> {
        Self::with_strategy(config, topology, shards, ShardStrategy::default())
    }

    /// [`ShardedSimulator::new`] with an explicit partition strategy.
    pub fn with_strategy(
        config: SimConfig,
        topology: Topology,
        shards: usize,
        strategy: ShardStrategy,
    ) -> RtResult<Self> {
        let inner = Simulator::with_topology(config, topology)?;
        Self::from_inner(inner, shards, strategy)
    }

    /// Build over an explicit [`Router`], as [`Simulator::with_router`].
    pub fn with_router(
        config: SimConfig,
        topology: Topology,
        router: Arc<dyn Router>,
        shards: usize,
    ) -> RtResult<Self> {
        let inner = Simulator::with_router(config, topology, router)?;
        Self::from_inner(inner, shards, ShardStrategy::default())
    }

    fn from_inner(inner: Simulator, shards: usize, strategy: ShardStrategy) -> RtResult<Self> {
        let lookahead = inner.fabric.switch_arrival_delay();
        let min_tx = inner.fabric.tx_time(MIN_FRAME_WIRE_BYTES);
        if min_tx < lookahead {
            return Err(RtError::Config(format!(
                "sharded simulation needs the minimum frame transmission time ({} ns) \
                 to cover the trunk lookahead ({} ns): conservative windows would \
                 otherwise reorder same-instant events relative to the single-thread \
                 oracle",
                min_tx.as_nanos(),
                lookahead.as_nanos(),
            )));
        }
        let partition = partition_switches(inner.topology(), shards, strategy);
        let shards = effective_shards(inner.topology().switch_count(), shards);
        let dense = &inner.lane.dense;
        let mut assignment = vec![0u32; dense.switch_count()];
        for (pos, switch) in inner.topology().switches().enumerate() {
            let idx = dense
                .index_of(switch)
                .expect("the router's dense index covers every topology switch");
            assignment[idx as usize] = partition[pos];
        }
        Ok(ShardedSimulator {
            inner,
            shards,
            strategy,
            assignment,
            windows_executed: 0,
            extra_processed: 0,
            finished_at: SimTime::ZERO,
        })
    }

    // --- delegated setup --------------------------------------------------

    /// See [`Simulator::inject`].
    pub fn inject(&mut self, node: NodeId, eth: EthernetFrame, at: SimTime) -> RtResult<FrameId> {
        self.inner.inject(node, eth, at)
    }

    /// See [`Simulator::inject_batch`].
    pub fn inject_batch(
        &mut self,
        batch: impl IntoIterator<Item = FrameInjection>,
    ) -> RtResult<Vec<FrameId>> {
        self.inner.inject_batch(batch)
    }

    /// See [`Simulator::schedule_fault`].
    pub fn schedule_fault(&mut self, at: SimTime, fault: LinkFault) -> RtResult<()> {
        self.inner.schedule_fault(at, fault)
    }

    /// See [`Simulator::schedule_faults`].
    pub fn schedule_faults(&mut self, script: &FaultScript) -> RtResult<()> {
        self.inner.schedule_faults(script)
    }

    /// See [`Simulator::set_channel_hop_schedule`].
    pub fn set_channel_hop_schedule(
        &mut self,
        channel: ChannelId,
        offsets: impl IntoIterator<Item = (HopLink, Duration)>,
    ) {
        self.inner.set_channel_hop_schedule(channel, offsets)
    }

    /// See [`Simulator::set_channel_route`].
    pub fn set_channel_route(&mut self, channel: ChannelId, route: &Route) {
        self.inner.set_channel_route(channel, route)
    }

    /// See [`Simulator::release_channel`].
    pub fn release_channel(&mut self, channel: ChannelId) {
        self.inner.release_channel(channel)
    }

    // --- observability ----------------------------------------------------

    /// Number of worker shards the run executes on (clamped to the switch
    /// count).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The partition strategy in use.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// The shard owning `switch`, if it is part of the topology.
    pub fn shard_of(&self, switch: SwitchId) -> Option<u32> {
        let idx = self.inner.lane.dense.index_of(switch)?;
        Some(self.assignment[idx as usize])
    }

    /// Conservative time windows executed so far (fault barriers not
    /// included).
    pub fn windows_executed(&self) -> u64 {
        self.windows_executed
    }

    /// See [`Simulator::events_processed`]: injections and faults count
    /// once (drained by the coordinator), derived events once in whichever
    /// shard executed them — the same total as the single-thread run.
    pub fn events_processed(&self) -> u64 {
        self.inner.events_processed() + self.extra_processed
    }

    /// See [`Simulator::now`].
    pub fn now(&self) -> SimTime {
        self.inner.now().max(self.finished_at)
    }

    /// See [`Simulator::config`].
    pub fn config(&self) -> &SimConfig {
        self.inner.config()
    }

    /// See [`Simulator::topology`].
    pub fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    /// See [`Simulator::manager_switch`].
    pub fn manager_switch(&self) -> SwitchId {
        self.inner.manager_switch()
    }

    /// See [`Simulator::stats`] (merged across shards after a run).
    pub fn stats(&self) -> &SimStats {
        self.inner.stats()
    }

    /// See [`Simulator::poll_deliveries`] (canonically merged across
    /// shards, in the oracle's order).
    pub fn poll_deliveries(&mut self) -> Vec<Delivery> {
        self.inner.poll_deliveries()
    }

    /// See [`Simulator::injected_count`].
    pub fn injected_count(&self) -> u64 {
        self.inner.injected_count()
    }

    // --- execution --------------------------------------------------------

    /// Run the preloaded event set to completion across the worker shards;
    /// returns the final simulated time.
    ///
    /// The pending set holds node injections and scripted faults — the full
    /// workload model of the property harness — and nothing else: this
    /// front-end offers no `inject_at_switch`, and
    /// the events the forwarding core derives live in the shards' own
    /// calendars, which are drained before this returns.
    pub fn run_to_idle(&mut self) -> SimTime {
        let shards = self.shards;

        // Drain the preloaded event set in global (time, seq) order,
        // splitting node injections per owning shard and faults into the
        // coordinator's script; the rank preserves the oracle's sequence
        // numbers across the split.
        let mut per_shard: Vec<VecDeque<(SimTime, u64, Event)>> =
            (0..shards).map(|_| VecDeque::new()).collect();
        let mut faults: VecDeque<(SimTime, u64, LinkFault)> = VecDeque::new();
        let mut rank = 0u64;
        while let Some((t, event)) = self.inner.lane.events.pop() {
            if let Some(fault) = LinkFault::from_event(&event) {
                faults.push_back((t, rank, fault));
            } else if let Event::EnqueueAtNode { node, .. } = event {
                let access =
                    self.inner.fabric.node_access[self.inner.fabric.node_idx(node) as usize];
                per_shard[self.assignment[access as usize] as usize].push_back((t, rank, event));
            } else {
                unreachable!(
                    "inject, inject_batch and schedule_fault(s) are the only ways into the \
                     pending set and queue nothing but EnqueueAtNode and fault events; \
                     found {event:?}"
                );
            }
            rank += 1;
        }

        let lookahead_ns = self.inner.fabric.switch_arrival_delay().as_nanos();
        let assignment: &[u32] = &self.assignment;

        let mut windows = 0u64;
        let mut last_ns = self.inner.now().as_nanos();

        // The workers share the read-only fabric; the coordinator keeps
        // the topology, the router and the routing table it re-pulls
        // after each fault.
        let fabric: &Fabric = &self.inner.fabric;
        let topology = &mut self.inner.topology;
        let router: &dyn Router = &*self.inner.router;
        let dense_next_hop = &mut self.inner.lane.dense;

        // rings[p][c]: produced by shard p, consumed by shard c.
        let rings: Vec<Vec<Arc<SpscRing>>> = (0..shards)
            .map(|_| {
                (0..shards)
                    .map(|_| Arc::new(SpscRing::new(RING_CAPACITY)))
                    .collect()
            })
            .collect();

        let (report_tx, report_rx) = mpsc::channel::<Report>();
        let (final_tx, final_rx) = mpsc::channel::<WorkerFinal>();
        let mut command_txs = Vec::with_capacity(shards);

        std::thread::scope(|scope| {
            for shard in 0..shards {
                let (command_tx, command_rx) = mpsc::channel::<Command>();
                command_txs.push(command_tx);
                let injections = std::mem::take(&mut per_shard[shard]);
                let inbox: Vec<Arc<SpscRing>> =
                    (0..shards).map(|p| Arc::clone(&rings[p][shard])).collect();
                let outbox: Vec<Arc<SpscRing>> =
                    (0..shards).map(|c| Arc::clone(&rings[shard][c])).collect();
                let dense = Arc::clone(dense_next_hop);
                let reports = report_tx.clone();
                let finals = final_tx.clone();
                scope.spawn(move || {
                    let worker = Worker {
                        lane: Lane::new(&fabric.config, &fabric.port_links, dense),
                        sink: ShardSink {
                            fabric,
                            assignment,
                            shard: shard as u32,
                            staging: Vec::new(),
                            staged_min_ns: u64::MAX,
                            outbox,
                            spill: Vec::new(),
                            outbound_min_ns: u64::MAX,
                            deliveries: Vec::new(),
                            discarded: Vec::new(),
                        },
                        batch: Vec::new(),
                        injections,
                        inbox,
                        ring_scratch: Vec::new(),
                        due: Vec::new(),
                        last_ns: 0,
                    };
                    worker_main(worker, command_rx, reports, finals);
                });
            }
            drop(report_tx);
            drop(final_tx);

            let mut next_ns = vec![u64::MAX; shards];
            let mut held: Vec<Vec<RingEntry>> = vec![Vec::new(); shards];
            let gather = |next_ns: &mut [u64], held: &mut [Vec<RingEntry>]| {
                for _ in 0..shards {
                    let report = report_rx.recv().expect(WORKER_ALIVE);
                    next_ns[report.shard as usize] = report.next_ns;
                    for (dest, entry) in report.spill {
                        held[dest as usize].push(entry);
                    }
                }
            };
            gather(&mut next_ns, &mut held);

            loop {
                let mut t_work = next_ns.iter().copied().min().unwrap_or(u64::MAX);
                for h in &held {
                    for entry in h {
                        t_work = t_work.min(entry.time_ns);
                    }
                }
                let t_fault = faults
                    .front()
                    .map(|&(t, _, _)| t.as_nanos())
                    .unwrap_or(u64::MAX);
                if t_work == u64::MAX && t_fault == u64::MAX {
                    break;
                }
                if t_fault <= t_work {
                    // Fault barrier: the coordinator mutates the
                    // topology and re-pulls routing (the single-thread
                    // semantics of fail_link / repair_link /
                    // fail_switch); the workers kill / revive the ports.
                    let Some((at, rank, fault)) = faults.pop_front() else {
                        break;
                    };
                    last_ns = last_ns.max(at.as_nanos());
                    let flips =
                        switch::apply_fault(topology, router, fabric, dense_next_hop, fault);
                    debug_assert!(flips.is_ok(), "scripted {fault:?} failed: {flips:?}");
                    let flips = Arc::new(flips.unwrap_or_default());
                    for tx in &command_txs {
                        tx.send(Command::Fault {
                            at,
                            rank,
                            flips: Arc::clone(&flips),
                        })
                        .expect(WORKER_ALIVE);
                    }
                    gather(&mut next_ns, &mut held);
                } else {
                    // Conservative window [t_work, t_work + L), cut
                    // short by the next fault.
                    let end_excl = t_work
                        .saturating_add(lookahead_ns)
                        .min(t_fault)
                        .max(t_work.saturating_add(1));
                    for (shard, tx) in command_txs.iter().enumerate() {
                        tx.send(Command::Window {
                            end_excl: SimTime::from_nanos(end_excl),
                            dense: Arc::clone(dense_next_hop),
                            spilled: std::mem::take(&mut held[shard]),
                        })
                        .expect(WORKER_ALIVE);
                    }
                    gather(&mut next_ns, &mut held);
                    windows += 1;
                }
            }
            for tx in &command_txs {
                let _ = tx.send(Command::Finish);
            }
        });

        // Every worker has exited (the scope joined them), so the channel
        // holds exactly one hand-back per shard.  The oracle's sink takes it.
        let sink = &mut self.inner.sink;
        let mut deliveries: Vec<(DeliveryKey, Delivery)> = Vec::new();
        for done in final_rx.iter() {
            self.inner.lane.stats.merge_from(&done.stats);
            deliveries.extend(done.deliveries);
            done.discarded
                .into_iter()
                .for_each(|frame| sink.discard(frame));
            self.extra_processed += done.processed;
            last_ns = last_ns.max(done.last_ns);
        }
        deliveries.sort_unstable_by_key(|a| a.0);
        for (_, delivery) in deliveries {
            sink.deliver(delivery, Duration::ZERO);
        }
        self.windows_executed += windows;
        self.finished_at = self.finished_at.max(SimTime::from_nanos(last_ns));
        self.now()
    }
}
