//! Layer kernels: one lower layer at a time, in isolation, on inputs the
//! traced run captured or on the shapes the workloads use.
//!
//! A kernel answers "what does this layer cost per operation when nothing
//! else runs", so that a change in an end-to-end number can be matched
//! against the layer that was supposed to cause it.

use std::hint::black_box;
use std::time::{Duration as HostDuration, Instant};

use rt_core::{MultiHopAdmission, MultiHopDps, ReservationKey, RtChannelSpec, SlackLedger};
use rt_edf::PeriodicTask;
use rt_frames::reservation::{ReservationFrame, ReservationOp, ReservationReason};
use rt_frames::rt_data::{DeadlineStamp, RtDataFrame};
use rt_frames::{EthernetFrame, Frame, FrameArena, RequestFrame};
use rt_netsim::{
    CalendarScheduler, Event, EventScheduler, FrameId, OutputPort, ShardedSimulator, SimConfig,
    Simulator, TrafficSource,
};
use rt_traffic::{FabricScenario, ScenarioFrameSource};
use rt_types::{
    ChannelId, ConnectionRequestId, Duration, HopLink, Ipv4Address, MacAddr, NodeId, SimTime,
    Slots, SwitchId,
};

use super::traced::Traced;
use super::SMOKE_DIVISOR;
use crate::span::{Profile, Tracer};

/// How long a kernel samples: the fastest of `samples` batches, each sized
/// to run for about `sample`.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    sample: HostDuration,
    samples: u32,
    /// Smoke runs shrink the kernels' fixed sizes too.
    divisor: u64,
}

impl Bench {
    pub fn of(smoke: bool) -> Bench {
        if smoke {
            Bench {
                sample: HostDuration::from_millis(1),
                samples: 2,
                divisor: SMOKE_DIVISOR,
            }
        } else {
            Bench {
                sample: HostDuration::from_millis(20),
                samples: 5,
                divisor: 1,
            }
        }
    }

    /// Nanoseconds per call of `f`: the least-disturbed batch.
    pub fn ns_per_call<R>(&self, mut f: impl FnMut() -> R) -> f64 {
        // Size a batch from a growing calibration run.
        let mut calls = 1u64;
        let per_call = loop {
            let started = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            let elapsed = started.elapsed();
            if elapsed >= HostDuration::from_micros(200) || calls >= 1 << 24 {
                break elapsed.as_nanos().max(1) as f64 / calls as f64;
            }
            calls *= 4;
        };
        let batch = ((self.sample.as_nanos() as f64 / per_call) as u64).clamp(1, 1 << 26);
        (0..self.samples)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                started.elapsed().as_nanos() as f64 / batch as f64
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// A mid-range spec of the heterogeneous sweep the workloads draw from.
fn typical_task() -> PeriodicTask {
    PeriodicTask::new(Slots::new(225), Slots::new(4), Slots::new(40))
        .expect("the kernel's candidate task is valid")
}

/// A private ledger holding exactly what the run left on `link`.
fn ledger_of(admission: &MultiHopAdmission, link: HopLink) -> SlackLedger {
    let mut ledger = SlackLedger::new();
    for (i, task) in admission.link_taskset(link).tasks().iter().enumerate() {
        ledger.reserve(link, ReservationKey::Channel(i as u16 + 1), *task);
    }
    ledger
}

/// The links the run left loaded, lightest first.
fn links_by_load(admission: &MultiHopAdmission) -> Vec<HopLink> {
    let mut links: Vec<(usize, HopLink)> = admission
        .loaded_links()
        .map(|(link, load)| (load, link))
        .collect();
    links.sort();
    links.into_iter().map(|(_, link)| link).collect()
}

/// `SlackLedger::feasible_with` on the real task sets of the link with the
/// median load and of the most loaded link: `(p50_load_ns, max_load_ns)`.
pub fn feasibility(admission: &MultiHopAdmission, bench: &Bench) -> (f64, f64) {
    let links = links_by_load(admission);
    let (Some(&median), Some(&heaviest)) = (links.get(links.len() / 2), links.last()) else {
        return (0.0, 0.0);
    };
    let candidate = typical_task();
    let test = |link: HopLink| {
        let ledger = ledger_of(admission, link);
        bench.ns_per_call(|| ledger.feasible_with(link, &candidate))
    };
    (test(median), test(heaviest))
}

/// One `reserve` plus one `release` on the median-load link.
pub fn ledger_reserve_release(admission: &MultiHopAdmission, bench: &Bench) -> f64 {
    let links = links_by_load(admission);
    let Some(&link) = links.get(links.len() / 2) else {
        return 0.0;
    };
    let mut ledger = ledger_of(admission, link);
    let key = ReservationKey::Channel(u16::MAX);
    let task = typical_task();
    bench.ns_per_call(|| {
        ledger.reserve(link, key, task);
        ledger.release(link, key)
    })
}

/// `MultiHopDps::Asymmetric.partition` over the routes the run admitted, at
/// the loads it left: nanoseconds per route.
pub fn dps_partition(admission: &MultiHopAdmission, bench: &Bench) -> f64 {
    let cases: Vec<(RtChannelSpec, Vec<HopLink>, Vec<usize>)> = admission
        .channels()
        .take(64)
        .map(|channel| {
            let path = channel.path.links().to_vec();
            let loads = path.iter().map(|l| admission.link_load(*l)).collect();
            (channel.spec, path, loads)
        })
        .collect();
    if cases.is_empty() {
        return 0.0;
    }
    let mut next = 0usize;
    bench.ns_per_call(|| {
        let (spec, path, loads) = &cases[next % cases.len()];
        next += 1;
        MultiHopDps::Asymmetric.partition(spec, path, loads)
    })
}

/// Encode plus decode of one `RequestFrame`.
pub fn request_roundtrip(bench: &Bench) -> f64 {
    let (source, destination) = (NodeId::new(1), NodeId::new(2));
    let frame = RequestFrame {
        src_mac: MacAddr::for_node(source),
        dst_mac: MacAddr::for_node(destination),
        src_ip: Ipv4Address::for_node(source),
        dst_ip: Ipv4Address::for_node(destination),
        period: Slots::new(225),
        capacity: Slots::new(4),
        deadline: Slots::new(120),
        rt_channel_id: None,
        connection_request_id: ConnectionRequestId::new(1),
    };
    bench.ns_per_call(|| {
        let bytes = frame.encode().expect("the kernel's request encodes");
        RequestFrame::decode(&bytes)
    })
}

/// Encode plus decode of one `ReservationFrame` carrying a six-link
/// deadline split (a fat-tree route).
pub fn reservation_roundtrip(bench: &Bench) -> f64 {
    let frame = ReservationFrame {
        op: ReservationOp::Reserve,
        reason: ReservationReason::None,
        coordinator: SwitchId::new(3),
        token: 17,
        source: NodeId::new(1),
        destination: NodeId::new(2),
        request_id: ConnectionRequestId::new(1),
        candidate: 0,
        hop: 2,
        channel: None,
        period: Slots::new(225),
        capacity: Slots::new(4),
        deadline: Slots::new(120),
        values: vec![20; 6],
    };
    bench.ns_per_call(|| {
        let bytes = frame.encode().expect("the kernel's reservation encodes");
        ReservationFrame::decode(&bytes)
    })
}

fn data_frame(payload: usize) -> RtDataFrame {
    RtDataFrame {
        eth_src: MacAddr::for_node(NodeId::new(1)),
        eth_dst: MacAddr::for_node(NodeId::new(2)),
        stamp: DeadlineStamp::new(123_456_789, ChannelId::new(7))
            .expect("a nonzero channel id is valid"),
        src_port: 0x4000,
        dst_port: 0x4001,
        payload: vec![0xa5; payload],
    }
}

/// Building the Ethernet frame of one RT datagram, and classifying its wire
/// image back: `(build_ns, classify_ns)`.
pub fn rt_data(payload: usize, bench: &Bench) -> (f64, f64) {
    let frame = data_frame(payload);
    let build = bench.ns_per_call(|| frame.into_ethernet());
    let bytes = frame
        .into_ethernet()
        .expect("the kernel's datagram is well-formed")
        .encode();
    let classify = bench.ns_per_call(|| EthernetFrame::decode(&bytes).and_then(Frame::classify));
    (build, classify)
}

/// One `store` plus one `free` of a `len`-byte frame in a warm `FrameArena`.
pub fn arena_alloc_free(len: usize, bench: &Bench) -> f64 {
    let mut arena = FrameArena::new();
    let bytes = vec![0x5au8; len];
    let resident: Vec<_> = (0..64).map(|_| arena.store(&bytes)).collect();
    let ns = bench.ns_per_call(|| {
        let frame = arena.store(&bytes);
        arena.free(frame);
    });
    resident.into_iter().for_each(|frame| arena.free(frame));
    ns
}

/// Cheap, reproducible spread for the kernels' synthetic inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One pop plus one push on a `CalendarScheduler` holding `pending` events
/// (the classic hold model): each popped event is pushed back a random
/// stretch ahead, with the mean chosen so the clock advances 500 ns per
/// operation — the injection spacing of `wire_preload`.
pub fn event_push_pop(pending: u64, bench: &Bench) -> f64 {
    let pending = (pending / bench.divisor).max(16);
    let span_ns = pending * 500;
    let event = |k: u64| Event::EnqueueAtNode {
        node: NodeId::new((k % 1024) as u32),
        frame: FrameId::new(k),
    };
    let mut scheduler = CalendarScheduler::new();
    let mut rng = 0x5eed_u64;
    let mut seq = 0u64;
    for _ in 0..pending {
        let at = splitmix(&mut rng) % span_ns;
        scheduler.push(SimTime::from_nanos(at), seq, event(seq));
        seq += 1;
    }
    bench.ns_per_call(|| {
        let (now, _) = scheduler.pop().expect("the hold model never drains");
        let ahead = splitmix(&mut rng) % (2 * span_ns);
        scheduler.push(now + Duration::from_nanos(ahead), seq, event(seq));
        seq += 1;
    })
}

/// One `enqueue_rt` plus one `dequeue_next` on an `OutputPort` holding 64
/// deadline-sorted frames — a busy trunk port's steady state.
pub fn port_enqueue_dequeue(bench: &Bench) -> f64 {
    let mut port = OutputPort::new();
    let mut rng = 0xfeed_u64;
    let mut next = 0u64;
    for _ in 0..64 {
        port.enqueue_rt(FrameId::new(next), SimTime::from_micros(next * 80));
        next += 1;
    }
    bench.ns_per_call(|| {
        // Deadlines land a little around the tail of the queue, as the
        // mixed relative deadlines of concurrent channels do.
        let jitter = splitmix(&mut rng) % 2_000;
        port.enqueue_rt(FrameId::new(next), SimTime::from_micros(next * 80 + jitter));
        next += 1;
        port.dequeue_next()
    })
}

/// Host nanoseconds per event of a bare `Simulator` fed window by window
/// from a `ScenarioFrameSource`, deliveries polled after every window, so
/// the pending set and the arena stay at one window's worth: the steady
/// state that `RtNetwork`'s pump is measured against.  Frame generation is
/// charged to the source's own spans, not to the simulator.
pub fn stream_ns_per_event(
    scenario: FabricScenario,
    frames: u64,
    payload: usize,
) -> Result<f64, String> {
    const WINDOW: Duration = Duration::from_millis(1);
    let tracer = Tracer::new(64 + (frames / 400) as usize);
    let mut sim = Simulator::with_topology(SimConfig::default(), scenario.topology())
        .expect("the benchmark fabrics are valid");
    let source =
        ScenarioFrameSource::new(scenario, frames, Duration::from_micros(2)).payload_len(payload);
    let mut source = Traced::new(source, tracer.clone());

    let outer = tracer.enter("netsim.sim.stream");
    let mut delivered = 0u64;
    let mut horizon = sim.now() + WINDOW;
    loop {
        let batch = source.next_batch(horizon);
        sim.inject_batch(batch).map_err(|e| e.to_string())?;
        if source.is_exhausted() {
            sim.run_to_idle();
            delivered += sim.poll_deliveries().len() as u64;
            break;
        }
        sim.run_until(horizon);
        delivered += sim.poll_deliveries().len() as u64;
        horizon += WINDOW;
    }
    tracer.exit(outer);
    if delivered != frames {
        return Err(format!("{delivered} of {frames} streamed frames delivered"));
    }

    let (spans, dropped) = tracer.finish();
    if dropped != 0 {
        return Err(format!("{dropped} spans did not fit the kernel's buffer"));
    }
    let own = Profile::of(&spans).get("netsim.sim.stream").self_ns;
    Ok(own as f64 / sim.events_processed().max(1) as f64)
}

/// Host nanoseconds per event of a two-shard `ShardedSimulator` on the
/// `wire_preload` traffic shape — the one kernel that runs two threads.
pub fn shard2_ns_per_event(scenario: FabricScenario, frames: u64) -> Result<f64, String> {
    let batch = ScenarioFrameSource::new(scenario.clone(), frames, Duration::from_nanos(500))
        .payload_len(64)
        .drain_all();
    let mut sim = ShardedSimulator::new(SimConfig::default(), scenario.topology(), 2)
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    sim.inject_batch(batch).map_err(|e| e.to_string())?;
    sim.run_to_idle();
    let elapsed = started.elapsed();
    let delivered = sim.poll_deliveries().len() as u64;
    if delivered != frames {
        return Err(format!("{delivered} of {frames} sharded frames delivered"));
    }
    Ok(elapsed.as_nanos() as f64 / sim.events_processed().max(1) as f64)
}
