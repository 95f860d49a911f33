//! The memory of a preloaded run: frames injected up front with
//! `Simulator::inject_batch` wait in the simulator's frame table and
//! nowhere else, so a run holds per frame its bytes, its table slot and its
//! delivery, and nothing for the events it has pending.
//!
//! The live-byte counts come from the per-thread counting
//! `#[global_allocator]` of `tests/common/counting_alloc.rs`; they are
//! deterministic for a deterministic simulation, so the bound is asserted
//! exactly, not statistically, and it holds on any host.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
// Only `be_frame` is used here.
#[allow(dead_code)]
#[path = "common/frames.rs"]
mod frames;

use counting_alloc::{live_bytes, peak_live_bytes, reset_peak_live_bytes};
use frames::be_frame;
use switched_rt_ethernet::netsim::{Delivery, FrameInjection, SimConfig, Simulator};
use switched_rt_ethernet::types::{Duration, NodeId, SimTime, Topology};

/// Over `inject_batch` and `run_to_idle` of 16 Ki best-effort frames
/// across two switches, built as the batch is taken in and 10 µs apart,
/// the thread's live bytes never exceed the baseline by more than:
///
/// * the frames' bytes, as delivered: the capacity of each payload buffer;
/// * the frame table: a 32-B record and a 40-B byte slot per frame, sized
///   for the whole batch at once;
/// * the deliveries the run keeps until they are polled: one `Delivery`
///   per frame, in a vector whose capacity lands on the frame count, a
///   power of two;
/// * what is in flight: 64 KiB for the ports' queues, the delay lanes, the
///   calendar's few events and, in a debug build, its reference heap.
///
/// No term grows with the events pending.  The bound is 4 456 448 bytes
/// and the peak reads 3 806 848 (232 B a frame: 92 of bytes, 36 of a table
/// shrunk to half and 104 of the deliveries' vector, just doubled to its
/// full size).  While every injection not yet run
/// also sat in the calendar (a 48-B slot, a bucket and, in a debug build,
/// the reference heap's copy), it read 4 854 624 in a release build and
/// 5 510 080 in a debug build.
#[test]
fn a_preloaded_runs_memory_holds_no_pending_event_per_frame() {
    const FRAMES: u64 = 16 * 1024;
    let mut sim = Simulator::with_topology(SimConfig::default(), Topology::line(2, 2))
        .expect("a line fabric always builds");
    // Node 0 or 1 on switch 0 to node 2 or 3 on switch 1, in turn.
    let batch = (0..FRAMES).map(|k| {
        let (node, to) = (NodeId::new((k % 2) as u32), NodeId::new(2 + (k % 2) as u32));
        let at = SimTime::ZERO + Duration::from_micros(10 * k);
        FrameInjection {
            node,
            eth: be_frame(node, to, 64),
            at,
        }
    });

    let base = live_bytes();
    reset_peak_live_bytes();
    sim.inject_batch(batch).unwrap();
    sim.run_to_idle();
    let peak = peak_live_bytes() - base;

    let deliveries = sim.poll_deliveries();
    assert_eq!(deliveries.len() as u64, FRAMES);
    assert_eq!(sim.stats().total_dropped(), 0);
    let bytes: usize = deliveries.iter().map(|d| d.eth.payload.capacity()).sum();
    let frames = FRAMES as usize;
    let frame_table = frames * (32 + 40);
    let delivered = frames * std::mem::size_of::<Delivery>();
    let in_flight = 64 * 1024;
    let bound = (bytes + frame_table + delivered + in_flight) as i64;
    assert!(
        peak <= bound,
        "{peak} live bytes at the peak for {FRAMES} preloaded frames: more than \
         their bytes ({bytes}), the frame table ({frame_table}), the deliveries \
         ({delivered}) and {in_flight} bytes in flight"
    );
}
