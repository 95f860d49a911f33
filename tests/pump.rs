//! The cost and the manners of the `RtNetwork` pump: a delivered RT frame
//! is *moved* from its injection through the simulator into
//! `received_messages()`, never copied, and a frame that arrives for a
//! channel released mid-run is ignored, never an error.
//!
//! The allocation count comes from the per-thread counting
//! `#[global_allocator]` of `tests/common/counting_alloc.rs`; it is
//! deterministic for a deterministic simulation, so it is asserted exactly as
//! a bound, not statistically.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use switched_rt_ethernet::core::{MultiHopDps, RtChannelSpec, RtNetwork};
use switched_rt_ethernet::types::constants::{IPV4_HEADER_BYTES, UDP_HEADER_BYTES};
use switched_rt_ethernet::types::{Duration, NodeId, SimTime, Topology};

/// sw0 — sw1 — sw2, two nodes each: node 0 to node 5 crosses both trunks.
fn line() -> RtNetwork {
    RtNetwork::builder()
        .topology(Topology::line(3, 2))
        .multihop_dps(MultiHopDps::Asymmetric)
        .build()
        .expect("a line fabric always builds")
}

/// No copy of a delivered frame's bytes is left: the buffer `send_periodic`
/// injected is moved through the simulator into the delivery, and from
/// there into the received message (which keeps the buffer as delivered,
/// the capacity of its header bytes included: no reallocation); the pump's
/// own buffers are reused from poll to poll.  What remains is a handful of growths of vectors that
/// outlive the window (the received-message list among them), not a cost
/// per frame.  The delivery used to clone the injected frame, one
/// allocation per frame (1 218 for 1 200 frames); before that, four copies
/// and five allocations (the delivery's decode, the pending-delivery vector
/// of every poll, `eth.clone()`, `from_ethernet`'s `to_vec`,
/// `handle_data`'s `payload.clone()`).
///
/// `cargo test` runs this in a debug build, with the queue's reference heap
/// beside the calendar: `send_periodic` has pushed every frame's first event
/// before the counted window opens and a frame holds one pending event at a
/// time, so the heap's buffer never grows inside the window — the count is
/// the same in a debug and in a release build.
#[test]
fn a_delivered_rt_frame_is_moved_into_its_message_never_copied() {
    let mut net = line();
    let spec = RtChannelSpec::paper_default();
    let tx = net
        .establish_channel(NodeId::new(0), NodeId::new(5), spec)
        .unwrap()
        .expect("the empty fabric admits the channel");
    let messages = 400;
    let start = net.now() + Duration::from_millis(1);
    net.send_periodic(NodeId::new(0), tx.id, messages, 1000, start)
        .unwrap();

    let before = allocations();
    net.run_to_completion().unwrap();
    let allocated = allocations() - before;

    let frames = messages * spec.capacity.get();
    assert_eq!(net.received_messages().len() as u64, frames);
    assert!(net.received_messages().iter().all(|m| !m.missed_deadline));
    assert!(
        allocated <= frames / 20,
        "{allocated} allocations for {frames} delivered RT frames ({:.2} per frame)",
        allocated as f64 / frames as f64
    );
}

/// A received payload is the delivered buffer as it came: it keeps the
/// capacity of the IPv4 and UDP headers the RT layer cut off in front, and
/// holds exactly the bytes `send_periodic` sent — nothing of the headers,
/// nothing of a short frame's padding — from one byte to a full frame.
#[test]
fn a_received_payload_is_exact_in_a_buffer_that_kept_its_header_capacity() {
    let mut net = line();
    let spec = RtChannelSpec::paper_default();
    let src = NodeId::new(0);
    let tx = net
        .establish_channel(src, NodeId::new(5), spec)
        .unwrap()
        .expect("the empty fabric admits the channel");
    let lengths = [1usize, 17, 18, 333, 1000, 1472];
    let mut at = net.now() + Duration::from_millis(1);
    for &len in &lengths {
        net.send_periodic(src, tx.id, 1, len, at).unwrap();
        at += Duration::from_millis(1);
    }
    net.run_to_completion().unwrap();

    let frames = spec.capacity.get() as usize;
    let received = net.received_messages();
    assert_eq!(received.len(), lengths.len() * frames);
    for (delivered, &len) in received.iter().zip(
        lengths
            .iter()
            .flat_map(|len| std::iter::repeat_n(len, frames)),
    ) {
        let payload = &delivered.message.payload;
        assert_eq!(*payload, vec![0u8; len], "a {len}-byte payload");
        assert!(
            payload.capacity() >= len + IPV4_HEADER_BYTES + UDP_HEADER_BYTES,
            "a {len}-byte payload in a buffer of {} bytes",
            payload.capacity()
        );
    }
}

/// A teardown that lands while frames of the channel are past their last
/// switch: the wire delivers them to a receiver that has forgotten the
/// channel.  The pump ignores them — they are delivered on the wire and
/// absent from `received_messages()` — and the run goes on to its end.
#[test]
fn a_late_frame_of_a_released_channel_is_ignored_not_an_error() {
    let spec = RtChannelSpec::paper_default();
    let (src, dst) = (NodeId::new(0), NodeId::new(5));
    let mut ignored_somewhere = false;
    // Sweep the teardown across the flight of one message's three frames.
    for offset_us in (60..=600).step_by(30) {
        let mut net = line();
        let tx = net.establish_channel(src, dst, spec).unwrap().unwrap();
        let start = net.now();
        net.send_periodic(src, tx.id, 1, 1000, start).unwrap();
        net.run_until(start + Duration::from_micros(offset_us))
            .unwrap();
        net.teardown_channel(src, tx.id)
            .unwrap_or_else(|e| panic!("offset {offset_us} us: teardown aborted: {e}"));
        net.run_to_completion()
            .unwrap_or_else(|e| panic!("offset {offset_us} us: run aborted: {e}"));
        assert_eq!(net.channel_count(), 0);

        let stats = net.simulator().stats();
        let on_the_wire = stats.channel(tx.id).map_or(0, |c| c.delivered);
        let received = net.received_messages().len() as u64;
        assert!(received <= on_the_wire, "offset {offset_us} us");
        assert_eq!(
            on_the_wire + stats.released_channel_dropped,
            spec.capacity.get(),
            "offset {offset_us} us: every frame is delivered or dropped and counted"
        );
        ignored_somewhere |= received < on_the_wire;
    }
    assert!(
        ignored_somewhere,
        "no offset of the sweep left a frame on the downlink behind the release"
    );
}

/// A `count` too large for the frame counter or the simulated clock is an
/// error, not a panic, and leaves the network as it was: nothing injected,
/// no event pending, and an honest count right after still runs.
#[test]
fn a_periodic_count_past_the_clock_is_an_error_that_changes_nothing() {
    let mut net = line();
    let spec = RtChannelSpec::paper_default();
    let (src, dst) = (NodeId::new(0), NodeId::new(5));
    let tx = net.establish_channel(src, dst, spec).unwrap().unwrap();
    let start = net.now();
    let injected = net.simulator().injected_count();
    let pending = net.simulator().events_pending();
    for count in [
        u64::MAX,
        u64::MAX / spec.capacity.get() + 1,
        u64::MAX / 1_000,
    ] {
        let refused = net.send_periodic(src, tx.id, count, 1000, start);
        assert!(refused.is_err(), "count {count} accepted");
        assert_eq!(net.simulator().injected_count(), injected, "count {count}");
        assert_eq!(net.simulator().events_pending(), pending, "count {count}");
    }
    // The last release and its deadline must fit the clock, too.
    let late = SimTime::from_nanos(u64::MAX - 1_000);
    assert!(net.send_periodic(src, tx.id, 1, 1000, late).is_err());
    assert_eq!(net.simulator().injected_count(), injected);

    net.send_periodic(src, tx.id, 2, 1000, start).unwrap();
    net.run_to_completion().unwrap();
    assert_eq!(
        net.received_messages().len() as u64,
        2 * spec.capacity.get()
    );
}
