//! The cost and the manners of the `RtNetwork` pump: a delivered RT frame
//! is built just before its release and *moved* from its injection through
//! the simulator into the receiver's parse, never copied; a run holds what
//! is in flight, not what was sent; and a frame that arrives for a channel
//! released mid-run is ignored, never an error.
//!
//! The allocation and live-byte counts come from the per-thread counting
//! `#[global_allocator]` of `tests/common/counting_alloc.rs`; they are
//! deterministic for a deterministic simulation, so they are asserted
//! exactly as bounds, not statistically.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations, live_bytes, peak_live_bytes, reset_peak_live_bytes};
use switched_rt_ethernet::core::rtlayer::RtLayerConfig;
use switched_rt_ethernet::core::{MultiHopDps, RtChannelSpec, RtLayer, RtNetwork};
use switched_rt_ethernet::frames::rt_data::RtDataFrame;
use switched_rt_ethernet::frames::rt_response::ResponseVerdict;
use switched_rt_ethernet::frames::{Frame, ResponseFrame};
use switched_rt_ethernet::types::constants::{IPV4_HEADER_BYTES, UDP_HEADER_BYTES};
use switched_rt_ethernet::types::{ChannelId, Duration, MacAddr, NodeId, SimTime, Topology};

/// sw0 — sw1 — sw2, two nodes each: node 0 to node 5 crosses both trunks.
fn line() -> RtNetwork {
    RtNetwork::builder()
        .topology(Topology::line(3, 2))
        .multihop_dps(MultiHopDps::Asymmetric)
        .build()
        .expect("a line fabric always builds")
}

/// No copy of a delivered frame's bytes is made: `send_periodic` builds
/// nothing, the pump builds each message's frame just before its release
/// (one buffer per frame: the message's image and its `C - 1` clones) and
/// the buffer moves through the simulator into the delivery and from there
/// into the receiving RT layer's parse, which frees it.  What remains is a
/// handful of growths of vectors that outlive the window (the received-
/// message list among them), not a cost per frame.  The count covers the
/// send and the run together: 1 215 for 1 200 frames (1 233 while the
/// simulator's frame table grew with every frame injected), where
/// building every frame in `send_periodic` took 1 644 — a zeroed payload, its
/// image and `C - 1` clones per message, and the batch.  The delivery used
/// to clone the injected frame, one more allocation per frame; before that,
/// four copies and five allocations.
///
/// `cargo test` runs this in a debug build, with the queue's reference heap
/// beside the calendar: a frame holds one pending event at a time and the
/// pending set stays a few frames deep, so the heap's buffer stops growing
/// within the first messages — the count is the same in a debug and in a
/// release build.
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

    let before = allocations();
    net.send_periodic(NodeId::new(0), tx.id, messages, 1000, start)
        .unwrap();
    net.run_to_completion().unwrap();
    let allocated = allocations() - before;

    let frames = messages * spec.capacity.get();
    assert_eq!(net.received_messages().len() as u64, frames);
    assert!(net.received_messages().iter().all(|m| !m.missed_deadline));
    assert!(
        allocated <= frames + frames / 20,
        "{allocated} allocations for {frames} delivered RT frames ({:.2} per frame)",
        allocated as f64 / frames as f64
    );
}

/// The memory of a run follows what is in flight, not what was sent: over
/// `send_periodic` and `run_to_completion` of a 400-message stream of three
/// 1 000-byte frames per message, the thread's live bytes never exceed the
/// baseline by more than the delivered messages — 48 B each, in a vector
/// that may have doubled — plus a few frames in flight and the simulator's
/// frame table: a 32-B record and a 40-B byte slot per frame in flight, 64
/// of them allowed.  The peak read 250 KB when the table kept a record and
/// a slot per frame ever injected, and 103 KB since it pops the frames
/// that have left.  A send that
/// built every frame up front, or a message list that kept every payload,
/// holds more than `messages × C × 1 000` bytes at once.
#[test]
fn a_streams_memory_follows_what_is_in_flight_not_what_was_sent() {
    let mut net = line();
    let spec = RtChannelSpec::paper_default();
    let tx = net
        .establish_channel(NodeId::new(0), NodeId::new(5), spec)
        .unwrap()
        .expect("the empty fabric admits the channel");
    let (messages, payload) = (400u64, 1000usize);
    let frames = messages * spec.capacity.get();
    let start = net.now() + Duration::from_millis(1);

    let base = live_bytes();
    reset_peak_live_bytes();
    net.send_periodic(NodeId::new(0), tx.id, messages, payload, start)
        .unwrap();
    net.run_to_completion().unwrap();
    let peak = peak_live_bytes() - base;

    assert_eq!(net.received_messages().len() as u64, frames);
    let sent = (frames as usize * payload) as i64;
    let messages_kept = 2 * 48 * frames as i64;
    let in_flight = 16 * 1024;
    let frame_table = 64 * (32 + 40);
    assert!(
        peak <= messages_kept + in_flight + frame_table,
        "{peak} live bytes at the peak for {frames} frames ({sent} bytes sent): \
         more than the delivered messages ({messages_kept}), a few frames in \
         flight and the frame table ({frame_table})"
    );
}

/// A received payload is the delivered buffer as it came: it keeps the
/// capacity of the IPv4 and UDP headers the RT layer cut off in front, and
/// holds exactly the bytes `send_periodic` sends — nothing of the headers,
/// nothing of a short frame's padding — from one byte to a full frame.  The
/// frames are the ones a stream's template builds, taken apart as the pump
/// takes them apart ([`RtDataFrame::from_ethernet`]) and handed to the
/// receiving layer; `RtNetwork` keeps only their lengths, which the second
/// half checks on the wire.
#[test]
fn a_received_payload_is_exact_in_a_buffer_that_kept_its_header_capacity() {
    let spec = RtChannelSpec::paper_default();
    let (src, dst, channel) = (NodeId::new(0), NodeId::new(5), ChannelId::new(9));
    let lengths = [1usize, 17, 18, 333, 1000, 1472];
    let period = Duration::from_millis(1);

    // The two layers as a handshake over channel 9 leaves them.
    let mut source = RtLayer::new(src, RtLayerConfig::default());
    let mut destination = RtLayer::new(dst, RtLayerConfig::default());
    let (request_id, request) = source.request_channel(dst, spec).unwrap();
    let Frame::Request(mut forwarded) = Frame::classify(request).unwrap() else {
        panic!("a channel request classifies as one");
    };
    forwarded.rt_channel_id = Some(channel);
    destination.handle_forwarded_request(&forwarded).unwrap();
    source
        .handle_response(&ResponseFrame {
            rt_channel_id: Some(channel),
            switch_mac: MacAddr::for_switch(),
            verdict: ResponseVerdict::Accepted,
            connection_request_id: request_id,
        })
        .unwrap();
    for &len in &lengths {
        let at = SimTime::from_millis(len as u64);
        let template = source.prepare_stream(channel, len, at, period, 1).unwrap();
        let data = RtDataFrame::from_ethernet(template.frame(at).unwrap()).unwrap();
        let payload = destination.handle_data(data).unwrap().payload;
        assert_eq!(payload, vec![0u8; len], "a {len}-byte payload");
        assert!(
            payload.capacity() >= len + IPV4_HEADER_BYTES + UDP_HEADER_BYTES,
            "a {len}-byte payload in a buffer of {} bytes",
            payload.capacity()
        );
    }

    let mut net = line();
    let tx = net
        .establish_channel(src, dst, spec)
        .unwrap()
        .expect("the empty fabric admits the channel");
    let mut at = net.now() + Duration::from_millis(1);
    for &len in &lengths {
        net.send_periodic(src, tx.id, 1, len, at).unwrap();
        at += period;
    }
    net.run_to_completion().unwrap();
    let frames = spec.capacity.get() as usize;
    let received: Vec<usize> = net
        .received_messages()
        .iter()
        .map(|m| m.payload_len)
        .collect();
    let sent: Vec<usize> = lengths
        .iter()
        .flat_map(|&len| std::iter::repeat_n(len, frames))
        .collect();
    assert_eq!(received, sent);
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
