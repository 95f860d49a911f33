//! # rt-frames
//!
//! Wire formats for the switched real-time Ethernet stack:
//!
//! * plain Ethernet II framing ([`ethernet`]),
//! * IPv4 and UDP headers with internet checksums ([`ipv4`], [`udp`]),
//! * the paper's RT-layer control frames — the *RequestFrame* of Figure 18.3
//!   ([`rt_request`]) and the *ResponseFrame* of Figure 18.4
//!   ([`rt_response`]),
//! * the deadline-stamping of outgoing real-time datagrams described in
//!   §18.2.2, where the absolute deadline and the RT-channel ID are written
//!   over the IP source/destination addresses and the ToS field is set to
//!   255 ([`rt_data`]),
//! * a top-level [`codec::Frame`] enum that classifies and round-trips any of
//!   the above (plus [`codec::Frame::peek`], the borrowed zero-copy
//!   classifier the simulator hot path uses),
//! * an arena of reusable frame buffers ([`arena`]): measured against plain
//!   owned frames and no longer used by the simulator; it stays only until
//!   the benchmark's `frames.arena.*` rows, which time it, are retired.
//!
//! Every codec offers both an owned `encode() -> Vec<u8>` entry point and an
//! `encode_into(&mut Vec<u8>)` variant that appends to a caller-supplied
//! buffer; the two are byte-for-byte identical,
//! which the golden-bytes tests in each module enforce.
//!
//! Everything is plain safe Rust over `Vec<u8>`/`&[u8]`; no external byte
//! crates are required.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod codec;
pub mod ethernet;
pub mod ipv4;
pub mod reservation;
pub mod rt_data;
pub mod rt_request;
pub mod rt_response;
pub mod udp;
pub mod wire;

pub use arena::{ArenaStats, FrameArena, FrameRef};
pub use codec::{Frame, FramePeek};
pub use ethernet::EthernetFrame;
pub use ipv4::Ipv4Header;
pub use reservation::{ReservationFrame, ReservationOp, ReservationReason};
pub use rt_data::RtDataFrame;
pub use rt_request::RequestFrame;
pub use rt_response::ResponseFrame;
pub use udp::UdpHeader;
