//! # rt-netsim
//!
//! A deterministic discrete-event simulator of the network architecture in
//! §18.1 of the paper, grown from its single switch to a fabric: end nodes
//! attached to store-and-forward full-duplex Ethernet switches, the switches
//! joined by trunks into any connected graph (the paper's star is the
//! one-switch case), and every output port — in the end-node NICs and in the
//! switches — holding a deadline-sorted real-time queue over a FCFS
//! best-effort queue (Figure 18.2).
//!
//! The simulator stands in for the physical 100 Mbit/s Ethernet testbed the
//! paper assumes: transmission times are derived from frame sizes and the
//! configured link speed, propagation delay and switch latency are constant
//! per-hop terms (the paper's `T_latency`), and all queueing decisions are
//! made exactly as the RT layer prescribes — EDF among real-time frames,
//! strict priority of real-time over best-effort, FCFS among best-effort
//! frames.
//!
//! Modules:
//! * [`event`] — the simulation clock and the event scheduler (a calendar
//!   queue plus FIFO delay lanes; debug builds check it, pop by pop, against
//!   a binary heap),
//! * [`port`] — the dual-queue (RT + best effort) output port model,
//! * `switch` (private) — the forwarding core: what the fabric does with one
//!   event, over a read-only fabric view and the mutable lane the events
//!   change, which holds the table of the frames in flight,
//! * [`sim`] — the driver of that core and the public front-end:
//!   construction, injection, channel wire state, faults, the run loops,
//! * [`stats`] — latency / deadline-miss / utilisation accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod port;
pub mod sim;
pub mod stats;
mod switch;

pub use event::{CalendarScheduler, Event, EventQueue, EventScheduler, HeapScheduler};
pub use port::{OutputPort, TrafficClass};
#[doc(hidden)]
pub use sim::ShardedSimulator;
pub use sim::{
    Delivery, FaultScript, FrameId, FrameInjection, LinkFault, SimConfig, Simulator, TrafficSource,
};
pub use stats::{ChannelStats, LinkStats, SimStats};
