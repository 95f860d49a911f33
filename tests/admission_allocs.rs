//! The allocation budget of the central manager's fast path: what one
//! arrival asks the allocator for once the fabric is warm.
//!
//! The counts come from the per-thread counting `#[global_allocator]` of
//! `tests/common/counting_alloc.rs`, shared with `tests/pump.rs`.  They are
//! deterministic for a deterministic manager, so they are asserted as bounds,
//! not statistically; a growing `realloc` counts, a shrinking one does not.
//!
//! The budgets are what PR 16 measured, beside its parent's on the same
//! warmed fabric:
//!
//! | | parent | since PR 16 |
//! |---|---|---|
//! | accepted cycle (`Request` + `Response` + `Teardown`) | 27 (24 + 2 + 1) | 8 (5 + 2 + 1) |
//! | refused `Request` | 15 | 5 |
//!
//! The parent's request built a `Vec` of loads, four temporaries in
//! `partition`, a task `Vec` per link test, a `BTreeSet` and three growth
//! steps per route, a rejection `String` per refusal, and cloned the route
//! and the deadlines of every channel it stored.  What is left of a request:
//! the router's candidate list and the route's links, the deadline split,
//! the manager's action `Vec` and the located-emission `Vec` the
//! `ChannelManager::handle_frame_at` default builds from it (the last two
//! again per response; a teardown allocates its `released` list).  `rtbench`'s
//! traced `core.manager.allocs_per_attempt` on `churn_central` (27.2 at the
//! parent) adds to these the growth of books and tables under churn.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use switched_rt_ethernet::core::manager::SwitchAction;
use switched_rt_ethernet::core::protocol::ChannelRequest;
use switched_rt_ethernet::core::{
    ChannelManager, ControlOutcome, FabricChannelManager, MultiHopAdmission, MultiHopDps,
    RtChannelSpec,
};
use switched_rt_ethernet::frames::codec::TeardownFrame;
use switched_rt_ethernet::frames::rt_response::ResponseVerdict;
use switched_rt_ethernet::frames::{Frame, ResponseFrame};
use switched_rt_ethernet::types::{
    ChannelId, ConnectionRequestId, MacAddr, NodeId, SimTime, Slots, SwitchId, Topology,
};

const AT: SwitchId = SwitchId::new(0);

/// Allocations one accepted `Request` + `Response` + `Teardown` cycle may make.
const ACCEPTED_CYCLE: u64 = 8;
/// Allocations one refused `Request` may make.
const REFUSED_REQUEST: u64 = 5;

fn request(source: u32, destination: u32, spec: RtChannelSpec, id: u8) -> Frame {
    Frame::Request(
        ChannelRequest {
            source: NodeId::new(source),
            destination: NodeId::new(destination),
            spec,
            request_id: ConnectionRequestId::new(id),
        }
        .to_frame(),
    )
}

fn deliver(manager: &mut FabricChannelManager, from: u32, frame: &Frame) -> ControlOutcome {
    manager
        .handle_frame_at(AT, NodeId::new(from), frame, SimTime::ZERO)
        .expect("a well-formed control frame")
}

/// Request a channel; `Some(id)` if the manager forwarded the request to the
/// destination (admitted, pending its answer), `None` if it refused.
fn ask(manager: &mut FabricChannelManager, frame: &Frame, from: u32) -> Option<ChannelId> {
    match deliver(manager, from, frame).emissions.pop() {
        Some((_, SwitchAction::ForwardRequest { frame, .. })) => frame.rt_channel_id,
        Some((_, SwitchAction::SendResponse { frame, .. })) => {
            assert!(!frame.verdict.is_accepted());
            None
        }
        other => panic!("unexpected answer to a request: {other:?}"),
    }
}

fn accept(manager: &mut FabricChannelManager, id: ChannelId, destination: u32) {
    let response = Frame::Response(ResponseFrame {
        rt_channel_id: Some(id),
        switch_mac: MacAddr::for_switch(),
        verdict: ResponseVerdict::Accepted,
        connection_request_id: ConnectionRequestId::new(0),
    });
    deliver(manager, destination, &response);
}

fn teardown(manager: &mut FabricChannelManager, id: ChannelId, source: u32) {
    let frame = Frame::Teardown(TeardownFrame { rt_channel_id: id });
    assert_eq!(deliver(manager, source, &frame).released.len(), 1);
}

/// A `fat_tree(4)` central manager in steady state: every link the measured
/// arrivals cross already holds reservations (so no book is created or
/// dropped), node 0's uplink is full, and every table has seen its size.
fn warmed() -> FabricChannelManager {
    let topology = Topology::fat_tree(4).expect("radix 4 is a valid fat tree");
    let mut manager =
        FabricChannelManager::new(MultiHopAdmission::new(topology, MultiHopDps::Asymmetric));
    // Three channels of U = 0.3 each fill node 0's uplink: a fourth is over.
    for round in 0..4 {
        let frame = request(0, 15, heavy(), round);
        match ask(&mut manager, &frame, 0) {
            Some(id) => accept(&mut manager, id, 15),
            None => assert_eq!(round, 3, "the uplink holds three"),
        }
    }
    // Cross-pod traffic that stays, and a few cycles of what is measured.
    for round in 0..8u8 {
        let frame = request(1, 14, light(), round);
        let id = ask(&mut manager, &frame, 1).expect("a light fabric admits it");
        accept(&mut manager, id, 14);
        if round >= 2 {
            teardown(&mut manager, id, 1);
        }
    }
    manager
}

/// `U = 0.01` and ten slots of deadline per hop: dozens fit on any link.
fn light() -> RtChannelSpec {
    RtChannelSpec::new(Slots::new(100), Slots::new(1), Slots::new(60)).unwrap()
}

/// `U = 0.3`, with a deadline of one period per hop of a six-link route.
fn heavy() -> RtChannelSpec {
    RtChannelSpec::new(Slots::new(100), Slots::new(30), Slots::new(600)).unwrap()
}

/// One accepted arrival, end to end: `Request` (route, partition, six link
/// tests, commit, forward), the destination's `Response`, and the `Teardown`
/// that ends the channel.
#[test]
fn an_accepted_cycle_stays_inside_its_allocation_budget() {
    let mut manager = warmed();
    let frame = request(1, 14, light(), 99);

    let before = allocations();
    let id = ask(&mut manager, &frame, 1).expect("the warmed fabric admits one more");
    let requested = allocations() - before;
    accept(&mut manager, id, 14);
    let answered = allocations() - before - requested;
    teardown(&mut manager, id, 1);
    let cycle = allocations() - before;

    assert!(
        cycle <= ACCEPTED_CYCLE,
        "{cycle} allocations for one accepted cycle \
         (request {requested}, response {answered}), budget {ACCEPTED_CYCLE}"
    );
}

/// One refused arrival: the route, the deadline split, the link test that
/// says no, and the rejection sent back — a typed cause, no text.
#[test]
fn a_refused_request_stays_inside_its_allocation_budget() {
    let mut manager = warmed();
    let frame = request(0, 15, heavy(), 99);

    let before = allocations();
    let verdict = ask(&mut manager, &frame, 0);
    let refused = allocations() - before;

    assert_eq!(verdict, None, "node 0's uplink is full");
    assert!(
        refused <= REFUSED_REQUEST,
        "{refused} allocations for one refused request, budget {REFUSED_REQUEST}"
    );
}
