//! The allocation budget of an arrival, through the central manager's fast
//! path and through the distributed manager's handshake: what one arrival
//! asks the allocator for once the fabric is warm.
//!
//! The counts come from the per-thread counting `#[global_allocator]` of
//! `tests/common/counting_alloc.rs`, shared with `tests/pump.rs`.  They are
//! deterministic for a deterministic manager, so they are asserted as bounds,
//! not statistically; a growing `realloc` counts, a shrinking one does not.
//!
//! The budgets are what PR 16 and then PR 23 measured, beside PR 16's parent,
//! on the same warmed fabric:
//!
//! | | parent | since PR 16 | since PR 23 |
//! |---|---|---|---|
//! | accepted cycle (`Request` + `Response` + `Teardown`) | 27 (24 + 2 + 1) | 8 (5 + 2 + 1) | 6 (4 + 1 + 1) |
//! | refused `Request` | 15 | 5 | 4 |
//!
//! PR 16's parent built a `Vec` of loads, four temporaries in `partition`, a
//! task `Vec` per link test, a `BTreeSet` and three growth steps per route, a
//! rejection `String` per refusal, and cloned the route and the deadlines of
//! every channel it stored; until PR 23 a request and a response each built
//! an action `Vec` that the `ChannelManager::handle_frame_at` default copied
//! into a located-emission `Vec`.  What is left of a request: the router's
//! candidate list and the route's links, the deadline split, and the
//! outcome's one-emission list (that list again per response; a teardown
//! allocates its `released` list).  The ledger asks for nothing once a link
//! has its book, whether or not the book went empty in between: PR 23's books
//! keep their slot and their capacity, where a host link that went 0 → 1 → 0
//! reservations used to cost a tree node and two `Vec`s each time round.
//! `rtbench`'s traced `core.manager.allocs_per_attempt` on `churn_central`
//! (27.2 at PR 16's parent, 8.4 since PR 16, 6.7 since PR 23) adds to these
//! the growth of books and tables under churn.
//!
//! The distributed handshake, frame by frame on the same warmed fabric (an
//! inter-pod route: five switches, six links), at five stages: the first
//! protocol; hops that read the memoised route instead of cloning it; a last
//! Probe hop that hands its Reserve list on instead of copying it; one that
//! reads the loads into stack slots and turns the deadline split into that
//! list in place; and Probe and Reserve carrying the route's switch sequence,
//! the last Probe hop writing the split straight after it (the budgets
//! below):
//!
//! | | frames | first | route read | list handed on | split in place | route carried |
//! |---|---|---|---|---|---|---|
//! | accepted (`Request` → 4 `Probe` → 4 `Reserve` → `Response` → 4 `Confirm`) | 14 | 90 | 27 | 26 | 24 | 24 |
//! | its `Teardown` → 4 `Release` | 5 | 13 | 9 | 9 | 9 | 9 |
//! | refused (`Request` → 4 `Probe` → 4 `Reserve` → 4 `Rollback` → `ReserveFailed`) | 14 | 87 | 25 | 24 | 22 | 22 |
//!
//! The first protocol cloned the candidate route and built the switch
//! sequence and an owned-link list on every hop (seven allocations per
//! forwarded Probe or Reserve, four per Rollback), built every outcome
//! through two `Vec`s, and grew the cloned `values` list of each forwarded
//! Probe.  What a hop still asks for is in the public types: the `values`
//! list of the frame it forwards (`ReservationFrame::values`: Probe, Reserve
//! and Release carry one) and the emission list of its outcome
//! (`ControlOutcome::emissions`) — two per forwarded Probe, Reserve or
//! Release, one per Confirm or Rollback, which carry no list: a site walks
//! them on from its key's record.  Beside those: the last Probe hop reads the
//! loads into stack slots and writes the route and the deadline split into
//! the Reserve frame's list, handed on whole (two in all, with the outcome's
//! list), the coordinator copies the split, commit copies the route into the
//! registry, a teardown builds its itinerary and its `released` list, the
//! maps of coordinations, relays and committed channels allocate a node now
//! and then, and the sites' key records and the route memo grow their tables.
//! `rtbench`'s traced `core.manager.allocs_per_attempt` on `churn_distributed`
//! reads 29.27 since PR 25 (30.41 before it, 86.2 at PR 17's parent): 45 % of
//! its arrivals are refused, most of them earlier than the refusal measured
//! here.
//!
//! A trunk repair is held to a difference, not to a budget: one that lands
//! on a fabric state every live channel was already seen on asks for the
//! same blocks over 50 channels and over 500 — through either manager, whose
//! repair is one piece of code (before PR 22 the central manager asked the
//! router for a route per channel, and the distributed one until PR 24).

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use std::collections::VecDeque;
use std::sync::Arc;
use switched_rt_ethernet::core::manager::SwitchAction;
use switched_rt_ethernet::core::protocol::ChannelRequest;
use switched_rt_ethernet::core::{
    ChannelManager, ControlOutcome, DistributedChannelManager, FabricChannelManager,
    MultiHopAdmission, MultiHopDps, RtChannelSpec,
};
use switched_rt_ethernet::frames::codec::TeardownFrame;
use switched_rt_ethernet::frames::rt_response::ResponseVerdict;
use switched_rt_ethernet::frames::{Frame, ReservationOp, ResponseFrame};
use switched_rt_ethernet::types::{
    ChannelId, ConnectionRequestId, HopLink, MacAddr, NodeId, ShortestPathRouter, SimTime, Slots,
    SwitchId, Topology,
};

const AT: SwitchId = SwitchId::new(0);

/// Allocations one accepted `Request` + `Response` + `Teardown` cycle may make.
const ACCEPTED_CYCLE: u64 = 6;
/// Allocations one refused `Request` may make.
const REFUSED_REQUEST: u64 = 4;

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
/// arrivals cross already holds reservations (so no link is interned), node
/// 0's uplink is full, and every table has seen its size.
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

/// A host link that goes 0 → 1 → 0 → 1 reservations — under churn on a
/// thousand hosts, nearly every host link every time — finds its book where
/// it left it.  Nodes 2 and 13 have asked for nothing yet: the first cycle
/// between them interns their links (books, and a slot each), the second asks
/// the ledger's allocator for nothing at all and costs exactly what a cycle
/// costs between hosts whose links hold other channels throughout.
#[test]
fn a_link_that_empties_and_refills_asks_the_allocator_for_nothing() {
    let mut manager = warmed();
    let host_links = [
        HopLink::Uplink(NodeId::new(2)),
        HopLink::Downlink(NodeId::new(13)),
    ];
    let idle =
        |manager: &FabricChannelManager| host_links.iter().all(|l| manager.link_load(*l) == 0);
    let cycle = |manager: &mut FabricChannelManager, source: u32, destination: u32| {
        let frame = request(source, destination, light(), 99);
        let before = allocations();
        let id = ask(manager, &frame, source).expect("a light fabric admits it");
        accept(manager, id, destination);
        teardown(manager, id, source);
        allocations() - before
    };

    assert!(idle(&manager), "nothing has crossed these host links");
    let first = cycle(&mut manager, 2, 13);
    assert!(idle(&manager), "and nothing stays on them");
    let second = cycle(&mut manager, 2, 13);
    let steady = cycle(&mut manager, 1, 14);

    assert!(
        first > second,
        "the first cycle ({first}) books links the second ({second}) finds booked"
    );
    assert_eq!(
        second, steady,
        "a link that emptied costs what a link that never did costs"
    );
    assert!(
        second <= ACCEPTED_CYCLE,
        "{second} allocations for the refilling cycle, budget {ACCEPTED_CYCLE}"
    );
}

// --- the distributed handshake, frame by frame -----------------------------

/// Allocations of one accepted inter-pod establishment's 14 frames.
const DISTRIBUTED_ACCEPTED: u64 = 24;
/// Allocations of its teardown's 5 frames.
const DISTRIBUTED_TEARDOWN: u64 = 9;
/// Allocations of one refused inter-pod request's 14 frames.
const DISTRIBUTED_REFUSED: u64 = 22;

/// One delivery to the distributed manager: where, which reservation op (if
/// the frame was one), and what `handle_frame_at` asked the allocator for.
type Hop = (SwitchId, Option<ReservationOp>, u64);

/// Deliver `frame` and everything it sets off, switch to switch at time zero,
/// destinations accepting — the churn pump's loop, with the allocator read
/// around each `handle_frame_at` so that the queue here stays outside the
/// count.  Returns the verdict the requester heard, if one was sent, and the
/// deliveries made.
fn pump(
    manager: &mut DistributedChannelManager,
    topology: &Topology,
    from: u32,
    frame: Frame,
) -> (Option<Option<ChannelId>>, Vec<Hop>) {
    let from = NodeId::new(from);
    let access = topology.switch_of(from).expect("an attached node");
    deliver_all(manager, topology, VecDeque::from([(access, from, frame)]))
}

/// Deliver the link-state flood the last fault notification queued, to
/// convergence.
fn flood(manager: &mut DistributedChannelManager, topology: &Topology) {
    let announced = manager.drain_control().into_iter().map(|(_, action)| {
        let SwitchAction::SendControl { to, frame } = action else {
            panic!("a fault notification queues control frames only: {action:?}")
        };
        (to, NodeId::SWITCH, Frame::Reservation(frame))
    });
    deliver_all(manager, topology, announced.collect());
}

/// [`pump`]'s loop, over whatever is queued to begin with.
fn deliver_all(
    manager: &mut DistributedChannelManager,
    topology: &Topology,
    mut queue: VecDeque<(SwitchId, NodeId, Frame)>,
) -> (Option<Option<ChannelId>>, Vec<Hop>) {
    let access = |node: NodeId| topology.switch_of(node).expect("an attached node");
    let (mut verdict, mut hops) = (None, Vec::with_capacity(16));
    while let Some((at, from, frame)) = queue.pop_front() {
        let op = match &frame {
            Frame::Reservation(frame) => Some(frame.op),
            _ => None,
        };
        let before = allocations();
        let outcome = manager
            .handle_frame_at(at, from, &frame, SimTime::ZERO)
            .expect("a well-formed control frame");
        hops.push((at, op, allocations() - before));
        for (_, action) in outcome.emissions {
            match action {
                SwitchAction::SendControl { to, frame } => {
                    queue.push_back((to, NodeId::SWITCH, Frame::Reservation(frame)));
                }
                SwitchAction::ForwardRequest { to, frame } => {
                    let accepted = Frame::Response(ResponseFrame {
                        rt_channel_id: frame.rt_channel_id,
                        switch_mac: MacAddr::for_switch(),
                        verdict: ResponseVerdict::Accepted,
                        connection_request_id: frame.connection_request_id,
                    });
                    queue.push_back((access(to), to, accepted));
                }
                SwitchAction::SendResponse { frame, .. } => {
                    verdict = Some(frame.rt_channel_id.filter(|_| frame.verdict.is_accepted()));
                }
            }
        }
    }
    (verdict, hops)
}

fn allocated(hops: &[Hop]) -> u64 {
    hops.iter().map(|(_, _, allocs)| allocs).sum()
}

fn distributed(topology: &Topology) -> DistributedChannelManager {
    let router = Arc::new(ShortestPathRouter::new());
    DistributedChannelManager::new(topology.clone(), MultiHopDps::Asymmetric, router)
}

/// The distributed twin of [`warmed`], established over the wire protocol.
/// Node 0's uplink is filled by three heavy channels to its neighbour on the
/// same switch, so that no trunk fills with it: a further heavy request from
/// node 0 is refused by the uplink alone, at the last step of the Reserve
/// pass, with the whole route to roll back.
fn warmed_distributed(topology: &Topology) -> DistributedChannelManager {
    let mut manager = distributed(topology);
    for round in 0..4 {
        let (verdict, _) = pump(&mut manager, topology, 0, request(0, 1, heavy(), round));
        let admitted = verdict.expect("every request is answered").is_some();
        assert_eq!(admitted, round < 3, "the uplink holds three");
    }
    // Standing light traffic on both measured routes, so that every link of
    // them has its book, and a few cycles of what is measured (the refusal
    // too: every site's demand-scan buffer has then seen a heavy task).
    let (verdict, _) = pump(&mut manager, topology, 0, request(0, 15, light(), 4));
    verdict.flatten().expect("a light channel still fits");
    let (verdict, _) = pump(&mut manager, topology, 0, request(0, 15, heavy(), 5));
    assert_eq!(verdict, Some(None), "a fourth heavy channel does not");
    for round in 0..8u8 {
        let (verdict, _) = pump(&mut manager, topology, 1, request(1, 14, light(), round));
        let id = verdict.flatten().expect("a light fabric admits it");
        if round >= 2 {
            let teardown = Frame::Teardown(TeardownFrame { rt_channel_id: id });
            pump(&mut manager, topology, 1, teardown);
        }
    }
    manager
}

/// One accepted inter-pod arrival through the two-phase protocol, and the
/// teardown that ends it: the frame counts say the handshake is the one the
/// table above describes, the budgets what it may ask the allocator for.
#[test]
fn a_distributed_handshake_stays_inside_its_allocation_budget() {
    let topology = Topology::fat_tree(4).expect("radix 4 is a valid fat tree");
    let mut manager = warmed_distributed(&topology);

    let (verdict, hops) = pump(&mut manager, &topology, 1, request(1, 14, light(), 99));
    let id = verdict
        .flatten()
        .expect("the warmed fabric admits one more");
    let ops = |op| hops.iter().filter(|(_, o, _)| *o == Some(op)).count();
    assert_eq!(
        (
            hops.len(),
            ops(ReservationOp::Probe),
            ops(ReservationOp::Reserve),
            ops(ReservationOp::Confirm)
        ),
        (14, 4, 4, 4),
        "Request, Probe and Reserve over five switches, Response, Confirm back: {hops:?}"
    );
    let established = allocated(&hops);

    let teardown = Frame::Teardown(TeardownFrame { rt_channel_id: id });
    let (_, hops) = pump(&mut manager, &topology, 1, teardown);
    assert_eq!(hops.len(), 5, "Teardown, then Release down four switches");
    let released = allocated(&hops);

    assert!(
        established <= DISTRIBUTED_ACCEPTED && released <= DISTRIBUTED_TEARDOWN,
        "{established} allocations to establish (budget {DISTRIBUTED_ACCEPTED}), \
         {released} to tear down (budget {DISTRIBUTED_TEARDOWN})"
    );
}

/// One refused inter-pod arrival: probed to the far end, reserved all the way
/// back to the coordinator, whose full uplink says no; rolled back hop by
/// hop, and the one candidate exhausted.
#[test]
fn a_refused_distributed_request_stays_inside_its_allocation_budget() {
    let topology = Topology::fat_tree(4).expect("radix 4 is a valid fat tree");
    let mut manager = warmed_distributed(&topology);

    let (verdict, hops) = pump(&mut manager, &topology, 0, request(0, 15, heavy(), 99));
    assert_eq!(verdict, Some(None), "node 0's uplink is full");
    let ops = |op| hops.iter().filter(|(_, o, _)| *o == Some(op)).count();
    assert_eq!(
        (
            hops.len(),
            ops(ReservationOp::Rollback),
            ops(ReservationOp::ReserveFailed)
        ),
        (14, 4, 1),
        "refused at the last Reserve step, swept by Rollback: {hops:?}"
    );
    let refused = allocated(&hops);
    assert!(
        refused <= DISTRIBUTED_REFUSED,
        "{refused} allocations for one refused request, budget {DISTRIBUTED_REFUSED}"
    );
}

/// A hop costs what its frame touches, not what its site holds.  Every
/// channel from node 1 to node 14 crosses the same five switches, and with
/// the clock standing still the four past the coordinator each keep the lease
/// the Confirm walk renewed, one per channel.  One more establishment is
/// delivered over those sites holding 10 such leases and then 1 000: every
/// Probe and every Confirm asks the allocator for the same blocks.
#[test]
fn a_hop_allocates_the_same_whatever_its_site_holds() {
    let topology = Topology::fat_tree(4).expect("radix 4 is a valid fat tree");
    // One slot in 100 000, due within 10 000 per link: a thousand fit.
    let tiny = RtChannelSpec::new(Slots::new(100_000), Slots::new(1), Slots::new(60_000)).unwrap();
    let probes_and_confirms = |held: usize| -> Vec<Hop> {
        let mut manager = distributed(&topology);
        for round in 0..held {
            let (verdict, _) = pump(
                &mut manager,
                &topology,
                1,
                request(1, 14, tiny, round as u8),
            );
            verdict.flatten().expect("a thousand tiny channels fit");
        }
        assert_eq!(manager.link_load(HopLink::Downlink(NodeId::new(14))), held);
        assert!(
            manager.next_timeout().is_some(),
            "the renewed leases are held"
        );
        let (_, hops) = pump(&mut manager, &topology, 1, request(1, 14, tiny, 255));
        let walks =
            |(_, op, _): &Hop| matches!(op, Some(ReservationOp::Probe | ReservationOp::Confirm));
        hops.into_iter().filter(walks).collect()
    };
    let few = probes_and_confirms(10);
    assert_eq!(few.len(), 8, "four Probe hops, four Confirm hops");
    assert_eq!(few, probes_and_confirms(1_000));
}

/// A repair costs what it may move, not what the fabric holds.  Every channel
/// runs from node 1 to node 14 and a trunk off their route flaps twice: the
/// first repair finds each channel on its primary route, the second lands on
/// the same fabric state with no channel placed since, so it asks the router
/// nothing and walks the channel table without keeping anything — no block
/// at all today, and whatever the topology's sets may come to ask for when a
/// trunk goes back in, the same over 50 channels and over 500.
#[test]
fn a_repair_that_moves_nothing_allocates_the_same_whatever_the_fabric_holds() {
    let topology = Topology::fat_tree(4).expect("radix 4 is a valid fat tree");
    let tiny = RtChannelSpec::new(Slots::new(100_000), Slots::new(1), Slots::new(60_000)).unwrap();
    let second_repair = |held: usize| -> u64 {
        let mut manager = FabricChannelManager::new(MultiHopAdmission::new(
            topology.clone(),
            MultiHopDps::Asymmetric,
        ));
        for round in 0..held {
            let id = ask(&mut manager, &request(1, 14, tiny, round as u8), 1);
            accept(
                &mut manager,
                id.expect("five hundred tiny channels fit"),
                14,
            );
        }
        let route = manager.channel_route(ChannelId::new(1)).unwrap().path;
        let crossed = |a: SwitchId, b: SwitchId| {
            let (ab, ba) = (
                HopLink::Trunk { from: a, to: b },
                HopLink::Trunk { from: b, to: a },
            );
            route.contains(&ab) || route.contains(&ba)
        };
        let (a, b) = topology
            .trunks()
            .find(|&(a, b)| !crossed(a, b))
            .expect("a six-link route leaves most of the fat tree alone");
        let mut allocated = 0;
        for flap in 0..2 {
            let cut = manager.handle_link_failure(a, b).unwrap();
            assert_eq!((cut.affected(), cut.unaffected), (0, held), "flap {flap}");
            let before = allocations();
            let repair = manager.handle_link_repair(a, b).unwrap();
            allocated = allocations() - before;
            assert_eq!(
                (repair.affected(), repair.unaffected),
                (0, held),
                "flap {flap}"
            );
        }
        allocated
    };
    let few = second_repair(50);
    assert_eq!(few, second_repair(500));
    assert!(few <= 2, "{few} allocations to put one trunk back");
}

/// The same through the distributed manager, whose repair is the same code:
/// what the second repair of a trunk off every route asks for — the two
/// adjacent switches' link-state announcements, and nothing per channel — is
/// the same over 50 channels and over 500.  (Its own repair, before it was
/// handed the fault engine, listed every live id, asked for the memoised
/// candidates of each and copied the primary route out of them.)
#[test]
fn a_distributed_repair_that_moves_nothing_allocates_the_same_whatever_the_fabric_holds() {
    let topology = Topology::fat_tree(4).expect("radix 4 is a valid fat tree");
    let tiny = RtChannelSpec::new(Slots::new(100_000), Slots::new(1), Slots::new(60_000)).unwrap();
    let second_repair = |held: usize| -> u64 {
        let mut manager = distributed(&topology);
        for round in 0..held {
            let ask = request(1, 14, tiny, round as u8);
            let (verdict, _) = pump(&mut manager, &topology, 1, ask);
            verdict.flatten().expect("five hundred tiny channels fit");
        }
        let first = manager.channel_ids()[0];
        let route = manager.channel_route(first).unwrap().path;
        let crosses = |a: SwitchId, b: SwitchId| {
            let on = |from, to| route.contains(&HopLink::Trunk { from, to });
            on(a, b) || on(b, a)
        };
        let (a, b) = topology
            .trunks()
            .find(|&(a, b)| !crosses(a, b))
            .expect("a six-link route leaves most of the fat tree alone");
        let mut allocated = 0;
        for flap in 0..2 {
            let cut = manager.handle_link_failure(a, b).unwrap();
            assert_eq!((cut.affected(), cut.unaffected), (0, held), "flap {flap}");
            flood(&mut manager, &topology);
            let before = allocations();
            let repair = manager.handle_link_repair(a, b).unwrap();
            allocated = allocations() - before;
            assert_eq!(
                (repair.affected(), repair.unaffected),
                (0, held),
                "flap {flap}"
            );
            flood(&mut manager, &topology);
        }
        allocated
    };
    assert_eq!(second_repair(50), second_repair(500));
}
