//! The establishment handshake in slow motion.
//!
//! Shows the three-party protocol of §18.2.2 at frame level — the
//! RequestFrame a node sends to the switch, the admission decision, the
//! forwarded request, the destination's ResponseFrame and the final response
//! back to the source — without the simulator, by driving the state machines
//! (node RT layers and switch channel manager) directly.  Also demonstrates
//! a rejection once the uplink saturates, and a tear-down.
//!
//! Run with: `cargo run --example channel_establishment`

use switched_rt_ethernet::core::manager::SwitchAction;
use switched_rt_ethernet::core::rtlayer::{EstablishmentOutcome, RtLayer, RtLayerConfig};
use switched_rt_ethernet::core::{
    ChannelManager, DpsKind, FabricChannelManager, MultiHopAdmission, RtChannelSpec,
};
use switched_rt_ethernet::frames::Frame;
use switched_rt_ethernet::types::{NodeId, SwitchId, Topology};

fn main() {
    // A switch managing a 3-node star, using symmetric partitioning.
    let star = Topology::star(SwitchId::new(0), (0..3).map(NodeId::new));
    let mut switch = FabricChannelManager::new(MultiHopAdmission::new(star, DpsKind::Symmetric));
    let mut source = RtLayer::new(NodeId::new(0), RtLayerConfig::default());
    let mut destination = RtLayer::new(NodeId::new(1), RtLayerConfig::default());
    let spec = RtChannelSpec::paper_default();

    println!("== establishing an RT channel node0 -> node1 ==\n");

    // (1) The application asks its RT layer; the layer emits a RequestFrame
    //     addressed to the switch.
    let (request_id, eth) = source.request_channel(NodeId::new(1), spec).unwrap();
    println!(
        "node0  -> switch : RequestFrame (request id {request_id}, {} bytes on the wire)",
        eth.wire_bytes()
    );

    // (2) The switch runs admission control and forwards the annotated
    //     request to the destination.
    let request = match Frame::classify(eth).unwrap() {
        Frame::Request(r) => r,
        _ => unreachable!(),
    };
    let actions = switch.handle_request(&request).unwrap();
    let forwarded = match &actions[0] {
        SwitchAction::ForwardRequest { to, frame } => {
            println!(
                "switch -> {to}  : RequestFrame forwarded, assigned RT channel id {}",
                frame.rt_channel_id.unwrap()
            );
            *frame
        }
        other => unreachable!("first channel is feasible, got {other:?}"),
    };

    // (3) The destination answers with a ResponseFrame.
    let (response_eth, accepted) = destination.handle_forwarded_request(&forwarded).unwrap();
    println!(
        "node1  -> switch : ResponseFrame ({})",
        if accepted { "OK" } else { "Not OK" }
    );
    let response = match Frame::classify(response_eth).unwrap() {
        Frame::Response(r) => r,
        _ => unreachable!(),
    };

    // (4) The switch records the verdict and forwards it to the source.
    let actions = switch.handle_response(&response).unwrap();
    let final_response = match &actions[0] {
        SwitchAction::SendResponse { to, frame } => {
            println!("switch -> {to}  : ResponseFrame forwarded to the source");
            *frame
        }
        _ => unreachable!(),
    };

    // (5) The source's RT layer matches the response to its request.
    match source.handle_response(&final_response).unwrap() {
        EstablishmentOutcome::Established(tx) => {
            println!(
                "\nchannel {} established: d_i={} split over uplink/downlink by the switch\n",
                tx.id, tx.spec.deadline
            );
        }
        EstablishmentOutcome::Rejected { .. } => unreachable!(),
    }

    // == saturation: SDPS allows 6 such channels per uplink, the 7th fails ==
    println!("== requesting more channels until the uplink saturates ==\n");
    for n in 2..=7 {
        let (_, eth) = source.request_channel(NodeId::new(2), spec).unwrap();
        let request = match Frame::classify(eth).unwrap() {
            Frame::Request(r) => r,
            _ => unreachable!(),
        };
        let actions = switch.handle_request(&request).unwrap();
        match &actions[0] {
            SwitchAction::ForwardRequest { .. } => {
                println!("request #{n}: feasible, forwarded to node2")
            }
            SwitchAction::SendResponse { frame, .. } => {
                println!(
                    "request #{n}: rejected directly by the switch (verdict OK={})",
                    frame.verdict.is_accepted()
                );
            }
            other => unreachable!("a star switch only forwards or answers, got {other:?}"),
        }
    }
    println!("\nwith SDPS and C=3, d_iu=20, a single uplink fits exactly 6 channels (6*3 <= 20).");
}
