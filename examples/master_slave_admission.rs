//! Master/slave admission control: SDPS vs ADPS (the paper's headline
//! result, Figure 18.5, at one operating point).
//!
//! An industrial cell with 10 masters (controllers) and 50 slaves (drives,
//! I/O stations) requests 200 identical RT channels master → slave.  The
//! example runs the switch's admission control twice — once with symmetric
//! deadline partitioning, once with asymmetric — and prints how many
//! channels each master managed to open, illustrating how ADPS removes the
//! uplink bottleneck.
//!
//! Run with: `cargo run --example master_slave_admission`

use switched_rt_ethernet::core::{DpsKind, MultiHopAdmission, RtChannelSpec};
use switched_rt_ethernet::traffic::{RequestPattern, Scenario};
use switched_rt_ethernet::types::{HopLink, SwitchId, Topology};

fn run(dps: DpsKind) -> (u64, Vec<u64>) {
    let scenario = Scenario::paper_master_slave();
    let spec = RtChannelSpec::paper_default();
    let requests = RequestPattern::MasterSlaveRoundRobin.generate(&scenario, 200, spec);

    let star = Topology::star(SwitchId::new(0), scenario.nodes());
    let mut switch = MultiHopAdmission::new(star, dps);
    let mut per_master = vec![0u64; scenario.master_count() as usize];
    for request in &requests {
        let decision = switch.request(request.source, request.destination, request.spec);
        if decision.expect("valid request").is_ok() {
            per_master[request.source.get() as usize] += 1;
        }
    }
    // Show the final reserved utilisation of master 0's uplink.
    let uplink_util = switch
        .link_taskset(HopLink::Uplink(scenario.master(0)))
        .utilisation_f64();
    println!(
        "  {} accepted {} / 200 channels; master0 uplink utilisation {:.1}%",
        dps.name(),
        switch.accepted_count(),
        uplink_util * 100.0
    );
    (switch.accepted_count(), per_master)
}

fn main() {
    println!("Master/slave admission with the paper's parameters (C=3, P=100, D=40):\n");
    let (sdps_total, sdps_per_master) = run(DpsKind::Symmetric);
    let (adps_total, adps_per_master) = run(DpsKind::Asymmetric);

    println!("\nchannels per master (10 masters):");
    println!("  SDPS: {sdps_per_master:?}");
    println!("  ADPS: {adps_per_master:?}");
    println!(
        "\nADPS accepted {:.1}x as many channels as SDPS ({adps_total} vs {sdps_total}).",
        adps_total as f64 / sdps_total as f64
    );
    assert!(adps_total > sdps_total);
}
