//! Micro-bench: cost of the full Figure 18.5 admission sweep and of a
//! single admission decision under each DPS.

use rt_bench::experiments::run_admission;
use rt_bench::MicroBench;
use rt_core::{DpsKind, MultiHopAdmission, RtChannelSpec};
use rt_traffic::{RequestPattern, Scenario};
use rt_types::{SwitchId, Topology};

fn main() {
    let scenario = Scenario::paper_master_slave();
    let nodes = scenario.nodes();
    let spec = RtChannelSpec::paper_default();
    let requests = RequestPattern::MasterSlaveRoundRobin.generate(&scenario, 200, spec);

    let mut harness = MicroBench::new();
    for dps in [DpsKind::Symmetric, DpsKind::Asymmetric, DpsKind::Search] {
        harness.bench(&format!("sweep_{dps:?}_200_requests"), || {
            run_admission(&nodes, &requests, dps, false)
        });
    }

    // A single decision against a loaded controller (setup included in the
    // measured closure; the sweep benchmarks above isolate the request
    // path).
    let warm_requests = RequestPattern::MasterSlaveRoundRobin.generate(&scenario, 59, spec);
    for dps in [DpsKind::Symmetric, DpsKind::Asymmetric] {
        harness.bench(&format!("single_decision_{dps:?}_on_loaded_system"), || {
            let star = Topology::star(SwitchId::new(0), scenario.nodes());
            let mut controller = MultiHopAdmission::new(star, dps);
            for r in &warm_requests {
                let _ = controller.request(r.source, r.destination, r.spec).unwrap();
            }
            controller
                .request(scenario.master(59), scenario.slave(59), spec)
                .unwrap()
                .is_ok()
        });
    }
    harness.finish("admission control");
}
