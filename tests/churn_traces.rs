//! The churn soak's trace hashes, pinned.
//!
//! Each run below is one of the benchmark's three churn workloads at its
//! `--smoke` size (1/50 of the measured run), on seed 20644 and the same
//! cut/repair script: `rtbench run --workload all --smoke` prints these
//! digests.  The managers and the churn engine keep their per-arrival tables
//! hashed, and only the outputs that promise ascending ids sort; an order
//! that leaks from a hashed table into a verdict, a fail-over or a
//! departure changes a hash here.

use std::sync::Arc;

use switched_rt_ethernet::core::{
    ChannelManager, DistributedChannelManager, FabricChannelManager, MultiHopAdmission, MultiHopDps,
};
use switched_rt_ethernet::traffic::{ChurnConfig, ChurnProcess};
use switched_rt_ethernet::types::{Router, ShortestPathRouter, Topology};

/// The benchmark's seed.
const SEED: u64 = 20644;

/// One churn workload at smoke size.
struct Soak {
    topology: Topology,
    warmup: u64,
    measured: u64,
    holding: f64,
    /// One scripted trunk event per this many measured arrivals.
    fault_every: Option<u64>,
}

impl Soak {
    /// The seeded process, with the fault script if there is one: event `e`
    /// lands in the middle of the `e`-th stretch of `fault_every` measured
    /// arrivals and alternates cut and repair of trunk `(37·flap) mod n`.
    fn process(&self) -> ChurnProcess {
        let mut config = ChurnConfig::new(SEED)
            .windows(self.warmup, self.measured)
            .load(1.0, self.holding)
            .without_trace();
        if let Some(every) = self.fault_every {
            let trunks: Vec<_> = self.topology.trunks().collect();
            for event in 0..self.measured / every {
                let at = self.warmup + every * event + every / 2;
                let (a, b) = trunks[(37 * (event / 2) % trunks.len() as u64) as usize];
                config = if event % 2 == 0 {
                    config.cut_at(at, a, b)
                } else {
                    config.repair_at(at, a, b)
                };
            }
        }
        ChurnProcess::new(config, &self.topology).expect("the fault script lies inside the run")
    }

    fn normalized_trace_hash(&self, manager: &mut impl ChannelManager) -> u64 {
        let report = self
            .process()
            .run(manager)
            .expect("every arrival gets a verdict");
        assert_eq!(report.measured_attempts, self.measured);
        report.normalized_trace_hash
    }

    fn central(&self) -> u64 {
        let router: Arc<dyn Router> = Arc::new(ShortestPathRouter::new());
        let admission =
            MultiHopAdmission::with_router(self.topology.clone(), MultiHopDps::Asymmetric, router);
        self.normalized_trace_hash(&mut FabricChannelManager::new(admission))
    }

    fn distributed(&self) -> u64 {
        let router: Arc<dyn Router> = Arc::new(ShortestPathRouter::new());
        let topology = self.topology.clone();
        let mut manager = DistributedChannelManager::new(topology, MultiHopDps::Asymmetric, router);
        self.normalized_trace_hash(&mut manager)
    }
}

fn fat_tree_16() -> Topology {
    Topology::fat_tree(16).expect("fat_tree(16) is valid")
}

#[test]
fn churn_central_smoke_trace_is_pinned() {
    let soak = Soak {
        topology: fat_tree_16(),
        warmup: 200,
        measured: 2_000,
        holding: 1_000.0,
        fault_every: None,
    };
    assert_eq!(format!("{:016x}", soak.central()), "24d9209a0f110e6d");
}

#[test]
fn churn_distributed_smoke_trace_is_pinned() {
    let soak = Soak {
        topology: fat_tree_16(),
        warmup: 60,
        measured: 160,
        holding: 1_000.0,
        fault_every: None,
    };
    assert_eq!(format!("{:016x}", soak.distributed()), "4f7c4934a5bf8a39");
}

#[test]
fn churn_faults_smoke_trace_is_pinned() {
    let soak = Soak {
        topology: Topology::torus_nd(&[4, 4, 4, 4], 4).expect("the 4-D torus is valid"),
        warmup: 200,
        measured: 500,
        holding: 2_500.0,
        fault_every: Some(100),
    };
    assert_eq!(format!("{:016x}", soak.central()), "0560908332dd47b4");
}
