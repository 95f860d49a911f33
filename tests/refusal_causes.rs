//! Why central admission refuses under churn: the split between the paper's
//! two constraints that decides whether a better deadline partition could
//! admit more.  Constraint 1 (`U ≤ 1`, Eq. 18.2) refuses what no split can
//! place; Constraint 2 (`h(t) ≤ t` at the Eq. 18.5 check-points) refuses
//! what another split of the deadline might.
//!
//! A seeded churn drives `MultiHopAdmission::request` and `release`
//! directly on `fat_tree(8)` (128 hosts): one arrival per tick between two
//! distinct uniform hosts, a `HeterogeneousSpecs` spec, an exponential
//! holding time, and the asymmetric per-hop split the churn workloads use.
//! The mean holding time scales `churn_central`'s 1 000 ticks on 1 024 hosts
//! down to this fabric's 128.

use std::collections::BTreeMap;

use switched_rt_ethernet::core::{MultiHopAdmission, MultiHopDps, RefusalCause};
use switched_rt_ethernet::edf::FeasibilityVerdict;
use switched_rt_ethernet::traffic::HeterogeneousSpecs;
use switched_rt_ethernet::types::rng::Xoshiro256;
use switched_rt_ethernet::types::{ChannelId, NodeId, Topology};

const ARRIVALS: u64 = 20_000;
const MEAN_HOLDING_TICKS: f64 = 125.0;

/// Refusals by cause over one churn run.
#[derive(Debug, Default)]
struct Split {
    admitted: u64,
    utilisation: u64,
    demand: u64,
    other: u64,
}

fn churn(seed: u64) -> Split {
    let topology = Topology::fat_tree(8).unwrap();
    let hosts: Vec<NodeId> = topology.nodes().collect();
    let mut admission = MultiHopAdmission::new(topology, MultiHopDps::Asymmetric);
    let mut rng = Xoshiro256::new(seed);
    let mut specs = HeterogeneousSpecs::new(seed ^ 0x5b11_7000);
    // Departures by (tick, arrival): ties leave in admission order.
    let mut departures: BTreeMap<(u64, u64), ChannelId> = BTreeMap::new();
    let mut split = Split::default();
    for tick in 0..ARRIVALS {
        while let Some(departure) = departures.first_entry() {
            if departure.key().0 > tick {
                break;
            }
            admission.release(departure.remove()).unwrap();
        }
        let pick = |rng: &mut Xoshiro256| hosts[rng.below(hosts.len() as u64) as usize];
        let source = pick(&mut rng);
        let destination = loop {
            let node = pick(&mut rng);
            if node != source {
                break node;
            }
        };
        let spec = specs.next_spec();
        match admission.request(source, destination, spec).unwrap() {
            Ok(channel) => {
                let holding = rng.exponential(MEAN_HOLDING_TICKS).round() as u64;
                departures.insert((tick + holding.max(1), tick), channel.id);
                split.admitted += 1;
            }
            Err(refusal) => match refusal.cause {
                RefusalCause::Infeasible(FeasibilityVerdict::UtilisationExceeded) => {
                    split.utilisation += 1
                }
                RefusalCause::Infeasible(FeasibilityVerdict::DemandExceeded { .. }) => {
                    split.demand += 1
                }
                _ => split.other += 1,
            },
        }
    }
    split
}

/// On these fabrics admission is bound by Constraint 2, not by utilisation:
/// Constraint 1 refuses nothing, and Constraint 2 at least a tenth of all
/// refusals — the gate of a search over deadline splits.
#[test]
fn constraint_2_refuses_a_tenth_and_constraint_1_nothing() {
    for seed in [0x5b11_7001, 0x5b11_7002] {
        let split = churn(seed);
        let refused = split.utilisation + split.demand + split.other;
        assert!(
            split.admitted > ARRIVALS / 10 && refused > ARRIVALS / 10,
            "the churn must both admit and refuse: {split:?}"
        );
        assert_eq!(split.utilisation, 0, "Constraint 1 refused: {split:?}");
        assert!(
            split.demand * 10 >= refused,
            "Constraint 2 refused under a tenth: {split:?}"
        );
    }
}
