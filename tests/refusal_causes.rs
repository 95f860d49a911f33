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
//!
//! Each Constraint 2 refusal is also shown necessary: the refusing link's
//! book plus the candidate at its split deadline, released together at
//! time zero, misses a deadline under EDF by the check-point the refusal
//! names.

use std::collections::BTreeMap;

use switched_rt_ethernet::core::{MultiHopAdmission, MultiHopDps, RefusalCause};
use switched_rt_ethernet::edf::{simulate_edf_schedule, FeasibilityVerdict, PeriodicTask};
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
    /// Constraint 2 refusals whose schedule missed by the check-point.
    witnessed: u64,
    /// Constraint 2 refusals whose schedule did not: the first few, named.
    unwitnessed: Vec<String>,
    /// Refusals at the analysis cap, which no schedule can witness.
    capped: u64,
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
        let verdict = admission
            .request(source, destination, spec)
            .unwrap()
            .map(|channel| channel.id);
        if let Err(refusal) = verdict {
            if let (
                Some(link),
                RefusalCause::Infeasible(FeasibilityVerdict::DemandExceeded { at, .. }),
            ) = (refusal.link, refusal.cause)
            {
                let mut set = admission.link_taskset(link);
                set.push(PeriodicTask::new(spec.period, spec.capacity, refusal.deadline).unwrap());
                // Slots `0..at`: a miss is recorded as its deadline passes,
                // so every recorded miss has its deadline at or before `at`.
                if simulate_edf_schedule(&set, at).is_miss_free() {
                    if split.unwitnessed.len() < 3 {
                        split.unwitnessed.push(format!("{refusal} on {set:?}"));
                    }
                } else {
                    split.witnessed += 1;
                }
            }
        }
        match verdict {
            Ok(channel) => {
                let holding = rng.exponential(MEAN_HOLDING_TICKS).round() as u64;
                departures.insert((tick + holding.max(1), tick), channel);
                split.admitted += 1;
            }
            Err(refusal) => match refusal.cause {
                RefusalCause::Infeasible(FeasibilityVerdict::UtilisationExceeded) => {
                    split.utilisation += 1
                }
                RefusalCause::Infeasible(FeasibilityVerdict::DemandExceeded { .. }) => {
                    split.demand += 1
                }
                RefusalCause::Infeasible(FeasibilityVerdict::AnalysisLimitExceeded) => {
                    split.capped += 1;
                    split.other += 1
                }
                _ => split.other += 1,
            },
        }
    }
    split
}

/// On these fabrics admission is bound by Constraint 2, not by utilisation:
/// Constraint 1 refuses nothing, and Constraint 2 at least a tenth of all
/// refusals — the gate of a search over deadline splits.  Every Constraint 2
/// refusal carries its witness: from synchronous release, the link's book
/// plus the candidate at its split deadline misses under EDF at or before
/// the named check-point.  Refusals at the analysis cap have no such
/// witness; they are counted and named in the message, not checked.
#[test]
fn constraint_2_refuses_a_tenth_and_constraint_1_nothing() {
    let seeds = [0x5b11_7001, 0x5b11_7002];
    // The runs are independent: the second one on a thread of its own.
    let splits = std::thread::scope(|scope| {
        let second = scope.spawn(|| churn(seeds[1]));
        [churn(seeds[0]), second.join().expect("its checks pass")]
    });
    for (seed, split) in seeds.into_iter().zip(splits) {
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
        assert_eq!(
            split.witnessed, split.demand,
            "seed {seed:#x}: {} of {} Constraint 2 refusals miss by their check-point \
             ({} refused at the analysis cap, unwitnessable); unwitnessed: {:?}",
            split.witnessed, split.demand, split.capped, split.unwitnessed,
        );
    }
}
