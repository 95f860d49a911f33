//! Cross-validation of the analytical admission control against slot-level
//! EDF schedule simulation, on randomly generated systems.
//!
//! Property: any per-link task set the admission controller has accepted is
//! schedulable — its slot-accurate EDF schedule over the synchronous busy
//! period is free of deadline misses.  This ties together `rt-core` (admission, DPS),
//! `rt-edf` (analysis and schedule generation) and `rt-traffic` (workload
//! generation).

use switched_rt_ethernet::core::{DpsKind, MultiHopAdmission};
use switched_rt_ethernet::edf::schedule::{
    simulate_edf_schedule, simulate_over_hyperperiod, ScheduleOutcome,
};
use switched_rt_ethernet::edf::{FeasibilityTester, TaskSet};
use switched_rt_ethernet::traffic::{HeterogeneousSpecs, RequestPattern, Scenario};
use switched_rt_ethernet::types::rng::Xoshiro256;
use switched_rt_ethernet::types::{Slots, SwitchId, Topology};

/// The admission controller of `scenario`'s single-switch star.
fn star_controller(scenario: &Scenario, dps: DpsKind) -> MultiHopAdmission {
    MultiHopAdmission::new(Topology::star(SwitchId::new(0), scenario.nodes()), dps)
}

/// The slot-level EDF schedule of `set` up to the end of its synchronous
/// busy period, where the first miss of a synchronous set falls if it has
/// one (Baruah, Rosier & Howell 1990; Spuri 1996); over the hyperperiod
/// capped at `cap` when no busy period ends below the cap.
/// `schedule::tests::prop_the_busy_period_finds_the_first_miss` holds the
/// two horizons to the same verdict and the same first miss.
fn simulate_busy_period(set: &TaskSet, cap: Slots) -> ScheduleOutcome {
    match set.busy_period(cap) {
        Some(busy) => simulate_edf_schedule(set, busy),
        None => simulate_over_hyperperiod(set, cap),
    }
}

fn assert_all_links_schedulable(controller: &MultiHopAdmission) {
    for (link, _) in controller.loaded_links() {
        let set = controller.link_taskset(link);
        // The analysis itself must agree...
        assert!(
            FeasibilityTester::new().test(&set).is_feasible(),
            "link {link} holds an infeasible task set after admission"
        );
        // ...and so must the actual slot-level schedule.
        let outcome = simulate_busy_period(&set, Slots::new(400_000));
        assert!(
            outcome.is_miss_free(),
            "link {link} misses deadlines: {:?}",
            outcome.misses
        );
    }
}

/// Whatever the DPS, request pattern, scenario size and channel specs,
/// everything the switch admits is schedulable on every link.
#[test]
fn admitted_systems_are_schedulable() {
    let mut rng = Xoshiro256::new(0xc055_0001);
    for _ in 0..16 {
        let seed = rng.below(1_000);
        let masters = rng.range_inclusive(2, 5) as u32;
        let slaves = rng.range_inclusive(2, 9) as u32;
        let requested = rng.range_inclusive(10, 59);
        let dps = DpsKind::ALL[rng.below(4) as usize];
        let scenario = Scenario::new(masters, slaves);
        let mut specs = HeterogeneousSpecs::new(seed);
        let requests = RequestPattern::Uniform { seed }
            .generate_with(&scenario, requested, |_| specs.next_spec());
        let mut controller = star_controller(&scenario, dps);
        for r in &requests {
            let _ = controller.request(r.source, r.destination, r.spec).unwrap();
        }
        assert_all_links_schedulable(&controller);
    }
}

/// The same holds for the paper's homogeneous master/slave workload at any
/// load level.
#[test]
fn paper_workload_is_schedulable_after_admission() {
    let mut rng = Xoshiro256::new(0xc055_0002);
    for _ in 0..16 {
        let requested = rng.range_inclusive(1, 249);
        let asymmetric = rng.chance(0.5);
        let scenario = Scenario::paper_master_slave();
        let dps = if asymmetric {
            DpsKind::Asymmetric
        } else {
            DpsKind::Symmetric
        };
        let spec = switched_rt_ethernet::core::RtChannelSpec::paper_default();
        let requests = RequestPattern::MasterSlaveRoundRobin.generate(&scenario, requested, spec);
        let mut controller = star_controller(&scenario, dps);
        for r in &requests {
            let _ = controller.request(r.source, r.destination, r.spec).unwrap();
        }
        assert_all_links_schedulable(&controller);
    }
}

/// Deterministic counter-example for the utilisation-only shortcut: it
/// over-admits constrained-deadline channels, and the resulting link
/// schedule does miss deadlines (this is Ablation B's premise, pinned down
/// as a test so the ablation keeps demonstrating something real).
#[test]
fn utilisation_only_admission_produces_deadline_misses() {
    let scenario = Scenario::paper_master_slave();
    let spec = switched_rt_ethernet::core::RtChannelSpec::paper_default();
    let requests = RequestPattern::MasterSlaveRoundRobin.generate(&scenario, 200, spec);
    let mut controller = star_controller(&scenario, DpsKind::Symmetric)
        .with_tester(FeasibilityTester::utilisation_only());
    for r in &requests {
        let _ = controller.request(r.source, r.destination, r.spec).unwrap();
    }
    // Everything is admitted (utilisation stays below 1)...
    assert_eq!(controller.accepted_count(), 200);
    // ...but the uplinks are not actually schedulable.
    let mut misses = 0u64;
    for (link, _) in controller.loaded_links() {
        let outcome = simulate_busy_period(&controller.link_taskset(link), Slots::new(100_000));
        misses += outcome.misses.len() as u64;
    }
    assert!(
        misses > 0,
        "expected deadline misses under utilisation-only admission"
    );
}
