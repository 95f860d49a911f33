//! Regression test for the paper's headline result (Figure 18.5): accepted
//! channels vs requested channels under SDPS and ADPS in the 10-master /
//! 50-slave configuration with `C=3, P=100, D=40`.
//!
//! The curves follow from the admission arithmetic alone (6 channels per
//! uplink under SDPS, 11 under ADPS), so they are asserted exactly, point by
//! point over requested = 20, 40 … 200 — the series the two-link admission
//! stack produced before the star became the one-switch fabric; the
//! qualitative shape (ADPS ≈ 2× SDPS, saturation plateaus) mirrors the
//! paper's.

use switched_rt_ethernet::core::{DpsKind, MultiHopAdmission, RtChannelSpec};
use switched_rt_ethernet::traffic::{RequestPattern, Scenario};
use switched_rt_ethernet::types::{SwitchId, Topology};

fn accepted(dps: DpsKind, requested: u64, pattern: &RequestPattern) -> u64 {
    let scenario = Scenario::paper_master_slave();
    let spec = RtChannelSpec::paper_default();
    let requests = pattern.generate(&scenario, requested, spec);
    let star = Topology::star(SwitchId::new(0), scenario.nodes());
    let mut controller = MultiHopAdmission::new(star, dps);
    for r in &requests {
        let _ = controller.request(r.source, r.destination, r.spec).unwrap();
    }
    controller.accepted_count()
}

/// Accepted channels at each of the figure's ten operating points.
fn series(dps: DpsKind, pattern: &RequestPattern) -> Vec<u64> {
    (20..=200)
        .step_by(20)
        .map(|requested| accepted(dps, requested, pattern))
        .collect()
}

const SDPS_SERIES: [u64; 10] = [20, 40, 60, 60, 60, 60, 60, 60, 60, 60];

#[test]
fn below_saturation_both_schemes_accept_everything() {
    let pattern = RequestPattern::MasterSlaveRoundRobin;
    for requested in [20, 40, 60] {
        assert_eq!(accepted(DpsKind::Symmetric, requested, &pattern), requested);
        assert_eq!(
            accepted(DpsKind::Asymmetric, requested, &pattern),
            requested
        );
    }
}

#[test]
fn sdps_saturates_at_six_channels_per_master_uplink() {
    let pattern = RequestPattern::MasterSlaveRoundRobin;
    assert_eq!(series(DpsKind::Symmetric, &pattern), SDPS_SERIES);
}

#[test]
fn adps_reaches_the_paper_saturation_level() {
    let pattern = RequestPattern::MasterSlaveRoundRobin;
    // The paper's curve keeps climbing to ~110 accepted channels; with every
    // channel alike, weighting by utilisation is weighting by count.
    for dps in [DpsKind::Asymmetric, DpsKind::UtilisationWeighted] {
        assert_eq!(
            series(dps, &pattern),
            [20, 40, 60, 80, 100, 110, 110, 110, 110, 110],
            "{dps:?}"
        );
    }
    assert_eq!(
        series(DpsKind::Search, &pattern),
        [20, 40, 60, 80, 100, 120, 120, 120, 120, 120]
    );
}

#[test]
fn adps_dominates_sdps_at_every_operating_point() {
    let pattern = RequestPattern::MasterSlaveRoundRobin;
    for requested in (20..=200).step_by(20) {
        let sdps = accepted(DpsKind::Symmetric, requested, &pattern);
        let adps = accepted(DpsKind::Asymmetric, requested, &pattern);
        assert!(
            adps >= sdps,
            "at {requested} requests ADPS accepted {adps} < SDPS {sdps}"
        );
    }
    // And at full load the advantage is close to the paper's ~1.8x.
    let sdps = accepted(DpsKind::Symmetric, 200, &pattern);
    let adps = accepted(DpsKind::Asymmetric, 200, &pattern);
    let ratio = adps as f64 / sdps as f64;
    assert!(ratio > 1.5, "ADPS/SDPS ratio {ratio} too small");
}

#[test]
fn acceptance_is_monotone_in_requested_channels() {
    let pattern = RequestPattern::MasterSlaveRoundRobin;
    for dps in [DpsKind::Symmetric, DpsKind::Asymmetric] {
        let mut prev = 0;
        for requested in (20..=200).step_by(20) {
            let a = accepted(dps, requested, &pattern);
            assert!(a >= prev, "{dps:?}: accepted dropped from {prev} to {a}");
            prev = a;
        }
    }
}

#[test]
fn random_slave_assignment_preserves_the_shape() {
    // The paper does not pin down how slaves are chosen; the result must be
    // robust to choosing them at random instead of round-robin.
    let pattern = RequestPattern::MasterSlaveRandom { seed: 2004 };
    assert_eq!(
        series(DpsKind::Symmetric, &pattern),
        SDPS_SERIES,
        "SDPS is limited by the uplinks regardless of slave choice"
    );
    for dps in [DpsKind::Asymmetric, DpsKind::UtilisationWeighted] {
        assert_eq!(
            series(dps, &pattern),
            [20, 40, 60, 80, 100, 110, 113, 113, 114, 114],
            "{dps:?}"
        );
    }
    assert_eq!(
        series(DpsKind::Search, &pattern),
        [20, 40, 60, 80, 100, 117, 119, 120, 120, 120]
    );
}
