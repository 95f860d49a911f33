//! Deadline partitioning (§18.4): the paper's two-link rules, and the choice
//! between them and the per-hop rules of [`MultiHopDps`].
//!
//! A DPS maps the end-to-end relative deadline `d_i` of a channel onto a
//! per-link pair `(d_iu, d_id)` with `d_iu + d_id = d_i` (Eq. 18.8).  Written
//! as the uplink fraction `U_part,i = d_iu / d_i` (Eq. 18.11–18.13), a DPS is
//! a function of the current system state — here, of what the ledger holds on
//! the source's uplink and on the destination's downlink.
//!
//! The two families are different policies, not one written twice: the
//! paper's rules split the *whole* deadline in proportion to the loads
//! (Eq. 18.16), the per-hop rules hand every link `C_i` first and split only
//! the slack.  Each measures better on its own workload (ARCHITECTURE.md,
//! "two DPS families, measured"), so a star build partitions with a
//! [`DpsKind`] and a fabric build with a [`MultiHopDps`]; everything under
//! the rule — ledger, per-link test, handshake — is shared.

use rt_edf::PeriodicTask;
use rt_types::{RtResult, Slots};

use crate::channel::{DeadlineSplit, RtChannelSpec};
use crate::ledger::LinkView;
use crate::multihop::MultiHopDps;

/// The paper's two-link deadline-partitioning rules and the two ablations
/// beside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DpsKind {
    /// SDPS: `d_iu = d_id = d_i / 2` (Eq. 18.14), i.e. `U_part,i = ½`
    /// whatever the system state (Eq. 18.15).
    Symmetric,
    /// ADPS: `U_part,i = LL(Source_i) / (LL(Source_i) + LL(Destination_i))`
    /// (Eq. 18.16), `LL` being the number of channels on the source's uplink
    /// respectively the destination's downlink.
    ///
    /// The DPS is defined over the system state *including the channel being
    /// partitioned* (Eq. 18.10: its dimension is `size(K)` with the new
    /// channel in `K`), so the candidate counts towards both loads.  This
    /// also matches the paper's measured saturation point (~110 accepted
    /// channels, 11 per master uplink, in the Figure 18.5 configuration): the
    /// first channel of a pair is split in half, and the split drifts towards
    /// the loaded uplink as its load grows, without ever starving the
    /// downlink to its bare minimum.
    Asymmetric,
    /// ADPS with the load of a link measured as its reserved utilisation
    /// `Σ C/P` instead of its channel count, so a link carrying a few heavy
    /// channels counts as more loaded than one carrying as many light ones.
    UtilisationWeighted,
    /// Feasibility-guided search: the first of the ADPS guess and up to 64
    /// (`SEARCH_CANDIDATES`) uplink deadlines spread evenly over
    /// `C_i ..= d_i − C_i` for which *both* links pass the per-link test with
    /// the candidate added; the symmetric split (and with it a rejection)
    /// when none does.  An upper bound on what a state-dependent DPS can do
    /// for one request — greedy across requests, not globally optimal.
    Search,
}

/// Splits [`DpsKind::Search`] examines per request at most, so that admission
/// latency stays bounded.
const SEARCH_CANDIDATES: u64 = 64;

impl DpsKind {
    /// All four rules, for sweeps.
    pub const ALL: [DpsKind; 4] = [
        DpsKind::Symmetric,
        DpsKind::Asymmetric,
        DpsKind::UtilisationWeighted,
        DpsKind::Search,
    ];

    /// A short name for reports and benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            DpsKind::Symmetric => "SDPS",
            DpsKind::Asymmetric => "ADPS",
            DpsKind::UtilisationWeighted => "ADPS-util",
            DpsKind::Search => "Search-DPS",
        }
    }

    /// Partition the deadline of a *candidate* channel, given what the
    /// source's uplink and the destination's downlink hold without it.
    pub(crate) fn split(
        self,
        spec: &RtChannelSpec,
        up: LinkView<'_>,
        down: LinkView<'_>,
    ) -> RtResult<DeadlineSplit> {
        // The candidate traverses both links and is part of the state the
        // DPS partitions: it counts on both sides.
        let by_load = || {
            let (ll_src, ll_dst) = (up.load() as f64 + 1.0, down.load() as f64 + 1.0);
            DeadlineSplit::from_upart(spec, ll_src / (ll_src + ll_dst))
        };
        match self {
            DpsKind::Symmetric => DeadlineSplit::symmetric(spec),
            DpsKind::Asymmetric => by_load(),
            DpsKind::UtilisationWeighted => {
                let u = spec.utilisation();
                let (u_src, u_dst) = (up.utilisation() + u, down.utilisation() + u);
                DeadlineSplit::from_upart(spec, u_src / (u_src + u_dst))
            }
            DpsKind::Search => {
                let fits = |link: LinkView<'_>, deadline: Slots| {
                    PeriodicTask::new(spec.period, spec.capacity, deadline)
                        .is_ok_and(|task| link.feasible_with(&task).is_feasible())
                };
                let (lo, d) = (spec.capacity.get(), spec.deadline.get());
                let span = d.saturating_sub(2 * lo);
                let candidates = SEARCH_CANDIDATES.min(span + 1);
                let spread =
                    (0..candidates).map(|k| Slots::new(lo + (span * k) / (candidates - 1).max(1)));
                std::iter::once(by_load()?.uplink)
                    .chain(spread)
                    .filter_map(|up_d| DeadlineSplit::new(spec, up_d, spec.deadline - up_d).ok())
                    .find(|split| fits(up, split.uplink) && fits(down, split.downlink))
                    .map_or_else(|| DeadlineSplit::symmetric(spec), Ok)
            }
        }
    }
}

/// Which family of rules partitions the deadlines of an admission stack: the
/// one choice between a star build and a fabric build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpsFamily {
    /// The paper's rules, for routes of exactly two links (`uplink →
    /// downlink`, the single-switch star).  Channels keep the paper's
    /// end-to-end EDF deadline stamps on the wire.
    TwoLink(DpsKind),
    /// The per-hop rules, for routes of any length.  Channels carry their
    /// per-link budgets onto the wire.
    PerHop(MultiHopDps),
}

impl From<DpsKind> for DpsFamily {
    fn from(kind: DpsKind) -> Self {
        DpsFamily::TwoLink(kind)
    }
}

impl From<MultiHopDps> for DpsFamily {
    fn from(dps: MultiHopDps) -> Self {
        DpsFamily::PerHop(dps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{ReservationKey, SlackLedger};
    use rt_types::{HopLink, NodeId};

    const UP: HopLink = HopLink::Uplink(NodeId::new(0));
    const DOWN: HopLink = HopLink::Downlink(NodeId::new(1));

    fn spec(p: u64, c: u64, d: u64) -> RtChannelSpec {
        RtChannelSpec::new(Slots::new(p), Slots::new(c), Slots::new(d)).unwrap()
    }

    /// A ledger holding `n` tasks `{p, c, d}` on `link` (after what it held).
    fn load(ledger: &mut SlackLedger, link: HopLink, n: u16, (p, c, d): (u64, u64, u64)) {
        let held = ledger.link_load(link) as u16;
        let task = PeriodicTask::new(Slots::new(p), Slots::new(c), Slots::new(d)).unwrap();
        for id in held..held + n {
            ledger.reserve(link, ReservationKey::Channel(id + 1), task);
        }
    }

    fn split(kind: DpsKind, spec: &RtChannelSpec, ledger: &SlackLedger) -> (u64, u64) {
        let split = kind
            .split(spec, ledger.link(UP), ledger.link(DOWN))
            .unwrap();
        split.validate(spec).unwrap();
        (split.uplink.get(), split.downlink.get())
    }

    #[test]
    fn every_rule_halves_the_deadline_on_empty_links_and_only_sdps_ignores_load() {
        let paper = RtChannelSpec::paper_default();
        let mut ledger = SlackLedger::new();
        for kind in DpsKind::ALL {
            assert_eq!(split(kind, &paper, &ledger), (20, 20), "{kind:?}");
        }
        assert_eq!(
            DpsKind::ALL.map(DpsKind::name),
            ["SDPS", "ADPS", "ADPS-util", "Search-DPS"]
        );
        // One channel on the uplink, none on the downlink: counting the
        // candidate, U_part = 2 / (2 + 1) -> d_u = 27.
        load(&mut ledger, UP, 1, (100, 3, 20));
        assert_eq!(split(DpsKind::Symmetric, &paper, &ledger), (20, 20));
        assert_eq!(split(DpsKind::Asymmetric, &paper, &ledger), (27, 13));
        // Five on the uplink and one on the downlink: 6 / (6 + 2) -> 30.
        load(&mut ledger, UP, 4, (100, 3, 20));
        load(&mut ledger, DOWN, 1, (100, 3, 20));
        assert_eq!(split(DpsKind::Asymmetric, &paper, &ledger), (30, 10));
        // Equal loads are the symmetric split again ...
        load(&mut ledger, DOWN, 4, (100, 3, 20));
        assert_eq!(split(DpsKind::Asymmetric, &paper, &ledger), (20, 20));
        // ... except that an odd deadline rounds the two rules apart: SDPS
        // floors the uplink half, ADPS rounds U_part·d to the nearest slot.
        let odd = spec(100, 3, 41);
        assert_eq!(split(DpsKind::Symmetric, &odd, &ledger), (20, 21));
        assert_eq!(split(DpsKind::Asymmetric, &odd, &ledger), (21, 20));
    }

    #[test]
    fn weighted_adps_follows_utilisation_not_count() {
        // The uplink carries ONE heavy channel (C=30, P=100), the downlink
        // TWO light ones (C=1, P=100).  By count 2/(2+3) favours the
        // downlink; by utilisation 0.33/(0.33+0.05) favours the uplink, the
        // genuinely loaded one.
        let mut ledger = SlackLedger::new();
        load(&mut ledger, UP, 1, (100, 30, 40));
        load(&mut ledger, DOWN, 2, (100, 1, 20));
        let paper = RtChannelSpec::paper_default();
        assert!(split(DpsKind::Asymmetric, &paper, &ledger).0 < 20);
        assert!(split(DpsKind::UtilisationWeighted, &paper, &ledger).0 > 30);
    }

    #[test]
    fn search_finds_a_split_when_one_exists_and_is_symmetric_when_none_does() {
        let paper = RtChannelSpec::paper_default();
        // Six symmetric channels exhaust the d_u = 20 budget (6·3 = 18 <= 20,
        // a seventh needs 21): the symmetric split no longer fits the
        // uplink, a larger uplink share does.
        let mut ledger = SlackLedger::new();
        load(&mut ledger, UP, 6, (100, 3, 20));
        let task = |d| PeriodicTask::new(paper.period, paper.capacity, Slots::new(d)).unwrap();
        assert!(!ledger.feasible_with(UP, &task(20)).is_feasible());
        let (up, down) = split(DpsKind::Search, &paper, &ledger);
        assert!(ledger.feasible_with(UP, &task(up)).is_feasible());
        assert!(ledger.feasible_with(DOWN, &task(down)).is_feasible());

        // An uplink at utilisation 1 takes nothing more, whatever the split.
        let mut full = SlackLedger::new();
        load(&mut full, UP, 2, (10, 5, 10));
        assert_eq!(split(DpsKind::Search, &paper, &full), (20, 20));
    }
}
