//! What a channel manager does when the fabric changes under its channels:
//! the one fail-over and the one re-optimisation, whichever manager holds the
//! channels.
//!
//! A cut releases every admitted channel that crossed it and re-admits each
//! over the surviving candidate routes, keeping its id; a repair moves the
//! channels that sit off their primary route back onto it, one at a time,
//! and never drops one.  Neither decision depends on *where* a link's book is
//! kept, so both are written once, against a [`ChannelStore`]: the channel
//! table and the ledgers behind it, as seen through the few operations in
//! which the managers really differ.  [`MultiHopAdmission`] answers them from
//! its one fabric-wide ledger, [`DistributedChannelManager`] from the ledgers
//! of the sites that own the links.
//!
//! [`MultiHopAdmission`]: crate::multihop::MultiHopAdmission
//! [`DistributedChannelManager`]: crate::distributed::DistributedChannelManager

use rt_types::{HopLink, Route, Router, Slots, SwitchId, Topology};

use crate::channel::RtChannelSpec;
use crate::manager::{ChannelRoute, FailoverReport};

/// What a manager keeps from one fault to the next: which live channels its
/// last repair left on their primary routes, so that the next one need not
/// ask again, and two counters.
///
/// Kept beside the channel table, not in its entries: a request and a
/// teardown then move exactly the bytes they moved before a repair kept
/// anything, and a manager that never repairs a trunk holds an empty set.
#[derive(Debug, Default)]
pub(crate) struct FaultLog {
    /// The [`Topology::fingerprint`] of the fabric state `on_primary` was
    /// observed under.
    under: Option<u64>,
    /// One bit per raw channel id: the channel's path was seen equal to the
    /// router's primary route under `under`, and the channel has not been
    /// released since.  Set only by [`reoptimize`], where that comparison is
    /// made; cleared by [`FaultLog::forget`].
    on_primary: Vec<u64>,
    /// Channels re-routed by a fail-over or moved back by a repair.
    pub(crate) rerouted: u64,
    /// Channels dropped because no surviving route could re-admit them.
    pub(crate) dropped: u64,
}

impl FaultLog {
    /// Keep the marks if they were observed under `state`, start an empty set
    /// under `state` otherwise.
    fn observe_under(&mut self, state: u64) {
        if self.under != Some(state) {
            self.under = Some(state);
            self.on_primary.clear();
        }
    }

    fn seen_on_primary(&self, id: u16) -> bool {
        let word = self.on_primary.get(usize::from(id) / 64);
        word.is_some_and(|word| word >> (id % 64) & 1 == 1)
    }

    fn mark_on_primary(&mut self, id: u16) {
        let word = usize::from(id) / 64;
        if word >= self.on_primary.len() {
            self.on_primary.resize(word + 1, 0);
        }
        self.on_primary[word] |= 1 << (id % 64);
    }

    /// A channel left the table — every release of one must come through
    /// here: whatever holds its id next (a new channel, a fail-over, a
    /// repair's move or its restore) starts with nothing known about it.
    pub(crate) fn forget(&mut self, id: u16) {
        if let Some(word) = self.on_primary.get_mut(usize::from(id) / 64) {
            *word &= !(1 << (id % 64));
        }
    }
}

/// A manager's channel table and the ledgers behind it, as the fault engine
/// sees them.  The first six methods read what every manager keeps; the last
/// four are where the managers differ: who holds a key on a trunk, and how a
/// channel comes off its links, is tested against them and goes back on.
pub(crate) trait ChannelStore {
    /// What names a channel's reservation beside its id.
    type Holder: Copy;

    /// The fabric as the fault notifications have left it.
    fn fabric(&self) -> &Topology;
    /// The path-selection policy.
    fn router(&self) -> &dyn Router;
    /// The ids of the admitted channels, in no particular order.
    fn ids(&self) -> impl ExactSizeIterator<Item = u16> + '_;
    /// The record of an admitted channel.
    fn record(&self, id: u16) -> &ChannelRoute;
    /// What the last fault left behind.
    fn faults(&self) -> &FaultLog;
    /// The same, to write.
    fn faults_mut(&mut self) -> &mut FaultLog;

    /// Append the ids of the admitted channels holding a reservation on the
    /// directed `trunk`, read off that trunk's own book.
    fn ids_on(&self, trunk: HopLink, ids: &mut Vec<u16>);
    /// Lift a channel: take it off the table and release it on every link of
    /// its path.  It holds nothing afterwards, and its mark is forgotten.
    fn lift(&mut self, id: u16) -> (ChannelRoute, Self::Holder);
    /// The admission sequence over `route` against what the links hold now,
    /// committing nothing: the per-link deadlines, or `None`.
    fn admit(&self, spec: &RtChannelSpec, route: &Route) -> Option<Vec<Slots>>;
    /// Put a lifted channel (back) on the table, reserving `channel.path`
    /// under `channel.link_deadlines` with the key it always had.  Returns
    /// the record as stored.
    fn put(&mut self, channel: ChannelRoute, holder: Self::Holder) -> &ChannelRoute;
}

/// Fail over ([`crate::manager::ChannelManager::handle_link_failure`]): the
/// trunks of `cut` just died and the topology is already degraded.  The books
/// of the cut trunks, both directions, name the affected channels, so nothing
/// off the cut is read or written; each is re-admitted over the router's
/// candidates in preference order, or dropped.
pub(crate) fn fail_over<S: ChannelStore>(
    store: &mut S,
    cut: &[(SwitchId, SwitchId)],
    link: (SwitchId, SwitchId),
) -> FailoverReport {
    let mut affected: Vec<u16> = Vec::new();
    for &(a, b) in cut {
        for (from, to) in [(a, b), (b, a)] {
            store.ids_on(HopLink::Trunk { from, to }, &mut affected);
        }
    }
    // Ascending id, each channel once however many cut trunks it crossed.
    affected.sort_unstable();
    affected.dedup();
    let mut report = FailoverReport {
        link,
        rerouted: Vec::new(),
        dropped: Vec::new(),
        unaffected: store.ids().len() - affected.len(),
    };
    // Release *every* affected channel before re-admitting any: a
    // one-at-a-time release would feasibility-test early re-admissions
    // against the stale reservations of later affected channels and drop
    // channels the surviving fabric could actually carry.
    let lifted: Vec<_> = affected.into_iter().map(|id| store.lift(id)).collect();
    for (mut channel, holder) in lifted {
        let (router, fabric) = (store.router(), store.fabric());
        let candidates = router.routes(fabric, channel.source, channel.destination);
        let mut candidates = candidates.unwrap_or_default();
        let admitted = candidates
            .iter()
            .enumerate()
            .find_map(|(at, route)| Some((at, store.admit(&channel.spec, route)?)));
        match admitted {
            Some((at, deadlines)) => {
                channel.path = candidates.swap_remove(at);
                channel.link_deadlines = deadlines;
                report.rerouted.push(store.put(channel, holder).clone());
                store.faults_mut().rerouted += 1;
            }
            None => {
                report.dropped.push(channel);
                store.faults_mut().dropped += 1;
            }
        }
    }
    report
}

/// Re-optimise after a trunk repair
/// ([`crate::manager::ChannelManager::handle_link_repair`]): the topology
/// already has the trunk back.  A channel already seen on its primary route
/// under this very fabric state, and not re-placed since, is counted
/// `unaffected` without asking the router again: the answer would be the same
/// route, and the decision for such a channel is to leave it alone.
pub(crate) fn reoptimize<S: ChannelStore>(
    store: &mut S,
    link: (SwitchId, SwitchId),
) -> FailoverReport {
    let state = store.fabric().fingerprint();
    store.faults_mut().observe_under(state);
    let (log, ids) = (store.faults(), store.ids());
    let mut unseen: Vec<u16> = ids.filter(|id| !log.seen_on_primary(*id)).collect();
    // One at a time in ascending id: each move changes what the next finds.
    unseen.sort_unstable();
    let mut report = FailoverReport {
        link,
        rerouted: Vec::new(),
        dropped: Vec::new(),
        unaffected: store.ids().len() - unseen.len(),
    };
    for id in unseen {
        let (channel, router, fabric) = (store.record(id), store.router(), store.fabric());
        let Ok(primary) = router.route(fabric, channel.source, channel.destination) else {
            report.unaffected += 1;
            continue;
        };
        if primary == channel.path {
            store.faults_mut().mark_on_primary(id);
            report.unaffected += 1;
            continue;
        }
        // Lift-then-admit, one channel at a time: freeing only this channel's
        // capacity means the fallback below can always restore its exact
        // previous reservation (the ledger state it restores was feasible a
        // moment ago), so re-optimisation is safe.
        let (mut channel, holder) = store.lift(id);
        match store.admit(&channel.spec, &primary) {
            Some(deadlines) => {
                channel.path = primary;
                channel.link_deadlines = deadlines;
                report.rerouted.push(store.put(channel, holder).clone());
                let faults = store.faults_mut();
                faults.rerouted += 1;
                faults.mark_on_primary(id);
            }
            None => {
                store.put(channel, holder);
                report.unaffected += 1;
            }
        }
    }
    report
}

/// The fault path against the code it replaced, on every manager: the
/// full-scan oracles, the seeded walk that compares them with the engine, and
/// the counting router the "a fault costs what it touches" tests share.
#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::Arc;

    use rt_types::rng::Xoshiro256;
    use rt_types::{ChannelId, NextHopCache, NodeId, RoutePolicy, RtResult, ShortestPathRouter};

    use super::*;
    use crate::distributed::DistributedChannelManager;
    use crate::multihop::MultiHopAdmission;

    // --- the oracles --------------------------------------------------------

    /// The fail-over every manager ran before PR 22 gave the central one the
    /// books to read: the affected channels are found by walking every hop of
    /// every live channel.
    fn fail_over_by_full_scan<S: ChannelStore>(
        store: &mut S,
        cut: &[(SwitchId, SwitchId)],
        link: (SwitchId, SwitchId),
    ) -> FailoverReport {
        let is_cut = |l: &HopLink| {
            matches!(*l, HopLink::Trunk { from, to }
                if cut.iter().any(|&(a, b)| (from, to) == (a, b) || (from, to) == (b, a)))
        };
        let crosses = |id: &u16| store.record(*id).path.iter().any(is_cut);
        let mut affected: Vec<u16> = store.ids().filter(crosses).collect();
        affected.sort_unstable();
        let mut report = FailoverReport {
            link,
            rerouted: Vec::new(),
            dropped: Vec::new(),
            unaffected: store.ids().len() - affected.len(),
        };
        let lifted: Vec<_> = affected.into_iter().map(|id| store.lift(id)).collect();
        for (mut channel, holder) in lifted {
            let (router, fabric) = (store.router(), store.fabric());
            let candidates = router.routes(fabric, channel.source, channel.destination);
            let readmitted = candidates.unwrap_or_default().into_iter().find_map(|path| {
                let deadlines = store.admit(&channel.spec, &path)?;
                Some((path, deadlines))
            });
            match readmitted {
                Some((path, deadlines)) => {
                    (channel.path, channel.link_deadlines) = (path, deadlines);
                    report.rerouted.push(store.put(channel, holder).clone());
                    store.faults_mut().rerouted += 1;
                }
                None => {
                    report.dropped.push(channel);
                    store.faults_mut().dropped += 1;
                }
            }
        }
        report
    }

    /// The re-optimisation that asks the router about every live channel and
    /// keeps no mark — what the central manager ran before PR 22 and the
    /// distributed one before it was handed the engine.
    fn reoptimize_every_channel<S: ChannelStore>(
        store: &mut S,
        link: (SwitchId, SwitchId),
    ) -> FailoverReport {
        let mut report = FailoverReport {
            link,
            rerouted: Vec::new(),
            dropped: Vec::new(),
            unaffected: 0,
        };
        let mut ids: Vec<u16> = store.ids().collect();
        ids.sort_unstable();
        for id in ids {
            let channel = store.record(id);
            let (router, fabric) = (store.router(), store.fabric());
            let primary = router.route(fabric, channel.source, channel.destination);
            let Some(primary) = primary.ok().filter(|primary| *primary != channel.path) else {
                report.unaffected += 1;
                continue;
            };
            let (mut channel, holder) = store.lift(id);
            match store.admit(&channel.spec, &primary) {
                Some(deadlines) => {
                    (channel.path, channel.link_deadlines) = (primary, deadlines);
                    report.rerouted.push(store.put(channel, holder).clone());
                    store.faults_mut().rerouted += 1;
                }
                None => {
                    store.put(channel, holder);
                    report.unaffected += 1;
                }
            }
        }
        report
    }

    // --- the walk -----------------------------------------------------------

    /// One fault notification, as either twin of the walk below takes it.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Fault {
        Cut(SwitchId, SwitchId),
        Repair(SwitchId, SwitchId),
        Kill(SwitchId),
    }

    /// What the walk needs of a manager beside the engine's seam: a way in for
    /// requests, teardowns and fault notifications, and a look at its books.
    pub(crate) trait Walked: ChannelStore {
        fn build(topology: &Topology, router: Arc<dyn Router>) -> Self;
        /// Ask for a channel, the destination accepting: the record as
        /// admitted, `None` for a refusal, `Err` for what the manager calls
        /// the caller's mistake.
        fn ask(
            &mut self,
            source: NodeId,
            destination: NodeId,
            spec: RtChannelSpec,
        ) -> RtResult<Option<ChannelRoute>>;
        fn tear_down(&mut self, id: ChannelId);
        /// The notification, through the manager's own fault path.
        fn notify(&mut self, fault: Fault) -> RtResult<FailoverReport>;
        /// Everything `notify` does *around* the engine — the fabric change,
        /// and whatever else the manager does on hearing of it — and the
        /// trunks that went down with it.
        fn degrade(&mut self, fault: Fault) -> RtResult<Vec<(SwitchId, SwitchId)>>;
        /// The books hold exactly what the table's channels say, link by
        /// link, and nothing else; returns how many links hold anything.
        fn audit(&mut self) -> usize;
    }

    /// The same notification through the oracles.
    fn notify_oracle<S: Walked>(oracle: &mut S, fault: Fault) -> RtResult<FailoverReport> {
        let cut = oracle.degrade(fault)?;
        Ok(match fault {
            Fault::Cut(a, b) => fail_over_by_full_scan(oracle, &cut, (a, b)),
            Fault::Repair(a, b) => reoptimize_every_channel(oracle, (a, b)),
            Fault::Kill(switch) => fail_over_by_full_scan(oracle, &cut, (switch, switch)),
        })
    }

    /// What a seeded walk did, so that the property can say it really went
    /// where it claims to go.
    #[derive(Debug, Default)]
    pub(crate) struct WalkTally {
        pub(crate) torn_down: usize,
        moved_by_cuts: usize,
        moved_by_repairs: usize,
        dropped: usize,
        /// Channels a repair left alone on the strength of their mark.
        skipped: usize,
        /// Channels a repair examined and had to leave off their primary
        /// route (it could not admit them, or there is none).
        kept_on_detour: usize,
        /// Channels admitted on another candidate than the primary route.
        admitted_on_fallback: usize,
        concurrent_cuts: usize,
        switch_kills: usize,
    }

    /// How many live channels carry the last repair's mark.
    pub(crate) fn seen_on_primary<S: ChannelStore>(store: &S) -> usize {
        let marked = |id: &u16| store.faults().seen_on_primary(*id);
        store.ids().filter(marked).count()
    }

    /// The ascending-id contract's scenario, on `ring(6, 2)` (switch `s`
    /// holds nodes `2s` and `2s + 1`): ids are handed out across the end of
    /// the id space or block (`wrap` moves the manager's cursors there), a
    /// scattered third of the channels is released, and after a second wrap
    /// the freed ids are handed out again, out of order, among live ones.
    /// Then switch 0 dies — channels between switches 1 and 5 re-route the
    /// long way round, channels to or from switch 0 are dropped — and its two
    /// trunks come back one at a time, the second repair moving the detoured
    /// channels back.  Returns the manager, the ids it admitted, and the
    /// reports of the kill and the two repairs.
    pub(crate) fn reuse_ids_across_the_wrap<S: Walked>(
        wrap: impl Fn(&mut S),
    ) -> (S, Vec<u16>, [FailoverReport; 3]) {
        let topology = Topology::ring(6, 2);
        let mut manager = S::build(&topology, Arc::new(ShortestPathRouter::new()));
        let spec = RtChannelSpec::new(Slots::new(100), Slots::new(1), Slots::new(60)).unwrap();
        let pairs = [(2, 10), (11, 3), (0, 6), (8, 1), (4, 7)];
        let mut admitted = Vec::new();
        let mut ask = |manager: &mut S, k: usize| {
            let (src, dst) = pairs[k % pairs.len()];
            let asked = manager.ask(NodeId::new(src), NodeId::new(dst), spec);
            let channel = asked.unwrap().expect("the ring has room for every request");
            admitted.push(channel.id.get());
            channel.id
        };
        wrap(&mut manager);
        let first: Vec<ChannelId> = (0..24).map(|k| ask(&mut manager, k)).collect();
        for id in first.iter().step_by(3).rev() {
            manager.tear_down(*id);
        }
        wrap(&mut manager);
        for k in 0..12 {
            ask(&mut manager, k);
        }
        manager.audit();
        let mut notify = |fault| {
            let report = manager.notify(fault).unwrap();
            manager.audit();
            report
        };
        let killed = notify(Fault::Kill(SwitchId::new(0)));
        let first_back = notify(Fault::Repair(SwitchId::new(0), SwitchId::new(1)));
        let second_back = notify(Fault::Repair(SwitchId::new(0), SwitchId::new(5)));
        (manager, admitted, [killed, first_back, second_back])
    }

    /// What [`reuse_ids_across_the_wrap`] must have produced, and every id
    /// list of its reports ascending; `live` is what the manager says it
    /// holds, in the order it says it.
    pub(crate) fn assert_ascending_across_the_wrap(
        admitted: &[u16],
        reports: &[FailoverReport; 3],
        live: &[u16],
    ) {
        let ascending = |ids: &[u16], what: &str| {
            assert!(
                ids.is_sorted_by(|a, b| a < b),
                "{what} not ascending: {ids:?}"
            );
        };
        let reused = admitted.len() - admitted.iter().collect::<BTreeSet<_>>().len();
        assert!(reused >= 4, "freed ids were handed out again: {admitted:?}");
        ascending(live, "the live channels");
        let [killed, first_back, second_back] = reports;
        let ids =
            |channels: &[ChannelRoute]| channels.iter().map(|c| c.id.get()).collect::<Vec<_>>();
        for (report, what) in [
            (killed, "kill"),
            (first_back, "repair 1"),
            (second_back, "repair 2"),
        ] {
            ascending(&ids(&report.rerouted), &format!("{what}: rerouted"));
            ascending(&ids(&report.dropped), &format!("{what}: dropped"));
        }
        assert!(
            killed.rerouted.len() >= 2 && killed.dropped.len() >= 2,
            "{killed:?}"
        );
        assert!(second_back.rerouted.len() >= 2, "{second_back:?}");
    }

    /// Seeds of the fault differential property: the `RT_ADVERSARIAL_SEEDS`
    /// matrix the CI soaks crank up, or the policy's own default — 8 under
    /// the shortest-path router, 4 under the other two.
    fn fault_walk_seeds(default: u64) -> u64 {
        std::env::var("RT_ADVERSARIAL_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// 400 steps of request / teardown / cut / repair / flap / switch kill on
    /// `torus(3, 3, 4)`, taken by two managers of one type: one through its
    /// own fault path — the engine — its twin through the oracles above.  Up
    /// to three trunks are down at once (a killed switch takes four), repairs
    /// pick any failed trunk — so not in the order of the cuts, and onto
    /// states no repair has seen — and a flap cuts and repairs one trunk
    /// twice over, which is where a mark written by one repair meets the
    /// next.  After every fault the two reports are equal field for field,
    /// after every step the two channel tables are, and both managers' books
    /// hold exactly what their channels say.
    ///
    /// `tests/distributed_admission.rs` takes the same walk through a central
    /// and a distributed manager side by side and writes the generator out a
    /// second time (it cannot see this module): the arms of `match
    /// rng.below(40)` below, the rng seed and the spec ranges **must be
    /// changed in both places together**.  Its doc lists what that copy
    /// leaves out.
    pub(crate) fn fault_walk<S: Walked>(
        seed: u64,
        router: impl Fn() -> Arc<dyn Router>,
        tally: &mut WalkTally,
    ) {
        let topology = Topology::torus(3, 3, 4);
        let nodes = topology.node_count() as u64;
        let trunks: Vec<(SwitchId, SwitchId)> = topology.trunks().collect();
        let mut rng = Xoshiro256::new(0x1ed6_e400 + seed);
        let (mut manager, mut oracle) =
            (S::build(&topology, router()), S::build(&topology, router()));
        let mut live: Vec<ChannelId> = Vec::new();

        for step in 0..400 {
            let failed: Vec<_> = manager.fabric().failed_trunks().collect();
            let healthy = |rng: &mut Xoshiro256| loop {
                let (a, b) = trunks[rng.below(trunks.len() as u64) as usize];
                if manager.fabric().has_trunk(a, b) {
                    return (a, b);
                }
            };
            let mut faults: Vec<Fault> = Vec::new();
            match rng.below(40) {
                // Tear one down.
                0..=11 if !live.is_empty() => {
                    let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                    manager.tear_down(id);
                    oracle.tear_down(id);
                    tally.torn_down += 1;
                }
                // Cut a trunk, beside whatever is down already ...
                12..=14 if failed.len() < 3 => {
                    let (a, b) = healthy(&mut rng);
                    tally.concurrent_cuts += usize::from(!failed.is_empty());
                    faults.push(Fault::Cut(a, b));
                }
                // ... splice any failed one back, which re-optimises ...
                12..=16 if !failed.is_empty() => {
                    let (a, b) = failed[rng.below(failed.len() as u64) as usize];
                    faults.push(Fault::Repair(a, b));
                }
                // ... flap one trunk twice ...
                17 => {
                    let (a, b) = healthy(&mut rng);
                    let flap = [Fault::Cut(a, b), Fault::Repair(b, a)];
                    faults.extend(flap.iter().chain(&flap));
                }
                // ... or lose a whole switch.
                18 | 19 if failed.is_empty() => {
                    faults.push(Fault::Kill(SwitchId::new(rng.below(9) as u32)));
                    tally.switch_kills += 1;
                }
                // Otherwise ask for a new channel, half of them towards the
                // first switch so that its links fill and fallbacks occur.
                _ => {
                    let src = rng.below(nodes) as u32;
                    let dst = if rng.chance(0.5) {
                        rng.below(4) as u32
                    } else {
                        rng.below(nodes) as u32
                    };
                    let spec = RtChannelSpec::new(
                        Slots::new(rng.range_inclusive(50, 400)),
                        Slots::new(rng.range_inclusive(1, 6)),
                        Slots::new(rng.range_inclusive(30, 80)),
                    )
                    .unwrap();
                    if src != dst {
                        let (src, dst) = (NodeId::new(src), NodeId::new(dst));
                        // `Err`: a killed switch is still cut off.
                        let asked = manager.ask(src, dst, spec);
                        let twin = oracle.ask(src, dst, spec);
                        assert_eq!(asked.is_ok(), twin.is_ok(), "seed {seed} step {step}");
                        assert_eq!(
                            asked.as_ref().ok(),
                            twin.as_ref().ok(),
                            "seed {seed} step {step}"
                        );
                        if let Ok(Some(channel)) = asked {
                            let primary = manager.router().route(manager.fabric(), src, dst);
                            tally.admitted_on_fallback +=
                                usize::from(primary.ok().as_ref() != Some(&channel.path));
                            live.push(channel.id);
                        }
                    }
                }
            }
            for fault in faults {
                let what = format!("seed {seed} step {step} {fault:?}");
                if let Fault::Repair(a, b) = fault {
                    let mut repaired = manager.fabric().clone();
                    repaired.repair_trunk(a, b).unwrap();
                    if manager.faults().under == Some(repaired.fingerprint()) {
                        tally.skipped += seen_on_primary(&manager);
                    }
                }
                let report = manager.notify(fault).expect(&what);
                let expected = notify_oracle(&mut oracle, fault).expect(&what);
                assert_eq!(report.link, expected.link, "{what}");
                assert_eq!(report.rerouted, expected.rerouted, "{what}: rerouted");
                assert_eq!(report.dropped, expected.dropped, "{what}: dropped");
                assert_eq!(report.unaffected, expected.unaffected, "{what}: unaffected");
                live.retain(|id| !report.dropped.iter().any(|dropped| dropped.id == *id));
                tally.dropped += report.dropped.len();
                match fault {
                    Fault::Repair(..) => {
                        assert!(report.dropped.is_empty(), "{what}");
                        tally.moved_by_repairs += report.rerouted.len();
                        // A repair marks every channel it leaves on its
                        // primary route, so the rest are off theirs.
                        tally.kept_on_detour += manager.ids().len() - seen_on_primary(&manager);
                    }
                    _ => tally.moved_by_cuts += report.rerouted.len(),
                }
                manager.audit();
                oracle.audit();
            }
            let table = |store: &S| -> Vec<ChannelRoute> {
                let mut ids: Vec<u16> = store.ids().collect();
                ids.sort_unstable();
                ids.into_iter().map(|id| store.record(id).clone()).collect()
            };
            assert_eq!(
                table(&manager),
                table(&oracle),
                "seed {seed} step {step}: the channel tables diverge"
            );
            manager.audit();
            oracle.audit();
        }
        assert_eq!(manager.ids().len(), live.len());
        let counters = |store: &S| (store.faults().rerouted, store.faults().dropped);
        assert_eq!(counters(&manager), counters(&oracle));
        // Everything torn down: the books are empty, link by link.
        for id in live.drain(..) {
            manager.tear_down(id);
        }
        assert_eq!(manager.audit(), 0, "seed {seed}");
    }

    /// The differential property of the fault path, on both managers: what
    /// `fail_over` reads off the cut trunks' books and what `reoptimize` skips
    /// on a mark are the decisions of the full scan and of asking about every
    /// channel — ids, routes and deadline splits in order, `dropped`,
    /// `unaffected` — under the single-route policy, the k-shortest one
    /// (whose fallback admissions sit off their primary and must be looked at
    /// by every repair) and ECMP.  It also is the path-release property of
    /// both managers' books: no key of a released, dropped or moved channel
    /// stays behind on any link, at any site.
    #[test]
    fn prop_fault_reports_match_the_full_scan_oracles() {
        type MakeRouter = fn() -> Arc<dyn Router>;
        type Walk = fn(u64, MakeRouter, &mut WalkTally);
        let managers: [(&str, Walk); 2] = [
            ("central", |seed, router, tally| {
                fault_walk::<MultiHopAdmission>(seed, router, tally)
            }),
            ("distributed", |seed, router, tally| {
                fault_walk::<DistributedChannelManager>(seed, router, tally)
            }),
        ];
        let policies: [(&str, u64, MakeRouter); 3] = [
            ("shortest-path", 8, || Arc::new(ShortestPathRouter::new())),
            ("k-shortest", 4, || {
                Arc::new(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
                    k: 3,
                }))
            }),
            ("ecmp", 4, || {
                Arc::new(ShortestPathRouter::with_policy(RoutePolicy::Ecmp {
                    seed: 0xec3f,
                }))
            }),
        ];
        for (manager, walk) in managers {
            for (policy, default_seeds, router) in policies {
                let seeds = fault_walk_seeds(default_seeds);
                let mut tally = WalkTally::default();
                for seed in 0..seeds {
                    walk(seed, router, &mut tally);
                }
                // The walks went everywhere they claim to.
                let per_seed = |count: usize| count as u64 / seeds;
                assert!(
                    per_seed(tally.torn_down) > 50
                        && per_seed(tally.moved_by_cuts) > 30
                        && per_seed(tally.moved_by_repairs) > 30
                        && per_seed(tally.skipped) > 150
                        && tally.dropped > 0
                        && tally.concurrent_cuts > 0
                        && tally.switch_kills > 0,
                    "{manager} {policy}: {tally:?}"
                );
                if policy == "k-shortest" {
                    assert!(
                        tally.admitted_on_fallback > 0 && tally.kept_on_detour > 0,
                        "{manager} {policy}: {tally:?}"
                    );
                }
            }
        }
    }

    /// The stored record is the report's record, and a table entry is no
    /// wider than the one PR 22's review defended.
    #[test]
    fn a_channel_record_is_at_most_88_bytes() {
        assert!(std::mem::size_of::<ChannelRoute>() <= 88);
    }

    // --- the mechanism, as counts -------------------------------------------

    /// [`ShortestPathRouter`], counting the calls a manager makes.
    #[derive(Debug, Default)]
    pub(crate) struct CountingRouter {
        inner: ShortestPathRouter,
        route_calls: AtomicU64,
        routes_calls: AtomicU64,
    }

    impl CountingRouter {
        /// `(route, routes)` calls since the last look.
        pub(crate) fn take(&self) -> (u64, u64) {
            (
                self.route_calls.swap(0, Relaxed),
                self.routes_calls.swap(0, Relaxed),
            )
        }
    }

    impl Router for CountingRouter {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn validate(&self, topology: &Topology) -> RtResult<()> {
            self.inner.validate(topology)
        }
        fn route(&self, t: &Topology, s: NodeId, d: NodeId) -> RtResult<Route> {
            self.route_calls.fetch_add(1, Relaxed);
            self.inner.route(t, s, d)
        }
        fn next_hop_cache(&self) -> Option<&NextHopCache> {
            self.inner.next_hop_cache()
        }
        fn routes(&self, t: &Topology, s: NodeId, d: NodeId) -> RtResult<Vec<Route>> {
            self.routes_calls.fetch_add(1, Relaxed);
            self.inner.routes(t, s, d)
        }
    }
}
