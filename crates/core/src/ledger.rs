//! The slack ledger: the per-link reservation book-keeping that admission
//! control is built on, split out of [`crate::multihop::MultiHopAdmission`]
//! so one ledger can serve *either* shape of control plane:
//!
//! * the **central** manager keeps one ledger covering every link of the
//!   fabric (the paper's model — and the oracle the distributed manager is
//!   property-tested against),
//! * the **distributed** manager gives every switch its own ledger covering
//!   only the links that switch owns (its outgoing trunk ports, plus the
//!   uplinks and downlinks of its attached nodes), and slack moves only
//!   through reservation frames that traverse the fabric.
//!
//! A ledger entry is keyed by a [`ReservationKey`] — a committed channel id,
//! or a `(coordinator, token)` pair for a two-phase reservation that has not
//! been assigned a channel id yet — so a rollback can release exactly what a
//! reserve put in, whether or not the admission ever completed.

use std::cell::RefCell;
use std::collections::BTreeMap;

use rt_edf::{DemandScratch, FeasibilityOutcome, FeasibilityTester, PeriodicTask, TaskSet};
use rt_types::{ChannelId, HopLink, SimTime, SwitchId};

/// What a ledger entry belongs to: an established channel, or an in-flight
/// two-phase reservation identified by its coordinator switch and token.
///
/// The ordering is total and deterministic (channels sort before tokens), so
/// ledger iteration — and therefore every derived task set — is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReservationKey {
    /// A committed channel.
    Channel(u16),
    /// An in-flight reservation: `(coordinator switch id, token)`.
    Token(u32, u16),
}

impl ReservationKey {
    /// The key of a committed channel.
    pub fn channel(id: ChannelId) -> Self {
        ReservationKey::Channel(id.get())
    }

    /// The key of an in-flight two-phase reservation.
    pub fn token(coordinator: SwitchId, token: u16) -> Self {
        ReservationKey::Token(coordinator.get(), token)
    }
}

/// A lower bound on the earliest deadline a collection holds, so that the
/// sweep over it can return without looking while nothing can be due.  Every
/// deadline written into the collection lowers the bound; removals leave it
/// (it stays a lower bound); a real scan replaces it with a fresh one lowered
/// by exactly what is left.  `None`: nothing has been held since that scan.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct DueFloor(Option<SimTime>);

impl DueFloor {
    /// A deadline `at` was written into the collection.
    pub(crate) fn lower(&mut self, at: SimTime) {
        self.0 = Some(self.0.map_or(at, |floor| floor.min(at)));
    }

    /// `true` while nothing held can be due at `now`: a scan would find
    /// nothing.
    pub(crate) fn is_above(&self, now: SimTime) -> bool {
        self.0.is_none_or(|floor| now < floor)
    }
}

/// One link's reservations: the keys ascending, and the task `keys[i]` holds
/// at `tasks[i]`.  The tasks lie contiguous, in the (key) order every derived
/// task set has always had, so the feasibility test reads them where they
/// are.  A book is never empty: the release that empties it removes it.
#[derive(Debug, Default)]
struct LinkBook {
    keys: Vec<ReservationKey>,
    tasks: Vec<PeriodicTask>,
}

impl LinkBook {
    /// Drop `key`'s entry; `false` if it held none.
    fn remove(&mut self, key: ReservationKey) -> bool {
        let Ok(at) = self.keys.binary_search(&key) else {
            return false;
        };
        self.keys.remove(at);
        self.tasks.remove(at);
        true
    }
}

/// Per-link reservation state plus the feasibility tester that guards it.
///
/// The ledger itself never decides admission policy — it answers "is this
/// task feasible on this link given what I hold?" and records reserves and
/// releases.  Deadline partitioning, candidate routes and the commit /
/// rollback protocol live in its callers.
///
/// Each loaded link has one *book*: its reservation keys, sorted, and their
/// tasks in a parallel contiguous vector.  A per-link test therefore costs
/// what the link holds and nothing it has to rebuild — the tester is handed
/// the book's task slice and the candidate, and the one buffer its demand
/// scan needs is lent from the ledger ([`SlackLedger::feasible_with`] stays
/// `&self`; the buffer sits behind a `RefCell` nothing re-enters).  `reserve`
/// and `release` are a binary search and a shift.
///
/// Leases (the expiry deadlines of in-flight two-phase reservations; the
/// central manager never takes one) sit beside the books under a
/// `DueFloor`: a site sweeps its ledger in front of every control frame,
/// and that sweep costs nothing that grows with the leases held until the
/// earliest of them can be due.
#[derive(Debug, Default)]
pub struct SlackLedger {
    tester: FeasibilityTester,
    links: BTreeMap<HopLink, LinkBook>,
    /// Expiry deadline per *leased* key: an in-flight two-phase reservation
    /// holds its slack only until this instant.  A sweep at or past the
    /// deadline reclaims everything the key holds — the backstop that keeps
    /// a handshake stranded by a fault from leaking slack forever.
    /// Committed channels hold no lease.
    leases: BTreeMap<ReservationKey, SimTime>,
    /// No lease falls due below this: [`SlackLedger::sweep_expired`] walks
    /// `leases` only once `now` has reached it, so a sweep costs nothing
    /// that grows with what the ledger holds while nothing is due.
    lease_floor: DueFloor,
    /// Leases looked at by sweeps, for the tests that bound that work.
    #[cfg(test)]
    leases_examined: u64,
    /// The demand scan's deadline events, reused from test to test.
    scratch: RefCell<DemandScratch>,
}

/// What a ledger holds on one link, looked up once: an admission reads the
/// link's load for the deadline split and then tests its share of the
/// deadline against the same book, without a second probe of the ledger.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkView<'a> {
    ledger: &'a SlackLedger,
    held: &'a [PeriodicTask],
}

impl LinkView<'_> {
    /// Number of reservations held on the link.
    pub(crate) fn load(&self) -> usize {
        self.held.len()
    }

    /// The link's reserved utilisation `Σ C/P`.
    pub(crate) fn utilisation(&self) -> f64 {
        self.held.iter().map(PeriodicTask::utilisation).sum()
    }

    /// Run the per-link EDF feasibility test with `task` added to the
    /// link's current reservations, committing nothing.
    pub(crate) fn feasible_with(&self, task: &PeriodicTask) -> FeasibilityOutcome {
        let mut scratch = self.ledger.scratch.borrow_mut();
        self.ledger
            .tester
            .test_slice(self.held, Some(task), &mut scratch)
    }
}

impl SlackLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        SlackLedger::default()
    }

    /// Guard the links with `tester` instead of the exact two-constraint
    /// test (the utilisation-only ablation).
    pub fn with_tester(mut self, tester: FeasibilityTester) -> Self {
        self.tester = tester;
        self
    }

    /// What is held on `link`, resolved once for any number of reads.
    pub(crate) fn link(&self, link: HopLink) -> LinkView<'_> {
        LinkView {
            ledger: self,
            held: self.links.get(&link).map_or(&[], |book| &book.tasks),
        }
    }

    /// Number of reservations currently held on `link`.
    pub fn link_load(&self, link: HopLink) -> usize {
        self.link(link).load()
    }

    /// The task set currently reserved on `link`, in deterministic
    /// (reservation-key) order.
    pub fn taskset(&self, link: HopLink) -> TaskSet {
        TaskSet::from_tasks(self.link(link).held.to_vec())
    }

    /// Links that currently hold at least one reservation.
    pub fn loaded_links(&self) -> impl Iterator<Item = (HopLink, usize)> + '_ {
        self.links.iter().map(|(l, book)| (*l, book.keys.len()))
    }

    /// Run the per-link EDF feasibility test with `task` added to the
    /// link's current reservations, committing nothing.
    pub fn feasible_with(&self, link: HopLink, task: &PeriodicTask) -> FeasibilityOutcome {
        self.link(link).feasible_with(task)
    }

    /// Reserve `task` on `link` under `key` (replacing any prior entry for
    /// the same key — a key holds at most one task per link).
    pub fn reserve(&mut self, link: HopLink, key: ReservationKey, task: PeriodicTask) {
        let book = self.links.entry(link).or_default();
        match book.keys.binary_search(&key) {
            Ok(at) => book.tasks[at] = task,
            Err(at) => {
                book.keys.insert(at, key);
                book.tasks.insert(at, task);
            }
        }
    }

    /// Release the reservation `key` holds on `link`.  Returns `false` if
    /// there was none (a rollback may race a release; releasing twice must
    /// be harmless, never double-free someone else's slack).
    pub fn release(&mut self, link: HopLink, key: ReservationKey) -> bool {
        let Some(book) = self.links.get_mut(&link) else {
            return false;
        };
        let removed = book.remove(key);
        if book.keys.is_empty() {
            self.links.remove(&link);
        }
        removed
    }

    /// Release everything `key` holds, on every link of this ledger, and
    /// drop its lease if one exists.  Returns the number of link
    /// reservations freed.
    ///
    /// This visits every loaded link of the ledger: right for a site that
    /// must drop whatever a token still holds here without knowing which
    /// links those are, wrong for a caller that has the channel's path in
    /// hand — that one calls [`SlackLedger::release`] per link.
    pub fn release_key(&mut self, key: ReservationKey) -> usize {
        self.leases.remove(&key);
        let mut freed = 0;
        self.links.retain(|_, book| {
            freed += usize::from(book.remove(key));
            !book.keys.is_empty()
        });
        freed
    }

    // --- leases -----------------------------------------------------------

    /// Put (or move) `key`'s lease deadline: every reservation the key holds
    /// on this ledger expires — and is reclaimed by the next sweep — unless
    /// the lease is cleared (commit) or the key released (rollback) first.
    pub fn lease(&mut self, key: ReservationKey, expires: SimTime) {
        self.leases.insert(key, expires);
        self.lease_floor.lower(expires);
    }

    /// Clear `key`'s lease, making its reservations permanent (the commit
    /// path).  Returns `false` if no lease was held — the caller must treat
    /// that as "the lease already expired", not resurrect the slack.
    pub fn clear_lease(&mut self, key: ReservationKey) -> bool {
        self.leases.remove(&key).is_some()
    }

    /// The expiry deadline `key`'s lease currently carries, if any.
    pub fn lease_of(&self, key: ReservationKey) -> Option<SimTime> {
        self.leases.get(&key).copied()
    }

    /// The earliest lease deadline held, if any — the next instant a sweep
    /// could reclaim something.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.leases.values().min().copied()
    }

    /// Reclaim every key whose lease deadline is at or before `now`:
    /// release all its reservations and return the reclaimed keys
    /// (ascending).  A lease expiring *exactly* at the sweep tick is
    /// reclaimed.  An expired key that `committed` vouches for keeps its
    /// reservations — they became permanent when the channel committed, only
    /// the lease-clear never reached this ledger — and just loses the
    /// leftover lease; it is not reported.
    ///
    /// While `now` is below every lease deadline written since the last scan
    /// the sweep returns at once — no walk, no allocation, whatever the
    /// ledger holds; a sweep that does walk leaves the bound on the exact
    /// earliest deadline left.
    pub fn sweep_expired(
        &mut self,
        now: SimTime,
        committed: impl Fn(ReservationKey) -> bool,
    ) -> Vec<ReservationKey> {
        if self.lease_floor.is_above(now) {
            return Vec::new();
        }
        let mut expired = Vec::new();
        let mut left = DueFloor::default();
        for (&key, &deadline) in &self.leases {
            #[cfg(test)]
            {
                self.leases_examined += 1;
            }
            if deadline <= now {
                expired.push(key);
            } else {
                left.lower(deadline);
            }
        }
        self.lease_floor = left;
        expired.retain(|&key| {
            let spared = committed(key);
            if spared {
                self.leases.remove(&key);
            } else {
                self.release_key(key);
            }
            !spared
        });
        expired
    }

    /// The reservation keys currently holding slack on `link`, ascending.
    pub fn keys_on(&self, link: HopLink) -> Vec<ReservationKey> {
        self.links
            .get(&link)
            .map(|book| book.keys.clone())
            .unwrap_or_default()
    }

    /// `true` if `key` holds a reservation on `link`.
    pub fn holds(&self, link: HopLink, key: ReservationKey) -> bool {
        self.links
            .get(&link)
            .is_some_and(|book| book.keys.binary_search(&key).is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_types::{NodeId, Slots};

    fn task(period: u64, capacity: u64, deadline: u64) -> PeriodicTask {
        PeriodicTask::new(
            Slots::new(period),
            Slots::new(capacity),
            Slots::new(deadline),
        )
        .unwrap()
    }

    #[test]
    fn reserve_release_round_trip() {
        let mut ledger = SlackLedger::new();
        let link = HopLink::Uplink(NodeId::new(0));
        let key = ReservationKey::channel(ChannelId::new(1));
        assert_eq!(ledger.link_load(link), 0);
        ledger.reserve(link, key, task(100, 3, 20));
        assert_eq!(ledger.link_load(link), 1);
        assert!(ledger.holds(link, key));
        assert_eq!(ledger.keys_on(link), vec![key]);
        assert!(ledger.release(link, key));
        assert!(!ledger.release(link, key), "double release is a no-op");
        assert_eq!(ledger.link_load(link), 0);
        assert_eq!(ledger.loaded_links().count(), 0);
    }

    #[test]
    fn release_key_frees_every_link() {
        let mut ledger = SlackLedger::new();
        let key = ReservationKey::token(SwitchId::new(2), 7);
        let links = [
            HopLink::Uplink(NodeId::new(0)),
            HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(1),
            },
            HopLink::Downlink(NodeId::new(3)),
        ];
        for link in links {
            ledger.reserve(link, key, task(100, 3, 13));
        }
        assert_eq!(ledger.loaded_links().count(), 3);
        assert_eq!(ledger.release_key(key), 3);
        assert_eq!(ledger.loaded_links().count(), 0);
        assert_eq!(ledger.release_key(key), 0);
    }

    #[test]
    fn feasibility_respects_held_reservations() {
        let mut ledger = SlackLedger::new();
        let link = HopLink::Downlink(NodeId::new(1));
        // Fill the link with six paper-default channels (d split 20/20):
        // the uplink share of 20 slots holds 6 × C=3.
        for i in 0..6u16 {
            let key = ReservationKey::channel(ChannelId::new(i + 1));
            let t = task(100, 3, 20);
            assert!(ledger.feasible_with(link, &t).is_feasible(), "channel {i}");
            ledger.reserve(link, key, t);
        }
        assert!(!ledger.feasible_with(link, &task(100, 3, 20)).is_feasible());
        // Tokens and channels share the same book.
        ledger.release(link, ReservationKey::channel(ChannelId::new(1)));
        assert!(ledger.feasible_with(link, &task(100, 3, 20)).is_feasible());
    }

    #[test]
    fn lease_sweep_reclaims_exactly_at_the_deadline() {
        let mut ledger = SlackLedger::new();
        let link = HopLink::Uplink(NodeId::new(0));
        let key = ReservationKey::token(SwitchId::new(1), 3);
        ledger.reserve(link, key, task(100, 3, 20));
        ledger.lease(key, SimTime::from_micros(50));
        assert_eq!(ledger.next_expiry(), Some(SimTime::from_micros(50)));
        // One tick early: nothing is reclaimed.
        assert!(ledger
            .sweep_expired(SimTime::from_nanos(49_999), |_| false)
            .is_empty());
        assert!(ledger.holds(link, key));
        // Exactly at the deadline: the key is reclaimed.
        assert_eq!(
            ledger.sweep_expired(SimTime::from_micros(50), |_| false),
            vec![key]
        );
        assert!(!ledger.holds(link, key));
        assert_eq!(ledger.next_expiry(), None);
        // Sweeping again is a no-op.
        assert!(ledger.sweep_expired(SimTime::MAX, |_| false).is_empty());
    }

    #[test]
    fn lease_sweep_spares_committed_keys_but_drops_their_lease() {
        let mut ledger = SlackLedger::new();
        let link = HopLink::Uplink(NodeId::new(0));
        let committed = ReservationKey::token(SwitchId::new(1), 3);
        let stranded = ReservationKey::token(SwitchId::new(1), 4);
        for key in [committed, stranded] {
            ledger.reserve(link, key, task(100, 3, 20));
            ledger.lease(key, SimTime::from_micros(50));
        }
        // Only the stranded key is reclaimed (and reported); the committed
        // one keeps its slack and just loses the leftover lease.
        let reclaimed = ledger.sweep_expired(SimTime::from_micros(50), |key| key == committed);
        assert_eq!(reclaimed, vec![stranded]);
        assert!(ledger.holds(link, committed));
        assert!(!ledger.holds(link, stranded));
        assert_eq!(ledger.next_expiry(), None);
    }

    #[test]
    fn clear_lease_commits_and_reports_expiry() {
        let mut ledger = SlackLedger::new();
        let link = HopLink::Downlink(NodeId::new(2));
        let key = ReservationKey::token(SwitchId::new(0), 7);
        ledger.reserve(link, key, task(100, 3, 20));
        ledger.lease(key, SimTime::from_micros(10));
        assert_eq!(ledger.lease_of(key), Some(SimTime::from_micros(10)));
        // Commit in time: the lease clears and the slack survives any sweep.
        assert!(ledger.clear_lease(key));
        assert!(ledger.sweep_expired(SimTime::MAX, |_| false).is_empty());
        assert!(ledger.holds(link, key));
        // Clearing an expired (absent) lease reports failure — a late
        // Confirm must not resurrect reclaimed slack.
        assert!(!ledger.clear_lease(key));
    }

    #[test]
    fn release_key_drops_the_lease() {
        let mut ledger = SlackLedger::new();
        let link = HopLink::Uplink(NodeId::new(4));
        let key = ReservationKey::token(SwitchId::new(2), 9);
        ledger.reserve(link, key, task(100, 3, 20));
        ledger.lease(key, SimTime::from_micros(5));
        assert_eq!(ledger.release_key(key), 1);
        assert_eq!(ledger.next_expiry(), None, "rollback must drop the lease");
    }

    #[test]
    fn next_expiry_is_the_earliest_deadline() {
        let mut ledger = SlackLedger::new();
        let link = HopLink::Uplink(NodeId::new(0));
        let early = ReservationKey::token(SwitchId::new(0), 1);
        let late = ReservationKey::token(SwitchId::new(0), 2);
        ledger.reserve(link, early, task(100, 1, 50));
        ledger.reserve(link, late, task(100, 1, 50));
        ledger.lease(late, SimTime::from_micros(90));
        ledger.lease(early, SimTime::from_micros(30));
        assert_eq!(ledger.next_expiry(), Some(SimTime::from_micros(30)));
        // Only the early key expires at its deadline.
        assert_eq!(
            ledger.sweep_expired(SimTime::from_micros(30), |_| false),
            vec![early]
        );
        assert_eq!(ledger.next_expiry(), Some(SimTime::from_micros(90)));
        assert!(ledger.holds(link, late));
    }

    /// The link books against a plain map of maps: a seeded walk of reserves
    /// (new keys and replacements), releases, whole-key releases, leases and
    /// sweeps, with every read accessor compared after every step — and the
    /// per-link test compared with the tester run on the model's tasks.
    #[test]
    fn books_behave_like_a_map_of_maps() {
        use rt_types::rng::Xoshiro256;
        type Model = BTreeMap<HopLink, BTreeMap<ReservationKey, PeriodicTask>>;

        let links = [
            HopLink::Uplink(NodeId::new(0)),
            HopLink::Uplink(NodeId::new(1)),
            HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(1),
            },
            HopLink::Trunk {
                from: SwitchId::new(1),
                to: SwitchId::new(0),
            },
            HopLink::Downlink(NodeId::new(2)),
        ];
        let keys: Vec<ReservationKey> = (1..=12)
            .map(|i| ReservationKey::channel(ChannelId::new(i)))
            .chain((0..8).map(|t| ReservationKey::token(SwitchId::new(t % 2), t as u16)))
            .collect();
        let committed = |key| matches!(key, ReservationKey::Token(_, t) if t % 3 == 0);
        let tester = FeasibilityTester::new();
        let (mut replaced, mut emptied, mut reclaimed, mut refused) = (0, 0, 0, 0);

        for seed in 0..8u64 {
            let mut rng = Xoshiro256::new(0xb00c_1600 + seed);
            let mut pick = |n: usize| rng.below(n as u64) as usize;
            let mut ledger = SlackLedger::new();
            let mut model = Model::new();
            let mut leases: BTreeMap<ReservationKey, SimTime> = BTreeMap::new();
            let mut now = 0u64;
            for step in 0..600 {
                let (link, key) = (links[pick(links.len())], keys[pick(keys.len())]);
                // Stretches that fill the books alternate with stretches that
                // drain them, so links empty (and their books go) in passing.
                let reserves = if (step / 60) % 2 == 0 { 6 } else { 1 };
                match pick(10) {
                    roll if roll < reserves => {
                        let t = task(
                            20 + pick(200) as u64,
                            1 + pick(4) as u64,
                            4 + pick(60) as u64,
                        );
                        ledger.reserve(link, key, t);
                        replaced +=
                            usize::from(model.entry(link).or_default().insert(key, t).is_some());
                    }
                    0..=6 => {
                        let held = model.get_mut(&link).and_then(|m| m.remove(&key));
                        assert_eq!(ledger.release(link, key), held.is_some());
                    }
                    7 => {
                        let freed = model.values_mut().filter_map(|m| m.remove(&key)).count();
                        leases.remove(&key);
                        assert_eq!(ledger.release_key(key), freed);
                    }
                    8 => {
                        let expires = SimTime::from_micros(now + pick(40) as u64);
                        ledger.lease(key, expires);
                        leases.insert(key, expires);
                    }
                    _ => {
                        now += pick(30) as u64;
                        let at = SimTime::from_micros(now);
                        let due: Vec<_> = leases
                            .iter()
                            .filter(|(_, &d)| d <= at)
                            .map(|(&k, _)| k)
                            .collect();
                        let mut expected = Vec::new();
                        for key in due {
                            leases.remove(&key);
                            if !committed(key) {
                                for held in model.values_mut() {
                                    held.remove(&key);
                                }
                                expected.push(key);
                            }
                        }
                        reclaimed += expected.len();
                        assert_eq!(ledger.sweep_expired(at, committed), expected);
                    }
                }
                let before = model.len();
                model.retain(|_, m| !m.is_empty());
                emptied += before - model.len();

                // Every read accessor, on every link, loaded or not.
                let loaded: Vec<_> = model.iter().map(|(l, m)| (*l, m.len())).collect();
                assert_eq!(ledger.loaded_links().collect::<Vec<_>>(), loaded);
                assert_eq!(ledger.next_expiry(), leases.values().min().copied());
                let candidate = task(
                    30 + pick(100) as u64,
                    1 + pick(3) as u64,
                    3 + pick(30) as u64,
                );
                for link in links {
                    let held = model.get(&link).cloned().unwrap_or_default();
                    let mut tasks: Vec<PeriodicTask> = held.values().copied().collect();
                    assert_eq!(ledger.taskset(link).tasks(), tasks);
                    assert_eq!(
                        ledger.keys_on(link),
                        held.keys().copied().collect::<Vec<_>>()
                    );
                    assert_eq!(ledger.link_load(link), held.len());
                    assert_eq!(ledger.link(link).load(), held.len());
                    for key in &keys {
                        assert_eq!(ledger.holds(link, *key), held.contains_key(key));
                    }
                    tasks.push(candidate);
                    let expected = tester.test(&TaskSet::from_tasks(tasks));
                    assert_eq!(ledger.feasible_with(link, &candidate), expected);
                    refused += usize::from(!expected.is_feasible());
                }
            }
        }
        // The walk really replaced entries, emptied books, swept leases and
        // met links that refuse the candidate.
        assert!(
            replaced > 50 && emptied > 10 && reclaimed > 50 && refused > 50,
            "{replaced} replaced, {emptied} emptied, {reclaimed} reclaimed, {refused} refused"
        );
    }

    /// Seeds of the due-time property (the `RT_ADVERSARIAL_SEEDS` matrix the
    /// CI soaks crank up), default 32.
    fn due_time_seeds() -> u64 {
        std::env::var("RT_ADVERSARIAL_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(32)
    }

    /// The bounded sweep against the sweep it replaced: a seeded walk of
    /// leases (new, moved earlier, moved later), lease clears, releases and
    /// sweeps — the clock advancing by random steps and, every so often,
    /// exactly onto the next deadline — mirrored into a plain map that is
    /// swept by a full scan.  Whatever the floor lets the ledger skip, it
    /// must reclaim the same keys at the same instants and keep every
    /// accessor exact.
    #[test]
    fn prop_bounded_sweep_matches_a_full_scan() {
        use rt_types::rng::Xoshiro256;
        use std::collections::BTreeSet;

        let links = [
            HopLink::Uplink(NodeId::new(0)),
            HopLink::Downlink(NodeId::new(1)),
            HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(1),
            },
        ];
        let keys: Vec<ReservationKey> = (0..24)
            .map(|t| ReservationKey::token(SwitchId::new(t % 3), t as u16))
            .collect();
        let committed = |key| matches!(key, ReservationKey::Token(_, t) if t % 4 == 0);
        let (mut fresh, mut earlier, mut later) = (0, 0, 0);
        let (mut on_deadline, mut reclaimed, mut spared, mut idle_sweeps) = (0, 0, 0, 0);

        for seed in 0..due_time_seeds() {
            let mut rng = Xoshiro256::new(0xd0e7_1700 + seed);
            let mut pick = |n: usize| rng.below(n as u64) as usize;
            let mut ledger = SlackLedger::new();
            let mut leases: BTreeMap<ReservationKey, SimTime> = BTreeMap::new();
            let mut held: BTreeMap<HopLink, BTreeSet<ReservationKey>> = BTreeMap::new();
            let mut now = 0u64;
            for _ in 0..500 {
                let (link, key) = (links[pick(links.len())], keys[pick(keys.len())]);
                match pick(12) {
                    0..=3 => {
                        let expires = SimTime::from_micros(now + pick(60) as u64);
                        match leases.insert(key, expires) {
                            None => fresh += 1,
                            Some(old) if expires < old => earlier += 1,
                            Some(old) if expires > old => later += 1,
                            Some(_) => {}
                        }
                        ledger.lease(key, expires);
                    }
                    4 => assert_eq!(ledger.clear_lease(key), leases.remove(&key).is_some()),
                    5 => {
                        leases.remove(&key);
                        let freed = held.values_mut().map(|keys| keys.remove(&key));
                        let freed = freed.filter(|&was_held| was_held).count();
                        assert_eq!(ledger.release_key(key), freed);
                    }
                    6 | 7 => {
                        ledger.reserve(link, key, task(100, 1, 50));
                        held.entry(link).or_default().insert(key);
                    }
                    8 => {
                        let was_held = held.get_mut(&link).is_some_and(|keys| keys.remove(&key));
                        assert_eq!(ledger.release(link, key), was_held);
                    }
                    _ => {
                        // Advance by a random step, or exactly onto the next
                        // deadline still ahead.
                        let ahead = leases.values().map(|d| d.as_nanos() / 1_000);
                        match ahead.filter(|&d| d > now).min() {
                            Some(deadline) if pick(3) == 0 => {
                                now = deadline;
                                on_deadline += 1;
                            }
                            _ => now += pick(25) as u64,
                        }
                        let at = SimTime::from_micros(now);
                        let due: Vec<_> = leases
                            .iter()
                            .filter(|(_, &deadline)| deadline <= at)
                            .map(|(&key, _)| key)
                            .collect();
                        idle_sweeps += usize::from(due.is_empty());
                        let mut expected = Vec::new();
                        for key in due {
                            leases.remove(&key);
                            if committed(key) {
                                spared += 1;
                            } else {
                                held.values_mut().for_each(|keys| {
                                    keys.remove(&key);
                                });
                                expected.push(key);
                            }
                        }
                        reclaimed += expected.len();
                        assert_eq!(ledger.sweep_expired(at, committed), expected);
                    }
                }
                held.retain(|_, keys| !keys.is_empty());
                assert_eq!(ledger.next_expiry(), leases.values().min().copied());
                for key in &keys {
                    assert_eq!(ledger.lease_of(*key), leases.get(key).copied());
                }
                let loaded: Vec<_> = held.iter().map(|(l, keys)| (*l, keys.len())).collect();
                assert_eq!(ledger.loaded_links().collect::<Vec<_>>(), loaded);
                for (link, keys) in &held {
                    assert_eq!(
                        ledger.keys_on(*link),
                        keys.iter().copied().collect::<Vec<_>>()
                    );
                }
            }
        }
        // The walk really moved leases both ways, landed on deadlines,
        // reclaimed and spared keys, and swept with nothing due.
        assert!(
            fresh > 50 && earlier > 50 && later > 50 && on_deadline > 20,
            "{fresh} new, {earlier} earlier, {later} later, {on_deadline} on a deadline"
        );
        assert!(
            reclaimed > 50 && spared > 10 && idle_sweeps > 20,
            "{reclaimed} reclaimed, {spared} spared, {idle_sweeps} idle sweeps"
        );
    }

    /// What a sweep costs while nothing is due does not grow with what the
    /// ledger holds: it looks at no lease and returns a `Vec` that never
    /// allocated.  The sweep that reaches the earliest deadline looks at
    /// every lease once, and leaves the bound on the next deadline.
    #[test]
    fn sweeps_below_the_earliest_deadline_examine_nothing() {
        let mut ledger = SlackLedger::new();
        let link = HopLink::Uplink(NodeId::new(0));
        for t in 0..500u16 {
            let key = ReservationKey::token(SwitchId::new(1), t);
            ledger.reserve(link, key, task(10_000, 1, 5_000));
            ledger.lease(key, SimTime::from_micros(1_000 + u64::from(t / 2)));
        }
        for tick in 0..1_000 {
            let swept = ledger.sweep_expired(SimTime::from_nanos(tick * 999), |_| false);
            assert_eq!((swept.len(), swept.capacity()), (0, 0));
        }
        assert_eq!(ledger.leases_examined, 0);
        // Exactly at the earliest deadline: one look at each lease.
        let reclaimed = ledger.sweep_expired(SimTime::from_micros(1_000), |_| false);
        assert_eq!(reclaimed.len(), 2);
        assert_eq!(ledger.leases_examined, 500);
        assert_eq!(ledger.next_expiry(), Some(SimTime::from_micros(1_001)));
        // And below the next one, nothing again.
        ledger.sweep_expired(SimTime::from_nanos(1_000_999), |_| false);
        assert_eq!(ledger.leases_examined, 500);
    }

    #[test]
    fn keys_order_deterministically() {
        let mut ledger = SlackLedger::new();
        let link = HopLink::Uplink(NodeId::new(9));
        let token = ReservationKey::token(SwitchId::new(0), 1);
        let channel = ReservationKey::channel(ChannelId::new(500));
        ledger.reserve(link, token, task(100, 1, 50));
        ledger.reserve(link, channel, task(100, 1, 50));
        // Channels sort before tokens, whatever the insertion order.
        assert_eq!(ledger.keys_on(link), vec![channel, token]);
        assert_eq!(ledger.taskset(link).len(), 2);
    }
}
