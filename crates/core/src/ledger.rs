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
/// are.  A book outlives its reservations: the release that empties it leaves
/// it in its slot, both vectors empty with their capacity kept, and an empty
/// book reads everywhere as a link that holds nothing.
#[derive(Debug)]
struct LinkBook {
    link: HopLink,
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

/// Where `link` starts its probe of a slot table of `1 << bits` cells: the
/// link packed into a word, multiplied and folded, top `bits` bits kept.  A
/// function of the link alone — the same in every run, on every host.
fn home_cell(link: HopLink, bits: u32) -> usize {
    const MIX: u64 = 0x9e37_79b9_7f4a_7c15;
    let (tier, high, low) = match link {
        HopLink::Uplink(node) => (0u64, 0, node.get()),
        HopLink::Downlink(node) => (1, 0, node.get()),
        HopLink::Trunk { from, to } => (2, from.get(), to.get()),
    };
    let packed = (u64::from(high) << 32 | u64::from(low)) ^ tier << 62;
    let mixed = packed.wrapping_mul(MIX);
    ((mixed ^ mixed >> 32).wrapping_mul(MIX) >> (u64::BITS - bits)) as usize
}

/// Per-link reservation state plus the feasibility tester that guards it.
///
/// The ledger itself never decides admission policy — it answers "is this
/// task feasible on this link given what I hold?" and records reserves and
/// releases.  Deadline partitioning, candidate routes and the commit /
/// rollback protocol live in its callers.
///
/// Each link that has ever held a reservation has one *book*: its
/// reservation keys, sorted, and their tasks in a parallel contiguous vector.
/// A per-link test therefore costs what the link holds and nothing it has to
/// rebuild — the tester is handed the book's task slice and the candidate,
/// and the one buffer its demand scan needs is lent from the ledger
/// ([`SlackLedger::feasible_with`] stays `&self`; the buffer sits behind a
/// `RefCell` nothing re-enters).
///
/// The books sit in a `Vec`, one *slot* each, and a link finds its slot
/// through an open-addressed table of slot numbers hashed by the link
/// (linear probing; the ledger's own fixed hash, so nothing depends on the
/// process).  A link is interned by its first `reserve` and keeps its slot
/// and its book for the life of the ledger, so the table never deletes and
/// a host link that goes 0 → 1 → 0 reservations asks the allocator for
/// nothing the second time round.  Every per-link call — `reserve`,
/// `release`, `holds`, `keys_on`, the load and the test — is one probe of
/// that table and one index, then a binary search (and for a write a shift)
/// in the book; none of it grows with the number of links loaded.  Nothing
/// observable reads the table's or the slots' order: [`loaded_links`]
/// sorts.  A ledger that has booked nothing has allocated nothing.
///
/// Leases (the expiry deadlines of in-flight two-phase reservations; the
/// central manager never takes one) sit beside the books under a
/// `DueFloor`: a site sweeps its ledger in front of every control frame,
/// and that sweep costs nothing that grows with the leases held until the
/// earliest of them can be due.
///
/// [`loaded_links`]: SlackLedger::loaded_links
#[derive(Debug, Default)]
pub struct SlackLedger {
    tester: FeasibilityTester,
    /// One book per link ever reserved on, in the order the links were
    /// interned; a book's index is its slot.
    books: Vec<LinkBook>,
    /// The link → slot table: `slot + 1` in the cell a link's probe ends on,
    /// 0 in a free cell.  Empty or a power of two long, at most half full.
    cells: Vec<u32>,
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

    /// Probe the (non-empty) slot table for `link`: its slot, or else the
    /// free cell its probe ended on — where interning it would record it.
    fn probe(&self, link: HopLink) -> Result<usize, usize> {
        let mask = self.cells.len() - 1;
        let mut cell = home_cell(link, self.cells.len().trailing_zeros());
        // At most half the cells are taken: the walk ends on a free one.
        while let Some(slot) = (self.cells[cell] as usize).checked_sub(1) {
            debug_assert!(
                slot < self.books.len(),
                "a cell names a slot only once that slot's book is pushed, and books are never removed"
            );
            if self.books[slot].link == link {
                return Ok(slot);
            }
            cell = (cell + 1) & mask;
        }
        Err(cell)
    }

    /// `link`'s slot, if the link was ever reserved on: one probe.
    fn slot_of(&self, link: HopLink) -> Option<usize> {
        if self.cells.is_empty() {
            return None;
        }
        self.probe(link).ok()
    }

    /// `link`'s book, if the link was ever reserved on.
    fn book(&self, link: HopLink) -> Option<&LinkBook> {
        let slot = self.slot_of(link)?;
        debug_assert!(slot < self.books.len(), "probe returns the slot of a book");
        Some(&self.books[slot])
    }

    /// `link`'s book for writing; a link never reserved on is interned first:
    /// an empty book in the next slot, the slot in the cell the probe found.
    fn intern(&mut self, link: HopLink) -> &mut LinkBook {
        if self.cells.len() < 2 * (self.books.len() + 1) {
            self.grow_cells();
        }
        let slot = self.probe(link).unwrap_or_else(|cell| {
            // Room for the reservation that interns the link and no more: a
            // book keeps what it grew to, and on a thousand-host fabric most
            // links never hold a second channel at once.
            self.books.push(LinkBook {
                link,
                keys: Vec::with_capacity(1),
                tasks: Vec::with_capacity(1),
            });
            assert!(
                self.books.len() <= u32::MAX as usize,
                "a ledger interns fewer than 2^32 links"
            );
            self.cells[cell] = self.books.len() as u32;
            self.books.len() - 1
        });
        debug_assert!(
            slot < self.books.len(),
            "probe returned the slot of a book, or one was just pushed there"
        );
        &mut self.books[slot]
    }

    /// Double the slot table (8 cells the first time) and record every
    /// interned link again.  No cell is ever freed, so this is the only
    /// rehash there is.
    fn grow_cells(&mut self) {
        let len = (2 * self.cells.len()).max(8);
        self.cells.clear();
        self.cells.resize(len, 0);
        for (slot, book) in self.books.iter().enumerate() {
            // The interned links are distinct: each takes the first free cell.
            let mut cell = home_cell(book.link, len.trailing_zeros());
            while self.cells[cell] != 0 {
                cell = (cell + 1) & (len - 1);
            }
            self.cells[cell] = slot as u32 + 1;
        }
    }

    /// What is held on `link`, resolved once for any number of reads.
    pub(crate) fn link(&self, link: HopLink) -> LinkView<'_> {
        LinkView {
            ledger: self,
            held: self.book(link).map_or(&[], |book| &book.tasks),
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

    /// Links that currently hold at least one reservation, ascending, each
    /// with its load.  A cold accessor: it visits every book and sorts what
    /// it finds (the slots are in interning order, which means nothing).
    pub fn loaded_links(&self) -> impl Iterator<Item = (HopLink, usize)> + '_ {
        let books = self.books.iter().filter(|book| !book.keys.is_empty());
        let mut loaded: Vec<_> = books.map(|book| (book.link, book.keys.len())).collect();
        loaded.sort_unstable();
        loaded.into_iter()
    }

    /// Run the per-link EDF feasibility test with `task` added to the
    /// link's current reservations, committing nothing.
    pub fn feasible_with(&self, link: HopLink, task: &PeriodicTask) -> FeasibilityOutcome {
        self.link(link).feasible_with(task)
    }

    /// Reserve `task` on `link` under `key` (replacing any prior entry for
    /// the same key — a key holds at most one task per link).
    pub fn reserve(&mut self, link: HopLink, key: ReservationKey, task: PeriodicTask) {
        let book = self.intern(link);
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
        // A link never reserved on has no book, and does not get one here.
        let Some(slot) = self.slot_of(link) else {
            return false;
        };
        debug_assert!(slot < self.books.len(), "probe returns the slot of a book");
        self.books[slot].remove(key)
    }

    /// Release everything `key` holds, on every link of this ledger, and
    /// drop its lease if one exists.  Returns the number of link
    /// reservations freed.
    ///
    /// This visits every book of the ledger — one per link it ever reserved
    /// on, an empty one costing a length check: right for a site that must
    /// drop whatever a token still holds here without knowing which links
    /// those are, wrong for a caller that has the channel's path in hand —
    /// that one calls [`SlackLedger::release`] per link.
    pub fn release_key(&mut self, key: ReservationKey) -> usize {
        self.leases.remove(&key);
        let held = self.books.iter_mut().filter(|book| !book.keys.is_empty());
        held.map(|book| usize::from(book.remove(key))).sum()
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
        self.book(link)
            .map(|book| book.keys.clone())
            .unwrap_or_default()
    }

    /// `true` if `key` holds a reservation on `link`.
    pub fn holds(&self, link: HopLink, key: ReservationKey) -> bool {
        self.book(link)
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
                // drain them, so links empty (their books staying behind,
                // unseen) in passing.
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

    /// The ledger this one replaced (PR 23), kept as the oracle of
    /// [`prop_slot_books_match_the_tree_ledger`]: one `BTreeMap` from link to
    /// book, walked from the root by every call, and a book is never empty —
    /// the release that empties it removes it.  Its lease sweep is the plain
    /// full scan.
    #[derive(Default)]
    struct TreeLedger {
        tester: FeasibilityTester,
        links: BTreeMap<HopLink, (Vec<ReservationKey>, Vec<PeriodicTask>)>,
        leases: BTreeMap<ReservationKey, SimTime>,
    }

    impl TreeLedger {
        fn held(&self, link: HopLink) -> &[PeriodicTask] {
            self.links.get(&link).map_or(&[], |(_, tasks)| tasks)
        }

        fn keys_on(&self, link: HopLink) -> Vec<ReservationKey> {
            self.links
                .get(&link)
                .map(|(keys, _)| keys.clone())
                .unwrap_or_default()
        }

        fn holds(&self, link: HopLink, key: ReservationKey) -> bool {
            self.links
                .get(&link)
                .is_some_and(|(keys, _)| keys.binary_search(&key).is_ok())
        }

        fn loaded_links(&self) -> Vec<(HopLink, usize)> {
            self.links
                .iter()
                .map(|(l, (keys, _))| (*l, keys.len()))
                .collect()
        }

        fn feasible_with(&self, link: HopLink, task: &PeriodicTask) -> FeasibilityOutcome {
            let mut scratch = DemandScratch::default();
            self.tester
                .test_slice(self.held(link), Some(task), &mut scratch)
        }

        fn reserve(&mut self, link: HopLink, key: ReservationKey, task: PeriodicTask) {
            let (keys, tasks) = self.links.entry(link).or_default();
            match keys.binary_search(&key) {
                Ok(at) => tasks[at] = task,
                Err(at) => {
                    keys.insert(at, key);
                    tasks.insert(at, task);
                }
            }
        }

        fn remove(
            book: &mut (Vec<ReservationKey>, Vec<PeriodicTask>),
            key: ReservationKey,
        ) -> bool {
            let Ok(at) = book.0.binary_search(&key) else {
                return false;
            };
            book.0.remove(at);
            book.1.remove(at);
            true
        }

        fn release(&mut self, link: HopLink, key: ReservationKey) -> bool {
            let Some(book) = self.links.get_mut(&link) else {
                return false;
            };
            let removed = Self::remove(book, key);
            if book.0.is_empty() {
                self.links.remove(&link);
            }
            removed
        }

        fn release_key(&mut self, key: ReservationKey) -> usize {
            self.leases.remove(&key);
            let mut freed = 0;
            self.links.retain(|_, book| {
                freed += usize::from(Self::remove(book, key));
                !book.0.is_empty()
            });
            freed
        }

        fn sweep_expired(
            &mut self,
            now: SimTime,
            committed: impl Fn(ReservationKey) -> bool,
        ) -> Vec<ReservationKey> {
            let due = self.leases.iter().filter(|(_, &deadline)| deadline <= now);
            let mut expired: Vec<ReservationKey> = due.map(|(&key, _)| key).collect();
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
    }

    /// The interned slot books against the tree ledger they replaced, as two
    /// placements use them: a fabric-wide ledger over 42 links of a
    /// `torus(3, 3, 4)` (the links of routes fanning out of one corner: up- and
    /// downlinks and trunks, most of them first reserved mid-walk, so the slot
    /// table grows four times under load) and one site's ledger over the
    /// twelve links switch 4 owns.  A seeded walk of reserves (fresh keys and
    /// replaced ones, channel and token keys), releases (held, absent, twice,
    /// on links never reserved on), whole-key releases, leases, lease clears
    /// and sweeps, in stretches that fill the books and stretches that drain
    /// them; after every step every accessor is compared on the link touched
    /// (on every link after a step that may touch them all) and
    /// `loaded_links` as a whole, order included.  The representation is held
    /// to its own terms too: one book per link ever reserved on — a release
    /// interns nothing — and a table at most half full.
    #[test]
    fn prop_slot_books_match_the_tree_ledger() {
        use rt_types::rng::Xoshiro256;
        use rt_types::{Router, ShortestPathRouter, Topology};
        use std::collections::BTreeSet;

        let torus = Topology::torus(3, 3, 4);
        let router = ShortestPathRouter::new();
        let mut fabric: BTreeSet<HopLink> = BTreeSet::new();
        for destination in (1..36).step_by(3) {
            let there = router.route(&torus, NodeId::new(0), NodeId::new(destination));
            let back = router.route(&torus, NodeId::new(destination), NodeId::new(0));
            fabric.extend(there.unwrap().iter().chain(back.unwrap().iter()));
        }
        let site = SwitchId::new(4);
        let owned = torus
            .nodes_of(site)
            .flat_map(|n| [HopLink::Uplink(n), HopLink::Downlink(n)])
            .chain(
                torus
                    .neighbours(site)
                    .map(|to| HopLink::Trunk { from: site, to }),
            );
        let placements: [Vec<HopLink>; 2] = [fabric.into_iter().collect(), owned.collect()];
        assert_eq!((placements[0].len(), placements[1].len()), (42, 12));

        let keys: Vec<ReservationKey> = (1..=14)
            .map(|i| ReservationKey::channel(ChannelId::new(i)))
            .chain((0..10).map(|t| ReservationKey::token(SwitchId::new(t % 3), t as u16)))
            .collect();
        let committed = |key| matches!(key, ReservationKey::Token(_, t) if t % 3 == 0);
        let (mut fresh, mut replaced, mut emptied, mut refilled) = (0, 0, 0, 0);
        let (mut absent, mut unbooked, mut reclaimed, mut refused) = (0, 0, 0, 0);

        for (seed, links) in
            (0..adversarial_seeds(3)).flat_map(|s| placements.iter().map(move |p| (s, p)))
        {
            let mut rng = Xoshiro256::new(0x5107_2300 + seed);
            let mut pick = |n: usize| rng.below(n as u64) as usize;
            let mut ledger = SlackLedger::new();
            let mut oracle = TreeLedger::default();
            let mut ever: BTreeSet<HopLink> = BTreeSet::new();
            let mut now = 0u64;
            for step in 0..700 {
                // The first stretch keeps to a quarter of the links, so that
                // the rest are met — and interned — by a ledger under load.
                let reach = if step < 120 {
                    links.len() / 4
                } else {
                    links.len()
                };
                let (link, key) = (links[pick(reach)], keys[pick(keys.len())]);
                let reserves = if (step / 70) % 2 == 0 { 6 } else { 1 };
                let (mut touched_all, loaded_before) = (false, oracle.links.len());
                match pick(12) {
                    roll if roll < reserves => {
                        let t = task(
                            20 + pick(200) as u64,
                            1 + pick(4) as u64,
                            4 + pick(60) as u64,
                        );
                        let (held, had) = (oracle.held(link).len(), oracle.holds(link, key));
                        fresh += usize::from(!had);
                        replaced += usize::from(had);
                        refilled += usize::from(held == 0 && ever.contains(&link));
                        ever.insert(link);
                        ledger.reserve(link, key, t);
                        oracle.reserve(link, key, t);
                    }
                    0..=7 => {
                        let expected = oracle.release(link, key);
                        absent += usize::from(!expected);
                        unbooked += usize::from(!ever.contains(&link));
                        assert_eq!(ledger.release(link, key), expected);
                        // Twice: the second finds nothing, whatever the first did.
                        assert!(!ledger.release(link, key));
                    }
                    8 => {
                        touched_all = true;
                        assert_eq!(ledger.release_key(key), oracle.release_key(key));
                    }
                    9 => {
                        let expires = SimTime::from_micros(now + pick(40) as u64);
                        ledger.lease(key, expires);
                        oracle.leases.insert(key, expires);
                    }
                    10 => assert_eq!(
                        ledger.clear_lease(key),
                        oracle.leases.remove(&key).is_some()
                    ),
                    _ => {
                        touched_all = true;
                        now += pick(30) as u64;
                        let at = SimTime::from_micros(now);
                        let expected = oracle.sweep_expired(at, committed);
                        reclaimed += expected.len();
                        assert_eq!(ledger.sweep_expired(at, committed), expected);
                    }
                }

                let loaded = oracle.loaded_links();
                emptied += loaded_before.saturating_sub(loaded.len());
                assert_eq!(ledger.loaded_links().collect::<Vec<_>>(), loaded);
                assert_eq!(ledger.next_expiry(), oracle.leases.values().min().copied());
                assert_eq!(ledger.lease_of(key), oracle.leases.get(&key).copied());
                let candidate = task(
                    30 + pick(100) as u64,
                    1 + pick(3) as u64,
                    3 + pick(30) as u64,
                );
                let touched = if touched_all {
                    &links[..]
                } else {
                    std::slice::from_ref(&link)
                };
                for &link in touched {
                    assert_eq!(ledger.link_load(link), oracle.held(link).len());
                    assert_eq!(ledger.taskset(link).tasks(), oracle.held(link));
                    assert_eq!(ledger.keys_on(link), oracle.keys_on(link));
                    for key in &keys {
                        assert_eq!(ledger.holds(link, *key), oracle.holds(link, *key));
                    }
                    let verdict = oracle.feasible_with(link, &candidate).verdict;
                    assert_eq!(ledger.feasible_with(link, &candidate).verdict, verdict);
                    refused += usize::from(verdict != rt_edf::FeasibilityVerdict::Feasible);
                }

                let interned: Vec<HopLink> = ledger.books.iter().map(|book| book.link).collect();
                assert_eq!(interned.iter().copied().collect::<BTreeSet<_>>(), ever);
                assert_eq!(interned.len(), ever.len(), "one book per link");
                let cells = ledger.cells.len();
                assert!(cells == 0 || cells.is_power_of_two() && cells >= 2 * ever.len());
            }
        }
        // The walk met every class it claims.
        assert!(
            fresh > 200 && replaced > 50 && emptied > 50 && refilled > 50,
            "{fresh} fresh, {replaced} replaced, {emptied} emptied, {refilled} refilled"
        );
        assert!(
            absent > 50 && unbooked > 20 && reclaimed > 20 && refused > 50,
            "{absent} absent, {unbooked} never booked, {reclaimed} reclaimed, {refused} refused"
        );
    }

    /// Seeds of a seeded property: the `RT_ADVERSARIAL_SEEDS` matrix the CI
    /// soaks crank up, else `default`.
    fn adversarial_seeds(default: u64) -> u64 {
        std::env::var("RT_ADVERSARIAL_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
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

        for seed in 0..adversarial_seeds(32) {
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
