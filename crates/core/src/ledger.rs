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
//! reserve put in, whether or not the admission ever completed.  It is the
//! per-link book both managers share and nothing more: leases, and which
//! links a key holds, are a distributed site's own record (`distributed.rs`).

use std::cell::RefCell;

use rt_edf::{DemandScratch, FeasibilityOutcome, FeasibilityTester, PeriodicTask, TaskSet};
use rt_types::hash::FOLD_MIX;
use rt_types::{ChannelId, HopLink, SwitchId};

/// What a ledger entry belongs to: an established channel, or an in-flight
/// two-phase reservation identified by its coordinator switch and token.
///
/// The ordering is total and deterministic (channels sort before tokens): it
/// breaks deadline ties inside a link's book and orders what the ledger
/// reports, so both are reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

/// One link's reservations: the tasks in relative-deadline order, ties by
/// key, and the key that holds `tasks[i]` at `keys[i]`.  The order is a
/// function of what the book holds, not of how it got there.  The tasks lie
/// contiguous in the order the Constraint 2 scan visits their first
/// deadlines, so the feasibility test reads them where they are and the
/// events it gathers from them arrive nearly sorted (the candidate last).
/// A book holds a few dozen reservations at most: a key is found by a
/// linear scan.  A book outlives its reservations: the release that empties
/// it leaves it in its slot, both vectors empty with their capacity kept,
/// and an empty book reads everywhere as a link that holds nothing.
#[derive(Debug)]
struct LinkBook {
    link: HopLink,
    keys: Vec<ReservationKey>,
    tasks: Vec<PeriodicTask>,
}

impl LinkBook {
    /// Where `key`'s entry sits, if the book holds one.
    fn find(&self, key: ReservationKey) -> Option<usize> {
        self.keys.iter().position(|&held| held == key)
    }

    /// Book `task` under `key`, which holds nothing here, at its deadline's
    /// place.
    fn insert(&mut self, key: ReservationKey, task: PeriodicTask) {
        let place = (task.relative_deadline(), key);
        let at = (self.tasks.iter().zip(&self.keys))
            .position(|(held, &k)| (held.relative_deadline(), k) > place)
            .unwrap_or(self.keys.len());
        self.keys.insert(at, key);
        self.tasks.insert(at, task);
    }

    /// Drop `key`'s entry; `false` if it held none.
    fn remove(&mut self, key: ReservationKey) -> bool {
        let Some(at) = self.find(key) else {
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
    let (tier, high, low) = match link {
        HopLink::Uplink(node) => (0u64, 0, node.get()),
        HopLink::Downlink(node) => (1, 0, node.get()),
        HopLink::Trunk { from, to } => (2, from.get(), to.get()),
    };
    let packed = (u64::from(high) << 32 | u64::from(low)) ^ tier << 62;
    let mixed = packed.wrapping_mul(FOLD_MIX);
    ((mixed ^ mixed >> 32).wrapping_mul(FOLD_MIX) >> (u64::BITS - bits)) as usize
}

/// Per-link reservation state plus the feasibility tester that guards it.
///
/// The ledger itself never decides admission policy — it answers "is this
/// task feasible on this link given what I hold?" and records reserves and
/// releases.  Deadline partitioning, candidate routes and the commit /
/// rollback protocol live in its callers.
///
/// Each link that has ever held a reservation has one *book*: its tasks in
/// relative-deadline order in one contiguous vector, and the key holding
/// each in a parallel one.  A per-link test therefore costs what the link
/// holds and nothing it has to rebuild — the tester is handed the book's
/// task slice and the candidate, and the one buffer its demand scan needs
/// is lent from the ledger ([`SlackLedger::feasible_with`] stays `&self`;
/// the buffer sits behind a `RefCell` nothing re-enters).
///
/// The books sit in a `Vec`, one *slot* each, and a link finds its slot
/// through an open-addressed table of slot numbers hashed by the link
/// (linear probing; the ledger's own fixed hash, so nothing depends on the
/// process).  A link is interned by its first `reserve` and keeps its slot
/// and its book for the life of the ledger, so the table never deletes and
/// a host link that goes 0 → 1 → 0 reservations asks the allocator for
/// nothing the second time round.  Every per-link call — `reserve`,
/// `release`, `holds`, `keys_on`, the load and the test — is one probe of
/// that table and one index, then a linear find (and for a write a shift)
/// in the book; none of it grows with the number of links loaded.  Nothing
/// observable reads the table's or the slots' order: [`loaded_links`]
/// sorts, as do [`keys_on`] and [`taskset`], which promise key order.  A
/// ledger that has booked nothing has allocated nothing.
///
/// [`keys_on`]: SlackLedger::keys_on
/// [`taskset`]: SlackLedger::taskset
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
    /// The demand scan's deadline events, reused from test to test.
    scratch: RefCell<DemandScratch>,
}

/// What a ledger holds on one link, looked up once: an admission reads the
/// link's load for the deadline split and then tests its share of the
/// deadline against the same book, without a second probe of the ledger.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkView<'a> {
    ledger: &'a SlackLedger,
    keys: &'a [ReservationKey],
    held: &'a [PeriodicTask],
}

impl LinkView<'_> {
    /// Number of reservations held on the link.
    pub(crate) fn load(&self) -> usize {
        self.held.len()
    }

    /// The link's reserved utilisation `Σ C/P`, summed in key order, not in
    /// the book's: the float is then a function of the keys held, so an
    /// uplink and a downlink holding the same channels read the same bits
    /// whatever deadlines their splits gave them, and the utilisation-weighted
    /// split, which rounds on it, splits them alike.
    pub(crate) fn utilisation(&self) -> f64 {
        let mut terms: Vec<_> = self.keys.iter().zip(self.held).collect();
        terms.sort_unstable_by_key(|&(key, _)| *key);
        terms.into_iter().map(|(_, task)| task.utilisation()).sum()
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
        let (keys, held) = self
            .book(link)
            .map_or((&[][..], &[][..]), |book| (&book.keys, &book.tasks));
        LinkView {
            ledger: self,
            keys,
            held,
        }
    }

    /// Number of reservations currently held on `link`.
    pub fn link_load(&self, link: HopLink) -> usize {
        self.link(link).load()
    }

    /// The task set currently reserved on `link`, in reservation-key order
    /// (sorted on the way out: the book keeps its tasks in deadline order).
    pub fn taskset(&self, link: HopLink) -> TaskSet {
        let Some(book) = self.book(link) else {
            return TaskSet::new();
        };
        let mut entries: Vec<_> = book.keys.iter().zip(&book.tasks).collect();
        entries.sort_unstable_by_key(|&(key, _)| *key);
        TaskSet::from_tasks(entries.into_iter().map(|(_, task)| *task).collect())
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
        // A replaced entry moves to its new deadline's place.
        book.remove(key);
        book.insert(key, task);
    }

    /// Book `task` on `link` under `key`, which holds nothing there, if the
    /// per-link EDF test passes with it: [`SlackLedger::feasible_with`] and
    /// then [`SlackLedger::reserve`] under one probe of the slot table.
    /// `false`, booking nothing and interning nothing, when it does not fit.
    pub(crate) fn reserve_if_feasible(
        &mut self,
        link: HopLink,
        key: ReservationKey,
        task: PeriodicTask,
    ) -> bool {
        let slot = self.slot_of(link);
        let held = slot.map_or(&[][..], |slot| &self.books[slot].tasks[..]);
        let outcome = (self.tester).test_slice(held, Some(&task), self.scratch.get_mut());
        if !outcome.is_feasible() {
            return false;
        }
        let book = match slot {
            Some(slot) => &mut self.books[slot],
            // A link's first booking interns it: a second probe, once per link.
            None => self.intern(link),
        };
        debug_assert!(book.find(key).is_none(), "{key:?} already holds {link:?}");
        book.insert(key, task);
        true
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

    /// The reservation keys currently holding slack on `link`, ascending
    /// (sorted on the way out: the book keeps them in deadline order).
    pub fn keys_on(&self, link: HopLink) -> Vec<ReservationKey> {
        let mut keys = self.book(link).map_or(vec![], |book| book.keys.clone());
        keys.sort_unstable();
        keys
    }

    /// `true` if `key` holds a reservation on `link`.
    pub fn holds(&self, link: HopLink, key: ReservationKey) -> bool {
        self.book(link).is_some_and(|book| book.find(key).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_types::{NodeId, Slots};
    use std::collections::BTreeMap;

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

    /// The link books against a plain map of maps: a seeded walk of reserves
    /// (new keys and replacements) and releases, with every read accessor
    /// compared after every step — and the per-link test compared with the
    /// tester run on the model's tasks.
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
        let tester = FeasibilityTester::new();
        let (mut replaced, mut emptied, mut refused) = (0, 0, 0);

        for seed in 0..8u64 {
            let mut rng = Xoshiro256::new(0xb00c_1600 + seed);
            let mut pick = |n: usize| rng.below(n as u64) as usize;
            let mut ledger = SlackLedger::new();
            let mut model = Model::new();
            for step in 0..600 {
                let (link, key) = (links[pick(links.len())], keys[pick(keys.len())]);
                // Stretches that fill the books alternate with stretches that
                // drain them, so links empty (their books staying behind,
                // unseen) in passing.
                let reserves = if (step / 60) % 2 == 0 { 6 } else { 1 };
                if pick(8) < reserves {
                    let t = task(
                        20 + pick(200) as u64,
                        1 + pick(4) as u64,
                        4 + pick(60) as u64,
                    );
                    ledger.reserve(link, key, t);
                    replaced +=
                        usize::from(model.entry(link).or_default().insert(key, t).is_some());
                } else {
                    // Half the releases aim at a key the link holds, so that
                    // the draining stretches really empty books.
                    let on_link = model
                        .get(&link)
                        .map_or(vec![], |m| m.keys().copied().collect());
                    let key = if on_link.is_empty() || pick(2) == 0 {
                        key
                    } else {
                        on_link[pick(on_link.len())]
                    };
                    let held = model.get_mut(&link).and_then(|m| m.remove(&key));
                    assert_eq!(ledger.release(link, key), held.is_some());
                }
                let before = model.len();
                model.retain(|_, m| !m.is_empty());
                emptied += before - model.len();

                // Every read accessor, on every link, loaded or not.
                let loaded: Vec<_> = model.iter().map(|(l, m)| (*l, m.len())).collect();
                assert_eq!(ledger.loaded_links().collect::<Vec<_>>(), loaded);
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
                    let n = tasks.len();
                    let expected = tester.test(&TaskSet::from_tasks(tasks));
                    assert_same_outcome(ledger.feasible_with(link, &candidate), expected, n);
                    refused += usize::from(!expected.is_feasible());
                }
            }
        }
        // The walk really replaced entries, emptied books and met links that
        // refuse the candidate.
        assert!(
            replaced > 50 && emptied > 10 && refused > 50,
            "{replaced} replaced, {emptied} emptied, {refused} refused"
        );
    }

    /// A book's outcome against the tester's over the same tasks in key
    /// order: the same verdict (`at` and `demand` included), `busy_period`
    /// and `checkpoints_examined`.  The book sums `utilisation` in deadline
    /// order, so the float may differ in its last bits: it is held inside the
    /// float error Constraint 1's band already allows such a sum, `(n + 3)·4ε`
    /// relative for `n` tasks.
    fn assert_same_outcome(got: FeasibilityOutcome, expected: FeasibilityOutcome, n: usize) {
        let exact = |o: &FeasibilityOutcome| (o.verdict, o.busy_period, o.checkpoints_examined);
        assert_eq!(exact(&got), exact(&expected));
        let band = (n as f64 + 3.0) * 4.0 * f64::EPSILON * expected.utilisation.max(1.0);
        assert!(
            (got.utilisation - expected.utilisation).abs() <= band,
            "{} against {}",
            got.utilisation,
            expected.utilisation
        );
    }

    /// The ledger this one replaced (PR 23), kept as the oracle of
    /// [`prop_slot_books_match_the_tree_ledger`]: one `BTreeMap` from link to
    /// book, walked from the root by every call, and a book is never empty —
    /// the release that empties it removes it.
    #[derive(Default)]
    struct TreeLedger {
        tester: FeasibilityTester,
        links: BTreeMap<HopLink, (Vec<ReservationKey>, Vec<PeriodicTask>)>,
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
    }

    /// The interned slot books against the tree ledger they replaced, as two
    /// placements use them: a fabric-wide ledger over 42 links of a
    /// `torus(3, 3, 4)` (the links of routes fanning out of one corner: up- and
    /// downlinks and trunks, most of them first reserved mid-walk, so the slot
    /// table grows four times under load) and one site's ledger over the
    /// twelve links switch 4 owns.  A seeded walk of reserves (fresh keys and
    /// replaced ones, channel and token keys; half the fresh ones tested and
    /// booked in one `reserve_if_feasible` call) and releases (held, absent,
    /// twice, on links never reserved on), in stretches that fill the books
    /// and stretches that drain them; after every step every accessor is
    /// compared on the link touched and `loaded_links` as a whole, order
    /// included.  The representation is held
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
        let (mut fresh, mut replaced, mut emptied, mut refilled) = (0, 0, 0, 0);
        let (mut absent, mut unbooked, mut refused) = (0, 0, 0);
        let (mut booked_in_place, mut refused_in_place) = (0, 0);

        for (seed, links) in
            (0..adversarial_seeds(3)).flat_map(|s| placements.iter().map(move |p| (s, p)))
        {
            let mut rng = Xoshiro256::new(0x5107_2300 + seed);
            let mut pick = |n: usize| rng.below(n as u64) as usize;
            let mut ledger = SlackLedger::new();
            let mut oracle = TreeLedger::default();
            let mut ever: BTreeSet<HopLink> = BTreeSet::new();
            for step in 0..700 {
                // The first stretch keeps to a quarter of the links, so that
                // the rest are met — and interned — by a ledger under load.
                let reach = if step < 120 {
                    links.len() / 4
                } else {
                    links.len()
                };
                let (link, key) = (links[pick(reach)], keys[pick(keys.len())]);
                let reserves = if (step / 70) % 2 == 0 { 7 } else { 1 };
                let loaded_before = oracle.links.len();
                if pick(8) < reserves {
                    let t = task(
                        20 + pick(200) as u64,
                        1 + pick(4) as u64,
                        4 + pick(60) as u64,
                    );
                    let (held, had) = (oracle.held(link).len(), oracle.holds(link, key));
                    // Half the fresh keys are tested and booked in one call,
                    // as a Reserve hop books them.
                    let in_place = !had && pick(2) == 0;
                    let fits = !in_place || oracle.feasible_with(link, &t).is_feasible();
                    if fits {
                        fresh += usize::from(!had);
                        replaced += usize::from(had);
                        refilled += usize::from(held == 0 && ever.contains(&link));
                        ever.insert(link);
                        oracle.reserve(link, key, t);
                    }
                    if in_place {
                        booked_in_place += usize::from(fits);
                        refused_in_place += usize::from(!fits);
                        assert_eq!(ledger.reserve_if_feasible(link, key, t), fits);
                    } else {
                        ledger.reserve(link, key, t);
                    }
                } else {
                    // Half the releases aim at a key the link holds, so that
                    // the draining stretches really empty books.
                    let on_link = oracle.keys_on(link);
                    let key = if on_link.is_empty() || pick(2) == 0 {
                        key
                    } else {
                        on_link[pick(on_link.len())]
                    };
                    let expected = oracle.release(link, key);
                    absent += usize::from(!expected);
                    unbooked += usize::from(!ever.contains(&link));
                    assert_eq!(ledger.release(link, key), expected);
                    // Twice: the second finds nothing, whatever the first did.
                    assert!(!ledger.release(link, key));
                }

                let loaded = oracle.loaded_links();
                emptied += loaded_before.saturating_sub(loaded.len());
                assert_eq!(ledger.loaded_links().collect::<Vec<_>>(), loaded);
                let candidate = task(
                    30 + pick(100) as u64,
                    1 + pick(3) as u64,
                    3 + pick(30) as u64,
                );
                assert_eq!(ledger.link_load(link), oracle.held(link).len());
                assert_eq!(ledger.taskset(link).tasks(), oracle.held(link));
                assert_eq!(ledger.keys_on(link), oracle.keys_on(link));
                for key in &keys {
                    assert_eq!(ledger.holds(link, *key), oracle.holds(link, *key));
                }
                let expected = oracle.feasible_with(link, &candidate);
                let n = oracle.held(link).len() + 1;
                assert_same_outcome(ledger.feasible_with(link, &candidate), expected, n);
                refused += usize::from(!expected.is_feasible());
                // The load the utilisation-weighted split reads: to the bit.
                let key_order: f64 = oracle
                    .held(link)
                    .iter()
                    .map(PeriodicTask::utilisation)
                    .sum();
                assert_eq!(
                    ledger.link(link).utilisation().to_bits(),
                    key_order.to_bits()
                );
                // The book in (deadline, key) order, strictly: no key twice.
                let book = ledger.book(link).map_or(vec![], |book| {
                    let deadlines = book.tasks.iter().map(PeriodicTask::relative_deadline);
                    deadlines.zip(book.keys.iter().copied()).collect()
                });
                assert!(book.windows(2).all(|w| w[0] < w[1]), "{book:?}");

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
            absent > 50 && unbooked > 20 && refused > 50,
            "{absent} absent, {unbooked} never booked, {refused} refused"
        );
        assert!(
            booked_in_place > 200 && refused_in_place > 10,
            "{booked_in_place} booked and {refused_in_place} refused in one call"
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

    /// `reserve` under a key the book already holds — the fault engine
    /// re-admitting a channel under its id — moves the task to its new
    /// deadline's place, ties broken by key, so the book's order is that of
    /// what it holds however it got there; `taskset` and `keys_on` still come
    /// out key-ascending.
    #[test]
    fn a_replaced_key_moves_to_its_new_deadline() {
        let link = HopLink::Trunk {
            from: SwitchId::new(0),
            to: SwitchId::new(1),
        };
        let key = |id| ReservationKey::channel(ChannelId::new(id));
        let book = |ledger: &SlackLedger| -> Vec<(u64, ReservationKey)> {
            let book = ledger.book(link).unwrap();
            let deadlines = book.tasks.iter().map(|t| t.relative_deadline().get());
            deadlines.zip(book.keys.iter().copied()).collect()
        };
        let mut ledger = SlackLedger::new();
        for (id, d) in [(1, 30), (2, 10), (3, 20)] {
            ledger.reserve(link, key(id), task(100, 2, d));
        }
        assert_eq!(book(&ledger), [(10, key(2)), (20, key(3)), (30, key(1))]);

        // Channel 2 re-admitted with a longer deadline: last in the book.
        ledger.reserve(link, key(2), task(100, 2, 40));
        assert_eq!(book(&ledger), [(20, key(3)), (30, key(1)), (40, key(2))]);
        // Channel 3 onto channel 1's deadline: the tie goes by key.
        ledger.reserve(link, key(3), task(100, 2, 30));
        assert_eq!(book(&ledger), [(30, key(1)), (30, key(3)), (40, key(2))]);
        assert_eq!(ledger.link_load(link), 3);
        assert_eq!(ledger.keys_on(link), [key(1), key(2), key(3)]);
        assert_eq!(
            ledger.taskset(link).tasks(),
            [task(100, 2, 30), task(100, 2, 40), task(100, 2, 30)]
        );

        // The same holdings booked in another order make the same book.
        let mut fresh = SlackLedger::new();
        for (id, d) in [(2, 40), (3, 30), (1, 30)] {
            fresh.reserve(link, key(id), task(100, 2, d));
        }
        assert_eq!(book(&fresh), book(&ledger));
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
