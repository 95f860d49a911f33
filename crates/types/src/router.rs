//! Path selection over a [`Topology`]: the [`Router`] trait, its one stock
//! implementation [`ShortestPathRouter`], and the [`RoutePolicy`] that
//! router follows.
//!
//! Hoang & Jonsson's analysis treats every *directed link* as an independent
//! EDF processor, so nothing in the admission theory cares how a channel's
//! path was chosen — only that the path is fixed at establishment time and
//! that every link on it passes the per-link feasibility test.  Every policy
//! picks a shortest path by trunk count; they differ in which one and in how
//! many:
//!
//! * [`RoutePolicy::Shortest`], the default — shortest paths over arbitrary
//!   connected meshes, deterministic tie-break (lowest switch id first).
//! * [`RoutePolicy::Tree`] — the pre-mesh behaviour: the switch graph must
//!   be a tree (its *capability check*) and the route is the unique path.
//! * [`RoutePolicy::Ecmp`] — equal-cost multi-path: counts (without listing
//!   them) all hop-count shortest paths and picks one by a deterministic
//!   hash of `(seed, source, destination)` through the in-repo
//!   [`Xoshiro256`] PRNG, so different channels spread over redundant trunks
//!   while a fixed seed always yields the same route.
//! * [`RoutePolicy::KShortest`] — the shortest path as the primary route
//!   plus up to `k − 1` loop-free alternates in ascending length
//!   ([`Router::routes`]), so admission and fail-over can fall back to a
//!   detour.
//!
//! The router keeps a per-topology [`NextHopCache`] keyed by
//! [`Topology::fingerprint`], so constructing many simulators (or routing
//! many channels) over the same fabric computes the forwarding state once.
//! That state is one BFS column per destination, and it is the library's
//! only path search: routes, tables, ECMP's path counts and Yen's spurs all
//! read it or sweep a column of it.  The cache rebuilds *incrementally*
//! across fault churn — a state one trunk flip away from a resident one is
//! patched per destination instead of rebuilt from scratch — and
//! materialises the `BTreeMap` table form lazily.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

use crate::dense::{IdIndex, NO_INDEX};
use crate::error::{RtError, RtResult};
use crate::ids::NodeId;
use crate::rng::Xoshiro256;
use crate::topology::{HopLink, SwitchId, Topology};

/// The next-hop forwarding table of a trunk graph: `(at, towards) →
/// neighbour of `at` on a shortest path towards `towards``.
pub type NextHopTable = BTreeMap<(SwitchId, SwitchId), SwitchId>;

/// The forwarding table in the form the per-event hot path consumes:
/// switches get contiguous indices (via [`IdIndex`]) and a forwarding
/// decision is a couple of array reads.  [`DenseNextHop::to_table`] derives
/// the `BTreeMap` form from it, so the two carry the same routes.
///
/// Storage is destination-major `S × S`, one `Arc`'d column per destination,
/// so an incremental rebuild after a single trunk flip shares every
/// untouched column with the previous table instead of copying O(V²)
/// entries.  The trunk graph the columns route over stays beside them, one
/// `Arc`'d row per switch, and the rebuild shares those the same way: a flip
/// re-reads the two rows it changed.
#[derive(Debug)]
pub struct DenseNextHop {
    index: IdIndex,
    /// `next[towards][at]` = dense index of the next switch, or
    /// [`NO_INDEX`] when unreachable (or `at == towards`).
    next: Vec<Arc<[u32]>>,
    /// `adjacency[at]` = the dense indices of `at`'s healthy neighbours,
    /// ascending: what a state one trunk flip away patches instead of
    /// reading the whole fabric again, what ECMP counts paths over and what
    /// Yen's spurs sweep.
    adjacency: Vec<Arc<[u32]>>,
    /// `dist[towards][at]` = hop count from `at` to `towards` (`u32::MAX` =
    /// unreachable): what ECMP counts paths by and what an incremental
    /// rebuild patches from.
    dist: Vec<Arc<[u32]>>,
}

impl DenseNextHop {
    /// Number of switches.
    #[inline]
    pub fn switch_count(&self) -> usize {
        self.index.len()
    }

    /// The dense index of a switch.
    #[inline]
    pub fn index_of(&self, switch: SwitchId) -> Option<u32> {
        self.index.get(switch.get())
    }

    /// The switch at a dense index (panics if out of range).
    #[inline]
    pub fn switch_at(&self, index: u32) -> SwitchId {
        SwitchId::new(self.index.id_at(index))
    }

    /// The next hop from dense index `at` towards dense index `towards`,
    /// as a dense index.  This is the per-event fast path.
    #[inline]
    pub fn next_hop_index(&self, at: u32, towards: u32) -> Option<u32> {
        match self.next[towards as usize][at as usize] {
            NO_INDEX => None,
            next => Some(next),
        }
    }

    /// The next hop by switch id (convenience for cold paths and tests).
    pub fn next_hop(&self, at: SwitchId, towards: SwitchId) -> Option<SwitchId> {
        let at = self.index_of(at)?;
        let towards = self.index_of(towards)?;
        self.next_hop_index(at, towards).map(|i| self.switch_at(i))
    }

    /// Materialise the `BTreeMap` form carrying exactly this table's
    /// entries.  Cold path: the cache calls it lazily, once per fabric
    /// state, and only when someone actually asks for the tree form.
    pub fn to_table(&self) -> NextHopTable {
        let n = self.index.len() as u32;
        let mut table = NextHopTable::new();
        for towards in 0..n {
            let to = self.switch_at(towards);
            for at in 0..n {
                if at == towards {
                    continue;
                }
                if let Some(next) = self.next_hop_index(at, towards) {
                    table.insert((self.switch_at(at), to), self.switch_at(next));
                }
            }
        }
        table
    }

    /// Approximate resident bytes of the forwarding state: the id index,
    /// the O(V²) next-hop and distance columns and the O(V + E) adjacency
    /// rows.  What `rtbench` reports as `types.router.table_bytes`.
    pub fn resident_bytes(&self) -> usize {
        let index = self.index.len() * 2 * std::mem::size_of::<u32>();
        let rows: usize = self
            .next
            .iter()
            .chain(&self.dist)
            .chain(&self.adjacency)
            .map(|c| std::mem::size_of::<Arc<[u32]>>() + std::mem::size_of_val(&c[..]))
            .sum();
        index + rows
    }
}

/// The path an RT channel takes through the fabric: the source's uplink,
/// zero or more directed trunk hops, the destination's downlink.
///
/// A `Route` is what a [`Router`] produces and what admission control and
/// the wire-level simulator consume: each [`HopLink`] in it is one EDF
/// "processor" of the feasibility analysis and one output port of the
/// simulated fabric.  Derefs to `[HopLink]`, so `route.len()` is the hop
/// count `h` of the hop-aware Eq. 18.1 bound `d·slot + T_latency(h)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Route {
    links: Vec<HopLink>,
}

impl Route {
    /// Build a route from its directed links, validating its shape: at
    /// least two links, starting with the source's uplink, ending with the
    /// destination's downlink, and — in between — a contiguous chain of
    /// trunks that never revisits a switch.  The contiguity check matters
    /// because the simulator installs one forwarding entry *per switch* of
    /// the route: a switch-revisiting route would silently overwrite its
    /// own entries and could loop frames forever.
    pub fn from_links(links: Vec<HopLink>) -> RtResult<Self> {
        if links.len() < 2 {
            return Err(RtError::Config(format!(
                "a route needs at least an uplink and a downlink, got {} link(s)",
                links.len()
            )));
        }
        if !matches!(links.first(), Some(HopLink::Uplink(_))) {
            return Err(RtError::Config(
                "a route must start with the source's uplink".into(),
            ));
        }
        if !matches!(links.last(), Some(HopLink::Downlink(_))) {
            return Err(RtError::Config(
                "a route must end with the destination's downlink".into(),
            ));
        }
        // The switches a trunk of `trunks` leaves from.  A route is a handful
        // of links: scanning them allocates nothing, where a set would.
        let departs_from = |trunks: &[HopLink], switch: SwitchId| {
            trunks
                .iter()
                .any(|l| matches!(l, HopLink::Trunk { from, .. } if *from == switch))
        };
        let interior = &links[1..links.len() - 1];
        let mut previous: Option<SwitchId> = None;
        for (i, link) in interior.iter().enumerate() {
            let HopLink::Trunk { from, to } = link else {
                return Err(RtError::Config(format!(
                    "interior links of a route must be trunks, got [{link}]"
                )));
            };
            if from == to {
                return Err(RtError::Config(format!(
                    "a route cannot contain the self-loop trunk [{link}]"
                )));
            }
            if let Some(previous) = previous {
                if previous != *from {
                    return Err(RtError::Config(format!(
                        "discontiguous route: trunk [{link}] does not start at {previous}"
                    )));
                }
            }
            if departs_from(&interior[..i], *from) {
                return Err(RtError::Config(format!(
                    "a route cannot revisit switch {from}"
                )));
            }
            previous = Some(*to);
        }
        if let Some(last) = previous {
            if departs_from(interior, last) {
                return Err(RtError::Config(format!(
                    "a route cannot revisit switch {last}"
                )));
            }
        }
        Ok(Route { links })
    }

    /// The directed links of the route, in traversal order.
    pub fn links(&self) -> &[HopLink] {
        &self.links
    }

    /// Number of directed links (the `h` of `T_latency(h)`).
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// The source node (owner of the first link).
    pub fn source(&self) -> NodeId {
        match self.links[0] {
            HopLink::Uplink(n) => n,
            _ => unreachable!("from_links admits only routes that start with an uplink"),
        }
    }

    /// The destination node (owner of the last link).
    pub fn destination(&self) -> NodeId {
        match self.links[self.links.len() - 1] {
            HopLink::Downlink(n) => n,
            _ => unreachable!("from_links admits only routes that end with a downlink"),
        }
    }

    /// Consume the route, yielding its links.
    pub fn into_links(self) -> Vec<HopLink> {
        self.links
    }
}

impl Deref for Route {
    type Target = [HopLink];

    fn deref(&self) -> &[HopLink] {
        &self.links
    }
}

impl<'a> IntoIterator for &'a Route {
    type Item = &'a HopLink;
    type IntoIter = std::slice::Iter<'a, HopLink>;

    fn into_iter(self) -> Self::IntoIter {
        self.links.iter()
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, link) in self.links.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "[{link}]")?;
        }
        Ok(())
    }
}

/// A path-selection policy over a [`Topology`].
///
/// Implementations must be deterministic: the same topology, source and
/// destination always yield the same route (that is what makes admission
/// decisions and simulated delivery sequences reproducible).
/// [`ShortestPathRouter`] is the one stock implementation; the trait is the
/// seam a wrapper (a tracing or counting router) substitutes through.
pub trait Router: fmt::Debug + Send + Sync {
    /// A short policy name for reports and error messages.
    fn name(&self) -> &'static str;

    /// Capability check: can this router serve the given topology at all?
    /// [`RoutePolicy::Tree`] rejects cyclic graphs here; the other policies
    /// only require connectivity.  Called once when a network or simulator
    /// is built, not per route.
    fn validate(&self, topology: &Topology) -> RtResult<()>;

    /// Select the path for an RT channel from `source` to `destination`.
    fn route(&self, topology: &Topology, source: NodeId, destination: NodeId) -> RtResult<Route>;

    /// The shared per-topology forwarding cache, when the policy keeps one.
    /// The stock router returns its own, which lets the two defaulted
    /// table accessors below dispatch through a single implementation and
    /// gives callers access to the cache's [`NextHopCache::stats`] counters.
    fn next_hop_cache(&self) -> Option<&NextHopCache> {
        None
    }

    /// The next-hop forwarding table used for traffic that carries no
    /// per-route forwarding state (control-plane and best-effort frames).
    /// Served from [`Router::next_hop_cache`] when the policy keeps one
    /// (the `BTreeMap` form is materialised lazily, once per cached fabric
    /// state); built through a fresh cache otherwise.
    fn next_hop_table(&self, topology: &Topology) -> Arc<NextHopTable> {
        match self.next_hop_cache() {
            Some(cache) => cache.get(topology),
            None => NextHopCache::new().get(topology),
        }
    }

    /// The [`DenseNextHop`] carrying the same routes as
    /// [`Router::next_hop_table`], which is what the simulator's per-event
    /// hot path consumes.
    fn dense_next_hop(&self, topology: &Topology) -> Arc<DenseNextHop> {
        match self.next_hop_cache() {
            Some(cache) => cache.get_dense(topology),
            None => NextHopCache::new().get_dense(topology),
        }
    }

    /// Candidate routes in preference order, primary first.  Admission
    /// control tries them in order and accepts the first feasible one, so a
    /// router that can enumerate alternates ([`RoutePolicy::KShortest`])
    /// turns "the shortest path is saturated" from a rejection into a
    /// detour.  The default is the single [`Router::route`].
    ///
    /// The primary is [`Router::route`]'s answer: `routes` fails exactly when
    /// `route` does, and otherwise `routes(..)[0] == route(..)`.  The channel
    /// managers rely on it: a request and a fail-over try `routes` in order,
    /// a repair asks `route` whether a channel sits on its primary route.  An
    /// implementation that overrides `routes` must keep it.
    fn routes(
        &self,
        topology: &Topology,
        source: NodeId,
        destination: NodeId,
    ) -> RtResult<Vec<Route>> {
        Ok(vec![self.route(topology, source, destination)?])
    }
}

/// A per-topology memo of the forwarding state, keyed by
/// [`Topology::fingerprint`], so repeated simulator constructions over the
/// same fabric reuse one table.
///
/// The memo keeps a small bounded set of fabric states (most recently used
/// first), not just the latest one.  Under fault churn a fabric alternates
/// between its healthy and degraded fingerprints on every cut/repair; a
/// single-entry cache recomputed the full `O(V·E log V)` table and its dense
/// flattening on *every* flip, which soak profiling showed dominating the
/// admission hot path.  With a few entries resident, a repair that returns
/// to a previously seen graph is a lookup.
///
/// A miss no longer implies a from-scratch pass, either:
///
/// * The table is built per *destination* (one BFS column each, next hop =
///   minimum-id neighbour one hop closer, which makes every route the
///   lexicographically smallest shortest path), and a miss whose
///   failed-trunk set differs from a resident state's by a single trunk is
///   served by *patching* that state's columns: only destinations whose
///   route tree actually crossed the flipped trunk are recomputed,
///   everything else shares the previous `Arc`'d column.  A single cut on
///   a 1280-switch fabric costs milliseconds instead of a full rebuild.
/// * The `BTreeMap` form is materialised lazily per state, only when
///   [`NextHopCache::get`] is actually called.
#[derive(Debug, Default)]
pub struct NextHopCache {
    inner: Mutex<CacheInner>,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: Vec<CacheEntry>,
    stats: NextHopCacheStats,
}

/// Number of distinct fabric states kept memoized.  Fault scripts flip
/// between a handful of graph states (healthy plus one per concurrent cut),
/// so a small bound captures the churn working set while keeping the linear
/// scan and memory footprint trivial.
const CACHE_CAPACITY: usize = 8;

/// Counters describing how a [`NextHopCache`] behaves under churn —
/// observable via [`NextHopCache::stats`] / [`Router::next_hop_cache`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NextHopCacheStats {
    /// Lookups served from a resident fabric state.
    pub hits: u64,
    /// Lookups that had to build a new entry.
    pub misses: u64,
    /// Entries dropped because the cache was at capacity.
    pub evictions: u64,
    /// Misses served by patching a sibling state's columns (single trunk
    /// flip on the same underlying fabric).
    pub incremental_rebuilds: u64,
    /// Misses that paid for a from-scratch build.
    pub full_rebuilds: u64,
}

#[derive(Debug)]
struct CacheEntry {
    fingerprint: u64,
    /// Fault-invariant fabric identity ([`Topology::structural_fingerprint`]):
    /// two states with equal values differ only in which trunks are failed,
    /// which is what makes cross-state incremental rebuilds sound.
    structural_fingerprint: u64,
    /// This state's failed trunks, normalised `(min, max)` and sorted.
    failed: Vec<(u32, u32)>,
    dense: Arc<DenseNextHop>,
    /// The `BTreeMap` form, materialised on first [`NextHopCache::get`].
    table: Option<Arc<NextHopTable>>,
}

impl NextHopCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the hit/miss/eviction/rebuild counters.
    pub fn stats(&self) -> NextHopCacheStats {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).stats
    }

    /// The cached table for `topology`, computing it on first use (or after
    /// the topology changed).  Materialises the `BTreeMap` form lazily —
    /// hot paths that only ever touch the dense form never pay for it.
    pub fn get(&self, topology: &Topology) -> Arc<NextHopTable> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let entry = Self::ensure(&mut inner, topology);
        let dense = &entry.dense;
        Arc::clone(
            entry
                .table
                .get_or_insert_with(|| Arc::new(dense.to_table())),
        )
    }

    /// The cached dense form for `topology` — the entry point the simulator
    /// and the router's own walks use.
    pub fn get_dense(&self, topology: &Topology) -> Arc<DenseNextHop> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(&Self::ensure(&mut inner, topology).dense)
    }

    /// Make the entry for `topology` resident at the front of the list, and
    /// return it.
    fn ensure<'a>(inner: &'a mut CacheInner, topology: &Topology) -> &'a mut CacheEntry {
        let fp = topology.fingerprint();
        if let Some(pos) = inner.entries.iter().position(|e| e.fingerprint == fp) {
            inner.stats.hits += 1;
            // Move the hit to the front so eviction drops the least
            // recently used fabric state (a no-op for a hit at the front).
            inner.entries[..=pos].rotate_right(1);
            return &mut inner.entries[0];
        }
        inner.stats.misses += 1;
        let structural_fingerprint = topology.structural_fingerprint();
        let failed: Vec<(u32, u32)> = topology
            .failed_trunks()
            .map(|(a, b)| (a.get(), b.get()))
            .collect();
        let index = IdIndex::new(topology.switches().map(|s| s.get()));
        // A resident state one trunk flip away on the same fabric seeds an
        // incremental rebuild.
        let patched = inner.entries.iter().find_map(|e| {
            if e.structural_fingerprint != structural_fingerprint {
                return None;
            }
            let delta = single_trunk_delta(&e.failed, &failed)?;
            Some(incremental_columns(topology, &index, &e.dense, &delta))
        });
        let (adjacency, (next, dist)) = match patched {
            Some(columns) => {
                inner.stats.incremental_rebuilds += 1;
                columns
            }
            None => {
                inner.stats.full_rebuilds += 1;
                let adjacency = dense_adjacency(topology, &index);
                let columns = uniform_columns(&adjacency);
                (adjacency, columns)
            }
        };
        let dense = DenseNextHop {
            index,
            next,
            adjacency,
            dist,
        };
        inner.entries.insert(
            0,
            CacheEntry {
                fingerprint: fp,
                structural_fingerprint,
                failed,
                dense: Arc::new(dense),
                table: None,
            },
        );
        if inner.entries.len() > CACHE_CAPACITY {
            inner.entries.pop();
            inner.stats.evictions += 1;
        }
        &mut inner.entries[0]
    }
}

/// One row of the dense adjacency: the dense indices of `switch`'s healthy
/// neighbours, ascending (as [`Topology::neighbours`] iterates).
fn adjacency_row(topology: &Topology, index: &IdIndex, switch: SwitchId) -> Arc<[u32]> {
    topology
        .neighbours(switch)
        .filter_map(|n| index.get(n.get()))
        .collect()
}

/// Dense adjacency over the topology's current — possibly degraded — trunk
/// graph, one row per switch in dense-index order (`index` was built from
/// [`Topology::switches`], which iterates ascending like the index).
fn dense_adjacency(topology: &Topology, index: &IdIndex) -> Vec<Arc<[u32]>> {
    topology
        .switches()
        .map(|s| adjacency_row(topology, index, s))
        .collect()
}

/// One BFS column towards destination `t`: per-source next hop (the
/// minimum-id neighbour one hop closer — the ascending adjacency makes the
/// first tight neighbour the minimum) and per-source distance
/// (`u32::MAX` = unreachable).
///
/// The first hop of the lexicographically smallest shortest path from `s`
/// is the minimum-id neighbour of `s` one hop closer to `t`, so walking a
/// column's next hops yields that path for every pair: the path a per-source
/// BFS exploring neighbours in ascending id, first finder keeping the
/// parent, finds too.
fn bfs_column(adjacency: &[Arc<[u32]>], t: usize) -> (Arc<[u32]>, Arc<[u32]>) {
    let n = adjacency.len();
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::with_capacity(n);
    dist[t] = 0;
    queue.push_back(t as u32);
    while let Some(s) = queue.pop_front() {
        let d = dist[s as usize];
        for &nb in adjacency[s as usize].iter() {
            if dist[nb as usize] == u32::MAX {
                dist[nb as usize] = d + 1;
                queue.push_back(nb);
            }
        }
    }
    let mut next = vec![NO_INDEX; n];
    for s in 0..n {
        if s == t || dist[s] == u32::MAX {
            continue;
        }
        for &nb in adjacency[s].iter() {
            if dist[nb as usize] != u32::MAX && dist[nb as usize] + 1 == dist[s] {
                next[s] = nb;
                break;
            }
        }
    }
    (Arc::from(next), Arc::from(dist))
}

/// Per-destination `(next-hop, distance)` column sets, `Arc`'d per column
/// so incremental rebuilds can share unchanged columns with their base.
type ColumnSets = (Vec<Arc<[u32]>>, Vec<Arc<[u32]>>);

/// From-scratch per-destination build of every column.
fn uniform_columns(adjacency: &[Arc<[u32]>]) -> ColumnSets {
    (0..adjacency.len())
        .map(|t| bfs_column(adjacency, t))
        .unzip()
}

/// A single-trunk difference between two failed-trunk sets.
enum TrunkDelta {
    /// The new state failed one trunk the base had healthy.
    Cut((u32, u32)),
    /// The new state repaired one trunk the base had failed.
    Repaired((u32, u32)),
}

/// `Some` when `new` differs from `base` by exactly one failed trunk
/// (both sorted, as [`Topology::failed_trunks`] reports them).
fn single_trunk_delta(base: &[(u32, u32)], new: &[(u32, u32)]) -> Option<TrunkDelta> {
    fn one_extra(shorter: &[(u32, u32)], longer: &[(u32, u32)]) -> Option<(u32, u32)> {
        if longer.len() != shorter.len() + 1 {
            return None;
        }
        let mut matched = 0;
        let mut extra = None;
        for &e in longer {
            if matched < shorter.len() && shorter[matched] == e {
                matched += 1;
            } else if extra.is_none() {
                extra = Some(e);
            } else {
                return None;
            }
        }
        if matched == shorter.len() {
            extra
        } else {
            None
        }
    }
    if let Some(e) = one_extra(base, new) {
        return Some(TrunkDelta::Cut(e));
    }
    one_extra(new, base).map(TrunkDelta::Repaired)
}

/// Patch a base state's adjacency and per-destination columns for a single
/// trunk flip, sharing every untouched row's and column's `Arc`: the
/// flipped trunk's two adjacency rows are read again from `topology`.
///
/// Soundness rests on two facts about BFS columns:
///
/// * A trunk between switches at *equal* distance from the destination (or
///   with either endpoint unreachable) lies on no shortest path at all, so
///   flipping it changes nothing for that destination.
/// * For a *tight* trunk (distances differ by one), only the downstream
///   endpoint `u` routes over it, and it does so iff the column's next hop
///   at `u` is the upstream endpoint.  A cut with an equal-length
///   alternative at `u` — and likewise a repair that only offers `u` a new
///   equal-length option — leaves every distance intact and changes at
///   most `u`'s own min-id choice; every other source either never crossed
///   the trunk or can be re-routed through `u`'s surviving choice at equal
///   length.  Only when `u` loses its last tight neighbour (or a repair
///   bridges a distance gap of 2+ / reconnects an unreachable region) does
///   the column get a from-scratch BFS.
fn incremental_columns(
    topology: &Topology,
    index: &IdIndex,
    base: &DenseNextHop,
    delta: &TrunkDelta,
) -> (Vec<Arc<[u32]>>, ColumnSets) {
    let (edge, is_cut) = match delta {
        TrunkDelta::Cut(e) => (e, true),
        TrunkDelta::Repaired(e) => (e, false),
    };
    // Base and new state hash to one structural fingerprint: one switch set.
    let dense = |id: u32| {
        index
            .get(id)
            .expect("a flipped trunk joins two switches of the fabric both states share")
            as usize
    };
    let (a, b) = (dense(edge.0), dense(edge.1));
    let mut adjacency = base.adjacency.clone();
    for (at, id) in [(a, edge.0), (b, edge.1)] {
        adjacency[at] = adjacency_row(topology, index, SwitchId::new(id));
    }
    let n = adjacency.len();
    let mut next_cols = Vec::with_capacity(n);
    let mut dist_cols = Vec::with_capacity(n);
    for (next, dist) in base.next.iter().zip(&base.dist) {
        let t = next_cols.len();
        let (da, db) = (dist[a], dist[b]);
        // Equal distances (finite or both unreachable): the trunk is off
        // every shortest path towards t either way.
        if da == db {
            next_cols.push(Arc::clone(next));
            dist_cols.push(Arc::clone(dist));
            continue;
        }
        let (u, v) = if da == u32::MAX || (db != u32::MAX && da > db) {
            (a, b)
        } else {
            (b, a)
        };
        if is_cut {
            // The trunk existed in the base graph, so both distances are
            // finite and differ by exactly one; `u` is downstream.
            if next[u] != v as u32 {
                next_cols.push(Arc::clone(next));
                dist_cols.push(Arc::clone(dist));
                continue;
            }
            let alt = adjacency[u]
                .iter()
                .copied()
                .find(|&nb| dist[nb as usize] != u32::MAX && dist[nb as usize] + 1 == dist[u]);
            match alt {
                Some(alt) => {
                    let mut patched = next.to_vec();
                    patched[u] = alt;
                    next_cols.push(Arc::from(patched));
                    dist_cols.push(Arc::clone(dist));
                }
                None => {
                    let (nc, dc) = bfs_column(&adjacency, t);
                    next_cols.push(nc);
                    dist_cols.push(dc);
                }
            }
        } else if dist[u] == u32::MAX || dist[u] - dist[v] >= 2 {
            // The repair shortens paths (or reconnects a region):
            // recompute the column.
            let (nc, dc) = bfs_column(&adjacency, t);
            next_cols.push(nc);
            dist_cols.push(dc);
        } else if (v as u32) < next[u] {
            // Tight repair: distances hold, u gains a smaller-id choice.
            let mut patched = next.to_vec();
            patched[u] = v as u32;
            next_cols.push(Arc::from(patched));
            dist_cols.push(Arc::clone(dist));
        } else {
            next_cols.push(Arc::clone(next));
            dist_cols.push(Arc::clone(dist));
        }
    }
    (adjacency, (next_cols, dist_cols))
}

/// Resolve and sanity-check the endpoints of a requested route.
fn route_endpoints(
    topology: &Topology,
    source: NodeId,
    destination: NodeId,
) -> RtResult<(SwitchId, SwitchId)> {
    if source == destination {
        return Err(RtError::InvalidChannelSpec(
            "source and destination must differ".into(),
        ));
    }
    let src_switch = topology
        .switch_of(source)
        .ok_or(RtError::UnknownNode(source))?;
    let dst_switch = topology
        .switch_of(destination)
        .ok_or(RtError::UnknownNode(destination))?;
    Ok((src_switch, dst_switch))
}

/// The error of a route between two switches no trunk path joins.
fn not_connected(from: SwitchId, to: SwitchId) -> RtError {
    RtError::Config(format!("switches {from} and {to} are not connected"))
}

/// Room for a fat-tree route (six links) without regrowing the vector link
/// by link; a longer route grows it once.
const ROUTE_LINKS_HINT: usize = 8;

/// The one route assembly: `source`'s uplink, a trunk between every two
/// consecutive switches of `path`, `destination`'s downlink.
fn assemble(
    source: NodeId,
    destination: NodeId,
    path: impl IntoIterator<Item = SwitchId>,
) -> RtResult<Route> {
    let mut links = Vec::with_capacity(ROUTE_LINKS_HINT);
    links.push(HopLink::Uplink(source));
    let mut path = path.into_iter();
    if let Some(mut from) = path.next() {
        for to in path {
            links.push(HopLink::Trunk { from, to });
            from = to;
        }
    }
    links.push(HopLink::Downlink(destination));
    Route::from_links(links)
}

/// The switches from `from` to `to` along the dense next hops, both ends
/// included, or `None` when `to` is unreachable.  Walking the dense form
/// (rather than the `BTreeMap`) means a route never forces the lazy O(V²)
/// table materialisation.  A column is a shortest-path tree towards its
/// destination: every next hop is strictly closer and has a next hop of
/// its own until it is `to`, which has none towards itself — so once the
/// first hop exists the walk ends exactly at `to`.
fn walk(
    dense: &DenseNextHop,
    from: SwitchId,
    to: SwitchId,
) -> Option<impl Iterator<Item = SwitchId> + '_> {
    let (at, towards) = (dense.index_of(from)?, dense.index_of(to)?);
    if at != towards && dense.next_hop_index(at, towards).is_none() {
        return None;
    }
    let hops = std::iter::successors(Some(at), move |&at| dense.next_hop_index(at, towards));
    Some(hops.map(move |at| dense.switch_at(at)))
}

/// [`RoutePolicy::Ecmp`]'s hash key for one `(source, destination)` pair:
/// independent of call order, so a fixed seed reproduces every pick.
fn ecmp_key(seed: u64, source: NodeId, destination: NodeId) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(source.get()) << 32)
        ^ u64::from(destination.get())
}

/// [`RoutePolicy::Ecmp`]'s switch path from `from` to `to`: of all
/// hop-count shortest paths, the one `key` picks, or `None` when `to` is
/// unreachable.  The paths are counted, never listed: each switch's number
/// of shortest paths on to `to` is summed from its closer neighbours in
/// ascending distance (saturating: a count only steers the hash), over the
/// dense adjacency and the cached distance column, and the walk descends
/// through the counts to the picked path.
fn ecmp_path(
    dense: &DenseNextHop,
    from: SwitchId,
    to: SwitchId,
    key: u64,
) -> Option<Vec<SwitchId>> {
    let (s, t) = (dense.index_of(from)? as usize, dense.index_of(to)? as usize);
    let dist = &dense.dist[t];
    if dist[s] == u32::MAX {
        return None;
    }
    let closer = |v: usize| {
        dense.adjacency[v]
            .iter()
            .map(|&u| u as usize)
            .filter(move |&u| dist[u] != u32::MAX && dist[u] + 1 == dist[v])
    };
    let mut order: Vec<usize> = (0..dist.len()).filter(|&v| dist[v] <= dist[s]).collect();
    order.sort_unstable_by_key(|&v| dist[v]);
    let mut count = vec![0u64; dist.len()];
    count[t] = 1;
    for &v in order.iter().filter(|&&v| v != t) {
        let paths = closer(v).map(|u| count[u]).fold(0, u64::saturating_add);
        count[v] = paths;
    }
    let mut remaining = match count[s] {
        0 | 1 => 0,
        paths => Xoshiro256::new(key).below(paths),
    };
    let mut path = vec![from];
    let mut at = s;
    while at != t {
        // Cannot come up empty: `remaining < count[at]`, which is at most
        // the sum of what `at`'s closer neighbours carry.
        at = closer(at).find(|&u| {
            let here = remaining < count[u];
            if !here {
                remaining -= count[u];
            }
            here
        })?;
        path.push(dense.switch_at(at as u32));
    }
    Some(path)
}

/// [`RoutePolicy::KShortest`]'s candidates: `first`, then up to `k − 1`
/// further loop-free switch paths to `to`, shortest first (Yen's algorithm
/// over the trunk graph; candidates ordered by `(hops, path)`, so by length,
/// then lexicographically).  Fewer when the graph has fewer distinct
/// loop-free paths.  Paths are dense indices here, which order as the
/// switch ids do.
fn k_shortest_paths(
    dense: &DenseNextHop,
    first: Vec<SwitchId>,
    to: SwitchId,
    k: usize,
) -> Vec<Vec<SwitchId>> {
    let index = |s: SwitchId| {
        dense
            .index_of(s)
            .expect("a routed path runs over the switches its table was built for")
    };
    let t = index(to);
    let mut paths: Vec<Vec<u32>> = vec![first.into_iter().map(index).collect()];
    let mut candidates = std::collections::BTreeSet::new();
    while paths.len() < k {
        let prev = &paths[paths.len() - 1];
        for i in 0..prev.len().saturating_sub(1) {
            let root = &prev[..=i];
            // Edges already used by accepted paths sharing this root must
            // not be reused for the spur, nor the root's switches revisited.
            let banned_edges: Vec<(u32, u32)> = paths
                .iter()
                .filter(|p| p.len() > i + 1 && p[..=i] == *root)
                .map(|p| (p[i], p[i + 1]))
                .collect();
            if let Some(spur) = spur_path(&dense.adjacency, prev[i], t, &root[..i], &banned_edges) {
                let mut total = root[..i].to_vec();
                total.extend(spur);
                if !paths.contains(&total) {
                    candidates.insert((total.len(), total));
                }
            }
        }
        let Some((_, best)) = candidates.pop_first() else {
            break;
        };
        paths.push(best);
    }
    paths
        .into_iter()
        .map(|p| p.into_iter().map(|at| dense.switch_at(at)).collect())
        .collect()
}

/// Yen's spur search: the lexicographically smallest shortest path from
/// `from` to `to` that enters none of `banned_nodes` and takes none of the
/// directed `banned_edges`, or `None` when they cut `to` off.  A BFS column
/// towards `to` over the adjacency with those removed, walked from `from`
/// by the minimum-id closer neighbour, as [`bfs_column`]'s tables are.
fn spur_path(
    adjacency: &[Arc<[u32]>],
    from: u32,
    to: u32,
    banned_nodes: &[u32],
    banned_edges: &[(u32, u32)],
) -> Option<Vec<u32>> {
    let usable = |at: u32, next: u32| !banned_edges.contains(&(at, next));
    let mut dist = vec![u32::MAX; adjacency.len()];
    dist[to as usize] = 0;
    let mut queue = std::collections::VecDeque::from([to]);
    while let Some(v) = queue.pop_front() {
        for &u in adjacency[v as usize].iter() {
            if dist[u as usize] == u32::MAX && !banned_nodes.contains(&u) && usable(u, v) {
                dist[u as usize] = dist[v as usize] + 1;
                queue.push_back(u);
            }
        }
    }
    if dist[from as usize] == u32::MAX {
        return None;
    }
    let mut path = vec![from];
    let mut at = from;
    while at != to {
        // Cannot come up empty: `at` was reached from a usable neighbour
        // one hop closer.
        at = adjacency[at as usize].iter().copied().find(|&next| {
            dist[next as usize] != u32::MAX
                && dist[next as usize] + 1 == dist[at as usize]
                && usable(at, next)
        })?;
        path.push(at);
    }
    Some(path)
}

/// Which shortest path a [`ShortestPathRouter`] picks, and how many it
/// offers.  See the module docs for what each policy is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// The lexicographically smallest shortest path over any connected
    /// mesh.
    #[default]
    Shortest,
    /// [`RoutePolicy::Shortest`] on a switch graph that must be a tree, so
    /// the route is the unique path; a cyclic or disconnected fabric is
    /// refused.
    Tree,
    /// One of the hop-count shortest paths, picked by a hash of `(seed,
    /// source, destination)`.
    Ecmp {
        /// The hash seed.
        seed: u64,
    },
    /// [`RoutePolicy::Shortest`]'s path first, then up to `k − 1` loop-free
    /// alternates in ascending length.
    KShortest {
        /// Candidate paths offered per request (0 offers one, as 1 does).
        k: usize,
    },
}

/// The stock [`Router`]: a [`RoutePolicy`] over a [`NextHopCache`].  Every
/// policy picks a shortest path, hence the name; [`ShortestPathRouter::new`]
/// follows [`RoutePolicy::Shortest`].
#[derive(Debug, Default)]
pub struct ShortestPathRouter {
    policy: RoutePolicy,
    cache: NextHopCache,
}

impl ShortestPathRouter {
    /// A router following [`RoutePolicy::Shortest`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A router following `policy`.
    pub fn with_policy(policy: RoutePolicy) -> Self {
        ShortestPathRouter {
            policy,
            cache: NextHopCache::default(),
        }
    }
}

impl Router for ShortestPathRouter {
    fn name(&self) -> &'static str {
        match self.policy {
            RoutePolicy::Shortest => "shortest-path",
            RoutePolicy::Tree => "tree",
            RoutePolicy::Ecmp { .. } => "ecmp",
            RoutePolicy::KShortest { .. } => "k-shortest",
        }
    }

    fn validate(&self, topology: &Topology) -> RtResult<()> {
        match self.policy {
            RoutePolicy::Tree if !topology.is_tree() => Err(RtError::Config(format!(
                "the tree policy requires a tree, but the switch graph has {} switches and {} trunks{}",
                topology.switch_count(),
                topology.trunk_count(),
                if topology.is_connected() {
                    " (cyclic)"
                } else {
                    " (disconnected)"
                }
            ))),
            _ if !topology.is_connected() => Err(RtError::Config(
                "the switch graph must be connected".into(),
            )),
            _ => Ok(()),
        }
    }

    fn route(&self, topology: &Topology, source: NodeId, destination: NodeId) -> RtResult<Route> {
        if self.policy == RoutePolicy::Tree {
            self.validate(topology)?;
        }
        let (from, to) = route_endpoints(topology, source, destination)?;
        let dense = self.cache.get_dense(topology);
        match self.policy {
            RoutePolicy::Ecmp { seed } => {
                let key = ecmp_key(seed, source, destination);
                let path =
                    ecmp_path(&dense, from, to, key).ok_or_else(|| not_connected(from, to))?;
                assemble(source, destination, path)
            }
            _ => {
                let path = walk(&dense, from, to).ok_or_else(|| not_connected(from, to))?;
                assemble(source, destination, path)
            }
        }
    }

    fn routes(
        &self,
        topology: &Topology,
        source: NodeId,
        destination: NodeId,
    ) -> RtResult<Vec<Route>> {
        let RoutePolicy::KShortest { k } = self.policy else {
            return Ok(vec![self.route(topology, source, destination)?]);
        };
        // `route`'s primary, walked off the same table the spurs sweep.
        let (from, to) = route_endpoints(topology, source, destination)?;
        let dense = self.cache.get_dense(topology);
        let first = walk(&dense, from, to)
            .ok_or_else(|| not_connected(from, to))?
            .collect();
        k_shortest_paths(&dense, first, to, k)
            .into_iter()
            .map(|path| assemble(source, destination, path))
            .collect()
    }

    fn next_hop_cache(&self) -> Option<&NextHopCache> {
        Some(&self.cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::oracle;
    use std::collections::BTreeSet;

    /// One of each policy, with the values the old constructors were given.
    const POLICIES: [RoutePolicy; 4] = [
        RoutePolicy::Shortest,
        RoutePolicy::Tree,
        RoutePolicy::Ecmp { seed: 7 },
        RoutePolicy::KShortest { k: 3 },
    ];

    fn ring4() -> Topology {
        Topology::ring(4, 1)
    }

    fn router(policy: RoutePolicy) -> ShortestPathRouter {
        ShortestPathRouter::with_policy(policy)
    }

    fn switches(ids: &[u32]) -> Vec<SwitchId> {
        ids.iter().copied().map(SwitchId::new).collect()
    }

    // --- oracles: the routing bodies from before one type took a policy ---
    //
    // Kept as they were, apart from the table they walk, so that the merged
    // router can be checked against them route for route.

    /// `ShortestPathRouter` and `TreeRouter`'s walk, over the per-source
    /// table ([`oracle::next_hop_table`]) instead of the cache: an oracle
    /// that shares no code with the cache's columns.
    fn oracle_walk(
        table: &NextHopTable,
        topology: &Topology,
        source: NodeId,
        destination: NodeId,
    ) -> RtResult<Route> {
        let (src_switch, dst_switch) = route_endpoints(topology, source, destination)?;
        let mut links = vec![HopLink::Uplink(source)];
        let mut at = src_switch;
        while at != dst_switch {
            let next = *table
                .get(&(at, dst_switch))
                .ok_or_else(|| RtError::Config("not connected".into()))?;
            links.push(HopLink::Trunk { from: at, to: next });
            at = next;
        }
        links.push(HopLink::Downlink(destination));
        Route::from_links(links)
    }

    /// `EcmpRouter::route`: BFS distances and shortest-path counts in
    /// `BTreeMap`s over [`Topology::neighbours`].
    fn oracle_ecmp(
        seed: u64,
        topology: &Topology,
        source: NodeId,
        destination: NodeId,
    ) -> RtResult<Route> {
        let (src_switch, dst_switch) = route_endpoints(topology, source, destination)?;
        if src_switch == dst_switch {
            return Route::from_links(vec![
                HopLink::Uplink(source),
                HopLink::Downlink(destination),
            ]);
        }
        let mut dist: BTreeMap<SwitchId, u64> = BTreeMap::from([(dst_switch, 0)]);
        let mut queue = std::collections::VecDeque::from([dst_switch]);
        while let Some(current) = queue.pop_front() {
            let d = dist[&current];
            for next in topology.neighbours(current) {
                if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(next) {
                    e.insert(d + 1);
                    queue.push_back(next);
                }
            }
        }
        if !dist.contains_key(&src_switch) {
            return Err(RtError::Config("not connected".into()));
        }
        let mut by_distance: Vec<(u64, SwitchId)> = dist.iter().map(|(&s, &d)| (d, s)).collect();
        by_distance.sort_unstable();
        let mut count: BTreeMap<SwitchId, u64> = BTreeMap::from([(dst_switch, 1)]);
        for &(d, s) in by_distance.iter().skip(1) {
            let total = topology
                .neighbours(s)
                .filter(|n| dist.get(n) == Some(&(d - 1)))
                .map(|n| count.get(&n).copied().unwrap_or(0))
                .fold(0u64, u64::saturating_add);
            count.insert(s, total);
        }
        let paths = count[&src_switch];
        let mut remaining = if paths <= 1 {
            0
        } else {
            let key = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (u64::from(source.get()) << 32)
                ^ u64::from(destination.get());
            Xoshiro256::new(key).below(paths)
        };
        let mut links = vec![HopLink::Uplink(source)];
        let mut at = src_switch;
        while at != dst_switch {
            let d = dist[&at];
            let mut chosen = None;
            for next in topology.neighbours(at) {
                if dist.get(&next) != Some(&(d - 1)) {
                    continue;
                }
                let paths_via = count.get(&next).copied().unwrap_or(0);
                if remaining < paths_via {
                    chosen = Some(next);
                    break;
                }
                remaining -= paths_via;
            }
            let next = chosen.expect("counts cover every shortest path");
            links.push(HopLink::Trunk { from: at, to: next });
            at = next;
        }
        links.push(HopLink::Downlink(destination));
        Route::from_links(links)
    }

    /// `KShortestRouter::switch_paths`: Yen's algorithm, its first path
    /// from the source's own search, every search the per-source BFS of
    /// [`oracle::switch_path_banned`].
    fn oracle_switch_paths(
        k: usize,
        topology: &Topology,
        from: SwitchId,
        to: SwitchId,
    ) -> Vec<Vec<SwitchId>> {
        let none = BTreeSet::new();
        let Some(first) = oracle::switch_path_banned(topology, from, to, &none, &BTreeSet::new())
        else {
            return Vec::new();
        };
        let mut paths = vec![first];
        let mut candidates: BTreeSet<(usize, Vec<SwitchId>)> = BTreeSet::new();
        while paths.len() < k.max(1) {
            let prev = paths.last().expect("paths starts non-empty").clone();
            for i in 0..prev.len() - 1 {
                let spur = prev[i];
                let root = &prev[..=i];
                let mut banned_edges = BTreeSet::new();
                for p in &paths {
                    if p.len() > i + 1 && p[..=i] == *root {
                        banned_edges.insert((p[i], p[i + 1]));
                    }
                }
                let banned_nodes: BTreeSet<SwitchId> = root[..i].iter().copied().collect();
                if let Some(spur_path) =
                    oracle::switch_path_banned(topology, spur, to, &banned_nodes, &banned_edges)
                {
                    let mut total: Vec<SwitchId> = root[..i].to_vec();
                    total.extend(spur_path);
                    if !paths.contains(&total) {
                        let hops = total.len() - 1;
                        candidates.insert((hops, total));
                    }
                }
            }
            let Some(best) = candidates.iter().next().cloned() else {
                break;
            };
            candidates.remove(&best);
            paths.push(best.1);
        }
        paths
    }

    /// `KShortestRouter::route_from_switch_path`.
    fn oracle_route_along(
        source: NodeId,
        destination: NodeId,
        path: &[SwitchId],
    ) -> RtResult<Route> {
        let mut links = vec![HopLink::Uplink(source)];
        for pair in path.windows(2) {
            links.push(HopLink::Trunk {
                from: pair[0],
                to: pair[1],
            });
        }
        links.push(HopLink::Downlink(destination));
        Route::from_links(links)
    }

    /// `KShortestRouter::routes`; its `route` is the first of these.
    fn oracle_k_shortest(
        k: usize,
        topology: &Topology,
        source: NodeId,
        destination: NodeId,
    ) -> RtResult<Vec<Route>> {
        let (src_switch, dst_switch) = route_endpoints(topology, source, destination)?;
        let paths = oracle_switch_paths(k, topology, src_switch, dst_switch);
        if paths.is_empty() {
            return Err(RtError::Config("not connected".into()));
        }
        paths
            .iter()
            .map(|p| oracle_route_along(source, destination, p))
            .collect()
    }

    /// What the router of `policy` answered before the merge: its candidate
    /// list, whose first entry was its `route`.  `table` is
    /// `oracle::next_hop_table(topology)` and `tree` its `is_tree()`.
    fn oracle(
        policy: RoutePolicy,
        (table, tree): (&NextHopTable, bool),
        topology: &Topology,
        source: NodeId,
        destination: NodeId,
    ) -> RtResult<Vec<Route>> {
        let primary = match policy {
            RoutePolicy::Shortest => oracle_walk(table, topology, source, destination),
            RoutePolicy::Tree if !tree => Err(RtError::Config("not a tree".into())),
            RoutePolicy::Tree => oracle_walk(table, topology, source, destination),
            RoutePolicy::Ecmp { seed } => oracle_ecmp(seed, topology, source, destination),
            RoutePolicy::KShortest { k } => {
                return oracle_k_shortest(k, topology, source, destination)
            }
        };
        Ok(vec![primary?])
    }

    /// Seeds of the route-policy property: the `RT_ADVERSARIAL_SEEDS`
    /// matrix the CI soaks crank up, else 32.
    fn adversarial_seeds() -> u64 {
        std::env::var("RT_ADVERSARIAL_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(32)
    }

    /// A random tree of `switches` switches (each joined to a random
    /// earlier one) with one or two nodes on each, node ids switch-major.
    fn random_tree(rng: &mut Xoshiro256, switches: u32) -> Topology {
        let mut t = Topology::new();
        let mut node = 0;
        for s in 0..switches {
            t.add_switch(SwitchId::new(s));
            if s > 0 {
                let parent = SwitchId::new(rng.below(u64::from(s)) as u32);
                t.add_trunk(parent, SwitchId::new(s)).unwrap();
            }
            for _ in 0..1 + rng.below(2) {
                t.attach_node(NodeId::new(node), SwitchId::new(s)).unwrap();
                node += 1;
            }
        }
        t
    }

    /// Seed `seed`'s fabric: seed 3 is `fat_tree(4)` (its 33 states are
    /// most of the property's time in a debug build, so it runs once), the
    /// others a random tree, a ring, a torus or a mesh in turn (a random
    /// tree plus chords, so cycles of uneven lengths meet).
    fn random_fabric(seed: u64, rng: &mut Xoshiro256) -> Topology {
        let below = |rng: &mut Xoshiro256, n: u32| rng.below(u64::from(n)) as u32;
        match seed % 4 {
            _ if seed == 3 => Topology::fat_tree(4).unwrap(),
            0 => {
                let n = 2 + below(rng, 7);
                random_tree(rng, n)
            }
            1 => Topology::ring(3 + below(rng, 5), 1 + below(rng, 2)),
            2 => Topology::torus(2 + below(rng, 2), 3 + below(rng, 2), 1),
            _ => {
                let n = 5 + below(rng, 3);
                let mut t = random_tree(rng, n);
                for _ in 0..2 + rng.below(3) {
                    let (a, b) = (below(rng, n), below(rng, n));
                    // A self-loop or a repeat is refused; that is fine here.
                    let _ = t.add_trunk(SwitchId::new(a), SwitchId::new(b));
                }
                t
            }
        }
    }

    /// Every policy against the body it replaced: `route` and `routes` on a
    /// random tree, ring, torus, `fat_tree(4)` or mesh — every ordered node
    /// pair of the healthy fabric, and a seeded sample of
    /// `PAIRS_PER_CUT` pairs under every single trunk cut (one router per
    /// policy across the cuts, so the cache's incremental rebuilds are what
    /// is walked) — with `routes(..)[0] == route(..)` throughout.  What is
    /// compared is the routes: an error is an error whatever its text.
    #[test]
    fn prop_every_policy_routes_like_its_oracle() {
        /// Node pairs checked per cut state; the healthy fabric checks all.
        const PAIRS_PER_CUT: usize = 12;
        let (mut routed, mut refused, mut alternates, mut meshes) = (0u64, 0u64, 0u64, 0u64);
        for seed in 0..adversarial_seeds() {
            let mut rng = Xoshiro256::new(0x0e7a_c1e5 ^ seed);
            let healthy = random_fabric(seed, &mut rng);
            meshes += u64::from(seed % 4 == 3 && seed != 3 && !healthy.is_tree());
            let policies = [
                RoutePolicy::Shortest,
                RoutePolicy::Tree,
                RoutePolicy::Ecmp {
                    seed: rng.next_u64(),
                },
                RoutePolicy::KShortest {
                    k: rng.below(5) as usize,
                },
            ];
            let routers = policies.map(router);
            let every_pair: Vec<(NodeId, NodeId)> = healthy
                .nodes()
                .flat_map(|s| healthy.nodes().map(move |d| (s, d)))
                .collect();
            let cuts = std::iter::once(None).chain(healthy.trunks().map(Some));
            for cut in cuts.collect::<Vec<_>>() {
                let mut t = healthy.clone();
                let pairs = match cut {
                    None => every_pair.clone(),
                    Some((a, b)) => {
                        t.fail_trunk(a, b).unwrap();
                        let pick = |_| every_pair[rng.below(every_pair.len() as u64) as usize];
                        (0..PAIRS_PER_CUT).map(pick).collect()
                    }
                };
                let (table, tree) = (oracle::next_hop_table(&t), t.is_tree());
                for (router, policy) in routers.iter().zip(policies) {
                    for &(s, d) in &pairs {
                        let expected = oracle(policy, (&table, tree), &t, s, d).ok();
                        let routes = router.routes(&t, s, d).ok();
                        let route = router.route(&t, s, d).ok();
                        assert_eq!(
                            routes, expected,
                            "seed {seed} {policy:?} {cut:?}: {s} -> {d}"
                        );
                        assert_eq!(
                            route.as_ref(),
                            routes.as_ref().and_then(|r| r.first()),
                            "seed {seed} {policy:?} {cut:?}: {s} -> {d}: the primary is not first"
                        );
                        match routes {
                            Some(candidates) => {
                                routed += 1;
                                alternates += candidates.len() as u64 - 1;
                            }
                            None => refused += 1,
                        }
                    }
                }
            }
        }
        // The matrix really routed, refused (same-node pairs, cut trees,
        // cyclic fabrics under `Tree`), offered detours and drew cyclic
        // meshes.
        assert!(
            routed > 0 && refused > 0 && alternates > 0,
            "{routed} {refused} {alternates}"
        );
        assert!(
            meshes > 0 || adversarial_seeds() < 8,
            "no cyclic mesh was drawn"
        );
    }

    /// Yen's spur search against the per-source oracle's, on the property's
    /// fabrics with random banned switches and directed trunks: the same
    /// path, or none on both sides.
    #[test]
    fn prop_spur_paths_match_the_per_source_search() {
        let (mut found, mut cut_off) = (0u64, 0u64);
        for seed in 0..adversarial_seeds() {
            let mut rng = Xoshiro256::new(0x5b0a_0000 ^ seed);
            let t = random_fabric(seed, &mut rng);
            let dense = NextHopCache::new().get_dense(&t);
            let n = dense.switch_count() as u64;
            let directed: Vec<(SwitchId, SwitchId)> =
                t.trunks().flat_map(|(a, b)| [(a, b), (b, a)]).collect();
            for _ in 0..64 {
                let pick = |rng: &mut Xoshiro256| dense.switch_at(rng.below(n) as u32);
                let (from, to) = (pick(&mut rng), pick(&mut rng));
                let banned_nodes: BTreeSet<SwitchId> = (0..rng.below(3))
                    .map(|_| pick(&mut rng))
                    .filter(|&s| s != from && s != to)
                    .collect();
                let banned_edges: BTreeSet<(SwitchId, SwitchId)> = (0..rng.below(4))
                    .map(|_| directed[rng.below(directed.len() as u64) as usize])
                    .collect();
                let expected =
                    oracle::switch_path_banned(&t, from, to, &banned_nodes, &banned_edges);
                let index = |s: &SwitchId| dense.index_of(*s).unwrap();
                let nodes: Vec<u32> = banned_nodes.iter().map(index).collect();
                let edges: Vec<(u32, u32)> = banned_edges
                    .iter()
                    .map(|(a, b)| (index(a), index(b)))
                    .collect();
                let spur = spur_path(&dense.adjacency, index(&from), index(&to), &nodes, &edges)
                    .map(|p| p.into_iter().map(|at| dense.switch_at(at)).collect());
                assert_eq!(
                    spur, expected,
                    "seed {seed}: {from} -> {to} {nodes:?} {edges:?}"
                );
                if spur.is_some() {
                    found += 1;
                } else {
                    cut_off += 1;
                }
            }
        }
        assert!(found > 0 && cut_off > 0, "{found} {cut_off}");
    }

    #[test]
    fn route_shape_is_validated() {
        assert!(Route::from_links(vec![]).is_err());
        assert!(Route::from_links(vec![HopLink::Uplink(NodeId::new(0))]).is_err());
        assert!(Route::from_links(vec![
            HopLink::Downlink(NodeId::new(0)),
            HopLink::Uplink(NodeId::new(1)),
        ])
        .is_err());
        let trunk = |from: u32, to: u32| HopLink::Trunk {
            from: SwitchId::new(from),
            to: SwitchId::new(to),
        };
        // Interior links must be trunks.
        assert!(Route::from_links(vec![
            HopLink::Uplink(NodeId::new(0)),
            HopLink::Uplink(NodeId::new(1)),
            HopLink::Downlink(NodeId::new(2)),
        ])
        .is_err());
        // Discontiguous trunk chains are rejected.
        assert!(Route::from_links(vec![
            HopLink::Uplink(NodeId::new(0)),
            trunk(2, 3),
            HopLink::Downlink(NodeId::new(1)),
        ])
        .is_ok()); // a single trunk has nothing to be contiguous with
        assert!(Route::from_links(vec![
            HopLink::Uplink(NodeId::new(0)),
            trunk(0, 1),
            trunk(2, 3),
            HopLink::Downlink(NodeId::new(1)),
        ])
        .is_err());
        // Self-loop trunks and switch-revisiting walks are rejected.
        assert!(Route::from_links(vec![
            HopLink::Uplink(NodeId::new(0)),
            trunk(1, 1),
            HopLink::Downlink(NodeId::new(1)),
        ])
        .is_err());
        assert!(Route::from_links(vec![
            HopLink::Uplink(NodeId::new(0)),
            trunk(0, 1),
            trunk(1, 2),
            trunk(2, 1),
            HopLink::Downlink(NodeId::new(1)),
        ])
        .is_err());
        assert!(Route::from_links(vec![
            HopLink::Uplink(NodeId::new(0)),
            trunk(0, 1),
            trunk(1, 0),
            HopLink::Downlink(NodeId::new(1)),
        ])
        .is_err());
        // A legal multi-trunk chain passes.
        assert!(Route::from_links(vec![
            HopLink::Uplink(NodeId::new(0)),
            trunk(0, 1),
            trunk(1, 2),
            HopLink::Downlink(NodeId::new(1)),
        ])
        .is_ok());
        let r = Route::from_links(vec![
            HopLink::Uplink(NodeId::new(0)),
            HopLink::Downlink(NodeId::new(1)),
        ])
        .unwrap();
        assert_eq!(r.hops(), 2);
        assert_eq!(r.source(), NodeId::new(0));
        assert_eq!(r.destination(), NodeId::new(1));
        assert_eq!(r.links().len(), 2);
        assert_eq!(format!("{r}"), "[node0/uplink] [node1/downlink]");
    }

    #[test]
    fn the_tree_policy_routes_like_shortest_path_on_trees() {
        let t = Topology::line(4, 2);
        let tree = router(RoutePolicy::Tree);
        tree.validate(&t).unwrap();
        let shortest = ShortestPathRouter::new();
        for (s, d) in t.nodes().flat_map(|s| t.nodes().map(move |d| (s, d))) {
            assert_eq!(tree.route(&t, s, d), shortest.route(&t, s, d), "{s} -> {d}");
        }
        // Node 0 (sw0) to node 7 (sw3) runs the whole line.
        let route = tree.route(&t, NodeId::new(0), NodeId::new(7)).unwrap();
        let trunks = [(0, 1), (1, 2), (2, 3)].map(|(from, to)| HopLink::Trunk {
            from: SwitchId::new(from),
            to: SwitchId::new(to),
        });
        assert_eq!(route.links()[1..4], trunks);
    }

    #[test]
    fn the_tree_policy_rejects_cycles_and_disconnection() {
        let router = router(RoutePolicy::Tree);
        assert!(router.validate(&ring4()).is_err());
        assert!(router
            .route(&ring4(), NodeId::new(0), NodeId::new(2))
            .is_err());
        let mut disconnected = Topology::new();
        disconnected.add_switch(SwitchId::new(0));
        disconnected.add_switch(SwitchId::new(1));
        assert!(router.validate(&disconnected).is_err());
        // Trees still pass after a rejection (the check is per topology).
        router.validate(&Topology::line(3, 1)).unwrap();
    }

    #[test]
    fn shortest_path_router_accepts_cycles() {
        let t = ring4();
        let router = ShortestPathRouter::new();
        router.validate(&t).unwrap();
        // sw0 -> sw3 uses the closing trunk: 3 links, not 5.
        let route = router.route(&t, NodeId::new(0), NodeId::new(3)).unwrap();
        assert_eq!(route.hops(), 3);
        assert_eq!(
            route.links()[1],
            HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(3)
            }
        );
        let mut disconnected = Topology::new();
        disconnected.add_switch(SwitchId::new(0));
        disconnected.add_switch(SwitchId::new(1));
        assert!(router.validate(&disconnected).is_err());
    }

    #[test]
    fn every_policy_reports_consistent_errors() {
        let t = Topology::line(2, 1);
        for policy in POLICIES {
            let r = router(policy);
            assert!(r.route(&t, NodeId::new(0), NodeId::new(0)).is_err());
            assert!(r.route(&t, NodeId::new(0), NodeId::new(99)).is_err());
            assert!(r.route(&t, NodeId::new(99), NodeId::new(0)).is_err());
        }
    }

    #[test]
    fn ecmp_is_deterministic_per_seed_and_spreads_over_paths() {
        let t = ring4();
        let a = router(RoutePolicy::Ecmp { seed: 42 });
        let b = router(RoutePolicy::Ecmp { seed: 42 });
        // Equal-cost pair: sw0 -> sw2 has two 2-trunk paths.
        for (src, dst) in [(0u32, 2u32), (1, 3), (2, 0), (3, 1)] {
            let ra = a.route(&t, NodeId::new(src), NodeId::new(dst)).unwrap();
            let rb = b.route(&t, NodeId::new(src), NodeId::new(dst)).unwrap();
            assert_eq!(ra, rb, "same seed must give the same route");
            assert_eq!(ra.hops(), 4, "ECMP must still pick a shortest path");
        }
        // Over many node pairs on a larger ring, both equal-cost branches
        // are exercised.
        let big = Topology::ring(4, 8);
        let router = router(RoutePolicy::Ecmp { seed: 1 });
        let mut via_sw1 = 0u32;
        let mut via_sw3 = 0u32;
        for k in 0..8u32 {
            for j in 0..8u32 {
                let route = router
                    .route(&big, NodeId::new(k), NodeId::new(16 + j))
                    .unwrap();
                match route.links()[1] {
                    HopLink::Trunk { to, .. } if to == SwitchId::new(1) => via_sw1 += 1,
                    HopLink::Trunk { to, .. } if to == SwitchId::new(3) => via_sw3 += 1,
                    other => panic!("unexpected first trunk {other:?}"),
                }
            }
        }
        assert!(via_sw1 > 0 && via_sw3 > 0, "ECMP must use both branches");
    }

    #[test]
    fn default_routes_is_the_single_primary() {
        let t = Topology::line(3, 1);
        let router = ShortestPathRouter::new();
        let routes = router.routes(&t, NodeId::new(0), NodeId::new(2)).unwrap();
        assert_eq!(routes.len(), 1);
        assert_eq!(
            routes[0],
            router.route(&t, NodeId::new(0), NodeId::new(2)).unwrap()
        );
    }

    /// `routes(..)[0] == route(..)`, and `routes` fails exactly when `route`
    /// does: the contract the trait states and the channel managers' repair
    /// path relies on, for every policy on a ring and a torus, healthy and
    /// with a trunk down.
    #[test]
    fn the_first_candidate_is_the_primary_route_for_every_stock_router() {
        let mut fabrics = Vec::new();
        for healthy in [Topology::ring(6, 2), Topology::torus(3, 3, 2)] {
            let mut degraded = healthy.clone();
            let (a, b) = healthy.trunks().nth(2).unwrap();
            degraded.fail_trunk(a, b).unwrap();
            fabrics.extend([healthy, degraded]);
        }
        for policy in POLICIES {
            let router = router(policy);
            let (mut agreed, mut refused) = (0, 0);
            for t in &fabrics {
                for (s, d) in t.nodes().flat_map(|s| t.nodes().map(move |d| (s, d))) {
                    match (router.route(t, s, d), router.routes(t, s, d)) {
                        (Ok(primary), Ok(candidates)) => {
                            assert_eq!(candidates.first(), Some(&primary), "{s} -> {d}");
                            agreed += 1;
                        }
                        (Err(_), Err(_)) => refused += 1,
                        (route, routes) => panic!(
                            "{} disagrees with itself on {s} -> {d}: {route:?} vs {routes:?}",
                            router.name()
                        ),
                    }
                }
            }
            // Every policy serves the cut ring (a line, so a tree), and each
            // refuses at least the `s -> s` pairs.
            assert!(agreed >= 12 * 11 && refused >= 12, "{}", router.name());
        }
    }

    #[test]
    fn k_shortest_enumerates_both_ways_around_a_ring() {
        let t = ring4();
        let router = router(RoutePolicy::KShortest { k: 4 });
        router.validate(&t).unwrap();
        let paths = |to: u32| -> Vec<Vec<SwitchId>> {
            let routes = router.routes(&t, NodeId::new(0), NodeId::new(to)).unwrap();
            let trunk_ends = |route: &Route| -> Vec<SwitchId> {
                let ends = route.links().iter().filter_map(|l| match l {
                    HopLink::Trunk { to, .. } => Some(*to),
                    _ => None,
                });
                std::iter::once(SwitchId::new(0)).chain(ends).collect()
            };
            routes.iter().map(trunk_ends).collect()
        };
        // sw0 -> sw2: two loop-free paths exist (via sw1 and via sw3).
        assert_eq!(paths(2), [switches(&[0, 1, 2]), switches(&[0, 3, 2])]);
        // sw0 -> sw1: the direct trunk, then the long way around.
        assert_eq!(paths(1), [switches(&[0, 1]), switches(&[0, 3, 2, 1])]);
        // As routes: primary first, every candidate a valid Route.
        let routes = router.routes(&t, NodeId::new(0), NodeId::new(1)).unwrap();
        assert_eq!(
            routes[0],
            router.route(&t, NodeId::new(0), NodeId::new(1)).unwrap()
        );
        assert_eq!(routes.iter().map(|r| r.hops()).collect::<Vec<_>>(), [3, 5]);
    }

    #[test]
    fn k_shortest_is_deterministic_and_respects_k() {
        let t = Topology::torus(3, 3, 1);
        let dense = NextHopCache::new().get_dense(&t);
        let (from, to) = (SwitchId::new(0), SwitchId::new(4));
        let first = switches(&[0, 1, 4]);
        let paths = k_shortest_paths(&dense, first.clone(), to, 3);
        assert_eq!(paths, k_shortest_paths(&dense, first.clone(), to, 3));
        assert_eq!(paths.len(), 3, "a torus has at least 3 loop-free paths");
        let (none, no_edges) = (BTreeSet::new(), BTreeSet::new());
        let shortest = oracle::switch_path_banned(&t, from, to, &none, &no_edges);
        assert_eq!(Some(&paths[0]), shortest.as_ref());
        // Ascending length, shortest first.
        for w in paths.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
        // k = 1, and k = 0 with it, is the single shortest path.
        for k in [0, 1] {
            assert_eq!(
                k_shortest_paths(&dense, first.clone(), to, k),
                vec![first.clone()]
            );
            let routes = router(RoutePolicy::KShortest { k })
                .routes(&t, NodeId::new(0), NodeId::new(4))
                .unwrap();
            assert_eq!(routes.len(), 1);
        }
    }

    #[test]
    fn k_shortest_survives_a_trunk_cut() {
        let mut t = ring4();
        let router = router(RoutePolicy::KShortest { k: 2 });
        let before = router.routes(&t, NodeId::new(0), NodeId::new(3)).unwrap();
        assert_eq!(before[0].hops(), 3, "closing trunk is the primary");
        t.fail_trunk(SwitchId::new(3), SwitchId::new(0)).unwrap();
        let after = router.routes(&t, NodeId::new(0), NodeId::new(3)).unwrap();
        assert_eq!(after.len(), 1, "the degraded ring is a line: one path");
        assert_eq!(after[0].hops(), 5, "re-route goes the long way around");
        // Same-switch pairs never need the trunk graph.
        let local = router.routes(&t, NodeId::new(0), NodeId::new(0));
        assert!(local.is_err(), "same node is still rejected");
    }

    #[test]
    fn dense_next_hop_matches_the_tree_table() {
        for topology in [Topology::line(5, 1), Topology::ring(6, 1)] {
            let router = ShortestPathRouter::new();
            let table = router.next_hop_table(&topology);
            let dense = router.dense_next_hop(&topology);
            assert_eq!(dense.switch_count(), topology.switch_count());
            for from in topology.switches() {
                for to in topology.switches() {
                    let expected = if from == to {
                        None
                    } else {
                        table.get(&(from, to)).copied()
                    };
                    assert_eq!(dense.next_hop(from, to), expected, "{from} -> {to}");
                }
            }
            // Unknown switches resolve to nothing.
            assert_eq!(dense.next_hop(SwitchId::new(99), SwitchId::new(0)), None);
            assert!(dense.index_of(SwitchId::new(99)).is_none());
        }
    }

    /// A router that keeps no cache gets its tables through a fresh one,
    /// built anew per call: the same entries as the stock router's.
    #[test]
    fn a_router_without_a_cache_builds_its_tables_through_a_fresh_one() {
        #[derive(Debug)]
        struct Uncached;
        impl Router for Uncached {
            fn name(&self) -> &'static str {
                "uncached"
            }
            fn validate(&self, _: &Topology) -> RtResult<()> {
                Ok(())
            }
            fn route(&self, t: &Topology, s: NodeId, d: NodeId) -> RtResult<Route> {
                ShortestPathRouter::new().route(t, s, d)
            }
        }
        let mut t = Topology::torus(3, 4, 1);
        t.fail_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        assert_eq!(*Uncached.next_hop_table(&t), oracle::next_hop_table(&t));
        let (first, second) = (Uncached.dense_next_hop(&t), Uncached.dense_next_hop(&t));
        assert!(!Arc::ptr_eq(&first, &second));
        let stock = ShortestPathRouter::new().dense_next_hop(&t);
        for (from, to) in t
            .switches()
            .flat_map(|f| t.switches().map(move |to| (f, to)))
        {
            assert_eq!(
                first.next_hop(from, to),
                stock.next_hop(from, to),
                "{from} -> {to}"
            );
        }
    }

    #[test]
    fn dense_next_hop_is_cached_per_topology() {
        let t = Topology::line(4, 1);
        let router = ShortestPathRouter::new();
        let first = router.dense_next_hop(&t);
        let second = router.dense_next_hop(&t);
        assert!(Arc::ptr_eq(&first, &second));
        // The table and its dense form come from one cache entry.
        let table = router.next_hop_table(&t);
        let third = router.dense_next_hop(&t);
        assert!(Arc::ptr_eq(&first, &third));
        assert_eq!(table.len(), 4 * 3);
    }

    #[test]
    fn next_hop_cache_reuses_the_table() {
        let t = Topology::line(5, 1);
        let router = ShortestPathRouter::new();
        let first = router.next_hop_table(&t);
        let second = router.next_hop_table(&t);
        assert!(
            Arc::ptr_eq(&first, &second),
            "same topology reuses the table"
        );
        assert_eq!(first.len(), 5 * 4);
        // A structurally different topology misses the cache.
        let other = Topology::line(4, 1);
        let third = router.next_hop_table(&other);
        assert!(!Arc::ptr_eq(&first, &third));
    }

    #[test]
    fn cached_tables_stay_byte_identical_to_the_legacy_build() {
        // The per-destination column build (and the lazy BTreeMap form
        // derived from it) must reproduce the per-source oracle exactly,
        // healthy and degraded — admission reproducibility depends on it.
        let mut degraded = Topology::torus(3, 4, 1);
        degraded
            .fail_trunk(SwitchId::new(0), SwitchId::new(1))
            .unwrap();
        let topologies = [
            Topology::line(4, 1),
            Topology::ring(6, 1),
            Topology::torus(3, 4, 1),
            Topology::fat_tree(4).unwrap(),
            degraded,
        ];
        for t in topologies {
            let router = ShortestPathRouter::new();
            assert_eq!(
                *router.next_hop_table(&t),
                oracle::next_hop_table(&t),
                "switches={}",
                t.switch_count()
            );
        }
    }

    #[test]
    fn cache_counts_hits_misses_and_evictions() {
        let router = ShortestPathRouter::new();
        let cache = router.next_hop_cache().expect("stock router has a cache");
        assert_eq!(cache.stats(), NextHopCacheStats::default());
        let t = Topology::ring(4, 1);
        router.dense_next_hop(&t);
        router.dense_next_hop(&t);
        router.next_hop_table(&t);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.full_rebuilds, 1);
        assert_eq!(stats.evictions, 0);

        // Nine distinct cuts on top of the healthy state are ten fabric
        // states: the two least recently used leave an eight-entry cache.
        let churned = ShortestPathRouter::new();
        let ring = Topology::ring(9, 1);
        churned.dense_next_hop(&ring);
        for (a, b) in ring.trunks() {
            let mut cut = ring.clone();
            cut.fail_trunk(a, b).unwrap();
            churned.dense_next_hop(&cut);
        }
        let stats = churned.next_hop_cache().unwrap().stats();
        assert_eq!((stats.misses, stats.evictions), (10, 2));
        // The healthy ring was the first to go: asking again is a miss.
        churned.dense_next_hop(&ring);
        assert_eq!(churned.next_hop_cache().unwrap().stats().misses, 11);
    }

    #[test]
    fn single_trunk_flips_rebuild_incrementally() {
        // fail -> (new fingerprint) is served by patching the healthy
        // columns, and the patched table is byte-identical to from-scratch.
        let mut t = Topology::torus(4, 4, 1);
        let router = ShortestPathRouter::new();
        let cache = router.next_hop_cache().unwrap();
        router.dense_next_hop(&t);
        assert_eq!(cache.stats().full_rebuilds, 1);

        t.fail_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        let degraded = router.next_hop_table(&t);
        let stats = cache.stats();
        assert_eq!(stats.incremental_rebuilds, 1);
        assert_eq!(stats.full_rebuilds, 1);
        assert_eq!(
            *degraded,
            oracle::next_hop_table(&t),
            "patched == from-scratch"
        );

        // A second, concurrent cut patches the degraded state.
        t.fail_trunk(SwitchId::new(5), SwitchId::new(6)).unwrap();
        let twice = router.next_hop_table(&t);
        assert_eq!(cache.stats().incremental_rebuilds, 2);
        assert_eq!(*twice, oracle::next_hop_table(&t));

        // Repairing back is a fingerprint hit, not a rebuild.
        t.repair_trunk(SwitchId::new(5), SwitchId::new(6)).unwrap();
        router.next_hop_table(&t);
        let stats = cache.stats();
        assert_eq!(stats.incremental_rebuilds, 2);
        assert_eq!(stats.full_rebuilds, 1);
        assert!(stats.hits >= 1);
    }

    /// A flip patches the state it came from: the rebuilt entry shares every
    /// adjacency row with its base except the two the trunk joins, what it
    /// holds is the topology's adjacency, and the rows are part of what the
    /// table says it keeps resident.
    #[test]
    fn an_incremental_rebuild_shares_every_untouched_adjacency_row_with_its_base() {
        fn rows(dense: &DenseNextHop) -> &[Arc<[u32]>] {
            &dense.adjacency
        }
        let flipped_rows_only = |base: &DenseNextHop, rebuilt: &DenseNextHop, t: &Topology| {
            for (at, (was, is)) in rows(base).iter().zip(rows(rebuilt)).enumerate() {
                assert_eq!(Arc::ptr_eq(was, is), at != 5 && at != 6, "row {at}");
            }
            assert_eq!(rows(rebuilt), dense_adjacency(t, &rebuilt.index));
        };
        let mut t = Topology::torus(4, 4, 1);
        let router = ShortestPathRouter::new();
        let healthy = router.dense_next_hop(&t);
        t.fail_trunk(SwitchId::new(5), SwitchId::new(6)).unwrap();
        let cut = router.dense_next_hop(&t);
        flipped_rows_only(&healthy, &cut, &t);
        // A repair onto a state the cache has not seen patches the most
        // recent state one flip away: the one with both trunks down.
        t.fail_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        let both = router.dense_next_hop(&t);
        t.repair_trunk(SwitchId::new(5), SwitchId::new(6)).unwrap();
        let spliced = router.dense_next_hop(&t);
        flipped_rows_only(&both, &spliced, &t);
        let stats = router.next_hop_cache().unwrap().stats();
        assert_eq!((stats.full_rebuilds, stats.incremental_rebuilds), (1, 3));

        // Sixteen switches: the index, sixteen next-hop and sixteen distance
        // columns, and the rows — 2 x 16 directed trunks less the one that
        // is down.
        let word = std::mem::size_of::<u32>();
        let handle = std::mem::size_of::<Arc<[u32]>>();
        let columns = 16 * 2 * word + 2 * 16 * (handle + 16 * word);
        let adjacency = 16 * handle + (2 * 32 - 2) * word;
        assert_eq!(spliced.resident_bytes(), columns + adjacency);
    }

    /// What `rtbench` reads as `types.router.table_bytes` on
    /// `churn_central`'s fabric: 320 switches, so a 2 560-byte index, 320
    /// next-hop and 320 distance columns of 16 + 320 x 4 bytes each, and
    /// 320 adjacency rows over 2 x 2 048 directed trunks.
    #[test]
    fn the_fat_tree_16_table_counts_its_distance_columns() {
        let dense = NextHopCache::new().get_dense(&Topology::fat_tree(16).unwrap());
        assert_eq!(dense.resident_bytes(), 853_504);
    }

    #[test]
    fn a_cut_on_the_datacenter_fabric_never_falls_back_to_a_from_scratch_sweep() {
        // What a silent fallback would change is the counters, so those are
        // pinned, not the wall-clock.
        let healthy = Topology::fat_tree(32).unwrap();
        let (a, b) = healthy.trunks().next().unwrap();
        let mut degraded = healthy.clone();
        degraded.fail_trunk(a, b).unwrap();

        let cache = NextHopCache::new();
        cache.get_dense(&healthy);
        cache.get_dense(&degraded);
        let stats = cache.stats();
        assert_eq!(stats.incremental_rebuilds, 1, "the cut is a single delta");
        assert_eq!(stats.full_rebuilds, 1, "only the healthy prime is full");
    }

    #[test]
    fn repair_onto_an_unseen_state_patches_from_the_degraded_base() {
        // Seed the cache with ONLY a degraded state, then repair: the
        // healthy state is one flip away and must be patched, including
        // the min-id improvement the repaired trunk re-enables.
        let mut t = Topology::ring(6, 1);
        t.fail_trunk(SwitchId::new(0), SwitchId::new(5)).unwrap();
        let router = ShortestPathRouter::new();
        let cache = router.next_hop_cache().unwrap();
        router.dense_next_hop(&t);
        t.repair_trunk(SwitchId::new(0), SwitchId::new(5)).unwrap();
        let healthy = router.next_hop_table(&t);
        assert_eq!(cache.stats().incremental_rebuilds, 1);
        assert_eq!(*healthy, oracle::next_hop_table(&t));
    }

    #[test]
    fn disconnecting_cut_is_patched_correctly() {
        // Cutting a line in half makes whole columns unreachable — the
        // incremental path must fall back to per-column BFS and agree with
        // the from-scratch build.
        let mut t = Topology::line(6, 1);
        let router = ShortestPathRouter::new();
        router.dense_next_hop(&t);
        t.fail_trunk(SwitchId::new(2), SwitchId::new(3)).unwrap();
        let degraded = router.next_hop_table(&t);
        let cache = router.next_hop_cache().unwrap();
        assert_eq!(cache.stats().incremental_rebuilds, 1);
        assert_eq!(*degraded, oracle::next_hop_table(&t));
    }

    #[test]
    fn next_hop_cache_keeps_churning_fingerprints_resident() {
        // Fault churn alternates between the healthy and the degraded
        // fingerprint; both must stay memoized so a repair is a lookup, not
        // a full recompute.
        let mut t = Topology::ring(5, 1);
        let router = ShortestPathRouter::new();
        let healthy = router.next_hop_table(&t);
        let healthy_dense = router.dense_next_hop(&t);
        t.fail_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        let degraded = router.next_hop_table(&t);
        assert!(!Arc::ptr_eq(&healthy, &degraded));
        t.repair_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        // Back to the healthy graph: same Arc, no rebuild.
        assert!(Arc::ptr_eq(&healthy, &router.next_hop_table(&t)));
        assert!(Arc::ptr_eq(&healthy_dense, &router.dense_next_hop(&t)));
        t.fail_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        assert!(Arc::ptr_eq(&degraded, &router.next_hop_table(&t)));
    }
}
