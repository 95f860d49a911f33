//! Path selection over a [`Topology`]: the [`Router`] trait and its four
//! stock implementations.
//!
//! Hoang & Jonsson's analysis treats every *directed link* as an independent
//! EDF processor, so nothing in the admission theory cares how a channel's
//! path was chosen — only that the path is fixed at establishment time and
//! that every link on it passes the per-link feasibility test.  That makes
//! path selection a pluggable policy:
//!
//! * [`TreeRouter`] — the pre-mesh behaviour, byte for byte: requires the
//!   switch graph to be a tree (its *capability check*) and returns the
//!   unique path.
//! * [`ShortestPathRouter`] — BFS shortest paths over arbitrary connected
//!   meshes, deterministic tie-break (lowest switch id first).
//! * [`EcmpRouter`] — equal-cost multi-path: enumerates (by counting, not
//!   materialising) all shortest paths and picks one by a deterministic
//!   hash of `(seed, source, destination)` through the in-repo
//!   [`Xoshiro256`] PRNG, so different channels spread over redundant
//!   trunks while a fixed seed always yields the same route.
//! * [`KShortestRouter`] — the shortest path as the primary route plus up to
//!   `k − 1` loop-free alternates in ascending cost ([`Router::routes`]), so
//!   admission and fail-over can fall back to a detour.
//!
//! (A fifth policy, the table-free
//! [`crate::structural::StructuralRouter`], lives in its own module.)
//!
//! All stock routers share a per-topology [`NextHopCache`] keyed by
//! [`Topology::fingerprint`], so constructing many simulators (or routing
//! many channels) over the same fabric computes the forwarding state once.
//! On uniform-cost fabrics the cache rebuilds *incrementally* across fault
//! churn — a state one trunk flip away from a resident one is patched per
//! destination instead of rebuilt from scratch — and materialises the
//! `BTreeMap` table form lazily.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

use crate::dense::{IdIndex, NO_INDEX};
use crate::error::{RtError, RtResult};
use crate::ids::NodeId;
use crate::rng::Xoshiro256;
use crate::topology::{FabricStructure, HopLink, SwitchId, Topology};

/// The next-hop forwarding table of a trunk graph: `(at, towards) →
/// neighbour of `at` on a shortest path towards `towards``.
pub type NextHopTable = BTreeMap<(SwitchId, SwitchId), SwitchId>;

/// The forwarding table in the form the per-event hot path consumes:
/// switches get contiguous indices (via [`IdIndex`]) and a forwarding
/// decision is a couple of array reads — or, on structured fabrics, a
/// handful of integer operations with no table at all.
///
/// Both backings carry the *same* routes the policy's `BTreeMap` table
/// would — the simulator uses this form for speed, not policy:
///
/// * **Columns** — destination-major `S × S` storage, one `Arc`'d column
///   per destination, so an incremental rebuild after a single trunk flip
///   shares every untouched column with the previous table instead of
///   copying O(V²) entries.  A uniform-cost build keeps the trunk graph it
///   swept beside the columns, one `Arc`'d row per switch, and the rebuild
///   shares those the same way: a flip re-reads the two rows it changed.
/// * **Structural** — table-free: next hops are computed from switch
///   coordinates ([`FabricStructure`] closed forms, O(V) resident state
///   for the id index), plus a sparse detour overlay covering exactly the
///   entries a failed trunk changes.
#[derive(Debug)]
pub struct DenseNextHop {
    index: IdIndex,
    backing: Backing,
}

#[derive(Debug)]
enum Backing {
    Columns {
        /// `next[towards][at]` = dense index of the next switch, or
        /// [`NO_INDEX`] when unreachable (or `at == towards`).
        next: Vec<Arc<[u32]>>,
        /// The trunk graph the columns were swept over: `adjacency[at]` =
        /// the dense indices of `at`'s healthy neighbours, ascending.  What
        /// a state one trunk flip away patches instead of reading the whole
        /// fabric again; `None` when built from a table
        /// ([`DenseNextHop::build`]), which nothing can patch from.
        adjacency: Option<Vec<Arc<[u32]>>>,
    },
    /// Closed-form next hops.  The structured builders allocate contiguous
    /// switch ids, so dense index == switch id and the closed forms apply
    /// directly; `detours` overrides `(at, towards)` pairs whose healthy
    /// route crosses a failed trunk ([`NO_INDEX`] = unreachable).
    Structural {
        structure: Arc<FabricStructure>,
        detours: Arc<BTreeMap<(u32, u32), u32>>,
    },
}

impl DenseNextHop {
    /// Flatten `table` over the switches of `topology`.
    pub fn build(topology: &Topology, table: &NextHopTable) -> Self {
        let index = IdIndex::new(topology.switches().map(|s| s.get()));
        let n = index.len();
        let mut columns = vec![vec![NO_INDEX; n]; n];
        for (&(from, to), &next) in table {
            let (Some(f), Some(t), Some(x)) = (
                index.get(from.get()),
                index.get(to.get()),
                index.get(next.get()),
            ) else {
                continue;
            };
            columns[t as usize][f as usize] = x;
        }
        let next = columns.into_iter().map(Arc::from).collect();
        let backing = Backing::Columns {
            next,
            adjacency: None,
        };
        DenseNextHop { index, backing }
    }

    /// Columns swept over `adjacency`, which stays with them.
    fn from_sweep(index: IdIndex, next: Vec<Arc<[u32]>>, adjacency: Vec<Arc<[u32]>>) -> Self {
        let backing = Backing::Columns {
            next,
            adjacency: Some(adjacency),
        };
        DenseNextHop { index, backing }
    }

    fn structural(
        index: IdIndex,
        structure: Arc<FabricStructure>,
        detours: BTreeMap<(u32, u32), u32>,
    ) -> Self {
        DenseNextHop {
            index,
            backing: Backing::Structural {
                structure,
                detours: Arc::new(detours),
            },
        }
    }

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
        match &self.backing {
            Backing::Columns { next, .. } => match next[towards as usize][at as usize] {
                NO_INDEX => None,
                next => Some(next),
            },
            Backing::Structural { structure, detours } => {
                if !detours.is_empty() {
                    if let Some(&next) = detours.get(&(at, towards)) {
                        return if next == NO_INDEX { None } else { Some(next) };
                    }
                }
                structure.next_hop(at, towards)
            }
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

    /// Approximate resident bytes of the forwarding state: O(V²) for the
    /// tabled backing (its O(V + E) adjacency rows included), O(V + detours)
    /// for the structural one.  What `rtbench` reports as
    /// `types.router.table_bytes`.
    pub fn resident_bytes(&self) -> usize {
        let index = self.index.len() * 2 * std::mem::size_of::<u32>();
        index
            + match &self.backing {
                Backing::Columns { next, adjacency } => next
                    .iter()
                    .chain(adjacency.iter().flatten())
                    .map(|c| std::mem::size_of::<Arc<[u32]>>() + std::mem::size_of_val(&c[..]))
                    .sum(),
                // BTreeMap node overhead, rounded up generously.
                Backing::Structural { detours, .. } => 64 + detours.len() * 40,
            }
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
            _ => unreachable!("validated in from_links"),
        }
    }

    /// The destination node (owner of the last link).
    pub fn destination(&self) -> NodeId {
        match self.links[self.links.len() - 1] {
            HopLink::Downlink(n) => n,
            _ => unreachable!("validated in from_links"),
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
pub trait Router: fmt::Debug + Send + Sync {
    /// A short policy name for reports and error messages.
    fn name(&self) -> &'static str;

    /// Capability check: can this router serve the given topology at all?
    /// [`TreeRouter`] rejects cyclic graphs here; the mesh routers only
    /// require connectivity.  Called once when a network or simulator is
    /// built, not per route.
    fn validate(&self, topology: &Topology) -> RtResult<()>;

    /// Select the path for an RT channel from `source` to `destination`.
    fn route(&self, topology: &Topology, source: NodeId, destination: NodeId) -> RtResult<Route>;

    /// The shared per-topology forwarding cache, when the policy keeps one.
    /// The stock routers all return theirs, which lets the two defaulted
    /// table accessors below dispatch through a single implementation
    /// (instead of every router duplicating the pair) and gives callers
    /// access to the cache's [`NextHopCache::stats`] counters.
    fn next_hop_cache(&self) -> Option<&NextHopCache> {
        None
    }

    /// The next-hop forwarding table used for traffic that carries no
    /// per-route forwarding state (control-plane and best-effort frames).
    /// Served from [`Router::next_hop_cache`] when the policy keeps one
    /// (the `BTreeMap` form is materialised lazily, once per cached fabric
    /// state); built fresh otherwise.
    fn next_hop_table(&self, topology: &Topology) -> Arc<NextHopTable> {
        match self.next_hop_cache() {
            Some(cache) => cache.get(topology),
            None => Arc::new(topology.next_hop_table()),
        }
    }

    /// The [`DenseNextHop`] carrying the same routes as
    /// [`Router::next_hop_table`], which is what the simulator's per-event
    /// hot path consumes.
    fn dense_next_hop(&self, topology: &Topology) -> Arc<DenseNextHop> {
        match self.next_hop_cache() {
            Some(cache) => cache.get_dense(topology),
            None => Arc::new(DenseNextHop::build(
                topology,
                &self.next_hop_table(topology),
            )),
        }
    }

    /// Candidate routes in preference order, primary first.  Admission
    /// control tries them in order and accepts the first feasible one, so a
    /// router that can enumerate alternates (the [`KShortestRouter`]) turns
    /// "the shortest path is saturated" from a rejection into a detour.
    /// The default is the single [`Router::route`] — existing policies keep
    /// their exact behaviour.
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
/// [`Topology::fingerprint`].  Shared by all stock routers so repeated
/// simulator constructions over the same fabric reuse one table.
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
/// * On uniform-cost fabrics the table is built per *destination* (one BFS
///   column each, next hop = minimum-id neighbour one hop closer — exactly
///   the lex-min entry the legacy per-source build produces), and a miss
///   whose failed-trunk set differs from a resident state's by a single
///   trunk is served by *patching* that state's columns: only destinations
///   whose route tree actually crossed the flipped trunk are recomputed,
///   everything else shares the previous `Arc`'d column.  A single cut on
///   a 1280-switch fabric costs milliseconds instead of a full rebuild.
/// * In structural mode (the [`crate::structural::StructuralRouter`]), a
///   fabric tagged with a [`FabricStructure`] gets a table-free backing:
///   closed-form next hops plus a sparse detour overlay for faults, O(V)
///   resident instead of O(V²).
/// * The `BTreeMap` form is materialised lazily per state, only when
///   [`NextHopCache::get`] is actually called.
///
/// Weighted fabrics keep the exact legacy build: Dijkstra tie-breaks are
/// not the local min-id rule, and byte-identical tables are a hard
/// requirement for reproducible admission.
#[derive(Debug)]
pub struct NextHopCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    /// Prefer the table-free structural backing for tagged fabrics.
    structural: bool,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: Vec<CacheEntry>,
    stats: NextHopCacheStats,
}

/// Default number of distinct fabric states kept memoized.  Fault scripts
/// flip between a handful of graph states (healthy plus one per concurrent
/// cut), so a small bound captures the churn working set while keeping the
/// linear scan and memory footprint trivial; tune per router via
/// [`NextHopCache::with_capacity`].
pub const DEFAULT_NEXT_HOP_CACHE_CAPACITY: usize = 8;

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
    uniform: bool,
    /// This state's failed trunks, normalised `(min, max)` and sorted.
    failed: Vec<(u32, u32)>,
    dense: Arc<DenseNextHop>,
    /// Per-destination BFS distance columns (uniform tabled states only) —
    /// the base data an incremental rebuild patches from.
    dist: Option<Vec<Arc<[u32]>>>,
    /// The `BTreeMap` form, materialised on first [`NextHopCache::get`].
    table: Option<Arc<NextHopTable>>,
}

impl Default for NextHopCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_NEXT_HOP_CACHE_CAPACITY)
    }
}

impl NextHopCache {
    /// A cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache keeping up to `capacity` fabric states resident (clamped to
    /// at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        NextHopCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
            structural: false,
        }
    }

    /// A cache that serves structure-tagged fabrics table-free (closed-form
    /// next hops + fault detour overlay) and falls back to the tabled path
    /// for everything else.
    pub fn structural() -> Self {
        Self::structural_with_capacity(DEFAULT_NEXT_HOP_CACHE_CAPACITY)
    }

    /// Structural-mode cache with an explicit capacity.
    pub fn structural_with_capacity(capacity: usize) -> Self {
        NextHopCache {
            structural: true,
            ..Self::with_capacity(capacity)
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
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
        self.ensure(topology, &mut inner);
        let entry = &mut inner.entries[0];
        if entry.table.is_none() {
            entry.table = Some(Arc::new(entry.dense.to_table()));
        }
        Arc::clone(entry.table.as_ref().expect("just materialised"))
    }

    /// The cached dense form for `topology` — the entry point the simulator
    /// and the routers' own walks use.
    pub fn get_dense(&self, topology: &Topology) -> Arc<DenseNextHop> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.ensure(topology, &mut inner);
        Arc::clone(&inner.entries[0].dense)
    }

    /// Make the entry for `topology` resident at the front of the list.
    fn ensure(&self, topology: &Topology, inner: &mut CacheInner) {
        let fp = topology.fingerprint();
        if let Some(pos) = inner.entries.iter().position(|e| e.fingerprint == fp) {
            inner.stats.hits += 1;
            // Move the hit to the front so eviction drops the least
            // recently used fabric state (a no-op for a hit at the front).
            inner.entries[..=pos].rotate_right(1);
            return;
        }
        inner.stats.misses += 1;
        let uniform = topology.has_uniform_cost();
        let structural_fingerprint = topology.structural_fingerprint();
        let failed: Vec<(u32, u32)> = topology
            .failed_trunks()
            .map(|(a, b)| (a.get(), b.get()))
            .collect();
        let index = IdIndex::new(topology.switches().map(|s| s.get()));

        let entry = 'build: {
            let blank = |dense: Arc<DenseNextHop>, dist, table| CacheEntry {
                fingerprint: fp,
                structural_fingerprint,
                uniform,
                failed: failed.clone(),
                dense,
                dist,
                table,
            };
            if uniform && self.structural {
                if let Some(structure) = topology.structure() {
                    if ids_are_contiguous(&index, structure) {
                        let dense = structural_dense(topology, structure, index, &failed);
                        break 'build blank(Arc::new(dense), None, None);
                    }
                }
            }
            if uniform {
                // A resident state one trunk flip away on the same fabric
                // seeds an incremental rebuild.
                let base = inner.entries.iter().find_map(|e| {
                    if !e.uniform || e.structural_fingerprint != structural_fingerprint {
                        return None;
                    }
                    let dist = e.dist.as_ref()?;
                    let Backing::Columns {
                        next,
                        adjacency: Some(adjacency),
                    } = &e.dense.backing
                    else {
                        return None;
                    };
                    single_trunk_delta(&e.failed, &failed)
                        .map(|delta| (next.clone(), dist.clone(), adjacency.clone(), delta))
                });
                if let Some((base_next, base_dist, mut adjacency, delta)) = base {
                    inner.stats.incremental_rebuilds += 1;
                    let (next_cols, dist_cols) = incremental_columns(
                        topology,
                        &index,
                        &base_next,
                        &base_dist,
                        &mut adjacency,
                        &delta,
                    );
                    let dense = DenseNextHop::from_sweep(index, next_cols, adjacency);
                    break 'build blank(Arc::new(dense), Some(dist_cols), None);
                }
                inner.stats.full_rebuilds += 1;
                let adjacency = dense_adjacency(topology, &index);
                let (next_cols, dist_cols) = uniform_columns(&adjacency);
                let dense = DenseNextHop::from_sweep(index, next_cols, adjacency);
                break 'build blank(Arc::new(dense), Some(dist_cols), None);
            }
            // Weighted trunks: deterministic-Dijkstra tie-breaks are not
            // the local min-id rule, so keep the exact legacy build (and
            // its eager table — it exists as a by-product anyway).
            inner.stats.full_rebuilds += 1;
            let table = Arc::new(topology.next_hop_table());
            let dense = Arc::new(DenseNextHop::build(topology, &table));
            blank(dense, None, Some(table))
        };
        inner.entries.insert(0, entry);
        while inner.entries.len() > self.capacity {
            inner.entries.pop();
            inner.stats.evictions += 1;
        }
    }
}

/// The structured builders allocate switch ids `0..n`, so dense index ==
/// switch id and the closed forms can be evaluated on indices directly.
/// Cheap sanity check (the structure tag is cleared by any mutation that
/// could break this, so it never fails in practice).
fn ids_are_contiguous(index: &IdIndex, structure: &FabricStructure) -> bool {
    let n = index.len();
    n == structure.switch_count() as usize && n > 0 && index.id_at(n as u32 - 1) == n as u32 - 1
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
/// The legacy per-source build ([`Topology::next_hop_table`]) explores
/// neighbours in ascending id with first-finder parents, which yields the
/// lexicographically-minimal shortest path for every pair — and the first
/// hop of the lex-min path from `s` is precisely the minimum-id neighbour
/// of `s` that is one hop closer to `t`.  So this per-destination build
/// produces byte-identical entries at a fraction of the allocation cost.
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
    let n = adjacency.len();
    let mut next_cols = Vec::with_capacity(n);
    let mut dist_cols = Vec::with_capacity(n);
    for t in 0..n {
        let (next, dist) = bfs_column(adjacency, t);
        next_cols.push(next);
        dist_cols.push(dist);
    }
    (next_cols, dist_cols)
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

/// Patch a base state's per-destination columns for a single trunk flip,
/// sharing every untouched column's `Arc`.  `adjacency` comes in as the base
/// state's and leaves as `topology`'s: the flipped trunk's two rows are read
/// again, every other row stays the base's allocation.
///
/// Soundness rests on two facts about uniform-cost BFS columns:
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
    base_next: &[Arc<[u32]>],
    base_dist: &[Arc<[u32]>],
    adjacency: &mut [Arc<[u32]>],
    delta: &TrunkDelta,
) -> ColumnSets {
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
    for (at, id) in [(a, edge.0), (b, edge.1)] {
        adjacency[at] = adjacency_row(topology, index, SwitchId::new(id));
    }
    let adjacency = &*adjacency;
    let n = adjacency.len();
    let mut next_cols = Vec::with_capacity(n);
    let mut dist_cols = Vec::with_capacity(n);
    for t in 0..n {
        let next = &base_next[t];
        let dist = &base_dist[t];
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
                    let (nc, dc) = bfs_column(adjacency, t);
                    next_cols.push(nc);
                    dist_cols.push(dc);
                }
            }
        } else if dist[u] == u32::MAX || dist[u] - dist[v] >= 2 {
            // The repair shortens paths (or reconnects a region):
            // recompute the column.
            let (nc, dc) = bfs_column(adjacency, t);
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
    (next_cols, dist_cols)
}

/// Build the table-free backing for a structure-tagged fabric: closed-form
/// next hops plus a sparse detour overlay.
///
/// For each destination `t`, the healthy lex-min route tree crosses a
/// failed trunk iff some endpoint's healthy next hop towards `t` is the
/// other endpoint.  Destinations whose tree avoids every failed trunk are
/// served purely by the closed form (byte-identical to the degraded BFS by
/// the patching argument above); the rest get one degraded BFS column, and
/// only the entries that *differ* from the closed form land in the
/// overlay — O(faulted columns), not O(V²).
fn structural_dense(
    topology: &Topology,
    structure: &FabricStructure,
    index: IdIndex,
    failed: &[(u32, u32)],
) -> DenseNextHop {
    let mut detours = BTreeMap::new();
    if !failed.is_empty() {
        let adjacency = dense_adjacency(topology, &index);
        let n = adjacency.len() as u32;
        for t in 0..n {
            let used = failed.iter().any(|&(x, y)| {
                structure.next_hop(x, t) == Some(y) || structure.next_hop(y, t) == Some(x)
            });
            if !used {
                continue;
            }
            let (next, _) = bfs_column(&adjacency, t as usize);
            for s in 0..n {
                if s == t {
                    continue;
                }
                let healthy = structure.next_hop(s, t).unwrap_or(NO_INDEX);
                let degraded = next[s as usize];
                if degraded != healthy {
                    detours.insert((s, t), degraded);
                }
            }
        }
    }
    DenseNextHop::structural(index, Arc::new(structure.clone()), detours)
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

/// Room for a fat-tree route (six links) without regrowing the vector link
/// by link; a longer route grows it once.
const ROUTE_LINKS_HINT: usize = 8;

/// Walk the dense next-hop form from the source's switch to the
/// destination's, producing the uplink + trunks + downlink route.  Walking
/// the dense form (rather than the `BTreeMap`) means a `route()` call never
/// forces the lazy O(V²) table materialisation.
pub(crate) fn walk_dense(
    dense: &DenseNextHop,
    topology: &Topology,
    source: NodeId,
    destination: NodeId,
) -> RtResult<Route> {
    let (src_switch, dst_switch) = route_endpoints(topology, source, destination)?;
    let not_connected = || {
        RtError::Config(format!(
            "switches {src_switch} and {dst_switch} are not connected"
        ))
    };
    let (Some(mut at), Some(towards)) = (dense.index_of(src_switch), dense.index_of(dst_switch))
    else {
        return Err(not_connected());
    };
    let mut links = Vec::with_capacity(ROUTE_LINKS_HINT);
    links.push(HopLink::Uplink(source));
    while at != towards {
        let next = dense
            .next_hop_index(at, towards)
            .ok_or_else(not_connected)?;
        links.push(HopLink::Trunk {
            from: dense.switch_at(at),
            to: dense.switch_at(next),
        });
        at = next;
    }
    links.push(HopLink::Downlink(destination));
    Route::from_links(links)
}

/// The pre-mesh routing policy: the switch graph must be a tree and the
/// route is the unique path through it.  Identical, link for link, to the
/// routing `Topology::route` performed before path selection became
/// pluggable.
#[derive(Debug, Default)]
pub struct TreeRouter {
    cache: NextHopCache,
    /// Fingerprint of the last topology that passed the tree check.
    checked: Mutex<Option<u64>>,
}

impl TreeRouter {
    /// Create a tree router.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_tree(&self, topology: &Topology) -> RtResult<()> {
        let fp = topology.fingerprint();
        let mut guard = self.checked.lock().unwrap_or_else(|e| e.into_inner());
        if *guard == Some(fp) {
            return Ok(());
        }
        if !topology.is_tree() {
            return Err(RtError::Config(format!(
                "TreeRouter requires a tree, but the switch graph has {} switches and {} trunks{}",
                topology.switch_count(),
                topology.trunk_count(),
                if topology.is_connected() {
                    " (cyclic)"
                } else {
                    " (disconnected)"
                }
            )));
        }
        *guard = Some(fp);
        Ok(())
    }
}

impl Router for TreeRouter {
    fn name(&self) -> &'static str {
        "tree"
    }

    fn validate(&self, topology: &Topology) -> RtResult<()> {
        self.ensure_tree(topology)
    }

    fn route(&self, topology: &Topology, source: NodeId, destination: NodeId) -> RtResult<Route> {
        self.ensure_tree(topology)?;
        walk_dense(
            &self.cache.get_dense(topology),
            topology,
            source,
            destination,
        )
    }

    fn next_hop_cache(&self) -> Option<&NextHopCache> {
        Some(&self.cache)
    }
}

/// BFS shortest-path routing over arbitrary connected meshes, with a
/// deterministic tie-break (the BFS visits neighbours in ascending switch
/// id, so among equal-cost paths the lexicographically smallest wins).  On
/// a tree this coincides with [`TreeRouter`].
#[derive(Debug, Default)]
pub struct ShortestPathRouter {
    cache: NextHopCache,
}

impl ShortestPathRouter {
    /// Create a shortest-path router.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Router for ShortestPathRouter {
    fn name(&self) -> &'static str {
        "shortest-path"
    }

    fn validate(&self, topology: &Topology) -> RtResult<()> {
        if !topology.is_connected() {
            return Err(RtError::Config("the switch graph must be connected".into()));
        }
        Ok(())
    }

    fn route(&self, topology: &Topology, source: NodeId, destination: NodeId) -> RtResult<Route> {
        walk_dense(
            &self.cache.get_dense(topology),
            topology,
            source,
            destination,
        )
    }

    fn next_hop_cache(&self) -> Option<&NextHopCache> {
        Some(&self.cache)
    }
}

/// Equal-cost multi-path routing: among *all* shortest paths between two
/// switches, pick one by a deterministic hash of `(seed, source,
/// destination)`.  Distinct node pairs therefore spread over redundant
/// trunks, while a fixed seed makes every run exactly reproducible.
///
/// The selection never materialises the path set: a BFS from the
/// destination switch yields distances, the per-switch shortest-path
/// *counts* are accumulated in distance order, and the hash picks the k-th
/// path by descending through the counts.
#[derive(Debug)]
pub struct EcmpRouter {
    seed: u64,
    cache: NextHopCache,
}

impl EcmpRouter {
    /// Create an ECMP router with the given hash seed.
    pub fn new(seed: u64) -> Self {
        EcmpRouter {
            seed,
            cache: NextHopCache::default(),
        }
    }

    /// The hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The deterministic per-pair selector: a PRNG keyed on the seed and
    /// the endpoints, independent of call order.
    fn pick(&self, source: NodeId, destination: NodeId, count: u64) -> u64 {
        if count <= 1 {
            return 0;
        }
        let key = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (u64::from(source.get()) << 32)
            ^ u64::from(destination.get());
        Xoshiro256::new(key).below(count)
    }
}

impl Router for EcmpRouter {
    fn name(&self) -> &'static str {
        "ecmp"
    }

    fn validate(&self, topology: &Topology) -> RtResult<()> {
        if !topology.is_connected() {
            return Err(RtError::Config("the switch graph must be connected".into()));
        }
        Ok(())
    }

    fn route(&self, topology: &Topology, source: NodeId, destination: NodeId) -> RtResult<Route> {
        let (src_switch, dst_switch) = route_endpoints(topology, source, destination)?;
        if src_switch == dst_switch {
            return Route::from_links(vec![
                HopLink::Uplink(source),
                HopLink::Downlink(destination),
            ]);
        }
        // BFS distances towards the destination switch.
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
            return Err(RtError::Config(format!(
                "switches {src_switch} and {dst_switch} are not connected"
            )));
        }
        // Shortest-path counts towards the destination, accumulated in
        // ascending distance (saturating: the count only steers the hash).
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
        // Pick the k-th shortest path and walk it.
        let mut remaining = self.pick(source, destination, count[&src_switch]);
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

    fn next_hop_cache(&self) -> Option<&NextHopCache> {
        Some(&self.cache)
    }
}

/// Cheapest switch path from `from` to `to` that avoids `banned_nodes` and
/// the *directed* `banned_edges` — the one shared search of
/// [`Topology::cheapest_predecessors_banned`] (BFS on uniform costs, byte
/// for byte the historical behaviour; deterministic Dijkstra on weighted
/// trunks), so the routers and `Topology`'s own paths can never disagree on
/// tie-breaks.
fn bfs_switch_path(
    topology: &Topology,
    from: SwitchId,
    to: SwitchId,
    banned_nodes: &std::collections::BTreeSet<SwitchId>,
    banned_edges: &std::collections::BTreeSet<(SwitchId, SwitchId)>,
) -> Option<Vec<SwitchId>> {
    if from == to {
        return Some(vec![from]);
    }
    let predecessor =
        topology.cheapest_predecessors_banned(from, Some(to), banned_nodes, banned_edges);
    if !predecessor.contains_key(&to) {
        return None;
    }
    let mut path = vec![to];
    let mut current = to;
    while current != from {
        current = predecessor[&current];
        path.push(current);
    }
    path.reverse();
    Some(path)
}

/// The summed trunk cost of a switch path (1 per trunk on unweighted
/// fabrics, so ordering by cost coincides with ordering by length there).
fn switch_path_cost(topology: &Topology, path: &[SwitchId]) -> u64 {
    path.windows(2)
        .map(|w| topology.trunk_cost(w[0], w[1]).unwrap_or(1))
        .sum()
}

/// K-shortest-path routing with admission fallback: the primary route is
/// the BFS shortest path, and [`Router::routes`] enumerates up to `k`
/// loop-free switch paths in ascending length (Yen's algorithm, ties broken
/// lexicographically) so admission control can fall back to a detour when
/// the shortest path's feasibility test fails — and fail-over can re-admit
/// channels over whatever survives a trunk cut.
///
/// Deterministic like every router: same topology and endpoints always
/// yield the same candidate list.
#[derive(Debug)]
pub struct KShortestRouter {
    k: usize,
    cache: NextHopCache,
}

impl KShortestRouter {
    /// Create a router that offers up to `k` candidate paths per request
    /// (`k` is clamped to at least 1).
    pub fn new(k: usize) -> Self {
        KShortestRouter {
            k: k.max(1),
            cache: NextHopCache::default(),
        }
    }

    /// The number of candidate paths offered per request.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Up to `k` loop-free switch paths from `from` to `to`, shortest first
    /// (Yen's algorithm over the trunk graph).  Fewer than `k` when the
    /// graph has fewer distinct loop-free paths.
    pub fn switch_paths(
        &self,
        topology: &Topology,
        from: SwitchId,
        to: SwitchId,
    ) -> Vec<Vec<SwitchId>> {
        let none_banned = std::collections::BTreeSet::new();
        let no_edges = std::collections::BTreeSet::new();
        let Some(first) = bfs_switch_path(topology, from, to, &none_banned, &no_edges) else {
            return Vec::new();
        };
        let mut paths = vec![first];
        // Candidates ordered by (cost, lexicographic path): ascending
        // iteration pops the best next path deterministically.  On an
        // unweighted fabric cost = trunks = length − 1, so the order is the
        // historical (length, path) one, byte for byte.
        let mut candidates: std::collections::BTreeSet<(u64, Vec<SwitchId>)> =
            std::collections::BTreeSet::new();
        while paths.len() < self.k {
            let prev = paths.last().expect("paths starts non-empty").clone();
            for i in 0..prev.len() - 1 {
                let spur = prev[i];
                let root = &prev[..=i];
                // Edges already used by accepted paths sharing this root
                // must not be reused for the spur.
                let mut banned_edges = std::collections::BTreeSet::new();
                for p in &paths {
                    if p.len() > i + 1 && p[..=i] == *root {
                        banned_edges.insert((p[i], p[i + 1]));
                    }
                }
                // Root nodes before the spur must not be revisited.
                let banned_nodes: std::collections::BTreeSet<SwitchId> =
                    root[..i].iter().copied().collect();
                if let Some(spur_path) =
                    bfs_switch_path(topology, spur, to, &banned_nodes, &banned_edges)
                {
                    let mut total: Vec<SwitchId> = root[..i].to_vec();
                    total.extend(spur_path);
                    if !paths.contains(&total) {
                        candidates.insert((switch_path_cost(topology, &total), total));
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

    /// Wrap a switch path into the uplink + trunks + downlink [`Route`].
    fn route_from_switch_path(
        source: NodeId,
        destination: NodeId,
        path: &[SwitchId],
    ) -> RtResult<Route> {
        let mut links = Vec::with_capacity(path.len() + 1);
        links.push(HopLink::Uplink(source));
        for pair in path.windows(2) {
            links.push(HopLink::Trunk {
                from: pair[0],
                to: pair[1],
            });
        }
        links.push(HopLink::Downlink(destination));
        Route::from_links(links)
    }
}

impl Router for KShortestRouter {
    fn name(&self) -> &'static str {
        "k-shortest"
    }

    fn validate(&self, topology: &Topology) -> RtResult<()> {
        if !topology.is_connected() {
            return Err(RtError::Config("the switch graph must be connected".into()));
        }
        Ok(())
    }

    fn route(&self, topology: &Topology, source: NodeId, destination: NodeId) -> RtResult<Route> {
        let (src_switch, dst_switch) = route_endpoints(topology, source, destination)?;
        let none = std::collections::BTreeSet::new();
        let no_edges = std::collections::BTreeSet::new();
        let path = bfs_switch_path(topology, src_switch, dst_switch, &none, &no_edges).ok_or_else(
            || {
                RtError::Config(format!(
                    "switches {src_switch} and {dst_switch} are not connected"
                ))
            },
        )?;
        Self::route_from_switch_path(source, destination, &path)
    }

    fn routes(
        &self,
        topology: &Topology,
        source: NodeId,
        destination: NodeId,
    ) -> RtResult<Vec<Route>> {
        let (src_switch, dst_switch) = route_endpoints(topology, source, destination)?;
        let paths = self.switch_paths(topology, src_switch, dst_switch);
        if paths.is_empty() {
            return Err(RtError::Config(format!(
                "switches {src_switch} and {dst_switch} are not connected"
            )));
        }
        paths
            .iter()
            .map(|p| Self::route_from_switch_path(source, destination, p))
            .collect()
    }

    fn next_hop_cache(&self) -> Option<&NextHopCache> {
        Some(&self.cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring4() -> Topology {
        Topology::ring(4, 1)
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
    fn tree_router_matches_topology_route_on_trees() {
        let t = Topology::line(4, 2);
        let router = TreeRouter::new();
        router.validate(&t).unwrap();
        for src in 0..8u32 {
            for dst in 0..8u32 {
                if src == dst {
                    continue;
                }
                let legacy = t.route(NodeId::new(src), NodeId::new(dst)).unwrap();
                let routed = router
                    .route(&t, NodeId::new(src), NodeId::new(dst))
                    .unwrap();
                assert_eq!(routed.links(), legacy.as_slice());
            }
        }
    }

    #[test]
    fn tree_router_rejects_cycles_and_disconnection() {
        let router = TreeRouter::new();
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
    fn routers_report_consistent_errors() {
        let t = Topology::line(2, 1);
        let routers: [&dyn Router; 3] = [
            &TreeRouter::new(),
            &ShortestPathRouter::new(),
            &EcmpRouter::new(7),
        ];
        for r in routers {
            assert!(r.route(&t, NodeId::new(0), NodeId::new(0)).is_err());
            assert!(r.route(&t, NodeId::new(0), NodeId::new(99)).is_err());
            assert!(r.route(&t, NodeId::new(99), NodeId::new(0)).is_err());
        }
    }

    #[test]
    fn ecmp_is_deterministic_per_seed_and_spreads_over_paths() {
        let t = ring4();
        let a = EcmpRouter::new(42);
        let b = EcmpRouter::new(42);
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
        let router = EcmpRouter::new(1);
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
    /// path relies on, for the five stock routers on a ring and a torus,
    /// healthy and with a trunk down.
    #[test]
    fn the_first_candidate_is_the_primary_route_for_every_stock_router() {
        let routers: [Box<dyn Router>; 5] = [
            Box::new(TreeRouter::new()),
            Box::new(ShortestPathRouter::new()),
            Box::new(EcmpRouter::new(7)),
            Box::new(KShortestRouter::new(3)),
            Box::new(crate::structural::StructuralRouter::new()),
        ];
        let mut fabrics = Vec::new();
        for healthy in [Topology::ring(6, 2), Topology::torus(3, 3, 2)] {
            let mut degraded = healthy.clone();
            let (a, b) = healthy.trunks().nth(2).unwrap();
            degraded.fail_trunk(a, b).unwrap();
            fabrics.extend([healthy, degraded]);
        }
        for router in &routers {
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
            // Every router serves the cut ring (a line, so a tree), and each
            // refuses at least the `s -> s` pairs.
            assert!(agreed >= 12 * 11 && refused >= 12, "{}", router.name());
        }
    }

    #[test]
    fn k_shortest_enumerates_both_ways_around_a_ring() {
        let t = ring4();
        let router = KShortestRouter::new(4);
        router.validate(&t).unwrap();
        // sw0 -> sw2: two loop-free paths exist (via sw1 and via sw3).
        let paths = router.switch_paths(&t, SwitchId::new(0), SwitchId::new(2));
        assert_eq!(paths.len(), 2);
        assert_eq!(
            paths[0],
            vec![SwitchId::new(0), SwitchId::new(1), SwitchId::new(2)]
        );
        assert_eq!(
            paths[1],
            vec![SwitchId::new(0), SwitchId::new(3), SwitchId::new(2)]
        );
        // sw0 -> sw1: the direct trunk, then the long way around.
        let paths = router.switch_paths(&t, SwitchId::new(0), SwitchId::new(1));
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0], vec![SwitchId::new(0), SwitchId::new(1)]);
        assert_eq!(
            paths[1],
            vec![
                SwitchId::new(0),
                SwitchId::new(3),
                SwitchId::new(2),
                SwitchId::new(1)
            ]
        );
        // As routes: primary first, every candidate a valid Route.
        let routes = router.routes(&t, NodeId::new(0), NodeId::new(1)).unwrap();
        assert_eq!(routes.len(), 2);
        assert_eq!(
            routes[0],
            router.route(&t, NodeId::new(0), NodeId::new(1)).unwrap()
        );
        assert_eq!(routes[0].hops(), 3);
        assert_eq!(routes[1].hops(), 5);
    }

    #[test]
    fn k_shortest_is_deterministic_and_respects_k() {
        let t = Topology::torus(3, 3, 1);
        let a = KShortestRouter::new(3);
        let b = KShortestRouter::new(3);
        let pa = a.switch_paths(&t, SwitchId::new(0), SwitchId::new(4));
        let pb = b.switch_paths(&t, SwitchId::new(0), SwitchId::new(4));
        assert_eq!(pa, pb);
        assert_eq!(pa.len(), 3, "a torus has at least 3 loop-free paths");
        // Ascending length, shortest first.
        for w in pa.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
        // k = 1 degenerates to the single shortest path.
        let single = KShortestRouter::new(0); // clamped to 1
        assert_eq!(single.k(), 1);
        assert_eq!(
            single
                .switch_paths(&t, SwitchId::new(0), SwitchId::new(4))
                .len(),
            1
        );
    }

    #[test]
    fn k_shortest_survives_a_trunk_cut() {
        let mut t = ring4();
        let router = KShortestRouter::new(2);
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
        // derived from it) must reproduce Topology::next_hop_table exactly,
        // healthy and degraded — admission reproducibility depends on it.
        let mut weighted = Topology::ring(5, 1);
        weighted
            .set_trunk_cost(SwitchId::new(0), SwitchId::new(1), 3)
            .unwrap();
        let mut degraded = Topology::torus(3, 4, 1);
        degraded
            .fail_trunk(SwitchId::new(0), SwitchId::new(1))
            .unwrap();
        let topologies = [
            Topology::line(4, 1),
            Topology::ring(6, 1),
            Topology::torus(3, 4, 1),
            Topology::fat_tree(4).unwrap(),
            weighted,
            degraded,
        ];
        for t in topologies {
            let router = ShortestPathRouter::new();
            assert_eq!(
                *router.next_hop_table(&t),
                t.next_hop_table(),
                "switches={} uniform={}",
                t.switch_count(),
                t.has_uniform_cost()
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

        // A tiny cache evicts under churn.
        let small = NextHopCache::with_capacity(1);
        assert_eq!(small.capacity(), 1);
        small.get_dense(&Topology::line(3, 1));
        small.get_dense(&Topology::line(4, 1));
        let stats = small.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
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
        assert_eq!(*degraded, t.next_hop_table(), "patched == from-scratch");

        // A second, concurrent cut patches the degraded state.
        t.fail_trunk(SwitchId::new(5), SwitchId::new(6)).unwrap();
        let twice = router.next_hop_table(&t);
        assert_eq!(cache.stats().incremental_rebuilds, 2);
        assert_eq!(*twice, t.next_hop_table());

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
            match &dense.backing {
                Backing::Columns {
                    adjacency: Some(adjacency),
                    ..
                } => adjacency,
                _ => panic!("a tabled router keeps its columns and what they were swept over"),
            }
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

        // Sixteen switches: the index, sixteen next-hop columns, and the
        // rows — 2 x 16 directed trunks less the one that is down.
        let word = std::mem::size_of::<u32>();
        let handle = std::mem::size_of::<Arc<[u32]>>();
        let columns = 16 * 2 * word + 16 * (handle + 16 * word);
        let adjacency = 16 * handle + (2 * 32 - 2) * word;
        assert_eq!(spliced.resident_bytes(), columns + adjacency);
    }

    #[test]
    fn a_cut_on_the_datacenter_fabric_never_falls_back_to_a_from_scratch_sweep() {
        // What a silent fallback would change is the counters and the
        // resident size, so those are pinned, not the wall-clock; entry
        // identity of the three modes is `tests/fabric_properties.rs`.
        let healthy = Topology::fat_tree(32).unwrap();
        let (a, b) = healthy.trunks().next().unwrap();
        let mut degraded = healthy.clone();
        degraded.fail_trunk(a, b).unwrap();

        let tabled = NextHopCache::new();
        tabled.get_dense(&healthy);
        let full = tabled.get_dense(&degraded);
        let stats = tabled.stats();
        assert_eq!(stats.incremental_rebuilds, 1, "the cut is a single delta");
        assert_eq!(stats.full_rebuilds, 1, "only the healthy prime is full");

        let cache = NextHopCache::structural();
        let structural = cache.get_dense(&healthy);
        cache.get_dense(&degraded);
        let stats = cache.stats();
        assert_eq!(
            (stats.full_rebuilds, stats.incremental_rebuilds),
            (0, 0),
            "structural mode never builds a table"
        );
        assert!(
            structural.resident_bytes() * 50 < full.resident_bytes(),
            "structural routing state must be O(V), far under the O(V^2) table ({} B vs {} B)",
            structural.resident_bytes(),
            full.resident_bytes()
        );
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
        assert_eq!(*healthy, t.next_hop_table());
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
        assert_eq!(*degraded, t.next_hop_table());
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
