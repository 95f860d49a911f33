//! Multi-switch network topologies.
//!
//! The paper analyses a single-switch star and names "networks consisting of
//! many interconnected switches" as future work.  A [`Topology`] describes
//! such a network: which switch every end node attaches to and which trunk
//! links connect the switches.  The switch graph may be an arbitrary
//! connected *mesh* — trees, rings, redundant trunks are all valid; nothing
//! in the per-link EDF analysis requires unique paths.  Which path a channel
//! takes through a mesh is the job of a [`crate::router::Router`]: the
//! [`crate::router::RoutePolicy::Tree`] policy insists on a tree (unique
//! paths, the pre-mesh behaviour), the others accept any connected graph.
//! A topology holds no path search and no trunk costs: a path is as long as
//! its trunk count, and every route and table comes from the router's
//! cached BFS columns.
//!
//! The types live here (rather than in the admission-control crate) because
//! both the analytical side (`rt-core`'s multi-hop admission) and the
//! data-plane side (`rt-netsim`'s fabric simulator) are driven by the same
//! topology: one [`HopLink`] is simultaneously a unit of EDF feasibility
//! analysis and a simulated output port.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::OnceLock;

use crate::error::{RtError, RtResult};
use crate::ids::NodeId;

/// Where the fabric's RT channel management software runs.
///
/// The paper centralises channel management in one switch; the distributed
/// placement gives every switch its own manager owning the slack ledgers of
/// its local links, with admission running as a two-phase reservation in
/// control frames that traverse the fabric.  The placement is carried on the
/// [`Topology`] because the *wire* needs it too: it decides where a control
/// frame addressed to the generic switch MAC is delivered — the managing
/// switch (central) or the first switch that receives it (distributed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ManagerPlacement {
    /// All control frames are forwarded to one managing switch (the lowest
    /// switch id), which runs the only channel manager.  The paper's model.
    #[default]
    Central,
    /// Every switch runs its own channel manager; control frames addressed
    /// to the generic switch MAC are consumed by the receiving node's access
    /// switch, and switch-to-switch reservation frames hop the fabric.
    Distributed,
}

/// Identifier of a switch in a multi-switch topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub u32);

impl SwitchId {
    /// Construct a switch id.
    pub const fn new(id: u32) -> Self {
        SwitchId(id)
    }

    /// Raw value.
    pub const fn get(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

/// A directed link in a multi-switch network.
///
/// Every variant is one transmitter: a node's NIC on its uplink, a switch
/// output port on a downlink, or a switch trunk port towards a neighbouring
/// switch.  Full duplex makes the two directions of one cable independent
/// scheduling resources, so the trunk between `a` and `b` appears as two
/// distinct `Trunk` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HopLink {
    /// End node → its access switch.
    Uplink(NodeId),
    /// Access switch → end node.
    Downlink(NodeId),
    /// Directed trunk between two switches.
    Trunk {
        /// Transmitting switch.
        from: SwitchId,
        /// Receiving switch.
        to: SwitchId,
    },
}

impl fmt::Display for HopLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HopLink::Uplink(n) => write!(f, "{n}/uplink"),
            HopLink::Downlink(n) => write!(f, "{n}/downlink"),
            HopLink::Trunk { from, to } => write!(f, "{from}->{to}"),
        }
    }
}

/// A network of switches connected by trunk links, with end nodes attached.
///
/// A topology is *mutable orchestration state*, not a construction-time
/// constant: [`Topology::fail_trunk`] and [`Topology::repair_trunk`] model a
/// cable being cut and spliced back while the fabric keeps running.  A
/// failed trunk leaves the adjacency (so routing, connectivity checks and
/// [`Topology::fingerprint`] all see the degraded graph — which is what
/// invalidates every [`crate::router::NextHopCache`] entry keyed on the
/// fingerprint) but is remembered in a failed set so a repair restores
/// exactly the link that was lost.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    switches: BTreeSet<SwitchId>,
    /// Every end node with its access switch, sorted by node id: a look-up
    /// is one probe when the ids are `0..n` and a binary search otherwise,
    /// and a walk is in ascending node order.
    attachments: Vec<(NodeId, SwitchId)>,
    /// Adjacency of the (undirected) trunk graph — *healthy* trunks only.
    adjacency: BTreeMap<SwitchId, BTreeSet<SwitchId>>,
    /// Trunks currently failed, canonical `(a, b)` with `a < b`.  Disjoint
    /// from the adjacency; [`Topology::repair_trunk`] moves them back.
    failed: BTreeSet<(SwitchId, SwitchId)>,
    /// Where the channel management software runs (see [`ManagerPlacement`]).
    placement: ManagerPlacement,
    /// Memo of [`Topology::fingerprint`] and
    /// [`Topology::structural_fingerprint`], each filled by its first call
    /// after a mutation that can change it: a trunk flip drops the routing
    /// hash only ([`Topology::invalidate_routing_fingerprint`]), every other
    /// `&mut self` mutator drops both
    /// ([`Topology::invalidate_fingerprints`]).  A clone carries the memo of
    /// the state it was cloned from.
    fingerprints: FingerprintMemo,
}

/// The two memoised hashes of a [`Topology`]; `OnceLock` rather than `Cell`
/// so a shared `&Topology` stays `Sync`.
#[derive(Debug, Clone, Default)]
struct FingerprintMemo {
    routing: OnceLock<u64>,
    structural: OnceLock<u64>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// The degenerate single-switch star of the paper's §18.1: one switch,
    /// the given nodes attached to it (a node listed twice is attached
    /// once).
    pub fn star(switch: SwitchId, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut t = Topology::new();
        t.add_switch(switch);
        t.attachments = nodes.into_iter().map(|n| (n, switch)).collect();
        t.attachments.sort_unstable_by_key(|&(n, _)| n);
        t.attachments.dedup_by_key(|&mut (n, _)| n);
        t
    }

    /// A line (chain) of `switches` switches with `nodes_per_switch` end
    /// nodes on each, node ids allocated switch-major.
    pub fn line(switches: u32, nodes_per_switch: u32) -> Self {
        let mut t = Topology::new();
        for s in 0..switches {
            t.add_switch(SwitchId::new(s));
        }
        for s in 1..switches {
            t.add_trunk(SwitchId::new(s - 1), SwitchId::new(s))
                .expect("a fresh chain joins each two consecutive switches once");
        }
        t.attach_switch_major(switches, nodes_per_switch);
        t
    }

    /// A ring of `switches` switches (the line of [`Topology::line`] plus a
    /// closing trunk between the last and the first switch) with
    /// `nodes_per_switch` end nodes on each, node ids allocated
    /// switch-major.  With fewer than three switches the closing trunk would
    /// duplicate an existing one, so the result degenerates to a line.
    ///
    /// A ring is the smallest *cyclic* fabric: every pair of switches is
    /// connected by two disjoint paths, so it needs a mesh-capable policy —
    /// [`crate::router::RoutePolicy::Tree`] rejects it.
    pub fn ring(switches: u32, nodes_per_switch: u32) -> Self {
        let mut t = Topology::line(switches, nodes_per_switch);
        if switches >= 3 {
            t.add_trunk(SwitchId::new(switches - 1), SwitchId::new(0))
                .expect("a line of three or more has no trunk between its ends");
        }
        t
    }

    /// A `rows × cols` torus: switch `(r, c)` has id `r·cols + c` and is
    /// trunked to its right and lower neighbours, with wrap-around trunks
    /// closing each row and column into a ring, and `nodes_per_switch` end
    /// nodes on each switch (node ids allocated switch-major).  This is the
    /// classic thousand-node fabric shape: an `8 × 8` torus with 16 nodes
    /// per switch is 64 switches, 256 directed trunk ports and 1024 nodes.
    ///
    /// Rows or columns shorter than three skip the wrap-around trunk in
    /// that dimension (it would duplicate an existing edge), exactly as
    /// [`Topology::ring`] degenerates to a line.  This is
    /// [`Topology::torus_nd`]`(&[rows, cols], nodes_per_switch)`; what that
    /// refuses — a zero-length dimension, ids past `u32` — is the empty
    /// topology here.
    pub fn torus(rows: u32, cols: u32, nodes_per_switch: u32) -> Self {
        Topology::torus_nd(&[rows, cols], nodes_per_switch).unwrap_or_default()
    }

    /// Attach `nodes_per_switch` end nodes to each of the switches
    /// `0..switches`, node ids allocated switch-major: the attachments of
    /// the regular builders, which add those switches first.
    fn attach_switch_major(&mut self, switches: u32, nodes_per_switch: u32) {
        for s in 0..switches {
            for k in 0..nodes_per_switch {
                self.attach_node(NodeId::new(s * nodes_per_switch + k), SwitchId::new(s))
                    .expect("ids s·n + k repeat only past 2^32 nodes, and every switch exists");
            }
        }
    }

    /// A three-tier fat-tree built from `k`-port switches: `(k/2)²` core
    /// switches and `k` pods of `k/2` aggregation plus `k/2` edge switches,
    /// with `k/2` end nodes on every edge switch.  Every edge switch trunks
    /// to every aggregation switch in its pod, and aggregation switch `j` of
    /// each pod trunks to core switches `j·k/2 .. (j+1)·k/2`, giving the
    /// classic rearrangeably non-blocking datacenter fabric: `fat_tree(16)`
    /// is 320 switches and 1024 hosts, `fat_tree(32)` is 1280 switches and
    /// 8192 hosts.
    ///
    /// Switch ids are allocated core-first (`0..(k/2)²`), then pod by pod
    /// (aggregation before edge); node ids are allocated edge-switch-major.
    /// `k` must be even and at least 4 — a fat-tree is defined by halving
    /// the switch radix between tiers.
    ///
    /// # Examples
    ///
    /// ```
    /// use rt_types::Topology;
    ///
    /// let ft = Topology::fat_tree(4).unwrap();
    /// assert_eq!(ft.switch_count(), 20); // 4 core + 4 pods x (2 agg + 2 edge)
    /// assert_eq!(ft.node_count(), 16); // 8 edge switches x 2 hosts
    /// assert!(Topology::fat_tree(3).is_err()); // odd radix
    /// ```
    pub fn fat_tree(k: u32) -> RtResult<Self> {
        if k < 4 || k % 2 != 0 {
            return Err(RtError::Config(format!(
                "fat_tree: switch radix k must be even and at least 4, got {k}"
            )));
        }
        // Host ids run to k³/4, past the 5k²/4 switch ids from k = 6 on.
        if u64::from(k).pow(3) / 4 > u64::from(u32::MAX) {
            return Err(RtError::Config(format!(
                "fat_tree: k = {k} overflows the u32 node id space"
            )));
        }
        let half = k / 2;
        let cores = half * half;
        let mut t = Topology::new();
        for s in 0..cores + k * k {
            t.add_switch(SwitchId::new(s));
        }
        for pod in 0..k {
            let agg0 = cores + pod * k;
            let edge0 = agg0 + half;
            for j in 0..half {
                // Aggregation switch j uplinks to its stripe of the core.
                for c in 0..half {
                    t.add_trunk(SwitchId::new(agg0 + j), SwitchId::new(j * half + c))
                        .expect("each aggregation-core pair is joined once");
                }
                // Edge switch j uplinks to every aggregation switch in the pod.
                for a in 0..half {
                    t.add_trunk(SwitchId::new(edge0 + j), SwitchId::new(agg0 + a))
                        .expect("each edge-aggregation pair is joined once");
                }
                for h in 0..half {
                    let edge_index = pod * half + j;
                    t.attach_node(NodeId::new(edge_index * half + h), SwitchId::new(edge0 + j))
                        .expect("the k³/4 host ids, checked to fit u32, are distinct");
                }
            }
        }
        Ok(t)
    }

    /// An n-dimensional torus generalising [`Topology::torus`]: switch
    /// coordinates range over `dims` (row-major, last dimension fastest, so
    /// `torus_nd(&[r, c], n)` reproduces `torus(r, c, n)` switch for
    /// switch), each switch is trunked to its successor along every
    /// dimension, and a wrap-around trunk closes each dimension of length at
    /// least 3 into a ring — shorter dimensions degenerate exactly as the
    /// 2-D builder's rows and columns do.  `nodes_per_switch` end nodes
    /// attach to every switch, node ids switch-major.
    ///
    /// `dims` needs at least two dimensions (a 1-D torus is
    /// [`Topology::ring`]), every dimension must be non-zero, and the switch
    /// count must fit a `u32` id space.
    ///
    /// # Examples
    ///
    /// ```
    /// use rt_types::Topology;
    ///
    /// let t = Topology::torus_nd(&[3, 3, 3], 2).unwrap();
    /// assert_eq!(t.switch_count(), 27);
    /// assert_eq!(t.trunk_count(), 81); // 3 wrap-closed rings through each switch
    /// assert_eq!(t.node_count(), 54);
    /// assert!(Topology::torus_nd(&[5], 1).is_err()); // 1-D: use ring()
    /// ```
    pub fn torus_nd(dims: &[u32], nodes_per_switch: u32) -> RtResult<Self> {
        if dims.len() < 2 {
            return Err(RtError::Config(format!(
                "torus_nd: need at least 2 dimensions (use ring/line for 1-D), got {}",
                dims.len()
            )));
        }
        if let Some(d) = dims.iter().position(|&d| d == 0) {
            return Err(RtError::Config(format!(
                "torus_nd: dimension {d} has zero length"
            )));
        }
        let total = dims.iter().try_fold(1u32, |acc, &d| acc.checked_mul(d));
        let Some(total) = total else {
            return Err(RtError::Config(format!(
                "torus_nd: {dims:?} overflows the u32 switch id space"
            )));
        };
        if total.checked_mul(nodes_per_switch).is_none() {
            return Err(RtError::Config(format!(
                "torus_nd: {dims:?} x {nodes_per_switch} nodes overflows the u32 node id space"
            )));
        }
        let mut t = Topology::new();
        for s in 0..total {
            t.add_switch(SwitchId::new(s));
        }
        // Strides of the row-major layout: moving one step along dimension
        // `d` moves the linear id by the product of the faster dimensions.
        let mut strides = vec![1u32; dims.len()];
        for d in (0..dims.len() - 1).rev() {
            strides[d] = strides[d + 1] * dims[d + 1];
        }
        for s in 0..total {
            for (&len, &stride) in dims.iter().zip(&strides) {
                // The successor along this dimension; a wrap closes only a
                // ring of three or more (shorter, it would repeat a trunk).
                let coord = (s / stride) % len;
                let next = if coord + 1 < len {
                    s + stride
                } else if len >= 3 {
                    s - coord * stride
                } else {
                    continue;
                };
                t.add_trunk(SwitchId::new(s), SwitchId::new(next))
                    .expect("each switch is joined once to its successor in each dimension");
            }
        }
        t.attach_switch_major(total, nodes_per_switch);
        Ok(t)
    }

    /// Add a switch (idempotent).
    pub fn add_switch(&mut self, switch: SwitchId) {
        self.invalidate_fingerprints();
        self.switches.insert(switch);
        self.adjacency.entry(switch).or_default();
    }

    /// Attach an end node to a switch.
    pub fn attach_node(&mut self, node: NodeId, switch: SwitchId) -> RtResult<()> {
        if !self.switches.contains(&switch) {
            return Err(RtError::Config(format!("unknown switch {switch}")));
        }
        let Err(at) = self.attachment(node) else {
            return Err(RtError::Config(format!("{node} is already attached")));
        };
        self.invalidate_fingerprints();
        self.attachments.insert(at, (node, switch));
        Ok(())
    }

    /// Connect two switches with a full-duplex trunk link.  Cycles are
    /// allowed (the switch graph may be any mesh — path selection is a
    /// [`crate::router::Router`] concern); self-loops, unknown switches and
    /// duplicate trunks are rejected.
    pub fn add_trunk(&mut self, a: SwitchId, b: SwitchId) -> RtResult<()> {
        if a == b {
            return Err(RtError::Config(
                "a trunk cannot connect a switch to itself".into(),
            ));
        }
        for s in [a, b] {
            if !self.switches.contains(&s) {
                return Err(RtError::Config(format!("unknown switch {s}")));
            }
        }
        if self.adjacency.get(&a).is_some_and(|nbrs| nbrs.contains(&b)) {
            return Err(RtError::Config(format!("trunk {a} <-> {b} already exists")));
        }
        if self.failed.contains(&(a.min(b), a.max(b))) {
            return Err(RtError::Config(format!(
                "trunk {a} <-> {b} exists but is failed; repair it instead"
            )));
        }
        self.invalidate_fingerprints();
        self.adjacency.entry(a).or_default().insert(b);
        self.adjacency.entry(b).or_default().insert(a);
        Ok(())
    }

    /// Where the channel management software runs.  Defaults to
    /// [`ManagerPlacement::Central`], the paper's model.
    pub fn manager_placement(&self) -> ManagerPlacement {
        self.placement
    }

    /// Select the channel-management placement (see [`ManagerPlacement`]).
    pub fn set_manager_placement(&mut self, placement: ManagerPlacement) {
        // Neither hash covers the placement today; dropping the memo anyway
        // keeps "every mutator invalidates" free of exceptions.
        self.invalidate_fingerprints();
        self.placement = placement;
    }

    /// Fail a trunk: the link disappears from the adjacency (routing,
    /// connectivity and the fingerprint all see the degraded graph) and is
    /// remembered for [`Topology::repair_trunk`].  Rejects unknown and
    /// already-failed trunks, so a double cut cannot silently pass.
    pub fn fail_trunk(&mut self, a: SwitchId, b: SwitchId) -> RtResult<()> {
        let key = (a.min(b), a.max(b));
        if self.failed.contains(&key) {
            return Err(RtError::Config(format!(
                "trunk {a} <-> {b} is already failed"
            )));
        }
        if !self.adjacency.get(&a).is_some_and(|nbrs| nbrs.contains(&b)) {
            return Err(RtError::Config(format!("no trunk {a} <-> {b} to fail")));
        }
        self.invalidate_routing_fingerprint();
        for (x, y) in [(a, b), (b, a)] {
            if let Some(neighbours) = self.adjacency.get_mut(&x) {
                neighbours.remove(&y);
            }
        }
        self.failed.insert(key);
        Ok(())
    }

    /// Repair a previously failed trunk, restoring the adjacency exactly as
    /// it was before the failure.  Only trunks failed through
    /// [`Topology::fail_trunk`] can be repaired.
    pub fn repair_trunk(&mut self, a: SwitchId, b: SwitchId) -> RtResult<()> {
        let key = (a.min(b), a.max(b));
        if !self.failed.remove(&key) {
            return Err(RtError::Config(format!(
                "trunk {a} <-> {b} is not failed, nothing to repair"
            )));
        }
        self.invalidate_routing_fingerprint();
        self.adjacency.entry(a).or_default().insert(b);
        self.adjacency.entry(b).or_default().insert(a);
        Ok(())
    }

    /// Fail a *switch*: every healthy trunk incident to it is failed
    /// atomically (the validation runs before the first mutation, so either
    /// all incident trunks fail or none do).  The switch itself stays in the
    /// topology — its access links never fail — but it is unreachable over
    /// trunks until repairs splice it back in, one trunk at a time via
    /// [`Topology::repair_trunk`].  Returns the trunks that were failed,
    /// each as `(switch, neighbour)`.
    pub fn fail_switch(&mut self, switch: SwitchId) -> RtResult<Vec<(SwitchId, SwitchId)>> {
        if !self.switches.contains(&switch) {
            return Err(RtError::Config(format!("unknown switch {switch}")));
        }
        let neighbours: Vec<SwitchId> = self.neighbours(switch).collect();
        if neighbours.is_empty() {
            return Err(RtError::Config(format!(
                "switch {switch} has no healthy incident trunk to fail"
            )));
        }
        let mut cut = Vec::with_capacity(neighbours.len());
        for n in neighbours {
            self.fail_trunk(switch, n)
                .expect("a healthy neighbour's trunk exists and is not yet failed");
            cut.push((switch, n));
        }
        Ok(cut)
    }

    /// The currently failed trunks, each reported once with `from < to`.
    pub fn failed_trunks(&self) -> impl Iterator<Item = (SwitchId, SwitchId)> + '_ {
        self.failed.iter().copied()
    }

    /// `true` if the (undirected) trunk between `a` and `b` exists and is
    /// healthy.
    pub fn has_trunk(&self, a: SwitchId, b: SwitchId) -> bool {
        self.adjacency.get(&a).is_some_and(|nbrs| nbrs.contains(&b))
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of (undirected) trunk links.
    pub fn trunk_count(&self) -> usize {
        self.trunks().count()
    }

    /// `true` if the switch graph is a *tree*: connected with exactly
    /// `switch_count − 1` trunks, so the path between any two switches is
    /// unique.  This is the capability [`crate::router::RoutePolicy::Tree`]
    /// checks.
    pub fn is_tree(&self) -> bool {
        if self.switches.is_empty() {
            return true;
        }
        self.is_connected() && self.trunk_count() == self.switches.len() - 1
    }

    /// The routing fingerprint: FNV-1a over switches, attachments and
    /// healthy trunks.  Routers key their cached forwarding tables on it, so
    /// equal fingerprints must mean equal graphs for routing purposes —
    /// which they do, because the maps iterate in a canonical (sorted)
    /// order.
    ///
    /// The hash is a full O(V + E) scan, but it is *memoised*: only the
    /// first call after a mutation pays for it, every later call is one
    /// load.  Each of the seven `&mut self` mutators drops this memo
    /// whenever it changes anything.  Four of them ([`Topology::add_switch`],
    /// [`Topology::attach_node`], [`Topology::add_trunk`],
    /// [`Topology::set_manager_placement`]) drop the
    /// [`Topology::structural_fingerprint`] memo with it; the three that
    /// only move a trunk between the healthy and the failed set
    /// ([`Topology::fail_trunk`], [`Topology::repair_trunk`],
    /// [`Topology::fail_switch`]) keep that one, which they cannot change.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprints
            .routing
            .get_or_init(|| self.scan_fingerprint(false))
    }

    /// Like [`Topology::fingerprint`] (and memoised the same way), but over
    /// the *healthy* graph — failed trunks are hashed as if still up.  Every
    /// cut/repair state of one fabric shares this value, which is what lets
    /// a routing cache recognise "the same fabric, one trunk different" and
    /// repair its tables incrementally instead of rebuilding from scratch.
    pub fn structural_fingerprint(&self) -> u64 {
        *self
            .fingerprints
            .structural
            .get_or_init(|| self.scan_fingerprint(true))
    }

    /// Drop both memoised fingerprints.  Every mutator that can change the
    /// healthy graph or the attachments calls this before it does.
    fn invalidate_fingerprints(&mut self) {
        self.fingerprints = FingerprintMemo::default();
    }

    /// Drop the routing fingerprint and keep the structural one: what a
    /// trunk flip calls ([`Topology::fail_switch`] through the
    /// [`Topology::fail_trunk`] calls it is made of).  A flip moves one
    /// trunk between the adjacency and the failed set, and the structural
    /// hash covers the union of the two.
    fn invalidate_routing_fingerprint(&mut self) {
        self.fingerprints.routing = OnceLock::new();
    }

    /// The one scan behind both fingerprints: switches, attachments and
    /// trunks (`include_failed` adds the failed ones, as if still up).
    fn scan_fingerprint(&self, include_failed: bool) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(PRIME);
        for s in &self.switches {
            h = mix(h, 1);
            h = mix(h, u64::from(s.0));
        }
        for &(n, s) in &self.attachments {
            h = mix(h, 2);
            h = mix(h, u64::from(n.get()));
            h = mix(h, u64::from(s.0));
        }
        let mix_trunk = |h: u64, (a, b): (SwitchId, SwitchId)| {
            mix(mix(mix(h, 3), u64::from(a.0)), u64::from(b.0))
        };
        if include_failed && !self.failed.is_empty() {
            // Disjoint from the adjacency, so the merge has no duplicates.
            let mut trunks: Vec<(SwitchId, SwitchId)> =
                self.trunks().chain(self.failed_trunks()).collect();
            trunks.sort_unstable();
            trunks.into_iter().fold(h, mix_trunk)
        } else {
            self.trunks().fold(h, mix_trunk)
        }
    }

    /// Number of attached end nodes.
    pub fn node_count(&self) -> usize {
        self.attachments.len()
    }

    /// The switches, in ascending id order.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.switches.iter().copied()
    }

    /// The undirected trunk edges, each reported once with `from < to`.
    pub fn trunks(&self) -> impl Iterator<Item = (SwitchId, SwitchId)> + '_ {
        self.adjacency
            .iter()
            .flat_map(|(&a, nbrs)| nbrs.iter().map(move |&b| (a, b)))
            .filter(|(a, b)| a < b)
    }

    /// The switch an end node is attached to.
    pub fn switch_of(&self, node: NodeId) -> Option<SwitchId> {
        let at = self.attachment(node).ok()?;
        Some(self.attachments[at].1)
    }

    /// Where `node` sits in the attachments, or where it would be inserted.
    /// The builders number their nodes `0..n`, which puts every node at the
    /// index of its own id: that one probe answers before any search.
    fn attachment(&self, node: NodeId) -> Result<usize, usize> {
        let at = node.get() as usize;
        match self.attachments.get(at) {
            Some(&(n, _)) if n == node => Ok(at),
            _ => self.attachments.binary_search_by_key(&node, |&(n, _)| n),
        }
    }

    /// The trunk neighbours of a switch, in ascending id order.
    pub fn neighbours(&self, switch: SwitchId) -> impl Iterator<Item = SwitchId> + '_ {
        self.adjacency.get(&switch).into_iter().flatten().copied()
    }

    /// The attached end nodes, in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.attachments.iter().map(|&(n, _)| n)
    }

    /// The end nodes attached to one switch, in ascending id order.
    pub fn nodes_of(&self, switch: SwitchId) -> impl Iterator<Item = NodeId> + '_ {
        self.attachments
            .iter()
            .filter(move |&&(_, s)| s == switch)
            .map(|&(n, _)| n)
    }

    /// `true` if every switch can reach every other switch over trunks.
    pub fn is_connected(&self) -> bool {
        let Some(&first) = self.switches.iter().next() else {
            return true;
        };
        let mut seen = BTreeSet::from([first]);
        let mut queue = VecDeque::from([first]);
        while let Some(current) = queue.pop_front() {
            if let Some(neighbours) = self.adjacency.get(&current) {
                for &next in neighbours {
                    if seen.insert(next) {
                        queue.push_back(next);
                    }
                }
            }
        }
        seen.len() == self.switches.len()
    }
}

/// The per-source search the router's BFS columns replaced, kept as the
/// oracle the router's tests check routes, tables and Yen's spurs against:
/// it shares no search code with `router.rs`.
#[cfg(test)]
pub(crate) mod oracle {
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    use super::{SwitchId, Topology};
    use crate::router::NextHopTable;

    /// A shortest switch-to-switch path (inclusive of both endpoints) that
    /// avoids the switches `banned_nodes` and the *directed* trunks
    /// `banned_edges`, or `None` if they leave the two unconnected.
    pub(crate) fn switch_path_banned(
        t: &Topology,
        from: SwitchId,
        to: SwitchId,
        banned_nodes: &BTreeSet<SwitchId>,
        banned_edges: &BTreeSet<(SwitchId, SwitchId)>,
    ) -> Option<Vec<SwitchId>> {
        if from == to {
            return Some(vec![from]);
        }
        let predecessor = predecessors_banned(t, from, Some(to), banned_nodes, banned_edges);
        let mut path = vec![to];
        let mut current = to;
        while current != from {
            current = *predecessor.get(&current)?;
            path.push(current);
        }
        path.reverse();
        Some(path)
    }

    /// Predecessor map of a BFS out of `from` over the sorted adjacency
    /// (neighbours in ascending id, ties keep the first finder) that avoids
    /// `banned_nodes` and the directed `banned_edges`, optionally stopping
    /// once `until` is reached.
    fn predecessors_banned(
        t: &Topology,
        from: SwitchId,
        until: Option<SwitchId>,
        banned_nodes: &BTreeSet<SwitchId>,
        banned_edges: &BTreeSet<(SwitchId, SwitchId)>,
    ) -> BTreeMap<SwitchId, SwitchId> {
        let mut predecessor = BTreeMap::new();
        let mut queue = VecDeque::from([from]);
        let mut seen = BTreeSet::from([from]);
        while let Some(current) = queue.pop_front() {
            if until == Some(current) {
                break;
            }
            for next in t.neighbours(current) {
                if banned_nodes.contains(&next) || banned_edges.contains(&(current, next)) {
                    continue;
                }
                if seen.insert(next) {
                    predecessor.insert(next, current);
                    queue.push_back(next);
                }
            }
        }
        predecessor
    }

    /// For every ordered pair of distinct connected switches `(at, towards)`,
    /// the neighbour of `at` on the path [`switch_path_banned`] finds with
    /// nothing banned: one search per source switch.
    pub(crate) fn next_hop_table(t: &Topology) -> NextHopTable {
        let mut table = NextHopTable::new();
        let (no_nodes, no_edges) = (BTreeSet::new(), BTreeSet::new());
        for from in t.switches() {
            let predecessor = predecessors_banned(t, from, None, &no_nodes, &no_edges);
            for &to in predecessor.keys() {
                // Walk back from `to` until the step out of `from`: every
                // predecessor chain ends at `from`, which has none itself.
                let mut step = to;
                while let Some(&back) = predecessor.get(&step) {
                    if back == from {
                        break;
                    }
                    step = back;
                }
                table.insert((from, to), step);
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{Route, Router, ShortestPathRouter};

    /// The links the default router gives a channel from node `source` to
    /// node `destination`.
    fn links_of(t: &Topology, source: u32, destination: u32) -> RtResult<Vec<HopLink>> {
        ShortestPathRouter::new()
            .route(t, NodeId::new(source), NodeId::new(destination))
            .map(Route::into_links)
    }

    fn dumbbell(m: u32, s: u32) -> Topology {
        let mut t = Topology::new();
        t.add_switch(SwitchId::new(0));
        t.add_switch(SwitchId::new(1));
        t.add_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        for i in 0..m {
            t.attach_node(NodeId::new(i), SwitchId::new(0)).unwrap();
        }
        for i in 0..s {
            t.attach_node(NodeId::new(m + i), SwitchId::new(1)).unwrap();
        }
        t
    }

    #[test]
    fn construction_and_validation() {
        let mut t = Topology::new();
        t.add_switch(SwitchId::new(0));
        t.add_switch(SwitchId::new(1));
        t.add_switch(SwitchId::new(2));
        // Duplicate switch ids are idempotent, not an error.
        t.add_switch(SwitchId::new(0));
        assert_eq!(t.switch_count(), 3);
        assert!(t.attach_node(NodeId::new(0), SwitchId::new(9)).is_err());
        t.attach_node(NodeId::new(0), SwitchId::new(0)).unwrap();
        // A node attached twice is an error.
        assert!(t.attach_node(NodeId::new(0), SwitchId::new(1)).is_err());
        t.add_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        t.add_trunk(SwitchId::new(1), SwitchId::new(2)).unwrap();
        assert!(t.is_tree());
        // A closing trunk is now legal (meshes allowed)...
        t.add_trunk(SwitchId::new(0), SwitchId::new(2)).unwrap();
        assert!(!t.is_tree());
        assert!(t.is_connected());
        // ...but self-loops, unknown switches and duplicates are not.
        assert!(t.add_trunk(SwitchId::new(0), SwitchId::new(0)).is_err());
        assert!(t.add_trunk(SwitchId::new(0), SwitchId::new(7)).is_err());
        assert!(t.add_trunk(SwitchId::new(2), SwitchId::new(0)).is_err());
        assert_eq!(t.switch_count(), 3);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.switch_of(NodeId::new(0)), Some(SwitchId::new(0)));
        assert_eq!(t.trunks().count(), 3);
        assert_eq!(t.trunk_count(), 3);
    }

    #[test]
    fn star_and_line_builders() {
        let star = Topology::star(SwitchId::new(0), (0..4).map(NodeId::new));
        assert_eq!(star.switch_count(), 1);
        assert_eq!(star.node_count(), 4);
        assert_eq!(star.nodes_of(SwitchId::new(0)).count(), 4);

        let line = Topology::line(3, 2);
        assert_eq!(line.switch_count(), 3);
        assert_eq!(line.node_count(), 6);
        assert_eq!(line.switch_of(NodeId::new(5)), Some(SwitchId::new(2)));
        assert!(line.is_connected());
        assert!(line.is_tree());
        // End-to-end route: uplink + 2 trunks + downlink.
        let route = links_of(&line, 0, 5).unwrap();
        assert_eq!(route.len(), 4);
    }

    /// Ids that are not `0..n`, attached out of order, are found by the
    /// search behind the own-index probe, and every walk stays ascending.
    #[test]
    fn scattered_node_ids_attach_and_walk_in_ascending_order() {
        let mut t = Topology::star(SwitchId::new(0), [7, 2, 7, 40].map(NodeId::new));
        t.add_switch(SwitchId::new(1));
        for id in [3, 0, 4_000_000_000, 1] {
            t.attach_node(NodeId::new(id), SwitchId::new(1)).unwrap();
        }
        assert!(t.attach_node(NodeId::new(40), SwitchId::new(1)).is_err());
        let ids =
            |nodes: &mut dyn Iterator<Item = NodeId>| nodes.map(NodeId::get).collect::<Vec<_>>();
        assert_eq!(ids(&mut t.nodes()), [0, 1, 2, 3, 7, 40, 4_000_000_000]);
        assert_eq!(ids(&mut t.nodes_of(SwitchId::new(0))), [2, 7, 40]);
        for (node, switch) in [
            (0, 1),
            (1, 1),
            (2, 0),
            (3, 1),
            (7, 0),
            (40, 0),
            (4_000_000_000, 1),
        ] {
            assert_eq!(t.switch_of(NodeId::new(node)), Some(SwitchId::new(switch)));
        }
        for absent in [4, 5, 6, 39, 41, u32::MAX] {
            assert_eq!(t.switch_of(NodeId::new(absent)), None);
        }
    }

    #[test]
    fn ring_builder_closes_the_cycle() {
        let ring = Topology::ring(4, 1);
        assert_eq!(ring.switch_count(), 4);
        assert_eq!(ring.trunk_count(), 4);
        assert!(ring.is_connected());
        assert!(!ring.is_tree());
        // The closing trunk makes sw0 -> sw3 a single hop.
        assert_eq!(
            links_of(&ring, 0, 3).unwrap(),
            [
                HopLink::Uplink(NodeId::new(0)),
                HopLink::Trunk {
                    from: SwitchId::new(0),
                    to: SwitchId::new(3)
                },
                HopLink::Downlink(NodeId::new(3)),
            ]
        );
        // Small rings degenerate to lines (no duplicate trunk).
        assert_eq!(Topology::ring(2, 1).trunk_count(), 1);
        assert!(Topology::ring(2, 1).is_tree());
        assert_eq!(Topology::ring(1, 2).trunk_count(), 0);
    }

    #[test]
    fn torus_builder_wraps_both_dimensions() {
        let t = Topology::torus(4, 4, 2);
        assert_eq!(t.switch_count(), 16);
        assert_eq!(t.node_count(), 32);
        // A 2D torus has 2 trunks per switch (each edge counted once).
        assert_eq!(t.trunk_count(), 32);
        assert!(t.is_connected());
        assert!(!t.is_tree());
        // Wrap-around: (0,0) and (0,3) are direct neighbours, as are
        // (0,0) and (3,0).
        assert!(t
            .neighbours(SwitchId::new(0))
            .any(|s| s == SwitchId::new(3)));
        assert!(t
            .neighbours(SwitchId::new(0))
            .any(|s| s == SwitchId::new(12)));
        // Node allocation is switch-major.
        assert_eq!(t.switch_of(NodeId::new(31)), Some(SwitchId::new(15)));

        // Degenerate shapes skip the duplicate wrap trunk.
        assert_eq!(Topology::torus(1, 2, 1).trunk_count(), 1);
        assert_eq!(Topology::torus(2, 2, 1).trunk_count(), 4);
        assert_eq!(Topology::torus(1, 4, 1).trunk_count(), 4); // a ring
        assert!(Topology::torus(2, 2, 1).is_connected());
    }

    #[test]
    fn fat_tree_builder_shape_and_validation() {
        let t = Topology::fat_tree(4).unwrap();
        assert_eq!(t.switch_count(), 20); // 4 core + 4 pods x (2 agg + 2 edge)
        assert_eq!(t.node_count(), 16); // 8 edge switches x 2 hosts
        assert_eq!(t.trunk_count(), 32); // 16 edge-agg + 16 agg-core
        assert!(t.is_connected());
        assert!(!t.is_tree());
        // Hosts attach to edge switches only: pod 0's first edge switch is
        // core(4) + agg(2) = switch 6, and it carries nodes 0 and 1.
        assert_eq!(t.switch_of(NodeId::new(0)), Some(SwitchId::new(6)));
        assert_eq!(t.nodes_of(SwitchId::new(6)).count(), 2);
        // Core switches carry no hosts.
        assert_eq!(t.nodes_of(SwitchId::new(0)).count(), 0);

        // The issue's target scale: k=16 -> 320 switches, 1024 hosts.
        let big = Topology::fat_tree(16).unwrap();
        assert_eq!(big.switch_count(), 320);
        assert_eq!(big.node_count(), 1024);
        assert!(big.is_connected());

        // Odd or too-small radix is rejected with a config error.
        for k in [0, 1, 2, 3, 5, 7] {
            assert!(matches!(Topology::fat_tree(k), Err(RtError::Config(_))));
        }
    }

    #[test]
    fn torus_nd_matches_2d_torus_and_wraps() {
        // The 2-D case reproduces the existing builder switch for switch.
        let nd = Topology::torus_nd(&[4, 4], 2).unwrap();
        assert_eq!(nd.fingerprint(), Topology::torus(4, 4, 2).fingerprint());

        // A 3-D wrap-closed torus: every switch has degree 6.
        let t = Topology::torus_nd(&[3, 3, 3], 1).unwrap();
        assert_eq!(t.switch_count(), 27);
        assert_eq!(t.trunk_count(), 81);
        assert!(t.is_connected());
        for s in 0..27 {
            assert_eq!(t.neighbours(SwitchId::new(s)).count(), 6);
        }

        // Short dimensions degenerate without duplicate trunks, as in 2-D.
        let small = Topology::torus_nd(&[2, 2, 2], 1).unwrap();
        assert_eq!(small.trunk_count(), 12); // a cube, no wraps
        assert!(small.is_connected());

        // Empty, 1-D and zero-length dimensions are rejected.
        assert!(matches!(
            Topology::torus_nd(&[], 1),
            Err(RtError::Config(_))
        ));
        assert!(matches!(
            Topology::torus_nd(&[5], 1),
            Err(RtError::Config(_))
        ));
        assert!(matches!(
            Topology::torus_nd(&[3, 0, 3], 1),
            Err(RtError::Config(_))
        ));
    }

    #[test]
    fn fingerprint_tracks_structure() {
        let a = Topology::line(3, 2);
        let b = Topology::line(3, 2);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = Topology::line(3, 2);
        c.add_trunk(SwitchId::new(0), SwitchId::new(2)).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = Topology::line(3, 2);
        d.attach_node(NodeId::new(99), SwitchId::new(1)).unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn mesh_routes_take_a_shortest_path() {
        // A ring of 4: node 0 on sw0, node 3 on sw3 — one trunk hop via the
        // closing edge, not three through the line.
        let t = Topology::ring(4, 1);
        let route = links_of(&t, 0, 3).unwrap();
        assert_eq!(
            route,
            vec![
                HopLink::Uplink(NodeId::new(0)),
                HopLink::Trunk {
                    from: SwitchId::new(0),
                    to: SwitchId::new(3)
                },
                HopLink::Downlink(NodeId::new(3)),
            ]
        );
        // Equal-cost pair (sw0 -> sw2): BFS tie-break is deterministic.
        let first = links_of(&t, 0, 2).unwrap();
        let second = links_of(&t, 0, 2).unwrap();
        assert_eq!(first, second);
        assert_eq!(first.len(), 4);
    }

    #[test]
    fn switch_paths_and_routes() {
        let t = dumbbell(2, 2);
        let route = links_of(&t, 0, 2).unwrap();
        assert_eq!(
            route,
            vec![
                HopLink::Uplink(NodeId::new(0)),
                HopLink::Trunk {
                    from: SwitchId::new(0),
                    to: SwitchId::new(1)
                },
                HopLink::Downlink(NodeId::new(2)),
            ]
        );
        let route = links_of(&t, 0, 1).unwrap();
        assert_eq!(route.len(), 2);
        assert!(links_of(&t, 0, 0).is_err());
        assert!(links_of(&t, 0, 99).is_err());
    }

    #[test]
    fn next_hop_table_matches_paths() {
        let t = Topology::line(4, 1);
        let table = ShortestPathRouter::new().next_hop_table(&t);
        // sw0 towards sw3 goes via sw1; sw3 towards sw0 via sw2.
        assert_eq!(
            table[&(SwitchId::new(0), SwitchId::new(3))],
            SwitchId::new(1)
        );
        assert_eq!(
            table[&(SwitchId::new(3), SwitchId::new(0))],
            SwitchId::new(2)
        );
        assert_eq!(
            table[&(SwitchId::new(1), SwitchId::new(2))],
            SwitchId::new(2)
        );
        // 4 switches, ordered pairs: 4*3 = 12 entries.
        assert_eq!(table.len(), 12);
    }

    #[test]
    fn fail_and_repair_trunk_round_trips() {
        let mut t = Topology::ring(4, 1);
        let fp_healthy = t.fingerprint();
        assert!(t.has_trunk(SwitchId::new(3), SwitchId::new(0)));

        // Failing the closing trunk degrades the ring to a line.
        t.fail_trunk(SwitchId::new(3), SwitchId::new(0)).unwrap();
        assert!(!t.has_trunk(SwitchId::new(3), SwitchId::new(0)));
        assert!(!t.has_trunk(SwitchId::new(0), SwitchId::new(3)));
        assert_eq!(t.trunk_count(), 3);
        assert!(t.is_connected());
        assert!(t.is_tree());
        assert_eq!(
            t.failed_trunks().collect::<Vec<_>>(),
            vec![(SwitchId::new(0), SwitchId::new(3))]
        );
        // The fingerprint changed, so NextHopCache entries invalidate.
        assert_ne!(t.fingerprint(), fp_healthy);
        // Routing sees the degraded graph: sw0 -> sw3 is now 3 trunk hops.
        assert_eq!(links_of(&t, 0, 3).unwrap().len(), 5);

        // Double-failing, failing a non-existent trunk and re-adding a
        // failed trunk are all rejected.
        assert!(t.fail_trunk(SwitchId::new(3), SwitchId::new(0)).is_err());
        assert!(t.fail_trunk(SwitchId::new(0), SwitchId::new(2)).is_err());
        assert!(t.add_trunk(SwitchId::new(0), SwitchId::new(3)).is_err());

        // Repair restores the graph and the fingerprint exactly.
        t.repair_trunk(SwitchId::new(0), SwitchId::new(3)).unwrap();
        assert_eq!(t.fingerprint(), fp_healthy);
        assert_eq!(t.failed_trunks().count(), 0);
        assert_eq!(links_of(&t, 0, 3).unwrap().len(), 3);
        // Repairing a healthy trunk is an error.
        assert!(t.repair_trunk(SwitchId::new(0), SwitchId::new(3)).is_err());
    }

    #[test]
    fn failing_a_bridge_disconnects_the_graph() {
        let mut t = Topology::line(3, 1);
        t.fail_trunk(SwitchId::new(1), SwitchId::new(2)).unwrap();
        assert!(!t.is_connected());
        assert!(links_of(&t, 0, 2).is_err());
        assert!(!ShortestPathRouter::new()
            .next_hop_table(&t)
            .contains_key(&(SwitchId::new(0), SwitchId::new(2))));
        t.repair_trunk(SwitchId::new(2), SwitchId::new(1)).unwrap();
        assert!(t.is_connected());
    }

    #[test]
    fn structural_fingerprint_is_fault_invariant() {
        let mut t = Topology::ring(5, 1);
        let healthy = t.structural_fingerprint();
        assert_ne!(healthy, Topology::ring(4, 1).structural_fingerprint());
        t.fail_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        assert_eq!(t.structural_fingerprint(), healthy);
        // The degraded *routing* fingerprint still differs, of course.
        assert_ne!(t.fingerprint(), Topology::ring(5, 1).fingerprint());
        t.fail_trunk(SwitchId::new(2), SwitchId::new(3)).unwrap();
        assert_eq!(t.structural_fingerprint(), healthy);
        t.repair_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        assert_eq!(t.structural_fingerprint(), healthy);
        // A genuinely different healthy graph hashes differently.
        let mut other = Topology::ring(5, 1);
        other.add_trunk(SwitchId::new(0), SwitchId::new(2)).unwrap();
        assert_ne!(other.structural_fingerprint(), healthy);
    }

    /// The fingerprints of three fabrics, one with a trunk cut, to the bit:
    /// the routing caches are keyed on them, so a change to the scan that
    /// moves a value moves every cache key with it.
    #[test]
    fn fingerprints_of_named_fabrics_are_pinned() {
        let mut cut = Topology::torus(3, 4, 1);
        cut.fail_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        let fabrics = [
            ("ring(5, 1)", Topology::ring(5, 1)),
            ("fat_tree(4)", Topology::fat_tree(4).unwrap()),
            ("torus(3, 4, 1), sw0 <-> sw1 cut", cut),
        ];
        let pinned: [(u64, u64); 3] = [
            (0x3e6e_6f5a_d306_0c7d, 0x3e6e_6f5a_d306_0c7d),
            (0x7127_5e57_246d_1211, 0x7127_5e57_246d_1211),
            (0x41fc_5b12_9ba9_ad75, 0xdb08_82af_0c6c_2add),
        ];
        for ((name, t), (routing, structural)) in fabrics.iter().zip(pinned) {
            assert_eq!(t.fingerprint(), routing, "{name}");
            assert_eq!(t.structural_fingerprint(), structural, "{name}");
        }
    }

    /// Memoised fingerprints equal a from-scratch scan after every step of a
    /// random mutator sequence, failing calls included — so the memo can
    /// never hide a topology change from a cache keyed on it.
    #[test]
    fn prop_memoised_fingerprints_track_every_mutator() {
        use crate::rng::Xoshiro256;

        fn assert_fresh(t: &Topology, what: &str) {
            // Twice: the first call may fill the memo, the second reads it.
            for _ in 0..2 {
                assert_eq!(t.fingerprint(), t.scan_fingerprint(false), "{what}");
                assert_eq!(
                    t.structural_fingerprint(),
                    t.scan_fingerprint(true),
                    "{what}"
                );
            }
        }

        /// What mutator `op` left of a memo that was warm when it ran: a
        /// failing call leaves both hashes, a trunk flip (`fail_trunk`,
        /// `repair_trunk`, `fail_switch`) keeps the structural one and drops
        /// the routing one, the other four drop both.  Whatever was kept is
        /// the hash a scan of the mutated topology yields.
        fn assert_memo_after(t: &Topology, op: u64, ok: bool, what: &str) {
            let FingerprintMemo {
                routing,
                structural,
            } = &t.fingerprints;
            assert_eq!(routing.get().is_some(), !ok, "routing memo: {what}");
            let kept = !ok || matches!(op, 4..=6);
            assert_eq!(structural.get().is_some(), kept, "structural memo: {what}");
            if let Some(&retained) = structural.get() {
                assert_eq!(retained, t.scan_fingerprint(true), "retained: {what}");
            }
        }

        /// One random mutator call on `t`; `Ok`/`Err` is whatever it said.
        fn mutate(t: &mut Topology, rng: &mut Xoshiro256) -> (u64, bool) {
            // Ids drawn from a range a little wider than what exists, so
            // unknown switches, duplicates and double faults all occur.
            let sw = |rng: &mut Xoshiro256| SwitchId::new(rng.below(8) as u32);
            let op = rng.below(7);
            let ok = match op {
                0 => {
                    t.add_switch(sw(rng));
                    true
                }
                1 => t
                    .attach_node(NodeId::new(rng.below(12) as u32), sw(rng))
                    .is_ok(),
                2 => t.add_trunk(sw(rng), sw(rng)).is_ok(),
                3 => {
                    t.set_manager_placement(if rng.chance(0.5) {
                        ManagerPlacement::Distributed
                    } else {
                        ManagerPlacement::Central
                    });
                    true
                }
                4 => t.fail_trunk(sw(rng), sw(rng)).is_ok(),
                5 => t.repair_trunk(sw(rng), sw(rng)).is_ok(),
                _ => t.fail_switch(sw(rng)).is_ok(),
            };
            (op, ok)
        }

        let mut outcomes = [[0u32; 2]; 7];
        for seed in 0..32u64 {
            let mut rng = Xoshiro256::new(0xf1a9_0000 + seed);
            let mut t = Topology::ring(5, 1);
            assert_fresh(&t, "fresh ring");
            for step in 0..120 {
                let (op, ok) = mutate(&mut t, &mut rng);
                outcomes[op as usize][usize::from(ok)] += 1;
                let what = format!("seed {seed} step {step} op {op} ok {ok}");
                assert_memo_after(&t, op, ok, &what);
                assert_fresh(&t, &what);
                if step == 60 {
                    // A clone taken with a warm memo, then mutated on its
                    // own: neither side may see the other's changes.
                    let mut fork = t.clone();
                    assert_eq!(fork.fingerprint(), t.fingerprint());
                    let before = (t.fingerprint(), t.structural_fingerprint());
                    for fork_step in 0..40 {
                        let (op, ok) = mutate(&mut fork, &mut rng);
                        let what = format!("seed {seed} fork step {fork_step} op {op} ok {ok}");
                        assert_memo_after(&fork, op, ok, &what);
                        assert_fresh(&fork, &what);
                    }
                    assert_eq!((t.fingerprint(), t.structural_fingerprint()), before);
                    assert_fresh(&t, "original after the fork diverged");
                }
            }
        }
        // The sequences really exercised every mutator, both ways where a
        // mutator can fail at all (`add_switch` and the placement cannot).
        for (op, [failed, succeeded]) in outcomes.iter().enumerate() {
            assert!(*succeeded > 0, "mutator {op} never succeeded");
            if op != 0 && op != 3 {
                assert!(*failed > 0, "mutator {op} never failed");
            }
        }
    }

    #[test]
    fn disconnected_switches_have_no_route() {
        let mut t = Topology::new();
        t.add_switch(SwitchId::new(0));
        t.add_switch(SwitchId::new(1));
        t.attach_node(NodeId::new(0), SwitchId::new(0)).unwrap();
        t.attach_node(NodeId::new(1), SwitchId::new(1)).unwrap();
        assert!(!t.is_connected());
        assert!(links_of(&t, 0, 1).is_err());
        assert!(ShortestPathRouter::new().next_hop_table(&t).is_empty());
    }
}
