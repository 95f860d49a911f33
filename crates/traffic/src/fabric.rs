//! Multi-switch fabric scenarios: which switches exist, which nodes attach
//! where, and request patterns that exercise the trunks.
//!
//! The star [`crate::scenario::Scenario`] covers the paper's evaluation; the
//! fabric scenario covers its stated future work — interconnected switches —
//! in three shapes:
//!
//! * [`FabricScenario::line`] — a chain of access switches (a tree: unique
//!   paths, servable by every router),
//! * [`FabricScenario::ring`] — the line plus a closing trunk: the smallest
//!   *cyclic* mesh, needing shortest-path or ECMP routing,
//! * [`FabricScenario::leaf_spine`] — a 2-connected fat-tree-ish fabric:
//!   every access (leaf) switch is trunked to two node-less spine switches,
//!   so every leaf pair has two disjoint 2-trunk paths.
//!
//! Each access switch carries its own masters and slaves; the request
//! generators deliberately cross switch boundaries so the trunks become the
//! shared resource.

use rt_core::RtChannelSpec;
use rt_types::{NodeId, SwitchId, Topology};

use crate::pattern::ChannelRequest;

/// The trunk-graph shape of a [`FabricScenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// A chain of access switches (tree).
    Line,
    /// A closed chain of access switches (cyclic mesh).
    Ring,
    /// Access leaves, each trunked to two node-less spines (2-connected).
    LeafSpine,
    /// A 2D torus of access switches (wrap-around grid): the
    /// thousand-node-scale shape — an `8 × 8` torus with 16 nodes per
    /// switch is 64 switches and 1024 end nodes.
    Torus {
        /// Grid rows.
        rows: u32,
        /// Grid columns.
        cols: u32,
    },
}

/// A multi-switch scenario: `switches` *access* switches in one of the
/// shapes above, each with `masters_per_switch` masters and
/// `slaves_per_switch` slaves attached.
///
/// Node ids are allocated access-switch-major, masters first: access switch
/// `s` owns ids `s·k .. (s+1)·k` with `k = masters_per_switch +
/// slaves_per_switch`.  Leaf-spine spines carry no nodes and take the switch
/// ids after the leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricScenario {
    shape: Shape,
    switches: u32,
    masters_per_switch: u32,
    slaves_per_switch: u32,
}

impl FabricScenario {
    fn build(shape: Shape, switches: u32, masters_per_switch: u32, slaves_per_switch: u32) -> Self {
        assert!(switches > 0, "a fabric needs at least one switch");
        assert!(
            masters_per_switch + slaves_per_switch > 0,
            "each switch needs at least one node"
        );
        FabricScenario {
            shape,
            switches,
            masters_per_switch,
            slaves_per_switch,
        }
    }

    /// Build a line scenario.  Requires at least one switch and at least one
    /// node per switch.
    pub fn line(switches: u32, masters_per_switch: u32, slaves_per_switch: u32) -> Self {
        Self::build(Shape::Line, switches, masters_per_switch, slaves_per_switch)
    }

    /// Build a ring scenario: the line plus a closing trunk (a cyclic mesh
    /// for three or more switches).
    pub fn ring(switches: u32, masters_per_switch: u32, slaves_per_switch: u32) -> Self {
        Self::build(Shape::Ring, switches, masters_per_switch, slaves_per_switch)
    }

    /// Build a leaf-spine scenario: `leaves` access switches, each trunked
    /// to two node-less spine switches (ids `leaves` and `leaves + 1`).
    /// Every leaf pair has two disjoint 2-trunk paths — the fabric survives
    /// a spine loss and gives ECMP routing something to spread over.
    pub fn leaf_spine(leaves: u32, masters_per_switch: u32, slaves_per_switch: u32) -> Self {
        Self::build(
            Shape::LeafSpine,
            leaves,
            masters_per_switch,
            slaves_per_switch,
        )
    }

    /// Build a torus scenario: a `rows × cols` wrap-around grid of access
    /// switches ([`Topology::torus`]), each carrying its own masters and
    /// slaves.  `FabricScenario::torus(8, 8, 8, 8)` is the 64-switch /
    /// 1024-node fabric of the scaling benchmarks.
    pub fn torus(rows: u32, cols: u32, masters_per_switch: u32, slaves_per_switch: u32) -> Self {
        assert!(rows > 0 && cols > 0, "a torus needs at least one switch");
        Self::build(
            Shape::Torus { rows, cols },
            rows * cols,
            masters_per_switch,
            slaves_per_switch,
        )
    }

    /// Number of *access* (node-bearing) switches.
    pub fn switch_count(&self) -> u32 {
        self.switches
    }

    /// Nodes per switch.
    pub fn nodes_per_switch(&self) -> u32 {
        self.masters_per_switch + self.slaves_per_switch
    }

    /// Total number of end nodes.
    pub fn node_count(&self) -> u32 {
        self.switches * self.nodes_per_switch()
    }

    /// The `i`-th master on switch `s` (wrapping over that switch's
    /// masters).
    pub fn master(&self, switch: u32, i: u64) -> NodeId {
        assert!(self.masters_per_switch > 0, "scenario has no masters");
        let s = switch % self.switches;
        NodeId::new(s * self.nodes_per_switch() + (i % u64::from(self.masters_per_switch)) as u32)
    }

    /// The `i`-th slave on switch `s` (wrapping over that switch's slaves).
    pub fn slave(&self, switch: u32, i: u64) -> NodeId {
        assert!(self.slaves_per_switch > 0, "scenario has no slaves");
        let s = switch % self.switches;
        NodeId::new(
            s * self.nodes_per_switch()
                + self.masters_per_switch
                + (i % u64::from(self.slaves_per_switch)) as u32,
        )
    }

    /// Build the [`Topology`] for the scenario's shape, with every node
    /// attached to its home access switch.  The node-id allocation is
    /// exactly [`Topology::line`]'s (access-switch-major), which is what
    /// [`FabricScenario::master`] / [`FabricScenario::slave`] index into.
    pub fn topology(&self) -> Topology {
        match self.shape {
            Shape::Line => Topology::line(self.switches, self.nodes_per_switch()),
            Shape::Ring => Topology::ring(self.switches, self.nodes_per_switch()),
            Shape::Torus { rows, cols } => Topology::torus(rows, cols, self.nodes_per_switch()),
            Shape::LeafSpine => {
                let mut t = Topology::new();
                for leaf in 0..self.switches {
                    t.add_switch(SwitchId::new(leaf));
                }
                let spines = [
                    SwitchId::new(self.switches),
                    SwitchId::new(self.switches + 1),
                ];
                for spine in spines {
                    t.add_switch(spine);
                }
                for leaf in 0..self.switches {
                    for spine in spines {
                        t.add_trunk(SwitchId::new(leaf), spine)
                            .expect("leaf-spine trunks are fresh");
                    }
                }
                for leaf in 0..self.switches {
                    for k in 0..self.nodes_per_switch() {
                        t.attach_node(
                            NodeId::new(leaf * self.nodes_per_switch() + k),
                            SwitchId::new(leaf),
                        )
                        .expect("fresh node");
                    }
                }
                t
            }
        }
    }

    /// The `i`-th cross-switch `(master, slave)` pair: the source sits on
    /// access switch `i mod S`, the destination on a *different* switch,
    /// rotating over the others so every trunk direction carries load.
    /// With a single switch this degenerates to same-switch master→slave
    /// pairs.  This one walk feeds both the admission-side request
    /// generator ([`FabricScenario::cross_switch_requests`]) and the
    /// wire-side frame generator (`ScenarioFrameSource`), so the two
    /// workloads always correspond.
    pub fn cross_switch_pair(&self, i: u64) -> (NodeId, NodeId) {
        let src_switch = (i % u64::from(self.switches)) as u32;
        let dst_switch = if self.switches == 1 {
            0
        } else {
            let offset = 1 + (i / u64::from(self.switches)) % u64::from(self.switches - 1);
            ((u64::from(src_switch) + offset) % u64::from(self.switches)) as u32
        };
        (self.master(src_switch, i), self.slave(dst_switch, i))
    }

    /// Generate `count` channel requests over the
    /// [`FabricScenario::cross_switch_pair`] walk.
    pub fn cross_switch_requests(&self, count: u64, spec: RtChannelSpec) -> Vec<ChannelRequest> {
        (0..count)
            .map(|i| {
                let (source, destination) = self.cross_switch_pair(i);
                ChannelRequest {
                    source,
                    destination,
                    spec,
                }
            })
            .collect()
    }

    /// The `i`-th `(master, slave)` pair of the *hot-trunk* walk: every
    /// pair runs from a master on switch 0 to a slave on switch 1, so every
    /// requested channel competes for the slack of the same `sw0 <-> sw1`
    /// trunk.  This is the contention workload the two-phase reservation
    /// protocol is sized against: size `count` beyond the trunk's capacity
    /// and the later requests must be turned away with their partial
    /// reservations rolled back — under either control-plane placement,
    /// with the identical accepted prefix.
    pub fn hot_trunk_pair(&self, i: u64) -> (NodeId, NodeId) {
        assert!(self.switches >= 2, "a hot trunk needs two switches");
        (self.master(0, i), self.slave(1, i))
    }

    /// Generate `count` channel requests over the
    /// [`FabricScenario::hot_trunk_pair`] walk — all contending for the
    /// same trunk's slack.
    pub fn hot_trunk_requests(&self, count: u64, spec: RtChannelSpec) -> Vec<ChannelRequest> {
        (0..count)
            .map(|i| {
                let (source, destination) = self.hot_trunk_pair(i);
                ChannelRequest {
                    source,
                    destination,
                    spec,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_types::{HopLink, Router, ShortestPathRouter, SwitchId};

    #[test]
    fn node_allocation_is_switch_major() {
        let f = FabricScenario::line(3, 2, 3);
        assert_eq!(f.node_count(), 15);
        assert_eq!(f.nodes_per_switch(), 5);
        assert_eq!(f.master(0, 0), NodeId::new(0));
        assert_eq!(f.master(0, 1), NodeId::new(1));
        assert_eq!(f.master(0, 2), NodeId::new(0)); // wraps
        assert_eq!(f.slave(0, 0), NodeId::new(2));
        assert_eq!(f.master(1, 0), NodeId::new(5));
        assert_eq!(f.slave(2, 2), NodeId::new(14));
    }

    #[test]
    fn topology_matches_the_scenario() {
        let f = FabricScenario::line(3, 1, 2);
        let t = f.topology();
        assert_eq!(t.switch_count(), 3);
        assert_eq!(t.node_count(), 9);
        assert!(t.is_connected());
        assert_eq!(t.trunks().count(), 2);
        assert_eq!(t.switch_of(NodeId::new(4)), Some(SwitchId::new(1)));
        // A cross-fabric route exists and uses the trunks.
        let route = ShortestPathRouter::new()
            .route(&t, f.master(0, 0), f.slave(2, 0))
            .unwrap();
        assert_eq!(route.len(), 4);
        assert!(matches!(route[1], HopLink::Trunk { .. }));
    }

    #[test]
    fn cross_switch_requests_always_cross_a_trunk() {
        let f = FabricScenario::line(4, 2, 2);
        let t = f.topology();
        let reqs = f.cross_switch_requests(64, RtChannelSpec::paper_default());
        assert_eq!(reqs.len(), 64);
        for r in &reqs {
            assert_ne!(
                t.switch_of(r.source).unwrap(),
                t.switch_of(r.destination).unwrap(),
                "request {r:?} does not cross switches"
            );
        }
        // Every switch appears as a source.
        for s in 0..4u32 {
            assert!(reqs
                .iter()
                .any(|r| t.switch_of(r.source) == Some(SwitchId::new(s))));
        }
    }

    #[test]
    fn hot_trunk_requests_all_contend_for_one_trunk() {
        let f = FabricScenario::ring(4, 2, 2);
        let t = f.topology();
        let reqs = f.hot_trunk_requests(16, RtChannelSpec::paper_default());
        assert_eq!(reqs.len(), 16);
        for r in &reqs {
            assert_eq!(t.switch_of(r.source), Some(SwitchId::new(0)));
            assert_eq!(t.switch_of(r.destination), Some(SwitchId::new(1)));
            // The shortest route is the direct sw0 -> sw1 trunk.
            let route = ShortestPathRouter::new()
                .route(&t, r.source, r.destination)
                .unwrap();
            assert!(route.contains(&HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(1)
            }));
        }
    }

    #[test]
    fn ring_scenario_closes_the_cycle() {
        let f = FabricScenario::ring(4, 1, 1);
        assert_eq!(f.shape, Shape::Ring);
        let t = f.topology();
        assert_eq!(t.switch_count(), 4);
        assert_eq!(t.trunk_count(), 4);
        assert!(t.is_connected());
        assert!(!t.is_tree());
        // Same node allocation as the line.
        assert_eq!(f.master(3, 0), NodeId::new(6));
        assert_eq!(f.slave(3, 0), NodeId::new(7));
        // The shortest route between adjacent-via-closing-trunk switches is
        // a single trunk hop.
        let route = ShortestPathRouter::new()
            .route(&t, f.master(0, 0), f.slave(3, 0))
            .unwrap();
        assert_eq!(route.len(), 3);
    }

    #[test]
    fn leaf_spine_scenario_is_two_connected() {
        let f = FabricScenario::leaf_spine(3, 1, 1);
        assert_eq!(f.shape, Shape::LeafSpine);
        assert_eq!(f.switch_count(), 3);
        let t = f.topology();
        assert_eq!(t.switch_count(), 5);
        assert_eq!(t.trunk_count(), 6, "every leaf reaches both spines");
        assert!(t.is_connected());
        assert!(!t.is_tree());
        // Spines carry no nodes.
        assert_eq!(t.nodes_of(SwitchId::new(3)).count(), 0);
        assert_eq!(t.nodes_of(SwitchId::new(4)).count(), 0);
        assert_eq!(t.node_count(), 6);
        // Leaf-to-leaf routes cross exactly one spine (2 trunk hops).
        let route = ShortestPathRouter::new()
            .route(&t, f.master(0, 0), f.slave(2, 0))
            .unwrap();
        assert_eq!(route.len(), 4);
        // Requests still cross access switches.
        let reqs = f.cross_switch_requests(12, RtChannelSpec::paper_default());
        for r in &reqs {
            assert_ne!(t.switch_of(r.source), t.switch_of(r.destination));
        }
    }

    #[test]
    fn torus_scenario_scales_to_a_thousand_nodes() {
        let f = FabricScenario::torus(8, 8, 8, 8);
        assert_eq!(f.shape, Shape::Torus { rows: 8, cols: 8 });
        assert_eq!(f.switch_count(), 64);
        assert_eq!(f.node_count(), 1024);
        let t = f.topology();
        assert_eq!(t.switch_count(), 64);
        assert_eq!(t.node_count(), 1024);
        assert!(t.is_connected());
        assert!(!t.is_tree());
        // Each switch has 4 trunk neighbours on an 8x8 torus.
        assert_eq!(t.trunk_count(), 2 * 64);
        // Node allocation stays switch-major, so master()/slave() index
        // straight into the topology.
        assert_eq!(t.switch_of(f.master(63, 0)), Some(SwitchId::new(63)));
        assert_eq!(t.switch_of(f.slave(0, 0)), Some(SwitchId::new(0)));
        // Cross-switch requests cross switches, as on every other shape.
        let reqs = f.cross_switch_requests(128, RtChannelSpec::paper_default());
        for r in &reqs {
            assert_ne!(t.switch_of(r.source), t.switch_of(r.destination));
        }
    }

    #[test]
    fn single_switch_degenerates_to_local_requests() {
        let f = FabricScenario::line(1, 2, 2);
        let reqs = f.cross_switch_requests(8, RtChannelSpec::paper_default());
        let t = f.topology();
        for r in &reqs {
            assert_eq!(t.switch_of(r.source), t.switch_of(r.destination));
            assert_ne!(r.source, r.destination);
        }
    }
}
