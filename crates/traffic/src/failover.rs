//! Fail-over scenarios: a [`FabricScenario`] plus a deterministic trunk to
//! cut, so tests, the property harness and the survivability experiment all
//! break the *same* link in the *same* way.
//!
//! The two stock shapes mirror the redundancy spectrum:
//!
//! * [`FailoverScenario::ring_trunk_cut`] — cut the ring's closing trunk:
//!   the fabric degrades to a line, every affected channel has exactly one
//!   surviving route (the long way around),
//! * [`FailoverScenario::torus_link_cut`] — cut one grid trunk of a torus:
//!   a richly redundant fabric where k-shortest re-routing has many
//!   detours to choose from.

use rt_types::SwitchId;

use crate::fabric::FabricScenario;

/// A fabric scenario with one scripted trunk cut.
///
/// The cut trunk is chosen so the scenario's cross-switch workload is
/// guaranteed to have channels crossing it (both shapes cut a trunk
/// adjacent to switch 0, where the walk of
/// [`FabricScenario::cross_switch_pair`] always places sources).
#[derive(Debug, Clone)]
pub struct FailoverScenario {
    fabric: FabricScenario,
    cut: (SwitchId, SwitchId),
}

impl FailoverScenario {
    /// A ring of `switches` access switches where the *closing* trunk
    /// (`switches − 1 ↔ 0`) is cut.  Requires at least three switches —
    /// smaller rings have no closing trunk to lose.
    pub fn ring_trunk_cut(switches: u32, masters_per_switch: u32, slaves_per_switch: u32) -> Self {
        assert!(
            switches >= 3,
            "a ring needs >= 3 switches to have a closing trunk"
        );
        FailoverScenario {
            fabric: FabricScenario::ring(switches, masters_per_switch, slaves_per_switch),
            cut: (SwitchId::new(switches - 1), SwitchId::new(0)),
        }
    }

    /// A `rows × cols` torus where the trunk between switch `(0,0)` and its
    /// right neighbour `(0,1)` is cut.  Requires at least two columns.
    pub fn torus_link_cut(
        rows: u32,
        cols: u32,
        masters_per_switch: u32,
        slaves_per_switch: u32,
    ) -> Self {
        assert!(cols >= 2, "a torus needs >= 2 columns to have a row trunk");
        FailoverScenario {
            fabric: FabricScenario::torus(rows, cols, masters_per_switch, slaves_per_switch),
            cut: (SwitchId::new(0), SwitchId::new(1)),
        }
    }

    /// The underlying fabric scenario (topology, node allocation, request
    /// walks).
    pub fn fabric(&self) -> &FabricScenario {
        &self.fabric
    }

    /// The trunk this scenario cuts.
    pub fn cut_trunk(&self) -> (SwitchId, SwitchId) {
        self.cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_cut_targets_the_closing_trunk() {
        let s = FailoverScenario::ring_trunk_cut(4, 1, 1);
        assert_eq!(s.cut_trunk(), (SwitchId::new(3), SwitchId::new(0)));
        let topology = s.fabric().topology();
        assert!(topology.has_trunk(SwitchId::new(3), SwitchId::new(0)));
        // The scripted cut degrades the ring to a (still connected) line.
        let mut degraded = topology.clone();
        degraded
            .fail_trunk(SwitchId::new(3), SwitchId::new(0))
            .unwrap();
        assert!(degraded.is_connected());
        assert!(degraded.is_tree());
    }

    #[test]
    fn torus_cut_keeps_the_fabric_redundant() {
        let s = FailoverScenario::torus_link_cut(3, 3, 1, 1);
        assert_eq!(s.cut_trunk(), (SwitchId::new(0), SwitchId::new(1)));
        let mut degraded = s.fabric().topology();
        degraded
            .fail_trunk(SwitchId::new(0), SwitchId::new(1))
            .unwrap();
        assert!(degraded.is_connected());
        assert!(!degraded.is_tree(), "a torus survives one cut redundantly");
    }
}
