//! RT channels and their per-link decomposition.
//!
//! An RT channel is the paper's unit of real-time service: a virtual
//! connection between two end nodes characterised by `{P_i, C_i, d_i}` —
//! period, amount of data per period and relative end-to-end deadline, all
//! expressed in maximum-sized-frame time slots (§18.2.2).  For scheduling,
//! each channel is decomposed into two supposed tasks (Eq. 18.6/18.7), one
//! on the source's uplink with deadline `d_iu` and one on the destination's
//! downlink with deadline `d_id`, subject to
//!
//! * `d_i = d_iu + d_id`  (Eq. 18.8), and
//! * `d_iu, d_id ≥ C_i`   (Eq. 18.9, required whenever `d_i ≥ 2·C_i`; a
//!   channel with `d_i < 2·C_i` can never be feasible on a store-and-forward
//!   switch).

use rt_types::{Ipv4Address, MacAddr, NodeId, RtError, RtResult, Slots};

/// The traffic contract of an RT channel: `{P_i, C_i, d_i}` in slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RtChannelSpec {
    /// Period `P_i`: a message of `C_i` frames is generated every `P_i`
    /// slots.
    pub period: Slots,
    /// Capacity `C_i`: number of maximum-sized frames per period.
    pub capacity: Slots,
    /// Relative end-to-end deadline `d_i`.
    pub deadline: Slots,
}

impl RtChannelSpec {
    /// The parameters used throughout the paper's evaluation (Figure 18.5):
    /// `C_i = 3`, `P_i = 100`, `d_i = 40`.
    pub fn paper_default() -> Self {
        RtChannelSpec {
            period: Slots::new(100),
            capacity: Slots::new(3),
            deadline: Slots::new(40),
        }
    }

    /// Construct a spec and validate it.
    pub fn new(period: Slots, capacity: Slots, deadline: Slots) -> RtResult<Self> {
        let spec = RtChannelSpec {
            period,
            capacity,
            deadline,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Check the invariants a channel must satisfy before it can even be
    /// considered for admission.
    pub fn validate(&self) -> RtResult<()> {
        if self.period.is_zero() {
            return Err(RtError::InvalidChannelSpec(
                "period must be positive".into(),
            ));
        }
        if self.capacity.is_zero() {
            return Err(RtError::InvalidChannelSpec(
                "capacity must be positive".into(),
            ));
        }
        if self.capacity > self.period {
            return Err(RtError::InvalidChannelSpec(format!(
                "capacity {} exceeds period {}",
                self.capacity, self.period
            )));
        }
        // Paper: "if D_i < 2C_i then the channel cannot, by definition, be
        // EDF-feasible for a store-and-forward switch."
        if self.deadline < self.capacity.saturating_mul(2) {
            return Err(RtError::InvalidChannelSpec(format!(
                "deadline {} is shorter than twice the capacity {} (store-and-forward needs both link deadlines >= C)",
                self.deadline, self.capacity
            )));
        }
        Ok(())
    }

    /// Utilisation `C_i / P_i` contributed by this channel to each of its two
    /// links.
    pub fn utilisation(&self) -> f64 {
        self.capacity.get() as f64 / self.period.get() as f64
    }
}

/// A concrete split of the end-to-end deadline over the two links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeadlineSplit {
    /// `d_iu`: worst-case delivery budget on the uplink (source → switch).
    pub uplink: Slots,
    /// `d_id`: worst-case delivery budget on the downlink (switch →
    /// destination).
    pub downlink: Slots,
}

impl DeadlineSplit {
    /// Build a split and verify Eq. 18.8 / 18.9 against `spec`.
    pub fn new(spec: &RtChannelSpec, uplink: Slots, downlink: Slots) -> RtResult<Self> {
        let split = DeadlineSplit { uplink, downlink };
        split.validate(spec)?;
        Ok(split)
    }

    /// Build a split from the uplink fraction `U_part ∈ [0, 1]` (Eq. 18.11),
    /// rounding to whole slots and clamping both halves to at least `C_i`.
    pub fn from_upart(spec: &RtChannelSpec, upart: f64) -> RtResult<Self> {
        if !(0.0..=1.0).contains(&upart) || upart.is_nan() {
            return Err(RtError::InvalidPartition {
                reason: format!("U_part {upart} is outside [0, 1]"),
            });
        }
        let d = spec.deadline.get();
        let c = spec.capacity.get();
        // Round to the nearest slot, then clamp so both halves keep >= C.
        let mut up = (upart * d as f64).round() as u64;
        up = up.clamp(c, d.saturating_sub(c));
        let down = d - up;
        DeadlineSplit::new(spec, Slots::new(up), Slots::new(down))
    }

    /// The symmetric split `d/2, d - d/2` used by SDPS.
    pub fn symmetric(spec: &RtChannelSpec) -> RtResult<Self> {
        let half = spec.deadline / 2;
        DeadlineSplit::new(spec, half, spec.deadline - half)
    }

    /// Verify Eq. 18.8 (`d_iu + d_id = d_i`) and Eq. 18.9 (both ≥ `C_i`).
    pub fn validate(&self, spec: &RtChannelSpec) -> RtResult<()> {
        if self.uplink + self.downlink != spec.deadline {
            return Err(RtError::InvalidPartition {
                reason: format!(
                    "d_iu {} + d_id {} != d_i {}",
                    self.uplink, self.downlink, spec.deadline
                ),
            });
        }
        if self.uplink < spec.capacity || self.downlink < spec.capacity {
            return Err(RtError::InvalidPartition {
                reason: format!(
                    "per-link deadline below capacity: d_iu {}, d_id {}, C {}",
                    self.uplink, self.downlink, spec.capacity
                ),
            });
        }
        Ok(())
    }

    /// The uplink fraction `U_part = d_iu / d_i` (Eq. 18.11).
    pub fn upart(&self, spec: &RtChannelSpec) -> f64 {
        self.uplink.get() as f64 / spec.deadline.get() as f64
    }
}

/// The addressing information of a channel endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// The node.
    pub node: NodeId,
    /// Its MAC address.
    pub mac: MacAddr,
    /// Its IPv4 address.
    pub ip: Ipv4Address,
}

impl Endpoint {
    /// The canonical simulated addressing of `node`.
    pub fn for_node(node: NodeId) -> Self {
        Endpoint {
            node,
            mac: MacAddr::for_node(node),
            ip: Ipv4Address::for_node(node),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_types::rng::Xoshiro256;

    fn spec(p: u64, c: u64, d: u64) -> RtChannelSpec {
        RtChannelSpec {
            period: Slots::new(p),
            capacity: Slots::new(c),
            deadline: Slots::new(d),
        }
    }

    #[test]
    fn paper_default_is_valid() {
        let s = RtChannelSpec::paper_default();
        assert!(s.validate().is_ok());
        assert_eq!(s.period, Slots::new(100));
        assert_eq!(s.capacity, Slots::new(3));
        assert_eq!(s.deadline, Slots::new(40));
        assert!((s.utilisation() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn spec_validation() {
        assert!(spec(0, 1, 2).validate().is_err());
        assert!(spec(10, 0, 2).validate().is_err());
        assert!(spec(10, 11, 30).validate().is_err());
        // D < 2C rejected (store-and-forward argument from the paper).
        assert!(spec(10, 3, 5).validate().is_err());
        assert!(spec(10, 3, 6).validate().is_ok());
        assert!(RtChannelSpec::new(Slots::new(10), Slots::new(3), Slots::new(6)).is_ok());
        assert!(RtChannelSpec::new(Slots::new(10), Slots::new(3), Slots::new(5)).is_err());
    }

    #[test]
    fn symmetric_split_matches_sdps_definition() {
        let s = RtChannelSpec::paper_default();
        let split = DeadlineSplit::symmetric(&s).unwrap();
        assert_eq!(split.uplink, Slots::new(20));
        assert_eq!(split.downlink, Slots::new(20));
        assert!((split.upart(&s) - 0.5).abs() < 1e-12);

        // Odd deadline: halves differ by one but still sum to d.
        let s = spec(100, 3, 41);
        let split = DeadlineSplit::symmetric(&s).unwrap();
        assert_eq!(split.uplink + split.downlink, Slots::new(41));
    }

    #[test]
    fn from_upart_clamps_to_capacity() {
        let s = RtChannelSpec::paper_default();
        // An extreme fraction cannot push a side below C=3.
        let split = DeadlineSplit::from_upart(&s, 0.999).unwrap();
        assert_eq!(split.downlink, Slots::new(3));
        assert_eq!(split.uplink, Slots::new(37));
        let split = DeadlineSplit::from_upart(&s, 0.0).unwrap();
        assert_eq!(split.uplink, Slots::new(3));
        assert!(DeadlineSplit::from_upart(&s, 1.5).is_err());
        assert!(DeadlineSplit::from_upart(&s, f64::NAN).is_err());
    }

    #[test]
    fn split_validation_enforces_equations() {
        let s = RtChannelSpec::paper_default();
        // Eq. 18.8 violated.
        assert!(DeadlineSplit::new(&s, Slots::new(10), Slots::new(20)).is_err());
        // Eq. 18.9 violated.
        assert!(DeadlineSplit::new(&s, Slots::new(38), Slots::new(2)).is_err());
        // Valid.
        assert!(DeadlineSplit::new(&s, Slots::new(30), Slots::new(10)).is_ok());
    }

    #[test]
    fn endpoint_for_node_addresses() {
        let e = Endpoint::for_node(NodeId::new(5));
        assert_eq!(e.mac, MacAddr::for_node(NodeId::new(5)));
        assert_eq!(e.ip, Ipv4Address::for_node(NodeId::new(5)));
    }

    /// from_upart always satisfies Eq. 18.8 and 18.9 for valid specs.
    #[test]
    fn prop_from_upart_valid() {
        let mut rng = Xoshiro256::new(0xc4a2_0001);
        for _ in 0..512 {
            let p = rng.range_inclusive(4, 999);
            let c = rng.range_inclusive(1, 19).min(p);
            let extra = rng.below(200);
            let upart = rng.unit();
            let d = 2 * c + extra;
            let s = spec(p, c, d);
            if s.validate().is_err() {
                continue;
            }
            let split = DeadlineSplit::from_upart(&s, upart).unwrap();
            assert_eq!(split.uplink + split.downlink, s.deadline);
            assert!(split.uplink >= s.capacity);
            assert!(split.downlink >= s.capacity);
        }
    }
}
