//! The periodic task model.
//!
//! The paper maps each half of an RT channel onto a periodic task running on
//! the corresponding directed link ("each part of the RT channel can be
//! looked upon as a periodic task, and the corresponding link would
//! constitute a CPU").  The capacity `C_i` plays the role of the worst-case
//! execution time, the period `P_i` the inter-arrival time, and the per-link
//! deadline (`d_iu` or `d_id`) the relative deadline.

use rt_types::{RtError, RtResult, Slots};

/// A periodic task `{P, C, d}` in time slots.
///
/// Invariants enforced at construction:
/// * `period > 0`,
/// * `capacity > 0`,
/// * `capacity ≤ period` (a task cannot need more link time per period than
///   the period itself),
/// * `relative_deadline ≥ capacity` (Eq. 18.9: a deadline shorter than the
///   worst-case transmission time can never be met).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PeriodicTask {
    period: Slots,
    capacity: Slots,
    relative_deadline: Slots,
}

impl PeriodicTask {
    /// Create a task, validating the invariants listed on the type.
    pub fn new(period: Slots, capacity: Slots, relative_deadline: Slots) -> RtResult<Self> {
        if period.is_zero() {
            return Err(RtError::InvalidChannelSpec(
                "period must be positive".into(),
            ));
        }
        if capacity.is_zero() {
            return Err(RtError::InvalidChannelSpec(
                "capacity must be positive".into(),
            ));
        }
        if capacity > period {
            return Err(RtError::InvalidChannelSpec(format!(
                "capacity {capacity} exceeds period {period}"
            )));
        }
        if relative_deadline < capacity {
            return Err(RtError::InvalidChannelSpec(format!(
                "relative deadline {relative_deadline} is shorter than capacity {capacity}"
            )));
        }
        Ok(PeriodicTask {
            period,
            capacity,
            relative_deadline,
        })
    }

    /// The period `P` in slots.
    pub fn period(&self) -> Slots {
        self.period
    }

    /// The capacity (worst-case transmission time) `C` in slots.
    pub fn capacity(&self) -> Slots {
        self.capacity
    }

    /// The relative deadline `d` in slots.
    pub fn relative_deadline(&self) -> Slots {
        self.relative_deadline
    }

    /// `true` if the relative deadline equals the period (the Liu & Layland
    /// case where the utilisation bound alone is exact for EDF).
    pub fn is_implicit_deadline(&self) -> bool {
        self.relative_deadline == self.period
    }

    /// `true` if the relative deadline is no larger than the period
    /// (constrained-deadline task).
    pub fn is_constrained_deadline(&self) -> bool {
        self.relative_deadline <= self.period
    }

    /// Utilisation `C/P` of this task as a float.
    pub fn utilisation(&self) -> f64 {
        self.capacity.get() as f64 / self.period.get() as f64
    }

    /// Contribution of this task to the workload function `h(t)` of Eq. 18.3:
    /// `(1 + floor((t - d) / P)) * C` for `t ≥ d`, zero otherwise.
    pub fn demand_up_to(&self, t: Slots) -> Slots {
        if t < self.relative_deadline {
            return Slots::ZERO;
        }
        let jobs = 1 + (t - self.relative_deadline).div_floor(self.period);
        self.capacity.saturating_mul(jobs)
    }

    /// Return a copy with a different relative deadline (used by deadline
    /// partitioning to derive the uplink/downlink tasks from one channel).
    pub fn with_relative_deadline(&self, d: Slots) -> RtResult<Self> {
        PeriodicTask::new(self.period, self.capacity, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(p: u64, c: u64, d: u64) -> PeriodicTask {
        PeriodicTask::new(Slots::new(p), Slots::new(c), Slots::new(d)).unwrap()
    }

    #[test]
    fn construction_validates_invariants() {
        assert!(PeriodicTask::new(Slots::new(0), Slots::new(1), Slots::new(1)).is_err());
        assert!(PeriodicTask::new(Slots::new(10), Slots::new(0), Slots::new(5)).is_err());
        assert!(PeriodicTask::new(Slots::new(10), Slots::new(11), Slots::new(20)).is_err());
        assert!(PeriodicTask::new(Slots::new(10), Slots::new(3), Slots::new(2)).is_err());
        assert!(PeriodicTask::new(Slots::new(10), Slots::new(3), Slots::new(3)).is_ok());
    }

    #[test]
    fn deadline_classification() {
        assert!(t(10, 2, 10).is_implicit_deadline());
        assert!(t(10, 2, 10).is_constrained_deadline());
        assert!(!t(10, 2, 7).is_implicit_deadline());
        assert!(t(10, 2, 7).is_constrained_deadline());
        assert!(!t(10, 2, 15).is_constrained_deadline());
    }

    #[test]
    fn utilisation_is_c_over_p() {
        let task = t(100, 3, 40);
        assert!((task.utilisation() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn demand_matches_equation_18_3() {
        // The paper's running parameters: C=3, P=100, d=40 (here d=20 for a
        // partitioned half).
        let task = t(100, 3, 20);
        assert_eq!(task.demand_up_to(Slots::new(0)), Slots::ZERO);
        assert_eq!(task.demand_up_to(Slots::new(19)), Slots::ZERO);
        assert_eq!(task.demand_up_to(Slots::new(20)), Slots::new(3));
        assert_eq!(task.demand_up_to(Slots::new(119)), Slots::new(3));
        assert_eq!(task.demand_up_to(Slots::new(120)), Slots::new(6));
        assert_eq!(task.demand_up_to(Slots::new(1020)), Slots::new(33));
    }

    #[test]
    fn with_relative_deadline_revalidates() {
        let task = t(100, 3, 40);
        let half = task.with_relative_deadline(Slots::new(20)).unwrap();
        assert_eq!(half.relative_deadline(), Slots::new(20));
        assert_eq!(half.period(), Slots::new(100));
        assert!(task.with_relative_deadline(Slots::new(2)).is_err());
    }
}
