//! Sets of periodic tasks sharing one link, and the quantities the paper's
//! feasibility analysis needs: utilisation, hyperperiod, busy period and the
//! workload function `h(t)` (Eq. 18.3) with its check-points (Eq. 18.5).

use rt_types::Slots;

use crate::task::PeriodicTask;

/// An exact rational utilisation value `num/den`, kept reduced.
///
/// Using an exact fraction (rather than accumulating floats) makes the
/// "utilisation ≤ 1" constraint of the feasibility test deterministic even
/// for hundreds of channels with awkward periods.  When the exact arithmetic
/// would overflow `u128` (pathologically co-prime periods), the value is
/// rounded *up* to a fixed-point approximation, so the admission test can
/// become slightly pessimistic but never optimistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Utilisation {
    num: u128,
    den: u128,
}

/// Denominator used when exact arithmetic has to fall back to fixed point.
const FIXED_DEN: u128 = 1 << 40;
/// Denominator bound above which fractions are converted to fixed point to
/// keep subsequent arithmetic overflow-free.
const MAX_EXACT_DEN: u128 = 1 << 80;

impl Utilisation {
    /// Zero utilisation.
    pub const ZERO: Utilisation = Utilisation { num: 0, den: 1 };

    /// Build the utilisation `capacity / period` of one task.
    pub fn of_task(task: &PeriodicTask) -> Utilisation {
        Utilisation::from_ratio(task.capacity().get() as u128, task.period().get() as u128)
    }

    /// Build from an arbitrary ratio (`den` must be non-zero).
    pub fn from_ratio(num: u128, den: u128) -> Utilisation {
        assert!(den != 0, "utilisation denominator must be non-zero");
        let mut u = Utilisation { num, den };
        u.reduce();
        u
    }

    fn reduce(&mut self) {
        let g = gcd_u128(self.num, self.den);
        if g > 1 {
            self.num /= g;
            self.den /= g;
        }
    }

    /// Convert to fixed point with denominator [`FIXED_DEN`], rounding the
    /// numerator up (conservative for admission control).
    fn to_fixed(self) -> Utilisation {
        if self.den == FIXED_DEN {
            return self;
        }
        let q = self.num / self.den;
        let r = self.num % self.den;
        // r < den <= MAX_EXACT_DEN = 2^80, FIXED_DEN = 2^40, so r * FIXED_DEN
        // stays well inside u128.
        let frac = (r * FIXED_DEN).div_ceil(self.den);
        Utilisation {
            num: q * FIXED_DEN + frac,
            den: FIXED_DEN,
        }
    }

    /// Add another utilisation.  Exact whenever the intermediate values fit;
    /// otherwise both operands are rounded up to fixed point first.
    #[allow(clippy::should_implement_trait)] // consuming, infallible sum — the name mirrors the maths
    pub fn add(self, other: Utilisation) -> Utilisation {
        // a/b + c/d = (a*(d/g) + c*(b/g)) / (b*(d/g)) with g = gcd(b, d).
        let g = gcd_u128(self.den, other.den);
        let lb = self.den / g;
        let rb = other.den / g;
        let exact = (|| {
            let den = self.den.checked_mul(rb)?;
            if den > MAX_EXACT_DEN {
                return None;
            }
            let num = self
                .num
                .checked_mul(rb)?
                .checked_add(other.num.checked_mul(lb)?)?;
            Some(Utilisation::from_ratio(num, den))
        })();
        match exact {
            Some(u) => u,
            None => {
                let a = self.to_fixed();
                let b = other.to_fixed();
                Utilisation::from_ratio(a.num.saturating_add(b.num), FIXED_DEN)
            }
        }
    }

    /// `true` if the utilisation is strictly greater than 1.
    pub fn exceeds_one(self) -> bool {
        self.num > self.den
    }

    /// The value as a float (for reporting only).
    pub fn as_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

/// A set of periodic tasks competing for one directed link.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskSet {
    tasks: Vec<PeriodicTask>,
}

impl TaskSet {
    /// The empty task set.
    pub fn new() -> Self {
        TaskSet::default()
    }

    /// Build from a vector of tasks.
    pub fn from_tasks(tasks: Vec<PeriodicTask>) -> Self {
        TaskSet { tasks }
    }

    /// Number of tasks (the paper's *LinkLoad* of the link).
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if there are no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The tasks.
    pub fn tasks(&self) -> &[PeriodicTask] {
        &self.tasks
    }

    /// Add a task.
    pub fn push(&mut self, task: PeriodicTask) {
        self.tasks.push(task);
    }

    /// Total utilisation `U = Σ C_i / P_i` (Eq. 18.2), exact.
    pub fn utilisation(&self) -> Utilisation {
        self.tasks
            .iter()
            .fold(Utilisation::ZERO, |acc, t| acc.add(Utilisation::of_task(t)))
    }

    /// Total utilisation as a float (reporting only).
    pub fn utilisation_f64(&self) -> f64 {
        self.tasks.iter().map(|t| t.utilisation()).sum()
    }

    /// The hyperperiod (least common multiple of all periods), or `None` if
    /// it overflows `u64` or the set is empty.
    pub fn hyperperiod(&self) -> Option<Slots> {
        if self.tasks.is_empty() {
            return None;
        }
        let mut lcm = Slots::ONE;
        for t in &self.tasks {
            lcm = lcm.checked_lcm(t.period())?;
        }
        Some(lcm)
    }

    /// Length of the first busy period: the smallest fixed point of
    /// `L = Σ ceil(L / P_i) · C_i`, starting from `L = Σ C_i`.
    ///
    /// Diverges when utilisation exceeds 1, so the iteration is capped at
    /// `cap`; returns `None` if no fixed point is found below the cap.
    pub fn busy_period(&self, cap: Slots) -> Option<Slots> {
        if self.tasks.is_empty() {
            return Some(Slots::ZERO);
        }
        let mut l: Slots = self.tasks.iter().map(|t| t.capacity()).sum();
        loop {
            if l > cap {
                return None;
            }
            let next: Slots = self
                .tasks
                .iter()
                .map(|t| t.capacity().saturating_mul(l.div_ceil(t.period())))
                .sum();
            if next == l {
                return Some(l);
            }
            l = next;
        }
    }

    /// The workload function `h(t)` of Eq. 18.3: the total capacity of all
    /// jobs with absolute deadline no later than `t`, assuming synchronous
    /// release at time zero.
    pub fn workload(&self, t: Slots) -> Slots {
        self.tasks.iter().map(|task| task.demand_up_to(t)).sum()
    }

    /// The deadline check-points of Eq. 18.5 that lie in `(0, limit]`, in
    /// increasing order without duplicates: every `t = m·P_i + d_i`.
    ///
    /// Only at these points can `h(t)` increase, so Constraint 2 only needs
    /// to be evaluated there.
    pub fn checkpoints(&self, limit: Slots) -> Vec<Slots> {
        let mut points = Vec::new();
        for task in &self.tasks {
            let mut t = task.relative_deadline();
            while t <= limit {
                if !t.is_zero() {
                    points.push(t);
                }
                match t.checked_add(task.period()) {
                    Some(next) => t = next,
                    None => break,
                }
            }
        }
        points.sort_unstable();
        points.dedup();
        points
    }
}

impl FromIterator<PeriodicTask> for TaskSet {
    fn from_iter<I: IntoIterator<Item = PeriodicTask>>(iter: I) -> Self {
        TaskSet {
            tasks: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::random_task_vec;
    use rt_types::rng::Xoshiro256;

    fn task(p: u64, c: u64, d: u64) -> PeriodicTask {
        PeriodicTask::new(Slots::new(p), Slots::new(c), Slots::new(d)).unwrap()
    }

    #[test]
    fn utilisation_exact_arithmetic() {
        let u = Utilisation::from_ratio(1, 3)
            .add(Utilisation::from_ratio(1, 3))
            .add(Utilisation::from_ratio(1, 3));
        assert!(!u.exceeds_one());
        assert!(!u.exceeds_one());
        assert_eq!(u, Utilisation::from_ratio(1, 1));
        let over = u.add(Utilisation::from_ratio(1, 1_000_000));
        assert!(over.exceeds_one());
    }

    #[test]
    fn utilisation_of_paper_channel() {
        // C=3, P=100 -> 0.03 each; 33 fit under 1.0, 34 exceed it.
        let mut set = TaskSet::new();
        for _ in 0..33 {
            set.push(task(100, 3, 40));
        }
        assert!(!set.utilisation().exceeds_one());
        set.push(task(100, 3, 40));
        assert!(set.utilisation().exceeds_one());
        assert!((set.utilisation_f64() - 1.02).abs() < 1e-9);
    }

    #[test]
    fn hyperperiod_lcm() {
        let set = TaskSet::from_tasks(vec![task(4, 1, 4), task(6, 1, 6), task(10, 1, 10)]);
        assert_eq!(set.hyperperiod(), Some(Slots::new(60)));
        assert_eq!(TaskSet::new().hyperperiod(), None);
        // Overflow is reported as None.
        let huge = TaskSet::from_tasks(vec![
            task(u64::MAX - 1, 1, u64::MAX - 1),
            task(u64::MAX - 2, 1, u64::MAX - 2),
        ]);
        assert_eq!(huge.hyperperiod(), None);
    }

    #[test]
    fn busy_period_fixed_point() {
        // Classic example: two tasks (P=4,C=2), (P=6,C=2).
        // L0 = 4, L1 = 2*ceil(4/4) + 2*ceil(4/6) = 4 -> fixed point 4... but
        // check: ceil(4/4)=1 -> 2, ceil(4/6)=1 -> 2, total 4. Yes, 4.
        let set = TaskSet::from_tasks(vec![task(4, 2, 4), task(6, 2, 6)]);
        assert_eq!(set.busy_period(Slots::new(1000)), Some(Slots::new(4)));

        // Higher load: (P=3,C=2), (P=5,C=1): U = 2/3 + 1/5 = 13/15.
        // L0=3, L1=2*1+1*1=3 -> 3.
        let set = TaskSet::from_tasks(vec![task(3, 2, 3), task(5, 1, 5)]);
        assert_eq!(set.busy_period(Slots::new(1000)), Some(Slots::new(3)));

        // Full utilisation still converges within the hyperperiod.
        let set = TaskSet::from_tasks(vec![task(2, 1, 2), task(4, 2, 4)]);
        assert_eq!(set.busy_period(Slots::new(1000)), Some(Slots::new(4)));

        // Over-utilised sets hit the cap.
        let set = TaskSet::from_tasks(vec![task(2, 2, 2), task(3, 2, 3)]);
        assert_eq!(set.busy_period(Slots::new(10_000)), None);

        // Empty set.
        assert_eq!(
            TaskSet::new().busy_period(Slots::new(10)),
            Some(Slots::ZERO)
        );
    }

    #[test]
    fn workload_function_steps_at_deadlines() {
        let set = TaskSet::from_tasks(vec![task(100, 3, 20), task(50, 5, 30)]);
        assert_eq!(set.workload(Slots::new(19)), Slots::ZERO);
        assert_eq!(set.workload(Slots::new(20)), Slots::new(3));
        assert_eq!(set.workload(Slots::new(29)), Slots::new(3));
        assert_eq!(set.workload(Slots::new(30)), Slots::new(8));
        assert_eq!(set.workload(Slots::new(80)), Slots::new(13)); // 2nd job of task 2 at 50+30
        assert_eq!(set.workload(Slots::new(120)), Slots::new(6 + 10));
    }

    #[test]
    fn checkpoints_match_eq_18_5() {
        let set = TaskSet::from_tasks(vec![task(100, 3, 20), task(50, 5, 30)]);
        let pts = set.checkpoints(Slots::new(200));
        assert_eq!(
            pts,
            vec![
                Slots::new(20),
                Slots::new(30),
                Slots::new(80),
                Slots::new(120),
                Slots::new(130),
                Slots::new(180),
            ]
        );
        // Duplicates collapse.
        let set = TaskSet::from_tasks(vec![task(10, 1, 5), task(10, 2, 5)]);
        let pts = set.checkpoints(Slots::new(30));
        assert_eq!(pts, vec![Slots::new(5), Slots::new(15), Slots::new(25)]);
    }

    /// h(t) is non-decreasing in t.
    #[test]
    fn prop_workload_monotone() {
        let mut rng = Xoshiro256::new(0x7a5e_0001);
        for _ in 0..128 {
            let tasks = random_task_vec(&mut rng, (1, 7), (2, 49), (1, 9), (1, 59));
            let set = TaskSet::from_tasks(tasks);
            let t1 = rng.below(200);
            let dt = rng.below(200);
            let a = set.workload(Slots::new(t1));
            let b = set.workload(Slots::new(t1 + dt));
            assert!(b >= a);
        }
    }

    /// The exact utilisation agrees with the float within rounding error.
    #[test]
    fn prop_utilisation_matches_float() {
        let mut rng = Xoshiro256::new(0x7a5e_0002);
        for _ in 0..128 {
            let n = rng.range_inclusive(1, 19) as usize;
            let tasks: Vec<PeriodicTask> = (0..n)
                .map(|_| {
                    let p = rng.range_inclusive(2, 999);
                    let c = rng.range_inclusive(1, 99).min(p);
                    PeriodicTask::new(Slots::new(p), Slots::new(c), Slots::new(p)).unwrap()
                })
                .collect();
            let set = TaskSet::from_tasks(tasks);
            let exact = set.utilisation().as_f64();
            let float = set.utilisation_f64();
            assert!((exact - float).abs() < 1e-6);
        }
    }

    /// h(t) only increases at checkpoints: between consecutive checkpoints
    /// the workload is constant.
    #[test]
    fn prop_workload_constant_between_checkpoints() {
        let mut rng = Xoshiro256::new(0x7a5e_0003);
        for _ in 0..64 {
            let tasks = random_task_vec(&mut rng, (1, 5), (2, 29), (1, 4), (1, 39));
            let set = TaskSet::from_tasks(tasks);
            let limit = Slots::new(120);
            let pts = set.checkpoints(limit);
            // Walk every integer t in [0, limit] and verify changes only at
            // checkpoints.
            let mut prev = set.workload(Slots::ZERO);
            for t in 1..=limit.get() {
                let cur = set.workload(Slots::new(t));
                if cur != prev {
                    assert!(
                        pts.contains(&Slots::new(t)),
                        "workload changed at t={t} which is not a checkpoint"
                    );
                }
                prev = cur;
            }
        }
    }
}
