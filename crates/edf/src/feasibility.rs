//! The per-link EDF feasibility test of §18.3.2.
//!
//! A link (one direction of one full-duplex cable) is feasible when the set
//! of channel-halves (periodic tasks) assigned to it can be EDF-scheduled:
//!
//! 1. **First constraint** — the utilisation `U = Σ C_i/P_i` must not exceed
//!    one (Eq. 18.2).  Liu & Layland showed this alone is sufficient when
//!    every task's relative deadline equals its period.  The verdict is that
//!    of the exact rational sum ([`TaskSet::utilisation`]); the tester reads
//!    it off the float sum whenever that is provably the same answer and
//!    pays for the exact fold only in a narrow band around `U = 1`.
//! 2. **Second constraint** — the workload function must satisfy `h(t) ≤ t`
//!    for all `t` (Eq. 18.3).  Following the paper it is enough to check
//!    `1 ≤ t ≤ BusyPeriod` (Eq. 18.4) and, within that range, only the
//!    points `t = m·P_i + d_i` (Eq. 18.5).
//!
//! The tester also offers a *utilisation-only* mode, which is exactly the
//! shortcut the paper attributes to Liu & Layland; the feasibility-ablation
//! experiment uses it to show why the full test is needed when `d < P`.

use rt_types::Slots;

use crate::task::PeriodicTask;
use crate::taskset::{TaskSet, Utilisation};

/// Why a task set was judged infeasible (or why analysis gave up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeasibilityVerdict {
    /// Both constraints hold: the link can be EDF-scheduled.
    Feasible,
    /// Constraint 1 violated: total utilisation exceeds one.
    UtilisationExceeded,
    /// Constraint 2 violated: the workload exceeded the available time at
    /// the given check-point.
    DemandExceeded {
        /// The first check-point at which `h(t) > t`.
        at: Slots,
        /// The workload `h(t)` at that point.
        demand: Slots,
    },
    /// The busy period (or the number of check-points) exceeded the
    /// configured analysis cap, so no guarantee can be given.  Treated as
    /// infeasible by admission control (fail safe).
    AnalysisLimitExceeded,
}

/// The result of a feasibility test, with the quantities that were computed
/// along the way (useful for reporting and for the ablation benchmarks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeasibilityOutcome {
    /// The verdict.
    pub verdict: FeasibilityVerdict,
    /// Total utilisation of the examined set (as a float, for reporting).
    pub utilisation: f64,
    /// The busy period, when it was computed.
    pub busy_period: Option<Slots>,
    /// How many check-points were evaluated for Constraint 2.
    pub checkpoints_examined: usize,
}

impl FeasibilityOutcome {
    /// `true` when the set was judged feasible.
    pub fn is_feasible(&self) -> bool {
        self.verdict == FeasibilityVerdict::Feasible
    }
}

/// Configuration of the feasibility tester.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeasibilityConfig {
    /// Upper bound on the busy-period search (and on check-point values).
    /// If the busy-period iteration has not converged below this bound the
    /// test reports [`FeasibilityVerdict::AnalysisLimitExceeded`].
    pub busy_period_cap: Slots,
    /// If `true`, only Constraint 1 (utilisation ≤ 1) is checked.  This is
    /// exact for implicit-deadline sets and *optimistic* otherwise; used by
    /// the ablation experiments.
    pub utilisation_only: bool,
}

impl Default for FeasibilityConfig {
    fn default() -> Self {
        FeasibilityConfig {
            busy_period_cap: Slots::new(10_000_000),
            utilisation_only: false,
        }
    }
}

/// Per task, how far above the true `U` the exact fold
/// ([`TaskSet::utilisation`]) can land: when a denominator outgrows `u128`
/// range, [`crate::taskset::Utilisation::add`] rounds *both* operands up to
/// a multiple of `2^-40`, less than `2^-40` each — and never rounds down.
const FIXED_ROUND_UP_PER_TASK: f64 = 2.0 / (1u64 << 40) as f64;

/// Per task, a bound on the relative error of [`TaskSet::utilisation_f64`]:
/// each term `C as f64 / P as f64` carries three roundings and the running
/// sum one more per task, so `|F − U| ≤ γ(n+2)·U` with `γ(k) = k·u/(1 − k·u)
/// ≤ 2·k·u`, `u = 2^-53` — at most `(n+2)·2^-52` for any `n` below `2^51`,
/// more tasks than memory holds.  Four times that is budgeted, which also
/// absorbs the roundings of the comparison itself.
const FLOAT_ERROR_PER_TASK: f64 = 4.0 * f64::EPSILON;

/// Half-width of the band around `U = 1` inside which the float sum of `n`
/// terms must not decide Constraint 1.  It grows with `n` because both error
/// sources do, so it is sound for any link load (every term is in `(0, 1]`:
/// a task's capacity never exceeds its period).
fn float_band(n: usize) -> f64 {
    (n as f64 + 3.0) * (FIXED_ROUND_UP_PER_TASK + FLOAT_ERROR_PER_TASK)
}

/// Constraint 1 from the float sum `F` of `n` terms: `Some(answer)` when it
/// is certain to be what `set.utilisation().exceeds_one()` — the reference,
/// fixed-point round-up included — would answer, `None` inside the band.
///
/// Write `E` for the reference's value and `b` for the band.  `E ≥ U`, so
/// `F > 1 + b` gives `U ≥ F·(1 − γ) > 1` (as `b ≥ 4γ`) and the reference says
/// "exceeded".  `E < U + n·2^-39`, so `F < 1 − b` gives `E < F + 2γ + n·2^-39
/// < 1` and the reference says "fits".  A sum that is not a number (it cannot
/// be) fails both comparisons and takes the exact fold.
fn float_exceeds_one(sum: f64, n: usize) -> Option<bool> {
    let band = float_band(n);
    if sum > 1.0 + band {
        Some(true)
    } else if sum < 1.0 - band {
        Some(false)
    } else {
        None
    }
}

/// Scratch space lent to [`FeasibilityTester::test_slice`]: the deadline
/// events of the Constraint 2 scan.  A caller that tests link after link
/// keeps one and the scan stops asking the allocator for anything once the
/// buffer has grown to the busiest link's event count.
#[derive(Debug, Default)]
pub struct DemandScratch {
    /// `(t, C_i)` for every job deadline `t = m·P_i + d_i ≤ BusyPeriod`.
    events: Vec<(Slots, Slots)>,
}

/// The feasibility tester (stateless apart from its configuration).
///
/// There is one implementation of the test, [`FeasibilityTester::test_slice`];
/// [`FeasibilityTester::test`] is a thin caller of it.  The textbook formulation it replaced — `h(t)`
/// recomputed from scratch at every check-point, the busy-period search capped
/// by the hyperperiod `H` — lives on as the `oracle` of this module's tests,
/// built from [`TaskSet`]'s public `hyperperiod`/`busy_period`/`checkpoints`/
/// `workload`; a seeded differential property holds the two to equal
/// [`FeasibilityOutcome`]s, field for field.  `H` is not computed here: once
/// Constraint 1 has answered "fits", `U ≤ 1`, so `Σ C_i ≤ W(H) = U·H ≤ H` and
/// the monotone busy-period iteration never passes `H` — of `min(H,
/// busy_period_cap)` only the cap can ever bind.
#[derive(Debug, Clone, Copy, Default)]
pub struct FeasibilityTester {
    config: FeasibilityConfig,
}

impl FeasibilityTester {
    /// A tester with the default configuration (full two-constraint test).
    pub fn new() -> Self {
        Self::default()
    }

    /// A tester with an explicit configuration.
    pub fn with_config(config: FeasibilityConfig) -> Self {
        FeasibilityTester { config }
    }

    /// A tester that checks only the utilisation bound (Constraint 1).
    pub fn utilisation_only() -> Self {
        FeasibilityTester {
            config: FeasibilityConfig {
                utilisation_only: true,
                ..FeasibilityConfig::default()
            },
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> FeasibilityConfig {
        self.config
    }

    /// Run the feasibility test on `set`.
    pub fn test(&self, set: &TaskSet) -> FeasibilityOutcome {
        self.test_slice(set.tasks(), None, &mut DemandScratch::default())
    }

    /// The test itself, on the tasks of `held` followed by `candidate` (if
    /// any), copying neither: what a link holds is tested where it lies.
    /// With a candidate, this is exactly the question the switch answers
    /// during admission control.
    pub fn test_slice(
        &self,
        held: &[PeriodicTask],
        candidate: Option<&PeriodicTask>,
        scratch: &mut DemandScratch,
    ) -> FeasibilityOutcome {
        let tasks = || held.iter().chain(candidate);
        let utilisation: f64 = tasks().map(|t| t.utilisation()).sum();
        let outcome = |verdict, busy_period, checkpoints_examined| FeasibilityOutcome {
            verdict,
            utilisation,
            busy_period,
            checkpoints_examined,
        };

        // Constraint 1: U <= 1, read off the float sum wherever that is
        // provably the exact comparison's answer, and from the exact
        // rational fold inside the band around 1 where it is not.
        let n = held.len() + usize::from(candidate.is_some());
        let exceeded = float_exceeds_one(utilisation, n).unwrap_or_else(|| {
            tasks()
                .fold(Utilisation::ZERO, |u, t| u.add(Utilisation::of_task(t)))
                .exceeds_one()
        });
        if exceeded {
            return outcome(FeasibilityVerdict::UtilisationExceeded, None, 0);
        }

        // Liu & Layland shortcut: with implicit deadlines (d == P for every
        // task, the empty set included) the utilisation bound is necessary
        // and sufficient.
        if self.config.utilisation_only || tasks().all(|t| t.is_implicit_deadline()) {
            return outcome(FeasibilityVerdict::Feasible, None, 0);
        }

        // Constraint 2 is checked inside the first busy period (Eq. 18.4):
        // the least fixed point of W(L) = Σ ceil(L/P_i)·C_i from L = Σ C_i.
        //
        // Only `busy_period_cap` bounds the search, not the hyperperiod H as
        // well.  Constraint 1 answered "fits", so U <= 1 (neither the float
        // band nor the exact fold's round-up says "fits" for a U > 1).  Then
        // Σ C_i <= Σ C_i·(H/P_i) = U·H <= H, W is monotone and W(H) = U·H <= H:
        // no iterate ever passes H, and `min(H, busy_period_cap)` could only
        // ever bind through the cap.
        let (mut busy_period, least_period) = tasks()
            .fold((Slots::ZERO, Slots::MAX), |(capacity, period), t| {
                (capacity + t.capacity(), period.min(t.period()))
            });
        // Σ C_i no longer than the least period holds one job of every task,
        // so W(Σ C_i) = Σ C_i: the search ends where it starts, without a
        // pass over the tasks.
        let single_job = busy_period <= least_period;
        loop {
            if busy_period > self.config.busy_period_cap {
                return outcome(FeasibilityVerdict::AnalysisLimitExceeded, None, 0);
            }
            if single_job {
                break;
            }
            // A busy period no longer than a task's period holds one job of
            // it (L >= Σ C_i >= 1): answered without dividing.
            let jobs = |t: &PeriodicTask| {
                if busy_period <= t.period() {
                    1
                } else {
                    busy_period.div_ceil(t.period())
                }
            };
            let next: Slots = tasks().map(|t| t.capacity().saturating_mul(jobs(t))).sum();
            if next == busy_period {
                break;
            }
            busy_period = next;
        }

        // h(t) <= t at the Eq. 18.5 check-points t = m·P_i + d_i (Eq. 18.3).
        // h steps by C_i at each such deadline and nowhere else, so the
        // deadlines are gathered once, sorted, and h carried as a running
        // sum: additions, where recomputing h(t) per check-point costs a
        // division per task.  (d_i >= C_i >= 1: no event sits at t = 0.)
        // A ledger's book lists its tasks in deadline order, so the events
        // of a busy period holding one job per task arrive sorted but for
        // the candidate's, and the sort has next to nothing to do.
        let events = &mut scratch.events;
        events.clear();
        for task in tasks() {
            let mut at = task.relative_deadline();
            while at <= busy_period {
                events.push((at, task.capacity()));
                match at.checked_add(task.period()) {
                    Some(next) => at = next,
                    None => break,
                }
            }
        }
        events.sort_unstable_by_key(|&(at, _)| at);
        let (mut demand, mut examined) = (Slots::ZERO, 0);
        for (i, &(at, capacity)) in events.iter().enumerate() {
            demand += capacity;
            // Deadlines sharing an instant are one check-point, examined
            // once all of them are counted.
            if events.get(i + 1).is_some_and(|&(next, _)| next == at) {
                continue;
            }
            examined += 1;
            if demand > at {
                let verdict = FeasibilityVerdict::DemandExceeded { at, demand };
                return outcome(verdict, Some(busy_period), examined);
            }
        }
        outcome(FeasibilityVerdict::Feasible, Some(busy_period), examined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::{adversarial_seeds, random_task_vec, random_tasks};
    use rt_types::rng::Xoshiro256;

    fn task(p: u64, c: u64, d: u64) -> PeriodicTask {
        PeriodicTask::new(Slots::new(p), Slots::new(c), Slots::new(d)).unwrap()
    }

    /// The oracle: the textbook test [`FeasibilityTester::test_slice`]
    /// replaced, built from [`TaskSet`]'s public pieces.  Constraint 1 always
    /// from the exact rational fold, the busy-period search capped by the
    /// hyperperiod as well as the configured cap, and `h(t)` recomputed from
    /// scratch — a division per task — at every check-point.
    fn oracle(tester: &FeasibilityTester, set: &TaskSet) -> FeasibilityOutcome {
        let outcome = |verdict, busy_period, checkpoints_examined| FeasibilityOutcome {
            verdict,
            utilisation: set.utilisation_f64(),
            busy_period,
            checkpoints_examined,
        };
        if set.utilisation().exceeds_one() {
            return outcome(FeasibilityVerdict::UtilisationExceeded, None, 0);
        }
        let all_implicit = set.tasks().iter().all(|t| t.is_implicit_deadline());
        if tester.config.utilisation_only || all_implicit || set.is_empty() {
            return outcome(FeasibilityVerdict::Feasible, None, 0);
        }
        let cap = match set.hyperperiod() {
            Some(h) => h.min(tester.config.busy_period_cap),
            None => tester.config.busy_period_cap,
        };
        let Some(busy_period) = set.busy_period(cap) else {
            return outcome(FeasibilityVerdict::AnalysisLimitExceeded, None, 0);
        };
        let mut examined = 0;
        for t in set.checkpoints(busy_period) {
            examined += 1;
            let demand = set.workload(t);
            if demand > t {
                let verdict = FeasibilityVerdict::DemandExceeded { at: t, demand };
                return outcome(verdict, Some(busy_period), examined);
            }
        }
        outcome(FeasibilityVerdict::Feasible, Some(busy_period), examined)
    }

    #[test]
    fn empty_set_is_feasible() {
        let out = FeasibilityTester::new().test(&TaskSet::new());
        assert!(out.is_feasible());
        assert_eq!(out.utilisation, 0.0);
    }

    #[test]
    fn implicit_deadline_uses_utilisation_bound_only() {
        // Three tasks with d = P and U exactly 1: feasible by Liu & Layland.
        let set = TaskSet::from_tasks(vec![task(2, 1, 2), task(4, 1, 4), task(4, 1, 4)]);
        let out = FeasibilityTester::new().test(&set);
        assert!(out.is_feasible());
        assert_eq!(out.checkpoints_examined, 0);

        // Push it over 1.
        let mut set = set;
        set.push(task(100, 1, 100));
        let out = FeasibilityTester::new().test(&set);
        assert_eq!(out.verdict, FeasibilityVerdict::UtilisationExceeded);
    }

    #[test]
    fn paper_parameters_per_uplink_limit() {
        // SDPS halves the deadline of C=3, P=100, D=40 channels to 20 slots.
        // On one uplink at most floor(20/3) = 6 such halves fit.
        let tester = FeasibilityTester::new();
        let with_candidate = |set: &TaskSet, candidate: &PeriodicTask| {
            tester.test_slice(set.tasks(), Some(candidate), &mut DemandScratch::default())
        };
        let mut set = TaskSet::new();
        for i in 0..7 {
            let out = with_candidate(&set, &task(100, 3, 20));
            if i < 6 {
                assert!(out.is_feasible(), "channel {i} should be accepted");
                set.push(task(100, 3, 20));
            } else {
                assert!(!out.is_feasible(), "channel {i} should be rejected");
                assert!(matches!(
                    out.verdict,
                    FeasibilityVerdict::DemandExceeded { at, demand }
                        if at == Slots::new(20) && demand == Slots::new(21)
                ));
            }
        }
        // With ADPS-style asymmetric deadlines (d_u = 33) the same uplink
        // fits floor(33/3) = 11 halves.
        let mut set = TaskSet::new();
        for _ in 0..11 {
            let out = with_candidate(&set, &task(100, 3, 33));
            assert!(out.is_feasible());
            set.push(task(100, 3, 33));
        }
        assert!(!with_candidate(&set, &task(100, 3, 33)).is_feasible());
    }

    #[test]
    fn demand_violation_is_detected_even_with_low_utilisation() {
        // Two tasks, each C=4 with deadline 5: at t=5 the demand is 8 > 5,
        // although the utilisation is only 8/100.
        let set = TaskSet::from_tasks(vec![task(50, 4, 5), task(50, 4, 5)]);
        let out = FeasibilityTester::new().test(&set);
        assert!(matches!(
            out.verdict,
            FeasibilityVerdict::DemandExceeded { at, demand }
                if at == Slots::new(5) && demand == Slots::new(8)
        ));
        // The utilisation-only tester happily (and wrongly) accepts it.
        let out = FeasibilityTester::utilisation_only().test(&set);
        assert!(out.is_feasible());
    }

    #[test]
    fn constrained_deadlines_feasible_case() {
        // C=1, P=10, d=2 for five tasks: at t=2 demand is 5 > 2? Yes — so
        // that is infeasible.  Use d spread out instead.
        let set = TaskSet::from_tasks(vec![
            task(10, 1, 2),
            task(10, 1, 4),
            task(10, 1, 6),
            task(10, 1, 8),
            task(10, 1, 10),
        ]);
        let out = FeasibilityTester::new().test(&set);
        assert!(out.is_feasible());
        assert!(out.checkpoints_examined > 0);
    }

    #[test]
    fn analysis_cap_reported() {
        let set = TaskSet::from_tasks(vec![task(7, 3, 6), task(11, 5, 9)]);
        let tester = FeasibilityTester::with_config(FeasibilityConfig {
            busy_period_cap: Slots::new(2),
            utilisation_only: false,
        });
        let out = tester.test(&set);
        assert_eq!(out.verdict, FeasibilityVerdict::AnalysisLimitExceeded);
        assert!(!out.is_feasible());
    }

    /// A set of `n` tasks, every one with `C/P = 1/n` exactly (so `U = 1`)
    /// and a constrained deadline (so Constraint 2 runs as well).
    fn unit_utilisation_set(n: u64) -> Vec<PeriodicTask> {
        (0..n).map(|i| task(n, 1, 1 + i % n)).collect()
    }

    /// The tester agrees, field for field, with the exact-only reference:
    /// the oracle takes Constraint 1 from the rational fold, always.
    #[test]
    fn prop_float_shortcut_matches_the_exact_reference() {
        fn check(tasks: Vec<PeriodicTask>) -> Option<bool> {
            let set = TaskSet::from_tasks(tasks);
            let float = set.utilisation_f64();
            let exact = set.utilisation().exceeds_one();
            for tester in [
                FeasibilityTester::new(),
                FeasibilityTester::utilisation_only(),
            ] {
                assert_eq!(tester.test(&set), oracle(&tester, &set), "{set:?}");
            }
            let decided = float_exceeds_one(float, set.len());
            if let Some(answer) = decided {
                assert_eq!(answer, exact, "the float sum decided wrongly: {set:?}");
            }
            decided
        }

        // Heterogeneous random sets: light, around the bound, and heavy, with
        // awkward (mutually prime-ish) periods.
        let mut rng = Xoshiro256::new(0xfea5_0003);
        let (mut fast, mut exceeded) = (0, 0);
        for _ in 0..512 {
            let tasks = random_task_vec(&mut rng, (1, 40), (2, 997), (1, 60), (1, 1200));
            match check(tasks) {
                Some(true) => exceeded += 1,
                Some(false) => fast += 1,
                None => {}
            }
        }
        assert!(
            fast > 50 && exceeded > 50,
            "{fast} fit, {exceeded} exceeded"
        );

        // Huge, mutually awkward periods with every share C/P within 1/P of
        // 1/n: U lands within n/P of 1, on either side of it and (with the
        // size of P drawn per set) on either side of the band's edge, while the
        // exact fold leaves u128 range and rounds up in fixed point — the
        // regime the band's larger term exists for.
        let (mut banded, mut decided, mut pessimistic) = (0, 0, 0);
        for _ in 0..512 {
            let n = rng.range_inclusive(2, 30);
            let bits = rng.range_inclusive(30, 46);
            let tasks: Vec<PeriodicTask> = (0..n)
                .map(|_| {
                    let p = rng.range_inclusive(1 << bits, 2 << bits);
                    task(p, p / n + rng.below(2), p / 2 + 1)
                })
                .collect();
            // The round-up at work: the reference says "exceeded" although
            // the sum itself stays below 1.
            let set = TaskSet::from_tasks(tasks.clone());
            if set.utilisation().exceeds_one() && set.utilisation_f64() < 1.0 {
                pessimistic += 1;
            }
            match check(tasks) {
                None => banded += 1,
                Some(_) => decided += 1,
            }
        }
        assert!(
            banded > 50 && decided > 50 && pessimistic > 0,
            "{banded} in the band, {decided} decided by the float, {pessimistic} rounded over 1"
        );

        // Sets built to sit at U = 1 exactly, and one task either side of it.
        let at_one: Vec<Vec<PeriodicTask>> = vec![
            vec![task(2, 1, 2), task(4, 1, 3), task(4, 1, 4)],
            vec![task(3, 1, 2), task(3, 1, 3), task(3, 1, 3)],
            unit_utilisation_set(7),
            unit_utilisation_set(33),
        ];
        for tasks in at_one {
            // U = 1 sits inside the band: the exact fold must decide.
            assert_eq!(check(tasks.clone()), None, "{tasks:?}");
            assert!(!TaskSet::from_tasks(tasks.clone())
                .utilisation()
                .exceeds_one());
            // A hair over, by less than the band: the exact fold again.
            let mut over = tasks.clone();
            over.push(task(10_000_000_000_000, 1, 5));
            assert_eq!(check(over.clone()), None, "{over:?}");
            assert_eq!(
                FeasibilityTester::new()
                    .test(&TaskSet::from_tasks(over))
                    .verdict,
                FeasibilityVerdict::UtilisationExceeded
            );
            // Clearly over and clearly under: the float sum decides.
            let mut heavy = tasks.clone();
            heavy.push(task(100, 1, 50));
            assert_eq!(check(heavy), Some(true));
            let mut light = tasks;
            light.pop();
            assert_eq!(check(light), Some(false));
        }
    }

    /// What one differential case exercised, so the property can assert that
    /// its generator reaches every class it claims to cover.
    #[derive(Debug, Default)]
    struct Coverage {
        cases: usize,
        empty: usize,
        all_implicit: usize,
        deadline_past_period: usize,
        at_one: usize,
        band_fits: usize,
        band_exceeded: usize,
        float_fits: usize,
        float_exceeded: usize,
        shared_checkpoint: usize,
        violation_at_first: usize,
        violation_at_last: usize,
        feasible_by_demand: usize,
        limit_exceeded: usize,
        // Sets that arrived as a ledger's book plus a candidate (every task
        // but the last in deadline order); all but the cap past Constraint 1.
        book_at_least_period: usize,
        book_one_slot_over: usize,
        book_tied_deadline: usize,
        book_infeasible: usize,
        book_implicit: usize,
        book_capped: usize,
    }

    impl Coverage {
        fn record(&mut self, tester: &FeasibilityTester, set: &TaskSet, out: &FeasibilityOutcome) {
            let tasks = set.tasks();
            self.cases += 1;
            let book = tasks.split_last().filter(|(_, held)| {
                !held.is_empty() && held.is_sorted_by_key(|t| t.relative_deadline())
            });
            if let Some((candidate, held)) = book {
                self.book_capped +=
                    usize::from(out.verdict == FeasibilityVerdict::AnalysisLimitExceeded);
                if out.busy_period.is_some() {
                    // `Σ C` at the least period holds one job of every task
                    // (the single-job shortcut's edge); one slot over, the
                    // busy-period search iterates.
                    let total: Slots = tasks.iter().map(|t| t.capacity()).sum();
                    let least = tasks.iter().map(|t| t.period()).min().unwrap();
                    self.book_at_least_period += usize::from(total == least);
                    self.book_one_slot_over += usize::from(total == least + Slots::ONE);
                    let deadline = candidate.relative_deadline();
                    self.book_tied_deadline +=
                        usize::from(held.iter().any(|t| t.relative_deadline() == deadline));
                    let alone = tester.test(&TaskSet::from_tasks(held.to_vec())).verdict;
                    self.book_infeasible +=
                        usize::from(matches!(alone, FeasibilityVerdict::DemandExceeded { .. }));
                    self.book_implicit +=
                        usize::from(held.iter().all(|t| t.is_implicit_deadline()));
                }
            }
            self.empty += usize::from(tasks.is_empty());
            self.all_implicit +=
                usize::from(!tasks.is_empty() && tasks.iter().all(|t| t.is_implicit_deadline()));
            self.deadline_past_period +=
                usize::from(tasks.iter().any(|t| !t.is_constrained_deadline()));
            let exact = set.utilisation();
            self.at_one += usize::from(exact == Utilisation::from_ratio(1, 1));
            match (
                float_exceeds_one(set.utilisation_f64(), set.len()),
                exact.exceeds_one(),
            ) {
                (None, false) => self.band_fits += 1,
                (None, true) => self.band_exceeded += 1,
                (Some(false), _) => self.float_fits += 1,
                (Some(true), _) => self.float_exceeded += 1,
            }
            self.limit_exceeded +=
                usize::from(out.verdict == FeasibilityVerdict::AnalysisLimitExceeded);
            let Some(busy_period) = out.busy_period else {
                return;
            };
            let checkpoints = set.checkpoints(busy_period);
            let deadlines: usize = tasks
                .iter()
                .map(|t| TaskSet::from_tasks(vec![*t]).checkpoints(busy_period).len())
                .sum();
            // Only a scan that got past the shared instant examined it once.
            self.shared_checkpoint += usize::from(
                deadlines > checkpoints.len() && out.checkpoints_examined == checkpoints.len(),
            );
            match out.verdict {
                FeasibilityVerdict::DemandExceeded { at, .. } if checkpoints.len() > 1 => {
                    self.violation_at_first += usize::from(Some(&at) == checkpoints.first());
                    self.violation_at_last += usize::from(Some(&at) == checkpoints.last());
                }
                FeasibilityVerdict::Feasible if !tester.config.utilisation_only => {
                    self.feasible_by_demand += 1
                }
                _ => {}
            }
        }
    }

    /// `test_slice` — over a set, and over a held slice plus a candidate, one
    /// scratch lent to every call — equals the oracle on the whole
    /// [`FeasibilityOutcome`]: verdict with `at`/`demand`, `busy_period`,
    /// `checkpoints_examined`, and `utilisation` to the bit.  Half the sets
    /// arrive as a ledger hands its book over: the held slice in deadline
    /// order, the candidate last.  Those reach `Σ C` at the least period and
    /// one slot over, a candidate deadline tying held ones, a book infeasible
    /// on its own, a book of implicit deadlines only, and the analysis cap.
    #[test]
    fn prop_slice_test_matches_the_oracle() {
        let mut scratch = DemandScratch::default();
        let mut seen = Coverage::default();
        let mut coin = Xoshiro256::new(0xb00c_3000);
        let mut check = |mut tasks: Vec<PeriodicTask>, cap: u64| {
            if coin.below(2) == 0 {
                if let Some((_, held)) = tasks.split_last_mut() {
                    held.sort_by_key(|t| t.relative_deadline());
                }
            }
            let set = TaskSet::from_tasks(tasks);
            for tester in [
                FeasibilityTester::new(),
                FeasibilityTester::utilisation_only(),
                // A cap small enough that the analysis gives up on both sides.
                FeasibilityTester::with_config(FeasibilityConfig {
                    busy_period_cap: Slots::new(cap),
                    utilisation_only: false,
                }),
            ] {
                let expected = oracle(&tester, &set);
                let bits = |o: &FeasibilityOutcome| o.utilisation.to_bits();
                let whole = tester.test_slice(set.tasks(), None, &mut scratch);
                assert_eq!(whole, expected, "{set:?}");
                assert_eq!(bits(&whole), bits(&expected), "{set:?}");
                if let Some((candidate, held)) = set.tasks().split_last() {
                    let split = tester.test_slice(held, Some(candidate), &mut scratch);
                    assert_eq!(split, expected, "{set:?}");
                    assert_eq!(bits(&split), bits(&expected), "{set:?}");
                }
                seen.record(&tester, &set, &expected);
            }
        };

        for seed in 0..adversarial_seeds() {
            let mut rng = Xoshiro256::new(0xfea5_1600 + seed);
            let cap = |rng: &mut Xoshiro256| rng.range_inclusive(1, 60);
            check(Vec::new(), cap(&mut rng));
            for _ in 0..200 {
                // Small and dense: short busy periods full of check-points,
                // deadlines on either side of the period, violations anywhere.
                let tasks = random_task_vec(&mut rng, (1, 6), (2, 16), (1, 4), (1, 40));
                check(tasks, cap(&mut rng));
                // Link-like: many tasks, long awkward periods, light to heavy.
                let tasks = random_task_vec(&mut rng, (1, 40), (2, 997), (1, 60), (1, 1200));
                check(tasks, cap(&mut rng));
                // Implicit deadlines only: Liu & Layland decides.
                let tasks = random_task_vec(&mut rng, (1, 12), (2, 60), (1, 6), (1, 1))
                    .into_iter()
                    .map(|t| t.with_relative_deadline(t.period()).unwrap())
                    .collect();
                check(tasks, cap(&mut rng));
            }
            for _ in 0..20 {
                // A staircase with one stumble: capacities that fill a busy
                // period of their sum, each deadline at the running total —
                // except one a slot early, which is the first violation: at
                // the last check-point when the last step stumbles, at the
                // first (two tasks sharing it) when the second does.
                let k = rng.range_inclusive(2, 6) as usize;
                let capacities: Vec<u64> = (0..k).map(|_| rng.range_inclusive(1, 4)).collect();
                let total: u64 = capacities.iter().sum();
                let stumble = rng.range_inclusive(1, k as u64 - 1) as usize;
                let mut deadlines: Vec<u64> = capacities
                    .iter()
                    .scan(0, |sum, c| {
                        *sum += c;
                        Some(*sum)
                    })
                    .collect();
                deadlines[stumble] -= 1;
                if stumble == 1 {
                    deadlines[0] = deadlines[1];
                }
                let tasks = (0..k)
                    .map(|i| {
                        let period = rng.range_inclusive(total, 3 * total);
                        task(period, capacities[i], deadlines[i])
                    })
                    .collect();
                check(tasks, cap(&mut rng));
                // U = 1 exactly, then a hair over it (inside the float band).
                let mut tasks = unit_utilisation_set(rng.range_inclusive(2, 40));
                check(tasks.clone(), cap(&mut rng));
                tasks.push(task(10_000_000_000_000, 1, rng.range_inclusive(1, 9)));
                check(tasks, cap(&mut rng));
                // Every share within 1/P of 1/n over huge awkward periods: U
                // within n/P of 1, on either side of 1 and of the band's edge.
                let n = rng.range_inclusive(2, 30);
                let bits = rng.range_inclusive(30, 46);
                let tasks = (0..n)
                    .map(|_| {
                        let p = rng.range_inclusive(1 << bits, 2 << bits);
                        task(p, p / n + rng.below(2), p / 2 + 1)
                    })
                    .collect();
                check(tasks, cap(&mut rng));
                // The single-job edge: `Σ C` is the least period exactly, or
                // one slot more; the last deadline half the time on another.
                let k = rng.range_inclusive(2, 8) as usize;
                let capacities: Vec<u64> = (0..k).map(|_| rng.range_inclusive(1, 6)).collect();
                let total: u64 = capacities.iter().sum();
                let least = total - rng.below(2);
                let shortest = rng.below(k as u64) as usize;
                let mut tasks: Vec<PeriodicTask> = (0..k)
                    .map(|i| {
                        let c = capacities[i];
                        let p = if i == shortest {
                            least
                        } else {
                            rng.range_inclusive(total, 3 * total)
                        };
                        task(p, c, rng.range_inclusive(c, p + total))
                    })
                    .collect();
                let on = tasks[rng.below(k as u64 - 1) as usize].relative_deadline();
                let last = tasks.last_mut().unwrap();
                if rng.below(2) == 0 && on >= last.capacity() {
                    *last = last.with_relative_deadline(on).unwrap();
                }
                check(tasks, cap(&mut rng));
                // A book of implicit deadlines, then a constrained candidate.
                let mut tasks: Vec<PeriodicTask> =
                    random_task_vec(&mut rng, (1, 10), (8, 80), (1, 6), (1, 1))
                        .into_iter()
                        .map(|t| t.with_relative_deadline(t.period()).unwrap())
                        .collect();
                tasks.extend(random_tasks(&mut rng, 1, (8, 80), (1, 6), (1, 40)));
                check(tasks, cap(&mut rng));
            }
        }

        // The generator reaches every class the property claims to cover.
        let Coverage {
            cases,
            empty,
            all_implicit,
            deadline_past_period,
            at_one,
            band_fits,
            band_exceeded,
            float_fits,
            float_exceeded,
            shared_checkpoint,
            violation_at_first,
            violation_at_last,
            feasible_by_demand,
            limit_exceeded,
            book_at_least_period,
            book_one_slot_over,
            book_tied_deadline,
            book_infeasible,
            book_implicit,
            book_capped,
        } = seen;
        assert!(
            [
                book_at_least_period,
                book_one_slot_over,
                book_tied_deadline,
                book_infeasible,
                book_implicit,
                book_capped,
                empty,
                all_implicit,
                deadline_past_period,
                at_one,
                band_fits,
                band_exceeded,
                float_fits,
                float_exceeded,
                shared_checkpoint,
                violation_at_first,
                violation_at_last,
                feasible_by_demand,
                limit_exceeded,
            ]
            .iter()
            .all(|&count| count > 0 && count < cases),
            "a class went vacuous: {seen:?}"
        );
    }

    /// The band is wide enough for its two error sources at every load, and
    /// narrow enough that ordinary admission never sees it.
    #[test]
    fn float_band_scales_with_the_load() {
        for n in [0usize, 1, 16, 1_000, 1_000_000] {
            let band = float_band(n);
            let fixed_point = n as f64 * FIXED_ROUND_UP_PER_TASK;
            let float_error = 2.0 * (n as f64 + 2.0) * f64::EPSILON;
            assert!(band > fixed_point + float_error, "n = {n}");
            assert!(band < 1e-5, "n = {n}");
        }
    }

    /// The full test never accepts a set that the utilisation bound rejects
    /// (it is strictly stronger).
    #[test]
    fn prop_full_test_stronger_than_utilisation() {
        let mut rng = Xoshiro256::new(0xfea5_0001);
        for _ in 0..128 {
            let tasks = random_task_vec(&mut rng, (1, 9), (2, 39), (1, 7), (1, 49));
            let set = TaskSet::from_tasks(tasks);
            let full = FeasibilityTester::new().test(&set);
            let util = FeasibilityTester::utilisation_only().test(&set);
            if full.is_feasible() {
                assert!(util.is_feasible());
            }
        }
    }

    /// Removing a task never turns a feasible set infeasible
    /// (sustainability of the demand-based test).
    #[test]
    fn prop_feasibility_monotone_under_removal() {
        let mut rng = Xoshiro256::new(0xfea5_0002);
        for _ in 0..128 {
            let tasks = random_task_vec(&mut rng, (2, 7), (2, 29), (1, 5), (2, 39));
            let set = TaskSet::from_tasks(tasks.clone());
            let tester = FeasibilityTester::new();
            if tester.test(&set).is_feasible() {
                let mut smaller = tasks;
                let idx = rng.below(smaller.len() as u64) as usize;
                smaller.remove(idx);
                let smaller = TaskSet::from_tasks(smaller);
                assert!(tester.test(&smaller).is_feasible());
            }
        }
    }
}
