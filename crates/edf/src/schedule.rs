//! Slot-accurate single-link EDF schedule generation.
//!
//! The analytical feasibility test of [`crate::feasibility`] answers *whether*
//! a task set can be scheduled; this module actually builds the schedule, one
//! slot at a time, and reports every deadline miss.  It serves two purposes:
//!
//! * **cross-validation** — property tests assert that any set the analysis
//!   declares feasible produces a miss-free schedule over its hyperperiod
//!   (and that the utilisation-only shortcut does *not* enjoy this property
//!   for constrained deadlines, which is Ablation B);
//! * **tie-break documentation** — frames are atomic (one slot each), so the
//!   link is effectively preemptive at slot granularity, exactly the model
//!   the paper's analysis assumes.

use rt_types::Slots;

use crate::queue::EdfQueue;
use crate::taskset::TaskSet;

/// A single deadline miss observed while simulating the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineMiss {
    /// Index of the task (position in the task set) whose job missed.
    pub task_index: usize,
    /// Release time of the offending job.
    pub release: Slots,
    /// Absolute deadline that was missed.
    pub deadline: Slots,
    /// Slots of the job still unsent at the deadline.
    pub remaining: Slots,
}

/// The result of simulating an EDF schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleOutcome {
    /// Horizon that was simulated (slots `0 .. horizon`).
    pub horizon: Slots,
    /// Every deadline miss that occurred, in chronological order.
    pub misses: Vec<DeadlineMiss>,
    /// Number of slots in which the link was busy.
    pub busy_slots: u64,
    /// Number of jobs that completed by their deadline.
    pub completed_jobs: u64,
}

impl ScheduleOutcome {
    /// `true` if no deadline was missed within the horizon.
    pub fn is_miss_free(&self) -> bool {
        self.misses.is_empty()
    }
}

/// One in-flight job during schedule simulation.
#[derive(Debug, Clone, Copy)]
struct Job {
    task_index: usize,
    release: Slots,
    deadline: Slots,
    remaining: Slots,
}

/// Simulate a synchronous (all first releases at time 0), fully periodic EDF
/// schedule of `set` on one link for `horizon` slots.
///
/// Frames are one slot long and the scheduler re-evaluates after every slot,
/// so the schedule is preemptive at slot granularity with FIFO tie-breaking
/// among equal deadlines.  Misses are recorded when a job's absolute deadline
/// passes while it still has slots remaining (the job then keeps running —
/// "late completion" semantics — so one overload does not silently absorb
/// later ones).
pub fn simulate_edf_schedule(set: &TaskSet, horizon: Slots) -> ScheduleOutcome {
    let mut outcome = ScheduleOutcome {
        horizon,
        misses: Vec::new(),
        busy_slots: 0,
        completed_jobs: 0,
    };
    if set.is_empty() || horizon.is_zero() {
        return outcome;
    }

    // Ready queue keyed by absolute deadline, plus the job currently being
    // transmitted (kept out of the queue so that equal-deadline jobs run to
    // completion instead of round-robining).
    let mut ready: EdfQueue<Job> = EdfQueue::new();
    let mut current: Option<Job> = None;
    // Per-task next release time.
    let mut next_release: Vec<Slots> = vec![Slots::ZERO; set.len()];

    for t in 0..horizon.get() {
        let now = Slots::new(t);

        // Release new jobs whose release time has arrived.
        for (idx, task) in set.tasks().iter().enumerate() {
            while next_release[idx] <= now {
                let release = next_release[idx];
                let deadline = release + task.relative_deadline();
                ready.push(
                    deadline.get(),
                    Job {
                        task_index: idx,
                        release,
                        deadline,
                        remaining: task.capacity(),
                    },
                );
                next_release[idx] = release + task.period();
            }
        }

        // Pick the job for this slot: keep the current one unless a strictly
        // earlier deadline is waiting (EDF preemption at slot granularity).
        match current.take() {
            Some(cur) => {
                if ready
                    .peek_deadline()
                    .is_some_and(|d| d < cur.deadline.get())
                {
                    ready.push(cur.deadline.get(), cur);
                    current = ready.pop().map(|(_, j)| j);
                } else {
                    current = Some(cur);
                }
            }
            None => current = ready.pop().map(|(_, j)| j),
        }

        // Transmit one slot of the chosen job, if any.
        if let Some(mut job) = current.take() {
            outcome.busy_slots += 1;
            job.remaining = job.remaining.saturating_sub(Slots::ONE);
            let finish = now + Slots::ONE;
            if job.remaining.is_zero() {
                if finish <= job.deadline {
                    outcome.completed_jobs += 1;
                }
                // A late completion was already recorded as a miss at the
                // slot boundary where its deadline passed.
            } else {
                current = Some(job);
            }
        }

        // Record misses: any job (queued or in transmission) whose deadline
        // falls exactly on the next slot boundary and that still has work
        // left has missed.  Each job is recorded exactly once because the
        // check uses equality with the boundary.
        let boundary = now + Slots::ONE;
        let mut missed_now: Vec<DeadlineMiss> = ready
            .iter_unordered()
            .map(|(_, job)| job)
            .chain(current.iter())
            .filter(|job| job.deadline == boundary && !job.remaining.is_zero())
            .map(|job| DeadlineMiss {
                task_index: job.task_index,
                release: job.release,
                deadline: job.deadline,
                remaining: job.remaining,
            })
            .collect();
        missed_now.sort_by_key(|m| (m.deadline.get(), m.task_index));
        outcome.misses.extend(missed_now);
    }

    outcome
}

/// Simulate over the set's hyperperiod (or `fallback` slots if the
/// hyperperiod overflows), which is sufficient to observe any miss of a
/// synchronous periodic set.
pub fn simulate_over_hyperperiod(set: &TaskSet, fallback: Slots) -> ScheduleOutcome {
    let horizon = set.hyperperiod().unwrap_or(fallback).min(fallback);
    simulate_edf_schedule(set, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::FeasibilityTester;
    use crate::task::PeriodicTask;
    use crate::testgen::{adversarial_seeds, random_task_vec};
    use rt_types::rng::Xoshiro256;

    fn task(p: u64, c: u64, d: u64) -> PeriodicTask {
        PeriodicTask::new(Slots::new(p), Slots::new(c), Slots::new(d)).unwrap()
    }

    #[test]
    fn empty_set_idles() {
        let out = simulate_edf_schedule(&TaskSet::new(), Slots::new(100));
        assert!(out.is_miss_free());
        assert_eq!(out.busy_slots, 0);
    }

    #[test]
    fn single_task_schedules_cleanly() {
        let set = TaskSet::from_tasks(vec![task(10, 3, 10)]);
        let out = simulate_edf_schedule(&set, Slots::new(100));
        assert!(out.is_miss_free());
        assert_eq!(out.busy_slots, 30);
        assert_eq!(out.completed_jobs, 10);
    }

    #[test]
    fn full_utilisation_implicit_deadlines_meets_all() {
        let set = TaskSet::from_tasks(vec![task(2, 1, 2), task(4, 2, 4)]);
        let out = simulate_over_hyperperiod(&set, Slots::new(1000));
        assert!(out.is_miss_free());
        assert_eq!(out.busy_slots, out.horizon.get());
    }

    #[test]
    fn overload_produces_misses() {
        // Two tasks each needing 4 slots by t=5: impossible.
        let set = TaskSet::from_tasks(vec![task(50, 4, 5), task(50, 4, 5)]);
        let out = simulate_edf_schedule(&set, Slots::new(50));
        assert!(!out.is_miss_free());
        let m = out.misses[0];
        assert_eq!(m.deadline, Slots::new(5));
        assert_eq!(m.remaining, Slots::new(3));
    }

    #[test]
    fn six_sdps_halves_fit_one_uplink_but_seven_do_not() {
        // The Fig. 18.5 arithmetic: C=3, d_u=20, P=100.
        let six = TaskSet::from_tasks(vec![task(100, 3, 20); 6]);
        assert!(simulate_edf_schedule(&six, Slots::new(500)).is_miss_free());
        let seven = TaskSet::from_tasks(vec![task(100, 3, 20); 7]);
        let out = simulate_edf_schedule(&seven, Slots::new(500));
        assert!(!out.is_miss_free());
        assert_eq!(out.misses[0].deadline, Slots::new(20));
    }

    #[test]
    fn misses_recorded_once_per_job() {
        let set = TaskSet::from_tasks(vec![task(100, 4, 5), task(100, 4, 5)]);
        let out = simulate_edf_schedule(&set, Slots::new(100));
        // Exactly one job misses (the second one), exactly once.
        assert_eq!(out.misses.len(), 1);
    }

    /// Analytical feasibility implies a miss-free simulated schedule over
    /// the hyperperiod (soundness of the admission test).
    #[test]
    fn prop_feasible_implies_miss_free() {
        let mut rng = Xoshiro256::new(0x5c4e_0001);
        for _ in 0..64 {
            let tasks = random_task_vec(&mut rng, (1, 5), (2, 24), (1, 4), (1, 29));
            let set = TaskSet::from_tasks(tasks);
            let verdict = FeasibilityTester::new().test(&set);
            if verdict.is_feasible() {
                let out = simulate_over_hyperperiod(&set, Slots::new(100_000));
                assert!(
                    out.is_miss_free(),
                    "analysis said feasible but schedule missed: {:?}",
                    out.misses
                );
            }
        }
    }

    /// A synchronous set that misses under slot-preemptive EDF first misses
    /// inside its synchronous busy period (Baruah, Rosier & Howell 1990;
    /// Spuri 1996): simulating up to the busy period's end and simulating
    /// the capped hyperperiod agree on whether the set misses and on its
    /// first miss — including sets with deadlines past their periods.
    #[test]
    fn prop_the_busy_period_finds_the_first_miss() {
        let cap = Slots::new(5_000);
        // (sets compared, of them missing, with some d > P, busy period
        // shorter than the capped hyperperiod, first miss past the set's
        // least relative deadline)
        let mut seen = (0, 0, 0, 0, 0);
        for seed in 0..adversarial_seeds() {
            let mut rng = Xoshiro256::new(0xb05e_0000 + seed);
            for _ in 0..40 {
                for tasks in [
                    // Small and dense: overloads, deadlines either side of
                    // the period.
                    random_task_vec(&mut rng, (1, 6), (2, 16), (1, 4), (1, 40)),
                    // Longer and lighter: busy periods far inside long
                    // hyperperiods.
                    random_task_vec(&mut rng, (2, 8), (5, 60), (1, 6), (1, 90)),
                    // Near full: misses past the first deadline.
                    random_task_vec(&mut rng, (2, 5), (4, 12), (1, 5), (3, 12)),
                ] {
                    let set = TaskSet::from_tasks(tasks);
                    let Some(busy) = set.busy_period(cap) else {
                        continue;
                    };
                    let full = simulate_over_hyperperiod(&set, cap);
                    let short = simulate_edf_schedule(&set, busy);
                    assert_eq!(short.is_miss_free(), full.is_miss_free(), "{set:?}");
                    assert_eq!(short.misses.first(), full.misses.first(), "{set:?}");
                    let past = |t: &PeriodicTask| t.relative_deadline() > t.period();
                    let first_deadline = set.tasks().iter().map(|t| t.relative_deadline()).min();
                    let late = |m: &DeadlineMiss| Some(m.deadline) > first_deadline;
                    seen.0 += 1;
                    seen.1 += usize::from(!full.is_miss_free());
                    seen.2 += usize::from(set.tasks().iter().any(past));
                    seen.3 += usize::from(busy < full.horizon);
                    seen.4 += usize::from(full.misses.first().is_some_and(late));
                }
            }
        }
        let (sets, missing, past, shorter, late) = seen;
        assert!(
            missing > 0 && past > 0 && shorter > sets / 2 && late > 0,
            "{seen:?}"
        );
    }

    /// A simulated miss implies the analysis also rejects the set
    /// (completeness over the hyperperiod for synchronous release).
    #[test]
    fn prop_miss_implies_infeasible() {
        let mut rng = Xoshiro256::new(0x5c4e_0002);
        for _ in 0..64 {
            let tasks = random_task_vec(&mut rng, (1, 4), (2, 19), (1, 3), (1, 24));
            let set = TaskSet::from_tasks(tasks);
            let out = simulate_over_hyperperiod(&set, Slots::new(100_000));
            if !out.is_miss_free() {
                let verdict = FeasibilityTester::new().test(&set);
                assert!(
                    !verdict.is_feasible(),
                    "schedule missed but analysis said feasible"
                );
            }
        }
    }
}
