//! Shared generators for the crate's randomised unit tests (the in-repo
//! replacement for the property-testing dependency): valid random task sets
//! drawn from configurable parameter ranges, always respecting the
//! [`PeriodicTask`] invariants.

use rt_types::rng::Xoshiro256;
use rt_types::Slots;

use crate::task::PeriodicTask;

/// Draw `n` valid tasks with `period ∈ [p.0, p.1]`, `capacity ∈ [c.0, c.1]`
/// (clamped to the period) and `relative deadline ∈ [d.0, d.1]` (clamped up
/// to the capacity).
pub(crate) fn random_tasks(
    rng: &mut Xoshiro256,
    n: usize,
    p: (u64, u64),
    c: (u64, u64),
    d: (u64, u64),
) -> Vec<PeriodicTask> {
    (0..n)
        .map(|_| {
            let period = rng.range_inclusive(p.0, p.1);
            let capacity = rng.range_inclusive(c.0, c.1).min(period);
            let deadline = rng.range_inclusive(d.0, d.1).max(capacity);
            PeriodicTask::new(
                Slots::new(period),
                Slots::new(capacity),
                Slots::new(deadline),
            )
            .expect("generated parameters satisfy the task invariants")
        })
        .collect()
}

/// Draw a task-set size in `[lo, hi]` followed by that many tasks.
pub(crate) fn random_task_vec(
    rng: &mut Xoshiro256,
    len: (usize, usize),
    p: (u64, u64),
    c: (u64, u64),
    d: (u64, u64),
) -> Vec<PeriodicTask> {
    let n = rng.range_inclusive(len.0 as u64, len.1 as u64) as usize;
    random_tasks(rng, n, p, c, d)
}

/// Seeds of a seeded property (the `RT_ADVERSARIAL_SEEDS` matrix the CI
/// soaks crank up), default 32.
pub(crate) fn adversarial_seeds() -> u64 {
    std::env::var("RT_ADVERSARIAL_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}
