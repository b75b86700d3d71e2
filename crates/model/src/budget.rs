//! The crash-budgeted execution sets `E_z(C)` and `E_z*(C)` of §3.
//!
//! Paper, §3: *"define `E_z(C)` as the set of all executions α from C that
//! contain no crashes by `p_0` and in which, for every process
//! `p_i ∈ {p_1,…,p_{n−1}}`, the number of crashes by `p_i` is no greater
//! than `z·n` times the number of steps collectively taken by
//! `p_0,…,p_{i−1}` in α. Define `E_z*(C) ⊂ E_z(C)` as the set of all
//! executions α … in which, for every process `p_i` … and every prefix α′
//! of α, the number of crashes by `p_i` is no greater than `z·n` times the
//! number of steps collectively taken by `p_0,…,p_{i−1}` in α′."*
//!
//! `E_z*` is prefix-closed, `E_z` is not (the paper's example:
//! `exec(C, p1 c1 p0) ∈ E_1(C)` for n = 2, but `p1 c1` alone over-spends).
//!
//! Only the *schedule* matters for membership (which events occur, not what
//! they do), so membership is defined on [`Schedule`]s.

use crate::schedule::{Event, ProcessId, Schedule};
use crate::system::charge_crashes;
use serde::{Deserialize, Serialize};

/// The two flavours of crash budget from §3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BudgetKind {
    /// `E_z(C)`: the budget must hold at the end of the execution.
    Final,
    /// `E_z*(C)`: the budget must hold at every prefix (prefix-closed).
    EveryPrefix,
}

/// A crash budget `E_z` / `E_z*` for `n` processes with multiplier `z`.
///
/// # Examples
///
/// The paper's own example for `n = 2`, `z = 1`:
///
/// ```
/// use rcn_model::{BudgetKind, CrashBudget, Schedule};
/// let budget = CrashBudget::new(1, 2);
/// let sched: Schedule = "p1 c1 p0".parse().unwrap();
/// assert!(budget.admits(&sched, BudgetKind::Final));       // ∈ E_1
/// assert!(!budget.admits(&sched, BudgetKind::EveryPrefix)); // ∉ E_1*
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashBudget {
    z: usize,
    n: usize,
}

impl CrashBudget {
    /// Creates the budget for `n` processes with multiplier `z`.
    ///
    /// # Panics
    ///
    /// Panics if `z == 0` or `n == 0` (the paper always has `z ≥ 1`,
    /// `n ≥ 2`).
    pub fn new(z: usize, n: usize) -> Self {
        assert!(z > 0 && n > 0, "crash budget requires z ≥ 1 and n ≥ 1");
        CrashBudget { z, n }
    }

    /// The multiplier `z`.
    pub fn z(&self) -> usize {
        self.z
    }

    /// The number of processes `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Returns `true` if `schedule` satisfies this budget under the given
    /// [`BudgetKind`].
    pub fn admits(&self, schedule: &Schedule, kind: BudgetKind) -> bool {
        match kind {
            BudgetKind::EveryPrefix => {
                let mut tracker = BudgetTracker::new(*self);
                schedule.iter().all(|event| tracker.admit(event))
            }
            BudgetKind::Final => {
                // Only the totals matter: crashes of p_i vs z·n·(steps of
                // processes with smaller identifiers).
                let mut steps_below = vec![0usize; self.n]; // steps of p_0..p_{i-1}
                let mut crashes = vec![0usize; self.n];
                for event in schedule.iter() {
                    if let Event::Step(p) = event {
                        for entry in steps_below.iter_mut().skip(p.index() + 1) {
                            *entry += 1;
                        }
                    }
                    // A mid-operation crash is a crash of p for budget
                    // purposes; a system-wide crash hits every process
                    // (including p_0, so it is never admissible).
                    charge_crashes(&mut crashes, event);
                }
                if crashes[0] > 0 {
                    return false;
                }
                (1..self.n).all(|i| crashes[i] <= self.z * self.n * steps_below[i])
            }
        }
    }

    /// Convenience: membership in `E_z(C)` (final totals only).
    pub fn admits_final(&self, schedule: &Schedule) -> bool {
        self.admits(schedule, BudgetKind::Final)
    }

    /// Convenience: membership in `E_z*(C)` (every prefix).
    pub fn admits_prefix_closed(&self, schedule: &Schedule) -> bool {
        self.admits(schedule, BudgetKind::EveryPrefix)
    }
}

/// Incremental `E_z*` membership tracker, used by crash-injecting
/// adversaries: events are fed one at a time and rejected events leave the
/// tracker unchanged.
///
/// # Examples
///
/// ```
/// use rcn_model::{BudgetTracker, CrashBudget, Event, ProcessId};
/// let mut t = BudgetTracker::new(CrashBudget::new(1, 2));
/// // p1 may not crash before p0 has taken a step.
/// assert!(!t.admit(Event::Crash(ProcessId::new(1))));
/// assert!(t.admit(Event::Step(ProcessId::new(0))));
/// assert!(t.admit(Event::Crash(ProcessId::new(1))));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetTracker {
    budget: CrashBudget,
    /// `steps_below[i]` = steps taken so far by `p_0,…,p_{i-1}`.
    steps_below: Vec<usize>,
    /// `crashes[i]` = crashes of `p_i` so far.
    crashes: Vec<usize>,
}

impl BudgetTracker {
    /// Starts tracking an empty execution under `budget`.
    pub fn new(budget: CrashBudget) -> Self {
        BudgetTracker {
            budget,
            steps_below: vec![0; budget.n],
            crashes: vec![0; budget.n],
        }
    }

    /// Returns `true` if appending `event` keeps the execution in `E_z*`,
    /// updating the tracker; returns `false` (without updating) otherwise.
    pub fn admit(&mut self, event: Event) -> bool {
        if !self.would_admit(event) {
            return false;
        }
        self.record(event);
        true
    }

    /// Returns `true` if appending `event` would keep the execution in
    /// `E_z*`, without updating the tracker.
    pub fn would_admit(&self, event: Event) -> bool {
        match event {
            Event::Step(_) => true,
            Event::Crash(p) | Event::CrashDuring(p) => {
                let i = p.index();
                i != 0 && self.crashes[i] < self.budget.z * self.budget.n * self.steps_below[i]
            }
            // A system-wide crash crashes p_0, which `E_z` never allows.
            Event::SystemCrash => false,
        }
    }

    /// Records an event unconditionally (useful when replaying a schedule
    /// already known to be admissible).
    pub fn record(&mut self, event: Event) {
        if let Event::Step(p) = event {
            for entry in self.steps_below.iter_mut().skip(p.index() + 1) {
                *entry += 1;
            }
        }
        charge_crashes(&mut self.crashes, event);
    }

    /// Remaining crash allowance of process `p` (`None` for `p_0`, which may
    /// never crash).
    pub fn remaining_crashes(&self, p: ProcessId) -> Option<usize> {
        let i = p.index();
        (i != 0).then(|| self.budget.z * self.budget.n * self.steps_below[i] - self.crashes[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(s: &str) -> Schedule {
        s.parse().unwrap()
    }

    #[test]
    fn p0_never_crashes() {
        let b = CrashBudget::new(1, 2);
        assert!(!b.admits_final(&sched("p1 p0 c0")));
        assert!(!b.admits_prefix_closed(&sched("p1 p0 c0")));
    }

    #[test]
    fn papers_example_distinguishes_final_from_prefix() {
        // exec(C, p1 c1 p0) ∈ E_1(C) but ∉ E_1*(C) for n = 2.
        let b = CrashBudget::new(1, 2);
        let s = sched("p1 c1 p0");
        assert!(b.admits_final(&s));
        assert!(!b.admits_prefix_closed(&s));
    }

    #[test]
    fn prefix_closed_is_subset_of_final() {
        let b = CrashBudget::new(1, 3);
        let candidates = [
            "p0 c1 c1 c1 p1 c2 c2 c2 c2 c2 c2",
            "p0 p1 p2 c2 c1",
            "c1 p0",
            "p0 c2 c2 c2 c2 c2 c2 c2",
            "p2 c2 p0",
        ];
        for text in candidates {
            let s = sched(text);
            if b.admits_prefix_closed(&s) {
                assert!(b.admits_final(&s), "E_z* ⊆ E_z violated by {text}");
            }
        }
    }

    #[test]
    fn budget_scales_with_z_and_n() {
        // One step by p0 allows z·n crashes of p1.
        for (z, n) in [(1, 2), (2, 2), (1, 4)] {
            let b = CrashBudget::new(z, n);
            let mut s = sched("p0");
            for _ in 0..z * n {
                s.push(Event::Crash(ProcessId(1)));
            }
            assert!(b.admits_prefix_closed(&s), "z={z}, n={n}");
            s.push(Event::Crash(ProcessId(1)));
            assert!(!b.admits_prefix_closed(&s), "z={z}, n={n}");
        }
    }

    #[test]
    fn only_lower_id_steps_fund_crashes() {
        let b = CrashBudget::new(1, 3);
        // p2's own steps don't fund its crashes …
        assert!(!b.admits_prefix_closed(&sched("p2 p2 c2")));
        // … but either p0's or p1's do.
        assert!(b.admits_prefix_closed(&sched("p1 c2")));
        assert!(b.admits_prefix_closed(&sched("p0 c2")));
        // And p1 cannot be funded by p2.
        assert!(!b.admits_prefix_closed(&sched("p2 c1")));
    }

    #[test]
    fn crash_free_schedules_are_always_admissible() {
        let b = CrashBudget::new(1, 4);
        let s = sched("p3 p2 p1 p0 p3 p3");
        assert!(b.admits_final(&s));
        assert!(b.admits_prefix_closed(&s));
    }

    #[test]
    fn tracker_matches_batch_check() {
        let b = CrashBudget::new(1, 3);
        let s = sched("p0 c1 p1 c2 c2 c2 p0 c2 c1");
        let mut tracker = BudgetTracker::new(b);
        let all_admitted = s.iter().all(|e| tracker.admit(e));
        assert_eq!(all_admitted, b.admits_prefix_closed(&s));
    }

    #[test]
    fn tracker_rejection_leaves_state_unchanged() {
        let mut t = BudgetTracker::new(CrashBudget::new(1, 2));
        let before = t.clone();
        assert!(!t.admit(Event::Crash(ProcessId(1))));
        assert_eq!(t, before);
    }

    #[test]
    fn remaining_crashes_accounting() {
        let mut t = BudgetTracker::new(CrashBudget::new(1, 2));
        assert_eq!(t.remaining_crashes(ProcessId(0)), None);
        assert_eq!(t.remaining_crashes(ProcessId(1)), Some(0));
        t.record(Event::Step(ProcessId(0)));
        assert_eq!(t.remaining_crashes(ProcessId(1)), Some(2));
        t.record(Event::Crash(ProcessId(1)));
        assert_eq!(t.remaining_crashes(ProcessId(1)), Some(1));
    }
}
