//! Decider-driven type synthesis: searching the space of finite types for a
//! target (discerning number, recording number) profile.
//!
//! The paper's corollary needs, for each `n ≥ 4`, a readable type that is
//! `n`-discerning, `(n−2)`-recording and not `(n−1)`-recording (DFFR'22's
//! `X_n`, whose construction this paper does not restate). Because our
//! deciders are fast on small types, we can *search* for such types: seed
//! with a structured table, apply random local mutations, and keep anything
//! that moves toward the target profile. This module is that harness; the
//! `xn_hunt` example of this crate drives it.

use crate::classify::{classify, TypeClassification};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcn_spec::{ObjectType, Outcome, Response, TableType, ValueId};
use serde::{Deserialize, Serialize};

/// A target profile for the synthesis search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TargetProfile {
    /// Required readability.
    pub readable: bool,
    /// Required exact discerning number.
    pub discerning: usize,
    /// Required exact recording number.
    pub recording: usize,
}

impl TargetProfile {
    /// The profile of DFFR'22's `X_n`: readable, discerning number `n`,
    /// recording number `n − 2`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` (the paper's corollary needs `n ≥ 4`).
    pub fn xn(n: usize) -> TargetProfile {
        assert!(n >= 4, "X_n is defined for n >= 4");
        TargetProfile {
            readable: true,
            discerning: n,
            recording: n - 2,
        }
    }

    /// Checks a type against the profile (deciders capped at
    /// `max(discerning, recording) + 1` so exactness is established).
    pub fn matches<T: ObjectType + Sync + ?Sized>(&self, ty: &T) -> bool {
        self.classify(ty).is_some()
    }

    /// Like [`matches`](Self::matches) but returns the classification on
    /// success.
    pub fn classify<T: ObjectType + Sync + ?Sized>(&self, ty: &T) -> Option<TypeClassification> {
        if ty.is_readable() != self.readable {
            return None;
        }
        let cap = self.discerning.max(self.recording) + 1;
        let c = classify(ty, cap);
        (c.discerning.level == self.discerning
            && !c.discerning.capped
            && c.recording.level == self.recording
            && !c.recording.capped)
            .then_some(c)
    }

    /// Distance of a type from the profile: 0 iff it matches. Used as the
    /// search objective.
    pub fn distance<T: ObjectType + Sync + ?Sized>(&self, ty: &T) -> usize {
        if ty.is_readable() != self.readable {
            return usize::MAX;
        }
        let cap = self.discerning.max(self.recording) + 1;
        let c = classify(ty, cap);
        let d_gap = c.discerning.level.abs_diff(self.discerning)
            + usize::from(c.discerning.capped && c.discerning.level == self.discerning);
        let r_gap = c.recording.level.abs_diff(self.recording)
            + usize::from(c.recording.capped && c.recording.level == self.recording);
        // Discerning is the harder property to hit; weight it more so the
        // hill climb prefers fixing it first.
        2 * d_gap + r_gap
    }
}

/// Generates a random deterministic type with `num_values` values,
/// `num_mutators` random operations plus one read operation, and responses
/// drawn from `0..num_values + num_mutators` (value reports reuse the low
/// response ids so the read op stays injective).
pub fn random_readable_table(
    rng: &mut StdRng,
    num_values: usize,
    num_mutators: usize,
) -> TableType {
    let num_responses = num_values + num_mutators;
    let mut b = TableType::builder("synthesized", num_values, num_mutators + 1, num_responses);
    for v in 0..num_values as u16 {
        for op in 0..num_mutators as u16 {
            let next = rng.gen_range(0..num_values) as u16;
            let resp = rng.gen_range(0..num_responses) as u16;
            b.set(v, op, Outcome::new(Response(resp), ValueId(next)));
        }
        // The last op is a read: returns the value id, never mutates.
        b.set(
            v,
            num_mutators as u16,
            Outcome::new(Response(v), ValueId(v)),
        );
    }
    b.op_name(num_mutators as u16, "read");
    b.build()
        .expect("randomly filled table is structurally valid")
}

/// Randomly perturbs one to three mutator cells of a table (the read op is
/// preserved). Multi-cell rewrites let the hill climb cross ridges where
/// any single-cell change breaks one target property while fixing another.
pub fn mutate_table(rng: &mut StdRng, table: &TableType) -> TableType {
    let num_values = table.num_values();
    let num_ops = table.num_ops();
    let num_responses = table.num_responses();
    let mut b = TableType::builder(table.name(), num_values, num_ops, num_responses);
    // Copy everything …
    for v in 0..num_values as u16 {
        for op in 0..num_ops as u16 {
            b.set(v, op, table.apply(ValueId(v), rcn_spec::OpId(op)));
        }
    }
    // … then rewrite a few random non-read cells (1 cell 70%, 2 cells 20%,
    // 3 cells 10% of the time).
    let read = table.read_op().map(|o| o.index());
    let cells = match rng.gen_range(0..10) {
        0..=6 => 1,
        7..=8 => 2,
        _ => 3,
    };
    for _ in 0..cells {
        let mut op = rng.gen_range(0..num_ops);
        if Some(op) == read {
            op = (op + 1) % num_ops;
        }
        let v = rng.gen_range(0..num_values);
        let next = rng.gen_range(0..num_values) as u16;
        let resp = rng.gen_range(0..num_responses) as u16;
        b.set(
            v as u16,
            op as u16,
            Outcome::new(Response(resp), ValueId(next)),
        );
    }
    for op in 0..num_ops as u16 {
        b.op_name(op, table.op_name(rcn_spec::OpId(op)));
    }
    b.build().expect("mutated table is structurally valid")
}

/// Outcome of a [`hill_climb`] run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best table found.
    pub best: TableType,
    /// Its distance from the profile (0 = success).
    pub distance: usize,
    /// Number of candidate evaluations performed.
    pub evaluations: usize,
}

/// Stochastic hill climb from `seed` toward `profile`, evaluating at most
/// `budget` candidates. Accepts sideways moves to escape plateaus.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rcn_decide::synthesis::{random_readable_table, TargetProfile, hill_climb};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let seed = random_readable_table(&mut rng, 4, 2);
/// // A tiny budget just exercises the machinery.
/// let out = hill_climb(&mut rng, seed, TargetProfile { readable: true, discerning: 2, recording: 1 }, 10);
/// assert!(out.evaluations <= 11);
/// ```
pub fn hill_climb(
    rng: &mut StdRng,
    seed: TableType,
    profile: TargetProfile,
    budget: usize,
) -> SearchOutcome {
    let mut best = seed;
    let mut best_dist = profile.distance(&best);
    let mut evaluations = 1;
    let mut current = best.clone();
    let mut current_dist = best_dist;
    while evaluations <= budget && best_dist > 0 {
        let candidate = mutate_table(rng, &current);
        let dist = profile.distance(&candidate);
        evaluations += 1;
        if dist <= current_dist {
            current = candidate;
            current_dist = dist;
            if dist < best_dist {
                best = current.clone();
                best_dist = dist;
            }
        } else if rng.gen_bool(0.05) {
            // Occasional uphill move keeps the walk from freezing.
            current = candidate;
            current_dist = dist;
        }
    }
    SearchOutcome {
        best,
        distance: best_dist,
        evaluations,
    }
}

/// Convenience: a fresh seeded RNG for synthesis runs.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_spec::zoo::{TeamCounter, TestAndSet};

    #[test]
    fn profile_matches_known_types() {
        // Test-and-set: readable, discerning 2, recording 1.
        let p = TargetProfile {
            readable: true,
            discerning: 2,
            recording: 1,
        };
        assert!(p.matches(&TestAndSet::new()));
        assert_eq!(p.distance(&TestAndSet::new()), 0);
    }

    #[test]
    fn team_counter_has_the_gap_1_profile() {
        let p = TargetProfile {
            readable: true,
            discerning: 4,
            recording: 3,
        };
        assert!(p.matches(&TeamCounter::new(4)));
    }

    #[test]
    fn xn_profile_requires_n_at_least_4() {
        let p = TargetProfile::xn(4);
        assert_eq!(p.discerning, 4);
        assert_eq!(p.recording, 2);
    }

    #[test]
    #[should_panic(expected = "n >= 4")]
    fn xn_profile_rejects_small_n() {
        TargetProfile::xn(3);
    }

    #[test]
    fn random_tables_are_valid_and_readable() {
        let mut r = rng(7);
        for _ in 0..5 {
            let t = random_readable_table(&mut r, 5, 2);
            assert!(t.validate().is_ok());
            assert!(t.is_readable());
        }
    }

    #[test]
    fn mutation_preserves_validity_and_readability() {
        let mut r = rng(9);
        let mut t = random_readable_table(&mut r, 4, 2);
        for _ in 0..10 {
            t = mutate_table(&mut r, &t);
            assert!(t.validate().is_ok());
            assert!(t.is_readable(), "mutation must not destroy the read op");
        }
    }

    #[test]
    fn hill_climb_reports_zero_distance_when_seeded_at_target() {
        let mut r = rng(3);
        let seed = rcn_spec::TableType::from_type(&TestAndSet::new());
        let p = TargetProfile {
            readable: true,
            discerning: 2,
            recording: 1,
        };
        let out = hill_climb(&mut r, seed, p, 5);
        assert_eq!(out.distance, 0);
        assert_eq!(out.evaluations, 1);
    }
}
