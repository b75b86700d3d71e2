//! Independent valency re-derivation over the `E_z*` execution sets.
//!
//! The decider stack computes bivalence/univalence facts through
//! `rcn-valency`'s `BudgetedGraph` (a forward exploration indexed by packed
//! state words in a `std` hash map, valencies by iterate-until-fixed
//! sweeps). This module
//! answers the *same question* — which decision values are reachable from
//! the initial configuration when `p_i` may crash at most `z·n ×` (steps of
//! lower-id processes) times, allowances clamped at a ceiling — with a
//! different implementation: breadth-first search keyed by the structural
//! index of [`crate::hash`], explicit edge lists, and a backward
//! worklist propagation from deciding states. Agreement between the two is
//! the RCN201 cross-check.
//!
//! The `E_z*` semantics replicated here (and in the reference — any
//! divergence is a bug in one of them):
//!
//! * the initial state has zero allowance everywhere, and `p_0` never
//!   crashes;
//! * a step of `p_i` funds `z·n` further crashes of every higher-id
//!   process, clamped at the ceiling;
//! * a crash of `p_i` spends one unit of `p_i`'s allowance;
//! * a state seeds 0-reachability for every process decided on 0 and
//!   1-reachability for every process decided on a nonzero value, and
//!   reachability flows backward over every explored edge.
//!
//! Under a [`Coverage::Bounded`] result only **bivalence** is trustworthy
//! (both witnesses are real executions); a univalent or undetermined
//! verdict on a clipped graph may just be missing the other witness, which
//! is why the cross-check refuses to compare bounded valencies.

use crate::checker::Coverage;
use crate::hash::{canonical_hash, StateIndex};
use rcn_model::{Event, ProcessId, System};
use std::fmt;

/// Budgets for one valency check, mirroring `BudgetedGraph::explore`'s
/// `(z, clamp, max_states)` parameters so verdicts are directly comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValencyConfig {
    /// The paper's budget multiplier `z` (a step of `p_i` funds `z·n`
    /// crashes of each higher-id process).
    pub z: usize,
    /// The allowance ceiling keeping the budgeted state space finite.
    pub clamp: u16,
    /// Maximum number of budgeted states stored; hitting it demotes the
    /// result to [`Coverage::Bounded`] instead of erroring.
    pub max_states: usize,
}

impl Default for ValencyConfig {
    fn default() -> Self {
        ValencyConfig {
            z: 1,
            clamp: 4,
            max_states: 200_000,
        }
    }
}

/// The checker's independent valency verdict. Display matches the decider
/// stack's `Valency` rendering so the two sides diff textually.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McValency {
    /// Both a 0-decision and a 1-decision are reachable.
    Bivalent,
    /// Only `v`-decisions are reachable.
    Univalent(u32),
    /// No decision was reached in the explored graph.
    Undetermined,
}

impl fmt::Display for McValency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McValency::Bivalent => write!(f, "bivalent"),
            McValency::Univalent(v) => write!(f, "{v}-univalent"),
            McValency::Undetermined => write!(f, "undetermined"),
        }
    }
}

/// The outcome of one independent valency check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValencyReport {
    /// The initial configuration's valency over the explored graph.
    pub valency: McValency,
    /// Budgeted states stored.
    pub states: u64,
    /// Whether the whole clamped `E_z*` graph was covered. Under
    /// [`Coverage::Bounded`] only a `Bivalent` verdict is sound.
    pub coverage: Coverage,
}

/// One stored budgeted state.
#[derive(Debug, PartialEq, Eq, Hash)]
struct BudgetKey {
    config: rcn_model::Configuration,
    allowance: Vec<u16>,
}

// Written out so that `clone_from` reuses every buffer: the search builds
// each successor in one scratch key.
impl Clone for BudgetKey {
    fn clone(&self) -> Self {
        BudgetKey {
            config: self.config.clone(),
            allowance: self.allowance.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.config.clone_from(&source.config);
        self.allowance.clone_from(&source.allowance);
    }
}

/// Breadth-first valency check of `system`'s initial configuration under
/// the clamped `E_z*` crash budgets.
pub fn valency_check(system: &System, config: ValencyConfig) -> ValencyReport {
    let n = system.n();
    // Saturating: a wrapped product would fund no crashes at all.
    let funded = u16::try_from(config.z.saturating_mul(n)).unwrap_or(u16::MAX);
    let init = BudgetKey {
        config: system.initial_config(),
        allowance: vec![0; n],
    };
    let mut keys = vec![init];
    let mut index = StateIndex::new();
    index.insert(canonical_hash(&keys[0]), 0);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut clipped = false;

    // Every successor is built in `next`; only a state seen for the first
    // time is copied out of it.
    let mut next = keys[0].clone();
    let mut head = 0usize;
    while head < keys.len() {
        let id = head;
        head += 1;
        for i in 0..n {
            let p = ProcessId(i as u16);
            let events = [Event::Step(p), Event::Crash(p)];
            let events = if i > 0 && keys[id].allowance[i] > 0 {
                &events[..]
            } else {
                &events[..1]
            };
            for &event in events {
                next.clone_from(&keys[id]);
                system.apply(&mut next.config, event);
                match event {
                    Event::Step(_) => {
                        for a in next.allowance.iter_mut().skip(i + 1) {
                            *a = (*a).saturating_add(funded).min(config.clamp);
                        }
                    }
                    Event::Crash(_) => next.allowance[i] -= 1,
                    // `E_z*` budgets (paper §3) are defined for individual
                    // crashes only; this BFS never enumerates the extended
                    // fault families.
                    Event::SystemCrash | Event::CrashDuring(_) => {
                        unreachable!("valency graphs enumerate only steps and per-process crashes")
                    }
                }
                let digest = canonical_hash(&next);
                let target = match index.find(&keys, digest, &next) {
                    Some(t) => t,
                    None => {
                        if keys.len() >= config.max_states {
                            clipped = true;
                            continue;
                        }
                        let t = keys.len();
                        index.insert(digest, t);
                        keys.push(next.clone());
                        t
                    }
                };
                edges.push((id as u32, target as u32));
            }
        }
    }

    let valency = initial_valency(&keys, &edges);
    ValencyReport {
        valency,
        states: keys.len() as u64,
        coverage: if clipped {
            Coverage::Bounded
        } else {
            Coverage::Exhaustive
        },
    }
}

/// Backward worklist propagation of "can reach a `v`-decision" from each
/// state's own decided values over the reversed edge list, evaluated at the
/// initial state.
fn initial_valency(keys: &[BudgetKey], edges: &[(u32, u32)]) -> McValency {
    // Reverse adjacency in CSR form: the predecessors of `i`, in edge
    // order, are `preds[starts[i]..starts[i + 1]]`.
    let mut starts = vec![0usize; keys.len() + 1];
    for &(_, to) in edges {
        starts[to as usize + 1] += 1;
    }
    for i in 0..keys.len() {
        starts[i + 1] += starts[i];
    }
    let mut preds = vec![0u32; edges.len()];
    let mut fill = starts.clone();
    for &(from, to) in edges {
        preds[fill[to as usize]] = from;
        fill[to as usize] += 1;
    }
    let reach = |want_zero: bool| -> bool {
        let mut seen = vec![false; keys.len()];
        let mut work: Vec<u32> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let seeds = key
                .config
                .decided
                .iter()
                .flatten()
                .any(|&d| (d == 0) == want_zero);
            if seeds {
                seen[i] = true;
                work.push(i as u32);
            }
        }
        while let Some(i) = work.pop() {
            if i == 0 {
                return true;
            }
            let i = i as usize;
            for &p in &preds[starts[i]..starts[i + 1]] {
                if !seen[p as usize] {
                    seen[p as usize] = true;
                    work.push(p);
                }
            }
        }
        seen[0]
    };
    match (reach(true), reach(false)) {
        (true, true) => McValency::Bivalent,
        (true, false) => McValency::Univalent(0),
        (false, true) => {
            // The reference reports the reachable value; over binary
            // consensus every nonzero decision is 1.
            McValency::Univalent(1)
        }
        (false, false) => McValency::Undetermined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_protocols::{TasConsensus, TnnRecoverable, TournamentConsensus};
    use rcn_spec::zoo::StickyBit;
    use std::sync::Arc;

    #[test]
    fn mixed_inputs_are_bivalent() {
        // Observation 1 of the paper: the initial configuration with mixed
        // inputs is bivalent.
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let report = valency_check(&sys, ValencyConfig::default());
        assert_eq!(report.coverage, Coverage::Exhaustive);
        assert_eq!(report.valency, McValency::Bivalent);
    }

    #[test]
    fn uniform_inputs_are_univalent_by_validity() {
        for (inputs, want) in [
            (vec![1, 1], McValency::Univalent(1)),
            (vec![0, 0], McValency::Univalent(0)),
        ] {
            let sys = TnnRecoverable::system(5, 2, inputs);
            let report = valency_check(&sys, ValencyConfig::default());
            assert_eq!(report.valency, want);
        }
    }

    #[test]
    fn tournament_mixed_inputs_are_bivalent() {
        let sys = TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![1, 0]).unwrap();
        let report = valency_check(
            &sys,
            ValencyConfig {
                clamp: 2,
                ..ValencyConfig::default()
            },
        );
        assert_eq!(report.coverage, Coverage::Exhaustive);
        assert_eq!(report.valency, McValency::Bivalent);
    }

    #[test]
    fn broken_protocols_still_have_well_defined_valencies() {
        // T&S consensus violates agreement under crashes, but its decision
        // *reachability* is still meaningful — mixed inputs reach both.
        let sys = TasConsensus::system(vec![0, 1]);
        let report = valency_check(&sys, ValencyConfig::default());
        assert_eq!(report.valency, McValency::Bivalent);
    }

    #[test]
    fn state_cap_demotes_coverage() {
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let report = valency_check(
            &sys,
            ValencyConfig {
                max_states: 5,
                ..ValencyConfig::default()
            },
        );
        assert_eq!(report.coverage, Coverage::Bounded);
        assert_eq!(report.states, 5);
    }

    #[test]
    fn check_is_deterministic() {
        let sys = TasConsensus::system(vec![0, 1]);
        let first = valency_check(&sys, ValencyConfig::default());
        for _ in 0..3 {
            assert_eq!(valency_check(&sys, ValencyConfig::default()), first);
        }
    }
}
