//! Independent valency re-derivation over the `E_z*` execution sets.
//!
//! `rcn-valency`'s `BudgetedGraph` computes bivalence/univalence facts for
//! every state: a breadth-first build into rows of interned per-process
//! parts with CSR edges, then one pass over the strongly connected
//! components of those edges in Tarjan's completion order. This
//! module answers the *same question* for the initial configuration —
//! which decision values are reachable from it when `p_i` may crash at
//! most `z·n ×` (steps of lower-id processes) times, allowances clamped at
//! a ceiling — with its own forward breadth-first search over this crate's
//! flat state store (each field kept and compared on its own), keeping no
//! edges at all. Every stored state is reachable from the initial one, so
//! a decision value is reachable exactly when some stored state holds it:
//! the search notes the values its stored states hold and stops once it
//! has stored both. The two engines differ in direction (forward existence
//! with an early stop vs a component pass over every state), in state
//! identity (structural fields vs interned part rows) and in what they
//! keep of the graph (nothing vs CSR edges). Agreement between the two is
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
//! * a state holds 0 if a process in it decided 0 and 1 if a process in it
//!   decided a nonzero value, and the initial configuration reaches every
//!   value a stored state holds.
//!
//! Under a [`Coverage::Bounded`] result only **bivalence** is trustworthy
//! (both witnesses are real executions); a univalent or undetermined
//! verdict on a clipped graph may just be missing the other witness, which
//! is why the cross-check refuses to compare bounded valencies.

use crate::checker::Coverage;
use crate::store::{digest, Store};
use rcn_model::{Configuration, Event, ProcessId, System};
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
    /// Budgeted states stored when the verdict settled. For a univalent or
    /// undetermined verdict that is the whole explored graph; a bivalent
    /// verdict settles at the first stored state that holds the second
    /// decision value, so it counts the states up to and including it.
    pub states: u64,
    /// Whether the state cap clipped a successor before the verdict
    /// settled. Under [`Coverage::Bounded`] only a `Bivalent` verdict is
    /// sound; since no state is stored past the cap, a bivalent verdict
    /// always settles before it clips.
    pub coverage: Coverage,
}

/// Breadth-first valency check of `system`'s initial configuration under
/// the clamped `E_z*` crash budgets, stopping once it has stored states
/// holding both decision values.
pub fn valency_check(system: &System, config: ValencyConfig) -> ValencyReport {
    let n = system.n();
    // Saturating: a wrapped product would fund no crashes at all.
    let funded = u16::try_from(config.z.saturating_mul(n)).unwrap_or(u16::MAX);
    // A state is its configuration plus each process's crash allowance.
    let initial = system.initial_config();
    let mut allowance = vec![0u16; n];
    let mut store = Store::new(n, initial.values.len());
    store.push(digest(&initial, &allowance), &initial, &allowance);
    // Whether a stored state holds 0, and whether one holds a nonzero value.
    let mut held = [false; 2];
    note_decisions(&initial, &mut held);
    let mut clipped = false;

    // Each state is loaded into `current` and `allowance`; every successor
    // is built in `next` and `next_allowance`, and only a state seen for
    // the first time is copied into the store.
    let (mut current, mut next) = (initial.clone(), initial);
    let mut next_allowance = allowance.clone();
    let mut id = 0usize;
    'search: while held != [true, true] && id < store.len() {
        store.load(id, &mut current, &mut allowance);
        for i in 0..n {
            let p = ProcessId(i as u16);
            let events = [Event::Step(p), Event::Crash(p)];
            let events = if i > 0 && allowance[i] > 0 {
                &events[..]
            } else {
                &events[..1]
            };
            for &event in events {
                next.clone_from(&current);
                system.apply(&mut next, event);
                next_allowance.copy_from_slice(&allowance);
                match event {
                    Event::Step(_) => {
                        for a in next_allowance.iter_mut().skip(i + 1) {
                            *a = (*a).saturating_add(funded).min(config.clamp);
                        }
                    }
                    Event::Crash(_) => next_allowance[i] -= 1,
                    // `E_z*` budgets (paper §3) are defined for individual
                    // crashes only; this BFS never enumerates the extended
                    // fault families.
                    Event::SystemCrash | Event::CrashDuring(_) => {
                        unreachable!("valency graphs enumerate only steps and per-process crashes")
                    }
                }
                let digest = digest(&next, &next_allowance);
                if store.find(digest, &next, &next_allowance).is_some() {
                    continue;
                }
                if store.len() >= config.max_states {
                    clipped = true;
                    continue;
                }
                store.push(digest, &next, &next_allowance);
                note_decisions(&next, &mut held);
                if held == [true, true] {
                    break 'search;
                }
            }
        }
        id += 1;
    }

    let valency = match held {
        [true, true] => McValency::Bivalent,
        [true, false] => McValency::Univalent(0),
        // The reference reports the reachable value; over binary consensus
        // every nonzero decision is 1.
        [false, true] => McValency::Univalent(1),
        [false, false] => McValency::Undetermined,
    };
    ValencyReport {
        valency,
        states: store.len() as u64,
        coverage: if clipped {
            Coverage::Bounded
        } else {
            Coverage::Exhaustive
        },
    }
}

/// Notes in `held` whether `config` holds a 0-decision (`held[0]`) and a
/// nonzero decision (`held[1]`).
fn note_decisions(config: &Configuration, held: &mut [bool; 2]) {
    for &d in config.decided.iter().flatten() {
        held[usize::from(d != 0)] = true;
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
