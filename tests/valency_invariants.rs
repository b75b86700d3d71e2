//! Invariants of the valency machinery, checked against live protocols:
//! the structural facts the paper's §3 lemmas rely on must hold in every
//! explored graph.

use rcn::protocols::{TnnRecoverable, TournamentConsensus};
use rcn::spec::zoo::StickyBit;
use rcn::valency::{BudgetedGraph, Valency};
use std::sync::Arc;

fn graphs() -> Vec<(String, rcn::model::System)> {
    vec![
        (
            "sticky tournament 2p".into(),
            TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![0, 1]).unwrap(),
        ),
        (
            "tnn(4,2) 2p".into(),
            TnnRecoverable::system(4, 2, vec![0, 1]),
        ),
        (
            "tnn(3,1) uniform".into(),
            TnnRecoverable::system(3, 1, vec![1]),
        ),
    ]
}

/// Valency is monotone along edges: a v-univalent state has only
/// v-univalent successors, and a bivalent state has at least one deciding
/// extension of each value somewhere downstream.
#[test]
fn univalence_is_absorbing() {
    for (label, sys) in graphs() {
        let graph = BudgetedGraph::explore(&sys, 1, 5, 2_000_000).unwrap();
        for id in 0..graph.len() {
            if let Valency::Univalent(v) = graph.valency(id) {
                for (event, target) in graph.successors(id) {
                    match graph.valency(target) {
                        Valency::Univalent(w) => assert_eq!(
                            v, w,
                            "{label}: univalence flipped on {event} from state {id}"
                        ),
                        other => panic!("{label}: {v}-univalent state {id} has {other} successor"),
                    }
                }
            }
        }
        // The initial state of a mixed-input system is bivalent; of a
        // uniform-input system univalent.
        let mixed = sys.inputs().iter().any(|&x| x != sys.inputs()[0]);
        match graph.initial_valency() {
            Valency::Bivalent => assert!(mixed, "{label}: bivalent needs mixed inputs"),
            Valency::Univalent(v) => {
                assert!(!mixed, "{label}: univalent with mixed inputs?");
                assert_eq!(v, sys.inputs()[0], "{label}: validity pins the value");
            }
            Valency::Undetermined => panic!("{label}: initial state must reach a decision"),
        }
    }
}

/// Every mixed-input graph contains a critical state, and its analysis
/// satisfies Lemma 7 (both teams nonempty) and Lemma 9 (a single common
/// object) — the paper's preconditions for Observation 11.
#[test]
fn critical_states_satisfy_lemmas_7_and_9() {
    for (label, sys) in graphs() {
        if sys.inputs().iter().all(|&x| x == sys.inputs()[0]) {
            continue; // uniform inputs: univalent, no critical state
        }
        let graph = BudgetedGraph::explore(&sys, 1, 5, 2_000_000).unwrap();
        let critical = graph
            .find_critical()
            .unwrap_or_else(|| panic!("{label}: Lemma 6(a) critical state"));
        let info = graph.analyze_critical(critical);
        let teams: Vec<u32> = info.teams.iter().flatten().copied().collect();
        assert!(
            teams.contains(&0) && teams.contains(&1),
            "{label}: Lemma 7 violated: {teams:?}"
        );
        assert!(info.object.is_some(), "{label}: Lemma 9 violated");
        assert!(info.class.is_some(), "{label}: classification must exist");
    }
}

/// The critical execution replays to an undecided configuration (critical
/// means bivalent, and bivalent means nobody has decided in a correct
/// protocol).
#[test]
fn critical_executions_replay_undecided() {
    for (label, sys) in graphs() {
        if sys.inputs().iter().all(|&x| x == sys.inputs()[0]) {
            continue;
        }
        let graph = BudgetedGraph::explore(&sys, 1, 5, 2_000_000).unwrap();
        let critical = graph.find_critical().unwrap();
        let schedule = graph.path_to(critical);
        let (config, violation) = sys.run_from_start(&schedule);
        assert!(violation.is_none(), "{label}");
        assert!(config.outputs().is_empty(), "{label}: {schedule}");
    }
}

/// Raising the budget multiplier z can only grow the explored set.
#[test]
fn bigger_budgets_explore_more() {
    let sys = TnnRecoverable::system(4, 2, vec![0, 1]);
    let g1 = BudgetedGraph::explore(&sys, 1, 4, 2_000_000).unwrap();
    let g2 = BudgetedGraph::explore(&sys, 2, 8, 2_000_000).unwrap();
    assert!(g2.len() >= g1.len());
}
