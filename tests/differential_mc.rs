//! Differential tests between the independent BFS model checker
//! (`rcn-mc`) and the rest of the stack: the DFS crash explorer
//! (`rcn-faults`), the budgeted valency graph (`rcn-valency`), and the
//! abstract↔threaded replay bridge.
//!
//! The checker shares no search code with any of them — same question,
//! different algorithm, different state representation — so agreement
//! here is evidence about the *engines*, not just the protocols.

use rcn::faults::{crashtest, replay, CrashtestConfig};
use rcn::mc::{model_check, valency_check, Coverage, McConfig, McValency, ValencyConfig};
use rcn::protocols::{TasConsensus, TnnRecoverable, TnnWaitFree, TournamentConsensus};
use rcn::spec::zoo::{CompareAndSwap, Register, StickyBit, Tnn};
use rcn::spec::{OpId, Response, ValueId};
use rcn::valency::BudgetedGraph;
use rcn_model::{Action, FaultModel, HeapLayout, LocalState, ProcessId, System};
use std::sync::Arc;

fn protocols() -> Vec<(&'static str, System)> {
    vec![
        ("tas", TasConsensus::system(vec![0, 1])),
        ("tnn-wait-free:2,1", TnnWaitFree::system(2, 1, vec![0, 1])),
        (
            "tnn-recoverable:5,2",
            TnnRecoverable::system(5, 2, vec![0, 1]),
        ),
        (
            "tournament:sticky",
            TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![1, 0]).unwrap(),
        ),
    ]
}

/// The protocols on uniform inputs, whose initial configurations are
/// univalent by validity.
fn uniform_protocols() -> Vec<(&'static str, System)> {
    vec![
        ("tas on 1,1", TasConsensus::system(vec![1, 1])),
        (
            "tnn-wait-free:2,1 on 0,0",
            TnnWaitFree::system(2, 1, vec![0, 0]),
        ),
        (
            "tnn-recoverable:5,2 on 1,1",
            TnnRecoverable::system(5, 2, vec![1, 1]),
        ),
        (
            "tournament:sticky on 0,0",
            TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![0, 0]).unwrap(),
        ),
    ]
}

/// The four CLI fault models the differential sweeps quantify over.
const FAULT_MODELS: [FaultModel; 4] = [
    FaultModel::PER_PROCESS,
    FaultModel::SYSTEM,
    FaultModel::MID_OP,
    FaultModel::ALL,
];

/// The two engines must agree on violation *existence* at every shared
/// budget and under every fault model: BFS over the same event semantics
/// reaches a violating configuration within depth D and K crashes iff
/// the memoized DFS does.
#[test]
fn verdicts_agree_across_a_budget_sweep() {
    for (name, sys) in protocols() {
        for fault_model in FAULT_MODELS {
            for (max_crashes, max_depth) in
                [(0, 6), (1, 4), (1, 5), (1, 6), (2, 6), (1, 8), (2, 10)]
            {
                let dfs = crashtest(
                    &sys,
                    CrashtestConfig {
                        max_crashes,
                        max_depth,
                        max_states: 500_000,
                        fault_model,
                    },
                );
                let bfs = model_check(
                    &sys,
                    McConfig {
                        max_crashes,
                        max_depth,
                        max_states: 500_000,
                        fault_model,
                    },
                );
                assert!(
                    dfs.stats.exhaustive(),
                    "{name} model={fault_model} dfs capped at {max_depth}"
                );
                assert_eq!(
                    bfs.coverage,
                    Coverage::Exhaustive,
                    "{name} model={fault_model} bfs capped at {max_depth}"
                );
                assert_eq!(
                    dfs.counterexample.is_some(),
                    bfs.counterexample.is_some(),
                    "{name} verdicts diverge at model={fault_model}, crashes={max_crashes}, \
                     depth={max_depth}: dfs={:?} bfs={:?}",
                    dfs.counterexample.as_ref().map(|c| c.schedule.to_string()),
                    bfs.counterexample.as_ref().map(|c| c.schedule.to_string()),
                );
            }
        }
    }
}

/// BFS counterexamples are minimal in schedule length: re-checking with
/// the depth budget one below the reported schedule certifies clean.
#[test]
fn bfs_counterexamples_are_depth_minimal() {
    for (name, sys) in protocols() {
        let config = McConfig::default();
        let Some(cex) = model_check(&sys, config).counterexample else {
            continue;
        };
        let tighter = model_check(
            &sys,
            McConfig {
                max_depth: cex.schedule.len() - 1,
                ..config
            },
        );
        assert!(
            tighter.is_certified_clean(),
            "{name}: a schedule shorter than {} exists",
            cex.schedule.len()
        );
    }
}

/// Every counterexample the checker reports — under every fault model,
/// including schedules containing system-wide (`C`) and mid-operation
/// (`d_i`) crashes — replays identically through the abstract executor
/// and the threaded runtime (the RCN203 bridge).
#[test]
fn bfs_counterexamples_replay_on_both_executors() {
    for (name, sys) in protocols() {
        for fault_model in FAULT_MODELS {
            let config = McConfig {
                fault_model,
                ..McConfig::default()
            };
            if let Some(cex) = model_check(&sys, config).counterexample {
                let replayed = replay(&sys, &cex.schedule);
                assert!(
                    replayed.confirmed(),
                    "{name} model={fault_model}: `{}` not confirmed: {replayed}",
                    cex.schedule
                );
            }
        }
    }
}

/// The decider stack's budgeted `E_z*` graph and the checker's forward
/// search agree on the initial configuration's valency at identical
/// `(z, clamp)` budgets. The checker stores the whole graph unless it is
/// bivalent, when it stops once it has stored both decision values.
#[test]
fn valency_verdicts_agree_with_the_budgeted_graph() {
    for (name, sys) in protocols().into_iter().chain(uniform_protocols()) {
        for (z, clamp) in [(1, 2), (1, 4), (2, 3)] {
            let graph = BudgetedGraph::explore(&sys, z, clamp, 500_000)
                .unwrap_or_else(|e| panic!("{name} graph at z={z}: {e:?}"));
            let checker = valency_check(
                &sys,
                ValencyConfig {
                    z,
                    clamp,
                    max_states: 500_000,
                },
            );
            assert_eq!(checker.coverage, Coverage::Exhaustive, "{name} capped");
            assert_eq!(
                graph.initial_valency().to_string(),
                checker.valency.to_string(),
                "{name} valency diverges at z={z}, clamp={clamp}"
            );
            let states = graph.len() as u64;
            if checker.valency == McValency::Bivalent {
                assert!(checker.states <= states, "{name} stored past the graph");
            } else {
                assert_eq!(checker.states, states, "{name} states at z={z}");
            }
        }
    }
}

/// Crash funding saturates: at z = 32,768 and two processes, z·n = 65,536
/// no longer fits the allowance word, and must fund as much as the clamp
/// allows rather than wrap to zero. Both engines then build the graph of
/// z = clamp, the smallest budget that already funds the whole clamp.
#[test]
fn crash_funding_saturates_instead_of_wrapping() {
    let clamp = 4;
    for (name, sys) in protocols() {
        let wide = BudgetedGraph::explore(&sys, 32_768, clamp, 500_000).unwrap();
        let exact = BudgetedGraph::explore(&sys, usize::from(clamp), clamp, 500_000).unwrap();
        let crashes = (0..wide.len()).any(|id| wide.successors(id).any(|(e, _)| e.is_crash()));
        assert!(crashes, "{name}: z = 32768 funds no crashes");
        assert_eq!(wide.len(), exact.len(), "{name}: state count");
        for id in 0..exact.len() {
            assert_eq!(
                wide.successors(id).collect::<Vec<_>>(),
                exact.successors(id).collect::<Vec<_>>(),
                "{name}: state {id}"
            );
            assert_eq!(wide.valency(id), exact.valency(id), "{name}: state {id}");
        }
        let check = |z| {
            valency_check(
                &sys,
                ValencyConfig {
                    z,
                    clamp,
                    max_states: 500_000,
                },
            )
        };
        let (wide, exact) = (check(32_768), check(usize::from(clamp)));
        assert_eq!(wide, exact, "{name}: checker verdict");
    }
}

/// A one-process program that reads a register `steps` times, then
/// outputs 99, which is not its input: a validity violation `steps + 1`
/// events deep.
struct LateInvalidOutput {
    reg: rcn_model::ObjectId,
    steps: u32,
}

impl rcn_model::Program for LateInvalidOutput {
    fn name(&self) -> String {
        "late-invalid-output".into()
    }
    fn initial_state(&self, _pid: ProcessId, _input: u32) -> LocalState {
        LocalState::word1(0)
    }
    fn action(&self, _pid: ProcessId, state: &LocalState) -> Action {
        if state.word(0) < self.steps {
            Action::Invoke {
                object: self.reg,
                op: OpId::new(2), // read
            }
        } else {
            Action::Output(99)
        }
    }
    fn transition(&self, _pid: ProcessId, state: &LocalState, _r: Response) -> LocalState {
        LocalState::word1(state.word(0) + 1)
    }
}

/// Depths past 65 535 are counted exactly: a violation one event beyond a
/// 70 000-event cap is out of budget for both engines.
#[test]
fn deep_budgets_keep_violations_beyond_the_cap_out_of_budget() {
    let mut layout = HeapLayout::new();
    let reg = layout.add_object("R", Arc::new(Register::new(2)), ValueId::new(0));
    let program = LateInvalidOutput { reg, steps: 70_001 };
    let sys = System::new(Arc::new(program), Arc::new(layout), vec![0]);
    let (max_crashes, max_depth, max_states) = (0, 70_000, 500_000);
    let bfs = model_check(
        &sys,
        McConfig {
            max_crashes,
            max_depth,
            max_states,
            fault_model: FaultModel::PER_PROCESS,
        },
    );
    assert_eq!(
        bfs.counterexample.as_ref().map(|c| c.schedule.len()),
        None,
        "a violation past the depth cap"
    );
    assert!(bfs.is_certified_clean());
    assert!(bfs.stats.depth_clipped);
    assert_eq!(bfs.stats.states_visited, 70_001);
    let dfs = crashtest(
        &sys,
        CrashtestConfig {
            max_crashes,
            max_depth,
            max_states,
            fault_model: FaultModel::PER_PROCESS,
        },
    );
    assert!(dfs.counterexample.is_none() && dfs.stats.exhaustive());
}

/// The acceptance bar from the paper: the checker independently
/// re-derives Golab's test&set separation and the `T_{2,1}` ⊥-divergence,
/// and certifies the §4 algorithm and every tournament variant clean.
#[test]
fn checker_rederives_the_papers_separations() {
    let config = McConfig::default();

    let golab = model_check(&TasConsensus::system(vec![0, 1]), config);
    let cex = golab.counterexample.expect("test&set diverges");
    assert!(!cex.schedule.is_crash_free());

    let bottom = model_check(&TnnWaitFree::system(2, 1, vec![0, 1]), config);
    assert!(bottom.counterexample.is_some(), "T_{{2,1}} diverges");

    assert!(model_check(&TnnRecoverable::system(5, 2, vec![0, 1]), config).is_certified_clean());

    let variants: Vec<(&str, System)> = vec![
        (
            "sticky",
            TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![1, 0]).unwrap(),
        ),
        (
            "cas",
            TournamentConsensus::try_new(Arc::new(CompareAndSwap::new(3)), vec![1, 0]).unwrap(),
        ),
        (
            "tnn:3,2",
            TournamentConsensus::try_new(Arc::new(Tnn::new(3, 2)), vec![1, 0]).unwrap(),
        ),
    ];
    for (name, sys) in variants {
        let report = model_check(&sys, config);
        assert!(
            report.is_certified_clean(),
            "tournament:{name} not certified: {:?}",
            report.counterexample.map(|c| c.schedule.to_string())
        );
    }
}
