//! Bounded abstract exploration of program state machines.
//!
//! The §4 protocols are [`rcn_model::Program`]s: deterministic per-process
//! state machines whose transitions are driven by object responses. This
//! module explores each process's local-state machine through every
//! *feasible* response of the operation it invokes — a response is
//! feasible for `(object, op)` if some value of the object's type can
//! return it — which over-approximates the set of states any real
//! execution can reach without enumerating global configurations.

use rcn_model::{Action, LocalState, ObjectId, Program, System};
use rcn_spec::{ObjectType, OpId, Response, ValueId};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;

/// Serializes panic-hook swaps across threads (lints run concurrently in
/// test binaries).
static HOOK_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f`, catching panics without letting the default hook print a
/// backtrace. Returns the panic payload as a string on unwind.
pub(crate) fn silent_catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    panic::set_hook(prev);
    drop(guard);
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Bounds for the abstract exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Maximum number of distinct local states explored per process.
    pub max_states: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig { max_states: 20_000 }
    }
}

/// A place where the program broke its totality contract during
/// exploration.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Index into [`ProcessGraph::states`] of the state involved.
    pub state: usize,
    /// The feasible response that made `transition` panic, or `None` if
    /// `action` itself panicked.
    pub response: Option<Response>,
    /// The panic payload.
    pub payload: String,
}

/// The abstract local-state machine of one process: every state reachable
/// from the initial state under feasible responses.
#[derive(Debug, Clone)]
pub struct ProcessGraph {
    /// The process's input value.
    pub input: u32,
    /// The explored states; index 0 is the initial (and post-crash) state.
    pub states: Vec<LocalState>,
    /// The pending action of each state (`None` if `action` panicked).
    pub actions: Vec<Option<Action>>,
    /// Successor state indices of each state (empty for output states).
    pub edges: Vec<Vec<usize>>,
    /// Totality violations found while exploring.
    pub panics: Vec<PanicSite>,
    /// `true` if [`ExploreConfig::max_states`] was hit and the graph is
    /// incomplete.
    pub truncated: bool,
}

impl ProcessGraph {
    /// Indices of states whose action is an output.
    pub fn output_states(&self) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&i| matches!(self.actions[i], Some(Action::Output(_))))
            .collect()
    }

    /// The set of objects invoked by any explored state.
    pub fn touched_objects(&self) -> Vec<ObjectId> {
        let mut seen: Vec<ObjectId> = self
            .actions
            .iter()
            .filter_map(|a| match a {
                Some(Action::Invoke { object, .. }) => Some(*object),
                _ => None,
            })
            .collect();
        seen.sort_unstable();
        seen.dedup();
        seen
    }

    /// States (indices) from which no path reaches an output state.
    /// Meaningful only when the graph is not [`truncated`](Self::truncated).
    pub fn states_without_output_path(&self) -> Vec<usize> {
        let n = self.states.len();
        // Reverse reachability from output states.
        let mut rev = vec![Vec::new(); n];
        for (from, succs) in self.edges.iter().enumerate() {
            for &to in succs {
                rev[to].push(from);
            }
        }
        let mut good = vec![false; n];
        let mut frontier = self.output_states();
        for &s in &frontier {
            good[s] = true;
        }
        while let Some(s) = frontier.pop() {
            for &p in &rev[s] {
                if !good[p] {
                    good[p] = true;
                    frontier.push(p);
                }
            }
        }
        (0..n).filter(|&i| !good[i]).collect()
    }
}

/// The feasible responses of `(object, op)`: every response some value of
/// the object's type can return for `op`. Returns `Err` when `op` is out
/// of range for the type (an RCN102-class totality violation).
fn feasible_responses(ty: &dyn ObjectType, op: OpId) -> Result<Vec<Response>, String> {
    if op.index() >= ty.num_ops() {
        return Err(format!(
            "op {op} is out of range for {} ({} ops)",
            ty.name(),
            ty.num_ops()
        ));
    }
    let mut responses: Vec<Response> = (0..ty.num_values())
        .map(|v| ty.apply(ValueId(v as u16), op).response)
        .collect();
    responses.sort_unstable();
    responses.dedup();
    Ok(responses)
}

/// Explores the local-state machine of process `pid` of `sys`.
pub fn explore_process(
    sys: &System,
    pid: rcn_model::ProcessId,
    cfg: &ExploreConfig,
) -> ProcessGraph {
    let program: &dyn Program = sys.program();
    let input = sys.inputs()[pid.index()];
    let initial = program.initial_state(pid, input);
    let mut graph = ProcessGraph {
        input,
        states: vec![initial.clone()],
        actions: Vec::new(),
        edges: Vec::new(),
        panics: Vec::new(),
        truncated: false,
    };
    let mut index: HashMap<LocalState, usize> = HashMap::new();
    index.insert(initial, 0);
    // Per-(object, op) feasible-response cache.
    let mut feasible: HashMap<(ObjectId, OpId), Result<Vec<Response>, String>> = HashMap::new();
    let mut cursor = 0;
    while cursor < graph.states.len() {
        let state = graph.states[cursor].clone();
        let action = silent_catch(|| program.action(pid, &state));
        let mut succs = Vec::new();
        match action {
            Err(payload) => {
                graph.panics.push(PanicSite {
                    state: cursor,
                    response: None,
                    payload,
                });
                graph.actions.push(None);
            }
            Ok(Action::Output(v)) => {
                graph.actions.push(Some(Action::Output(v)));
            }
            Ok(Action::Invoke { object, op }) => {
                graph.actions.push(Some(Action::Invoke { object, op }));
                let responses = feasible
                    .entry((object, op))
                    .or_insert_with(|| {
                        if object.index() >= sys.layout().len() {
                            Err(format!(
                                "object {object} is out of range ({} objects)",
                                sys.layout().len()
                            ))
                        } else {
                            silent_catch(|| {
                                feasible_responses(sys.layout().object_type(object), op)
                            })
                            .unwrap_or_else(Err)
                        }
                    })
                    .clone();
                match responses {
                    Err(payload) => graph.panics.push(PanicSite {
                        state: cursor,
                        response: None,
                        payload,
                    }),
                    Ok(responses) => {
                        for r in responses {
                            match silent_catch(|| program.transition(pid, &state, r)) {
                                Err(payload) => graph.panics.push(PanicSite {
                                    state: cursor,
                                    response: Some(r),
                                    payload,
                                }),
                                Ok(next) => {
                                    let next_id = *index.entry(next.clone()).or_insert_with(|| {
                                        graph.states.push(next);
                                        graph.states.len() - 1
                                    });
                                    succs.push(next_id);
                                }
                            }
                        }
                    }
                }
            }
        }
        succs.sort_unstable();
        succs.dedup();
        graph.edges.push(succs);
        cursor += 1;
        if graph.states.len() > cfg.max_states {
            graph.truncated = true;
            break;
        }
    }
    // Align actions/edges with states for any trailing unexplored states.
    while graph.actions.len() < graph.states.len() {
        graph.actions.push(None);
        graph.edges.push(Vec::new());
        graph.truncated = true;
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_model::{HeapLayout, OutputInput, ProcessId};
    use std::sync::Arc;

    #[test]
    fn silent_catch_returns_payloads() {
        assert_eq!(silent_catch(|| 1 + 1), Ok(2));
        let err = silent_catch(|| panic!("boom {}", 7)).unwrap_err();
        assert!(err.contains("boom 7"));
    }

    #[test]
    fn output_input_graph_is_a_single_output_state() {
        let sys = System::new(
            Arc::new(OutputInput),
            Arc::new(HeapLayout::new()),
            vec![3, 3],
        );
        let g = explore_process(&sys, ProcessId::new(0), &ExploreConfig::default());
        assert_eq!(g.states.len(), 1);
        assert_eq!(g.output_states(), vec![0]);
        assert!(g.panics.is_empty());
        assert!(!g.truncated);
        assert!(g.states_without_output_path().is_empty());
        assert!(g.touched_objects().is_empty());
    }
}
