//! Explicit-state exploration of the configuration graph.
//!
//! For finite protocols over finite types the set of reachable
//! configurations is finite, even though executions are unbounded: a crash
//! resets a process to its (finitely many) initial states, so the graph is
//! closed under crash edges. All checking in this crate — safety
//! reachability, recoverable-wait-freedom cycle detection, valency — runs
//! on this graph.

use rcn_model::{Configuration, Event, ProcessId, Schedule, System, Violation, WordHasher};
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;

/// State ids keyed by packed state words
/// ([`Configuration::pack_into`], plus crash allowances in the budgeted
/// graph). Each state's full copy lives only in its graph's state vector.
pub(crate) type PackedIndex = HashMap<Box<[u32]>, usize, BuildHasherDefault<WordHasher>>;

/// Index of a configuration in a [`ConfigGraph`].
pub type ConfigId = usize;

/// One outgoing edge of the configuration graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeInfo {
    /// The event labeling the edge.
    pub event: Event,
    /// The target configuration.
    pub target: ConfigId,
    /// The safety violation triggered by taking this edge, if any.
    pub violation: Option<Violation>,
}

/// Errors from [`ConfigGraph::explore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The reachable state space exceeded the configured limit.
    TooLarge {
        /// The limit that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::TooLarge { limit } => {
                write!(f, "state space exceeds {limit} configurations")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// The reachable configuration graph of a [`System`].
///
/// Edges cover every step `p_i` and every crash `c_i` of every process
/// (crashes are unconstrained here — budgets are proof machinery, not part
/// of the correctness conditions being checked).
///
/// # Examples
///
/// ```
/// use rcn_model::{HeapLayout, OutputInput, System};
/// use rcn_valency::ConfigGraph;
/// use std::sync::Arc;
///
/// let sys = System::new(Arc::new(OutputInput), Arc::new(HeapLayout::new()), vec![0, 0]);
/// let graph = ConfigGraph::explore(&sys, 1_000).unwrap();
/// assert_eq!(graph.len(), 1); // output-only program: nothing ever changes
/// ```
pub struct ConfigGraph {
    system: System,
    configs: Vec<Configuration>,
    edges: Vec<Vec<EdgeInfo>>,
    /// BFS parent of each configuration (for counterexample paths).
    parent: Vec<Option<(ConfigId, Event)>>,
}

impl ConfigGraph {
    /// Explores the full reachable graph, up to `max_configs`
    /// configurations.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::TooLarge`] if the limit is exceeded.
    pub fn explore(system: &System, max_configs: usize) -> Result<ConfigGraph, ExploreError> {
        Self::explore_with(system, max_configs, true)
    }

    /// Like [`explore`](Self::explore), with crash events optionally
    /// disabled — the crash-free graph checks plain wait-freedom (Herlihy's
    /// setting), which is how the repro driver shows that §4's wait-free
    /// algorithm is correct exactly until crashes are allowed.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::TooLarge`] if the limit is exceeded.
    pub fn explore_with(
        system: &System,
        max_configs: usize,
        with_crashes: bool,
    ) -> Result<ConfigGraph, ExploreError> {
        let n = system.n();
        let mut configs = vec![system.initial_config()];
        let mut key = Vec::new();
        configs[0].pack_into(&mut key);
        let mut index = PackedIndex::default();
        index.insert(key.as_slice().into(), 0);
        let mut edges: Vec<Vec<EdgeInfo>> = vec![Vec::new()];
        let mut parent: Vec<Option<(ConfigId, Event)>> = vec![None];

        // Every successor is built in `next` and packed into `key`; only a
        // configuration seen for the first time is copied out of them.
        let mut next = configs[0].clone();
        let mut frontier = 0usize;
        while frontier < configs.len() {
            let id = frontier;
            frontier += 1;
            let mut out = Vec::with_capacity(2 * n);
            for i in 0..n {
                let p = ProcessId(i as u16);
                let events: &[Event] = if with_crashes {
                    &[Event::Step(p), Event::Crash(p)]
                } else {
                    &[Event::Step(p)]
                };
                for &event in events {
                    next.clone_from(&configs[id]);
                    let effect = system.apply(&mut next, event);
                    key.clear();
                    next.pack_into(&mut key);
                    let target = match index.get(key.as_slice()) {
                        Some(&t) => t,
                        None => {
                            if configs.len() >= max_configs {
                                return Err(ExploreError::TooLarge { limit: max_configs });
                            }
                            let t = configs.len();
                            configs.push(next.clone());
                            index.insert(key.as_slice().into(), t);
                            edges.push(Vec::new());
                            parent.push(Some((id, event)));
                            t
                        }
                    };
                    out.push(EdgeInfo {
                        event,
                        target,
                        violation: effect.violation,
                    });
                }
            }
            edges[id] = out;
        }

        Ok(ConfigGraph {
            system: system.clone(),
            configs,
            edges,
            parent,
        })
    }

    /// Number of reachable configurations.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Returns `true` if the graph is empty (never: the initial
    /// configuration is always present).
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The configuration with the given id (0 is the initial one).
    pub fn config(&self, id: ConfigId) -> &Configuration {
        &self.configs[id]
    }

    /// Outgoing edges of a configuration.
    pub fn edges(&self, id: ConfigId) -> &[EdgeInfo] {
        &self.edges[id]
    }

    /// The system the graph was built from.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// A schedule from the initial configuration to `id`, following BFS
    /// parents.
    pub fn path_to(&self, id: ConfigId) -> Schedule {
        let mut events = Vec::new();
        let mut cur = id;
        while let Some((prev, event)) = self.parent[cur] {
            events.push(event);
            cur = prev;
        }
        events.reverse();
        Schedule::from_events(events)
    }

    /// Iterates over `(source, edge)` pairs of the whole graph.
    pub fn all_edges(&self) -> impl Iterator<Item = (ConfigId, &EdgeInfo)> {
        self.edges
            .iter()
            .enumerate()
            .flat_map(|(src, outs)| outs.iter().map(move |e| (src, e)))
    }
}

impl fmt::Debug for ConfigGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConfigGraph")
            .field("configs", &self.configs.len())
            .field("edges", &self.edges.iter().map(Vec::len).sum::<usize>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_model::{Action, HeapLayout, LocalState, Program};
    use rcn_spec::zoo::Register;
    use std::sync::Arc;

    /// Writes its input into a register, reads it back, outputs the read.
    struct WriteThenRead {
        reg: rcn_model::ObjectId,
    }

    impl Program for WriteThenRead {
        fn name(&self) -> String {
            "write-then-read".into()
        }
        fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
            LocalState::word2(input, 0)
        }
        fn action(&self, _pid: ProcessId, state: &LocalState) -> Action {
            match state.word(1) {
                0 => Action::Invoke {
                    object: self.reg,
                    op: rcn_spec::OpId::new(state.word(0) as u16), // write(input)
                },
                1 => Action::Invoke {
                    object: self.reg,
                    op: rcn_spec::OpId::new(2), // read
                },
                _ => Action::Output(state.word(2)),
            }
        }
        fn transition(
            &self,
            _pid: ProcessId,
            state: &LocalState,
            response: rcn_spec::Response,
        ) -> LocalState {
            match state.word(1) {
                0 => LocalState::word2(state.word(0), 1),
                _ => LocalState::from_words([state.word(0), 2, response.index() as u32]),
            }
        }
    }

    fn sys(inputs: Vec<u32>) -> System {
        let mut layout = HeapLayout::new();
        let reg = layout.add_object("R", Arc::new(Register::new(2)), rcn_spec::ValueId::new(0));
        System::new(Arc::new(WriteThenRead { reg }), Arc::new(layout), inputs)
    }

    #[test]
    fn exploration_terminates_and_is_closed() {
        let graph = ConfigGraph::explore(&sys(vec![0, 1]), 100_000).unwrap();
        assert!(graph.len() > 1);
        // Every edge target is in range.
        for (_, e) in graph.all_edges() {
            assert!(e.target < graph.len());
        }
        // Every configuration has 2n outgoing edges (n with crashes off).
        for id in 0..graph.len() {
            assert_eq!(graph.edges(id).len(), 4);
        }
        let system = graph.system().clone();
        let crash_free = ConfigGraph::explore_with(&system, 100_000, false).unwrap();
        assert!(crash_free.len() <= graph.len());
        for id in 0..crash_free.len() {
            assert_eq!(crash_free.edges(id).len(), 2);
        }
    }

    #[test]
    fn limit_is_enforced() {
        match ConfigGraph::explore(&sys(vec![0, 1]), 2) {
            Err(ExploreError::TooLarge { limit }) => assert_eq!(limit, 2),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn paths_replay_to_their_configuration() {
        let system = sys(vec![0, 1]);
        let graph = ConfigGraph::explore(&system, 100_000).unwrap();
        for id in (0..graph.len()).step_by(3) {
            let schedule = graph.path_to(id);
            let (config, _) = system.run_from_start(&schedule);
            assert_eq!(&config, graph.config(id), "path {schedule}");
        }
    }

    #[test]
    fn crash_edges_return_to_initial_states() {
        let system = sys(vec![1, 0]);
        let graph = ConfigGraph::explore(&system, 100_000).unwrap();
        let init = graph.config(0).clone();
        for (src, e) in graph.all_edges() {
            if let Event::Crash(p) = e.event {
                let target = graph.config(e.target);
                assert_eq!(
                    target.states[p.index()],
                    init.states[p.index()],
                    "crash of {p} from config {src}"
                );
            }
        }
    }

    #[test]
    fn write_then_read_has_agreement_violations_reachable() {
        // This naive program does NOT solve consensus: p0 writes 0, p1
        // overwrites 1, both read different values at different times.
        let graph = ConfigGraph::explore(&sys(vec![0, 1]), 100_000).unwrap();
        assert!(
            graph.all_edges().any(|(_, e)| e.violation.is_some()),
            "expected a reachable agreement violation"
        );
    }
}
