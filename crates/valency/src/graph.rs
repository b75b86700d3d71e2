//! Explicit-state exploration of the configuration graph.
//!
//! For finite protocols over finite types the set of reachable
//! configurations is finite, even though executions are unbounded: a crash
//! resets a process to its (finitely many) initial states, so the graph is
//! closed under crash edges. All checking in this crate — safety
//! reachability, recoverable-wait-freedom cycle detection, valency — runs
//! on this graph.

use crate::store::{Edge, Part, Store};
use rcn_model::{Configuration, Event, ProcessId, Schedule, System, Violation};
use std::fmt;

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
    store: Store,
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
        let store = Store::explore(
            system,
            system.initial_config(),
            &[],
            max_configs,
            |_, _| with_crashes,
            |_, _| {},
            true,
        )?;
        Ok(ConfigGraph {
            system: system.clone(),
            store,
        })
    }

    /// Number of reachable configurations.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Returns `true` if the graph is empty (never: the initial
    /// configuration is always present).
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// The configuration with the given id (0 is the initial one),
    /// unpacked from the graph's store.
    pub fn config(&self, id: ConfigId) -> Configuration {
        self.store.config(id)
    }

    /// Overwrites `into`, a configuration of the graph's system (such as
    /// `config(0)`), with the one with the given id, reusing its buffers:
    /// a whole-graph pass unpacks through one scratch configuration.
    pub fn config_into(&self, id: ConfigId, into: &mut Configuration) {
        self.store.config_into(id, into);
    }

    /// Process `p`'s part of a configuration: its local state, decision
    /// and pending action, read without unpacking the configuration.
    pub(crate) fn part(&self, id: ConfigId, p: ProcessId) -> &Part {
        self.store.part(id, p.index())
    }

    /// Outgoing edges of a configuration, in the order they were explored.
    pub fn edges(&self, id: ConfigId) -> impl ExactSizeIterator<Item = EdgeInfo> + '_ {
        let range = self.store.edge_range(id);
        let edges = self.store.edges(id).iter().zip(range);
        edges.map(|(e, index)| EdgeInfo {
            event: e.event,
            target: e.target(),
            violation: self.store.violation(index),
        })
    }

    /// Outgoing edges of a configuration as stored, without violations.
    pub(crate) fn stored_edges(&self, id: ConfigId) -> &[Edge] {
        self.store.edges(id)
    }

    /// The first edge, in [`all_edges`](Self::all_edges) order, that
    /// triggers a violation: its source, its event and the violation.
    pub(crate) fn first_violation(&self) -> Option<(ConfigId, Event, Violation)> {
        self.store.first_violation()
    }

    /// The system the graph was built from.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// A schedule from the initial configuration to `id`, following BFS
    /// parents.
    pub fn path_to(&self, id: ConfigId) -> Schedule {
        self.store.path_to(id)
    }

    /// Iterates over `(source, edge)` pairs of the whole graph.
    pub fn all_edges(&self) -> impl Iterator<Item = (ConfigId, EdgeInfo)> + '_ {
        (0..self.len()).flat_map(move |src| self.edges(src).map(move |e| (src, e)))
    }
}

impl fmt::Debug for ConfigGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConfigGraph")
            .field("configs", &self.len())
            .field("edges", &self.all_edges().count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_model::{Action, HeapLayout, LocalState, ProcessId, Program};
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
        for limit in [0, 2] {
            match ConfigGraph::explore(&sys(vec![0, 1]), limit) {
                Err(ExploreError::TooLarge { limit: l }) => assert_eq!(l, limit),
                other => panic!("expected TooLarge, got {other:?}"),
            }
        }
        // A one-configuration graph still exceeds a limit of 0.
        let output_input = System::new(
            Arc::new(rcn_model::OutputInput),
            Arc::new(HeapLayout::new()),
            vec![0, 1],
        );
        assert_eq!(
            ConfigGraph::explore(&output_input, 0).map(|g| g.len()),
            Err(ExploreError::TooLarge { limit: 0 })
        );
        assert_eq!(
            ConfigGraph::explore(&output_input, 1).map(|g| g.len()),
            Ok(1)
        );
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn limits_beyond_u32_ids_do_not_wrap() {
        // Taken modulo 2^32 this limit would be 2.
        let limit = (1usize << 32) + 2;
        assert!(ConfigGraph::explore(&sys(vec![0, 1]), limit).unwrap().len() > 2);
    }

    #[test]
    fn paths_replay_to_their_configuration() {
        let system = sys(vec![0, 1]);
        let graph = ConfigGraph::explore(&system, 100_000).unwrap();
        for id in (0..graph.len()).step_by(3) {
            let schedule = graph.path_to(id);
            let (config, _) = system.run_from_start(&schedule);
            assert_eq!(config, graph.config(id), "path {schedule}");
        }
    }

    #[test]
    fn crash_edges_return_to_initial_states() {
        let system = sys(vec![1, 0]);
        let graph = ConfigGraph::explore(&system, 100_000).unwrap();
        let init = graph.config(0);
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
