//! The protocol checker: safety (agreement, validity) and recoverable
//! wait-freedom, decided exactly on the finite configuration graph.
//!
//! * **Safety** is edge reachability: the executor flags the edge on which a
//!   conflicting or invalid output happens; any reachable flagged edge is a
//!   counterexample, and the BFS parent chain yields a concrete schedule.
//! * **Recoverable wait-freedom** (paper §2: *"a process that executes its
//!   algorithm starting from its initial state either crashes or outputs a
//!   value after a finite number of its own steps"*) is violated iff, for
//!   some process `p`, the graph restricted to configurations where `p` is
//!   undecided and to edges other than `c_p` contains a reachable cycle with
//!   a step of `p`: looping that cycle is an execution in which `p` takes
//!   infinitely many steps, stops crashing, and never outputs. On a finite
//!   graph this is exact — no bounding, no approximation.

use crate::graph::{ConfigGraph, ConfigId, ExploreError};
use crate::store::Edge;
use rcn_model::{Event, ProcessId, Schedule, System, Violation};
use std::collections::HashMap;
use std::fmt;

/// A concrete counterexample execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Schedule from the initial configuration to the problem.
    pub prefix: Schedule,
    /// For liveness violations: a cycle that can be looped forever. Empty
    /// for safety violations.
    pub cycle: Schedule,
    /// Human-readable description of what goes wrong.
    pub description: String,
}

impl Counterexample {
    /// Renders the counterexample as a full execution narration: every
    /// event with the configuration it produces, outputs and violations
    /// annotated — [`rcn_model::Execution`]'s display over the prefix (and
    /// one unrolling of the cycle for lassos).
    pub fn render(&self, system: &System) -> String {
        let mut schedule = self.prefix.clone();
        schedule.extend(&self.cycle);
        let exec = rcn_model::Execution::record(system, &schedule);
        if self.cycle.is_empty() {
            format!("{}\n{exec}", self.description)
        } else {
            format!(
                "{} (cycle {} unrolled once)\n{exec}",
                self.description, self.cycle
            )
        }
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cycle.is_empty() {
            write!(f, "{}: {}", self.description, self.prefix)
        } else {
            write!(
                f,
                "{}: {} ({})^ω",
                self.description, self.prefix, self.cycle
            )
        }
    }
}

/// The verdict of [`check_consensus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The protocol solves recoverable wait-free consensus for this system:
    /// no reachable safety violation and no wait-freedom counterexample.
    Correct,
    /// A safety violation (agreement or validity) is reachable.
    Unsafe {
        /// The violation.
        violation: Violation,
        /// How to reach it.
        counterexample: Counterexample,
    },
    /// Recoverable wait-freedom fails for some process.
    NotRecoverableWaitFree {
        /// The starving process.
        process: ProcessId,
        /// The lasso-shaped counterexample.
        counterexample: Counterexample,
    },
}

impl Verdict {
    /// Returns `true` for [`Verdict::Correct`].
    pub fn is_correct(&self) -> bool {
        matches!(self, Verdict::Correct)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Correct => write!(f, "correct (safe + recoverable wait-free)"),
            Verdict::Unsafe {
                violation,
                counterexample,
            } => write!(f, "UNSAFE: {violation} via {counterexample}"),
            Verdict::NotRecoverableWaitFree {
                process,
                counterexample,
            } => write!(
                f,
                "NOT RECOVERABLE WAIT-FREE for {process}: {counterexample}"
            ),
        }
    }
}

/// The full report of a model-checking run.
#[derive(Debug)]
pub struct CheckReport {
    /// The verdict.
    pub verdict: Verdict,
    /// Number of configurations explored.
    pub configs: usize,
    /// Whether crash events were part of the exploration.
    pub with_crashes: bool,
}

/// Model-checks a consensus protocol: explores the configuration graph and
/// decides safety and recoverable wait-freedom exactly.
///
/// # Errors
///
/// Returns [`ExploreError::TooLarge`] if the reachable state space exceeds
/// `max_configs`.
///
/// # Examples
///
/// ```
/// use rcn_model::{HeapLayout, OutputInput, System};
/// use rcn_valency::check_consensus;
/// use std::sync::Arc;
///
/// // Equal inputs: outputting your own input is trivially correct.
/// let sys = System::new(Arc::new(OutputInput), Arc::new(HeapLayout::new()), vec![1, 1]);
/// let report = check_consensus(&sys, 10_000).unwrap();
/// assert!(report.verdict.is_correct());
/// ```
pub fn check_consensus(system: &System, max_configs: usize) -> Result<CheckReport, ExploreError> {
    let graph = ConfigGraph::explore(system, max_configs)?;
    let verdict = check_graph(&graph);
    Ok(CheckReport {
        verdict,
        configs: graph.len(),
        with_crashes: true,
    })
}

/// Like [`check_consensus`], on an already-explored graph.
pub fn check_graph(graph: &ConfigGraph) -> Verdict {
    // Outputs made at time zero (initial output states) have no edge to
    // carry their violation; check the initial configuration directly.
    if let Some(violation) = graph.system().check_initial_outputs(&graph.config(0)) {
        return Verdict::Unsafe {
            violation,
            counterexample: Counterexample {
                prefix: Schedule::new(),
                cycle: Schedule::new(),
                description: "violated in the initial configuration".into(),
            },
        };
    }
    if let Some((src, event, violation)) = graph.first_violation() {
        let mut prefix = graph.path_to(src);
        prefix.push(event);
        return Verdict::Unsafe {
            violation,
            counterexample: Counterexample {
                prefix,
                cycle: Schedule::new(),
                description: "safety violation".into(),
            },
        };
    }
    for i in 0..graph.system().n() {
        let p = ProcessId(i as u16);
        if let Some(ce) = starvation_cycle(graph, p) {
            return Verdict::NotRecoverableWaitFree {
                process: p,
                counterexample: ce,
            };
        }
    }
    Verdict::Correct
}

/// Finds a reachable cycle in which `p` steps, never crashes and stays
/// undecided — Tarjan SCCs on the restricted graph, then a cycle walk.
fn starvation_cycle(graph: &ConfigGraph, p: ProcessId) -> Option<Counterexample> {
    // "Undecided" means: no recorded output AND not sitting in an output
    // state (where steps are no-ops and the process has effectively decided).
    let keep: Vec<bool> = (0..graph.len())
        .map(|id| {
            let part = graph.part(id, p);
            part.decided.is_none() && !matches!(part.action, rcn_model::Action::Output(_))
        })
        .collect();
    // The restricted graph: edges between kept configurations, except
    // crashes of `p`.
    // A configuration left out keeps no edge in or out: it is a singleton
    // SCC without a kept self-loop.
    let keep_edge = |e: &Edge| keep[e.target()] && !matches!(e.event, Event::Crash(q) if q == p);
    let sccs = tarjan(graph.len(), |id| {
        let edges = if keep[id] {
            graph.stored_edges(id)
        } else {
            &[]
        };
        edges.iter().filter(|e| keep_edge(e)).map(|e| e.target())
    });

    // An SCC is bad if it contains a Step(p) edge that stays inside it
    // (including self-loops).
    for (c, scc) in sccs.iter().enumerate() {
        let inside = |id: ConfigId| sccs.component[id] == c as u32;
        let step_edge = scc.iter().find_map(|&id| {
            graph
                .stored_edges(id)
                .iter()
                .find(|e| e.event == Event::Step(p) && inside(e.target()) && keep_edge(e))
                .map(|e| (id, e.target()))
        });
        let Some((src, dst)) = step_edge else {
            continue;
        };
        // Build the cycle: src --Step(p)--> dst --…--> src inside the SCC.
        let back = path_within(graph, &inside, dst, src, &keep_edge)?;
        let mut cycle = Schedule::new();
        cycle.push(Event::Step(p));
        cycle.extend(&back);
        let prefix = graph.path_to(src);
        return Some(Counterexample {
            prefix,
            cycle,
            description: format!("{p} can take infinitely many steps without crashing or deciding"),
        });
    }
    None
}

/// BFS path from `from` to `to` within `inside`, honoring the edge filter.
fn path_within(
    graph: &ConfigGraph,
    inside: &dyn Fn(ConfigId) -> bool,
    from: ConfigId,
    to: ConfigId,
    keep_edge: &dyn Fn(&Edge) -> bool,
) -> Option<Schedule> {
    let mut prev: HashMap<ConfigId, (ConfigId, Event)> = HashMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(id) = queue.pop_front() {
        if id == to {
            let mut events = Vec::new();
            let mut cur = to;
            while cur != from {
                let (pr, ev) = prev[&cur];
                events.push(ev);
                cur = pr;
            }
            events.reverse();
            return Some(Schedule::from_events(events));
        }
        for e in graph.stored_edges(id) {
            let target = e.target();
            if inside(target) && keep_edge(e) && target != from && !prev.contains_key(&target) {
                prev.insert(target, (id, e.event));
                queue.push_back(target);
            }
        }
    }
    None
}

/// The strongly connected components of a graph, in the order Tarjan's
/// algorithm completes them, stored flat.
struct Sccs {
    /// Every node, grouped by component; a component's nodes are in the
    /// order they left Tarjan's stack.
    members: Vec<ConfigId>,
    /// `ends[c]`: one past component `c`'s last node in `members`.
    ends: Vec<usize>,
    /// `component[id]`: the component `id` belongs to.
    component: Vec<u32>,
}

impl Sccs {
    /// The components' node lists, in completion order.
    fn iter(&self) -> impl Iterator<Item = &[ConfigId]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.members[start..end])
    }
}

/// Iterative Tarjan SCC over an implicit graph. Returns all SCCs (singletons
/// included). `successors` yields a node's successors without allocating;
/// the walk keeps one live iterator per node on its DFS path.
fn tarjan<I: Iterator<Item = ConfigId>>(n: usize, successors: impl Fn(ConfigId) -> I) -> Sccs {
    const UNSEEN: u32 = u32::MAX;
    let (mut index, mut lowlink, mut on_stack) = (vec![UNSEEN; n], vec![0u32; n], vec![false; n]);
    let mut counter = 0u32;
    let mut stack: Vec<ConfigId> = Vec::new();
    let mut sccs = Sccs {
        members: Vec::with_capacity(n),
        ends: Vec::new(),
        component: vec![0; n],
    };
    // Explicit DFS stack of (node, its remaining successors).
    let mut dfs: Vec<(ConfigId, I)> = Vec::new();
    for root in 0..n {
        let mut unseen = (index[root] == UNSEEN).then_some(root);
        loop {
            if let Some(node) = unseen.take() {
                (index[node], lowlink[node], on_stack[node]) = (counter, counter, true);
                counter += 1;
                stack.push(node);
                dfs.push((node, successors(node)));
            }
            let Some((node, succs)) = dfs.last_mut() else {
                break;
            };
            let node = *node;
            if let Some(next) = succs.next() {
                if index[next] == UNSEEN {
                    unseen = Some(next);
                } else if on_stack[next] {
                    lowlink[node] = lowlink[node].min(index[next]);
                }
                continue;
            }
            // Node finished.
            dfs.pop();
            if lowlink[node] == index[node] {
                let c = sccs.ends.len() as u32;
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w] = false;
                    sccs.component[w] = c;
                    sccs.members.push(w);
                    if w == node {
                        break;
                    }
                }
                sccs.ends.push(sccs.members.len());
            }
            if let Some(&(parent, _)) = dfs.last() {
                lowlink[parent] = lowlink[parent].min(lowlink[node]);
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_model::{Action, HeapLayout, LocalState, Program};
    use rcn_spec::zoo::{Register, StickyBit};
    use std::sync::Arc;

    /// A correct 2-process recoverable consensus protocol from a sticky bit:
    /// write your input into the sticky bit and decide what stuck. The
    /// sticky bit records the winner permanently, so crashes are harmless.
    struct StickyConsensus {
        sticky: rcn_model::ObjectId,
    }

    impl Program for StickyConsensus {
        fn name(&self) -> String {
            "sticky-consensus".into()
        }
        fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
            LocalState::word2(input, 0)
        }
        fn action(&self, _pid: ProcessId, state: &LocalState) -> Action {
            match state.word(1) {
                0 => Action::Invoke {
                    object: self.sticky,
                    op: rcn_spec::OpId::new(state.word(0) as u16), // write(input)
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
            LocalState::from_words([state.word(0), 1, response.index() as u32])
        }
    }

    fn sticky_sys(inputs: Vec<u32>) -> System {
        let mut layout = HeapLayout::new();
        let sticky = layout.add_object("S", Arc::new(StickyBit::new()), rcn_spec::ValueId::new(0));
        System::new(
            Arc::new(StickyConsensus { sticky }),
            Arc::new(layout),
            inputs,
        )
    }

    #[test]
    fn sticky_consensus_is_correct_under_crashes() {
        for inputs in [vec![0, 1], vec![1, 0], vec![1, 1], vec![0, 1, 1]] {
            let report = check_consensus(&sticky_sys(inputs.clone()), 100_000).unwrap();
            assert!(
                report.verdict.is_correct(),
                "inputs {inputs:?}: {}",
                report.verdict
            );
        }
    }

    /// A program that loops forever reading a register (never decides).
    struct Spinner {
        reg: rcn_model::ObjectId,
    }

    impl Program for Spinner {
        fn name(&self) -> String {
            "spinner".into()
        }
        fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
            LocalState::word1(input)
        }
        fn action(&self, _pid: ProcessId, _state: &LocalState) -> Action {
            Action::Invoke {
                object: self.reg,
                op: rcn_spec::OpId::new(2),
            }
        }
        fn transition(
            &self,
            _pid: ProcessId,
            state: &LocalState,
            _response: rcn_spec::Response,
        ) -> LocalState {
            state.clone()
        }
    }

    #[test]
    fn spinner_violates_recoverable_wait_freedom() {
        let mut layout = HeapLayout::new();
        let reg = layout.add_object("R", Arc::new(Register::new(2)), rcn_spec::ValueId::new(0));
        let sys = System::new(Arc::new(Spinner { reg }), Arc::new(layout), vec![0, 1]);
        let report = check_consensus(&sys, 10_000).unwrap();
        match report.verdict {
            Verdict::NotRecoverableWaitFree {
                process,
                ref counterexample,
            } => {
                assert_eq!(process, ProcessId(0));
                // The exact lasso: p0 spins from the initial configuration.
                assert_eq!(counterexample.prefix, Schedule::new());
                assert_eq!(counterexample.cycle.to_string(), "p0");
                // The cycle must contain a step of p0 and no crash of p0.
                assert!(counterexample.cycle.steps_of(process) > 0);
                assert_eq!(counterexample.cycle.crashes_of(process), 0);
            }
            ref other => panic!("expected starvation, got {other}"),
        }
    }

    /// Outputs the register's current value — disagreement is reachable.
    struct ReadAndDecide {
        reg: rcn_model::ObjectId,
    }

    impl Program for ReadAndDecide {
        fn name(&self) -> String {
            "read-and-decide".into()
        }
        fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
            LocalState::word2(input, 0)
        }
        fn action(&self, _pid: ProcessId, state: &LocalState) -> Action {
            match state.word(1) {
                0 => Action::Invoke {
                    object: self.reg,
                    op: rcn_spec::OpId::new(state.word(0) as u16), // write input
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

    #[test]
    fn register_consensus_attempt_is_unsafe() {
        let mut layout = HeapLayout::new();
        let reg = layout.add_object("R", Arc::new(Register::new(2)), rcn_spec::ValueId::new(0));
        let sys = System::new(
            Arc::new(ReadAndDecide { reg }),
            Arc::new(layout),
            vec![0, 1],
        );
        let report = check_consensus(&sys, 100_000).unwrap();
        match report.verdict {
            Verdict::Unsafe {
                violation,
                ref counterexample,
            } => {
                assert!(matches!(violation, Violation::Agreement { .. }));
                // The counterexample must replay to the violation.
                let system = &sys;
                let (_, found) = system.run_from_start(&counterexample.prefix);
                assert!(found.is_some(), "counterexample must replay");
            }
            ref other => panic!("expected unsafe, got {other}"),
        }
    }

    #[test]
    fn tarjan_finds_simple_cycles() {
        // 0 -> 1 -> 2 -> 0, 3 isolated.
        let adj = [vec![1], vec![2], vec![0], vec![]];
        let sccs = tarjan(4, |i| adj[i].iter().copied());
        let big: Vec<_> = sccs.iter().filter(|s| s.len() == 3).collect();
        assert_eq!(big.len(), 1);
        assert_eq!(sccs.iter().map(<[_]>::len).sum::<usize>(), 4);
        assert_eq!(sccs.component[0], sccs.component[2]);
        assert_ne!(sccs.component[0], sccs.component[3]);
    }

    #[test]
    fn tarjan_handles_self_loops_and_chains() {
        // 0 -> 0 (self loop), 0 -> 1.
        let adj = [vec![0, 1], vec![]];
        let sccs = tarjan(2, |i| adj[i].iter().copied());
        // Completion order: the sink first.
        let order: Vec<&[ConfigId]> = sccs.iter().collect();
        assert_eq!(order, [&[1][..], &[0][..]]);
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;
    use rcn_model::{HeapLayout, OutputInput, System};
    use std::sync::Arc;

    #[test]
    fn rendered_counterexamples_narrate_the_violation() {
        // Mixed inputs with the trivial output-input program: time-zero
        // agreement violation, rendered as a (degenerate) execution.
        let sys = System::new(
            Arc::new(OutputInput),
            Arc::new(HeapLayout::new()),
            vec![0, 1],
        );
        let graph = crate::ConfigGraph::explore(&sys, 1_000).unwrap();
        match check_graph(&graph) {
            Verdict::Unsafe { counterexample, .. } => {
                let text = counterexample.render(&sys);
                assert!(text.contains("initial configuration"), "{text}");
            }
            other => panic!("expected unsafe, got {other}"),
        }
    }

    #[test]
    fn lasso_render_unrolls_the_cycle() {
        let ce = Counterexample {
            prefix: "p0".parse().unwrap(),
            cycle: "p1 p1".parse().unwrap(),
            description: "demo".into(),
        };
        let sys = System::new(
            Arc::new(OutputInput),
            Arc::new(HeapLayout::new()),
            vec![1, 1],
        );
        let text = ce.render(&sys);
        assert!(text.contains("cycle p1 p1 unrolled once"));
    }
}
