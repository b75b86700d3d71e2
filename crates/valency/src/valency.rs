//! The paper's §3 valency machinery, mechanized on bounded instances.
//!
//! The proof of Theorem 13 works with the crash-budgeted execution sets
//! `E_z*(C)`: `p_i` may crash at most `z·n ×` (steps of lower-id processes)
//! times, checked at every prefix. We explore exactly those executions as a
//! graph over *budgeted states* — `(configuration, remaining crash
//! allowance per process)` — with one approximation that keeps the state
//! space finite: allowances are clamped at a configurable ceiling. Every
//! execution explored is genuinely in `E_z*(C)`; executions whose allowance
//! ever needs to exceed the clamp are missed, so:
//!
//! * **bivalence** found here is sound (both deciding extensions are real
//!   `E_z*` executions);
//! * **criticality** is relative to the clamped set (a critical state here
//!   is "critical up to the clamp").
//!
//! On top of the graph we mechanize the paper's per-lemma checks for a
//! critical execution `α`: both teams nonempty (Lemma 7), all processes
//! poised on one object (Lemma 9), and the trichotomy of Observation 11 —
//! the final configuration is *n-recording*, *v-hiding*, or has colliding
//! values. The configuration is read as a [`Witness`] and classified by
//! [`rcn_decide::recording_class`], the deciders' own definition.

use crate::graph::ExploreError;
use crate::scc::tarjan;
use crate::store::Store;
pub use rcn_decide::CriticalClass;
use rcn_decide::{recording_class, Team, Witness};
use rcn_model::{Action, Event, ObjectId, ProcessId, Schedule, System};
use std::fmt;

/// Valency of a state with respect to the explored execution set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Valency {
    /// Both 0-deciding and 1-deciding extensions exist.
    Bivalent,
    /// Only `v`-deciding extensions exist.
    Univalent(u32),
    /// No deciding extension was found (indicates a liveness bug or an
    /// over-tight clamp).
    Undetermined,
}

impl fmt::Display for Valency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Valency::Bivalent => write!(f, "bivalent"),
            Valency::Univalent(v) => write!(f, "{v}-univalent"),
            Valency::Undetermined => write!(f, "undetermined"),
        }
    }
}

/// Everything the machinery derives about one critical execution.
#[derive(Debug, Clone)]
pub struct CriticalInfo {
    /// Schedule of the critical execution `α` from the initial
    /// configuration.
    pub schedule: Schedule,
    /// The valency of `α p_i` for each undecided process (its *team*).
    pub teams: Vec<Option<u32>>,
    /// The single object all undecided processes are poised to access
    /// (Lemma 9), if indeed single.
    pub object: Option<ObjectId>,
    /// The configuration as a witness, when `object` is `Some`: the
    /// object's value as `u`, then each poised process that has a team,
    /// in process order, with its poised operation.
    pub witness: Option<Witness>,
    /// The Observation 11 classification of `witness` for the object's
    /// type; `None` if there is no witness or it is malformed (fewer than
    /// two such processes, or an empty team).
    pub class: Option<CriticalClass>,
}

/// The explored `E_z*` execution graph with valencies, which one pass over
/// the strongly connected components of its edges gives every state.
pub struct BudgetedGraph {
    system: System,
    store: Store,
    valency: Vec<Valency>,
    z: usize,
    clamp: u16,
}

impl BudgetedGraph {
    /// Explores the `E_z*` executions of `system` (allowances clamped at
    /// `clamp`), up to `max_states` budgeted states, and computes
    /// valencies.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::TooLarge`] if the limit is exceeded.
    pub fn explore(
        system: &System,
        z: usize,
        clamp: u16,
        max_states: usize,
    ) -> Result<BudgetedGraph, ExploreError> {
        Self::explore_from(system, &rcn_model::Schedule::new(), z, clamp, max_states)
    }

    /// Like [`explore`](Self::explore), but starting from the configuration
    /// reached by running `prefix` from the initial configuration, with
    /// fresh crash allowances — matching the paper's per-stage sets
    /// `E_z*(D_i)`, which restart the budget at each `D_i`.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::TooLarge`] if the limit is exceeded.
    pub fn explore_from(
        system: &System,
        prefix: &rcn_model::Schedule,
        z: usize,
        clamp: u16,
        max_states: usize,
    ) -> Result<BudgetedGraph, ExploreError> {
        let n = system.n();
        let mut start = system.initial_config();
        system.run(&mut start, prefix);
        // A state's extra words are its crash allowances: `p_i` may crash
        // `extra[i]` more times (clamped); `extra[0]` stays 0. A step of
        // p_i funds z·n crashes of every higher-id process, saturating: a
        // wrapped product would fund none.
        let funded = u32::from(u16::try_from(z.saturating_mul(n)).unwrap_or(u16::MAX));
        let store = Store::explore(
            system,
            start,
            &vec![0; n],
            max_states,
            |extra, i| extra[i] > 0,
            |extra, event| charge_allowances(extra, event, funded, u32::from(clamp)),
            false,
        )?;
        let valency = compute_valencies(&store);
        Ok(BudgetedGraph {
            system: system.clone(),
            store,
            valency,
            z,
            clamp,
        })
    }

    /// Number of budgeted states.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Returns `true` if the graph is empty (never).
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// The budget multiplier `z`.
    pub fn z(&self) -> usize {
        self.z
    }

    /// The allowance clamp.
    pub fn clamp(&self) -> u16 {
        self.clamp
    }

    /// The valency of a state.
    pub fn valency(&self, id: usize) -> Valency {
        self.valency[id]
    }

    /// Outgoing `(event, target)` edges of a budgeted state, in the order
    /// they were explored.
    pub fn successors(&self, id: usize) -> impl ExactSizeIterator<Item = (Event, usize)> + '_ {
        self.store.edges(id).iter().map(|e| (e.event, e.target()))
    }

    /// The valency of the initial state.
    pub fn initial_valency(&self) -> Valency {
        self.valency[0]
    }

    /// Schedule from the initial state to `id`.
    pub fn path_to(&self, id: usize) -> Schedule {
        self.store.path_to(id)
    }

    /// Finds a *critical* state: bivalent, with every successor univalent
    /// (criticality relative to the clamped execution set; cf. Lemma 6(a)).
    pub fn find_critical(&self) -> Option<usize> {
        (0..self.len()).find(|&id| {
            self.valency[id] == Valency::Bivalent
                && self
                    .successors(id)
                    .all(|(_, t)| matches!(self.valency[t], Valency::Univalent(_)))
        })
    }

    /// Mechanizes the paper's analysis of a critical state: teams
    /// (valencies of `α p_i`), the common poised object (Lemma 9), and the
    /// Observation 11 classification.
    pub fn analyze_critical(&self, id: usize) -> CriticalInfo {
        let n = self.system.n();
        let config = self.store.config(id);
        let mut teams = vec![None; n];
        for (event, target) in self.successors(id) {
            if let (Event::Step(p), Valency::Univalent(v)) = (event, self.valency[target]) {
                teams[p.index()] = Some(v);
            }
        }
        // Lemma 9: every undecided process poised on the same object.
        let poised: Vec<_> = (0..n)
            .map(
                |i| match self.system.action_of(&config, ProcessId(i as u16)) {
                    Action::Invoke { object, op } if config.decided[i].is_none() => {
                        Some((object, op))
                    }
                    _ => None,
                },
            )
            .collect();
        let mut objects = poised.iter().flatten().map(|&(object, _)| object);
        let object = objects.next().filter(|&o| objects.all(|other| other == o));
        let witness = object.map(|o| {
            let (team_of, ops) = teams
                .iter()
                .zip(&poised)
                .filter_map(|(&team, &poised)| Some((Team::from_index(team? as usize), poised?.1)))
                .unzip();
            Witness::new(config.values[o.index()], team_of, ops)
        });
        let class = object
            .zip(witness.as_ref())
            .and_then(|(o, w)| recording_class(self.system.layout().object_type(o), w).ok());
        CriticalInfo {
            schedule: self.path_to(id),
            teams,
            object,
            witness,
            class,
        }
    }
}

/// Charges `event` against the crash allowances of the state it leaves: a
/// step of `p_i` funds `funded` more crashes of every higher-id process, up
/// to `clamp`; a crash of `p_i` spends one of `p_i`'s.
pub(crate) fn charge_allowances(allowances: &mut [u32], event: Event, funded: u32, clamp: u32) {
    match event {
        Event::Step(p) => {
            for a in &mut allowances[p.index() + 1..] {
                *a = (*a + funded).min(clamp);
            }
        }
        Event::Crash(p) => allowances[p.index()] -= 1,
        // The explorer enumerates only the paper's §3 events.
        Event::SystemCrash | Event::CrashDuring(_) => unreachable!(),
    }
}

/// Which decisions each state can reach, read off the strongly connected
/// components of the forward edges: every member of a component reaches
/// the same states. Tarjan completes a component only after every
/// component its edges enter (see [`crate::scc`]), so one pass in
/// completion order finds each component's mask — its members' own
/// decisions, OR-ed with the final masks of the components its edges
/// enter — and every member takes its component's valency.
fn compute_valencies(store: &Store) -> Vec<Valency> {
    let sccs = tarjan(store.len(), |id| store.edges(id).iter().map(|e| e.target()));
    // Bit 0: a 0-decision is reachable; bit 1: a 1-decision is. A
    // component's own entry stays 0 until its pass ends, so its inner
    // edges add nothing.
    let mut masks = vec![0u8; sccs.len()];
    for (c, members) in sccs.iter().enumerate() {
        let mut mask = 0;
        for &id in members {
            let id = id as usize;
            for d in store.decided(id).flatten() {
                mask |= 1 << u8::from(d != 0);
            }
            for e in store.edges(id) {
                mask |= masks[sccs.component[e.target()] as usize];
            }
        }
        masks[c] = mask;
    }
    sccs.component
        .iter()
        .map(|&c| match masks[c as usize] {
            0b11 => Valency::Bivalent,
            0b01 => Valency::Univalent(0),
            0b10 => Valency::Univalent(1),
            _ => Valency::Undetermined,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_model::{HeapLayout, LocalState, Program};
    use rcn_spec::zoo::StickyBit;
    use std::sync::Arc;

    /// 2-process sticky-bit consensus (same protocol as in checker tests).
    struct StickyConsensus {
        sticky: ObjectId,
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
                    op: rcn_spec::OpId::new(state.word(0) as u16),
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
    fn initial_mixed_input_state_is_bivalent() {
        // Observation 1 of the paper, mechanized.
        let graph = BudgetedGraph::explore(&sticky_sys(vec![0, 1]), 1, 6, 100_000).unwrap();
        assert_eq!(graph.initial_valency(), Valency::Bivalent);
    }

    #[test]
    fn uniform_inputs_are_univalent() {
        // Validity forces 1-univalence when every input is 1.
        let graph = BudgetedGraph::explore(&sticky_sys(vec![1, 1]), 1, 6, 100_000).unwrap();
        assert_eq!(graph.initial_valency(), Valency::Univalent(1));
    }

    #[test]
    fn critical_state_exists_and_classifies_as_recording() {
        // For the sticky bit the critical configuration has both processes
        // poised to write; the witness is recording (sticky bits record the
        // first writer permanently), matching Theorem 13's conclusion.
        let graph = BudgetedGraph::explore(&sticky_sys(vec![0, 1]), 1, 6, 100_000).unwrap();
        let critical = graph.find_critical().expect("critical state exists");
        let info = graph.analyze_critical(critical);
        assert!(info.object.is_some(), "Lemma 9: common object");
        // Lemma 7: both teams nonempty.
        let teams: Vec<u32> = info.teams.iter().flatten().copied().collect();
        assert!(teams.contains(&0) && teams.contains(&1), "teams: {teams:?}");
        assert_eq!(info.class, Some(CriticalClass::Recording));
    }

    #[test]
    fn critical_execution_replays_to_a_bivalent_state() {
        let sys = sticky_sys(vec![0, 1]);
        let graph = BudgetedGraph::explore(&sys, 1, 6, 100_000).unwrap();
        let critical = graph.find_critical().unwrap();
        let schedule = graph.path_to(critical);
        // Replaying the schedule must not decide anything yet.
        let (config, violation) = sys.run_from_start(&schedule);
        assert!(violation.is_none());
        assert!(config.outputs().is_empty(), "critical ⇒ nobody decided");
    }

    #[test]
    fn budget_limits_crash_events() {
        // With z=1, n=2: p1 can only crash after p0 stepped.
        let graph = BudgetedGraph::explore(&sticky_sys(vec![0, 1]), 1, 4, 100_000).unwrap();
        // State 0 has no crash edges at all (no allowance yet).
        let crashes_at_init = graph.successors(0).filter(|(e, _)| e.is_crash()).count();
        assert_eq!(crashes_at_init, 0);
    }

    /// The valency a plain BFS from `id` over the store's edges finds: the
    /// decisions made in the states it reaches, `id` included. `Valency` is
    /// binary, so a decision other than 0 counts as 1 (the universal
    /// simulation's processes output responses), and the BFS stops once it
    /// has seen both. `seen[i] == id + 1` marks `i` as seen by this search,
    /// so one `seen` serves every start.
    fn reached_valency(store: &Store, id: usize, seen: &mut [usize]) -> Valency {
        seen[id] = id + 1;
        let mut queue = std::collections::VecDeque::from([id]);
        let (mut zero, mut one) = (false, false);
        while let Some(i) = queue.pop_front() {
            for d in store.decided(i).flatten() {
                *if d == 0 { &mut zero } else { &mut one } = true;
            }
            if zero && one {
                return Valency::Bivalent;
            }
            for e in store.edges(i) {
                if std::mem::replace(&mut seen[e.target()], id + 1) != id + 1 {
                    queue.push_back(e.target());
                }
            }
        }
        match (zero, one) {
            (true, _) => Valency::Univalent(0),
            (_, true) => Valency::Univalent(1),
            _ => Valency::Undetermined,
        }
    }

    /// On every system of the store's walk test, each state's valency is
    /// the one forward reachability gives it: with allowances over the
    /// `E_1*` graph clamped at 2, without over every step and crash.
    #[test]
    fn valencies_match_forward_reachability() {
        for sys in crate::store::tests::systems() {
            let unbudgeted = Store::explore(
                &sys,
                sys.initial_config(),
                &[],
                100_000,
                |_, _| true,
                |_, _| {},
                false,
            )
            .unwrap();
            let budgeted = BudgetedGraph::explore(&sys, 1, 2, 100_000).unwrap();
            let valency = compute_valencies(&unbudgeted);
            for (store, valency) in [
                (&unbudgeted, &valency),
                (&budgeted.store, &budgeted.valency),
            ] {
                let mut seen = vec![0; store.len()];
                // Each start costs a BFS, so the two 3-process tournament
                // graphs (11 672 and 36 827 states) check every 3rd and 9th
                // state; the others check every state.
                for id in (0..store.len()).step_by(store.len().div_ceil(4096)) {
                    let reached = reached_valency(store, id, &mut seen);
                    assert_eq!(valency[id], reached, "state {id}");
                }
            }
        }
    }

    #[test]
    fn explore_limit_is_enforced() {
        match BudgetedGraph::explore(&sticky_sys(vec![0, 1]), 1, 6, 3) {
            Err(ExploreError::TooLarge { limit }) => assert_eq!(limit, 3),
            other => panic!("expected TooLarge, got {:?}", other.map(|g| g.len())),
        }
    }
}
