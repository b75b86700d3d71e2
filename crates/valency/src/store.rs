//! The store both graphs are built into, by one breadth-first builder.
//!
//! **Rows.** Each state is kept once, as a row of `u32`s at a fixed
//! stride: one *part* id per process, then each object's value, then any
//! extra words (the budgeted graph's crash allowances). A part is one
//! process's share of a configuration — the process, its local-state words
//! and its decision — interned once per store, with the action it is poised
//! to take. A [`WordHasher`] digest of a row maps to the newest state with
//! that digest and a chain links the older ones, so a probe confirms
//! equality against the rows. BFS parents are a flat array in BFS order,
//! and edges are CSR: each edge is its target's `u32` id and its event (8
//! bytes), with `u32` ends per state. The rare edges that violate
//! consensus keep their violation in a side list, by edge index, when the
//! graph asks for them. Ids are `u32`: a state limit above `u32::MAX` is
//! enforced as `u32::MAX`, and a graph with more than `u32::MAX` edges is
//! refused as [`ExploreError::TooLarge`].
//!
//! **Locality.** In the paper's §2 model a step `p` changes only `p`'s
//! local state, `p`'s decision and the one object `p` is poised on, reading
//! nothing else; a crash `c_p` changes only `p`'s local state and decision.
//! So each part's successor is computed once, by [`System::apply`] on the
//! unpacked parent, and cached under (part, event kind, value of the object
//! the part is poised on); every later edge with that key copies the parent
//! row and overwrites the part and that object's value. Only the violation
//! an output triggers reads the other processes' decisions: it comes from
//! [`System::check_output`] over the parent row's parts. The store itself
//! never runs a program or an object type, so `rcn-model` keeps the one
//! definition of an event. The store's walks (`tests` below) check every
//! edge against `System::apply`, and `tests/graph_identity.rs` pins the
//! graphs built from it.

use crate::graph::ExploreError;
use rcn_model::{
    Action, Configuration, Event, LocalState, ProcessId, Schedule, System, Violation, WordHasher,
};
use rcn_spec::ValueId;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault};

/// Marks the end of a same-digest chain.
const NONE: u32 = u32::MAX;

/// The state limit `u32` ids can honor.
pub(crate) fn id_limit(max_states: usize) -> usize {
    max_states.min(NONE as usize)
}

/// The most edges a store holds, so that every edge index and CSR end fits
/// a `u32`.
const EDGE_LIMIT: usize = u32::MAX as usize;

/// One stored edge: the id of the state it leads to and its event.
#[derive(Clone, Copy)]
pub(crate) struct Edge {
    target: u32,
    pub(crate) event: Event,
}

const _: () = assert!(std::mem::size_of::<Edge>() == 8);

impl Edge {
    /// The id of the state the edge leads to.
    pub(crate) fn target(self) -> usize {
        self.target as usize
    }
}

/// One process's share of a stored configuration.
pub(crate) struct Part {
    /// The process's local state.
    pub(crate) state: LocalState,
    /// The value it has output, if any.
    pub(crate) decided: Option<u32>,
    /// What it does when it next steps.
    pub(crate) action: Action,
}

/// Every part of one store, by id, and the id of each
/// `(process, decision, local state)`.
#[derive(Default)]
struct Parts {
    parts: Vec<Part>,
    ids: HashMap<(u16, Option<u32>, LocalState), u32>,
}

impl Parts {
    /// The id of `p`'s part of `config`, interned now if new.
    fn intern(&mut self, system: &System, config: &Configuration, p: ProcessId) -> u32 {
        let (state, decided) = (&config.states[p.index()], config.decided[p.index()]);
        let key = (p.0, decided, state.clone());
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = u32::try_from(self.parts.len()).expect("under 2^32 parts");
        self.parts.push(Part {
            state: state.clone(),
            decided,
            action: system.action_of(config, p),
        });
        self.ids.insert(key, id);
        id
    }

    fn get(&self, id: u32) -> &Part {
        &self.parts[id as usize]
    }
}

/// A cached successor of a part: its part after the event, the value the
/// object it was poised on holds after a step (unused otherwise), and the
/// value the event outputs, if any.
#[derive(Clone, Copy)]
struct Successor {
    part: u32,
    value: u32,
    output: Option<u32>,
}

/// The configurations a state's cache misses are computed in.
struct Scratch {
    /// The state `current` holds, if any.
    loaded: Option<usize>,
    current: Configuration,
    next: Configuration,
    /// The parent row's decisions, for checking an output.
    decided: Vec<Option<u32>>,
}

impl Scratch {
    fn new(template: &Configuration) -> Scratch {
        Scratch {
            loaded: None,
            current: template.clone(),
            next: template.clone(),
            decided: Vec::new(),
        }
    }
}

/// An explored graph: every state once, as a row. `D` digests rows.
pub(crate) struct Store<D = BuildHasherDefault<WordHasher>> {
    /// Processes; a row's first `n` words are its part ids.
    n: usize,
    /// State `i` is `rows[i·stride..(i + 1)·stride]`.
    stride: usize,
    rows: Vec<u32>,
    /// Digest → the newest state with it; `next[i]`: the state before `i`
    /// with `i`'s digest, or [`NONE`].
    heads: HashMap<u64, u32, BuildHasherDefault<WordHasher>>,
    next: Vec<u32>,
    /// State `i`'s edges are `edges[edge_ends[i]..edge_ends[i + 1]]`.
    edges: Vec<Edge>,
    edge_ends: Vec<u32>,
    /// The violating edges, as `(edge index, violation)` in edge order,
    /// when the graph keeps them.
    violations: Option<Vec<(u32, Violation)>>,
    /// The most edges the store takes: [`EDGE_LIMIT`].
    edge_limit: usize,
    /// Each state's BFS parent and the event taken from it.
    parents: Vec<Option<(u32, Event)>>,
    parts: Parts,
    /// Each part's successors, keyed as [`Store::successor`] documents.
    successors: HashMap<u64, Successor, BuildHasherDefault<WordHasher>>,
    /// The start configuration: the shape every state unpacks into.
    template: Configuration,
    /// The state limit, capped by [`id_limit`].
    limit: usize,
    digest: D,
}

impl<D: BuildHasher + Default> Store<D> {
    /// Explores breadth-first from `start` (extra words `extra`), up to
    /// `max_states` states. Each state takes `p_0`'s step, its crash if
    /// `may_crash(extra, 0)`, then `p_1`'s, …; `charge` updates a
    /// successor's extra words, which start as its parent's. A state's id
    /// is its BFS discovery order. With `keep_violations`, the store keeps
    /// the violation of every edge that triggers one.
    pub(crate) fn explore(
        system: &System,
        start: Configuration,
        extra: &[u32],
        max_states: usize,
        may_crash: impl Fn(&[u32], usize) -> bool,
        charge: impl Fn(&mut [u32], Event),
        keep_violations: bool,
    ) -> Result<Store<D>, ExploreError> {
        let mut store = Store::new(system, start, extra, max_states)?;
        if keep_violations {
            store.violations = Some(Vec::new());
        }
        store.build(system, may_crash, charge)
    }

    /// Takes every state's edges, in BFS order, as
    /// [`explore`](Self::explore) documents.
    fn build(
        mut self,
        system: &System,
        may_crash: impl Fn(&[u32], usize) -> bool,
        charge: impl Fn(&mut [u32], Event),
    ) -> Result<Store<D>, ExploreError> {
        let at = self.n + self.template.values.len();
        let mut row = Vec::with_capacity(self.stride);
        let mut scratch = Scratch::new(&self.template);
        let mut id = 0;
        while id < self.len() {
            for i in 0..self.n {
                let p = ProcessId(i as u16);
                let events = 1 + usize::from(may_crash(&self.row(id)[at..], i));
                for event in [Event::Step(p), Event::Crash(p)].into_iter().take(events) {
                    let index = self.edges.len();
                    if index >= self.edge_limit {
                        // Refused like a state past the limit, at the
                        // states stored so far.
                        return Err(ExploreError::TooLarge { limit: self.len() });
                    }
                    let violation = self.successor(system, id, event, &mut row, &mut scratch);
                    charge(&mut row[at..], event);
                    let target = self.intern(&row, Some((id as u32, event)))? as u32;
                    if let (Some(list), Some(violation)) = (&mut self.violations, violation) {
                        list.push((index as u32, violation));
                    }
                    self.edges.push(Edge { target, event });
                }
            }
            self.edge_ends.push(self.edges.len() as u32);
            id += 1;
        }
        // The arrays keep their growth slack. Shrinking them would not lower
        // the peak, which the build has passed, and an array freed at its
        // grown size lets the allocator serve the next build of that size
        // from memory it holds instead of from fresh pages.
        Ok(self)
    }

    /// A store holding `start` (extra words `extra`) as state 0, or
    /// [`ExploreError::TooLarge`] if the limit admits no state.
    fn new(
        system: &System,
        start: Configuration,
        extra: &[u32],
        max_states: usize,
    ) -> Result<Store<D>, ExploreError> {
        let n = system.n();
        let mut parts = Parts::default();
        let mut row: Vec<u32> = (0..n)
            .map(|i| parts.intern(system, &start, ProcessId(i as u16)))
            .collect();
        row.extend(start.values.iter().map(|v| u32::from(v.0)));
        row.extend_from_slice(extra);
        let mut store = Store {
            n,
            stride: row.len(),
            rows: Vec::new(),
            heads: HashMap::default(),
            next: Vec::new(),
            edges: Vec::new(),
            edge_ends: vec![0],
            violations: None,
            edge_limit: EDGE_LIMIT,
            parents: Vec::new(),
            parts,
            successors: HashMap::default(),
            template: start,
            limit: id_limit(max_states),
            digest: D::default(),
        };
        store.intern(&row, None)?;
        Ok(store)
    }

    /// Overwrites `row` with state `id`'s successor under `event`, a step or
    /// crash of one process, its extra words still the parent's, and
    /// returns the violation the event triggers.
    ///
    /// The process's part `q` and, for a step that invokes, the value `v`
    /// of the object it is poised on determine the rest: the successor is
    /// cached under `q`, the event's kind and `v` (0 for a crash or an
    /// output state's no-op step), and computed on a miss by
    /// [`System::apply`] on the unpacked parent.
    fn successor(
        &mut self,
        system: &System,
        id: usize,
        event: Event,
        row: &mut Vec<u32>,
        scratch: &mut Scratch,
    ) -> Option<Violation> {
        let (p, crash) = match event {
            Event::Step(p) => (p, false),
            Event::Crash(p) => (p, true),
            // The explorers enumerate only the paper's §3 events.
            Event::SystemCrash | Event::CrashDuring(_) => unreachable!(),
        };
        row.clear();
        row.extend_from_slice(self.row(id));
        let part = row[p.index()];
        let poised = match self.parts.get(part).action {
            Action::Invoke { object, .. } if !crash => Some(self.n + object.index()),
            _ => None,
        };
        let value = poised.map_or(0, |at| row[at]);
        let key = u64::from(part) << 32 | u64::from(crash) << 31 | u64::from(value);
        let successor = match self.successors.get(&key) {
            Some(&successor) => successor,
            None => {
                if scratch.loaded != Some(id) {
                    self.config_into(id, &mut scratch.current);
                    scratch.loaded = Some(id);
                }
                scratch.next.clone_from(&scratch.current);
                let effect = system.apply(&mut scratch.next, event);
                let successor = Successor {
                    part: self.parts.intern(system, &scratch.next, p),
                    value: poised.map_or(0, |at| u32::from(scratch.next.values[at - self.n].0)),
                    output: effect.outputs.first().map(|&(_, v)| v),
                };
                self.successors.insert(key, successor);
                successor
            }
        };
        row[p.index()] = successor.part;
        if let Some(at) = poised {
            row[at] = successor.value;
        }
        let v = successor.output?;
        scratch.decided.clear();
        let parts = &self.row(id)[..self.n];
        (scratch.decided).extend(parts.iter().map(|&q| self.parts.get(q).decided));
        system.check_output(&scratch.decided, p, v)
    }

    /// The id of the state `row`, stored now if new.
    fn intern(&mut self, row: &[u32], parent: Option<(u32, Event)>) -> Result<usize, ExploreError> {
        let digest = self.digest.hash_one(row);
        let mut i = self.heads.get(&digest).copied().unwrap_or(NONE);
        while i != NONE {
            if self.row(i as usize) == row {
                return Ok(i as usize);
            }
            i = self.next[i as usize];
        }
        let id = self.len();
        if id >= self.limit {
            return Err(ExploreError::TooLarge { limit: self.limit });
        }
        self.next
            .push(self.heads.insert(digest, id as u32).unwrap_or(NONE));
        self.rows.extend_from_slice(row);
        self.parents.push(parent);
        Ok(id)
    }

    /// Number of states.
    pub(crate) fn len(&self) -> usize {
        self.parents.len()
    }

    fn row(&self, id: usize) -> &[u32] {
        &self.rows[id * self.stride..(id + 1) * self.stride]
    }

    /// Process `p`'s part of state `id`.
    pub(crate) fn part(&self, id: usize, p: usize) -> &Part {
        self.parts.get(self.rows[id * self.stride + p])
    }

    /// State `id`'s decisions, one per process.
    pub(crate) fn decided(&self, id: usize) -> impl Iterator<Item = Option<u32>> + '_ {
        (0..self.n).map(move |p| self.part(id, p).decided)
    }

    /// Overwrites `into`, a configuration of the explored system, with
    /// state `id`'s configuration.
    pub(crate) fn config_into(&self, id: usize, into: &mut Configuration) {
        let row = self.row(id);
        for (p, (state, decided)) in into.states.iter_mut().zip(&mut into.decided).enumerate() {
            let part = self.parts.get(row[p]);
            state.clone_from(&part.state);
            *decided = part.decided;
        }
        for (value, &word) in into.values.iter_mut().zip(&row[self.n..]) {
            *value = ValueId(word as u16);
        }
    }

    /// State `id`'s configuration.
    pub(crate) fn config(&self, id: usize) -> Configuration {
        let mut config = self.template.clone();
        self.config_into(id, &mut config);
        config
    }

    /// The indices of state `id`'s outgoing edges.
    pub(crate) fn edge_range(&self, id: usize) -> std::ops::Range<usize> {
        self.edge_ends[id] as usize..self.edge_ends[id + 1] as usize
    }

    /// State `id`'s outgoing edges.
    pub(crate) fn edges(&self, id: usize) -> &[Edge] {
        &self.edges[self.edge_range(id)]
    }

    /// The violation the edge with index `index` triggers, if the store
    /// keeps violations and it triggers one.
    pub(crate) fn violation(&self, index: usize) -> Option<Violation> {
        let list = self.violations.as_deref()?;
        let at = list
            .binary_search_by_key(&index, |&(i, _)| i as usize)
            .ok()?;
        Some(list[at].1)
    }

    /// The first violating edge in edge order, as its source state, its
    /// event and its violation, if the store keeps violations.
    pub(crate) fn first_violation(&self) -> Option<(usize, Event, Violation)> {
        let &(index, violation) = self.violations.as_deref()?.first()?;
        let index = index as usize;
        // The source is the last state whose edges start at or before it.
        let source = self.edge_ends.partition_point(|&end| end as usize <= index) - 1;
        Some((source, self.edges[index].event, violation))
    }

    /// A schedule from the start to `id`, following BFS parents.
    pub(crate) fn path_to(&self, id: usize) -> Schedule {
        let mut events = Vec::new();
        let mut cur = id;
        while let Some((prev, event)) = self.parents[cur] {
            events.push(event);
            cur = prev as usize;
        }
        events.reverse();
        Schedule::from_events(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valency::charge_allowances;
    use rcn_model::{HeapLayout, ObjectId, OutputInput, Program};
    use rcn_protocols::{TasConsensus, TnnRecoverable, TnnWaitFree, TournamentConsensus};
    use rcn_spec::zoo::{BoundedStack, Register, StickyBit};
    use rcn_spec::{OpId, Response};
    use rcn_universal::UniversalSim;
    use std::hash::Hasher;
    use std::sync::Arc;

    /// Gives every row one digest, so every probe walks one chain.
    #[derive(Default)]
    struct Collide;

    impl Hasher for Collide {
        fn write(&mut self, _: &[u8]) {}

        fn finish(&self) -> u64 {
            0
        }
    }

    #[test]
    fn limits_beyond_u32_ids_are_enforced_as_u32_max() {
        assert_eq!(id_limit(7), 7);
        assert_eq!(id_limit(u32::MAX as usize), u32::MAX as usize);
        assert_eq!(id_limit(usize::MAX), u32::MAX as usize);
    }

    /// Process 0 keeps its input followed by every response it has seen,
    /// so its state changes word count as it runs (a crash shrinks it back
    /// to one word), and outputs its input after three reads. Every other
    /// process keeps one word, a bit it toggles into a register.
    struct Growing {
        reg: ObjectId,
    }

    impl Program for Growing {
        fn name(&self) -> String {
            "growing".into()
        }

        fn initial_state(&self, pid: ProcessId, input: u32) -> LocalState {
            LocalState::word1(if pid.index() == 0 { input } else { 0 })
        }

        fn action(&self, pid: ProcessId, state: &LocalState) -> Action {
            match (pid.index(), state.words().len()) {
                (0, 4) => Action::Output(state.word(0)),
                (0, _) => Action::Invoke {
                    object: self.reg,
                    op: OpId::new(2), // read
                },
                _ => Action::Invoke {
                    object: self.reg,
                    op: OpId::new(1 - state.word(0) as u16), // write(1 - b)
                },
            }
        }

        fn transition(&self, pid: ProcessId, state: &LocalState, r: Response) -> LocalState {
            if pid.index() == 0 {
                let words = state.words().iter().copied();
                LocalState::from_words(words.chain([r.index() as u32]))
            } else {
                LocalState::word1(1 - state.word(0))
            }
        }
    }

    fn systems() -> Vec<System> {
        let mut layout = HeapLayout::new();
        let reg = layout.add_object("R", Arc::new(Register::new(2)), ValueId::new(0));
        let growing = System::new(Arc::new(Growing { reg }), Arc::new(layout), vec![1, 0, 0]);
        let sticky = |inputs| TournamentConsensus::try_new(Arc::new(StickyBit::new()), inputs);
        let stack = BoundedStack::new(2, 2);
        let ops = vec![
            stack.push_op(0).index() as u32,
            stack.pop_op().index() as u32,
        ];
        let output_input = System::new(
            Arc::new(OutputInput),
            Arc::new(HeapLayout::new()),
            vec![0, 1],
        );
        vec![
            TasConsensus::system(vec![0, 1]),
            TnnWaitFree::system(2, 1, vec![1, 0]),
            TnnRecoverable::system(5, 2, vec![0, 1]),
            sticky(vec![0, 1]).unwrap(),
            sticky(vec![1, 0, 1]).unwrap(),
            UniversalSim::system(Arc::new(stack), ValueId::new(0), ops),
            output_input,
            growing,
        ]
    }

    /// A SplitMix64 stream: the walks are random but the same every run.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Random walks from the start, each edge taken through the store and
    /// checked against [`System::apply`] on the unpacked parent and against
    /// a reference map from `(configuration, allowances)` to id. With
    /// `allowances`, the walks are `E_1*` executions with allowances
    /// clamped at 2; without, any step or crash. `D` digests the rows.
    fn walk<D: BuildHasher + Default>(sys: &System, allowances: bool, rng: &mut Rng) {
        let n = sys.n();
        let extra = if allowances { vec![0; n] } else { Vec::new() };
        let mut store = Store::<D>::new(sys, sys.initial_config(), &extra, usize::MAX).unwrap();
        let at = store.stride - extra.len();
        let mut reference = HashMap::from([((sys.initial_config(), extra), 0)]);
        let (mut row, mut scratch) = (Vec::new(), Scratch::new(&store.template));
        for _ in 0..24 {
            let mut id = 0;
            for _ in 0..rng.below(24) {
                let i = rng.below(n);
                let p = ProcessId(i as u16);
                let may_crash = !allowances || store.row(id)[at + i] > 0;
                let event = if may_crash && rng.below(2) == 0 {
                    Event::Crash(p)
                } else {
                    Event::Step(p)
                };
                let violation = store.successor(sys, id, event, &mut row, &mut scratch);
                if allowances {
                    charge_allowances(&mut row[at..], event, n as u32, 2);
                }
                let target = store.intern(&row, Some((id as u32, event))).unwrap();

                let mut config = store.config(id);
                let effect = sys.apply(&mut config, event);
                assert_eq!(store.config(target), config, "{event} from {id}");
                assert_eq!(violation, effect.violation, "{event} from {id}");
                for (j, &decided) in config.decided.iter().enumerate() {
                    let part = store.part(target, j);
                    assert_eq!(part.decided, decided);
                    assert_eq!(part.action, sys.action_of(&config, ProcessId(j as u16)));
                }
                let next = reference.len();
                let key = (config, row[at..].to_vec());
                assert_eq!(target, *reference.entry(key).or_insert(next));
                id = target;
            }
        }
        assert_eq!(store.len(), reference.len());
    }

    /// Every edge of every system's graph, with crashes unconstrained,
    /// carries the violation [`System::apply`] gives on its source, and the
    /// first violating edge is the first such edge in edge order.
    #[test]
    fn kept_violations_match_apply() {
        let mut violating = 0;
        for sys in systems() {
            let start = sys.initial_config();
            let store = Store::<BuildHasherDefault<WordHasher>>::explore(
                &sys,
                start,
                &[],
                100_000,
                |_, _| true,
                |_, _| {},
                true,
            )
            .unwrap();
            let mut first = None;
            for id in 0..store.len() {
                for (e, index) in store.edges(id).iter().zip(store.edge_range(id)) {
                    let mut config = store.config(id);
                    let violation = sys.apply(&mut config, e.event).violation;
                    assert_eq!(store.config(e.target()), config, "{} from {id}", e.event);
                    assert_eq!(store.violation(index), violation, "{} from {id}", e.event);
                    if let (None, Some(v)) = (first, violation) {
                        first = Some((id, e.event, v));
                    }
                }
            }
            assert_eq!(store.first_violation(), first);
            violating += usize::from(first.is_some());
        }
        // T&S consensus, the wait-free T_{2,1} and `OutputInput` violate.
        assert!(violating >= 3, "{violating} systems violate");
    }

    #[test]
    fn an_edge_past_the_edge_limit_is_refused() {
        let sys = TasConsensus::system(vec![0, 1]);
        let build = |edge_limit| {
            let mut store = Store::<BuildHasherDefault<WordHasher>>::new(
                &sys,
                sys.initial_config(),
                &[],
                100_000,
            )
            .unwrap();
            store.edge_limit = edge_limit;
            store.build(&sys, |_, _| true, |_, _| {})
        };
        let graph = build(EDGE_LIMIT).unwrap();
        let edges = graph.edges.len();
        assert_eq!(build(edges).unwrap().len(), graph.len());
        // The last state's last edge is one too many; so is state 1's first,
        // after state 0's four, when the states stored so far are those
        // state 0 reached.
        let reached = graph.edges(0).iter().map(|e| e.target()).max().unwrap() + 1;
        assert_eq!(
            build(edges - 1).err(),
            Some(ExploreError::TooLarge { limit: graph.len() })
        );
        assert_eq!(
            build(4).err(),
            Some(ExploreError::TooLarge { limit: reached })
        );
    }

    #[test]
    fn walked_edges_match_apply_and_share_ids_exactly_when_equal() {
        let mut rng = Rng(1);
        for sys in systems() {
            for allowances in [false, true] {
                walk::<BuildHasherDefault<WordHasher>>(&sys, allowances, &mut rng);
                walk::<BuildHasherDefault<Collide>>(&sys, allowances, &mut rng);
            }
        }
    }
}
