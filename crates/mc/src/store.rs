//! The flat state store both searches keep their states in.
//!
//! A stored state is a [`Configuration`] plus one budget entry per process
//! (the checker's crash counts, the valency check's allowances). Each
//! field is kept once, field by field, in flat arrays: every local state's
//! words back to back in one arena with their ends (a program may change a
//! state's word count), and the object values, decisions and budgets each
//! at a fixed stride. Nothing is allocated per state.
//!
//! The index maps a [`WordHasher`] digest of the structural fields to the
//! newest state with that digest, and a chain parallel to the store links
//! the older ones. The digest is only a bucket key: every probe compares
//! field by field, so a collision costs one comparison and can never merge
//! two states, and it is never persisted. States are never kept as one
//! packed word encoding, which `rcn-faults`' memo fingerprint walk keys
//! its configurations by, nor as interned per-process parts, which
//! `rcn-valency`'s store keys its rows by: a bug in either encoding must
//! not reach here.

use rcn_model::{Configuration, WordHasher};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Marks the end of a same-digest chain.
const NONE: u32 = u32::MAX;

/// The digest a state is indexed under.
pub(crate) fn digest<B: Hash>(config: &Configuration, budget: &[B]) -> u64 {
    let mut h = WordHasher::default();
    config.hash(&mut h);
    budget.hash(&mut h);
    h.finish()
}

/// Every state of one search, in insertion order; a state's id is its
/// position. All states belong to one system: `n` processes, `objects`
/// objects.
pub(crate) struct Store<B> {
    n: usize,
    objects: usize,
    /// Process `j`'s local state in state `i` is `words[ends[k]..ends[k + 1]]`
    /// with `k = i·n + j`.
    words: Vec<u32>,
    ends: Vec<u32>,
    /// State `i`'s fields at stride `objects` (value ids) or `n`.
    values: Vec<u16>,
    decided: Vec<Option<u32>>,
    budgets: Vec<B>,
    /// Digest → the newest state with it; `next[i]`: the state before `i`
    /// with `i`'s digest, or [`NONE`].
    heads: HashMap<u64, u32, BuildHasherDefault<WordHasher>>,
    next: Vec<u32>,
}

impl<B: Copy + Eq> Store<B> {
    /// An empty store for states of `n` processes and `objects` objects.
    pub(crate) fn new(n: usize, objects: usize) -> Store<B> {
        Store {
            n,
            objects,
            words: Vec::new(),
            ends: vec![0],
            values: Vec::new(),
            decided: Vec::new(),
            budgets: Vec::new(),
            heads: HashMap::default(),
            next: Vec::new(),
        }
    }

    /// Number of states stored.
    pub(crate) fn len(&self) -> usize {
        self.next.len()
    }

    /// The id of the state `(config, budget)`, whose [`digest`] is
    /// `digest`, if it is stored.
    pub(crate) fn find(&self, digest: u64, config: &Configuration, budget: &[B]) -> Option<usize> {
        let mut i = *self.heads.get(&digest)?;
        while i != NONE {
            if self.equals(i as usize, config, budget) {
                return Some(i as usize);
            }
            i = self.next[i as usize];
        }
        None
    }

    /// Stores `(config, budget)`, whose [`digest`] is `digest`, and returns
    /// its id. The caller has checked with [`find`](Self::find) that it is
    /// new.
    ///
    /// # Panics
    ///
    /// If the store would exceed `u32::MAX` states or local-state words.
    pub(crate) fn push(&mut self, digest: u64, config: &Configuration, budget: &[B]) -> usize {
        let id = self.len();
        let id32 = u32::try_from(id)
            .ok()
            .filter(|&i| i != NONE)
            .expect("under 2^32 - 1 states");
        self.next
            .push(self.heads.insert(digest, id32).unwrap_or(NONE));
        for state in &config.states {
            self.words.extend_from_slice(state.words());
            let end = u32::try_from(self.words.len()).expect("under 2^32 local-state words");
            self.ends.push(end);
        }
        self.values.extend(config.values.iter().map(|v| v.0));
        self.decided.extend_from_slice(&config.decided);
        self.budgets.extend_from_slice(budget);
        id
    }

    /// Overwrites `config` and `budget`, a configuration of the searched
    /// system and a budget of `n` entries, with state `id`, reusing every
    /// buffer.
    pub(crate) fn load(&self, id: usize, config: &mut Configuration, budget: &mut [B]) {
        for (j, state) in config.states.iter_mut().enumerate() {
            state.set_words(self.local(id, j));
        }
        for (value, &raw) in config.values.iter_mut().zip(self.values(id)) {
            value.0 = raw;
        }
        config.decided.copy_from_slice(self.decided(id));
        budget.copy_from_slice(self.budget(id));
    }

    /// State `id`'s decisions, one per process.
    pub(crate) fn decided(&self, id: usize) -> &[Option<u32>] {
        &self.decided[id * self.n..(id + 1) * self.n]
    }

    fn values(&self, id: usize) -> &[u16] {
        &self.values[id * self.objects..(id + 1) * self.objects]
    }

    fn budget(&self, id: usize) -> &[B] {
        &self.budgets[id * self.n..(id + 1) * self.n]
    }

    /// Process `j`'s local-state words in state `id`.
    fn local(&self, id: usize, j: usize) -> &[u32] {
        let k = id * self.n + j;
        &self.words[self.ends[k] as usize..self.ends[k + 1] as usize]
    }

    /// Whether state `id` is `(config, budget)`, field by field.
    fn equals(&self, id: usize, config: &Configuration, budget: &[B]) -> bool {
        self.budget(id) == budget
            && (self.values(id).iter()).eq(config.values.iter().map(|v| &v.0))
            && self.decided(id) == &config.decided[..]
            && (config.states.iter().enumerate()).all(|(j, s)| self.local(id, j) == s.words())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_model::{
        charge_crashes, event_enabled, Action, Event, FaultModel, HeapLayout, LocalState, ObjectId,
        ProcessId, Program, System,
    };
    use rcn_protocols::{TasConsensus, TnnRecoverable, TnnWaitFree, TournamentConsensus};
    use rcn_spec::zoo::{CompareAndSwap, Register, StickyBit};
    use rcn_spec::{OpId, Response, ValueId};
    use std::fmt::Debug;
    use std::sync::Arc;

    /// Process 0 keeps its input followed by every response it has seen,
    /// so its state changes word count as it runs (a crash shrinks it back
    /// to one word), and outputs its input after three reads. Every other
    /// process keeps one word, a bit it toggles into a register: the crash
    /// explorer's trap shape, states of different word counts by process.
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
        let sticky = Arc::new(StickyBit::new());
        vec![
            TasConsensus::system(vec![0, 1]),
            TnnWaitFree::system(2, 1, vec![1, 0]),
            TnnRecoverable::system(5, 2, vec![0, 1]),
            TournamentConsensus::try_new(sticky, vec![1, 0, 1]).unwrap(),
            TournamentConsensus::try_new(Arc::new(CompareAndSwap::new(3)), vec![0, 1]).unwrap(),
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

    /// A store checked against a set of nested keys: `reference` maps each
    /// stored `(configuration, budget)` to its id.
    struct Checked<B> {
        store: Store<B>,
        reference: HashMap<(Configuration, Vec<B>), usize>,
        /// Every state under one digest, so each probe walks one chain.
        collide: bool,
        /// Probes that found a stored state.
        hits: usize,
        /// The budget the last state loaded into.
        loaded: Vec<B>,
    }

    impl<B: Copy + Eq + Hash + Debug> Checked<B> {
        fn new(sys: &System, collide: bool) -> Self {
            Checked {
                store: Store::new(sys.n(), sys.initial_config().values.len()),
                reference: HashMap::new(),
                collide,
                hits: 0,
                loaded: Vec::new(),
            }
        }

        /// Stores `(config, budget)` unless present; the store must find
        /// exactly the states the reference holds, under the same id, and
        /// load each back equal over the state loaded before it.
        fn intern(&mut self, config: &Configuration, budget: &[B], load: &mut Configuration) {
            let d = if self.collide {
                0
            } else {
                digest(config, budget)
            };
            let key = (config.clone(), budget.to_vec());
            let found = self.store.find(d, config, budget);
            assert_eq!(found, self.reference.get(&key).copied(), "{config:?}");
            self.hits += usize::from(found.is_some());
            let id = found.unwrap_or_else(|| {
                let id = self.store.push(d, config, budget);
                self.reference.insert(key, id);
                id
            });
            if self.loaded.is_empty() {
                self.loaded = budget.to_vec();
            }
            self.store.load(id, load, &mut self.loaded);
            assert_eq!((&*load, &self.loaded[..]), (config, budget));
            assert_eq!(self.store.decided(id), &config.decided[..]);
        }
    }

    /// Random schedules under each fault model (at most two crashes per
    /// process), with the crash counts they spend.
    fn crash_walks(sys: &System, rng: &mut Rng, mut visit: impl FnMut(&Configuration, &[usize])) {
        let n = sys.n();
        let models = [
            FaultModel::PER_PROCESS,
            FaultModel::SYSTEM,
            FaultModel::MID_OP,
            FaultModel::ALL,
        ];
        let events: Vec<Event> = (0..n)
            .map(|i| Event::Step(ProcessId(i as u16)))
            .chain((0..n).map(|i| Event::Crash(ProcessId(i as u16))))
            .chain([Event::SystemCrash])
            .chain((0..n).map(|i| Event::CrashDuring(ProcessId(i as u16))))
            .collect();
        for model in models {
            for _ in 0..12 {
                let mut config = sys.initial_config();
                let mut counts = vec![0usize; n];
                visit(&config, &counts);
                for _ in 0..rng.below(24) {
                    let enabled: Vec<Event> = (events.iter().copied())
                        .filter(|&e| event_enabled(model, &counts, 2, e))
                        .collect();
                    let event = enabled[rng.below(enabled.len())];
                    sys.apply(&mut config, event);
                    charge_crashes(&mut counts, event);
                    visit(&config, &counts);
                }
            }
        }
    }

    /// Random `E_z*` schedules (z = 1, allowances clamped at 2), with the
    /// allowances they leave.
    fn allowance_walks(sys: &System, rng: &mut Rng, mut visit: impl FnMut(&Configuration, &[u16])) {
        let n = sys.n();
        for _ in 0..24 {
            let mut config = sys.initial_config();
            let mut allowance = vec![0u16; n];
            visit(&config, &allowance);
            for _ in 0..rng.below(24) {
                let i = rng.below(n);
                let p = ProcessId(i as u16);
                if i > 0 && allowance[i] > 0 && rng.below(2) == 0 {
                    sys.apply(&mut config, Event::Crash(p));
                    allowance[i] -= 1;
                } else {
                    sys.apply(&mut config, Event::Step(p));
                    for a in allowance.iter_mut().skip(i + 1) {
                        *a = (*a + n as u16).min(2);
                    }
                }
                visit(&config, &allowance);
            }
        }
    }

    #[test]
    fn stored_states_load_back_and_share_ids_exactly_when_equal() {
        let mut rng = Rng(1);
        for sys in systems() {
            let mut load = sys.initial_config();
            for collide in [false, true] {
                let mut crashes = Checked::<usize>::new(&sys, collide);
                crash_walks(&sys, &mut rng, |c, b| crashes.intern(c, b, &mut load));
                let mut allowances = Checked::<u16>::new(&sys, collide);
                allowance_walks(&sys, &mut rng, |c, b| allowances.intern(c, b, &mut load));
                // The walks reach new states and revisit old ones, so both
                // outcomes of a probe are exercised.
                for (stored, hits) in [
                    (crashes.store.len(), crashes.hits),
                    (allowances.store.len(), allowances.hits),
                ] {
                    assert!(stored > 1 && hits > 0, "{}", sys.program().name());
                }
            }
        }
    }
}
