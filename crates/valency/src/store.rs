//! The packed store both graphs are built into, by one breadth-first
//! builder. Each state is kept once, as its packed words
//! ([`Configuration::pack_into`], then any extra words: the budgeted
//! graph's crash allowances), back to back in one arena. A [`WordHasher`]
//! digest maps to the newest state with that digest and a chain parallel
//! to the arena links the older ones, so a probe confirms equality against
//! the arena. Edges and BFS parents are flat arrays in BFS order (CSR).
//! Ids are `u32`: a state limit above `u32::MAX` is enforced as `u32::MAX`.

use crate::graph::ExploreError;
use rcn_model::{Configuration, Event, ProcessId, Schedule, System, Violation, WordHasher};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Marks the end of a same-digest chain.
const NONE: u32 = u32::MAX;

/// The state limit `u32` ids can honor.
pub(crate) fn id_limit(max_states: usize) -> usize {
    max_states.min(NONE as usize)
}

/// An explored graph: every state once, as words.
pub(crate) struct Store<E> {
    /// State `i` is `words[ends[i]..ends[i + 1]]`.
    words: Vec<u32>,
    ends: Vec<usize>,
    /// Digest → the newest state with it; `next[i]`: the state before `i`
    /// with `i`'s digest, or [`NONE`].
    heads: HashMap<u64, u32, BuildHasherDefault<WordHasher>>,
    next: Vec<u32>,
    /// State `i`'s edges are `edges[edge_ends[i]..edge_ends[i + 1]]`.
    edges: Vec<E>,
    edge_ends: Vec<usize>,
    /// Each state's BFS parent and the event taken from it.
    parents: Vec<Option<(u32, Event)>>,
    /// The start configuration: the shape every state unpacks into.
    template: Configuration,
    /// The state limit, capped by [`id_limit`].
    limit: usize,
}

impl<E> Store<E> {
    /// Explores breadth-first from `start` (extra words `extra`), up to
    /// `max_states` states. Each state takes `p_0`'s step, its crash if
    /// `may_crash(extra, 0)`, then `p_1`'s, …; `extra_after` appends a
    /// successor's extra words. A state's id is its BFS discovery order.
    pub(crate) fn explore(
        system: &System,
        start: Configuration,
        extra: &[u32],
        max_states: usize,
        may_crash: impl Fn(&[u32], usize) -> bool,
        extra_after: impl Fn(&[u32], Event, &mut Vec<u32>),
        edge: impl Fn(Event, usize, Option<Violation>) -> E,
    ) -> Result<Store<E>, ExploreError> {
        let mut key = Vec::new();
        start.pack_into(&mut key);
        key.extend_from_slice(extra);
        // Each state is unpacked once into `current`; every successor is
        // built in `next` and packed into `key`.
        let (mut current, mut next) = (start.clone(), start.clone());
        let mut store = Store {
            words: Vec::new(),
            ends: vec![0],
            heads: HashMap::default(),
            next: Vec::new(),
            edges: Vec::new(),
            edge_ends: vec![0],
            parents: Vec::new(),
            template: start,
            limit: id_limit(max_states),
        };
        store.intern(&key, None)?;
        let mut extra = Vec::new();
        let mut id = 0;
        while id < store.len() {
            let words = store.state(id);
            let used = current.unpack_from(words);
            extra.clear();
            extra.extend_from_slice(&words[used..]);
            for i in 0..system.n() {
                let p = ProcessId(i as u16);
                let events = 1 + usize::from(may_crash(&extra, i));
                for event in [Event::Step(p), Event::Crash(p)].into_iter().take(events) {
                    next.clone_from(&current);
                    let effect = system.apply(&mut next, event);
                    key.clear();
                    next.pack_into(&mut key);
                    extra_after(&extra, event, &mut key);
                    let target = store.intern(&key, Some((id as u32, event)))?;
                    store.edges.push(edge(event, target, effect.violation));
                }
            }
            store.edge_ends.push(store.edges.len());
            id += 1;
        }
        // The arrays keep their growth slack. Shrinking them would not lower
        // the peak, which the build has passed, and an array freed at its
        // grown size lets the allocator serve the next build of that size
        // from memory it holds instead of from fresh pages.
        Ok(store)
    }

    /// The id of the state whose words are `key`, stored now if new. The
    /// start (no parent) is stored whatever the limit.
    fn intern(&mut self, key: &[u32], parent: Option<(u32, Event)>) -> Result<usize, ExploreError> {
        let mut hasher = WordHasher::default();
        key.hash(&mut hasher);
        let digest = hasher.finish();
        let mut i = self.heads.get(&digest).copied().unwrap_or(NONE);
        while i != NONE {
            if self.state(i as usize) == key {
                return Ok(i as usize);
            }
            i = self.next[i as usize];
        }
        let id = self.len();
        if parent.is_some() && id >= self.limit {
            return Err(ExploreError::TooLarge { limit: self.limit });
        }
        self.next
            .push(self.heads.insert(digest, id as u32).unwrap_or(NONE));
        self.words.extend_from_slice(key);
        self.ends.push(self.words.len());
        self.parents.push(parent);
        Ok(id)
    }

    /// Number of states.
    pub(crate) fn len(&self) -> usize {
        self.parents.len()
    }

    fn state(&self, id: usize) -> &[u32] {
        &self.words[self.ends[id]..self.ends[id + 1]]
    }

    /// Overwrites `into`, a configuration of the explored system, with
    /// state `id`'s configuration.
    pub(crate) fn config_into(&self, id: usize, into: &mut Configuration) {
        into.unpack_from(self.state(id));
    }

    /// State `id`'s configuration.
    pub(crate) fn config(&self, id: usize) -> Configuration {
        let mut config = self.template.clone();
        self.config_into(id, &mut config);
        config
    }

    /// State `id`'s outgoing edges.
    pub(crate) fn edges(&self, id: usize) -> &[E] {
        &self.edges[self.edge_ends[id]..self.edge_ends[id + 1]]
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

    #[test]
    fn limits_beyond_u32_ids_are_enforced_as_u32_max() {
        assert_eq!(id_limit(7), 7);
        assert_eq!(id_limit(u32::MAX as usize), u32::MAX as usize);
        assert_eq!(id_limit(usize::MAX), u32::MAX as usize);
    }
}
