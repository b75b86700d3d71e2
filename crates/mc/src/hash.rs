//! Canonical state digests and the collision-safe index over them.
//!
//! The checker keys its visited set on the *canonical encoding* of a state
//! (the derived `Hash` traversal of its fields, which is deterministic and
//! injective up to structural equality) folded a word at a time through
//! `rcn-model`'s [`WordHasher`]. The digest is only a bucket key: it is
//! never persisted, and every probe confirms full structural equality, so a
//! 64-bit collision can never merge two distinct states — it only costs one
//! extra comparison. This keeps the checker sound while staying
//! independent of the packed word keys (`Configuration::pack_into`) that
//! the engines it checks index their states by.
//!
//! The caller computes each state's digest once ([`canonical_hash`]) and
//! hands it to both [`StateIndex::find`] and [`StateIndex::insert`].

use rcn_model::WordHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The canonical digest of any hashable state.
pub fn canonical_hash<T: Hash>(value: &T) -> u64 {
    let mut h = WordHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// Marks the end of a same-digest chain.
const NONE: u32 = u32::MAX;

/// A chained hash index over an external state store, whose states are
/// inserted in store order: one `u32` head per digest, and a same-digest
/// chain in a `Vec<u32>` parallel to the store. Every probe confirms
/// equality through the caller's slice.
#[derive(Default)]
pub struct StateIndex {
    heads: HashMap<u64, u32, BuildHasherDefault<WordHasher>>,
    /// `next[i]`: the state stored before `i` with the same digest.
    next: Vec<u32>,
}

impl StateIndex {
    /// An empty index.
    pub fn new() -> StateIndex {
        StateIndex::default()
    }

    /// Looks up `key`, whose digest is `digest`, among `states`, returning
    /// its index if present.
    pub fn find<T: Eq>(&self, states: &[T], digest: u64, key: &T) -> Option<usize> {
        let mut i = *self.heads.get(&digest)?;
        while i != NONE {
            if &states[i as usize] == key {
                return Some(i as usize);
            }
            i = self.next[i as usize];
        }
        None
    }

    /// Records that the state with digest `digest` lives at `index` in the
    /// caller's store.
    ///
    /// # Panics
    ///
    /// If `index` is not the next slot of the store (states are indexed in
    /// store order), or does not fit in a `u32`.
    pub fn insert(&mut self, digest: u64, index: usize) {
        assert_eq!(index, self.next.len(), "states are indexed in store order");
        let index = u32::try_from(index).expect("under 2^32 states");
        let prev = self.heads.insert(digest, index).unwrap_or(NONE);
        self.next.push(prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_distinguishes_colliding_buckets() {
        // Equality is structural even when digests collide: with every
        // state under one digest, the index still never returns a
        // structurally different state.
        let states = vec![(1u32, 2u32), (3, 4), (1, 3)];
        let mut index = StateIndex::new();
        for i in 0..states.len() {
            index.insert(7, i);
        }
        assert_eq!(index.find(&states, 7, &(1, 2)), Some(0));
        assert_eq!(index.find(&states, 7, &(1, 3)), Some(2));
        assert_eq!(index.find(&states, 7, &(9, 9)), None);
        assert_eq!(index.find(&states, 8, &(1, 2)), None);
    }
}
