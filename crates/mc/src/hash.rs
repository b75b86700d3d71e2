//! Canonical FNV-1a state hashing for the breadth-first checker.
//!
//! The checker keys its visited set on the *canonical encoding* of a state
//! (the `Hash` traversal of its fields, which is deterministic and
//! injective up to structural equality) folded through `rcn-model`'s
//! [`Fnv1a`], the workspace's one FNV-1a. Hashing is
//! only a bucket index: lookups always confirm full structural equality,
//! so a 64-bit collision can never merge two distinct states — it only
//! costs one extra comparison. This keeps the checker sound while staying
//! deliberately independent of the DFS explorer's `std::collections`
//! default hasher.

pub use rcn_model::Fnv1a;
use std::hash::{Hash, Hasher};

/// The canonical FNV-1a digest of any hashable state.
pub fn canonical_hash<T: Hash>(value: &T) -> u64 {
    let mut h = Fnv1a::new();
    value.hash(&mut h);
    h.finish()
}

/// A chained hash index over an external state store: maps canonical
/// digests to the indices of the states bearing them, confirming equality
/// through the caller's slice on every probe.
#[derive(Default)]
pub struct StateIndex {
    buckets: std::collections::HashMap<u64, Vec<u32>>,
}

impl StateIndex {
    /// An empty index.
    pub fn new() -> StateIndex {
        StateIndex::default()
    }

    /// Looks up `key` among `states`, returning its index if present.
    pub fn find<T: Hash + Eq>(&self, states: &[T], key: &T) -> Option<usize> {
        let digest = canonical_hash(key);
        self.buckets
            .get(&digest)?
            .iter()
            .map(|&i| i as usize)
            .find(|&i| &states[i] == key)
    }

    /// Records that `key` lives at `index` in the caller's store.
    pub fn insert<T: Hash>(&mut self, key: &T, index: usize) {
        let digest = canonical_hash(key);
        self.buckets.entry(digest).or_default().push(index as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_distinguishes_colliding_buckets() {
        // Equality is structural even if digests were to collide: the index
        // never returns a structurally different state.
        let states = vec![(1u32, 2u32), (3, 4), (1, 3)];
        let mut index = StateIndex::new();
        for (i, s) in states.iter().enumerate() {
            index.insert(s, i);
        }
        assert_eq!(index.find(&states, &(1, 2)), Some(0));
        assert_eq!(index.find(&states, &(1, 3)), Some(2));
        assert_eq!(index.find(&states, &(9, 9)), None);
    }
}
