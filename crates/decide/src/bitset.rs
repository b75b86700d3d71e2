//! A small fixed-capacity bitset used for value sets and
//! (response, value)-pair sets inside the deciders.

use std::fmt;

/// A fixed-capacity bitset over `0..capacity`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty bitset with room for `capacity` elements.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "bitset index {i} out of capacity {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Returns `true` if `i` is in the set.
    ///
    /// Out-of-range indices are a caller bug: like [`insert`](Self::insert)
    /// they trip an assertion in debug builds. Release builds answer `false`
    /// (an index beyond the capacity is trivially not a member) instead of
    /// paying for the branch on the hot membership path.
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(
            i < self.capacity,
            "bitset index {i} out of capacity {}",
            self.capacity
        );
        if i >= self.capacity {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place union of `other`'s elements shifted up by `shift`: after the
    /// call, `self` additionally contains `shift + e` for every `e` in
    /// `other`. This is the word-level kernel behind the decider hot loops,
    /// which previously inserted `(response, value)` pairs one bit at a
    /// time: the pair universe indexes as `response * num_values + value`,
    /// so ORing a whole value set at offset `response * num_values` lands
    /// every pair at once. The shift is rarely word-aligned; each source
    /// word is split across (at most) two destination words.
    ///
    /// # Panics
    ///
    /// Panics if `shift + other.capacity() > self.capacity()` (some shifted
    /// element would land out of range).
    pub fn union_shifted_with(&mut self, other: &BitSet, shift: usize) {
        assert!(
            shift + other.capacity <= self.capacity,
            "shifted bitset union out of capacity: {} + {} > {}",
            shift,
            other.capacity,
            self.capacity
        );
        self.or_words(&other.words, shift);
    }

    /// Word-level OR primitive: ORs `src` (a little-endian word image of a
    /// bitset) into `self` at bit offset `shift`. Tail bits of `src` beyond
    /// its own capacity are assumed clear (true for well-formed sets), so
    /// well-formedness of `self` is preserved whenever the caller has
    /// checked the capacity bound, as [`union_shifted_with`]
    /// (Self::union_shifted_with) does.
    fn or_words(&mut self, src: &[u64], shift: usize) {
        let (w, b) = (shift / 64, shift % 64);
        if b == 0 {
            for (i, &s) in src.iter().enumerate() {
                if s != 0 {
                    self.words[w + i] |= s;
                }
            }
        } else {
            for (i, &s) in src.iter().enumerate() {
                if s == 0 {
                    continue;
                }
                self.words[w + i] |= s << b;
                if let Some(hi) = self.words.get_mut(w + i + 1) {
                    *hi |= s >> (64 - b);
                }
            }
        }
    }

    /// Returns `true` if the two sets share an element.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersects(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Returns `true` if the internal representation is consistent: the
    /// word vector has exactly the length the capacity requires and no bit
    /// at or above `capacity` is set (a stray high bit would corrupt
    /// [`intersects`](Self::intersects)). Always true for sets built
    /// through this API; the kernel tests assert it.
    pub fn is_well_formed(&self) -> bool {
        if self.words.len() != self.capacity.div_ceil(64) {
            return false;
        }
        let tail = self.capacity % 64;
        match self.words.last() {
            Some(&last) if tail != 0 => last & !((1u64 << tail) - 1) == 0,
            _ => true,
        }
    }

    /// Iterates over the elements in increasing order.
    ///
    /// Zero words are skipped in one comparison each and set bits are walked
    /// with `trailing_zeros`, so iteration costs O(words + elements) rather
    /// than 64 probes per word — the sets here are usually sparse.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over the elements of a [`BitSet`], in increasing order.
///
/// Returned by [`BitSet::iter`].
#[derive(Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    /// Index of the word `current` was loaded from.
    word_index: usize,
    /// Remaining (not yet yielded) bits of `words[word_index]`.
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_index += 1;
            self.current = *self.words.get(self.word_index)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_index * 64 + bit)
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = BitSet::new(100);
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(s.insert(64));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(s.contains(64));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn union_and_intersects() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        a.insert(65);
        b.insert(2);
        assert!(!a.intersects(&b));
        b.insert(65);
        assert!(a.intersects(&b));
        a.union_with(&b);
        assert_eq!(a.len(), 3);
        assert!(a.contains(2));
    }

    #[test]
    fn iter_yields_sorted_elements() {
        let mut s = BitSet::new(128);
        for i in [5, 127, 0, 64] {
            s.insert(i);
        }
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 5, 64, 127]);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn out_of_range_insert_panics() {
        BitSet::new(10).insert(10);
    }

    // `contains` mirrors `insert`'s range contract in debug builds and
    // answers `false` in release builds; both behaviors are pinned.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of capacity")]
    fn contains_out_of_range_asserts_in_debug() {
        let s = BitSet::new(10);
        let _ = s.contains(1000);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn contains_out_of_range_is_false_in_release() {
        let s = BitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    fn shifted_union_matches_per_element_inserts() {
        // Sweep shifts across word boundaries and compare against the
        // obvious per-element loop.
        let mut src = BitSet::new(70);
        for i in [0, 1, 5, 63, 64, 69] {
            src.insert(i);
        }
        for shift in [0usize, 1, 6, 58, 63, 64, 65, 128, 186] {
            let mut kernel = BitSet::new(256);
            kernel.insert(0); // pre-existing bits survive
            kernel.insert(255);
            let mut naive = kernel.clone();
            kernel.union_shifted_with(&src, shift);
            for e in src.iter() {
                naive.insert(shift + e);
            }
            assert_eq!(kernel, naive, "shift={shift}");
            assert!(kernel.is_well_formed(), "shift={shift}");
        }
    }

    #[test]
    fn shifted_union_with_unaligned_capacity_stays_well_formed() {
        // Destination capacity not a multiple of 64 and the shifted source
        // ends exactly at the capacity: the high spill of the last source
        // word must not create a phantom word access.
        let mut src = BitSet::new(5);
        src.insert(4);
        let mut dst = BitSet::new(70);
        dst.union_shifted_with(&src, 65);
        assert!(dst.contains(69));
        assert_eq!(dst.len(), 1);
        assert!(dst.is_well_formed());
    }

    #[test]
    #[should_panic(expected = "shifted bitset union out of capacity")]
    fn shifted_union_out_of_range_panics() {
        let src = BitSet::new(10);
        let mut dst = BitSet::new(64);
        dst.union_shifted_with(&src, 55);
    }

    #[test]
    fn iter_skips_zero_words() {
        // Elements far apart leave interior words all-zero; the walk must
        // still find every element, in order.
        let mut s = BitSet::new(1024);
        let elems = [0usize, 63, 64, 512, 1023];
        for &e in &elems {
            s.insert(e);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), elems);
        assert!(BitSet::new(1024).iter().next().is_none());
    }

    #[test]
    fn debug_lists_elements() {
        let mut s = BitSet::new(8);
        s.insert(1);
        s.insert(7);
        assert_eq!(format!("{s:?}"), "{1, 7}");
    }
}
