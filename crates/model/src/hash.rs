//! The workspace's two 64-bit hashes.
//!
//! [`Fnv1a`] hashes bytes. Two layers use it: the content fingerprints
//! that key the persistent verdict stores (`rcn-decide`'s
//! `type_fingerprint`, `rcn-faults`' `system_fingerprint`). Fingerprints
//! are written into files, so they mix words through [`Fnv1a::mix`], which
//! fixes the byte order.
//!
//! [`WordHasher`] hashes a word at a time, for in-memory indexes: over
//! the state rows and part successors of `rcn-valency`'s graph store, and
//! over the derived `Hash` encoding of structural states in `rcn-mc`'s
//! breadth-first index. FNV's byte loop costs about
//! 1.5× as much there. Its digests are never written anywhere, so they are
//! free to change.

use std::hash::Hasher;

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a [`Hasher`].
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Fnv1a {
        Fnv1a {
            state: OFFSET_BASIS,
        }
    }

    /// Mixes one word in as its 8 little-endian bytes, so a digest is the
    /// same on every platform.
    #[inline]
    pub fn mix(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Hasher for Fnv1a {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// Multiplier of the word hasher (the one `rustc-hash` uses).
const WORD_SEED: u64 = 0xf135_7aea_2e62_a9c5;

/// A word-at-a-time [`Hasher`] for in-memory hash maps keyed by packed
/// words: each 8-byte chunk is added and multiplied in, and `finish`
/// rotates the well-mixed high bits down to where the table indexes.
///
/// Unkeyed, like [`Fnv1a`]: its keys are states the program derives
/// itself, never raw outside input. Not for anything persisted; use
/// [`Fnv1a`] there.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher {
    state: u64,
}

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = self.state.wrapping_add(word).wrapping_mul(WORD_SEED);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    /// The length prefix `Hash` writes before a slice's words.
    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Classic FNV-1a test vectors.
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn mix_is_little_endian() {
        let mut words = Fnv1a::new();
        words.mix(0x0102_0304_0506_0708);
        let mut bytes = Fnv1a::new();
        bytes.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(words.finish(), bytes.finish());
    }

    #[test]
    fn word_hasher_separates_packed_keys() {
        use std::hash::Hash;
        let digest = |key: &[u32]| {
            let mut h = WordHasher::default();
            key.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 3, 2]));
        // The length prefix keeps zero padding from colliding.
        assert_ne!(digest(&[1]), digest(&[1, 0]));
        assert_ne!(digest(&[]), digest(&[0]));
    }
}
