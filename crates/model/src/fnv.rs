//! The workspace's one 64-bit FNV-1a hash.
//!
//! Three layers hash with it: the breadth-first checker's state index in
//! `rcn-mc`, and the content fingerprints that key the persistent verdict
//! stores (`rcn-decide`'s `type_fingerprint`, `rcn-faults`'
//! `system_fingerprint`). Fingerprints are written into files, so they mix
//! words through [`Fnv1a::mix`], which fixes the byte order.

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
}
