//! The benchmark's own seeded random numbers: a splitmix64 stream for
//! job order, inputs and table seeds. Random tables themselves are drawn
//! through `rcn_decide::synthesis::rng`, seeded from this stream.

/// A splitmix64 generator (Steele, Lea and Flood, 2014).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A number in `0..n` (`n > 0`). The modulo bias is below 2^-50 for
    /// the small ranges the benchmark draws from.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` binary consensus inputs (any mix, all-equal included).
    pub fn inputs(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| (self.next_u64() & 1) as u32).collect()
    }

    /// `n ≥ 2` binary inputs containing both values, so agreement can be
    /// violated by a broken protocol.
    pub fn mixed_inputs(&mut self, n: usize) -> Vec<u32> {
        loop {
            let inputs = self.inputs(n);
            if inputs.contains(&0) && inputs.contains(&1) {
                return inputs;
            }
        }
    }
}
