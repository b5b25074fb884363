//! The harness's only randomness: a SplitMix64 stream per (seed, lane).
//!
//! Every input of a run — sources, cache keys, mutation ops — is drawn
//! from here, so one `--seed` yields byte-identical request and mutation
//! streams (asserted by the unit tests in `streams`).

/// SplitMix64 (Steele, Lea, Flood 2014): 64 bits of state, full period,
/// good enough for picking sources and edges.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `lane` under `seed` (lanes keep client
    /// threads and workloads from sharing draws).
    pub fn new(seed: u64, lane: u64) -> Self {
        let mut rng = Rng(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-32 for
    /// every `n` the harness uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below((hi - lo + 1) as usize) as u32
    }
}
