//! splitmix64: the one source of randomness. Every generated input —
//! fault seeds, secrets, start offsets, addresses, gas prices, key
//! sequences — is drawn from a stream forked off the workload seed, so
//! the product only ever sees generated inputs, never the seed itself.

#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// An independent stream for one family of inputs: adding a family
    /// never shifts another family's draws.
    pub fn fork(seed: u64, family: &str) -> SplitMix64 {
        let mut h = SplitMix64(seed ^ 0x6a09_e667_f3bc_c908);
        for b in family.bytes() {
            h.0 = h.0.wrapping_add(u64::from(b));
            h.next_u64();
        }
        SplitMix64(h.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// the sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A full-width 256-bit word as big-endian bytes.
    pub fn word(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // First outputs of splitmix64 seeded with 1234567 (Vigna's
        // reference implementation).
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn forks_are_independent_and_repeatable() {
        let a: Vec<u64> = (0..4)
            .map(|_| SplitMix64::fork(1, "secrets").next_u64())
            .collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix64::fork(1, "secrets").next_u64(),
            SplitMix64::fork(1, "faults").next_u64()
        );
        assert_ne!(
            SplitMix64::fork(1, "secrets").next_u64(),
            SplitMix64::fork(2, "secrets").next_u64()
        );
    }
}
