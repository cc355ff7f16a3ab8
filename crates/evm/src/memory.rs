//! Word-granular EVM memory with quadratic-cost expansion tracking.

use sc_primitives::U256;

/// Byte-addressable memory that grows in 32-byte words.
///
/// Expansion gas is charged by the interpreter via
/// [`crate::gas::memory_expansion_cost`]; this type only tracks sizes and
/// performs zero-extended reads/writes.
#[derive(Default)]
pub struct Memory {
    data: Vec<u8>,
}

impl Memory {
    /// Creates empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current size in bytes (always a multiple of 32).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff no memory has been touched.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Current size in words.
    #[inline]
    pub fn words(&self) -> u64 {
        (self.data.len() / 32) as u64
    }

    /// Grows to cover `offset + len` bytes, word-aligned. No-op for
    /// zero-length ranges (the EVM charges nothing for those).
    #[inline]
    pub fn expand(&mut self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let end = offset
            .checked_add(len)
            .expect("memory range checked by gas accounting");
        let target = end.div_ceil(32) * 32;
        if target > self.data.len() {
            self.data.resize(target, 0);
        }
    }

    /// Reads a 32-byte word at `offset` (memory must be expanded first).
    #[inline]
    pub fn load_word(&self, offset: usize) -> U256 {
        let mut buf = [0u8; 32];
        buf.copy_from_slice(&self.data[offset..offset + 32]);
        U256::from_be_bytes(buf)
    }

    /// Writes a 32-byte word at `offset`.
    #[inline]
    pub fn store_word(&mut self, offset: usize, value: U256) {
        self.data[offset..offset + 32].copy_from_slice(&value.to_be_bytes());
    }

    /// Writes a single byte.
    #[inline]
    pub fn store_byte(&mut self, offset: usize, value: u8) {
        self.data[offset] = value;
    }

    /// Copies a slice out of memory.
    pub fn slice(&self, offset: usize, len: usize) -> &[u8] {
        if len == 0 {
            return &[];
        }
        &self.data[offset..offset + len]
    }

    /// Copies `src` into memory at `offset`, zero-filling up to `len` when
    /// `src` is shorter (the semantics of CALLDATACOPY/CODECOPY).
    pub fn copy_padded(&mut self, offset: usize, len: usize, src: &[u8]) {
        if len == 0 {
            return;
        }
        let take = src.len().min(len);
        self.data[offset..offset + take].copy_from_slice(&src[..take]);
        self.data[offset + take..offset + len].fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_word_aligned() {
        let mut m = Memory::new();
        m.expand(0, 1);
        assert_eq!(m.len(), 32);
        m.expand(31, 2);
        assert_eq!(m.len(), 64);
        m.expand(100, 0);
        assert_eq!(m.len(), 64, "zero-length ranges never expand");
    }

    #[test]
    fn word_roundtrip() {
        let mut m = Memory::new();
        m.expand(64, 32);
        let v = U256::from_u64(0xdeadbeef);
        m.store_word(64, v);
        assert_eq!(m.load_word(64), v);
        assert_eq!(m.words(), 3);
    }

    #[test]
    fn padded_copy_zero_fills() {
        let mut m = Memory::new();
        m.expand(0, 10);
        m.copy_padded(0, 10, &[1, 2, 3]);
        assert_eq!(m.slice(0, 10), &[1, 2, 3, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn store_byte() {
        let mut m = Memory::new();
        m.expand(0, 32);
        m.store_byte(5, 0xab);
        assert_eq!(m.slice(5, 1), &[0xab]);
    }
}
