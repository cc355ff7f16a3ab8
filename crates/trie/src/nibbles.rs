//! Nibble paths and the hex-prefix encoding from the Yellow Paper
//! (Appendix C).
//!
//! Trie keys are walked four bits at a time. When a partial path is
//! stored inside a leaf or extension node it is packed back into bytes
//! with a flag nibble that records (a) whether the node is a leaf and
//! (b) whether the path has odd length.

use crate::ProofError;

/// Expands a byte key into its nibble path (high nibble first).
pub fn to_nibbles(key: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() * 2);
    for &b in key {
        out.push(b >> 4);
        out.push(b & 0x0f);
    }
    out
}

/// Runs `f` on the nibble path of `key`. Keys of up to 32 bytes (every
/// secure-trie key) expand into a stack array; longer ones into a
/// [`to_nibbles`] vector.
pub(crate) fn with_nibbles<R>(key: &[u8], f: impl FnOnce(&[u8]) -> R) -> R {
    if key.len() > 32 {
        return f(&to_nibbles(key));
    }
    let mut n = [0u8; 64];
    for (pair, &b) in n.chunks_exact_mut(2).zip(key) {
        pair[0] = b >> 4;
        pair[1] = b & 0x0f;
    }
    f(&n[..2 * key.len()])
}

/// Packs a nibble path into the hex-prefix form stored in leaf
/// (`is_leaf = true`) and extension nodes.
pub fn hp_encode(nibbles: &[u8], is_leaf: bool) -> Vec<u8> {
    let mut flag = if is_leaf { 0x20u8 } else { 0x00 };
    let mut out = Vec::with_capacity(nibbles.len() / 2 + 1);
    let rest = if nibbles.len() % 2 == 1 {
        flag |= 0x10 | nibbles[0];
        &nibbles[1..]
    } else {
        nibbles
    };
    out.push(flag);
    for pair in rest.chunks(2) {
        out.push((pair[0] << 4) | pair[1]);
    }
    out
}

/// Inverse of [`hp_encode`]: recovers the nibble path and the leaf flag.
pub fn hp_decode(bytes: &[u8]) -> Result<(Vec<u8>, bool), ProofError> {
    let (&flag, rest) = bytes.split_first().ok_or(ProofError::BadNode)?;
    if flag & 0xc0 != 0 {
        return Err(ProofError::BadNode); // high bits must be clear
    }
    let is_leaf = flag & 0x20 != 0;
    let mut nibbles = Vec::with_capacity(rest.len() * 2 + 1);
    if flag & 0x10 != 0 {
        nibbles.push(flag & 0x0f);
    } else if flag & 0x0f != 0 {
        return Err(ProofError::BadNode); // even form must zero the pad nibble
    }
    for &b in rest {
        nibbles.push(b >> 4);
        nibbles.push(b & 0x0f);
    }
    Ok((nibbles, is_leaf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yellow_paper_examples() {
        // Appendix C worked examples.
        assert_eq!(hp_encode(&[1, 2, 3, 4, 5], false), vec![0x11, 0x23, 0x45]);
        assert_eq!(
            hp_encode(&[0, 1, 2, 3, 4, 5], false),
            vec![0x00, 0x01, 0x23, 0x45]
        );
        assert_eq!(
            hp_encode(&[0x0f, 1, 0x0c, 0x0b, 8], true),
            vec![0x3f, 0x1c, 0xb8]
        );
        assert_eq!(hp_encode(&[], true), vec![0x20]);
    }

    #[test]
    fn roundtrip() {
        for nibbles in [vec![], vec![7], vec![1, 2], vec![0, 0, 0], vec![15; 9]] {
            for is_leaf in [false, true] {
                let enc = hp_encode(&nibbles, is_leaf);
                assert_eq!(hp_decode(&enc).unwrap(), (nibbles.clone(), is_leaf));
            }
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(hp_decode(&[]).is_err());
        assert!(hp_decode(&[0x40]).is_err()); // high bit set
        assert!(hp_decode(&[0x05]).is_err()); // even form with dirty pad
    }

    #[test]
    fn nibbles_high_first() {
        assert_eq!(to_nibbles(&[0xab, 0x01]), vec![0x0a, 0x0b, 0x00, 0x01]);
    }
}
