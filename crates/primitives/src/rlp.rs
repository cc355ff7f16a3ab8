//! Recursive Length Prefix (RLP) encoding and decoding.
//!
//! RLP is Ethereum's canonical serialization. The chain simulator uses it
//! for transaction signing payloads and — critically for the paper's
//! mechanism — for the contract-address derivation
//! `CA = keccak(rlp([sender, nonce]))[12..]`.

use crate::hash::Address;
use crate::u256::U256;
use std::fmt;

/// An RLP item: either a byte string or a list of items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A byte string (possibly empty).
    Bytes(Vec<u8>),
    /// A (possibly empty) list of nested items.
    List(Vec<Item>),
}

/// Error returned by [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the announced payload.
    UnexpectedEof,
    /// A multi-byte length had leading zeros or a single byte was encoded
    /// long-form — both are non-canonical under RLP.
    NonCanonical,
    /// Trailing bytes after the top-level item.
    TrailingBytes,
    /// Lists nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// The deepest list nesting [`decode`] accepts. Decoding recurses once
/// per nested list, so without a bound a frame of nested list prefixes
/// overflows the stack. The deepest structure the workspace encodes is
/// a trie node: one list whose inline children each encode to under 32
/// bytes, so at most 31 further one-byte list prefixes. (The deepest
/// fixed schema is a receipt: receipt, logs, log, topics.)
pub const MAX_DEPTH: usize = 32;

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "input too short"),
            DecodeError::NonCanonical => write!(f, "non-canonical RLP encoding"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after item"),
            DecodeError::TooDeep => write!(f, "lists nest deeper than {MAX_DEPTH}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl Item {
    /// Convenience constructor for a byte-string item.
    pub fn bytes(b: impl Into<Vec<u8>>) -> Item {
        Item::Bytes(b.into())
    }

    /// Encodes a `U256` in RLP's canonical integer form: big-endian with no
    /// leading zeros, the empty string for zero.
    pub fn uint(v: U256) -> Item {
        Item::Bytes(v.to_be_bytes_trimmed())
    }

    /// Encodes a `u64` like [`Item::uint`].
    pub fn u64(v: u64) -> Item {
        Item::uint(U256::from_u64(v))
    }

    /// Encodes an address as its 20 raw bytes.
    pub fn address(a: Address) -> Item {
        Item::Bytes(a.0.to_vec())
    }

    /// Interprets a byte-string item as a canonical unsigned integer.
    pub fn as_uint(&self) -> Option<U256> {
        match self {
            Item::Bytes(b) if b.len() <= 32 => {
                if b.first() == Some(&0) {
                    return None; // leading zero: non-canonical integer
                }
                Some(U256::from_be_slice(b))
            }
            _ => None,
        }
    }
}

/// Encodes an item to its RLP byte representation.
pub fn encode(item: &Item) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(item));
    encode_into(item, &mut out);
    out
}

/// Encodes a list of items (the most common top-level shape).
pub fn encode_list(items: &[Item]) -> Vec<u8> {
    let payload = payload_len(items);
    let mut out = Vec::with_capacity(header_len(payload) + payload);
    put_list_header(payload, &mut out);
    for it in items {
        encode_into(it, &mut out);
    }
    out
}

/// Length of `item`'s encoding, header included.
fn encoded_len(item: &Item) -> usize {
    match item {
        Item::Bytes(b) => bytes_len(b),
        Item::List(items) => {
            let payload = payload_len(items);
            header_len(payload) + payload
        }
    }
}

fn payload_len(items: &[Item]) -> usize {
    items.iter().map(encoded_len).sum()
}

/// Writes each list once: the header from the payload length worked
/// out up front, then the items straight after it.
fn encode_into(item: &Item, out: &mut Vec<u8>) {
    match item {
        Item::Bytes(b) => put_bytes(b, out),
        Item::List(items) => {
            put_list_header(payload_len(items), out);
            for it in items {
                encode_into(it, out);
            }
        }
    }
}

/// Length of the encoding of the byte string `b`, header included.
pub fn bytes_len(b: &[u8]) -> usize {
    if b.len() == 1 && b[0] < 0x80 {
        1
    } else {
        header_len(b.len()) + b.len()
    }
}

/// Length of the header in front of a string or list payload of `len`
/// bytes.
pub fn header_len(len: usize) -> usize {
    if len < 56 {
        1
    } else {
        1 + 8 - (len as u64).leading_zeros() as usize / 8
    }
}

/// Appends the encoding of the byte string `b`.
pub fn put_bytes(b: &[u8], out: &mut Vec<u8>) {
    if b.len() == 1 && b[0] < 0x80 {
        out.push(b[0]);
    } else {
        encode_length(b.len(), 0x80, out);
        out.extend_from_slice(b);
    }
}

/// Appends the header of a list whose items encode to `payload` bytes;
/// the caller appends the items.
pub fn put_list_header(payload: usize, out: &mut Vec<u8>) {
    encode_length(payload, 0xc0, out);
}

/// A big-endian integer without its leading zeros: RLP's canonical
/// integer form, as a slice of `buf`.
pub fn trim_uint(buf: &[u8; 32]) -> &[u8] {
    let skip = buf.iter().take_while(|&&b| b == 0).count();
    &buf[skip..]
}

fn encode_length(len: usize, offset: u8, out: &mut Vec<u8>) {
    if len < 56 {
        out.push(offset + len as u8);
    } else {
        let be = (len as u64).to_be_bytes();
        let first = be.iter().position(|&b| b != 0).unwrap_or(7);
        let len_bytes = &be[first..];
        out.push(offset + 55 + len_bytes.len() as u8);
        out.extend_from_slice(len_bytes);
    }
}

/// Decodes a complete RLP item; rejects trailing bytes.
pub fn decode(input: &[u8]) -> Result<Item, DecodeError> {
    let (item, rest) = decode_partial(input)?;
    if !rest.is_empty() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(item)
}

/// Decodes one item, returning the remaining bytes.
pub fn decode_partial(input: &[u8]) -> Result<(Item, &[u8]), DecodeError> {
    decode_nested(input, 0)
}

/// [`decode_partial`] inside `depth` enclosing lists.
fn decode_nested(input: &[u8], depth: usize) -> Result<(Item, &[u8]), DecodeError> {
    let (&prefix, rest) = input.split_first().ok_or(DecodeError::UnexpectedEof)?;
    let (mut payload, rest) = match prefix {
        0x00..=0x7f => return Ok((Item::Bytes(vec![prefix]), rest)),
        0x80..=0xb7 => {
            let len = (prefix - 0x80) as usize;
            let (payload, rest) = split_checked(rest, len)?;
            if len == 1 && payload[0] < 0x80 {
                return Err(DecodeError::NonCanonical);
            }
            return Ok((Item::Bytes(payload.to_vec()), rest));
        }
        0xb8..=0xbf => {
            let len_len = (prefix - 0xb7) as usize;
            let (len, rest) = read_length(rest, len_len)?;
            let (payload, rest) = split_checked(rest, len)?;
            return Ok((Item::Bytes(payload.to_vec()), rest));
        }
        0xc0..=0xf7 => split_checked(rest, (prefix - 0xc0) as usize)?,
        0xf8..=0xff => {
            let len_len = (prefix - 0xf7) as usize;
            let (len, rest) = read_length(rest, len_len)?;
            split_checked(rest, len)?
        }
    };
    if depth == MAX_DEPTH {
        return Err(DecodeError::TooDeep);
    }
    let mut items = Vec::new();
    while !payload.is_empty() {
        let (item, next) = decode_nested(payload, depth + 1)?;
        items.push(item);
        payload = next;
    }
    Ok((Item::List(items), rest))
}

fn read_length(input: &[u8], len_len: usize) -> Result<(usize, &[u8]), DecodeError> {
    let (len_bytes, rest) = split_checked(input, len_len)?;
    if len_bytes.first() == Some(&0) {
        return Err(DecodeError::NonCanonical);
    }
    let mut len = 0usize;
    for &b in len_bytes {
        len = len
            .checked_mul(256)
            .and_then(|l| l.checked_add(b as usize))
            .ok_or(DecodeError::NonCanonical)?;
    }
    if len < 56 {
        return Err(DecodeError::NonCanonical); // should have used short form
    }
    Ok((len, rest))
}

fn split_checked(input: &[u8], len: usize) -> Result<(&[u8], &[u8]), DecodeError> {
    if input.len() < len {
        return Err(DecodeError::UnexpectedEof);
    }
    Ok(input.split_at(len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_vectors() {
        // Classic test vectors from the Ethereum wiki.
        assert_eq!(
            encode(&Item::bytes(b"dog".to_vec())),
            vec![0x83, b'd', b'o', b'g']
        );
        assert_eq!(
            encode(&Item::List(vec![
                Item::bytes(b"cat".to_vec()),
                Item::bytes(b"dog".to_vec())
            ])),
            vec![0xc8, 0x83, b'c', b'a', b't', 0x83, b'd', b'o', b'g']
        );
        assert_eq!(encode(&Item::bytes(Vec::new())), vec![0x80]);
        assert_eq!(encode(&Item::List(vec![])), vec![0xc0]);
        assert_eq!(encode(&Item::uint(U256::ZERO)), vec![0x80]);
        assert_eq!(encode(&Item::uint(U256::from_u64(15))), vec![0x0f]);
        assert_eq!(
            encode(&Item::uint(U256::from_u64(1024))),
            vec![0x82, 0x04, 0x00]
        );
        // "Lorem ipsum..." long-string prefix: 0xb8 + len
        let lorem = b"Lorem ipsum dolor sit amet, consectetur adipisicing elit".to_vec();
        let enc = encode(&Item::bytes(lorem.clone()));
        assert_eq!(enc[0], 0xb8);
        assert_eq!(enc[1], lorem.len() as u8);
    }

    #[test]
    fn nested_list_vector() {
        // [ [], [[]], [ [], [[]] ] ]
        let item = Item::List(vec![
            Item::List(vec![]),
            Item::List(vec![Item::List(vec![])]),
            Item::List(vec![
                Item::List(vec![]),
                Item::List(vec![Item::List(vec![])]),
            ]),
        ]);
        assert_eq!(
            encode(&item),
            vec![0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0]
        );
        assert_eq!(decode(&encode(&item)).unwrap(), item);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut enc = encode(&Item::bytes(b"dog".to_vec()));
        enc.push(0x00);
        assert_eq!(decode(&enc), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn decode_rejects_non_canonical_single_byte() {
        // 0x81 0x05 encodes 0x05 long-form; canonical is plain 0x05.
        assert_eq!(decode(&[0x81, 0x05]), Err(DecodeError::NonCanonical));
    }

    #[test]
    fn decode_rejects_truncated_payload() {
        assert_eq!(decode(&[0x83, b'd', b'o']), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nest =
            |depth: usize| (0..depth).fold(Item::List(vec![]), |in_, _| Item::List(vec![in_]));
        // `nest(d)` holds d + 1 lists, one inside the next.
        let deepest = nest(MAX_DEPTH - 1);
        assert_eq!(decode(&encode(&deepest)).unwrap(), deepest);
        assert_eq!(decode(&encode(&nest(MAX_DEPTH))), Err(DecodeError::TooDeep));
    }

    #[test]
    fn long_list_roundtrip() {
        let items: Vec<Item> = (0..100).map(|i| Item::u64(i * 7919)).collect();
        let enc = encode_list(&items);
        assert_eq!(decode(&enc).unwrap(), Item::List(items));
    }

    #[test]
    fn length_helpers_match_the_encoder() {
        for len in [0usize, 1, 2, 55, 56, 255, 256, 1024, 70_000] {
            let b = vec![0x80u8; len];
            let enc = encode(&Item::bytes(b.clone()));
            assert_eq!(bytes_len(&b), enc.len());
            let mut out = Vec::new();
            put_bytes(&b, &mut out);
            assert_eq!(out, enc);
            let mut header = Vec::new();
            put_list_header(len, &mut header);
            assert_eq!(header.len(), header_len(len));
        }
        assert_eq!(bytes_len(&[0x7f]), 1);
        assert_eq!(
            trim_uint(&U256::from_u64(0x1234).to_be_bytes()),
            &[0x12, 0x34]
        );
        assert!(trim_uint(&[0; 32]).is_empty());
    }

    #[test]
    fn uint_decoding_rejects_leading_zero() {
        let item = Item::Bytes(vec![0x00, 0x01]);
        assert_eq!(item.as_uint(), None);
        assert_eq!(Item::Bytes(vec![0x01]).as_uint(), Some(U256::ONE));
        assert_eq!(Item::Bytes(vec![]).as_uint(), Some(U256::ZERO));
    }

    #[test]
    fn address_item_is_20_raw_bytes() {
        let a = Address([0xab; 20]);
        let enc = encode(&Item::address(a));
        assert_eq!(enc.len(), 21);
        assert_eq!(enc[0], 0x80 + 20);
    }
}
