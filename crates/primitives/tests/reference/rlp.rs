//! The reference RLP codec: an `Item` tree, its encoder and its
//! tree-building decoder, kept out of the product so the direct writers
//! and the borrowed [`sc_primitives::rlp::Rlp`] view are held to an
//! independent model byte for byte and error for error. Included with
//! `#[path]` by the tests that need it.

#![allow(dead_code)]

use sc_primitives::rlp::{
    bytes_len, header_len, put_bytes, put_list_header, DecodeError, MAX_DEPTH,
};
use sc_primitives::{Address, U256};

/// An RLP item: either a byte string or a list of items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A byte string (possibly empty).
    Bytes(Vec<u8>),
    /// A (possibly empty) list of nested items.
    List(Vec<Item>),
}

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
