//! Recursive Length Prefix (RLP) encoding and decoding.
//!
//! RLP is Ethereum's canonical serialization. The chain simulator uses it
//! for transaction signing payloads and — critically for the paper's
//! mechanism — for the contract-address derivation
//! `CA = keccak(rlp([sender, nonce]))[12..]`.
//!
//! One reader and one writer: decoders read a borrowed [`Rlp`] view,
//! validated once by [`Rlp::new`]; encoders append straight into one
//! output buffer with [`put_bytes`], [`put_list_header`] and [`put_list`].

use crate::u256::U256;
use std::fmt;

/// Error returned by [`Rlp::new`].
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

/// The deepest list nesting [`Rlp::new`] accepts. Validation recurses
/// once per nested list, so without a bound a frame of nested list
/// prefixes overflows the stack. The deepest structure the workspace
/// encodes is a trie node: one list whose inline children each encode
/// to under 32 bytes, so at most 31 further one-byte list prefixes.
/// (The deepest fixed schema is a receipt: receipt, logs, log, topics.)
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

/// A borrowed view of one canonical RLP item: a byte string or a list.
/// [`Rlp::new`] validates the whole item once, without allocating, so
/// reading the view and its sub-views afterwards cannot fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rlp<'a> {
    list: bool,
    payload: &'a [u8],
}

impl<'a> Rlp<'a> {
    /// Validates `input` as exactly one canonical item, nesting at most
    /// [`MAX_DEPTH`] lists, with nothing after it.
    pub fn new(input: &'a [u8]) -> Result<Rlp<'a>, DecodeError> {
        let (item, rest) = split(input)?;
        item.check(0)?;
        if !rest.is_empty() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(item)
    }

    /// Validates the items of a list inside `depth` enclosing lists,
    /// depth first, in order.
    fn check(self, depth: usize) -> Result<(), DecodeError> {
        if !self.list {
            return Ok(());
        }
        if depth == MAX_DEPTH {
            return Err(DecodeError::TooDeep);
        }
        let mut payload = self.payload;
        while !payload.is_empty() {
            let (item, rest) = split(payload)?;
            item.check(depth + 1)?;
            payload = rest;
        }
        Ok(())
    }

    /// True for a list, false for a byte string.
    pub fn is_list(&self) -> bool {
        self.list
    }

    /// The items of a list, in order, as sub-views; a byte string has
    /// none.
    pub fn iter(&self) -> impl Iterator<Item = Rlp<'a>> {
        let mut rest = if self.list { self.payload } else { &[] };
        std::iter::from_fn(move || {
            let (item, next) = split(rest).ok()?;
            rest = next;
            Some(item)
        })
    }

    /// A byte string's bytes (a list's payload: its items' encodings).
    pub fn as_bytes(&self) -> &'a [u8] {
        self.payload
    }

    /// A byte string read as a canonical unsigned integer: at most 32
    /// bytes and no leading zero. `None` for a list.
    pub fn as_uint(&self) -> Option<U256> {
        match self.payload {
            _ if self.list => None,
            [0, ..] => None, // leading zero: non-canonical integer
            b if b.len() <= 32 => Some(U256::from_be_slice(b)),
            _ => None,
        }
    }
}

/// Splits the first item off `input` by its header — the one parser
/// validation and iteration share. A list's items are not looked at.
fn split(input: &[u8]) -> Result<(Rlp<'_>, &[u8]), DecodeError> {
    let (&prefix, rest) = input.split_first().ok_or(DecodeError::UnexpectedEof)?;
    let (len, rest) = match prefix {
        0x00..=0x7f => (1, input), // a low byte is its own payload
        0x80..=0xb7 => ((prefix - 0x80) as usize, rest),
        0xb8..=0xbf => read_length(rest, (prefix - 0xb7) as usize)?,
        0xc0..=0xf7 => ((prefix - 0xc0) as usize, rest),
        0xf8..=0xff => read_length(rest, (prefix - 0xf7) as usize)?,
    };
    let (payload, rest) = split_checked(rest, len)?;
    if prefix == 0x81 && payload[0] < 0x80 {
        return Err(DecodeError::NonCanonical); // a low byte encodes as itself
    }
    let list = prefix >= 0xc0;
    Ok((Rlp { list, payload }, rest))
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

/// Appends a list whose items `items` appends: for lists whose payload
/// length is not known up front, the header goes in front once it is.
pub fn put_list(out: &mut Vec<u8>, items: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    items(out);
    let payload = out.len() - start;
    put_list_header(payload, out);
    out[start..].rotate_right(header_len(payload));
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
#[path = "../tests/reference/rlp.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{self, Item};
    use super::*;
    use crate::hash::Address;

    fn uint(v: u64, out: &mut Vec<u8>) {
        put_bytes(trim_uint(&U256::from_u64(v).to_be_bytes()), out);
    }

    fn written(write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        write(&mut out);
        out
    }

    #[test]
    fn canonical_vectors() {
        // Classic test vectors from the Ethereum wiki.
        assert_eq!(
            written(|out| put_bytes(b"dog", out)),
            vec![0x83, b'd', b'o', b'g']
        );
        assert_eq!(
            written(|out| put_list(out, |out| {
                put_bytes(b"cat", out);
                put_bytes(b"dog", out);
            })),
            vec![0xc8, 0x83, b'c', b'a', b't', 0x83, b'd', b'o', b'g']
        );
        assert_eq!(written(|out| put_bytes(&[], out)), vec![0x80]);
        assert_eq!(written(|out| put_list(out, |_| {})), vec![0xc0]);
        assert_eq!(written(|out| uint(0, out)), vec![0x80]);
        assert_eq!(written(|out| uint(15, out)), vec![0x0f]);
        assert_eq!(written(|out| uint(1024, out)), vec![0x82, 0x04, 0x00]);
        // "Lorem ipsum..." long-string prefix: 0xb8 + len
        let lorem = b"Lorem ipsum dolor sit amet, consectetur adipisicing elit";
        let enc = written(|out| put_bytes(lorem, out));
        assert_eq!(enc[0], 0xb8);
        assert_eq!(enc[1], lorem.len() as u8);
        assert_eq!(Rlp::new(&enc).unwrap().as_bytes(), lorem);
    }

    #[test]
    fn nested_list_vector() {
        // [ [], [[]], [ [], [[]] ] ]
        let enc = written(|out| {
            put_list(out, |out| {
                put_list(out, |_| {});
                put_list(out, |out| put_list(out, |_| {}));
                put_list(out, |out| {
                    put_list(out, |_| {});
                    put_list(out, |out| put_list(out, |_| {}));
                });
            })
        });
        assert_eq!(enc, vec![0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0]);
        let view = Rlp::new(&enc).unwrap();
        let shape: Vec<usize> = view.iter().map(|l| l.iter().count()).collect();
        assert_eq!(shape, [0, 1, 2]);
        assert!(view.iter().all(|l| l.is_list()));
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut enc = written(|out| put_bytes(b"dog", out));
        enc.push(0x00);
        assert_eq!(Rlp::new(&enc), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn decode_rejects_non_canonical_single_byte() {
        // 0x81 0x05 encodes 0x05 long-form; canonical is plain 0x05.
        assert_eq!(Rlp::new(&[0x81, 0x05]), Err(DecodeError::NonCanonical));
    }

    #[test]
    fn decode_rejects_truncated_payload() {
        assert_eq!(
            Rlp::new(&[0x83, b'd', b'o']),
            Err(DecodeError::UnexpectedEof)
        );
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nest =
            |depth: usize| (0..depth).fold(Item::List(vec![]), |in_, _| Item::List(vec![in_]));
        // `nest(d)` holds d + 1 lists, one inside the next.
        let deepest = reference::encode(&nest(MAX_DEPTH - 1));
        let mut view = Rlp::new(&deepest).unwrap();
        for _ in 0..MAX_DEPTH - 1 {
            view = view.iter().next().unwrap();
        }
        assert!(view.is_list() && view.iter().next().is_none());
        let too_deep = reference::encode(&nest(MAX_DEPTH));
        assert_eq!(Rlp::new(&too_deep), Err(DecodeError::TooDeep));
    }

    #[test]
    fn long_list_roundtrip() {
        let values: Vec<u64> = (0..100).map(|i| i * 7919).collect();
        let enc = written(|out| {
            put_list(out, |out| values.iter().for_each(|&v| uint(v, out)));
        });
        let items = Item::List(values.iter().map(|&v| Item::u64(v)).collect());
        assert_eq!(enc, reference::encode(&items));
        let decoded: Vec<u64> = Rlp::new(&enc)
            .unwrap()
            .iter()
            .map(|v| v.as_uint().unwrap().to_u64().unwrap())
            .collect();
        assert_eq!(decoded, values);
    }

    #[test]
    fn length_helpers_match_the_encoder() {
        for len in [0usize, 1, 2, 55, 56, 255, 256, 1024, 70_000] {
            let b = vec![0x80u8; len];
            let enc = reference::encode(&Item::bytes(b.clone()));
            assert_eq!(bytes_len(&b), enc.len());
            assert_eq!(written(|out| put_bytes(&b, out)), enc);
            let mut header = Vec::new();
            put_list_header(len, &mut header);
            assert_eq!(header.len(), header_len(len));
            let list = written(|out| put_list(out, |out| out.extend_from_slice(&b)));
            assert_eq!(list, [header, b].concat());
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
        let uint = |enc: &[u8]| Rlp::new(enc).unwrap().as_uint();
        assert_eq!(uint(&[0x82, 0x00, 0x01]), None);
        assert_eq!(uint(&[0x01]), Some(U256::ONE));
        assert_eq!(uint(&[0x80]), Some(U256::ZERO));
        assert_eq!(uint(&[0xc0]), None, "a list is no integer");
    }

    #[test]
    fn address_item_is_20_raw_bytes() {
        let a = Address([0xab; 20]);
        let enc = written(|out| put_bytes(a.as_bytes(), out));
        assert_eq!(enc.len(), 21);
        assert_eq!(enc[0], 0x80 + 20);
        assert_eq!(enc, reference::encode(&Item::address(a)));
    }
}
