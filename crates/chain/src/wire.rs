//! Wire codec for gossiped chain objects.
//!
//! Blocks, headers and signed transactions travel between nodes as
//! canonical RLP so a peer can re-derive every identity locally: block
//! and header decoders recompute the hash from the decoded fields, and
//! transaction senders are recovered from the signature, never trusted
//! from the wire.

use sc_primitives::rlp::{self, Rlp};
use sc_primitives::{Address, H256, U256};
use std::fmt;

/// Error decoding a gossiped payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The bytes are not canonical RLP.
    Rlp(rlp::DecodeError),
    /// The RLP decoded, but its shape doesn't match the schema; the
    /// string names the offending field.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Rlp(e) => write!(f, "invalid RLP: {e}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<rlp::DecodeError> for WireError {
    fn from(e: rlp::DecodeError) -> WireError {
        WireError::Rlp(e)
    }
}

/// The items of a list, or `Malformed(what)` for a byte string.
pub(crate) fn as_list<'a>(
    item: Rlp<'a>,
    what: &'static str,
) -> Result<impl Iterator<Item = Rlp<'a>>, WireError> {
    if item.is_list() {
        Ok(item.iter())
    } else {
        Err(WireError::Malformed(what))
    }
}

/// `items` if there are exactly `N` (at least one) of them.
pub(crate) fn fields<'a, const N: usize>(
    mut items: impl Iterator<Item = Rlp<'a>>,
) -> Option<[Rlp<'a>; N]> {
    let mut fields = [items.next()?; N];
    for field in &mut fields[1..] {
        *field = items.next()?;
    }
    items.next().is_none().then_some(fields)
}

pub(crate) fn as_uint(item: Rlp<'_>, what: &'static str) -> Result<U256, WireError> {
    item.as_uint().ok_or(WireError::Malformed(what))
}

pub(crate) fn as_u64(item: Rlp<'_>, what: &'static str) -> Result<u64, WireError> {
    as_uint(item, what)?
        .to_u64()
        .ok_or(WireError::Malformed(what))
}

pub(crate) fn as_bytes<'a>(item: Rlp<'a>, what: &'static str) -> Result<&'a [u8], WireError> {
    if item.is_list() {
        Err(WireError::Malformed(what))
    } else {
        Ok(item.as_bytes())
    }
}

pub(crate) fn as_h256(item: Rlp<'_>, what: &'static str) -> Result<H256, WireError> {
    let b = as_bytes(item, what)?;
    b.try_into()
        .map(H256)
        .map_err(|_| WireError::Malformed(what))
}

/// Decodes the `to` field: the empty string means contract creation,
/// 20 raw bytes mean a call target; anything else is malformed.
pub(crate) fn as_opt_address(
    item: Rlp<'_>,
    what: &'static str,
) -> Result<Option<Address>, WireError> {
    match as_bytes(item, what)? {
        [] => Ok(None),
        b => b
            .try_into()
            .map(|a| Some(Address(a)))
            .map_err(|_| WireError::Malformed(what)),
    }
}

/// Appends `v` in RLP's canonical integer form.
pub(crate) fn put_uint(v: impl Into<U256>, out: &mut Vec<u8>) {
    rlp::put_bytes(rlp::trim_uint(&v.into().to_be_bytes()), out);
}
