//! A deterministic Ethereum-style chain node.
//!
//! Stands in for the Kovan testnet of the paper's evaluation: accounts and
//! world state, ECDSA-signed transactions with sender recovery, a fee-market
//! pool, instant sealing with controllable timestamps, receipts, exact
//! Yellow-Paper gas settlement, and import of peers' blocks with reorgs.
//!
//! * [`overlay`] — flat-state [`overlay::StateOverlay`]: the `(address,
//!   slot) → value` maps every read and write hits, with per-block
//!   [`overlay::DiffLayer`]s recording first-touch priors.
//! * [`state`] — journaled [`state::WorldState`] implementing `sc_evm::Host`
//!   over the overlay, reconciling tries at seal time and proving
//!   reads against the current root.
//! * [`tx`] — transactions, signing, [`tx::Wallet`].
//! * [`block`] — headers, blocks (a header plus its transaction bodies)
//!   and [`block::Receipt`]s, sealed with `state_root` /
//!   `receipts_root` Merkle commitments.
//! * [`proof`] — [`proof::StorageProof`]: stateless light verification
//!   of a storage slot against a header's `state_root`.
//! * [`wire`] — RLP wire codec for gossiped blocks, headers and
//!   transactions (identities re-derived locally on decode).
//! * [`light`] — [`light::HeaderClient`]: a light client tracking
//!   verified headers only, serving proof-checked storage reads.
//! * `fork_choice` (crate-private) — the one store and fork choice the
//!   light client and the full node both pick their head through.
//! * [`testnet`] — the [`testnet::Testnet`] node: admission, sealing,
//!   and block import with fork choice; sealing and import run the one
//!   serial execution loop, so every follower re-proves every seal.

#![warn(missing_docs)]

pub mod block;
mod fork_choice;
pub mod light;
pub mod overlay;
pub mod proof;
pub mod state;
pub mod testnet;
pub mod tx;
pub mod wire;

pub use block::{receipts_root, Block, FailureReason, Header, Receipt};
pub use light::{HeaderClient, HeaderImport, HeaderImportError};
pub use overlay::{Account, DiffLayer, StateOverlay};
pub use proof::{AccountProof, ProofVerifyError, ReceiptProof, StorageProof};
pub use state::{encode_account, SnapshotError, WorldState};
pub use testnet::{
    CallResult, ChainConfig, ImportError, ImportOutcome, SealReport, Testnet, TxError,
};
pub use tx::{SignedTransaction, Transaction, Wallet};
pub use wire::WireError;
// The pool types travel with the chain so downstream crates (the
// session engine, benches) need no direct sc-mempool dependency.
pub use sc_mempool::{Admitted, PoolConfig, PoolError, TxMeta};

// The test tree's reference RLP codec, for the unit tests that hold the
// direct encoders to it.
#[cfg(test)]
#[path = "../../primitives/tests/reference/rlp.rs"]
mod rlp_reference;
