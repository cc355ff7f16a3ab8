//! The oracle the chain's determinism suites share: block import is the
//! reference executor. A fresh follower has pooled and indexed nothing,
//! so it recovers every sender from the raw transactions, re-checks and
//! executes them serially, and accepts a block only if gas,
//! `state_root` and `receipts_root` match the header whose hash
//! commits them — so a follower that extends with a sealed
//! block has proven the seal path (cached senders, batch admission,
//! the fee-ordered pack) changed nothing observable.

use sc_chain::{ImportOutcome, Testnet};

/// Imports every block `miner` sealed above `follower`'s head into
/// `follower` — a fresh chain with the miner's genesis — asserting each
/// one extends it and the heads end up equal.
pub fn assert_follower_replays(miner: &Testnet, mut follower: Testnet) {
    for number in follower.head().number + 1..=miner.head().number {
        let block = miner.block(number).expect("canonical").clone();
        assert_eq!(
            follower.import_block(block),
            Ok(ImportOutcome::Extended),
            "follower refused block {number}"
        );
    }
    assert_eq!(follower.head().hash, miner.head().hash);
}
