//! Seats: one per participant in a session, each holding its own wallet
//! and strategy. A seat is the only code that signs with its wallet's
//! key, so no step of a session can sign for the other party.

use crate::session::TxTask;
use crate::signedcopy::bytecode_hash;
use sc_chain::Wallet;
use sc_crypto::ecdsa::Signature;
use sc_primitives::{Address, H256, U256};

/// How a participant behaves at each stage of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Follows the agreed off-chain contract faithfully.
    Honest,
    /// Never shares a signature during deploy/sign, stalling the game
    /// before any deposit is at risk.
    RefusesToSign,
    /// Shares a signature over a *tampered* bytecode during deploy/sign;
    /// honest counterparties detect this before depositing.
    SignsTampered,
    /// Plays along but, upon losing, refuses to call `reassign()` —
    /// the dispute the paper's Table I step 5 resolves.
    SilentLoser,
    /// Upon losing, additionally tries to resolve the dispute with a
    /// *forged* bytecode favouring itself before the honest winner acts.
    ForgingLoser,
    /// Never makes the deposit; the game dissolves via refunds.
    NoShow,
}

impl Strategy {
    /// True iff the strategy refuses to concede after losing.
    pub fn disputes_result(&self) -> bool {
        matches!(self, Strategy::SilentLoser | Strategy::ForgingLoser)
    }
}

/// One participant's seat in a session: a funded wallet plus a
/// behaviour. The key stays here: the seat signs its own off-chain
/// messages, and its transactions are signed as they are queued.
#[derive(Clone, Debug)]
pub struct Seat {
    pub(crate) wallet: Wallet,
    /// Behaviour across the protocol's stages.
    pub strategy: Strategy,
}

impl Seat {
    /// Seats `wallet`, playing `strategy`.
    pub(crate) fn new(wallet: Wallet, strategy: Strategy) -> Seat {
        Seat { wallet, strategy }
    }

    /// The seat's chain address.
    pub fn address(&self) -> Address {
        self.wallet.address
    }

    /// A zero-value call to `to` from this seat (see [`TxTask::new`]),
    /// signed with its key when it is queued.
    pub(crate) fn call(
        &self,
        label: &'static str,
        to: Address,
        data: Vec<u8>,
        gas: u64,
        deadline: Option<u64>,
    ) -> TxTask {
        TxTask::new(
            label,
            self.wallet.clone(),
            Some(to),
            U256::ZERO,
            data,
            gas,
            deadline,
        )
    }

    /// Signs `digest` with this seat's own key.
    pub(crate) fn sign(&self, digest: H256) -> Signature {
        self.wallet.key.sign(digest)
    }

    /// What this seat posts in a deploy/sign exchange over `bytecode`
    /// (whose hash is `digest`), per its strategy: nothing from a
    /// refuser, a signature over a tampered copy from a tamperer, the
    /// honest signature from everyone else.
    pub(crate) fn copy_signature(&self, bytecode: &[u8], digest: H256) -> Option<Signature> {
        match self.strategy {
            Strategy::RefusesToSign => None,
            Strategy::SignsTampered => {
                let mut tampered = bytecode.to_vec();
                // Flip the last byte of the baked-in secret.
                let last = tampered.len() - 1;
                tampered[last] ^= 0xff;
                Some(self.sign(bytecode_hash(&tampered)))
            }
            _ => Some(self.sign(digest)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispute_classification() {
        assert!(Strategy::SilentLoser.disputes_result());
        assert!(Strategy::ForgingLoser.disputes_result());
        assert!(!Strategy::SignsTampered.disputes_result());
        assert!(!Strategy::Honest.disputes_result());
    }

    #[test]
    fn deterministic_identities() {
        // A seat's wallet seed is its whole identity: the same seed is
        // the same wallet in every run.
        let p1 = Wallet::from_seed("alice");
        let p2 = Wallet::from_seed("alice");
        assert_eq!(p1.address, p2.address);
    }
}
