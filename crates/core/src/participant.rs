//! Participants and their (possibly Byzantine) strategies.

use sc_chain::Wallet;

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
    /// True iff this strategy deviates from the protocol at any stage.
    pub fn is_byzantine(&self) -> bool {
        !matches!(self, Strategy::Honest)
    }

    /// True iff the strategy refuses to concede after losing.
    pub fn disputes_result(&self) -> bool {
        matches!(self, Strategy::SilentLoser | Strategy::ForgingLoser)
    }
}

/// A protocol participant: a funded wallet plus a behaviour.
#[derive(Clone, Debug)]
pub struct Participant {
    /// Chain identity and signing key.
    pub wallet: Wallet,
    /// Behaviour across the four stages.
    pub strategy: Strategy,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byzantine_classification() {
        assert!(!Strategy::Honest.is_byzantine());
        for s in [
            Strategy::RefusesToSign,
            Strategy::SignsTampered,
            Strategy::SilentLoser,
            Strategy::ForgingLoser,
            Strategy::NoShow,
        ] {
            assert!(s.is_byzantine());
        }
        assert!(Strategy::SilentLoser.disputes_result());
        assert!(Strategy::ForgingLoser.disputes_result());
        assert!(!Strategy::SignsTampered.disputes_result());
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
