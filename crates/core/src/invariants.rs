//! Post-run invariants of the protocol: what must hold after every game
//! no matter which faults were injected or which strategies were played.
//!
//! Four claims are checked by the chaos suite after each run:
//!
//! 1. **Ether conservation** — the EVM and gas settlement only ever
//!    *move* wei, so the sum over all accounts equals the chain's total
//!    minted supply.
//! 2. **Honest floor** — an honest participant never ends worse than
//!    `initial − deposit − gas`: the worst admissible outcome is losing
//!    the staked deposit plus the gas they chose to spend, never more.
//! 3. **Termination** — the driver returned a valid `Outcome` at all
//!    (enforced by the type system; the suite additionally checks the
//!    report is self-consistent).
//! 4. **State commitments** — every sealed header's `receipts_root` and
//!    `gas_used` match a recomputation from the stored receipts, and the
//!    head's `state_root` matches a state trie rebuilt from scratch
//!    through the host boundary ([`check_state_commitments`]).

use crate::protocol::TxRecord;
use sc_chain::{block, encode_account, Testnet};
use sc_evm::host::Host;
use sc_primitives::{Address, U256};
use sc_trie::SecureTrie;
use std::fmt;

/// A violated invariant, with enough context to debug the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation(pub String);

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant violated: {}", self.0)
    }
}

impl std::error::Error for InvariantViolation {}

/// Ether conservation: Σ balances == total minted. Holds after every
/// block because execution and gas settlement are pure transfers.
pub fn check_conservation(net: &Testnet) -> Result<(), InvariantViolation> {
    let total = net.state.total_balance();
    let minted = net.total_minted();
    if total == minted {
        Ok(())
    } else {
        Err(InvariantViolation(format!(
            "ether not conserved: accounts hold {total}, minted {minted}"
        )))
    }
}

/// State commitments: every header's Merkle roots are honest.
///
/// Per block, the `receipts_root` and `gas_used` sealed into the header
/// must match a recomputation over the receipts the chain stored. At
/// the head, the `state_root` must match an *independent* rebuild of
/// the full account and storage tries — walked through the public host
/// boundary (`addresses` / account fields / `storage_entries`), never
/// trusting the chain's own incremental tries or cached storage roots.
///
/// Historical states are not retained by the simulator, so only the
/// head's state root is recomputable; it is meaningful at block
/// boundaries (faucet mints after the last seal would legitimately move
/// the live state ahead of the sealed commitment — callers check after
/// runs, when every effect has been mined).
pub fn check_state_commitments(net: &Testnet) -> Result<(), InvariantViolation> {
    let head = net.head().number;
    for number in 0..=head {
        let header = net.block(number).expect("block in range");
        let receipts = net.receipts_in_block(number);
        let recomputed = block::receipts_root(receipts.iter().copied());
        if recomputed != header.receipts_root {
            return Err(InvariantViolation(format!(
                "block {number}: header receipts_root {} != recomputed {recomputed}",
                header.receipts_root
            )));
        }
        let gas: u64 = receipts.iter().map(|r| r.gas_used).sum();
        if gas != header.gas_used {
            return Err(InvariantViolation(format!(
                "block {number}: header gas_used {} != receipt sum {gas}",
                header.gas_used
            )));
        }
    }

    let mut account_trie = SecureTrie::new();
    for a in net.state.addresses() {
        let Some(acct) = net.state.account(a) else {
            continue;
        };
        if !acct.exists() {
            continue;
        }
        let mut storage_trie = SecureTrie::new();
        for (slot, value) in net.state.storage_entries(a) {
            storage_trie.insert(
                &slot.to_be_bytes(),
                sc_chain::state::encode_storage_value(value),
            );
        }
        account_trie.insert(
            a.as_bytes(),
            encode_account(
                acct.nonce,
                acct.balance,
                storage_trie.root(),
                acct.code_hash,
            ),
        );
    }
    let rebuilt = account_trie.root();
    let sealed = net.head().state_root;
    if rebuilt != sealed {
        return Err(InvariantViolation(format!(
            "head block {head}: header state_root {sealed} != scratch rebuild {rebuilt}"
        )));
    }
    Ok(())
}

/// The honest floor: `final >= initial − deposit − gas_spent`.
///
/// `deposit` is the maximum stake the participant ever had at risk
/// (1 ether for the betting game, 1.1 ether for the challenge variant);
/// `gas_spent` is the wei they paid miners across their transactions.
pub fn check_honest_floor(
    who: &str,
    initial: U256,
    final_balance: U256,
    deposit: U256,
    gas_spent: U256,
) -> Result<(), InvariantViolation> {
    let floor = initial.wrapping_sub(deposit).wrapping_sub(gas_spent);
    if final_balance >= floor {
        Ok(())
    } else {
        Err(InvariantViolation(format!(
            "honest participant {who} below the floor: final {final_balance} < \
             initial {initial} − deposit {deposit} − gas {gas_spent}"
        )))
    }
}

/// Wei `who` paid to miners across a session's transactions at a
/// uniform gas price (failed transactions are paid for too).
pub fn gas_spent_by(txs: &[TxRecord], who: Address, gas_price: U256) -> U256 {
    let total: u64 = txs
        .iter()
        .filter(|t| t.sender == who)
        .map(|t| t.gas_used)
        .sum();
    U256::from_u64(total).wrapping_mul(gas_price)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_primitives::ether;

    #[test]
    fn conservation_holds_on_a_fresh_chain_and_after_transfers() {
        let mut net = Testnet::new();
        check_conservation(&net).unwrap();
        let a = net.funded_wallet("a", ether(5));
        check_conservation(&net).unwrap();
        let r = net
            .execute(&a, Address([9; 20]), ether(1), Vec::new(), 21_000)
            .unwrap();
        assert!(r.success);
        check_conservation(&net).unwrap();
    }

    #[test]
    fn state_commitments_hold_across_transfers_and_storage_writes() {
        let mut net = Testnet::new();
        check_state_commitments(&net).unwrap();
        let a = net.funded_wallet("a", ether(5));
        // `PUSH1 42 PUSH1 1 SSTORE STOP` as initcode: the deployed
        // contract is empty but slot 1 of its account holds 42, so the
        // rebuild exercises a non-empty storage trie.
        let initcode = vec![0x60, 0x2a, 0x60, 0x01, 0x55, 0x00];
        let r = net.deploy(&a, initcode, U256::ZERO, 200_000).unwrap();
        assert!(r.success);
        net.execute(&a, Address([9; 20]), ether(1), Vec::new(), 21_000)
            .unwrap();
        check_state_commitments(&net).unwrap();
    }

    #[test]
    fn floor_accepts_the_worst_legal_outcome_and_rejects_worse() {
        let initial = ether(1000);
        let deposit = ether(1);
        let gas = U256::from_u64(100_000);
        // Exactly at the floor: lost the deposit plus gas.
        let floor = initial.wrapping_sub(deposit).wrapping_sub(gas);
        check_honest_floor("p", initial, floor, deposit, gas).unwrap();
        // One wei below is a violation.
        let below = floor.wrapping_sub(U256::ONE);
        assert!(check_honest_floor("p", initial, below, deposit, gas).is_err());
        // Winning is obviously fine.
        check_honest_floor("p", initial, initial.wrapping_add(deposit), deposit, gas).unwrap();
    }

    #[test]
    fn gas_attribution_filters_by_sender() {
        let alice = Address([1; 20]);
        let bob = Address([2; 20]);
        let txs = [(alice, 100u64, true), (bob, 50, true), (alice, 25, false)].map(
            |(sender, gas_used, success)| TxRecord {
                stage: crate::protocol::Stage::DeploySign,
                label: "tx".into(),
                sender,
                gas_used,
                success,
            },
        );
        let spent = gas_spent_by(&txs, alice, U256::from_u64(2));
        assert_eq!(spent, U256::from_u64(250));
    }
}
