//! The confidential-deposit contract: committed balances, co-signed
//! settle-later vouchers, and a nullifier registry.
//!
//! The public contracts of the paper put every amount in calldata. This
//! variant keeps the *split* private: the pot (channel capacity) is
//! funded publicly, but each party's claim on it lives only inside a
//! Pedersen commitment. The lifecycle is
//!
//! 1. both parties `fund()` their public stake (in scaled units);
//! 2. both register an input commitment with a range proof
//!    (`depositCommitted`) — no amount appears in calldata;
//! 3. `activate(sx, sy)` checks the two commitments sum to
//!    `potUnits·G` (blindings cancel: `r_a + r_b ≡ 0 mod n`), pinning
//!    conservation for every later settlement;
//! 4. off-chain, the parties agree on output commitments and co-sign a
//!    [`SettlementVoucher`](sc_confidential::SettlementVoucher); either
//!    party — including one that crashed and came back — submits it via
//!    `settle(...)`. The contract recomputes the voucher digest with its
//!    `hash2` builtin, verifies both signatures, checks conservation
//!    against the activated sum, and burns the voucher's nullifier so
//!    the first submission wins and every replay reverts;
//! 5. each party `withdraw(v, r)`s by opening their own output
//!    commitment (revealing only their own final balance), or
//!    `reclaim()`s their stake after the deadline if no voucher ever
//!    landed. Settle and reclaim are mutually exclusive — `settle`
//!    reverts once any stake was reclaimed, `reclaim` reverts once
//!    settled — so no party can ever be paid on both paths.
//!
//! Outputs carry no range proofs at `settle` time: a voucher is only
//! valid with both signatures, and each party validates the other's
//! opening before signing — the on-chain sum check then rules out any
//! split that doesn't conserve the pot.

use sc_confidential::SignedVoucher;
use sc_lang::{compile, CompiledContract};
use sc_primitives::abi::Value;
use sc_primitives::{Address, U256};

/// `keccak256("sc-settle-voucher-v1")` — the domain constant baked into
/// the contract source. Pinned against the Rust side in tests.
pub const VOUCHER_DOMAIN_HASH_HEX: &str =
    "0x6bed7fd1f16e0d873651ce893f1825c929b7e11319971859f43998f0d5b310bb";

/// MiniSol source of the confidential-deposit contract.
pub const CONFIDENTIAL_SRC: &str = r#"
pragma solidity ^0.4.24;

contract confidentialDeposit {
    address[2] participant;
    mapping(address => uint256) stakeUnits;
    uint256 potUnits;
    uint256 unitScale;
    uint256 rangeBits;
    uint256 deadline;

    mapping(address => bool) funded;
    uint256 inAX; uint256 inAY;
    uint256 inBX; uint256 inBY;
    mapping(address => bool) committed;
    bool active;
    uint256 sumX; uint256 sumY;

    bool settled;
    uint256 outAX; uint256 outAY;
    uint256 outBX; uint256 outBY;
    mapping(bytes32 => bool) nullifierUsed;
    mapping(address => bool) withdrawn;
    mapping(address => bool) reclaimed;

    constructor(address a, address b, uint256 unitsA, uint256 unitsB,
                uint256 scale, uint256 bits, uint256 dl) public {
        participant[0] = a;
        participant[1] = b;
        stakeUnits[a] = unitsA;
        stakeUnits[b] = unitsB;
        potUnits = unitsA + unitsB;
        unitScale = scale;
        rangeBits = bits;
        deadline = dl;
    }

    modifier participantOnly {
        require(msg.sender == participant[0] || msg.sender == participant[1]);
        _;
    }

    // Public channel funding: the pot capacity is visible, the split
    // never is.
    function fund() public payable participantOnly {
        require(!funded[msg.sender]);
        require(msg.value == stakeUnits[msg.sender] * unitScale);
        funded[msg.sender] = true;
    }

    // Register a committed claim on the pot. Calldata carries only the
    // commitment and a range proof — never the amount.
    function depositCommitted(uint256 cx, uint256 cy, uint256 bits,
                              bytes memory proof) public participantOnly {
        require(!active);
        require(!committed[msg.sender]);
        require(bits == rangeBits);
        require(range_verify(cx, cy, bits, proof));
        if (msg.sender == participant[0]) {
            inAX = cx; inAY = cy;
        } else {
            inBX = cx; inBY = cy;
        }
        committed[msg.sender] = true;
    }

    // Both stakes in, both commitments in: check the commitments sum to
    // potUnits*G (so the blindings cancel) and freeze that sum as the
    // conservation anchor for settlement.
    function activate(uint256 sx, uint256 sy) public participantOnly {
        require(!active);
        require(funded[participant[0]] && funded[participant[1]]);
        require(committed[participant[0]] && committed[participant[1]]);
        require(commit_add_check(inAX, inAY, inBX, inBY, sx, sy));
        require(commit_verify(sx, sy, potUnits, 0));
        sumX = sx;
        sumY = sy;
        active = true;
    }

    // The digest the parties co-sign off-chain, recomputed word by word:
    // hash2(hash2(hash2(DOMAIN, this), hash2(cax, cay)), hash2(cbx, cby)).
    function voucherDigest(uint256 cax, uint256 cay, uint256 cbx, uint256 cby)
        public returns (bytes32)
    {
        bytes32 d1 = hash2(0x6bed7fd1f16e0d873651ce893f1825c929b7e11319971859f43998f0d5b310bb,
                           bytes32(this));
        bytes32 da = hash2(bytes32(cax), bytes32(cay));
        bytes32 db = hash2(bytes32(cbx), bytes32(cby));
        return hash2(hash2(d1, da), db);
    }

    // Settle-later: either party submits the co-signed voucher whenever
    // they come back online. First nullifier wins; replays revert. The
    // settle and reclaim paths are mutually exclusive: once any stake
    // has been reclaimed the pot no longer covers the voucher, so a
    // voucher can never land after a reclaim (and reclaim() requires
    // !settled for the converse) — otherwise a party could reclaim its
    // stake after the deadline and then still cash the voucher.
    function settle(uint256 cax, uint256 cay, uint256 cbx, uint256 cby,
                    uint8 va, bytes32 ra, bytes32 sa,
                    uint8 vb, bytes32 rb, bytes32 sb) public participantOnly {
        require(active);
        require(!settled);
        require(!reclaimed[participant[0]] && !reclaimed[participant[1]]);
        bytes32 digest = voucherDigest(cax, cay, cbx, cby);
        require(ecrecover(digest, va, ra, sa) == participant[0]);
        require(ecrecover(digest, vb, rb, sb) == participant[1]);
        require(commit_add_check(cax, cay, cbx, cby, sumX, sumY));
        bytes32 nul = nullifier(digest);
        require(!nullifierUsed[nul]);
        nullifierUsed[nul] = true;
        outAX = cax; outAY = cay;
        outBX = cbx; outBY = cby;
        settled = true;
    }

    // Open your own output commitment; only your final balance is
    // revealed, and only to withdraw it.
    function withdraw(uint256 v, uint256 r) public participantOnly {
        require(settled);
        require(!withdrawn[msg.sender]);
        require(!reclaimed[msg.sender]);
        if (msg.sender == participant[0]) {
            require(commit_verify(outAX, outAY, v, r));
        } else {
            require(commit_verify(outBX, outBY, v, r));
        }
        require(v <= potUnits);
        withdrawn[msg.sender] = true;
        msg.sender.transfer(v * unitScale);
    }

    // No voucher ever landed: after the deadline each side takes back
    // exactly what it staked.
    function reclaim() public participantOnly {
        require(!settled);
        require(block.timestamp >= deadline);
        require(funded[msg.sender]);
        require(!reclaimed[msg.sender]);
        reclaimed[msg.sender] = true;
        msg.sender.transfer(stakeUnits[msg.sender] * unitScale);
    }
}
"#;

/// Static parameters of one confidential channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfidentialParams {
    /// Party A's stake in units.
    pub units_a: u64,
    /// Party B's stake in units.
    pub units_b: u64,
    /// Wei per unit.
    pub unit_scale: U256,
    /// Range-proof width every deposit commitment must carry.
    pub range_bits: u32,
    /// Reclaim deadline (absolute timestamp).
    pub deadline: u64,
}

impl ConfidentialParams {
    /// Total pot in units.
    pub fn pot_units(&self) -> u64 {
        self.units_a + self.units_b
    }

    /// A party's stake in wei.
    pub fn stake_wei(&self, units: u64) -> U256 {
        U256::from_u64(units).wrapping_mul(self.unit_scale)
    }
}

/// Compiled confidential-deposit contract with calldata builders.
#[derive(Clone)]
pub struct ConfidentialContracts {
    /// The compiled on-chain artifact.
    pub deposit: CompiledContract,
}

impl ConfidentialContracts {
    /// Compiles the contract.
    pub fn new() -> Self {
        ConfidentialContracts {
            deposit: compile(CONFIDENTIAL_SRC, "confidentialDeposit")
                .expect("confidentialDeposit compiles"),
        }
    }

    /// Deployment initcode for two participants and channel parameters.
    pub fn initcode(&self, alice: Address, bob: Address, p: ConfidentialParams) -> Vec<u8> {
        self.deposit
            .initcode(&[
                Value::Address(alice),
                Value::Address(bob),
                Value::Uint(U256::from_u64(p.units_a)),
                Value::Uint(U256::from_u64(p.units_b)),
                Value::Uint(p.unit_scale),
                Value::Uint(U256::from_u64(p.range_bits as u64)),
                Value::Uint(U256::from_u64(p.deadline)),
            ])
            .expect("ctor args")
    }

    /// `fund()` calldata (send `stake_wei` along).
    pub fn fund(&self) -> Vec<u8> {
        self.deposit.calldata("fund", &[]).expect("abi")
    }

    /// `depositCommitted(cx, cy, bits, proof)` calldata.
    pub fn deposit_committed(
        &self,
        c: &sc_confidential::Commitment,
        bits: u32,
        proof: &[u8],
    ) -> Vec<u8> {
        self.deposit
            .calldata(
                "depositCommitted",
                &[
                    Value::Uint(c.x()),
                    Value::Uint(c.y()),
                    Value::Uint(U256::from_u64(bits as u64)),
                    Value::Bytes(proof.to_vec()),
                ],
            )
            .expect("abi")
    }

    /// `activate(sx, sy)` calldata from the homomorphic sum of the two
    /// deposit commitments.
    pub fn activate(&self, sum: &sc_confidential::Commitment) -> Vec<u8> {
        self.deposit
            .calldata("activate", &[Value::Uint(sum.x()), Value::Uint(sum.y())])
            .expect("abi")
    }

    /// `settle(...)` calldata from a co-signed voucher.
    pub fn settle(&self, v: &SignedVoucher) -> Vec<u8> {
        self.deposit
            .calldata(
                "settle",
                &[
                    Value::Uint(v.voucher.out_a.x()),
                    Value::Uint(v.voucher.out_a.y()),
                    Value::Uint(v.voucher.out_b.x()),
                    Value::Uint(v.voucher.out_b.y()),
                    Value::Uint(U256::from_u64(v.sig_a.v as u64)),
                    Value::Bytes32(v.sig_a.r),
                    Value::Bytes32(v.sig_a.s),
                    Value::Uint(U256::from_u64(v.sig_b.v as u64)),
                    Value::Bytes32(v.sig_b.r),
                    Value::Bytes32(v.sig_b.s),
                ],
            )
            .expect("abi")
    }

    /// `withdraw(v, r)` calldata opening the caller's output commitment.
    pub fn withdraw(&self, value: U256, blinding: U256) -> Vec<u8> {
        self.deposit
            .calldata("withdraw", &[Value::Uint(value), Value::Uint(blinding)])
            .expect("abi")
    }

    /// `reclaim()` calldata.
    pub fn reclaim(&self) -> Vec<u8> {
        self.deposit.calldata("reclaim", &[]).expect("abi")
    }
}

impl Default for ConfidentialContracts {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_chain::{Testnet, Wallet};
    use sc_confidential::{CommitmentBackend, PedersenBackend, SettlementVoucher, VOUCHER_DOMAIN};
    use sc_crypto::keccak256;
    use sc_primitives::ether;

    fn params(net: &Testnet) -> ConfidentialParams {
        ConfidentialParams {
            units_a: 30,
            units_b: 12,
            unit_scale: U256::from_u64(1_000_000_000), // 1 gwei per unit
            range_bits: 16,
            deadline: net.now() + 3600,
        }
    }

    /// Blindings that cancel: r_b = n - r_a, so C_a + C_b = pot·G.
    fn cancelling_blindings(r_a: u64) -> (U256, U256) {
        let ra = U256::from_u64(r_a);
        (ra, sc_crypto::secp256k1::n().wrapping_sub(ra))
    }

    struct Channel {
        net: Testnet,
        alice: Wallet,
        bob: Wallet,
        addr: Address,
        cc: ConfidentialContracts,
        p: ConfidentialParams,
        /// Gas of each `depositCommitted`, Alice's then Bob's.
        deposit_gas: Vec<u64>,
        activate_gas: u64,
    }

    /// Drives the channel through fund + deposit + activate.
    fn activated_channel() -> Channel {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("conf-alice", ether(100));
        let bob = net.funded_wallet("conf-bob", ether(100));
        let p = params(&net);
        let cc = ConfidentialContracts::new();
        let addr = net
            .deploy(
                &alice,
                cc.initcode(alice.address, bob.address, p),
                U256::ZERO,
                5_000_000,
            )
            .unwrap()
            .contract_address
            .unwrap();
        let backend = PedersenBackend;
        let (r_a, r_b) = cancelling_blindings(7777);
        let c_a = backend.commit(U256::from_u64(p.units_a), r_a);
        let c_b = backend.commit(U256::from_u64(p.units_b), r_b);
        let mut deposit_gas = Vec::new();
        for (w, units, c, r) in [(&alice, p.units_a, &c_a, r_a), (&bob, p.units_b, &c_b, r_b)] {
            let r1 = net
                .execute(w, addr, p.stake_wei(units), cc.fund(), 300_000)
                .unwrap();
            assert!(r1.success, "fund: {:?}", r1.failure);
            let proof = backend
                .prove_range(U256::from_u64(units), r, p.range_bits)
                .unwrap();
            let r2 = net
                .execute(
                    w,
                    addr,
                    U256::ZERO,
                    cc.deposit_committed(c, p.range_bits, proof.as_bytes()),
                    5_000_000,
                )
                .unwrap();
            assert!(r2.success, "deposit: {:?}", r2.failure);
            deposit_gas.push(r2.gas_used);
        }
        let sum = backend.add(&c_a, &c_b);
        let r = net
            .execute(&alice, addr, U256::ZERO, cc.activate(&sum), 1_000_000)
            .unwrap();
        assert!(r.success, "activate: {:?}", r.failure);
        Channel {
            net,
            alice,
            bob,
            addr,
            cc,
            p,
            deposit_gas,
            activate_gas: r.gas_used,
        }
    }

    /// A voucher moving `delta` units from Alice to Bob, with output
    /// blindings that still cancel.
    fn voucher_for(ch: &Channel, delta: u64) -> (SignedVoucher, u64, U256, u64, U256) {
        let backend = PedersenBackend;
        let va = ch.p.units_a - delta;
        let vb = ch.p.units_b + delta;
        let (ra, rb) = cancelling_blindings(4242);
        let out_a = backend.commit(U256::from_u64(va), ra);
        let out_b = backend.commit(U256::from_u64(vb), rb);
        let voucher = SettlementVoucher {
            contract: ch.addr,
            out_a,
            out_b,
        };
        let signed = voucher.co_sign(&ch.alice.key, &ch.bob.key);
        (signed, va, ra, vb, rb)
    }

    #[test]
    fn domain_hash_constant_matches_rust() {
        assert_eq!(
            format!("{:?}", keccak256(VOUCHER_DOMAIN)),
            VOUCHER_DOMAIN_HASH_HEX,
            "contract's baked-in domain hash must track VOUCHER_DOMAIN"
        );
        assert!(CONFIDENTIAL_SRC.contains(&VOUCHER_DOMAIN_HASH_HEX[2..]));
    }

    #[test]
    fn contract_digest_matches_rust_voucher_digest() {
        let mut ch = activated_channel();
        let (signed, ..) = voucher_for(&ch, 5);
        let data = ch
            .cc
            .deposit
            .calldata(
                "voucherDigest",
                &[
                    Value::Uint(signed.voucher.out_a.x()),
                    Value::Uint(signed.voucher.out_a.y()),
                    Value::Uint(signed.voucher.out_b.x()),
                    Value::Uint(signed.voucher.out_b.y()),
                ],
            )
            .unwrap();
        let r = ch
            .net
            .execute(&ch.alice, ch.addr, U256::ZERO, data, 1_000_000)
            .unwrap();
        assert!(r.success, "{:?}", r.failure);
        assert_eq!(r.output, signed.voucher.digest().as_bytes());
    }

    #[test]
    fn full_confidential_lifecycle_settles_and_withdraws() {
        let mut ch = activated_channel();
        let (signed, va, ra, vb, rb) = voucher_for(&ch, 9);
        // Bob (say Alice went offline) submits the voucher later.
        let r = ch
            .net
            .execute(
                &ch.bob,
                ch.addr,
                U256::ZERO,
                ch.cc.settle(&signed),
                2_000_000,
            )
            .unwrap();
        assert!(r.success, "settle: {:?}", r.failure);
        // Deterministic like the Table II pins (fixed contract, fixed
        // 16-bit proofs): a move means the compiler, the precompile
        // pricing or the range-proof encoding changed.
        assert_eq!(ch.deposit_gas, [477_454, 478_195], "depositCommitted gas");
        assert_eq!(ch.activate_gas, 97_701, "activate gas");
        assert_eq!(r.gas_used, 173_094, "settle gas");
        // Replay by the other party reverts: nullifier burned.
        let r = ch
            .net
            .execute(
                &ch.alice,
                ch.addr,
                U256::ZERO,
                ch.cc.settle(&signed),
                2_000_000,
            )
            .unwrap();
        assert!(!r.success, "replayed voucher must revert");
        // Each side withdraws by opening its own commitment.
        for (w, v, r_open) in [(&ch.alice, va, ra), (&ch.bob, vb, rb)] {
            let pot_before = ch.net.balance_of(ch.addr);
            let r = ch
                .net
                .execute(
                    w,
                    ch.addr,
                    U256::ZERO,
                    ch.cc.withdraw(U256::from_u64(v), r_open),
                    1_000_000,
                )
                .unwrap();
            assert!(r.success, "withdraw: {:?}", r.failure);
            assert_eq!(
                ch.net.balance_of(ch.addr),
                pot_before.wrapping_sub(ch.p.stake_wei(v)),
                "withdrawal must pay out {v} units"
            );
        }
        assert_eq!(ch.net.balance_of(ch.addr), U256::ZERO, "pot fully drained");
    }

    #[test]
    fn wrong_opening_and_double_withdraw_revert() {
        let mut ch = activated_channel();
        let (signed, va, ra, ..) = voucher_for(&ch, 3);
        assert!(
            ch.net
                .execute(
                    &ch.alice,
                    ch.addr,
                    U256::ZERO,
                    ch.cc.settle(&signed),
                    2_000_000
                )
                .unwrap()
                .success
        );
        // Opening with the wrong value or blinding reverts.
        let bad = ch
            .net
            .execute(
                &ch.alice,
                ch.addr,
                U256::ZERO,
                ch.cc.withdraw(U256::from_u64(va + 1), ra),
                1_000_000,
            )
            .unwrap();
        assert!(!bad.success, "wrong value must revert");
        // Correct opening succeeds once, then the flag blocks it.
        assert!(
            ch.net
                .execute(
                    &ch.alice,
                    ch.addr,
                    U256::ZERO,
                    ch.cc.withdraw(U256::from_u64(va), ra),
                    1_000_000,
                )
                .unwrap()
                .success
        );
        let again = ch
            .net
            .execute(
                &ch.alice,
                ch.addr,
                U256::ZERO,
                ch.cc.withdraw(U256::from_u64(va), ra),
                1_000_000,
            )
            .unwrap();
        assert!(!again.success, "double withdraw must revert");
    }

    #[test]
    fn non_conserving_voucher_rejected() {
        let mut ch = activated_channel();
        let backend = PedersenBackend;
        // Outputs that sum to pot+1: both signatures valid, sum check fails.
        let (ra, rb) = cancelling_blindings(999);
        let voucher = SettlementVoucher {
            contract: ch.addr,
            out_a: backend.commit(U256::from_u64(ch.p.units_a), ra),
            out_b: backend.commit(U256::from_u64(ch.p.units_b + 1), rb),
        };
        let signed = voucher.co_sign(&ch.alice.key, &ch.bob.key);
        let r = ch
            .net
            .execute(
                &ch.bob,
                ch.addr,
                U256::ZERO,
                ch.cc.settle(&signed),
                2_000_000,
            )
            .unwrap();
        assert!(!r.success, "inflating voucher must revert");
    }

    #[test]
    fn half_signed_voucher_rejected() {
        let mut ch = activated_channel();
        let (mut signed, ..) = voucher_for(&ch, 2);
        // Replace Bob's signature with Alice's: recovery won't match B.
        signed.sig_b = signed.sig_a;
        let r = ch
            .net
            .execute(
                &ch.alice,
                ch.addr,
                U256::ZERO,
                ch.cc.settle(&signed),
                2_000_000,
            )
            .unwrap();
        assert!(!r.success, "voucher without both signatures must revert");
    }

    #[test]
    fn activation_requires_cancelling_blindings() {
        let mut net = Testnet::new();
        let alice = net.funded_wallet("conf-alice2", ether(100));
        let bob = net.funded_wallet("conf-bob2", ether(100));
        let p = params(&net);
        let cc = ConfidentialContracts::new();
        let addr = net
            .deploy(
                &alice,
                cc.initcode(alice.address, bob.address, p),
                U256::ZERO,
                5_000_000,
            )
            .unwrap()
            .contract_address
            .unwrap();
        let backend = PedersenBackend;
        // Blindings that do NOT cancel.
        let (r_a, r_b) = (U256::from_u64(1), U256::from_u64(2));
        let c_a = backend.commit(U256::from_u64(p.units_a), r_a);
        let c_b = backend.commit(U256::from_u64(p.units_b), r_b);
        for (w, units, c, r) in [(&alice, p.units_a, &c_a, r_a), (&bob, p.units_b, &c_b, r_b)] {
            assert!(
                net.execute(w, addr, p.stake_wei(units), cc.fund(), 300_000)
                    .unwrap()
                    .success
            );
            let proof = backend
                .prove_range(U256::from_u64(units), r, p.range_bits)
                .unwrap();
            assert!(
                net.execute(
                    w,
                    addr,
                    U256::ZERO,
                    cc.deposit_committed(c, p.range_bits, proof.as_bytes()),
                    5_000_000,
                )
                .unwrap()
                .success
            );
        }
        // The sum still has an H component; commit_verify(S, pot, 0) fails.
        let sum = backend.add(&c_a, &c_b);
        let r = net
            .execute(&alice, addr, U256::ZERO, cc.activate(&sum), 1_000_000)
            .unwrap();
        assert!(!r.success, "non-cancelling blindings must fail activation");
    }

    #[test]
    fn settle_and_withdraw_blocked_after_reclaim() {
        let mut ch = activated_channel();
        let (signed, _, _, vb, rb) = voucher_for(&ch, 9);
        ch.net.advance_time(4000);
        // Alice takes her stake back after the deadline...
        let r = ch
            .net
            .execute(&ch.alice, ch.addr, U256::ZERO, ch.cc.reclaim(), 300_000)
            .unwrap();
        assert!(r.success, "reclaim: {:?}", r.failure);
        // ...so the still-valid co-signed voucher must no longer land —
        // from either party — or Alice would be paid twice and Bob's
        // withdraw would hit an insolvent pot.
        for w in [&ch.alice, &ch.bob] {
            let r = ch
                .net
                .execute(w, ch.addr, U256::ZERO, ch.cc.settle(&signed), 2_000_000)
                .unwrap();
            assert!(!r.success, "settle after a reclaim must revert");
        }
        // And with settlement impossible, the voucher opening pays nobody.
        let r = ch
            .net
            .execute(
                &ch.bob,
                ch.addr,
                U256::ZERO,
                ch.cc.withdraw(U256::from_u64(vb), rb),
                1_000_000,
            )
            .unwrap();
        assert!(!r.success, "withdraw without settlement must revert");
        // Bob's recourse is his own stake; the pot ends exactly empty.
        let r = ch
            .net
            .execute(&ch.bob, ch.addr, U256::ZERO, ch.cc.reclaim(), 300_000)
            .unwrap();
        assert!(r.success, "reclaim: {:?}", r.failure);
        assert_eq!(ch.net.balance_of(ch.addr), U256::ZERO, "pot conserved");
    }

    #[test]
    fn reclaim_after_deadline_without_settlement() {
        let mut ch = activated_channel();
        // Too early.
        let r = ch
            .net
            .execute(&ch.alice, ch.addr, U256::ZERO, ch.cc.reclaim(), 300_000)
            .unwrap();
        assert!(!r.success, "reclaim before deadline must revert");
        ch.net.advance_time(4000);
        for (w, units) in [(&ch.alice, ch.p.units_a), (&ch.bob, ch.p.units_b)] {
            let pot_before = ch.net.balance_of(ch.addr);
            let r = ch
                .net
                .execute(w, ch.addr, U256::ZERO, ch.cc.reclaim(), 300_000)
                .unwrap();
            assert!(r.success, "reclaim: {:?}", r.failure);
            assert_eq!(
                ch.net.balance_of(ch.addr),
                pot_before.wrapping_sub(ch.p.stake_wei(units)),
                "reclaim must return the {units}-unit stake"
            );
        }
        assert_eq!(ch.net.balance_of(ch.addr), U256::ZERO);
    }
}
