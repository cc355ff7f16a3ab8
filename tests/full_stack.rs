//! Cross-crate invariants: properties that tie two or more layers of the
//! stack together (native crypto vs in-EVM crypto, compiler determinism
//! across processes of the protocol, gas-schedule pins, splitter vs the
//! shipped contract pair).

use onoffchain::chain::Testnet;
use onoffchain::contracts::{BetSecrets, OffChainContract, OnChainContract, Timeline};
use onoffchain::core::{bytecode_hash, sign_bytecode, split, SignedCopy};
use onoffchain::crypto::ecdsa::PrivateKey;
use onoffchain::lang::{compile, parse};
use onoffchain::primitives::abi::Value;
use onoffchain::primitives::{ether, U256};

#[test]
fn in_evm_keccak_agrees_with_native_on_the_real_bytecode() {
    // The integrity check hinges on keccak256(bytecode) being identical
    // off-chain (Rust) and on-chain (EVM opcode). Check with the actual
    // off-chain contract initcode.
    let off = OffChainContract::new();
    let alice = PrivateKey::from_seed("alice");
    let bob = PrivateKey::from_seed("bob");
    let bytecode = off.initcode(
        alice.address(),
        bob.address(),
        BetSecrets {
            secret_a: U256::ONE,
            secret_b: U256::from_u64(2),
            weight: 3,
        },
    );
    let native = bytecode_hash(&bytecode);

    // On-chain: a throwaway contract hashing its bytes argument.
    let hasher = compile(
        "contract h { function f(bytes memory d) public returns (bytes32) { return keccak256(d); } }",
        "h",
    )
    .unwrap();
    let mut net = Testnet::new();
    let w = net.funded_wallet("w", ether(10));
    let addr = net
        .deploy(&w, hasher.initcode(&[]).unwrap(), U256::ZERO, 2_000_000)
        .unwrap()
        .contract_address
        .unwrap();
    let out = net.call(
        w.address,
        addr,
        hasher.calldata("f", &[Value::Bytes(bytecode)]).unwrap(),
    );
    assert!(!out.reverted);
    assert_eq!(out.output, native.as_bytes());
}

#[test]
fn in_evm_ecrecover_agrees_with_native_signature() {
    let key = PrivateKey::from_seed("signer");
    let payload = vec![0x42u8; 777];
    let sig = sign_bytecode(&key, &payload);
    // Native recovery.
    let native = onoffchain::crypto::recover_address(bytecode_hash(&payload), &sig).unwrap();
    assert_eq!(native, key.address());

    // In-EVM recovery through a compiled contract.
    let src = r#"
        contract r {
            function f(bytes memory d, uint8 v, bytes32 rr, bytes32 ss) public returns (address) {
                return ecrecover(keccak256(d), v, rr, ss);
            }
        }
    "#;
    let c = compile(src, "r").unwrap();
    let mut net = Testnet::new();
    let w = net.funded_wallet("w", ether(10));
    let addr = net
        .deploy(&w, c.initcode(&[]).unwrap(), U256::ZERO, 2_000_000)
        .unwrap()
        .contract_address
        .unwrap();
    let out = net.call(
        w.address,
        addr,
        c.calldata(
            "f",
            &[
                Value::Bytes(payload),
                Value::Uint(U256::from_u64(sig.v as u64)),
                Value::Bytes32(sig.r),
                Value::Bytes32(sig.s),
            ],
        )
        .unwrap(),
    );
    assert!(!out.reverted);
    assert_eq!(&out.output[12..], key.address().as_bytes());
}

#[test]
fn both_participants_compile_identical_bytecode() {
    // The paper: "all the participants should use the same version of
    // compiler for the purpose of getting same bytecode." Two fully
    // independent compilations (as Alice and Bob would run) must agree.
    let secrets = BetSecrets {
        secret_a: U256::from_u64(10),
        secret_b: U256::from_u64(20),
        weight: 99,
    };
    let alice_addr = PrivateKey::from_seed("alice").address();
    let bob_addr = PrivateKey::from_seed("bob").address();
    let alice_compiles = OffChainContract::new().initcode(alice_addr, bob_addr, secrets);
    let bob_compiles = OffChainContract::new().initcode(alice_addr, bob_addr, secrets);
    assert_eq!(alice_compiles, bob_compiles);
    // And both produce signatures the other accepts.
    let copy = SignedCopy::create(
        alice_compiles,
        &[
            &PrivateKey::from_seed("alice"),
            &PrivateKey::from_seed("bob"),
        ],
    );
    copy.verify(&[alice_addr, bob_addr]).unwrap();
}

#[test]
fn gas_schedule_pins() {
    // Absolute gas pins that EXPERIMENTS.md quotes; failing this test
    // means the documented numbers are stale.
    let mut net = Testnet::new();
    let w = net.funded_wallet("w", ether(10));
    let r = net
        .execute(
            &w,
            PrivateKey::from_seed("x").address(),
            ether(1),
            vec![],
            50_000,
        )
        .unwrap();
    assert_eq!(r.gas_used, 21_000, "plain transfer is exactly Gtransaction");
}

#[test]
fn splitter_plan_matches_shipped_pair() {
    // The split of the monolithic contract must be consistent with the
    // hand-written pair the crate ships (the paper's Algorithms 2–3).
    let program = parse(onoffchain::contracts::MONOLITHIC_SRC).unwrap();
    let plan = split(&program.contracts[0]);

    let onchain = OnChainContract::new();
    let offchain = OffChainContract::new();
    // Every light/public function of the plan is dispatchable in the
    // shipped on-chain contract.
    for name in ["deposit", "refundRoundOne", "refundRoundTwo"] {
        assert!(plan.onchain_functions.iter().any(|f| f.contains(name)));
        assert!(
            onchain.compiled.analyzed.selector_of(name).is_some(),
            "{name} must be dispatchable on-chain"
        );
    }
    // The heavy/private reveal is NOT dispatchable anywhere on-chain; it
    // exists only inside the off-chain contract (inlined, private).
    assert!(onchain.compiled.analyzed.selector_of("reveal").is_none());
    assert!(offchain.compiled.analyzed.selector_of("reveal").is_none());
    // The padding functions exist exactly where the plan says.
    for name in plan.onchain_padding {
        assert!(
            onchain.compiled.analyzed.selector_of(name).is_some()
                || name == "enforceDisputeResolution",
            "on-chain padding {name}"
        );
    }
    for name in plan.offchain_padding {
        assert!(
            offchain.compiled.analyzed.selector_of(name).is_some(),
            "off-chain padding {name}"
        );
    }
}

#[test]
fn whole_game_is_reproducible() {
    // Two runs of the same configuration produce identical gas ledgers —
    // the determinism claim of DESIGN.md.
    use onoffchain::chain::PoolConfig;
    use onoffchain::core::{
        BettingSession, BettingSpec, NetworkScheduler, Session, SessionSpec, Strategy,
    };
    let run = || {
        let spec = BettingSpec {
            alice: Strategy::SilentLoser,
            seats: Some(["alice", "bob"]),
            ..BettingSpec::default()
        };
        let mut sched = NetworkScheduler::new(
            vec![SessionSpec::Betting(spec)],
            1,
            PoolConfig::default(),
            None,
        );
        assert_eq!(sched.run().remove(0).error, None);
        let game: &BettingSession = sched.session(0).expect("a betting game");
        game.txs()
            .iter()
            .map(|t| (t.label.clone(), t.gas_used, t.success))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn onchain_contract_size_is_reported() {
    // Deployment footprint of both sides of the split (documentation
    // numbers; keep within sane bounds so docs stay truthful).
    let on = OnChainContract::new();
    let off = OffChainContract::new();
    assert!(
        on.compiled.runtime.len() > off.compiled.runtime.len(),
        "the on-chain side (with the padded machinery) is the bigger artifact"
    );
    assert!(on.compiled.runtime.len() < 4096);
    assert!(off.compiled.runtime.len() < 1024);
}

#[test]
fn timeline_arithmetic() {
    let tl = Timeline::starting_at(1_000, 100);
    assert_eq!((tl.t1, tl.t2, tl.t3), (1_100, 1_200, 1_300));
}
