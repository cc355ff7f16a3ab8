//! Compiler error paths and tricky codegen corners.

use sc_evm::host::{Env, MockHost};
use sc_evm::{CallParams, Evm};
use sc_lang::{compile, CompileError};
use sc_primitives::abi::Value;
use sc_primitives::{ether, Address, U256};

fn expect_err(src: &str, name: &str, needle: &str) {
    match compile(src, name) {
        Err(e) => {
            let msg = e.to_string();
            assert!(msg.contains(needle), "error `{msg}` missing `{needle}`");
        }
        Ok(_) => panic!("expected failure containing `{needle}`"),
    }
}

#[test]
fn parse_errors_carry_positions() {
    match compile("contract c {\n  function }\n}", "c") {
        Err(CompileError::Parse(e)) => {
            assert_eq!(e.line, 2);
        }
        other => panic!("expected parse error, got {other:?}"),
    }
}

#[test]
fn unterminated_constructs() {
    expect_err("contract c { /* never closed", "c", "unterminated");
    expect_err(
        "contract c { function f() public { require(true, \"oops); } }",
        "c",
        "unterminated",
    );
}

#[test]
fn semantic_rejections() {
    expect_err(
        "contract c { uint256 x; uint256 x; }",
        "c",
        "duplicate state variable",
    );
    expect_err(
        "contract c { function f() public {} function f() public {} }",
        "c",
        "duplicate function",
    );
    expect_err(
        "contract c { function f() public { undefined_thing = 1; } }",
        "c",
        "unknown variable",
    );
    expect_err(
        "contract c { function f() public returns (uint256) { return true; } }",
        "c",
        "type mismatch",
    );
    expect_err(
        "contract c { function f() public { return 5; } }",
        "c",
        "void function",
    );
    expect_err(
        "contract c { function f() public returns (uint256) { return; } }",
        "c",
        "missing return value",
    );
    expect_err(
        "contract c { bytes stored; }",
        "c",
        "`bytes` state variables",
    );
    expect_err(
        "contract c { function f(address a) public { Unknown(a).poke(); } }",
        "c",
        "unknown",
    );
}

#[test]
fn arity_and_argument_checks() {
    expect_err(
        "contract c { function g(uint256 a, uint256 b) private returns (uint256) { return a + b; } \
         function f() public returns (uint256) { return g(1, 2, 3); } }",
        "c",
        "expected 2 args",
    );
    expect_err(
        "interface I { function m(uint256 a, bool b) external; } \
         contract c { function f(address t) public { I(t).m(1); } }",
        "c",
        "expected 2 args",
    );
}

#[test]
fn interface_method_existence() {
    expect_err(
        "interface I { function m() external; } \
         contract c { function f(address t) public { I(t).other(); } }",
        "c",
        "no method",
    );
}

#[test]
fn bool_arith_rejected() {
    expect_err(
        "contract c { function f(bool b) public returns (uint256) { return b + 1; } }",
        "c",
        "arithmetic operand",
    );
    expect_err(
        "contract c { function f(uint256 x) public returns (bool) { return x && true; } }",
        "c",
        "logical operand",
    );
}

// ---- tricky-but-valid codegen corners ----

struct Harness {
    host: MockHost,
    address: Address,
    contract: sc_lang::CompiledContract,
}

fn deploy(src: &str, name: &str) -> Harness {
    let contract = compile(src, name).expect("compiles");
    let mut host = MockHost::new();
    host.fund(Address([1; 20]), ether(100));
    let out = Evm::new(&mut host, Env::default()).create(
        Address([1; 20]),
        U256::ZERO,
        contract.initcode(&[]).unwrap(),
        10_000_000,
    );
    assert!(out.success, "{:?}", out.error);
    Harness {
        host,
        address: out.address.unwrap(),
        contract,
    }
}

impl Harness {
    fn call_word(&mut self, func: &str, args: &[Value]) -> U256 {
        let data = self.contract.calldata(func, args).unwrap();
        let out = Evm::new(&mut self.host, Env::default()).call(CallParams::transact(
            Address([1; 20]),
            self.address,
            U256::ZERO,
            data,
            10_000_000,
        ));
        assert!(out.success, "{func}: {:?}", out.error);
        U256::from_be_slice(&out.output)
    }
}

#[test]
fn shadowing_in_nested_scopes() {
    // An inner block's variable shadows the outer one and disappears
    // after the block.
    let src = r#"
        contract s {
            function f(uint256 x) public returns (uint256) {
                uint256 y = 1;
                if (x > 0) {
                    uint256 y2 = y + 10;
                    y = y2;
                }
                return y;
            }
        }
    "#;
    let mut h = deploy(src, "s");
    assert_eq!(
        h.call_word("f", &[Value::Uint(U256::ONE)]),
        U256::from_u64(11)
    );
    assert_eq!(h.call_word("f", &[Value::Uint(U256::ZERO)]), U256::ONE);
}

#[test]
fn modifier_with_branching_around_placeholder() {
    // A modifier whose `_;` sits inside an if-branch: the function body
    // only runs when the condition holds, else the modifier reverts.
    let src = r#"
        contract m {
            uint256 hits;
            modifier gated {
                if (hits < 2) {
                    _;
                } else {
                    revert();
                }
            }
            function bump() public gated { hits = hits + 1; }
            function count() public returns (uint256) { return hits; }
        }
    "#;
    let mut h = deploy(src, "m");
    h.call_word("count", &[]);
    let data = h.contract.calldata("bump", &[]).unwrap();
    for expect_ok in [true, true, false, false] {
        let out = Evm::new(&mut h.host, Env::default()).call(CallParams::transact(
            Address([1; 20]),
            h.address,
            U256::ZERO,
            data.clone(),
            1_000_000,
        ));
        assert_eq!(out.success, expect_ok);
    }
    assert_eq!(h.call_word("count", &[]), U256::from_u64(2));
}

#[test]
fn return_inside_loop_and_branch() {
    let src = r#"
        contract r {
            function firstFactor(uint256 n) public returns (uint256) {
                uint256 i = 2;
                while (i * i <= n) {
                    if (n % i == 0) { return i; }
                    i = i + 1;
                }
                return n;
            }
        }
    "#;
    let mut h = deploy(src, "r");
    assert_eq!(
        h.call_word("firstFactor", &[Value::Uint(U256::from_u64(91))]),
        U256::from_u64(7)
    );
    assert_eq!(
        h.call_word("firstFactor", &[Value::Uint(U256::from_u64(97))]),
        U256::from_u64(97)
    );
}

#[test]
fn deeply_nested_expressions_fit_the_stack() {
    // 64 nested additions: well past any accidental small-stack bug.
    let mut expr = String::from("a");
    for i in 0..64 {
        expr = format!("({expr} + {i})");
    }
    let src = format!(
        "contract d {{ function f(uint256 a) public returns (uint256) {{ return {expr}; }} }}"
    );
    let mut h = deploy(&src, "d");
    let expected: u64 = 5 + (0..64).sum::<u64>();
    assert_eq!(
        h.call_word("f", &[Value::Uint(U256::from_u64(5))]),
        U256::from_u64(expected)
    );
}

#[test]
fn multiple_inlines_of_same_function_are_independent() {
    let src = r#"
        contract i {
            function inc(uint256 x) private returns (uint256) {
                uint256 local = x + 1;
                return local;
            }
            function f() public returns (uint256) {
                uint256 a = inc(10);
                uint256 b = inc(20);
                uint256 c = inc(inc(30));
                return a + b + c;
            }
        }
    "#;
    let mut h = deploy(src, "i");
    // 11 + 21 + 32 = 64
    assert_eq!(h.call_word("f", &[]), U256::from_u64(64));
}

#[test]
fn division_and_modulo_by_zero_yield_zero() {
    // 0.4-era semantics in our MiniSol: EVM-level div by zero is 0 (no
    // checked panic).
    let src = r#"
        contract z {
            function d(uint256 a, uint256 b) public returns (uint256) { return a / b; }
            function m(uint256 a, uint256 b) public returns (uint256) { return a % b; }
        }
    "#;
    let mut h = deploy(src, "z");
    assert_eq!(
        h.call_word(
            "d",
            &[Value::Uint(U256::from_u64(5)), Value::Uint(U256::ZERO)]
        ),
        U256::ZERO
    );
    assert_eq!(
        h.call_word(
            "m",
            &[Value::Uint(U256::from_u64(5)), Value::Uint(U256::ZERO)]
        ),
        U256::ZERO
    );
}

#[test]
fn for_loop_with_compound_operators() {
    let src = r#"
        contract f {
            function sumEven(uint256 n) public returns (uint256) {
                uint256 acc = 0;
                for (uint256 i = 0; i <= n; i += 2) {
                    acc += i;
                }
                return acc;
            }
        }
    "#;
    let mut h = deploy(src, "f");
    // 0+2+4+6+8+10 = 30
    assert_eq!(
        h.call_word("sumEven", &[Value::Uint(U256::from_u64(10))]),
        U256::from_u64(30)
    );
}

#[test]
fn unary_negation_wraps() {
    let src = "contract n { function f(uint256 x) public returns (uint256) { return -x; } }";
    let mut h = deploy(src, "n");
    assert_eq!(h.call_word("f", &[Value::Uint(U256::ONE)]), U256::MAX);
    assert_eq!(h.call_word("f", &[Value::Uint(U256::ZERO)]), U256::ZERO);
}

/// The shapes that nest one level per step: `n` parentheses, `n`
/// negations, a flat sum of `n + 1` terms, `n` `else if` arms, and a
/// state variable of `n` nested mappings or `n` array dimensions.
fn deep_sources(n: usize) -> [String; 6] {
    let function = |returns: &str, body: String| {
        format!("contract c {{ function f() public returns ({returns}) {{ {body} }} }}")
    };
    let else_ifs: String = (0..n)
        .map(|i| format!(" else if (true) {{ return {i}; }}"))
        .collect();
    [
        function(
            "uint256",
            format!("return {}1{};", "(".repeat(n), ")".repeat(n)),
        ),
        function("bool", format!("return {}true;", "!".repeat(n))),
        function("uint256", format!("return 1{};", " + 1".repeat(n))),
        function(
            "uint256",
            format!("if (true) {{ return 0; }}{else_ifs} return 0;"),
        ),
        format!(
            "contract c {{ {}uint256{} x; }}",
            "mapping(uint256 => ".repeat(n),
            ")".repeat(n)
        ),
        format!("contract c {{ uint256{} x; }}", "[1]".repeat(n)),
    ]
}

/// Each deep shape is refused with a parse error that names the limit,
/// however deep it goes: the compiler never overflows its stack.
#[test]
fn deep_nesting_is_refused_not_overflowed() {
    for n in [10_000, 100_000] {
        for src in deep_sources(n) {
            match compile(&src, "c") {
                Err(CompileError::Parse(e)) => assert!(
                    e.message.contains(&sc_lang::parser::MAX_DEPTH.to_string()),
                    "{e}"
                ),
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
    }
}

/// Both sides of the limit: for each shape, the deepest program the
/// parser accepts compiles on a 2 MiB thread (the test harness's
/// default) in a debug build, and one level deeper is refused.
#[test]
fn the_deepest_accepted_programs_compile() {
    let deepest = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            (0..6)
                .map(|shape| {
                    let src = |n: usize| deep_sources(n)[shape].clone();
                    let n = (1..).find(|&n| sc_lang::parse(&src(n)).is_err()).unwrap() - 1;
                    compile(&src(n), "c").expect("deepest accepted program compiles");
                    assert!(matches!(
                        compile(&src(n + 1), "c"),
                        Err(CompileError::Parse(_))
                    ));
                    n
                })
                .collect::<Vec<_>>()
        })
        .unwrap()
        .join()
        .expect("no stack overflow");
    assert!(
        deepest.iter().all(|&n| n >= sc_lang::parser::MAX_DEPTH / 4),
        "{deepest:?}"
    );
}
