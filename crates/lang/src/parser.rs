//! Recursive-descent parser for MiniSol.

use crate::ast::*;
use crate::token::{lex, LexError, Tok, Token};
use sc_primitives::U256;
use std::fmt;

/// Parse errors with positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// The most nesting one statement may hold. Sema and codegen recurse
/// once per AST level, so without a bound a deep expression overflows
/// the stack. The parser counts every sub-expression, binary-chain
/// link, unary and postfix operator, nested statement, mapping and
/// array dimension, and releases the count only when the statement (or
/// the type) ends; the count bounds the depth of every path through the
/// statement's tree. At this bound the deepest program still compiles
/// on a 2 MiB thread in a debug build.
pub const MAX_DEPTH: usize = 144;

/// Parses MiniSol source into a [`Program`].
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    Parser {
        tokens,
        pos: 0,
        depth: 0,
    }
    .program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting counted so far ([`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)]
    }

    fn advance(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        let t = self.peek();
        Err(ParseError {
            message: message.into(),
            line: t.line,
            col: t.col,
        })
    }

    /// Counts one more level of nesting in the current statement.
    fn nest(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.peek().is_punct(p) {
            self.advance();
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found `{}`", self.peek().tok))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.peek().is_kw(kw) {
            self.advance();
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found `{}`", self.peek().tok))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match &self.peek().tok {
            Tok::Ident(s) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found `{other}`")),
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.peek().is_punct(p) {
            self.advance();
            true
        } else {
            false
        }
    }

    /// Parses one of the confidential-value builtins after its name
    /// token has been consumed. Out of line from `primary` so the
    /// recursive expression path keeps a small stack frame.
    fn confidential_builtin(&mut self, name: &str) -> Result<Expr, ParseError> {
        match name {
            "hash2" => {
                let mut args = self.builtin_args(2)?;
                let b = args.pop().expect("arity checked");
                let a = args.pop().expect("arity checked");
                Ok(Expr::Hash2(Box::new(a), Box::new(b)))
            }
            "commit_verify" => {
                let mut args = self.builtin_args(4)?;
                let r = args.pop().expect("arity checked");
                let v = args.pop().expect("arity checked");
                let cy = args.pop().expect("arity checked");
                let cx = args.pop().expect("arity checked");
                Ok(Expr::CommitVerify(
                    Box::new(cx),
                    Box::new(cy),
                    Box::new(v),
                    Box::new(r),
                ))
            }
            "commit_add_check" => {
                let args = self.builtin_args(6)?;
                let arr: [Expr; 6] = args.try_into().expect("arity checked");
                Ok(Expr::CommitAddCheck(Box::new(arr)))
            }
            "nullifier" => {
                let mut args = self.builtin_args(1)?;
                let e = args.pop().expect("arity checked");
                Ok(Expr::Nullifier(Box::new(e)))
            }
            "range_verify" => {
                let mut args = self.builtin_args(4)?;
                let proof = args.pop().expect("arity checked");
                let bits = args.pop().expect("arity checked");
                let cy = args.pop().expect("arity checked");
                let cx = args.pop().expect("arity checked");
                Ok(Expr::RangeVerify(
                    Box::new(cx),
                    Box::new(cy),
                    Box::new(bits),
                    Box::new(proof),
                ))
            }
            other => self.err(format!("unknown builtin `{other}`")),
        }
    }

    /// Parses `(e1, …, eN)` for a fixed-arity builtin.
    fn builtin_args(&mut self, arity: usize) -> Result<Vec<Expr>, ParseError> {
        self.expect_punct("(")?;
        let mut args = Vec::with_capacity(arity);
        for i in 0..arity {
            if i > 0 {
                self.expect_punct(",")?;
            }
            args.push(self.expr()?);
        }
        self.expect_punct(")")?;
        Ok(args)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    // ---- grammar ----

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        loop {
            if matches!(self.peek().tok, Tok::Eof) {
                break;
            }
            if self.peek().is_kw("interface") {
                prog.interfaces.push(self.interface()?);
            } else if self.peek().is_kw("contract") {
                prog.contracts.push(self.contract()?);
            } else {
                return self.err("expected `contract` or `interface`");
            }
        }
        Ok(prog)
    }

    fn interface(&mut self) -> Result<Interface, ParseError> {
        self.expect_kw("interface")?;
        let name = self.expect_ident()?;
        self.expect_punct("{")?;
        let mut methods = Vec::new();
        while !self.eat_punct("}") {
            self.expect_kw("function")?;
            let mname = self.expect_ident()?;
            self.expect_punct("(")?;
            let mut params = Vec::new();
            if !self.peek().is_punct(")") {
                loop {
                    let ty = self.parse_type()?;
                    // Optional data-location and name.
                    self.eat_kw("memory");
                    self.eat_kw("calldata");
                    if let Tok::Ident(_) = self.peek().tok {
                        // Parameter names in interfaces are optional noise.
                        if !self.peek().is_kw("memory") {
                            self.advance();
                        }
                    }
                    params.push(ty);
                    if !self.eat_punct(",") {
                        break;
                    }
                }
            }
            self.expect_punct(")")?;
            // Qualifiers: external/public/payable in any order.
            while self.eat_kw("external") || self.eat_kw("public") || self.eat_kw("payable") {}
            let returns = if self.eat_kw("returns") {
                self.expect_punct("(")?;
                let t = self.parse_type()?;
                self.expect_punct(")")?;
                Some(t)
            } else {
                None
            };
            self.expect_punct(";")?;
            methods.push(IfaceMethod {
                name: mname,
                params,
                returns,
            });
        }
        Ok(Interface { name, methods })
    }

    fn contract(&mut self) -> Result<Contract, ParseError> {
        self.expect_kw("contract")?;
        let name = self.expect_ident()?;
        self.expect_punct("{")?;
        let mut c = Contract {
            name,
            ..Default::default()
        };
        while !self.eat_punct("}") {
            if self.peek().is_kw("constructor") {
                self.advance();
                let params = self.param_list()?;
                let mut payable = false;
                while self.eat_kw("public") || self.eat_kw("internal") || {
                    if self.peek().is_kw("payable") {
                        payable = true;
                        self.advance();
                        true
                    } else {
                        false
                    }
                } {}
                let body = self.block()?;
                if c.constructor.is_some() {
                    return self.err("duplicate constructor");
                }
                c.constructor = Some((params, payable, body));
            } else if self.peek().is_kw("modifier") {
                self.advance();
                let mname = self.expect_ident()?;
                if self.peek().is_punct("(") {
                    let params = self.param_list()?;
                    if !params.is_empty() {
                        return self.err("modifier parameters are not supported");
                    }
                }
                let body = self.block()?;
                c.modifiers.push(Modifier { name: mname, body });
            } else if self.peek().is_kw("function") {
                c.functions.push(self.function()?);
            } else if self.peek().is_kw("event") {
                self.advance();
                let ename = self.expect_ident()?;
                let params = self.param_list()?;
                self.expect_punct(";")?;
                c.events.push(Event {
                    name: ename,
                    params,
                });
            } else {
                // State variable: `type [public] name;`
                let ty = self.parse_type()?;
                self.eat_kw("public");
                self.eat_kw("internal");
                self.eat_kw("private");
                let vname = self.expect_ident()?;
                self.expect_punct(";")?;
                c.state.push(StateVar {
                    name: vname,
                    ty,
                    slot: 0, // assigned by sema
                });
            }
        }
        Ok(c)
    }

    fn function(&mut self) -> Result<Function, ParseError> {
        self.expect_kw("function")?;
        let name = self.expect_ident()?;
        let params = self.param_list()?;
        let mut visibility = Visibility::Public;
        let mut payable = false;
        let mut modifiers = Vec::new();
        let mut returns = None;
        loop {
            if self.eat_kw("public") {
                visibility = Visibility::Public;
            } else if self.eat_kw("external") {
                visibility = Visibility::External;
            } else if self.eat_kw("private") || self.eat_kw("internal") {
                visibility = Visibility::Private;
            } else if self.eat_kw("payable") {
                payable = true;
            } else if self.eat_kw("view") || self.eat_kw("pure") || self.eat_kw("constant") {
                // Mutability annotations are accepted and ignored.
            } else if self.eat_kw("returns") {
                self.expect_punct("(")?;
                let t = self.parse_type()?;
                self.eat_kw("memory");
                self.expect_punct(")")?;
                returns = Some(t);
            } else if let Tok::Ident(m) = &self.peek().tok {
                let m = m.clone();
                self.advance();
                // Allow `mod()` with empty parens.
                if self.eat_punct("(") {
                    self.expect_punct(")")?;
                }
                modifiers.push(m);
            } else {
                break;
            }
        }
        let body = self.block()?;
        Ok(Function {
            name,
            params,
            visibility,
            payable,
            modifiers,
            returns,
            body,
        })
    }

    fn param_list(&mut self) -> Result<Vec<Param>, ParseError> {
        self.expect_punct("(")?;
        let mut out = Vec::new();
        if !self.peek().is_punct(")") {
            loop {
                let ty = self.parse_type()?;
                self.eat_kw("memory");
                self.eat_kw("calldata");
                let name = self.expect_ident()?;
                out.push(Param { ty, name });
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        self.expect_punct(")")?;
        Ok(out)
    }

    /// Parses a type; the nesting it counts is released when it ends.
    fn parse_type(&mut self) -> Result<Type, ParseError> {
        let outer = self.depth;
        let base = self.expect_ident()?;
        let mut ty = match base.as_str() {
            "uint256" | "uint" => Type::Uint256,
            "uint8" => Type::Uint8,
            "bool" => Type::Bool,
            "address" => Type::Address,
            "bytes32" => Type::Bytes32,
            "bytes" => Type::Bytes,
            "mapping" => {
                self.nest()?;
                self.expect_punct("(")?;
                let k = self.parse_type()?;
                self.expect_punct("=>")?;
                let v = self.parse_type()?;
                self.expect_punct(")")?;
                Type::Mapping(Box::new(k), Box::new(v))
            }
            other => Type::Interface(other.to_string()),
        };
        while self.eat_punct("[") {
            self.nest()?;
            let n = match &self.peek().tok {
                Tok::Number(s) => {
                    let s = s.clone();
                    self.advance();
                    s.parse::<u64>()
                        .map_err(|_| ())
                        .or_else(|_| self.err::<u64>("bad array length").map(|_| 0))?
                }
                _ => return self.err("dynamic arrays are not supported"),
            };
            self.expect_punct("]")?;
            ty = Type::FixedArray(Box::new(ty), n);
        }
        self.depth = outer;
        Ok(ty)
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct("{")?;
        let mut out = Vec::new();
        while !self.eat_punct("}") {
            out.extend(self.statement()?);
        }
        Ok(out)
    }

    /// Parses one statement; may expand to several (for-desugaring).
    /// The nesting it counts is released when it ends.
    fn statement(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let outer = self.depth;
        self.nest()?;
        let stmts = self.statement_body()?;
        self.depth = outer;
        Ok(stmts)
    }

    fn statement_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        // `_;` placeholder
        if self.peek().is_kw("_") {
            self.advance();
            self.expect_punct(";")?;
            return Ok(vec![Stmt::Placeholder]);
        }
        if self.eat_kw("require") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            if self.eat_punct(",") {
                // Discard the reason string.
                match &self.peek().tok {
                    Tok::Str(_) => {
                        self.advance();
                    }
                    _ => return self.err("expected string reason"),
                }
            }
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(vec![Stmt::Require(cond)]);
        }
        if self.eat_kw("revert") {
            if self.eat_punct("(") {
                if let Tok::Str(_) = self.peek().tok {
                    self.advance();
                }
                self.expect_punct(")")?;
            }
            self.expect_punct(";")?;
            return Ok(vec![Stmt::Revert]);
        }
        if self.eat_kw("if") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then_branch = self.branch_body()?;
            let else_branch = if self.eat_kw("else") {
                if self.peek().is_kw("if") {
                    self.statement()?
                } else {
                    self.branch_body()?
                }
            } else {
                Vec::new()
            };
            return Ok(vec![Stmt::If(cond, then_branch, else_branch)]);
        }
        if self.eat_kw("while") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let body = self.branch_body()?;
            return Ok(vec![Stmt::While(cond, body)]);
        }
        if self.eat_kw("for") {
            // for (uint256 i = 0; i < n; i = i + 1) { body }
            self.expect_punct("(")?;
            let init = self.simple_statement()?;
            let cond = self.expr()?;
            self.expect_punct(";")?;
            let post = self.for_post()?;
            self.expect_punct(")")?;
            let mut body = self.branch_body()?;
            body.push(post);
            let mut out = init;
            out.push(Stmt::While(cond, body));
            return Ok(out);
        }
        if self.eat_kw("emit") {
            let name = self.expect_ident()?;
            self.expect_punct("(")?;
            let mut args = Vec::new();
            if !self.peek().is_punct(")") {
                loop {
                    args.push(self.expr()?);
                    if !self.eat_punct(",") {
                        break;
                    }
                }
            }
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(vec![Stmt::Emit(name, args)]);
        }
        if self.eat_kw("return") {
            if self.eat_punct(";") {
                return Ok(vec![Stmt::Return(None)]);
            }
            let e = self.expr()?;
            self.expect_punct(";")?;
            return Ok(vec![Stmt::Return(Some(e))]);
        }
        let stmts = self.simple_statement()?;
        Ok(stmts)
    }

    fn branch_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if self.peek().is_punct("{") {
            self.block()
        } else {
            self.statement()
        }
    }

    /// `i = i + 1` or `i++`/`i += k` inside a for-header (no semicolon).
    fn for_post(&mut self) -> Result<Stmt, ParseError> {
        let name = self.expect_ident()?;
        if self.eat_punct("++") {
            return Ok(Stmt::Assign(
                LValue::Ident(name.clone()),
                Expr::Bin(
                    BinOp::Add,
                    Box::new(Expr::Ident(name)),
                    Box::new(Expr::Number(U256::ONE)),
                ),
            ));
        }
        if self.eat_punct("+=") {
            let rhs = self.expr()?;
            return Ok(Stmt::Assign(
                LValue::Ident(name.clone()),
                Expr::Bin(BinOp::Add, Box::new(Expr::Ident(name)), Box::new(rhs)),
            ));
        }
        self.expect_punct("=")?;
        let rhs = self.expr()?;
        Ok(Stmt::Assign(LValue::Ident(name), rhs))
    }

    /// Declaration, assignment or expression statement (consumes `;`).
    fn simple_statement(&mut self) -> Result<Vec<Stmt>, ParseError> {
        // Declaration: starts with a type keyword.
        if let Tok::Ident(id) = &self.peek().tok {
            let is_type_kw = matches!(
                id.as_str(),
                "uint256" | "uint" | "uint8" | "bool" | "address" | "bytes32" | "bytes"
            );
            if is_type_kw
                && matches!(&self.peek2().tok, Tok::Ident(kw2) if kw2 != "(")
                && !self.peek2().is_punct("(")
            {
                let ty = self.parse_type()?;
                self.eat_kw("memory");
                let name = self.expect_ident()?;
                self.expect_punct("=")?;
                let init = self.expr()?;
                self.expect_punct(";")?;
                return Ok(vec![Stmt::VarDecl(Param { ty, name }, init)]);
            }
        }
        // Otherwise parse an expression, then look for `=` / `.transfer`.
        let e = self.expr()?;
        if self.eat_punct("=") {
            let lv = match e {
                Expr::Ident(n) => LValue::Ident(n),
                Expr::Index(base, idx) => LValue::Index(base, idx),
                _ => return self.err("invalid assignment target"),
            };
            let rhs = self.expr()?;
            self.expect_punct(";")?;
            return Ok(vec![Stmt::Assign(lv, rhs)]);
        }
        if self.eat_punct("+=") {
            let (lv, base) = match e.clone() {
                Expr::Ident(n) => (LValue::Ident(n.clone()), Expr::Ident(n)),
                Expr::Index(b, i) => (LValue::Index(b.clone(), i.clone()), Expr::Index(b, i)),
                _ => return self.err("invalid assignment target"),
            };
            let rhs = self.expr()?;
            self.expect_punct(";")?;
            return Ok(vec![Stmt::Assign(
                lv,
                Expr::Bin(BinOp::Add, Box::new(base), Box::new(rhs)),
            )]);
        }
        if self.eat_punct("-=") {
            let (lv, base) = match e.clone() {
                Expr::Ident(n) => (LValue::Ident(n.clone()), Expr::Ident(n)),
                Expr::Index(b, i) => (LValue::Index(b.clone(), i.clone()), Expr::Index(b, i)),
                _ => return self.err("invalid assignment target"),
            };
            let rhs = self.expr()?;
            self.expect_punct(";")?;
            return Ok(vec![Stmt::Assign(
                lv,
                Expr::Bin(BinOp::Sub, Box::new(base), Box::new(rhs)),
            )]);
        }
        self.expect_punct(";")?;
        // `x.transfer(v)` parses as Expr::Transfer sentinel via expr();
        // expr() encodes it as ExternalCall with the reserved name — see
        // postfix(). Here we just wrap whatever came out.
        if let Expr::ExternalCall {
            iface,
            addr,
            method,
            args,
        } = &e
        {
            if iface.is_empty() && method == "transfer" && args.len() == 1 {
                return Ok(vec![Stmt::Transfer(*addr.clone(), args[0].clone())]);
            }
            let _ = (iface, addr, method, args);
        }
        Ok(vec![Stmt::ExprStmt(e)])
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nest()?;
        self.binary(0)
    }

    /// Binary operators binding at least as tightly as `min`, by
    /// precedence climbing: one frame per level of nesting, each link of
    /// a left-associative chain nesting one level deeper.
    fn binary(&mut self, min: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        let mut loosest = u8::MAX;
        while let Some((prec, op)) = self.binary_op(min, loosest) {
            self.nest()?;
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
            loosest = prec;
        }
        Ok(lhs)
    }

    /// Consumes the next binary operator if it binds at least as tightly
    /// as `min`. Comparisons do not chain: one applies only to an operand
    /// no comparison, `&&` or `||` has joined (`loosest` > 3).
    fn binary_op(&mut self, min: u8, loosest: u8) -> Option<(u8, BinOp)> {
        const OPS: [(&str, u8, BinOp); 13] = [
            ("||", 1, BinOp::Or),
            ("&&", 2, BinOp::And),
            ("==", 3, BinOp::Eq),
            ("!=", 3, BinOp::Ne),
            ("<=", 3, BinOp::Le),
            (">=", 3, BinOp::Ge),
            ("<", 3, BinOp::Lt),
            (">", 3, BinOp::Gt),
            ("+", 4, BinOp::Add),
            ("-", 4, BinOp::Sub),
            ("*", 5, BinOp::Mul),
            ("/", 5, BinOp::Div),
            ("%", 5, BinOp::Mod),
        ];
        let &(_, prec, op) = OPS.iter().find(|(p, ..)| self.peek().is_punct(p))?;
        if prec < min || (prec == 3 && loosest <= 3) {
            return None;
        }
        self.advance();
        Some((prec, op))
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("!") {
            self.nest()?;
            return Ok(Expr::Not(Box::new(self.unary_expr()?)));
        }
        if self.eat_punct("-") {
            self.nest()?;
            return Ok(Expr::Neg(Box::new(self.unary_expr()?)));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary_expr()?;
        loop {
            if self.eat_punct("[") {
                self.nest()?;
                let idx = self.expr()?;
                self.expect_punct("]")?;
                e = Expr::Index(Box::new(e), Box::new(idx));
            } else if self.eat_punct(".") {
                self.nest()?;
                e = self.member(e)?;
            } else {
                break;
            }
        }
        Ok(e)
    }

    /// The member access or call after `e.`: out of line from
    /// `postfix_expr` to keep the recursive frame small.
    fn member(&mut self, e: Expr) -> Result<Expr, ParseError> {
        let member = self.expect_ident()?;
        match member.as_str() {
            "balance" => Ok(Expr::Balance(Box::new(e))),
            "length" => Ok(Expr::ArrayLength(Box::new(e))),
            "transfer" => {
                self.expect_punct("(")?;
                let amount = self.expr()?;
                self.expect_punct(")")?;
                // Encoded as a sentinel external call; the
                // statement layer turns it into Stmt::Transfer.
                Ok(Expr::ExternalCall {
                    iface: String::new(),
                    addr: Box::new(e),
                    method: "transfer".into(),
                    args: vec![amount],
                })
            }
            m => {
                // Interface method call: Iface(addr).m(args)
                self.expect_punct("(")?;
                let mut args = Vec::new();
                if !self.peek().is_punct(")") {
                    loop {
                        args.push(self.expr()?);
                        if !self.eat_punct(",") {
                            break;
                        }
                    }
                }
                self.expect_punct(")")?;
                let (iface, addr) = match e {
                    Expr::Cast(Type::Interface(name), inner) => (name, inner),
                    _ => {
                        return self.err(format!(
                            "method `{m}` requires an interface cast like Iface(addr)"
                        ))
                    }
                };
                Ok(Expr::ExternalCall {
                    iface,
                    addr,
                    method: m.to_string(),
                    args,
                })
            }
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("(") {
            let e = self.expr()?;
            self.expect_punct(")")?;
            return Ok(e);
        }
        self.atom()
    }

    /// Every primary expression but a parenthesised one: out of line
    /// from `primary_expr`, like `confidential_builtin`, so the frames
    /// nested parentheses recurse through stay small.
    fn atom(&mut self) -> Result<Expr, ParseError> {
        let t = self.peek().clone();
        match &t.tok {
            Tok::Number(s) => {
                self.advance();
                let mut v = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X"))
                {
                    U256::from_hex_str(hex).map_err(|e| ParseError {
                        message: format!("bad hex literal: {e}"),
                        line: t.line,
                        col: t.col,
                    })?
                } else {
                    U256::from_dec_str(s).map_err(|e| ParseError {
                        message: format!("bad number literal: {e}"),
                        line: t.line,
                        col: t.col,
                    })?
                };
                // Unit suffixes.
                if self.eat_kw("ether") {
                    v = v.wrapping_mul(U256::from_u128(sc_primitives::ETHER));
                } else if self.eat_kw("gwei") {
                    v = v.wrapping_mul(U256::from_u64(1_000_000_000));
                } else if self.eat_kw("wei") || self.eat_kw("seconds") {
                    // already in base units
                } else if self.eat_kw("minutes") {
                    v = v.wrapping_mul(U256::from_u64(60));
                } else if self.eat_kw("hours") {
                    v = v.wrapping_mul(U256::from_u64(3600));
                } else if self.eat_kw("days") {
                    v = v.wrapping_mul(U256::from_u64(86400));
                }
                Ok(Expr::Number(v))
            }
            Tok::Ident(id) => match id.as_str() {
                "true" => {
                    self.advance();
                    Ok(Expr::Bool(true))
                }
                "false" => {
                    self.advance();
                    Ok(Expr::Bool(false))
                }
                "msg" => {
                    self.advance();
                    self.expect_punct(".")?;
                    let field = self.expect_ident()?;
                    match field.as_str() {
                        "sender" => Ok(Expr::MsgSender),
                        "value" => Ok(Expr::MsgValue),
                        other => self.err(format!("unknown msg field `{other}`")),
                    }
                }
                "block" => {
                    self.advance();
                    self.expect_punct(".")?;
                    let field = self.expect_ident()?;
                    match field.as_str() {
                        "timestamp" => Ok(Expr::BlockTimestamp),
                        "number" => Ok(Expr::BlockNumber),
                        other => self.err(format!("unknown block field `{other}`")),
                    }
                }
                "now" => {
                    self.advance();
                    Ok(Expr::BlockTimestamp)
                }
                "this" => {
                    self.advance();
                    Ok(Expr::This)
                }
                "keccak256" => {
                    self.advance();
                    self.expect_punct("(")?;
                    let e = self.expr()?;
                    self.expect_punct(")")?;
                    Ok(Expr::Keccak(Box::new(e)))
                }
                "ecrecover" => {
                    self.advance();
                    self.expect_punct("(")?;
                    let h = self.expr()?;
                    self.expect_punct(",")?;
                    let v = self.expr()?;
                    self.expect_punct(",")?;
                    let r = self.expr()?;
                    self.expect_punct(",")?;
                    let s = self.expr()?;
                    self.expect_punct(")")?;
                    Ok(Expr::EcRecover(
                        Box::new(h),
                        Box::new(v),
                        Box::new(r),
                        Box::new(s),
                    ))
                }
                "create" => {
                    self.advance();
                    self.expect_punct("(")?;
                    let code = self.expr()?;
                    self.expect_punct(")")?;
                    Ok(Expr::Create(Box::new(code)))
                }
                "hash2" | "commit_verify" | "commit_add_check" | "nullifier" | "range_verify" => {
                    // Parsed out of line to keep this (deeply recursive)
                    // frame small.
                    let name = id.clone();
                    self.advance();
                    self.confidential_builtin(&name)
                }
                "address" | "uint256" | "uint" | "uint8" | "bool" | "bytes32" => {
                    let ty = match id.as_str() {
                        "address" => Type::Address,
                        "uint8" => Type::Uint8,
                        "bool" => Type::Bool,
                        "bytes32" => Type::Bytes32,
                        _ => Type::Uint256,
                    };
                    self.advance();
                    self.expect_punct("(")?;
                    let inner = self.expr()?;
                    self.expect_punct(")")?;
                    Ok(Expr::Cast(ty, Box::new(inner)))
                }
                name => {
                    let name = name.to_string();
                    self.advance();
                    if self.peek().is_punct("(") {
                        self.advance();
                        let mut args = Vec::new();
                        if !self.peek().is_punct(")") {
                            loop {
                                args.push(self.expr()?);
                                if !self.eat_punct(",") {
                                    break;
                                }
                            }
                        }
                        self.expect_punct(")")?;
                        // Could be an interface cast `Iface(addr)` (one
                        // arg, capitalized by convention) or an internal
                        // call. Sema disambiguates; the parser encodes a
                        // single-argument call to an unknown name as a
                        // cast candidate.
                        if args.len() == 1 {
                            return Ok(Expr::Cast(
                                Type::Interface(name),
                                Box::new(args.pop_expr()),
                            ));
                        }
                        return Ok(Expr::InternalCall(name, args));
                    }
                    Ok(Expr::Ident(name))
                }
            },
            other => self.err(format!("unexpected token `{other}` in expression")),
        }
    }
}

trait PopExpr {
    fn pop_expr(self) -> Expr;
}

impl PopExpr for Vec<Expr> {
    fn pop_expr(mut self) -> Expr {
        self.pop().expect("len checked by caller")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_contract() {
        let p = parse("contract c { uint256 x; function f() public { x = 1; } }").unwrap();
        assert_eq!(p.contracts.len(), 1);
        let c = &p.contracts[0];
        assert_eq!(c.name, "c");
        assert_eq!(c.state.len(), 1);
        assert_eq!(c.functions.len(), 1);
    }

    #[test]
    fn parses_interface() {
        let p =
            parse("interface OnChain { function enforceDisputeResolution(bool winner) external; }")
                .unwrap();
        let i = &p.interfaces[0];
        assert_eq!(i.methods[0].signature(), "enforceDisputeResolution(bool)");
    }

    #[test]
    fn parses_mapping_and_fixed_array() {
        let p = parse(
            "contract c { mapping(address => uint256) accountBalance; address[2] participant; }",
        )
        .unwrap();
        let c = &p.contracts[0];
        assert_eq!(
            c.state[0].ty,
            Type::Mapping(Box::new(Type::Address), Box::new(Type::Uint256))
        );
        assert_eq!(c.state[1].ty, Type::FixedArray(Box::new(Type::Address), 2));
    }

    #[test]
    fn parses_modifier_with_placeholder() {
        let p = parse(
            "contract c { uint256 T1; modifier beforeT1 { require(block.timestamp < T1); _; } }",
        )
        .unwrap();
        let m = &p.contracts[0].modifiers[0];
        assert_eq!(m.name, "beforeT1");
        assert!(matches!(m.body[1], Stmt::Placeholder));
    }

    #[test]
    fn parses_function_with_modifiers_and_payable() {
        let p = parse("contract c { function deposit() public payable beforeT1 certified { } }")
            .unwrap();
        let f = &p.contracts[0].functions[0];
        assert!(f.payable);
        assert_eq!(f.modifiers, vec!["beforeT1", "certified"]);
        assert_eq!(f.signature(), "deposit()");
    }

    #[test]
    fn signature_with_bytes_and_sigs() {
        let p = parse(
            "contract c { function deployVerifiedInstance(bytes memory bytecode, uint8 va, \
             bytes32 ra, bytes32 sa, uint8 vb, bytes32 rb, bytes32 sb) public { } }",
        )
        .unwrap();
        assert_eq!(
            p.contracts[0].functions[0].signature(),
            "deployVerifiedInstance(bytes,uint8,bytes32,bytes32,uint8,bytes32,bytes32)"
        );
    }

    #[test]
    fn parses_ether_units() {
        let p =
            parse("contract c { function f() public { require(msg.value == 1 ether); } }").unwrap();
        let f = &p.contracts[0].functions[0];
        match &f.body[0] {
            Stmt::Require(Expr::Bin(BinOp::Eq, _, rhs)) => {
                assert_eq!(**rhs, Expr::Number(sc_primitives::ether(1)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_and_transfer() {
        let src = r#"
            contract c {
                address[2] participant;
                function f(bool winner) public {
                    if (winner == true) {
                        participant[1].transfer(2 ether);
                    } else {
                        participant[0].transfer(2 ether);
                    }
                }
            }
        "#;
        let p = parse(src).unwrap();
        let f = &p.contracts[0].functions[0];
        match &f.body[0] {
            Stmt::If(_, then_b, else_b) => {
                assert!(matches!(then_b[0], Stmt::Transfer(_, _)));
                assert!(matches!(else_b[0], Stmt::Transfer(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_external_interface_call() {
        let src = r#"
            contract c {
                function g(address addr) public {
                    OnChain(addr).enforceDisputeResolution(true);
                }
            }
        "#;
        let p = parse(src).unwrap();
        match &p.contracts[0].functions[0].body[0] {
            Stmt::ExprStmt(Expr::ExternalCall {
                iface,
                method,
                args,
                ..
            }) => {
                assert_eq!(iface, "OnChain");
                assert_eq!(method, "enforceDisputeResolution");
                assert_eq!(args.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_while_and_for() {
        let src = r#"
            contract c {
                function f(uint256 n) public returns (uint256) {
                    uint256 acc = 0;
                    for (uint256 i = 0; i < n; i = i + 1) {
                        acc = acc + i;
                    }
                    while (acc > 100) { acc = acc - 100; }
                    return acc;
                }
            }
        "#;
        let p = parse(src).unwrap();
        let f = &p.contracts[0].functions[0];
        // VarDecl(acc), VarDecl(i), While(for), While, Return
        assert_eq!(f.body.len(), 5);
        assert!(matches!(f.body[2], Stmt::While(_, _)));
    }

    #[test]
    fn parses_builtins() {
        let src = r#"
            contract c {
                function f(bytes memory code, uint8 v, bytes32 r, bytes32 s) public {
                    bytes32 h = keccak256(code);
                    address a = ecrecover(h, v, r, s);
                    address inst = create(code);
                    require(a != address(0) && inst != address(0));
                }
            }
        "#;
        let p = parse(src).unwrap();
        let f = &p.contracts[0].functions[0];
        assert!(matches!(&f.body[0], Stmt::VarDecl(_, Expr::Keccak(_))));
        assert!(matches!(&f.body[1], Stmt::VarDecl(_, Expr::EcRecover(..))));
        assert!(matches!(&f.body[2], Stmt::VarDecl(_, Expr::Create(_))));
    }

    #[test]
    fn parses_constructor() {
        let src = "contract c { uint256 t; constructor(uint256 x) public { t = x; } }";
        let p = parse(src).unwrap();
        let (params, payable, body) = p.contracts[0].constructor.as_ref().unwrap();
        assert_eq!(params.len(), 1);
        assert!(!payable);
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("contract c { function }").unwrap_err();
        assert!(err.line >= 1);
        assert!(err.message.contains("identifier"));
    }

    #[test]
    fn compound_assignment_desugars() {
        let p = parse("contract c { uint256 x; function f() public { x += 2; x -= 1; } }").unwrap();
        let f = &p.contracts[0].functions[0];
        assert!(matches!(
            &f.body[0],
            Stmt::Assign(LValue::Ident(_), Expr::Bin(BinOp::Add, _, _))
        ));
        assert!(matches!(
            &f.body[1],
            Stmt::Assign(LValue::Ident(_), Expr::Bin(BinOp::Sub, _, _))
        ));
    }
}
