//! Recursive-descent parser for the loop DSL.
//!
//! Grammar (EBNF):
//!
//! ```text
//! unit    := loop*
//! loop    := "loop" IDENT "(" IDENT "=" bound ".." bound ")" "{" decl* stmt* "}"
//! bound   := INT | IDENT
//! decl    := ("real" | "int") IDENT "[" "]" ("," IDENT "[" "]")* ";"
//!          | "param" ("real" | "int") IDENT ("," IDENT)* ";"
//! stmt    := lvalue "=" expr ";"
//!          | "if" "(" expr relop expr ")" block ("else" block)?
//!          | "break" "if" "(" expr relop expr ")" ";"
//! block   := "{" stmt* "}"
//! lvalue  := IDENT ("[" index "]")?
//! index   := IDENT (("+" | "-") INT)?
//! expr    := term (("+" | "-") term)*
//! term    := factor (("*" | "/" | "%") factor)*
//! factor  := "-" factor | atom
//! atom    := NUMBER | "sqrt" "(" expr ")" | "abs" "(" expr ")"
//!          | ("min" | "max") "(" expr "," expr ")"
//!          | IDENT ("[" index "]")? | "(" expr ")"
//! relop   := "==" | "!=" | "<" | "<=" | ">" | ">="
//! ```
//!
//! `sqrt`, `abs`, `min`, `max`, and `break` are contextual keywords: a
//! scalar with one of those names shadows the intrinsic.

use crate::ast::{BinOp, Bound, Cond, Decl, Expr, LValue, LoopDef, RelOp, Stmt, Ty};
use crate::{FrontError, Span, Token, TokenKind};

/// Parses a token stream into loop definitions.
///
/// # Errors
///
/// Returns the first syntax error with its location.
pub fn parse(tokens: &[Token<'_>]) -> Result<Vec<LoopDef>, FrontError> {
    let mut p = Parser { tokens, pos: 0 };
    let mut loops = Vec::new();
    while !p.at_eof() {
        loops.push(p.loop_def()?);
    }
    Ok(loops)
}

struct Parser<'t, 's> {
    tokens: &'t [Token<'s>],
    pos: usize,
}

impl<'s> Parser<'_, 's> {
    fn peek(&self) -> &Token<'s> {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    fn span(&self) -> Span {
        self.peek().span
    }

    fn bump(&mut self) -> Token<'s> {
        let t = *self.peek();
        if !self.at_eof() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(&self.peek().kind, TokenKind::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), FrontError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(FrontError::new(
                self.span(),
                format!("expected `{p}`, found {}", self.peek().kind),
            ))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<&'s str, FrontError> {
        match self.peek().kind {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(FrontError::new(
                self.span(),
                format!("expected {what}, found {other}"),
            )),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek().kind, TokenKind::Ident(s) if s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn loop_def(&mut self) -> Result<LoopDef, FrontError> {
        if !self.eat_keyword("loop") {
            return Err(FrontError::new(
                self.span(),
                format!("expected `loop`, found {}", self.peek().kind),
            ));
        }
        let name = self.expect_ident("loop name")?.to_owned();
        self.expect_punct("(")?;
        let var = self.expect_ident("induction variable")?;
        self.expect_punct("=")?;
        let lo = self.bound()?;
        self.expect_punct("..")?;
        let hi = self.bound()?;
        self.expect_punct(")")?;
        self.expect_punct("{")?;
        let mut decls = Vec::new();
        while self.at_keyword("real") || self.at_keyword("int") || self.at_keyword("param") {
            decls.push(self.decl()?);
        }
        let mut body = Vec::new();
        while !self.eat_punct("}") {
            if self.at_eof() {
                return Err(FrontError::new(self.span(), "unterminated loop body"));
            }
            body.push(self.stmt(var)?);
        }
        Ok(LoopDef {
            name,
            var: var.to_owned(),
            lo,
            hi,
            decls,
            body,
        })
    }

    fn bound(&mut self) -> Result<Bound, FrontError> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Bound::Const(v))
            }
            TokenKind::Ident(s) => {
                self.bump();
                Ok(Bound::Param(s.to_owned()))
            }
            other => Err(FrontError::new(
                self.span(),
                format!("expected loop bound, found {other}"),
            )),
        }
    }

    fn ty(&mut self) -> Result<Ty, FrontError> {
        if self.eat_keyword("real") {
            Ok(Ty::Real)
        } else if self.eat_keyword("int") {
            Ok(Ty::Int)
        } else {
            Err(FrontError::new(
                self.span(),
                format!("expected `real` or `int`, found {}", self.peek().kind),
            ))
        }
    }

    fn decl(&mut self) -> Result<Decl, FrontError> {
        if self.eat_keyword("param") {
            let ty = self.ty()?;
            let mut names = vec![self.expect_ident("parameter name")?.to_owned()];
            while self.eat_punct(",") {
                names.push(self.expect_ident("parameter name")?.to_owned());
            }
            self.expect_punct(";")?;
            return Ok(Decl::Param { ty, names });
        }
        let ty = self.ty()?;
        let mut arrays = Vec::new();
        let mut scalars = Vec::new();
        loop {
            let name = self.expect_ident("array or scalar name")?.to_owned();
            if self.eat_punct("[") {
                self.expect_punct("]")?;
                arrays.push(name);
            } else {
                scalars.push(name);
            }
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(";")?;
        // A mixed declaration list is split into its array and scalar
        // halves; only one of the two is usually present.
        if arrays.is_empty() {
            Ok(Decl::Scalar { ty, names: scalars })
        } else if scalars.is_empty() {
            Ok(Decl::Array { ty, names: arrays })
        } else {
            Err(FrontError::new(
                self.span(),
                "mixing array and scalar names in one declaration is not supported",
            ))
        }
    }

    fn stmt(&mut self, var: &str) -> Result<Stmt, FrontError> {
        if self.eat_keyword("break") {
            if !self.eat_keyword("if") {
                return Err(FrontError::new(
                    self.span(),
                    "only conditional exits are supported: `break if (cond);`",
                ));
            }
            self.expect_punct("(")?;
            let lhs = self.expr(var)?;
            let op = self.relop()?;
            let rhs = self.expr(var)?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt::BreakIf {
                cond: Cond { op, lhs, rhs },
            });
        }
        if self.eat_keyword("if") {
            self.expect_punct("(")?;
            let lhs = self.expr(var)?;
            let op = self.relop()?;
            let rhs = self.expr(var)?;
            self.expect_punct(")")?;
            let then_body = self.block(var)?;
            let else_body = if self.eat_keyword("else") {
                self.block(var)?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If {
                cond: Cond { op, lhs, rhs },
                then_body,
                else_body,
            });
        }
        let span = self.span();
        let name = self.expect_ident("assignment target")?.to_owned();
        let target = if self.eat_punct("[") {
            let offset = self.index(var)?;
            self.expect_punct("]")?;
            LValue::Elem {
                array: name,
                offset,
            }
        } else {
            LValue::Scalar(name)
        };
        self.expect_punct("=")?;
        let value = self.expr(var)?;
        self.expect_punct(";")?;
        Ok(Stmt::Assign {
            target,
            value,
            span,
        })
    }

    fn block(&mut self, var: &str) -> Result<Vec<Stmt>, FrontError> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if self.at_eof() {
                return Err(FrontError::new(self.span(), "unterminated block"));
            }
            stmts.push(self.stmt(var)?);
        }
        Ok(stmts)
    }

    fn relop(&mut self) -> Result<RelOp, FrontError> {
        for (text, op) in [
            ("==", RelOp::Eq),
            ("!=", RelOp::Ne),
            ("<=", RelOp::Le),
            ("<", RelOp::Lt),
            (">=", RelOp::Ge),
            (">", RelOp::Gt),
        ] {
            if self.eat_punct(text) {
                return Ok(op);
            }
        }
        Err(FrontError::new(
            self.span(),
            format!("expected comparison operator, found {}", self.peek().kind),
        ))
    }

    /// `i`, `i + c`, or `i - c`.
    fn index(&mut self, var: &str) -> Result<i64, FrontError> {
        let span = self.span();
        let name = self.expect_ident("index variable")?;
        if name != var {
            return Err(FrontError::new(
                span,
                format!("subscripts must use the induction variable `{var}`, found `{name}`"),
            ));
        }
        let sign = if self.eat_punct("+") {
            1
        } else if self.eat_punct("-") {
            -1
        } else {
            return Ok(0);
        };
        match self.bump().kind {
            TokenKind::Int(v) => Ok(sign * v),
            other => Err(FrontError::new(
                span,
                format!("expected constant offset, found {other}"),
            )),
        }
    }

    fn expr(&mut self, var: &str) -> Result<Expr, FrontError> {
        let mut lhs = self.term(var)?;
        loop {
            let op = if self.eat_punct("+") {
                BinOp::Add
            } else if self.eat_punct("-") {
                BinOp::Sub
            } else {
                return Ok(lhs);
            };
            let rhs = self.term(var)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn term(&mut self, var: &str) -> Result<Expr, FrontError> {
        let mut lhs = self.factor(var)?;
        loop {
            let op = if self.eat_punct("*") {
                BinOp::Mul
            } else if self.eat_punct("/") {
                BinOp::Div
            } else if self.eat_punct("%") {
                BinOp::Rem
            } else {
                return Ok(lhs);
            };
            let rhs = self.factor(var)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn factor(&mut self, var: &str) -> Result<Expr, FrontError> {
        if self.eat_punct("-") {
            return Ok(Expr::Neg(Box::new(self.factor(var)?)));
        }
        self.atom(var)
    }

    fn atom(&mut self, var: &str) -> Result<Expr, FrontError> {
        let span = self.span();
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            TokenKind::Real(v) => {
                self.bump();
                Ok(Expr::Real(v))
            }
            TokenKind::Punct("(") => {
                self.bump();
                let e = self.expr(var)?;
                self.expect_punct(")")?;
                Ok(e)
            }
            TokenKind::Ident("sqrt") => {
                self.bump();
                self.expect_punct("(")?;
                let e = self.expr(var)?;
                self.expect_punct(")")?;
                Ok(Expr::Sqrt(Box::new(e)))
            }
            TokenKind::Ident(name @ ("min" | "max")) => {
                let is_max = name == "max";
                self.bump();
                self.expect_punct("(")?;
                let lhs = self.expr(var)?;
                self.expect_punct(",")?;
                let rhs = self.expr(var)?;
                self.expect_punct(")")?;
                Ok(Expr::MinMax {
                    is_max,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                })
            }
            TokenKind::Ident("abs") => {
                self.bump();
                self.expect_punct("(")?;
                let e = self.expr(var)?;
                self.expect_punct(")")?;
                Ok(Expr::Abs(Box::new(e)))
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.eat_punct("[") {
                    let offset = self.index(var)?;
                    self.expect_punct("]")?;
                    Ok(Expr::Elem {
                        array: name.to_owned(),
                        offset,
                        span,
                    })
                } else {
                    Ok(Expr::Scalar(name.to_owned(), span))
                }
            }
            other => Err(FrontError::new(
                span,
                format!("expected expression, found {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex;

    fn parse_src(src: &str) -> Result<Vec<LoopDef>, FrontError> {
        parse(&lex(src).unwrap())
    }

    #[test]
    fn parses_the_sample_loop() {
        let loops = parse_src(
            "loop sample(i = 3..n) {
                 real x[], y[];
                 x[i] = x[i-1] + y[i-2];
                 y[i] = y[i-1] + x[i-2];
             }",
        )
        .unwrap();
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.name, "sample");
        assert_eq!(l.lo, Bound::Const(3));
        assert_eq!(l.hi, Bound::Param("n".into()));
        assert_eq!(l.body.len(), 2);
        match &l.body[0] {
            Stmt::Assign {
                target: LValue::Elem { array, offset },
                value,
                ..
            } => {
                assert_eq!(array, "x");
                assert_eq!(*offset, 0);
                assert!(matches!(value, Expr::Bin(BinOp::Add, _, _)));
            }
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn parses_conditionals() {
        let loops = parse_src(
            "loop f(i = 1..n) {
                 real x[];
                 param real t;
                 if (x[i] > t) { x[i] = t; } else { x[i] = 0.0; }
             }",
        )
        .unwrap();
        match &loops[0].body[0] {
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                assert_eq!(cond.op, RelOp::Gt);
                assert_eq!(then_body.len(), 1);
                assert_eq!(else_body.len(), 1);
            }
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn precedence_is_mul_over_add() {
        let loops = parse_src("loop f(i=1..9){ real x[]; x[i] = 1.0 + 2.0 * 3.0; }").unwrap();
        match &loops[0].body[0] {
            Stmt::Assign {
                value: Expr::Bin(BinOp::Add, l, r),
                ..
            } => {
                assert!(matches!(**l, Expr::Real(_)));
                assert!(matches!(**r, Expr::Bin(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn rejects_non_induction_subscripts() {
        let err = parse_src("loop f(i=1..9){ real x[]; x[j] = 1.0; }").unwrap_err();
        assert!(err.message.contains("induction variable"));
    }

    #[test]
    fn rejects_unterminated_body() {
        let err = parse_src("loop f(i=1..9){ real x[]; x[i] = 1.0;").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn parses_multiple_loops() {
        let loops = parse_src(
            "loop a(i=1..4){ real x[]; x[i] = 1.0; }
             loop b(i=1..4){ real y[]; y[i] = 2.0; }",
        )
        .unwrap();
        assert_eq!(loops.len(), 2);
    }

    #[test]
    fn parses_negation_and_sqrt() {
        let loops = parse_src("loop f(i=1..9){ real x[]; x[i] = -sqrt(x[i-1] * 2.0); }").unwrap();
        match &loops[0].body[0] {
            Stmt::Assign {
                value: Expr::Neg(inner),
                ..
            } => {
                assert!(matches!(**inner, Expr::Sqrt(_)));
            }
            other => panic!("unexpected stmt {other:?}"),
        }
    }
}
