//! Compile-time folding of literal-only real subexpressions.
//!
//! `x[i] = (2.62 - 0.88) - y[i]` should not re-subtract two constants
//! every iteration. Folding is restricted to subtrees whose type is
//! *definitely real* (they contain at least one real literal): pure
//! integer-literal subtrees stay unfolded because their meaning depends on
//! the surrounding context (`2/3` is `0` in an int context but `0.666…`
//! in a real one), and `%` pins types in ways folding must not disturb.
//!
//! Folding computes with exactly the f64 operations the reference
//! interpreter and the simulator would execute at run time (including
//! `-x = 0.0 − x` and the compare-based `min`/`max`/`abs`), so a folded
//! program is bitwise-identical in effect to the unfolded one.
//!
//! The lowering asks at each node, top down, whether its subtree folds,
//! so every maximal foldable subtree becomes one constant and the AST is
//! never copied.

use crate::ast::{BinOp, Expr};

/// Evaluates a literal-only subtree as a real, provided it is *definitely*
/// real (contains at least one real literal). Integer literals inside it
/// coerce to real, as they would at run time.
pub(crate) fn eval_real_literal(expr: &Expr) -> Option<f64> {
    fn walk(expr: &Expr, saw_real: &mut bool) -> Option<f64> {
        match expr {
            Expr::Real(x) => {
                *saw_real = true;
                Some(*x)
            }
            Expr::Int(v) => Some(*v as f64),
            Expr::Neg(inner) => Some(0.0 - walk(inner, saw_real)?),
            Expr::Sqrt(inner) => {
                *saw_real = true; // sqrt is real by definition
                Some(walk(inner, saw_real)?.sqrt())
            }
            Expr::Abs(inner) => {
                let x = walk(inner, saw_real)?;
                Some(if x < 0.0 { 0.0 - x } else { x })
            }
            Expr::Bin(op, lhs, rhs) => {
                let a = walk(lhs, saw_real)?;
                let b = walk(rhs, saw_real)?;
                match op {
                    BinOp::Add => Some(a + b),
                    BinOp::Sub => Some(a - b),
                    BinOp::Mul => Some(a * b),
                    BinOp::Div => Some(a / b),
                    // `%` pins operands to int; never fold through it.
                    BinOp::Rem => None,
                }
            }
            Expr::MinMax { is_max, lhs, rhs } => {
                let a = walk(lhs, saw_real)?;
                let b = walk(rhs, saw_real)?;
                // Same select semantics as the lowering/reference.
                let take_a = if *is_max { a > b } else { a < b };
                Some(if take_a { a } else { b })
            }
            Expr::Scalar(..) | Expr::Elem { .. } => None,
        }
    }
    let mut saw_real = false;
    let value = walk(expr, &mut saw_real)?;
    saw_real.then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real(x: f64) -> Expr {
        Expr::Real(x)
    }
    fn int(v: i64) -> Expr {
        Expr::Int(v)
    }
    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin(op, Box::new(l), Box::new(r))
    }

    #[test]
    fn folds_real_arithmetic() {
        assert_eq!(
            eval_real_literal(&bin(BinOp::Sub, real(2.62), real(0.88))),
            Some(2.62 - 0.88)
        );
        assert_eq!(
            eval_real_literal(&bin(
                BinOp::Mul,
                real(2.0),
                bin(BinOp::Add, int(1), real(0.5))
            )),
            Some(2.0 * 1.5)
        );
        assert_eq!(
            eval_real_literal(&Expr::Sqrt(Box::new(real(4.0)))),
            Some(2.0)
        );
        assert_eq!(
            eval_real_literal(&Expr::Neg(Box::new(real(0.0)))),
            Some(0.0 - 0.0)
        );
    }

    #[test]
    fn leaves_pure_int_subtrees_alone() {
        // `2 + 3` is polymorphic: its value depends on the context type.
        assert_eq!(eval_real_literal(&bin(BinOp::Add, int(2), int(3))), None);
        // And `%` is never folded through.
        assert_eq!(
            eval_real_literal(&bin(BinOp::Rem, real(5.0), real(2.0))),
            None
        );
    }

    #[test]
    fn folds_within_larger_expressions() {
        // (1.5 * 2.0) + x stays an add, but its left side folds to 3.0.
        let x = Expr::Scalar("x".into(), crate::Span::default());
        let lhs = bin(BinOp::Mul, real(1.5), real(2.0));
        assert_eq!(eval_real_literal(&lhs), Some(3.0));
        assert_eq!(eval_real_literal(&bin(BinOp::Add, lhs, x)), None);
    }

    #[test]
    fn minmax_and_abs_fold_with_select_semantics() {
        let e = Expr::MinMax {
            is_max: false,
            lhs: Box::new(real(2.0)),
            rhs: Box::new(real(-1.0)),
        };
        assert_eq!(eval_real_literal(&e), Some(-1.0));
        assert_eq!(
            eval_real_literal(&Expr::Abs(Box::new(real(-3.5)))),
            Some(3.5)
        );
    }
}
