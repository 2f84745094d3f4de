//! Semantic analysis: symbol resolution and type checking.

use std::collections::BTreeMap;

use crate::ast::{BinOp, Bound, Decl, Expr, LValue, LoopDef, Stmt, Ty};
use crate::{FrontError, Span};

/// Resolved symbol information for one loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopInfo {
    /// Declared arrays, in declaration order.
    pub arrays: Vec<(String, Ty)>,
    /// Loop-invariant parameters: declared `param`s plus any parameter
    /// named in the loop bounds (always `int`).
    pub params: Vec<(String, Ty)>,
    /// Loop-carried scalars: every scalar assigned in the body.
    pub carried: Vec<(String, Ty)>,
}

impl LoopInfo {
    /// The index and element type of `name` among the arrays.
    pub fn array(&self, name: &str) -> Option<(usize, Ty)> {
        self.arrays
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| (i, self.arrays[i].1))
    }

    /// The type of `name` as a parameter.
    pub fn param(&self, name: &str) -> Option<Ty> {
        self.params.iter().find(|(n, _)| n == name).map(|&(_, t)| t)
    }

    /// The type of `name` as a loop-carried scalar.
    pub fn carried(&self, name: &str) -> Option<Ty> {
        self.carried
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, t)| t)
    }
}

/// Checks a parsed loop and resolves its symbols.
///
/// Scalars assigned in the body become loop-carried variants; their type
/// is taken from a `real s;` / `int s;` declaration when present and
/// defaults to `real`. Reading a scalar that is neither a parameter nor
/// assigned anywhere is an error, as are type mismatches, assignments to
/// parameters, `%` on reals, and `sqrt` on ints.
///
/// # Errors
///
/// Returns the first semantic error with its source location.
pub fn analyze(def: &LoopDef) -> Result<LoopInfo, FrontError> {
    let mut arrays: Vec<(String, Ty)> = Vec::new();
    let mut params: Vec<(String, Ty)> = Vec::new();
    let mut declared_scalars: BTreeMap<&str, Ty> = BTreeMap::new();
    let origin = Span::default();

    let mut seen_names: Vec<&str> = vec![&def.var];
    for decl in &def.decls {
        let (Decl::Array { ty, names } | Decl::Param { ty, names } | Decl::Scalar { ty, names }) =
            decl;
        for n in names {
            if seen_names.contains(&n.as_str()) {
                return Err(FrontError::new(origin, format!("`{n}` declared twice")));
            }
            seen_names.push(n);
            match decl {
                Decl::Array { .. } => arrays.push((n.clone(), *ty)),
                Decl::Param { .. } => params.push((n.clone(), *ty)),
                Decl::Scalar { .. } => {
                    declared_scalars.insert(n, *ty);
                }
            }
        }
    }
    // Bound parameters are implicit int params.
    for bound in [&def.lo, &def.hi] {
        if let Bound::Param(n) = bound {
            if !params.iter().any(|(p, _)| p == n)
                && !arrays.iter().any(|(a, _)| a == n)
                && !declared_scalars.contains_key(n.as_str())
            {
                params.push((n.clone(), Ty::Int));
            }
        }
    }

    // Collect assigned scalars.
    let mut carried: Vec<(String, Ty)> = Vec::new();
    collect_assigned(&def.body, &mut |name: &str, span: Span| {
        if params.iter().any(|(p, _)| p == name) {
            return Err(FrontError::new(
                span,
                format!("cannot assign to parameter `{name}`"),
            ));
        }
        if name == def.var {
            return Err(FrontError::new(
                span,
                "cannot assign to the induction variable",
            ));
        }
        if arrays.iter().any(|(a, _)| a == name) {
            return Err(FrontError::new(
                span,
                format!("array `{name}` needs a subscript"),
            ));
        }
        if !carried.iter().any(|(c, _)| c == name) {
            let ty = declared_scalars.get(name).copied().unwrap_or(Ty::Real);
            carried.push((name.to_owned(), ty));
        }
        Ok(())
    })?;
    // Declared scalars that are never assigned are effectively parameters.
    for (&name, &ty) in &declared_scalars {
        if !carried.iter().any(|(c, _)| c == name) {
            params.push((name.to_owned(), ty));
        }
    }

    let info = LoopInfo {
        arrays,
        params,
        carried,
    };
    check_stmts(&def.body, def, &info)?;
    check_breaks(&def.body)?;
    Ok(info)
}

/// `break if` may appear at most once, at top level, as the last
/// statement — the post-tested-exit shape the lowering supports.
fn check_breaks(stmts: &[Stmt]) -> Result<(), FrontError> {
    fn no_breaks(stmts: &[Stmt]) -> Result<(), FrontError> {
        for s in stmts {
            match s {
                Stmt::BreakIf { .. } => {
                    return Err(FrontError::new(
                        Span::default(),
                        "`break if` must be the last top-level statement",
                    ))
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    no_breaks(then_body)?;
                    no_breaks(else_body)?;
                }
                Stmt::Assign { .. } => {}
            }
        }
        Ok(())
    }
    if let Some((last, rest)) = stmts.split_last() {
        no_breaks(rest)?;
        if let Stmt::If {
            then_body,
            else_body,
            ..
        } = last
        {
            no_breaks(then_body)?;
            no_breaks(else_body)?;
        }
    }
    Ok(())
}

fn collect_assigned(
    stmts: &[Stmt],
    sink: &mut impl FnMut(&str, Span) -> Result<(), FrontError>,
) -> Result<(), FrontError> {
    for stmt in stmts {
        match stmt {
            Stmt::Assign {
                target: LValue::Scalar(name),
                span,
                ..
            } => sink(name, *span)?,
            Stmt::Assign { .. } => {}
            Stmt::BreakIf { .. } => {}
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_assigned(then_body, sink)?;
                collect_assigned(else_body, sink)?;
            }
        }
    }
    Ok(())
}

fn check_stmts(stmts: &[Stmt], def: &LoopDef, info: &LoopInfo) -> Result<(), FrontError> {
    for stmt in stmts {
        match stmt {
            Stmt::Assign {
                target,
                value,
                span,
            } => {
                let want = match target {
                    LValue::Elem { array, .. } => {
                        info.array(array).map(|(_, ty)| ty).ok_or_else(|| {
                            FrontError::new(*span, format!("undeclared array `{array}`"))
                        })?
                    }
                    LValue::Scalar(name) => info
                        .carried(name)
                        .ok_or_else(|| FrontError::new(*span, format!("cannot assign `{name}`")))?,
                };
                let got = type_of(value, def, info)?;
                coerce(got, want, *span)?;
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let lt = type_of(&cond.lhs, def, info)?;
                let rt = type_of(&cond.rhs, def, info)?;
                unify(lt, rt, Span::default())?;
                check_stmts(then_body, def, info)?;
                check_stmts(else_body, def, info)?;
            }
            Stmt::BreakIf { cond } => {
                let lt = type_of(&cond.lhs, def, info)?;
                let rt = type_of(&cond.rhs, def, info)?;
                unify(lt, rt, Span::default())?;
            }
        }
    }
    Ok(())
}

/// The inferred type of an expression. Integer literals are polymorphic:
/// they may appear where a real is wanted (the lowering materialises them
/// as real constants).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ExprTy {
    /// Definitely real.
    Real,
    /// Definitely int.
    Int,
    /// An integer literal usable as either.
    IntLit,
}

fn coerce(got: ExprTy, want: Ty, span: Span) -> Result<(), FrontError> {
    match (got, want) {
        (ExprTy::Real, Ty::Real) | (ExprTy::Int, Ty::Int) | (ExprTy::IntLit, _) => Ok(()),
        (ExprTy::Real, Ty::Int) => Err(FrontError::new(span, "real value in int context")),
        (ExprTy::Int, Ty::Real) => Err(FrontError::new(span, "int value in real context")),
    }
}

fn unify(a: ExprTy, b: ExprTy, span: Span) -> Result<ExprTy, FrontError> {
    match (a, b) {
        (ExprTy::IntLit, other) | (other, ExprTy::IntLit) => Ok(other),
        (x, y) if x == y => Ok(x),
        _ => Err(FrontError::new(span, "mixed real/int operands")),
    }
}

pub(crate) fn type_of(expr: &Expr, def: &LoopDef, info: &LoopInfo) -> Result<ExprTy, FrontError> {
    match expr {
        Expr::Real(_) => Ok(ExprTy::Real),
        Expr::Int(_) => Ok(ExprTy::IntLit),
        Expr::Scalar(name, span) => {
            if name == &def.var {
                return Err(FrontError::new(
                    *span,
                    "the induction variable may only appear in subscripts",
                ));
            }
            info.param(name)
                .or_else(|| info.carried(name))
                .map(|ty| match ty {
                    Ty::Real => ExprTy::Real,
                    Ty::Int => ExprTy::Int,
                })
                .ok_or_else(|| FrontError::new(*span, format!("undeclared scalar `{name}`")))
        }
        Expr::Elem { array, span, .. } => info
            .array(array)
            .map(|(_, ty)| match ty {
                Ty::Real => ExprTy::Real,
                Ty::Int => ExprTy::Int,
            })
            .ok_or_else(|| FrontError::new(*span, format!("undeclared array `{array}`"))),
        Expr::Neg(inner) => type_of(inner, def, info),
        Expr::Bin(op, lhs, rhs) => {
            let lt = type_of(lhs, def, info)?;
            let rt = type_of(rhs, def, info)?;
            let ty = unify(lt, rt, Span::default())?;
            if *op == BinOp::Rem {
                if ty == ExprTy::Real {
                    return Err(FrontError::new(
                        Span::default(),
                        "`%` requires int operands",
                    ));
                }
                // `%` pins polymorphic literals to int: `2 % 3` is an int
                // value even in an otherwise-real context.
                return Ok(ExprTy::Int);
            }
            Ok(ty)
        }
        Expr::Sqrt(inner) => {
            let t = type_of(inner, def, info)?;
            if t == ExprTy::Int {
                return Err(FrontError::new(
                    Span::default(),
                    "`sqrt` requires a real operand",
                ));
            }
            Ok(ExprTy::Real)
        }
        Expr::MinMax { lhs, rhs, .. } => {
            let lt = type_of(lhs, def, info)?;
            let rt = type_of(rhs, def, info)?;
            unify(lt, rt, Span::default())
        }
        Expr::Abs(inner) => type_of(inner, def, info),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lex, parse};

    fn analyze_src(src: &str) -> Result<LoopInfo, FrontError> {
        let loops = parse(&lex(src).unwrap()).unwrap();
        analyze(&loops[0])
    }

    #[test]
    fn resolves_arrays_params_and_carried_scalars() {
        let info = analyze_src(
            "loop f(i = 1..n) {
                 real x[], y[];
                 param real alpha;
                 s = s + alpha * x[i];
                 y[i] = s;
             }",
        )
        .unwrap();
        assert_eq!(info.arrays.len(), 2);
        assert_eq!(info.param("alpha"), Some(Ty::Real));
        assert_eq!(info.param("n"), Some(Ty::Int), "bound param is implicit");
        assert_eq!(info.carried("s"), Some(Ty::Real));
    }

    #[test]
    fn scalar_declarations_fix_types() {
        let info = analyze_src(
            "loop f(i = 1..9) {
                 int k[];
                 int s;
                 s = s + k[i];
                 k[i] = s;
             }",
        )
        .unwrap();
        assert_eq!(info.carried("s"), Some(Ty::Int));
    }

    #[test]
    fn rejects_undeclared_names() {
        let err = analyze_src("loop f(i=1..9){ real x[]; x[i] = q; }").unwrap_err();
        assert!(err.message.contains("undeclared scalar `q`"), "{err}");
        let err = analyze_src("loop f(i=1..9){ real x[]; x[i] = z[i]; }").unwrap_err();
        assert!(err.message.contains("undeclared array `z`"), "{err}");
    }

    #[test]
    fn rejects_assignment_to_parameter() {
        let err = analyze_src("loop f(i=1..9){ param real a; real x[]; a = x[i]; }").unwrap_err();
        assert!(err.message.contains("cannot assign to parameter"), "{err}");
    }

    #[test]
    fn rejects_type_mixing() {
        let err =
            analyze_src("loop f(i=1..9){ real x[]; int k[]; x[i] = x[i-1] + k[i]; }").unwrap_err();
        assert!(err.message.contains("mixed real/int"), "{err}");
    }

    #[test]
    fn int_literals_are_polymorphic() {
        analyze_src("loop f(i=1..9){ real x[]; x[i] = x[i-1] + 2; }").unwrap();
        analyze_src("loop f(i=1..9){ int k[]; k[i] = k[i-1] + 2; }").unwrap();
    }

    #[test]
    fn rejects_real_modulo_and_int_sqrt() {
        let err = analyze_src("loop f(i=1..9){ real x[]; x[i] = x[i-1] % x[i-2]; }").unwrap_err();
        assert!(err.message.contains('%'), "{err}");
        let err = analyze_src("loop f(i=1..9){ int k[]; k[i] = sqrt(k[i-1]); }").unwrap_err();
        assert!(err.message.contains("sqrt"), "{err}");
    }

    #[test]
    fn rejects_induction_variable_in_expressions() {
        let err = analyze_src("loop f(i=1..9){ real x[]; x[i] = i; }").unwrap_err();
        assert!(err.message.contains("induction variable"), "{err}");
    }

    #[test]
    fn rejects_duplicate_declarations() {
        let err = analyze_src("loop f(i=1..9){ real x[]; int x[]; x[i] = 0; }").unwrap_err();
        assert!(err.message.contains("declared twice"), "{err}");
    }
}
