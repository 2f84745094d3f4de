//! The source-level reference interpreter: semantic ground truth.
//!
//! It reads only the loop's AST and sema's `LoopInfo` — never the
//! lowered IR, the schedule or any kernel — so a fault anywhere in the
//! lowering or the back end shows as a mismatch instead of being shared.
//! Everything that does not change between iterations is resolved once
//! per loop, before the first one: each array access becomes a position
//! in the flat memory, each scalar a slot, each integer literal its bits
//! for the type its context gives it, and each operator its operand type.
//! An iteration then only evaluates.

use lsms_front::{BinOp, CompiledLoop, Cond, Expr, LValue, RelOp, Stmt, Ty};

use crate::harness::{Inputs, Memory};
use crate::Workspace;

/// Interprets the loop's AST over the workspace, returning the final
/// array contents (same shape as `workspace.arrays`).
///
/// Semantics are chosen to match the lowered IR exactly:
///
/// * `-x` evaluates as `0.0 - x` (or `0 - x`), matching the `FSub`
///   lowering (so `-0.0` artifacts agree);
/// * integer arithmetic wraps; integer division or remainder by zero
///   yields zero;
/// * conditional branches evaluate only the taken side's *assignments*,
///   but arithmetic is pure, so speculative evaluation in the pipeline
///   cannot diverge.
///
/// # Panics
///
/// Panics if an array access falls outside the workspace's arrays — the
/// harness sizes them to make that impossible.
pub fn run_reference(compiled: &CompiledLoop, workspace: &Workspace) -> Vec<Vec<u64>> {
    let mut memory = Memory::of_workspace(workspace);
    let mut inputs = Inputs::of_workspace(compiled, workspace);
    Reference::new(compiled, &memory.starts).run(compiled, &mut inputs, &mut memory.cells);
    memory.into_arrays()
}

/// One expression node; children are indices into [`Reference::nodes`].
#[derive(Clone, Copy, Debug)]
enum Node {
    /// A literal, already in its context's type.
    Const(u64),
    /// A parameter or carried scalar.
    Slot(u32),
    /// `cells[start + i + offset]`, within an array of `len` cells.
    Elem {
        start: usize,
        len: usize,
        offset: i64,
    },
    Neg {
        ty: Ty,
        x: u32,
    },
    Bin {
        op: BinOp,
        ty: Ty,
        l: u32,
        r: u32,
    },
    Sqrt(u32),
    MinMax {
        max: bool,
        ty: Ty,
        l: u32,
        r: u32,
    },
    Abs {
        ty: Ty,
        x: u32,
    },
}

/// A comparison with its operands resolved.
#[derive(Clone, Copy, Debug)]
struct Test {
    op: RelOp,
    ty: Ty,
    lhs: u32,
    rhs: u32,
}

/// Where an assignment stores.
#[derive(Clone, Copy, Debug)]
enum Target {
    Elem {
        start: usize,
        len: usize,
        offset: i64,
    },
    Slot(u32),
}

/// One statement. The steps of an `If` follow it: `then_len` steps of
/// the taken side, then `else_len` of the other.
#[derive(Clone, Copy, Debug)]
enum Step {
    Assign {
        target: Target,
        value: u32,
    },
    If {
        test: Test,
        then_len: u32,
        else_len: u32,
    },
    BreakIf(Test),
}

/// A loop's body with every name and type resolved: the reference
/// interpreter's program.
///
/// Scalar slots are `LoopInfo::params` followed by `LoopInfo::carried`,
/// the order of [`Inputs::scalars`].
#[derive(Clone, Debug)]
pub(crate) struct Reference {
    nodes: Vec<Node>,
    steps: Vec<Step>,
}

impl Reference {
    /// Resolves `compiled`'s body against a flat memory whose array `a`
    /// occupies `starts[a] .. starts[a + 1]`.
    pub(crate) fn new(compiled: &CompiledLoop, starts: &[usize]) -> Self {
        let (mut nodes, mut steps) = (0, 0);
        visit(&compiled.def.body, &mut |_| nodes += 1, &mut || steps += 1);
        let mut resolver = Resolver {
            compiled,
            starts,
            program: Reference {
                nodes: Vec::with_capacity(nodes),
                steps: Vec::with_capacity(steps),
            },
        };
        resolver.stmts(&compiled.def.body);
        resolver.program
    }

    /// Runs every iteration over `cells` in place, starting from the
    /// scalar inputs, which it leaves holding the carried scalars' final
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if an array access falls outside its array, or a scalar is
    /// read that the inputs lack and no assignment has set yet.
    pub(crate) fn run(&self, compiled: &CompiledLoop, inputs: &mut Inputs, cells: &mut [u64]) {
        let mut state = State {
            program: self,
            compiled,
            cells,
            slots: &mut inputs.scalars,
            i: 0,
        };
        for i in inputs.lo..inputs.lo + inputs.trip as i64 {
            state.i = i;
            if state.exec(&self.steps) {
                // Post-tested exit: stop starting new iterations.
                break;
            }
        }
    }
}

/// Calls `expr` on every expression node and `stmt` on every statement.
fn visit(stmts: &[Stmt], expr: &mut impl FnMut(&Expr), stmt: &mut impl FnMut()) {
    fn walk(e: &Expr, f: &mut impl FnMut(&Expr)) {
        f(e);
        match e {
            Expr::Neg(x) | Expr::Sqrt(x) | Expr::Abs(x) => walk(x, f),
            Expr::Bin(_, l, r) | Expr::MinMax { lhs: l, rhs: r, .. } => {
                walk(l, f);
                walk(r, f);
            }
            Expr::Real(_) | Expr::Int(_) | Expr::Scalar(..) | Expr::Elem { .. } => {}
        }
    }
    for s in stmts {
        stmt();
        match s {
            Stmt::Assign { value, .. } => walk(value, expr),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                walk(&cond.lhs, expr);
                walk(&cond.rhs, expr);
                visit(then_body, expr, stmt);
                visit(else_body, expr, stmt);
            }
            Stmt::BreakIf { cond } => {
                walk(&cond.lhs, expr);
                walk(&cond.rhs, expr);
            }
        }
    }
}

struct Resolver<'a> {
    compiled: &'a CompiledLoop,
    starts: &'a [usize],
    program: Reference,
}

impl Resolver<'_> {
    fn stmts(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::Assign { target, value, .. } => {
                    let info = &self.compiled.info;
                    let (target, want) = match target {
                        LValue::Elem { array, offset } => {
                            let (a, ty) = info.array(array).expect("sema checked");
                            let (start, len) = self.span(a);
                            (
                                Target::Elem {
                                    start,
                                    len,
                                    offset: *offset,
                                },
                                ty,
                            )
                        }
                        LValue::Scalar(name) => (
                            Target::Slot(self.slot(name)),
                            info.carried(name).unwrap_or(Ty::Real),
                        ),
                    };
                    let value = self.expr(value, want);
                    self.program.steps.push(Step::Assign { target, value });
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let test = self.test(cond);
                    let at = self.program.steps.len();
                    self.program.steps.push(Step::If {
                        test,
                        then_len: 0,
                        else_len: 0,
                    });
                    self.stmts(then_body);
                    let mid = self.program.steps.len();
                    self.stmts(else_body);
                    let end = self.program.steps.len();
                    self.program.steps[at] = Step::If {
                        test,
                        then_len: (mid - at - 1) as u32,
                        else_len: (end - mid) as u32,
                    };
                }
                Stmt::BreakIf { cond } => {
                    let test = self.test(cond);
                    self.program.steps.push(Step::BreakIf(test));
                }
            }
        }
    }

    /// First operand's definite type, else the second's, else real — the
    /// same rule the lowering applies.
    fn test(&mut self, cond: &Cond) -> Test {
        let ty = self
            .definite_type(&cond.lhs)
            .or_else(|| self.definite_type(&cond.rhs))
            .unwrap_or(Ty::Real);
        Test {
            op: cond.op,
            ty,
            lhs: self.expr(&cond.lhs, ty),
            rhs: self.expr(&cond.rhs, ty),
        }
    }

    /// The node evaluating `expr` where its context wants `want`.
    fn expr(&mut self, expr: &Expr, want: Ty) -> u32 {
        let node = match expr {
            Expr::Real(x) => Node::Const(x.to_bits()),
            Expr::Int(x) => Node::Const(match want {
                Ty::Real => (*x as f64).to_bits(),
                Ty::Int => *x as u64,
            }),
            Expr::Scalar(name, _) => Node::Slot(self.slot(name)),
            Expr::Elem { array, offset, .. } => {
                let (a, _) = self.compiled.info.array(array).expect("sema checked");
                let (start, len) = self.span(a);
                Node::Elem {
                    start,
                    len,
                    offset: *offset,
                }
            }
            Expr::Neg(inner) => {
                let ty = self.expr_type(inner, want);
                Node::Neg {
                    ty,
                    x: self.expr(inner, ty),
                }
            }
            Expr::Bin(op, lhs, rhs) => {
                let ty = if *op == BinOp::Rem {
                    Ty::Int
                } else {
                    self.expr_type(expr, want)
                };
                Node::Bin {
                    op: *op,
                    ty,
                    l: self.expr(lhs, ty),
                    r: self.expr(rhs, ty),
                }
            }
            Expr::Sqrt(inner) => Node::Sqrt(self.expr(inner, Ty::Real)),
            Expr::MinMax { is_max, lhs, rhs } => {
                let ty = self.expr_type(expr, want);
                Node::MinMax {
                    max: *is_max,
                    ty,
                    l: self.expr(lhs, ty),
                    r: self.expr(rhs, ty),
                }
            }
            Expr::Abs(inner) => {
                let ty = self.expr_type(inner, want);
                Node::Abs {
                    ty,
                    x: self.expr(inner, ty),
                }
            }
        };
        self.program.nodes.push(node);
        (self.program.nodes.len() - 1) as u32
    }

    /// The definite type of an expression, or `None` when it consists
    /// only of polymorphic integer literals. Mirrors `sema::type_of`
    /// exactly.
    fn definite_type(&self, expr: &Expr) -> Option<Ty> {
        let info = &self.compiled.info;
        match expr {
            Expr::Real(_) => Some(Ty::Real),
            Expr::Int(_) => None,
            Expr::Scalar(name, _) => info.param(name).or_else(|| info.carried(name)),
            Expr::Elem { array, .. } => info.array(array).map(|(_, t)| t),
            Expr::Neg(x) => self.definite_type(x),
            Expr::Bin(op, l, r) => {
                if *op == BinOp::Rem {
                    return Some(Ty::Int);
                }
                self.definite_type(l).or_else(|| self.definite_type(r))
            }
            Expr::Sqrt(_) => Some(Ty::Real),
            Expr::MinMax { lhs, rhs, .. } => {
                self.definite_type(lhs).or_else(|| self.definite_type(rhs))
            }
            Expr::Abs(x) => self.definite_type(x),
        }
    }

    /// The statically resolved type of an expression, defaulting
    /// literal-only subtrees to `want`.
    fn expr_type(&self, expr: &Expr, want: Ty) -> Ty {
        self.definite_type(expr).unwrap_or(want)
    }

    /// The slot of a parameter or carried scalar.
    fn slot(&self, name: &str) -> u32 {
        let info = &self.compiled.info;
        let slot = match info.carried.iter().position(|(n, _)| n == name) {
            Some(c) => info.params.len() + c,
            None => info
                .params
                .iter()
                .position(|(n, _)| n == name)
                .expect("sema resolved every scalar"),
        };
        slot as u32
    }

    /// Array `a`'s first cell and length in the flat memory.
    fn span(&self, a: usize) -> (usize, usize) {
        (self.starts[a], self.starts[a + 1] - self.starts[a])
    }
}

/// One run's mutable state.
struct State<'a> {
    program: &'a Reference,
    compiled: &'a CompiledLoop,
    cells: &'a mut [u64],
    slots: &'a mut [Option<u64>],
    /// The current iteration's index.
    i: i64,
}

impl State<'_> {
    /// Executes `steps`; true when a `break if` fired.
    fn exec(&mut self, steps: &[Step]) -> bool {
        let mut at = 0;
        while at < steps.len() {
            match steps[at] {
                Step::Assign { target, value } => {
                    let bits = self.eval(value);
                    match target {
                        Target::Elem { start, len, offset } => {
                            let elem = self.elem(start, len, offset);
                            self.cells[elem] = bits;
                        }
                        Target::Slot(s) => self.slots[s as usize] = Some(bits),
                    }
                    at += 1;
                }
                Step::If {
                    test,
                    then_len,
                    else_len,
                } => {
                    let then_at = at + 1;
                    let else_at = then_at + then_len as usize;
                    let end = else_at + else_len as usize;
                    let body = if self.test(test) {
                        &steps[then_at..else_at]
                    } else {
                        &steps[else_at..end]
                    };
                    if self.exec(body) {
                        return true;
                    }
                    at = end;
                }
                Step::BreakIf(test) => {
                    if self.test(test) {
                        return true;
                    }
                    at += 1;
                }
            }
        }
        false
    }

    fn test(&mut self, test: Test) -> bool {
        let a = self.eval(test.lhs);
        let b = self.eval(test.rhs);
        compare(test.op, test.ty, a, b)
    }

    /// The flat position of element `i + offset` of the array at `start`.
    fn elem(&self, start: usize, len: usize, offset: i64) -> usize {
        let elem = usize::try_from(self.i + offset).expect("negative array index");
        assert!(elem < len, "array index {elem} out of bounds ({len} cells)");
        start + elem
    }

    fn eval(&mut self, node: u32) -> u64 {
        match self.program.nodes[node as usize] {
            Node::Const(bits) => bits,
            Node::Slot(s) => self.slots[s as usize].unwrap_or_else(|| {
                let info = &self.compiled.info;
                let name = info
                    .params
                    .iter()
                    .chain(&info.carried)
                    .nth(s as usize)
                    .map_or("?", |(n, _)| n.as_str());
                panic!("parameter `{name}` missing from workspace")
            }),
            Node::Elem { start, len, offset } => self.cells[self.elem(start, len, offset)],
            Node::Neg { ty, x } => {
                let x = self.eval(x);
                arith(BinOp::Sub, ty, zero(ty), x)
            }
            Node::Bin { op, ty, l, r } => {
                let a = self.eval(l);
                let b = self.eval(r);
                arith(op, ty, a, b)
            }
            Node::Sqrt(x) => f64::from_bits(self.eval(x)).sqrt().to_bits(),
            Node::MinMax { max, ty, l, r } => {
                // Matches the select lowering exactly: min = (a < b) ? a :
                // b, max = (a > b) ? a : b — so NaN and -0.0 behaviour
                // agree.
                let a = self.eval(l);
                let b = self.eval(r);
                let op = if max { RelOp::Gt } else { RelOp::Lt };
                if compare(op, ty, a, b) {
                    a
                } else {
                    b
                }
            }
            Node::Abs { ty, x } => {
                // abs(x) = (x < 0) ? 0 - x : x, matching the lowering.
                let x = self.eval(x);
                if compare(RelOp::Lt, ty, x, zero(ty)) {
                    arith(BinOp::Sub, ty, zero(ty), x)
                } else {
                    x
                }
            }
        }
    }
}

fn zero(ty: Ty) -> u64 {
    match ty {
        Ty::Real => 0f64.to_bits(),
        Ty::Int => 0u64,
    }
}

/// Shared comparison semantics for both engines.
pub(crate) fn compare(op: RelOp, ty: Ty, a: u64, b: u64) -> bool {
    match ty {
        Ty::Real => {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            match op {
                RelOp::Eq => x == y,
                RelOp::Ne => x != y,
                RelOp::Lt => x < y,
                RelOp::Le => x <= y,
                RelOp::Gt => x > y,
                RelOp::Ge => x >= y,
            }
        }
        Ty::Int => {
            let (x, y) = (a as i64, b as i64);
            match op {
                RelOp::Eq => x == y,
                RelOp::Ne => x != y,
                RelOp::Lt => x < y,
                RelOp::Le => x <= y,
                RelOp::Gt => x > y,
                RelOp::Ge => x >= y,
            }
        }
    }
}

/// Shared binary-arithmetic semantics for both engines.
pub(crate) fn arith(op: BinOp, ty: Ty, a: u64, b: u64) -> u64 {
    match ty {
        Ty::Real => {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            let r = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Rem => unreachable!("sema rejects real %"),
            };
            r.to_bits()
        }
        Ty::Int => {
            let (x, y) = (a as i64, b as i64);
            let r = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_div(y)
                    }
                }
                BinOp::Rem => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_rem(y)
                    }
                }
            };
            r as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_front::compile;
    use std::collections::BTreeMap;

    fn ws(arrays: Vec<Vec<f64>>, trip: u64, lo: i64) -> Workspace {
        Workspace {
            arrays: arrays
                .into_iter()
                .map(|a| a.into_iter().map(f64::to_bits).collect())
                .collect(),
            params: BTreeMap::new(),
            scalar_inits: BTreeMap::new(),
            lo,
            trip,
        }
    }

    fn floats(bits: &[u64]) -> Vec<f64> {
        bits.iter().map(|&b| f64::from_bits(b)).collect()
    }

    #[test]
    fn interprets_the_sample_recurrence() {
        let unit = compile(
            "loop sample(i = 2..n) {
                 real x[], y[];
                 x[i] = x[i-1] + y[i-2];
                 y[i] = y[i-1] + x[i-2];
             }",
        )
        .unwrap();
        let mut w = ws(vec![vec![1.0; 6], vec![2.0; 6]], 4, 2);
        w.params.insert("n".into(), 5);
        let out = run_reference(&unit.loops[0], &w);
        let x = floats(&out[0]);
        // x[2] = x[1] + y[0] = 1 + 2 = 3; y[2] = y[1] + x[0] = 3;
        // x[3] = x[2] + y[1] = 5; y[3] = y[2]+x[1] = 4;
        // x[4] = 5 + 3 = 8; y[4] = 4 + 3 = 7; x[5] = 8+4=12.
        assert_eq!(x[2], 3.0);
        assert_eq!(x[3], 5.0);
        assert_eq!(x[4], 8.0);
        assert_eq!(x[5], 12.0);
    }

    #[test]
    fn interprets_conditionals_and_scalars() {
        let unit = compile(
            "loop m(i = 0..n) {
                 real x[], y[];
                 real s;
                 if (x[i] > s) { s = x[i]; }
                 y[i] = s;
             }",
        )
        .unwrap();
        let mut w = ws(vec![vec![1.0, 5.0, 3.0, 9.0], vec![0.0; 4]], 4, 0);
        w.scalar_inits.insert("s".into(), 2f64.to_bits());
        let out = run_reference(&unit.loops[0], &w);
        assert_eq!(floats(&out[1]), vec![2.0, 5.0, 5.0, 9.0]);
    }

    #[test]
    fn integer_semantics_wrap_and_guard_zero_division() {
        assert_eq!(arith(BinOp::Div, Ty::Int, 7u64, 0u64), 0);
        assert_eq!(arith(BinOp::Rem, Ty::Int, 7u64, 0u64), 0);
        assert_eq!(
            arith(BinOp::Add, Ty::Int, i64::MAX as u64, 1u64) as i64,
            i64::MIN
        );
    }

    #[test]
    fn negation_matches_sub_from_zero() {
        // -0.0 must come out as 0.0 - 0.0 == 0.0, not -0.0.
        let unit = compile("loop n(i = 0..4) { real x[], y[]; y[i] = -x[i]; }").unwrap();
        let w = ws(vec![vec![0.0; 4], vec![7.0; 4]], 4, 0);
        let out = run_reference(&unit.loops[0], &w);
        assert_eq!(out[1][0], 0f64.to_bits(), "0.0 - 0.0 is +0.0");
    }
}
