//! Lowering: if-conversion, load/store elimination, address generation,
//! and dependence construction.
//!
//! The lowering walks statements in order under a *predicate context*
//! (§2.2): entering `if (c)` computes a predicate and guards the branch's
//! operations with it (`PredAnd`/`PredNot` compose nested and `else`
//! contexts); scalar assignments under a predicate merge with a `Select`
//! so every value keeps one SSA definition. Two placeholder mechanisms
//! resolve once the whole body has been seen:
//!
//! * **carried scalars** — reads before (re)definition use a placeholder
//!   that is rewritten to the scalar's final value at distance ω + 1;
//! * **eliminated loads** (§2.3) — a load of `x[i − d]` from an array the
//!   loop stores exactly once, unconditionally, at `x[i + s]` (with
//!   `d = s − load offset ≥ 1`) never touches memory: it is rewritten to
//!   the stored value at distance ω + d, exactly the optimization that
//!   makes values live longer than II and motivates rotating register
//!   files.
//!
//! Addressing: a shared induction `iv8 = iv8 +(ω=1) stride8` plus one
//! `AddrAdd(iv8, base_ref)` per distinct array reference, with
//! `base_ref = base(array) + 8·offset` constants in the GPR file.

use std::collections::BTreeMap;
use std::sync::Arc;

use lsms_ir::{
    flat_adjacency, DepKind, DepVia, LoopBody, LoopBuilder, LoopMeta, OpId, OpKind, ValueId,
    ValueName, ValueType,
};

use crate::ast::{BinOp, Bound, Cond, Expr, LValue, LoopDef, RelOp, Stmt, Ty};
use crate::sema::LoopInfo;
use crate::FrontError;

/// How to materialise a loop-invariant (GPR) value before entering the
/// loop; `lsms-sim` evaluates these bindings.
#[derive(Clone, Debug, PartialEq)]
pub enum InvariantSource {
    /// A real constant from the source text.
    ConstReal(f64),
    /// An integer constant from the source text.
    ConstInt(i64),
    /// A runtime parameter by name.
    Param(String),
    /// `base(array) + 8·offset`: the per-reference address base.
    RefBase {
        /// Array index into [`LoopInfo::arrays`].
        array: usize,
        /// Subscript offset of the reference.
        offset: i64,
    },
    /// The element stride (8 bytes).
    Stride,
}

/// Where the pre-loop *instances* of a loop-variant value come from:
/// instance `j < 0` of a value is read whenever a use's ω exceeds the
/// iteration number, so the simulator needs a source for it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InitialSource {
    /// Instance `j` is the initial memory content of
    /// `array[lo + j + offset]`.
    ArrayElem {
        /// Array index into [`LoopInfo::arrays`].
        array: usize,
        /// The *store* offset of the value's defining reference.
        offset: i64,
    },
    /// Instance `j < 0` is the user-supplied initial value of the carried
    /// scalar.
    Scalar(String),
    /// Instance `j` is `8 · (lo + j)` — the shared index induction.
    Index8,
    /// Instance `j < 0` is the constant true predicate — used to seed the
    /// early-exit `live` chain (no exit has fired before the loop).
    PredTrue,
}

/// One fully lowered loop: the scheduler-ready body plus the semantic
/// bindings the simulator needs.
#[derive(Clone, Debug)]
pub struct CompiledLoop {
    /// The branch-free SSA body with its dependence graph.
    pub body: LoopBody,
    /// The source AST (retained for the reference interpreter).
    pub def: LoopDef,
    /// Resolved symbols.
    pub info: LoopInfo,
    /// How to compute each loop-invariant value before the loop, in
    /// value order.
    pub invariants: Vec<(ValueId, InvariantSource)>,
    /// Pre-loop instance sources for loop-variant values.
    pub initials: Vec<(ValueId, InitialSource)>,
}

/// All loops compiled from one source text.
#[derive(Clone, Debug)]
pub struct CompiledUnit {
    /// The loops, in source order.
    pub loops: Vec<CompiledLoop>,
}

/// A value reference with its iteration distance.
#[derive(Clone, Copy, Debug)]
struct VRef {
    value: ValueId,
    omega: u32,
}

impl VRef {
    fn here(value: ValueId) -> Self {
        Self { value, omega: 0 }
    }

    fn pair(self) -> (ValueId, u32) {
        (self.value, self.omega)
    }
}

/// A static memory reference that survived elimination.
#[derive(Clone, Debug)]
struct MemRef {
    op: OpId,
    array: usize,
    offset: i64,
    is_store: bool,
    seq: usize,
}

/// An array stored exactly once, unconditionally: its loads at a lower
/// offset are eliminated (§2.3).
#[derive(Clone, Copy, Debug)]
struct Eligible {
    /// The offset of the array's one store.
    store_offset: i64,
    /// The value that store writes and the store itself, once lowered.
    /// Load elimination resolves against the store's *current* value
    /// input, which earlier placeholder rewrites may have redirected.
    stored: Option<(ValueId, OpId)>,
}

/// The lowering walk. Names borrow from the loop's AST and symbol
/// tables (`'a`), so scalar and parameter lookups copy no strings.
struct Lowerer<'a> {
    b: LoopBuilder,
    def: &'a LoopDef,
    info: &'a LoopInfo,
    invariants: Vec<(ValueId, InvariantSource)>,
    initials: Vec<(ValueId, InitialSource)>,
    const_cache: BTreeMap<(u64, bool), ValueId>,
    params: BTreeMap<&'a str, ValueId>,
    /// The shared `iv8` induction value, created on first array reference.
    iv8: Option<ValueId>,
    /// Per-(array, offset) address value.
    ref_addrs: BTreeMap<(usize, i64), ValueId>,
    /// Per-(array, offset) load CSE cache, invalidated on stores.
    load_cache: BTreeMap<(usize, i64), ValueId>,
    /// Per array (index into [`LoopInfo::arrays`]): its elimination
    /// facts, if it is elimination-eligible.
    eligible: Vec<Option<Eligible>>,
    /// Eliminated-load placeholders: (array, load offset) -> placeholder.
    elim_placeholders: BTreeMap<(usize, i64), ValueId>,
    /// Carried-scalar placeholders and current environment.
    carry_placeholders: BTreeMap<&'a str, ValueId>,
    env: BTreeMap<&'a str, ValueId>,
    /// Emitted loads/stores for memory dependence analysis.
    mem_refs: Vec<MemRef>,
    /// Early exit (`break if`): the per-iteration `live` predicate, its
    /// carried placeholders, the exit condition's negation once seen, and
    /// a cache of `live ∧ ctx` compositions.
    live_now: Option<ValueId>,
    live_placeholders: Option<(ValueId, ValueId)>,
    exit_not_cond: Option<ValueId>,
    live_guard_cache: BTreeMap<Option<ValueId>, ValueId>,
    /// Monotone memory-reference counter: same-element (ω = 0) arcs point
    /// from the earlier reference to the later one in emission order,
    /// which follows execution order.
    seq: usize,
}

/// Lowers one analyzed loop to IR.
///
/// The walk borrows `def`, which then moves into the result unchanged.
///
/// # Errors
///
/// Returns a [`FrontError`] for constructs that pass parsing but cannot be
/// lowered (none currently — the signature leaves room for lowering
/// limits such as op-count caps).
pub fn lower(def: LoopDef, info: &LoopInfo) -> Result<CompiledLoop, FrontError> {
    let Lowerer {
        b,
        invariants,
        initials,
        ..
    } = Lowerer::new(&def, info).run()?;
    let body = b.finish_with_auto_flow();
    debug_assert_eq!(body.validate(), Ok(()));
    Ok(CompiledLoop {
        body,
        def,
        info: info.clone(),
        invariants,
        initials,
    })
}

impl<'a> Lowerer<'a> {
    fn new(def: &'a LoopDef, info: &'a LoopInfo) -> Self {
        Lowerer {
            b: LoopBuilder::new(def.name.as_str()),
            def,
            info,
            invariants: Vec::new(),
            initials: Vec::new(),
            const_cache: BTreeMap::new(),
            params: BTreeMap::new(),
            iv8: None,
            ref_addrs: BTreeMap::new(),
            load_cache: BTreeMap::new(),
            eligible: eligible_arrays(def, info),
            elim_placeholders: BTreeMap::new(),
            carry_placeholders: BTreeMap::new(),
            env: BTreeMap::new(),
            mem_refs: Vec::new(),
            live_now: None,
            live_placeholders: None,
            exit_not_cond: None,
            live_guard_cache: BTreeMap::new(),
            seq: 0,
        }
    }

    /// Lowers the whole body; the builder then holds every op and arc
    /// except the implied register flow arcs.
    fn run(mut self) -> Result<Self, FrontError> {
        let def = self.def;
        // Early exit: materialise the carried `live` predicate up front so
        // every store can be guarded by it. live(i) = live(i-1) ∧ ¬exit(i-1).
        if def.body.iter().any(|s| matches!(s, Stmt::BreakIf { .. })) {
            let pl_live = self.b.named_value(ValueType::Pred, "live.in");
            let pl_notc = self.b.named_value(ValueType::Pred, "noexit.in");
            let live = self.b.named_value(ValueType::Pred, "live");
            self.b.op(OpKind::PredAnd, &[pl_live, pl_notc], Some(live));
            self.live_now = Some(live);
            self.live_placeholders = Some((pl_live, pl_notc));
        }
        for (name, _) in &self.info.carried {
            let ty = self.scalar_type(name);
            let placeholder = self.b.named_value(ty, format!("{name}.in"));
            self.carry_placeholders.insert(name, placeholder);
            self.env.insert(name, placeholder);
        }
        for stmt in &def.body {
            self.stmt(stmt, None)?;
        }
        self.resolve_carries();
        self.resolve_eliminated_loads();
        self.resolve_exit();
        self.memory_deps();
        // The loop-closing branch (§2.1).
        self.b.op(OpKind::Brtop, &[], None);
        let min_trip = match (&def.lo, &def.hi) {
            (Bound::Const(a), Bound::Const(b)) => Some((b - a + 1).max(0) as u64),
            _ => None,
        };
        self.b.meta(LoopMeta {
            basic_blocks: def.basic_blocks(),
            min_trip_count: min_trip,
        });
        Ok(self)
    }

    fn scalar_type(&self, name: &str) -> ValueType {
        value_type(self.info.carried(name).unwrap_or(Ty::Real))
    }

    fn constant(&mut self, ty: ValueType, bits: u64, source: InvariantSource) -> ValueId {
        let key = (bits, ty == ValueType::Float);
        if let Some(&v) = self.const_cache.get(&key) {
            return v;
        }
        let name = match source {
            InvariantSource::ConstReal(x) => ValueName::Real(x.to_bits()),
            InvariantSource::ConstInt(x) => ValueName::Int(x),
            _ => ValueName::from("c"),
        };
        let v = self.b.invariant(ty, name);
        self.invariants.push((v, source));
        self.const_cache.insert(key, v);
        v
    }

    fn real_const(&mut self, x: f64) -> ValueId {
        self.constant(ValueType::Float, x.to_bits(), InvariantSource::ConstReal(x))
    }

    fn int_const(&mut self, x: i64) -> ValueId {
        self.constant(ValueType::Int, x as u64, InvariantSource::ConstInt(x))
    }

    fn zero(&mut self, ty: Ty) -> ValueId {
        match ty {
            Ty::Real => self.real_const(0.0),
            Ty::Int => self.int_const(0),
        }
    }

    fn param(&mut self, name: &'a str) -> ValueId {
        if let Some(&v) = self.params.get(name) {
            return v;
        }
        let ty = value_type(self.info.param(name).unwrap_or(Ty::Real));
        let v = self.b.invariant(ty, name);
        self.invariants
            .push((v, InvariantSource::Param(name.to_owned())));
        self.params.insert(name, v);
        v
    }

    /// The shared index induction `iv8(i) = iv8(i−1) + 8`.
    fn iv8(&mut self) -> ValueId {
        if let Some(v) = self.iv8 {
            return v;
        }
        let stride = self.b.invariant(ValueType::Addr, "stride8");
        self.invariants.push((stride, InvariantSource::Stride));
        let iv = self.b.named_value(ValueType::Addr, "iv8");
        self.b
            .op_with_omegas(OpKind::AddrAdd, &[(iv, 1), (stride, 0)], Some(iv), None);
        self.initials.push((iv, InitialSource::Index8));
        self.iv8 = Some(iv);
        iv
    }

    /// The address of reference `array[i + offset]`:
    /// `AddrAdd(iv8, base + 8·offset)`, one per distinct reference.
    fn ref_addr(&mut self, array: usize, offset: i64) -> ValueId {
        if let Some(&v) = self.ref_addrs.get(&(array, offset)) {
            return v;
        }
        let iv = self.iv8();
        let base = self.b.invariant(
            ValueType::Addr,
            ValueName::RefBase(self.array_name(array), offset),
        );
        self.invariants
            .push((base, InvariantSource::RefBase { array, offset }));
        let addr = self.b.named_value(
            ValueType::Addr,
            ValueName::RefAddr(self.array_name(array), offset),
        );
        self.b.op(OpKind::AddrAdd, &[iv, base], Some(addr));
        self.ref_addrs.insert((array, offset), addr);
        addr
    }

    /// The name of `array`, shared with every value that names it.
    fn array_name(&self, array: usize) -> Arc<String> {
        Arc::clone(&self.info.arrays[array].0)
    }

    /// Reads `array[i + offset]`, applying load/store elimination, the
    /// same-iteration forward, load CSE, or a real load.
    fn read_elem(&mut self, array: usize, offset: i64) -> VRef {
        let ty = value_type(self.info.arrays[array].1);
        if let Some(eligible) = self.eligible[array] {
            let d = eligible.store_offset - offset;
            if d >= 1 {
                let name = &self.info.arrays[array].0;
                let placeholder = *self
                    .elim_placeholders
                    .entry((array, offset))
                    .or_insert_with(|| {
                        let name = ValueName::Elim(Arc::clone(name), offset);
                        self.b.named_value(ty, name)
                    });
                return VRef::here(placeholder);
            }
            if d == 0 {
                if let Some((v, _)) = eligible.stored {
                    return VRef::here(v); // forwarded within the iteration
                }
            }
        }
        if let Some(&v) = self.load_cache.get(&(array, offset)) {
            return VRef::here(v);
        }
        let addr = self.ref_addr(array, offset);
        let v = self
            .b
            .named_value(ty, ValueName::Elem(self.array_name(array), offset));
        let op = self.b.op(OpKind::Load, &[addr], Some(v));
        self.seq += 1;
        self.mem_refs.push(MemRef {
            op,
            array,
            offset,
            is_store: false,
            seq: self.seq,
        });
        self.load_cache.insert((array, offset), v);
        VRef::here(v)
    }

    /// Lowers `expr` in a context of type `ty`.
    ///
    /// `ty` is the only type information the walk needs: sema accepted
    /// the loop, so a subexpression with a definite type has exactly the
    /// type its context passes down, and only polymorphic integer
    /// literals take the context type. `%` (int only) and `sqrt` (real
    /// only) fix their operands' context. A literal-only real subtree
    /// becomes one constant (see [`crate::fold`]).
    fn expr(&mut self, expr: &'a Expr, ty: Ty, pred: Option<ValueId>) -> Result<VRef, FrontError> {
        if let Some(x) = crate::fold::eval_real_literal(expr) {
            return Ok(VRef::here(self.real_const(x)));
        }
        match expr {
            Expr::Real(x) => Ok(VRef::here(self.real_const(*x))),
            Expr::Int(x) => Ok(VRef::here(match ty {
                Ty::Real => self.real_const(*x as f64),
                Ty::Int => self.int_const(*x),
            })),
            Expr::Scalar(name, span) => {
                if self.info.param(name).is_some() && self.info.carried(name).is_none() {
                    Ok(VRef::here(self.param(name)))
                } else if let Some(&v) = self.env.get(name.as_str()) {
                    Ok(VRef::here(v))
                } else {
                    Err(FrontError::new(
                        *span,
                        format!("undeclared scalar `{name}`"),
                    ))
                }
            }
            Expr::Elem {
                array,
                offset,
                span,
            } => {
                let (idx, _) = self
                    .info
                    .array(array)
                    .ok_or_else(|| FrontError::new(*span, format!("undeclared array `{array}`")))?;
                Ok(self.read_elem(idx, *offset))
            }
            Expr::Neg(inner) => {
                let zero = self.zero(ty);
                let x = self.expr(inner, ty, pred)?;
                Ok(self.emit(sub_kind(ty), &[(zero, 0), x.pair()], ty, pred))
            }
            Expr::Bin(op, lhs, rhs) => {
                let ty = if *op == BinOp::Rem { Ty::Int } else { ty };
                let a = self.expr(lhs, ty, pred)?;
                let c = self.expr(rhs, ty, pred)?;
                let kind = match (op, ty) {
                    (BinOp::Add, Ty::Real) => OpKind::FAdd,
                    (BinOp::Add, Ty::Int) => OpKind::IntAdd,
                    (BinOp::Sub, _) => sub_kind(ty),
                    (BinOp::Mul, Ty::Real) => OpKind::FMul,
                    (BinOp::Mul, Ty::Int) => OpKind::IntMul,
                    (BinOp::Div, Ty::Real) => OpKind::FDiv,
                    (BinOp::Div, Ty::Int) => OpKind::IntDiv,
                    (BinOp::Rem, _) => OpKind::IntMod,
                };
                Ok(self.emit(kind, &[a.pair(), c.pair()], ty, pred))
            }
            Expr::Sqrt(inner) => {
                let x = self.expr(inner, Ty::Real, pred)?;
                Ok(self.emit(OpKind::FSqrt, &[x.pair()], Ty::Real, pred))
            }
            Expr::MinMax { is_max, lhs, rhs } => {
                // min(a,b) = select(a < b, a, b); max swaps the compare.
                let a = self.expr(lhs, ty, pred)?;
                let c = self.expr(rhs, ty, pred)?;
                let p = self.b.new_value(ValueType::Pred);
                let cmp = if *is_max {
                    OpKind::CmpGt
                } else {
                    OpKind::CmpLt
                };
                self.b
                    .op_with_omegas(cmp, &[a.pair(), c.pair()], Some(p), pred);
                Ok(self.emit_select(p, a, c, ty))
            }
            Expr::Abs(inner) => {
                // abs(x) = select(x < 0, 0 - x, x).
                let x = self.expr(inner, ty, pred)?;
                let zero = self.zero(ty);
                let p = self.b.new_value(ValueType::Pred);
                self.b
                    .op_with_omegas(OpKind::CmpLt, &[x.pair(), (zero, 0)], Some(p), pred);
                let neg = self.emit(sub_kind(ty), &[(zero, 0), x.pair()], ty, pred);
                Ok(self.emit_select(p, neg, x, ty))
            }
        }
    }

    /// `select(p, a, b)` with a fresh result of the given type.
    fn emit_select(&mut self, p: ValueId, a: VRef, b: VRef, ty: Ty) -> VRef {
        let v = self.b.new_value(value_type(ty));
        self.b
            .op_with_omegas(OpKind::Select, &[(p, 0), a.pair(), b.pair()], Some(v), None);
        VRef::here(v)
    }

    /// `kind` over `inputs` with a fresh result of type `ty`.
    fn emit(
        &mut self,
        kind: OpKind,
        inputs: &[(ValueId, u32)],
        ty: Ty,
        pred: Option<ValueId>,
    ) -> VRef {
        let v = self.b.new_value(value_type(ty));
        self.b.op_with_omegas(kind, inputs, Some(v), pred);
        VRef::here(v)
    }

    /// Lowers both sides of `cond` under `pred` and emits the (unguarded)
    /// comparison, returning its predicate. The comparison type is the
    /// first operand's definite type, else the second's, else real — the
    /// same rule the reference interpreter applies, so literal-only
    /// operands cannot make the two engines compare different types.
    fn compare(&mut self, cond: &'a Cond, pred: Option<ValueId>) -> Result<ValueId, FrontError> {
        let ty = self
            .definite_ty(&cond.lhs)
            .or_else(|| self.definite_ty(&cond.rhs))
            .unwrap_or(Ty::Real);
        let a = self.expr(&cond.lhs, ty, pred)?;
        let c = self.expr(&cond.rhs, ty, pred)?;
        let kind = match cond.op {
            RelOp::Eq => OpKind::CmpEq,
            RelOp::Ne => OpKind::CmpNe,
            RelOp::Lt => OpKind::CmpLt,
            RelOp::Le => OpKind::CmpLe,
            RelOp::Gt => OpKind::CmpGt,
            RelOp::Ge => OpKind::CmpGe,
        };
        let p = self.b.new_value(ValueType::Pred);
        self.b
            .op_with_omegas(kind, &[a.pair(), c.pair()], Some(p), None);
        Ok(p)
    }

    /// The type of `expr` unless it is a polymorphic integer literal.
    fn definite_ty(&self, expr: &Expr) -> Option<Ty> {
        match crate::sema::type_of(expr, self.def, self.info) {
            Ok(crate::sema::ExprTy::Real) => Some(Ty::Real),
            Ok(crate::sema::ExprTy::Int) => Some(Ty::Int),
            _ => None,
        }
    }

    fn stmt(&mut self, stmt: &'a Stmt, pred: Option<ValueId>) -> Result<(), FrontError> {
        match stmt {
            Stmt::Assign { target, value, .. } => match target {
                LValue::Elem { array, offset } => {
                    let (idx, ty) = self.info.array(array).expect("checked by sema");
                    let v = self.expr(value, ty, pred)?;
                    let addr = self.ref_addr(idx, *offset);
                    let inputs = [(addr, 0), v.pair()];
                    // With an early exit, stores additionally carry the
                    // `live` guard so post-exit iterations are squashed;
                    // `pred` (the if-conversion context) still decides
                    // load/store-elimination eligibility, because pre-exit
                    // semantics are unchanged.
                    let store_pred = self.compose_live_guard(pred);
                    let op = self
                        .b
                        .op_with_omegas(OpKind::Store, &inputs, None, store_pred);
                    self.seq += 1;
                    self.mem_refs.push(MemRef {
                        op,
                        array: idx,
                        offset: *offset,
                        is_store: true,
                        seq: self.seq,
                    });
                    if pred.is_none() {
                        if let Some(eligible) = &mut self.eligible[idx] {
                            eligible.stored = Some((v.value, op));
                        }
                    }
                    // A store changes the array: cached loads go stale.
                    self.load_cache.retain(|&(a, _), _| a != idx);
                }
                LValue::Scalar(name) => {
                    let ty = self.info.carried(name).expect("checked by sema");
                    let v = self.expr(value, ty, pred)?;
                    match pred {
                        None => {
                            self.env.insert(name, v.value);
                        }
                        Some(p) => {
                            // Predicated scalar assignment: merge with the
                            // incoming value so SSA keeps a single
                            // definition per value.
                            let old = *self.env.get(name.as_str()).expect("env has carry");
                            let merged = self.b.new_value(self.scalar_type(name));
                            let inputs = [(p, 0), (v.value, v.omega), (old, 0)];
                            self.b
                                .op_with_omegas(OpKind::Select, &inputs, Some(merged), None);
                            self.env.insert(name, merged);
                        }
                    }
                }
            },
            Stmt::BreakIf { cond } => {
                // Post-tested exit: evaluate the condition unguarded; the
                // chain resolution wires ¬cond into next iteration's
                // `live`.
                let p = self.compare(cond, None)?;
                let notp = self.b.named_value(ValueType::Pred, "noexit");
                self.b.op(OpKind::PredNot, &[p], Some(notp));
                self.exit_not_cond = Some(notp);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                // If-conversion (§2.2): compute the branch predicate and
                // guard both arms, composing with any enclosing context.
                let p = self.compare(cond, pred)?;
                let then_pred = match pred {
                    None => p,
                    Some(ctx) => {
                        let v = self.b.new_value(ValueType::Pred);
                        self.b.op(OpKind::PredAnd, &[ctx, p], Some(v));
                        v
                    }
                };
                for s in then_body {
                    self.stmt(s, Some(then_pred))?;
                }
                if !else_body.is_empty() {
                    let notp = self.b.new_value(ValueType::Pred);
                    self.b.op(OpKind::PredNot, &[p], Some(notp));
                    let else_pred = match pred {
                        None => notp,
                        Some(ctx) => {
                            let v = self.b.new_value(ValueType::Pred);
                            self.b.op(OpKind::PredAnd, &[ctx, notp], Some(v));
                            v
                        }
                    };
                    for s in else_body {
                        self.stmt(s, Some(else_pred))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Rewrites carried-scalar placeholders to the scalar's final value at
    /// distance +1 and records the initial-value binding.
    fn resolve_carries(&mut self) {
        let carries = std::mem::take(&mut self.carry_placeholders);
        for (&name, &placeholder) in &carries {
            let mut fin = *self
                .env
                .get(name)
                .expect("carried scalar has a final value");
            if fin == placeholder {
                // Degenerate `s = s`: materialise the carry as a Copy so
                // the value is re-defined (and re-written into the
                // rotating file) every iteration; the replacement below
                // turns the Copy's own input into the self-recurrence.
                let v = self.b.new_value(self.scalar_type(name));
                self.b.op(OpKind::Copy, &[placeholder], Some(v));
                fin = v;
            }
            let carrier = self.carrier_for(fin, InitialSource::Scalar(name.to_owned()));
            self.b.replace_uses(placeholder, carrier, 1);
        }
    }

    /// Rewrites eliminated-load placeholders to the stored value at
    /// distance +d and records where pre-loop instances come from.
    ///
    /// The stored value is read from the store operation's *current*
    /// input: when one array's store value is another array's eliminated
    /// load, an earlier rewrite has already redirected it (with an added
    /// distance). Any such accumulated ω is absorbed into a dedicated
    /// `Copy` carrier so that the carrier's instance `j` is exactly "the
    /// value stored at iteration `j`", keeping the pre-loop seed indices
    /// aligned with initial memory.
    fn resolve_eliminated_loads(&mut self) {
        let placeholders = std::mem::take(&mut self.elim_placeholders);
        for (&(array, load_off), &placeholder) in &placeholders {
            let eligible = self.eligible[array].expect("only eligible arrays have placeholders");
            let d = (eligible.store_offset - load_off) as u32;
            let (_, store_op) = eligible
                .stored
                .expect("eligible arrays have exactly one unconditional store");
            let (stored, extra) = self.b.op_input(store_op, 1);
            let source = InitialSource::ArrayElem {
                array,
                offset: eligible.store_offset,
            };
            let carrier = if extra == 0 {
                self.carrier_for(stored, source)
            } else {
                let copy = self.b.new_value(self.b.value_type(stored));
                self.b
                    .op_with_omegas(OpKind::Copy, &[(stored, extra)], Some(copy), None);
                self.initials.push((copy, source));
                copy
            };
            self.b.replace_uses(placeholder, carrier, d);
        }
    }

    /// The value whose pre-loop instances come from `source`.
    ///
    /// A single SSA value may be stored to several arrays (or double as a
    /// carried scalar), and each consumer's early iterations must read a
    /// *different* initial value — `x[lo-1]` is not `y[lo-1]`. Each value
    /// therefore carries at most one [`InitialSource`]; additional sources
    /// get their own `Copy` carrier, whose instances equal the base
    /// value's for `i ≥ 0` but whose seeds are independent.
    fn carrier_for(&mut self, base: ValueId, source: InitialSource) -> ValueId {
        let base = self.ensure_variant(base);
        match self.initials.iter().find(|(v, _)| *v == base) {
            Some((_, existing)) if *existing == source => base,
            None => {
                self.initials.push((base, source));
                base
            }
            Some(_) => {
                let copy = self.b.new_value(self.b.value_type(base));
                self.b.op(OpKind::Copy, &[base], Some(copy));
                self.initials.push((copy, source));
                copy
            }
        }
    }

    /// The store guard: `live ∧ ctx` when the loop has an early exit,
    /// else just `ctx`. Compositions are cached per context predicate.
    fn compose_live_guard(&mut self, ctx: Option<ValueId>) -> Option<ValueId> {
        let Some(live) = self.live_now else {
            return ctx;
        };
        if let Some(&cached) = self.live_guard_cache.get(&ctx) {
            return Some(cached);
        }
        let composed = match ctx {
            None => live,
            Some(c) => {
                let v = self.b.new_value(ValueType::Pred);
                self.b.op(OpKind::PredAnd, &[live, c], Some(v));
                v
            }
        };
        self.live_guard_cache.insert(ctx, composed);
        Some(composed)
    }

    /// Wires the early-exit chain: `live(i) = live(i−1) ∧ ¬exit(i−1)`,
    /// with both pre-loop instances seeded true.
    fn resolve_exit(&mut self) {
        let Some((pl_live, pl_notc)) = self.live_placeholders else {
            return;
        };
        let live = self.live_now.expect("placeholders imply a live chain");
        let notc = self
            .exit_not_cond
            .expect("sema guarantees the break statement was lowered");
        self.b.replace_uses(pl_live, live, 1);
        self.b.replace_uses(pl_notc, notc, 1);
        self.initials.push((live, InitialSource::PredTrue));
        self.initials.push((notc, InitialSource::PredTrue));
    }

    /// Elimination and carry targets must be loop-variant so the simulator
    /// can give their pre-loop instances distinct values; an invariant
    /// (e.g. `x[i] = 0.0`) is wrapped in a `Copy`.
    fn ensure_variant(&mut self, v: ValueId) -> ValueId {
        if self.b.is_defined(v) {
            return v;
        }
        let copy = self.b.new_value(self.b.value_type(v));
        self.b.op(OpKind::Copy, &[v], Some(copy));
        copy
    }

    /// Adds flow/anti/output arcs with exact distances between the
    /// remaining memory references of each array. References are bucketed
    /// by array, so the work is the number of same-array pairs; arcs come
    /// out ordered by source reference, then sink reference.
    fn memory_deps(&mut self) {
        let refs = &self.mem_refs;
        let (start, by_array) = flat_adjacency(self.info.arrays.len(), refs, |r| r.array);
        for p in refs {
            let same_array = &by_array[start[p.array] as usize..start[p.array + 1] as usize];
            for q in same_array.iter().map(|&j| &refs[j as usize]) {
                if q.seq == p.seq || (!p.is_store && !q.is_store) {
                    continue;
                }
                // p at iteration i touches element i + p.offset; q at
                // iteration i + delta touches the same element.
                let delta = p.offset - q.offset;
                let kind = match (p.is_store, q.is_store) {
                    (true, false) => DepKind::Flow,
                    (false, true) => DepKind::Anti,
                    (true, true) => DepKind::Output,
                    (false, false) => unreachable!(),
                };
                if delta > 0 {
                    self.b.dep(p.op, q.op, kind, DepVia::Memory, delta as u32);
                } else if delta == 0 && p.seq < q.seq {
                    self.b.dep(p.op, q.op, kind, DepVia::Memory, 0);
                }
            }
        }
    }
}

/// Which arrays are elimination-eligible: stored exactly once, by an
/// unconditional (top-level) store.
fn eligible_arrays(def: &LoopDef, info: &LoopInfo) -> Vec<Option<Eligible>> {
    /// Per array: (stores seen, offset and nesting depth of the first).
    fn visit(stmts: &[Stmt], depth: u32, info: &LoopInfo, stores: &mut [(u32, i64, u32)]) {
        for stmt in stmts {
            match stmt {
                Stmt::Assign {
                    target: LValue::Elem { array, offset },
                    ..
                } => {
                    if let Some((idx, _)) = info.array(array) {
                        let seen = &mut stores[idx];
                        if seen.0 == 0 {
                            *seen = (0, *offset, depth);
                        }
                        seen.0 += 1;
                    }
                }
                Stmt::Assign { .. } | Stmt::BreakIf { .. } => {}
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    visit(then_body, depth + 1, info, stores);
                    visit(else_body, depth + 1, info, stores);
                }
            }
        }
    }
    let mut stores = vec![(0, 0, 0); info.arrays.len()];
    visit(&def.body, 0, info, &mut stores);
    stores
        .into_iter()
        .map(|(count, store_offset, depth)| {
            (count == 1 && depth == 0).then_some(Eligible {
                store_offset,
                stored: None,
            })
        })
        .collect()
}

fn value_type(ty: Ty) -> ValueType {
    match ty {
        Ty::Real => ValueType::Float,
        Ty::Int => ValueType::Int,
    }
}

fn sub_kind(ty: Ty) -> OpKind {
    match ty {
        Ty::Real => OpKind::FSub,
        Ty::Int => OpKind::IntSub,
    }
}
