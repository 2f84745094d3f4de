//! Incremental construction of [`LoopBody`] graphs.

use crate::body::flat_adjacency;
use crate::{
    Dep, DepId, DepKind, DepVia, LoopBody, LoopMeta, Op, OpId, OpKind, Operands, Value, ValueId,
    ValueName, ValueType,
};

/// Builds a [`LoopBody`] one value, operation, and arc at a time.
///
/// The builder does not add dependence arcs implied by the SSA def/use
/// wiring: front ends know the iteration distance (ω) of each use, so they
/// state every arc explicitly via [`flow_dep`](Self::flow_dep) and
/// [`dep`](Self::dep). Guard-predicate arcs, however, follow the same rule —
/// add a flow arc from the predicate's definition to the guarded operation.
///
/// # Example
///
/// ```
/// use lsms_ir::{LoopBuilder, OpKind, ValueType};
///
/// let mut b = LoopBuilder::new("axpy");
/// let a = b.invariant(ValueType::Float, "a");
/// let x = b.new_value(ValueType::Float);
/// let y = b.new_value(ValueType::Float);
/// let t = b.new_value(ValueType::Float);
/// let mul = b.op(OpKind::FMul, &[a, x], Some(y));
/// let add = b.op(OpKind::FAdd, &[y, a], Some(t));
/// b.flow_dep(mul, add, 0);
/// let body = b.finish();
/// assert_eq!(body.num_ops(), 2);
/// ```
#[derive(Debug)]
pub struct LoopBuilder {
    name: String,
    ops: Vec<Op>,
    values: Vec<Value>,
    deps: Vec<Dep>,
    meta: LoopMeta,
}

impl LoopBuilder {
    /// Starts an empty body with the given diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ops: Vec::new(),
            values: Vec::new(),
            deps: Vec::new(),
            meta: LoopMeta {
                basic_blocks: 1,
                min_trip_count: None,
            },
        }
    }

    /// Sets source metadata for the body.
    pub fn meta(&mut self, meta: LoopMeta) -> &mut Self {
        self.meta = meta;
        self
    }

    /// Creates a fresh loop-variant value of type `ty` with a generated
    /// name, `t{n}` for value id `n`.
    pub fn new_value(&mut self, ty: ValueType) -> ValueId {
        let name = ValueName::Temp(self.values.len() as u32);
        self.push_value(ty, name, false)
    }

    /// Creates a fresh named loop-variant value.
    pub fn named_value(&mut self, ty: ValueType, name: impl Into<ValueName>) -> ValueId {
        self.push_value(ty, name.into(), false)
    }

    /// Creates a loop-invariant value (GPR file): a constant, an array base
    /// address, or any scalar the loop only reads.
    pub fn invariant(&mut self, ty: ValueType, name: impl Into<ValueName>) -> ValueId {
        self.push_value(ty, name.into(), true)
    }

    fn push_value(&mut self, ty: ValueType, name: ValueName, invariant: bool) -> ValueId {
        let id = ValueId::new(self.values.len());
        self.values.push(Value {
            id,
            ty,
            def: None,
            invariant,
            name,
        });
        id
    }

    /// Appends an unguarded operation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match the kind's arity, if the kind
    /// requires a result and `result` is `None` (or vice versa), or if
    /// `result` names a value that already has a definition.
    pub fn op(&mut self, kind: OpKind, inputs: &[ValueId], result: Option<ValueId>) -> OpId {
        self.op_guarded(kind, inputs, result, None)
    }

    /// Appends an operation guarded by `predicate` (§2.2).
    ///
    /// # Panics
    ///
    /// As for [`op`](Self::op).
    pub fn op_guarded(
        &mut self,
        kind: OpKind,
        inputs: &[ValueId],
        result: Option<ValueId>,
        predicate: Option<ValueId>,
    ) -> OpId {
        assert_eq!(inputs.len(), kind.arity(), "{kind}: wrong input count");
        let omegas = inputs.iter().map(|_| 0).collect();
        self.push_op(
            kind,
            Operands::from_slice(inputs),
            omegas,
            result,
            predicate,
        )
    }

    /// Appends an operation whose inputs carry explicit iteration
    /// distances: position `k` reads `inputs[k].0` from `inputs[k].1`
    /// iterations earlier. Front ends use this after load/store elimination
    /// and scalar-recurrence resolution (§2.3).
    ///
    /// # Panics
    ///
    /// As for [`op`](Self::op).
    pub fn op_with_omegas(
        &mut self,
        kind: OpKind,
        inputs: &[(ValueId, u32)],
        result: Option<ValueId>,
        predicate: Option<ValueId>,
    ) -> OpId {
        assert_eq!(inputs.len(), kind.arity(), "{kind}: wrong input count");
        let values = inputs.iter().map(|&(v, _)| v).collect();
        let omegas = inputs.iter().map(|&(_, w)| w).collect();
        self.push_op(kind, values, omegas, result, predicate)
    }

    fn push_op(
        &mut self,
        kind: OpKind,
        inputs: Operands<ValueId>,
        input_omegas: Operands<u32>,
        result: Option<ValueId>,
        predicate: Option<ValueId>,
    ) -> OpId {
        assert_eq!(
            result.is_some(),
            kind.has_result(),
            "{kind}: result presence mismatch"
        );
        let id = OpId::new(self.ops.len());
        if let Some(r) = result {
            let v = &mut self.values[r.index()];
            assert!(v.def.is_none(), "value {r} already defined");
            assert!(
                !v.invariant,
                "invariant value {r} cannot be defined in the loop"
            );
            v.def = Some(id);
        }
        self.ops.push(Op {
            id,
            kind,
            inputs,
            input_omegas,
            result,
            predicate,
        });
        id
    }

    /// Adds a register flow dependence from `from`'s result to `to`,
    /// carrying ω = `omega`.
    ///
    /// # Panics
    ///
    /// Panics if `from` has no result.
    pub fn flow_dep(&mut self, from: OpId, to: OpId, omega: u32) -> DepId {
        let value = self.ops[from.index()]
            .result
            .expect("flow dependence source must define a value");
        self.push_dep(Dep {
            from,
            to,
            kind: DepKind::Flow,
            via: DepVia::Register,
            omega,
            value: Some(value),
        })
    }

    /// Adds an arbitrary dependence arc.
    pub fn dep(&mut self, from: OpId, to: OpId, kind: DepKind, via: DepVia, omega: u32) -> DepId {
        self.push_dep(Dep {
            from,
            to,
            kind,
            via,
            omega,
            value: None,
        })
    }

    fn push_dep(&mut self, dep: Dep) -> DepId {
        let id = DepId::new(self.deps.len());
        self.deps.push(dep);
        id
    }

    /// Number of operations appended so far.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// The type of a value created earlier.
    pub fn value_type(&self, v: ValueId) -> ValueType {
        self.values[v.index()].ty
    }

    /// True if `v` has been defined by an operation so far.
    pub fn is_defined(&self, v: ValueId) -> bool {
        self.values[v.index()].def.is_some()
    }

    /// The current `(value, ω)` at input position `index` of `op` —
    /// current, because [`replace_uses`](Self::replace_uses) may have
    /// rewritten it since the operation was appended.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the operation.
    pub fn op_input(&self, op: OpId, index: usize) -> (ValueId, u32) {
        let op = &self.ops[op.index()];
        (op.inputs[index], op.input_omegas[index])
    }

    /// Rewires every input use of `of` to `with`, adding `add_omega` to the
    /// use's iteration distance.
    ///
    /// Front ends emit *placeholder* values for quantities that resolve
    /// only after the whole body is seen — the previous iteration's value
    /// of a carried scalar, or the register replacing an eliminated load
    /// (§2.3) — then call this once the real value and distance are known.
    ///
    /// # Panics
    ///
    /// Panics if `of` is used as a guard predicate (guards cannot carry a
    /// distance).
    pub fn replace_uses(&mut self, of: ValueId, with: ValueId, add_omega: u32) {
        for op in &mut self.ops {
            assert_ne!(
                op.predicate,
                Some(of),
                "cannot rewrite a guard predicate use"
            );
            for (input, omega) in op.inputs.iter_mut().zip(op.input_omegas.iter_mut()) {
                if *input == of {
                    *input = with;
                    *omega += add_omega;
                }
            }
        }
    }

    /// Finalises the body after generating the register flow arcs implied
    /// by the SSA wiring: for every input position `(v, ω)` whose value is
    /// defined in the loop, a flow arc `def(v) → op` with distance ω, and
    /// likewise for guard predicates (ω = 0). Arcs identical to manually
    /// added ones are not duplicated.
    ///
    /// The new arcs follow the explicit ones, in op order and, within an
    /// op, in operand order. An implied arc can only equal an arc into the
    /// same op, so each is checked against that op's explicit in-arcs and
    /// the arcs already implied for it: linear work in ops and arcs.
    pub fn finish_with_auto_flow(mut self) -> LoopBody {
        let (start, into) = flat_adjacency(self.ops.len(), &self.deps, |d| d.to.index());
        for op in &self.ops {
            let guard = op.predicate.map(|p| (p, 0u32));
            let implied_from = self.deps.len();
            for (v, omega) in op
                .inputs
                .iter()
                .copied()
                .zip(op.input_omegas.iter().copied())
                .chain(guard)
            {
                let Some(def) = self.values[v.index()].def else {
                    continue;
                };
                let dep = Dep {
                    from: def,
                    to: op.id,
                    kind: DepKind::Flow,
                    via: DepVia::Register,
                    omega,
                    value: Some(v),
                };
                let sink = op.id.index();
                let mut explicit_in = into[start[sink] as usize..start[sink + 1] as usize].iter();
                if !explicit_in.any(|&d| self.deps[d as usize] == dep)
                    && !self.deps[implied_from..].contains(&dep)
                {
                    self.deps.push(dep);
                }
            }
        }
        self.finish()
    }

    /// Finalises the body, computing the adjacency tables.
    pub fn finish(self) -> LoopBody {
        let n = self.ops.len();
        let (out_start, out_arcs) = flat_adjacency(n, &self.deps, |d| d.from.index());
        let (in_start, in_arcs) = flat_adjacency(n, &self.deps, |d| d.to.index());
        LoopBody {
            name: self.name,
            ops: self.ops,
            values: self.values,
            deps: self.deps,
            out_start,
            out_arcs,
            in_start,
            in_arcs,
            meta: self.meta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_wires_defs() {
        let mut b = LoopBuilder::new("t");
        let x = b.new_value(ValueType::Int);
        let y = b.new_value(ValueType::Int);
        let o = b.op(OpKind::IntAdd, &[y, y], Some(x));
        let body = b.finish();
        assert_eq!(body.value(x).def, Some(o));
        assert_eq!(body.value(y).def, None);
        assert!(body.validate().is_ok());
    }

    /// One implied arc per distinct `(value, ω)` an op reads, however
    /// many operand slots read it, and none that repeats an explicit arc.
    #[test]
    fn duplicate_operands_imply_one_flow_arc() {
        let mut b = LoopBuilder::new("t");
        let a = b.invariant(ValueType::Float, "a");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let z = b.new_value(ValueType::Float);
        let def = b.op(OpKind::FAdd, &[a, a], Some(x));
        let twice = b.op(OpKind::FAdd, &[x, x], Some(y));
        let spread = b.op_with_omegas(OpKind::FMul, &[(x, 0), (x, 1)], Some(z), None);
        b.flow_dep(def, spread, 1);
        let body = b.finish_with_auto_flow();
        let arcs = |to: OpId| -> Vec<(OpId, u32)> {
            body.deps_to(to).map(|d| (d.from, d.omega)).collect()
        };
        assert_eq!(arcs(twice), vec![(def, 0)]);
        // The explicit ω = 1 arc comes first; the implied ω = 0 one follows.
        assert_eq!(arcs(spread), vec![(def, 1), (def, 0)]);
        assert_eq!(body.deps().len(), 3);
        assert!(body.validate().is_ok());
    }

    /// The flat adjacency lists each op's arcs in `deps()` order, as the
    /// per-op lists it replaced did.
    #[test]
    fn adjacency_keeps_arc_order() {
        let n = 7;
        let mut b = LoopBuilder::new("t");
        let a = b.invariant(ValueType::Int, "a");
        let ops: Vec<OpId> = (0..n)
            .map(|_| {
                let v = b.new_value(ValueType::Int);
                b.op(OpKind::IntAdd, &[a, a], Some(v))
            })
            .collect();
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..40 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let (from, to) = (seed as usize % n, (seed >> 32) as usize % n);
            b.dep(ops[from], ops[to], DepKind::Anti, DepVia::Control, 1);
        }
        let body = b.finish();
        for &op in &ops {
            let want_out: Vec<&Dep> = body.deps().iter().filter(|d| d.from == op).collect();
            let want_in: Vec<&Dep> = body.deps().iter().filter(|d| d.to == op).collect();
            assert!(body.deps_from(op).eq(want_out));
            assert!(body.deps_to(op).eq(want_in));
        }
    }

    #[test]
    #[should_panic(expected = "already defined")]
    fn double_definition_panics() {
        let mut b = LoopBuilder::new("t");
        let x = b.new_value(ValueType::Int);
        let y = b.new_value(ValueType::Int);
        b.op(OpKind::IntAdd, &[y, y], Some(x));
        b.op(OpKind::IntSub, &[y, y], Some(x));
    }

    #[test]
    #[should_panic(expected = "wrong input count")]
    fn arity_mismatch_panics() {
        let mut b = LoopBuilder::new("t");
        let x = b.new_value(ValueType::Int);
        b.op(OpKind::IntAdd, &[x], None);
    }

    #[test]
    #[should_panic(expected = "must define a value")]
    fn flow_dep_from_store_panics() {
        let mut b = LoopBuilder::new("t");
        let a = b.invariant(ValueType::Addr, "a");
        let x = b.new_value(ValueType::Float);
        let st = b.op(OpKind::Store, &[a, x], None);
        b.flow_dep(st, st, 1);
    }

    #[test]
    fn invariants_cannot_be_defined() {
        let mut b = LoopBuilder::new("t");
        let a = b.invariant(ValueType::Float, "a");
        let x = b.new_value(ValueType::Float);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.op(OpKind::FAdd, &[x, x], Some(a));
        }));
        assert!(result.is_err());
    }
}
