//! The loop body: an SSA operation list plus its dependence graph.

use std::fmt;

use crate::{Dep, DepId, Op, OpId, OpKind, Value, ValueId, ValueType};

/// Metadata about where the body came from; used by the corpus statistics
/// (Table 2) and eligibility filters (§6).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoopMeta {
    /// Number of basic blocks in the body *before* if-conversion.
    pub basic_blocks: u32,
    /// Minimum trip count known for the loop, if any (the compiler does not
    /// modulo schedule loops with fewer than 5 iterations).
    pub min_trip_count: Option<u64>,
}

/// The four loop classes of Tables 3 and 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LoopClass {
    /// If-converted conditionals, no non-trivial recurrence circuit.
    Conditional,
    /// Non-trivial recurrence circuit, no conditionals.
    Recurrence,
    /// Both conditionals and recurrences.
    Both,
    /// Straight-line body with only trivial (self-arc) circuits.
    Neither,
}

impl LoopClass {
    /// The class of a loop that has (or lacks) if-converted conditionals
    /// and a non-trivial recurrence circuit.
    pub fn new(conditional: bool, recurrence: bool) -> Self {
        match (conditional, recurrence) {
            (true, true) => LoopClass::Both,
            (true, false) => LoopClass::Conditional,
            (false, true) => LoopClass::Recurrence,
            (false, false) => LoopClass::Neither,
        }
    }
}

impl fmt::Display for LoopClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LoopClass::Conditional => "Has Conditional",
            LoopClass::Recurrence => "Has Recurrence",
            LoopClass::Both => "Has Both",
            LoopClass::Neither => "Has Neither",
        };
        f.write_str(s)
    }
}

/// Structural errors detected by [`LoopBody::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BodyError {
    /// A value is defined by more than one operation (SSA violation).
    MultipleDefs(ValueId),
    /// A non-invariant, non-live-in value recorded a defining op that does
    /// not actually define it.
    DefMismatch(ValueId),
    /// An operation's input count does not match its kind's arity.
    BadArity(OpId),
    /// A guard predicate input is not of predicate type.
    BadPredicateType(OpId, ValueId),
    /// An invariant value is defined inside the loop.
    InvariantDefined(ValueId),
    /// A register flow arc's value is not defined by the arc's source.
    FlowValueMismatch(OpId, OpId),
    /// More than one `brtop` operation.
    MultipleBrtop,
}

impl fmt::Display for BodyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyError::MultipleDefs(v) => write!(f, "value {v} has multiple definitions"),
            BodyError::DefMismatch(v) => write!(f, "value {v} records a wrong defining op"),
            BodyError::BadArity(o) => write!(f, "operation {o} has the wrong input count"),
            BodyError::BadPredicateType(o, v) => {
                write!(f, "operation {o} is guarded by non-predicate value {v}")
            }
            BodyError::InvariantDefined(v) => {
                write!(f, "invariant value {v} is defined inside the loop")
            }
            BodyError::FlowValueMismatch(a, b) => {
                write!(
                    f,
                    "flow arc {a} -> {b} names a value its source does not define"
                )
            }
            BodyError::MultipleBrtop => write!(f, "loop body has more than one brtop"),
        }
    }
}

impl std::error::Error for BodyError {}

/// Buckets `items` by node in compressed sparse row form: node `v`'s
/// items are `index[start[v]..start[v + 1]]`, as indices into `items` in
/// their original order. Two passes over `items`, two allocations.
///
/// # Panics
///
/// Panics if `items` has 2^32 entries or more, or if `node_of` returns a
/// node `>= nodes`.
pub fn flat_adjacency<T>(
    nodes: usize,
    items: &[T],
    node_of: impl Fn(&T) -> usize,
) -> (Vec<u32>, Vec<u32>) {
    assert!(u32::try_from(items.len()).is_ok(), "fewer than 2^32 items");
    let mut start = vec![0u32; nodes + 1];
    for item in items {
        start[node_of(item) + 1] += 1;
    }
    for v in 0..nodes {
        start[v + 1] += start[v];
    }
    // Fill with `start[v]` as node v's cursor; afterwards each cursor sits
    // at its node's end, which is the next node's start.
    let mut index = vec![0u32; items.len()];
    for (i, item) in items.iter().enumerate() {
        let cursor = &mut start[node_of(item)];
        index[*cursor as usize] = i as u32;
        *cursor += 1;
    }
    start.copy_within(0..nodes, 1);
    start[0] = 0;
    (start, index)
}

/// A branch-free (if-converted) loop body in SSA form, together with its
/// ω-labelled dependence graph.
///
/// Construct with [`LoopBuilder`](crate::LoopBuilder); the builder computes
/// the adjacency tables and checks structural invariants.
#[derive(Clone, Debug)]
pub struct LoopBody {
    pub(crate) name: String,
    pub(crate) ops: Vec<Op>,
    pub(crate) values: Vec<Value>,
    pub(crate) deps: Vec<Dep>,
    /// Arcs out of op `v`: `out_arcs[out_start[v]..out_start[v + 1]]`,
    /// in `deps` order ([`flat_adjacency`]).
    pub(crate) out_start: Vec<u32>,
    pub(crate) out_arcs: Vec<u32>,
    /// Arcs into op `v`, likewise.
    pub(crate) in_start: Vec<u32>,
    pub(crate) in_arcs: Vec<u32>,
    pub(crate) meta: LoopMeta,
}

impl LoopBody {
    /// The loop's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Source metadata.
    pub fn meta(&self) -> &LoopMeta {
        &self.meta
    }

    /// All operations, indexable by [`OpId::index`].
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// All values, indexable by [`ValueId::index`].
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// All dependence arcs, indexable by [`DepId::index`].
    pub fn deps(&self) -> &[Dep] {
        &self.deps
    }

    /// The operation with the given id.
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.index()]
    }

    /// The value with the given id.
    pub fn value(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
    }

    /// The dependence arc with the given id.
    pub fn dep(&self, id: DepId) -> &Dep {
        &self.deps[id.index()]
    }

    /// Number of operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Arcs whose source is `op`, in [`deps`](Self::deps) order.
    pub fn deps_from(&self, op: OpId) -> impl Iterator<Item = &Dep> + '_ {
        self.arcs_of(&self.out_start, &self.out_arcs, op)
    }

    /// Arcs whose sink is `op`, in [`deps`](Self::deps) order.
    pub fn deps_to(&self, op: OpId) -> impl Iterator<Item = &Dep> + '_ {
        self.arcs_of(&self.in_start, &self.in_arcs, op)
    }

    fn arcs_of<'s>(
        &'s self,
        start: &'s [u32],
        arcs: &'s [u32],
        op: OpId,
    ) -> impl Iterator<Item = &'s Dep> + 's {
        let v = op.index();
        arcs[start[v] as usize..start[v + 1] as usize]
            .iter()
            .map(|&d| &self.deps[d as usize])
    }

    /// The loop-closing `brtop`, if the body carries one.
    pub fn brtop(&self) -> Option<OpId> {
        self.ops
            .iter()
            .find(|o| o.kind == OpKind::Brtop)
            .map(|o| o.id)
    }

    /// True if any operation is guarded by a predicate (the body was
    /// if-converted).
    pub fn has_conditional(&self) -> bool {
        self.ops.iter().any(|o| o.predicate.is_some())
    }

    /// True if the dependence graph contains a *non-trivial* recurrence
    /// circuit (a cycle through at least two distinct operations).
    pub fn has_recurrence(&self) -> bool {
        crate::scc::has_recurrence(self)
    }

    /// The loop's class for Tables 3 and 4.
    pub fn class(&self) -> LoopClass {
        LoopClass::new(self.has_conditional(), self.has_recurrence())
    }

    /// Number of operations executed by the divider.
    pub fn num_divider_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.kind.uses_divider()).count()
    }

    /// Checks the structural invariants listed in [`BodyError`].
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), BodyError> {
        // SSA: each value defined at most once, and `Value::def` agrees.
        let mut defs: Vec<Option<OpId>> = vec![None; self.values.len()];
        for op in &self.ops {
            if let Some(r) = op.result {
                if defs[r.index()].is_some() {
                    return Err(BodyError::MultipleDefs(r));
                }
                defs[r.index()] = Some(op.id);
            }
        }
        for v in &self.values {
            if v.def != defs[v.id.index()] {
                return Err(BodyError::DefMismatch(v.id));
            }
            if v.invariant && v.def.is_some() {
                return Err(BodyError::InvariantDefined(v.id));
            }
        }
        let mut brtops = 0;
        for op in &self.ops {
            if op.inputs.len() != op.kind.arity() {
                return Err(BodyError::BadArity(op.id));
            }
            if let Some(p) = op.predicate {
                if self.value(p).ty != ValueType::Pred {
                    return Err(BodyError::BadPredicateType(op.id, p));
                }
            }
            if op.kind == OpKind::Brtop {
                brtops += 1;
            }
        }
        if brtops > 1 {
            return Err(BodyError::MultipleBrtop);
        }
        for dep in &self.deps {
            if dep.is_register_flow() {
                let v = dep
                    .value
                    .ok_or(BodyError::FlowValueMismatch(dep.from, dep.to))?;
                if self.op(dep.from).result != Some(v) {
                    return Err(BodyError::FlowValueMismatch(dep.from, dep.to));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{DepKind, DepVia, LoopBuilder, OpKind, ValueType};

    #[test]
    fn classification_covers_all_four_classes() {
        // Neither.
        let mut b = LoopBuilder::new("neither");
        let a = b.invariant(ValueType::Float, "a");
        let t = b.new_value(ValueType::Float);
        b.op(OpKind::FAdd, &[a, a], Some(t));
        assert_eq!(b.finish().class().to_string(), "Has Neither");

        // Recurrence.
        let mut b = LoopBuilder::new("rec");
        let t = b.new_value(ValueType::Float);
        let u = b.new_value(ValueType::Float);
        let o1 = b.op(OpKind::FAdd, &[u, u], Some(t));
        let o2 = b.op(OpKind::FMul, &[t, t], Some(u));
        b.flow_dep(o1, o2, 0);
        b.flow_dep(o2, o1, 1);
        let body = b.finish();
        assert!(body.has_recurrence());
        assert!(!body.has_conditional());

        // Conditional.
        let mut b = LoopBuilder::new("cond");
        let a = b.invariant(ValueType::Float, "a");
        let p = b.new_value(ValueType::Pred);
        let t = b.new_value(ValueType::Float);
        let c = b.op(OpKind::CmpLt, &[a, a], Some(p));
        let g = b.op_guarded(OpKind::FAdd, &[a, a], Some(t), Some(p));
        b.flow_dep(c, g, 0);
        let body = b.finish();
        assert!(body.has_conditional());
        assert!(!body.has_recurrence());
    }

    #[test]
    fn self_arc_is_trivial_recurrence() {
        let mut b = LoopBuilder::new("acc");
        let s = b.new_value(ValueType::Float);
        let a = b.invariant(ValueType::Float, "a");
        let o = b.op(OpKind::FAdd, &[s, a], Some(s));
        b.flow_dep(o, o, 1);
        let body = b.finish();
        assert!(!body.has_recurrence(), "self-arcs are trivial circuits");
    }

    #[test]
    fn validate_accepts_well_formed_bodies() {
        let mut b = LoopBuilder::new("ok");
        let a = b.invariant(ValueType::Addr, "base");
        let x = b.new_value(ValueType::Float);
        let ld = b.op(OpKind::Load, &[a], Some(x));
        let st = b.op(OpKind::Store, &[a, x], None);
        b.flow_dep(ld, st, 0);
        b.dep(st, ld, DepKind::Anti, DepVia::Memory, 1);
        assert_eq!(b.finish().validate(), Ok(()));
    }

    #[test]
    fn deps_from_and_to_agree() {
        let mut b = LoopBuilder::new("adj");
        let x = b.new_value(ValueType::Int);
        let y = b.new_value(ValueType::Int);
        let o1 = b.op(OpKind::IntAdd, &[y, y], Some(x));
        let o2 = b.op(OpKind::IntMul, &[x, x], Some(y));
        b.flow_dep(o1, o2, 0);
        b.flow_dep(o2, o1, 1);
        let body = b.finish();
        assert_eq!(body.deps_from(o1).count(), 1);
        assert_eq!(body.deps_to(o1).count(), 1);
        assert_eq!(body.deps_from(o1).next().unwrap().to, o2);
    }
}
