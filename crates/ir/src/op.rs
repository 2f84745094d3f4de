//! Operations: the nodes of the dependence graph.

use std::fmt;
use std::ops::{Deref, DerefMut};

use crate::{OpId, ValueId};

/// The most value inputs any [`OpKind`] takes (`Select` takes three).
pub const MAX_ARITY: usize = 3;

/// An operation's operand list, stored inline: up to [`MAX_ARITY`]
/// entries, so building an [`Op`] allocates nothing. Derefs to a slice
/// of its entries.
#[derive(Clone, Copy)]
pub struct Operands<T> {
    len: u8,
    items: [T; MAX_ARITY],
}

impl<T: Copy + Default> Operands<T> {
    /// The entries of `items`, in order.
    ///
    /// # Panics
    ///
    /// Panics if `items` has more than [`MAX_ARITY`] entries.
    pub fn from_slice(items: &[T]) -> Self {
        items.iter().copied().collect()
    }
}

impl<T: Copy + Default> FromIterator<T> for Operands<T> {
    /// # Panics
    ///
    /// Panics if the iterator yields more than [`MAX_ARITY`] entries.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut ops = Operands {
            len: 0,
            items: [T::default(); MAX_ARITY],
        };
        for item in iter {
            let slot = ops
                .items
                .get_mut(usize::from(ops.len))
                .expect("an operation has at most MAX_ARITY operands");
            *slot = item;
            ops.len += 1;
        }
        ops
    }
}

impl<T> Deref for Operands<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..usize::from(self.len)]
    }
}

impl<T> DerefMut for Operands<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..usize::from(self.len)]
    }
}

impl<'a, T> IntoIterator for &'a Operands<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq> PartialEq for Operands<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for Operands<T> {}

impl<T: fmt::Debug> fmt::Debug for Operands<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The executable operation repertoire of the hypothetical VLIW target.
///
/// The set mirrors Table 1 of the paper: every kind maps onto exactly one
/// functional-unit class in `lsms-machine` (memory port, address ALU, adder,
/// multiplier, divider, or branch unit). Kinds carry no operands — operands
/// are the SSA [`Value`](crate::Value) inputs of the containing [`Op`].
///
/// Constants and array base addresses are *not* operation kinds: they are
/// loop-invariant values living in the GPR file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // variant meanings are given in the table below
pub enum OpKind {
    // Address ALU (latency 1, two units).
    AddrAdd,
    AddrSub,
    AddrMul,
    // Adder (latency 1): integer add/sub/logical and float add/sub,
    // comparisons, predicate logic, select, and copies.
    IntAdd,
    IntSub,
    And,
    Or,
    Xor,
    FAdd,
    FSub,
    CmpEq,
    CmpNe,
    CmpLt,
    CmpLe,
    CmpGt,
    CmpGe,
    PredAnd,
    PredOr,
    PredNot,
    /// `Select(p, a, b)` = `a` if `p` else `b`; produced by if-conversion at
    /// join points so that merged variables keep a single SSA definition.
    Select,
    Copy,
    // Multiplier (latency 2).
    IntMul,
    FMul,
    // Divider (not pipelined; latency 17 for div/mod, 21 for sqrt).
    IntDiv,
    IntMod,
    FDiv,
    FMod,
    FSqrt,
    // Memory port (two units; load latency 13, store latency 1).
    Load,
    Store,
    /// The loop-closing conditional branch; combines loop-count test,
    /// register rotation, and stage-predicate update (§2.1, \[5\]).
    Brtop,
}

impl OpKind {
    /// Every kind, in declaration order, which is also the derived `Ord`
    /// order: `OpKind::ALL[k.index()] == k`.
    pub const ALL: [OpKind; 31] = [
        OpKind::AddrAdd,
        OpKind::AddrSub,
        OpKind::AddrMul,
        OpKind::IntAdd,
        OpKind::IntSub,
        OpKind::And,
        OpKind::Or,
        OpKind::Xor,
        OpKind::FAdd,
        OpKind::FSub,
        OpKind::CmpEq,
        OpKind::CmpNe,
        OpKind::CmpLt,
        OpKind::CmpLe,
        OpKind::CmpGt,
        OpKind::CmpGe,
        OpKind::PredAnd,
        OpKind::PredOr,
        OpKind::PredNot,
        OpKind::Select,
        OpKind::Copy,
        OpKind::IntMul,
        OpKind::FMul,
        OpKind::IntDiv,
        OpKind::IntMod,
        OpKind::FDiv,
        OpKind::FMod,
        OpKind::FSqrt,
        OpKind::Load,
        OpKind::Store,
        OpKind::Brtop,
    ];

    /// The kind's position in [`OpKind::ALL`], for dense per-kind tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// True for `Load` and `Store`.
    pub fn is_memory(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// True for kinds executed by the non-pipelined divider.
    ///
    /// The slack scheduler halves the dynamic priority of these operations
    /// (§4.3) because their complex resource patterns leave them very few
    /// issue slots.
    pub fn uses_divider(self) -> bool {
        matches!(
            self,
            OpKind::IntDiv | OpKind::IntMod | OpKind::FDiv | OpKind::FMod | OpKind::FSqrt
        )
    }

    /// True if this kind produces a result value.
    pub fn has_result(self) -> bool {
        !matches!(self, OpKind::Store | OpKind::Brtop)
    }

    /// The number of value inputs the kind consumes (excluding the guard
    /// predicate, which every operation may optionally have).
    pub fn arity(self) -> usize {
        match self {
            OpKind::PredNot | OpKind::Copy | OpKind::Load | OpKind::FSqrt => 1,
            OpKind::Select => 3,
            OpKind::Brtop => 0,
            OpKind::Store => 2, // address, stored value
            _ => 2,
        }
    }

    /// A short lowercase mnemonic, used by the assembly printer and DOT
    /// export.
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::AddrAdd => "aadd",
            OpKind::AddrSub => "asub",
            OpKind::AddrMul => "amul",
            OpKind::IntAdd => "add",
            OpKind::IntSub => "sub",
            OpKind::And => "and",
            OpKind::Or => "or",
            OpKind::Xor => "xor",
            OpKind::FAdd => "fadd",
            OpKind::FSub => "fsub",
            OpKind::CmpEq => "cmpeq",
            OpKind::CmpNe => "cmpne",
            OpKind::CmpLt => "cmplt",
            OpKind::CmpLe => "cmple",
            OpKind::CmpGt => "cmpgt",
            OpKind::CmpGe => "cmpge",
            OpKind::PredAnd => "pand",
            OpKind::PredOr => "por",
            OpKind::PredNot => "pnot",
            OpKind::Select => "select",
            OpKind::Copy => "copy",
            OpKind::IntMul => "mul",
            OpKind::FMul => "fmul",
            OpKind::IntDiv => "div",
            OpKind::IntMod => "mod",
            OpKind::FDiv => "fdiv",
            OpKind::FMod => "fmod",
            OpKind::FSqrt => "fsqrt",
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::Brtop => "brtop",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One operation of the loop body.
///
/// Every operation has a 1-bit predicate input (§2.2); `predicate == None`
/// means the operation executes unconditionally (its predicate is the
/// always-true stage predicate).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    /// This operation's id.
    pub id: OpId,
    /// What the operation computes.
    pub kind: OpKind,
    /// Value inputs, in positional order (`kind.arity()` of them).
    pub inputs: Operands<ValueId>,
    /// Per-input iteration distance: position `k` reads the instance of
    /// `inputs[k]` produced `input_omegas[k]` iterations earlier (0 = this
    /// iteration). Lets `x(i-1) + x(i-2)` read the same SSA value at two
    /// distances, as the rotating register file does in hardware (§2.3).
    pub input_omegas: Operands<u32>,
    /// The value defined, if any (SSA: at most one, defined nowhere else).
    pub result: Option<ValueId>,
    /// Guard predicate from if-conversion, if any.
    pub predicate: Option<ValueId>,
}

impl Op {
    /// All values read by this operation: inputs followed by the guard
    /// predicate (if present).
    pub fn reads(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.inputs.iter().copied().chain(self.predicate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_kind_in_ord_order_at_its_index() {
        for (i, &k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "{k}");
        }
        assert!(OpKind::ALL.windows(2).all(|w| w[0] < w[1]));
        // A kind added to the enum but not to `ALL` would index past it.
        assert_eq!(OpKind::Brtop.index(), OpKind::ALL.len() - 1);
    }

    #[test]
    fn divider_kinds_are_flagged() {
        assert!(OpKind::FSqrt.uses_divider());
        assert!(OpKind::IntMod.uses_divider());
        assert!(!OpKind::FMul.uses_divider());
    }

    #[test]
    fn memory_kinds_are_flagged() {
        assert!(OpKind::Load.is_memory());
        assert!(OpKind::Store.is_memory());
        assert!(!OpKind::AddrAdd.is_memory());
    }

    #[test]
    fn stores_and_brtop_have_no_result() {
        assert!(!OpKind::Store.has_result());
        assert!(!OpKind::Brtop.has_result());
        assert!(OpKind::Load.has_result());
    }

    #[test]
    fn arity_matches_shape() {
        assert_eq!(OpKind::Select.arity(), 3);
        assert_eq!(OpKind::Load.arity(), 1);
        assert_eq!(OpKind::Store.arity(), 2);
        assert_eq!(OpKind::FAdd.arity(), 2);
        assert_eq!(OpKind::Brtop.arity(), 0);
    }

    #[test]
    fn no_kind_takes_more_than_max_arity_inputs() {
        assert!(OpKind::ALL.iter().all(|k| k.arity() <= MAX_ARITY));
        assert_eq!(OpKind::Select.arity(), MAX_ARITY);
    }

    #[test]
    fn operands_behave_as_their_slice() {
        let mut ops = Operands::from_slice(&[4u32, 5]);
        assert_eq!(ops.len(), 2);
        assert_eq!(&ops[..], &[4, 5]);
        ops[1] += 2;
        assert_eq!(ops.iter().copied().collect::<Vec<_>>(), vec![4, 7]);
        assert_eq!(format!("{ops:?}"), "[4, 7]");
        assert!(Operands::<u32>::from_slice(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "at most MAX_ARITY")]
    fn operands_refuse_a_fourth_entry() {
        let _ = Operands::from_slice(&[1u32, 2, 3, 4]);
    }

    #[test]
    fn reads_include_guard_predicate() {
        let op = Op {
            id: OpId::new(0),
            kind: OpKind::FAdd,
            inputs: Operands::from_slice(&[ValueId::new(1), ValueId::new(2)]),
            input_omegas: Operands::from_slice(&[0, 0]),
            result: Some(ValueId::new(3)),
            predicate: Some(ValueId::new(4)),
        };
        let reads: Vec<_> = op.reads().collect();
        assert_eq!(
            reads,
            vec![ValueId::new(1), ValueId::new(2), ValueId::new(4)]
        );
    }
}
