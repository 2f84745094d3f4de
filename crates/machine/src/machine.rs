//! Machine descriptions and the paper's Table 1 target.

use lsms_ir::OpKind;

use crate::{ClassId, OpDesc, ResourceClass};

/// A VLIW target: functional-unit classes plus an opcode → unit/latency/
/// reservation mapping.
///
/// The opcode table is dense, one slot per [`OpKind`] indexed by
/// [`OpKind::index`], so [`desc`](Self::desc) is an array read: the
/// scheduler asks it once per candidate cycle.
///
/// Build one with [`MachineBuilder`] or use the predefined machines
/// ([`huff_machine`], [`short_latency_machine`], [`wide_machine`]).
#[derive(Clone, Debug)]
pub struct Machine {
    name: String,
    classes: Vec<ResourceClass>,
    table: Vec<Option<OpDesc>>,
}

impl Machine {
    /// The machine's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The functional-unit classes, indexable by [`ClassId::index`].
    pub fn classes(&self) -> &[ResourceClass] {
        &self.classes
    }

    /// How `kind` uses the machine.
    ///
    /// # Panics
    ///
    /// Panics if the machine does not implement `kind`; predefined machines
    /// implement every [`OpKind`].
    #[inline]
    pub fn desc(&self, kind: OpKind) -> &OpDesc {
        self.table[kind.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("machine {} does not implement {kind}", self.name))
    }

    /// Result latency of `kind` (§2.1: the compiler honours latencies,
    /// scheduling no-ops wherever necessary).
    #[inline]
    pub fn latency(&self, kind: OpKind) -> u32 {
        self.desc(kind).latency
    }

    /// Iterates over the implemented opcodes in [`OpKind`]'s `Ord` order.
    pub fn op_table(&self) -> impl Iterator<Item = (OpKind, &OpDesc)> + '_ {
        OpKind::ALL
            .iter()
            .zip(&self.table)
            .filter_map(|(&k, d)| d.as_ref().map(|d| (k, d)))
    }
}

/// Incremental construction of a [`Machine`].
///
/// # Example
///
/// ```
/// use lsms_machine::MachineBuilder;
/// use lsms_ir::OpKind;
///
/// let mut b = MachineBuilder::new("tiny");
/// let alu = b.class("ALU", 1);
/// b.pipelined(alu, 1, &[OpKind::IntAdd, OpKind::IntSub]);
/// b.unpipelined(alu, 8, &[OpKind::IntDiv]);
/// let m = b.finish();
/// assert_eq!(m.latency(OpKind::IntDiv), 8);
/// ```
#[derive(Clone, Debug)]
pub struct MachineBuilder {
    name: String,
    classes: Vec<ResourceClass>,
    table: Vec<Option<OpDesc>>,
}

impl MachineBuilder {
    /// Starts an empty machine description.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            classes: Vec::new(),
            table: vec![None; OpKind::ALL.len()],
        }
    }

    /// Adds a class of `count` identical units and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn class(&mut self, name: impl Into<String>, count: u32) -> ClassId {
        assert!(count > 0, "a unit class must contain at least one unit");
        let id = ClassId(u16::try_from(self.classes.len()).expect("too many unit classes"));
        self.classes.push(ResourceClass {
            name: name.into(),
            count,
        });
        id
    }

    /// Maps each of `kinds` to a fully pipelined operation on `class`.
    pub fn pipelined(&mut self, class: ClassId, latency: u32, kinds: &[OpKind]) -> &mut Self {
        for &k in kinds {
            self.table[k.index()] = Some(OpDesc::pipelined(class, latency));
        }
        self
    }

    /// Maps each of `kinds` to a non-pipelined operation on `class`
    /// (busy for its whole latency, like the paper's divider).
    pub fn unpipelined(&mut self, class: ClassId, latency: u32, kinds: &[OpKind]) -> &mut Self {
        for &k in kinds {
            self.table[k.index()] = Some(OpDesc::unpipelined(class, latency));
        }
        self
    }

    /// Maps `kind` to a custom reservation pattern.
    pub fn custom(&mut self, kind: OpKind, desc: OpDesc) -> &mut Self {
        self.table[kind.index()] = Some(desc);
        self
    }

    /// Finalises the description.
    pub fn finish(self) -> Machine {
        Machine {
            name: self.name,
            classes: self.classes,
            table: self.table,
        }
    }
}

/// All adder-class opcodes (integer add/sub/logical, float add/sub,
/// comparisons, predicate logic, select, copy).
fn adder_kinds() -> Vec<OpKind> {
    vec![
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
    ]
}

const ADDR_KINDS: [OpKind; 3] = [OpKind::AddrAdd, OpKind::AddrSub, OpKind::AddrMul];
const MUL_KINDS: [OpKind; 2] = [OpKind::IntMul, OpKind::FMul];
const DIV_KINDS: [OpKind; 4] = [OpKind::IntDiv, OpKind::IntMod, OpKind::FDiv, OpKind::FMod];

/// The paper's target machine, reproducing Table 1 exactly:
///
/// | Pipeline      | Units | Operations            | Latency |
/// |---------------|-------|-----------------------|---------|
/// | Memory Port   | 2     | load / store          | 13 / 1  |
/// | Address ALU   | 2     | addr add/sub/mult     | 1       |
/// | Adder         | 1     | int & float add/sub/… | 1       |
/// | Multiplier    | 1     | int/float multiply    | 2       |
/// | Divider       | 1     | div/mod 17, sqrt 21   | not pipelined |
/// | Branch Unit   | 1     | brtop                 | 2       |
///
/// The 13-cycle load latency models bypassing a first-level cache and
/// hitting a large off-chip second-level cache (§2.1).
pub fn huff_machine() -> Machine {
    let mut b = MachineBuilder::new("huff-cydra");
    let mem = b.class("Memory Port", 2);
    let addr = b.class("Address ALU", 2);
    let add = b.class("Adder", 1);
    let mul = b.class("Multiplier", 1);
    let div = b.class("Divider", 1);
    let br = b.class("Branch Unit", 1);
    b.pipelined(mem, 13, &[OpKind::Load]);
    b.pipelined(mem, 1, &[OpKind::Store]);
    b.pipelined(addr, 1, &ADDR_KINDS);
    b.pipelined(add, 1, &adder_kinds());
    b.pipelined(mul, 2, &MUL_KINDS);
    b.unpipelined(div, 17, &DIV_KINDS);
    b.unpipelined(div, 21, &[OpKind::FSqrt]);
    b.pipelined(br, 2, &[OpKind::Brtop]);
    b.finish()
}

/// A robustness-experiment variant with first-level-cache load latency and
/// faster divides (§7: "other experiments with different latencies for the
/// functional units give very similar performance results").
pub fn short_latency_machine() -> Machine {
    let mut b = MachineBuilder::new("short-latency");
    let mem = b.class("Memory Port", 2);
    let addr = b.class("Address ALU", 2);
    let add = b.class("Adder", 1);
    let mul = b.class("Multiplier", 1);
    let div = b.class("Divider", 1);
    let br = b.class("Branch Unit", 1);
    b.pipelined(mem, 3, &[OpKind::Load]);
    b.pipelined(mem, 1, &[OpKind::Store]);
    b.pipelined(addr, 1, &ADDR_KINDS);
    b.pipelined(add, 1, &adder_kinds());
    b.pipelined(mul, 2, &MUL_KINDS);
    b.unpipelined(div, 8, &DIV_KINDS);
    b.unpipelined(div, 10, &[OpKind::FSqrt]);
    b.pipelined(br, 1, &[OpKind::Brtop]);
    b.finish()
}

/// A wider robustness-experiment variant: two adders and two multipliers,
/// with longer floating-point latencies.
pub fn wide_machine() -> Machine {
    let mut b = MachineBuilder::new("wide");
    let mem = b.class("Memory Port", 2);
    let addr = b.class("Address ALU", 2);
    let add = b.class("Adder", 2);
    let mul = b.class("Multiplier", 2);
    let div = b.class("Divider", 1);
    let br = b.class("Branch Unit", 1);
    b.pipelined(mem, 13, &[OpKind::Load]);
    b.pipelined(mem, 1, &[OpKind::Store]);
    b.pipelined(addr, 1, &ADDR_KINDS);
    b.pipelined(add, 3, &adder_kinds());
    b.pipelined(mul, 4, &MUL_KINDS);
    b.unpipelined(div, 17, &DIV_KINDS);
    b.unpipelined(div, 21, &[OpKind::FSqrt]);
    b.pipelined(br, 2, &[OpKind::Brtop]);
    b.finish()
}

/// The machines exercised by the robustness experiment, paper machine
/// first.
pub fn alternate_machines() -> Vec<Machine> {
    vec![huff_machine(), short_latency_machine(), wide_machine()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huff_machine_matches_table_1() {
        let m = huff_machine();
        assert_eq!(m.latency(OpKind::Load), 13);
        assert_eq!(m.latency(OpKind::Store), 1);
        assert_eq!(m.latency(OpKind::AddrAdd), 1);
        assert_eq!(m.latency(OpKind::IntAdd), 1);
        assert_eq!(m.latency(OpKind::FAdd), 1);
        assert_eq!(m.latency(OpKind::FMul), 2);
        assert_eq!(m.latency(OpKind::IntDiv), 17);
        assert_eq!(m.latency(OpKind::FSqrt), 21);
        assert_eq!(m.latency(OpKind::Brtop), 2);
        assert_eq!(m.classes()[m.desc(OpKind::Load).class.index()].count, 2);
        assert_eq!(m.classes()[m.desc(OpKind::FAdd).class.index()].count, 1);
    }

    #[test]
    fn divider_is_not_pipelined() {
        let m = huff_machine();
        assert_eq!(m.desc(OpKind::FDiv).reservation.len(), 17);
        assert_eq!(m.desc(OpKind::FSqrt).reservation.len(), 21);
        assert_eq!(m.desc(OpKind::FMul).reservation, vec![0]);
    }

    #[test]
    fn every_op_kind_is_implemented() {
        use OpKind::*;
        let kinds = [
            AddrAdd, AddrSub, AddrMul, IntAdd, IntSub, And, Or, Xor, FAdd, FSub, CmpEq, CmpNe,
            CmpLt, CmpLe, CmpGt, CmpGe, PredAnd, PredOr, PredNot, Select, Copy, IntMul, FMul,
            IntDiv, IntMod, FDiv, FMod, FSqrt, Load, Store, Brtop,
        ];
        for m in alternate_machines() {
            for &k in &kinds {
                let _ = m.desc(k); // panics if missing
            }
        }
    }

    #[test]
    fn loads_and_stores_share_the_memory_ports() {
        let m = huff_machine();
        assert_eq!(m.desc(OpKind::Load).class, m.desc(OpKind::Store).class);
    }

    #[test]
    #[should_panic(expected = "does not implement")]
    fn missing_opcode_panics() {
        let b = MachineBuilder::new("empty");
        b.finish().latency(OpKind::FAdd);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_unit_class_panics() {
        MachineBuilder::new("bad").class("ALU", 0);
    }
}
