//! SSA values and their register classes.

use std::fmt;

use crate::{OpId, ValueId};

/// The scalar type of an SSA value.
///
/// The target machine keeps 64-bit scalars in one register (§3.2 of the
/// paper normalises all measurements to that convention), so the type only
/// determines which functional units may operate on the value and which
/// register file holds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// A 64-bit integer.
    Int,
    /// A 64-bit float.
    Float,
    /// A memory address, produced and consumed by the Address ALU.
    Addr,
    /// A 1-bit predicate used for predicated execution (§2.2).
    Pred,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Addr => "addr",
            ValueType::Pred => "pred",
        };
        f.write_str(s)
    }
}

/// The register file a value lives in (§2.3).
///
/// The target machine has three register files, two of which rotate:
///
/// * `Rr` — rotating addresses, ints, and floats (the *loop variants*);
/// * `Gpr` — loop-invariant addresses, ints, and floats;
/// * `Icr` — rotating predicates, for iteration control and if-converted
///   code.
///
/// The paper's register-pressure study concerns the `Rr` file; `Gpr` and
/// `Icr` pressure are reported by Figures 7 and 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RegClass {
    /// Rotating register file for loop-variant scalars.
    Rr,
    /// General-purpose (static) file for loop invariants.
    Gpr,
    /// Rotating predicate (iteration control) register file.
    Icr,
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RegClass::Rr => "RR",
            RegClass::Gpr => "GPR",
            RegClass::Icr => "ICR",
        };
        f.write_str(s)
    }
}

/// An SSA value: one definition, any number of uses.
///
/// Loop-*variant* values are defined by an operation in the body and are
/// recomputed every iteration; loop-*invariant* values (including constants
/// and array base addresses) have no defining operation and live in the GPR
/// file for the whole loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Value {
    /// This value's id.
    pub id: ValueId,
    /// The scalar type.
    pub ty: ValueType,
    /// The defining operation, or `None` for loop invariants and live-ins.
    pub def: Option<OpId>,
    /// True for loop invariants (stored in the GPR file).
    pub invariant: bool,
    /// Human-readable name for diagnostics (`x`, `t3`, ...).
    pub name: ValueName,
}

/// A value's name for diagnostics: one the front end gave it, or the
/// `t{n}` of a temporary, rendered only when printed — so creating a
/// temporary allocates nothing. Both print (and `Debug`-print) exactly as
/// the equivalent `String` would.
#[derive(Clone, PartialEq, Eq)]
pub enum ValueName {
    /// `t{n}`: a temporary, numbered by the value id it was created with.
    Temp(u32),
    /// A name given by whoever created the value.
    Given(String),
}

impl From<String> for ValueName {
    fn from(name: String) -> Self {
        ValueName::Given(name)
    }
}

impl From<&str> for ValueName {
    fn from(name: &str) -> Self {
        ValueName::Given(name.to_owned())
    }
}

impl fmt::Display for ValueName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueName::Temp(n) if f.width().is_none() => write!(f, "t{n}"),
            ValueName::Temp(n) => f.pad(&format!("t{n}")),
            ValueName::Given(name) => f.pad(name),
        }
    }
}

impl fmt::Debug for ValueName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueName::Temp(n) => write!(f, "\"t{n}\""),
            ValueName::Given(name) => fmt::Debug::fmt(name, f),
        }
    }
}

impl Value {
    /// The register file this value occupies.
    ///
    /// Predicates always live in the rotating `ICR` file; other invariants
    /// live in the `GPR` file; remaining loop variants live in the rotating
    /// `RR` file.
    pub fn reg_class(&self) -> RegClass {
        if self.ty == ValueType::Pred {
            RegClass::Icr
        } else if self.invariant {
            RegClass::Gpr
        } else {
            RegClass::Rr
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(ty: ValueType, invariant: bool) -> Value {
        Value {
            id: ValueId::new(0),
            ty,
            def: None,
            invariant,
            name: "t".into(),
        }
    }

    #[test]
    fn predicates_live_in_icr_even_when_invariant() {
        assert_eq!(value(ValueType::Pred, true).reg_class(), RegClass::Icr);
        assert_eq!(value(ValueType::Pred, false).reg_class(), RegClass::Icr);
    }

    #[test]
    fn invariants_live_in_gpr() {
        assert_eq!(value(ValueType::Float, true).reg_class(), RegClass::Gpr);
        assert_eq!(value(ValueType::Addr, true).reg_class(), RegClass::Gpr);
    }

    #[test]
    fn variants_live_in_rr() {
        assert_eq!(value(ValueType::Int, false).reg_class(), RegClass::Rr);
        assert_eq!(value(ValueType::Addr, false).reg_class(), RegClass::Rr);
    }

    #[test]
    fn names_print_as_their_strings() {
        let cases = [
            (ValueName::Temp(3), "t3".to_owned()),
            (ValueName::from("a.x+0"), "a.x+0".to_owned()),
        ];
        for (name, string) in cases {
            assert_eq!(name.to_string(), string);
            assert_eq!(format!("{name:?}"), format!("{string:?}"));
            assert_eq!(format!("{name:<6}|"), format!("{string:<6}|"));
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ValueType::Addr.to_string(), "addr");
        assert_eq!(RegClass::Icr.to_string(), "ICR");
    }
}
