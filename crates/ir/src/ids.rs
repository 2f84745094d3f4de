//! Index newtypes for operations, values, and dependence arcs.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        ///
        /// The `Default` id is index 0; [`Operands`](crate::Operands) pads
        /// its unused slots with it.
        #[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a raw index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in `u32`.
            pub fn new(index: usize) -> Self {
                Self(u32::try_from(index).expect("id index overflows u32"))
            }

            /// Returns the raw index, suitable for indexing dense side tables.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type! {
    /// Identifies an [`Op`](crate::Op) within one [`LoopBody`](crate::LoopBody).
    OpId, "op"
}

id_type! {
    /// Identifies a [`Value`](crate::Value) within one [`LoopBody`](crate::LoopBody).
    ValueId, "v"
}

id_type! {
    /// Identifies a [`Dep`](crate::Dep) arc within one [`LoopBody`](crate::LoopBody).
    DepId, "d"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_their_index() {
        let op = OpId::new(7);
        assert_eq!(op.index(), 7);
        assert_eq!(format!("{op}"), "op7");
        assert_eq!(format!("{op:?}"), "op7");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(ValueId::new(1) < ValueId::new(2));
        assert_eq!(DepId::new(3), DepId::new(3));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn id_overflow_panics() {
        let _ = OpId::new(usize::MAX);
    }
}
