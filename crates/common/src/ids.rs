//! Strongly-typed identifiers.
//!
//! Queries and plan nodes each get their own id type so they can't be
//! confused at call sites. Both are plain `u64` newtypes, minted by whichever
//! component owns them (e.g. the plan builder mints [`NodeId`]s).

use std::fmt;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// The raw numeric value.
            pub fn raw(&self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }
    };
}

define_id!(
    /// A query within the input stream (position-independent identity).
    QueryId, "q"
);
define_id!(
    /// A node within a logical plan DAG.
    NodeId, "n"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(QueryId(7).to_string(), "q7");
        assert_eq!(NodeId(3).to_string(), "n3");
    }

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; we just confirm raw round-trips.
        let q = QueryId::from(5u64);
        assert_eq!(q.raw(), 5);
    }
}
