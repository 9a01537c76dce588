//! Byte quantities.
//!
//! View sizes, working-set sizes, and the tuner's budgets (`B_h`, `B_d`,
//! `B_t`) are all byte counts. The paper expresses budgets in GB and
//! discretizes the knapsack dimensions at 1 GB granularity; [`ByteSize`]
//! carries exact bytes and offers the discretization used by `miso-core`'s
//! knapsack.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// An exact, non-negative number of bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize {
    bytes: u64,
}

pub const KIB: u64 = 1024;
pub const MIB: u64 = 1024 * KIB;
pub const GIB: u64 = 1024 * MIB;

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize { bytes: 0 };

    /// Exact byte count.
    pub const fn from_bytes(bytes: u64) -> Self {
        ByteSize { bytes }
    }

    /// Whole kibibytes.
    pub const fn from_kib(kib: u64) -> Self {
        ByteSize { bytes: kib * KIB }
    }

    /// Whole mebibytes.
    pub const fn from_mib(mib: u64) -> Self {
        ByteSize { bytes: mib * MIB }
    }

    /// Whole gibibytes.
    pub const fn from_gib(gib: u64) -> Self {
        ByteSize { bytes: gib * GIB }
    }

    /// Exact bytes.
    pub fn as_bytes(&self) -> u64 {
        self.bytes
    }

    /// True iff zero bytes.
    pub fn is_zero(&self) -> bool {
        self.bytes == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize {
            bytes: self.bytes.saturating_sub(rhs.bytes),
        }
    }

    /// Number of discrete units of width `unit`, rounding **up** — a view that
    /// occupies any part of a unit consumes the whole unit. This matches the
    /// knapsack discretization in the paper (Section 4.4.2, factor `d`).
    pub fn units_ceil(&self, unit: ByteSize) -> u64 {
        assert!(!unit.is_zero(), "discretization unit must be non-zero");
        self.bytes.div_ceil(unit.bytes)
    }

    /// Scales the size by a non-negative factor, rounding to nearest byte.
    pub fn scale(&self, factor: f64) -> ByteSize {
        if !factor.is_finite() || factor <= 0.0 {
            return ByteSize::ZERO;
        }
        ByteSize {
            bytes: (self.bytes as f64 * factor).round() as u64,
        }
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize {
            bytes: self.bytes + rhs.bytes,
        }
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.bytes += rhs.bytes;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize {
            bytes: self.bytes - rhs.bytes,
        }
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.bytes -= rhs.bytes;
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize {
            bytes: self.bytes * rhs,
        }
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, Add::add)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.bytes;
        if b >= GIB {
            write!(f, "{:.2}GiB", b as f64 / GIB as f64)
        } else if b >= MIB {
            write!(f, "{:.2}MiB", b as f64 / MIB as f64)
        } else if b >= KIB {
            write!(f, "{:.2}KiB", b as f64 / KIB as f64)
        } else {
            write!(f, "{b}B")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(ByteSize::from_kib(1).as_bytes(), 1024);
        assert_eq!(ByteSize::from_mib(1).as_bytes(), 1024 * 1024);
        assert_eq!(ByteSize::from_gib(2), ByteSize::from_mib(2048));
    }

    #[test]
    fn arithmetic() {
        let a = ByteSize::from_mib(10);
        let b = ByteSize::from_mib(4);
        assert_eq!(a + b, ByteSize::from_mib(14));
        assert_eq!(a - b, ByteSize::from_mib(6));
        assert_eq!(b.saturating_sub(a), ByteSize::ZERO);
        assert_eq!(a * 3, ByteSize::from_mib(30));
        assert_eq!(a.scale(0.5), ByteSize::from_mib(5));
    }

    #[test]
    fn units_ceil_rounds_up() {
        let gib = ByteSize::from_gib(1);
        assert_eq!(ByteSize::ZERO.units_ceil(gib), 0);
        assert_eq!(ByteSize::from_bytes(1).units_ceil(gib), 1);
        assert_eq!(ByteSize::from_gib(1).units_ceil(gib), 1);
        assert_eq!(
            (ByteSize::from_gib(1) + ByteSize::from_bytes(1)).units_ceil(gib),
            2
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn units_ceil_rejects_zero_unit() {
        ByteSize::from_gib(1).units_ceil(ByteSize::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(ByteSize::from_bytes(42).to_string(), "42B");
        assert_eq!(ByteSize::from_kib(3).to_string(), "3.00KiB");
        assert_eq!(ByteSize::from_mib(1536).to_string(), "1.50GiB");
    }

    #[test]
    fn sum_accumulates() {
        let total: ByteSize = (1..=3).map(ByteSize::from_mib).sum();
        assert_eq!(total, ByteSize::from_mib(6));
    }
}
