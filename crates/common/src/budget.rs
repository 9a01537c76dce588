//! Tuning budgets.
//!
//! The MISO tuner is constrained by three quantities (paper Section 4.1):
//!
//! * `B_h` — HV view storage budget,
//! * `B_d` — DW view storage budget,
//! * `B_t` — view transfer budget per reorganization phase.
//!
//! All three are byte quantities; the knapsack discretizes them at factor `d`
//! (default 1 GiB in the paper, configurable here because our synthetic data
//! is smaller).

use crate::bytesize::ByteSize;

/// The three budget constraints handed to the tuner, plus the knapsack
/// discretization unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budgets {
    /// HV view storage budget (`B_h`).
    pub hv_storage: ByteSize,
    /// DW view storage budget (`B_d`).
    pub dw_storage: ByteSize,
    /// Per-reorganization view transfer budget (`B_t`).
    pub transfer: ByteSize,
    /// Knapsack discretization unit (`d`). Sizes are rounded **up** to whole
    /// units, so a unit larger than typical view sizes over-charges capacity.
    pub discretization: ByteSize,
}

impl Budgets {
    /// Budgets with the paper's default 1 GiB discretization.
    pub fn new(hv_storage: ByteSize, dw_storage: ByteSize, transfer: ByteSize) -> Self {
        Budgets {
            hv_storage,
            dw_storage,
            transfer,
            discretization: ByteSize::from_gib(1),
        }
    }

    /// Overrides the discretization unit.
    pub fn with_discretization(mut self, unit: ByteSize) -> Self {
        self.discretization = unit;
        self
    }

    /// Validates internal consistency (non-zero discretization).
    pub fn validate(&self) -> crate::Result<()> {
        if self.discretization.is_zero() {
            return Err(crate::MisoError::Tuning(
                "knapsack discretization unit must be non-zero".into(),
            ));
        }
        Ok(())
    }

    /// `B_t` in discrete units (rounded down — capacity never rounds up).
    pub fn transfer_units(&self) -> u64 {
        self.transfer.as_bytes() / self.discretization.as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gib(n: u64) -> ByteSize {
        ByteSize::from_gib(n)
    }

    #[test]
    fn budgets_units_round_down() {
        let b = Budgets::new(gib(2), gib(2), gib(3) + ByteSize::from_mib(512));
        assert_eq!(b.transfer_units(), 3);
    }

    #[test]
    fn budgets_validate_rejects_zero_unit() {
        let b = Budgets::new(gib(1), gib(1), gib(1)).with_discretization(ByteSize::ZERO);
        assert!(b.validate().is_err());
        assert!(Budgets::new(gib(1), gib(1), gib(1)).validate().is_ok());
    }
}
