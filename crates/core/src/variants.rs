//! The eight evaluated system variants of the paper's §5.

use std::fmt;

/// Which system configuration to run a workload under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Queries run entirely in Hive; no views (§5.1 HV-ONLY).
    HvOnly,
    /// One-time ETL of the relevant data into DW, then all queries in DW
    /// (§5.1 DW-ONLY).
    DwOnly,
    /// Multistore splits, no tuning, nothing retained (§5.1 MS-BASIC).
    MsBasic,
    /// HV retains opportunistic views under an LRU policy and rewrites over
    /// them; execution stays in HV (§5.1 HV-OP, the method of \[15\]).
    HvOp,
    /// Passive multistore tuning: opportunistic views LRU-retained in HV,
    /// transferred working sets LRU-retained in DW (§5.3 MS-LRU).
    MsLru,
    /// One-shot offline tuning with the whole workload known up-front
    /// (§5.3 MS-OFF).
    MsOff,
    /// Online MISO tuning (the paper's system, MS-MISO).
    MsMiso,
    /// MISO tuning with the *actual* future window instead of the decayed
    /// history (§5.3 MS-ORA, the oracle reference point).
    MsOra,
}

impl Variant {
    /// All variants, in the paper's presentation order.
    pub const ALL: [Variant; 8] = [
        Variant::HvOnly,
        Variant::DwOnly,
        Variant::MsBasic,
        Variant::HvOp,
        Variant::MsLru,
        Variant::MsOff,
        Variant::MsMiso,
        Variant::MsOra,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::HvOnly => "HV-ONLY",
            Variant::DwOnly => "DW-ONLY",
            Variant::MsBasic => "MS-BASIC",
            Variant::HvOp => "HV-OP",
            Variant::MsLru => "MS-LRU",
            Variant::MsOff => "MS-OFF",
            Variant::MsMiso => "MS-MISO",
            Variant::MsOra => "MS-ORA",
        }
    }

    /// Whether the MISO tuner runs reorganization phases.
    pub fn uses_miso_tuner(&self) -> bool {
        matches!(self, Variant::MsMiso | Variant::MsOra)
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(Variant::MsMiso.name(), "MS-MISO");
        assert_eq!(Variant::HvOnly.to_string(), "HV-ONLY");
    }

    #[test]
    fn flags_are_consistent() {
        assert!(!Variant::HvOp.uses_miso_tuner());
        assert!(Variant::MsMiso.uses_miso_tuner());
        assert!(Variant::MsOra.uses_miso_tuner());
        assert_eq!(Variant::ALL.len(), 8);
    }
}
