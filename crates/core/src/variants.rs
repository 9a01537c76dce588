//! The eight evaluated system variants of the paper's §5, and the one table
//! of what each of them does ([`Variant::policy`]). The stream driver
//! ([`crate::stream::Stream`]) reads every per-variant decision from that
//! table; no other code branches on a variant.

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

/// What a variant does once, before its first query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prelude {
    /// Nothing.
    None,
    /// ETL of every table the workload reads into DW, charged as ETL.
    Etl,
    /// An uncharged HV-only pass over the whole workload, then one offline
    /// tune over the views it created: the static design.
    OfflineTune,
}

/// Where a query's operators run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Every operator in HV.
    HvOnly,
    /// Every operator in DW, over the tables the ETL prelude loaded.
    DwOnly,
    /// The cheapest split (HV-only while DW is unhealthy), keeping each
    /// shipped working set as a DW view or not.
    Split {
        /// Keep shipped working sets as DW views.
        keep_working_sets: bool,
    },
}

/// What a query's by-products leave behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Nothing: the views a query harvested are dropped after it.
    None,
    /// HV's views, least recently used evicted beyond `B_h`.
    LruHv,
    /// Both stores' views, least recently used evicted beyond each budget.
    LruBoth,
    /// Everything, until the next reorganization decides.
    UntilReorg,
    /// The static design's views only, a DW one moved there (charged as
    /// TUNE) as soon as it appears.
    StaticDesign,
}

/// What the reorganization phases tune on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tuning {
    /// No reorganization phases.
    None,
    /// The last `history_len` queries.
    History,
    /// The next `history_len` queries (the oracle).
    Future,
}

/// One row of the policy table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// Display name matching the paper.
    pub name: &'static str,
    /// What runs before the first query.
    pub prelude: Prelude,
    /// Where each query runs.
    pub placement: Placement,
    /// What each query leaves behind.
    pub retention: Retention,
    /// What each reorganization tunes on.
    pub tuning: Tuning,
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

    /// The variant's row of the policy table.
    #[rustfmt::skip]
    pub const fn policy(self) -> Policy {
        use {Placement as Pl, Prelude as P, Retention as R, Tuning as T};
        const SPLIT: Pl = Pl::Split { keep_working_sets: false };
        const KEEP: Pl = Pl::Split { keep_working_sets: true };
        let (name, prelude, placement, retention, tuning) = match self {
            Variant::HvOnly  => ("HV-ONLY",  P::None,        Pl::HvOnly, R::None,         T::None),
            Variant::DwOnly  => ("DW-ONLY",  P::Etl,         Pl::DwOnly, R::None,         T::None),
            Variant::MsBasic => ("MS-BASIC", P::None,        SPLIT,      R::None,         T::None),
            Variant::HvOp    => ("HV-OP",    P::None,        Pl::HvOnly, R::LruHv,        T::None),
            Variant::MsLru   => ("MS-LRU",   P::None,        KEEP,       R::LruBoth,      T::None),
            Variant::MsOff   => ("MS-OFF",   P::OfflineTune, SPLIT,      R::StaticDesign, T::None),
            Variant::MsMiso  => ("MS-MISO",  P::None,        SPLIT,      R::UntilReorg,   T::History),
            Variant::MsOra   => ("MS-ORA",   P::None,        SPLIT,      R::UntilReorg,   T::Future),
        };
        Policy { name, prelude, placement, retention, tuning }
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        self.policy().name
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
        assert_eq!(Variant::ALL.len(), 8);
        assert_eq!(Variant::HvOp.policy().tuning, Tuning::None);
        assert_eq!(Variant::MsMiso.policy().tuning, Tuning::History);
        for v in Variant::ALL {
            let p = v.policy();
            // Only the tuned variants keep their views until a reorg.
            let tuned = p.tuning != Tuning::None;
            assert_eq!(tuned, p.retention == Retention::UntilReorg, "{v}");
            // A static design comes from the offline prelude and only there.
            let offline = p.prelude == Prelude::OfflineTune;
            assert_eq!(offline, p.retention == Retention::StaticDesign, "{v}");
            assert_eq!(p.prelude == Prelude::Etl, p.placement == Placement::DwOnly);
        }
        assert_eq!(Variant::MsOra.policy().tuning, Tuning::Future);
    }
}
