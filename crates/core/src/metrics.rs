//! TTI metrics.
//!
//! The paper's primary metric is **time-to-insight**: "the cumulative time
//! of loading data, transferring data during query execution, tuning the
//! systems, and executing the queries" (§5.1), broken into HV-EXE, DW-EXE,
//! TRANSFER, TUNE, and ETL. Every figure in the evaluation is a projection
//! of the records collected here.

use miso_common::ids::QueryId;
use miso_common::{ByteSize, SimDuration, SimInstant};

/// The five TTI components of §5.1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TtiBreakdown {
    /// Cumulative query execution time in HV.
    pub hv_exe: SimDuration,
    /// Cumulative query execution time in DW.
    pub dw_exe: SimDuration,
    /// Cumulative working-set dump/transfer/load time during execution.
    pub transfer: SimDuration,
    /// Cumulative tuning time: design computation plus reorganization view
    /// movement (and any index creation in DW).
    pub tune: SimDuration,
    /// One-time up-front load (DW-ONLY only).
    pub etl: SimDuration,
}

impl TtiBreakdown {
    /// Total time-to-insight.
    pub fn total(&self) -> SimDuration {
        self.hv_exe + self.dw_exe + self.transfer + self.tune + self.etl
    }
}

/// Per-query measurements.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Stream position / identity.
    pub query: QueryId,
    /// Human label (e.g. `A1v2`).
    pub label: String,
    /// Time spent executing in HV.
    pub hv: SimDuration,
    /// Time spent executing in DW.
    pub dw: SimDuration,
    /// Working-set dump/transfer/load time.
    pub transfer: SimDuration,
    /// Result cardinality.
    pub result_rows: u64,
    /// Views the rewrite consumed.
    pub used_views: Vec<String>,
    /// Plan operators executed in HV.
    pub hv_ops: usize,
    /// Plan operators executed in DW.
    pub dw_ops: usize,
    /// Bytes shipped HV→DW during execution.
    pub bytes_transferred: ByteSize,
    /// Cumulative TTI at query completion (Fig 5a's y-axis).
    pub finished_at: SimInstant,
}

impl QueryRecord {
    /// Query execution time (excluding tuning/ETL, which are not
    /// per-query).
    pub fn exec_total(&self) -> SimDuration {
        self.hv + self.dw + self.transfer
    }

    /// Fraction of execution time spent in DW (Fig 6's ranking key).
    pub fn dw_utilization(&self) -> f64 {
        let total = self.exec_total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.dw.as_secs_f64() / total
        }
    }
}

/// A query the guard layer terminated (shed at admission, cancelled, past
/// its deadline, or over its memory budget) instead of completing. Failed
/// queries never contribute a [`QueryRecord`]; they are reported here so a
/// storm run can audit that every loss was classified, not silent.
#[derive(Debug, Clone)]
pub struct QueryFailure {
    /// Stream position / identity.
    pub query: QueryId,
    /// Human label (e.g. `A1v2`).
    pub label: String,
    /// Stable error tag (`MisoError::kind()`): `cancelled` or
    /// `resource_exhausted`.
    pub kind: &'static str,
    /// Human-readable error text.
    pub message: String,
    /// Whether the query was shed at admission (never executed) rather than
    /// killed mid-flight.
    pub shed: bool,
    /// For shed queries: how long a client should wait before retrying
    /// (the overload breaker's remaining cooldown).
    pub retry_after: Option<SimDuration>,
    /// When the failure was recorded.
    pub at: SimInstant,
    /// Owning tenant, when the query arrived through the serving layer
    /// (`None` on the serial single-client path).
    pub tenant: Option<String>,
    /// Client session id within the tenant, when served concurrently.
    pub session: Option<u64>,
}

impl QueryFailure {
    /// A query killed mid-flight with the classified `kind`. The serving
    /// layer adds its tenant/session attribution.
    pub fn killed(
        query: QueryId,
        label: &str,
        kind: &'static str,
        message: String,
        at: SimInstant,
    ) -> Self {
        QueryFailure {
            query,
            label: label.to_string(),
            kind,
            message,
            shed: false,
            retry_after: None,
            at,
            tenant: None,
            session: None,
        }
    }

    /// A query shed at admission for `reason`; `retry_after` is the hint
    /// handed back to the client.
    pub fn shed(
        query: QueryId,
        label: &str,
        reason: &str,
        retry_after: SimDuration,
        at: SimInstant,
    ) -> Self {
        let message = format!("query shed at admission ({reason})");
        QueryFailure {
            shed: true,
            retry_after: Some(retry_after),
            ..Self::killed(query, label, "resource_exhausted", message, at)
        }
    }
}

/// One reorganization phase.
#[derive(Debug, Clone)]
pub struct ReorgRecord {
    /// When the phase started.
    pub at: SimInstant,
    /// Total phase duration (computation + movements).
    pub duration: SimDuration,
    /// Views moved into DW.
    pub moved_to_dw: Vec<String>,
    /// Views moved back into HV.
    pub moved_to_hv: Vec<String>,
    /// Views dropped from the design entirely.
    pub dropped: Vec<String>,
    /// Quarantined views recomputed (self-healed) by this phase.
    pub repaired: Vec<String>,
    /// Bytes moved between the stores.
    pub bytes_moved: ByteSize,
    /// Crash-recovery rounds this phase needed (0 in fault-free runs).
    pub recoveries: u64,
    /// Whether the phase rolled back (pre-commit crash): the old design
    /// stands and no views moved.
    pub rolled_back: bool,
}

/// Everything one experiment run produces.
#[derive(Debug, Clone, Default)]
pub struct ExperimentResult {
    /// The variant that ran (display name).
    pub variant: String,
    /// Per-query records, in stream order.
    pub records: Vec<QueryRecord>,
    /// Reorganization phases.
    pub reorgs: Vec<ReorgRecord>,
    /// Accumulated TTI breakdown.
    pub tti: TtiBreakdown,
    /// Per-epoch predicted-vs-actual calibration reports (one per
    /// reorganization boundary plus one for the tail of the stream; empty
    /// for variants that never execute split plans).
    pub calibrations: Vec<crate::calibration::CalibrationReport>,
    /// Queries the guard layer terminated (always empty when guards are
    /// disabled).
    pub failures: Vec<QueryFailure>,
    /// Streaming-growth maintenance reports, one per ingested delta batch
    /// (empty unless `SystemConfig::growth` is set).
    pub maintenance: Vec<crate::maintenance::MaintenanceReport>,
}

impl ExperimentResult {
    /// Total TTI.
    pub fn tti_total(&self) -> SimDuration {
        self.tti.total()
    }

    /// Cumulative TTI after each completed query (Fig 5a series).
    pub fn cumulative_tti(&self) -> Vec<SimDuration> {
        self.records
            .iter()
            .map(|r| r.finished_at.elapsed_since_epoch())
            .collect()
    }

    /// Fraction of queries whose *execution time* falls under each bucket
    /// boundary (Fig 5b series). `bounds` are in seconds, ascending.
    pub fn exec_time_cdf(&self, bounds: &[f64]) -> Vec<f64> {
        let n = self.records.len().max(1) as f64;
        bounds
            .iter()
            .map(|&b| {
                self.records
                    .iter()
                    .filter(|r| r.exec_total().as_secs_f64() < b)
                    .count() as f64
                    / n
            })
            .collect()
    }

    /// Queries ranked by DW utilization, highest first (Fig 6's x-axis).
    pub fn by_dw_utilization(&self) -> Vec<&QueryRecord> {
        let mut refs: Vec<&QueryRecord> = self.records.iter().collect();
        refs.sort_by(|a, b| {
            b.dw_utilization()
                .partial_cmp(&a.dw_utilization())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        refs
    }

    /// Number of queries that spend the majority of execution time in DW
    /// (the headline counts of Fig 6: 2 / 9 / 14).
    pub fn dw_majority_queries(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.dw_utilization() > 0.5)
            .count()
    }

    /// HV:DW execution-second ratio over the top-`k` DW-utilization queries
    /// (the "for every second in DW, N seconds in HV" numbers of §5.2.2).
    pub fn hv_per_dw_second(&self, k: usize) -> f64 {
        let top = self.by_dw_utilization();
        let (mut hv, mut dw) = (0.0, 0.0);
        for r in top.iter().take(k) {
            hv += r.hv.as_secs_f64();
            dw += r.dw.as_secs_f64();
        }
        if dw == 0.0 {
            f64::INFINITY
        } else {
            hv / dw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(label: &str, hv: u64, dw: u64, transfer: u64, at: u64) -> QueryRecord {
        QueryRecord {
            query: QueryId(0),
            label: label.into(),
            hv: SimDuration::from_secs(hv),
            dw: SimDuration::from_secs(dw),
            transfer: SimDuration::from_secs(transfer),
            result_rows: 1,
            used_views: vec![],
            hv_ops: 3,
            dw_ops: 1,
            bytes_transferred: ByteSize::ZERO,
            finished_at: SimInstant::at(SimDuration::from_secs(at)),
        }
    }

    #[test]
    fn breakdown_totals() {
        let tti = TtiBreakdown {
            hv_exe: SimDuration::from_secs(10),
            dw_exe: SimDuration::from_secs(2),
            transfer: SimDuration::from_secs(3),
            tune: SimDuration::from_secs(4),
            etl: SimDuration::from_secs(1),
        };
        assert_eq!(tti.total().as_secs(), 20);
    }

    #[test]
    fn dw_utilization_and_ranking() {
        let result = ExperimentResult {
            variant: "test".into(),
            records: vec![
                rec("a", 90, 10, 0, 100),
                rec("b", 10, 90, 0, 200),
                rec("c", 0, 0, 0, 200),
            ],
            ..Default::default()
        };
        let ranked = result.by_dw_utilization();
        assert_eq!(ranked[0].label, "b");
        assert_eq!(result.dw_majority_queries(), 1);
        assert_eq!(result.records[2].dw_utilization(), 0.0, "zero-time query");
    }

    #[test]
    fn exec_time_cdf_buckets() {
        let result = ExperimentResult {
            variant: "test".into(),
            records: vec![
                rec("a", 5, 0, 0, 5),
                rec("b", 50, 0, 0, 55),
                rec("c", 500, 0, 0, 555),
            ],
            ..Default::default()
        };
        let cdf = result.exec_time_cdf(&[10.0, 100.0, 1000.0]);
        assert_eq!(cdf, vec![1.0 / 3.0, 2.0 / 3.0, 1.0]);
    }

    #[test]
    fn zero_exec_time_has_zero_utilization() {
        let r = rec("idle", 0, 0, 0, 1);
        assert_eq!(r.exec_total(), SimDuration::ZERO);
        assert_eq!(r.dw_utilization(), 0.0, "must not divide by zero");
    }

    #[test]
    fn exec_time_cdf_with_no_records() {
        let empty = ExperimentResult::default();
        let cdf = empty.exec_time_cdf(&[1.0, 10.0]);
        assert_eq!(cdf, vec![0.0, 0.0], "empty stream yields all-zero CDF");
        assert!(empty.cumulative_tti().is_empty());
        assert_eq!(empty.dw_majority_queries(), 0);
    }

    #[test]
    fn hv_per_dw_ratio() {
        let result = ExperimentResult {
            variant: "test".into(),
            records: vec![rec("a", 55, 1, 0, 56), rec("b", 55, 1, 0, 112)],
            ..Default::default()
        };
        assert_eq!(result.hv_per_dw_second(2), 55.0);
        let none = ExperimentResult {
            variant: "x".into(),
            records: vec![rec("a", 5, 0, 0, 5)],
            ..Default::default()
        };
        assert!(none.hv_per_dw_second(1).is_infinite());
    }

    #[test]
    fn cumulative_tti_is_finished_at() {
        let result = ExperimentResult {
            variant: "test".into(),
            records: vec![rec("a", 1, 0, 0, 10), rec("b", 1, 0, 0, 25)],
            ..Default::default()
        };
        let c = result.cumulative_tti();
        assert_eq!(c[0].as_secs(), 10);
        assert_eq!(c[1].as_secs(), 25);
    }
}
