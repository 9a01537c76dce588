//! The per-operator record of an execution.
//!
//! The engine's driver loop fills one [`OpProfile`] per node it runs — always:
//! the `exec.op` span, the `exec.*` counters and EXPLAIN ANALYZE
//! (`miso-xray`) all read this one record, and nothing about how a plan
//! executes depends on whether anyone does.
//!
//! Every field except `wall_ns` is **deterministic**: row and byte counts
//! follow from the data, and morsel counts follow from the fixed
//! [`crate::MORSEL_SIZE`] constant, never from the worker count. Records
//! taken at `MISO_THREADS=1` and `MISO_THREADS=8` therefore agree on
//! everything but wall time ([`OpProfile::deterministic`]).

use std::cell::Cell;

/// What one operator did during one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpProfile {
    /// Real wall-clock nanoseconds spent in the operator body. The only
    /// nondeterministic field — excluded from [`OpProfile::deterministic`].
    pub wall_ns: u64,
    /// Rows flowing in: the sum of the input nodes' output row counts
    /// (0 for leaf scans, which read lines/view rows instead of node rows).
    pub rows_in: u64,
    /// Rows produced.
    pub rows_out: u64,
    /// Morsels dispatched to the worker pool while this operator ran.
    pub morsels: u64,
    /// Items (rows or lines) that went through morsel-parallel dispatch.
    pub par_rows: u64,
    /// `(cols_hit, cols_parsed)` of a log scan that fused into its consumer:
    /// the columns the source already held and those it parsed for this run
    /// ([`crate::LogColumns`]). `None` for every other node, and for a scan
    /// that built whole JSON records.
    pub fused: Option<(u64, u64)>,
    /// Approximate serialized bytes of the output, where the run read them
    /// anyway: the engine records what it charged a guard, and EXPLAIN
    /// ANALYZE fills in the sizes HV materialized (and was costed on).
    /// Nothing walks a batch to fill this.
    pub bytes_out: Option<u64>,
}

impl OpProfile {
    /// The record of an output nothing was measured for — a working set
    /// shipped in, an output of the reference interpreter: its row count.
    pub(crate) fn rows_only(rows: usize) -> OpProfile {
        OpProfile {
            rows_out: rows as u64,
            ..OpProfile::default()
        }
    }

    /// The deterministic fields, for cross-thread-count comparison.
    pub fn deterministic(&self) -> OpProfile {
        OpProfile {
            wall_ns: 0,
            ..*self
        }
    }

    /// Fraction of input items that were processed via morsel-parallel
    /// dispatch (`par_rows` can exceed `rows_in` for joins, which dispatch
    /// both sides; clamped to 1.0).
    pub fn parallel_fraction(&self) -> f64 {
        if self.rows_in == 0 {
            if self.par_rows > 0 {
                1.0
            } else {
                0.0
            }
        } else {
            (self.par_rows as f64 / self.rows_in as f64).min(1.0)
        }
    }
}

thread_local! {
    /// (morsels, par_rows) dispatched on this thread since the last
    /// [`take_dispatch`]. Dispatch is coordinated from the calling thread,
    /// so per-node attribution needs no cross-thread aggregation.
    static DISPATCH: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Records a morsel dispatch: `items` rows or lines fanned out as `morsels`.
/// The one place `exec.morsels` / `exec.par_rows` are counted, so the
/// counters and the running node's record cannot disagree.
pub(crate) fn note_dispatch(morsels: u64, items: u64) {
    miso_obs::count("exec.morsels", morsels);
    miso_obs::count("exec.par_rows", items);
    DISPATCH.with(|d| {
        let (m, r) = d.get();
        d.set((m + morsels, r + items));
    });
}

/// Drains the dispatch counters accumulated since the previous call.
pub(crate) fn take_dispatch() -> (u64, u64) {
    DISPATCH.with(|d| d.replace((0, 0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_fraction_edge_cases() {
        let p = OpProfile::default();
        assert_eq!(p.parallel_fraction(), 0.0);
        let scan = OpProfile {
            par_rows: 100,
            ..Default::default()
        };
        assert_eq!(scan.parallel_fraction(), 1.0);
        let join = OpProfile {
            rows_in: 50,
            par_rows: 100,
            ..Default::default()
        };
        assert_eq!(join.parallel_fraction(), 1.0);
        let half = OpProfile {
            rows_in: 100,
            par_rows: 50,
            ..Default::default()
        };
        assert_eq!(half.parallel_fraction(), 0.5);
    }

    #[test]
    fn dispatch_counters_accumulate_and_drain() {
        let _ = take_dispatch();
        note_dispatch(2, 8000);
        note_dispatch(1, 100);
        assert_eq!(take_dispatch(), (3, 8100));
        assert_eq!(take_dispatch(), (0, 0));
    }
}
