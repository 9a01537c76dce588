//! Per-operator execution profiles (the raw material for EXPLAIN ANALYZE).
//!
//! Profiling is a process-wide switch behind a single relaxed atomic load:
//! [`enabled`] is checked once per executed plan, and when off the engine
//! does no extra work — no byte counting, no morsel accounting, no map
//! inserts — so the profiling-off path stays on the same instruction budget
//! as before this module existed.
//!
//! Every field of an [`OpProfile`] except `wall_ns` is **deterministic**:
//! row and byte counts follow from the data, and morsel counts follow from
//! the fixed [`crate::MORSEL_SIZE`] constant, never from the worker count.
//! Profiles collected at `MISO_THREADS=1` and `MISO_THREADS=8` therefore
//! agree on everything but wall time ([`OpProfile::deterministic`]).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static PROFILING: AtomicBool = AtomicBool::new(false);

/// Whether per-operator profiling is collected. One relaxed load.
#[inline]
pub fn enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Turns per-operator profiling on or off (process-wide).
pub fn set_enabled(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// Sets profiling from the `MISO_XRAY` flag ([`miso_common::env::flag`]).
pub fn init_from_env() {
    set_enabled(miso_common::env::flag("MISO_XRAY"));
}

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
    /// Approximate serialized bytes of the produced rows.
    pub bytes_out: u64,
    /// Morsels dispatched to the worker pool while this operator ran.
    pub morsels: u64,
    /// Items (rows or lines) that went through morsel-parallel dispatch.
    pub par_rows: u64,
}

impl OpProfile {
    /// The deterministic fields, for cross-thread-count comparison.
    pub fn deterministic(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.rows_in,
            self.rows_out,
            self.bytes_out,
            self.morsels,
            self.par_rows,
        )
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
    /// [`take_dispatch`]. `par_chunks` coordinates from the calling thread,
    /// so per-node attribution needs no cross-thread aggregation.
    static DISPATCH: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Records a morsel dispatch (called by the engine's `par_chunks`).
pub(crate) fn note_dispatch(morsels: u64, items: u64) {
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
