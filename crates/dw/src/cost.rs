//! The DW cost model.
//!
//! Mirrors the structure of the HV model but with warehouse characteristics:
//! negligible per-query startup, per-byte scan rates two-plus orders of
//! magnitude faster than HV's effective MapReduce rates (columnar-ish layout,
//! compiled operators, no JVM spin-up), and an expensive load path — the
//! paper's whole tuning problem exists because moving data into DW costs so
//! much more than querying it there.

use miso_common::{ByteSize, SimDuration};

/// Cost parameters for the DW cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct DwCostModel {
    /// Cluster width (the paper's DW cluster has 9 nodes).
    pub nodes: u32,
    /// Per-query planning/dispatch latency.
    pub query_startup: SimDuration,
    /// Seconds per byte scanned from resident tables.
    pub read_secs_per_byte: f64,
    /// Seconds per row of operator processing.
    pub cpu_secs_per_row: f64,
    /// Seconds per byte loaded into a table (parse + partition + write +
    /// index maintenance). Dominates everything else by design.
    pub load_secs_per_byte: f64,
}

impl Default for DwCostModel {
    fn default() -> Self {
        DwCostModel::paper_default()
    }
}

impl DwCostModel {
    /// Calibrated against the standard synthetic corpus (see `DESIGN.md` §5).
    pub fn paper_default() -> Self {
        DwCostModel {
            nodes: 9,
            query_startup: SimDuration::from_millis(300),
            read_secs_per_byte: 1.6e-6,
            cpu_secs_per_row: 3.0e-5,
            load_secs_per_byte: 0.9e-4,
        }
    }

    /// Cost of executing over `bytes_in` resident bytes and `rows_processed`
    /// operator-rows.
    pub fn exec_cost(&self, bytes_in: ByteSize, rows_processed: u64) -> SimDuration {
        self.query_startup
            + SimDuration::from_secs_f64(
                bytes_in.as_bytes() as f64 * self.read_secs_per_byte
                    + rows_processed as f64 * self.cpu_secs_per_row,
            )
    }

    /// Cost of loading `bytes` into a table (temp or permanent).
    pub fn load_cost(&self, bytes: ByteSize) -> SimDuration {
        SimDuration::from_secs_f64(bytes.as_bytes() as f64 * self.load_secs_per_byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_hv::HvCostModel;

    #[test]
    fn dw_is_much_faster_than_hv_per_byte() {
        let dw = DwCostModel::paper_default();
        let hv = HvCostModel::paper_default();
        assert!(
            hv.read_secs_per_byte / dw.read_secs_per_byte > 50.0,
            "the paper's asymmetry must be wide"
        );
    }

    #[test]
    fn loading_dominates_scanning() {
        let dw = DwCostModel::paper_default();
        let b = ByteSize::from_mib(5);
        assert!(dw.load_cost(b) > dw.exec_cost(b, 0) * 20.0);
    }

    #[test]
    fn exec_cost_has_small_startup() {
        let dw = DwCostModel::paper_default();
        let idle = dw.exec_cost(ByteSize::ZERO, 0);
        assert!(idle.as_secs_f64() < 1.0);
        assert!(idle > SimDuration::ZERO);
    }

    #[test]
    fn resident_query_is_seconds_not_thousands() {
        // A query over a ~1 MiB resident working set should land in seconds
        // (paper Fig 5b: most DW queries < 10 s).
        let dw = DwCostModel::paper_default();
        let c = dw.exec_cost(ByteSize::from_mib(1), 50_000);
        assert!(c.as_secs_f64() < 10.0, "got {c}");
    }
}
