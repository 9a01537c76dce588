//! The HV cost model.
//!
//! Charges simulated time for MapReduce-style stage execution, following the
//! structure of the MRShare-style model the paper cites (\[16\]): per-job
//! startup latency plus read, CPU, and write terms. Rates are *effective
//! cluster rates* (per-node bandwidth × nodes ÷ replication and shuffle
//! overheads), expressed per **actual** byte of our scaled-down synthetic
//! data, calibrated so that end-to-end magnitudes land at paper scale
//! (HV-only queries in the 10³–10⁴ simulated-second range against MB-scale
//! inputs standing in for the paper's TBs).

use miso_common::{ByteSize, SimDuration};

/// Cost parameters for the HV cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct HvCostModel {
    /// Cluster width (the paper's HV cluster has 15 nodes).
    pub nodes: u32,
    /// Fixed startup latency per MapReduce job (JVM spin-up, scheduling).
    pub job_startup: SimDuration,
    /// Seconds per input byte read (scan + shuffle), effective across the
    /// cluster.
    pub read_secs_per_byte: f64,
    /// Seconds per output byte written (HDFS materialization is replicated,
    /// so writes cost more than reads).
    pub write_secs_per_byte: f64,
    /// Seconds per row of operator processing (SerDe, predicate eval, ...).
    pub cpu_secs_per_row: f64,
    /// Seconds per byte dumped out of HDFS to the staging disk (single
    /// unreplicated pass, sequential).
    pub dump_secs_per_byte: f64,
}

impl Default for HvCostModel {
    fn default() -> Self {
        HvCostModel::paper_default()
    }
}

impl HvCostModel {
    /// Calibrated to reproduce the paper's magnitudes against the standard
    /// synthetic corpus (see `DESIGN.md` §5).
    pub fn paper_default() -> Self {
        HvCostModel {
            nodes: 15,
            job_startup: SimDuration::from_secs(150),
            read_secs_per_byte: 2.2e-4,
            write_secs_per_byte: 3.3e-4,
            cpu_secs_per_row: 2.5e-3,
            dump_secs_per_byte: 0.5e-4,
        }
    }

    /// Cost of one stage (one MR job).
    pub fn stage_cost(
        &self,
        bytes_in: ByteSize,
        bytes_out: ByteSize,
        rows_processed: u64,
    ) -> SimDuration {
        let io = bytes_in.as_bytes() as f64 * self.read_secs_per_byte
            + bytes_out.as_bytes() as f64 * self.write_secs_per_byte;
        let cpu = rows_processed as f64 * self.cpu_secs_per_row;
        self.job_startup + SimDuration::from_secs_f64(io + cpu)
    }

    /// Cost of dumping a working set out of HDFS to the staging disk (the
    /// green "DUMP" component of the paper's Figure 3).
    pub fn dump_cost(&self, bytes: ByteSize) -> SimDuration {
        SimDuration::from_secs_f64(bytes.as_bytes() as f64 * self.dump_secs_per_byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_cost_includes_startup_floor() {
        let m = HvCostModel::paper_default();
        let empty = m.stage_cost(ByteSize::ZERO, ByteSize::ZERO, 0);
        assert_eq!(empty, m.job_startup);
    }

    #[test]
    fn cost_is_monotone_in_all_inputs() {
        let m = HvCostModel::paper_default();
        let base = m.stage_cost(ByteSize::from_mib(1), ByteSize::from_kib(100), 1000);
        assert!(m.stage_cost(ByteSize::from_mib(2), ByteSize::from_kib(100), 1000) > base);
        assert!(m.stage_cost(ByteSize::from_mib(1), ByteSize::from_kib(200), 1000) > base);
        assert!(m.stage_cost(ByteSize::from_mib(1), ByteSize::from_kib(100), 2000) > base);
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let m = HvCostModel::paper_default();
        assert!(m.write_secs_per_byte > m.read_secs_per_byte);
    }

    #[test]
    fn magnitudes_are_paper_scale() {
        // A full scan stage over a 10 MiB stand-in for ~1 TB should land in
        // the thousands of simulated seconds.
        let m = HvCostModel::paper_default();
        let cost = m.stage_cost(ByteSize::from_mib(10), ByteSize::from_mib(1), 40_000);
        let secs = cost.as_secs_f64();
        assert!((1_000.0..20_000.0).contains(&secs), "got {secs}");
    }

    #[test]
    fn dump_cheaper_than_stage_write() {
        let m = HvCostModel::paper_default();
        let b = ByteSize::from_mib(5);
        assert!(m.dump_cost(b) < m.stage_cost(b, b, 0));
    }
}
