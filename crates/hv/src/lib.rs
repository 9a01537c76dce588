//! HV — the simulated Hive/Hadoop store.
//!
//! The paper's big-data store is Hive 0.7.1 over Hadoop on a 15-node
//! cluster. This crate reproduces the two properties MISO depends on:
//!
//! 1. **Materialization behaviour.** Hive compiles a query into a DAG of
//!    MapReduce jobs; every job writes its output to HDFS for fault
//!    tolerance. Those by-products are the *opportunistic views*. Our
//!    [`stages`] module performs the same compilation (map-side chains fuse;
//!    joins, aggregates, sorts, and UDF jobs end stages): [`Stages`] is the
//!    one stage rule, which the optimizer prices a split through and
//!    [`store::HvStore::execute`] charges a run through, capturing each
//!    stage output.
//! 2. **Cost asymmetry.** HV pays a fixed job-startup latency per stage plus
//!    scan/shuffle/write I/O at modest effective bandwidth — fast enough to
//!    sift TBs, but orders of magnitude slower per byte than the DW. The
//!    [`cost`] module charges simulated time accordingly, scaled from our
//!    MB-scale synthetic data back up to paper magnitudes.
//!
//! The store also enforces the **HV view storage budget** at tuning time
//! only — between reorganizations new opportunistic views accumulate
//! (paper §3.1: views "are retained until the next time the MISO tuner is
//! invoked").

pub mod cost;
pub mod stages;
pub mod store;

pub use cost::HvCostModel;
pub use stages::Stages;
pub use store::{HvRun, HvStore, LogBatch, MaterializedOutput};
