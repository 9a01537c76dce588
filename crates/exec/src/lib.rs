//! Physical execution.
//!
//! Both simulated stores execute logical plans with the same operator
//! implementations — what differs between HV and DW is *how plans are staged
//! and costed*, not what the operators compute. Keeping execution shared
//! makes result-correctness testable store-independently: an HV execution, a
//! DW execution, and a view-rewritten execution of the same query must agree.
//!
//! * [`eval`] — scalar expression evaluation (Hive-style lenient casts,
//!   NULL-tolerant operators, scalar builtins);
//! * [`udf`] — the user-defined-function registry (UDFs are the operators
//!   that pin plan subtrees to HV);
//! * [`col`] — the morsel-at-a-time expression evaluator over
//!   [`miso_data::ColBatch`] and the fused scan+project line parser;
//! * [`engine`] — the morsel-parallel operator interpreter (miso-vex):
//!   executes a plan DAG over a [`engine::DataSource`], one body per
//!   operator over column batches, keeping every node's output unless the
//!   caller names the set it will read ([`Retention`]: HV keeps the stage
//!   outputs that become opportunistic views, DW only the root);
//! * [`memo`] — compute-once sub-plan outputs shared by the runs of one
//!   batch (a serving wave's base runs, a growth batch's folds), each
//!   replay charged as if the node had run;
//! * [`serial`] — the original row-at-a-time interpreter, preserved as the
//!   differential-testing oracle.

pub mod col;
pub mod engine;
pub mod eval;
pub mod ivm;
pub mod memo;
pub mod profile;
pub mod serial;
pub mod udf;

pub use col::FusedField;
pub use engine::{
    execute_subset_guarded, DataSource, Execution, LogColumns, LogLines, MemSource, Retention,
    MORSEL_SIZE,
};
pub use ivm::{AggApplied, AggState};
pub use memo::{MemoKey, SubplanMemo};
pub use profile::OpProfile;
pub use serial::execute_serial;
pub use udf::{Udf, UdfRegistry};
