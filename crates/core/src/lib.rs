//! MISO core — the paper's contribution.
//!
//! Two halves:
//!
//! **The MISO tuner** (paper §4): [`knapsack`] implements the
//! multidimensional 0-1 knapsack DP of §4.4; [`tuner`] implements
//! Algorithm 1 (`MISO_TUNE`): interacting sets → sparsification → pack DW →
//! pack HV, under the view storage budgets `B_h`, `B_d` and the per-phase
//! transfer budget `B_t`.
//!
//! **The multistore system** (paper §3): [`system`] drives a query stream
//! through the two stores — optimizing each query against the current
//! design, executing split plans, migrating working sets, harvesting
//! opportunistic views, and periodically invoking a tuner. [`split`] owns
//! what each step of that pipeline decides (placement, cuts, ship cost,
//! harvest rule, answer), so the stream driver and the serving layer's
//! snapshot executor compose one definition of it. [`variants`]
//! configures the system as each of the paper's eight evaluated variants
//! (HV-ONLY, DW-ONLY, MS-BASIC, HV-OP, MS-LRU, MS-OFF, MS-MISO, MS-ORA);
//! [`metrics`] records the TTI breakdown (HV-EXE / DW-EXE / TRANSFER /
//! TUNE / ETL) and per-query store utilization behind every figure.
//!
//! [`audit`] adds the between-epoch integrity auditor: catalog↔store
//! invariants plus a budget-bounded checksum scrub feeding the
//! quarantine/repair loop in [`system`].

pub mod audit;
pub mod etl;
pub mod knapsack;
pub mod maintenance;
pub mod metrics;
pub mod reorg;
pub mod split;
pub mod system;
pub mod tuner;
pub mod variants;

pub use audit::{AuditConfig, AuditMode, AuditReport};
pub use knapsack::{m_knapsack, PackItem, PackResult};
pub use maintenance::{MaintAction, MaintDecision, MaintenancePolicy, MaintenanceReport};
pub use metrics::{ExperimentResult, QueryFailure, QueryRecord, TtiBreakdown};
pub use reorg::{JournalEntry, ReorgJournal, ReorgPlan};
pub use split::{HarvestCandidate, Stores};
pub use system::{GrowthConfig, GuardConfig, MultistoreSystem, SystemConfig};
pub use tuner::{MisoTuner, NewDesign, TunerConfig, WhatIfStats, WHATIF_MEMO_CAP};
pub use variants::Variant;
