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
//! **The multistore system** (paper §3): [`system`] holds the two stores
//! and the catalog and executes one query at a time — optimizing it
//! against the current design, executing the split plan, migrating working
//! sets, harvesting opportunistic views. [`split`] owns what each step of
//! that pipeline decides (placement, cuts, ship cost, harvest rule,
//! answer), so the stream driver and the serving layer's snapshot executor
//! compose one definition of it. [`stream`] is the one driver of a query
//! stream: a [`Stream`] takes a variant's prelude, growth steps,
//! reorganizations and queries one step at a time, reading every decision
//! from the policy table in [`variants`] — one row per evaluated variant
//! (HV-ONLY, DW-ONLY, MS-BASIC, HV-OP, MS-LRU, MS-OFF, MS-MISO, MS-ORA).
//! [`reorg`] applies a tuner's design through a crash-safe journal;
//! [`metrics`] records the TTI breakdown (HV-EXE / DW-EXE / TRANSFER /
//! TUNE / ETL) and per-query store utilization behind every figure.
//!
//! [`audit`] adds the integrity layer: read-time verification, the
//! between-epoch auditor (catalog↔store invariants plus a budget-bounded
//! checksum scrub) and the quarantine/repair loop.

pub mod audit;
pub mod etl;
pub mod knapsack;
pub mod maintenance;
pub mod metrics;
pub mod reorg;
pub mod split;
pub mod stream;
pub mod system;
pub mod tuner;
pub mod variants;

pub use audit::{AuditConfig, AuditMode, AuditReport};
pub use knapsack::{m_knapsack, PackItem, PackResult};
pub use maintenance::{MaintAction, MaintDecision, MaintenancePolicy, MaintenanceReport};
pub use metrics::{ExperimentResult, QueryFailure, QueryRecord, TtiBreakdown};
pub use reorg::{JournalEntry, ReorgJournal, ReorgPlan};
pub use split::{HarvestCandidate, Site, Stores};
pub use stream::{Step, StepKind, Stream};
pub use system::{GrowthConfig, GuardConfig, MultistoreSystem, SystemConfig};
pub use tuner::{MisoTuner, NewDesign, TunerConfig, WhatIfStats, WHATIF_MEMO_CAP};
pub use variants::{Placement, Policy, Prelude, Retention, Tuning, Variant};
