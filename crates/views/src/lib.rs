//! Opportunistic materialized views and the analyses MISO runs over them.
//!
//! Views are the *elements of the multistore physical design* (paper §4.1).
//! They arise for free — HV stage outputs and migrated working sets — and
//! are identified semantically by their defining sub-plan's fingerprint.
//!
//! * [`view`] — view metadata and the view catalog;
//! * [`rewrite`] — semantic view matching: replacing plan subtrees whose
//!   fingerprint matches an available view with a `ScanView` (the rewriting
//!   algorithm role of the paper's \[15\]);
//! * [`benefit`] — per-view benefit and the **predicted future benefit**
//!   with per-epoch decay over the sliding workload history (\[18\]);
//! * [`maint`] — delta maintainability: which view shapes can absorb an
//!   append-only base-log delta incrementally (and the rewritten delta
//!   plan), versus which must fully recompute and why;
//! * [`interaction`] — signed degree-of-interaction (\[20\]), the stable
//!   partition into interacting sets (\[19\]), and sparsification into
//!   independent knapsack items (paper §4.3), probed through the batched
//!   parallel what-if engine (miso-par);
//! * [`viewset`] — interned view subsets as bitsets over the candidate
//!   universe, the memo key of every what-if probe.

pub mod benefit;
pub mod containment;
pub mod interaction;
pub mod maint;
pub mod rewrite;
pub mod view;
pub mod viewset;

pub use benefit::decay_weights;
pub use interaction::{analyze_candidates, AnalysisConfig, CostFn, KnapsackItem, ViewInfo};
pub use maint::{analyze_maintenance, FullReason, MaintPlan, ViewChange};
pub use rewrite::{rewrite_with_catalog, rewrite_with_views};
pub use view::{ViewCatalog, ViewDef};
pub use viewset::ViewSet;
