//! miso-serve: concurrent multi-tenant serving for the MISO multistore.
//!
//! The serial driver in `miso-core` executes one query at a time and stops
//! the world to reorganize. This crate turns that engine into a *server*:
//!
//! * **Epoch snapshots** ([`snapshot`]) — queries execute against an
//!   immutable `Arc`-published image of the catalog + view state, so a
//!   thousand concurrent readers and an in-progress reorganization can never
//!   observe (or cause) a half-updated design.
//! * **Read-only split execution** ([`executor`]) — the optimizer → HV →
//!   ship → DW pipeline of `miso_core::split`, composed over a snapshot and
//!   memoized per snapshot so repeated workload templates cost one real
//!   execution each.
//! * **Fair admission** ([`scheduler`]) — priority lanes and per-tenant
//!   quotas in front of the guard layer's admission/overload breaker: a hog
//!   tenant is shed with `retry_after`, everyone else keeps flowing.
//! * **The serving engine** ([`engine`]) — a deterministic discrete-event
//!   loop tying it together: arrivals, worker slots, chaos/guard envelopes,
//!   online reorg with bounded drain, and oracle-checked delivery.

pub mod engine;
pub mod executor;
pub mod scheduler;
pub mod snapshot;

pub use engine::{ServeConfig, ServeEngine, ServeReport, TenantReport};
pub use executor::{BaseRun, SnapExecutor};
pub use miso_core::HarvestCandidate;
pub use scheduler::{Admission, FairScheduler, Lane, QueryReq};
pub use snapshot::{EpochSnapshot, SnapshotCell};
