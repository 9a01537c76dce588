//! Shared primitives for the MISO multistore reproduction.
//!
//! This crate deliberately contains no query-processing logic. It provides the
//! vocabulary types every other crate speaks:
//!
//! * [`time`] — the **simulated clock**. The paper measures time-to-insight
//!   (TTI) on real clusters; we charge calibrated simulated seconds instead so
//!   experiments are deterministic and laptop-scale while keeping paper-scale
//!   magnitudes.
//! * [`bytesize`] — byte quantities (view sizes, budgets, working sets).
//! * [`ids`] — strongly-typed identifiers.
//! * [`error`] — the crate-spanning error type, with transient/permanent
//!   failure classification for the retry layer.
//! * [`rng`] — seedable deterministic randomness.
//! * [`budget`] — the tuner's storage/transfer budget types.
//! * [`retry`] — exponential backoff + jitter and per-store circuit
//!   breakers over simulated time.
//! * [`mod@env`] — the one grammar of the boolean `MISO_*` environment flags.
//! * [`prehash`] — hash maps keyed by digests, which need no SipHash.
//! * [`pool`] — the miso-par scoped worker pool (`MISO_THREADS`) with a
//!   deterministic-ordering batch primitive for the tuner's what-if probes.
//! * [`guard`] — the per-query lifecycle guard: deadline,
//!   cooperative cancellation token, and byte-denominated memory budget.

pub mod budget;
pub mod bytesize;
pub mod env;
pub mod error;
pub mod guard;
pub mod ids;
pub mod pool;
pub mod prehash;
pub mod retry;
pub mod rng;
pub mod time;

pub use budget::{Budgets, DiscretizedBudget};
pub use bytesize::ByteSize;
pub use error::{MisoError, Result};
pub use guard::QueryGuard;
pub use retry::{BreakerState, CircuitBreaker, Retry, RetryPolicy, Turn};
pub use rng::{DetRng, RandomSource};
pub use time::{SimClock, SimDuration, SimInstant};
