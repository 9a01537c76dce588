//! miso-guard: the per-query lifecycle guard.
//!
//! A [`QueryGuard`] travels with one query from admission in the multistore
//! driver, through every store call, down into the vex engine's morsel
//! dispatch. It carries three cooperative controls:
//!
//! * a **cancellation token** — once tripped (explicitly, by a deadline, or
//!   by the memory budget) every subsequent [`QueryGuard::check`] fails with
//!   a tagged [`MisoError`], so the query unwinds at the next dispatch
//!   boundary while the process and all other queries stay healthy;
//! * a **deadline** on the simulated timeline — the driver owns the clock,
//!   so it calls [`QueryGuard::check_deadline`] at store-call boundaries
//!   (the engine itself only ever observes the resulting cancellation);
//! * a **byte-denominated memory budget** — the engine charges join build
//!   tables, aggregate accumulator tables, and materialization buffers via
//!   [`QueryGuard::try_charge`]; an over-budget charge is refused (so the
//!   recorded peak never exceeds the budget) and trips the token.
//!
//! Whether a system guards its queries is its own configuration
//! (`GuardConfig::enabled`); a system that does not passes the **inert**
//! guard, which short-circuits on a plain `bool` before touching any atomic,
//! so guard-free execution costs one predictable branch per check.
//!
//! State changes (cancel, deadline trip, budget trip) only ever happen at
//! serial points in the driver or engine — never inside pool workers — so a
//! query's outcome is identical for every `MISO_THREADS` value.

use crate::error::{MisoError, Result};
use crate::time::SimInstant;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// Guard state
// ---------------------------------------------------------------------------

/// Token states. `LIVE` is the fast path; everything else is a trip reason.
const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;
const MEMORY: u8 = 3;

#[derive(Debug)]
struct GuardInner {
    /// `false` only for the shared inert guard: every check short-circuits
    /// on this plain bool before touching an atomic.
    active: bool,
    /// One of `LIVE`/`CANCELLED`/`DEADLINE`/`MEMORY`.
    state: AtomicU8,
    /// Absolute simulated deadline; `None` = no deadline.
    deadline: Option<SimInstant>,
    /// Memory budget in bytes; 0 = unlimited.
    budget: u64,
    /// Bytes currently charged.
    used: AtomicU64,
    /// High-water mark of `used`. Because over-budget charges are refused
    /// before they are recorded, `peak <= budget` always holds.
    peak: AtomicU64,
    /// High-water mark of `used` since the last [`QueryGuard::open_window`].
    window: AtomicU64,
    /// Testing hook: trip the token after this many successful checks
    /// (0 = disabled). Mirrors the chaos registry's `OnHit` trigger and
    /// powers the cancel-at-every-operator sweep.
    cancel_after: AtomicU64,
}

/// The per-query guard: deadline + cancellation token + memory gauge.
///
/// Cheap to clone (an `Arc`); all clones observe the same token and budget.
#[derive(Debug, Clone)]
pub struct QueryGuard(Arc<GuardInner>);

impl QueryGuard {
    /// A live guard with the given absolute deadline and byte budget
    /// (`budget == 0` means unlimited).
    pub fn new(deadline: Option<SimInstant>, budget: u64) -> Self {
        QueryGuard(Arc::new(GuardInner {
            active: true,
            state: AtomicU8::new(LIVE),
            deadline,
            budget,
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            window: AtomicU64::new(0),
            cancel_after: AtomicU64::new(0),
        }))
    }

    /// The shared inert guard: never trips, never charges, checks cost one
    /// branch. Every legacy entry point passes this.
    pub fn inert() -> QueryGuard {
        Self::inert_ref().clone()
    }

    /// Borrow of the shared inert guard (no refcount traffic).
    pub fn inert_ref() -> &'static QueryGuard {
        static INERT: OnceLock<QueryGuard> = OnceLock::new();
        INERT.get_or_init(|| {
            QueryGuard(Arc::new(GuardInner {
                active: false,
                state: AtomicU8::new(LIVE),
                deadline: None,
                budget: 0,
                used: AtomicU64::new(0),
                peak: AtomicU64::new(0),
                window: AtomicU64::new(0),
                cancel_after: AtomicU64::new(0),
            }))
        })
    }

    /// Whether this is a real (non-inert) guard.
    pub fn is_active(&self) -> bool {
        self.0.active
    }

    /// The error corresponding to a tripped state.
    #[cold]
    fn tripped_error(state: u8) -> MisoError {
        match state {
            DEADLINE => MisoError::Cancelled {
                reason: "deadline",
                message: "query deadline exceeded".into(),
            },
            MEMORY => MisoError::ResourceExhausted {
                resource: "memory",
                message: "query memory budget exhausted".into(),
            },
            _ => MisoError::Cancelled {
                reason: "explicit",
                message: "query cancelled".into(),
            },
        }
    }

    /// Cooperative cancellation check: `Ok` while the query is live, the
    /// tagged trip error once the token has tripped. One relaxed load on
    /// the active fast path, one branch on the inert one.
    ///
    /// Call this only at serial points (node boundaries, morsel-dispatch
    /// boundaries, store-call boundaries) so the trip is observed at the
    /// same operation for every thread count.
    #[inline]
    pub fn check(&self) -> Result<()> {
        if !self.0.active {
            return Ok(());
        }
        let state = self.0.state.load(Ordering::Relaxed);
        if state != LIVE {
            return Err(Self::tripped_error(state));
        }
        self.count_check()
    }

    /// Countdown half of the `cancel_after_checks` testing hook.
    #[inline]
    fn count_check(&self) -> Result<()> {
        let n = self.0.cancel_after.load(Ordering::Relaxed);
        if n == 0 {
            return Ok(());
        }
        if n == 1 {
            self.0.cancel_after.store(0, Ordering::Relaxed);
            self.trip(CANCELLED);
            return Err(Self::tripped_error(CANCELLED));
        }
        self.0.cancel_after.store(n - 1, Ordering::Relaxed);
        Ok(())
    }

    /// Whether the token has tripped (for any reason).
    pub fn is_cancelled(&self) -> bool {
        self.0.active && self.0.state.load(Ordering::Relaxed) != LIVE
    }

    /// Explicitly cancels the query: every later check fails.
    pub fn cancel(&self) {
        if self.0.active {
            self.trip(CANCELLED);
        }
    }

    /// Testing hook: trips the token on the `n`-th subsequent successful
    /// [`QueryGuard::check`] — the cancel-at-every-operator sweep primitive.
    pub fn cancel_after_checks(&self, n: u64) {
        self.0.cancel_after.store(n, Ordering::Relaxed);
    }

    /// First trip wins: the recorded reason is the original cause.
    fn trip(&self, state: u8) {
        let _ = self
            .0
            .state
            .compare_exchange(LIVE, state, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<SimInstant> {
        if self.0.active {
            self.0.deadline
        } else {
            None
        }
    }

    /// Deadline check against the driver's clock: trips the token and fails
    /// once `now` passes the deadline. Also surfaces any earlier trip, so
    /// store-call boundaries need only this one call.
    pub fn check_deadline(&self, now: SimInstant) -> Result<()> {
        if !self.0.active {
            return Ok(());
        }
        self.check()?;
        if let Some(deadline) = self.0.deadline {
            if now > deadline {
                self.trip(DEADLINE);
                return Err(Self::tripped_error(DEADLINE));
            }
        }
        Ok(())
    }

    /// Charges `bytes` against the memory budget. An over-budget charge is
    /// refused *without* being recorded (so `peak() <= budget()` is an
    /// invariant), trips the token, and returns `ResourceExhausted`.
    ///
    /// Call only at serial points; charging from pool workers would make
    /// the trip order depend on scheduling.
    pub fn try_charge(&self, bytes: u64) -> Result<()> {
        if !self.0.active || bytes == 0 {
            return Ok(());
        }
        let now = self.0.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if self.0.budget != 0 && now > self.0.budget {
            self.0.used.fetch_sub(bytes, Ordering::Relaxed);
            self.trip(MEMORY);
            return Err(Self::tripped_error(MEMORY));
        }
        self.0.peak.fetch_max(now, Ordering::Relaxed);
        self.0.window.fetch_max(now, Ordering::Relaxed);
        Ok(())
    }

    /// Releases previously charged bytes.
    pub fn release(&self, bytes: u64) {
        if !self.0.active || bytes == 0 {
            return;
        }
        // Saturate: a release can never drive the gauge negative.
        let _ = self
            .0
            .used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| {
                Some(u.saturating_sub(bytes))
            });
    }

    /// Bytes currently charged.
    pub fn used(&self) -> u64 {
        self.0.used.load(Ordering::Relaxed)
    }

    /// High-water mark of charged bytes.
    pub fn peak(&self) -> u64 {
        self.0.peak.load(Ordering::Relaxed)
    }

    /// Opens a measuring window at the current charge and returns that
    /// charge: [`QueryGuard::window_peak`] then reads the high-water mark of
    /// charged bytes since this call. One window at a time; the engine opens
    /// one around an operator body whose scratch it records. 0 on the inert
    /// guard, which charges nothing.
    pub fn open_window(&self) -> u64 {
        if !self.0.active {
            return 0;
        }
        let used = self.used();
        self.0.window.store(used, Ordering::Relaxed);
        used
    }

    /// High-water mark of charged bytes since [`QueryGuard::open_window`].
    pub fn window_peak(&self) -> u64 {
        self.0.window.load(Ordering::Relaxed)
    }

    /// The configured byte budget (0 = unlimited).
    pub fn budget(&self) -> u64 {
        self.0.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn inert_guard_never_trips_or_charges() {
        let g = QueryGuard::inert();
        assert!(!g.is_active());
        g.cancel();
        assert!(!g.is_cancelled());
        assert!(g.check().is_ok());
        assert!(g
            .check_deadline(SimInstant::at(SimDuration::from_secs(1_000_000)))
            .is_ok());
        assert!(g.try_charge(u64::MAX).is_ok());
        assert_eq!(g.used(), 0);
        assert_eq!(g.peak(), 0);
        assert_eq!(g.deadline(), None);
    }

    #[test]
    fn explicit_cancel_fails_every_later_check() {
        let g = QueryGuard::new(None, 0);
        assert!(g.check().is_ok());
        g.cancel();
        assert!(g.is_cancelled());
        let e = g.check().unwrap_err();
        assert_eq!(e.kind(), "cancelled");
        // Clones share the token.
        let e2 = g.clone().check().unwrap_err();
        assert_eq!(e2.kind(), "cancelled");
    }

    #[test]
    fn deadline_trips_once_passed_and_sticks() {
        let d = SimInstant::at(SimDuration::from_secs(10));
        let g = QueryGuard::new(Some(d), 0);
        assert!(g
            .check_deadline(SimInstant::at(SimDuration::from_secs(10)))
            .is_ok());
        let e = g
            .check_deadline(SimInstant::at(SimDuration::from_secs(11)))
            .unwrap_err();
        assert_eq!(e.kind(), "cancelled");
        assert!(e.to_string().contains("deadline"));
        // Sticky: even an in-deadline check now fails.
        assert!(g.check_deadline(SimInstant::EPOCH).is_err());
        assert!(g.check().is_err());
    }

    #[test]
    fn budget_refuses_over_charge_and_peak_stays_bounded() {
        let g = QueryGuard::new(None, 100);
        g.try_charge(60).unwrap();
        g.try_charge(40).unwrap();
        assert_eq!(g.used(), 100);
        let e = g.try_charge(1).unwrap_err();
        assert_eq!(e.kind(), "resource_exhausted");
        assert_eq!(g.used(), 100, "refused charge is not recorded");
        assert!(g.peak() <= g.budget());
        assert!(g.check().is_err(), "budget trip cancels the query");
        g.release(100);
        assert_eq!(g.used(), 0);
        assert_eq!(g.peak(), 100, "peak is a high-water mark");
        g.release(50);
        assert_eq!(g.used(), 0, "release saturates at zero");
    }

    #[test]
    fn a_window_reads_the_high_water_since_it_opened() {
        let g = QueryGuard::new(None, 0);
        g.try_charge(500).unwrap();
        g.release(400);
        assert_eq!(g.open_window(), 100);
        g.try_charge(30).unwrap();
        g.try_charge(20).unwrap();
        g.release(50);
        assert_eq!(
            g.window_peak() - 100,
            50,
            "the window forgets the earlier 500"
        );
        assert_eq!(g.peak(), 500);
        assert_eq!(QueryGuard::inert_ref().open_window(), 0);
    }

    #[test]
    fn first_trip_reason_wins() {
        let g = QueryGuard::new(Some(SimInstant::EPOCH), 10);
        let e = g.try_charge(11).unwrap_err();
        assert_eq!(e.kind(), "resource_exhausted");
        // The later deadline check reports the original memory trip.
        let e2 = g
            .check_deadline(SimInstant::at(SimDuration::from_secs(1)))
            .unwrap_err();
        assert_eq!(e2.kind(), "resource_exhausted");
    }

    #[test]
    fn cancel_after_checks_counts_down_deterministically() {
        let g = QueryGuard::new(None, 0);
        g.cancel_after_checks(3);
        assert!(g.check().is_ok());
        assert!(g.check().is_ok());
        let e = g.check().unwrap_err();
        assert_eq!(e.kind(), "cancelled");
        assert!(g.is_cancelled());
    }
}
