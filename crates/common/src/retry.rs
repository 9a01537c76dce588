//! Retry with exponential backoff, per-store deadlines, and a circuit
//! breaker — the failure-handling vocabulary the execution layer wraps
//! around store calls and transfers.
//!
//! Delays are *simulated* time: [`RetryPolicy::run`] hands each backoff to
//! the retried step, which charges it where its time goes (the
//! [`crate::SimClock`] and a TTI bucket, a reorganization's duration, ETL
//! cost, a served query's service time), so time-to-insight accounting
//! stays correct under injected faults. Jitter draws from the workspace
//! [`DetRng`], keeping chaos runs bit-replayable; when no fault ever fires,
//! the RNG is never consulted and runs are byte-identical to a fault-free
//! build.

use crate::error::MisoError;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimInstant};

/// Exponential-backoff retry policy for transient store/channel failures.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_delay: SimDuration,
    /// Multiplier applied per further retry.
    pub multiplier: f64,
    /// Cap on any single backoff delay (the per-store deadline knob).
    pub max_delay: SimDuration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a uniform
    /// factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

/// Why a failed attempt under [`RetryPolicy::run`] ended as it did. Each
/// carries the error `run` answers with when the retries are spent.
#[derive(Debug)]
pub enum Retry<E> {
    /// No retry can fix it: `run` answers with it at once.
    Fail(E),
    /// Go again after a backoff the policy draws.
    Backoff(E),
    /// Go again at once, with no backoff drawn (a corrupt copy re-sent).
    Now(E),
}

impl<E> From<E> for Retry<E> {
    fn from(e: E) -> Self {
        Retry::Fail(e)
    }
}

impl Retry<MisoError> {
    /// A store error as a verdict: a transient one backs off and goes
    /// again, any other fails for good.
    pub fn transient(e: MisoError) -> Self {
        if e.is_transient() {
            Retry::Backoff(e)
        } else {
            Retry::Fail(e)
        }
    }
}

/// What came before an attempt under [`RetryPolicy::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Turn {
    /// Nothing: it is the first attempt.
    First,
    /// A backoff of this length, for the attempt to charge where its time
    /// goes.
    Waited(SimDuration),
    /// A [`Retry::Now`]: it goes again at once.
    Now,
}

impl RetryPolicy {
    /// The policy every retried step runs under, calibrated for the
    /// simulated stores: 4 retries, 2 s base, doubling, capped at 60 s,
    /// 25% jitter.
    pub const STANDARD: RetryPolicy = RetryPolicy {
        max_retries: 4,
        base_delay: SimDuration::from_secs(2),
        multiplier: 2.0,
        max_delay: SimDuration::from_secs(60),
        jitter: 0.25,
    };

    /// The backoff before retry `attempt` (1-based), jittered through `rng`.
    pub fn backoff(&self, attempt: u32, rng: &mut DetRng) -> SimDuration {
        let exp = self.multiplier.powi(attempt.saturating_sub(1) as i32);
        let raw = (self.base_delay * exp).min(self.max_delay);
        if self.jitter <= 0.0 {
            return raw;
        }
        let j = self.jitter.clamp(0.0, 1.0);
        let factor = 1.0 - j + 2.0 * j * rng.f64();
        raw * factor
    }

    /// Runs `attempt` until it succeeds, fails for good, or has gone again
    /// `max_retries` times — after a backoff drawn through `rng` or at once,
    /// as its [`Retry`] asks; both count against the one budget. Each call
    /// is told what came before it.
    pub fn run<T, E>(
        &self,
        rng: &mut DetRng,
        mut attempt: impl FnMut(Turn) -> Result<T, Retry<E>>,
    ) -> Result<T, E> {
        let mut turn = Turn::First;
        let mut retries = 0u32;
        loop {
            let (e, backoff) = match attempt(turn) {
                Ok(v) => return Ok(v),
                Err(Retry::Fail(e)) => return Err(e),
                Err(Retry::Backoff(e)) => (e, true),
                Err(Retry::Now(e)) => (e, false),
            };
            if retries >= self.max_retries {
                return Err(e);
            }
            retries += 1;
            turn = if backoff {
                Turn::Waited(self.backoff(retries, rng))
            } else {
                Turn::Now
            };
        }
    }
}

/// Circuit-breaker state for one store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow normally.
    Closed,
    /// Unhealthy: calls are short-circuited until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one trial call (the probe) is allowed through.
    HalfOpen,
}

/// A per-store circuit breaker over simulated time.
///
/// After `failure_threshold` consecutive failures the breaker opens for
/// `cooldown` simulated seconds; the first call after the cooldown is the
/// probe — success closes the breaker, failure re-opens it for another
/// cooldown.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    failure_threshold: u32,
    cooldown: SimDuration,
    consecutive_failures: u32,
    state: BreakerState,
    open_until: Option<SimInstant>,
}

impl CircuitBreaker {
    /// A closed breaker with the given trip threshold and cooldown.
    pub fn new(failure_threshold: u32, cooldown: SimDuration) -> Self {
        CircuitBreaker {
            failure_threshold: failure_threshold.max(1),
            cooldown,
            consecutive_failures: 0,
            state: BreakerState::Closed,
            open_until: None,
        }
    }

    /// Whether a call may proceed at `now`. Transitions Open → HalfOpen
    /// when the cooldown has elapsed (the allowed call is the probe).
    pub fn allow(&mut self, now: SimInstant) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                let elapsed = self.open_until.is_none_or(|until| now >= until);
                if elapsed {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful call: closes the breaker and clears failures.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
        self.open_until = None;
    }

    /// Records a failed call at `now`. Returns `true` when this failure
    /// tripped the breaker open (so callers can count transitions).
    pub fn record_failure(&mut self, now: SimInstant) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = self.state == BreakerState::HalfOpen
            || (self.state == BreakerState::Closed
                && self.consecutive_failures >= self.failure_threshold);
        if trip {
            self.state = BreakerState::Open;
            self.open_until = Some(now + self.cooldown);
        }
        trip
    }

    /// The current state (without the time-based Open → HalfOpen shift).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the breaker is currently open (store considered unhealthy).
    pub fn is_open(&self) -> bool {
        self.state == BreakerState::Open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimClock;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::STANDARD
        };
        let mut rng = DetRng::new(1);
        assert_eq!(p.backoff(1, &mut rng), SimDuration::from_secs(2));
        assert_eq!(p.backoff(2, &mut rng), SimDuration::from_secs(4));
        assert_eq!(p.backoff(3, &mut rng), SimDuration::from_secs(8));
        assert_eq!(p.backoff(10, &mut rng), SimDuration::from_secs(60));
    }

    #[test]
    fn jitter_stays_within_band_and_is_deterministic() {
        let p = RetryPolicy::STANDARD;
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for attempt in 1..=6 {
            let exp = p.multiplier.powi(attempt as i32 - 1);
            let raw = (p.base_delay * exp).min(p.max_delay);
            let d1 = p.backoff(attempt, &mut a);
            let d2 = p.backoff(attempt, &mut b);
            assert_eq!(d1, d2, "seeded jitter replays");
            let lo = raw * (1.0 - p.jitter);
            let hi = raw * (1.0 + p.jitter);
            assert!(d1 >= lo && d1 <= hi, "{d1} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn breaker_trips_cools_down_and_probes() {
        let mut clock = SimClock::new();
        let mut cb = CircuitBreaker::new(3, SimDuration::from_secs(100));
        assert!(allow_now(&mut cb, &clock));
        assert!(!cb.record_failure(clock.now()));
        assert!(!cb.record_failure(clock.now()));
        assert!(cb.record_failure(clock.now()), "third failure trips");
        assert!(cb.is_open());
        assert!(!allow_now(&mut cb, &clock), "open: calls short-circuit");
        clock.advance(SimDuration::from_secs(99));
        assert!(!allow_now(&mut cb, &clock), "cooldown not elapsed");
        clock.advance(SimDuration::from_secs(1));
        assert!(allow_now(&mut cb, &clock), "probe allowed after cooldown");
        assert_eq!(cb.state(), BreakerState::HalfOpen);
        // Probe fails: re-open immediately.
        assert!(cb.record_failure(clock.now()));
        assert!(!allow_now(&mut cb, &clock));
        clock.advance(SimDuration::from_secs(100));
        assert!(allow_now(&mut cb, &clock));
        cb.record_success();
        assert_eq!(cb.state(), BreakerState::Closed);
        assert!(allow_now(&mut cb, &clock));
    }

    fn allow_now(cb: &mut CircuitBreaker, clock: &SimClock) -> bool {
        cb.allow(clock.now())
    }

    #[test]
    fn half_open_probe_success_closes_and_resets_failure_count() {
        let mut clock = SimClock::new();
        let mut cb = CircuitBreaker::new(2, SimDuration::from_secs(10));
        assert!(!cb.record_failure(clock.now()));
        assert!(cb.record_failure(clock.now()));
        clock.advance(SimDuration::from_secs(10));
        assert!(
            allow_now(&mut cb, &clock),
            "cooldown elapsed: probe allowed"
        );
        assert_eq!(cb.state(), BreakerState::HalfOpen);
        cb.record_success();
        assert_eq!(cb.state(), BreakerState::Closed);
        assert!(!cb.is_open());
        // The failure streak was cleared: it takes the full threshold of
        // fresh failures to trip again, not a single one.
        assert!(!cb.record_failure(clock.now()), "streak restarted at zero");
        assert_eq!(cb.state(), BreakerState::Closed);
        assert!(cb.record_failure(clock.now()), "threshold reached again");
        assert!(cb.is_open());
    }

    #[test]
    fn half_open_probe_failure_reopens_for_a_full_cooldown() {
        let mut clock = SimClock::new();
        let mut cb = CircuitBreaker::new(1, SimDuration::from_secs(50));
        assert!(cb.record_failure(clock.now()), "threshold 1 trips at once");
        clock.advance(SimDuration::from_secs(50));
        assert!(allow_now(&mut cb, &clock));
        assert_eq!(cb.state(), BreakerState::HalfOpen);
        // A half-open failure trips regardless of the threshold count.
        assert!(cb.record_failure(clock.now()), "probe failure re-opens");
        assert_eq!(cb.state(), BreakerState::Open);
        // The new cooldown is anchored at the probe failure, not the
        // original trip: 49 s later the breaker is still open.
        clock.advance(SimDuration::from_secs(49));
        assert!(!allow_now(&mut cb, &clock));
        clock.advance(SimDuration::from_secs(1));
        assert!(
            allow_now(&mut cb, &clock),
            "second probe after full cooldown"
        );
    }

    #[test]
    fn half_open_allows_repeated_probes_until_resolution() {
        // `allow` in HalfOpen keeps returning true: the breaker does not
        // limit probe concurrency itself (the serial driver does), it only
        // classifies health transitions.
        let mut clock = SimClock::new();
        let mut cb = CircuitBreaker::new(1, SimDuration::from_secs(5));
        cb.record_failure(clock.now());
        clock.advance(SimDuration::from_secs(5));
        assert!(allow_now(&mut cb, &clock));
        assert!(allow_now(&mut cb, &clock));
        assert_eq!(cb.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn run_goes_again_until_the_one_budget_is_spent() {
        let p = RetryPolicy::STANDARD;
        let mut rng = DetRng::new(3);
        let mut turns = Vec::new();
        let out: Result<(), &str> = p.run(&mut rng, |turn| {
            turns.push(turn);
            // Alternate: back off, then go again at once, ...
            Err(if turns.len() % 2 == 1 {
                Retry::Backoff("spent")
            } else {
                Retry::Now("spent")
            })
        });
        assert_eq!(out, Err("spent"));
        assert_eq!(turns.len(), 1 + p.max_retries as usize);
        assert_eq!(turns[0], Turn::First);
        assert_eq!(turns[2], Turn::Now);
        // Backoffs are drawn for the retry they precede: retry 1 and 3.
        let mut replay = DetRng::new(3);
        assert_eq!(turns[1], Turn::Waited(p.backoff(1, &mut replay)));
        assert_eq!(turns[3], Turn::Waited(p.backoff(3, &mut replay)));

        let mut calls = 0;
        let out = p.run(&mut rng, |_| {
            calls += 1;
            match calls {
                1 => Err(Retry::Backoff("again")),
                _ => Ok(calls),
            }
        });
        assert_eq!(out, Ok(2));
        let out: Result<(), _> = p.run(&mut rng, |_| Err(Retry::from("fatal")));
        assert_eq!(out, Err("fatal"), "a failure for good is not retried");
    }
}
