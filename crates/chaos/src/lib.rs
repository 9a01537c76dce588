//! `miso-chaos` — deterministic fault injection for the multistore engine.
//!
//! The engine's riskiest paths — store execution, mid-query working-set
//! transfers, and the tuner's view reorganizations — are guarded by named
//! **fail points**. A [`FaultPlan`] decides, per hit, whether a point
//! proceeds normally, returns a transient error, suffers a latency spike,
//! or "crashes the process" (simulated: the caller's recovery path runs as
//! if the process had died and restarted).
//!
//! Design mirrors `miso-obs`: **zero external dependencies**, global state
//! behind a `OnceLock`, and **off by default** — every disabled-path
//! [`strike`] costs one relaxed atomic load. Injection decisions draw from
//! the workspace's own [`DetRng`], so a seeded plan replays bit-identically.
//!
//! # The envelope
//!
//! A fail point is polled with [`strike`], which decides what a fired fault
//! does: `error` comes back as [`MisoError::transient`], `crash` as
//! [`MisoError::crash`], and every other kind as a [`Strike`] the step
//! applies itself — a cost factor ([`Strike::slowed`]), a memory spike
//! ([`Strike::spike`]) or a corrupt copy. How a step that failed is retried
//! is `miso_common::RetryPolicy::run`'s business, not this crate's.
//!
//! # Fail points
//!
//! [`POINTS`] lists them; [`parse_spec`] rejects any other name. "Retried"
//! means with backoff, under the standard retry policy; "—" means the kind
//! is counted as injected and does nothing there.
//!
//! | point           | polled                          | error    | crash    | delay, stall         | hog   | corrupt              |
//! |-----------------|---------------------------------|----------|----------|----------------------|-------|----------------------|
//! | `hv.execute`    | HV store execution entry        | retried  | escapes  | slows every stage    | spike | —                    |
//! | `dw.execute`    | DW store execution entry        | retried¹ | escapes  | slows the statement  | spike | —                    |
//! | `hv.view_read`  | each HV view a plan reads       | —        | —        | —                    | —     | flips the copy       |
//! | `dw.view_read`  | each DW view a plan reads       | —        | —        | —                    | —     | flips the copy       |
//! | `transfer.ship` | each working-set cut (HV→DW)    | retried¹ | escapes  | slows the shipment   | —     | re-shipped²          |
//! | `etl.run`       | each DW-ONLY ETL extraction     | retried  | escapes  | slows the job        | —     | retried as an error  |
//! | `reorg.step`    | before every reorg journal step | retried  | recovery | slows a staging copy | —     | flips a staging copy |
//!
//! ¹ Retries spent, the query runs HV-only instead (the DW breaker counts
//! it). ² The copy is checksummed on arrival and shipped again at once, with
//! no backoff; the serial driver gives re-ships a budget of their own,
//! serving counts them against the query's one retry budget. A crash that
//! "escapes" is not retried: the call fails with it, and a served query is
//! lost.
//!
//! `reorg.step` is hit once per journal step (stage / commit / apply /
//! enforce), so an `OnHit(n)` trigger lands a crash before or after the
//! commit record at will; a crash there runs the reorg's recovery (pre-commit
//! roll back, post-commit replay). Only the staging steps move a copy, so
//! only they are slowed, or corrupted: a `corrupt` there silently flips rows
//! in the staging copy the step writes (a torn transfer); at the
//! `*.view_read` points it flips rows in the resident copy being read —
//! detection relies entirely on the integrity layer's checksums. A hog spike
//! needs an active query guard; without one it is a no-op.
//!
//! # Enabling
//!
//! Programmatically via [`install`] — of a [`FaultPlan`] built in code, or
//! of one [`parse_spec`] read from text, which is how the `chaos` and
//! `integrity` bench binaries take theirs from the environment:
//!
//! ```text
//! MISO_CHAOS="seed=42;dw.execute=error@p0.3;transfer.ship=error@p0.25;reorg.step=crash@n4"
//! ```
//!
//! Spec grammar (entries separated by `;`):
//!
//! * `seed=<u64>` — RNG seed (default 0);
//! * `<point>=<kind>[@<trigger>]` where
//!   * point: one of [`POINTS`];
//!   * kind: `error` | `delay:<factor>` | `crash` | `corrupt` | `stall` |
//!     `hog[:<factor>]`;
//!   * trigger: `p<float>` (probability per hit), `n<int>` (exactly the
//!     n-th hit, 1-based), `u<int>` (every hit up to and including the
//!     n-th), or omitted (every hit).
//!
//! `stall` is a delay so severe (×[`STALL_FACTOR`]) that the operation
//! holds the store past any sane query deadline — the guard layer's
//! deadline checks are what turns it into a contained failure. `hog`
//! inflates the query's *charged bytes* by the factor (default 8×) at the
//! stores' guarded entry points, driving the query into its memory budget.

use miso_common::{DetRng, MisoError, QueryGuard, SimDuration};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Every fail point the engine polls.
pub const POINTS: [&str; 7] = [
    "hv.execute",
    "dw.execute",
    "hv.view_read",
    "dw.view_read",
    "transfer.ship",
    "etl.run",
    "reorg.step",
];

/// The cost multiplier a `stall` applies: large enough that one stalled
/// store call exceeds any deadline a test or bench would configure.
pub const STALL_FACTOR: f64 = 10_000.0;

/// The kind of fault a rule injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Transient error (the retry layer may re-attempt).
    Error,
    /// Latency spike with the given cost multiplier (> 1.0 slows down).
    Delay(f64),
    /// Simulated crash: volatile state is lost and recovery runs.
    Crash,
    /// Silent row corruption of the affected copy. Only checksums can tell.
    Corrupt,
    /// Pathological stall (cost × [`STALL_FACTOR`]).
    Stall,
    /// Memory hog with the given charged-bytes multiplier (> 1.0 inflates).
    Hog(f64),
}

/// What a fired fault leaves the step that polled it to do (see
/// [`strike`]); [`Strike::NONE`] when nothing fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Strike {
    /// Cost multiplier: a delay's factor, [`STALL_FACTOR`] for a stall.
    pub slow: f64,
    /// Charged-bytes multiplier of a memory hog.
    pub hog: f64,
    /// The copy the step reads or writes is silently corrupted.
    pub corrupt: bool,
}

impl Strike {
    /// No fault: run the real code.
    pub const NONE: Strike = Strike {
        slow: 1.0,
        hog: 1.0,
        corrupt: false,
    };

    /// `cost` under the strike's slowdown.
    pub fn slowed(&self, cost: SimDuration) -> SimDuration {
        if self.slow == 1.0 {
            cost
        } else {
            cost * self.slow
        }
    }

    /// Charges a hog's spike — `(hog − 1) × bytes()` — to `guard` and
    /// releases it at once: an over-budget query dies here with
    /// `ResourceExhausted`, a survivor still moves the peak gauge. `bytes`
    /// is only asked for when there is a spike to charge.
    pub fn spike(
        &self,
        guard: &QueryGuard,
        bytes: impl FnOnce() -> u64,
    ) -> miso_common::Result<()> {
        if self.hog <= 1.0 || !guard.is_active() {
            return Ok(());
        }
        let extra = ((self.hog - 1.0) * bytes() as f64) as u64;
        guard.try_charge(extra)?;
        guard.release(extra);
        Ok(())
    }
}

/// When a rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every hit.
    Always,
    /// Each hit independently with this probability.
    Prob(f64),
    /// Exactly the n-th hit of the point (1-based), once.
    OnHit(u64),
    /// Every hit up to and including the n-th (an outage that ends).
    UpTo(u64),
}

/// One injection rule: at `point`, inject `kind` when `trigger` fires.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Fail-point name (exact match).
    pub point: String,
    /// Fault to inject.
    pub kind: FaultKind,
    /// Firing condition.
    pub trigger: Trigger,
}

impl FaultRule {
    /// Convenience constructor.
    pub fn new(point: impl Into<String>, kind: FaultKind, trigger: Trigger) -> Self {
        FaultRule {
            point: point.into(),
            kind,
            trigger,
        }
    }
}

/// A complete, deterministic fault plan.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for the injection RNG (probabilistic triggers).
    pub seed: u64,
    /// Rules, consulted in order; the first matching rule that fires wins.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }
}

struct Inner {
    plan: FaultPlan,
    rng: DetRng,
    hits: HashMap<&'static str, u64>,
}

struct ChaosState {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

fn state() -> &'static ChaosState {
    static STATE: OnceLock<ChaosState> = OnceLock::new();
    STATE.get_or_init(|| ChaosState {
        enabled: AtomicBool::new(false),
        inner: Mutex::new(Inner {
            plan: FaultPlan::default(),
            rng: DetRng::new(0),
            hits: HashMap::new(),
        }),
    })
}

/// Whether fault injection is active. This is the disabled-path cost of
/// every fail point: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    state().enabled.load(Ordering::Relaxed)
}

/// Installs a fault plan and switches injection on. Hit counters reset.
pub fn install(plan: FaultPlan) {
    let s = state();
    {
        let mut inner = s.inner.lock().expect("chaos lock");
        inner.rng = DetRng::new(plan.seed);
        inner.hits.clear();
        inner.plan = plan;
    }
    s.enabled.store(true, Ordering::Relaxed);
}

/// Switches fault injection off (fail points become free again).
pub fn disable() {
    state().enabled.store(false, Ordering::Relaxed);
}

/// Temporarily switches injection off, returning whether it was on.
///
/// Unlike [`install`]/[`disable`], the plan, RNG stream, and hit counters
/// are all preserved, so a `suspend`/[`resume`] bracket is invisible to the
/// fault sequence around it. The serving layer uses this to compute
/// fault-free oracle/base runs in the middle of a chaos storm.
pub fn suspend() -> bool {
    state().enabled.swap(false, Ordering::Relaxed)
}

/// Undoes [`suspend`]: re-enables injection iff `was_on` (the value
/// `suspend` returned), leaving RNG and hit counters untouched.
pub fn resume(was_on: bool) {
    if was_on {
        state().enabled.store(true, Ordering::Relaxed);
    }
}

/// Polls the fail point `point` on behalf of the store or layer `source`
/// (the tag the driver's fallback and breaker key on) and turns what fired
/// into its effect: `error` is a transient error, `crash` a simulated
/// crash, anything else a [`Strike`] for the step to apply. Returns
/// [`Strike::NONE`] after one relaxed atomic load whenever injection is
/// disabled.
#[inline]
pub fn strike(point: &'static str, source: &'static str) -> miso_common::Result<Strike> {
    if !enabled() {
        return Ok(Strike::NONE);
    }
    strike_slow(point, source)
}

#[cold]
fn strike_slow(point: &'static str, source: &'static str) -> miso_common::Result<Strike> {
    let Some(kind) = fire(point) else {
        return Ok(Strike::NONE);
    };
    let effect = match kind {
        FaultKind::Error => {
            let message = format!("injected failure at {point}");
            return Err(MisoError::transient(source, message));
        }
        FaultKind::Crash => return Err(MisoError::crash(source, point)),
        FaultKind::Delay(slow) => Strike {
            slow,
            ..Strike::NONE
        },
        FaultKind::Stall => Strike {
            slow: STALL_FACTOR,
            ..Strike::NONE
        },
        FaultKind::Hog(hog) => Strike {
            hog,
            ..Strike::NONE
        },
        FaultKind::Corrupt => Strike {
            corrupt: true,
            ..Strike::NONE
        },
    };
    Ok(effect)
}

/// Counts a hit of `point` and returns the kind of the first matching rule
/// that fires (counted as injected), if any.
fn fire(point: &'static str) -> Option<FaultKind> {
    let mut inner = state().inner.lock().expect("chaos lock");
    let count = inner.hits.entry(point).or_insert(0);
    *count += 1;
    let count = *count;
    let matching: Vec<(FaultKind, Trigger)> = inner
        .plan
        .rules
        .iter()
        .filter(|r| r.point == point)
        .map(|r| (r.kind, r.trigger))
        .collect();
    let mut fired = None;
    for (kind, trigger) in matching {
        let fires = match trigger {
            Trigger::Always => true,
            Trigger::Prob(p) => inner.rng.chance(p),
            Trigger::OnHit(n) => count == n,
            Trigger::UpTo(n) => count <= n,
        };
        if fires {
            fired = Some(kind);
            break;
        }
    }
    drop(inner);
    let counter = match fired? {
        FaultKind::Error => "chaos.errors_injected",
        FaultKind::Delay(_) => "chaos.delays_injected",
        FaultKind::Crash => "chaos.crashes_injected",
        FaultKind::Corrupt => "chaos.corruptions_injected",
        FaultKind::Stall => "chaos.stalls_injected",
        FaultKind::Hog(_) => "chaos.hogs_injected",
    };
    miso_obs::count(counter, 1);
    fired
}

/// How many times `point` has been hit since the plan was installed.
pub fn hit_count(point: &str) -> u64 {
    state()
        .inner
        .lock()
        .expect("chaos lock")
        .hits
        .get(point)
        .copied()
        .unwrap_or(0)
}

// ---- MISO_CHAOS spec parsing --------------------------------------------

/// Parses a `MISO_CHAOS` specification (see crate docs for the grammar).
pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::default();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry
            .split_once('=')
            .ok_or_else(|| format!("entry `{entry}` is not `key=value`"))?;
        let (key, value) = (key.trim(), value.trim());
        if key == "seed" {
            plan.seed = value
                .parse()
                .map_err(|_| format!("seed `{value}` is not a u64"))?;
            continue;
        }
        if !POINTS.contains(&key) {
            return Err(format!(
                "unknown fail point `{key}` (expected one of {})",
                POINTS.join(", ")
            ));
        }
        let (kind_part, trigger_part) = match value.split_once('@') {
            Some((k, t)) => (k, Some(t)),
            None => (value, None),
        };
        let kind = parse_kind(kind_part)?;
        let trigger = match trigger_part {
            None => Trigger::Always,
            Some(t) => parse_trigger(t)?,
        };
        plan.rules.push(FaultRule::new(key, kind, trigger));
    }
    Ok(plan)
}

fn parse_kind(s: &str) -> Result<FaultKind, String> {
    match s.split_once(':') {
        None => match s {
            "error" => Ok(FaultKind::Error),
            "crash" => Ok(FaultKind::Crash),
            "delay" => Ok(FaultKind::Delay(2.0)),
            "corrupt" => Ok(FaultKind::Corrupt),
            "stall" => Ok(FaultKind::Stall),
            "hog" => Ok(FaultKind::Hog(8.0)),
            other => Err(format!("unknown fault kind `{other}`")),
        },
        Some(("delay", f)) => {
            let factor: f64 = f
                .parse()
                .map_err(|_| format!("delay factor `{f}` is not a float"))?;
            if !factor.is_finite() || factor < 0.0 {
                return Err(format!("delay factor `{f}` must be finite and >= 0"));
            }
            Ok(FaultKind::Delay(factor))
        }
        Some(("hog", f)) => {
            let factor: f64 = f
                .parse()
                .map_err(|_| format!("hog factor `{f}` is not a float"))?;
            if !factor.is_finite() || factor < 1.0 {
                return Err(format!("hog factor `{f}` must be finite and >= 1"));
            }
            Ok(FaultKind::Hog(factor))
        }
        Some((other, _)) => Err(format!("unknown fault kind `{other}`")),
    }
}

fn parse_trigger(s: &str) -> Result<Trigger, String> {
    let (tag, rest) = s.split_at(1.min(s.len()));
    match tag {
        "p" => {
            let p: f64 = rest
                .parse()
                .map_err(|_| format!("probability `{rest}` is not a float"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability `{rest}` must be in [0, 1]"));
            }
            Ok(Trigger::Prob(p))
        }
        "n" => rest
            .parse()
            .map(Trigger::OnHit)
            .map_err(|_| format!("hit index `{rest}` is not a u64")),
        "u" => rest
            .parse()
            .map(Trigger::UpTo)
            .map_err(|_| format!("hit bound `{rest}` is not a u64")),
        _ => Err(format!("unknown trigger `{s}` (expected p<f>, n<u>, u<u>)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // Chaos state is process-global; serialize tests touching it.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    /// The kind that fires at `point`, if injection is on.
    fn hit(point: &'static str) -> Option<FaultKind> {
        enabled().then(|| fire(point)).flatten()
    }

    #[test]
    fn disabled_is_proceed() {
        let _g = TEST_LOCK.lock().unwrap();
        disable();
        assert_eq!(strike("hv.execute", "hv"), Ok(Strike::NONE));
        assert!(!enabled());
    }

    #[test]
    fn on_hit_fires_exactly_once() {
        let _g = TEST_LOCK.lock().unwrap();
        install(FaultPlan::seeded(1).with_rule(FaultRule::new(
            "reorg.step",
            FaultKind::Crash,
            Trigger::OnHit(3),
        )));
        assert_eq!(hit("reorg.step"), None);
        assert_eq!(hit("reorg.step"), None);
        assert_eq!(hit("reorg.step"), Some(FaultKind::Crash));
        assert_eq!(hit("reorg.step"), None);
        assert_eq!(hit_count("reorg.step"), 4);
        disable();
    }

    #[test]
    fn up_to_models_a_finite_outage() {
        let _g = TEST_LOCK.lock().unwrap();
        install(FaultPlan::seeded(1).with_rule(FaultRule::new(
            "dw.execute",
            FaultKind::Error,
            Trigger::UpTo(2),
        )));
        assert_eq!(hit("dw.execute"), Some(FaultKind::Error));
        assert_eq!(hit("dw.execute"), Some(FaultKind::Error));
        assert_eq!(hit("dw.execute"), None);
        disable();
    }

    #[test]
    fn probability_is_seeded_and_deterministic() {
        let _g = TEST_LOCK.lock().unwrap();
        let run = |seed: u64| -> Vec<Option<FaultKind>> {
            install(FaultPlan::seeded(seed).with_rule(FaultRule::new(
                "transfer.ship",
                FaultKind::Error,
                Trigger::Prob(0.5),
            )));
            (0..32).map(|_| hit("transfer.ship")).collect()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed replays identically");
        assert_ne!(a, c, "different seeds diverge");
        assert!(a.contains(&Some(FaultKind::Error)) && a.contains(&None));
        disable();
    }

    #[test]
    fn unmatched_points_proceed() {
        let _g = TEST_LOCK.lock().unwrap();
        install(FaultPlan::seeded(1).with_rule(FaultRule::new(
            "dw.execute",
            FaultKind::Error,
            Trigger::Always,
        )));
        assert_eq!(hit("hv.execute"), None);
        assert_eq!(hit("dw.execute"), Some(FaultKind::Error));
        disable();
    }

    #[test]
    fn strike_turns_each_kind_into_its_effect() {
        let _g = TEST_LOCK.lock().unwrap();
        let struck = |kind: FaultKind| {
            install(FaultPlan::seeded(1).with_rule(FaultRule::new(
                "transfer.ship",
                kind,
                Trigger::Always,
            )));
            strike("transfer.ship", "transfer")
        };
        let error = struck(FaultKind::Error).unwrap_err();
        assert!(error.is_transient() && error.source() == Some("transfer"));
        assert_eq!(
            struck(FaultKind::Crash),
            Err(MisoError::crash("transfer", "transfer.ship"))
        );
        let slow = |slow| {
            Ok(Strike {
                slow,
                ..Strike::NONE
            })
        };
        assert_eq!(struck(FaultKind::Delay(1.5)), slow(1.5));
        assert_eq!(struck(FaultKind::Stall), slow(STALL_FACTOR));
        let hog = Strike {
            hog: 4.0,
            ..Strike::NONE
        };
        assert_eq!(struck(FaultKind::Hog(4.0)), Ok(hog));
        assert!(struck(FaultKind::Corrupt).unwrap().corrupt);
        disable();
        assert_eq!(strike("transfer.ship", "transfer"), Ok(Strike::NONE));
    }

    #[test]
    fn a_strike_slows_and_spikes_only_when_struck() {
        let cost = SimDuration::from_secs(3);
        assert_eq!(Strike::NONE.slowed(cost), cost);
        let slow = Strike {
            slow: 2.0,
            ..Strike::NONE
        };
        assert_eq!(slow.slowed(cost), SimDuration::from_secs(6));

        let guard = QueryGuard::new(None, 100);
        let asked = std::cell::Cell::new(false);
        let bytes = |n| {
            asked.set(true);
            n
        };
        Strike::NONE.spike(&guard, || bytes(1_000)).unwrap();
        assert!(!asked.get(), "no spike, no size asked for");
        let hog = Strike {
            hog: 3.0,
            ..Strike::NONE
        };
        hog.spike(QueryGuard::inert_ref(), || bytes(1_000)).unwrap();
        assert!(!asked.get(), "an inert guard is charged nothing");
        hog.spike(&guard, || bytes(40)).unwrap();
        assert_eq!(guard.peak(), 80, "(3 - 1) x 40 charged...");
        assert_eq!(guard.used(), 0, "...and released");
        let err = hog.spike(&guard, || bytes(60)).unwrap_err();
        assert_eq!(err.kind(), "resource_exhausted");
    }

    #[test]
    fn spec_round_trip() {
        let plan = parse_spec(
            "seed=42;dw.execute=error@p0.3;hv.execute=delay:1.5@p0.1;reorg.step=crash@n4",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].kind, FaultKind::Error);
        assert_eq!(plan.rules[0].trigger, Trigger::Prob(0.3));
        assert_eq!(plan.rules[1].kind, FaultKind::Delay(1.5));
        assert_eq!(plan.rules[2].kind, FaultKind::Crash);
        assert_eq!(plan.rules[2].trigger, Trigger::OnHit(4));
    }

    #[test]
    fn spec_accepts_outage_and_bare_kinds() {
        let plan = parse_spec("dw.execute=error@u5; transfer.ship=delay ;etl.run=error").unwrap();
        assert_eq!(plan.rules[0].trigger, Trigger::UpTo(5));
        assert_eq!(plan.rules[1].kind, FaultKind::Delay(2.0));
        assert_eq!(plan.rules[2].trigger, Trigger::Always);
    }

    #[test]
    fn corrupt_kind_parses_and_fires() {
        let _g = TEST_LOCK.lock().unwrap();
        let plan = parse_spec("dw.view_read=corrupt@p0.5;transfer.ship=corrupt").unwrap();
        assert_eq!(plan.rules[0].kind, FaultKind::Corrupt);
        assert_eq!(plan.rules[0].trigger, Trigger::Prob(0.5));
        assert_eq!(plan.rules[1].trigger, Trigger::Always);

        install(FaultPlan::seeded(3).with_rule(FaultRule::new(
            "dw.view_read",
            FaultKind::Corrupt,
            Trigger::OnHit(2),
        )));
        assert_eq!(hit("dw.view_read"), None);
        assert_eq!(hit("dw.view_read"), Some(FaultKind::Corrupt));
        assert_eq!(hit("dw.view_read"), None);
        disable();
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(parse_spec("noequals").is_err());
        assert!(parse_spec("seed=abc").is_err());
        assert!(parse_spec("dw.execute=explode").is_err());
        assert!(parse_spec("dw.execute=error@p1.5").is_err());
        assert!(parse_spec("dw.execute=error@x3").is_err());
        assert!(parse_spec("dw.execute=delay:NaN").is_err());
        assert!(parse_spec("dw.execute=hog:0.5").is_err());
        assert!(parse_spec("dw.execute=hog:NaN").is_err());
        assert!(parse_spec("dw.execute=stall:3").is_err());
    }

    #[test]
    fn misspelled_fail_points_are_rejected() {
        let err = parse_spec("seed=1;hv.exec=error").unwrap_err();
        assert!(err.contains("`hv.exec`"), "{err}");
        for point in POINTS {
            assert!(err.contains(point), "the error lists `{point}`: {err}");
            assert!(parse_spec(&format!("{point}=error")).is_ok());
        }
    }

    #[test]
    fn stall_and_hog_kinds_parse_and_fire() {
        let _g = TEST_LOCK.lock().unwrap();
        let plan = parse_spec("hv.execute=stall@p0.5;dw.execute=hog;transfer.ship=hog:16").unwrap();
        assert_eq!(plan.rules[0].kind, FaultKind::Stall);
        assert_eq!(plan.rules[0].trigger, Trigger::Prob(0.5));
        assert_eq!(plan.rules[1].kind, FaultKind::Hog(8.0));
        assert_eq!(plan.rules[2].kind, FaultKind::Hog(16.0));

        install(
            FaultPlan::seeded(5)
                .with_rule(FaultRule::new(
                    "hv.execute",
                    FaultKind::Stall,
                    Trigger::OnHit(2),
                ))
                .with_rule(FaultRule::new(
                    "dw.execute",
                    FaultKind::Hog(4.0),
                    Trigger::Always,
                )),
        );
        assert_eq!(hit("hv.execute"), None);
        assert_eq!(hit("hv.execute"), Some(FaultKind::Stall));
        assert_eq!(hit("hv.execute"), None);
        assert_eq!(hit("dw.execute"), Some(FaultKind::Hog(4.0)));
        disable();
    }
}
