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
//! [`hit`] costs one relaxed atomic load. Injection decisions draw from the
//! workspace's own [`DetRng`], so a seeded plan replays bit-identically.
//!
//! # Fail points
//!
//! | point           | location                              | meaningful kinds             |
//! |-----------------|---------------------------------------|------------------------------|
//! | `hv.execute`    | HV store execution entry              | error, delay, stall, hog     |
//! | `dw.execute`    | DW store execution entry              | error, delay, stall, hog     |
//! | `hv.view_read`  | each HV view consulted by a rewrite   | corrupt                      |
//! | `dw.view_read`  | each DW view consulted by a rewrite   | corrupt                      |
//! | `transfer.ship` | each working-set cut shipment (HV→DW) | error, delay, stall, corrupt |
//! | `etl.run`       | each DW-ONLY ETL extraction           | error, delay                 |
//! | `reorg.step`    | before every reorg journal step       | crash, corrupt               |
//!
//! `reorg.step` is hit once per journal step (stage / commit / apply /
//! enforce), so an `OnHit(n)` trigger lands a crash before or after the
//! commit record at will. A `corrupt` action at `reorg.step` silently
//! flips rows in the staging copy the step just wrote (a torn transfer);
//! at the `*.view_read` points it flips rows in the resident copy being
//! read — detection relies entirely on the integrity layer's checksums.
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
//! stores' guarded entry points, driving the query into its memory budget;
//! without an active guard it is a no-op.

use miso_common::DetRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// What a fail point should do on one particular hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// No fault: run the real code.
    Proceed,
    /// Fail with a transient error (the retry layer may re-attempt).
    Fail,
    /// Latency spike: multiply the operation's simulated cost by the factor.
    Delay(f64),
    /// Simulated process crash: volatile state is lost and recovery runs.
    Crash,
    /// Silent data corruption: the caller flips rows in the affected copy
    /// and continues as if nothing happened. Only checksums can tell.
    Corrupt,
    /// Pathological stall: multiply the operation's simulated cost by
    /// [`STALL_FACTOR`] — guaranteed to blow any reasonable deadline, so
    /// only the guard layer can contain it.
    Stall,
    /// Memory hog: inflate the query's charged bytes by this factor at the
    /// guarded store entry points.
    Hog(f64),
}

/// The cost multiplier a [`Action::Stall`] applies: large enough that one
/// stalled store call exceeds any deadline a test or bench would configure.
pub const STALL_FACTOR: f64 = 10_000.0;

/// The kind of fault a rule injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Transient error.
    Error,
    /// Latency spike with the given cost multiplier (> 1.0 slows down).
    Delay(f64),
    /// Simulated crash.
    Crash,
    /// Silent row corruption.
    Corrupt,
    /// Pathological stall (cost × [`STALL_FACTOR`]).
    Stall,
    /// Memory hog with the given charged-bytes multiplier (> 1.0 inflates).
    Hog(f64),
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

/// Consults the plan at a named fail point. Returns [`Action::Proceed`]
/// (after one relaxed atomic load) whenever injection is disabled.
#[inline]
pub fn hit(point: &'static str) -> Action {
    if !enabled() {
        return Action::Proceed;
    }
    hit_slow(point)
}

#[cold]
fn hit_slow(point: &'static str) -> Action {
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
    let Some(kind) = fired else {
        return Action::Proceed;
    };
    match kind {
        FaultKind::Error => {
            miso_obs::count("chaos.errors_injected", 1);
            Action::Fail
        }
        FaultKind::Delay(f) => {
            miso_obs::count("chaos.delays_injected", 1);
            Action::Delay(f)
        }
        FaultKind::Crash => {
            miso_obs::count("chaos.crashes_injected", 1);
            Action::Crash
        }
        FaultKind::Corrupt => {
            miso_obs::count("chaos.corruptions_injected", 1);
            Action::Corrupt
        }
        FaultKind::Stall => {
            miso_obs::count("chaos.stalls_injected", 1);
            Action::Stall
        }
        FaultKind::Hog(f) => {
            miso_obs::count("chaos.hogs_injected", 1);
            Action::Hog(f)
        }
    }
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

    #[test]
    fn disabled_is_proceed() {
        let _g = TEST_LOCK.lock().unwrap();
        disable();
        assert_eq!(hit("hv.execute"), Action::Proceed);
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
        assert_eq!(hit("reorg.step"), Action::Proceed);
        assert_eq!(hit("reorg.step"), Action::Proceed);
        assert_eq!(hit("reorg.step"), Action::Crash);
        assert_eq!(hit("reorg.step"), Action::Proceed);
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
        assert_eq!(hit("dw.execute"), Action::Fail);
        assert_eq!(hit("dw.execute"), Action::Fail);
        assert_eq!(hit("dw.execute"), Action::Proceed);
        disable();
    }

    #[test]
    fn probability_is_seeded_and_deterministic() {
        let _g = TEST_LOCK.lock().unwrap();
        let run = |seed: u64| -> Vec<Action> {
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
        assert!(a.contains(&Action::Fail) && a.contains(&Action::Proceed));
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
        assert_eq!(hit("hv.execute"), Action::Proceed);
        assert_eq!(hit("dw.execute"), Action::Fail);
        disable();
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
        assert_eq!(hit("dw.view_read"), Action::Proceed);
        assert_eq!(hit("dw.view_read"), Action::Corrupt);
        assert_eq!(hit("dw.view_read"), Action::Proceed);
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
        assert_eq!(hit("hv.execute"), Action::Proceed);
        assert_eq!(hit("hv.execute"), Action::Stall);
        assert_eq!(hit("hv.execute"), Action::Proceed);
        assert_eq!(hit("dw.execute"), Action::Hog(4.0));
        disable();
    }
}
