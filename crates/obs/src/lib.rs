//! `miso-obs` — the observability backbone of the MISO reproduction.
//!
//! The paper's whole evaluation is a projection of internal events: per-query
//! HV/DW/transfer time, tuner reorganizations, optimizer what-if probes.
//! This crate makes those events first-class so any run can be profiled,
//! diffed across PRs, and debugged from a trace file — with **zero external
//! dependencies** (only `std` plus the workspace's own `miso-common` /
//! `miso-data` JSON writer).
//!
//! Three pillars:
//!
//! 1. **Span/event tracing** ([`span`], [`instant`], [`sink`]): RAII
//!    [`Span`] guards carrying monotonic wall timestamps plus optional
//!    *simulated* timestamps, emitted to a pluggable [`Sink`] — a
//!    lock-free-ish in-memory [`RingSink`], a [`JsonlSink`] writing one JSON
//!    object per line, or the default [`NoopSink`].
//! 2. **Metrics** ([`metrics`]): a global registry of counters, gauges, and
//!    log-linear histograms (p50/p90/p99) keyed by `&'static str` names.
//! 3. **Run reports** ([`report`]): a versioned JSON snapshot of every
//!    metric plus benchmark-specific extras, written under `results/`.
//!
//! # Enabling
//!
//! Observability is **off by default**; every disabled-path call costs one
//! relaxed atomic load. Turn it on with:
//!
//! * `MISO_TRACE=<path.jsonl>` — enable and stream events to a JSONL file;
//! * `MISO_OBS=1` — enable with the in-memory ring sink (metrics + last
//!   events only);
//! * programmatically via [`init`] with an [`ObsConfig`].
//!
//! ```
//! miso_obs::init(miso_obs::ObsConfig::ring(1024));
//! {
//!     let _q = miso_obs::span("query").field_str("label", "A1v1");
//!     miso_obs::count("optimizer.what_if_calls", 1);
//!     miso_obs::observe("optimizer.split.candidates", 17);
//! }
//! let snap = miso_obs::snapshot();
//! assert_eq!(snap.counters["optimizer.what_if_calls"], 1);
//! ```

pub mod metrics;
pub mod report;
pub mod sink;
pub mod span;

pub use metrics::{HistogramSummary, MetricsSnapshot, Registry};
pub use report::{build_report, write_report, REPORT_SCHEMA_VERSION};
pub use sink::{Event, EventKind, FieldValue, JsonlSink, NoopSink, RingSink, Sink};
pub use span::Span;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Programmatic observability configuration (the code-level twin of the
/// `MISO_OBS` / `MISO_TRACE` environment toggles).
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Master switch; when false, every instrumentation call is a single
    /// atomic load.
    pub enabled: bool,
    /// Stream events to this JSONL file (implies `enabled`).
    pub trace_path: Option<PathBuf>,
    /// Keep the last N events in memory instead (used when no trace path is
    /// given).
    pub ring_capacity: Option<usize>,
}

impl ObsConfig {
    /// Disabled (the default state).
    pub fn disabled() -> Self {
        ObsConfig::default()
    }

    /// Enabled with an in-memory ring sink of the given capacity.
    pub fn ring(capacity: usize) -> Self {
        ObsConfig {
            enabled: true,
            trace_path: None,
            ring_capacity: Some(capacity),
        }
    }

    /// Enabled with a JSONL trace file.
    pub fn trace(path: impl Into<PathBuf>) -> Self {
        ObsConfig {
            enabled: true,
            trace_path: Some(path.into()),
            ring_capacity: None,
        }
    }
}

pub(crate) struct ObsState {
    enabled: AtomicBool,
    sink: RwLock<Arc<dyn Sink>>,
    registry: Registry,
    epoch: Instant,
    next_span_id: AtomicU64,
}

fn state() -> &'static ObsState {
    static STATE: OnceLock<ObsState> = OnceLock::new();
    STATE.get_or_init(|| ObsState {
        enabled: AtomicBool::new(false),
        sink: RwLock::new(Arc::new(NoopSink)),
        registry: Registry::new(),
        epoch: Instant::now(),
        next_span_id: AtomicU64::new(1),
    })
}

/// Whether observability is on. This is the disabled-path cost of every
/// instrumentation point: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    state().enabled.load(Ordering::Relaxed)
}

/// Applies a configuration: installs the matching sink and flips the master
/// switch. Safe to call repeatedly (e.g. tests swapping sinks).
pub fn init(config: ObsConfig) {
    let s = state();
    if !config.enabled && config.trace_path.is_none() {
        s.enabled.store(false, Ordering::Relaxed);
        return;
    }
    let sink: Arc<dyn Sink> = match &config.trace_path {
        Some(path) => match JsonlSink::create(path) {
            Ok(jsonl) => Arc::new(jsonl),
            Err(e) => {
                eprintln!("miso-obs: cannot open trace file {}: {e}", path.display());
                Arc::new(RingSink::new(config.ring_capacity.unwrap_or(4096)))
            }
        },
        None => Arc::new(RingSink::new(config.ring_capacity.unwrap_or(4096))),
    };
    set_sink(sink);
    s.enabled.store(true, Ordering::Relaxed);
}

/// Reads `MISO_TRACE` / `MISO_OBS` and initializes accordingly. Returns
/// whether observability ended up enabled. Every bench binary calls this
/// first thing in `main`. An empty `MISO_TRACE` is unset, as an empty flag
/// is off.
pub fn init_from_env() -> bool {
    let trace = std::env::var_os("MISO_TRACE").filter(|path| !path.is_empty());
    let obs_on = miso_common::env::flag("MISO_OBS");
    if trace.is_none() && !obs_on {
        return false;
    }
    init(ObsConfig {
        enabled: true,
        trace_path: trace.map(PathBuf::from),
        ring_capacity: Some(4096),
    });
    true
}

/// Replaces the active sink, returning the previous one. Events recorded
/// concurrently go to whichever sink the recording thread observed.
pub fn set_sink(sink: Arc<dyn Sink>) -> Arc<dyn Sink> {
    let s = state();
    let mut slot = s.sink.write().expect("obs sink lock");
    std::mem::replace(&mut *slot, sink)
}

/// The currently installed sink.
pub fn current_sink() -> Arc<dyn Sink> {
    state().sink.read().expect("obs sink lock").clone()
}

/// Flushes the active sink (JSONL sinks buffer writes).
pub fn flush() {
    current_sink().flush();
}

/// Nanoseconds of monotonic wall time since observability state creation.
pub(crate) fn mono_ns() -> u64 {
    state().epoch.elapsed().as_nanos() as u64
}

pub(crate) fn next_span_id() -> u64 {
    state().next_span_id.fetch_add(1, Ordering::Relaxed)
}

pub(crate) fn record_event(event: &Event) {
    current_sink().record(event);
}

// ---- Metrics facade -----------------------------------------------------

/// Increments counter `name` by `delta`. No-op (one atomic load) when
/// observability is disabled.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if enabled() {
        state()
            .registry
            .counter(name)
            .fetch_add(delta, Ordering::Relaxed);
    }
}

/// Sets gauge `name` to `value`.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if enabled() {
        state()
            .registry
            .gauge(name)
            .store(value.to_bits(), Ordering::Relaxed);
    }
}

/// Records `value` into the log-linear histogram `name`.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        state().registry.histogram(name).record(value);
    }
}

/// A point-in-time snapshot of every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    state().registry.snapshot()
}

/// Clears all registered metrics (counters to zero, histograms emptied).
/// Used between runs that share a process (tests, multi-variant benches).
pub fn reset_metrics() {
    state().registry.reset();
}

// ---- Span facade --------------------------------------------------------

/// Opens a [`Span`]; the guard emits a start event now and an end event with
/// duration and accumulated fields when dropped. Returns an inert guard when
/// observability is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span::enter(name)
}

/// Emits a standalone (zero-duration) event with the given fields.
pub fn instant(name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
    if !enabled() {
        return;
    }
    let event = Event {
        kind: EventKind::Instant,
        name,
        span: span::current_span_id(),
        parent: 0,
        t_mono_ns: mono_ns(),
        dur_ns: 0,
        sim_us: None,
        fields,
    };
    record_event(&event);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-state tests live in `tests/` integration style within the unit
    // test harness; they serialize on a mutex because the registry and the
    // enabled flag are process-wide.
    use std::sync::Mutex;
    pub(crate) static GLOBAL_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_is_inert_and_cheap() {
        let _g = GLOBAL_TEST_LOCK.lock().unwrap();
        init(ObsConfig::disabled());
        reset_metrics();
        count("test.inert", 5);
        observe("test.inert_hist", 5);
        {
            let _s = span("test.inert_span");
        }
        let snap = snapshot();
        assert!(!snap.counters.contains_key("test.inert"));
        assert!(!snap.histograms.contains_key("test.inert_hist"));
    }

    #[test]
    fn env_style_config_round_trip() {
        let _g = GLOBAL_TEST_LOCK.lock().unwrap();
        init(ObsConfig::ring(16));
        assert!(enabled());
        reset_metrics();
        count("test.cfg", 2);
        count("test.cfg", 3);
        assert_eq!(snapshot().counters["test.cfg"], 5);
        init(ObsConfig::disabled());
        assert!(!enabled());
    }

    #[test]
    fn sink_swap_under_concurrent_spans() {
        let _g = GLOBAL_TEST_LOCK.lock().unwrap();
        init(ObsConfig::ring(64));
        reset_metrics();
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..4 {
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let _s = span("test.swap").field_u64("thread", t);
                    n += 1;
                }
                n
            }));
        }
        // Swap sinks repeatedly while spans are being emitted.
        for i in 0..50 {
            let ring = Arc::new(RingSink::new(8 + (i % 8)));
            set_sink(ring);
            std::thread::yield_now();
        }
        let final_ring = Arc::new(RingSink::new(1024));
        set_sink(final_ring.clone());
        std::thread::sleep(std::time::Duration::from_millis(10));
        stop.store(true, Ordering::Relaxed);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "spans were produced throughout");
        // The final sink observed events after the last swap, and every
        // recorded event is well-formed.
        let events = final_ring.events();
        assert!(!events.is_empty(), "events landed in the swapped-in sink");
        for e in &events {
            assert_eq!(e.name, "test.swap");
        }
        init(ObsConfig::disabled());
    }
}
