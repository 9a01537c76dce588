//! Counters, gauges, and log-linear histograms behind a global registry.
//!
//! Metrics are keyed by `&'static str` names (dotted, e.g.
//! `optimizer.what_if_calls`); registration is implicit on first use. All
//! hot-path updates are single atomic RMW operations; the registry lock is
//! taken only on the first touch of each name and on snapshot.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Log-linear histogram over `u64` values.
///
/// Values below 16 get exact unit buckets; every power-of-two range above is
/// split into 8 linear sub-buckets, bounding relative quantile error at
/// ~6.25% (half a sub-bucket width, reported at bucket midpoints). This is
/// the classic HDR-style layout, sized at 496 fixed buckets so recording is
/// one atomic increment with no allocation.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

const LINEAR_CUTOFF: u64 = 16; // exact buckets below this
const SUB_BUCKETS: u64 = 8; // per power-of-two range
const NUM_BUCKETS: usize = (LINEAR_CUTOFF + (64 - 4) * SUB_BUCKETS) as usize;

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64; // >= 4
        let sub = (v >> (msb - 3)) - SUB_BUCKETS; // in [0, 8)
        (LINEAR_CUTOFF + (msb - 4) * SUB_BUCKETS + sub) as usize
    }
}

/// The midpoint of bucket `i` — the value quantile queries report.
fn bucket_mid(i: usize) -> u64 {
    let i = i as u64;
    if i < LINEAR_CUTOFF {
        i
    } else {
        let msb = 4 + (i - LINEAR_CUTOFF) / SUB_BUCKETS;
        let sub = (i - LINEAR_CUTOFF) % SUB_BUCKETS;
        let width = 1u64 << (msb - 3);
        (1u64 << msb) + sub * width + width / 2
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The value at quantile `q` in `[0, 1]` (bucket midpoint; `0` on an
    /// empty histogram). `q = 0.5` is the median, `0.99` the p99.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based: ceil(q * n), at least 1.
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_mid(i);
            }
        }
        self.max()
    }

    /// Clears all recorded values.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// A read-only summary (count/sum/max + standard percentiles).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Exact maximum.
    pub max: u64,
    /// Median (bucket midpoint).
    pub p50: u64,
    /// 90th percentile (bucket midpoint).
    pub p90: u64,
    /// 95th percentile (bucket midpoint).
    pub p95: u64,
    /// 99th percentile (bucket midpoint).
    pub p99: u64,
}

impl HistogramSummary {
    /// The (p50, p95, p99) tail triple — what latency renderers print.
    pub fn tail(&self) -> (u64, u64, u64) {
        (self.p50, self.p95, self.p99)
    }
}

/// The metric registry: name → atomic cell, implicit registration.
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>, // f64 bits
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// The counter cell for `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> Arc<AtomicU64> {
        let mut map = self.counters.lock().expect("counter lock");
        map.entry(name).or_default().clone()
    }

    /// The gauge cell for `name` (stores `f64::to_bits`).
    pub fn gauge(&self, name: &'static str) -> Arc<AtomicU64> {
        let mut map = self.gauges.lock().expect("gauge lock");
        map.entry(name).or_default().clone()
    }

    /// The histogram for `name`.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram lock");
        map.entry(name).or_default().clone()
    }

    /// Snapshots every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter lock")
            .iter()
            .map(|(&k, v)| (k, v.load(Ordering::Relaxed)))
            .filter(|&(_, v)| v != 0)
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge lock")
            .iter()
            .map(|(&k, v)| (k, f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram lock")
            .iter()
            .map(|(&k, v)| (k, v.summary()))
            .filter(|(_, s)| s.count != 0)
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Zeroes every metric (names stay registered).
    pub fn reset(&self) {
        for c in self.counters.lock().expect("counter lock").values() {
            c.store(0, Ordering::Relaxed);
        }
        for g in self.gauges.lock().expect("gauge lock").values() {
            g.store(0, Ordering::Relaxed);
        }
        for h in self.histograms.lock().expect("histogram lock").values() {
            h.reset();
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// A point-in-time copy of all metrics, for reports and assertions. Zeroed
/// counters and empty histograms are omitted.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<&'static str, HistogramSummary>,
}

impl MetricsSnapshot {
    /// The (p50, p95, p99) triple of histogram `name`, if it recorded
    /// anything (empty histograms are omitted from snapshots).
    pub fn tail(&self, name: &str) -> Option<(u64, u64, u64)> {
        self.histograms.get(name).map(HistogramSummary::tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_common::DetRng;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        for v in [0u64, 1, 15, 16, 17, 31, 32, 100, 1_000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "v={v} i={i}");
            assert!(i >= last, "monotone at v={v}");
            last = i;
        }
    }

    #[test]
    fn bucket_midpoint_stays_within_bucket() {
        for i in 0..NUM_BUCKETS {
            let mid = bucket_mid(i);
            assert_eq!(bucket_index(mid), i, "midpoint of bucket {i} maps back");
        }
    }

    #[test]
    fn exact_below_linear_cutoff() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.count(), 16);
        assert_eq!(h.sum(), 120);
        assert_eq!(h.max(), 15);
    }

    /// Percentiles must track exact quantiles within the log-linear error
    /// bound on deterministic pseudo-random data.
    #[test]
    fn percentiles_match_exact_quantiles_on_rng_data() {
        let mut rng = DetRng::new(0xC0FFEE);
        let h = Histogram::new();
        let mut values: Vec<u64> = Vec::with_capacity(10_000);
        for _ in 0..10_000 {
            // Skewed mixture: mostly small latencies plus a heavy tail.
            let v = if rng.chance(0.9) {
                rng.range_inclusive(10, 5_000)
            } else {
                rng.range_inclusive(50_000, 5_000_000)
            };
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.10, 0.50, 0.90, 0.99, 0.999] {
            let exact = values
                [(((q * values.len() as f64).ceil() as usize).max(1) - 1).min(values.len() - 1)];
            let approx = h.quantile(q);
            let rel = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(
                rel <= 0.0625 + 1e-9,
                "q={q}: exact={exact} approx={approx} rel={rel:.4}"
            );
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.max(), *values.last().unwrap());
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary().count, 0);
        assert_eq!(h.summary().tail(), (0, 0, 0));
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let h = Histogram::new();
        h.record(42);
        let s = h.summary();
        // 42 lands in a log-linear bucket; every percentile reports that
        // bucket's midpoint, and all three tail percentiles agree.
        assert_eq!(bucket_index(s.p50), bucket_index(42));
        assert_eq!(s.tail(), (s.p50, s.p50, s.p50));
        assert_eq!(s.max, 42);
    }

    #[test]
    fn percentiles_at_bucket_boundaries() {
        // Values below the linear cutoff (16) are exact: recording 0..=15
        // once each puts p50 at rank 8 → value 7 and p95 at rank 16 → 15.
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.p50, 7);
        assert_eq!(s.p95, 15);
        assert_eq!(s.p99, 15);
        // 16 is the first value that crosses into a shared log-linear
        // bucket; its reported quantile is that bucket's midpoint and must
        // map back to the same bucket.
        let hb = Histogram::new();
        hb.record(16);
        assert_eq!(bucket_index(hb.quantile(1.0)), bucket_index(16));
    }

    #[test]
    fn snapshot_tail_helper_resolves_histograms() {
        let r = Registry::new();
        r.histogram("lat").record(8);
        let snap = r.snapshot();
        assert_eq!(snap.tail("lat"), Some((8, 8, 8)));
        assert_eq!(snap.tail("missing"), None);
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record(100);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.9), 0);
    }

    #[test]
    fn registry_snapshot_omits_zeroes() {
        let r = Registry::new();
        r.counter("a").fetch_add(3, Ordering::Relaxed);
        r.counter("zero"); // registered, never incremented
        r.histogram("h").record(7);
        r.histogram("empty");
        let snap = r.snapshot();
        assert_eq!(snap.counters.get("a"), Some(&3));
        assert!(!snap.counters.contains_key("zero"));
        assert_eq!(snap.histograms["h"].count, 1);
        assert!(!snap.histograms.contains_key("empty"));
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 80_000);
    }
}
