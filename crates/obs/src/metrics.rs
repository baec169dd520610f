//! Lock-free metrics: counters, gauges, and log-linear histograms.
//!
//! Hot-path updates are single atomic RMW operations; the registry's lock
//! is touched only when a metric handle is first created (callers cache
//! the returned `Arc`s). Histograms use a log-linear bucket layout (16
//! linear sub-buckets per power of two, HdrHistogram-style): relative
//! bucket error is bounded by 1/16 ≈ 6% across the full `u64` range,
//! which is ample for latency quantiles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value (queue depths, in-flight counts, ...).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: i64) {
        // aqua-lint: allow(atomics-ordering) a gauge is a standalone word: scrapes tolerate staleness and no payload hangs off the value
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Linear sub-buckets per power of two (must be a power of two).
const SUB_BUCKETS: usize = 16;
const SUB_BITS: u32 = 4;
/// Values `< SUB_BUCKETS` get exact buckets; groups cover exponents
/// 4..=63, 16 buckets each.
const BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// Maps a value to its bucket index.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        value as usize
    } else {
        let exp = 63 - value.leading_zeros(); // >= SUB_BITS
        let group = (exp - SUB_BITS) as usize;
        let sub = ((value >> (exp - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        (group + 1) * SUB_BUCKETS + sub
    }
}

/// Inclusive lower bound of a bucket.
fn bucket_lower_bound(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        index as u64
    } else {
        let group = (index / SUB_BUCKETS - 1) as u32;
        let sub = (index % SUB_BUCKETS) as u64;
        (SUB_BUCKETS as u64 + sub) << group
    }
}

/// Inclusive upper bound of a bucket.
fn bucket_upper_bound(index: usize) -> u64 {
    if index + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lower_bound(index + 1) - 1
    }
}

/// Lock-free latency histogram with quantile estimation.
///
/// Values are dimensionless `u64`s; by convention the workspace records
/// nanoseconds.
pub struct Histogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        let counts = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Wait-free: four relaxed atomic RMWs.
    #[inline]
    pub fn record(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        let v = self.min.load(Ordering::Relaxed);
        (v != u64::MAX || self.count() > 0).then_some(v)
    }

    /// Exact largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// Mean recorded value (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() as f64 / n as f64)
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) as the upper bound of the
    /// bucket containing it, clamped to the exact observed max.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (index, bucket) in self.counts.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let max = self.max.load(Ordering::Relaxed);
                return Some(bucket_upper_bound(index).min(max));
            }
        }
        // Concurrent recording raced count vs. buckets; fall back to max.
        Some(self.max.load(Ordering::Relaxed))
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter().zip(other.counts.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Immutable copy for exporters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (index, bucket) in self.counts.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push(BucketCount {
                    upper_bound: bucket_upper_bound(index),
                    count: n,
                });
            }
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            p50: self.quantile(0.50).unwrap_or(0),
            p95: self.quantile(0.95).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
            buckets,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("min", &self.min())
            .field("max", &self.max())
            .finish_non_exhaustive()
    }
}

/// One non-empty bucket in a [`HistogramSnapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket.
    pub upper_bound: u64,
    /// Observations in this bucket (non-cumulative).
    pub count: u64,
}

/// Point-in-time view of a [`Histogram`].
#[derive(Clone, Debug, Default)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Exact observed minimum (0 when empty).
    pub min: u64,
    /// Exact observed maximum (0 when empty).
    pub max: u64,
    /// Estimated median (bucket upper bound).
    pub p50: u64,
    /// Estimated 95th percentile (bucket upper bound).
    pub p95: u64,
    /// Estimated 99th percentile (bucket upper bound).
    pub p99: u64,
    /// Non-empty buckets, ascending by bound.
    pub buckets: Vec<BucketCount>,
}

/// A metric's identity: name plus ordered labels.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, e.g. `aqua_reply_ts_ns`.
    pub name: String,
    /// Ordered `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        MetricKey {
            name: name.to_owned(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<MetricKey, Arc<Counter>>,
    gauges: BTreeMap<MetricKey, Arc<Gauge>>,
    histograms: BTreeMap<MetricKey, Arc<Histogram>>,
}

/// Get-or-create store of named metrics.
///
/// Lookup takes a short mutex; the returned `Arc` handles update their
/// atomics without any lock, so callers on hot paths should look up once
/// and cache.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns (creating if needed) the counter with this name + labels.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::new(name, labels);
        Arc::clone(
            self.lock()
                .counters
                .entry(key)
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Returns (creating if needed) the gauge with this name + labels.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = MetricKey::new(name, labels);
        Arc::clone(
            self.lock()
                .gauges
                .entry(key)
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Returns (creating if needed) the histogram with this name + labels.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = MetricKey::new(name, labels);
        Arc::clone(
            self.lock()
                .histograms
                .entry(key)
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Consistent-enough point-in-time view of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// Everything the exporters need, detached from live atomics.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by key.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauge values, sorted by key.
    pub gauges: Vec<(MetricKey, i64)>,
    /// Histogram snapshots, sorted by key.
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_covering() {
        let mut previous_upper = None;
        for index in 0..BUCKETS {
            let lo = bucket_lower_bound(index);
            let hi = bucket_upper_bound(index);
            assert!(lo <= hi, "bucket {index}: {lo} > {hi}");
            if let Some(prev) = previous_upper {
                assert_eq!(lo, prev + 1, "gap before bucket {index}");
            }
            previous_upper = Some(hi);
        }
        assert_eq!(previous_upper, Some(u64::MAX));
    }

    #[test]
    fn values_land_in_their_own_bucket() {
        for value in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456_789, u64::MAX] {
            let index = bucket_index(value);
            assert!(bucket_lower_bound(index) <= value, "value {value}");
            assert!(value <= bucket_upper_bound(index), "value {value}");
        }
    }

    #[test]
    fn quantiles_bound_recorded_values() {
        let h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1_000);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1_000));
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // Upper-bound estimates: within one bucket (6.25%) above truth.
        assert!((500..=540).contains(&p50), "p50 {p50}");
        assert!((990..=1_000).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(1.0), Some(1_000));
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        a.record(20);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(1_000_000));
        assert_eq!(a.sum(), 1_000_030);
    }

    #[test]
    fn registry_returns_shared_handles() {
        let registry = Registry::new();
        let c1 = registry.counter("requests_total", &[("client", "1")]);
        let c2 = registry.counter("requests_total", &[("client", "1")]);
        let other = registry.counter("requests_total", &[("client", "2")]);
        c1.inc();
        c2.add(2);
        other.inc();
        assert_eq!(c1.get(), 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counters.len(), 2);
        assert_eq!(snap.counters[0].1 + snap.counters[1].1, 4);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let h = std::sync::Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        let bucket_total: u64 = h.snapshot().buckets.iter().map(|b| b.count).sum();
        assert_eq!(bucket_total, 40_000);
    }
}
