//! The online response-time model (§5.3.1, Eq. 2).
//!
//! For each replica `m_i` the model predicts the distribution of the
//! response time
//!
//! ```text
//! R_i = S_i + W_i + T_i
//! ```
//!
//! by convolving the relative-frequency pmfs of the recorded service times
//! (`S_i`) and queuing delays (`W_i`) and shifting by the gateway-to-gateway
//! delay (`T_i`). The resulting distribution function `F_Ri(t)` is the
//! per-replica input to the selection algorithm.

use std::collections::HashMap;

use crate::aqua;
use crate::pmf::{CdfTable, ConvScratch, Pmf, UNBOUNDED};
use crate::qos::ReplicaId;
use crate::repository::{MethodHistory, MethodId, ReplicaStats};
use crate::time::Duration;
use crate::window::BucketedWindow;

/// How the gateway-to-gateway delay term `T_i` is estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[non_exhaustive]
pub enum DelayEstimator {
    /// Use the most recently measured value (the paper's choice, justified
    /// by LAN traffic being stable; §5.3.1).
    #[default]
    LastValue,
    /// Build a pmf over the recorded delay window (the extension the paper
    /// sketches for environments with fluctuating traffic).
    WindowPmf,
}

/// How the queuing-delay term `W_i` is estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[non_exhaustive]
pub enum QueueEstimator {
    /// Relative frequency over the recorded queuing-delay window — the
    /// paper's estimator (§5.3.1).
    #[default]
    History,
    /// Predict the wait from the replica's **current** queue length `q`
    /// (which it publishes with every update, §5.2): `W ≈ S^{*q}`, the
    /// q-fold convolution of the service-time pmf. Reacts instantly to
    /// load changes the delay window has not seen yet; an extension in the
    /// spirit of the queue-length-aware selectors of \[5\].
    QueueScaled,
}

/// How histories of different methods are combined (multi-interface
/// extension, §8 ext. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[non_exhaustive]
pub enum MethodScope {
    /// Use only the history recorded for the method being invoked.
    /// This is the paper's behaviour when services export a single method
    /// (everything lands on [`MethodId::DEFAULT`]).
    #[default]
    PerMethod,
    /// Mix all method histories, weighted by sample count. Used when the
    /// middleware cannot classify the outgoing request.
    Aggregate,
}

/// Configuration of the response-time model.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ModelConfig {
    /// Quantization step for all pmfs. The experiments use 1 ms, which is
    /// ≤1% of the deadlines studied.
    pub bucket: Duration,
    /// Estimator for the `T_i` term.
    pub delay_estimator: DelayEstimator,
    /// Estimator for the `W_i` term.
    pub queue_estimator: QueueEstimator,
    /// How per-method histories combine.
    pub method_scope: MethodScope,
    /// Tail mass pruned (then renormalized) from intermediate convolution
    /// products, bounding support growth in the q-fold `QueueScaled`
    /// convolution. `0.0` disables pruning. See [`Pmf::prune_tails`] for
    /// why values ≤ 1e-12 cannot affect replica ranking.
    pub prune_epsilon: f64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            bucket: Duration::from_millis(1),
            delay_estimator: DelayEstimator::LastValue,
            queue_estimator: QueueEstimator::History,
            method_scope: MethodScope::PerMethod,
            prune_epsilon: 1e-12,
        }
    }
}

/// Cap on the q-fold convolution depth of
/// [`QueueEstimator::QueueScaled`]: beyond this the prediction is "far too
/// late anyway" and extra convolutions only cost time.
const MAX_QUEUE_CONVOLUTIONS: u32 = 32;

/// Predicts `F_Ri(t)` for a replica from its repository entry.
///
/// # Examples
///
/// ```
/// use aqua_core::model::{ModelConfig, ResponseTimeModel};
/// use aqua_core::repository::{InfoRepository, PerfReport};
/// use aqua_core::qos::ReplicaId;
/// use aqua_core::time::{Duration, Instant};
///
/// let ms = Duration::from_millis;
/// let mut repo = InfoRepository::new(5);
/// let r = ReplicaId::new(0);
/// repo.insert_replica(r);
/// for ts in [95u64, 100, 105] {
///     repo.record_perf(r, PerfReport::new(ms(ts), ms(0), 0), Instant::EPOCH);
/// }
/// repo.record_gateway_delay(r, ms(4), Instant::EPOCH);
///
/// let model = ResponseTimeModel::new(ModelConfig::default());
/// let p = model.probability_by(repo.stats(r).unwrap(), ms(105)).unwrap();
/// assert!(p > 0.6 && p <= 1.0, "2 of 3 samples respond within 105 ms: {p}");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResponseTimeModel {
    config: ModelConfig,
}

impl ResponseTimeModel {
    /// Creates a model with the given configuration.
    pub fn new(config: ModelConfig) -> Self {
        ResponseTimeModel { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Predicts the full response-time pmf of a replica, or `None` if the
    /// repository entry does not yet hold enough data (no service-time or
    /// queuing-delay samples, or no gateway-delay measurement).
    pub fn response_pmf(&self, stats: &ReplicaStats) -> Option<Pmf> {
        self.response_pmf_for(stats, None)
    }

    /// Like [`ResponseTimeModel::response_pmf`] but restricted to one
    /// method's history when `method` is `Some` and the scope is
    /// [`MethodScope::PerMethod`].
    pub fn response_pmf_for(&self, stats: &ReplicaStats, method: Option<MethodId>) -> Option<Pmf> {
        let mut scratch = ConvScratch::new();
        self.response_pmf_with(stats, method, &mut scratch)
    }

    /// Builds a window's relative-frequency pmf: straight from the
    /// incremental bucket counts when the window is counted at the model's
    /// bucket width, falling back to rescanning the raw samples otherwise
    /// (e.g. a bucket-width ablation running against a 1 ms repository).
    fn window_pmf(&self, window: &BucketedWindow) -> Option<Pmf> {
        if window.bucket_width() == self.config.bucket {
            Pmf::from_bucket_counts(window.bucket_counts(), self.config.bucket).ok()
        } else {
            Pmf::from_samples(window.samples().iter().copied(), self.config.bucket).ok()
        }
    }

    /// One term of Eq. 2 — the pmf of the window `window_of` picks from a
    /// method history — for the method in scope, or the sample-count
    /// weighted mixture over every method under [`MethodScope::Aggregate`].
    fn term_pmf(
        &self,
        stats: &ReplicaStats,
        method: Option<MethodId>,
        window_of: fn(&MethodHistory) -> &BucketedWindow,
    ) -> Option<Pmf> {
        match self.config.method_scope {
            MethodScope::PerMethod => {
                self.window_pmf(window_of(stats.history(method.unwrap_or_default())?))
            }
            MethodScope::Aggregate => {
                let parts: Vec<(f64, Pmf)> = stats
                    .histories()
                    .filter(|(_, history)| !history.is_empty())
                    .filter_map(|(_, history)| {
                        Some((history.len() as f64, self.window_pmf(window_of(history))?))
                    })
                    .collect();
                Pmf::mixture(&parts.iter().map(|(w, p)| (*w, p)).collect::<Vec<_>>()).ok()
            }
        }
    }

    /// The full model pipeline with caller-provided convolution scratch
    /// buffers — the allocation-lean variant behind both
    /// [`ResponseTimeModel::response_pmf_for`] and the cached path (which
    /// must agree bit-for-bit, so there is exactly one pipeline).
    pub fn response_pmf_with(
        &self,
        stats: &ReplicaStats,
        method: Option<MethodId>,
        scratch: &mut ConvScratch,
    ) -> Option<Pmf> {
        self.response_pmf_within(stats, method, scratch, UNBOUNDED)
    }

    /// The response distribution as a lookup table, exact for every
    /// `t ≤ horizon` (everywhere for `None`). Building only up to the
    /// deadline a plan will read at skips the arithmetic past it.
    pub fn response_cdf(
        &self,
        stats: &ReplicaStats,
        method: Option<MethodId>,
        scratch: &mut ConvScratch,
        horizon: Option<Duration>,
    ) -> Option<CdfTable> {
        let bound = horizon.map_or(UNBOUNDED, |h| h.as_nanos() / self.config.bucket.as_nanos());
        let pmf = self.response_pmf_within(stats, method, scratch, bound)?;
        Some(pmf.into_cumulative(bound))
    }

    /// The pipeline itself, every product keeping only the buckets up to
    /// `bound` (see [`UNBOUNDED`]).
    fn response_pmf_within(
        &self,
        stats: &ReplicaStats,
        method: Option<MethodId>,
        scratch: &mut ConvScratch,
        bound: u64,
    ) -> Option<Pmf> {
        let service = self.term_pmf(stats, method, MethodHistory::service_window)?;
        let queuing = match self.config.queue_estimator {
            QueueEstimator::History => {
                self.term_pmf(stats, method, MethodHistory::queuing_window)?
            }
            QueueEstimator::QueueScaled => {
                let depth = stats.outstanding().min(MAX_QUEUE_CONVOLUTIONS);
                service.self_convolve_within(depth, self.config.prune_epsilon, scratch, bound)
            }
        };

        // Every term is quantized to `config.bucket`, so a bucket mismatch
        // is impossible; `.ok()` keeps that invariant panic-free.
        let combined = service.convolve_within(&queuing, bound).ok()?;

        match self.config.delay_estimator {
            DelayEstimator::LastValue => Some(combined.shift_by(stats.last_gateway_delay()?)),
            DelayEstimator::WindowPmf => {
                let delays = self.window_pmf(stats.gateway_delay_window())?;
                combined.convolve_within(&delays, bound).ok()
            }
        }
    }

    /// Predicts `F_Ri(deadline)`: the probability that a response from this
    /// replica arrives within `deadline`. `None` when data is insufficient.
    pub fn probability_by(&self, stats: &ReplicaStats, deadline: Duration) -> Option<f64> {
        self.probability_by_for(stats, deadline, None)
    }

    /// Per-method variant of [`ResponseTimeModel::probability_by`].
    pub fn probability_by_for(
        &self,
        stats: &ReplicaStats,
        deadline: Duration,
        method: Option<MethodId>,
    ) -> Option<f64> {
        self.response_pmf_for(stats, method)
            .map(|pmf| pmf.cdf(deadline))
    }

    /// Cached variant of [`ResponseTimeModel::probability_by_for`]: memoizes
    /// the fully-convolved response distribution (as a cumulative table) per
    /// `(replica, method)` and answers repeat queries with a single CDF
    /// lookup — no window rescans, no convolutions, no allocations.
    ///
    /// Freshness is decided purely by generation counters ([`GenKey`]): the
    /// cached entry is reused if and only if the replica epoch, the relevant
    /// perf generation, the gateway-delay generation, and the outstanding
    /// count all match the values captured when the entry was built. Any
    /// `record_perf`, `record_gateway_delay`, probation transition, or
    /// remove/re-insert moves one of those counters and falls through to a
    /// full recompute via [`ResponseTimeModel::response_pmf_with`] — the
    /// *same* pipeline as the uncached path, so cached and from-scratch
    /// answers are bit-identical.
    #[aqua::hot_path]
    pub fn probability_by_cached(
        &self,
        cache: &mut ModelCache,
        id: ReplicaId,
        stats: &ReplicaStats,
        deadline: Duration,
        method: Option<MethodId>,
    ) -> Option<f64> {
        let (slot, perf_generation) = match self.config.method_scope {
            MethodScope::PerMethod => {
                let m = method.unwrap_or_default();
                let Some(history) = stats.history(m) else {
                    // The uncached path returns None too; any entry under
                    // this slot is from a previous incarnation of the id
                    // and can never hit again — shed it now.
                    let slot = u64::from(m.index());
                    if cache.entries.remove(&(id, slot)).is_some() {
                        cache.stats.invalidations += 1;
                    }
                    return None;
                };
                (u64::from(m.index()), history.generation())
            }
            MethodScope::Aggregate => (u64::MAX, stats.perf_generation()),
        };
        let key = GenKey {
            epoch: stats.epoch(),
            perf: perf_generation,
            delay: stats.delay_generation(),
            outstanding: stats.outstanding(),
        };
        if let Some(entry) = cache.entries.get(&(id, slot)) {
            if entry.key == key {
                cache.stats.hits += 1;
                return Some(entry.cdf.value_at(deadline));
            }
        }
        match self.response_cdf(stats, method, &mut cache.scratch, None) {
            Some(cdf) => {
                cache.stats.misses += 1;
                let value = cdf.value_at(deadline);
                if cache
                    .entries
                    .insert((id, slot), CacheEntry { key, cdf })
                    .is_some()
                {
                    cache.stats.invalidations += 1;
                }
                Some(value)
            }
            None => {
                if cache.entries.remove(&(id, slot)).is_some() {
                    cache.stats.invalidations += 1;
                }
                None
            }
        }
    }
}

/// Counters describing how a [`ModelCache`] has behaved so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelCacheStats {
    /// Queries answered from a memoized cumulative table.
    pub hits: u64,
    /// Queries that had to run the full convolution pipeline.
    pub misses: u64,
    /// Entries displaced because their generation key went stale (or their
    /// replica disappeared / stopped having enough data).
    pub invalidations: u64,
}

/// The complete freshness fingerprint of one cached response distribution.
///
/// `epoch` guards against ABA on remove/re-insert of a replica id; `perf` is
/// the per-method history generation (PerMethod scope) or the replica-wide
/// perf generation (Aggregate scope — also bumped by probation transitions);
/// `delay` is the gateway-delay window generation; `outstanding` captures the
/// queue depth the QueueScaled estimator convolved with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GenKey {
    epoch: u64,
    perf: u64,
    delay: u64,
    outstanding: u32,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    key: GenKey,
    cdf: CdfTable,
}

/// Memoized response distributions keyed by `(replica, method slot)`, plus
/// the reusable convolution scratch used on misses. See
/// [`ResponseTimeModel::probability_by_cached`].
#[derive(Debug, Default)]
pub struct ModelCache {
    entries: HashMap<(ReplicaId, u64), CacheEntry>,
    scratch: ConvScratch,
    stats: ModelCacheStats,
}

impl ModelCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lifetime hit/miss/invalidation counters.
    pub fn stats(&self) -> ModelCacheStats {
        self.stats
    }

    /// Number of memoized `(replica, method)` distributions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&mut self) {
        let dropped = self.entries.len() as u64;
        self.entries.clear();
        self.stats.invalidations += dropped;
    }

    /// Drops entries for replicas not accepted by `keep` — used to shed
    /// state for removed replicas without waiting for epoch mismatches.
    pub fn retain_replicas(&mut self, mut keep: impl FnMut(ReplicaId) -> bool) {
        let before = self.entries.len();
        self.entries.retain(|(id, _), _| keep(*id));
        self.stats.invalidations += (before - self.entries.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::ReplicaId;
    use crate::repository::{InfoRepository, PerfReport};
    use crate::time::Instant;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn warm_repo(service: &[u64], queue: &[u64], delay: u64) -> InfoRepository {
        let mut repo = InfoRepository::new(service.len().max(1));
        let r = ReplicaId::new(0);
        repo.insert_replica(r);
        for (ts, tq) in service.iter().zip(queue) {
            repo.record_perf(r, PerfReport::new(ms(*ts), ms(*tq), 0), Instant::EPOCH);
        }
        repo.record_gateway_delay(r, ms(delay), Instant::EPOCH);
        repo
    }

    #[test]
    fn insufficient_data_yields_none() {
        let model = ResponseTimeModel::default();
        let mut repo = InfoRepository::new(3);
        let r = ReplicaId::new(0);
        repo.insert_replica(r);
        assert!(model.response_pmf(repo.stats(r).unwrap()).is_none());
        // Perf but no delay:
        repo.record_perf(r, PerfReport::new(ms(10), ms(0), 0), Instant::EPOCH);
        assert!(model.response_pmf(repo.stats(r).unwrap()).is_none());
        // Delay too → warm.
        repo.record_gateway_delay(r, ms(1), Instant::EPOCH);
        assert!(model.response_pmf(repo.stats(r).unwrap()).is_some());
    }

    #[test]
    fn deterministic_terms_add_exactly() {
        let repo = warm_repo(&[100, 100], &[10, 10], 5);
        let model = ResponseTimeModel::default();
        let stats = repo.stats(ReplicaId::new(0)).unwrap();
        let pmf = model.response_pmf(stats).unwrap();
        assert_eq!(pmf.mean(), ms(115));
        assert_eq!(model.probability_by(stats, ms(114)).unwrap(), 0.0);
        assert_eq!(model.probability_by(stats, ms(115)).unwrap(), 1.0);
    }

    #[test]
    fn convolution_spreads_mass() {
        // service ∈ {90, 110} each ½; queue ∈ {0, 20} each ½; delay 0.
        let repo = warm_repo(&[90, 110], &[0, 20], 0);
        let model = ResponseTimeModel::default();
        let stats = repo.stats(ReplicaId::new(0)).unwrap();
        // Sums: 90, 110, 110, 130 each ¼.
        assert!((model.probability_by(stats, ms(90)).unwrap() - 0.25).abs() < 1e-9);
        assert!((model.probability_by(stats, ms(110)).unwrap() - 0.75).abs() < 1e-9);
        assert!((model.probability_by(stats, ms(130)).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn last_value_delay_estimator_uses_latest() {
        let mut repo = warm_repo(&[100], &[0], 5);
        let r = ReplicaId::new(0);
        repo.record_gateway_delay(r, ms(50), Instant::EPOCH);
        let model = ResponseTimeModel::default();
        let pmf = model.response_pmf(repo.stats(r).unwrap()).unwrap();
        assert_eq!(pmf.mean(), ms(150), "uses latest delay (50), not first (5)");
    }

    #[test]
    fn window_pmf_delay_estimator_spreads_delay() {
        let mut repo = InfoRepository::new(4);
        let r = ReplicaId::new(0);
        repo.insert_replica(r);
        repo.record_perf(r, PerfReport::new(ms(100), ms(0), 0), Instant::EPOCH);
        repo.record_gateway_delay(r, ms(0), Instant::EPOCH);
        repo.record_gateway_delay(r, ms(40), Instant::EPOCH);
        let model = ResponseTimeModel::new(ModelConfig {
            delay_estimator: DelayEstimator::WindowPmf,
            ..ModelConfig::default()
        });
        let stats = repo.stats(r).unwrap();
        // Delay history {0, 40} each ½ → response ∈ {100, 140}.
        assert!((model.probability_by(stats, ms(100)).unwrap() - 0.5).abs() < 1e-9);
        assert!((model.probability_by(stats, ms(140)).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_method_scope_separates_histories() {
        let mut repo = InfoRepository::new(4);
        let r = ReplicaId::new(0);
        repo.insert_replica(r);
        let fast = MethodId::new(1);
        let slow = MethodId::new(2);
        repo.record_perf(
            r,
            PerfReport::new(ms(10), ms(0), 0).with_method(fast),
            Instant::EPOCH,
        );
        repo.record_perf(
            r,
            PerfReport::new(ms(500), ms(0), 0).with_method(slow),
            Instant::EPOCH,
        );
        repo.record_gateway_delay(r, ms(0), Instant::EPOCH);
        let model = ResponseTimeModel::default();
        let stats = repo.stats(r).unwrap();
        assert_eq!(
            model.probability_by_for(stats, ms(50), Some(fast)).unwrap(),
            1.0
        );
        assert_eq!(
            model.probability_by_for(stats, ms(50), Some(slow)).unwrap(),
            0.0
        );
        assert!(
            model.probability_by_for(stats, ms(50), None).is_none(),
            "no history recorded under the default method id"
        );
    }

    #[test]
    fn aggregate_scope_mixes_methods_by_sample_count() {
        let mut repo = InfoRepository::new(4);
        let r = ReplicaId::new(0);
        repo.insert_replica(r);
        let fast = MethodId::new(1);
        let slow = MethodId::new(2);
        // 3 fast samples, 1 slow sample.
        for _ in 0..3 {
            repo.record_perf(
                r,
                PerfReport::new(ms(10), ms(0), 0).with_method(fast),
                Instant::EPOCH,
            );
        }
        repo.record_perf(
            r,
            PerfReport::new(ms(500), ms(0), 0).with_method(slow),
            Instant::EPOCH,
        );
        repo.record_gateway_delay(r, ms(0), Instant::EPOCH);
        let model = ResponseTimeModel::new(ModelConfig {
            method_scope: MethodScope::Aggregate,
            ..ModelConfig::default()
        });
        let p = model
            .probability_by(repo.stats(r).unwrap(), ms(50))
            .unwrap();
        assert!((p - 0.75).abs() < 1e-9, "3/4 of the mass is fast: {p}");
    }

    #[test]
    fn queue_scaled_estimator_uses_current_queue_length() {
        let mut repo = InfoRepository::new(4);
        let r = ReplicaId::new(0);
        repo.insert_replica(r);
        // Historical queuing delays are all zero, but the replica just
        // published a queue of 3 outstanding requests.
        for _ in 0..3 {
            repo.record_perf(r, PerfReport::new(ms(50), ms(0), 3), Instant::EPOCH);
        }
        repo.record_gateway_delay(r, ms(0), Instant::EPOCH);
        let stats = repo.stats(r).unwrap();

        let history_model = ResponseTimeModel::default();
        assert_eq!(
            history_model.probability_by(stats, ms(60)).unwrap(),
            1.0,
            "the paper's estimator sees only the (empty-queue) history"
        );

        let queue_model = ResponseTimeModel::new(ModelConfig {
            queue_estimator: QueueEstimator::QueueScaled,
            ..ModelConfig::default()
        });
        // Wait ≈ 3 × 50 ms, then 50 ms service: response ≈ 200 ms.
        assert_eq!(queue_model.probability_by(stats, ms(199)).unwrap(), 0.0);
        assert_eq!(queue_model.probability_by(stats, ms(200)).unwrap(), 1.0);
    }

    #[test]
    fn queue_scaled_with_empty_queue_matches_service_only() {
        let mut repo = InfoRepository::new(4);
        let r = ReplicaId::new(0);
        repo.insert_replica(r);
        repo.record_perf(r, PerfReport::new(ms(70), ms(5), 0), Instant::EPOCH);
        repo.record_gateway_delay(r, ms(0), Instant::EPOCH);
        let stats = repo.stats(r).unwrap();
        let queue_model = ResponseTimeModel::new(ModelConfig {
            queue_estimator: QueueEstimator::QueueScaled,
            ..ModelConfig::default()
        });
        assert_eq!(
            queue_model.response_pmf(stats).unwrap().mean(),
            ms(70),
            "queue of 0 → no wait term at all"
        );
    }

    #[test]
    fn cdf_is_monotone_in_deadline() {
        let repo = warm_repo(&[80, 100, 120, 140], &[0, 5, 10, 20], 3);
        let model = ResponseTimeModel::default();
        let stats = repo.stats(ReplicaId::new(0)).unwrap();
        let mut last = 0.0;
        for t in (60..200).step_by(5) {
            let p = model.probability_by(stats, ms(t)).unwrap();
            assert!(p >= last - 1e-12, "cdf decreased at {t}");
            last = p;
        }
    }

    #[test]
    fn cache_hits_on_unchanged_windows_and_matches_uncached() {
        let repo = warm_repo(&[80, 100, 120, 140], &[0, 5, 10, 20], 3);
        let model = ResponseTimeModel::default();
        let r = ReplicaId::new(0);
        let stats = repo.stats(r).unwrap();
        let mut cache = ModelCache::new();
        for t in (60..200).step_by(5) {
            let cached = model.probability_by_cached(&mut cache, r, stats, ms(t), None);
            let fresh = model.probability_by(stats, ms(t));
            assert_eq!(cached, fresh, "cached and uncached disagree at {t}");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one build, then pure lookups");
        assert_eq!(stats.hits, 27);
        assert_eq!(stats.invalidations, 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_invalidates_on_each_generation_source() {
        let mut repo = warm_repo(&[100, 100], &[10, 10], 5);
        let r = ReplicaId::new(0);
        // Aggregate scope keys on the replica-wide perf generation, which is
        // the counter probation transitions move (per-method history
        // generations only move with their own samples — probation cannot
        // change a per-method distribution, so no invalidation is needed
        // there).
        let model = ResponseTimeModel::new(ModelConfig {
            method_scope: MethodScope::Aggregate,
            queue_estimator: QueueEstimator::QueueScaled,
            ..ModelConfig::default()
        });
        let mut cache = ModelCache::new();
        let mut misses = 0;
        let query = |cache: &mut ModelCache, repo: &InfoRepository| {
            let stats = repo.stats(r).unwrap();
            let cached = model.probability_by_cached(cache, r, stats, ms(300), None);
            assert_eq!(cached, model.probability_by(stats, ms(300)));
        };

        query(&mut cache, &repo);
        misses += 1;
        assert_eq!(cache.stats().misses, misses);

        // Unchanged → hit.
        query(&mut cache, &repo);
        assert_eq!(cache.stats().misses, misses);
        assert_eq!(cache.stats().hits, 1);

        // New perf sample (also changes outstanding) → rebuild.
        repo.record_perf(r, PerfReport::new(ms(120), ms(0), 2), Instant::EPOCH);
        query(&mut cache, &repo);
        misses += 1;
        assert_eq!(cache.stats().misses, misses);

        // New gateway delay → rebuild.
        repo.record_gateway_delay(r, ms(7), Instant::EPOCH);
        query(&mut cache, &repo);
        misses += 1;
        assert_eq!(cache.stats().misses, misses);

        // Probation transition → rebuild (perf generation moves).
        repo.set_probation(r, 1);
        query(&mut cache, &repo);
        misses += 1;
        assert_eq!(cache.stats().misses, misses);

        // Every rebuild displaced the previous entry.
        assert_eq!(cache.stats().invalidations, misses - 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_epoch_guards_against_replica_reinsertion() {
        let mut repo = warm_repo(&[100], &[0], 0);
        let r = ReplicaId::new(0);
        let model = ResponseTimeModel::default();
        let mut cache = ModelCache::new();
        assert!(model
            .probability_by_cached(&mut cache, r, repo.stats(r).unwrap(), ms(90), None)
            .is_some());

        // Remove and re-insert the same id, replaying the *same number* of
        // updates so the per-replica generations coincide; only the epoch
        // distinguishes the incarnations.
        repo.remove_replica(r);
        repo.insert_replica(r);
        repo.record_perf(r, PerfReport::new(ms(500), ms(0), 0), Instant::EPOCH);
        repo.record_gateway_delay(r, ms(0), Instant::EPOCH);
        let p = model
            .probability_by_cached(&mut cache, r, repo.stats(r).unwrap(), ms(90), None)
            .unwrap();
        assert_eq!(
            p, 0.0,
            "stale 100 ms entry must not answer for the 500 ms incarnation"
        );
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn cache_drops_entry_when_data_becomes_insufficient() {
        let mut repo = warm_repo(&[100], &[0], 0);
        let r = ReplicaId::new(0);
        let model = ResponseTimeModel::default();
        let mut cache = ModelCache::new();
        assert!(model
            .probability_by_cached(&mut cache, r, repo.stats(r).unwrap(), ms(90), None)
            .is_some());
        assert_eq!(cache.len(), 1);

        repo.remove_replica(r);
        repo.insert_replica(r);
        assert!(model
            .probability_by_cached(&mut cache, r, repo.stats(r).unwrap(), ms(90), None)
            .is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn retain_replicas_sheds_removed_ids() {
        let model = ResponseTimeModel::default();
        let mut repo = InfoRepository::new(2);
        let mut cache = ModelCache::new();
        for raw in 0..3u64 {
            let id = ReplicaId::new(raw);
            repo.insert_replica(id);
            repo.record_perf(id, PerfReport::new(ms(10), ms(0), 0), Instant::EPOCH);
            repo.record_gateway_delay(id, ms(1), Instant::EPOCH);
            assert!(model
                .probability_by_cached(&mut cache, id, repo.stats(id).unwrap(), ms(90), None)
                .is_some());
        }
        assert_eq!(cache.len(), 3);
        cache.retain_replicas(|id| id != ReplicaId::new(1));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().invalidations, 1);
    }
}
