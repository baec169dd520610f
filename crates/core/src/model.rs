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
//!
//! Algorithm 1 reads `F_Ri` at a single point, `t − δ`, so the planners'
//! pipeline ([`ResponseTimeModel::response_cdf`]) never builds `R_i`'s
//! distribution: it keeps the windows' sample counts and sums, at the
//! point read, the exact rational `Σ_a s[a] · Wcum[x − T − a] / (|S|·|W|)`.
//! [`ResponseTimeModel::response_pmf_with`] still builds the whole pmf
//! for callers that need one.

use std::borrow::Cow;

use crate::pmf::{CdfTable, ConvScratch, Delay, Pmf, Wait};
use crate::repository::{MethodHistory, MethodId, ReplicaStats};
use crate::time::Duration;
use crate::window::BucketedWindow;

/// How the gateway-to-gateway delay term `T_i` is estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
    /// products of the whole-distribution pipeline
    /// ([`ResponseTimeModel::response_pmf_with`]), bounding support growth
    /// in the q-fold `QueueScaled` convolution. `0.0` disables pruning.
    /// Values ≤ 1e-12 move the CDF at any deadline by less than the pruned
    /// mass, so they cannot affect replica ranking. The planners' exact tables
    /// ([`ResponseTimeModel::response_cdf`]) never prune.
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

    /// A window's `(bucket, count)` pairs at the model's bucket width: the
    /// window's own incremental counts when it is counted at that width,
    /// recounted from the raw samples otherwise (e.g. a bucket-width
    /// ablation running against a 1 ms repository).
    fn window_counts<'w>(&self, window: &'w BucketedWindow) -> Cow<'w, [(u64, u32)]> {
        if window.bucket_width() == self.config.bucket {
            Cow::Borrowed(window.counts())
        } else {
            let bucket_ns = self.config.bucket.as_nanos();
            let samples = window.samples().iter();
            Cow::Owned(merged(
                samples.map(|d| (d.as_nanos() / bucket_ns, 1)).collect(),
            ))
        }
    }

    /// One term of Eq. 2 as `(bucket, count)` pairs: the window `window_of`
    /// picks from the method in scope, or every method's window pooled
    /// under [`MethodScope::Aggregate`] — the sample-count weighted mixture
    /// of the per-method distributions, kept as counts.
    fn term_counts<'s>(
        &self,
        stats: &'s ReplicaStats,
        method: Option<MethodId>,
        window_of: fn(&MethodHistory) -> &BucketedWindow,
    ) -> Option<Cow<'s, [(u64, u32)]>> {
        match self.config.method_scope {
            MethodScope::PerMethod => {
                Some(self.window_counts(window_of(stats.history(method.unwrap_or_default())?)))
            }
            MethodScope::Aggregate => {
                let mut pooled = Vec::new();
                for (_, history) in stats.histories() {
                    pooled.extend_from_slice(&self.window_counts(window_of(history)));
                }
                Some(Cow::Owned(merged(pooled)))
            }
        }
    }

    /// The whole response distribution of Eq. 2, with caller-provided
    /// convolution scratch buffers — for callers that need more than
    /// `F_Ri` at a point. Planners read [`ResponseTimeModel::response_cdf`].
    pub fn response_pmf_with(
        &self,
        stats: &ReplicaStats,
        method: Option<MethodId>,
        scratch: &mut ConvScratch,
    ) -> Option<Pmf> {
        let bucket = self.config.bucket;
        let pmf_of =
            |counts: &[(u64, u32)]| Pmf::from_bucket_counts(counts.iter().copied(), bucket).ok();
        let service = pmf_of(&self.term_counts(stats, method, MethodHistory::service_window)?)?;
        let queuing = match self.config.queue_estimator {
            QueueEstimator::History => {
                pmf_of(&self.term_counts(stats, method, MethodHistory::queuing_window)?)?
            }
            QueueEstimator::QueueScaled => {
                let depth = stats.outstanding().min(MAX_QUEUE_CONVOLUTIONS);
                service.self_convolve(depth, self.config.prune_epsilon, scratch)
            }
        };

        // Every term is quantized to `config.bucket`, so a bucket mismatch
        // is impossible; `.ok()` keeps that invariant panic-free.
        let combined = service.convolve(&queuing).ok()?;

        match self.config.delay_estimator {
            DelayEstimator::LastValue => Some(combined.shift_by(stats.last_gateway_delay()?)),
            DelayEstimator::WindowPmf => {
                let delays = pmf_of(&self.window_counts(stats.gateway_delay_window()))?;
                combined.convolve(&delays).ok()
            }
        }
    }

    /// `F_Ri` as a point-query table ([`CdfTable`]) over the exact integer
    /// counts of Eq. 2's terms: the one function every `F_Ri` a planner
    /// reads comes from. The table is exact for every `t ≤ horizon`
    /// (everywhere for `None`); building only up to the deadline a plan
    /// will read at skips the arithmetic past it, and below the horizon a
    /// bounded table reads what an unbounded one does, bit for bit.
    pub fn response_cdf(
        &self,
        stats: &ReplicaStats,
        method: Option<MethodId>,
        scratch: &mut ConvScratch,
        horizon: Option<Duration>,
    ) -> Option<CdfTable> {
        self.response_cdf_from(None, stats, method, scratch, horizon)
    }

    /// [`ResponseTimeModel::response_cdf`] for a table that replaces
    /// `held`, the same replica's table for the same method slot in the
    /// same epoch: a `QueueScaled` table refreshes the powers of `S` that
    /// `held` kept from the buckets that moved instead of squaring `S`
    /// again ([`CdfTable::is_refreshed`]). It reads what a fresh table
    /// reads, bit for bit.
    pub fn response_cdf_from(
        &self,
        held: Option<&CdfTable>,
        stats: &ReplicaStats,
        method: Option<MethodId>,
        scratch: &mut ConvScratch,
        horizon: Option<Duration>,
    ) -> Option<CdfTable> {
        let bucket = self.config.bucket;
        let service = self.term_counts(stats, method, MethodHistory::service_window)?;
        let queuing;
        let wait = match self.config.queue_estimator {
            QueueEstimator::History => {
                queuing = self.term_counts(stats, method, MethodHistory::queuing_window)?;
                Wait::Counts(&queuing)
            }
            QueueEstimator::QueueScaled => {
                Wait::ServiceFold(stats.outstanding().min(MAX_QUEUE_CONVOLUTIONS))
            }
        };
        let delays;
        let delay = match self.config.delay_estimator {
            DelayEstimator::LastValue => {
                Delay::Shift(stats.last_gateway_delay()?.as_nanos() / bucket.as_nanos())
            }
            DelayEstimator::WindowPmf => {
                delays = self.window_counts(stats.gateway_delay_window());
                Delay::Counts(&delays)
            }
        };
        let horizon = horizon.map(|h| h.as_nanos() / bucket.as_nanos());
        CdfTable::of_counts(bucket, &service, wait, delay, horizon, held, scratch)
    }

    /// Predicts `F_Ri(deadline)`: the probability that a response from this
    /// replica arrives within `deadline`. `None` when data is insufficient.
    pub fn probability_by(&self, stats: &ReplicaStats, deadline: Duration) -> Option<f64> {
        self.probability_by_for(stats, deadline, None)
    }

    /// Per-method variant of [`ResponseTimeModel::probability_by`]: one
    /// point query on a table built up to `deadline`.
    pub fn probability_by_for(
        &self,
        stats: &ReplicaStats,
        deadline: Duration,
        method: Option<MethodId>,
    ) -> Option<f64> {
        self.response_cdf(stats, method, &mut ConvScratch::new(), Some(deadline))
            .map(|table| table.value_at(deadline))
    }
}

/// Sorts `(bucket, count)` pairs by bucket and merges those of one bucket.
fn merged(mut pairs: Vec<(u64, u32)>) -> Vec<(u64, u32)> {
    pairs.sort_unstable_by_key(|&(at, _)| at);
    pairs.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    pairs
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

    /// The whole response pmf, over every method.
    fn whole(model: &ResponseTimeModel, stats: &ReplicaStats) -> Option<Pmf> {
        model.response_pmf_with(stats, None, &mut ConvScratch::new())
    }

    #[test]
    fn insufficient_data_yields_none() {
        let model = ResponseTimeModel::default();
        let mut repo = InfoRepository::new(3);
        let r = ReplicaId::new(0);
        repo.insert_replica(r);
        assert!(whole(&model, repo.stats(r).unwrap()).is_none());
        // Perf but no delay:
        repo.record_perf(r, PerfReport::new(ms(10), ms(0), 0), Instant::EPOCH);
        assert!(whole(&model, repo.stats(r).unwrap()).is_none());
        // Delay too → warm.
        repo.record_gateway_delay(r, ms(1), Instant::EPOCH);
        assert!(whole(&model, repo.stats(r).unwrap()).is_some());
    }

    #[test]
    fn deterministic_terms_add_exactly() {
        let repo = warm_repo(&[100, 100], &[10, 10], 5);
        let model = ResponseTimeModel::default();
        let stats = repo.stats(ReplicaId::new(0)).unwrap();
        let pmf = whole(&model, stats).unwrap();
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
        let pmf = whole(&model, repo.stats(r).unwrap()).unwrap();
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
            whole(&queue_model, stats).unwrap().mean(),
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
}
