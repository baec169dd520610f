//! Synthetic repositories for micro-benchmarking the selection algorithm
//! (Figure 3) without running a full simulation.

use aqua_core::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a warmed-up repository with `n` replicas and a full sliding
/// window of `l` samples each, drawn to resemble the paper's workload
/// (service ≈ N(100 ms, 50 ms), small queue delays, ms-scale gateway
/// delays).
pub fn synthetic_repository(n: usize, l: usize, seed: u64) -> InfoRepository {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut repo = InfoRepository::new(l);
    for i in 0..n {
        let id = ReplicaId::new(i as u64);
        repo.insert_replica(id);
        for _ in 0..l {
            let service_ms: f64 = 100.0 + 50.0 * (rng.gen::<f64>() - 0.5) * 3.46; // ~uniform matching σ≈50
            let queue_ms: f64 = rng.gen::<f64>() * 20.0;
            repo.record_perf(
                id,
                PerfReport::new(
                    Duration::from_millis_f64(service_ms.max(0.0)),
                    Duration::from_millis_f64(queue_ms),
                    rng.gen_range(0..3),
                ),
                Instant::EPOCH,
            );
        }
        repo.record_gateway_delay(
            id,
            Duration::from_micros(rng.gen_range(1_000..6_000)),
            Instant::EPOCH,
        );
    }
    repo
}

/// A ready-to-run selector over a synthetic repository.
pub fn synthetic_selector(n: usize, l: usize, seed: u64) -> ReplicaSelector {
    let mut selector = ReplicaSelector::new(l, SelectorConfig::default());
    *selector.repository_mut() = synthetic_repository(n, l, seed);
    selector
}

/// Measures the mean per-decision overhead δ (and its model/selection
/// split) over `iters` scheduling decisions.
pub fn measure_overhead(n: usize, l: usize, qos: &QosSpec, iters: u32) -> OverheadMeasurement {
    let mut selector = synthetic_selector(n, l, 42);
    // Warm up caches and the δ tracker.
    for _ in 0..16 {
        let _ = selector.select(qos);
    }
    let mut total = Duration::ZERO;
    let mut model = Duration::ZERO;
    let mut select = Duration::ZERO;
    for _ in 0..iters {
        let decision = selector.select(qos);
        total = total.saturating_add(decision.overhead());
        model = model.saturating_add(decision.model_time);
        select = select.saturating_add(decision.select_time);
    }
    OverheadMeasurement {
        n,
        l,
        mean_total: total / iters as u64,
        mean_model: model / iters as u64,
        mean_select: select / iters as u64,
    }
}

/// The result of [`measure_overhead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadMeasurement {
    /// Number of replicas.
    pub n: usize,
    /// Sliding-window size.
    pub l: usize,
    /// Mean total δ per decision.
    pub mean_total: Duration,
    /// Mean time computing distribution functions.
    pub mean_model: Duration,
    /// Mean time in Algorithm 1 proper.
    pub mean_select: Duration,
}

impl OverheadMeasurement {
    /// Fraction of the overhead spent computing distributions (the paper
    /// reports ≈90%).
    pub fn model_fraction(&self) -> f64 {
        let t = self.mean_total.as_nanos();
        if t == 0 {
            return 0.0;
        }
        self.mean_model.as_nanos() as f64 / t as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_repository_is_warm() {
        let repo = synthetic_repository(7, 5, 1);
        assert_eq!(repo.len(), 7);
        assert!(repo.all_warm());
        for (_, stats) in repo.iter() {
            let h = stats.history(MethodId::DEFAULT).unwrap();
            assert_eq!(h.len(), 5, "window filled");
        }
    }

    #[test]
    fn selector_selects_over_synthetic_data() {
        let mut selector = synthetic_selector(7, 5, 2);
        let qos = QosSpec::new(Duration::from_millis(200), 0.9).unwrap();
        let d = selector.select(&qos);
        assert_eq!(d.reason, SelectionReason::Model);
        assert!(d.selection.redundancy() >= 2);
    }

    #[test]
    fn overhead_measurement_is_positive_and_split() {
        let qos = QosSpec::new(Duration::from_millis(150), 0.9).unwrap();
        let m = measure_overhead(7, 5, &qos, 50);
        assert!(m.mean_total > Duration::ZERO);
        assert!(m.mean_model <= m.mean_total);
        let f = m.model_fraction();
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn overhead_grows_with_window_size() {
        let qos = QosSpec::new(Duration::from_millis(150), 0.9).unwrap();
        // The best of five means: other tests run on the other threads, and
        // one preempted measurement must not decide a small difference.
        let best = |window| {
            (0..5)
                .map(|_| measure_overhead(7, window, &qos, 200).mean_total)
                .min()
                .unwrap()
        };
        let (small, large) = (best(5), best(20));
        assert!(
            large >= small,
            "l=20 ({large}) should cost at least l=5 ({small})"
        );
    }
}
