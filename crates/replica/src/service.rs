//! Service-time distributions for simulated replicas.
//!
//! The paper's experiments "simulated the load on the servers by having
//! each replica respond to a request after a delay that was normally
//! distributed with a mean of 100 milliseconds and a variance of 50
//! milliseconds" (§6). [`ServiceTimeModel::paper_load`] reproduces that
//! setting (reading the spread as σ = 50 ms; see DESIGN.md for why); the
//! other variants exercise the model under heavier tails.

use aqua_core::time::Duration;
use rand::Rng;
use rand_distr::{Distribution, Exp, LogNormal, Normal, Pareto};

/// A sampleable distribution of per-request service times.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceTimeModel {
    /// Every request takes exactly this long.
    Deterministic(Duration),
    /// Uniform between `lo` and `hi` (inclusive of `lo`, exclusive of `hi`).
    Uniform {
        /// Lower bound.
        lo: Duration,
        /// Upper bound (must be > `lo`).
        hi: Duration,
    },
    /// Normal, truncated below at `min`.
    Normal {
        /// Mean of the untruncated distribution.
        mean: Duration,
        /// Standard deviation.
        std_dev: Duration,
        /// Samples below this are clamped up to it.
        min: Duration,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Mean service time (1/λ).
        mean: Duration,
    },
    /// Log-normal parameterized by its median and the σ of the underlying
    /// normal, producing a right-skewed, occasionally very slow service.
    LogNormal {
        /// Median service time (`e^μ`).
        median: Duration,
        /// Shape: σ of `ln X`.
        sigma: f64,
    },
    /// Pareto (heavy tail) with minimum `scale` and tail index `shape`.
    Pareto {
        /// Minimum service time.
        scale: Duration,
        /// Tail index α (> 1 for a finite mean).
        shape: f64,
    },
}

impl ServiceTimeModel {
    /// The paper's synthetic server load: Normal(100 ms, σ 50 ms),
    /// truncated at zero.
    pub fn paper_load() -> Self {
        ServiceTimeModel::Normal {
            mean: Duration::from_millis(100),
            std_dev: Duration::from_millis(50),
            min: Duration::ZERO,
        }
    }

    /// Draws one service time.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        match self {
            ServiceTimeModel::Deterministic(d) => *d,
            ServiceTimeModel::Uniform { lo, hi } => {
                debug_assert!(hi > lo, "uniform needs hi > lo");
                Duration::from_nanos(rng.gen_range(lo.as_nanos()..hi.as_nanos()))
            }
            ServiceTimeModel::Normal { mean, std_dev, min } => {
                let dist = Normal::new(mean.as_secs_f64(), std_dev.as_secs_f64())
                    .expect("std_dev is finite and non-negative");
                let secs = dist.sample(rng);
                Duration::from_secs_f64(secs.max(min.as_secs_f64()))
            }
            ServiceTimeModel::Exponential { mean } => {
                let lambda = 1.0 / mean.as_secs_f64().max(f64::MIN_POSITIVE);
                let dist = Exp::new(lambda).expect("rate is positive and finite");
                Duration::from_secs_f64(dist.sample(rng))
            }
            ServiceTimeModel::LogNormal { median, sigma } => {
                let mu = median.as_secs_f64().max(f64::MIN_POSITIVE).ln();
                let dist = LogNormal::new(mu, *sigma).expect("sigma is finite");
                Duration::from_secs_f64(dist.sample(rng))
            }
            ServiceTimeModel::Pareto { scale, shape } => {
                let dist = Pareto::new(scale.as_secs_f64().max(f64::MIN_POSITIVE), *shape)
                    .expect("scale and shape are positive");
                Duration::from_secs_f64(dist.sample(rng))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    fn empirical_mean(model: &ServiceTimeModel, n: usize) -> f64 {
        let mut r = rng();
        (0..n)
            .map(|_| model.sample(&mut r).as_millis_f64())
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn deterministic_is_constant() {
        let model = ServiceTimeModel::Deterministic(ms(42));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(model.sample(&mut r), ms(42));
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let model = ServiceTimeModel::Uniform {
            lo: ms(10),
            hi: ms(20),
        };
        let mut r = rng();
        for _ in 0..1_000 {
            let s = model.sample(&mut r);
            assert!(s >= ms(10) && s < ms(20));
        }
    }

    #[test]
    fn paper_load_matches_parameters() {
        let model = ServiceTimeModel::paper_load();
        let mean = empirical_mean(&model, 20_000);
        assert!(
            (mean - 100.0).abs() < 3.0,
            "empirical mean {mean} should be ≈100 ms (σ50 truncated at 0 biases up slightly)"
        );
        let mut r = rng();
        assert!((0..20_000).all(|_| model.sample(&mut r) >= Duration::ZERO));
    }

    #[test]
    fn normal_truncates_at_min() {
        let model = ServiceTimeModel::Normal {
            mean: ms(1),
            std_dev: ms(100),
            min: ms(1),
        };
        let mut r = rng();
        for _ in 0..1_000 {
            assert!(model.sample(&mut r) >= ms(1));
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let model = ServiceTimeModel::Exponential { mean: ms(50) };
        let mean = empirical_mean(&model, 50_000);
        assert!((mean - 50.0).abs() < 2.0, "empirical mean {mean}");
    }

    #[test]
    fn lognormal_median_is_roughly_right() {
        let model = ServiceTimeModel::LogNormal {
            median: ms(100),
            sigma: 0.5,
        };
        let mut r = rng();
        let mut samples: Vec<f64> = (0..10_001)
            .map(|_| model.sample(&mut r).as_millis_f64())
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[5_000];
        assert!((median - 100.0).abs() < 5.0, "median {median}");
        // mean = median · e^{σ²/2} ≈ 113.3 ms
        let m = empirical_mean(&model, 50_000);
        assert!((m - 113.3).abs() < 3.0, "empirical mean {m}");
    }

    #[test]
    fn pareto_respects_scale_and_mean() {
        let model = ServiceTimeModel::Pareto {
            scale: ms(10),
            shape: 3.0,
        };
        let mut r = rng();
        for _ in 0..1_000 {
            assert!(model.sample(&mut r) >= ms(10));
        }
        // mean = α · scale / (α − 1) = 15 ms
        let m = empirical_mean(&model, 50_000);
        assert!((m - 15.0).abs() < 0.5, "empirical mean {m}");
    }
}
