//! Closed-form reference distributions for validating the empirical model.
//!
//! The online model of §5.3.1 is nonparametric — relative frequencies over
//! a sliding window. To test it, we need ground truth: when the service
//! times are *drawn from* a known distribution, the empirical `F_R(t)` must
//! converge to the analytic one. This module provides the closed forms
//! (and an `erf` implementation to power the normal CDF) used by the test
//! suites: `tests/calibration.rs` checks the model's `F̂(t)` against them
//! within the DKW bound.

use crate::time::Duration;

/// Abramowitz & Stegun 7.1.26 rational approximation of the error
/// function; absolute error ≤ 1.5 × 10⁻⁷ — far below the tolerances used
/// in any test here.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// A distribution over durations with a closed-form CDF.
pub trait AnalyticDistribution {
    /// `P(X ≤ t)`.
    fn cdf(&self, t: Duration) -> f64;

    /// The distribution mean, if finite.
    fn mean(&self) -> Option<Duration>;
}

/// Normal(μ, σ), truncated below at zero (matching how the simulated
/// servers clamp negative draws).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalDist {
    /// Mean of the untruncated distribution.
    pub mean: Duration,
    /// Standard deviation.
    pub std_dev: Duration,
}

impl NormalDist {
    /// The paper's synthetic load: Normal(100 ms, σ 50 ms).
    pub fn paper_load() -> Self {
        NormalDist {
            mean: Duration::from_millis(100),
            std_dev: Duration::from_millis(50),
        }
    }

    /// CDF of the *untruncated* normal at `t` (may be > 0 at t = 0).
    pub fn untruncated_cdf(&self, t: Duration) -> f64 {
        let z = (t.as_secs_f64() - self.mean.as_secs_f64())
            / (self.std_dev.as_secs_f64() * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }
}

impl AnalyticDistribution for NormalDist {
    fn cdf(&self, t: Duration) -> f64 {
        // Truncation at zero piles the negative mass onto 0, so for t ≥ 0
        // the CDF equals the untruncated one.
        self.untruncated_cdf(t)
    }

    fn mean(&self) -> Option<Duration> {
        Some(self.mean)
    }
}

/// Exponential with the given mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialDist {
    /// Mean (1/λ).
    pub mean: Duration,
}

impl AnalyticDistribution for ExponentialDist {
    fn cdf(&self, t: Duration) -> f64 {
        let lambda = 1.0 / self.mean.as_secs_f64().max(f64::MIN_POSITIVE);
        1.0 - (-lambda * t.as_secs_f64()).exp()
    }

    fn mean(&self) -> Option<Duration> {
        Some(self.mean)
    }
}

/// The minimum number of i.i.d. replicas with per-replica probability `p`
/// needed so that at least one responds in time with probability ≥ `target`
/// (∞-safe: returns `None` when `p` ≤ 0 and `target` > 0).
///
/// This is the closed-form prediction behind Figure 4's curves, up to the
/// reservation of `m0`.
pub fn replicas_needed(p: f64, target: f64) -> Option<u32> {
    let p = p.clamp(0.0, 1.0);
    let target = target.clamp(0.0, 1.0);
    if target <= 0.0 {
        return Some(0);
    }
    if p <= 0.0 {
        return None;
    }
    if p >= 1.0 {
        return Some(1);
    }
    // 1 − (1−p)^k ≥ target  ⇔  k ≥ ln(1−target) / ln(1−p)
    let k = (1.0 - target).ln() / (1.0 - p).ln();
    Some(k.ceil().max(1.0) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// Closed form of Eq. 1 for `n` i.i.d. replicas: the probability that
    /// at least one of `n` independent replicas with per-replica CDF value
    /// `p` responds in time.
    fn at_least_one(p: f64, n: usize) -> f64 {
        1.0 - (1.0 - p.clamp(0.0, 1.0)).powi(n as i32)
    }

    #[test]
    fn erf_reference_values() {
        // Known values to 6 decimals.
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(0.5) - 0.520_500).abs() < 1e-5);
        assert!((erf(1.0) - 0.842_701).abs() < 1e-5);
        assert!((erf(2.0) - 0.995_322).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_701).abs() < 1e-5, "odd function");
        assert!(erf(5.0) > 0.999_999);
    }

    #[test]
    fn normal_cdf_quartiles() {
        let dist = NormalDist::paper_load();
        assert!((dist.cdf(ms(100)) - 0.5).abs() < 1e-6, "median at the mean");
        // ±1σ ≈ 15.87% / 84.13%.
        assert!((dist.cdf(ms(50)) - 0.1587).abs() < 1e-3);
        assert!((dist.cdf(ms(150)) - 0.8413).abs() < 1e-3);
        assert_eq!(dist.mean(), Some(ms(100)));
    }

    #[test]
    fn exponential_cdf() {
        let dist = ExponentialDist { mean: ms(100) };
        assert!((dist.cdf(ms(100)) - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
        assert_eq!(dist.cdf(Duration::ZERO), 0.0);
        assert!(dist.cdf(ms(1_000)) > 0.9999);
    }

    #[test]
    fn at_least_one_matches_combined_probability() {
        for p in [0.0, 0.3, 0.7, 1.0] {
            for n in 0..5 {
                let direct = at_least_one(p, n);
                let via_core = crate::select::combined_probability(&vec![p; n]);
                assert!((direct - via_core).abs() < 1e-12, "p={p} n={n}");
            }
        }
    }

    #[test]
    fn replicas_needed_inverts_at_least_one() {
        for p in [0.1, 0.3, 0.5, 0.9] {
            for target in [0.5, 0.9, 0.99] {
                let k = replicas_needed(p, target).unwrap();
                assert!(at_least_one(p, k as usize) >= target - 1e-12);
                if k > 1 {
                    assert!(at_least_one(p, (k - 1) as usize) < target);
                }
            }
        }
        assert_eq!(replicas_needed(0.0, 0.5), None);
        assert_eq!(replicas_needed(0.5, 0.0), Some(0));
        assert_eq!(replicas_needed(1.0, 0.99), Some(1));
    }

    #[test]
    fn empirical_pmf_converges_to_analytic_normal() {
        // Draw many samples from Normal(100, 20) using a simple
        // Box–Muller (keeping core free of a rand dependency in tests is
        // not needed — rand is a dev-dependency).
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let mut samples = Vec::with_capacity(20_000);
        while samples.len() < 20_000 {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let v = 100.0 + 20.0 * z;
            samples.push(Duration::from_millis_f64(v.max(0.0)));
        }
        let pmf = crate::pmf::Pmf::from_samples(samples, ms(1)).unwrap();
        let dist = NormalDist {
            mean: ms(100),
            std_dev: ms(20),
        };
        for t in (40..=160).step_by(10) {
            let e = pmf.cdf(ms(t));
            // Floor bucketing counts every sample in [t, t+1) as ≤ t, so
            // the empirical CDF at t estimates the true CDF at ~t + ½
            // bucket; compare against that point.
            let a = dist.cdf(Duration::from_millis_f64(t as f64 + 0.5));
            assert!(
                (e - a).abs() < 0.015,
                "empirical {e:.3} vs analytic {a:.3} at {t} ms"
            );
        }
    }
}
