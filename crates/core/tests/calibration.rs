//! Calibration of the model against closed forms (§5.3.1).
//!
//! With one client, no queuing (`W = 0`) and no gateway delay (`T = 0`),
//! `F_R` is the service-time distribution itself. Feed `l` draws from a
//! distribution with a known CDF `F` into the repository, then read the
//! model's `F̂(t)` the way the planners do.
//!
//! - `F̂(t)` is the empirical CDF `F_l` of the draws at bucket resolution:
//!   with `u` the upper edge of `t`'s bucket, `F̂(t) = F_l(u⁻)` exactly.
//! - Dvoretzky–Kiefer–Wolfowitz: `P(sup|F_l − F| > ε) ≤ 2·exp(−2lε²)`.
//!   At `1e-6` that gives `ε(l) = √(ln(2·10⁶) / 2l)`.
//! - Hence `|F̂(t) − F(t)| ≤ ε(l) + (F(u) − F(t))`: the DKW bound plus one
//!   bucket's mass.
//!
//! At `l = 5` the bound is above 1 and only the exact check bites; at
//! `l = 100` it is 0.27.

use aqua_core::analytic::{replicas_needed, AnalyticDistribution, ExponentialDist, NormalDist};
use aqua_core::model::{ModelConfig, ResponseTimeModel};
use aqua_core::qos::ReplicaId;
use aqua_core::repository::{InfoRepository, PerfReport};
use aqua_core::scheduler::{plan, SelectorConfig};
use aqua_core::time::{Duration, Instant};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const WINDOWS: [usize; 3] = [5, 20, 100];
const SEEDS: std::ops::Range<u64> = 1..21;

/// `ε(l)` from the DKW inequality at confidence `1 − 1e-6`.
fn dkw_epsilon(l: usize) -> f64 {
    ((2.0 / 1e-6_f64).ln() / (2.0 * l as f64)).sqrt()
}

fn normal_draw(dist: &NormalDist, rng: &mut SmallRng) -> Duration {
    // Box–Muller, clamped at zero like the simulated servers.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    let secs = dist.mean.as_secs_f64() + dist.std_dev.as_secs_f64() * z;
    Duration::from_secs_f64(secs.max(0.0))
}

fn exponential_draw(dist: &ExponentialDist, rng: &mut SmallRng) -> Duration {
    let u: f64 = rng.gen_range(0.0..1.0);
    Duration::from_secs_f64(-dist.mean.as_secs_f64() * (1.0 - u).ln())
}

/// `replicas` replicas, each fed `draws` into a window of `draws.len()`
/// with `W = T = 0`.
fn repository(draws: &[Duration], replicas: u64) -> InfoRepository {
    let mut repo = InfoRepository::new(draws.len());
    for id in 0..replicas {
        let r = ReplicaId::new(id);
        repo.insert_replica(r);
        for &service in draws {
            repo.record_perf(
                r,
                PerfReport::new(service, Duration::ZERO, 0),
                Instant::EPOCH,
            );
        }
        repo.record_gateway_delay(r, Duration::ZERO, Instant::EPOCH);
    }
    repo
}

/// Feeds `draws` into a window of `draws.len()` with `W = T = 0` and checks
/// `F̂` at every `t` of `grid` against the draws and against `dist`.
fn check(dist: &dyn AnalyticDistribution, draws: &[Duration], grid: &[Duration], label: &str) {
    let l = draws.len();
    let repo = repository(draws, 1);
    let stats = repo.stats(ReplicaId::new(0)).unwrap();
    let config = ModelConfig::default();
    let model = ResponseTimeModel::new(config);
    let bucket = config.bucket.as_nanos();
    let epsilon = dkw_epsilon(l);
    for &t in grid {
        let estimate = model.probability_by(stats, t).unwrap();
        let within = draws
            .iter()
            .filter(|d| d.as_nanos() / bucket <= t.as_nanos() / bucket)
            .count();
        let empirical = within as f64 / l as f64;
        assert!(
            (estimate - empirical).abs() < 1e-12,
            "{label}: F̂({t}) = {estimate}, but {within} of {l} draws fall in its buckets"
        );
        let upper = Duration::from_nanos((t.as_nanos() / bucket + 1) * bucket);
        let allowance = epsilon + (dist.cdf(upper) - dist.cdf(t));
        let error = (estimate - dist.cdf(t)).abs();
        assert!(
            error <= allowance,
            "{label}: |F̂({t}) − F({t})| = {error:.4} > ε({l}) + one bucket = {allowance:.4}"
        );
    }
}

#[test]
fn the_model_is_calibrated_on_normal_service() {
    let dist = NormalDist::paper_load();
    let grid: Vec<Duration> = (0..=240).step_by(15).map(Duration::from_millis).collect();
    for l in WINDOWS {
        for seed in SEEDS {
            let mut rng = SmallRng::seed_from_u64(seed);
            let draws: Vec<Duration> = (0..l).map(|_| normal_draw(&dist, &mut rng)).collect();
            check(&dist, &draws, &grid, &format!("normal l={l} seed={seed}"));
        }
    }
}

#[test]
fn the_model_is_calibrated_on_exponential_service() {
    let dist = ExponentialDist {
        mean: Duration::from_millis(100),
    };
    let grid: Vec<Duration> = [1, 10, 25, 50, 100, 150, 200, 300, 450]
        .into_iter()
        .map(Duration::from_millis)
        .collect();
    for l in WINDOWS {
        for seed in SEEDS {
            let mut rng = SmallRng::seed_from_u64(seed);
            let draws: Vec<Duration> = (0..l).map(|_| exponential_draw(&dist, &mut rng)).collect();
            check(
                &dist,
                &draws,
                &grid,
                &format!("exponential l={l} seed={seed}"),
            );
        }
    }
}

/// `|K|` for `n` i.i.d. replicas that each meet the deadline with
/// probability `p`: the closed-form `k` with `1 − (1 − p)^k ≥ Pc` plus the
/// reserved `m0`, or `None` (the fallback to all `n`) when `k` does not
/// fit beside it.
fn closed_form_size(p: f64, pc: f64, n: usize) -> Option<usize> {
    let k = replicas_needed(p, pc)?.max(1) as usize;
    (k < n).then_some(k + 1)
}

/// The `|K|` half of the calibration: seven replicas share one window of
/// `l` = 100 quantile-spaced exponential draws `F⁻¹((i + ½)/l)`, whose
/// empirical CDF is within `1/(2l)` of `F` everywhere. Planning at every
/// `(t, Pc)` of a grid must select
///
/// - (a) exactly the closed-form size at the model's `F̂(t)`, and
/// - (b) a size between the closed forms at `F(t) ± (1/(2l) + one
///   bucket's mass)`, the band `F̂(t)` lies in.
#[test]
fn selection_size_matches_the_closed_form_on_exponential_service() {
    const L: usize = 100;
    const REPLICAS: usize = 7;
    let dist = ExponentialDist {
        mean: Duration::from_millis(100),
    };
    let draws: Vec<Duration> = (0..L)
        .map(|i| {
            let u = (i as f64 + 0.5) / L as f64;
            Duration::from_secs_f64(-dist.mean.as_secs_f64() * (1.0 - u).ln())
        })
        .collect();
    let repo = repository(&draws, REPLICAS as u64);
    let stats = repo.stats(ReplicaId::new(0)).unwrap();
    let config = SelectorConfig::default();
    let model = ResponseTimeModel::new(config.model);
    let bucket = config.model.bucket.as_nanos();
    let grid = [1, 5, 10, 25, 50, 75, 100, 150, 200, 300, 450, 600];
    for t in grid.into_iter().map(Duration::from_millis) {
        for pc in [0.0, 0.5, 0.9, 0.99] {
            let plan = plan(&config, pc, repo.iter(), |_, stats| {
                model.probability_by(stats, t)
            });
            let size = plan.selection.redundancy();
            let estimate = model.probability_by(stats, t).unwrap();
            let expected = match closed_form_size(estimate, pc, REPLICAS) {
                Some(size) => (false, size),
                None => (true, REPLICAS),
            };
            assert_eq!(
                (plan.selection.is_fallback_all(), size),
                expected,
                "t={t} Pc={pc}: F̂ = {estimate}; (fallback, |K|)"
            );

            let f = dist.cdf(t);
            let upper = Duration::from_nanos((t.as_nanos() / bucket + 1) * bucket);
            let allowance = 1.0 / (2 * L) as f64 + (dist.cdf(upper) - f);
            let size_at = |p: f64| closed_form_size(p, pc, REPLICAS).unwrap_or(REPLICAS);
            let fewest = size_at(f + allowance);
            let most = size_at(f - allowance);
            assert!(
                (fewest..=most).contains(&size),
                "t={t} Pc={pc}: {size} replicas outside the closed forms' {fewest}..={most} at F = {f:.4} ± {allowance:.4}"
            );
        }
    }
}
