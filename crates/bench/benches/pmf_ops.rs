//! Criterion bench for the pmf algebra underlying the model: relative-
//! frequency estimation, convolution (the ~90% of Figure 3's overhead),
//! and CDF evaluation.

use aqua_core::pmf::{ConvScratch, Pmf, UNBOUNDED};
use aqua_core::time::Duration;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn samples(n: usize, spread_ms: u64, seed: u64) -> Vec<Duration> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Duration::from_millis(100 + rng.gen_range(0..spread_ms.max(1))))
        .collect()
}

fn bench_from_samples(c: &mut Criterion) {
    let mut group = c.benchmark_group("pmf_from_samples");
    for n in [5usize, 20, 100] {
        let data = samples(n, 150, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &data, |b, data| {
            b.iter(|| {
                Pmf::from_samples(data.iter().copied(), Duration::from_millis(1))
                    .expect("non-empty")
            });
        });
    }
    group.finish();
}

fn bench_convolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("pmf_convolve");
    for spread in [20u64, 100, 300] {
        let a = Pmf::from_samples(samples(20, spread, 2), Duration::from_millis(1)).unwrap();
        let b_pmf = Pmf::from_samples(samples(20, spread, 3), Duration::from_millis(1)).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("spread_{spread}ms")),
            &(a, b_pmf),
            |bench, (a, b_pmf)| {
                bench.iter(|| a.convolve(b_pmf).expect("same bucket width"));
            },
        );
    }
    group.finish();
}

fn bench_cdf(c: &mut Criterion) {
    let pmf = Pmf::from_samples(samples(20, 300, 4), Duration::from_millis(1)).unwrap();
    c.bench_function("pmf_cdf", |b| {
        b.iter(|| std::hint::black_box(pmf.cdf(Duration::from_millis(180))));
    });
}

/// The cache's steady-state lookup: a prefix-sum table built once, then
/// O(1) point lookups — versus the per-query prefix sum of `Pmf::cdf`.
fn bench_cached_cdf(c: &mut Criterion) {
    let pmf = Pmf::from_samples(samples(20, 300, 4), Duration::from_millis(1)).unwrap();
    let table = pmf.clone().into_cumulative(UNBOUNDED);
    c.bench_function("pmf_cached_cdf_lookup", |b| {
        b.iter(|| std::hint::black_box(table.value_at(Duration::from_millis(180))));
    });
    c.bench_function("pmf_cumulative_build", |b| {
        b.iter(|| std::hint::black_box(pmf.clone().into_cumulative(UNBOUNDED)));
    });
}

/// The q-fold QueueScaled convolution: exponentiation-by-squaring with
/// reused scratch versus the sequential fold it replaced.
fn bench_q_fold_convolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("pmf_q_fold");
    let service = Pmf::from_samples(samples(20, 100, 5), Duration::from_millis(1)).unwrap();
    for q in [4u32, 16, 32] {
        group.bench_with_input(
            BenchmarkId::new("self_convolve", q),
            &service,
            |bench, service| {
                let mut scratch = ConvScratch::new();
                bench.iter(|| service.self_convolve(q, 1e-12, &mut scratch));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sequential", q),
            &service,
            |bench, service| {
                bench.iter(|| {
                    let mut wait = Pmf::point(Duration::ZERO, Duration::from_millis(1)).unwrap();
                    for _ in 0..q {
                        wait = wait.convolve(service).unwrap();
                    }
                    wait
                });
            },
        );
    }
    group.finish();
}

/// The publish path at `l` = 100: full windows leave few empty buckets, so
/// the convolution kernel runs dense, and a view's tables are built only
/// up to its deadline (150 ms here) instead of over the whole support.
fn bench_publish_path(c: &mut Criterion) {
    let bucket = Duration::from_millis(1);
    let mut group = c.benchmark_group("pmf_l100");
    let service = Pmf::from_samples(samples(100, 40, 6), bucket).unwrap();
    let queuing = Pmf::from_samples(samples(100, 40, 7), bucket).unwrap();
    group.bench_function(BenchmarkId::from_parameter("convolve_dense"), |bench| {
        bench.iter(|| service.convolve(&queuing).expect("same bucket width"));
    });
    // The q-fold wait of a 30–70 ms service time, as `gateway_churn` draws.
    let service = Pmf::from_samples(
        samples(100, 40, 8)
            .into_iter()
            .map(|d| d.saturating_sub(Duration::from_millis(70))),
        bucket,
    )
    .unwrap();
    for q in [4u32, 16, 32] {
        for (name, bound) in [("q_fold_unbounded", UNBOUNDED), ("q_fold_to_150ms", 150)] {
            group.bench_with_input(BenchmarkId::new(name, q), &service, |bench, service| {
                let mut scratch = ConvScratch::new();
                bench.iter(|| service.self_convolve_within(q, 1e-12, &mut scratch, bound));
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_from_samples,
    bench_convolve,
    bench_cdf,
    bench_cached_cdf,
    bench_q_fold_convolution,
    bench_publish_path
);
criterion_main!(benches);
