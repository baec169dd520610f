//! Criterion bench for the pmf algebra underlying the model: relative-
//! frequency estimation, convolution (the ~90% of Figure 3's overhead),
//! CDF evaluation, and the point-query table a publish builds.

use aqua_core::model::{ModelConfig, QueueEstimator, ResponseTimeModel};
use aqua_core::pmf::{ConvScratch, Pmf};
use aqua_core::qos::ReplicaId;
use aqua_core::repository::{InfoRepository, PerfReport};
use aqua_core::time::{Duration, Instant};
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
/// the convolution kernel runs dense.
fn bench_publish_path(c: &mut Criterion) {
    let bucket = Duration::from_millis(1);
    let mut group = c.benchmark_group("pmf_l100");
    let service = Pmf::from_samples(samples(100, 40, 6), bucket).unwrap();
    let queuing = Pmf::from_samples(samples(100, 40, 7), bucket).unwrap();
    group.bench_function(BenchmarkId::from_parameter("convolve_dense"), |bench| {
        bench.iter(|| service.convolve(&queuing).expect("same bucket width"));
    });
    group.finish();
}

/// A publish's unit of work as `gateway_churn` runs it: one replica's
/// point-query table, `QueueScaled` over a full `l` = 100 window of
/// 30–70 ms service times behind a queue of `q`, built up to a 150 ms
/// deadline — fresh, and for `q` 2–4 refreshed from the table it replaces
/// after one pushed sample — and one read of it at the bucket its memo
/// holds (a warm plan's read) and at one it does not (the first read, or
/// a replay's).
fn bench_table_build(c: &mut Criterion) {
    let deadline = Duration::from_millis(150);
    let model = ResponseTimeModel::new(ModelConfig {
        queue_estimator: QueueEstimator::QueueScaled,
        ..ModelConfig::default()
    });
    let mut group = c.benchmark_group("table_l100");
    for q in 0..=4u32 {
        let id = ReplicaId::new(0);
        let mut repo = InfoRepository::new(100);
        repo.insert_replica(id);
        for service in samples(100, 40, 8) {
            let service = service.saturating_sub(Duration::from_millis(70));
            repo.record_perf(
                id,
                PerfReport::new(service, Duration::ZERO, q),
                Instant::EPOCH,
            );
        }
        repo.record_gateway_delay(id, Duration::from_millis(2), Instant::EPOCH);
        let stats = repo.stats(id).expect("inserted");
        let mut scratch = ConvScratch::new();
        group.bench_with_input(BenchmarkId::new("build_to_150ms", q), &q, |bench, _| {
            bench.iter(|| model.response_cdf(stats, None, &mut scratch, Some(deadline)));
        });
        let table = model
            .response_cdf(stats, None, &mut scratch, Some(deadline))
            .expect("warm replica");
        if q >= 2 {
            let mut pushed = repo.clone();
            let sample = PerfReport::new(Duration::from_millis(41), Duration::ZERO, q);
            pushed.record_perf(id, sample, Instant::EPOCH);
            let stats = pushed.stats(id).expect("inserted");
            group.bench_function(
                BenchmarkId::from_parameter(format!("refresh_q{q}")),
                |bench| {
                    bench.iter(|| {
                        model.response_cdf_from(
                            Some(&table),
                            stats,
                            None,
                            &mut scratch,
                            Some(deadline),
                        )
                    });
                },
            );
        }
        // Plans read `t − δ`: the memo holds that bucket, not `t`'s.
        let planned = deadline.saturating_sub(Duration::from_micros(5));
        table.value_at(planned);
        group.bench_with_input(BenchmarkId::new("value_at_memo_hit", q), &q, |bench, _| {
            bench.iter(|| std::hint::black_box(table.value_at(planned)));
        });
        group.bench_with_input(BenchmarkId::new("value_at_memo_miss", q), &q, |bench, _| {
            bench.iter(|| std::hint::black_box(table.value_at(deadline)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_from_samples,
    bench_convolve,
    bench_cdf,
    bench_q_fold_convolution,
    bench_publish_path,
    bench_table_build
);
criterion_main!(benches);
