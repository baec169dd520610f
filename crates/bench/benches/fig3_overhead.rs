//! Criterion bench for **Figure 3**: per-request overhead of the selection
//! algorithm (the handler's table builds + Algorithm 1 over them) as a
//! function of the number of replicas and the sliding-window size.

use aqua_bench::synthetic::SyntheticPlanner;
use aqua_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_selection_overhead(c: &mut Criterion) {
    let qos = QosSpec::new(Duration::from_millis(150), 0.9).expect("valid spec");
    let mut group = c.benchmark_group("fig3_selection_overhead");
    for l in [5usize, 10, 20] {
        for n in [2usize, 3, 4, 5, 6, 7, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("window_{l}"), n),
                &(n, l),
                |b, &(n, l)| {
                    let mut planner = SyntheticPlanner::new(n, l, 42, qos);
                    b.iter(|| std::hint::black_box(planner.plan()));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_selection_overhead);
criterion_main!(benches);
