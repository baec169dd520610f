//! Cache-equivalence property tests: for *any* interleaving of repository
//! mutations and *any* estimator combination, a query answered through the
//! generation-keyed [`ModelCache`] must equal the from-scratch pipeline
//! within 1e-12 (they share one pipeline, so in practice they are
//! bit-identical — the tolerance guards future refactors). Likewise a
//! table built only up to a horizon must equal the full one below it.

use aqua_core::pmf::{ConvScratch, UNBOUNDED};
use aqua_core::prelude::*;
use proptest::prelude::*;

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// One repository mutation, drawn at random.
#[derive(Debug, Clone)]
enum Op {
    Perf {
        replica: u64,
        method: u32,
        service_ms: u64,
        queue_ms: u64,
        outstanding: u32,
    },
    Delay {
        replica: u64,
        delay_ms: u64,
    },
    Remove {
        replica: u64,
    },
    Insert {
        replica: u64,
    },
    Probation {
        replica: u64,
        samples: u32,
    },
}

const POOL: u64 = 4;
const METHODS: u32 = 2;

fn op() -> impl Strategy<Value = Op> {
    op_with(400, 5)
}

/// Ops whose perf reports carry service times below `service_ms` and queue
/// lengths up to `max_outstanding`.
fn op_with(service_ms: u64, max_outstanding: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..POOL, 0..METHODS, 1..service_ms, 0u64..100, 0..=max_outstanding).prop_map(
            |(replica, method, service_ms, queue_ms, outstanding)| Op::Perf {
                replica,
                method,
                service_ms,
                queue_ms,
                outstanding,
            }
        ),
        3 => (0..POOL, 0u64..50).prop_map(|(replica, delay_ms)| Op::Delay { replica, delay_ms }),
        1 => (0..POOL).prop_map(|replica| Op::Remove { replica }),
        2 => (0..POOL).prop_map(|replica| Op::Insert { replica }),
        1 => (0..POOL, 0u32..4).prop_map(|(replica, samples)| Op::Probation { replica, samples }),
    ]
}

fn apply(repo: &mut InfoRepository, op: &Op) {
    match *op {
        Op::Perf {
            replica,
            method,
            service_ms,
            queue_ms,
            outstanding,
        } => {
            let id = ReplicaId::new(replica);
            if repo.contains(id) {
                repo.record_perf(
                    id,
                    PerfReport::new(ms(service_ms), ms(queue_ms), outstanding)
                        .with_method(MethodId::new(method)),
                    Instant::EPOCH,
                );
            }
        }
        Op::Delay { replica, delay_ms } => {
            let id = ReplicaId::new(replica);
            if repo.contains(id) {
                repo.record_gateway_delay(id, ms(delay_ms), Instant::EPOCH);
            }
        }
        Op::Remove { replica } => {
            repo.remove_replica(ReplicaId::new(replica));
        }
        Op::Insert { replica } => {
            repo.insert_replica(ReplicaId::new(replica));
        }
        Op::Probation { replica, samples } => repo.set_probation(ReplicaId::new(replica), samples),
    }
}

/// Every estimator combination the model supports.
fn all_configs() -> Vec<ModelConfig> {
    let mut configs = Vec::new();
    for scope in [MethodScope::PerMethod, MethodScope::Aggregate] {
        for queue in [QueueEstimator::History, QueueEstimator::QueueScaled] {
            for delay in [DelayEstimator::LastValue, DelayEstimator::WindowPmf] {
                configs.push(ModelConfig {
                    method_scope: scope,
                    queue_estimator: queue,
                    delay_estimator: delay,
                    ..ModelConfig::default()
                });
            }
        }
    }
    configs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The heart of the tentpole's correctness argument: one persistent
    /// cache per estimator combination survives an arbitrary interleaving
    /// of `record_perf` / `record_gateway_delay` / `remove_replica` /
    /// probation transitions / re-insertions, and after every operation
    /// agrees with the from-scratch model for every replica, method, and a
    /// spread of deadlines.
    #[test]
    fn cached_cdf_matches_from_scratch_for_all_estimators(
        ops in prop::collection::vec(op(), 1..40),
    ) {
        let configs = all_configs();
        let mut repo = InfoRepository::new(5);
        for i in 0..POOL {
            repo.insert_replica(ReplicaId::new(i));
        }
        let models: Vec<ResponseTimeModel> = configs
            .into_iter()
            .map(ResponseTimeModel::new)
            .collect();
        let mut caches: Vec<ModelCache> = models.iter().map(|_| ModelCache::new()).collect();

        for op in &ops {
            apply(&mut repo, op);
            for (model, cache) in models.iter().zip(caches.iter_mut()) {
                for raw in 0..POOL {
                    let id = ReplicaId::new(raw);
                    let Some(stats) = repo.stats(id) else { continue };
                    for method in [None, Some(MethodId::new(0)), Some(MethodId::new(1))] {
                        for deadline_ms in [0u64, 50, 200, 800, 3_000] {
                            let deadline = ms(deadline_ms);
                            let cached = model.probability_by_cached(
                                cache, id, stats, deadline, method,
                            );
                            let fresh = model.probability_by_for(stats, deadline, method);
                            match (cached, fresh) {
                                (Some(c), Some(f)) => prop_assert!(
                                    (c - f).abs() <= 1e-12,
                                    "cached {c} vs fresh {f} for {id:?} {method:?} @{deadline_ms}ms ({})",
                                    model_label(model),
                                ),
                                (None, None) => {}
                                (c, f) => prop_assert!(
                                    false,
                                    "presence mismatch: cached {c:?} vs fresh {f:?} for {id:?} \
                                     {method:?} @{deadline_ms}ms ({})",
                                    model_label(model),
                                ),
                            }
                        }
                    }
                }
            }
        }

        // The cache must actually be caching: across this many repeat
        // queries at least some hits are expected whenever any window
        // warmed up at all.
        let totals: u64 = caches.iter().map(|c| c.stats().hits + c.stats().misses).sum();
        let hits: u64 = caches.iter().map(|c| c.stats().hits).sum();
        if totals > 0 {
            prop_assert!(hits > 0 || totals < 10, "no hits across {totals} queries");
        }
    }

    /// A table built within a horizon reads, at every bucket up to and
    /// including the horizon's own, what the unbounded pipeline computes
    /// there — for every estimator combination and queue depths up to the
    /// 32-fold cap. Without pruning the two agree bit for bit; with it
    /// they differ by the pruned mass the bounded chain keeps.
    #[test]
    fn table_within_a_horizon_matches_the_full_one_below_it(
        ops in prop::collection::vec(op_with(60, 32), 1..30),
    ) {
        let mut repo = InfoRepository::new(5);
        for i in 0..POOL {
            repo.insert_replica(ReplicaId::new(i));
        }
        let models: Vec<ResponseTimeModel> = all_configs()
            .into_iter()
            .flat_map(|config| [config, ModelConfig { prune_epsilon: 0.0, ..config }])
            .map(ResponseTimeModel::new)
            .collect();
        let mut scratch = ConvScratch::new();

        for op in &ops {
            apply(&mut repo, op);
            let (Op::Perf { replica, .. } | Op::Delay { replica, .. }) = *op else {
                continue;
            };
            let Some(stats) = repo.stats(ReplicaId::new(replica)) else { continue };
            for model in &models {
                let tolerance = if model.config().prune_epsilon == 0.0 { 0.0 } else { 1e-9 };
                for method in [None, Some(MethodId::new(1))] {
                    let full = model
                        .response_pmf_with(stats, method, &mut scratch)
                        .map(|pmf| (pmf.support_min(), pmf.into_cumulative(UNBOUNDED)));
                    for horizon_ms in [0u64, 9, 70, 150, 640] {
                        let bounded =
                            model.response_cdf(stats, method, &mut scratch, Some(ms(horizon_ms)));
                        prop_assert_eq!(bounded.is_some(), full.is_some());
                        let (Some(bounded), Some((starts_at, full))) = (&bounded, &full) else {
                            continue;
                        };
                        prop_assert!(bounded.covers(ms(horizon_ms)));
                        prop_assert!(!bounded.covers(ms(horizon_ms + 1)));
                        for t in 0..=horizon_ms {
                            let (b, f) = (bounded.value_at(ms(t)), full.value_at(ms(t)));
                            prop_assert!(
                                (b - f).abs() <= tolerance,
                                "bounded {b} vs full {f} at {t} ms of {horizon_ms} ms ({})",
                                model_label(model),
                            );
                            // (Pruning may move the full table's start.)
                            if tolerance == 0.0 && *starts_at > ms(horizon_ms) {
                                prop_assert_eq!(b, 0.0, "support starts past the horizon");
                            }
                        }
                    }
                }
            }
        }
    }
}

fn model_label(model: &ResponseTimeModel) -> String {
    format!("{:?}", model.config())
}
