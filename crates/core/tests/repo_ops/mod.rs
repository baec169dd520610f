//! Random repository histories for property tests: a generator of
//! repository mutations ([`Op`]), the function that applies one, and every
//! estimator combination the model supports. Shared by the model's
//! property tests and, through a `#[path]` module, by the handler's.

#![allow(dead_code)]

use aqua_core::prelude::*;
use proptest::prelude::*;

pub fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// One repository mutation, drawn at random.
#[derive(Debug, Clone)]
pub enum Op {
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

pub const POOL: u64 = 4;
pub const METHODS: u32 = 2;

pub fn op() -> impl Strategy<Value = Op> {
    op_with(400, 5)
}

/// Ops whose perf reports carry service times below `service_ms` and queue
/// lengths up to `max_outstanding`.
pub fn op_with(service_ms: u64, max_outstanding: u32) -> impl Strategy<Value = Op> {
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

pub fn apply(repo: &mut InfoRepository, op: &Op) {
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
pub fn all_configs() -> Vec<ModelConfig> {
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
