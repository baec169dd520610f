//! Integration tests for the Proteus-style dependability manager (§2):
//! maintaining the replication level through crashes by activating
//! standbys, end-to-end with a client holding a QoS spec.

use aqua::core::qos::QosSpec;
use aqua::core::time::{Duration, Instant};
use aqua::replica::ServiceTimeModel;
use aqua::workload::{
    run_experiment, ClientSpec, ExperimentConfig, FaultPlan, ManagerSpec, NetworkSpec, ServerSpec,
};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn managed_config(
    crashes: &[(usize, u64)],
    standbys: usize,
    target: usize,
    seed: u64,
) -> ExperimentConfig {
    let qos = QosSpec::new(ms(250), 0.9).unwrap();
    let mut client = ClientSpec::paper(qos);
    client.num_requests = 60;
    client.think_time = ms(250);
    let server = ServerSpec {
        service: ServiceTimeModel::Normal {
            mean: ms(70),
            std_dev: ms(15),
            min: Duration::ZERO,
        },
        ..ServerSpec::paper()
    };
    ExperimentConfig {
        seed,
        network: NetworkSpec::paper(),
        servers: vec![server.clone(); target],
        standby_servers: vec![server; standbys],
        manager: Some(ManagerSpec {
            target_replication: target,
            supervision: None,
        }),
        clients: vec![client],
        faults: crashes.iter().fold(FaultPlan::new(), |plan, &(i, at)| {
            plan.crash_recover(i as u64, Instant::from_secs(at), Duration::MAX)
        }),
        max_virtual_time: Duration::from_secs(120),
    }
}

#[test]
fn managed_pool_survives_serial_crashes() {
    // Three replicas, two crash at 4 s and 8 s; two standbys fill in.
    let config = managed_config(&[(0, 4), (1, 8)], 2, 3, 61);
    let report = run_experiment(&config);
    let c = report.client_under_test();
    assert_eq!(c.records.len(), 60);
    assert!(
        c.failure_probability <= 0.1,
        "managed replication holds the spec through serial crashes: {}",
        c.failure_probability
    );
    // The standby replicas were discovered and used: requests late in the
    // run still select ≥2 replicas.
    let tail = &c.records[c.records.len() - 10..];
    assert!(tail.iter().all(|r| r.redundancy >= 2), "{tail:?}");
}

#[test]
fn unmanaged_pool_shrinks_instead() {
    // The same crashes with no manager: the pool drops to 1 replica and
    // Algorithm 1 can only fall back to "all" (= that single replica).
    let mut config = managed_config(&[(0, 4), (1, 8)], 0, 3, 62);
    config.manager = None;
    let report = run_experiment(&config);
    let c = report.client_under_test();
    let tail = &c.records[c.records.len() - 5..];
    assert!(
        tail.iter().all(|r| r.redundancy == 1),
        "only one replica remains without a manager: {tail:?}"
    );
}

#[test]
fn managed_and_unmanaged_are_both_deterministic() {
    let a = run_experiment(&managed_config(&[(0, 4)], 1, 3, 63));
    let b = run_experiment(&managed_config(&[(0, 4)], 1, 3, 63));
    let ra: Vec<_> = a
        .client_under_test()
        .records
        .iter()
        .map(|r| (r.seq, r.timely, r.redundancy))
        .collect();
    let rb: Vec<_> = b
        .client_under_test()
        .records
        .iter()
        .map(|r| (r.seq, r.timely, r.redundancy))
        .collect();
    assert_eq!(ra, rb);
}
