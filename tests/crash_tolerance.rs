//! Integration tests for crash handling across the stack: silent crashes,
//! view changes, Equation 3 masking, and the give-up path.

use aqua::core::qos::QosSpec;
use aqua::core::time::{Duration, Instant};
use aqua::replica::ServiceTimeModel;
use aqua::workload::{
    run_experiment, ClientSpec, ExperimentConfig, FaultPlan, NetworkSpec, ServerSpec, StrategySpec,
};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// Each `(replica, secs)` pair: that replica crashes at `secs` seconds,
/// for good.
fn crash_forever(crashes: &[(u64, u64)]) -> FaultPlan {
    crashes.iter().fold(FaultPlan::new(), |plan, &(r, secs)| {
        plan.crash_recover(r, Instant::from_secs(secs), Duration::MAX)
    })
}

fn base_config(seed: u64) -> ExperimentConfig {
    let qos = QosSpec::new(ms(250), 0.9).unwrap();
    let mut client = ClientSpec::paper(qos);
    client.num_requests = 40;
    client.think_time = ms(200);
    ExperimentConfig {
        seed,
        network: NetworkSpec::paper(),
        servers: (0..5)
            .map(|_| ServerSpec {
                service: ServiceTimeModel::Normal {
                    mean: ms(70),
                    std_dev: ms(15),
                    min: Duration::ZERO,
                },
                ..ServerSpec::paper()
            })
            .collect(),
        standby_servers: Vec::new(),
        manager: None,
        clients: vec![client],
        faults: FaultPlan::new(),
        max_virtual_time: Duration::from_secs(120),
    }
}

#[test]
fn single_crash_is_masked() {
    let mut config = base_config(11);
    config.faults = crash_forever(&[(0, 4)]);
    let report = run_experiment(&config);
    let c = report.client_under_test();
    assert_eq!(c.records.len(), 40);
    assert!(
        c.failure_probability <= 0.1,
        "Eq. 3: one crash must not break the 0.9 spec: {}",
        c.failure_probability
    );
    assert_eq!(c.stats.gave_up, 0, "the backup always answered");
}

#[test]
fn two_staggered_crashes_are_survived() {
    // The formal guarantee covers one crash per request, but staggered
    // crashes (view change in between) must also be absorbed.
    let mut config = base_config(12);
    config.faults = crash_forever(&[(1, 3), (3, 6)]);
    let report = run_experiment(&config);
    let c = report.client_under_test();
    assert!(
        c.failure_probability <= 0.15,
        "staggered crashes: {}",
        c.failure_probability
    );
}

#[test]
fn crash_after_requests_trigger_views() {
    // Replica 2 crashes for good in the middle of the run.
    let mut config = base_config(13);
    config.faults = crash_forever(&[(2, 5)]);
    let report = run_experiment(&config);
    let c = report.client_under_test();
    assert!(c.failure_probability <= 0.1, "{}", c.failure_probability);
}

#[test]
fn mtbf_crashes_are_deterministic_per_seed() {
    let mk = |seed| {
        let mut config = base_config(seed);
        let horizon = Instant::EPOCH + config.max_virtual_time;
        config.faults = (0..5).fold(FaultPlan::new(), |plan, r| {
            plan.mtbf_crashes(r, Duration::from_secs(60), Duration::MAX, horizon)
        });
        let report = run_experiment(&config);
        let c = report.client_under_test();
        (
            c.records
                .iter()
                .map(|r| (r.seq, r.timely))
                .collect::<Vec<_>>(),
            c.failure_probability,
        )
    };
    assert_eq!(mk(14), mk(14), "same seed, same history");
}

#[test]
fn losing_every_replica_fails_cleanly() {
    let mut config = base_config(15);
    config.faults = crash_forever(&[(0, 3), (1, 3), (2, 3), (3, 3), (4, 3)]);
    let report = run_experiment(&config);
    let c = report.client_under_test();
    let late = c.records.iter().filter(|r| !r.timely).count();
    assert!(
        late > 0,
        "after total loss, requests must fail rather than hang"
    );
    // The run still terminated (the harness did not dead-lock waiting).
    assert!(report.ended_at < Instant::EPOCH + Duration::from_secs(130));
}

#[test]
fn unreplicated_baseline_suffers_from_the_same_crash() {
    // Control for single_crash_is_masked: with k = 1 and no reserve, the
    // crash costs at least the requests in flight.
    let mut masked = base_config(16);
    masked.faults = crash_forever(&[(0, 4)]);
    let mut exposed = masked.clone();
    exposed.clients[0].strategy = StrategySpec::StaticK { k: 1 };

    let masked_report = run_experiment(&masked);
    let exposed_report = run_experiment(&exposed);
    let masked_fail = masked_report.client_under_test().failure_probability;
    let exposed_gave_up = exposed_report.client_under_test().stats.gave_up;
    assert!(masked_fail <= 0.1);
    assert!(
        exposed_gave_up >= 1,
        "static-k=1 on the crashing replica must lose at least the request in flight"
    );
}

#[test]
fn passive_failover_resends_on_the_view_change() {
    // The passive handler of earlier AQuA work: static k = 1 asks the
    // primary (replica 0) alone, and a retry armed far past any live reply
    // resends only when the view change evicts the crashed primary. With
    // 100 ms of service and 10 ms of thought a request is nearly always in
    // flight, so the crash orphans one, whose resend pays the detection
    // silence: past the deadline, yet well before the retry timer.
    let deadline = ms(200);
    let retry_after = Duration::from_secs(1);
    let mut config = base_config(17);
    for s in &mut config.servers {
        s.service = ServiceTimeModel::Deterministic(ms(100));
    }
    config.faults = crash_forever(&[(0, 4)]);
    let client = &mut config.clients[0];
    client.qos = QosSpec::new(deadline, 0.9).unwrap();
    client.think_time = ms(10);
    client.strategy = StrategySpec::StaticK { k: 1 };
    client.retry_after = Some(retry_after);

    let report = run_experiment(&config);
    let c = report.client_under_test();
    assert_eq!(c.records.len(), 40);
    assert_eq!(c.stats.gave_up, 0, "the backup answered the orphan");
    assert_eq!(c.stats.retries, 1, "{:?}", c.stats);
    let resent: Vec<_> = c.records.iter().filter(|r| r.redundancy > 1).collect();
    assert_eq!(resent.len(), 1, "{resent:?}");
    let latency = resent[0].response_time.expect("answered");
    assert!(
        latency > deadline && latency < retry_after,
        "the view change, not the timer, resent it: {latency}"
    );
}
