//! Fault-injection plans driven through the *simulated* stack: the same
//! `aqua-faults` schedules the socket runtime executes on the wall clock
//! run here on virtual time, deterministically.

use aqua_core::qos::QosSpec;
use aqua_core::time::{Duration, Instant};
use aqua_obs::Obs;
use aqua_replica::ServiceTimeModel;
use aqua_workload::{
    run_experiment, run_experiment_observed, ClientSpec, ExperimentConfig, FaultPlan, NetworkSpec,
    ServerSpec, StrategySpec,
};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn config(qos: QosSpec, n_servers: usize, requests: u64, seed: u64) -> ExperimentConfig {
    let mut client = ClientSpec::paper(qos);
    client.num_requests = requests;
    client.think_time = ms(200);
    ExperimentConfig {
        seed,
        network: NetworkSpec::paper(),
        servers: (0..n_servers)
            .map(|i| ServerSpec {
                // Replica 0 is distinctly fastest so FastestMean pins to it.
                service: ServiceTimeModel::Deterministic(ms(20 + 20 * i as u64)),
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
fn scheduled_crash_recover_is_masked_and_journalled() {
    let qos = QosSpec::new(ms(250), 0.9).unwrap();
    let mut cfg = config(qos, 4, 30, 13);
    // Replica 1 is down from 2 s to 4 s of virtual time.
    cfg.faults = FaultPlan::new().crash_recover(1, Instant::from_secs(2), Duration::from_secs(2));

    let (obs, reader) = Obs::in_memory();
    let report = run_experiment_observed(&cfg, Some(&obs));
    let client = report.client_under_test();
    assert_eq!(client.records.len(), 30, "the run completed");
    assert!(
        client.failure_probability < 0.2,
        "the crash window is largely masked: {}",
        client.failure_probability
    );

    let faults: Vec<String> = reader.lines_containing(r#""type":"fault""#);
    assert_eq!(
        faults.len(),
        2,
        "one activation + one clearance: {faults:?}"
    );
    assert!(faults[0].contains(r#""phase":"active""#) && faults[0].contains(r#""kind":"crash""#));
    assert!(faults[1].contains(r#""phase":"cleared""#));
    assert!(faults[0].contains(r#""replica":1"#));
    assert!(obs.prometheus().contains("aqua_faults_injected_total"));
}

#[test]
fn paused_selection_is_rescued_by_deadline_retry() {
    // FastestMean k=1 pins every warm selection to replica 0; a pause
    // window stalls it mid-run. With `retry_after` armed, each affected
    // request re-runs Algorithm 1 over the remaining replicas and is
    // answered (late, but answered) instead of riding out the give-up.
    let qos = QosSpec::new(ms(100), 0.0).unwrap();
    let mut cfg = config(qos, 3, 30, 21);
    cfg.clients[0].strategy = StrategySpec::FastestMean { k: 1 };
    cfg.clients[0].retry_after = Some(ms(200));
    // The pause outlasts the 5 s give-up window: without a retry, a
    // request stranded at the paused replica cannot be answered in time.
    cfg.faults = FaultPlan::new().pause(0, Instant::from_secs(3), Duration::from_secs(7));

    let report = run_experiment(&cfg);
    let client = report.client_under_test();
    assert_eq!(client.records.len(), 30, "the run completed");
    assert!(client.stats.retries >= 1, "the pause forced retries");
    assert_eq!(client.stats.gave_up, 0, "every request was answered");
    assert_eq!(
        client.stats.abandoned, client.stats.retries,
        "every retried request has one winner and one superseded attempt"
    );
    assert!(
        client.records.iter().all(|r| r.response_time.is_some()),
        "retries rescued every paused request"
    );
    // Without the retry, the same plan strands requests at the paused
    // replica until the give-up timer.
    let mut no_retry = cfg.clone();
    no_retry.clients[0].retry_after = None;
    let stranded = run_experiment(&no_retry);
    assert!(
        stranded.client_under_test().stats.gave_up >= 1,
        "the pause is long enough to exhaust the give-up window"
    );
}

#[test]
fn network_faults_drop_and_delay_messages() {
    // A one-way partition makes replica 2 unable to send anything for a
    // stretch; its replies vanish and other replicas mask the loss.
    let qos = QosSpec::new(ms(250), 0.9).unwrap();
    let mut cfg = config(qos, 4, 25, 31);
    cfg.faults =
        FaultPlan::new().partition_one_way(2, Instant::from_secs(2), Duration::from_secs(3));
    let report = run_experiment(&cfg);
    let client = report.client_under_test();
    assert_eq!(client.records.len(), 25);
    assert!(
        client.failure_probability < 0.3,
        "partitioned replies are masked by redundancy: {}",
        client.failure_probability
    );

    // A network-wide delay spike slows everything; response times inside
    // the spike window are visibly worse than the calm baseline.
    let calm = run_experiment(&config(qos, 4, 25, 31));
    let mut spiky_cfg = config(qos, 4, 25, 31);
    spiky_cfg.faults =
        FaultPlan::new().delay_spike_all(Instant::from_secs(1), Duration::from_secs(30), 8.0);
    let spiky = run_experiment(&spiky_cfg);
    let calm_mean = calm.client_under_test().mean_latency().unwrap();
    let spiky_mean = spiky.client_under_test().mean_latency().unwrap();
    assert!(
        spiky_mean > calm_mean,
        "8x delay spike must show up in the mean: {calm_mean} vs {spiky_mean}"
    );
}

#[test]
fn fault_plans_are_deterministic_per_seed() {
    let qos = QosSpec::new(ms(200), 0.9).unwrap();
    let build = || {
        let mut cfg = config(qos, 4, 20, 47);
        cfg.clients[0].retry_after = Some(ms(300));
        cfg.faults = FaultPlan::new()
            .crash_recover(1, Instant::from_secs(2), Duration::from_secs(1))
            .degrade(2, Instant::from_secs(1), Duration::from_secs(4), 3.0)
            .drop_messages(3, Instant::from_secs(1), Duration::from_secs(5), 0.3);
        cfg
    };
    let a = run_experiment(&build());
    let b = run_experiment(&build());
    let key = |r: &aqua_workload::ExperimentReport| -> Vec<_> {
        r.client_under_test()
            .records
            .iter()
            .map(|rec| (rec.seq, rec.timely, rec.response_time, rec.redundancy))
            .collect()
    };
    assert_eq!(key(&a), key(&b), "same seed, same fault history");
    assert_eq!(a.messages, b.messages);
}

#[test]
fn degraded_replica_is_deselected_by_the_model() {
    // Replica 0 is the fastest until a 10x degradation makes it the worst;
    // the model-based strategy should shift selections away from it once
    // the window fills with slow samples.
    let qos = QosSpec::new(ms(250), 0.9).unwrap();
    let mut cfg = config(qos, 3, 40, 17);
    cfg.faults = FaultPlan::new().degrade(0, Instant::from_secs(3), Duration::from_secs(60), 10.0);
    let report = run_experiment(&cfg);
    let client = report.client_under_test();
    assert_eq!(client.records.len(), 40);
    assert!(
        client.failure_probability < 0.35,
        "selection routes around the degraded replica: {}",
        client.failure_probability
    );
}
