//! Reproducibility guarantees: identical seeds replay identical histories
//! through every layer of the simulated stack, including congested
//! networks, load processes, and crash windows drawn from the seed.

use aqua::core::qos::QosSpec;
use aqua::core::time::{Duration, Instant};
use aqua::replica::{LoadModel, ServiceTimeModel};
use aqua::workload::{
    run_experiment, ClientSpec, ExperimentConfig, FaultPlan, NetworkSpec, ServerSpec,
};
use lan_sim::UniformLan;

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn chaotic_config(seed: u64) -> ExperimentConfig {
    // Every stochastic element at once: noisy service, bursty load, MTBF
    // crashes, congested network, two clients.
    let servers = (0..5)
        .map(|i| ServerSpec {
            service: ServiceTimeModel::LogNormal {
                median: ms(60 + 10 * i as u64),
                sigma: 0.6,
            },
            method_services: Vec::new(),
            load: LoadModel::bursty(Duration::from_secs(3), Duration::from_secs(1), 4.0),
        })
        .collect();
    let mut c1 = ClientSpec::paper(QosSpec::new(ms(200), 0.9).unwrap());
    c1.num_requests = 30;
    c1.think_time = ms(150);
    let mut c2 = ClientSpec::paper(QosSpec::new(ms(120), 0.5).unwrap());
    c2.num_requests = 30;
    c2.think_time = ms(100);
    ExperimentConfig {
        seed,
        network: NetworkSpec::Congested {
            lan: UniformLan::aqua_testbed(),
            spike_prob: 0.01,
            spike_scale: 10.0,
            spike_duration: ms(300),
        },
        servers,
        standby_servers: Vec::new(),
        manager: None,
        clients: vec![c1, c2],
        // MTBF crashes, each for good.
        faults: (0..5).fold(FaultPlan::new(), |plan, r| {
            plan.mtbf_crashes(
                r,
                Duration::from_secs(90),
                Duration::MAX,
                Instant::from_secs(60),
            )
        }),
        max_virtual_time: Duration::from_secs(60),
    }
}

type History = Vec<Vec<(u64, bool, usize, Option<u64>)>>;

fn history(seed: u64) -> History {
    let report = run_experiment(&chaotic_config(seed));
    report
        .clients
        .iter()
        .map(|c| {
            c.records
                .iter()
                .map(|r| {
                    (
                        r.seq,
                        r.timely,
                        r.redundancy,
                        r.response_time.map(|d| d.as_nanos()),
                    )
                })
                .collect()
        })
        .collect()
}

#[test]
fn identical_seeds_replay_identically() {
    assert_eq!(history(1234), history(1234));
}

#[test]
fn different_seeds_diverge() {
    assert_ne!(
        history(1),
        history(2),
        "with this much randomness, different seeds must differ"
    );
}

#[test]
fn message_and_event_counts_are_reproducible() {
    let a = run_experiment(&chaotic_config(77));
    let b = run_experiment(&chaotic_config(77));
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.events, b.events);
    assert_eq!(a.ended_at, b.ended_at);
}
