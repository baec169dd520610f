//! The chaos harness's scenario table (A14): Fig. 5's seven replicas and
//! a retry-armed client under each fault plan of `aqua-faults`.
//! `chaos_experiment` prints one row per [`Scenario`]; the golden
//! projections replay the same table.

use aqua_core::qos::QosSpec;
use aqua_core::time::{Duration, Instant};
use aqua_workload::{ClientSpec, ExperimentConfig, FaultPlan, NetworkSpec, ServerSpec};

/// Requests the client under test issues in every scenario.
pub const REQUESTS: u64 = 50;

/// The paper's seven-replica configuration with a (200 ms, Pc = 0.9)
/// client that retries after 250 ms, under `faults`.
pub fn config(seed: u64, faults: FaultPlan) -> ExperimentConfig {
    let ms = Duration::from_millis;
    let qos = QosSpec::new(ms(200), 0.9).expect("valid spec");
    let mut client = ClientSpec::paper(qos);
    client.num_requests = REQUESTS;
    client.think_time = ms(500);
    client.retry_after = Some(ms(250));
    ExperimentConfig {
        seed,
        network: NetworkSpec::paper(),
        servers: (0..7).map(|_| ServerSpec::paper()).collect(),
        standby_servers: Vec::new(),
        manager: None,
        clients: vec![client],
        faults,
        max_virtual_time: Duration::from_secs(120),
    }
}

/// One chaos scenario: a fault plan plus the failure-probability ceiling
/// `chaos_experiment --check` enforces.
pub struct Scenario {
    /// The row label.
    pub label: &'static str,
    /// The faults injected.
    pub faults: FaultPlan,
    /// The highest timing-failure probability `--check` accepts.
    pub budget: f64,
}

/// The five scenarios, the fault-free baseline first.
pub fn scenarios() -> Vec<Scenario> {
    let at = Instant::from_secs;
    vec![
        Scenario {
            label: "baseline (no faults)",
            faults: FaultPlan::new(),
            budget: 0.20,
        },
        Scenario {
            label: "crash-recover r0 [5 s, 15 s)",
            faults: FaultPlan::new().crash_recover(0, at(5), Duration::from_secs(10)),
            budget: 0.30,
        },
        Scenario {
            label: "pause r1 [5 s, 12 s)",
            faults: FaultPlan::new().pause(1, at(5), Duration::from_secs(7)),
            budget: 0.30,
        },
        Scenario {
            label: "delay spike 4x [5 s, 15 s)",
            faults: FaultPlan::new().delay_spike_all(at(5), Duration::from_secs(10), 4.0),
            budget: 0.40,
        },
        Scenario {
            label: "drop 30% at r2 [5 s, 20 s)",
            faults: FaultPlan::new().drop_messages(2, at(5), Duration::from_secs(15), 0.3),
            budget: 0.30,
        },
    ]
}
