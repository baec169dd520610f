//! A self-healing replicated service: the Proteus-style dependability
//! manager (§2) keeps the replication level at 3 through a cascade of
//! crashes, while a time-critical client holds its QoS spec throughout.
//!
//! Run with: `cargo run --example managed_cluster`

use aqua::core::qos::QosSpec;
use aqua::core::time::{Duration, Instant};
use aqua::prelude::*;
use aqua::workload::{ClientSpec, ManagerSpec, NetworkSpec, ServerSpec};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn scenario(managed: bool) -> ExperimentConfig {
    let server = |mean: u64, crash: CrashPlan| ServerSpec {
        service: ServiceTimeModel::Normal {
            mean: ms(mean),
            std_dev: ms(mean / 4),
            min: Duration::ZERO,
        },
        crash,
        ..ServerSpec::paper()
    };
    let mut client = ClientSpec::paper(QosSpec::new(ms(250), 0.9).expect("valid"));
    client.num_requests = 100;
    client.think_time = ms(250);

    ExperimentConfig {
        seed: 2026,
        network: NetworkSpec::paper(),
        // Two fast replicas die in sequence, stranding the slow one.
        servers: vec![
            server(70, CrashPlan::AtTime(Instant::from_secs(5))),
            server(70, CrashPlan::AtTime(Instant::from_secs(12))),
            server(230, CrashPlan::Never),
        ],
        standby_servers: if managed {
            vec![server(70, CrashPlan::Never), server(70, CrashPlan::Never)]
        } else {
            Vec::new()
        },
        manager: managed.then_some(ManagerSpec {
            target_replication: 3,
            supervision: None,
        }),
        clients: vec![client],
        faults: aqua::workload::FaultPlan::new(),
        max_virtual_time: Duration::from_secs(120),
    }
}

fn main() {
    println!("a 3-replica service loses its two fast replicas at t=5s and");
    println!("t=12s, stranding a slow straggler (230 ms vs a 250 ms deadline).");
    println!("client spec: 250 ms with Pc ≥ 0.9 over 100 requests.\n");

    for managed in [false, true] {
        let report = run_experiment(&scenario(managed));
        let c = report.client_under_test();
        let phase = |lo: usize, hi: usize| {
            let slice = &c.records[lo..hi.min(c.records.len())];
            let fails = slice.iter().filter(|r| !r.timely).count();
            let red: f64 =
                slice.iter().map(|r| r.redundancy).sum::<usize>() as f64 / slice.len() as f64;
            (fails, red)
        };
        let (early_f, early_r) = phase(0, 20);
        let (late_f, late_r) = phase(60, 100);
        println!(
            "{}:",
            if managed {
                "WITH dependability manager (2 standbys)"
            } else {
                "WITHOUT manager"
            }
        );
        println!(
            "  overall P(timing failure) = {:.3} (budget 0.10) → {}",
            c.failure_probability,
            if c.failure_probability <= 0.1 {
                "spec held ✓"
            } else {
                "spec VIOLATED ✗"
            }
        );
        println!("  early phase: {early_f} failures, {early_r:.1} replicas/request");
        println!("  late phase : {late_f} failures, {late_r:.1} replicas/request\n");
    }
    println!("the selection algorithm is only as good as its pool: Proteus");
    println!("keeps the pool healthy, Algorithm 1 spends it wisely.");
}
