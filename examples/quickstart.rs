//! Quickstart: the paper's algorithm in three acts.
//!
//! 1. Run Algorithm 1 by hand on a set of per-replica probabilities.
//! 2. Let the full model (pmf convolution over measured history) produce
//!    those probabilities.
//! 3. Run a complete simulated cluster and watch the handler adapt.
//!
//! Run with: `cargo run --example quickstart`

use aqua::prelude::*;
use aqua_core::snapshot::method_slot;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ms = Duration::from_millis;

    // ---- Act 1: Algorithm 1 in isolation -------------------------------
    println!("== Act 1: Algorithm 1 on known probabilities ==");
    let candidates: Vec<Candidate> = [0.97f64, 0.9, 0.62, 0.4, 0.1]
        .iter()
        .enumerate()
        .map(|(i, p)| Candidate::new(ReplicaId::new(i as u64), *p))
        .collect();
    for pc in [0.0, 0.5, 0.9, 0.999] {
        let s = select_replicas(&candidates, pc);
        println!(
            "  Pc = {pc:<5} → {} (crash-tolerant probability {:.3})",
            s,
            s.crash_tolerant_probability()
        );
    }

    // ---- Act 2: probabilities from measured history --------------------
    println!("\n== Act 2: the response-time model over measurements ==");
    // The timing fault handler with the paper's model and window l = 5.
    let qos = QosSpec::new(ms(150), 0.9)?;
    let mut handler = ConcurrentHandler::new(qos, 5, Box::new(ModelBased::default()));
    // Three replicas: fast-and-steady, fast-but-queued, slow.
    let profiles: [(&str, u64, u64); 3] = [("fast", 40, 0), ("queued", 40, 120), ("slow", 170, 0)];
    {
        let mut repository = handler.repository_mut();
        for (i, (_, service, queue)) in profiles.iter().enumerate() {
            let id = ReplicaId::new(i as u64);
            repository.insert_replica(id);
            for k in 0..5u64 {
                let report = PerfReport::new(ms(service + 5 * k), ms(*queue), 1);
                repository.record_perf(id, report, Instant::EPOCH);
            }
            repository.record_gateway_delay(id, ms(3), Instant::EPOCH);
        }
    }
    let plan = handler.plan_request(Instant::EPOCH);
    // The tables the plan read, published with the view.
    let view = handler.planning_view();
    let slot = method_slot(MethodScope::PerMethod, None);
    for (i, (name, ..)) in profiles.iter().enumerate() {
        let f = view.probability_by(ReplicaId::new(i as u64), slot, qos.deadline());
        println!(
            "  F_R({name})({}) = {:.3}",
            qos.deadline(),
            f.unwrap_or(f64::NAN)
        );
    }
    let selected: Vec<&str> = plan
        .replicas
        .iter()
        .map(|r| profiles[r.index() as usize].0)
        .collect();
    println!("  selected: {}", selected.join(", "));

    // ---- Act 3: a live simulated cluster --------------------------------
    println!("\n== Act 3: a simulated 5-replica cluster, 20 requests ==");
    let mut config = ExperimentConfig::paper(QosSpec::new(ms(140), 0.9)?, 7);
    config.servers.truncate(5);
    for c in &mut config.clients {
        c.num_requests = 20;
        c.think_time = ms(200);
    }
    let report = run_experiment(&config);
    let client = report.client_under_test();
    println!(
        "  {} requests, mean redundancy {:.2}, observed P(timing failure) {:.2}",
        client.records.len(),
        client.mean_redundancy(),
        client.failure_probability
    );
    println!(
        "  median latency {:.1} ms over {} network messages",
        client
            .latency_quantile(0.5)
            .map(|d| d.as_millis_f64())
            .unwrap_or(f64::NAN),
        report.messages
    );
    assert!(
        client.failure_probability <= 0.1 + 1e-9,
        "the Pc = 0.9 budget held"
    );
    println!("  ✓ the QoS budget held");
    Ok(())
}
