//! **Supervisor soak** — the elastic dependability supervisor under
//! sustained stress.
//!
//! Three scenarios, one journal each, drive every loop of the supervisor
//! (see DESIGN.md §14):
//!
//! 1. **overload back-off** — an open-loop Poisson stream overwhelms four
//!    replicas; fleet queues stay deep, so the supervisor walks the
//!    effective replication target down to the floor and drains the
//!    surplus replicas back into the standby pool (Poloczek & Ciucu:
//!    under overload every extra copy of a request is more queued work).
//! 2. **sick-replica rolling restart** — a light closed loop first lets
//!    the target grow to the ceiling (underload), then one replica
//!    degrades 4×; the clients' per-replica calibration drifts, alerts
//!    reach the manager, and the replica is quarantined: drained
//!    gracefully, rested, returned to the pool, and re-activated into the
//!    deficit it left — rejoining through the clients' probation.
//! 3. **correlated-failure escalation** — three of four replicas degrade
//!    inside one correlation window; restarting members one by one would
//!    just thin the fleet, so the supervisor escalates: it journals the
//!    `escalation` and directs clients to renegotiate `Pc` downward and
//!    shed load.
//!
//! Usage: `supervisor_soak [--seed N] [--check]`
//!
//! * `--seed N` — run a single reproducible history (default 11).
//! * `--check` — CI soak mode: exit non-zero unless every scenario
//!   completes all requests, stays inside its intervention-count budget,
//!   and its journal replays with **zero un-callbacked deadline misses**
//!   (the same invariants `aqua_forensics --check` enforces).
//!
//! Journals land under `AQUA_OBS` (default `target/supervisor-obs`), one
//! sub-directory per scenario, each independently replayable with
//! `aqua_forensics` (see EXPERIMENTS.md § Supervisor soak).

use aqua_core::model::ModelConfig;
use aqua_core::qos::QosSpec;
use aqua_core::time::{Duration, Instant};
use aqua_gateway::{ArrivalModel, CalibrationConfig, SupervisionConfig, SupervisorConfig};
use aqua_replica::ServiceTimeModel;
use aqua_trace::forensics::analyze;
use aqua_trace::replay::read_journal;
use aqua_workload::{
    run_experiment_observed, ClientSpec, ExperimentConfig, FaultPlan, ManagerSpec, NetworkSpec,
    ServerSpec, StrategySpec,
};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// A server with Normal(`mean_ms`, σ`mean_ms`/5) service time.
fn normal_server(mean_ms: u64) -> ServerSpec {
    ServerSpec {
        service: ServiceTimeModel::Normal {
            mean: ms(mean_ms),
            std_dev: ms(mean_ms / 5),
            min: Duration::ZERO,
        },
        ..ServerSpec::paper()
    }
}

/// Per-replica calibration tuned to drift fast enough for a soak run:
/// small rolling windows, replica-scoped alerts on.
fn soak_calibration() -> CalibrationConfig {
    CalibrationConfig {
        // Per-replica windows only gain samples on missed requests (a
        // delivered request retires the attempt before stragglers are
        // scored), so the thresholds sit low to alert within a soak
        // scenario's fault window.
        min_samples: 6,
        window: 24,
        cooldown: 2,
        replica_alerts: true,
    }
}

/// Supervisor counters scraped from the run's metric registry.
#[derive(Debug, Default)]
struct Interventions {
    activations: u64,
    pool_exhausted: u64,
    shrink_drains: u64,
    quarantine_drains: u64,
    overload_steps: u64,
    underload_steps: u64,
    quarantines: u64,
    escalations: u64,
}

/// Sums every sample of `name` (across label sets) in a Prometheus
/// rendering, optionally keeping only series whose labels contain `sel`.
fn scrape(prom: &str, name: &str, sel: Option<&str>) -> u64 {
    prom.lines()
        .filter(|l| {
            let Some(rest) = l.strip_prefix(name) else {
                return false;
            };
            if !(rest.starts_with(' ') || rest.starts_with('{')) {
                return false;
            }
            sel.is_none_or(|sel| rest.contains(sel))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .map(|v| v as u64)
        .sum()
}

impl Interventions {
    fn scrape(prom: &str) -> Self {
        Interventions {
            activations: scrape(prom, "aqua_manager_activations_total", None),
            pool_exhausted: scrape(prom, "aqua_manager_pool_exhausted_total", None),
            shrink_drains: scrape(
                prom,
                "aqua_supervisor_drains_total",
                Some("action=\"shrink\""),
            ),
            quarantine_drains: scrape(
                prom,
                "aqua_supervisor_drains_total",
                Some("action=\"quarantine\""),
            ),
            overload_steps: scrape(
                prom,
                "aqua_supervisor_target_changes_total",
                Some("reason=\"overload\""),
            ),
            underload_steps: scrape(
                prom,
                "aqua_supervisor_target_changes_total",
                Some("reason=\"underload\""),
            ),
            quarantines: scrape(prom, "aqua_supervisor_quarantines_total", None),
            escalations: scrape(prom, "aqua_supervisor_escalations_total", None),
        }
    }
}

struct Scenario {
    label: &'static str,
    config: ExperimentConfig,
    requests: u64,
    /// Intervention-count budget; returns violation messages.
    budget: fn(&Interventions) -> Vec<String>,
}

/// 1. Overload back-off: Poisson arrivals every 30 ms against four
///    deterministic 120 ms replicas — far past the fleet's capacity once
///    redundant selection multiplies the load.
fn overload_backoff(seed: u64) -> Scenario {
    let mut client = ClientSpec::paper(QosSpec::new(ms(900), 0.9).expect("valid spec"));
    client.arrivals = ArrivalModel::OpenLoopPoisson {
        mean_interarrival: ms(30),
    };
    client.num_requests = 400;
    let requests = client.num_requests;
    Scenario {
        label: "overload back-off",
        config: ExperimentConfig {
            seed,
            network: NetworkSpec::paper(),
            servers: (0..4)
                .map(|_| ServerSpec {
                    service: ServiceTimeModel::Deterministic(ms(120)),
                    ..ServerSpec::paper()
                })
                .collect(),
            standby_servers: Vec::new(),
            manager: Some(ManagerSpec {
                target_replication: 4,
                supervision: Some(SupervisionConfig {
                    policy: SupervisorConfig {
                        min_replication: 2,
                        max_replication: 4,
                        overload_queue: 2.0,
                        underload_queue: 0.2,
                        decision_interval: ms(500),
                        seed,
                        ..SupervisorConfig::default()
                    },
                    ..SupervisionConfig::default()
                }),
            }),
            clients: vec![client],
            faults: FaultPlan::new(),
            max_virtual_time: Duration::from_secs(120),
        },
        requests,
        budget: |i| {
            let mut v = Vec::new();
            if i.overload_steps < 2 {
                v.push(format!(
                    "expected >= 2 overload target steps (4 -> 2), saw {}",
                    i.overload_steps
                ));
            }
            if i.shrink_drains < 2 {
                v.push(format!(
                    "expected >= 2 surplus drains, saw {}",
                    i.shrink_drains
                ));
            }
            if i.escalations != 0 {
                v.push(format!("expected no escalations, saw {}", i.escalations));
            }
            v
        },
    }
}

/// 2. Sick-replica rolling restart: light load grows the target to the
///    ceiling first, then r0 degrades 4x and is quarantined, drained,
///    rested, and re-activated into the deficit it left. The deadline is
///    deliberately tight, so the healthy-but-stressed partners may also
///    be cycled through a restart — the budget only demands that the
///    rolling machinery runs and that the fleet never dips below the
///    floor.
fn rolling_restart(seed: u64) -> Scenario {
    // A (100 ms, 0.9) promise over Normal(100 ms, σ50 ms) servers: every
    // selection needs all three replicas, so the degraded replica can
    // never be ranked out of the set — it keeps being sampled. The tight
    // deadline also keeps baseline misses frequent, which matters because
    // a replica's calibration window only gains samples on missed
    // requests (a delivered request retires the attempt before the
    // stragglers are scored).
    let mut client = ClientSpec::paper(QosSpec::new(ms(100), 0.9).expect("valid spec"));
    client.think_time = ms(150);
    client.num_requests = 150;
    // A sluggish model window keeps the client vouching for the degraded
    // replica long enough for the calibration drift to become visible.
    client.window = 40;
    client.calibration = Some(CalibrationConfig {
        window: 12,
        ..soak_calibration()
    });
    let requests = client.num_requests;
    Scenario {
        label: "sick-replica rolling restart",
        config: ExperimentConfig {
            seed,
            network: NetworkSpec::paper(),
            servers: vec![ServerSpec::paper(), ServerSpec::paper()],
            standby_servers: vec![ServerSpec::paper()],
            manager: Some(ManagerSpec {
                target_replication: 2,
                supervision: Some(SupervisionConfig {
                    policy: SupervisorConfig {
                        min_replication: 2,
                        max_replication: 3,
                        overload_queue: 8.0,
                        underload_queue: 0.6,
                        sick_alerts: 2,
                        sick_window: Duration::from_secs(20),
                        // High enough that one sick replica can never
                        // look like correlated degradation.
                        correlated_count: 99,
                        decision_interval: ms(500),
                        seed,
                    },
                    ..SupervisionConfig::default()
                }),
            }),
            clients: vec![client],
            faults: FaultPlan::new().degrade(
                0,
                Instant::from_secs(6),
                Duration::from_secs(20),
                4.0,
            ),
            max_virtual_time: Duration::from_secs(120),
        },
        requests,
        budget: |i| {
            let mut v = Vec::new();
            if i.underload_steps < 1 {
                v.push(format!(
                    "expected >= 1 underload growth step, saw {}",
                    i.underload_steps
                ));
            }
            if i.quarantines < 1 || i.quarantine_drains < 1 {
                v.push(format!(
                    "expected >= 1 quarantine drain, saw {} quarantines / {} drains",
                    i.quarantines, i.quarantine_drains
                ));
            }
            if i.activations < 2 {
                v.push(format!(
                    "expected >= 2 activations (growth + rejoin), saw {}",
                    i.activations
                ));
            }
            if i.escalations != 0 {
                v.push(format!("expected no escalations, saw {}", i.escalations));
            }
            v
        },
    }
}

/// 3. Correlated-failure escalation: three of four replicas degrade in
///    one window; per-replica restarts are disabled (sick threshold out
///    of reach), so the only move left is the fleet-level one.
///
///    The client tolerates two crashes, so every plan holds at least
///    three replicas. Before the fault every replica meets the deadline
///    with `F = 1` exactly, and Algorithm 1 breaks the tie by id: replicas
///    0, 1 and 2 serve every request and share its first replies, so each
///    of them has the calibration samples a replica-scoped alert needs
///    when the fault makes the next plan late for all three. The fault
///    starts after ~33 requests, while a window holds fewer than 20
///    samples and one miss is past the 5 % margin; an 8× slowdown keeps
///    a fast service draw from still meeting the deadline on that first
///    late plan (seeds 1–40 all escalate).
fn correlated_escalation(seed: u64) -> Scenario {
    let mut client = ClientSpec::paper(QosSpec::new(ms(250), 0.9).expect("valid spec"));
    client.strategy = StrategySpec::ModelBasedTolerating {
        model: ModelConfig::default(),
        crashes: 2,
    };
    client.think_time = ms(100);
    client.num_requests = 200;
    client.window = 20;
    client.calibration = Some(soak_calibration());
    let requests = client.num_requests;
    let at = Instant::from_secs(6);
    let dur = Duration::from_secs(10);
    Scenario {
        label: "correlated-failure escalation",
        config: ExperimentConfig {
            seed,
            network: NetworkSpec::paper(),
            servers: (0..4).map(|_| normal_server(70)).collect(),
            standby_servers: Vec::new(),
            manager: Some(ManagerSpec {
                target_replication: 4,
                supervision: Some(SupervisionConfig {
                    policy: SupervisorConfig {
                        min_replication: 2,
                        max_replication: 4,
                        // Load adaptation idles: queues in a closed loop
                        // never reach 50, and the target is already at
                        // the ceiling.
                        overload_queue: 50.0,
                        // Quarantine idles too: the escalation path is
                        // the one under test.
                        sick_alerts: u32::MAX,
                        correlated_count: 3,
                        decision_interval: ms(1_000),
                        seed,
                        ..SupervisorConfig::default()
                    },
                    shed_for: Duration::from_secs(1),
                }),
            }),
            clients: vec![client],
            faults: FaultPlan::new()
                .degrade(0, at, dur, 8.0)
                .degrade(1, at, dur, 8.0)
                .degrade(2, at, dur, 8.0),
            max_virtual_time: Duration::from_secs(120),
        },
        requests,
        budget: |i| {
            let mut v = Vec::new();
            if i.escalations < 1 {
                v.push(format!("expected >= 1 escalation, saw {}", i.escalations));
            }
            if i.quarantines != 0 {
                v.push(format!(
                    "expected escalation to pre-empt quarantines, saw {}",
                    i.quarantines
                ));
            }
            v
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);

    let base = aqua_obs::dir_from_env().unwrap_or_else(|| "target/supervisor-obs".to_owned());
    println!("supervisor soak: elastic dependability supervisor, seed {seed}.");
    println!("journals under {base}/<scenario>/ (replay with aqua_forensics).\n");
    println!(
        "| scenario | target steps (over/under) | drains (shrink/quar) | escalations | \
         activations | P(failure) | misses: supervisor_drain |"
    );
    println!("|---|---|---|---|---|---|---|");

    let mut violations = Vec::new();
    for scenario in [
        overload_backoff(seed),
        rolling_restart(seed),
        correlated_escalation(seed),
    ] {
        // One journal per scenario: gateway sequence numbers restart per
        // run, so sharing a journal would alias distinct requests.
        let (obs, dir) = aqua_bench::obs_into_subdir(&base, scenario.label);
        let report = run_experiment_observed(&scenario.config, Some(&obs));
        let interventions = Interventions::scrape(&obs.prometheus());
        aqua_bench::obs_dump(&obs, &dir);

        let c = report.client_under_test();
        if c.records.len() as u64 != scenario.requests {
            violations.push(format!(
                "{}: only {}/{} requests completed",
                scenario.label,
                c.records.len(),
                scenario.requests
            ));
        }
        for msg in (scenario.budget)(&interventions) {
            violations.push(format!("{}: {msg}", scenario.label));
        }

        // The forensics gate, in process: replay the journal and hold it
        // to the same invariants `aqua_forensics --check` enforces — no
        // orphan spans, no unparseable line, and above all no deadline
        // miss whose QoS violation went un-callbacked.
        let drain_misses = match read_journal(&dir) {
            Ok(journal) => {
                let forensics = analyze(&journal);
                for inv in &forensics.invariant_violations {
                    violations.push(format!("{}: journal invariant: {inv}", scenario.label));
                }
                if forensics.bad_lines > 0 {
                    violations.push(format!(
                        "{}: {} unparseable journal line(s)",
                        scenario.label, forensics.bad_lines
                    ));
                }
                forensics
                    .ranked_stages()
                    .into_iter()
                    .find(|(stage, _)| *stage == aqua_trace::forensics::MissStage::SupervisorDrain)
                    .map_or(0, |(_, n)| n)
            }
            Err(e) => {
                violations.push(format!("{}: cannot replay journal: {e}", scenario.label));
                0
            }
        };

        println!(
            "| {} | {}/{} | {}/{} | {} | {} | {:.3} | {} |",
            scenario.label,
            interventions.overload_steps,
            interventions.underload_steps,
            interventions.shrink_drains,
            interventions.quarantine_drains,
            interventions.escalations,
            interventions.activations,
            c.failure_probability,
            drain_misses,
        );
        if interventions.pool_exhausted > 0 {
            println!(
                "|   ^ standby pool exhausted {} time(s) while covering the deficit |",
                interventions.pool_exhausted
            );
        }
    }

    println!();
    println!("expected: the target walks down under overload and up under");
    println!("underload; a sick replica drains, rests, and rejoins through");
    println!("probation; correlated degradation escalates to a fleet-level");
    println!("Pc renegotiation instead of serial restarts — and every");
    println!("journal replays with zero un-callbacked deadline misses.");
    if check {
        if violations.is_empty() {
            println!("\ncheck: all scenarios within budget.");
        } else {
            eprintln!("\ncheck FAILED:");
            for v in &violations {
                eprintln!("  - {v}");
            }
            std::process::exit(1);
        }
    }
}
