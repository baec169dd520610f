//! `aqua-lab` — a configurable one-shot experiment runner.
//!
//! Builds a simulated cluster from command-line flags, runs it, and prints
//! a report (optionally JSON). Useful for exploring the design space
//! beyond the canned figure binaries. Flags it cannot honour (a zero
//! `--replicas` or `--window`, a `--crash`/`--bursty` index past the last
//! replica, a malformed value) exit 2 with a message naming the flag.
//!
//! `aqua_lab study NAME [SEEDS]` instead runs one of DESIGN.md §4's
//! ablation studies ([`aqua_bench::studies`]) and prints its table;
//! `aqua_lab study` lists them.
//!
//! ```text
//! aqua_lab [flags]
//!   --replicas N          number of server replicas          (default 5)
//!   --service MS          mean service time                  (default 100)
//!   --std MS              service-time std deviation         (default 50)
//!   --deadline MS         client deadline t                  (default 150)
//!   --pc P                requested probability Pc           (default 0.9)
//!   --requests N          requests for the client under test (default 50)
//!   --think MS            closed-loop think time             (default 1000)
//!   --open-loop MS        open-loop Poisson mean inter-arrival instead
//!   --window L            sliding-window size l              (default 5)
//!   --crashes F           crash tolerance f of Algorithm 1   (default 1)
//!   --strategy NAME[:K]   model | random:K | fastest:K | loaded:K |
//!                         nearest:K | rr:K | static:K | all  (default model)
//!   --crash I@SECS        crash replica I at SECS (repeatable)
//!   --bursty I            give replica I 6x load bursts (repeatable)
//!   --background N        N extra (200 ms, Pc 0) clients     (default 1)
//!   --congested           add 20x network delay spikes
//!   --standbys N          N standby replicas + a dependability manager
//!                         holding the pool at --replicas
//!   --queue-scaled        predict W from current queue length (A9 ext.)
//!   --seed S              RNG seed                           (default 1)
//!   --json                emit a JSON report instead of text
//!   --obs DIR             write journal.jsonl + metrics.prom +
//!                         metrics.json into DIR (also honoured via the
//!                         AQUA_OBS environment variable)
//! ```

use aqua_bench::studies;
use aqua_core::model::ModelConfig;
use aqua_core::qos::QosSpec;
use aqua_core::time::{Duration, Instant};
use aqua_gateway::ArrivalModel;
use aqua_replica::{CrashPlan, LoadModel, ServiceTimeModel};
use aqua_workload::{
    run_experiment_observed, ClientSpec, ExperimentConfig, NetworkSpec, ServerSpec, StrategySpec,
};
use lan_sim::UniformLan;

#[derive(Debug)]
struct Options {
    replicas: usize,
    service_ms: u64,
    std_ms: u64,
    deadline_ms: u64,
    pc: f64,
    requests: u64,
    think_ms: u64,
    open_loop_ms: Option<u64>,
    window: usize,
    crashes: usize,
    strategy: StrategySpec,
    crash_at: Vec<(usize, u64)>,
    bursty: Vec<usize>,
    background: usize,
    congested: bool,
    standbys: usize,
    queue_scaled: bool,
    seed: u64,
    json: bool,
    obs: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            replicas: 5,
            service_ms: 100,
            std_ms: 50,
            deadline_ms: 150,
            pc: 0.9,
            requests: 50,
            think_ms: 1_000,
            open_loop_ms: None,
            window: 5,
            crashes: 1,
            strategy: StrategySpec::paper(),
            crash_at: Vec::new(),
            bursty: Vec::new(),
            background: 1,
            congested: false,
            standbys: 0,
            queue_scaled: false,
            seed: 1,
            json: false,
            obs: None,
        }
    }
}

fn usage() -> ! {
    eprintln!("see the module docs at the top of aqua_lab.rs (or run with defaults)");
    std::process::exit(2);
}

/// Reports input the runner cannot honour and exits 2.
fn reject(msg: &str) -> ! {
    eprintln!("{msg}");
    usage()
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| reject(&format!("invalid value {value:?} for {flag}")))
}

fn parse_strategy(spec: &str) -> StrategySpec {
    let (name, k) = match spec.split_once(':') {
        Some((name, k)) => (name, Some(k)),
        None => (spec, None),
    };
    let k = match k {
        None => 2,
        Some(_) if matches!(name, "model" | "all") => {
            reject(&format!("--strategy {name} takes no :K"))
        }
        Some(k) => match parse("--strategy", k) {
            0 => reject("--strategy: K must be at least 1"),
            k => k,
        },
    };
    match name {
        "model" => StrategySpec::paper(),
        "random" => StrategySpec::Random { k },
        "fastest" => StrategySpec::FastestMean { k },
        "loaded" => StrategySpec::LeastLoaded { k },
        "nearest" => StrategySpec::Nearest { k },
        "rr" => StrategySpec::RoundRobin { k },
        "static" => StrategySpec::StaticK { k },
        "all" => StrategySpec::AllReplicas,
        other => reject(&format!("unknown strategy {other:?}")),
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Options {
    let mut opts = Options::default();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> String {
            args.next()
                .unwrap_or_else(|| reject(&format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--replicas" => opts.replicas = parse(&flag, &value(&flag)),
            "--service" => opts.service_ms = parse(&flag, &value(&flag)),
            "--std" => opts.std_ms = parse(&flag, &value(&flag)),
            "--deadline" => opts.deadline_ms = parse(&flag, &value(&flag)),
            "--pc" => opts.pc = parse(&flag, &value(&flag)),
            "--requests" => opts.requests = parse(&flag, &value(&flag)),
            "--think" => opts.think_ms = parse(&flag, &value(&flag)),
            "--open-loop" => opts.open_loop_ms = Some(parse(&flag, &value(&flag))),
            "--window" => opts.window = parse(&flag, &value(&flag)),
            "--crashes" => opts.crashes = parse(&flag, &value(&flag)),
            "--strategy" => opts.strategy = parse_strategy(&value(&flag)),
            "--crash" => {
                let v = value(&flag);
                let Some((i, s)) = v.split_once('@') else {
                    reject(&format!("--crash takes I@SECS, got {v:?}"))
                };
                opts.crash_at.push((parse(&flag, i), parse(&flag, s)));
            }
            "--bursty" => opts.bursty.push(parse(&flag, &value(&flag))),
            "--background" => opts.background = parse(&flag, &value(&flag)),
            "--congested" => opts.congested = true,
            "--standbys" => opts.standbys = parse(&flag, &value(&flag)),
            "--queue-scaled" => opts.queue_scaled = true,
            "--seed" => opts.seed = parse(&flag, &value(&flag)),
            "--json" => opts.json = true,
            "--obs" => opts.obs = Some(value(&flag)),
            "--help" | "-h" => usage(),
            other => reject(&format!("unknown flag {other:?}")),
        }
    }
    if opts.replicas == 0 {
        reject("--replicas must be at least 1");
    }
    if opts.window == 0 {
        reject("--window must be at least 1");
    }
    let in_range = |flag: &str, i: usize| {
        if i >= opts.replicas {
            reject(&format!(
                "{flag}: no replica {i} among --replicas {} (indices start at 0)",
                opts.replicas
            ));
        }
    };
    for &(i, _) in &opts.crash_at {
        in_range("--crash", i);
    }
    for &i in &opts.bursty {
        in_range("--bursty", i);
    }
    opts
}

/// `aqua_lab study [NAME [SEEDS]]`: run one ablation study, or list them.
fn run_study(mut args: impl Iterator<Item = String>) {
    let Some(name) = args.next() else {
        println!("usage: aqua_lab study <name> [seeds]\n");
        for study in &studies::STUDIES {
            println!(
                "  {:<16} {:<4} {} ({} seeds)",
                study.name, study.id, study.title, study.default_seeds
            );
        }
        return;
    };
    let Some(study) = studies::find(&name) else {
        reject(&format!(
            "unknown study {name:?}; `aqua_lab study` lists them"
        ))
    };
    let seeds = match args.next() {
        None => study.default_seeds,
        Some(v) => match parse("study seeds", &v) {
            0 => reject("study seeds must be at least 1"),
            n => n,
        },
    };
    if let Some(extra) = args.next() {
        reject(&format!("unexpected argument {extra:?} after study seeds"));
    }
    print!("{}", study.report(seeds));
}

fn build_config(opts: &Options) -> ExperimentConfig {
    let ms = Duration::from_millis;
    let servers = (0..opts.replicas)
        .map(|i| ServerSpec {
            service: ServiceTimeModel::Normal {
                mean: ms(opts.service_ms),
                std_dev: ms(opts.std_ms),
                min: Duration::ZERO,
            },
            method_services: Vec::new(),
            load: if opts.bursty.contains(&i) {
                LoadModel::bursty(Duration::from_secs(4), Duration::from_secs(2), 6.0)
            } else {
                LoadModel::nominal()
            },
            crash: opts
                .crash_at
                .iter()
                .find(|(idx, _)| *idx == i)
                .map(|(_, secs)| CrashPlan::AtTime(Instant::from_secs(*secs)))
                .unwrap_or(CrashPlan::Never),
            recover_after: None,
        })
        .collect();

    let mut clients: Vec<ClientSpec> = (0..opts.background)
        .map(|_| {
            let mut c = ClientSpec::paper(QosSpec::new(ms(200), 0.0).expect("constant spec valid"));
            c.num_requests = opts.requests;
            c.think_time = ms(opts.think_ms);
            c
        })
        .collect();

    let qos = QosSpec::new(ms(opts.deadline_ms), opts.pc).unwrap_or_else(|e| {
        eprintln!("invalid QoS: {e}");
        usage()
    });
    let model_config = ModelConfig {
        queue_estimator: if opts.queue_scaled {
            aqua_core::model::QueueEstimator::QueueScaled
        } else {
            aqua_core::model::QueueEstimator::History
        },
        ..ModelConfig::default()
    };
    let mut under_test = ClientSpec::paper(qos);
    under_test.strategy = match &opts.strategy {
        StrategySpec::ModelBased(_) if opts.crashes != 1 => StrategySpec::ModelBasedTolerating {
            model: model_config,
            crashes: opts.crashes,
        },
        StrategySpec::ModelBased(_) => StrategySpec::ModelBased(model_config),
        other => other.clone(),
    };
    under_test.num_requests = opts.requests;
    under_test.think_time = ms(opts.think_ms);
    under_test.window = opts.window;
    if let Some(gap) = opts.open_loop_ms {
        under_test.arrivals = ArrivalModel::OpenLoopPoisson {
            mean_interarrival: ms(gap),
        };
    }
    clients.push(under_test);

    ExperimentConfig {
        seed: opts.seed,
        network: if opts.congested {
            NetworkSpec::Congested {
                lan: UniformLan::aqua_testbed(),
                spike_prob: 0.02,
                spike_scale: 20.0,
                spike_duration: ms(300),
            }
        } else {
            NetworkSpec::paper()
        },
        servers,
        standby_servers: (0..opts.standbys)
            .map(|_| ServerSpec {
                service: ServiceTimeModel::Normal {
                    mean: ms(opts.service_ms),
                    std_dev: ms(opts.std_ms),
                    min: Duration::ZERO,
                },
                ..ServerSpec::paper()
            })
            .collect(),
        manager: (opts.standbys > 0).then_some(aqua_workload::ManagerSpec {
            target_replication: opts.replicas,
            supervision: None,
        }),
        clients,
        faults: aqua_workload::FaultPlan::new(),
        max_virtual_time: Duration::from_secs(600),
    }
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.next_if(|a| a == "study").is_some() {
        return run_study(args);
    }
    let opts = parse_args(args);
    let config = build_config(&opts);
    let obs = opts
        .obs
        .clone()
        .or_else(aqua_obs::dir_from_env)
        .map(aqua_bench::obs_open);
    let report = run_experiment_observed(&config, obs.as_ref().map(|(obs, _)| obs));
    if let Some((obs, dir)) = &obs {
        aqua_bench::obs_dump(obs, dir);
    }
    let client = report.client_under_test();

    if opts.json {
        let json = aqua_obs::json::JsonValue::object()
            .field("options", format!("{opts:?}"))
            .field("strategy", client.strategy)
            .field("requests", client.records.len())
            .field("failure_probability", client.failure_probability)
            .field("budget", 1.0 - opts.pc)
            .field(
                "within_budget",
                client.failure_probability <= 1.0 - opts.pc + 1e-9,
            )
            .field("mean_redundancy", client.mean_redundancy())
            .field(
                "mean_latency_ms",
                client.mean_latency().map(|d| d.as_millis_f64()),
            )
            .field(
                "p50_ms",
                client.latency_quantile(0.5).map(|d| d.as_millis_f64()),
            )
            .field(
                "p99_ms",
                client.latency_quantile(0.99).map(|d| d.as_millis_f64()),
            )
            .field("callbacks", client.callbacks)
            .field("gave_up", client.stats.gave_up)
            .field("virtual_seconds", report.ended_at.as_secs_f64())
            .field("network_messages", report.messages)
            .build();
        println!("{}", json.render_pretty());
        return;
    }

    println!(
        "aqua-lab: {} replica(s), strategy {}, seed {}",
        opts.replicas, client.strategy, opts.seed
    );
    println!(
        "QoS: deadline {} ms with Pc ≥ {}  (failure budget {:.2})",
        opts.deadline_ms,
        opts.pc,
        1.0 - opts.pc
    );
    println!();
    println!("requests            : {}", client.records.len());
    println!(
        "observed P(failure) : {:.3}  → {}",
        client.failure_probability,
        if client.failure_probability <= 1.0 - opts.pc + 1e-9 {
            "WITHIN SPEC"
        } else {
            "VIOLATED"
        }
    );
    println!("mean redundancy     : {:.2}", client.mean_redundancy());
    if let Some(mean) = client.mean_latency() {
        println!("mean latency        : {:.1} ms", mean.as_millis_f64());
    }
    for q in [0.5, 0.9, 0.99] {
        if let Some(l) = client.latency_quantile(q) {
            println!(
                "p{:<2.0}                 : {:.1} ms",
                q * 100.0,
                l.as_millis_f64()
            );
        }
    }
    println!("QoS callbacks       : {}", client.callbacks);
    println!("gave up (no reply)  : {}", client.stats.gave_up);
    println!(
        "simulated {:.1} s of virtual time, {} network messages, {} events",
        report.ended_at.as_secs_f64(),
        report.messages,
        report.events
    );
}
