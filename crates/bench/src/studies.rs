//! The ablation studies of DESIGN.md §4 (A1–A11, A13): each sweeps one
//! scenario over a few cases, averages the client under test over seeds
//! `1..=seeds` and prints a markdown table between two text blocks. Run
//! one as `aqua_lab study <name> [seeds]`.
//!
//! A study keeps only what differs between them — its cases (each a
//! complete [`ExperimentConfig`] whose seed the runner overwrites), its
//! label and metric columns and its text — and one runner does the seed
//! loop, the averaging and the printing for all of them.

use aqua_core::model::{
    DelayEstimator, MethodScope, ModelConfig, QueueEstimator, ResponseTimeModel,
};
use aqua_core::qos::QosSpec;
use aqua_core::repository::MethodId;
use aqua_core::time::{Duration, Instant};
use aqua_gateway::ArrivalModel;
use aqua_replica::{CrashPlan, LoadModel, LoadState, ServiceTimeModel};
use aqua_workload::{
    run_experiment, ClientReport, ClientSpec, ExperimentConfig, FaultPlan, ManagerSpec,
    NetworkSpec, ServerSpec, StrategySpec,
};
use lan_sim::UniformLan;

/// One metric column of a study table.
#[derive(Clone, Copy)]
enum Column {
    /// Observed timing-failure probability, mean over seeds.
    Failure,
    /// Replicas per request, mean over seeds.
    Redundancy,
    /// Mean response time (ms) of answered requests, mean over seeds.
    Latency,
    /// Response time (ms) of the slowest answered request, the maximum
    /// over seeds.
    WorstLatency,
    /// Requests that got no reply, summed over seeds.
    GaveUp,
    /// QoS callbacks fired, summed over seeds.
    Callbacks,
    /// Active probes sent, summed over seeds.
    Probes,
    /// Replicas per request over the last 20 requests, mean over seeds.
    TailRedundancy,
    /// Median response time (ms) of the last 40 requests, mean over seeds.
    TailP50,
    /// Wall-clock µs to price every replica of a synthetic 7-replica,
    /// window-20 repository with the case's model config; measured once
    /// per case, not per seed.
    Overhead,
}

impl Column {
    fn header(self) -> &'static str {
        match self {
            Column::Failure => "P(failure)",
            Column::Redundancy => "mean redundancy",
            Column::Latency => "mean latency (ms)",
            Column::WorstLatency => "worst latency (ms)",
            Column::GaveUp => "gave up",
            Column::Callbacks => "callbacks",
            Column::Probes => "probes",
            Column::TailRedundancy => "mean redundancy (last 20 reqs)",
            Column::TailP50 => "p50 tail (ms)",
            Column::Overhead => "overhead (us)",
        }
    }

    /// This column's contribution from one seed's run.
    fn sample(self, c: &ClientReport) -> f64 {
        match self {
            Column::Failure => c.failure_probability,
            Column::Redundancy => c.mean_redundancy(),
            Column::Latency => c
                .mean_latency()
                .map(|d| d.as_millis_f64())
                .unwrap_or(f64::NAN),
            Column::WorstLatency => c
                .records
                .iter()
                .filter_map(|r| r.response_time)
                .max()
                .map_or(f64::NAN, |d| d.as_millis_f64()),
            Column::GaveUp => c.stats.gave_up as f64,
            Column::Callbacks => c.callbacks as f64,
            Column::Probes => c.stats.probes as f64,
            Column::TailRedundancy => {
                let tail = &c.records[c.records.len().saturating_sub(20)..];
                tail.iter().map(|r| r.redundancy).sum::<usize>() as f64 / tail.len() as f64
            }
            Column::TailP50 => {
                let mut tail: Vec<f64> = c.records[c.records.len() - 40..]
                    .iter()
                    .filter_map(|r| r.response_time.map(|d| d.as_millis_f64()))
                    .collect();
                tail.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                tail.get(tail.len() / 2).copied().unwrap_or(f64::NAN)
            }
            Column::Overhead => 0.0,
        }
    }

    /// Folds one seed's `sample` into the `total` so far: the maximum for
    /// the worst latency, the sum for every other column.
    fn fold(self, total: f64, sample: f64) -> f64 {
        match self {
            Column::WorstLatency => total.max(sample),
            _ => total + sample,
        }
    }

    /// The cell for `total` (the [`Column::fold`] of the samples over
    /// `seeds`).
    fn cell(self, total: f64, seeds: u64, config: &ExperimentConfig) -> String {
        let mean = total / seeds as f64;
        match self {
            Column::Failure => format!("{mean:.3}"),
            Column::Redundancy | Column::TailRedundancy => format!("{mean:.2}"),
            Column::Latency | Column::TailP50 => format!("{mean:.1}"),
            Column::WorstLatency => format!("{total:.1}"),
            Column::GaveUp | Column::Callbacks | Column::Probes => format!("{}", total as u64),
            Column::Overhead => format!("{:.2}", model_overhead_us(config)),
        }
    }
}

/// Times `probability_by` with the client under test's model config over
/// a synthetic repository.
fn model_overhead_us(config: &ExperimentConfig) -> f64 {
    let client = config.clients.last().expect("a client under test");
    let StrategySpec::ModelBased(model) = &client.strategy else {
        return f64::NAN;
    };
    let model = ResponseTimeModel::new(*model);
    let repo = crate::synthetic::synthetic_repository(7, 20, 42);
    let iters = 2_000;
    let started = std::time::Instant::now();
    for _ in 0..iters {
        for (_, stats) in repo.iter() {
            std::hint::black_box(model.probability_by(stats, client.qos.deadline()));
        }
    }
    started.elapsed().as_nanos() as f64 / 1_000.0 / iters as f64
}

/// One row of a study: its label cells and the experiment it runs.
struct Case {
    /// Cells for the study's label columns.
    labels: Vec<String>,
    /// The experiment; the runner sets `seed`.
    config: ExperimentConfig,
}

fn case(labels: &[&dyn std::fmt::Display], config: ExperimentConfig) -> Case {
    Case {
        labels: labels.iter().map(|l| l.to_string()).collect(),
        config,
    }
}

/// A computed study table.
struct Table {
    /// Column headers: the label columns, then the metric columns.
    header: Vec<String>,
    /// One row of cells per case.
    rows: Vec<Vec<String>>,
}

impl Table {
    /// The table as markdown, one line per row.
    fn markdown(&self) -> String {
        let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
        let mut out = line(&self.header);
        out.push_str(&format!("|{}\n", "---|".repeat(self.header.len())));
        for row in &self.rows {
            out.push_str(&line(row));
        }
        out
    }
}

/// One ablation study.
pub struct Study {
    /// Subcommand name (`aqua_lab study <name>`).
    pub name: &'static str,
    /// Its id in DESIGN.md §4's ablation table.
    pub id: &'static str,
    /// One-line question the study answers.
    pub title: &'static str,
    /// Seeds averaged when none are given.
    pub default_seeds: u64,
    /// Text printed above the table; `{seeds}` is replaced by the count.
    intro: &'static str,
    /// Headers of the label columns.
    labels: &'static [&'static str],
    /// Metric columns, in print order.
    columns: &'static [Column],
    /// Builds the cases, one per row.
    cases: fn() -> Vec<Case>,
    /// Text printed below the table (nothing when empty).
    outro: &'static str,
}

impl Study {
    /// Runs every case over seeds `1..=seeds`.
    fn run(&self, seeds: u64) -> Table {
        let header = self
            .labels
            .iter()
            .map(|l| l.to_string())
            .chain(self.columns.iter().map(|c| c.header().to_string()))
            .collect();
        let mut rows = Vec::new();
        for Case {
            mut labels,
            mut config,
        } in (self.cases)()
        {
            let mut totals = vec![0.0; self.columns.len()];
            for seed in 1..=seeds {
                config.seed = seed;
                let report = run_experiment(&config);
                let client = report.client_under_test();
                for (total, column) in totals.iter_mut().zip(self.columns) {
                    *total = column.fold(*total, column.sample(client));
                }
            }
            let cells = self.columns.iter().zip(totals);
            labels.extend(cells.map(|(column, total)| column.cell(total, seeds, &config)));
            rows.push(labels);
        }
        Table { header, rows }
    }

    /// The full printout: intro, table, outro.
    pub fn report(&self, seeds: u64) -> String {
        let mut out = self.intro.replace("{seeds}", &seeds.to_string());
        out.push_str("\n\n");
        out.push_str(&self.run(seeds).markdown());
        if !self.outro.is_empty() {
            out.push('\n');
            out.push_str(self.outro);
            out.push('\n');
        }
        out
    }
}

/// Looks a study up by name.
pub fn find(name: &str) -> Option<&'static Study> {
    STUDIES.iter().find(|s| s.name == name)
}

/// Every study, in DESIGN.md §4 order.
pub static STUDIES: [Study; 12] = [
    Study {
        name: "strategies",
        id: "A1",
        title: "selection strategies head-to-head",
        default_seeds: 3,
        intro: "scenario: 7 heterogeneous replicas (60-150 ms), 2 bursty hosts,\n\
                1 crash at t=8 s; client deadline 150 ms, Pc = 0.9, 100 requests;\n\
                averaged over {seeds} seed(s). failure budget = 0.10.",
        labels: &["strategy", "variant"],
        columns: &[Column::Failure, Column::Redundancy, Column::Latency],
        cases: strategies,
        outro: "",
    },
    Study {
        name: "window",
        id: "A2",
        title: "sensitivity to the sliding-window size l",
        default_seeds: 3,
        intro: "scenario: 5 replicas N(80 ms, 25 ms) with 5x load bursts;\n\
                client (150 ms, Pc = 0.9), 100 requests, {seeds} seed(s).",
        labels: &["window l"],
        columns: &[Column::Failure, Column::Redundancy, Column::Latency],
        cases: window,
        outro: "expected: tiny windows react fast but estimate noisily; huge\n\
                windows average over stale load states. The paper settles on 5.",
    },
    Study {
        name: "crash",
        id: "A3",
        title: "the single-crash guarantee (Eq. 3)",
        default_seeds: 5,
        intro: "scenario: 5 replicas (r0 at 40 ms, rest at 90 ms); client\n\
                (200 ms, Pc = 0.9), 80 requests; crash of r0 at t = 10 s;\n\
                {seeds} seed(s). failure budget = 0.10.",
        labels: &["case"],
        columns: &[
            Column::Failure,
            Column::GaveUp,
            Column::Redundancy,
            Column::WorstLatency,
        ],
        cases: crash,
        outro: "expected: the model-based selection masks the crash (Eq. 3) —\n\
                its failure probability stays within budget — while the\n\
                unreplicated baseline loses the requests in flight and stalls\n\
                until its history ages out. The passive handler of earlier\n\
                AQuA work (§2) masks the crash by failover instead: the view\n\
                change that evicts the primary resends the request in flight\n\
                to the senior backup, and that request pays the detection\n\
                silence on top of its service, mostly past the deadline.",
    },
    Study {
        name: "delay_window",
        id: "A4",
        title: "gateway-delay estimation under bursty LAN traffic",
        default_seeds: 3,
        intro: "scenario: 5 paper replicas; client (150 ms, Pc = 0.9), 100\n\
                requests; calm LAN vs LAN with 30x delay spikes; {seeds} seed(s).",
        labels: &["network", "T_i estimator"],
        columns: &[Column::Failure, Column::Redundancy],
        cases: delay_window,
        outro: "expected: on a calm LAN the estimators agree (validating the\n\
                paper's simplification); under spikes the windowed estimator\n\
                hedges with more redundancy after observing a spike.",
    },
    Study {
        name: "multi_method",
        id: "A5",
        title: "multi-interface servers (§8 ext. 1)",
        default_seeds: 3,
        intro: "scenario: 5 replicas exporting a 20 ms and a 220 ms method; the\n\
                client issues 4 cheap : 1 costly, deadline 200 ms, Pc = 0.9,\n\
                100 requests, {seeds} seed(s). failure budget = 0.10.",
        labels: &["history classification"],
        columns: &[Column::Failure, Column::Redundancy],
        cases: multi_method,
        outro: "expected: per-method classification meets the budget with less\n\
                redundancy; the aggregated model mis-prices both methods.",
    },
    Study {
        name: "overload",
        id: "A6",
        title: "overload, QoS callbacks and renegotiation",
        default_seeds: 3,
        intro: "scenario: 12 clients on 3 replicas (queues build up); client\n\
                under test starts at (150 ms, Pc = 0.9); {seeds} seed(s).",
        labels: &["policy"],
        columns: &[
            Column::Failure,
            Column::Callbacks,
            Column::Latency,
            Column::Redundancy,
        ],
        cases: overload,
        outro: "expected: under overload the tight spec is unholdable and the\n\
                callback fires; renegotiating restores a holdable contract and\n\
                the failure probability (w.r.t. the new spec) drops.",
    },
    Study {
        name: "multi_crash",
        id: "A7",
        title: "the multi-failure generalization of Algorithm 1",
        default_seeds: 5,
        intro: "scenario: 6 replicas (r0, r1 at 40 ms; rest at 90 ms); client\n\
                (200 ms, Pc = 0.9), 80 requests; r0 AND r1 crash simultaneously\n\
                at t = 10 s; {seeds} seed(s). failure budget = 0.10.",
        labels: &["tolerance f", "crash?"],
        columns: &[Column::Failure, Column::GaveUp, Column::Redundancy],
        cases: multi_crash,
        outro: "expected: with f = 1, a request whose whole 2-member set was\n\
                {r0, r1} loses both members and gives up; with f = 2 the set\n\
                always holds a third member, so the double crash is masked.",
    },
    Study {
        name: "churn",
        id: "A8",
        title: "replica churn: crashes with recovery",
        default_seeds: 3,
        intro: "scenario: 6 replicas N(70 ms, 20 ms), exponential MTBF crashes\n\
                with 5 s restarts; client (250 ms, Pc = 0.9), 120 requests,\n\
                {seeds} seed(s). failure budget = 0.10.",
        labels: &["MTBF (s)"],
        columns: &[Column::Failure, Column::GaveUp, Column::Redundancy],
        cases: churn,
        outro: "expected: the spec holds at moderate churn (single-crash\n\
                masking + re-exploration); only when failures are so frequent\n\
                that whole selected sets die between view changes do give-ups\n\
                appear. redundancy rises because every recovery forces a\n\
                cold-start multicast round.",
    },
    Study {
        name: "queue_estimator",
        id: "A9",
        title: "queuing-delay estimation: history window vs. queue length",
        default_seeds: 3,
        intro: "scenario: 3 replicas N(100 ms, 20 ms); a background client\n\
                bursts 8 requests onto replicas 0-1 every 2 s; client under\n\
                test (250 ms, Pc = 0.9), 120 requests, {seeds} seed(s). budget 0.10.",
        labels: &["W estimator"],
        columns: &[Column::Failure, Column::Redundancy, Column::Latency],
        cases: queue_estimator,
        outro: "expected: the queue-scaled estimator reacts to queue growth the\n\
                moment it is published, dodging momentarily-loaded replicas that\n\
                the history window still rates as fast.",
    },
    Study {
        name: "manager",
        id: "A10",
        title: "managed replication (Proteus, §2)",
        default_seeds: 3,
        intro: "scenario: 2 fast replicas (70 ms) crash at 5 s and 12 s, leaving a\n\
                slow one (230 ms) behind;\n\
                client (250 ms, Pc = 0.9), 100 requests, {seeds} seed(s).",
        labels: &["pool"],
        columns: &[Column::Failure, Column::TailRedundancy, Column::GaveUp],
        cases: manager,
        outro: "expected: unmanaged, the pool ends at a single replica — no\n\
                redundancy left, so any slowness is unmaskable; managed, the\n\
                standbys restore the 3-replica pool and the spec holds.",
    },
    Study {
        name: "bucket",
        id: "A11",
        title: "model quantization: pmf bucket width vs. overhead and quality",
        default_seeds: 3,
        intro: "scenario: 5 paper replicas; client (140 ms, Pc = 0.9), 100\n\
                requests, {seeds} seed(s). failure budget = 0.10. overhead column\n\
                measured on a synthetic 7-replica/window-20 repository.",
        labels: &["bucket"],
        columns: &[Column::Overhead, Column::Failure, Column::Redundancy],
        cases: bucket,
        outro: "expected: overhead falls steeply with coarser buckets (smaller\n\
                convolution supports); quality is flat until the bucket becomes\n\
                a significant fraction of the deadline, where the floor-\n\
                quantization optimism starts to bite (20 ms = 14% of 140 ms).",
    },
    Study {
        name: "probes",
        id: "A13",
        title: "active probing of stale entries (§8 ext. 3)",
        default_seeds: 5,
        intro: "scenario: r0 is a 30 ms replica stuck in an 8x burst for the\n\
                first ~5 s (so its first samples look terrible); r1, r2 are\n\
                steady 80 ms. client (200 ms, Pc = 0.9), 100 requests,\n\
                {seeds} seed(s).",
        labels: &["probing"],
        columns: &[
            Column::Failure,
            Column::Latency,
            Column::TailP50,
            Column::Probes,
        ],
        cases: probes,
        outro: "expected: without probes the recovered 30 ms replica stays\n\
                stigmatized by its burst-era window and the tail median sits at\n\
                the 80 ms replicas' level; with probes it is re-measured and\n\
                the tail median drops toward 30-40 ms.",
    },
];

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// A `Pc = 0.9` closed-loop client with the given deadline, request count
/// and think time.
fn client(deadline_ms: u64, requests: u64, think_ms: u64) -> ClientSpec {
    let mut c = ClientSpec::paper(QosSpec::new(ms(deadline_ms), 0.9).expect("valid spec"));
    c.num_requests = requests;
    c.think_time = ms(think_ms);
    c
}

/// The paper's server with `Normal(mean, std)` service floored at zero.
fn normal(mean_ms: u64, std_ms: u64) -> ServerSpec {
    ServerSpec {
        service: ServiceTimeModel::Normal {
            mean: ms(mean_ms),
            std_dev: ms(std_ms),
            min: Duration::ZERO,
        },
        ..ServerSpec::paper()
    }
}

/// The paper's LAN, no standbys, manager or faults, and 120 s of virtual
/// time; the runner sets the seed.
fn config(servers: Vec<ServerSpec>, clients: Vec<ClientSpec>) -> ExperimentConfig {
    ExperimentConfig {
        seed: 0,
        network: NetworkSpec::paper(),
        servers,
        standby_servers: Vec::new(),
        manager: None,
        clients,
        faults: FaultPlan::new(),
        max_virtual_time: Duration::from_secs(120),
    }
}

/// Seven heterogeneous replicas (60–150 ms), two bursty, one crashing at
/// 8 s, under each strategy.
fn strategies() -> Vec<Case> {
    let servers: Vec<ServerSpec> = (0..7u64)
        .map(|i| ServerSpec {
            load: if i >= 5 {
                LoadModel::bursty(Duration::from_secs(3), Duration::from_secs(1), 6.0)
            } else {
                LoadModel::nominal()
            },
            crash: if i == 1 {
                CrashPlan::AtTime(Instant::from_secs(8))
            } else {
                CrashPlan::Never
            },
            ..normal(60 + 15 * i, 20)
        })
        .collect();
    [
        (StrategySpec::ModelBased(ModelConfig::default()), "paper"),
        (StrategySpec::FastestMean { k: 1 }, "k=1"),
        (StrategySpec::FastestMean { k: 2 }, "k=2"),
        (StrategySpec::LeastLoaded { k: 2 }, "k=2"),
        (StrategySpec::Nearest { k: 2 }, "k=2"),
        (StrategySpec::Random { k: 2 }, "k=2"),
        (StrategySpec::RoundRobin { k: 2 }, "k=2"),
        (StrategySpec::StaticK { k: 1 }, "k=1"),
        (StrategySpec::AllReplicas, "n=7"),
    ]
    .into_iter()
    .map(|(strategy, variant)| {
        let name = strategy.name();
        let mut c = client(150, 100, 250);
        c.strategy = strategy;
        case(&[&name, &variant], config(servers.clone(), vec![c]))
    })
    .collect()
}

/// Five bursty replicas, window sizes 2–50.
fn window() -> Vec<Case> {
    let server = ServerSpec {
        load: LoadModel::bursty(Duration::from_secs(4), Duration::from_secs(2), 5.0),
        ..normal(80, 25)
    };
    [2usize, 5, 10, 20, 50]
        .into_iter()
        .map(|window| {
            let mut c = client(150, 100, 250);
            c.window = window;
            case(&[&window], config(vec![server.clone(); 5], vec![c]))
        })
        .collect()
}

/// The fastest replica crashes at 10 s (or not), under Algorithm 1, an
/// unreplicated baseline and the passive handler: the first replica by id
/// is the primary, and a retry armed at 1 s, far past any live reply,
/// resends a request only when the view change evicts the primary.
fn crash() -> Vec<Case> {
    [
        (
            "model-based, no crash (control)",
            StrategySpec::paper(),
            None,
            false,
        ),
        ("model-based, m0 crashes", StrategySpec::paper(), None, true),
        (
            "fastest-mean k=1, no crash",
            StrategySpec::FastestMean { k: 1 },
            None,
            false,
        ),
        (
            "fastest-mean k=1, m0 crashes",
            StrategySpec::FastestMean { k: 1 },
            None,
            true,
        ),
        (
            "passive (static k=1, view-change failover), m0 crashes",
            StrategySpec::StaticK { k: 1 },
            Some(Duration::from_secs(1)),
            true,
        ),
    ]
    .into_iter()
    .map(|(label, strategy, retry_after, crash)| {
        let servers = (0..5)
            .map(|i| ServerSpec {
                crash: if i == 0 && crash {
                    CrashPlan::AtTime(Instant::from_secs(10))
                } else {
                    CrashPlan::Never
                },
                ..normal(if i == 0 { 40 } else { 90 }, 15)
            })
            .collect();
        let mut c = client(200, 80, 250);
        c.strategy = strategy;
        c.retry_after = retry_after;
        case(&[&label], config(servers, vec![c]))
    })
    .collect()
}

/// Last-value vs. windowed `T_i` estimation on a calm and a spiky LAN.
fn delay_window() -> Vec<Case> {
    let mut cases = Vec::new();
    for congested in [false, true] {
        for (name, delay_estimator) in [
            ("last-value (paper)", DelayEstimator::LastValue),
            ("window-pmf (ext.)", DelayEstimator::WindowPmf),
        ] {
            let mut c = client(150, 100, 250);
            c.strategy = StrategySpec::ModelBased(ModelConfig {
                delay_estimator,
                ..ModelConfig::default()
            });
            let mut config = config(vec![ServerSpec::paper(); 5], vec![c]);
            if congested {
                config.network = NetworkSpec::Congested {
                    lan: UniformLan::aqua_testbed(),
                    spike_prob: 0.02,
                    spike_scale: 30.0,
                    spike_duration: ms(400),
                };
            }
            let network = if congested { "congested" } else { "calm" };
            cases.push(case(&[&network, &name], config));
        }
    }
    cases
}

/// A cheap (20 ms) and a costly (220 ms) method, histories per method or
/// pooled. At a 200 ms deadline the costly method only makes it on a
/// lucky draw, and four of five requests are cheap, so a pooled history
/// badly mis-prices it.
fn multi_method() -> Vec<Case> {
    const CHEAP: MethodId = MethodId::new(1);
    const COSTLY: MethodId = MethodId::new(2);
    let method = |mean_ms, std_ms| ServiceTimeModel::Normal {
        mean: ms(mean_ms),
        std_dev: ms(std_ms),
        min: Duration::ZERO,
    };
    let server = ServerSpec {
        service: ServiceTimeModel::Deterministic(ms(50)), // unused fallback
        method_services: vec![(CHEAP, method(20, 5)), (COSTLY, method(220, 40))],
        ..ServerSpec::paper()
    };
    [
        ("per-method (§8 ext. 1)", MethodScope::PerMethod),
        ("aggregated (no classification)", MethodScope::Aggregate),
    ]
    .into_iter()
    .map(|(name, method_scope)| {
        let mut c = client(200, 100, 250);
        c.strategy = StrategySpec::ModelBased(ModelConfig {
            method_scope,
            ..ModelConfig::default()
        });
        c.methods = vec![CHEAP, CHEAP, CHEAP, CHEAP, COSTLY];
        case(&[&name], config(vec![server.clone(); 5], vec![c]))
    })
    .collect()
}

/// Eleven aggressive clients on three replicas; the client under test
/// keeps its tight spec or renegotiates to 400 ms when the callback fires.
fn overload() -> Vec<Case> {
    [("keep tight spec", false), ("renegotiate to 400 ms", true)]
        .into_iter()
        .map(|(name, renegotiate)| {
            let mut clients: Vec<ClientSpec> = (0..11)
                .map(|_| {
                    let mut c = ClientSpec::paper(QosSpec::new(ms(300), 0.0).expect("valid"));
                    c.think_time = ms(50);
                    c.num_requests = 200;
                    c
                })
                .collect();
            let mut under_test = client(150, 100, 100);
            under_test.renegotiate_to =
                renegotiate.then(|| QosSpec::new(ms(400), 0.9).expect("valid spec"));
            clients.push(under_test);
            case(&[&name], config(vec![normal(60, 20); 3], clients))
        })
        .collect()
}

/// The two fastest replicas crash together at 10 s (or not), with
/// Algorithm 1 reserving the top one or the top two.
fn multi_crash() -> Vec<Case> {
    let mut cases = Vec::new();
    for crashes in [1usize, 2] {
        for double_crash in [false, true] {
            let servers = (0..6)
                .map(|i| ServerSpec {
                    crash: if i < 2 && double_crash {
                        CrashPlan::AtTime(Instant::from_secs(10))
                    } else {
                        CrashPlan::Never
                    },
                    ..normal(if i < 2 { 40 } else { 90 }, 15)
                })
                .collect();
            let mut c = client(200, 80, 250);
            c.strategy = StrategySpec::ModelBasedTolerating {
                model: ModelConfig::default(),
                crashes,
            };
            let crash = if double_crash { "double" } else { "none" };
            cases.push(case(&[&crashes, &crash], config(servers, vec![c])));
        }
    }
    cases
}

/// Six replicas failing at exponential MTBF and restarting after 5 s.
fn churn() -> Vec<Case> {
    [120u64, 60, 30, 15]
        .into_iter()
        .map(|mtbf| {
            let server = ServerSpec {
                crash: CrashPlan::Mtbf(Duration::from_secs(mtbf)),
                recover_after: Some(Duration::from_secs(5)),
                ..normal(70, 20)
            };
            let mut config = config(vec![server; 6], vec![client(250, 120, 250)]);
            config.max_virtual_time = Duration::from_secs(180);
            case(&[&mtbf], config)
        })
        .collect()
}

/// History-window vs. queue-scaled `W` while a background client bursts
/// eight requests every 2 s onto the first two replicas: right after a
/// burst the queue length says "busy" at once, the history still says
/// "fast" (and the reverse once the queue drains).
fn queue_estimator() -> Vec<Case> {
    let mut background = ClientSpec::paper(QosSpec::new(ms(5_000), 0.0).expect("valid"));
    background.arrivals = ArrivalModel::Bursts {
        size: 8,
        interval: ms(2_000),
    };
    background.num_requests = 400;
    background.strategy = StrategySpec::StaticK { k: 2 };
    background.window = 5;
    [
        ("history window (paper)", QueueEstimator::History),
        ("queue-scaled (ext.)", QueueEstimator::QueueScaled),
    ]
    .into_iter()
    .map(|(name, queue_estimator)| {
        let mut c = client(250, 120, 120);
        c.strategy = StrategySpec::ModelBased(ModelConfig {
            queue_estimator,
            ..ModelConfig::default()
        });
        let clients = vec![background.clone(), c];
        case(&[&name], config(vec![normal(100, 20); 3], clients))
    })
    .collect()
}

/// Two fast replicas crash, leaving one that alone makes the 250 ms
/// deadline only ~65% of the time; a manager may restore the pool from two
/// standbys.
fn manager() -> Vec<Case> {
    let server = |mean_ms: u64, crash| ServerSpec {
        crash,
        ..normal(mean_ms, mean_ms / 4)
    };
    [false, true]
        .into_iter()
        .map(|managed| {
            let servers = vec![
                server(70, CrashPlan::AtTime(Instant::from_secs(5))),
                server(70, CrashPlan::AtTime(Instant::from_secs(12))),
                server(230, CrashPlan::Never),
            ];
            let mut config = config(servers, vec![client(250, 100, 250)]);
            if managed {
                config.standby_servers = vec![server(70, CrashPlan::Never); 2];
                config.manager = Some(ManagerSpec {
                    target_replication: 3,
                    supervision: None,
                });
            }
            let pool = if managed {
                "managed (2 standbys)"
            } else {
                "unmanaged"
            };
            case(&[&pool], config)
        })
        .collect()
}

/// Pmf bucket widths from 0.1 ms to 20 ms.
fn bucket() -> Vec<Case> {
    [100u64, 1_000, 5_000, 20_000]
        .into_iter()
        .map(|bucket_us| {
            let bucket = Duration::from_micros(bucket_us);
            let mut c = client(140, 100, 200);
            c.strategy = StrategySpec::ModelBased(ModelConfig {
                bucket,
                ..ModelConfig::default()
            });
            case(&[&bucket], config(vec![ServerSpec::paper(); 5], vec![c]))
        })
        .collect()
}

/// A 30 ms replica stuck in an 8× burst for its first ~5 s next to two
/// steady 80 ms replicas, with and without probes of stale entries.
fn probes() -> Vec<Case> {
    let recovering = ServerSpec {
        load: LoadModel::MarkovModulated {
            states: vec![
                LoadState {
                    factor: 8.0,
                    mean_dwell: Duration::from_secs(5),
                },
                LoadState {
                    factor: 1.0,
                    mean_dwell: Duration::from_secs(100_000),
                },
            ],
        },
        ..normal(30, 8)
    };
    [("off (paper)", false), ("every 2 s (ext.)", true)]
        .into_iter()
        .map(|(name, probe)| {
            let mut c = client(200, 100, 300);
            c.probe_stale_after = probe.then(|| Duration::from_secs(2));
            let servers = vec![recovering.clone(), normal(80, 15), normal(80, 15)];
            case(&[&name], config(servers, vec![c]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_names_are_unique() {
        for (i, study) in STUDIES.iter().enumerate() {
            assert!(
                STUDIES[..i].iter().all(|s| s.name != study.name),
                "duplicate study name {}",
                study.name
            );
            assert!(std::ptr::eq(find(study.name).unwrap(), study));
        }
    }

    #[test]
    fn every_study_runs_at_one_seed_with_full_rows() {
        for study in &STUDIES {
            let table = study.run(1);
            assert_eq!(
                table.rows.len(),
                (study.cases)().len(),
                "{}: one row per case",
                study.name
            );
            for row in &table.rows {
                assert_eq!(row.len(), table.header.len(), "{}: {row:?}", study.name);
            }
        }
    }
}
