//! Byte-exact golden outputs under `tests/golden/` at the repo root.
//!
//! A golden is what a seeded run prints, committed: a change that moves
//! one byte of it changed a plan. To accept a deliberate move, regenerate
//! the file (see [`regenerate`]) and say why in the change.
//!
//! The simulator's plans read a modelled δ, never the host's clock, so
//! these hold on a loaded host too.
//!
//! Beside the printed tables sit three *projections* of retry-armed runs
//! under faults: each request's record, the handler's counters and the
//! journal's ordered `(type, seq, outcome)`. They pin every retry,
//! give-up and abandon of the client's request lifecycle, which no
//! printed table shows one by one.
//!
//! Last, a work count: every experiment of the Fig. 4/5 grid with the
//! events it processed, the messages it sent, when it ended, and the
//! timers and deliveries of each role. A change that only makes the
//! simulator faster must leave it byte-identical.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use aqua_core::qos::QosSpec;
use aqua_core::time::{Duration, Instant};
use aqua_replica::ServiceTimeModel;
use aqua_workload::{
    run_experiment, run_experiment_observed, ClientSpec, ExperimentConfig, FaultPlan, NetworkSpec,
    ServerSpec, StrategySpec,
};

/// The stdout of the figure binary at `bin` run with `args`, which must
/// exit 0. No observability sink is attached.
fn run(bin: &str, args: &[&str]) -> Vec<u8> {
    let out = Command::new(bin)
        .args(args)
        .env_remove("AQUA_OBS")
        .output()
        .expect("the binary runs");
    assert!(
        out.status.success(),
        "{bin} {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Asserts that `out`, printed by `command`, is `tests/golden/<name>`.
fn assert_golden(command: &str, out: &[u8], name: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    let expected = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        out == expected,
        "`{command}` moved from its golden:\n--- golden\n{}\n--- now\n{}",
        String::from_utf8_lossy(&expected),
        String::from_utf8_lossy(out)
    );
}

/// A printed golden: its file, the binary that prints it and its
/// arguments. Regenerate one with `<binary> <arguments> >
/// tests/golden/<file>`, or all with the `regenerate` test below.
type Printed = (&'static str, &'static str, &'static [&'static str]);

/// The printed goldens.
fn printed() -> [Printed; 6] {
    let aqua_lab = env!("CARGO_BIN_EXE_aqua_lab");
    [
        (
            "queue_estimator.txt",
            aqua_lab,
            &["study", "queue_estimator", "3"],
        ),
        (
            "fig4_selection.txt",
            env!("CARGO_BIN_EXE_fig4_selection"),
            &["3"],
        ),
        (
            "fig5_failures.txt",
            env!("CARGO_BIN_EXE_fig5_failures"),
            &["3"],
        ),
        (
            "chaos_experiment.txt",
            env!("CARGO_BIN_EXE_chaos_experiment"),
            &["--seed", "7"],
        ),
        ("overload.txt", aqua_lab, &["study", "overload", "3"]),
        ("crash.txt", aqua_lab, &["study", "crash", "3"]),
    ]
}

/// Asserts that the `index`th printed golden still prints its file.
fn assert_printed(index: usize) {
    let (name, bin, args) = printed()[index];
    let binary = Path::new(bin).file_name().expect("a binary path");
    let command = format!("{} {}", binary.to_string_lossy(), args.join(" "));
    assert_golden(&command, &run(bin, args), name);
}

/// The simulator's `QueueScaled` path end to end: every plan publishes
/// one view, whose tables at queues of 2–5 sum over powers of `S`
/// refreshed from the view before.
#[test]
fn queue_estimator_study_matches_its_golden() {
    assert_printed(0);
}

/// Fig. 4, the replicas selected per deadline and `Pc`.
#[test]
fn fig4_matches_its_golden() {
    assert_printed(1);
}

/// Fig. 5, the timing failures per deadline and `Pc`.
#[test]
fn fig5_matches_its_golden() {
    assert_printed(2);
}

/// Every scheduled fault kind against the retry-armed client: crash
/// windows, pauses, delay spikes and drops.
#[test]
fn chaos_experiment_matches_its_golden() {
    assert_printed(3);
}

/// Twelve clients on three replicas: the deepest replica queues of the
/// paper's scenarios (over 300 requests).
#[test]
fn overload_study_matches_its_golden() {
    assert_printed(4);
}

/// A primary crash under Algorithm 1, an unreplicated baseline and the
/// passive handler, whose armed retry the view change that evicts the
/// primary brings forward.
#[test]
fn crash_study_matches_its_golden() {
    assert_printed(5);
}

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// `crates/workload/tests/fault_injection.rs`'s configuration: one
/// client thinking 200 ms, replica `i` serving in a fixed `20 + 20 i` ms.
fn fault_config(qos: QosSpec, n_servers: u64, requests: u64, seed: u64) -> ExperimentConfig {
    let mut client = ClientSpec::paper(qos);
    client.num_requests = requests;
    client.think_time = ms(200);
    ExperimentConfig {
        seed,
        network: NetworkSpec::paper(),
        servers: (0..n_servers)
            .map(|i| ServerSpec {
                service: ServiceTimeModel::Deterministic(ms(20 + 20 * i)),
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

/// `paused_selection_is_rescued_by_deadline_retry`: `FastestMean { k: 1 }`
/// pinned to replica 0, which pauses from 3 s to 10 s; retry after 200 ms.
fn pause_retry() -> ExperimentConfig {
    let mut cfg = fault_config(QosSpec::new(ms(100), 0.0).unwrap(), 3, 30, 21);
    cfg.clients[0].strategy = StrategySpec::FastestMean { k: 1 };
    cfg.clients[0].retry_after = Some(ms(200));
    cfg.faults = FaultPlan::new().pause(0, Instant::from_secs(3), Duration::from_secs(7));
    cfg
}

/// `fault_plans_are_deterministic_per_seed`: a crash, a degradation and
/// message drops on three of four replicas; retry after 300 ms.
fn fault_mix() -> ExperimentConfig {
    let mut cfg = fault_config(QosSpec::new(ms(200), 0.9).unwrap(), 4, 20, 47);
    cfg.clients[0].retry_after = Some(ms(300));
    cfg.faults = FaultPlan::new()
        .crash_recover(1, Instant::from_secs(2), Duration::from_secs(1))
        .degrade(2, Instant::from_secs(1), Duration::from_secs(4), 3.0)
        .drop_messages(3, Instant::from_secs(1), Duration::from_secs(5), 0.3);
    cfg
}

/// Runs `cfg` with an in-memory journal and appends its projection,
/// headed `## label`, to `out`: the client under test's records `(seq,
/// timely, response time in ns, redundancy)`, its `HandlerStats`, then
/// the journal's ordered `(type, seq, outcome)` (`-` where a record has
/// no such field). The simulator's trace-ring records (`sim_event`, a
/// fixed number per run) carry neither and are left out.
fn project(out: &mut String, label: &str, cfg: &ExperimentConfig) {
    let (obs, reader) = aqua_obs::Obs::in_memory();
    let report = run_experiment_observed(cfg, Some(&obs));
    let client = report.client_under_test();
    let _ = writeln!(
        out,
        "## {label}\n# records: seq timely response_ns redundancy"
    );
    for r in &client.records {
        let response = r
            .response_time
            .map_or_else(|| "-".to_string(), |t| t.as_nanos().to_string());
        let _ = writeln!(out, "{} {} {response} {}", r.seq, r.timely, r.redundancy);
    }
    let _ = writeln!(out, "# stats\n{:?}", client.stats);
    out.push_str("# journal: type seq outcome\n");
    for line in reader.lines() {
        let value = aqua_obs::parse::parse(&line).expect("the journal writes JSON");
        let field = |key: &str| match value.get(key) {
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .or_else(|| v.as_u64().map(|n| n.to_string()))
                .unwrap_or_else(|| "-".to_string()),
            None => "-".to_string(),
        };
        let kind = field("type");
        if kind != "sim_event" {
            let _ = writeln!(out, "{kind} {} {}", field("seq"), field("outcome"));
        }
    }
}

/// Seed 21 with its retry, then without it: the retries rescue every
/// paused request, and without them the same requests give up.
fn pause_retry_projection() -> String {
    let mut out = String::new();
    let mut cfg = pause_retry();
    project(&mut out, "retry after 200 ms", &cfg);
    cfg.clients[0].retry_after = None;
    project(&mut out, "no retry", &cfg);
    out
}

/// Seed 47.
fn fault_mix_projection() -> String {
    let mut out = String::new();
    project(&mut out, "retry after 300 ms", &fault_mix());
    out
}

/// Every chaos scenario at seed 7, in table order.
fn chaos_projection() -> String {
    let mut out = String::new();
    for scenario in aqua_bench::chaos::scenarios() {
        project(
            &mut out,
            scenario.label,
            &aqua_bench::chaos::config(7, scenario.faults),
        );
    }
    out
}

/// Every experiment of `fig4_selection 3`'s grid, in the order it runs
/// them: `Pc`, seed, deadline, then the simulator's work — events
/// processed, messages sent, the virtual time the run ended at, and the
/// timers fired and messages delivered at the coordinator, the servers
/// and the clients.
fn paper_grid_counts() -> String {
    let mut out = String::from(
        "# pc seed deadline_ms events messages ended_at_ns \
         coord_timers coord_delivered server_timers server_delivered \
         client_timers client_delivered\n",
    );
    for pc in aqua_bench::paper_eval::PAPER_PROBABILITIES {
        for seed in 1..=3 {
            for deadline in aqua_bench::paper_eval::paper_deadlines() {
                let qos = QosSpec::new(ms(deadline), pc).expect("the grid's QoS is valid");
                let report = run_experiment(&ExperimentConfig::paper(qos, seed));
                let _ = write!(
                    out,
                    "{pc} {seed} {deadline} {} {} {}",
                    report.events,
                    report.messages,
                    report.ended_at.as_nanos()
                );
                let work = report.work;
                for role in [work.coordinator, work.servers, work.clients] {
                    let _ = write!(out, " {} {}", role.timers_fired, role.delivered);
                }
                out.push('\n');
            }
        }
    }
    out
}

/// A golden file and the projection it holds.
type Projection = (&'static str, fn() -> String);

/// The projections and their golden files.
fn projections() -> [Projection; 4] {
    [
        ("projection_pause_retry.txt", pause_retry_projection),
        ("projection_fault_mix.txt", fault_mix_projection),
        ("projection_chaos.txt", chaos_projection),
        ("paper_grid_counts.txt", paper_grid_counts),
    ]
}

/// A paused pinned replica rescued by retries (seed 21).
#[test]
fn the_pause_retry_projection_matches_its_golden() {
    let (name, make) = projections()[0];
    assert_golden(
        "projection of fault_injection seed 21",
        make().as_bytes(),
        name,
    );
}

/// Crash, degradation and drops with retries armed (seed 47).
#[test]
fn the_fault_mix_projection_matches_its_golden() {
    let (name, make) = projections()[1];
    assert_golden(
        "projection of fault_injection seed 47",
        make().as_bytes(),
        name,
    );
}

/// `chaos_experiment --seed 7`, request by request.
#[test]
fn the_chaos_projection_matches_its_golden() {
    let (name, make) = projections()[2];
    assert_golden(
        "projection of chaos_experiment --seed 7",
        make().as_bytes(),
        name,
    );
}

/// The simulator's work over the Fig. 4/5 grid at 3 seeds.
#[test]
fn the_paper_grid_counts_match_their_golden() {
    let (name, make) = projections()[3];
    assert_golden(
        "work counts of fig4_selection 3's grid",
        make().as_bytes(),
        name,
    );
}

/// Rewrites every golden from the current code. Run it only for a
/// deliberate move, and say why in the change:
/// `cargo test -p aqua-bench --test golden -- --ignored regenerate`.
#[test]
#[ignore = "writes tests/golden; run by hand for a deliberate move"]
fn regenerate() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(dir.join(name), bytes).expect("tests/golden is writable");
    };
    for (name, bin, args) in printed() {
        write(name, &run(bin, args));
    }
    for (name, make) in projections() {
        write(name, make().as_bytes());
    }
}
