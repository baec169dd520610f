//! `geo_sim`: `examples/scenarios/geo_wan_10k.json` on the sharded engine
//! with one worker, repeated until the window ends. No gateway or runtime
//! code runs, so their changes must leave it flat; it uses the simulator
//! differently from `paper_sim` — the other engine, ten thousand
//! open-loop clients, a geo topology — so an engine change that helps
//! one and costs the other shows.
//!
//! One worker is the end-to-end figure because two-worker wall time on a
//! shared two-core host is bimodal (it depends on whether the second core
//! is free); two workers, and the classic engine on the same scenario,
//! are per-layer metrics of the traced pass.

use std::time::{Duration as StdDuration, Instant as StdInstant};

use aqua_core::time::Instant;
use aqua_obs::Obs;
use aqua_workload::{ScaleClient, Scenario};
use lan_sim::NodeId;

use crate::alloc;
use crate::inputs;
use crate::pass::{Pass, Role, Workload};
use crate::spans::Recorder;
use crate::stats::{self, LogHistogram, Summary};

/// The scenario file, relative to the checkout root the benchmark runs
/// from.
const SCENARIO_PATH: &str = "examples/scenarios/geo_wan_10k.json";
/// A background pass simulates this share of the scenario's duration.
const BACKGROUND_SHARE: u32 = 4;

/// The parsed scenario, reseeded from `--seed`.
pub struct GeoSim {
    scenario: Scenario,
    text: String,
}

/// What one repetition on the sharded engine produced.
#[derive(Debug, Clone)]
struct Repetition {
    wall_s: f64,
    build_s: f64,
    events: u64,
    rounds: u64,
    requests: u64,
    replies: u64,
    messages: u64,
    digest: u64,
    /// Each client's mean simulated first-reply latency, nanoseconds.
    client_latency: LogHistogram,
    /// Events per shard, when asked for.
    shard_events: Vec<u64>,
}

impl Repetition {
    /// The fields that must be identical for every worker count and every
    /// repetition of one seed.
    fn history(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.digest,
            self.events,
            self.requests,
            self.replies,
            self.messages,
        )
    }
}

impl GeoSim {
    /// Reads and parses the scenario, reseeds it, and runs a short
    /// warm-up on it.
    pub fn set_up(seed: u64) -> Result<GeoSim, String> {
        let text = std::fs::read_to_string(SCENARIO_PATH)
            .map_err(|e| format!("read {SCENARIO_PATH} (run from the repo root): {e}"))?;
        let mut scenario = Scenario::from_json(&text)?;
        scenario.seed = inputs::scenario_seed(seed);
        let geo = GeoSim { scenario, text };
        let mut warm = geo.scenario.clone();
        warm.duration = warm.duration / u64::from(BACKGROUND_SHARE);
        std::hint::black_box(warm.run(1));
        Ok(geo)
    }

    /// Builds and runs `scenario` on `workers` shards, and collects what
    /// `Scenario::run` collects plus per-client latencies.
    fn repeat(scenario: &Scenario, workers: usize, shard_events: bool) -> Repetition {
        let started = StdInstant::now();
        let mut sim = scenario.build(workers);
        let build_s = started.elapsed().as_secs_f64();
        sim.run_until(Instant::EPOCH.saturating_add(scenario.duration));
        let wall_s = started.elapsed().as_secs_f64();
        let mut repetition = Repetition {
            wall_s,
            build_s,
            events: sim.events_processed(),
            rounds: sim.rounds(),
            requests: 0,
            replies: 0,
            messages: sim.messages_sent(),
            digest: sim.trace_digest(),
            client_latency: LogHistogram::new(),
            shard_events: Vec::new(),
        };
        for index in 0..scenario.node_count() {
            if let Some(client) = sim.node::<ScaleClient>(NodeId::new(index as u32)) {
                repetition.requests += client.sent;
                repetition.replies += client.received;
                if let Some(mean) = client.total_latency_ns.checked_div(client.received) {
                    repetition.client_latency.record(mean);
                }
            }
        }
        if shard_events {
            let obs = Obs::metrics_only();
            sim.export_obs(&obs);
            repetition.shard_events = (0..sim.effective_workers())
                .map(|shard| {
                    obs.registry()
                        .counter("sim_shard_events_total", &[("shard", &shard.to_string())])
                        .get()
                })
                .collect();
        }
        repetition
    }

    /// Checks a repetition against the first of its seed.
    fn check(first: &Repetition, this: &Repetition, what: &str, pass: &mut Pass) {
        pass.attempted += 1;
        if this.history() != first.history() {
            pass.fail(|| {
                format!(
                    "{what}: (digest, events, requests, replies, messages) = {:?}, first was {:?}",
                    this.history(),
                    first.history()
                )
            });
        } else if this.replies == 0 {
            pass.fail(|| format!("{what}: no request was answered"));
        }
    }
}

impl Workload for GeoSim {
    fn measure(&mut self, length: StdDuration) -> Pass {
        let mut pass = Pass::default();
        let started = StdInstant::now();
        let cpu_before = crate::host::cpu_seconds();
        let mut repetitions: Vec<Repetition> = Vec::new();
        while repetitions.is_empty() || started.elapsed() < length {
            let repetition = GeoSim::repeat(&self.scenario, 1, false);
            GeoSim::check(
                repetitions.first().unwrap_or(&repetition),
                &repetition,
                "repetition",
                &mut pass,
            );
            repetitions.push(repetition);
        }
        let cpu_s = crate::host::cpu_seconds() - cpu_before;
        let over = |f: &dyn Fn(&Repetition) -> f64, samples: u64| {
            let values: Vec<f64> = repetitions.iter().map(f).collect();
            Summary::over(&values, samples)
        };
        let first = &repetitions[0];
        let count = repetitions.len() as u64;
        let events = over(&|r| r.events as f64 / r.wall_s, first.events * count);
        pass.rate = events.value;
        pass.set("sim_events_per_s", events);
        pass.set(
            "calls_per_s",
            over(&|r| r.replies as f64 / r.wall_s, first.replies * count),
        );
        pass.set(
            "cpu_us_per_call",
            Summary::exact(
                cpu_s * 1e6 / (first.replies * count).max(1) as f64,
                first.replies * count,
            ),
        );
        // Simulated time, identical in every repetition: what the
        // scenario's clients saw.
        let latency = &first.client_latency;
        pass.set(
            "call_p50_us",
            Summary::exact(latency.quantile_us(0.5), latency.count()),
        );
        pass.set(
            "call_p99_us",
            Summary::exact(latency.quantile_us(0.99), latency.count()),
        );
        pass.set(
            "timely_share",
            Summary::exact(
                first.replies as f64 / first.requests.max(1) as f64,
                first.requests,
            ),
        );
        // Request messages per request: every message that is not a reply.
        pass.set(
            "mean_redundancy",
            Summary::exact(
                (first.messages - first.replies) as f64 / first.requests.max(1) as f64,
                first.requests,
            ),
        );
        pass
    }

    fn trace(&mut self, length: StdDuration, role: Role, recorder: &mut Recorder) -> Pass {
        let mut pass = Pass::default();
        let parse_started = StdInstant::now();
        let parsed = Scenario::from_json(&self.text);
        let parse_ms = parse_started.elapsed().as_secs_f64() * 1e3;
        if let Err(what) = parsed {
            pass.attempted += 1;
            pass.fail(|| format!("scenario no longer parses: {what}"));
        }
        pass.set("workload.scenario.parse_ms", Summary::exact(parse_ms, 1));

        let mut scenario = self.scenario.clone();
        if role == Role::Background {
            scenario.duration = scenario.duration / u64::from(BACKGROUND_SHARE);
        }
        let started = StdInstant::now();
        let allocations = alloc::Meter::start();
        let mut one: Vec<Repetition> = Vec::new();
        let mut two: Vec<Repetition> = Vec::new();
        let mut classic_ns_per_event = Vec::new();
        let mut request = 0u64;
        // Rounds of W = 1, W = 2 and the classic engine until the time is
        // up; each at least once.
        while one.is_empty() || started.elapsed() < length {
            for workers in [1usize, 2] {
                let span_start = recorder.now_ns();
                let repetition = GeoSim::repeat(&scenario, workers, workers == 2);
                let span_end = recorder.now_ns();
                let root = recorder.record(
                    "sim.sharded.repetition",
                    span_start,
                    span_end,
                    None,
                    request,
                    workers as u32,
                );
                let build_end = span_start + (repetition.build_s * 1e9) as u64;
                recorder.record(
                    "workload.scenario.build",
                    span_start,
                    build_end.min(span_end),
                    root,
                    request,
                    1,
                );
                request += 1;
                let first = one.first().unwrap_or(&repetition);
                GeoSim::check(first, &repetition, &format!("W = {workers}"), &mut pass);
                if workers == 1 {
                    one.push(repetition);
                } else {
                    two.push(repetition);
                }
            }
            let classic_started = StdInstant::now();
            let mut classic = scenario.build_classic();
            classic.run_until(Instant::EPOCH.saturating_add(scenario.duration));
            classic_ns_per_event.push(
                classic_started.elapsed().as_nanos() as f64
                    / classic.events_processed().max(1) as f64,
            );
        }

        let events: u64 = one.iter().chain(&two).map(|r| r.events).sum();
        let replies: u64 = one.iter().chain(&two).map(|r| r.replies).sum();
        allocations.report(replies, &mut pass);
        let rate: Vec<f64> = one.iter().map(|r| r.events as f64 / r.wall_s).collect();
        pass.rate = stats::median(&rate).unwrap_or(f64::NAN);

        let ns_per_event: Vec<f64> = one
            .iter()
            .map(|r| r.wall_s * 1e9 / r.events as f64)
            .collect();
        pass.set(
            "sim.sharded.ns_per_event_w1",
            Summary::over(&ns_per_event, events),
        );
        pass.set(
            "sim.sharded.events_total",
            Summary::exact(one[0].events as f64, one.len() as u64),
        );
        pass.set(
            "sim.sharded.rounds_w2",
            Summary::exact(two[0].rounds as f64, two.len() as u64),
        );
        let best = |runs: &[Repetition]| runs.iter().map(|r| r.wall_s).fold(f64::MAX, f64::min);
        pass.set(
            "sim.sharded.w2_over_w1_wall",
            Summary::exact(best(&two) / best(&one), two.len() as u64),
        );
        let round_us: Vec<f64> = two
            .iter()
            .map(|r| r.wall_s * 1e6 / r.rounds.max(1) as f64)
            .collect();
        pass.set(
            "sim.sharded.round_us_w2",
            Summary::over(&round_us, two[0].rounds * two.len() as u64),
        );
        let shards = &two[0].shard_events;
        let mean = shards.iter().sum::<u64>() as f64 / shards.len().max(1) as f64;
        let max = shards.iter().copied().max().unwrap_or(0) as f64;
        pass.set(
            "sim.sharded.shard_imbalance_w2",
            Summary::exact(max / mean, shards.len() as u64),
        );
        pass.set(
            "sim.simulation.geo_ns_per_event",
            Summary::over(&classic_ns_per_event, classic_ns_per_event.len() as u64),
        );
        let build_ms: Vec<f64> = one.iter().chain(&two).map(|r| r.build_s * 1e3).collect();
        pass.set(
            "workload.scenario.build_ms",
            Summary::over(&build_ms, build_ms.len() as u64),
        );
        pass
    }
}
