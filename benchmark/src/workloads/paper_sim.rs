//! `paper_sim`: the paper's §6 experiment on the classic `Simulation`.
//! One pass is the Fig. 4/5 grid — deadlines 100–200 ms × `Pc` ∈
//! {0.9, 0.5, 0} × five experiment seeds, 50 requests per client, `l` = 5
//! — and passes repeat identically until the window ends. It exercises
//! `TimingFaultHandler`, the strategy's own model cache, `replica`,
//! `group` and the sequential engine: the twin of everything
//! `gateway_plan` uses, and the only place the paper's quality numbers
//! (redundancy, timing-failure probability) are measured.

use std::time::{Duration as StdDuration, Instant as StdInstant};

use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::PerfReport;
use aqua_core::time::{Duration, Instant};
use aqua_gateway::TimingFaultHandler;
use aqua_obs::Obs;
use aqua_strategies::ModelBased;
use aqua_workload::{run_experiment_observed, ExperimentConfig, ExperimentReport};

use crate::alloc;
use crate::inputs::{self, ReplicaShape, ServiceDraws};
use crate::pass::{Pass, Role, Workload};
use crate::spans::Recorder;
use crate::stats::{LogHistogram, Summary};

const PROBABILITIES: [f64; 3] = [0.9, 0.5, 0.0];
const SEEDS_PER_CELL: usize = 5;
/// Sampling allowance on the per-cell check. A cell is 250 requests; over
/// 40 seeds the tightest cell (100 ms, `Pc` 0.9) read at most 0.076
/// against its budget of 0.10, and two more points put a spurious failure
/// five standard deviations away. The repo's own Fig. 5 test allows 0.05.
const FAILURE_ALLOWANCE: f64 = 0.02;

fn deadlines_ms() -> impl Iterator<Item = u64> {
    (100..=200).step_by(10)
}

/// One experiment of the grid.
struct Experiment {
    /// Index of its (deadline, `Pc`) cell.
    cell: usize,
    config: ExperimentConfig,
}

/// A (deadline, `Pc`) cell: what the paper plots one point for.
struct Cell {
    deadline_ms: u64,
    probability: f64,
}

/// The grid, built from the seed.
pub struct PaperSim {
    cells: Vec<Cell>,
    experiments: Vec<Experiment>,
    /// `(events, messages)` per experiment of the first whole pass,
    /// which later passes must reproduce.
    reference: Option<Vec<(u64, u64)>>,
    seed: u64,
}

/// What one pass over (part of) the grid measured.
#[derive(Default)]
struct GridRun {
    wall_s: f64,
    events: u64,
    requests: u64,
    /// Client under test, summed over the grid.
    tested_requests: u64,
    tested_timely: u64,
    tested_selected: u64,
    /// Simulated response times of the client under test, nanoseconds.
    response: LogHistogram,
    /// Wall milliseconds per experiment.
    experiment_ms: Vec<f64>,
    /// Wall nanoseconds per event, per experiment.
    ns_per_event: Vec<f64>,
    mismatched: u64,
}

impl PaperSim {
    /// Builds the grid's configurations from `seed` and runs one
    /// experiment per `Pc` to warm the allocator and caches.
    pub fn set_up(seed: u64) -> PaperSim {
        let seeds = inputs::experiment_seeds(seed, SEEDS_PER_CELL);
        let mut cells = Vec::new();
        let mut experiments = Vec::new();
        for probability in PROBABILITIES {
            for deadline_ms in deadlines_ms() {
                let qos = QosSpec::new(Duration::from_millis(deadline_ms), probability)
                    .expect("grid parameters are valid");
                for experiment_seed in &seeds {
                    experiments.push(Experiment {
                        cell: cells.len(),
                        config: ExperimentConfig::paper(qos, *experiment_seed),
                    });
                }
                cells.push(Cell {
                    deadline_ms,
                    probability,
                });
            }
        }
        let sim = PaperSim {
            cells,
            experiments,
            reference: None,
            seed,
        };
        let per_probability = sim.experiments.len() / PROBABILITIES.len();
        for experiment in sim.experiments.iter().step_by(per_probability) {
            std::hint::black_box(run_experiment_observed(&experiment.config, None));
        }
        sim
    }

    /// Runs every `stride`th experiment of the grid once, checking each.
    fn run_grid(
        &mut self,
        stride: usize,
        obs: Option<&Obs>,
        mut spans: Option<(&mut Recorder, u64)>,
        pass: &mut Pass,
    ) -> GridRun {
        let mut run = GridRun::default();
        let mut per_cell = vec![(0u64, 0u64); self.cells.len()];
        let mut counts = Vec::with_capacity(self.experiments.len());
        let root = spans.as_mut().and_then(|(recorder, request)| {
            recorder.open("workload.pass", recorder.now_ns(), None, *request)
        });
        let grid_started = StdInstant::now();
        for index in (0..self.experiments.len()).step_by(stride) {
            let experiment = &self.experiments[index];
            let span_start = spans.as_ref().map(|(recorder, _)| recorder.now_ns());
            let started = StdInstant::now();
            let report = run_experiment_observed(&experiment.config, obs);
            let wall = started.elapsed();
            if let (Some((recorder, request)), Some(start)) = (spans.as_mut(), span_start) {
                recorder.record(
                    "workload.experiment",
                    start,
                    recorder.now_ns(),
                    root,
                    *request,
                    1,
                );
            }
            pass.attempted += 1;
            self.check_experiment(index, &report, pass);
            run.events += report.events;
            run.experiment_ms.push(wall.as_secs_f64() * 1e3);
            run.ns_per_event
                .push(wall.as_nanos() as f64 / report.events.max(1) as f64);
            counts.push((report.events, report.messages));
            for client in &report.clients {
                run.requests += client.records.len() as u64;
            }
            let tested = report.client_under_test();
            let cell = &mut per_cell[experiment.cell];
            for record in &tested.records {
                run.tested_requests += 1;
                run.tested_selected += record.redundancy as u64;
                run.tested_timely += u64::from(record.timely);
                cell.0 += 1;
                cell.1 += u64::from(!record.timely);
                if let Some(response) = record.response_time {
                    run.response.record(response.as_nanos());
                }
            }
        }
        run.wall_s = grid_started.elapsed().as_secs_f64();
        if let (Some((recorder, _)), Some(root)) = (spans.as_mut(), root) {
            recorder.close(root, recorder.now_ns());
        }

        // The paper's claim, cell by cell: observed failure probability
        // stays within the budget the client asked for.
        let whole_grid = stride == 1;
        for (cell, (requests, failures)) in self.cells.iter().zip(&per_cell) {
            // A cell is judged on all five of its seeds, never on a
            // background pass's one.
            if !whole_grid {
                break;
            }
            let observed = *failures as f64 / *requests as f64;
            let budget = 1.0 - cell.probability + FAILURE_ALLOWANCE;
            if observed > budget {
                pass.fail(|| {
                    format!(
                        "cell ({} ms, Pc {}): observed failure probability {observed:.3} \
                         over {requests} requests exceeds {budget:.2}",
                        cell.deadline_ms, cell.probability
                    )
                });
            }
        }

        // Later passes replay the first; a differing cell is the known
        // wall-clock δ leak (ROADMAP item 1), reported, not failed.
        match &self.reference {
            Some(reference) if whole_grid => {
                run.mismatched = reference
                    .iter()
                    .zip(&counts)
                    .filter(|(a, b)| a != b)
                    .count() as u64;
            }
            None if whole_grid => self.reference = Some(counts),
            _ => {}
        }
        run
    }

    /// Every client of an experiment must have issued all its requests.
    fn check_experiment(&self, index: usize, report: &ExperimentReport, pass: &mut Pass) {
        let config = &self.experiments[index].config;
        for (client, spec) in report.clients.iter().zip(&config.clients) {
            if client.records.len() as u64 != spec.num_requests {
                pass.fail(|| {
                    format!(
                        "experiment {index}: client {} finished {} of {} requests",
                        client.index,
                        client.records.len(),
                        spec.num_requests
                    )
                });
            }
        }
    }
}

/// Median-of-passes summaries shared by both passes.
fn rate_summaries(runs: &[GridRun], pass: &mut Pass) {
    let events_per_s: Vec<f64> = runs.iter().map(|r| r.events as f64 / r.wall_s).collect();
    let calls_per_s: Vec<f64> = runs.iter().map(|r| r.requests as f64 / r.wall_s).collect();
    let events: u64 = runs.iter().map(|r| r.events).sum();
    let requests: u64 = runs.iter().map(|r| r.requests).sum();
    let rate = Summary::over(&events_per_s, events);
    pass.rate = rate.value;
    pass.set("sim_events_per_s", rate);
    pass.set("calls_per_s", Summary::over(&calls_per_s, requests));
}

impl Workload for PaperSim {
    fn measure(&mut self, length: StdDuration) -> Pass {
        let mut pass = Pass::default();
        let started = StdInstant::now();
        let cpu_before = crate::host::cpu_seconds();
        let mut runs = Vec::new();
        while runs.is_empty() || started.elapsed() < length {
            runs.push(self.run_grid(1, None, None, &mut pass));
        }
        let cpu_s = crate::host::cpu_seconds() - cpu_before;
        rate_summaries(&runs, &mut pass);
        let requests: u64 = runs.iter().map(|r| r.requests).sum();
        pass.set(
            "cpu_us_per_call",
            Summary::exact(cpu_s * 1e6 / requests.max(1) as f64, requests),
        );
        // Quality numbers come from the first pass: simulated time, the
        // same for every pass up to the δ leak.
        let first = &runs[0];
        let tested = first.tested_requests.max(1) as f64;
        pass.set(
            "timely_share",
            Summary::exact(first.tested_timely as f64 / tested, first.tested_requests),
        );
        pass.set(
            "mean_redundancy",
            Summary::exact(first.tested_selected as f64 / tested, first.tested_requests),
        );
        pass.set(
            "call_p50_us",
            Summary::exact(first.response.quantile_us(0.5), first.response.count()),
        );
        pass.set(
            "call_p99_us",
            Summary::exact(first.response.quantile_us(0.99), first.response.count()),
        );
        pass
    }

    fn trace(&mut self, length: StdDuration, role: Role, recorder: &mut Recorder) -> Pass {
        let mut pass = Pass::default();
        // A background pass runs the first experiment seed of every cell:
        // a fifth of the grid, the same code paths.
        let stride = match role {
            Role::Named => 1,
            Role::Background => SEEDS_PER_CELL,
        };
        // Half the time for passes with a span per experiment, three
        // tenths for passes with the program's observability attached
        // (which triples the cost of an event, so it gets passes of its
        // own), a fifth for the handler probe.
        let started = StdInstant::now();
        let allocations = alloc::Meter::start();
        let mut runs = Vec::new();
        while runs.is_empty() || started.elapsed() < length / 2 {
            let spans = Some((&mut *recorder, runs.len() as u64));
            runs.push(self.run_grid(stride, None, spans, &mut pass));
        }
        let requests: u64 = runs.iter().map(|r| r.requests).sum();
        allocations.report(requests, &mut pass);

        let obs = Obs::metrics_only();
        let mut observed = Vec::new();
        while observed.is_empty() || started.elapsed() < length * 4 / 5 {
            observed.push(self.run_grid(stride, Some(&obs), None, &mut pass));
        }
        rate_summaries(&observed, &mut pass);

        let ns_per_event: Vec<f64> = runs.iter().flat_map(|r| r.ns_per_event.clone()).collect();
        let events: u64 = runs.iter().map(|r| r.events).sum();
        pass.set(
            "sim.simulation.ns_per_event",
            Summary::over(&ns_per_event, events),
        );
        pass.set(
            "sim.simulation.events_per_pass",
            Summary::exact(runs[0].events as f64, runs.len() as u64),
        );
        pass.set(
            "workload.experiment.replay_mismatch_cells",
            Summary::exact(
                runs.iter().map(|r| r.mismatched).sum::<u64>() as f64,
                runs.len() as u64,
            ),
        );
        let mut experiment_ms = LogHistogram::new();
        for ms in runs.iter().flat_map(|r| &r.experiment_ms) {
            experiment_ms.record((ms * 1e6) as u64);
        }
        for (name, q) in [
            ("workload.experiment.cell_ms_p50", 0.5),
            ("workload.experiment.cell_ms_p99", 0.99),
        ] {
            if let Some(ns) = experiment_ms.quantile(q) {
                pass.set(name, Summary::exact(ns / 1e6, experiment_ms.count()));
            }
        }

        // The program's own counters, over every client of every
        // experiment: the paper's δ and the model cache's hit ratio.
        let registry = obs.registry();
        let overhead = aqua_obs::metrics::Histogram::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for client in ["0", "1"] {
            let labels = [("client", client)];
            overhead.merge(&registry.histogram("aqua_selection_overhead_ns", &labels));
            hits += registry
                .counter("aqua_model_cache_hits_total", &labels)
                .get();
            misses += registry
                .counter("aqua_model_cache_misses_total", &labels)
                .get();
        }
        if let Some(delta) = overhead.quantile(0.5) {
            pass.set(
                "gateway.timing.delta_ns_p50",
                Summary::exact(delta as f64, overhead.count()),
            );
        }
        if hits + misses > 0 {
            pass.set(
                "core.model.cache_hit_ratio",
                Summary::exact(hits as f64 / (hits + misses) as f64, hits + misses),
            );
        }

        timing_handler_probe(self.seed, length / 5, &mut pass);
        pass
    }
}

/// Drives a `TimingFaultHandler` directly, the way `gateway_plan` drives
/// the concurrent one, on the paper's replica shape: seven replicas,
/// Normal(100 ms, σ 50 ms), `l` = 5. The pair `gateway.timing.*` /
/// `gateway.concurrent.*` is what collapsing the twin handlers must hold.
fn timing_handler_probe(seed: u64, length: StdDuration, pass: &mut Pass) {
    const REPLICAS: usize = 7;
    let shape = ReplicaShape {
        base_mean: Duration::from_millis(100),
        mean_step: Duration::ZERO,
        spread: 0.5,
        max_queue: 0,
    };
    let draws = ServiceDraws::generate(seed, REPLICAS, shape);
    let qos = QosSpec::new(Duration::from_millis(150), 0.9).expect("constant spec is valid");
    let mut handler = TimingFaultHandler::new(qos, 5, Box::new(ModelBased::default()));
    for index in 0..REPLICAS {
        handler
            .repository_mut()
            .insert_replica(ReplicaId::new(index as u64));
    }
    let mut plan_ns = LogHistogram::new();
    let mut reply_ns = LogHistogram::new();
    let ends = StdInstant::now() + length;
    let mut call = 0u64;
    while call < 64 || StdInstant::now() < ends {
        let now = Instant::from_nanos(call * 10_000);
        let started = StdInstant::now();
        let plan = handler.plan_request_for(now, None);
        plan_ns.record(started.elapsed().as_nanos() as u64);
        for id in plan.replicas.iter() {
            let report =
                PerfReport::new(draws.service(id.index() as usize, call), Duration::ZERO, 0);
            let started = StdInstant::now();
            std::hint::black_box(handler.on_reply(now, plan.seq, *id, report));
            reply_ns.record(started.elapsed().as_nanos() as u64);
        }
        call += 1;
    }
    for (name, hist) in [
        ("gateway.timing.plan_ns_p50", &plan_ns),
        ("gateway.timing.on_reply_ns_p50", &reply_ns),
    ] {
        if let Some(ns) = hist.quantile(0.5) {
            pass.set(name, Summary::exact(ns, hist.count()));
        }
    }
}
