//! `gateway_plan` and `gateway_churn`: the concurrent handler driven in
//! process, with replicas that answer from seeded draw tables and a
//! virtual clock, so the work per call is a function of the seed alone.
//!
//! The two workloads are the same layers used in opposite ways. `plan`
//! steps the clock 10 µs per call: the handler's 500 µs publish debounce
//! admits one republish per 50 calls, and cached `CdfTable` lookups,
//! Algorithm 1 and the pending shards do the work. `churn` steps it 1 ms
//! and pushes a perf update from every replica before each plan: every
//! call republishes, and window pushes, pmf convolution, `CdfTable`
//! builds and the snapshot swap do the work.

use std::time::Duration as StdDuration;

use aqua_core::model::{ModelConfig, QueueEstimator};
use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::PerfReport;
use aqua_core::select::combined_probability;
use aqua_core::snapshot::method_slot;
use aqua_core::time::{Duration, Instant};
use aqua_gateway::{ConcurrentHandler, ReplyOutcome};
use aqua_obs::Obs;
use aqua_strategies::{ModelBased, SelectionStrategy, SnapshotPlanSpec};

use crate::alloc;
use crate::inputs::{ReplicaShape, ServiceDraws};
use crate::pass::{Pass, Role, Workload};
use crate::replay::{self, Replayer, SPANS_PER_REPLAY};
use crate::spans::Recorder;
use crate::stats::{LogHistogram, Summary};
use crate::window::{closed_loop, Counts};

/// Every `SAMPLE_EVERY`th call has its plan checked against the
/// published view and, in a traced pass, its spans kept and its layers
/// replayed.
pub const SAMPLE_EVERY: u64 = 64;

/// The locks `ConcurrentHandler::attach_obs` instruments.
const HANDLER_LOCKS: [&str; 3] = ["pending-shard", "ingest-shard", "publish"];

/// What distinguishes the two gateway workloads.
#[derive(Debug)]
pub struct Spec {
    replicas: usize,
    window: usize,
    clock_step: Duration,
    shape: ReplicaShape,
    queue_estimator: QueueEstimator,
    /// One passive `on_perf_update` per replica before each plan.
    perf_updates: bool,
}

/// `gateway_plan`: 8 replicas whose means (110–180 ms) straddle the
/// 150 ms deadline, so no replica meets `Pc` alone and Algorithm 1 has a
/// real choice to make.
pub const PLAN: Spec = Spec {
    replicas: 8,
    window: 20,
    clock_step: Duration::from_micros(10),
    shape: ReplicaShape {
        base_mean: Duration::from_millis(110),
        mean_step: Duration::from_millis(10),
        spread: 0.3,
        max_queue: 0,
    },
    queue_estimator: QueueEstimator::History,
    perf_updates: false,
};

/// `gateway_churn`: 16 replicas with queues of 0–4 and the q-fold
/// `QueueScaled` estimator; service means of 30–75 ms put a queued
/// response on either side of the deadline as the queue moves.
pub const CHURN: Spec = Spec {
    replicas: 16,
    window: 100,
    clock_step: Duration::from_millis(1),
    shape: ReplicaShape {
        base_mean: Duration::from_millis(30),
        mean_step: Duration::from_millis(3),
        spread: 0.3,
        max_queue: 4,
    },
    queue_estimator: QueueEstimator::QueueScaled,
    perf_updates: true,
};

const DEADLINE: Duration = Duration::from_millis(150);

fn qos() -> QosSpec {
    QosSpec::new(DEADLINE, 0.9).expect("constant spec is valid")
}

/// The handler layers a call passes through, as the traced pass names
/// them.
#[derive(Debug, Clone, Copy)]
enum Layer {
    PerfUpdate,
    Plan,
    OnReply,
}

const LAYERS: usize = 3;

impl Layer {
    fn span_name(self) -> &'static str {
        match self {
            Layer::PerfUpdate => "gateway.concurrent.perf_update",
            Layer::Plan => "gateway.concurrent.plan",
            Layer::OnReply => "gateway.concurrent.on_reply",
        }
    }
}

/// What a call reports to around each layer call. The untraced pass uses
/// the empty implementation, which compiles to nothing.
trait Hooks {
    fn begin(&mut self, _request: u64) {}
    #[inline]
    fn layer<R>(&mut self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }
    fn end(
        &mut self,
        _handler: &ConcurrentHandler,
        _selected: &[ReplicaId],
        _report_of: &dyn Fn(ReplicaId) -> PerfReport,
    ) {
    }
}

struct Untraced;

impl Hooks for Untraced {}

/// Times every layer call into a histogram; keeps spans and replays the
/// layers below for sampled requests.
struct Traced<'a> {
    recorder: &'a mut Recorder,
    replayer: Replayer,
    layers: [LogHistogram; LAYERS],
    request: u64,
    root: Option<usize>,
}

impl Hooks for Traced<'_> {
    fn begin(&mut self, request: u64) {
        self.request = request;
        // Room for the call's own spans (root, one per replica update,
        // the plan, one per reply) and for its replay.
        let room = 2 * CHURN.replicas + 2 + SPANS_PER_REPLAY;
        self.root = (request.is_multiple_of(SAMPLE_EVERY) && self.recorder.has_room(room))
            .then(|| {
                self.recorder
                    .open("call", self.recorder.now_ns(), None, request)
            })
            .flatten();
    }

    #[inline]
    fn layer<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = self.recorder.now_ns();
        let result = f();
        let end = self.recorder.now_ns();
        self.layers[layer as usize].record(end - start);
        if self.root.is_some() {
            self.recorder
                .record(layer.span_name(), start, end, self.root, self.request, 1);
        }
        result
    }

    fn end(
        &mut self,
        handler: &ConcurrentHandler,
        selected: &[ReplicaId],
        report_of: &dyn Fn(ReplicaId) -> PerfReport,
    ) {
        if let Some(root) = self.root.take() {
            self.recorder.close(root, self.recorder.now_ns());
            self.replayer
                .replay(self.recorder, self.request, handler, selected, report_of);
        }
    }
}

/// A handler with its replicas' draw tables and virtual clock.
pub struct Gateway {
    spec: &'static Spec,
    seed: u64,
    plan_spec: SnapshotPlanSpec,
    handler: ConcurrentHandler,
    draws: ServiceDraws,
    ids: Vec<ReplicaId>,
    /// Calls made so far; the virtual clock reads `calls × clock_step`.
    calls: u64,
}

impl Gateway {
    /// Builds the handler, fills every replica's window to `l` and makes
    /// enough calls that planning runs from a warm published view.
    pub fn set_up(spec: &'static Spec, seed: u64) -> Gateway {
        Gateway::build(spec, seed, None)
    }

    fn build(spec: &'static Spec, seed: u64, obs: Option<&Obs>) -> Gateway {
        let draws = ServiceDraws::generate(seed, spec.replicas, spec.shape);
        let strategy = ModelBased::new(ModelConfig {
            queue_estimator: spec.queue_estimator,
            ..ModelConfig::default()
        });
        let plan_spec = strategy
            .snapshot_spec()
            .expect("the model-based strategy plans from snapshots");
        let mut handler = ConcurrentHandler::new(qos(), spec.window, Box::new(strategy));
        if let Some(obs) = obs {
            handler.attach_obs(obs, Some(0));
        }
        let ids: Vec<ReplicaId> = (0..spec.replicas as u64).map(ReplicaId::new).collect();
        for id in &ids {
            handler.insert_replica(Instant::EPOCH, *id);
        }
        let mut gateway = Gateway {
            spec,
            seed,
            plan_spec,
            handler,
            draws,
            ids,
            calls: 0,
        };
        // Warm-up: `l` pushed reports per replica fill the windows, then
        // `l` calls give every replica a gateway-delay sample (the first
        // is the cold-start multicast) and settle the published view.
        // Warm-up reads the draw tables from the far end, so the window
        // starts at draw 0 for every seed.
        let warm = spec.window as u64;
        for round in 0..warm {
            let now = gateway.now();
            for (index, id) in gateway.ids.iter().enumerate() {
                let report = gateway.report(index, 0, u64::MAX - round);
                gateway.handler.on_perf_update(now, *id, report);
            }
            gateway.calls += 1;
        }
        let (mut counts, mut pass) = (Counts::default(), Pass::default());
        for _ in 0..warm {
            gateway.call(&mut Untraced, &mut counts, &mut pass);
        }
        gateway
    }

    fn now(&self) -> Instant {
        Instant::from_nanos(self.calls * self.spec.clock_step.as_nanos())
    }

    /// The report replica `index` sends during call `call`: service draw
    /// number `draw`, and behind the replica's current queue of `q` a wait
    /// of `q` service times.
    #[inline]
    fn report(&self, index: usize, call: u64, draw: u64) -> PerfReport {
        let service = self.draws.service(index, draw);
        let queue_len = self.draws.queue_len(index, call);
        let queuing = self
            .draws
            .service(index, draw.wrapping_add(1))
            .saturating_mul(u64::from(queue_len));
        PerfReport::new(service, queuing, queue_len)
    }

    /// One call: (perf updates,) plan, and a reply from every selected
    /// replica, all at one instant of the virtual clock.
    #[inline]
    fn call<H: Hooks>(&mut self, hooks: &mut H, counts: &mut Counts, pass: &mut Pass) {
        let call = self.calls;
        self.calls += 1;
        self.call_at(call, hooks, counts, pass);
    }

    /// The call numbered `call`, which fixes both its clock reading and
    /// its draws. Takes `&self` so the two-caller probe can share one
    /// handler between threads that interleave call numbers.
    fn call_at<H: Hooks>(&self, call: u64, hooks: &mut H, counts: &mut Counts, pass: &mut Pass) {
        let now = Instant::from_nanos(call * self.spec.clock_step.as_nanos());
        let handler = &self.handler;
        hooks.begin(call);
        if self.spec.perf_updates {
            for (index, id) in self.ids.iter().enumerate() {
                // Offset so a pushed update and the same call's reply
                // carry different service draws.
                let report = self.report(index, call, call.wrapping_add(7919));
                hooks.layer(Layer::PerfUpdate, || {
                    handler.on_perf_update(now, *id, report)
                });
            }
            counts.events += self.ids.len() as u64;
        }
        let plan = hooks.layer(Layer::Plan, || handler.plan_request_for(now, None));
        if call.is_multiple_of(SAMPLE_EVERY) {
            if let Err(what) = self.check_plan(&plan.replicas) {
                pass.fail(|| format!("call {call}: {what}"));
            }
        }
        let mut delivered = 0u32;
        let mut fastest = Duration::MAX;
        for id in plan.replicas.iter() {
            let report = self.report(id.index() as usize, call, call);
            fastest = fastest.min(report.service_time.saturating_add(report.queuing_delay));
            let outcome = hooks.layer(Layer::OnReply, || {
                handler.on_reply(now, plan.seq, *id, report)
            });
            if matches!(outcome, ReplyOutcome::Deliver { .. }) {
                delivered += 1;
            }
        }
        hooks.end(handler, &plan.replicas, &|id| {
            self.report(id.index() as usize, call, call)
        });
        if delivered != 1 {
            pass.fail(|| format!("call {call}: {delivered} replies delivered, not 1"));
        }
        pass.attempted += 1;
        counts.selected += plan.replicas.len() as u64;
        counts.events += 1 + plan.replicas.len() as u64;
        counts.timely += u64::from(fastest <= DEADLINE);
    }

    /// A warm plan must promise `P(K) ≥ Pc` on the view it was planned
    /// from, or be the fallback of selecting every replica. Called right
    /// after the plan, before any reply can republish the view. The
    /// handler plans at `deadline − δ`; checking at the full deadline can
    /// only read higher, so a sound plan always passes.
    fn check_plan(&self, selected: &[ReplicaId]) -> Result<(), String> {
        let view = self.handler.planning_view();
        let qos = view.qos();
        let slot = method_slot(self.plan_spec.model.method_scope, None);
        let predicted: Option<Vec<f64>> = selected
            .iter()
            .map(|id| view.probability_by(*id, slot, qos.deadline()))
            .collect();
        // A replica without a table means a cold-start multicast.
        let Some(predicted) = predicted else {
            return Ok(());
        };
        let promised = combined_probability(&predicted);
        let selectable = view.replicas().iter().filter(|r| r.is_selectable()).count();
        if promised + 1e-9 >= qos.min_probability() || selected.len() == selectable {
            Ok(())
        } else {
            Err(format!(
                "plan of {} replicas promises P(K) = {promised:.4} < Pc = {}",
                selected.len(),
                qos.min_probability()
            ))
        }
    }

    /// Calls per second of `callers` threads sharing one fresh handler
    /// for `length`, thread `t` making calls `t, t + callers, …`.
    fn shared_calls_per_s(&self, callers: u64, length: StdDuration) -> f64 {
        let probe = Gateway::set_up(self.spec, self.seed);
        let first = probe.calls;
        let started = std::time::Instant::now();
        let ends = started + length;
        let total: u64 = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..callers)
                .map(|t| {
                    let probe = &probe;
                    scope.spawn(move || {
                        let (mut counts, mut pass) = (Counts::default(), Pass::default());
                        let mut call = first + t;
                        while std::time::Instant::now() < ends {
                            for _ in 0..16 {
                                probe.call_at(call, &mut Untraced, &mut counts, &mut pass);
                                call += callers;
                            }
                        }
                        pass.attempted
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("probe caller panicked"))
                .sum()
        });
        total as f64 / started.elapsed().as_secs_f64()
    }
}

impl Workload for Gateway {
    fn measure(&mut self, length: StdDuration) -> Pass {
        let mut pass = Pass::default();
        let mut counts = Counts::default();
        let window = closed_loop(length, || self.call(&mut Untraced, &mut counts, &mut pass));
        window.report(counts, &mut pass);
        pass
    }

    fn trace(&mut self, length: StdDuration, _role: Role, recorder: &mut Recorder) -> Pass {
        // A third of the time for the span window, a sixth for the
        // counter window, a quarter each for the one- and two-caller
        // cells of the scaling probe.
        //
        // Spans and the program's own observer are kept apart: the
        // observer costs several times a warm plan, so layer times taken
        // with it attached would be times of the observer.
        let mut traced = Gateway::build(self.spec, self.seed, None);
        let mut pass = Pass::default();
        let mut hooks = Traced {
            recorder: &mut *recorder,
            replayer: Replayer::new(traced.plan_spec),
            layers: std::array::from_fn(|_| LogHistogram::new()),
            request: 0,
            root: None,
        };
        let mut counts = Counts::default();
        let version_before = traced.handler.planning_view().version();
        let stats_before = traced.handler.stats();
        let allocations = alloc::Meter::start();
        let window = closed_loop(length / 3, || {
            traced.call(&mut hooks, &mut counts, &mut pass)
        });
        let stats = traced.handler.stats();
        let publishes = traced.handler.planning_view().version() - version_before;

        let calls = window.calls().max(1);
        let per_call = |total: u64| Summary::exact(total as f64 / calls as f64, calls);
        let Traced { layers, .. } = hooks;
        for (layer, p50, p99) in [
            (
                Layer::PerfUpdate,
                "gateway.concurrent.perf_update_ns_p50",
                "gateway.concurrent.perf_update_ns_p99",
            ),
            (
                Layer::Plan,
                "gateway.concurrent.plan_ns_p50",
                "gateway.concurrent.plan_ns_p99",
            ),
            (
                Layer::OnReply,
                "gateway.concurrent.on_reply_ns_p50",
                "gateway.concurrent.on_reply_ns_p99",
            ),
        ] {
            let hist = &layers[layer as usize];
            if let (Some(q50), Some(q99)) = (hist.quantile(0.5), hist.quantile(0.99)) {
                pass.set(p50, Summary::exact(q50, hist.count()));
                pass.set(p99, Summary::exact(q99, hist.count()));
            }
        }
        pass.set(
            "gateway.concurrent.call_p999_us",
            window.latency_us_whole(0.999),
        );
        pass.set("gateway.concurrent.publishes_per_call", per_call(publishes));
        let replies =
            (stats.delivered - stats_before.delivered) + (stats.redundant - stats_before.redundant);
        pass.set(
            "gateway.concurrent.redundant_reply_share",
            Summary::exact(
                (stats.redundant - stats_before.redundant) as f64 / replies.max(1) as f64,
                replies,
            ),
        );
        allocations.report(calls, &mut pass);
        replay::layer_metrics(recorder, &mut pass);
        if let Some(residual) = recorder.residual_share("call") {
            pass.set(
                "trace.residual_share",
                Summary::exact(residual, calls / SAMPLE_EVERY),
            );
        }

        // The counter window: the same calls with `Obs::metrics_only()`
        // attached, for the program's own counters and for what attaching
        // them costs (`pass.rate` feeds `obs.traced_over_untraced`).
        let obs = Obs::metrics_only();
        let mut observed = Gateway::build(self.spec, self.seed, Some(&obs));
        let mut observed_counts = Counts::default();
        let observed_window = closed_loop(length / 6, || {
            observed.call(&mut Untraced, &mut observed_counts, &mut pass)
        });
        pass.rate = observed_window.calls_per_s().value;
        let lock_wait: u64 = HANDLER_LOCKS
            .iter()
            .map(|lock| {
                obs.registry()
                    .counter(aqua_obs::contention::LOCK_WAIT_NS_TOTAL, &[("lock", lock)])
                    .get()
            })
            .sum();
        // Set-up calls waited on the locks too: divide by every call the
        // observed handler has made.
        pass.set(
            "gateway.concurrent.lock_wait_ns_per_call",
            Summary::exact(lock_wait as f64 / observed.calls as f64, observed.calls),
        );

        let one = self.shared_calls_per_s(1, length / 4);
        let two = self.shared_calls_per_s(2, length / 4);
        pass.set(
            "gateway.concurrent.scaling_2t",
            Summary::exact(two / one, 2),
        );
        pass
    }
}
