//! Layer replay: on a sampled request, the benchmark calls the `core`
//! and `strategies` functions the handler just used — on that request's
//! actual planning view, selected set and perf reports — and records a
//! child span per layer. This is how layers the handler calls internally
//! get a time of their own without a span inside the program.

use aqua_core::model::ResponseTimeModel;
use aqua_core::pmf::{ConvScratch, Pmf};
use aqua_core::qos::ReplicaId;
use aqua_core::repository::{MethodId, PerfReport};
use aqua_core::select::{select_replicas_tolerating, Candidate};
use aqua_core::snapshot::{method_slot, ReplicaSnapshot};
use aqua_core::time::Instant;
use aqua_gateway::ConcurrentHandler;
use aqua_strategies::{ModelBased, SelectionInput, SelectionStrategy, SnapshotPlanSpec};

use crate::pass::Pass;
use crate::spans::Recorder;
use crate::stats::Summary;

/// Layer calls of tens of nanoseconds are run this many times inside one
/// span, so the two clock reads around them stay under a few percent.
const ROUNDS: u32 = 16;

/// Span name → the per-layer metric its nanoseconds per operation feed.
const LAYER_METRICS: [(&str, &str); 9] = [
    ("core.snapshot.load", "core.snapshot.load_ns"),
    ("core.model.cdf_lookup", "core.model.cdf_lookup_ns"),
    ("core.select.select", "core.select.select_ns"),
    (
        "strategies.model_based.select",
        "strategies.model_based.select_ns",
    ),
    ("core.snapshot.build", "core.snapshot.build_ns"),
    (
        "core.repository.record_perf",
        "core.repository.record_perf_ns",
    ),
    ("core.model.response_pmf", "core.model.response_pmf_ns"),
    ("core.pmf.convolve", "core.pmf.convolve_ns"),
    ("core.pmf.self_convolve", "core.pmf.self_convolve_ns"),
];

/// Spans one replay records, root included: what a caller must leave
/// room for in the recorder.
pub const SPANS_PER_REPLAY: usize = LAYER_METRICS.len() + 1;

/// Replays the planning and publishing layers for sampled requests.
pub struct Replayer {
    spec: SnapshotPlanSpec,
    model: ResponseTimeModel,
    scratch: ConvScratch,
    /// Kept across replays so its model cache behaves as the strategy's
    /// does inside a single-owner handler: hits for replicas whose
    /// windows did not move, recomputation for the rest.
    strategy: ModelBased,
}

impl Replayer {
    /// A replayer for handlers running `ModelBased` with `spec`.
    pub fn new(spec: SnapshotPlanSpec) -> Self {
        Replayer {
            spec,
            model: ResponseTimeModel::new(spec.model),
            scratch: ConvScratch::new(),
            strategy: ModelBased::new(spec.model).with_crash_tolerance(spec.crashes),
        }
    }

    /// Replays request `request`, which `handler` planned onto `selected`
    /// and whose replies carried `report_of(replica)`. Records a `replay`
    /// root span with one child per layer.
    pub fn replay(
        &mut self,
        recorder: &mut Recorder,
        request: u64,
        handler: &ConcurrentHandler,
        selected: &[ReplicaId],
        report_of: &dyn Fn(ReplicaId) -> PerfReport,
    ) {
        if !recorder.has_room(SPANS_PER_REPLAY) || selected.is_empty() {
            return;
        }
        let Some(root) = recorder.open("replay", recorder.now_ns(), None, request) else {
            return;
        };
        let span = |recorder: &mut Recorder, name, ops: u32, work: &mut dyn FnMut()| {
            let start = recorder.now_ns();
            work();
            let end = recorder.now_ns();
            recorder.record(name, start, end, Some(root), request, ops);
        };

        span(recorder, "core.snapshot.load", ROUNDS, &mut || {
            for _ in 0..ROUNDS {
                std::hint::black_box(handler.planning_view());
            }
        });
        let view = handler.planning_view();
        let qos = view.qos();
        let slot = method_slot(self.spec.model.method_scope, None);

        let replicas = view.replicas().len() as u32;
        span(
            recorder,
            "core.model.cdf_lookup",
            ROUNDS * replicas.max(1),
            &mut || {
                for _ in 0..ROUNDS {
                    for snap in view.replicas() {
                        std::hint::black_box(snap.probability_by(slot, qos.deadline()));
                    }
                }
            },
        );

        let candidates: Vec<Candidate> = view
            .replicas()
            .iter()
            .filter_map(|snap| {
                let p = snap.probability_by(slot, qos.deadline())?;
                Some(Candidate::new(snap.id(), p))
            })
            .collect();
        span(recorder, "core.select.select", ROUNDS, &mut || {
            for _ in 0..ROUNDS {
                std::hint::black_box(select_replicas_tolerating(
                    &candidates,
                    qos.min_probability(),
                    self.spec.crashes,
                ));
            }
        });

        span(recorder, "strategies.model_based.select", 1, &mut || {
            std::hint::black_box(self.strategy.select(&SelectionInput {
                repository: view.repository(),
                qos: &qos,
                method: None,
                now: Instant::EPOCH,
                exclude: &[],
            }));
        });

        let repository = view.repository();
        span(
            recorder,
            "core.snapshot.build",
            selected.len() as u32,
            &mut || {
                for id in selected {
                    if let Some(stats) = repository.stats(*id) {
                        std::hint::black_box(ReplicaSnapshot::build(
                            *id,
                            stats,
                            &self.model,
                            &mut self.scratch,
                        ));
                    }
                }
            },
        );

        let mut scratch_repository = repository.clone();
        span(
            recorder,
            "core.repository.record_perf",
            selected.len() as u32,
            &mut || {
                for id in selected {
                    scratch_repository.record_perf(*id, report_of(*id), Instant::EPOCH);
                }
            },
        );

        let Some(stats) = repository.stats(selected[0]) else {
            recorder.close(root, recorder.now_ns());
            return;
        };
        span(recorder, "core.model.response_pmf", 1, &mut || {
            std::hint::black_box(self.model.response_pmf_with(stats, None, &mut self.scratch));
        });

        let bucket = self.spec.model.bucket;
        let pmfs = stats.history(MethodId::DEFAULT).and_then(|history| {
            let service = history.service_window().bucket_counts();
            let queuing = history.queuing_window().bucket_counts();
            Some((
                Pmf::from_bucket_counts(service, bucket).ok()?,
                Pmf::from_bucket_counts(queuing, bucket).ok()?,
            ))
        });
        if let Some((service, queuing)) = pmfs {
            span(recorder, "core.pmf.convolve", 1, &mut || {
                std::hint::black_box(service.convolve(&queuing).ok());
            });
            // A 0-fold convolution is a constant; the replay takes at
            // least one fold so the span always times the operation.
            let depth = stats.outstanding().max(1);
            let epsilon = self.spec.model.prune_epsilon;
            span(recorder, "core.pmf.self_convolve", 1, &mut || {
                std::hint::black_box(service.self_convolve(depth, epsilon, &mut self.scratch));
            });
        }
        recorder.close(root, recorder.now_ns());
    }
}

/// Turns the recorder's replay spans into per-layer metrics on `pass`.
pub fn layer_metrics(recorder: &Recorder, pass: &mut Pass) {
    span_metrics(recorder, &LAYER_METRICS, pass);
}

/// For each `(span name, metric)` of `table`, sets the metric to the
/// median nanoseconds per operation over the recorder's spans of that
/// name.
pub fn span_metrics(recorder: &Recorder, table: &[(&str, &'static str)], pass: &mut Pass) {
    for (span_name, metric) in table {
        let per_op = recorder.ns_per_op(span_name);
        if !per_op.is_empty() {
            pass.set(metric, Summary::over(&per_op, per_op.len() as u64));
        }
    }
}
