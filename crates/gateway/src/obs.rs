//! Observability hooks for the timing fault handler.
//!
//! [`HandlerObserver`] is the glue between [`crate::ConcurrentHandler`]
//! and the `aqua-obs` registry/journal: the handler calls one hook per
//! lifecycle event (plan, reply, give-up) and the observer maintains
//!
//! * counters — requests, probes, delivered/redundant replies, give-ups,
//!   QoS callbacks, timing failures, selection-set-size counts;
//! * histograms — per-replica `ts`/`tq`/`td` decompositions, end-to-end
//!   response times, and the selection overhead δ of §5.3.3;
//! * one [`RequestSpan`] per request, emitted to the JSONL journal when
//!   the request retires (give-up) or when the run flushes.
//!
//! All metric handles are cached here, so steady-state recording never
//! touches the registry lock.

use std::collections::HashMap;
use std::sync::Arc;

use aqua_core::failure::TimingVerdict;
use aqua_core::qos::ReplicaId;
use aqua_core::time::Instant;
use aqua_faults::FaultWindow;
use aqua_obs::journal::{Journal, ReplyObservation, RequestSpan, SpanOutcome};
use aqua_obs::metrics::{Counter, Histogram};
use aqua_obs::Obs;
use aqua_trace::{CalibrationConfig, QosWatchdog};

/// Renders a verdict as the journal's stable string form.
fn verdict_label(verdict: TimingVerdict) -> &'static str {
    match verdict {
        TimingVerdict::Timely => "timely",
        TimingVerdict::Failure { qos_violated: true } => "failure_qos_violated",
        TimingVerdict::Failure {
            qos_violated: false,
        } => "failure",
    }
}

struct ReplicaHistograms {
    ts: Arc<Histogram>,
    tq: Arc<Histogram>,
    td: Arc<Histogram>,
}

/// Everything a handler knows when it plans one attempt, bundled for
/// [`HandlerObserver::on_plan`].
pub(crate) struct PlanObservation<'a> {
    /// Handler-assigned sequence number of this attempt.
    pub seq: u64,
    /// Method identifier.
    pub method: u32,
    /// Client identity, when known.
    pub client: Option<u64>,
    /// Plan time (`t1`), nanoseconds on the run's clock.
    pub now_nanos: u64,
    /// QoS deadline, nanoseconds.
    pub deadline_nanos: u64,
    /// Promised `Pc` from the QoS spec, audited by the watchdog.
    pub promised: f64,
    /// The chosen replica set, trusted members first.
    pub selected: &'a [ReplicaId],
    /// Model predictions `P(meet deadline)` aligned with the leading
    /// entries of `selected`; empty when the planner had none (baseline
    /// strategy, cold-start multicast). Probation shadows at the tail of
    /// `selected` carry no prediction.
    pub predicted: &'a [f64],
    /// Version of the planning view / model snapshot consulted.
    pub view_version: Option<u64>,
    /// Whether this is a measurement probe.
    pub probe: bool,
    /// Selection overhead δ for this plan, when measured.
    pub overhead_nanos: Option<u64>,
    /// For retries, the seq of the superseded attempt.
    pub retry_of: Option<u64>,
}

/// Tags `span` with every fault window that overlapped a selected
/// replica (or the whole network) during its lifetime, then emits it.
/// Pending/gave-up spans without an end time use the deadline window as
/// their exposure interval.
fn emit_span_tagged(journal: &Journal, windows: &[FaultWindow], mut span: RequestSpan) {
    let from = Instant::from_nanos(span.t1_nanos);
    let to = Instant::from_nanos(
        span.end_nanos
            .unwrap_or_else(|| span.t1_nanos.saturating_add(span.deadline_nanos)),
    );
    for window in windows {
        if window.overlaps(&span.selected, from, to) && !span.fault_windows.contains(&window.id) {
            span.fault_windows.push(window.id);
        }
    }
    span.fault_windows.sort_unstable();
    journal.emit_span(&span);
}

/// Per-handler observability state. See the module docs.
pub struct HandlerObserver {
    obs: Obs,
    client_label: String,
    requests: Arc<Counter>,
    probes: Arc<Counter>,
    delivered: Arc<Counter>,
    redundant: Arc<Counter>,
    gave_up: Arc<Counter>,
    callbacks: Arc<Counter>,
    timing_failures: Arc<Counter>,
    retries: Arc<Counter>,
    abandoned: Arc<Counter>,
    probation_started: Arc<Counter>,
    probation_cleared: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    overhead: Arc<Histogram>,
    response: Arc<Histogram>,
    selection_sizes: HashMap<usize, Arc<Counter>>,
    per_replica: HashMap<ReplicaId, ReplicaHistograms>,
    spans: HashMap<u64, RequestSpan>,
    fault_windows: Vec<FaultWindow>,
    watchdog: QosWatchdog,
}

impl std::fmt::Debug for HandlerObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandlerObserver")
            .field("client", &self.client_label)
            .field("open_spans", &self.spans.len())
            .finish()
    }
}

impl HandlerObserver {
    /// Creates an observer recording into `obs`, labelling every metric
    /// with `client` (the gateway's client identity, when known).
    pub fn new(obs: &Obs, client: Option<u64>) -> Self {
        let client_label = client.map_or_else(|| "-".to_owned(), |c| c.to_string());
        let registry = obs.registry();
        let labels = [("client", client_label.as_str())];
        HandlerObserver {
            requests: registry.counter("aqua_requests_total", &labels),
            probes: registry.counter("aqua_probes_total", &labels),
            delivered: registry.counter("aqua_replies_delivered_total", &labels),
            redundant: registry.counter("aqua_replies_redundant_total", &labels),
            gave_up: registry.counter("aqua_gave_up_total", &labels),
            callbacks: registry.counter("aqua_qos_callbacks_total", &labels),
            timing_failures: registry.counter("aqua_timing_failures_total", &labels),
            retries: registry.counter("aqua_retries_total", &labels),
            abandoned: registry.counter("aqua_attempts_superseded_total", &labels),
            probation_started: registry
                .counter("aqua_probation_transitions_total", &[("phase", "started")]),
            probation_cleared: registry
                .counter("aqua_probation_transitions_total", &[("phase", "cleared")]),
            cache_hits: registry.counter("aqua_model_cache_hits_total", &labels),
            cache_misses: registry.counter("aqua_model_cache_misses_total", &labels),
            overhead: registry.histogram("aqua_selection_overhead_ns", &labels),
            response: registry.histogram("aqua_response_time_ns", &labels),
            selection_sizes: HashMap::new(),
            per_replica: HashMap::new(),
            spans: HashMap::new(),
            fault_windows: Vec::new(),
            watchdog: QosWatchdog::new(obs),
            obs: obs.clone(),
            client_label,
        }
    }

    /// Installs the run's fault timeline so every emitted span is tagged
    /// with the stable ids of the windows that overlapped it (exact joins
    /// for the forensics analyzer).
    pub fn set_fault_windows(&mut self, windows: Vec<FaultWindow>) {
        self.fault_windows = windows;
    }

    /// Replaces the QoS-calibration watchdog with one using `config`
    /// (resets its rolling statistics).
    pub fn configure_watchdog(&mut self, config: CalibrationConfig) {
        self.watchdog = QosWatchdog::with_config(&self.obs, config);
    }

    /// The calibration watchdog, e.g. to register alert hooks for a
    /// dependability manager.
    pub fn watchdog_mut(&mut self) -> &mut QosWatchdog {
        &mut self.watchdog
    }

    fn replica_histograms(&mut self, replica: ReplicaId) -> &ReplicaHistograms {
        if !self.per_replica.contains_key(&replica) {
            let client_label = self.client_label.clone();
            let replica_label = replica.index().to_string();
            let entry = {
                let registry = self.obs.registry();
                let labels = [
                    ("client", client_label.as_str()),
                    ("replica", replica_label.as_str()),
                ];
                ReplicaHistograms {
                    ts: registry.histogram("aqua_reply_ts_ns", &labels),
                    tq: registry.histogram("aqua_reply_tq_ns", &labels),
                    td: registry.histogram("aqua_reply_td_ns", &labels),
                }
            };
            self.per_replica.insert(replica, entry);
        }
        &self.per_replica[&replica]
    }

    fn selection_size_counter(&mut self, size: usize) -> &Arc<Counter> {
        if !self.selection_sizes.contains_key(&size) {
            let client_label = self.client_label.clone();
            let size_label = size.to_string();
            let counter = self.obs.registry().counter(
                "aqua_selection_size_total",
                &[
                    ("client", client_label.as_str()),
                    ("size", size_label.as_str()),
                ],
            );
            self.selection_sizes.insert(size, counter);
        }
        &self.selection_sizes[&size]
    }

    /// Records a planned request (or probe) and opens its span.
    pub(crate) fn on_plan(&mut self, plan: PlanObservation<'_>) {
        if plan.probe {
            self.probes.inc();
        } else {
            if plan.retry_of.is_none() {
                // Retries are extra attempts at the same logical request:
                // they widen the selection-size histogram but must not
                // inflate the request count.
                self.requests.inc();
            }
            self.selection_size_counter(plan.selected.len()).inc();
            let predictions: Vec<(u64, f64)> = plan
                .selected
                .iter()
                .zip(plan.predicted.iter())
                .map(|(r, p)| (r.index(), *p))
                .collect();
            self.watchdog
                .on_plan(plan.seq, plan.method, plan.promised, &predictions);
        }
        if let Some(delta) = plan.overhead_nanos {
            self.overhead.record(delta);
        }
        if let Some(superseded) = plan.retry_of {
            self.retries.inc();
            self.obs.journal().emit_event(
                "retry",
                aqua_obs::json::JsonValue::object()
                    .field("seq", plan.seq)
                    .field("retry_of", superseded)
                    .field("at_ns", plan.now_nanos),
            );
        }
        let mut span = RequestSpan::begin(plan.seq, plan.method, plan.now_nanos, plan.now_nanos);
        span.client = plan.client;
        span.deadline_nanos = plan.deadline_nanos;
        span.selected = plan.selected.iter().map(|r| r.index()).collect();
        span.predicted = plan.predicted.to_vec();
        span.view_version = plan.view_version;
        span.plan_nanos = plan.overhead_nanos;
        span.probe = plan.probe;
        span.retry_of = plan.retry_of;
        self.spans.insert(plan.seq, span);
        // Keep memory bounded on endless runs: spill the oldest finished
        // spans once a generous cap is exceeded.
        if self.spans.len() > 4096 {
            let cutoff = plan.seq.saturating_sub(4096);
            let mut old: Vec<u64> = self
                .spans
                .iter()
                .filter(|(s, span)| **s < cutoff && span.outcome != SpanOutcome::Pending)
                .map(|(s, _)| *s)
                .collect();
            old.sort_unstable();
            for seq in old {
                if let Some(span) = self.spans.remove(&seq) {
                    emit_span_tagged(self.obs.journal(), &self.fault_windows, span);
                }
            }
        }
    }

    /// Records one reply's measurements and appends it to its span.
    /// `ingest_nanos` is the gateway-side handling time for this reply
    /// (stats application / ingest-shard work), when measured.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_reply(
        &mut self,
        seq: u64,
        replica: ReplicaId,
        at_nanos: u64,
        service_nanos: u64,
        queue_nanos: u64,
        gateway_nanos: u64,
        response_nanos: u64,
        ingest_nanos: Option<u64>,
        first: bool,
        probe: bool,
        verdict: Option<TimingVerdict>,
    ) {
        {
            let hists = self.replica_histograms(replica);
            hists.ts.record(service_nanos);
            hists.tq.record(queue_nanos);
            hists.td.record(gateway_nanos);
        }
        if !probe {
            if first {
                self.delivered.inc();
                self.response.record(response_nanos);
            } else {
                self.redundant.inc();
            }
            if let Some(v) = verdict {
                if !v.is_timely() {
                    self.timing_failures.inc();
                }
                if v.should_notify() {
                    self.callbacks.inc();
                }
            }
        }
        let deadline = self.spans.get(&seq).map(|s| s.deadline_nanos);
        if let Some(deadline) = deadline {
            if !probe {
                let met = response_nanos <= deadline;
                self.watchdog
                    .on_replica_reply(seq, replica.index(), met, at_nanos);
                if first {
                    let delivered_in_time = verdict.map_or(met, TimingVerdict::is_timely);
                    self.watchdog.on_outcome(seq, delivered_in_time, at_nanos);
                }
            }
        }
        if let Some(span) = self.spans.get_mut(&seq) {
            span.replies.push(ReplyObservation {
                replica: replica.index(),
                at_nanos,
                service_nanos,
                queue_nanos,
                gateway_nanos,
                response_nanos,
                ingest_nanos,
                first,
                verdict: verdict.map(|v| verdict_label(v).to_owned()),
            });
            if first {
                span.outcome = SpanOutcome::Delivered;
                span.end_nanos = Some(at_nanos);
                if verdict.is_some_and(TimingVerdict::should_notify) {
                    span.callback = true;
                }
            }
        }
    }

    /// Records a give-up (no reply before the extended deadline) and emits
    /// the span. `verdict` is the detector's classification of the
    /// give-up and `callback` whether the client was notified — both are
    /// recorded on the span so the no-miss-without-callback invariant is
    /// auditable from the journal. Probe give-ups close the span without
    /// counting a failure.
    pub(crate) fn on_give_up(
        &mut self,
        seq: u64,
        probe: bool,
        verdict: Option<TimingVerdict>,
        callback: bool,
        at_nanos: u64,
    ) {
        if !probe {
            self.gave_up.inc();
            self.timing_failures.inc();
            if callback {
                self.callbacks.inc();
            }
            self.watchdog.on_outcome(seq, false, at_nanos);
        }
        if let Some(mut span) = self.spans.remove(&seq) {
            span.outcome = SpanOutcome::GaveUp;
            span.end_nanos = Some(at_nanos);
            span.callback = callback;
            span.give_up_verdict = verdict.map(|v| verdict_label(v).to_owned());
            emit_span_tagged(self.obs.journal(), &self.fault_windows, span);
        }
    }

    /// Retires an attempt superseded by a retry (or resolved through a
    /// sibling attempt) and emits its span. Not a timing failure.
    pub(crate) fn on_abandon(&mut self, seq: u64, at_nanos: u64) {
        self.abandoned.inc();
        self.watchdog.on_abandon(seq);
        if let Some(mut span) = self.spans.remove(&seq) {
            if span.outcome == SpanOutcome::Pending {
                span.outcome = SpanOutcome::Superseded;
                span.end_nanos = Some(at_nanos);
            }
            emit_span_tagged(self.obs.journal(), &self.fault_windows, span);
        }
    }

    /// Accumulates one publish's model-cache activity: snapshots carried
    /// over (hits) and rebuilt (misses).
    pub(crate) fn on_model_cache(&mut self, hits: u64, misses: u64) {
        self.cache_hits.add(hits);
        self.cache_misses.add(misses);
    }

    /// Records a probation transition for `replica`: `started = true` when
    /// a rejoining replica is quarantined, `false` when the `l` fresh
    /// samples arrived and it re-enters the selectable set.
    pub(crate) fn on_probation(&mut self, replica: ReplicaId, started: bool, at_nanos: u64) {
        if started {
            self.probation_started.inc();
        } else {
            self.probation_cleared.inc();
        }
        self.obs.journal().emit_event(
            "probation",
            aqua_obs::json::JsonValue::object()
                .field("replica", replica.index())
                .field("phase", if started { "started" } else { "cleared" })
                .field("client", self.client_label.as_str())
                .field("at_ns", at_nanos),
        );
    }

    /// Emits every remaining span (delivered and still-pending ones) in
    /// sequence order and flushes the journal.
    pub fn flush(&mut self) {
        let mut seqs: Vec<u64> = self.spans.keys().copied().collect();
        seqs.sort_unstable();
        for seq in seqs {
            if let Some(span) = self.spans.remove(&seq) {
                emit_span_tagged(self.obs.journal(), &self.fault_windows, span);
            }
        }
        self.obs.journal().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_labels_are_stable() {
        assert_eq!(verdict_label(TimingVerdict::Timely), "timely");
        assert_eq!(
            verdict_label(TimingVerdict::Failure {
                qos_violated: false
            }),
            "failure"
        );
        assert_eq!(
            verdict_label(TimingVerdict::Failure { qos_violated: true }),
            "failure_qos_violated"
        );
    }

    fn plan(seq: u64, selected: &[ReplicaId], predicted: &[f64]) -> PlanObservation<'static> {
        // Leak the slices: test-only convenience for a 'static plan.
        PlanObservation {
            seq,
            method: 0,
            client: Some(3),
            now_nanos: 100 + seq,
            deadline_nanos: 200_000_000,
            promised: 0.9,
            selected: Box::leak(selected.to_vec().into_boxed_slice()),
            predicted: Box::leak(predicted.to_vec().into_boxed_slice()),
            view_version: Some(4),
            probe: false,
            overhead_nanos: Some(1_500),
            retry_of: None,
        }
    }

    #[test]
    fn plan_reply_give_up_round_trip() {
        let (obs, reader) = Obs::in_memory();
        let mut observer = HandlerObserver::new(&obs, Some(3));
        let r = ReplicaId::new(1);
        observer.on_plan(plan(0, &[r], &[0.97]));
        observer.on_reply(
            0,
            r,
            90_000_100,
            80_000_000,
            5_000_000,
            5_000_000,
            90_000_000,
            Some(250),
            true,
            false,
            Some(TimingVerdict::Timely),
        );
        observer.on_plan(plan(1, &[r], &[0.97]));
        observer.on_give_up(
            1,
            false,
            Some(TimingVerdict::Failure { qos_violated: true }),
            true,
            400_000_000,
        );
        observer.flush();

        let lines = reader.lines();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains(r#""outcome":"gave_up""#), "{}", lines[0]);
        assert!(lines[0].contains(r#""callback":true"#), "{}", lines[0]);
        assert!(
            lines[0].contains(r#""give_up_verdict":"failure_qos_violated""#),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains(r#""end_ns":400000000"#), "{}", lines[0]);
        assert!(
            lines[1].contains(r#""outcome":"delivered""#),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains(r#""predicted":[0.97]"#), "{}", lines[1]);
        assert!(lines[1].contains(r#""view_version":4"#), "{}", lines[1]);
        assert!(lines[1].contains(r#""plan_ns":1500"#), "{}", lines[1]);
        assert!(lines[1].contains(r#""ingest_ns":250"#), "{}", lines[1]);

        let prom = obs.prometheus();
        assert!(
            prom.contains("aqua_requests_total{client=\"3\"} 2"),
            "{prom}"
        );
        assert!(prom.contains("aqua_timing_failures_total{client=\"3\"} 1"));
        assert!(prom.contains("aqua_qos_callbacks_total{client=\"3\"} 1"));
        assert!(prom.contains("aqua_selection_overhead_ns"));
        assert!(prom.contains("aqua_reply_ts_ns"));
        assert!(
            prom.contains("aqua_qos_calibration_error"),
            "watchdog fed from the observer: {prom}"
        );
    }

    #[test]
    fn spans_are_tagged_with_overlapping_fault_windows() {
        use aqua_core::time::Duration;
        let (obs, reader) = Obs::in_memory();
        let mut observer = HandlerObserver::new(&obs, None);
        let schedule = aqua_faults::FaultPlan::new()
            .pause(
                1,
                aqua_core::time::Instant::from_secs(1),
                Duration::from_secs(2),
            )
            .degrade(
                9,
                aqua_core::time::Instant::from_secs(100),
                Duration::from_secs(1),
                2.0,
            )
            .instantiate(7);
        observer.set_fault_windows(schedule.windows());
        let r = ReplicaId::new(1);
        let mut p = plan(0, &[r], &[0.9]);
        p.now_nanos = 1_500_000_000; // inside the pause window on replica 1
        observer.on_plan(p);
        observer.on_give_up(0, false, None, false, 1_900_000_000);
        observer.flush();
        let line = &reader.lines_containing("\"type\":\"request\"")[0];
        assert!(line.contains(r#""fault_windows":[0]"#), "{line}");
    }

    #[test]
    fn watchdog_alerts_on_sustained_drift() {
        let (obs, reader) = Obs::in_memory();
        let mut observer = HandlerObserver::new(&obs, None);
        observer.configure_watchdog(CalibrationConfig {
            min_samples: 10,
            cooldown: 20,
            ..CalibrationConfig::default()
        });
        let r = ReplicaId::new(1);
        for seq in 0..40 {
            observer.on_plan(plan(seq, &[r], &[0.97]));
            observer.on_give_up(
                seq,
                false,
                Some(TimingVerdict::Failure { qos_violated: true }),
                true,
                400_000_000 + seq,
            );
        }
        assert!(!reader.lines_containing("calibration_alert").is_empty());
    }
}
