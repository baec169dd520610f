//! The timing fault handler (§5.4), transport-agnostic.
//!
//! [`TimingFaultHandler`] owns the per-service state of a client gateway:
//! the QoS spec, the information repository, the selection strategy, the
//! pending-request table, and the timing-failure detector. It is pure
//! bookkeeping — the caller (a simulated node or the socket runtime) feeds
//! it events and performs the sends it plans:
//!
//! 1. [`TimingFaultHandler::plan_request`] — intercept a client request at
//!    `t0`, select replicas, record `t1`;
//! 2. [`TimingFaultHandler::on_reply`] — classify a reply (first vs
//!    redundant), measure the gateway delay `td = t4 − t1 − tq − ts`,
//!    update the repository, and run timing-failure detection;
//! 3. [`TimingFaultHandler::on_perf_update`] /
//!    [`TimingFaultHandler::on_view`] — keep the repository current.

use std::collections::BTreeSet;
use std::sync::Arc;

use aqua_core::failure::{TimingFailureDetector, TimingVerdict};
use aqua_core::model::ModelCacheStats;
use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::{InfoRepository, MethodId, PerfReport};
use aqua_core::time::{Duration, Instant};
use aqua_strategies::{SelectionInput, SelectionStrategy};

use crate::obs::{aligned_predictions, HandlerObserver, PlanObservation};
use crate::pending::{Answered, PendingTable};

/// A request the handler has multicast and is awaiting replies for.
#[derive(Debug, Clone)]
pub struct PendingRequest {
    /// When the client's request was intercepted (`t0`).
    pub intercepted_at: Instant,
    /// When the request was transmitted to the replicas (`t1`).
    pub sent_at: Instant,
    /// The selected replica subset, shared with the plan handed to the
    /// caller (one allocation per plan, not two).
    pub selected: Arc<[ReplicaId]>,
    /// Whether the first reply has been delivered to the client.
    pub answered: bool,
    /// Probes refresh the repository but are invisible to the client:
    /// no delivery, no timing-failure accounting (§8, extension 3).
    pub probe: bool,
}

impl Answered for PendingRequest {
    fn is_answered(&self) -> bool {
        self.answered
    }
}

/// The plan produced for one intercepted request: multicast the request
/// with this sequence number to these replicas.
#[derive(Debug, Clone)]
pub struct RequestPlan {
    /// Client-local sequence number identifying the request.
    pub seq: u64,
    /// Replicas to multicast to (empty when none are known — the caller
    /// should fail the request immediately). Shared with the handler's
    /// pending-request entry.
    pub replicas: Arc<[ReplicaId]>,
}

/// What [`TimingFaultHandler::on_reply`] decided about a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyOutcome {
    /// First reply for the request: deliver it to the client.
    Deliver {
        /// End-to-end response time `tr = t4 − t0`.
        response_time: Duration,
        /// Timing classification (and whether to fire the QoS callback).
        verdict: TimingVerdict,
    },
    /// A redundant reply: discard, but its performance data was used.
    Redundant,
    /// Reply for an unknown/expired request (e.g. after give-up).
    Unknown,
}

/// Aggregate counters for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandlerStats {
    /// Requests planned.
    pub requests: u64,
    /// Sum of selected-set sizes (for average redundancy).
    pub replicas_selected: u64,
    /// Replies delivered to the client (first replies).
    pub delivered: u64,
    /// Redundant replies discarded.
    pub redundant: u64,
    /// Requests finalized as failures because no reply ever arrived.
    pub gave_up: u64,
    /// QoS-violation callbacks issued.
    pub callbacks: u64,
    /// Active probes sent to replicas with stale performance data.
    pub probes: u64,
    /// Deadline-driven retry attempts issued (§retry: re-run Algorithm 1
    /// over the remaining replicas when the first selection misses an
    /// intermediate deadline).
    pub retries: u64,
    /// Attempts retired without delivery or failure because a sibling
    /// attempt resolved the logical request.
    pub abandoned: u64,
}

impl HandlerStats {
    /// Average number of replicas selected per request.
    pub fn mean_redundancy(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.replicas_selected as f64 / self.requests as f64
        }
    }
}

/// The per-service client-side handler state (see module docs).
pub struct TimingFaultHandler {
    qos: QosSpec,
    repository: InfoRepository,
    strategy: Box<dyn SelectionStrategy>,
    detector: TimingFailureDetector,
    pending: PendingTable<PendingRequest>,
    next_seq: u64,
    stats: HandlerStats,
    observer: Option<HandlerObserver>,
    client_id: Option<u64>,
    /// Strategy cache counters as of the last plan, so each plan reports
    /// only its own delta to the observer.
    cache_seen: ModelCacheStats,
    /// Every replica ever observed in a view or join: a member that shows
    /// up again after leaving is a *rejoin* and starts on probation,
    /// whereas a first-time member is warmed by the cold-start multicast.
    seen: BTreeSet<ReplicaId>,
}

impl std::fmt::Debug for TimingFaultHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingFaultHandler")
            .field("qos", &self.qos)
            .field("strategy", &self.strategy.name())
            .field("pending", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl TimingFaultHandler {
    /// Creates a handler with the paper's defaults: sliding window `l`,
    /// the given strategy, and the client's QoS spec.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(qos: QosSpec, window: usize, strategy: Box<dyn SelectionStrategy>) -> Self {
        TimingFaultHandler {
            qos,
            repository: InfoRepository::new(window),
            strategy,
            detector: TimingFailureDetector::new(qos),
            pending: PendingTable::default(),
            next_seq: 0,
            stats: HandlerStats::default(),
            observer: None,
            client_id: None,
            cache_seen: ModelCacheStats::default(),
            seen: BTreeSet::new(),
        }
    }

    /// Attaches an observability sink: from now on every planned request,
    /// reply, and give-up updates the `obs` registry and opens/extends a
    /// journal span. `client` labels the metrics and spans.
    pub fn attach_obs(&mut self, obs: &aqua_obs::Obs, client: Option<u64>) {
        self.observer = Some(HandlerObserver::new(obs, client));
        self.client_id = client;
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&HandlerObserver> {
        self.observer.as_ref()
    }

    /// Mutable access to the attached observer (fault-window installation,
    /// watchdog reconfiguration, alert hooks).
    pub fn observer_mut(&mut self) -> Option<&mut HandlerObserver> {
        self.observer.as_mut()
    }

    /// Installs the run's fault timeline on the observer so every emitted
    /// span is tagged with the stable ids of overlapping fault windows.
    /// No-op without an attached observer.
    pub fn set_fault_windows(&mut self, windows: Vec<aqua_faults::FaultWindow>) {
        if let Some(observer) = self.observer.as_mut() {
            observer.set_fault_windows(windows);
        }
    }

    /// Emits every span still held by the observer (delivered requests
    /// keep their span open to absorb late redundant replies) and flushes
    /// the journal. No-op without an attached observer.
    pub fn flush_observability(&mut self) {
        if let Some(observer) = self.observer.as_mut() {
            observer.flush();
        }
    }

    /// The QoS specification currently in force.
    pub fn qos(&self) -> QosSpec {
        self.qos
    }

    /// Renegotiates the QoS specification (§4), resetting failure counters.
    pub fn renegotiate(&mut self, qos: QosSpec) {
        self.qos = qos;
        self.detector.renegotiate(qos);
    }

    /// The gateway information repository.
    pub fn repository(&self) -> &InfoRepository {
        &self.repository
    }

    /// Mutable repository access (tests, manual seeding).
    pub fn repository_mut(&mut self) -> &mut InfoRepository {
        &mut self.repository
    }

    /// The timing-failure detector.
    pub fn detector(&self) -> &TimingFailureDetector {
        &self.detector
    }

    /// Aggregate counters.
    pub fn stats(&self) -> HandlerStats {
        self.stats
    }

    /// The active strategy's name.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// Requests currently awaiting a first reply.
    pub fn pending_count(&self) -> usize {
        self.pending.values().filter(|p| !p.answered).count()
    }

    /// Entries the pending table holds, answered or not.
    #[cfg(test)]
    pub(crate) fn tracked_entries(&self) -> usize {
        self.pending.len()
    }

    /// Intercepts a client request at `now` (= `t0` = `t1`) and selects the
    /// replica subset. The caller multicasts the request and later reports
    /// replies via [`TimingFaultHandler::on_reply`].
    pub fn plan_request(&mut self, now: Instant) -> RequestPlan {
        self.plan_request_for(now, None)
    }

    /// Like [`TimingFaultHandler::plan_request`] with a method id for
    /// per-method performance classification (§8 ext. 1).
    pub fn plan_request_for(&mut self, now: Instant, method: Option<MethodId>) -> RequestPlan {
        self.plan_with(now, method, now, None, &[])
            // aqua-lint: allow(no-panic-in-hot-path) plan_with returns None only when every replica is excluded; the initial call excludes none
            .expect("initial selections always produce a plan")
    }

    /// Plans a **deadline-driven retry** for a logical request first issued
    /// at `t0` whose attempt `retry_of` has missed an intermediate deadline:
    /// Algorithm 1 re-runs over the *remaining* replicas (the original
    /// selection is passed in `exclude`) and the new subset is multicast as
    /// a sibling attempt. Returns `None` when no other replica is available,
    /// in which case the caller keeps waiting on the original attempt.
    pub fn plan_retry(
        &mut self,
        now: Instant,
        method: Option<MethodId>,
        t0: Instant,
        retry_of: u64,
        exclude: &[ReplicaId],
    ) -> Option<RequestPlan> {
        self.plan_with(now, method, t0, Some(retry_of), exclude)
    }

    fn plan_with(
        &mut self,
        now: Instant,
        method: Option<MethodId>,
        t0: Instant,
        retry_of: Option<u64>,
        exclude: &[ReplicaId],
    ) -> Option<RequestPlan> {
        // δ (§5.3.3): the wall-clock cost of evaluating the model and
        // running the selection, fed to the overhead histogram. On a retry,
        // Algorithm 1 runs over the *remaining* replicas: the exclusion set
        // travels inside the input so the excluded members are invisible to
        // the model itself — not merely filtered out of its answer.
        let select_started = std::time::Instant::now();
        let mut replicas = self.strategy.select(&SelectionInput {
            repository: &self.repository,
            qos: &self.qos,
            method,
            now,
            exclude,
        });
        if retry_of.is_some() && replicas.is_empty() {
            // A retry with nobody left to ask is pointless; the original
            // attempt (or the give-up timer) resolves the request.
            return None;
        }
        // The model's per-replica P(meet deadline) for this very plan,
        // aligned with the selection (empty for baseline strategies and
        // cold-start multicasts), for the observer alone. Captured before
        // probation shadows are appended: shadows carry no prediction.
        let predicted = if self.observer.is_some() {
            aligned_predictions(&replicas, self.strategy.last_predictions())
        } else {
            Vec::new()
        };
        // Probation members ride along as shadow traffic: never trusted
        // candidates until `l` fresh samples arrive (§5.2), but the extra
        // replies rebuild their sliding window so probation can clear.
        let shadows: Vec<ReplicaId> = self
            .repository
            .iter()
            .filter(|(id, stats)| {
                stats.is_on_probation() && !replicas.contains(id) && !exclude.contains(id)
            })
            .map(|(id, _)| id)
            .collect();
        replicas.extend(shadows);
        let overhead_nanos = select_started.elapsed().as_nanos() as u64;
        let replicas: Arc<[ReplicaId]> = replicas.into();
        let seq = self.next_seq;
        self.next_seq += 1;
        if retry_of.is_none() {
            self.stats.requests += 1;
        } else {
            self.stats.retries += 1;
        }
        self.stats.replicas_selected += replicas.len() as u64;
        if let Some(observer) = self.observer.as_mut() {
            observer.on_plan(PlanObservation {
                seq,
                method: method.unwrap_or_default().index(),
                client: self.client_id,
                now_nanos: now.as_nanos(),
                deadline_nanos: self.qos.deadline().as_nanos(),
                promised: self.qos.min_probability(),
                selected: &replicas,
                predicted: &predicted,
                view_version: None,
                probe: false,
                overhead_nanos: Some(overhead_nanos),
                retry_of,
            });
            if let Some(totals) = self.strategy.cache_stats() {
                observer.on_model_cache(
                    totals.hits - self.cache_seen.hits,
                    totals.misses - self.cache_seen.misses,
                    totals.invalidations - self.cache_seen.invalidations,
                );
                self.cache_seen = totals;
            }
        }
        self.pending.insert(
            seq,
            PendingRequest {
                intercepted_at: t0,
                sent_at: now,
                selected: Arc::clone(&replicas),
                answered: false,
                probe: false,
            },
        );
        Some(RequestPlan { seq, replicas })
    }

    /// Plans an **active probe** to one replica (§8, extension 3: "use
    /// active probes \[5\] when a replica's performance information is
    /// obsolete"). The caller sends a minimal request with the returned
    /// sequence number; the reply refreshes the repository (including the
    /// gateway delay, which needs the recorded `t1`) but is never delivered
    /// and never counts toward the timing-failure statistics.
    pub fn plan_probe(&mut self, now: Instant, replica: ReplicaId) -> RequestPlan {
        let replicas: Arc<[ReplicaId]> = Arc::from([replica]);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.probes += 1;
        if let Some(observer) = self.observer.as_mut() {
            observer.on_plan(PlanObservation {
                seq,
                method: MethodId::DEFAULT.index(),
                client: self.client_id,
                now_nanos: now.as_nanos(),
                deadline_nanos: self.qos.deadline().as_nanos(),
                promised: self.qos.min_probability(),
                selected: std::slice::from_ref(&replica),
                predicted: &[],
                view_version: None,
                probe: true,
                overhead_nanos: None,
                retry_of: None,
            });
        }
        self.pending.insert(
            seq,
            PendingRequest {
                intercepted_at: now,
                sent_at: now,
                selected: Arc::clone(&replicas),
                answered: false,
                probe: true,
            },
        );
        RequestPlan { seq, replicas }
    }

    /// Replicas whose repository entry is older than `staleness` at `now`
    /// (or has no data at all) — the probe candidates.
    pub fn stale_replicas(&self, now: Instant, staleness: Duration) -> Vec<ReplicaId> {
        self.repository
            .iter()
            .filter(|(_, stats)| {
                stats
                    .last_update()
                    .is_none_or(|at| now.saturating_duration_since(at) > staleness)
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Processes a reply that arrived at `now` (= `t4`) from `replica` for
    /// request `seq`, carrying piggybacked `perf` data.
    pub fn on_reply(
        &mut self,
        now: Instant,
        seq: u64,
        replica: ReplicaId,
        perf: PerfReport,
    ) -> ReplyOutcome {
        let Some(pending) = self.pending.get_mut(seq) else {
            // Expired request: still mine the perf data.
            self.record_perf_only(now, replica, perf);
            return ReplyOutcome::Unknown;
        };

        // td = t4 − t1 − tq − ts (§5.4.1). Clamped at zero: bucketed or
        // skewed measurements must never underflow.
        let in_flight = now.saturating_duration_since(pending.sent_at);
        let td = in_flight
            .saturating_sub(perf.queuing_delay)
            .saturating_sub(perf.service_time);
        let first = !pending.answered;
        let probe = pending.probe;
        let t0 = pending.intercepted_at;
        if first {
            pending.answered = true;
        }

        // The gateway-side handling cost of this reply (repository update
        // plus delay bookkeeping), recorded on an observer's span as
        // `ingest_ns` so forensics can separate wire delay from ingest
        // stalls. Measured only for an observer.
        let ingest_started = self.observer.is_some().then(std::time::Instant::now);
        self.record_perf_tracked(now, replica, perf);
        self.repository.record_gateway_delay(replica, td, now);
        let ingest_nanos = ingest_started.map(|started| started.elapsed().as_nanos() as u64);

        if probe {
            // Probe replies only feed the repository.
            self.observe_reply(
                seq,
                replica,
                now,
                &perf,
                td,
                in_flight,
                ingest_nanos,
                first,
                true,
                None,
            );
            return ReplyOutcome::Redundant;
        }
        if first {
            let response_time = now.saturating_duration_since(t0);
            let verdict = self.detector.record(response_time);
            self.stats.delivered += 1;
            if verdict.should_notify() {
                self.stats.callbacks += 1;
            }
            self.observe_reply(
                seq,
                replica,
                now,
                &perf,
                td,
                in_flight,
                ingest_nanos,
                true,
                false,
                Some(verdict),
            );
            ReplyOutcome::Deliver {
                response_time,
                verdict,
            }
        } else {
            self.stats.redundant += 1;
            self.observe_reply(
                seq,
                replica,
                now,
                &perf,
                td,
                in_flight,
                ingest_nanos,
                false,
                false,
                None,
            );
            ReplyOutcome::Redundant
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn observe_reply(
        &mut self,
        seq: u64,
        replica: ReplicaId,
        now: Instant,
        perf: &PerfReport,
        td: Duration,
        in_flight: Duration,
        ingest_nanos: Option<u64>,
        first: bool,
        probe: bool,
        verdict: Option<TimingVerdict>,
    ) {
        if let Some(observer) = self.observer.as_mut() {
            observer.on_reply(
                seq,
                replica,
                now.as_nanos(),
                perf.service_time.as_nanos(),
                perf.queuing_delay.as_nanos(),
                td.as_nanos(),
                in_flight.as_nanos(),
                ingest_nanos,
                first,
                probe,
                verdict,
            );
        }
    }

    fn record_perf_only(&mut self, now: Instant, replica: ReplicaId, perf: PerfReport) {
        self.record_perf_tracked(now, replica, perf);
    }

    /// Records a perf sample and emits a probation-cleared event when the
    /// sample is the one that completes the replica's fresh window (§5.2).
    fn record_perf_tracked(&mut self, now: Instant, replica: ReplicaId, perf: PerfReport) {
        let was_on_probation = self
            .repository
            .stats(replica)
            .is_some_and(|s| s.is_on_probation());
        self.repository.record_perf(replica, perf, now);
        if was_on_probation {
            let cleared = self
                .repository
                .stats(replica)
                .is_some_and(|s| !s.is_on_probation());
            if cleared {
                if let Some(observer) = self.observer.as_mut() {
                    observer.on_probation(replica, false, now.as_nanos());
                }
            }
        }
    }

    /// Processes a pushed performance update from a subscriber channel.
    pub fn on_perf_update(&mut self, now: Instant, replica: ReplicaId, perf: PerfReport) {
        self.record_perf_tracked(now, replica, perf);
    }

    /// Installs a new server membership (from a group view change): departed
    /// replicas are dropped from the repository and will "not be considered
    /// in the selection process for future requests" (§5.4). A member that
    /// was seen before, left, and now reappears is a *rejoin* and starts on
    /// probation; first-time members are warmed by the cold-start multicast
    /// as usual.
    pub fn on_view<I: IntoIterator<Item = ReplicaId>>(&mut self, now: Instant, servers: I) {
        let servers: Vec<ReplicaId> = servers.into_iter().collect();
        // Current members are by definition "seen", even when they were
        // inserted directly at connect time rather than through a view.
        let known: Vec<ReplicaId> = self.repository.replica_ids().collect();
        self.seen.extend(known);
        let rejoining: Vec<ReplicaId> = servers
            .iter()
            .filter(|id| self.seen.contains(id) && !self.repository.contains(**id))
            .copied()
            .collect();
        self.seen.extend(servers.iter().copied());
        self.repository.apply_view(servers);
        for id in rejoining {
            self.begin_probation(now, id);
        }
    }

    /// Marks `replica` as rejoined after an outage (e.g. a socket reconnect
    /// after a crash-and-recover): it re-enters the repository **on
    /// probation**, shadowing selections until `l` fresh samples arrive.
    pub fn on_rejoin(&mut self, now: Instant, replica: ReplicaId) {
        self.seen.insert(replica);
        if self.repository.contains(replica) {
            return;
        }
        self.repository.insert_replica(replica);
        self.begin_probation(now, replica);
    }

    fn begin_probation(&mut self, now: Instant, replica: ReplicaId) {
        let window = self.repository.window() as u32;
        self.repository.set_probation(replica, window);
        if let Some(observer) = self.observer.as_mut() {
            observer.on_probation(replica, true, now.as_nanos());
        }
    }

    /// Retires attempt `seq` because a sibling attempt of the same logical
    /// request was delivered first. Not a delivery and not a failure: the
    /// request span closes as `superseded`, and late replies degrade to
    /// [`ReplyOutcome::Unknown`] (still mining their perf data). Returns
    /// `true` if the attempt was still open.
    pub fn on_abandon(&mut self, now: Instant, seq: u64) -> bool {
        match self.pending.get(seq) {
            Some(p) if !p.answered && !p.probe => {
                self.pending.remove(seq);
                self.stats.abandoned += 1;
                if let Some(observer) = self.observer.as_mut() {
                    observer.on_abandon(seq, now.as_nanos());
                }
                true
            }
            _ => false,
        }
    }

    /// Finalizes a request that never received any reply (all selected
    /// replicas crashed or the caller's give-up timer fired) at `now`.
    /// Counts as a timing failure. Returns `true` if the request was
    /// still open.
    pub fn on_give_up(&mut self, now: Instant, seq: u64) -> bool {
        match self.pending.get(seq) {
            Some(p) if p.probe => {
                // An unanswered probe is not a client-visible failure.
                self.pending.remove(seq);
                if let Some(observer) = self.observer.as_mut() {
                    observer.on_give_up(seq, true, None, false, now.as_nanos());
                }
                false
            }
            Some(p) if !p.answered => {
                self.pending.remove(seq);
                self.stats.gave_up += 1;
                // An unbounded response time: record as "missed by a lot".
                let verdict = self
                    .detector
                    .record(self.qos.deadline().saturating_mul(1_000));
                if verdict.should_notify() {
                    self.stats.callbacks += 1;
                }
                if let Some(observer) = self.observer.as_mut() {
                    observer.on_give_up(
                        seq,
                        false,
                        Some(verdict),
                        verdict.should_notify(),
                        now.as_nanos(),
                    );
                }
                true
            }
            _ => false,
        }
    }

    /// The pending entry for a sequence number, if still tracked.
    pub fn pending(&self, seq: u64) -> Option<&PendingRequest> {
        self.pending.get(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_strategies::ModelBased;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn handler(pc: f64) -> TimingFaultHandler {
        let qos = QosSpec::new(ms(200), pc).unwrap();
        TimingFaultHandler::new(qos, 5, Box::new(ModelBased::default()))
    }

    fn warm(h: &mut TimingFaultHandler, ids: &[u64], service_ms: u64) {
        for i in ids {
            let r = ReplicaId::new(*i);
            h.repository_mut().insert_replica(r);
            for _ in 0..3 {
                h.repository_mut().record_perf(
                    r,
                    PerfReport::new(ms(service_ms), ms(0), 0),
                    Instant::EPOCH,
                );
            }
            h.repository_mut()
                .record_gateway_delay(r, ms(2), Instant::EPOCH);
        }
    }

    #[test]
    fn cold_start_plans_full_multicast() {
        let mut h = handler(0.9);
        for i in 0..3 {
            h.repository_mut().insert_replica(ReplicaId::new(i));
        }
        let plan = h.plan_request(Instant::EPOCH);
        assert_eq!(plan.replicas.len(), 3);
        assert_eq!(plan.seq, 0);
        assert_eq!(h.pending_count(), 1);
    }

    #[test]
    fn first_reply_delivers_and_updates_everything() {
        let mut h = handler(0.9);
        warm(&mut h, &[0, 1, 2], 100);
        let t0 = Instant::from_millis(1_000);
        let plan = h.plan_request(t0);
        assert_eq!(plan.replicas.len(), 2, "warm Pc=0.9 needs m0 + 1");

        let r = plan.replicas[0];
        let t4 = t0 + ms(110);
        let perf = PerfReport::new(ms(100), ms(3), 1);
        let outcome = h.on_reply(t4, plan.seq, r, perf);
        match outcome {
            ReplyOutcome::Deliver {
                response_time,
                verdict,
            } => {
                assert_eq!(response_time, ms(110));
                assert!(verdict.is_timely());
            }
            other => panic!("expected Deliver, got {other:?}"),
        }
        // td = 110 − 3 − 100 = 7 ms.
        assert_eq!(
            h.repository().stats(r).unwrap().last_gateway_delay(),
            Some(ms(7))
        );
        assert_eq!(h.repository().stats(r).unwrap().outstanding(), 1);
        assert_eq!(h.stats().delivered, 1);
    }

    #[test]
    fn second_reply_is_redundant_but_mined() {
        let mut h = handler(0.9);
        warm(&mut h, &[0, 1, 2], 100);
        let t0 = Instant::from_millis(1_000);
        let plan = h.plan_request(t0);
        let (a, b) = (plan.replicas[0], plan.replicas[1]);
        let perf = PerfReport::new(ms(100), ms(0), 0);
        assert!(matches!(
            h.on_reply(t0 + ms(105), plan.seq, a, perf),
            ReplyOutcome::Deliver { .. }
        ));
        let before = h.repository().stats(b).unwrap().gateway_delays().len();
        assert_eq!(
            h.on_reply(t0 + ms(140), plan.seq, b, perf),
            ReplyOutcome::Redundant
        );
        let after = h.repository().stats(b).unwrap().gateway_delays().len();
        assert_eq!(after, before + 1, "redundant reply updated the delay");
        assert_eq!(h.stats().redundant, 1);
        assert_eq!(h.stats().delivered, 1);
    }

    #[test]
    fn late_first_reply_is_a_timing_failure() {
        let mut h = handler(0.0);
        warm(&mut h, &[0, 1], 100);
        let t0 = Instant::EPOCH;
        let plan = h.plan_request(t0);
        let outcome = h.on_reply(
            t0 + ms(500),
            plan.seq,
            plan.replicas[0],
            PerfReport::new(ms(480), ms(0), 0),
        );
        match outcome {
            ReplyOutcome::Deliver { verdict, .. } => {
                assert!(!verdict.is_timely());
                assert!(!verdict.should_notify(), "Pc = 0 tolerates failures");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(h.detector().failures(), 1);
    }

    #[test]
    fn callback_fires_when_violating() {
        let mut h = handler(0.9);
        warm(&mut h, &[0, 1], 100);
        let plan = h.plan_request(Instant::EPOCH);
        let outcome = h.on_reply(
            Instant::EPOCH + ms(900),
            plan.seq,
            plan.replicas[0],
            PerfReport::new(ms(880), ms(0), 0),
        );
        match outcome {
            ReplyOutcome::Deliver { verdict, .. } => assert!(verdict.should_notify()),
            other => panic!("{other:?}"),
        }
        assert_eq!(h.stats().callbacks, 1);
    }

    #[test]
    fn unknown_seq_still_mines_perf() {
        let mut h = handler(0.5);
        warm(&mut h, &[0], 100);
        let r = ReplicaId::new(0);
        let out = h.on_reply(Instant::EPOCH, 999, r, PerfReport::new(ms(50), ms(0), 0));
        assert_eq!(out, ReplyOutcome::Unknown);
        // The perf sample reached the window: 50 ms is now the newest entry.
        let latest = *h
            .repository()
            .stats(r)
            .unwrap()
            .history(MethodId::DEFAULT)
            .unwrap()
            .service_times()
            .latest()
            .unwrap();
        assert_eq!(latest, ms(50));
    }

    #[test]
    fn give_up_counts_failure_once() {
        let mut h = handler(0.0);
        warm(&mut h, &[0, 1], 100);
        let plan = h.plan_request(Instant::EPOCH);
        assert!(h.on_give_up(Instant::from_secs(5), plan.seq));
        assert!(!h.on_give_up(Instant::from_secs(5), plan.seq), "idempotent");
        assert_eq!(h.stats().gave_up, 1);
        assert_eq!(h.detector().failures(), 1);
        // A straggler reply after give-up is Unknown.
        assert_eq!(
            h.on_reply(
                Instant::from_secs(10),
                plan.seq,
                plan.replicas[0],
                PerfReport::new(ms(1), ms(0), 0)
            ),
            ReplyOutcome::Unknown
        );
    }

    #[test]
    fn probes_refresh_without_touching_statistics() {
        let mut h = handler(0.9);
        warm(&mut h, &[0, 1], 100);
        let r = ReplicaId::new(0);
        let t0 = Instant::from_secs(1);
        let plan = h.plan_probe(t0, r);
        assert_eq!(&plan.replicas[..], &[r]);
        assert_eq!(h.stats().probes, 1);
        assert_eq!(h.stats().requests, 0, "probes are not client requests");

        // The probe reply is never delivered, even though it is the first.
        let outcome = h.on_reply(
            t0 + ms(700), // way past any deadline — still no failure
            plan.seq,
            r,
            PerfReport::new(ms(650), ms(40), 2),
        );
        assert_eq!(outcome, ReplyOutcome::Redundant);
        assert_eq!(h.stats().delivered, 0);
        assert_eq!(h.detector().total(), 0, "no timing accounting for probes");
        // But the measurements landed: td = 700 − 40 − 650 = 10 ms.
        let stats = h.repository().stats(r).unwrap();
        assert_eq!(stats.last_gateway_delay(), Some(ms(10)));
        assert_eq!(stats.outstanding(), 2);
    }

    #[test]
    fn unanswered_probes_give_up_silently() {
        let mut h = handler(0.9);
        warm(&mut h, &[0, 1], 100);
        let plan = h.plan_probe(Instant::EPOCH, ReplicaId::new(1));
        assert!(
            !h.on_give_up(Instant::from_secs(5), plan.seq),
            "probe give-up is not a failure"
        );
        assert_eq!(h.stats().gave_up, 0);
        assert_eq!(h.detector().total(), 0);
    }

    #[test]
    fn stale_replicas_reports_old_and_empty_entries() {
        let mut h = handler(0.5);
        warm(&mut h, &[0], 100); // warmed at Instant::EPOCH
        h.repository_mut().insert_replica(ReplicaId::new(9)); // never updated
        let stale = h.stale_replicas(Instant::from_secs(10), Duration::from_secs(5));
        assert_eq!(stale, vec![ReplicaId::new(0), ReplicaId::new(9)]);
        let fresh = h.stale_replicas(Instant::from_millis(1), Duration::from_secs(5));
        assert_eq!(fresh, vec![ReplicaId::new(9)], "only the blank entry");
    }

    #[test]
    fn view_change_evicts_crashed_replica() {
        let mut h = handler(0.0);
        warm(&mut h, &[0, 1, 2], 100);
        h.on_view(Instant::EPOCH, [ReplicaId::new(0), ReplicaId::new(2)]);
        assert!(!h.repository().contains(ReplicaId::new(1)));
        let plan = h.plan_request(Instant::EPOCH);
        assert!(!plan.replicas.contains(&ReplicaId::new(1)));
    }

    #[test]
    fn perf_update_warms_repository() {
        let mut h = handler(0.0);
        h.repository_mut().insert_replica(ReplicaId::new(0));
        h.on_perf_update(
            Instant::EPOCH,
            ReplicaId::new(0),
            PerfReport::new(ms(10), ms(1), 0),
        );
        let stats = h.repository().stats(ReplicaId::new(0)).unwrap();
        assert_eq!(stats.outstanding(), 0);
        assert!(stats.history(MethodId::DEFAULT).is_some());
        assert!(!stats.is_warm(), "still no gateway delay measured");
    }

    #[test]
    fn renegotiate_resets_detector() {
        let mut h = handler(0.9);
        warm(&mut h, &[0, 1], 100);
        let plan = h.plan_request(Instant::EPOCH);
        h.on_reply(
            Instant::EPOCH + ms(900),
            plan.seq,
            plan.replicas[0],
            PerfReport::new(ms(880), ms(0), 0),
        );
        assert!(h.detector().is_violating());
        h.renegotiate(QosSpec::new(ms(1_000), 0.5).unwrap());
        assert!(!h.detector().is_violating());
        assert_eq!(h.qos().deadline(), ms(1_000));
    }

    #[test]
    fn mean_redundancy_tracks_selections() {
        let mut h = handler(0.0);
        warm(&mut h, &[0, 1, 2, 3], 100);
        for i in 0..4 {
            let plan = h.plan_request(Instant::from_millis(i * 10));
            assert_eq!(plan.replicas.len(), 2, "Pc = 0 warm selects 2");
        }
        assert_eq!(h.stats().mean_redundancy(), 2.0);
    }

    #[test]
    fn retry_replans_over_remaining_replicas() {
        let mut h = handler(0.0);
        warm(&mut h, &[0, 1, 2, 3], 100);
        let first = h.plan_request(Instant::EPOCH);
        let retry = h
            .plan_retry(
                Instant::from_millis(150),
                None,
                Instant::EPOCH,
                first.seq,
                &first.replicas,
            )
            .expect("others remain");
        assert!(!retry.replicas.is_empty());
        for r in retry.replicas.iter() {
            assert!(
                !first.replicas.contains(r),
                "retry must use the remaining replicas only"
            );
        }
        assert_eq!(h.stats().requests, 1, "a retry is not a new request");
        assert_eq!(h.stats().retries, 1);
        // The retried attempt keeps the original interception time, so the
        // end-to-end response time spans both attempts.
        assert_eq!(h.pending(retry.seq).unwrap().intercepted_at, Instant::EPOCH);
    }

    #[test]
    fn retry_with_nobody_left_is_refused() {
        let mut h = handler(0.0);
        warm(&mut h, &[0, 1], 100);
        let first = h.plan_request(Instant::EPOCH);
        assert_eq!(first.replicas.len(), 2);
        assert!(
            h.plan_retry(
                Instant::from_millis(150),
                None,
                Instant::EPOCH,
                first.seq,
                &first.replicas
            )
            .is_none(),
            "every replica is already serving the first attempt"
        );
        assert_eq!(h.stats().retries, 0);
    }

    #[test]
    fn plan_and_pending_share_one_replica_list() {
        let mut h = handler(0.0);
        warm(&mut h, &[0, 1], 100);
        let plan = h.plan_request(Instant::EPOCH);
        assert!(
            Arc::ptr_eq(&plan.replicas, &h.pending(plan.seq).unwrap().selected),
            "the plan and the pending entry must share one allocation"
        );
        let probe = h.plan_probe(Instant::from_millis(1), ReplicaId::new(0));
        assert!(Arc::ptr_eq(
            &probe.replicas,
            &h.pending(probe.seq).unwrap().selected
        ));
    }

    #[test]
    fn abandoned_attempt_is_neither_delivery_nor_failure() {
        let mut h = handler(0.0);
        warm(&mut h, &[0, 1], 100);
        let plan = h.plan_request(Instant::EPOCH);
        assert!(h.on_abandon(Instant::from_millis(50), plan.seq));
        assert!(
            !h.on_abandon(Instant::from_millis(51), plan.seq),
            "already retired"
        );
        let stats = h.stats();
        assert_eq!(stats.abandoned, 1);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.gave_up, 0);
        assert_eq!(h.detector().failures(), 0);
        // A late reply from the abandoned attempt still mines perf data.
        let replica = plan.replicas[0];
        let outcome = h.on_reply(
            Instant::from_millis(120),
            plan.seq,
            replica,
            PerfReport::new(ms(100), ms(0), 0),
        );
        assert!(matches!(outcome, ReplyOutcome::Unknown));
        assert!(
            !h.on_give_up(Instant::from_millis(130), plan.seq),
            "nothing left to give up on"
        );
    }

    #[test]
    fn rejoining_replica_serves_probation_until_fresh_window() {
        let mut h = handler(0.0);
        warm(&mut h, &[0, 1, 2], 100);
        h.on_view(Instant::EPOCH, [ReplicaId::new(0), ReplicaId::new(1)]);
        assert!(!h.repository().contains(ReplicaId::new(2)));
        // Replica 2 recovers and rejoins the view: probation, not trust.
        h.on_view(
            Instant::from_millis(10),
            [ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(2)],
        );
        let stats = h.repository().stats(ReplicaId::new(2)).unwrap();
        assert!(stats.is_on_probation());
        // It shadows the next selection (so its window can refill) but is
        // never a trusted candidate while on probation.
        let plan = h.plan_request(Instant::from_millis(20));
        assert!(plan.replicas.contains(&ReplicaId::new(2)));
        assert_eq!(
            *plan.replicas.last().unwrap(),
            ReplicaId::new(2),
            "shadows are appended after the trusted selection"
        );
        // l fresh samples clear probation.
        for i in 0..5u64 {
            h.on_perf_update(
                Instant::from_millis(30 + i),
                ReplicaId::new(2),
                PerfReport::new(ms(90), ms(0), 0),
            );
        }
        let stats = h.repository().stats(ReplicaId::new(2)).unwrap();
        assert!(!stats.is_on_probation());
    }

    #[test]
    fn first_time_members_join_without_probation() {
        let mut h = handler(0.0);
        warm(&mut h, &[0, 1], 100);
        h.on_view(
            Instant::EPOCH,
            [ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(2)],
        );
        let stats = h.repository().stats(ReplicaId::new(2)).unwrap();
        assert!(
            !stats.is_on_probation(),
            "a never-seen member is warmed by the cold-start multicast instead"
        );
    }

    #[test]
    fn explicit_rejoin_starts_probation() {
        let mut h = handler(0.0);
        warm(&mut h, &[0, 1], 100);
        h.on_view(Instant::EPOCH, [ReplicaId::new(0)]);
        h.on_rejoin(Instant::from_millis(5), ReplicaId::new(1));
        assert!(h.repository().contains(ReplicaId::new(1)));
        assert!(h
            .repository()
            .stats(ReplicaId::new(1))
            .unwrap()
            .is_on_probation());
        // Rejoining while still connected is a no-op.
        h.on_rejoin(Instant::from_millis(6), ReplicaId::new(0));
        assert!(!h
            .repository()
            .stats(ReplicaId::new(0))
            .unwrap()
            .is_on_probation());
    }
}
