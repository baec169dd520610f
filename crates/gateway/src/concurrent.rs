//! The concurrent timing fault handler: lock-free planning over published
//! snapshots plus a sharded write path.
//!
//! [`crate::TimingFaultHandler`] is deliberately single-threaded — the
//! socket runtime used to wrap it in one big mutex, which serialized
//! *everything*: Algorithm 1, reply classification, repository updates,
//! and the pending-request table. [`ConcurrentHandler`] splits those
//! responsibilities so concurrent callers never meet on a lock:
//!
//! * **Planning** reads an immutable [`PlanningView`] published through a
//!   [`SnapshotCell`]: per-replica cumulative response-time tables plus
//!   warm/probation flags. `plan_request` runs Algorithm 1 entirely on the
//!   caller's thread against that view — no lock is held while the model
//!   is evaluated. Strategies that cannot be evaluated from a snapshot
//!   (stateful baselines) fall back to a small strategy mutex.
//! * **Reply ingestion** is sharded by replica: piggybacked perf reports
//!   and gateway-delay measurements update only the owning shard's
//!   repository. A publisher merges the shards and republishes the
//!   planning view off the hot path, debounced so a burst of replies
//!   costs one rebuild (freshness stays bounded by the sliding window
//!   *l* of §5.2 — see DESIGN.md §12 for the equivalence argument).
//! * **The pending-request table** is sharded by sequence number. Sibling
//!   attempts of one logical request (retries) share an atomic `answered`
//!   flag, so first-reply delivery, duplicate classification, give-up,
//!   and retry re-planning race safely: exactly one of deliver/give-up
//!   wins the flag, and the loser reclassifies itself.
//!
//! The publish-vs-plan and reply-vs-retry protocols are model-checked by
//! `aqua-lint`'s bounded interleaving checker (`interleave.rs`).

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use aqua_core::aqua;
use aqua_core::failure::{TimingFailureDetector, TimingVerdict};
use aqua_core::model::{ModelCacheStats, ResponseTimeModel};
use aqua_core::pmf::ConvScratch;
use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::{InfoRepository, MethodId, PerfReport};
use aqua_core::scheduler::ColdStartPolicy;
use aqua_core::select::{select_replicas_tolerating, Candidate};
use aqua_core::snapshot::{method_slot, PlanningView, ReplicaSnapshot, SnapshotCell};
use aqua_core::time::{Duration, Instant};
use aqua_obs::contention::LockContention;
use aqua_obs::metrics::{Counter, Histogram};
use aqua_strategies::{SelectionInput, SelectionStrategy, SnapshotPlanSpec};
use parking_lot::Mutex;

use crate::obs::{HandlerObserver, PlanObservation};
use crate::timing::{HandlerStats, ReplyOutcome, RequestPlan};

/// Number of pending-table shards (sequence numbers hash across them).
const PENDING_SHARDS: usize = 16;
/// Number of reply-ingestion shards (replicas hash across them).
const INGEST_SHARDS: usize = 16;
/// Default minimum interval between snapshot republishes. A burst of
/// replies inside the interval is coalesced into one rebuild; the
/// planning view is therefore at most this much behind the shards.
const DEFAULT_MIN_REPUBLISH: Duration = Duration::from_micros(500);

/// One attempt awaiting replies. Sibling attempts of the same logical
/// request share `answered` and `group`, which is what makes delivery,
/// give-up, and retry registration race-safe (see module docs).
#[derive(Debug, Clone)]
struct PendingEntry {
    /// `t0` of the *logical* request (retries inherit the original).
    intercepted_at: Instant,
    /// `t1` of this attempt.
    sent_at: Instant,
    /// Group-wide "a first reply was delivered (or the request was given
    /// up)" flag; exactly one CAS ever wins it.
    answered: Arc<AtomicBool>,
    /// Every attempt seq of the logical request, the original first. A
    /// retry registers itself here *before* inserting its entry, so the
    /// winner's retire pass can never miss it entirely.
    group: Arc<Mutex<Vec<u64>>>,
}

/// Lifetime counters, updated with relaxed atomics from any thread.
#[derive(Debug, Default)]
struct AtomicStats {
    requests: AtomicU64,
    replicas_selected: AtomicU64,
    delivered: AtomicU64,
    redundant: AtomicU64,
    gave_up: AtomicU64,
    callbacks: AtomicU64,
    retries: AtomicU64,
    abandoned: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> HandlerStats {
        HandlerStats {
            requests: self.requests.load(Ordering::Relaxed),
            replicas_selected: self.replicas_selected.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            redundant: self.redundant.load(Ordering::Relaxed),
            gave_up: self.gave_up.load(Ordering::Relaxed),
            callbacks: self.callbacks.load(Ordering::Relaxed),
            probes: 0,
            retries: self.retries.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
        }
    }
}

/// How plans are produced.
enum PlannerMode {
    /// The strategy is a pure function of the response-time distributions:
    /// evaluate Algorithm 1 against the published snapshot, lock-free.
    Snapshot {
        spec: SnapshotPlanSpec,
        model: ResponseTimeModel,
    },
    /// Opaque or stateful strategy: serialize calls through a mutex (the
    /// repository it reads is still the immutable published view).
    Strategy(Mutex<Box<dyn SelectionStrategy>>),
}

/// Group membership bookkeeping (view changes, rejoin detection).
#[derive(Debug, Default)]
struct Membership {
    /// Current members.
    present: BTreeSet<ReplicaId>,
    /// Every replica ever seen — a present-again member that left before
    /// is a *rejoin* and starts on probation.
    seen: BTreeSet<ReplicaId>,
}

/// What a publish reports when an [`aqua_obs::Obs`] is attached.
struct PublishMetrics {
    /// `aqua_view_publish_ns`: wall time of one rebuild and swap.
    publish_ns: Arc<Histogram>,
    /// `aqua_view_snapshots_rebuilt_total`: replica snapshots built anew.
    rebuilt: Arc<Counter>,
    /// `aqua_view_snapshots_reused_total`: snapshots carried over from the
    /// previous view because nothing they were built from had moved.
    reused: Arc<Counter>,
}

/// Observer state (the observer's hooks take `&mut self`).
struct ObsState {
    observer: HandlerObserver,
    cache_seen: ModelCacheStats,
}

/// A timing fault handler shareable across threads: `&self` everywhere,
/// no global lock. See the module docs for the architecture.
pub struct ConcurrentHandler {
    /// Canonical QoS spec, read by publishers at rebuild time; planners
    /// read the copy published inside the [`PlanningView`] instead.
    qos: Mutex<QosSpec>,
    window: usize,
    strategy_name: &'static str,
    planner: PlannerMode,
    snapshot: SnapshotCell,
    /// Serializes publishers; holds their convolution scratch buffers.
    publish: Mutex<ConvScratch>,
    /// Set by ingestion when shard state moved past the published view.
    dirty: AtomicBool,
    /// `Instant::as_nanos` of the last publish, for the debounce check.
    last_publish_ns: AtomicU64,
    min_republish: Duration,
    ingest: Vec<Mutex<InfoRepository>>,
    membership: Mutex<Membership>,
    pending: Vec<Mutex<HashMap<u64, PendingEntry>>>,
    next_seq: AtomicU64,
    /// Most recent δ (§5.3.3) in nanoseconds, read by the next plan.
    last_overhead_ns: AtomicU64,
    detector: Mutex<TimingFailureDetector>,
    stats: AtomicStats,
    obs: Option<Mutex<ObsState>>,
    publish_metrics: Option<PublishMetrics>,
    client_id: Option<u64>,
    pending_contention: LockContention,
    ingest_contention: LockContention,
    publish_contention: LockContention,
}

impl std::fmt::Debug for ConcurrentHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentHandler")
            .field("qos", &*self.qos.lock())
            .field("strategy", &self.strategy_name)
            .field("version", &self.snapshot.version())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

impl ConcurrentHandler {
    /// Creates a handler with sliding window `l` and the given strategy.
    ///
    /// Strategies that expose a [`SnapshotPlanSpec`] (the paper's
    /// model-based selection) are planned lock-free from the published
    /// snapshot; others go through a strategy mutex.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(qos: QosSpec, window: usize, strategy: Box<dyn SelectionStrategy>) -> Self {
        let strategy_name = strategy.name();
        let planner = match strategy.snapshot_spec() {
            Some(spec) => PlannerMode::Snapshot {
                spec,
                model: ResponseTimeModel::new(spec.model),
            },
            None => PlannerMode::Strategy(Mutex::new(strategy)),
        };
        ConcurrentHandler {
            qos: Mutex::new(qos),
            window,
            strategy_name,
            planner,
            snapshot: SnapshotCell::new(PlanningView::empty(window, qos)),
            publish: Mutex::new(ConvScratch::new()),
            dirty: AtomicBool::new(false),
            last_publish_ns: AtomicU64::new(0),
            min_republish: DEFAULT_MIN_REPUBLISH,
            ingest: (0..INGEST_SHARDS)
                .map(|_| Mutex::new(InfoRepository::new(window)))
                .collect(),
            membership: Mutex::new(Membership::default()),
            pending: (0..PENDING_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            next_seq: AtomicU64::new(0),
            last_overhead_ns: AtomicU64::new(0),
            detector: Mutex::new(TimingFailureDetector::new(qos)),
            stats: AtomicStats::default(),
            obs: None,
            publish_metrics: None,
            client_id: None,
            pending_contention: LockContention::detached(),
            ingest_contention: LockContention::detached(),
            publish_contention: LockContention::detached(),
        }
    }

    /// Overrides the republish debounce interval (tests, benchmarks).
    #[must_use]
    pub fn with_min_republish(mut self, interval: Duration) -> Self {
        self.min_republish = interval;
        self
    }

    /// Attaches an observability sink (must happen before the handler is
    /// shared). Also registers the lock-contention counters
    /// `aqua_lock_wait_ns_total{lock=…}` for the shard and publish locks
    /// and the publish metrics `aqua_view_publish_ns` and
    /// `aqua_view_snapshots_{rebuilt,reused}_total`.
    pub fn attach_obs(&mut self, obs: &aqua_obs::Obs, client: Option<u64>) {
        self.obs = Some(Mutex::new(ObsState {
            observer: HandlerObserver::new(obs, client),
            cache_seen: ModelCacheStats::default(),
        }));
        self.publish_metrics = Some(PublishMetrics {
            publish_ns: obs.registry().histogram("aqua_view_publish_ns", &[]),
            rebuilt: obs
                .registry()
                .counter("aqua_view_snapshots_rebuilt_total", &[]),
            reused: obs
                .registry()
                .counter("aqua_view_snapshots_reused_total", &[]),
        });
        self.client_id = client;
        self.pending_contention = LockContention::new(obs.registry(), "pending-shard");
        self.ingest_contention = LockContention::new(obs.registry(), "ingest-shard");
        self.publish_contention = LockContention::new(obs.registry(), "publish");
    }

    /// The QoS specification in force.
    pub fn qos(&self) -> QosSpec {
        *self.qos.lock()
    }

    /// Renegotiates the QoS spec (§5.4.2): the detector starts a clean
    /// history under the new deadline, and the planning snapshot is
    /// republished immediately so in-flight planners switch over at their
    /// next pointer load.
    pub fn renegotiate(&self, now: Instant, qos: QosSpec) {
        *self.qos.lock() = qos;
        self.detector.lock().renegotiate(qos);
        self.maybe_publish(now, true);
    }

    /// The active strategy's name.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy_name
    }

    /// A point-in-time copy of the merged information repository (the
    /// facade tests and reporting read; planning uses the published view).
    pub fn repository(&self) -> InfoRepository {
        self.merged_repository()
    }

    /// A point-in-time copy of the timing-failure detector.
    pub fn detector(&self) -> TimingFailureDetector {
        self.detector.lock().clone()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> HandlerStats {
        self.stats.snapshot()
    }

    /// The currently published planning view.
    pub fn planning_view(&self) -> Arc<PlanningView> {
        self.snapshot.load()
    }

    /// Attempts currently awaiting a first reply.
    pub fn pending_count(&self) -> usize {
        self.pending
            .iter()
            .map(|shard| {
                let shard = self.pending_contention.acquire(|| shard.lock());
                shard
                    .values()
                    .filter(|p| !p.answered.load(Ordering::Acquire))
                    .count()
            })
            .sum()
    }

    /// Emits every span still held by the observer and flushes the
    /// journal. No-op without an attached observer.
    pub fn flush_observability(&self) {
        if let Some(obs) = &self.obs {
            obs.lock().observer.flush();
        }
    }

    /// Installs the run's fault timeline on the observer so every emitted
    /// span is tagged with the stable ids of overlapping fault windows.
    /// No-op without an attached observer.
    pub fn set_fault_windows(&self, windows: Vec<aqua_faults::FaultWindow>) {
        if let Some(obs) = &self.obs {
            obs.lock().observer.set_fault_windows(windows);
        }
    }

    /// Runs `f` against the attached observer (watchdog reconfiguration,
    /// alert hooks). Returns `None` without an attached observer.
    pub fn with_observer<T>(&self, f: impl FnOnce(&mut HandlerObserver) -> T) -> Option<T> {
        self.obs.as_ref().map(|obs| f(&mut obs.lock().observer))
    }

    // -- membership ---------------------------------------------------------

    /// Registers a replica (connect time / service discovery).
    pub fn insert_replica(&self, now: Instant, id: ReplicaId) -> bool {
        {
            let mut membership = self.membership.lock();
            membership.present.insert(id);
            membership.seen.insert(id);
        }
        let inserted = {
            let mut repo = self.ingest_shard(id).lock();
            repo.insert_replica(id)
        };
        self.maybe_publish(now, true);
        inserted
    }

    /// Marks `replica` as rejoined after an outage: it re-enters the
    /// repository **on probation**, shadowing selections until `l` fresh
    /// samples arrive.
    pub fn on_rejoin(&self, now: Instant, replica: ReplicaId) {
        let fresh = {
            let mut membership = self.membership.lock();
            membership.seen.insert(replica);
            membership.present.insert(replica)
        };
        if !fresh {
            return;
        }
        {
            let mut repo = self.ingest_shard(replica).lock();
            repo.insert_replica(replica);
            repo.set_probation(replica, self.window as u32);
        }
        self.observe_probation(replica, true, now);
        self.maybe_publish(now, true);
    }

    /// Installs a new membership view; departed replicas are dropped, and
    /// previously-seen members that reappear start on probation (§5.4).
    pub fn on_view<I: IntoIterator<Item = ReplicaId>>(&self, now: Instant, servers: I) {
        let servers: Vec<ReplicaId> = servers.into_iter().collect();
        let (departed, rejoining) = {
            let mut membership = self.membership.lock();
            let rejoining: Vec<ReplicaId> = servers
                .iter()
                .filter(|id| membership.seen.contains(id) && !membership.present.contains(id))
                .copied()
                .collect();
            let departed: Vec<ReplicaId> = membership
                .present
                .iter()
                .filter(|id| !servers.contains(id))
                .copied()
                .collect();
            membership.present = servers.iter().copied().collect();
            membership.seen.extend(servers.iter().copied());
            (departed, rejoining)
        };
        for id in departed {
            let mut repo = self.ingest_shard(id).lock();
            repo.remove_replica(id);
        }
        for id in &servers {
            let mut repo = self.ingest_shard(*id).lock();
            repo.insert_replica(*id);
        }
        for id in rejoining {
            {
                let mut repo = self.ingest_shard(id).lock();
                repo.set_probation(id, self.window as u32);
            }
            self.observe_probation(id, true, now);
        }
        self.maybe_publish(now, true);
    }

    // -- ingestion ----------------------------------------------------------

    /// Processes a pushed performance update from a subscriber channel.
    pub fn on_perf_update(&self, now: Instant, replica: ReplicaId, perf: PerfReport) {
        self.ingest(now, replica, Some(perf), None);
    }

    /// Records into the replica's shard; emits the probation-cleared event
    /// when the sample completes a fresh window; marks the view dirty.
    fn ingest(
        &self,
        now: Instant,
        replica: ReplicaId,
        perf: Option<PerfReport>,
        delay: Option<Duration>,
    ) {
        let cleared = {
            let mut repo = self
                .ingest_contention
                .acquire(|| self.ingest_shard(replica).lock());
            if !repo.contains(replica) {
                // Unknown replica (departed mid-flight): drop the sample,
                // exactly like the serialized repository does.
                return;
            }
            let was_on_probation = repo.stats(replica).is_some_and(|s| s.is_on_probation());
            if let Some(report) = perf {
                repo.record_perf(replica, report, now);
            }
            if let Some(td) = delay {
                repo.record_gateway_delay(replica, td, now);
            }
            was_on_probation && repo.stats(replica).is_some_and(|s| !s.is_on_probation())
        };
        if cleared {
            self.observe_probation(replica, false, now);
        }
        self.dirty.store(true, Ordering::Release);
        self.maybe_publish(now, false);
    }

    // -- publishing ---------------------------------------------------------

    /// Rebuilds and publishes the planning view if it is stale (or
    /// `force`d by a membership change). Debounced: at most one publish
    /// per [`ConcurrentHandler::with_min_republish`] interval, so a burst
    /// of replies costs one rebuild.
    fn maybe_publish(&self, now: Instant, force: bool) {
        if !force {
            if !self.dirty.load(Ordering::Acquire) {
                return;
            }
            let last = self.last_publish_ns.load(Ordering::Relaxed);
            if now.as_nanos().saturating_sub(last) < self.min_republish.as_nanos() {
                return;
            }
        }
        let mut scratch = self.publish_contention.acquire(|| self.publish.lock());
        if !force && !self.dirty.load(Ordering::Acquire) {
            // A queued publisher already covered this batch of updates.
            return;
        }
        self.dirty.store(false, Ordering::Release);
        let last = self.last_publish_ns.load(Ordering::Relaxed);
        // aqua-lint: allow(atomics-ordering) debounce timestamp only; the snapshot is published via the version-guarded cell, a stale read costs one extra rebuild
        self.last_publish_ns
            .store(now.as_nanos().max(last), Ordering::Relaxed);

        let timed = self
            .publish_metrics
            .as_ref()
            .map(|metrics| (metrics, std::time::Instant::now()));
        let current = self.snapshot.load();
        let merged = self.merged_repository();
        // One read: the tables are built to the deadline they publish with.
        let qos = self.qos();
        let mut rebuilt = 0u64;
        let mut snaps: Vec<Arc<ReplicaSnapshot>> = Vec::with_capacity(merged.len());
        for (id, stats) in merged.iter() {
            let reused = current
                .replicas()
                .binary_search_by_key(&id, |r| r.id())
                .ok()
                .map(|i| &current.replicas()[i])
                .filter(|snap| snap.is_current(stats) && snap.covers(qos.deadline()))
                .map(Arc::clone);
            snaps.push(reused.unwrap_or_else(|| {
                rebuilt += 1;
                Arc::new(match &self.planner {
                    // Plans read `F(t)` at the view's own deadline less δ,
                    // never past it.
                    PlannerMode::Snapshot { model, .. } => ReplicaSnapshot::build_within(
                        id,
                        stats,
                        model,
                        &mut scratch,
                        Some(qos.deadline()),
                    ),
                    // The strategy reads the repository, not tables.
                    PlannerMode::Strategy(_) => ReplicaSnapshot::without_tables(id, stats),
                })
            }));
        }
        let reused = snaps.len() as u64 - rebuilt;
        let view = PlanningView::assemble(current.version() + 1, snaps, Arc::new(merged), qos);
        self.snapshot.publish(Arc::new(view));
        if let Some((metrics, started)) = timed {
            metrics
                .publish_ns
                .record(started.elapsed().as_nanos() as u64);
            metrics.rebuilt.add(rebuilt);
            metrics.reused.add(reused);
        }
    }

    /// Clones every present replica's stats out of its shard (one shard
    /// lock at a time) into one repository.
    fn merged_repository(&self) -> InfoRepository {
        let present: Vec<ReplicaId> = {
            let membership = self.membership.lock();
            membership.present.iter().copied().collect()
        };
        let mut merged = InfoRepository::new(self.window);
        for id in present {
            let stats = {
                let repo = self.ingest_shard(id).lock();
                repo.stats(id).cloned()
            };
            if let Some(stats) = stats {
                merged.insert_stats(id, stats);
            }
        }
        merged
    }

    // -- planning -----------------------------------------------------------

    /// Intercepts a client request at `now` (= `t0` = `t1`) and selects
    /// the replica subset, lock-free when the strategy allows it.
    pub fn plan_request(&self, now: Instant) -> RequestPlan {
        self.plan_request_for(now, None)
    }

    /// Like [`ConcurrentHandler::plan_request`] with a method id.
    pub fn plan_request_for(&self, now: Instant, method: Option<MethodId>) -> RequestPlan {
        let (seq, replicas) = self
            .plan_with(now, method, now, None, &[])
            .expect("initial selections always produce a plan");
        let entry = PendingEntry {
            intercepted_at: now,
            sent_at: now,
            answered: Arc::new(AtomicBool::new(false)),
            group: Arc::new(Mutex::new(vec![seq])),
        };
        {
            let mut shard = self
                .pending_contention
                .acquire(|| self.pending_shard(seq).lock());
            shard.insert(seq, entry);
        }
        RequestPlan { seq, replicas }
    }

    /// Plans a deadline-driven retry of attempt `retry_of`: Algorithm 1
    /// re-runs over the remaining replicas and the new attempt joins the
    /// original's group. Returns `None` when no replica is left to ask or
    /// the logical request already resolved.
    pub fn plan_retry(
        &self,
        now: Instant,
        method: Option<MethodId>,
        t0: Instant,
        retry_of: u64,
        exclude: &[ReplicaId],
    ) -> Option<RequestPlan> {
        let origin = {
            let shard = self
                .pending_contention
                .acquire(|| self.pending_shard(retry_of).lock());
            shard.get(&retry_of).cloned()
        }?;
        if origin.answered.load(Ordering::Acquire) {
            return None;
        }
        let (seq, replicas) = self.plan_with(now, method, t0, Some(retry_of), exclude)?;
        // Join the group *before* inserting the entry: the delivery path
        // snapshots the group and retires every member it finds, so a
        // concurrent winner either sees our seq (and retires the entry
        // once we insert it — or misses it and we self-retire below) or
        // has not delivered yet, in which case the flag check below is
        // still false and the attempt proceeds normally.
        {
            let mut group = origin.group.lock();
            group.push(seq);
        }
        let entry = PendingEntry {
            intercepted_at: t0,
            sent_at: now,
            answered: Arc::clone(&origin.answered),
            group: Arc::clone(&origin.group),
        };
        {
            let mut shard = self
                .pending_contention
                .acquire(|| self.pending_shard(seq).lock());
            shard.insert(seq, entry);
        }
        if origin.answered.load(Ordering::Acquire) {
            // The sibling resolved while we were registering. The winner's
            // retire pass may have run before our insert; retire ourselves
            // (idempotent — at most one of the two removals succeeds).
            self.retire_attempt(now, seq);
            return None;
        }
        Some(RequestPlan { seq, replicas })
    }

    /// Shared planning core: runs the selection (snapshot or strategy
    /// mode), appends probation shadows, updates stats and the observer.
    fn plan_with(
        &self,
        now: Instant,
        method: Option<MethodId>,
        _t0: Instant,
        retry_of: Option<u64>,
        exclude: &[ReplicaId],
    ) -> Option<(u64, Arc<[ReplicaId]>)> {
        let started = std::time::Instant::now();
        let view = self.snapshot.load();
        let (mut replicas, predicted, cache_totals) = match &self.planner {
            PlannerMode::Snapshot { spec, .. } => {
                let (selected, predicted) = self.plan_from_snapshot(&view, spec, method, exclude);
                (selected, predicted, None)
            }
            PlannerMode::Strategy(strategy) => {
                let mut strategy = strategy.lock();
                let selected = strategy.select(&SelectionInput {
                    repository: view.repository(),
                    qos: &view.qos(),
                    method,
                    now,
                    exclude,
                });
                // Strategies that model per-replica success expose this
                // plan's predictions; baselines return an empty slice.
                let predictions = strategy.last_predictions();
                let predicted: Vec<f64> = selected
                    .iter()
                    .map(|r| predictions.iter().find(|(id, _)| id == r).map(|(_, p)| *p))
                    .collect::<Option<Vec<f64>>>()
                    .unwrap_or_default();
                (selected, predicted, strategy.cache_stats())
            }
        };
        if retry_of.is_some() && replicas.is_empty() {
            return None;
        }
        // Probation members ride along as shadow traffic (§5.2): never
        // trusted candidates, but their replies rebuild the fresh window.
        for snap in view.replicas() {
            let id = snap.id();
            if !snap.is_selectable() && !replicas.contains(&id) && !exclude.contains(&id) {
                replicas.push(id);
            }
        }
        let overhead_nanos = started.elapsed().as_nanos() as u64;
        // aqua-lint: allow(atomics-ordering) standalone overhead gauge; readers tolerate staleness and no other data is published under it
        self.last_overhead_ns
            .store(overhead_nanos, Ordering::Relaxed);
        let replicas: Arc<[ReplicaId]> = replicas.into();
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if retry_of.is_none() {
            self.stats.requests.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
        }
        self.stats
            .replicas_selected
            .fetch_add(replicas.len() as u64, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            let mut obs = obs.lock();
            obs.observer.on_plan(PlanObservation {
                seq,
                method: method.unwrap_or_default().index(),
                client: self.client_id,
                now_nanos: now.as_nanos(),
                deadline_nanos: view.qos().deadline().as_nanos(),
                promised: view.qos().min_probability(),
                selected: &replicas,
                predicted: &predicted,
                view_version: Some(view.version()),
                probe: false,
                overhead_nanos: Some(overhead_nanos),
                retry_of,
            });
            if let Some(totals) = cache_totals {
                let seen = obs.cache_seen;
                obs.observer.on_model_cache(
                    totals.hits - seen.hits,
                    totals.misses - seen.misses,
                    totals.invalidations - seen.invalidations,
                );
                obs.cache_seen = totals;
            }
        }
        Some((seq, replicas))
    }

    /// Algorithm 1 over the published snapshot: evaluate `F_Ri(t − δ)`
    /// from the memoized tables, then run the crash-tolerant subset
    /// selection. Runs entirely on the caller's thread. Returns the
    /// selection plus each chosen replica's predicted `P(meet deadline)`
    /// (empty on a cold-start multicast, which has no model to consult).
    #[aqua::hot_path]
    fn plan_from_snapshot(
        &self,
        view: &PlanningView,
        spec: &SnapshotPlanSpec,
        method: Option<MethodId>,
        exclude: &[ReplicaId],
    ) -> (Vec<ReplicaId>, Vec<f64>) {
        let deadline = view.qos().deadline().saturating_sub(Duration::from_nanos(
            self.last_overhead_ns.load(Ordering::Relaxed),
        ));
        let slot = method_slot(spec.model.method_scope, method);
        // aqua-lint: allow(no-alloc-in-select) the candidate list is the function's output; one exact-size reservation, no per-replica reallocation
        let mut candidates = Vec::with_capacity(view.replicas().len());
        for snap in view.replicas() {
            let id = snap.id();
            if !snap.is_selectable() || exclude.contains(&id) {
                continue;
            }
            match snap.probability_by(slot, deadline) {
                Some(p) => candidates.push(Candidate::new(id, p)),
                None => match spec.cold_start {
                    ColdStartPolicy::SelectAll => {
                        // Cold start (§5.4.1): multicast to every
                        // selectable member in one round.
                        let everyone = view
                            .replicas()
                            .iter()
                            .filter(|s| s.is_selectable() && !exclude.contains(&s.id()))
                            .map(|s| s.id())
                            .collect();
                        // aqua-lint: allow(no-alloc-in-select) Vec::new is allocation-free; a cold-start multicast has no predictions to report
                        return (everyone, Vec::new());
                    }
                    ColdStartPolicy::Optimistic(p) => {
                        candidates.push(Candidate::new(id, p.clamp(0.0, 1.0)));
                    }
                },
            }
        }
        let chosen =
            select_replicas_tolerating(&candidates, view.qos().min_probability(), spec.crashes)
                .into_replicas();
        let predicted = chosen
            .iter()
            .map(|id| {
                candidates
                    .iter()
                    .find(|c| c.id == *id)
                    .map_or(0.0, |c| c.probability)
            })
            .collect();
        (chosen, predicted)
    }

    // -- replies ------------------------------------------------------------

    /// Processes a reply that arrived at `now` (= `t4`) from `replica`
    /// for attempt `seq`, carrying piggybacked perf data. Lock scope: one
    /// pending-shard lookup, one ingest-shard update, and (on a first
    /// reply) the detector and the sibling retire pass — never the
    /// planning path.
    pub fn on_reply(
        &self,
        now: Instant,
        seq: u64,
        replica: ReplicaId,
        perf: PerfReport,
    ) -> ReplyOutcome {
        let entry = {
            let shard = self
                .pending_contention
                .acquire(|| self.pending_shard(seq).lock());
            shard.get(&seq).cloned()
        };
        let Some(entry) = entry else {
            // Expired request: still mine the perf data (no td — the
            // attempt's t1 is gone).
            self.ingest(now, replica, Some(perf), None);
            return ReplyOutcome::Unknown;
        };

        // td = t4 − t1 − tq − ts (§5.4.1), clamped at zero.
        let in_flight = now.saturating_duration_since(entry.sent_at);
        let td = in_flight
            .saturating_sub(perf.queuing_delay)
            .saturating_sub(perf.service_time);
        // Exactly one reply (or the give-up timer) wins the group flag.
        let first = entry
            .answered
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        // Ingest-shard handling cost, recorded on the span as `ingest_ns`
        // so forensics can separate wire delay from ingest stalls.
        let ingest_started = std::time::Instant::now();
        self.ingest(now, replica, Some(perf), Some(td));
        let ingest_nanos = ingest_started.elapsed().as_nanos() as u64;

        if first {
            let response_time = now.saturating_duration_since(entry.intercepted_at);
            let verdict = {
                let mut detector = self.detector.lock();
                detector.record(response_time)
            };
            self.stats.delivered.fetch_add(1, Ordering::Relaxed);
            if verdict.should_notify() {
                self.stats.callbacks.fetch_add(1, Ordering::Relaxed);
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
                Some(verdict),
            );
            self.retire_siblings(now, &entry, seq);
            ReplyOutcome::Deliver {
                response_time,
                verdict,
            }
        } else {
            self.stats.redundant.fetch_add(1, Ordering::Relaxed);
            self.observe_reply(
                seq,
                replica,
                now,
                &perf,
                td,
                in_flight,
                ingest_nanos,
                false,
                None,
            );
            self.retire_old_entries(seq);
            ReplyOutcome::Redundant
        }
    }

    /// Retires every sibling attempt of `winner` (their entries go away;
    /// the winner's stays, flagged answered, so late duplicates classify
    /// as redundant rather than unknown).
    fn retire_siblings(&self, now: Instant, entry: &PendingEntry, winner: u64) {
        let siblings: Vec<u64> = {
            let group = entry.group.lock();
            group.clone()
        };
        for seq in siblings {
            if seq != winner {
                self.retire_attempt(now, seq);
            }
        }
    }

    /// Removes one attempt's entry; counts and journals the abandonment
    /// iff this call actually removed it (races are idempotent).
    fn retire_attempt(&self, now: Instant, seq: u64) -> bool {
        let removed = {
            let mut shard = self
                .pending_contention
                .acquire(|| self.pending_shard(seq).lock());
            shard.remove(&seq).is_some()
        };
        if removed {
            self.stats.abandoned.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = &self.obs {
                obs.lock().observer.on_abandon(seq, now.as_nanos());
            }
        }
        removed
    }

    /// Bounded cleanup of answered entries, run on the redundant-reply
    /// path for the shard the reply hashed to.
    fn retire_old_entries(&self, seq: u64) {
        let next = self.next_seq.load(Ordering::Relaxed);
        if next > 1024 {
            let cutoff = next - 1024;
            let mut shard = self
                .pending_contention
                .acquire(|| self.pending_shard(seq).lock());
            shard.retain(|s, p| *s >= cutoff || !p.answered.load(Ordering::Relaxed));
        }
    }

    /// Retires attempt `seq` because a sibling resolved the logical
    /// request. Returns `true` if the attempt was still open.
    pub fn on_abandon(&self, now: Instant, seq: u64) -> bool {
        let entry = {
            let shard = self
                .pending_contention
                .acquire(|| self.pending_shard(seq).lock());
            shard.get(&seq).cloned()
        };
        let Some(entry) = entry else {
            return false;
        };
        if entry.answered.load(Ordering::Acquire) {
            return false;
        }
        self.retire_attempt(now, seq)
    }

    /// Finalizes a request that never received any reply, at `now`. Wins
    /// or loses the group's answered flag against a concurrent first
    /// reply — returns `false` when the reply got there first (the caller
    /// should then drain its delivery channel instead of failing the
    /// call).
    pub fn on_give_up(&self, now: Instant, seq: u64) -> bool {
        let entry = {
            let shard = self
                .pending_contention
                .acquire(|| self.pending_shard(seq).lock());
            shard.get(&seq).cloned()
        };
        let Some(entry) = entry else {
            return false;
        };
        if entry
            .answered
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        {
            let mut shard = self
                .pending_contention
                .acquire(|| self.pending_shard(seq).lock());
            shard.remove(&seq);
        }
        self.stats.gave_up.fetch_add(1, Ordering::Relaxed);
        // An unbounded response time: record as "missed by a lot".
        let deadline = self.qos.lock().deadline();
        let verdict = {
            let mut detector = self.detector.lock();
            detector.record(deadline.saturating_mul(1_000))
        };
        if verdict.should_notify() {
            self.stats.callbacks.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(obs) = &self.obs {
            obs.lock().observer.on_give_up(
                seq,
                false,
                Some(verdict),
                verdict.should_notify(),
                now.as_nanos(),
            );
        }
        true
    }

    // -- helpers ------------------------------------------------------------

    fn pending_shard(&self, seq: u64) -> &Mutex<HashMap<u64, PendingEntry>> {
        &self.pending[(seq as usize) % PENDING_SHARDS]
    }

    fn ingest_shard(&self, id: ReplicaId) -> &Mutex<InfoRepository> {
        &self.ingest[(id.index() as usize) % INGEST_SHARDS]
    }

    fn observe_probation(&self, replica: ReplicaId, started: bool, now: Instant) {
        if let Some(obs) = &self.obs {
            obs.lock()
                .observer
                .on_probation(replica, started, now.as_nanos());
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn observe_reply(
        &self,
        seq: u64,
        replica: ReplicaId,
        now: Instant,
        perf: &PerfReport,
        td: Duration,
        in_flight: Duration,
        ingest_nanos: u64,
        first: bool,
        verdict: Option<TimingVerdict>,
    ) {
        if let Some(obs) = &self.obs {
            obs.lock().observer.on_reply(
                seq,
                replica,
                now.as_nanos(),
                perf.service_time.as_nanos(),
                perf.queuing_delay.as_nanos(),
                td.as_nanos(),
                in_flight.as_nanos(),
                Some(ingest_nanos),
                first,
                false,
                verdict,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingFaultHandler;
    use aqua_core::model::ModelConfig;
    use aqua_strategies::{FastestMean, ModelBased};

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn handler(pc: f64) -> ConcurrentHandler {
        let qos = QosSpec::new(ms(200), pc).unwrap();
        ConcurrentHandler::new(qos, 5, Box::new(ModelBased::default()))
            .with_min_republish(Duration::ZERO)
    }

    /// Inserts `ids` and fills their windows with per-replica service
    /// times via the reply/perf-update path, mirroring the serialized
    /// handler tests.
    fn warm(h: &ConcurrentHandler, ids: &[u64], service_ms: u64) {
        let mut at = Instant::EPOCH;
        for i in ids {
            h.insert_replica(at, ReplicaId::new(*i));
        }
        for _ in 0..5 {
            at += ms(1);
            for i in ids {
                let r = ReplicaId::new(*i);
                h.on_perf_update(at, r, PerfReport::new(ms(service_ms + *i * 10), ms(0), 0));
                h.ingest(at, r, None, Some(ms(1)));
            }
        }
        // One more tick so the (zero-interval) debounce publishes the tail.
        h.ingest(at + ms(1), ReplicaId::new(ids[0]), None, Some(ms(1)));
    }

    #[test]
    fn cold_start_multicasts_to_all() {
        let h = handler(0.9);
        for i in 0..3 {
            h.insert_replica(Instant::EPOCH, ReplicaId::new(i));
        }
        let plan = h.plan_request(Instant::EPOCH);
        assert_eq!(plan.replicas.len(), 3, "cold start selects everyone");
        assert_eq!(h.stats().requests, 1);
    }

    #[test]
    fn warm_snapshot_plan_matches_serialized_handler() {
        let h = handler(0.9);
        warm(&h, &[0, 1, 2], 20);
        let plan = h.plan_request(Instant::from_millis(100));

        // Serialized reference: same repository content, same QoS.
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let mut reference = TimingFaultHandler::new(qos, 5, Box::new(ModelBased::default()));
        *reference.repository_mut() = h.repository();
        let expected = reference.plan_request(Instant::from_millis(100));

        assert_eq!(plan.replicas.as_ref(), expected.replicas.as_ref());
        assert!(plan.replicas.len() < 3, "warm plans are selective");
    }

    #[test]
    fn first_reply_delivers_then_duplicates_are_redundant() {
        let h = handler(0.9);
        warm(&h, &[0, 1], 20);
        let t0 = Instant::from_millis(100);
        let plan = h.plan_request(t0);
        let r = plan.replicas[0];
        let t4 = t0 + ms(30);
        match h.on_reply(t4, plan.seq, r, PerfReport::new(ms(20), ms(0), 0)) {
            ReplyOutcome::Deliver {
                response_time,
                verdict,
            } => {
                assert_eq!(response_time, ms(30));
                assert!(verdict.is_timely());
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        let again = h.on_reply(t4 + ms(5), plan.seq, r, PerfReport::new(ms(20), ms(0), 0));
        assert_eq!(again, ReplyOutcome::Redundant);
        let stats = h.stats();
        assert_eq!((stats.delivered, stats.redundant), (1, 1));
        assert_eq!(h.pending_count(), 0);
    }

    #[test]
    fn unknown_seq_still_mines_perf_data() {
        let h = handler(0.9);
        h.insert_replica(Instant::EPOCH, ReplicaId::new(0));
        let samples = |h: &ConcurrentHandler| {
            h.repository()
                .stats(ReplicaId::new(0))
                .and_then(|s| s.history(MethodId::DEFAULT).map(|m| m.len()))
                .unwrap_or(0)
        };
        let before = samples(&h);
        let out = h.on_reply(
            Instant::from_millis(50),
            999,
            ReplicaId::new(0),
            PerfReport::new(ms(10), ms(0), 0),
        );
        assert_eq!(out, ReplyOutcome::Unknown);
        assert_eq!(samples(&h), before + 1);
    }

    #[test]
    fn retry_joins_group_and_delivery_retires_the_loser() {
        let h = handler(0.9);
        warm(&h, &[0, 1, 2], 20);
        let t0 = Instant::from_millis(100);
        let plan = h.plan_request(t0);
        let retry = h
            .plan_retry(t0 + ms(150), None, t0, plan.seq, &plan.replicas)
            .expect("replicas remain for the retry");
        for r in retry.replicas.iter() {
            assert!(
                !plan.replicas.contains(r),
                "retry must exclude the original selection"
            );
        }
        // The retry's replica answers first: its attempt delivers, the
        // original is retired as superseded.
        let out = h.on_reply(
            t0 + ms(170),
            retry.seq,
            retry.replicas[0],
            PerfReport::new(ms(20), ms(0), 0),
        );
        assert!(matches!(out, ReplyOutcome::Deliver { .. }));
        let late = h.on_reply(
            t0 + ms(180),
            plan.seq,
            plan.replicas[0],
            PerfReport::new(ms(20), ms(0), 0),
        );
        assert_eq!(late, ReplyOutcome::Unknown, "retired attempt is gone");
        let stats = h.stats();
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.abandoned, 1);
        assert_eq!(stats.delivered, 1);
        assert_eq!(h.pending_count(), 0);
    }

    #[test]
    fn retry_after_resolution_returns_none() {
        let h = handler(0.9);
        warm(&h, &[0, 1, 2], 20);
        let t0 = Instant::from_millis(100);
        let plan = h.plan_request(t0);
        h.on_reply(
            t0 + ms(25),
            plan.seq,
            plan.replicas[0],
            PerfReport::new(ms(20), ms(0), 0),
        );
        assert!(h
            .plan_retry(t0 + ms(150), None, t0, plan.seq, &plan.replicas)
            .is_none());
    }

    #[test]
    fn give_up_and_reply_race_has_one_winner() {
        let h = handler(0.9);
        warm(&h, &[0, 1], 20);
        let t0 = Instant::from_millis(100);

        // Give-up first: the late reply degrades to Unknown.
        let plan = h.plan_request(t0);
        assert!(h.on_give_up(t0 + ms(300), plan.seq));
        assert!(
            !h.on_give_up(t0 + ms(301), plan.seq),
            "second give-up is a no-op"
        );
        let late = h.on_reply(
            t0 + ms(400),
            plan.seq,
            plan.replicas[0],
            PerfReport::new(ms(20), ms(0), 0),
        );
        assert_eq!(late, ReplyOutcome::Unknown);

        // Reply first: the give-up loses and reports so.
        let plan2 = h.plan_request(t0 + ms(500));
        let out = h.on_reply(
            t0 + ms(520),
            plan2.seq,
            plan2.replicas[0],
            PerfReport::new(ms(20), ms(0), 0),
        );
        assert!(matches!(out, ReplyOutcome::Deliver { .. }));
        assert!(
            !h.on_give_up(t0 + ms(900), plan2.seq),
            "delivered request cannot fail"
        );
        let stats = h.stats();
        assert_eq!((stats.gave_up, stats.delivered), (1, 1));
        assert_eq!(h.detector().failures(), 1);
    }

    #[test]
    fn rejoined_replica_shadows_as_probation_member() {
        let h = handler(0.9);
        warm(&h, &[0, 1], 20);
        h.on_view(Instant::from_millis(200), [ReplicaId::new(0)]);
        assert!(!h.repository().contains(ReplicaId::new(1)));
        // r1 comes back: rejoin ⇒ probation ⇒ shadow traffic, never a
        // trusted candidate.
        h.on_rejoin(Instant::from_millis(300), ReplicaId::new(1));
        assert!(h
            .repository()
            .stats(ReplicaId::new(1))
            .unwrap()
            .is_on_probation());
        let plan = h.plan_request(Instant::from_millis(301));
        assert_eq!(
            plan.replicas.last(),
            Some(&ReplicaId::new(1)),
            "probation members are appended last"
        );
        assert_eq!(h.pending_count(), 1);
    }

    #[test]
    fn debounce_coalesces_publishes() {
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let h = ConcurrentHandler::new(qos, 5, Box::new(ModelBased::default()))
            .with_min_republish(ms(10));
        h.insert_replica(Instant::EPOCH, ReplicaId::new(0));
        let v0 = h.planning_view().version();
        // A burst of updates inside the debounce window: no republish.
        for k in 1..5u64 {
            h.on_perf_update(
                Instant::from_millis(k),
                ReplicaId::new(0),
                PerfReport::new(ms(20), ms(0), 0),
            );
        }
        assert_eq!(h.planning_view().version(), v0);
        // Past the window: one publish covers the whole burst.
        h.on_perf_update(
            Instant::from_millis(30),
            ReplicaId::new(0),
            PerfReport::new(ms(20), ms(0), 0),
        );
        assert_eq!(h.planning_view().version(), v0 + 1);
        assert_eq!(
            h.planning_view()
                .repository()
                .stats(ReplicaId::new(0))
                .and_then(|s| s.history(MethodId::DEFAULT).map(|m| m.len()))
                .unwrap_or(0),
            5,
            "the coalesced publish carries every sample"
        );
    }

    #[test]
    fn strategy_mode_plans_through_the_published_view() {
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let h = ConcurrentHandler::new(qos, 5, Box::new(FastestMean { k: 1 }))
            .with_min_republish(Duration::ZERO);
        assert_eq!(h.strategy_name(), "fastest-mean");
        warm(&h, &[0, 1], 20);
        let plan = h.plan_request(Instant::from_millis(100));
        assert_eq!(
            plan.replicas.as_ref(),
            &[ReplicaId::new(0)],
            "fastest-mean picks the fastest replica from the snapshot"
        );
    }

    #[test]
    fn strategy_mode_publishes_snapshots_without_tables() {
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let h = ConcurrentHandler::new(qos, 5, Box::new(FastestMean { k: 1 }))
            .with_min_republish(Duration::ZERO);
        warm(&h, &[0, 1], 20);
        let view = h.planning_view();
        assert!(view.all_warm(), "flags and generations still publish");
        for snap in view.replicas() {
            assert_eq!(snap.slot_count(), 0, "the strategy reads the repository");
            let stats = view.repository().stats(snap.id()).unwrap();
            assert!(snap.is_current(stats));
        }
    }

    #[test]
    fn renegotiating_a_longer_deadline_rebuilds_the_tables_to_it() {
        let h = handler(0.9);
        warm(&h, &[0, 1, 2], 20);
        let before = h.planning_view();
        assert!(before.replicas().iter().all(|s| s.covers(ms(200))));
        assert!(!before.replicas().iter().any(|s| s.covers(ms(201))));

        // Shorter: the 200 ms tables already cover it and are reused.
        let at = Instant::from_millis(50);
        h.renegotiate(at, QosSpec::new(ms(120), 0.9).unwrap());
        let shorter = h.planning_view();
        assert_eq!(shorter.qos().deadline(), ms(120));
        for (old, new) in before.replicas().iter().zip(shorter.replicas()) {
            assert!(Arc::ptr_eq(old, new), "covered snapshots carry over");
        }

        // Longer: nothing moved in the repository, yet every table must
        // be rebuilt out to the new deadline before a plan reads there.
        h.renegotiate(at, QosSpec::new(ms(400), 0.9).unwrap());
        let longer = h.planning_view();
        let slot = method_slot(ModelConfig::default().method_scope, None);
        for (old, new) in shorter.replicas().iter().zip(longer.replicas()) {
            assert!(!Arc::ptr_eq(old, new));
            assert!(new.covers(ms(400)));
            let stats = longer.repository().stats(new.id()).unwrap();
            let full = ReplicaSnapshot::build(
                new.id(),
                stats,
                &ResponseTimeModel::default(),
                &mut ConvScratch::new(),
            );
            assert_eq!(
                new.probability_by(slot, ms(400)),
                full.probability_by(slot, ms(400))
            );
        }
        let plan = h.plan_request(Instant::from_millis(60));
        assert!(!plan.replicas.is_empty());
    }

    mod bounded_tables {
        use super::*;
        use aqua_core::model::QueueEstimator;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Perf {
                r: u64,
                service_ms: u64,
                queue_ms: u64,
                queue_len: u32,
            },
            /// Plan, then a reply from every selected replica.
            Call {
                service_ms: u64,
            },
            Rejoin {
                r: u64,
            },
            View {
                mask: u8,
            },
            Renegotiate {
                deadline_ms: u64,
                pc: f64,
            },
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                8 => (0u64..5, 1u64..90, 0u64..60, 0u32..9).prop_map(
                    |(r, service_ms, queue_ms, queue_len)| Op::Perf {
                        r,
                        service_ms,
                        queue_ms,
                        queue_len,
                    }
                ),
                4 => (1u64..90).prop_map(|service_ms| Op::Call { service_ms }),
                1 => (0u64..5).prop_map(|r| Op::Rejoin { r }),
                1 => (1u8..32).prop_map(|mask| Op::View { mask }),
                1 => (20u64..400, 0.5f64..0.99)
                    .prop_map(|(deadline_ms, pc)| Op::Renegotiate { deadline_ms, pc }),
            ]
        }

        /// `view` with every table rebuilt, unbounded, from the repository
        /// it carries: what the handler published before tables stopped at
        /// the deadline.
        fn with_full_tables(view: &PlanningView, model: &ResponseTimeModel) -> PlanningView {
            let mut scratch = ConvScratch::new();
            let snaps = view
                .repository()
                .iter()
                .map(|(id, stats)| Arc::new(ReplicaSnapshot::build(id, stats, model, &mut scratch)))
                .collect();
            PlanningView::assemble(view.version(), snaps, view.repository_arc(), view.qos())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn plans_match_algorithm_1_on_unbounded_tables(
                ops in prop::collection::vec(op(), 1..80),
                queue_scaled in any::<bool>(),
            ) {
                let config = ModelConfig {
                    queue_estimator: if queue_scaled {
                        QueueEstimator::QueueScaled
                    } else {
                        QueueEstimator::History
                    },
                    ..ModelConfig::default()
                };
                let qos = QosSpec::new(ms(150), 0.9).unwrap();
                let h = ConcurrentHandler::new(qos, 5, Box::new(ModelBased::new(config)))
                    .with_min_republish(Duration::ZERO);
                let PlannerMode::Snapshot { spec, model } = &h.planner else {
                    unreachable!("model-based plans from snapshots");
                };
                let mut now = Instant::EPOCH;
                for i in 0..5 {
                    h.insert_replica(now, ReplicaId::new(i));
                }
                for op in ops {
                    now += ms(1);
                    match op {
                        Op::Perf { r, service_ms, queue_ms, queue_len } => h.on_perf_update(
                            now,
                            ReplicaId::new(r),
                            PerfReport::new(ms(service_ms), ms(queue_ms), queue_len),
                        ),
                        Op::Rejoin { r } => h.on_rejoin(now, ReplicaId::new(r)),
                        Op::View { mask } => h.on_view(
                            now,
                            (0..5).filter(|i| mask & (1 << i) != 0).map(ReplicaId::new),
                        ),
                        Op::Renegotiate { deadline_ms, pc } => {
                            h.renegotiate(now, QosSpec::new(ms(deadline_ms), pc).unwrap());
                        }
                        Op::Call { service_ms } => {
                            // Both selections read the same δ: nothing
                            // plans between them.
                            let view = h.planning_view();
                            let full = with_full_tables(&view, model);
                            let (expected, _) = h.plan_from_snapshot(&full, spec, None, &[]);
                            let (bounded, _) = h.plan_from_snapshot(&view, spec, None, &[]);
                            prop_assert_eq!(&bounded, &expected);
                            let plan = h.plan_request(now);
                            prop_assert_eq!(
                                plan.replicas.get(..expected.len()),
                                Some(expected.as_slice()),
                                "probation shadows only ever follow the selection"
                            );
                            for replica in plan.replicas.iter() {
                                h.on_reply(
                                    now + ms(service_ms),
                                    plan.seq,
                                    *replica,
                                    PerfReport::new(ms(service_ms), ms(0), 0),
                                );
                            }

                        }
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_plans_and_replies_share_the_handler() {
        let h = Arc::new(handler(0.9));
        warm(&h, &[0, 1, 2], 20);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for k in 0..50u64 {
                        let now = Instant::from_millis(1_000 + t * 100 + k);
                        let plan = h.plan_request(now);
                        assert!(!plan.replicas.is_empty());
                        let out = h.on_reply(
                            now + ms(20),
                            plan.seq,
                            plan.replicas[0],
                            PerfReport::new(ms(20), ms(0), 0),
                        );
                        assert!(matches!(out, ReplyOutcome::Deliver { .. }));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = h.stats();
        assert_eq!(stats.requests, 200);
        assert_eq!(stats.delivered, 200);
        assert_eq!(h.pending_count(), 0);
    }
}
