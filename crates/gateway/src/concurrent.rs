//! The timing fault handler (§5.4): lock-free planning over published
//! snapshots plus a sharded write path.
//!
//! [`ConcurrentHandler`] owns the per-service state of a client gateway —
//! the QoS spec, the information repository, the selection strategy, the
//! pending-request table and the timing-failure detector — and is pure
//! bookkeeping: its caller feeds it events and performs the sends it
//! plans. One handler serves both substrates. The simulator's
//! [`crate::ClientGateway`] drives it from one thread with no debounce;
//! the socket runtime shares it between caller and reply threads. For
//! those, it splits its responsibilities so they never meet on a lock:
//!
//! * **Planning** reads an immutable [`PlanningView`] published through a
//!   [`SnapshotCell`]: per-replica cumulative response-time tables plus
//!   warm/probation flags. `plan_request` runs Algorithm 1 entirely on the
//!   caller's thread against that view — no lock is held while the model
//!   is evaluated. Strategies that cannot be evaluated from a snapshot
//!   (stateful baselines) fall back to a small strategy mutex.
//! * **Reply ingestion** is sharded by replica: piggybacked perf reports
//!   and gateway-delay measurements update only the owning shard's
//!   repository and mark the view dirty. A **plan** publishes: one that
//!   finds the view dirty merges the shards and republishes before it
//!   loads the view, at most once per debounce interval, so a burst of
//!   replies costs one rebuild. It only *tries* the publish lock: a plan
//!   never waits on another thread's publish, and plans from the current
//!   view instead. Membership changes and renegotiation publish at once,
//!   waiting for the lock. A publish builds the view in the buffers of
//!   the view it last swapped out, once no planner holds that one any
//!   more (DESIGN.md §12).
//! * **The pending-request table** is sharded by sequence number, each
//!   shard a [`PendingTable`] trimmed on insert. The attempts of one
//!   logical request (the first and its retries) share one group: its
//!   `t0`, method and first selection, and an atomic `answered` flag, so
//!   first-reply delivery, duplicate classification, give-up, and retry
//!   re-planning race safely: exactly one of deliver/give-up wins the
//!   flag and retires the other attempts, and the loser reclassifies
//!   itself. Callers address a request by its first attempt's seq and
//!   keep nothing else about its attempts. Active probes (§8,
//!   extension 3) are entries too: their replies feed the repository but
//!   are never delivered, and an unanswered probe is not a failure.
//!
//! Without an attached [`aqua_obs::Obs`] a plan or a reply reads the wall
//! clock only for δ (§5.3.3): lock waits, ingest times and the plan's
//! per-replica predictions are measured for an observer alone.
//!
//! Every lock and atomic here comes from [`aqua_core::sync`], so the
//! publish-vs-plan and reply-vs-retry protocols are checked on this code
//! itself: `crates/gateway/tests/interleave.rs`, built with
//! `RUSTFLAGS="--cfg aqua_check"`, explores its interleavings, and each
//! `sync::mutant` point runs a known bug that the check must catch.

use std::collections::BTreeSet;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use aqua_core::aqua;
use aqua_core::failure::{TimingFailureDetector, TimingVerdict};
use aqua_core::model::ResponseTimeModel;
use aqua_core::pmf::ConvScratch;
use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::{InfoRepository, MethodId, PerfReport};
use aqua_core::scheduler::{plan, Plan};
use aqua_core::snapshot::{method_slot, PlanningView, SnapshotCell, ViewSpares};
use aqua_core::sync::{self, AtomicBool, AtomicU64, Mutex, Ordering};
use aqua_core::time::{Duration, Instant};
use aqua_obs::contention::LockContention;
use aqua_obs::metrics::{Counter, Histogram};
use aqua_strategies::{SelectionInput, SelectionStrategy, SnapshotPlanSpec};

use crate::obs::{HandlerObserver, PlanObservation};
use crate::pending::{Answered, PendingTable};

/// The plan produced for one intercepted request: multicast the request
/// with this sequence number to these replicas.
#[derive(Debug, Clone)]
pub struct RequestPlan {
    /// Client-local sequence number identifying the request.
    pub seq: u64,
    /// Replicas to multicast to (empty when none are known — the caller
    /// should fail the request immediately).
    pub replicas: Arc<[ReplicaId]>,
}

/// What [`ConcurrentHandler::on_reply`] decided about a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyOutcome {
    /// First reply for the request: deliver it to the client.
    Deliver {
        /// End-to-end response time `tr = t4 − t0`.
        response_time: Duration,
        /// Timing classification (and whether to fire the QoS callback).
        verdict: TimingVerdict,
        /// The seq of the request's first attempt, whichever attempt
        /// this reply answered.
        request: u64,
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

/// Number of pending-table shards (sequence numbers hash across them).
const PENDING_SHARDS: usize = 16;
/// Number of reply-ingestion shards (replicas hash across them).
const INGEST_SHARDS: usize = 16;
/// Default minimum interval between plan-triggered republishes. A burst
/// of replies inside the interval is coalesced into one rebuild; the view
/// a plan reads therefore misses at most the samples of this interval
/// before it.
const DEFAULT_MIN_REPUBLISH: Duration = Duration::from_micros(500);

/// The one record of a logical request, shared by its attempts: one
/// allocation per request, which is what makes delivery, give-up, and
/// retry registration race-safe (see module docs).
#[derive(Debug)]
struct Group {
    /// "A first reply was delivered (or the request was given up)";
    /// exactly one CAS ever wins it.
    answered: AtomicBool,
    /// The original attempt's seq.
    origin: u64,
    /// `t0` of the request: every attempt's response time counts from it.
    intercepted_at: Instant,
    /// The method every attempt invokes.
    method: Option<MethodId>,
    /// The first attempt's selection, which a retry does not ask again.
    replicas: Arc<[ReplicaId]>,
    /// Every retry's seq, in order (empty, and unallocated, until the
    /// first retry). A retry registers itself here *before* inserting its
    /// entry, so the winner's retire pass can never miss it entirely.
    retries: Mutex<Vec<u64>>,
}

impl Group {
    fn open(
        origin: u64,
        intercepted_at: Instant,
        method: Option<MethodId>,
        replicas: &Arc<[ReplicaId]>,
    ) -> Arc<Group> {
        Arc::new(Group {
            answered: AtomicBool::new(false),
            origin,
            intercepted_at,
            method,
            replicas: Arc::clone(replicas),
            retries: Mutex::new(Vec::new()),
        })
    }
}

/// One attempt awaiting replies.
#[derive(Debug, Clone)]
struct PendingEntry {
    /// `t1` of this attempt.
    sent_at: Instant,
    group: Arc<Group>,
    /// Probes refresh the repository but are invisible to the client: no
    /// delivery, no timing-failure accounting (§8, extension 3).
    probe: bool,
}

impl Answered for PendingEntry {
    fn is_answered(&self) -> bool {
        self.group.answered.load(Ordering::Acquire)
    }
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
    probes: AtomicU64,
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
            probes: self.probes.load(Ordering::Relaxed),
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

/// What publishes reuse, behind the publish mutex: a steady-state
/// republish builds its view in the buffers of the view the previous one
/// swapped out (DESIGN.md §12).
#[derive(Debug, Default)]
struct Publisher {
    /// Convolution scratch and the spare table vectors.
    scratch: ConvScratch,
    /// The retired view and what it yields once nobody else holds it.
    spares: ViewSpares,
    /// The present members, copied out of the membership lock.
    present: Vec<ReplicaId>,
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
    /// Serializes publishers; holds the buffers they reuse.
    publish: Mutex<Publisher>,
    /// Set by ingestion when shard state moved past the published view;
    /// the next plan past the debounce publishes it.
    dirty: AtomicBool,
    /// `Instant::as_nanos` of the last publish, for the debounce check.
    last_publish_ns: AtomicU64,
    min_republish: Duration,
    ingest: Vec<Mutex<InfoRepository>>,
    membership: Mutex<Membership>,
    pending: Vec<Mutex<PendingTable<PendingEntry>>>,
    next_seq: AtomicU64,
    /// Most recent δ (§5.3.3) in nanoseconds, read by the next plan.
    last_overhead_ns: AtomicU64,
    /// A fixed δ that replaces the per-plan clock reads, if set.
    modelled_overhead: Option<Duration>,
    detector: Mutex<TimingFailureDetector>,
    stats: AtomicStats,
    /// The observer (its hooks take `&mut self`).
    obs: Option<Mutex<HandlerObserver>>,
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
            publish: Mutex::new(Publisher::default()),
            dirty: AtomicBool::new(false),
            last_publish_ns: AtomicU64::new(0),
            min_republish: DEFAULT_MIN_REPUBLISH,
            ingest: (0..INGEST_SHARDS)
                .map(|_| Mutex::new(InfoRepository::new(window)))
                .collect(),
            membership: Mutex::new(Membership::default()),
            pending: (0..PENDING_SHARDS)
                .map(|_| Mutex::new(PendingTable::default()))
                .collect(),
            next_seq: AtomicU64::new(0),
            last_overhead_ns: AtomicU64::new(0),
            modelled_overhead: None,
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

    /// Overrides the interval a plan waits after the last publish before
    /// it publishes again. The socket runtime keeps the 500 µs default;
    /// the simulator passes zero, so every plan reads the repository as
    /// it stands.
    #[must_use]
    pub fn with_min_republish(mut self, interval: Duration) -> Self {
        self.min_republish = interval;
        self
    }

    /// Plans with a fixed, modelled δ instead of timing each plan: the
    /// plan reads no clock, and stores and reports `overhead` as its δ.
    /// The simulator passes one, so that no host reaches its plans; the
    /// socket runtime keeps measuring. A handler's first plan still reads
    /// the deadline less δ = 0.
    #[must_use]
    pub fn with_modelled_overhead(mut self, overhead: Duration) -> Self {
        self.modelled_overhead = Some(overhead);
        self
    }

    /// Attaches an observability sink (must happen before the handler is
    /// shared). Also registers the lock-contention counters
    /// `aqua_lock_wait_ns_total{lock=…}` for the shard and publish locks
    /// and the publish metrics `aqua_view_publish_ns` and
    /// `aqua_view_snapshots_{rebuilt,reused}_total`. A publish that builds
    /// tables also counts its reused snapshots as model-cache hits and its
    /// rebuilt ones as misses (`aqua_model_cache_{hits,misses}_total`).
    pub fn attach_obs(&mut self, obs: &aqua_obs::Obs, client: Option<u64>) {
        self.obs = Some(Mutex::new(HandlerObserver::new(obs, client)));
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
        self.publish(now);
    }

    /// The active strategy's name.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy_name
    }

    /// A point-in-time copy of the merged information repository (the
    /// facade tests and reporting read; planning uses the published view).
    pub fn repository(&self) -> InfoRepository {
        let mut merged = InfoRepository::new(self.window);
        self.merge_into(&mut merged, &mut Vec::new());
        merged
    }

    /// Write access to the repository for seeding it by hand: the guard
    /// derefs to a merged copy, and when dropped writes the copy back to
    /// the shards and the membership, then publishes. The exclusive
    /// borrow rules out any concurrent call meanwhile.
    pub fn repository_mut(&mut self) -> RepositoryMut<'_> {
        let merged = self.repository();
        RepositoryMut {
            handler: self,
            merged,
        }
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
                shard.values().filter(|p| !p.is_answered()).count()
            })
            .sum()
    }

    /// Entries the pending table holds, answered or not.
    #[cfg(test)]
    pub(crate) fn tracked_entries(&self) -> usize {
        self.pending.iter().map(|shard| shard.lock().len()).sum()
    }

    /// Emits every span still held by the observer and flushes the
    /// journal. No-op without an attached observer.
    pub fn flush_observability(&self) {
        if let Some(obs) = &self.obs {
            obs.lock().flush();
        }
    }

    /// Installs the run's fault timeline on the observer so every emitted
    /// span is tagged with the stable ids of overlapping fault windows.
    /// No-op without an attached observer.
    pub fn set_fault_windows(&self, windows: Vec<aqua_faults::FaultWindow>) {
        if let Some(obs) = &self.obs {
            obs.lock().set_fault_windows(windows);
        }
    }

    /// Runs `f` against the attached observer (watchdog reconfiguration,
    /// alert hooks). Returns `None` without an attached observer.
    pub fn with_observer<T>(&self, f: impl FnOnce(&mut HandlerObserver) -> T) -> Option<T> {
        self.obs.as_ref().map(|obs| f(&mut obs.lock()))
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
        self.publish(now);
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
        self.publish(now);
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
        self.publish(now);
    }

    // -- ingestion ----------------------------------------------------------

    /// Processes a pushed performance update from a subscriber channel.
    pub fn on_perf_update(&self, now: Instant, replica: ReplicaId, perf: PerfReport) {
        self.ingest(now, replica, Some(perf), None);
    }

    /// Records into the replica's shard; emits the probation-cleared event
    /// when the sample completes a fresh window; marks the view dirty for
    /// the next plan to publish.
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
    }

    // -- publishing ---------------------------------------------------------

    /// Publishes now, waiting for a concurrent publisher: a membership
    /// change or a renegotiation must reach the very next plan.
    fn publish(&self, now: Instant) {
        // The variant rebuilds without the lock (and the cell's guard).
        if sync::mutant("unserialized-publish") {
            return self.rebuild(now, &mut Publisher::default());
        }
        let mut publisher = self.publish_contention.acquire(|| self.publish.lock());
        self.rebuild(now, &mut publisher);
    }

    /// Publishes what ingestion marked dirty, unless the last publish was
    /// less than [`ConcurrentHandler::with_min_republish`] ago. Called by
    /// a plan before it loads the view. Only tries the publish lock: a
    /// plan never waits on another thread's publish, and plans from the
    /// current view instead.
    fn publish_if_dirty(&self, now: Instant) {
        if !self.dirty.load(Ordering::Acquire) {
            return;
        }
        // The variant claims the flag when it looks, not under the lock.
        let claimed = sync::mutant("plan-claims-dirty");
        if claimed {
            self.dirty.store(false, Ordering::Release);
        }
        let last = self.last_publish_ns.load(Ordering::Relaxed);
        if now.as_nanos().saturating_sub(last) < self.min_republish.as_nanos() {
            return;
        }
        let Some(mut publisher) = self.publish.try_lock() else {
            return;
        };
        self.publish_contention.record(std::time::Duration::ZERO);
        if claimed || self.dirty.load(Ordering::Acquire) {
            // Else a publish that held the lock meanwhile covered it.
            self.rebuild(now, &mut publisher);
        }
    }

    /// Merges the shards and swaps in a view built from them, behind the
    /// publish lock.
    fn rebuild(&self, now: Instant, publisher: &mut Publisher) {
        self.dirty.store(false, Ordering::Release);
        let last = self.last_publish_ns.load(Ordering::Relaxed);
        // aqua-lint: allow(atomics-ordering) debounce timestamp only; the snapshot is published via the version-guarded cell, a stale read costs one extra rebuild
        self.last_publish_ns
            .store(now.as_nanos().max(last), Ordering::Relaxed);

        // Observer-only: the publish time reaches a metric, never a plan,
        // so it stays measured under a modelled δ.
        let timed = self
            .publish_metrics
            .as_ref()
            // aqua-lint: allow(no-wallclock-in-sim) observer-only: the publish time reaches a metric, never a plan
            .map(|metrics| (metrics, std::time::Instant::now()));
        let Publisher {
            scratch,
            spares,
            present,
        } = publisher;
        spares.reclaim();
        let current = self.snapshot.load();
        let merged = spares.repository(self.window, |merged| {
            self.merge_into(merged, present);
        });
        // One read: the tables are built to the deadline they publish with.
        // Plans read `F(t)` at the view's own deadline less δ, never past it.
        let qos = self.qos();
        let model = match &self.planner {
            PlannerMode::Snapshot { model, .. } => Some(model),
            // The strategy reads the repository, not tables.
            PlannerMode::Strategy(_) => None,
        };
        let mut rebuilt = 0u64;
        let mut snaps = spares.list();
        for (id, stats) in merged.iter() {
            let held = current
                .replicas()
                .binary_search_by_key(&id, |r| r.id())
                .ok()
                .and_then(|i| current.replicas().get(i));
            match held {
                Some(held) if held.serves(stats, qos.deadline()) => snaps.push(Arc::clone(held)),
                _ => {
                    rebuilt += 1;
                    // The stale snapshot's tables are read, never written:
                    // a planner holding `current` still sees them.
                    let held = held.map(Arc::as_ref);
                    snaps.push(spares.rebuilt(id, stats, model, scratch, qos.deadline(), held));
                }
            }
        }
        let reused = snaps.len() as u64 - rebuilt;
        let view = PlanningView::assemble(current.version() + 1, snaps, merged, qos);
        drop(current);
        let (Ok(retired) | Err(retired)) = self.snapshot.replace(Arc::new(view));
        spares.retire(retired);
        if let Some((metrics, started)) = timed {
            metrics
                .publish_ns
                .record(started.elapsed().as_nanos() as u64);
            metrics.rebuilt.add(rebuilt);
            metrics.reused.add(reused);
        }
        // The published tables are the model cache: a snapshot carried
        // over is a hit, one rebuilt is a miss.
        if let (Some(obs), Some(_)) = (&self.obs, model) {
            obs.lock().on_model_cache(reused, rebuilt);
        }
    }

    /// Makes `merged` hold a copy of every present replica's stats,
    /// copied out of its shard (one shard lock at a time) into the
    /// buffers `merged` already holds for it; departed replicas are
    /// dropped. `present` is scratch for the member list.
    fn merge_into(&self, merged: &mut InfoRepository, present: &mut Vec<ReplicaId>) {
        present.clear();
        present.extend(self.membership.lock().present.iter().copied());
        merged.retain_replicas(|id| present.binary_search(&id).is_ok());
        for &id in present.iter() {
            let repo = self.ingest_shard(id).lock();
            match repo.stats(id) {
                Some(stats) => merged.copy_stats(id, stats),
                None => {
                    merged.remove_replica(id);
                }
            }
        }
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
            .plan_with(now, method, None, &[])
            // aqua-lint: allow(no-panic-in-hot-path) plan_with returns None only for a retry with nobody left to ask; a first plan is no retry
            .expect("initial selections always produce a plan");
        self.insert_pending(
            seq,
            PendingEntry {
                sent_at: now,
                group: Group::open(seq, now, method, &replicas),
                probe: false,
            },
        );
        RequestPlan { seq, replicas }
    }

    /// Plans an **active probe** to one replica (§8, extension 3: "use
    /// active probes \[5\] when a replica's performance information is
    /// obsolete"). The caller sends a minimal request with the returned
    /// sequence number; the reply refreshes the repository (including the
    /// gateway delay, which needs the recorded `t1`) but is never delivered
    /// and never counts toward the timing-failure statistics.
    pub fn plan_probe(&self, now: Instant, replica: ReplicaId) -> RequestPlan {
        let replicas: Arc<[ReplicaId]> = Arc::from([replica]);
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.stats.probes.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            let qos = self.qos();
            obs.lock().on_plan(PlanObservation {
                seq,
                method: MethodId::DEFAULT.index(),
                client: self.client_id,
                now_nanos: now.as_nanos(),
                deadline_nanos: qos.deadline().as_nanos(),
                promised: qos.min_probability(),
                selected: &replicas,
                predicted: &[],
                view_version: None,
                probe: true,
                overhead_nanos: None,
                retry_of: None,
            });
        }
        self.insert_pending(
            seq,
            PendingEntry {
                sent_at: now,
                group: Group::open(seq, now, None, &replicas),
                probe: true,
            },
        );
        RequestPlan { seq, replicas }
    }

    /// Replicas whose repository entry is older than `staleness` at `now`
    /// (or has no data at all) — the probe candidates, by id.
    pub fn stale_replicas(&self, now: Instant, staleness: Duration) -> Vec<ReplicaId> {
        self.repository()
            .iter()
            .filter(|(_, stats)| {
                stats
                    .last_update()
                    .is_none_or(|at| now.saturating_duration_since(at) > staleness)
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Plans a deadline-driven retry of request `origin`: Algorithm 1
    /// re-runs, for the request's method, over the replicas its first
    /// attempt did not ask, and the new attempt joins the request's group
    /// and keeps its `t0`. Returns `None` when no replica is left to ask
    /// or the request already resolved.
    pub fn plan_retry(&self, now: Instant, origin: u64) -> Option<RequestPlan> {
        let group = {
            let shard = self
                .pending_contention
                .acquire(|| self.pending_shard(origin).lock());
            shard.get(origin).map(|entry| Arc::clone(&entry.group))
        }?;
        if group.answered.load(Ordering::Acquire) {
            return None;
        }
        let (seq, replicas) = self.plan_with(now, group.method, Some(origin), &group.replicas)?;
        // Join the group *before* inserting the entry: the delivery path
        // walks the group and retires every member it finds, so a
        // concurrent winner either sees our seq (and retires the entry
        // once we insert it — or misses it and we self-retire below) or
        // has not delivered yet, in which case the flag check below is
        // still false and the attempt proceeds normally.
        group.retries.lock().push(seq);
        self.insert_pending(
            seq,
            PendingEntry {
                sent_at: now,
                group: Arc::clone(&group),
                probe: false,
            },
        );
        if !sync::mutant("retry-missing-recheck") && group.answered.load(Ordering::Acquire) {
            // The sibling resolved while we were registering. The winner's
            // retire pass may have run before our insert; retire ourselves
            // (idempotent — at most one of the two removals succeeds).
            self.retire_attempt(now, seq);
            return None;
        }
        Some(RequestPlan { seq, replicas })
    }

    /// Shared planning core: publishes a dirty view, runs the selection
    /// (snapshot or strategy mode), appends probation shadows, updates
    /// stats and the observer.
    fn plan_with(
        &self,
        now: Instant,
        method: Option<MethodId>,
        retry_of: Option<u64>,
        exclude: &[ReplicaId],
    ) -> Option<(u64, Arc<[ReplicaId]>)> {
        // δ's two clock reads are the only ones an unobserved plan makes,
        // and a modelled δ makes neither. δ covers the publish: building
        // the tables is evaluating the model.
        let started = self
            .modelled_overhead
            .is_none()
            // aqua-lint: allow(no-wallclock-in-sim) the socket runtime's measured δ; a simulated client models δ and reads no clock
            .then(std::time::Instant::now);
        self.publish_if_dirty(now);
        let view = self.snapshot.load();
        // The per-replica predictions feed only the observer; a strategy
        // planned under the mutex predicts nothing.
        let (mut replicas, predicted) = match &self.planner {
            PlannerMode::Snapshot { spec, .. } => {
                let plan = self.plan_from_snapshot(&view, spec, method, exclude);
                let predicted = if self.obs.is_some() {
                    plan.predictions().map(|(_, p)| p).collect()
                } else {
                    Vec::new()
                };
                (plan.selection.into_replicas(), predicted)
            }
            PlannerMode::Strategy(strategy) => {
                let selected = strategy.lock().select(&SelectionInput {
                    repository: view.repository(),
                    qos: &view.qos(),
                    method,
                    now,
                    exclude,
                });
                (selected, Vec::new())
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
        let overhead_nanos = started.map_or_else(
            || self.modelled_overhead.unwrap_or_default().as_nanos(),
            |started| started.elapsed().as_nanos() as u64,
        );
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
            obs.lock().on_plan(PlanObservation {
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
        }
        Some((seq, replicas))
    }

    /// Algorithm 1 over the published snapshot: [`plan`] reading
    /// `F_Ri(t − δ)` from the published tables. Runs entirely on the
    /// caller's thread. The plan carries each ranked replica's predicted
    /// `P(meet deadline)` (nothing on a cold-start multicast, which has no
    /// model to consult).
    #[aqua::hot_path]
    fn plan_from_snapshot(
        &self,
        view: &PlanningView,
        spec: &SnapshotPlanSpec,
        method: Option<MethodId>,
        exclude: &[ReplicaId],
    ) -> Plan {
        let deadline = view.qos().deadline().saturating_sub(Duration::from_nanos(
            self.last_overhead_ns.load(Ordering::Relaxed),
        ));
        let slot = method_slot(spec.model.method_scope, method);
        let members = view
            .replicas()
            .iter()
            .filter(|snap| snap.is_selectable() && !exclude.contains(&snap.id()))
            .map(|snap| (snap.id(), snap));
        plan(spec, view.qos().min_probability(), members, |_, snap| {
            snap.probability_by(slot, deadline)
        })
    }

    // -- replies ------------------------------------------------------------

    /// Processes a reply that arrived at `now` (= `t4`) from `replica`
    /// for attempt `seq`, carrying piggybacked perf data. Lock scope: one
    /// pending-shard lookup, one ingest-shard update, and (on a first
    /// reply) the detector and the sibling retire pass — never the
    /// planning path, and never a scan of the pending table.
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
            shard.get(seq).cloned()
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
        // Exactly one reply (or the give-up timer) wins the group flag;
        // the variant checks, then marks, so two replies can both win.
        let answered = &entry.group.answered;
        let first = if sync::mutant("reply-toctou-claim") {
            let open = !answered.load(Ordering::Acquire);
            if open {
                answered.store(true, Ordering::Release);
            }
            open
        } else {
            answered
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        };
        // Ingest-shard handling cost, recorded on an observer's span as
        // `ingest_ns` so forensics can separate wire delay from ingest
        // stalls; nobody else reads it, so nobody else pays for it. It
        // never reaches a plan, so it stays measured under a modelled δ.
        // aqua-lint: allow(no-wallclock-in-sim) observer-only: the ingest time reaches a span, never a plan
        let ingest_started = self.obs.is_some().then(std::time::Instant::now);
        self.ingest(now, replica, Some(perf), Some(td));
        let ingest_nanos = ingest_started.map(|started| started.elapsed().as_nanos() as u64);

        if entry.probe {
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
            let response_time = now.saturating_duration_since(entry.group.intercepted_at);
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
                false,
                Some(verdict),
            );
            self.retire_siblings(now, &entry.group, seq);
            ReplyOutcome::Deliver {
                response_time,
                verdict,
                request: entry.group.origin,
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
                false,
                None,
            );
            ReplyOutcome::Redundant
        }
    }

    /// Retires every sibling attempt of `winner` (their entries go away;
    /// the winner's stays, flagged answered, so late duplicates classify
    /// as redundant rather than unknown). Walks the group under its lock:
    /// a retry registering meanwhile waits, then finds the flag set and
    /// retires itself.
    fn retire_siblings(&self, now: Instant, group: &Group, winner: u64) {
        let retries = group.retries.lock();
        for seq in std::iter::once(group.origin).chain(retries.iter().copied()) {
            if seq != winner {
                self.retire_attempt(now, seq);
            }
        }
    }

    /// Removes one attempt's entry; counts and journals the abandonment
    /// iff this call actually removed it (races are idempotent).
    fn retire_attempt(&self, now: Instant, seq: u64) -> bool {
        let removed = self.remove_pending(seq);
        if removed {
            self.stats.abandoned.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = &self.obs {
                obs.lock().on_abandon(seq, now.as_nanos());
            }
        }
        removed
    }

    /// Retires attempt `seq` because a sibling resolved the logical
    /// request. Returns `true` if the attempt was still open (a probe
    /// never is).
    pub fn on_abandon(&self, now: Instant, seq: u64) -> bool {
        let open = {
            let shard = self
                .pending_contention
                .acquire(|| self.pending_shard(seq).lock());
            shard
                .get(seq)
                .is_some_and(|entry| !entry.probe && !entry.is_answered())
        };
        open && self.retire_attempt(now, seq)
    }

    /// Finalizes a request that never received any reply, at `now`,
    /// through the seq of any of its attempts still open. Wins or loses
    /// the group's answered flag against a concurrent first reply —
    /// returns `false` when the reply got there first (the caller should
    /// then drain its delivery channel instead of failing the call). The
    /// winner retires every attempt: the newest still open carries the
    /// one timing failure, the older ones are abandoned as superseded.
    /// A probe's give-up only retires it and returns `false`.
    pub fn on_give_up(&self, now: Instant, seq: u64) -> bool {
        let found = {
            let shard = self
                .pending_contention
                .acquire(|| self.pending_shard(seq).lock());
            shard
                .get(seq)
                .map(|entry| (Arc::clone(&entry.group), entry.probe))
        };
        let Some((group, probe)) = found else {
            return false;
        };
        if probe {
            // An unanswered probe is not a client-visible failure.
            self.remove_pending(seq);
            if let Some(obs) = &self.obs {
                obs.lock()
                    .on_give_up(seq, true, None, false, now.as_nanos());
            }
            return false;
        }
        if group
            .answered
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        // Under the group lock, like the delivery's retire pass; the
        // superseded attempts are journalled before the give-up. The
        // variant removes only the entry it was called through.
        let carrier = if sync::mutant("give-up-strands-retry") {
            self.remove_pending(seq);
            seq
        } else {
            let retries = group.retries.lock();
            let attempts = || std::iter::once(group.origin).chain(retries.iter().copied());
            let carrier = attempts()
                .rev()
                .find(|&attempt| self.remove_pending(attempt))
                .unwrap_or(seq);
            for attempt in attempts().filter(|&attempt| attempt != carrier) {
                self.retire_attempt(now, attempt);
            }
            carrier
        };
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
            obs.lock().on_give_up(
                carrier,
                false,
                Some(verdict),
                verdict.should_notify(),
                now.as_nanos(),
            );
        }
        true
    }

    // -- helpers ------------------------------------------------------------

    fn pending_shard(&self, seq: u64) -> &Mutex<PendingTable<PendingEntry>> {
        // aqua-lint: allow(no-panic-in-hot-path) reduced modulo PENDING_SHARDS, the length `new` gives the vector
        &self.pending[(seq as usize) % PENDING_SHARDS]
    }

    fn insert_pending(&self, seq: u64, entry: PendingEntry) {
        let mut shard = self
            .pending_contention
            .acquire(|| self.pending_shard(seq).lock());
        shard.insert(seq, entry);
    }

    /// Removes `seq`'s entry; `true` if this call removed it.
    fn remove_pending(&self, seq: u64) -> bool {
        let mut shard = self
            .pending_contention
            .acquire(|| self.pending_shard(seq).lock());
        shard.remove(seq).is_some()
    }

    fn ingest_shard(&self, id: ReplicaId) -> &Mutex<InfoRepository> {
        // aqua-lint: allow(no-panic-in-hot-path) ingest_index reduces modulo INGEST_SHARDS, the length `new` gives the vector
        &self.ingest[ingest_index(id)]
    }

    fn observe_probation(&self, replica: ReplicaId, started: bool, now: Instant) {
        if let Some(obs) = &self.obs {
            obs.lock().on_probation(replica, started, now.as_nanos());
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
        ingest_nanos: Option<u64>,
        first: bool,
        probe: bool,
        verdict: Option<TimingVerdict>,
    ) {
        if let Some(obs) = &self.obs {
            obs.lock().on_reply(
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
}

/// The ingestion shard replica `id` records into.
fn ingest_index(id: ReplicaId) -> usize {
    (id.index() as usize) % INGEST_SHARDS
}

/// Write access to a [`ConcurrentHandler`]'s repository, from
/// [`ConcurrentHandler::repository_mut`].
pub struct RepositoryMut<'a> {
    handler: &'a mut ConcurrentHandler,
    merged: InfoRepository,
}

impl Deref for RepositoryMut<'_> {
    type Target = InfoRepository;

    fn deref(&self) -> &InfoRepository {
        &self.merged
    }
}

impl DerefMut for RepositoryMut<'_> {
    fn deref_mut(&mut self) -> &mut InfoRepository {
        &mut self.merged
    }
}

impl Drop for RepositoryMut<'_> {
    /// Writes the copy back: each replica to its shard, the members to the
    /// membership, and publishes the result.
    fn drop(&mut self) {
        let handler = &mut *self.handler;
        let merged = &self.merged;
        let membership = handler.membership.get_mut();
        membership.present = merged.replica_ids().collect();
        membership.seen.extend(merged.replica_ids());
        for shard in &mut handler.ingest {
            shard.get_mut().retain_replicas(|id| merged.contains(id));
        }
        for (id, stats) in merged.iter() {
            if let Some(shard) = handler.ingest.get_mut(ingest_index(id)) {
                shard.get_mut().copy_stats(id, stats);
            }
        }
        // The debounce clock stays where it was.
        handler.publish(Instant::EPOCH);
    }
}

/// Random repository histories, shared with the model's property tests.
#[cfg(test)]
#[path = "../../core/tests/repo_ops/mod.rs"]
mod repo_ops;

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_core::model::{ModelConfig, QueueEstimator};
    use aqua_core::snapshot::ReplicaSnapshot;
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
    /// times via the reply/perf-update path.
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
    }

    #[test]
    fn cold_start_multicasts_to_all() {
        let h = handler(0.9);
        for i in 0..3 {
            h.insert_replica(Instant::EPOCH, ReplicaId::new(i));
        }
        let plan = h.plan_request(Instant::EPOCH);
        assert_eq!(plan.replicas.len(), 3, "cold start selects everyone");
        assert_eq!(plan.seq, 0);
        assert_eq!(h.stats().requests, 1);
        assert_eq!(h.pending_count(), 1);
    }

    #[test]
    fn warm_snapshot_plan_matches_serialized_handler() {
        let h = handler(0.9);
        warm(&h, &[0, 1, 2], 20);
        let plan = h.plan_request(Instant::from_millis(100));

        // Serialized reference: the strategy itself over the same
        // repository content and QoS.
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let expected = ModelBased::default().select(&SelectionInput {
            repository: &h.repository(),
            qos: &qos,
            method: None,
            now: Instant::from_millis(100),
            exclude: &[],
        });

        assert_eq!(plan.replicas.as_ref(), expected.as_slice());
        assert!(plan.replicas.len() < 3, "warm plans are selective");
    }

    /// A plan reads each `F_Ri` at the deadline less the last plan's δ
    /// (§5.3.3): at 200 − 170 = 30 ms only the 21 ms replica is timely.
    #[test]
    fn plans_read_the_deadline_less_the_last_delta() {
        let h = handler(0.9);
        warm(&h, &[0, 1, 2], 20);
        h.plan_request(Instant::from_millis(100));
        let PlannerMode::Snapshot { spec, .. } = &h.planner else {
            unreachable!("model-based plans from snapshots");
        };
        let view = h.planning_view();
        let read =
            |plan: Plan| -> Vec<f64> { plan.candidates.iter().map(|c| c.probability).collect() };
        h.last_overhead_ns.store(0, Ordering::Relaxed);
        let full = h.plan_from_snapshot(&view, spec, None, &[]);
        assert_eq!(read(full), [1.0, 1.0, 1.0]);
        h.last_overhead_ns
            .store(ms(170).as_nanos(), Ordering::Relaxed);
        let late = h.plan_from_snapshot(&view, spec, None, &[]);
        assert_eq!(read(late), [1.0, 0.0, 0.0]);
    }

    /// A modelled δ is exactly what the next plan subtracts, even after a
    /// plan whose publish rebuilt every table: no clock is read.
    #[test]
    fn a_modelled_delta_is_the_overhead_of_every_plan() {
        let h = handler(0.9).with_modelled_overhead(ms(170));
        warm(&h, &[0, 1, 2], 20);
        let version = h.planning_view().version();
        h.plan_request(Instant::from_millis(100));
        assert!(h.planning_view().version() > version, "the plan published");
        assert_eq!(
            h.last_overhead_ns.load(Ordering::Relaxed),
            ms(170).as_nanos()
        );
        let PlannerMode::Snapshot { spec, .. } = &h.planner else {
            unreachable!("model-based plans from snapshots");
        };
        let plan = h.plan_from_snapshot(&h.planning_view(), spec, None, &[]);
        let read: Vec<f64> = plan.candidates.iter().map(|c| c.probability).collect();
        assert_eq!(read, [1.0, 0.0, 0.0], "F read at 200 − 170 = 30 ms");
    }

    mod reference {
        use super::*;
        use crate::concurrent::repo_ops::{all_configs, apply, op, METHODS, POOL};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// `ModelBased::select` is the δ = 0 reference. On any
            /// repository history, for every estimator combination (both
            /// method scopes), both cold-start policies and any method,
            /// it selects what a freshly built handler's first plan
            /// selects ahead of its probation shadows; with replicas
            /// excluded, what that plan's body selects on the same view.
            #[test]
            fn model_based_select_is_a_fresh_handlers_first_plan(
                ops in prop::collection::vec(op(), 40..160),
                deadline_ms in 20u64..600,
                pc in 0.0f64..1.0,
                method in 0..METHODS,
                excluded in 1u8..16,
            ) {
                let mut repo = InfoRepository::new(5);
                for i in 0..POOL {
                    repo.insert_replica(ReplicaId::new(i));
                }
                for op in &ops {
                    apply(&mut repo, op);
                }
                let qos = QosSpec::new(ms(deadline_ms), pc).unwrap();
                let method = Some(MethodId::new(method));
                let exclude: Vec<ReplicaId> = (0..POOL)
                    .filter(|i| excluded >> i & 1 == 1)
                    .map(ReplicaId::new)
                    .collect();
                let shadows: Vec<ReplicaId> = repo
                    .iter()
                    .filter(|(_, stats)| stats.is_on_probation())
                    .map(|(id, _)| id)
                    .collect();
                for config in all_configs() {
                    let strategy = || ModelBased::new(config);
                    let reference = |exclude: &[ReplicaId]| {
                        strategy().select(&SelectionInput {
                            repository: &repo,
                            qos: &qos,
                            method,
                            now: Instant::EPOCH,
                            exclude,
                        })
                    };
                    let mut h = ConcurrentHandler::new(qos, 5, Box::new(strategy()));
                    *h.repository_mut() = repo.clone();
                    let PlannerMode::Snapshot { spec, .. } = &h.planner else {
                        unreachable!("model-based plans from snapshots");
                    };
                    // No plan has measured a δ yet.
                    let view = h.planning_view();
                    let body = h.plan_from_snapshot(&view, spec, method, &exclude);
                    prop_assert_eq!(
                        body.selection.into_replicas(),
                        reference(&exclude),
                        "{:?}, excluding {:?}",
                        config,
                        exclude
                    );
                    let plan = h.plan_request_for(Instant::EPOCH, method);
                    let mut expected = reference(&[]);
                    expected.extend_from_slice(&shadows);
                    prop_assert_eq!(
                        plan.replicas.as_ref(),
                        expected.as_slice(),
                        "{:?}",
                        config
                    );
                }
            }
        }
    }
    /// Two replicas certain to answer in time, one of them only up to float
    /// rounding: ten distinct service times of weight 0.1 each sum, in a
    /// whole-distribution prefix sum, to 0.9999999999999999 where the exact
    /// count is 10 of 10. The tables read the exact 1.0, so Algorithm 1
    /// sees a tie and ranks the two by id.
    #[test]
    fn certain_replicas_tie_and_rank_by_id() {
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let h = ConcurrentHandler::new(qos, 10, Box::new(ModelBased::default()))
            .with_min_republish(Duration::ZERO);
        let [spread, steady, slow] = [0, 1, 2].map(ReplicaId::new);
        let mut at = Instant::EPOCH;
        for r in [spread, steady, slow] {
            h.insert_replica(at, r);
        }
        for k in 0..10 {
            at += ms(1);
            for (r, service_ms) in [(spread, 20 + k), (steady, 20), (slow, 300)] {
                h.on_perf_update(at, r, PerfReport::new(ms(service_ms), ms(0), 0));
                h.ingest(at, r, None, Some(ms(1)));
            }
        }

        let plan = h.plan_request(at + ms(2));
        let view = h.planning_view();
        let model = ResponseTimeModel::default();
        let whole = |r| {
            let stats = view.repository().stats(r).unwrap();
            model
                .response_pmf_with(stats, None, &mut ConvScratch::new())
                .unwrap()
                .cdf(ms(199))
        };
        assert_eq!((whole(spread), whole(steady)), (0.9999999999999999, 1.0));
        for r in [spread, steady] {
            assert_eq!(view.probability_by(r, 0, ms(199)), Some(1.0));
        }
        assert_eq!(plan.replicas.as_ref(), &[spread, steady]);
    }

    #[test]
    fn first_reply_delivers_then_duplicates_are_redundant() {
        let h = handler(0.9);
        warm(&h, &[0, 1], 20);
        let t0 = Instant::from_millis(100);
        let plan = h.plan_request(t0);
        let r = plan.replicas[0];
        let t4 = t0 + ms(30);
        match h.on_reply(t4, plan.seq, r, PerfReport::new(ms(20), ms(3), 1)) {
            ReplyOutcome::Deliver {
                response_time,
                verdict,
                request,
            } => {
                assert_eq!(request, plan.seq);
                assert_eq!(response_time, ms(30));
                assert!(verdict.is_timely());
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        // td = 30 − 3 − 20 = 7 ms, and the queue length landed.
        let stats = |h: &ConcurrentHandler| h.repository().stats(r).cloned().unwrap();
        assert_eq!(stats(&h).last_gateway_delay(), Some(ms(7)));
        assert_eq!(stats(&h).outstanding(), 1);
        let again = h.on_reply(t4 + ms(5), plan.seq, r, PerfReport::new(ms(20), ms(0), 0));
        assert_eq!(again, ReplyOutcome::Redundant);
        // The redundant reply was mined: td = 35 − 20 = 15 ms.
        assert_eq!(stats(&h).last_gateway_delay(), Some(ms(15)));
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
            .plan_retry(t0 + ms(150), plan.seq)
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
        // The retry keeps the original interception time, so the response
        // time spans both attempts.
        match out {
            ReplyOutcome::Deliver {
                response_time,
                request,
                ..
            } => {
                assert_eq!(response_time, ms(170));
                assert_eq!(request, plan.seq, "the request is named by its origin");
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        let late = h.on_reply(
            t0 + ms(180),
            plan.seq,
            plan.replicas[0],
            PerfReport::new(ms(20), ms(0), 0),
        );
        assert_eq!(late, ReplyOutcome::Unknown, "retired attempt is gone");
        let stats = h.stats();
        assert_eq!(stats.requests, 1, "a retry is not a new request");
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
        assert!(h.plan_retry(t0 + ms(150), plan.seq).is_none());
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

    /// A give-up through either attempt of a retried request resolves the
    /// whole request: the first attempt retires as superseded, the retry
    /// carries the one timing failure, and the table is empty.
    #[test]
    fn a_give_up_through_any_attempt_retires_the_whole_group() {
        for through_retry in [false, true] {
            let (obs, reader) = aqua_obs::Obs::in_memory();
            let mut h = handler(0.9);
            h.attach_obs(&obs, Some(0));
            warm(&h, &[0, 1, 2], 20);
            let t0 = Instant::from_millis(100);
            let plan = h.plan_request(t0);
            let retry = h.plan_retry(t0 + ms(150), plan.seq).expect("a retry");
            let via = if through_retry { retry.seq } else { plan.seq };
            assert!(h.on_give_up(t0 + ms(300), via), "give-up via {via}");
            assert!(!h.on_give_up(t0 + ms(301), via), "resolved once");

            let stats = h.stats();
            assert_eq!((stats.gave_up, stats.abandoned), (1, 1));
            assert_eq!(h.detector().failures(), 1);
            assert_eq!(h.pending_count(), 0);
            for (seq, replica) in [(plan.seq, plan.replicas[0]), (retry.seq, retry.replicas[0])] {
                let perf = PerfReport::new(ms(20), ms(0), 0);
                let late = h.on_reply(t0 + ms(400), seq, replica, perf);
                assert_eq!(late, ReplyOutcome::Unknown, "late reply to {seq}");
            }
            h.flush_observability();
            let spans: Vec<(String, String)> = reader
                .lines_containing(r#""type":"request""#)
                .iter()
                .filter_map(|line| {
                    let field = |key: &str| {
                        let rest = line.split(&format!(r#""{key}":"#)).nth(1)?;
                        Some(rest.split([',', '}']).next()?.trim_matches('"').to_string())
                    };
                    Some((field("seq")?, field("outcome")?))
                })
                .collect();
            assert_eq!(
                spans,
                [
                    (plan.seq.to_string(), "superseded".to_string()),
                    (retry.seq.to_string(), "gave_up".to_string()),
                ],
                "superseded first, then the give-up"
            );
        }
    }

    /// With an `Obs` attached every lock the handler accounts is counted
    /// once per acquisition, and every reply on a span carries its ingest
    /// time: the work an unobserved handler skips, done in full.
    #[test]
    fn an_observed_handler_counts_each_acquisition_and_times_each_ingest() {
        use aqua_obs::contention::LOCK_ACQUISITIONS_TOTAL;
        use aqua_strategies::StaticK;

        let (obs, reader) = aqua_obs::Obs::in_memory();
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        // No debounced publish: only the three forced ones at join time.
        let mut h = ConcurrentHandler::new(qos, 5, Box::new(StaticK { k: 2 }))
            .with_min_republish(Duration::from_secs(3_600));
        h.attach_obs(&obs, Some(0));
        let [r0, r1, r2] = [0, 1, 2].map(ReplicaId::new);
        for r in [r0, r1, r2] {
            h.insert_replica(Instant::EPOCH, r);
        }
        let at = |k: u64| Instant::from_millis(100 + k);
        let perf = PerfReport::new(ms(20), ms(0), 0);

        // A delivered call and its redundant reply: pending-shard 1 + 2,
        // ingest-shard 2.
        let a = h.plan_request(at(0));
        assert_eq!(a.replicas.as_ref(), &[r0, r1]);
        assert!(matches!(
            h.on_reply(at(1), a.seq, r0, perf),
            ReplyOutcome::Deliver { .. }
        ));
        assert_eq!(h.on_reply(at(2), a.seq, r1, perf), ReplyOutcome::Redundant);
        // A retried call the retry wins: plan 1, retry lookup + insert 2,
        // winning reply 1 + the original's retirement 1, the original's
        // late reply 1; ingest-shard 2.
        let b = h.plan_request(at(3));
        let retry = h.plan_retry(at(4), b.seq).unwrap();
        assert_eq!(retry.replicas.as_ref(), &[r2]);
        assert!(matches!(
            h.on_reply(at(5), retry.seq, r2, perf),
            ReplyOutcome::Deliver { .. }
        ));
        assert_eq!(h.on_reply(at(6), b.seq, r0, perf), ReplyOutcome::Unknown);
        // A call given up: plan 1, lookup 1, removal 1.
        let c = h.plan_request(at(7));
        assert!(h.on_give_up(at(8), c.seq));

        let acquisitions = |lock| {
            obs.registry()
                .counter(LOCK_ACQUISITIONS_TOTAL, &[("lock", lock)])
                .get()
        };
        assert_eq!(acquisitions("pending-shard"), 3 + 6 + 3);
        assert_eq!(acquisitions("ingest-shard"), 2 + 2);
        assert_eq!(acquisitions("publish"), 3);

        h.flush_observability();
        let spans = reader.lines_containing("\"type\":\"request\"").concat();
        assert_eq!(spans.matches("\"ingest_ns\":").count(), 3, "{spans}");
        assert!(!spans.contains("\"ingest_ns\":null"), "{spans}");
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
        // Rejoining while still connected is a no-op.
        h.on_rejoin(Instant::from_millis(302), ReplicaId::new(0));
        let repository = h.repository();
        assert!(!repository
            .stats(ReplicaId::new(0))
            .unwrap()
            .is_on_probation());
    }

    /// Samples recorded by `view`'s repository for `r`.
    fn samples(view: &PlanningView, r: ReplicaId) -> usize {
        view.repository()
            .stats(r)
            .and_then(|s| s.history(MethodId::DEFAULT).map(|m| m.len()))
            .unwrap_or(0)
    }

    #[test]
    fn debounce_coalesces_publishes() {
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let h = ConcurrentHandler::new(qos, 5, Box::new(ModelBased::default()))
            .with_min_republish(ms(10));
        h.insert_replica(Instant::EPOCH, ReplicaId::new(0));
        let v0 = h.planning_view().version();
        // A burst of updates and a plan inside the debounce window: no
        // republish.
        for k in 1..5u64 {
            h.on_perf_update(
                Instant::from_millis(k),
                ReplicaId::new(0),
                PerfReport::new(ms(20), ms(0), 0),
            );
        }
        h.plan_request(Instant::from_millis(5));
        assert_eq!(h.planning_view().version(), v0);
        // Past the window: the next plan's publish covers the whole burst.
        h.on_perf_update(
            Instant::from_millis(30),
            ReplicaId::new(0),
            PerfReport::new(ms(20), ms(0), 0),
        );
        h.plan_request(Instant::from_millis(30));
        assert_eq!(h.planning_view().version(), v0 + 1);
        assert_eq!(
            samples(&h.planning_view(), ReplicaId::new(0)),
            5,
            "the coalesced publish carries every sample"
        );
    }

    /// A report inside the debounce of the publish before it is not left
    /// behind until some later reply: the next plan past the debounce
    /// publishes it, however long after it comes.
    #[test]
    fn a_plan_long_after_a_burst_plans_from_all_of_it() {
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let h = ConcurrentHandler::new(qos, 5, Box::new(ModelBased::default()));
        let r = ReplicaId::new(0);
        h.insert_replica(Instant::EPOCH, r);
        let report = PerfReport::new(ms(20), ms(0), 0);
        let first = Instant::from_millis(1);
        h.on_perf_update(first, r, report);
        h.on_perf_update(first + Duration::from_micros(100), r, report);
        h.plan_request(Instant::from_secs(10));
        let view = h.planning_view();
        assert_eq!(samples(&view, r), 2, "the plan's view holds both reports");
        let generation = view.repository().stats(r).unwrap().perf_generation();
        assert_eq!(
            generation,
            h.repository().stats(r).unwrap().perf_generation()
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
        h.plan_request(Instant::from_millis(100));
        let view = h.planning_view();
        assert!(view.all_warm(), "flags and generations still publish");
        for snap in view.replicas() {
            let slot = method_slot(ModelConfig::default().method_scope, None);
            assert!(
                snap.table(slot).is_none(),
                "the strategy reads the repository"
            );
            let stats = view.repository().stats(snap.id()).unwrap();
            assert!(snap.is_current(stats));
        }
    }

    #[test]
    fn renegotiating_a_longer_deadline_rebuilds_the_tables_to_it() {
        let h = handler(0.9);
        warm(&h, &[0, 1, 2], 20);
        h.plan_request(Instant::from_millis(40));
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

    /// Everything a planner can read from `view`: the membership and
    /// flags of its snapshots, their tables' values (as bits) at
    /// deadlines up to the view's own, and the stats of its repository.
    fn fingerprint(view: &PlanningView) -> Vec<String> {
        let slot = method_slot(ModelConfig::default().method_scope, None);
        let deadline = view.qos().deadline().as_nanos();
        let mut out = vec![format!("v{} {:?}", view.version(), view.qos())];
        for snap in view.replicas() {
            let values: Vec<Option<u64>> = (0..=4)
                .map(|k| {
                    let at = Duration::from_nanos(deadline * k / 4);
                    snap.probability_by(slot, at).map(f64::to_bits)
                })
                .collect();
            out.push(format!(
                "{:?} warm={} selectable={} epoch={} {values:?}",
                snap.id(),
                snap.is_warm(),
                snap.is_selectable(),
                snap.epoch(),
            ));
        }
        for (id, stats) in view.repository().iter() {
            out.push(format!("{id:?} {stats:?}"));
        }
        out
    }

    /// The publish behind `view` built what a from-scratch build of the
    /// handler's repository gives: the same stats, and every table equal
    /// to a fresh build at deadlines up to the view's.
    fn assert_published_fresh(
        h: &ConcurrentHandler,
        view: &PlanningView,
        model: &ResponseTimeModel,
    ) {
        let repository = h.repository();
        let published: Vec<String> = view
            .repository()
            .iter()
            .map(|(id, stats)| format!("{id:?} {stats:?}"))
            .collect();
        let expected: Vec<String> = repository
            .iter()
            .map(|(id, stats)| format!("{id:?} {stats:?}"))
            .collect();
        assert_eq!(published, expected);
        let slot = method_slot(model.config().method_scope, None);
        let ids: Vec<ReplicaId> = view.replicas().iter().map(|s| s.id()).collect();
        assert_eq!(ids, repository.replica_ids().collect::<Vec<_>>());
        for snap in view.replicas() {
            let stats = repository.stats(snap.id()).unwrap();
            assert!(snap.is_current(stats), "{:?} is stale", snap.id());
            let fresh = ReplicaSnapshot::build(snap.id(), stats, model, &mut ConvScratch::new());
            for deadline in [0, 50, 100, 150, 200] {
                assert_eq!(
                    snap.probability_by(slot, ms(deadline)).map(f64::to_bits),
                    fresh.probability_by(slot, ms(deadline)).map(f64::to_bits),
                    "{:?} @{deadline}ms",
                    snap.id()
                );
            }
        }
    }

    /// A planner holding a view across republishes of changed replicas
    /// reads exactly what it loaded: the publisher reuses a retired
    /// view's buffers only once nobody else holds it. The views published
    /// meanwhile, recycled ones included, are still built right.
    #[test]
    fn a_held_view_never_changes_across_republishes() {
        let h = handler(0.9);
        warm(&h, &[0, 1, 2, 3], 20);
        held_view_never_changes(&h, &ResponseTimeModel::default(), |round| round as u32);
    }

    /// The same with `QueueScaled` tables: the held view's tables keep
    /// `S⊛S` and `S⊛S⊛S` (queue 4), the first tables to replace them
    /// (queue 4 again) refresh those, which must only read them, and later
    /// ones cycle through queues 5, 0, 1, 2 and 3.
    #[test]
    fn a_held_queue_scaled_view_never_changes_across_republishes() {
        let config = ModelConfig {
            queue_estimator: QueueEstimator::QueueScaled,
            ..ModelConfig::default()
        };
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let h = ConcurrentHandler::new(qos, 5, Box::new(ModelBased::new(config)))
            .with_min_republish(Duration::ZERO);
        warm(&h, &[0, 1, 2, 3], 20);
        let at = Instant::from_millis(99);
        for i in 0..4u64 {
            let report = PerfReport::new(ms(25 + 10 * i), ms(0), 4);
            h.on_perf_update(at, ReplicaId::new(i), report);
        }
        let model = ResponseTimeModel::new(config);
        held_view_never_changes(&h, &model, |round| ((round + 4) % 6) as u32);
        // The last round went from queue 2 to 3: every table refreshed
        // the `S⊛S` the view before kept.
        for snap in h.planning_view().replicas() {
            assert!(snap.table(0).unwrap().is_refreshed(), "{:?}", snap.id());
        }
    }

    /// Holds the view `h` publishes next, then republishes one changed
    /// replica at a time, six rounds over four replicas, each report at
    /// queue `queue_of(round)`: the held view reads the same throughout,
    /// and every view published meanwhile is `model`'s fresh one.
    fn held_view_never_changes(
        h: &ConcurrentHandler,
        model: &ResponseTimeModel,
        queue_of: fn(u64) -> u32,
    ) {
        h.plan_request(Instant::from_millis(100));
        let held = h.planning_view();
        let before = fingerprint(&held);
        let mut at = Instant::from_millis(100);
        for round in 0..6u64 {
            at += ms(1);
            for i in 0..4u64 {
                let report = PerfReport::new(ms(30 + 25 * round + i), ms(round), queue_of(round));
                h.on_perf_update(at, ReplicaId::new(i), report);
                h.plan_request(at);
                let now = h.planning_view();
                assert!(now.version() > held.version());
                assert_published_fresh(h, &now, model);
                assert_eq!(fingerprint(&held), before, "round {round}, replica {i}");
            }
        }
        let plan = h.plan_request(at);
        assert!(!plan.replicas.is_empty());
        assert_eq!(fingerprint(&held), before);
    }

    mod bounded_tables {
        use super::*;
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
            let repository = Arc::new(view.repository().clone());
            PlanningView::assemble(view.version(), snaps, repository, view.qos())
        }

        #[derive(Debug, Clone)]
        enum Churn {
            Perf {
                r: u64,
                service_ms: u64,
                queue_len: u32,
            },
            Call {
                service_ms: u64,
            },
            /// Replica `r` leaves the view.
            Leave {
                r: u64,
            },
            /// Replica `r` comes back: a new epoch, on probation.
            Rejoin {
                r: u64,
            },
            /// A planner keeps the current view.
            Hold,
            /// The oldest held view is let go.
            Release,
        }

        fn churn() -> impl Strategy<Value = Churn> {
            prop_oneof![
                8 => (0u64..4, 1u64..120, 0u32..5).prop_map(|(r, service_ms, queue_len)| {
                    Churn::Perf { r, service_ms, queue_len }
                }),
                3 => (1u64..90).prop_map(|service_ms| Churn::Call { service_ms }),
                1 => (0u64..4).prop_map(|r| Churn::Leave { r }),
                1 => (0u64..4).prop_map(|r| Churn::Rejoin { r }),
                2 => Just(Churn::Hold),
                2 => Just(Churn::Release),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Recycling meets membership changes: replicas leave and
            /// rejoin with new epochs while planners hold some views and
            /// let go of others. Every published view plans what
            /// Algorithm 1 plans on its unbounded tables, publishes the
            /// handler's repository and each replica's current epoch, and
            /// every held view stays what it was when it was loaded.
            #[test]
            fn recycled_views_match_algorithm_1_across_leaves_and_rejoins(
                ops in prop::collection::vec(churn(), 1..80),
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
                let mut members: BTreeSet<u64> = (0..4).collect();
                for i in &members {
                    h.insert_replica(now, ReplicaId::new(*i));
                }
                let mut held: std::collections::VecDeque<(Arc<PlanningView>, Vec<String>)> =
                    std::collections::VecDeque::new();
                for op in ops {
                    now += ms(1);
                    match op {
                        Churn::Perf { r, service_ms, queue_len } => h.on_perf_update(
                            now,
                            ReplicaId::new(r),
                            PerfReport::new(ms(service_ms), ms(service_ms / 3), queue_len),
                        ),
                        Churn::Call { service_ms } => {
                            let plan = h.plan_request(now);
                            for replica in plan.replicas.iter() {
                                h.on_reply(
                                    now + ms(service_ms),
                                    plan.seq,
                                    *replica,
                                    PerfReport::new(ms(service_ms), ms(0), 0),
                                );
                            }
                        }
                        Churn::Leave { r } => {
                            members.remove(&r);
                            h.on_view(now, members.iter().copied().map(ReplicaId::new));
                        }
                        Churn::Rejoin { r } => {
                            members.insert(r);
                            h.on_view(now, members.iter().copied().map(ReplicaId::new));
                        }
                        Churn::Hold => {
                            let view = h.planning_view();
                            let print = fingerprint(&view);
                            held.push_back((view, print));
                        }
                        Churn::Release => {
                            held.pop_front();
                        }
                    }
                    h.plan_request(now);
                    let view = h.planning_view();
                    let repository = h.repository();
                    let published: Vec<(ReplicaId, u64)> = view
                        .replicas()
                        .iter()
                        .map(|snap| (snap.id(), snap.epoch()))
                        .collect();
                    let expected: Vec<(ReplicaId, u64)> = repository
                        .iter()
                        .map(|(id, stats)| (id, stats.epoch()))
                        .collect();
                    prop_assert_eq!(published, expected);
                    for (id, stats) in repository.iter() {
                        prop_assert_eq!(
                            format!("{:?}", view.repository().stats(id)),
                            format!("{:?}", Some(stats))
                        );
                    }
                    let full = with_full_tables(&view, model);
                    prop_assert_eq!(
                        h.plan_from_snapshot(&view, spec, None, &[]).selection.into_replicas(),
                        h.plan_from_snapshot(&full, spec, None, &[]).selection.into_replicas()
                    );
                    for (view, print) in &held {
                        prop_assert_eq!(&fingerprint(view), print);
                    }
                }
            }
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
                            // A plan publishes what the ops before it
                            // changed; the next one then plans from the
                            // same view. Both selections read the same δ:
                            // nothing plans between them.
                            h.plan_request(now);
                            let view = h.planning_view();
                            let full = with_full_tables(&view, model);
                            let expected = h
                                .plan_from_snapshot(&full, spec, None, &[])
                                .selection
                                .into_replicas();
                            let bounded = h
                                .plan_from_snapshot(&view, spec, None, &[])
                                .selection
                                .into_replicas();
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

    /// Seeds `ids` through [`ConcurrentHandler::repository_mut`]: three
    /// `service_ms` samples and a 2 ms gateway delay each, at the epoch.
    fn seed(h: &mut ConcurrentHandler, ids: &[u64], service_ms: u64) {
        let mut repository = h.repository_mut();
        for i in ids {
            let r = ReplicaId::new(*i);
            repository.insert_replica(r);
            for _ in 0..3 {
                let report = PerfReport::new(ms(service_ms), ms(0), 0);
                repository.record_perf(r, report, Instant::EPOCH);
            }
            repository.record_gateway_delay(r, ms(2), Instant::EPOCH);
        }
    }

    #[test]
    fn late_first_reply_is_a_timing_failure() {
        let mut h = handler(0.0);
        seed(&mut h, &[0, 1], 100);
        let plan = h.plan_request(Instant::EPOCH);
        let perf = PerfReport::new(ms(480), ms(0), 0);
        match h.on_reply(Instant::EPOCH + ms(500), plan.seq, plan.replicas[0], perf) {
            ReplyOutcome::Deliver { verdict, .. } => {
                assert!(!verdict.is_timely());
                assert!(!verdict.should_notify(), "Pc = 0 tolerates failures");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(h.detector().failures(), 1);
    }

    #[test]
    fn probes_refresh_without_touching_statistics() {
        let mut h = handler(0.9);
        seed(&mut h, &[0, 1], 100);
        let r = ReplicaId::new(0);
        let t0 = Instant::from_secs(1);
        let plan = h.plan_probe(t0, r);
        assert_eq!(&plan.replicas[..], &[r]);
        assert_eq!(h.stats().probes, 1);
        assert_eq!(h.stats().requests, 0, "probes are not client requests");

        // The probe reply is never delivered, even though it is the first,
        // and way past any deadline it is still no failure.
        let perf = PerfReport::new(ms(650), ms(40), 2);
        let outcome = h.on_reply(t0 + ms(700), plan.seq, r, perf);
        assert_eq!(outcome, ReplyOutcome::Redundant);
        assert_eq!((h.stats().delivered, h.stats().redundant), (0, 0));
        assert_eq!(h.detector().total(), 0, "no timing accounting for probes");
        // But the measurements landed: td = 700 − 40 − 650 = 10 ms.
        let repository = h.repository();
        let stats = repository.stats(r).unwrap();
        assert_eq!(stats.last_gateway_delay(), Some(ms(10)));
        assert_eq!(stats.outstanding(), 2);
    }

    #[test]
    fn unanswered_probes_give_up_silently() {
        let mut h = handler(0.9);
        seed(&mut h, &[0, 1], 100);
        let plan = h.plan_probe(Instant::EPOCH, ReplicaId::new(1));
        assert!(
            !h.on_abandon(Instant::from_secs(1), plan.seq),
            "a probe has no siblings"
        );
        assert!(
            !h.on_give_up(Instant::from_secs(5), plan.seq),
            "probe give-up is not a failure"
        );
        assert_eq!(h.stats().gave_up, 0);
        assert_eq!(h.stats().probes, 1);
        assert_eq!(h.detector().total(), 0);
        assert_eq!(h.pending_count(), 0, "the give-up retired the probe");
    }

    #[test]
    fn stale_replicas_reports_old_and_empty_entries() {
        let mut h = handler(0.5);
        seed(&mut h, &[0], 100); // updated at Instant::EPOCH
        h.insert_replica(Instant::EPOCH, ReplicaId::new(9)); // never updated
        let stale = h.stale_replicas(Instant::from_secs(10), Duration::from_secs(5));
        assert_eq!(stale, vec![ReplicaId::new(0), ReplicaId::new(9)]);
        let fresh = h.stale_replicas(Instant::from_millis(1), Duration::from_secs(5));
        assert_eq!(fresh, vec![ReplicaId::new(9)], "only the blank entry");
    }

    #[test]
    fn perf_update_warms_repository() {
        let h = handler(0.0);
        h.insert_replica(Instant::EPOCH, ReplicaId::new(0));
        let perf = PerfReport::new(ms(10), ms(1), 0);
        h.on_perf_update(Instant::EPOCH, ReplicaId::new(0), perf);
        let repository = h.repository();
        let stats = repository.stats(ReplicaId::new(0)).unwrap();
        assert_eq!(stats.outstanding(), 0);
        assert!(stats.history(MethodId::DEFAULT).is_some());
        assert!(!stats.is_warm(), "still no gateway delay measured");
    }

    #[test]
    fn renegotiate_resets_detector() {
        let mut h = handler(0.9);
        seed(&mut h, &[0, 1], 100);
        let plan = h.plan_request(Instant::EPOCH);
        let perf = PerfReport::new(ms(880), ms(0), 0);
        match h.on_reply(Instant::EPOCH + ms(900), plan.seq, plan.replicas[0], perf) {
            ReplyOutcome::Deliver { verdict, .. } => assert!(verdict.should_notify()),
            other => panic!("{other:?}"),
        }
        assert_eq!(h.stats().callbacks, 1);
        assert!(h.detector().is_violating());
        h.renegotiate(Instant::from_secs(1), QosSpec::new(ms(1_000), 0.5).unwrap());
        assert!(!h.detector().is_violating());
        assert_eq!(h.qos().deadline(), ms(1_000));
    }

    #[test]
    fn mean_redundancy_tracks_selections() {
        let mut h = handler(0.0);
        seed(&mut h, &[0, 1, 2, 3], 100);
        for i in 0..4 {
            let plan = h.plan_request(Instant::from_millis(i * 10));
            assert_eq!(plan.replicas.len(), 2, "Pc = 0 warm selects 2");
        }
        assert_eq!(h.stats().mean_redundancy(), 2.0);
    }

    #[test]
    fn retry_with_nobody_left_is_refused() {
        let mut h = handler(0.0);
        seed(&mut h, &[0, 1], 100);
        let first = h.plan_request(Instant::EPOCH);
        assert_eq!(first.replicas.len(), 2);
        assert!(
            h.plan_retry(Instant::from_millis(150), first.seq).is_none(),
            "every replica is already serving the first attempt"
        );
        assert_eq!(h.stats().retries, 0);
    }

    #[test]
    fn abandoned_attempt_is_neither_delivery_nor_failure() {
        let mut h = handler(0.0);
        seed(&mut h, &[0, 1], 100);
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
        let perf = PerfReport::new(ms(100), ms(0), 0);
        let outcome = h.on_reply(Instant::from_millis(120), plan.seq, plan.replicas[0], perf);
        assert!(matches!(outcome, ReplyOutcome::Unknown));
        assert!(
            !h.on_give_up(Instant::from_millis(130), plan.seq),
            "nothing left to give up on"
        );
    }

    #[test]
    fn rejoining_replica_serves_probation_until_fresh_window() {
        let mut h = handler(0.0);
        seed(&mut h, &[0, 1, 2], 100);
        let [r0, r1, r2] = [0, 1, 2].map(ReplicaId::new);
        h.on_view(Instant::EPOCH, [r0, r1]);
        assert!(!h.repository().contains(r2));
        let plan = h.plan_request(Instant::EPOCH);
        assert!(
            !plan.replicas.contains(&r2),
            "a departed replica is not asked"
        );
        // Replica 2 recovers and rejoins the view: probation, not trust.
        h.on_view(Instant::from_millis(10), [r0, r1, r2]);
        assert!(h.repository().stats(r2).unwrap().is_on_probation());
        // It shadows the next selection (so its window can refill) but is
        // never a trusted candidate while on probation.
        let plan = h.plan_request(Instant::from_millis(20));
        assert_eq!(
            plan.replicas.last(),
            Some(&r2),
            "shadows are appended after the trusted selection"
        );
        // l fresh samples clear probation.
        for i in 0..5u64 {
            let perf = PerfReport::new(ms(90), ms(0), 0);
            h.on_perf_update(Instant::from_millis(30 + i), r2, perf);
        }
        assert!(!h.repository().stats(r2).unwrap().is_on_probation());
        // A never-seen member is warmed by the cold-start multicast instead.
        let r3 = ReplicaId::new(3);
        h.on_view(Instant::from_millis(40), [r0, r1, r2, r3]);
        assert!(!h.repository().stats(r3).unwrap().is_on_probation());
    }
}
