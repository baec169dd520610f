//! Read-mostly planning snapshots for lock-free request planning.
//!
//! The paper's selection path (§5.3) reads the information repository on
//! every request but mutates it only when perf reports arrive. This module
//! packages the read side as an immutable, epoch-published **planning
//! view**: per-replica point-query response-time tables ([`CdfTable`])
//! plus the freshness metadata needed to decide when a replica's entry is
//! stale ([`ReplicaSnapshot::serves`]). Publishers
//! rebuild a new [`PlanningView`] off the hot path whenever generation
//! counters move and swap it into a [`SnapshotCell`] with a brief
//! pointer-sized critical section; planners [`SnapshotCell::load`] the
//! current `Arc` and run Algorithm 1 with no shared-state writes at all.
//!
//! Freshness is unchanged from the serialized design: every published entry
//! is derived from the same sliding windows of the last `l` observations
//! (§5.2), so a plan computed from a snapshot is exactly a plan the
//! serialized handler could have computed at publication time.

use std::sync::Arc;

use crate::aqua;
use crate::model::{MethodScope, ResponseTimeModel};
use crate::pmf::{CdfTable, ConvScratch};
use crate::qos::{QosSpec, ReplicaId};
use crate::repository::{InfoRepository, MethodId, ReplicaStats};
use crate::sync::{self, RwLock};
use crate::time::Duration;

/// The method slot a cached table is filed under: the method index for
/// per-method models, or this sentinel for the aggregate scope.
pub const AGGREGATE_SLOT: u64 = u64::MAX;

/// Maps a request's (optional) method id to the slot its table lives in.
#[inline]
pub fn method_slot(scope: MethodScope, method: Option<MethodId>) -> u64 {
    match scope {
        MethodScope::PerMethod => u64::from(method.unwrap_or_default().index()),
        MethodScope::Aggregate => AGGREGATE_SLOT,
    }
}

/// One replica's published planning state: its point-query response-time
/// tables per method slot plus the generation counters they were built at.
#[derive(Debug, Clone)]
pub struct ReplicaSnapshot {
    id: ReplicaId,
    warm: bool,
    selectable: bool,
    epoch: u64,
    perf_generation: u64,
    delay_generation: u64,
    outstanding: u32,
    /// `(slot, table)` pairs sorted by slot for binary-search lookup.
    cdfs: Vec<(u64, CdfTable)>,
}

impl ReplicaSnapshot {
    /// Builds a snapshot of `stats` with the response-time table (§5.3.1)
    /// of every method slot the replica has history for, exact at every
    /// deadline. This is the publisher-side cost, paid off the hot path.
    pub fn build(
        id: ReplicaId,
        stats: &ReplicaStats,
        model: &ResponseTimeModel,
        scratch: &mut ConvScratch,
    ) -> Self {
        Self::build_within(id, stats, Some(model), scratch, None, None)
    }

    /// The reuse rule: a snapshot serves `stats` at deadlines up to
    /// `horizon` while nothing it was built from has moved
    /// ([`ReplicaSnapshot::is_current`]) and its tables reach `horizon`
    /// ([`ReplicaSnapshot::covers`]).
    #[inline]
    pub fn serves(&self, stats: &ReplicaStats, horizon: Duration) -> bool {
        self.is_current(stats) && self.covers(horizon)
    }

    /// A snapshot of `stats` with `model`'s tables exact up to `horizon`
    /// (everywhere for `None`), or with no tables without a model; the
    /// tables refresh from `held`'s ([`ReplicaSnapshot::rebuild`]).
    fn build_within(
        id: ReplicaId,
        stats: &ReplicaStats,
        model: Option<&ResponseTimeModel>,
        scratch: &mut ConvScratch,
        horizon: Option<Duration>,
        held: Option<&ReplicaSnapshot>,
    ) -> Self {
        let mut snapshot = ReplicaSnapshot {
            id,
            warm: false,
            selectable: false,
            epoch: 0,
            perf_generation: 0,
            delay_generation: 0,
            outstanding: 0,
            cdfs: Vec::new(),
        };
        snapshot.rebuild(id, stats, model, scratch, horizon, held);
        snapshot
    }

    /// Makes this snapshot the one [`ReplicaSnapshot::build_within`]
    /// builds, in place: its tables go back to `scratch` and the new ones
    /// are built from `scratch`'s spares into the same list.
    ///
    /// `held` is the snapshot this one replaces, only read: while it
    /// describes the same incarnation of the replica (its epoch), each
    /// slot's table is built from `held`'s table for that slot
    /// ([`ResponseTimeModel::response_cdf_from`]).
    #[aqua::hot_path]
    fn rebuild(
        &mut self,
        id: ReplicaId,
        stats: &ReplicaStats,
        model: Option<&ResponseTimeModel>,
        scratch: &mut ConvScratch,
        horizon: Option<Duration>,
        held: Option<&ReplicaSnapshot>,
    ) {
        self.id = id;
        self.warm = stats.is_warm();
        self.selectable = !stats.is_on_probation();
        self.epoch = stats.epoch();
        self.perf_generation = stats.perf_generation();
        self.delay_generation = stats.delay_generation();
        self.outstanding = stats.outstanding();
        for (_, table) in self.cdfs.drain(..) {
            scratch.recycle(table);
        }
        let Some(model) = model else {
            return;
        };
        let held = held.filter(|held| held.epoch == self.epoch);
        let held_table = |slot| held.and_then(|held| held.table(slot));
        match model.config().method_scope {
            MethodScope::PerMethod => {
                self.cdfs.reserve_exact(stats.histories().count());
                for (method, _) in stats.histories() {
                    let slot = u64::from(method.index());
                    let held = held_table(slot);
                    if let Some(cdf) =
                        model.response_cdf_from(held, stats, Some(method), scratch, horizon)
                    {
                        self.cdfs.push((slot, cdf));
                    }
                }
            }
            MethodScope::Aggregate => {
                let held = held_table(AGGREGATE_SLOT);
                if let Some(cdf) = model.response_cdf_from(held, stats, None, scratch, horizon) {
                    self.cdfs.push((AGGREGATE_SLOT, cdf));
                }
            }
        }
        self.cdfs.sort_unstable_by_key(|entry| entry.0);
    }

    /// The replica this snapshot describes.
    #[inline]
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Whether the replica had both perf history and a delay measurement
    /// at publication time (the cold-start criterion of §5.4.1).
    #[inline]
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    /// Whether the replica was selectable (not on probation, §5.4.2).
    #[inline]
    pub fn is_selectable(&self) -> bool {
        self.selectable
    }

    /// The repository epoch the snapshot was built at. A replica that was
    /// removed and re-inserted gets a new epoch, so a stale snapshot can
    /// never be mistaken for the re-joined replica's state (the ABA guard
    /// the interleaving checker exercises).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` when `stats` still carries exactly the generations this
    /// snapshot was built from — i.e. republishing would be a no-op.
    pub fn is_current(&self, stats: &ReplicaStats) -> bool {
        self.epoch == stats.epoch()
            && self.perf_generation == stats.perf_generation()
            && self.delay_generation == stats.delay_generation()
            && self.outstanding == stats.outstanding()
    }

    /// Whether every table is exact up to `deadline`: a snapshot built
    /// within a shorter horizon must be rebuilt before a plan reads there.
    pub fn covers(&self, deadline: Duration) -> bool {
        self.cdfs.iter().all(|(_, cdf)| cdf.covers(deadline))
    }

    /// `F_Ri(deadline)` for the given method slot, read straight from the
    /// published table. `None` when the replica has no distribution for
    /// the slot (no history yet, or the model could not produce one).
    #[aqua::hot_path]
    pub fn probability_by(&self, slot: u64, deadline: Duration) -> Option<f64> {
        Some(self.table(slot)?.value_at(deadline))
    }

    /// The published table of a method slot, if the replica has one.
    #[aqua::hot_path]
    pub fn table(&self, slot: u64) -> Option<&CdfTable> {
        let at = self
            .cdfs
            .binary_search_by_key(&slot, |entry| entry.0)
            .ok()?;
        self.cdfs.get(at).map(|(_, cdf)| cdf)
    }
}

/// An immutable, versioned view of the whole replication group, published
/// atomically through a [`SnapshotCell`].
#[derive(Debug, Clone)]
pub struct PlanningView {
    version: u64,
    /// Sorted by replica id for binary-search lookup.
    replicas: Vec<Arc<ReplicaSnapshot>>,
    /// The merged repository the snapshots were derived from — the source
    /// of truth for facade reads (membership, warmness, raw windows).
    repository: Arc<InfoRepository>,
    /// The QoS spec in force at publication. Planning inputs travel
    /// together: a renegotiation (§5.4.2) republishes, so a plan never
    /// mixes an old deadline with new tables or vice versa.
    qos: QosSpec,
}

impl PlanningView {
    /// An empty version-0 view over a repository with window size
    /// `window` (what a handler publishes before any replica joins).
    pub fn empty(window: usize, qos: QosSpec) -> Self {
        PlanningView {
            version: 0,
            replicas: Vec::new(),
            repository: Arc::new(InfoRepository::new(window)),
            qos,
        }
    }

    /// Assembles a view; `replicas` is sorted by id internally.
    pub fn assemble(
        version: u64,
        mut replicas: Vec<Arc<ReplicaSnapshot>>,
        repository: Arc<InfoRepository>,
        qos: QosSpec,
    ) -> Self {
        replicas.sort_unstable_by_key(|r| r.id());
        PlanningView {
            version,
            replicas,
            repository,
            qos,
        }
    }

    /// The QoS spec this view was published under.
    #[inline]
    pub fn qos(&self) -> QosSpec {
        self.qos
    }

    /// The publication version; strictly increasing across publishes.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// All replica snapshots, sorted by id.
    #[inline]
    pub fn replicas(&self) -> &[Arc<ReplicaSnapshot>] {
        &self.replicas
    }

    /// The snapshot for `id`, if the replica was a member at publication.
    #[aqua::hot_path]
    pub fn replica(&self, id: ReplicaId) -> Option<&ReplicaSnapshot> {
        let at = self.replicas.binary_search_by_key(&id, |r| r.id()).ok()?;
        self.replicas.get(at).map(|r| r.as_ref())
    }

    /// `F_Ri(deadline)` for `id` at the given method slot (the hot-path
    /// read Algorithm 1 runs per candidate).
    #[aqua::hot_path]
    pub fn probability_by(&self, id: ReplicaId, slot: u64, deadline: Duration) -> Option<f64> {
        self.replica(id)?.probability_by(slot, deadline)
    }

    /// Whether every selectable member was warm at publication time — the
    /// cold-start criterion driving the full multicast of §5.4.1.
    // aqua-lint: allow(pub-has-caller) gateway/tests/publish_allocations.rs calls it on a view whose type that file never names
    pub fn all_warm(&self) -> bool {
        let mut any = false;
        for r in &self.replicas {
            if r.is_selectable() {
                any = true;
                if !r.is_warm() {
                    return false;
                }
            }
        }
        any
    }

    /// The merged repository backing this view.
    #[inline]
    pub fn repository(&self) -> &InfoRepository {
        &self.repository
    }
}

/// What a publisher reuses of the view it last swapped out, so that a
/// steady-state republish allocates and frees (almost) nothing: the
/// view's snapshot list, its repository with every window buffer, and
/// each snapshot no newer view shares, tables and all.
///
/// The one rule: a buffer is reused only when the publisher holds the
/// only reference to it, decided by [`Arc::try_unwrap`] (the view) and
/// [`Arc::get_mut`] (its repository and snapshots) alone. A planner that
/// still holds the retired view keeps it whole, and the publish starts
/// from empty buffers; a snapshot the current view shares is dropped
/// from the spares untouched.
#[derive(Debug, Default)]
pub struct ViewSpares {
    /// The view the last publish swapped out, until the next reclaims it.
    retired: Option<Arc<PlanningView>>,
    /// Snapshots of reclaimed views that nothing else holds, by id.
    snapshots: Vec<Arc<ReplicaSnapshot>>,
    /// An empty snapshot list for the next view.
    list: Vec<Arc<ReplicaSnapshot>>,
    /// The reclaimed view's repository.
    repository: Option<Arc<InfoRepository>>,
}

impl ViewSpares {
    /// Keeps `view`, just swapped out of the cell, for the next publish.
    pub fn retire(&mut self, view: Arc<PlanningView>) {
        self.retired = Some(view);
    }

    /// Takes the retired view apart for its buffers if nobody else holds
    /// it; otherwise only drops this reference to it. Snapshots the last
    /// publish left unused stay spares: the next may rebuild more than
    /// the retired view frees.
    pub fn reclaim(&mut self) {
        self.repository = None;
        let Some(Ok(view)) = self.retired.take().map(Arc::try_unwrap) else {
            return;
        };
        let PlanningView {
            mut replicas,
            repository,
            ..
        } = view;
        replicas.retain_mut(|snapshot| Arc::get_mut(snapshot).is_some());
        self.snapshots.append(&mut replicas);
        self.snapshots.sort_unstable_by_key(|s| s.id());
        self.list = replicas;
        self.repository = Some(repository);
    }

    /// The repository for the next view, refilled by `fill`: the
    /// reclaimed one while nobody else holds it, else an empty one with
    /// window `window`.
    pub fn repository(
        &mut self,
        window: usize,
        fill: impl FnOnce(&mut InfoRepository),
    ) -> Arc<InfoRepository> {
        if let Some(mut repository) = self.repository.take() {
            if let Some(held) = Arc::get_mut(&mut repository) {
                fill(held);
                return repository;
            }
        }
        let mut fresh = InfoRepository::new(window);
        fill(&mut fresh);
        Arc::new(fresh)
    }

    /// An empty list for the next view's snapshots.
    pub fn list(&mut self) -> Vec<Arc<ReplicaSnapshot>> {
        std::mem::take(&mut self.list)
    }

    /// The snapshot of `stats` that replaces `held`, a snapshot of `id`
    /// that no longer [serves](ReplicaSnapshot::serves) them: `model`'s
    /// tables exact up to `horizon`, refreshed from `held`'s while it
    /// describes the same incarnation of the replica, or none without a
    /// model (the planner reads the repository). Built in a spare's
    /// buffers — `id`'s own when the reclaimed view had one — or anew
    /// when no spare is left. `held` is only read, so a planner that holds
    /// it still sees it unchanged.
    pub fn rebuilt(
        &mut self,
        id: ReplicaId,
        stats: &ReplicaStats,
        model: Option<&ResponseTimeModel>,
        scratch: &mut ConvScratch,
        horizon: Duration,
        held: Option<&ReplicaSnapshot>,
    ) -> Arc<ReplicaSnapshot> {
        let own = self.snapshots.binary_search_by_key(&id, |s| s.id());
        let spare = match own {
            Ok(at) => Some(self.snapshots.remove(at)),
            Err(_) => self.snapshots.pop(),
        };
        if let Some(mut spare) = spare {
            if let Some(snapshot) = Arc::get_mut(&mut spare) {
                snapshot.rebuild(id, stats, model, scratch, Some(horizon), held);
                return spare;
            }
        }
        Arc::new(ReplicaSnapshot::build_within(
            id,
            stats,
            model,
            scratch,
            Some(horizon),
            held,
        ))
    }
}

/// The publication point: an `Arc` pointer swapped under a [`RwLock`]
/// whose critical sections are pointer-sized (clone on read, replace on
/// write), so readers never wait on a rebuild and writers never wait on a
/// plan. Lock poisoning is recovered by adopting the inner value — every
/// critical section is a plain pointer move, so a panicking thread cannot
/// leave the cell mid-update.
#[derive(Debug)]
pub struct SnapshotCell {
    current: RwLock<Arc<PlanningView>>,
}

impl SnapshotCell {
    /// Creates a cell publishing `initial`.
    pub fn new(initial: PlanningView) -> Self {
        SnapshotCell {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// The currently published view. The read lock is held only for the
    /// `Arc` clone; the returned view stays valid (immutable) regardless
    /// of later publishes.
    pub fn load(&self) -> Arc<PlanningView> {
        let guard = self
            .current
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Arc::clone(&guard)
    }

    /// Publishes `view` if it is strictly newer than the current one,
    /// handing back the view it swapped out (`Ok`), or `view` itself when
    /// the version guard refused it (`Err`): the guard makes a delayed
    /// publisher harmless instead of an ABA hazard. Either is dropped, or
    /// kept for its buffers ([`ViewSpares::retire`]), outside the write
    /// lock.
    pub fn replace(&self, view: Arc<PlanningView>) -> Result<Arc<PlanningView>, Arc<PlanningView>> {
        let mut guard = self
            .current
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if view.version() <= guard.version() && !sync::mutant("unserialized-publish") {
            return Err(view);
        }
        Ok(std::mem::replace(&mut *guard, view))
    }

    /// The published version without retaining the view.
    pub fn version(&self) -> u64 {
        self.load().version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelConfig, QueueEstimator};
    use crate::repository::PerfReport;
    use crate::time::Instant;

    fn spec() -> QosSpec {
        QosSpec::new(ms(200), 0.9).unwrap()
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn warmed_repo(n: usize, l: usize) -> InfoRepository {
        let mut repo = InfoRepository::new(l);
        for i in 0..n {
            let r = ReplicaId::new(i as u64);
            repo.insert_replica(r);
            for k in 0..l {
                repo.record_perf(
                    r,
                    PerfReport::new(
                        ms(30 + ((i * 5 + k * 11) % 40) as u64),
                        ms((k % 4) as u64),
                        0,
                    ),
                    Instant::EPOCH,
                );
            }
            repo.record_gateway_delay(r, ms(2), Instant::EPOCH);
        }
        repo
    }

    fn build_view(repo: &InfoRepository, model: &ResponseTimeModel, version: u64) -> PlanningView {
        let mut scratch = ConvScratch::new();
        let snaps: Vec<Arc<ReplicaSnapshot>> = repo
            .iter()
            .map(|(id, stats)| Arc::new(ReplicaSnapshot::build(id, stats, model, &mut scratch)))
            .collect();
        PlanningView::assemble(version, snaps, Arc::new(repo.clone()), spec())
    }

    #[test]
    fn snapshot_probability_matches_model() {
        let repo = warmed_repo(4, 20);
        let model = ResponseTimeModel::new(ModelConfig::default());
        let view = build_view(&repo, &model, 1);
        let slot = method_slot(model.config().method_scope, None);
        for (id, stats) in repo.iter() {
            let direct = model
                .probability_by(stats, ms(120))
                .expect("warm replica has a distribution");
            let published = view
                .probability_by(id, slot, ms(120))
                .expect("snapshot published a table");
            assert!(
                (direct - published).abs() < 1e-12,
                "{id}: direct {direct} vs published {published}"
            );
        }
    }

    #[test]
    fn missing_slot_and_replica_yield_none() {
        let repo = warmed_repo(2, 5);
        let model = ResponseTimeModel::new(ModelConfig::default());
        let view = build_view(&repo, &model, 1);
        assert!(view.probability_by(ReplicaId::new(9), 0, ms(100)).is_none());
        assert!(view
            .probability_by(ReplicaId::new(0), 12345, ms(100))
            .is_none());
    }

    #[test]
    fn aggregate_scope_uses_sentinel_slot() {
        let repo = warmed_repo(1, 5);
        let config = ModelConfig {
            method_scope: MethodScope::Aggregate,
            ..ModelConfig::default()
        };
        let model = ResponseTimeModel::new(config);
        let view = build_view(&repo, &model, 1);
        assert_eq!(method_slot(MethodScope::Aggregate, None), AGGREGATE_SLOT);
        assert!(view
            .probability_by(ReplicaId::new(0), AGGREGATE_SLOT, ms(100))
            .is_some());
    }

    #[test]
    fn is_current_tracks_generations() {
        let mut repo = warmed_repo(1, 5);
        let model = ResponseTimeModel::new(ModelConfig::default());
        let mut scratch = ConvScratch::new();
        let id = ReplicaId::new(0);
        let snap = ReplicaSnapshot::build(id, repo.stats(id).unwrap(), &model, &mut scratch);
        assert!(snap.is_current(repo.stats(id).unwrap()));
        repo.record_perf(id, PerfReport::new(ms(33), ms(1), 0), Instant::EPOCH);
        assert!(!snap.is_current(repo.stats(id).unwrap()));
    }

    /// A `QueueScaled` table refreshes the powers of `S` that the table
    /// it replaces kept only within one incarnation of the replica: a
    /// re-inserted one, even with the same samples, builds them anew.
    #[test]
    fn tables_refresh_only_from_the_same_incarnation() {
        let model = ResponseTimeModel::new(ModelConfig {
            queue_estimator: QueueEstimator::QueueScaled,
            ..ModelConfig::default()
        });
        let mut scratch = ConvScratch::new();
        let id = ReplicaId::new(0);
        let fill = |repo: &mut InfoRepository, extra: u64| {
            for k in 0..5 + extra {
                let report = PerfReport::new(ms(30 + 7 * k), ms(0), 3);
                repo.record_perf(id, report, Instant::EPOCH);
            }
            repo.record_gateway_delay(id, ms(2), Instant::EPOCH);
        };
        let mut repo = warmed_repo(0, 5);
        repo.insert_replica(id);
        fill(&mut repo, 0);
        let mut spares = ViewSpares::default();
        let mut rebuilt = |held: Option<&ReplicaSnapshot>, stats: &ReplicaStats| {
            assert!(held.is_none_or(|held| !held.serves(stats, ms(200))));
            spares.rebuilt(id, stats, Some(&model), &mut scratch, ms(200), held)
        };
        let held = rebuilt(None, repo.stats(id).unwrap());
        fill(&mut repo, 1);
        let next = rebuilt(Some(&*held), repo.stats(id).unwrap());
        assert!(next.table(0).unwrap().is_refreshed());

        repo.remove_replica(id);
        repo.insert_replica(id);
        fill(&mut repo, 1);
        let stats = repo.stats(id).unwrap();
        let next = rebuilt(Some(&*held), stats);
        let table = next.table(0).unwrap();
        assert!(!table.is_refreshed(), "a new incarnation builds its powers");
        let fresh = model
            .response_cdf(stats, None, &mut ConvScratch::new(), Some(ms(200)))
            .unwrap();
        for t in 0..=200 {
            assert_eq!(
                table.value_at(ms(t)).to_bits(),
                fresh.value_at(ms(t)).to_bits()
            );
        }
    }

    #[test]
    fn a_reinserted_replica_is_never_served_from_its_old_snapshot() {
        let mut repo = warmed_repo(1, 5);
        let model = ResponseTimeModel::new(ModelConfig::default());
        let mut scratch = ConvScratch::new();
        let mut spares = ViewSpares::default();
        let id = ReplicaId::new(0);
        let stats = repo.stats(id).unwrap();
        let held = spares.rebuilt(id, stats, Some(&model), &mut scratch, ms(200), None);

        // Remove and re-insert the same id, replaying as many updates so
        // every generation coincides: only the epoch tells them apart.
        repo.remove_replica(id);
        repo.insert_replica(id);
        for _ in 0..5 {
            repo.record_perf(id, PerfReport::new(ms(500), ms(0), 0), Instant::EPOCH);
        }
        repo.record_gateway_delay(id, ms(2), Instant::EPOCH);
        let stats = repo.stats(id).unwrap();
        assert_eq!(held.perf_generation, stats.perf_generation());
        assert_eq!(held.delay_generation, stats.delay_generation());
        assert!(!held.serves(stats, ms(200)), "a new incarnation is rebuilt");
        let fresh = spares.rebuilt(id, stats, Some(&model), &mut scratch, ms(200), Some(&*held));
        assert_eq!(
            fresh.probability_by(0, ms(200)),
            Some(0.0),
            "the 500 ms incarnation, not the stale 30–70 ms one"
        );
    }

    #[test]
    fn cold_replica_publishes_no_tables_and_breaks_all_warm() {
        let mut repo = warmed_repo(2, 5);
        repo.insert_replica(ReplicaId::new(7));
        let model = ResponseTimeModel::new(ModelConfig::default());
        let view = build_view(&repo, &model, 1);
        let cold = view.replica(ReplicaId::new(7)).unwrap();
        assert!(!cold.is_warm());
        assert!(cold
            .table(method_slot(model.config().method_scope, None))
            .is_none());
        assert!(!view.all_warm());
    }

    #[test]
    fn publish_rejects_stale_versions() {
        let cell = SnapshotCell::new(PlanningView::empty(5, spec()));
        assert_eq!(cell.version(), 0);
        let v2 = Arc::new(PlanningView::assemble(
            2,
            Vec::new(),
            Arc::new(InfoRepository::new(5)),
            spec(),
        ));
        let v1 = Arc::new(PlanningView::assemble(
            1,
            Vec::new(),
            Arc::new(InfoRepository::new(5)),
            spec(),
        ));
        assert!(cell.replace(Arc::clone(&v2)).is_ok());
        assert_eq!(cell.version(), 2);
        assert!(cell.replace(v1).is_err(), "older version must be refused");
        assert!(cell.replace(v2).is_err(), "same version must be refused");
        assert_eq!(cell.version(), 2);
    }

    #[test]
    fn loaded_view_survives_republish() {
        let cell = SnapshotCell::new(PlanningView::empty(5, spec()));
        let before = cell.load();
        let repo = warmed_repo(1, 5);
        let model = ResponseTimeModel::new(ModelConfig::default());
        assert!(cell.replace(Arc::new(build_view(&repo, &model, 1))).is_ok());
        assert_eq!(before.version(), 0);
        assert!(before.replicas().is_empty());
        assert_eq!(cell.load().version(), 1);
        assert_eq!(cell.load().replicas().len(), 1);
    }

    /// A publish that rebuilds fewer snapshots than the retired view
    /// freed keeps the rest for the next, which may rebuild more.
    #[test]
    fn spares_a_publish_leaves_unused_serve_the_next() {
        let repo = warmed_repo(4, 5);
        let model = ResponseTimeModel::new(ModelConfig::default());
        let mut spares = ViewSpares::default();
        spares.retire(Arc::new(build_view(&repo, &model, 1)));
        spares.reclaim();
        let (id, stats) = repo.iter().next().unwrap();
        drop(spares.rebuilt(
            id,
            stats,
            Some(&model),
            &mut ConvScratch::new(),
            ms(200),
            None,
        ));
        // The next retired view frees nothing of its own.
        let empty = PlanningView::assemble(2, Vec::new(), Arc::new(repo.clone()), spec());
        spares.retire(Arc::new(empty));
        spares.reclaim();
        let kept: Vec<ReplicaId> = spares.snapshots.iter().map(|s| s.id()).collect();
        assert_eq!(kept, [1, 2, 3].map(ReplicaId::new));
    }
}
