//! Read-mostly planning snapshots for lock-free request planning.
//!
//! The paper's selection path (§5.3) reads the information repository on
//! every request but mutates it only when perf reports arrive. This module
//! packages the read side as an immutable, epoch-published **planning
//! view**: per-replica cumulative response-time tables ([`CdfTable`],
//! already memoized by the model cache of `model.rs`) plus the freshness
//! metadata needed to decide when a replica's entry is stale. Publishers
//! rebuild a new [`PlanningView`] off the hot path whenever generation
//! counters move and swap it into a [`SnapshotCell`] with a brief
//! pointer-sized critical section; planners [`SnapshotCell::load`] the
//! current `Arc` and run Algorithm 1 with no shared-state writes at all.
//!
//! Freshness is unchanged from the serialized design: every published entry
//! is derived from the same sliding windows of the last `l` observations
//! (§5.2), so a plan computed from a snapshot is exactly a plan the
//! serialized handler could have computed at publication time.

use std::sync::{Arc, RwLock};

use crate::aqua;
use crate::model::{MethodScope, ResponseTimeModel};
use crate::pmf::{CdfTable, ConvScratch};
use crate::qos::{QosSpec, ReplicaId};
use crate::repository::{InfoRepository, MethodId, ReplicaStats};
use crate::time::Duration;

/// The method slot a cached table is filed under: the method index for
/// per-method models, or this sentinel for the aggregate scope.
pub const AGGREGATE_SLOT: u64 = u64::MAX;

/// Maps a request's (optional) method id to the slot its table lives in,
/// mirroring the keying of the generation-keyed model cache.
#[inline]
pub fn method_slot(scope: MethodScope, method: Option<MethodId>) -> u64 {
    match scope {
        MethodScope::PerMethod => u64::from(method.unwrap_or_default().index()),
        MethodScope::Aggregate => AGGREGATE_SLOT,
    }
}

/// One replica's published planning state: its cumulative response-time
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
    cdfs: Vec<(u64, Arc<CdfTable>)>,
}

impl ReplicaSnapshot {
    /// A snapshot of `stats` with no tables: all a handler whose strategy
    /// plans from the repository itself ever reads.
    pub fn without_tables(id: ReplicaId, stats: &ReplicaStats) -> Self {
        ReplicaSnapshot {
            id,
            warm: stats.is_warm(),
            selectable: !stats.is_on_probation(),
            epoch: stats.epoch(),
            perf_generation: stats.perf_generation(),
            delay_generation: stats.delay_generation(),
            outstanding: stats.outstanding(),
            cdfs: Vec::new(),
        }
    }

    /// Builds a snapshot of `stats` by running the full response-time
    /// pipeline (§5.3.1) for every method slot the replica has history
    /// for. This is the publisher-side cost, paid off the hot path.
    pub fn build(
        id: ReplicaId,
        stats: &ReplicaStats,
        model: &ResponseTimeModel,
        scratch: &mut ConvScratch,
    ) -> Self {
        Self::build_within(id, stats, model, scratch, None)
    }

    /// [`ReplicaSnapshot::build`] with tables exact only up to `horizon` —
    /// the deadline of the QoS spec the view is published under, past
    /// which no plan reads.
    pub fn build_within(
        id: ReplicaId,
        stats: &ReplicaStats,
        model: &ResponseTimeModel,
        scratch: &mut ConvScratch,
        horizon: Option<Duration>,
    ) -> Self {
        let mut snapshot = Self::without_tables(id, stats);
        let mut table_for = |slot: u64, method: Option<MethodId>| {
            if let Some(cdf) = model.response_cdf(stats, method, scratch, horizon) {
                snapshot.cdfs.push((slot, Arc::new(cdf)));
            }
        };
        match model.config().method_scope {
            MethodScope::PerMethod => {
                for (method, _) in stats.histories() {
                    table_for(u64::from(method.index()), Some(method));
                }
            }
            MethodScope::Aggregate => table_for(AGGREGATE_SLOT, None),
        }
        snapshot.cdfs.sort_unstable_by_key(|entry| entry.0);
        snapshot
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
        let at = self
            .cdfs
            .binary_search_by_key(&slot, |entry| entry.0)
            .ok()?;
        let (_, cdf) = self.cdfs.get(at)?;
        Some(cdf.value_at(deadline))
    }

    /// Number of method slots with a published table.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.cdfs.len()
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

    /// Shares the backing repository (publishers clone it copy-on-write).
    #[inline]
    pub fn repository_arc(&self) -> Arc<InfoRepository> {
        Arc::clone(&self.repository)
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

    /// Publishes `view` if it is strictly newer than the current one.
    ///
    /// Returns `false` (leaving the cell untouched) when `view.version()`
    /// is not greater than the published version — the guard that makes a
    /// delayed publisher harmless instead of an ABA hazard.
    pub fn publish(&self, view: Arc<PlanningView>) -> bool {
        let mut guard = self
            .current
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if view.version() <= guard.version() {
            return false;
        }
        *guard = view;
        true
    }

    /// The published version without retaining the view.
    pub fn version(&self) -> u64 {
        self.load().version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
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

    #[test]
    fn cold_replica_publishes_no_tables_and_breaks_all_warm() {
        let mut repo = warmed_repo(2, 5);
        repo.insert_replica(ReplicaId::new(7));
        let model = ResponseTimeModel::new(ModelConfig::default());
        let view = build_view(&repo, &model, 1);
        let cold = view.replica(ReplicaId::new(7)).unwrap();
        assert!(!cold.is_warm());
        assert_eq!(cold.slot_count(), 0);
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
        assert!(cell.publish(Arc::clone(&v2)));
        assert_eq!(cell.version(), 2);
        assert!(!cell.publish(v1), "older version must be refused");
        assert!(!cell.publish(v2), "same version must be refused");
        assert_eq!(cell.version(), 2);
    }

    #[test]
    fn loaded_view_survives_republish() {
        let cell = SnapshotCell::new(PlanningView::empty(5, spec()));
        let before = cell.load();
        let repo = warmed_repo(1, 5);
        let model = ResponseTimeModel::new(ModelConfig::default());
        cell.publish(Arc::new(build_view(&repo, &model, 1)));
        assert_eq!(before.version(), 0);
        assert!(before.replicas().is_empty());
        assert_eq!(cell.load().version(), 1);
        assert_eq!(cell.load().replicas().len(), 1);
    }
}
