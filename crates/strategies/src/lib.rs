//! # aqua-strategies — pluggable replica selection policies
//!
//! The paper's contribution is one point in a design space of selection
//! policies (§1, §7 survey several others). This crate defines a common
//! [`SelectionStrategy`] interface used by the timing fault handler, and
//! implements:
//!
//! * [`ModelBased`] — the DSN 2001 algorithm: probabilistic response-time
//!   model + Algorithm 1 (the paper);
//! * [`Random`] — k replicas uniformly at random;
//! * [`FastestMean`] — the k replicas with the best historical **average**
//!   response time (à la Sayal et al. \[19\]);
//! * [`LeastLoaded`] — the k replicas with the shortest request queues
//!   (à la Fei et al. \[5\]);
//! * [`Nearest`] — the k replicas with the smallest last measured network
//!   delay (static-distance selection à la Heidemann \[9\]);
//! * [`RoundRobin`] — rotate through the replicas, k at a time;
//! * [`StaticK`] — a fixed set of k replicas (no adaptivity at all);
//! * [`AllReplicas`] — full active replication (maximum redundancy).
//!
//! Every strategy returns a *set* of replicas; the handler multicasts to the
//! set and delivers the earliest reply, so redundancy and failure behaviour
//! are directly comparable across strategies (ablation A1 in DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aqua_core::model::{ModelConfig, ResponseTimeModel};
use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::{InfoRepository, MethodId, ReplicaStats};
use aqua_core::scheduler::plan;
use aqua_core::time::{Duration, Instant};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Everything a strategy may consult when choosing replicas.
#[derive(Debug)]
pub struct SelectionInput<'a> {
    /// The client gateway's information repository (§5.2).
    pub repository: &'a InfoRepository,
    /// The client's QoS specification.
    pub qos: &'a QosSpec,
    /// The method being invoked, if the middleware classifies requests.
    pub method: Option<MethodId>,
    /// Current (virtual or wall) time.
    pub now: Instant,
    /// Replicas the handler has ruled out for this particular selection —
    /// typically the members already tried by a timed-out request being
    /// retried. They must be invisible to the strategy (as if absent from
    /// the repository), not merely filtered from its answer: a strategy
    /// that reasons about the candidate set as a whole (Algorithm 1's
    /// acceptance test, round-robin rotation, …) would otherwise still
    /// account for them.
    pub exclude: &'a [ReplicaId],
}

impl<'a> SelectionInput<'a> {
    /// `(replica, stats)` pairs eligible for this selection: not on
    /// probation and not excluded.
    pub fn candidates(&self) -> impl Iterator<Item = (ReplicaId, &'a ReplicaStats)> + '_ {
        self.repository
            .selectable()
            .filter(|(id, _)| !self.exclude.contains(id))
    }

    /// The ids eligible for this selection, in ascending order.
    pub fn candidate_ids(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        self.candidates().map(|(id, _)| id)
    }
}

/// What a lock-free planner needs to reproduce a strategy's selection
/// from a published planning snapshot: the configuration
/// [`aqua_core::scheduler::plan`] takes. Only strategies that are a pure
/// function of the response-time distributions (the paper's) have one;
/// stateful baselines keep going through [`SelectionStrategy::select`].
pub use aqua_core::scheduler::SelectorConfig as SnapshotPlanSpec;

/// A replica-selection policy.
pub trait SelectionStrategy: Send {
    /// A short stable name for reports and plots.
    fn name(&self) -> &'static str;

    /// Chooses the replica set for one request.
    ///
    /// An empty result means "no replicas known"; the handler treats it as
    /// an immediately failed request.
    fn select(&mut self, input: &SelectionInput<'_>) -> Vec<ReplicaId>;

    /// How to reproduce this strategy from an immutable planning snapshot,
    /// if it is snapshot-plannable. `None` (the default) means the
    /// strategy is stateful or opaque and callers must serialize calls to
    /// [`SelectionStrategy::select`] instead.
    fn snapshot_spec(&self) -> Option<SnapshotPlanSpec> {
        None
    }
}

// ---------------------------------------------------------------------------
// The paper's strategy
// ---------------------------------------------------------------------------

/// The DSN 2001 model-based selection (the paper's contribution), exposed
/// behind the strategy interface so it can be compared against baselines.
///
/// A handler plans it from its published tables
/// ([`SelectionStrategy::snapshot_spec`]). [`SelectionStrategy::select`]
/// is the same plan as a pure function of its input: every `F_Ri` a table
/// built from the repository at the full deadline, with no δ (§5.3.3) —
/// what a fresh handler's first plan selects.
#[derive(Debug)]
pub struct ModelBased {
    config: SnapshotPlanSpec,
    model: ResponseTimeModel,
}

impl ModelBased {
    /// Creates the strategy with the given model configuration and the
    /// paper's cold-start rule (select all until warmed up).
    pub fn new(model: ModelConfig) -> Self {
        ModelBased {
            config: SnapshotPlanSpec {
                model,
                ..SnapshotPlanSpec::default()
            },
            model: ResponseTimeModel::new(model),
        }
    }

    /// Overrides the number of simultaneous crashes the selection must
    /// tolerate (default 1, Algorithm 1; §5.3.2 sketches the general case).
    #[must_use]
    pub fn with_crash_tolerance(mut self, crashes: usize) -> Self {
        self.config.crashes = crashes;
        self
    }
}

impl Default for ModelBased {
    fn default() -> Self {
        ModelBased::new(ModelConfig::default())
    }
}

impl SelectionStrategy for ModelBased {
    fn name(&self) -> &'static str {
        "model-based"
    }

    fn select(&mut self, input: &SelectionInput<'_>) -> Vec<ReplicaId> {
        let deadline = input.qos.deadline();
        let plan = plan(
            &self.config,
            input.qos.min_probability(),
            input.candidates(),
            |_, stats| self.model.probability_by_for(stats, deadline, input.method),
        );
        plan.selection.into_replicas()
    }

    fn snapshot_spec(&self) -> Option<SnapshotPlanSpec> {
        Some(self.config)
    }
}

// ---------------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------------

fn take_k(mut ranked: Vec<ReplicaId>, k: usize) -> Vec<ReplicaId> {
    ranked.truncate(k.max(1));
    ranked
}

/// Mean response-time estimate from the repository entry: mean service time
/// + mean queuing delay + last gateway delay. `None` when the entry is cold.
fn mean_response_estimate(
    repo: &InfoRepository,
    id: ReplicaId,
    method: Option<MethodId>,
) -> Option<Duration> {
    let stats = repo.stats(id)?;
    let history = stats.history(method.unwrap_or_default())?;
    if history.is_empty() {
        return None;
    }
    let n = history.len() as u64;
    let service: Duration = history.service_times().iter().copied().sum();
    let queue: Duration = history.queuing_delays().iter().copied().sum();
    let delay = stats.last_gateway_delay()?;
    Some(service / n + queue / n + delay)
}

/// Selects `k` replicas uniformly at random (with a deterministic seed).
#[derive(Debug)]
pub struct Random {
    /// Redundancy level.
    pub k: usize,
    rng: SmallRng,
}

impl Random {
    /// Creates the strategy with redundancy `k` and an RNG seed.
    pub fn new(k: usize, seed: u64) -> Self {
        Random {
            k,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl SelectionStrategy for Random {
    fn name(&self) -> &'static str {
        "random-k"
    }

    fn select(&mut self, input: &SelectionInput<'_>) -> Vec<ReplicaId> {
        let mut ids: Vec<ReplicaId> = input.candidate_ids().collect();
        ids.shuffle(&mut self.rng);
        take_k(ids, self.k)
    }
}

/// Selects the `k` replicas with the best historical mean response time
/// (the \[19\]-style baseline). Cold replicas rank first so they get
/// explored.
#[derive(Debug, Clone, Copy)]
pub struct FastestMean {
    /// Redundancy level.
    pub k: usize,
}

impl SelectionStrategy for FastestMean {
    fn name(&self) -> &'static str {
        "fastest-mean"
    }

    fn select(&mut self, input: &SelectionInput<'_>) -> Vec<ReplicaId> {
        let mut ids: Vec<ReplicaId> = input.candidate_ids().collect();
        ids.sort_by_key(|id| {
            mean_response_estimate(input.repository, *id, input.method)
                .map_or(Duration::ZERO, |d| d)
        });
        take_k(ids, self.k)
    }
}

/// Selects the `k` replicas with the fewest outstanding queued requests
/// (the \[5\]-style load-aware baseline), breaking ties by mean service
/// time.
#[derive(Debug, Clone, Copy)]
pub struct LeastLoaded {
    /// Redundancy level.
    pub k: usize,
}

impl SelectionStrategy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn select(&mut self, input: &SelectionInput<'_>) -> Vec<ReplicaId> {
        let mut ids: Vec<ReplicaId> = input.candidate_ids().collect();
        ids.sort_by_key(|id| {
            let outstanding = input.repository.stats(*id).map_or(0, |s| s.outstanding());
            let mean = mean_response_estimate(input.repository, *id, input.method)
                .unwrap_or(Duration::ZERO);
            (outstanding, mean)
        });
        take_k(ids, self.k)
    }
}

/// Selects the `k` replicas with the smallest last measured gateway delay
/// (the \[9\]-style nearest-server baseline). Cold replicas rank first.
#[derive(Debug, Clone, Copy)]
pub struct Nearest {
    /// Redundancy level.
    pub k: usize,
}

impl SelectionStrategy for Nearest {
    fn name(&self) -> &'static str {
        "nearest"
    }

    fn select(&mut self, input: &SelectionInput<'_>) -> Vec<ReplicaId> {
        let mut ids: Vec<ReplicaId> = input.candidate_ids().collect();
        ids.sort_by_key(|id| {
            input
                .repository
                .stats(*id)
                .and_then(|s| s.last_gateway_delay())
                .unwrap_or(Duration::ZERO)
        });
        take_k(ids, self.k)
    }
}

/// Rotates through the replica list, `k` at a time.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    /// Redundancy level.
    pub k: usize,
    next: usize,
}

impl RoundRobin {
    /// Creates the strategy with redundancy `k`.
    pub fn new(k: usize) -> Self {
        RoundRobin { k, next: 0 }
    }
}

impl SelectionStrategy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn select(&mut self, input: &SelectionInput<'_>) -> Vec<ReplicaId> {
        let ids: Vec<ReplicaId> = input.candidate_ids().collect();
        if ids.is_empty() {
            return Vec::new();
        }
        let k = self.k.max(1).min(ids.len());
        // Positions `next..next + k` on the infinite cycle of `ids`;
        // equivalent to `ids[(next + i) % len]` but cannot panic.
        let out: Vec<ReplicaId> = ids
            .iter()
            .cycle()
            .skip(self.next % ids.len())
            .take(k)
            .copied()
            .collect();
        self.next = (self.next + k) % ids.len();
        out
    }
}

/// Always selects the first `k` replicas by id — static assignment with no
/// adaptivity, the "single replica per client" end of the spectrum (§1)
/// when `k = 1`.
#[derive(Debug, Clone, Copy)]
pub struct StaticK {
    /// Redundancy level.
    pub k: usize,
}

impl SelectionStrategy for StaticK {
    fn name(&self) -> &'static str {
        "static-k"
    }

    fn select(&mut self, input: &SelectionInput<'_>) -> Vec<ReplicaId> {
        take_k(input.candidate_ids().collect(), self.k)
    }
}

/// Always selects every known replica — full active replication, the
/// "maximum fault tolerance, minimum scalability" end of the spectrum (§1).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllReplicas;

impl SelectionStrategy for AllReplicas {
    fn name(&self) -> &'static str {
        "all-replicas"
    }

    fn select(&mut self, input: &SelectionInput<'_>) -> Vec<ReplicaId> {
        input.candidate_ids().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_core::repository::PerfReport;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// Repository with 4 replicas: r0 fast/idle, r1 slow/idle, r2 fast but
    /// queued, r3 far away.
    fn repo() -> InfoRepository {
        let mut repo = InfoRepository::new(5);
        let entries: [(u64, u64, u32, u64); 4] = [
            // (service ms, queue delay ms, queue len, gateway delay ms)
            (50, 0, 0, 2),
            (200, 0, 0, 2),
            (50, 100, 5, 2),
            (50, 0, 1, 40),
        ];
        for (i, (ts, tq, qlen, delay)) in entries.iter().enumerate() {
            let r = ReplicaId::new(i as u64);
            repo.insert_replica(r);
            for _ in 0..3 {
                repo.record_perf(r, PerfReport::new(ms(*ts), ms(*tq), *qlen), Instant::EPOCH);
            }
            repo.record_gateway_delay(r, ms(*delay), Instant::EPOCH);
        }
        repo
    }

    fn input<'a>(repo: &'a InfoRepository, qos: &'a QosSpec) -> SelectionInput<'a> {
        SelectionInput {
            repository: repo,
            qos,
            method: None,
            now: Instant::EPOCH,
            exclude: &[],
        }
    }

    fn idx(ids: &[ReplicaId]) -> Vec<u64> {
        ids.iter().map(|r| r.index()).collect()
    }

    #[test]
    fn model_based_picks_prob_ranked_set() {
        let repo = repo();
        let qos = QosSpec::new(ms(150), 0.9).unwrap();
        let mut strat = ModelBased::default();
        let sel = strat.select(&input(&repo, &qos));
        // r0 (52 ms) and r3 (90 ms) both always make 150 ms; Pc=0.9 is met
        // by the single backup, so K = {best, second-best} = {r0, r3}.
        assert_eq!(idx(&sel), vec![0, 3]);
    }

    #[test]
    fn snapshot_spec_only_for_snapshot_plannable_strategies() {
        let strat = ModelBased::default().with_crash_tolerance(2);
        let spec = strat.snapshot_spec().expect("model-based is plannable");
        assert_eq!(spec.crashes, 2);
        assert!(FastestMean { k: 1 }.snapshot_spec().is_none());
        assert!(RoundRobin::new(2).snapshot_spec().is_none());
    }

    #[test]
    fn model_based_cold_start_selects_all() {
        let mut repo = repo();
        repo.insert_replica(ReplicaId::new(9)); // cold member
        let qos = QosSpec::new(ms(150), 0.9).unwrap();
        let mut strat = ModelBased::default();
        let sel = strat.select(&input(&repo, &qos));
        assert_eq!(sel.len(), 5, "cold start multicasts to everyone");
    }

    #[test]
    fn probation_replicas_are_not_trusted_candidates() {
        let mut repo = repo();
        let qos = QosSpec::new(ms(150), 0.9).unwrap();
        // r0 is the best candidate; once it lands on probation every
        // strategy must pick from the remaining trusted replicas only.
        repo.set_probation(ReplicaId::new(0), 5);
        let sel = ModelBased::default().select(&input(&repo, &qos));
        assert!(!sel.is_empty() && !sel.contains(&ReplicaId::new(0)));
        let sel = FastestMean { k: 2 }.select(&input(&repo, &qos));
        assert_eq!(idx(&sel), vec![3, 2]);
        let sel = AllReplicas.select(&input(&repo, &qos));
        assert!(!sel.contains(&ReplicaId::new(0)));
        // A probation-only repository yields an empty trusted selection;
        // the handler falls back to shadow-multicast over probation members.
        for i in 1..4 {
            repo.set_probation(ReplicaId::new(i), 5);
        }
        assert!(ModelBased::default().select(&input(&repo, &qos)).is_empty());
    }

    #[test]
    fn fastest_mean_ranks_by_average() {
        let repo = repo();
        let qos = QosSpec::new(ms(150), 0.9).unwrap();
        let mut strat = FastestMean { k: 2 };
        // Means: r0 = 52, r1 = 202, r2 = 152, r3 = 90.
        assert_eq!(idx(&strat.select(&input(&repo, &qos))), vec![0, 3]);
    }

    #[test]
    fn least_loaded_ranks_by_queue() {
        let repo = repo();
        let qos = QosSpec::new(ms(150), 0.9).unwrap();
        let mut strat = LeastLoaded { k: 2 };
        // Outstanding: r0=0, r1=0, r2=5, r3=1; tie r0/r1 broken by mean.
        assert_eq!(idx(&strat.select(&input(&repo, &qos))), vec![0, 1]);
    }

    #[test]
    fn nearest_ranks_by_delay() {
        let repo = repo();
        let qos = QosSpec::new(ms(150), 0.9).unwrap();
        let mut strat = Nearest { k: 3 };
        let sel = strat.select(&input(&repo, &qos));
        assert_eq!(sel.len(), 3);
        assert!(!sel.contains(&ReplicaId::new(3)), "r3 is 40 ms away");
    }

    #[test]
    fn round_robin_rotates() {
        let repo = repo();
        let qos = QosSpec::new(ms(150), 0.9).unwrap();
        let mut strat = RoundRobin::new(2);
        assert_eq!(idx(&strat.select(&input(&repo, &qos))), vec![0, 1]);
        assert_eq!(idx(&strat.select(&input(&repo, &qos))), vec![2, 3]);
        assert_eq!(idx(&strat.select(&input(&repo, &qos))), vec![0, 1]);
    }

    #[test]
    fn random_selects_k_distinct() {
        let repo = repo();
        let qos = QosSpec::new(ms(150), 0.9).unwrap();
        let mut strat = Random::new(2, 123);
        for _ in 0..20 {
            let sel = strat.select(&input(&repo, &qos));
            assert_eq!(sel.len(), 2);
            assert_ne!(sel[0], sel[1]);
        }
    }

    #[test]
    fn static_and_all() {
        let repo = repo();
        let qos = QosSpec::new(ms(150), 0.9).unwrap();
        assert_eq!(idx(&StaticK { k: 1 }.select(&input(&repo, &qos))), vec![0]);
        assert_eq!(AllReplicas.select(&input(&repo, &qos)).len(), 4);
    }

    #[test]
    fn k_larger_than_pool_is_clamped() {
        let repo = repo();
        let qos = QosSpec::new(ms(150), 0.9).unwrap();
        assert_eq!(RoundRobin::new(10).select(&input(&repo, &qos)).len(), 4);
        assert_eq!(Random::new(10, 1).select(&input(&repo, &qos)).len(), 4);
    }

    #[test]
    fn empty_repository_yields_empty_everywhere() {
        let repo = InfoRepository::new(5);
        let qos = QosSpec::new(ms(150), 0.9).unwrap();
        let strategies: Vec<Box<dyn SelectionStrategy>> = vec![
            Box::new(ModelBased::default()),
            Box::new(Random::new(2, 1)),
            Box::new(FastestMean { k: 2 }),
            Box::new(LeastLoaded { k: 2 }),
            Box::new(Nearest { k: 2 }),
            Box::new(RoundRobin::new(2)),
            Box::new(StaticK { k: 2 }),
            Box::new(AllReplicas),
        ];
        for mut s in strategies {
            assert!(
                s.select(&input(&repo, &qos)).is_empty(),
                "{} should return empty",
                s.name()
            );
        }
    }

    #[test]
    fn excluded_replicas_are_invisible_to_every_strategy() {
        let repo = repo();
        let qos = QosSpec::new(ms(150), 0.9).unwrap();
        let exclude = [ReplicaId::new(0)];
        let strategies: Vec<Box<dyn SelectionStrategy>> = vec![
            Box::new(ModelBased::default()),
            Box::new(Random::new(2, 1)),
            Box::new(FastestMean { k: 2 }),
            Box::new(LeastLoaded { k: 2 }),
            Box::new(Nearest { k: 2 }),
            Box::new(RoundRobin::new(2)),
            Box::new(StaticK { k: 2 }),
            Box::new(AllReplicas),
        ];
        for mut s in strategies {
            let sel = s.select(&SelectionInput {
                exclude: &exclude,
                ..input(&repo, &qos)
            });
            assert!(!sel.is_empty(), "{} went empty under exclusion", s.name());
            assert!(
                !sel.contains(&ReplicaId::new(0)),
                "{} selected an excluded replica",
                s.name()
            );
        }
    }

    #[test]
    fn exclusion_changes_the_acceptance_test_not_just_the_answer() {
        // With r0 (the best replica) excluded, Algorithm 1 must rebuild K
        // from the remaining candidates — the reserved slot moves to r3 and
        // extra members are taken until Pc holds again, exactly as if r0
        // had been removed from the repository.
        let repo = repo();
        let qos = QosSpec::new(ms(150), 0.9).unwrap();
        let mut strat = ModelBased::default();
        let baseline = strat.select(&input(&repo, &qos));
        assert_eq!(idx(&baseline), vec![0, 3]);

        let mut pruned = repo.clone();
        pruned.remove_replica(ReplicaId::new(0));
        let as_if_removed = ModelBased::default().select(&input(&pruned, &qos));

        let excluded = strat.select(&SelectionInput {
            exclude: &[ReplicaId::new(0)],
            ..input(&repo, &qos)
        });
        assert_eq!(excluded, as_if_removed);
        assert!(!excluded.contains(&ReplicaId::new(0)));
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            ModelBased::default().name(),
            Random::new(1, 1).name(),
            FastestMean { k: 1 }.name(),
            LeastLoaded { k: 1 }.name(),
            Nearest { k: 1 }.name(),
            RoundRobin::new(1).name(),
            StaticK { k: 1 }.name(),
            AllReplicas.name(),
        ];
        let set: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
