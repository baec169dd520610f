//! The local scheduling agent that glues repository, model, and Algorithm 1
//! (§4, §5.4.1).
//!
//! Every client gateway owns one [`ReplicaSelector`] per service. On each
//! request it:
//!
//! 1. adjusts the client's deadline by the most recently measured algorithm
//!    overhead δ (§5.3.3),
//! 2. evaluates `F_Ri(t − δ)` for every replica not on probation using the
//!    online model (§5.3.1),
//! 3. runs Algorithm 1 to pick the replica subset (§5.3.2),
//! 4. measures how long steps 2–3 took and records it as the next δ.
//!
//! On the very first request to a service — or whenever a replica without
//! history joins — there is no performance data, so "the selection strategy
//! selects all the replicas in the list. This allows the replicas to publish
//! their performance updates to the clients" (§5.4.1).
//!
//! Steps 2–3 are [`plan`], which the model-based strategy and the
//! concurrent gateway's lock-free planner run too.

use crate::aqua;
use crate::model::{ModelConfig, ResponseTimeModel};
use crate::overhead::OverheadTracker;
use crate::qos::{QosSpec, ReplicaId};
use crate::repository::{InfoRepository, MethodId};
use crate::select::{select_replicas_tolerating, Candidate, Selection};
use crate::time::Duration;

/// Policy for replicas that do not yet have enough history for the model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ColdStartPolicy {
    /// Multicast to **all** replicas whenever any replica lacks data — the
    /// paper's behaviour, which bootstraps the repository in one round.
    #[default]
    SelectAll,
    /// Give unknown replicas a fixed optimistic probability so they keep
    /// being explored without forcing a full multicast.
    Optimistic(f64),
}

/// Configuration of a [`ReplicaSelector`], and what [`plan`] takes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SelectorConfig {
    /// Model parameters (bucket width, delay estimator, method scope).
    pub model: ModelConfig,
    /// How cold replicas are treated.
    pub cold_start: ColdStartPolicy,
    /// How many simultaneous replica crashes the selection must tolerate
    /// (the paper's Algorithm 1 is `1`; §5.3.2 sketches the general case).
    pub crashes: usize,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        SelectorConfig {
            model: ModelConfig::default(),
            cold_start: ColdStartPolicy::default(),
            crashes: 1,
        }
    }
}

/// Why a particular selection came out the way it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum SelectionReason {
    /// Algorithm 1 ran over fully warmed-up candidates.
    Model,
    /// Some replica lacked history and the cold-start policy forced a full
    /// multicast.
    ColdStart,
    /// The repository was empty (no known replicas).
    NoReplicas,
}

/// The result of one scheduling decision, including the intermediate values
/// useful for diagnostics and the Figure 3 instrumentation.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SelectionDecision {
    /// The chosen replica set.
    pub selection: Selection,
    /// Per-replica probabilities that fed Algorithm 1 (empty on cold start).
    pub candidates: Vec<Candidate>,
    /// Why this decision was produced.
    pub reason: SelectionReason,
    /// The deadline actually used, `t − δ`.
    pub adjusted_deadline: Duration,
    /// Time spent computing the response-time distributions (the ~90% of
    /// Figure 3's overhead).
    pub model_time: Duration,
    /// Time spent in Algorithm 1 proper (the ~10%).
    pub select_time: Duration,
}

impl SelectionDecision {
    /// Total measured overhead δ for this decision.
    pub fn overhead(&self) -> Duration {
        self.model_time.saturating_add(self.select_time)
    }
}

/// The scheduler of §4: selects, per request, the replica subset that meets
/// the client's QoS with the requested probability.
///
/// # Examples
///
/// ```
/// use aqua_core::scheduler::{ReplicaSelector, SelectorConfig, SelectionReason};
/// use aqua_core::repository::PerfReport;
/// use aqua_core::qos::{QosSpec, ReplicaId};
/// use aqua_core::time::{Duration, Instant};
///
/// # fn main() -> Result<(), aqua_core::qos::QosError> {
/// let ms = Duration::from_millis;
/// let mut selector = ReplicaSelector::new(5, SelectorConfig::default());
/// for i in 0..3 {
///     selector.repository_mut().insert_replica(ReplicaId::new(i));
/// }
/// let qos = QosSpec::new(ms(200), 0.9)?;
///
/// // First request: no history → multicast to everyone.
/// let cold = selector.select(&qos);
/// assert_eq!(cold.reason, SelectionReason::ColdStart);
/// assert_eq!(cold.selection.redundancy(), 3);
///
/// // Replies warm the repository …
/// for i in 0..3 {
///     let r = ReplicaId::new(i);
///     selector.repository_mut().record_perf(
///         r, PerfReport::new(ms(100 + i), ms(1), 0), Instant::EPOCH);
///     selector.repository_mut().record_gateway_delay(r, ms(3), Instant::EPOCH);
/// }
/// // … and subsequent selections are model-based.
/// let warm = selector.select(&qos);
/// assert_eq!(warm.reason, SelectionReason::Model);
/// assert_eq!(warm.selection.redundancy(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReplicaSelector {
    repository: InfoRepository,
    model: ResponseTimeModel,
    overhead: OverheadTracker,
    config: SelectorConfig,
}

impl ReplicaSelector {
    /// Creates a selector whose repository keeps `window` samples per
    /// replica (`l` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize, config: SelectorConfig) -> Self {
        ReplicaSelector {
            repository: InfoRepository::new(window),
            model: ResponseTimeModel::new(config.model),
            overhead: OverheadTracker::new(),
            config,
        }
    }

    /// Read access to the gateway information repository.
    pub fn repository(&self) -> &InfoRepository {
        &self.repository
    }

    /// Mutable access to the repository, for recording perf updates,
    /// gateway delays, and view changes.
    pub fn repository_mut(&mut self) -> &mut InfoRepository {
        &mut self.repository
    }

    /// The overhead tracker (latest/mean/max δ).
    pub fn overhead(&self) -> &OverheadTracker {
        &self.overhead
    }

    /// The active configuration.
    pub fn config(&self) -> &SelectorConfig {
        &self.config
    }

    /// Makes a scheduling decision for one request, measuring δ with the
    /// process wall clock and recording it for the next request.
    pub fn select(&mut self, qos: &QosSpec) -> SelectionDecision {
        self.select_for_method(qos, None)
    }

    /// Like [`ReplicaSelector::select`] but classifying per method
    /// (multi-interface extension, §8 ext. 1). Reads every table from
    /// scratch: this is the Figure 3 instrument, which times the model.
    pub fn select_for_method(
        &mut self,
        qos: &QosSpec,
        method: Option<MethodId>,
    ) -> SelectionDecision {
        let started = std::time::Instant::now();
        let adjusted_deadline = self.overhead.adjusted_deadline(qos.deadline());
        // The model phase ends with the last member's `F_Ri` read, and
        // Algorithm 1 runs after it: one clock read marks the split.
        let mut unread = self.repository.selectable().count();
        let mut ranked_at = started;
        let Plan {
            selection,
            candidates,
        } = plan(
            &self.config,
            qos.min_probability(),
            self.repository.selectable(),
            |_, stats| {
                let p = self
                    .model
                    .probability_by_for(stats, adjusted_deadline, method);
                unread -= 1;
                if unread == 0 {
                    ranked_at = std::time::Instant::now();
                }
                p
            },
        );
        let finished = std::time::Instant::now();
        let reason = match (candidates.is_empty(), selection.redundancy()) {
            (false, _) => SelectionReason::Model,
            (true, 0) => SelectionReason::NoReplicas,
            (true, _) => SelectionReason::ColdStart,
        };
        let (model_time, select_time) = if reason == SelectionReason::Model {
            (ranked_at - started, finished - ranked_at)
        } else {
            (finished - started, std::time::Duration::ZERO)
        };
        let decision = SelectionDecision {
            selection,
            candidates,
            reason,
            adjusted_deadline,
            model_time: Duration::from(model_time),
            select_time: Duration::from(select_time),
        };
        self.overhead.record(decision.overhead());
        decision
    }
}

/// What [`plan`] decided: the set to multicast to and the ranking it was
/// chosen from.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The chosen replica set.
    pub selection: Selection,
    /// Every member with the `F_Ri(t − δ)` Algorithm 1 ranked it at, in
    /// member order; empty on a cold-start multicast, which ranks nothing.
    pub candidates: Vec<Candidate>,
}

impl Plan {
    /// Each chosen replica with its ranked `F_Ri`, in selection order
    /// (nothing on a cold-start multicast).
    pub fn predictions(&self) -> impl Iterator<Item = (ReplicaId, f64)> + '_ {
        self.selection.replicas().iter().filter_map(|id| {
            let c = self.candidates.iter().find(|c| c.id == *id)?;
            Some((*id, c.probability))
        })
    }
}

/// The one planning function (§5.3–§5.4.1) every planner runs:
/// [`ReplicaSelector`], the model-based strategy and the concurrent
/// handler's lock-free path differ only in where `F_Ri` comes from.
///
/// `members` are the replicas a plan may trust (selectable, not
/// excluded), in ascending id order, each with whatever `probability`
/// needs to read its `F_Ri(t − δ)`. A member with no distribution yet
/// either forces the cold-start multicast to every member (§5.4.1: the
/// members after it are not read) or is ranked at the optimistic
/// probability, per `config.cold_start`; otherwise Algorithm 1 picks the
/// set tolerating `config.crashes` crashes at `min_probability` (`Pc`).
#[aqua::hot_path]
pub fn plan<M>(
    config: &SelectorConfig,
    min_probability: f64,
    members: impl IntoIterator<Item = (ReplicaId, M)>,
    mut probability: impl FnMut(ReplicaId, M) -> Option<f64>,
) -> Plan {
    let mut members = members.into_iter();
    let (_, most) = members.size_hint();
    // aqua-lint: allow(no-alloc-in-select) the ranking is part of the returned plan; one reservation sized by the member count, no per-replica reallocation
    let mut candidates = Vec::with_capacity(most.unwrap_or(0));
    while let Some((id, member)) = members.next() {
        let p = match probability(id, member) {
            Some(p) => p,
            None => match config.cold_start {
                ColdStartPolicy::Optimistic(p) => p.clamp(0.0, 1.0),
                ColdStartPolicy::SelectAll => {
                    // Every member read so far had a distribution, so the
                    // multicast is those, this one and the rest, in order.
                    let everyone = candidates
                        .iter()
                        .map(|c: &Candidate| c.id)
                        .chain(std::iter::once(id))
                        .chain(members.map(|(id, _)| id))
                        .collect();
                    candidates.clear();
                    return Plan {
                        selection: Selection::everyone(everyone),
                        candidates,
                    };
                }
            },
        };
        candidates.push(Candidate::new(id, p));
    }
    Plan {
        selection: select_replicas_tolerating(&candidates, min_probability, config.crashes),
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::PerfReport;
    use crate::time::Instant;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn warm(selector: &mut ReplicaSelector, id: u64, service_ms: u64) {
        let r = ReplicaId::new(id);
        selector.repository_mut().insert_replica(r);
        for _ in 0..3 {
            selector.repository_mut().record_perf(
                r,
                PerfReport::new(ms(service_ms), ms(0), 0),
                Instant::EPOCH,
            );
        }
        selector
            .repository_mut()
            .record_gateway_delay(r, ms(2), Instant::EPOCH);
    }

    #[test]
    fn empty_repository_selects_nothing() {
        let mut selector = ReplicaSelector::new(5, SelectorConfig::default());
        let qos = QosSpec::new(ms(100), 0.9).unwrap();
        let d = selector.select(&qos);
        assert_eq!(d.reason, SelectionReason::NoReplicas);
        assert!(d.selection.replicas().is_empty());
    }

    #[test]
    fn cold_start_selects_all() {
        let mut selector = ReplicaSelector::new(5, SelectorConfig::default());
        for i in 0..4 {
            selector.repository_mut().insert_replica(ReplicaId::new(i));
        }
        let qos = QosSpec::new(ms(100), 0.0).unwrap();
        let d = selector.select(&qos);
        assert_eq!(d.reason, SelectionReason::ColdStart);
        assert_eq!(d.selection.redundancy(), 4);
    }

    #[test]
    fn partially_cold_repository_still_selects_all() {
        let mut selector = ReplicaSelector::new(5, SelectorConfig::default());
        warm(&mut selector, 0, 50);
        selector.repository_mut().insert_replica(ReplicaId::new(1)); // cold
        let qos = QosSpec::new(ms(100), 0.0).unwrap();
        let d = selector.select(&qos);
        assert_eq!(d.reason, SelectionReason::ColdStart);
        assert_eq!(d.selection.redundancy(), 2);
    }

    #[test]
    fn replicas_on_probation_are_not_trusted() {
        let mut selector = ReplicaSelector::new(5, SelectorConfig::default());
        for i in 0..4 {
            warm(&mut selector, i, 20 + 10 * i);
        }
        selector
            .repository_mut()
            .set_probation(ReplicaId::new(0), 5);
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let d = selector.select(&qos);
        assert_eq!(d.reason, SelectionReason::Model);
        assert_eq!(d.selection.replicas(), [1, 2].map(ReplicaId::new));
        assert_eq!(d.candidates.len(), 3, "r0 is not ranked at all");

        // A cold member multicasts to the trusted members only.
        selector.repository_mut().insert_replica(ReplicaId::new(9));
        let cold = selector.select(&qos);
        assert_eq!(cold.reason, SelectionReason::ColdStart);
        assert_eq!(cold.selection.replicas(), [1, 2, 3, 9].map(ReplicaId::new));
    }

    #[test]
    fn optimistic_policy_avoids_full_multicast() {
        let mut selector = ReplicaSelector::new(
            5,
            SelectorConfig {
                cold_start: ColdStartPolicy::Optimistic(0.5),
                ..SelectorConfig::default()
            },
        );
        warm(&mut selector, 0, 50);
        warm(&mut selector, 1, 60);
        selector.repository_mut().insert_replica(ReplicaId::new(2)); // cold
        let qos = QosSpec::new(ms(100), 0.0).unwrap();
        let d = selector.select(&qos);
        assert_eq!(d.reason, SelectionReason::Model);
        assert_eq!(d.candidates.len(), 3, "cold replica got a probability");
        assert_eq!(d.selection.redundancy(), 2, "Pc=0 still needs only 2");
    }

    #[test]
    fn warm_selection_uses_model_and_records_overhead() {
        let mut selector = ReplicaSelector::new(5, SelectorConfig::default());
        for i in 0..5 {
            warm(&mut selector, i, 50 + 10 * i);
        }
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        assert_eq!(selector.overhead().samples(), 0);
        let d = selector.select(&qos);
        assert_eq!(d.reason, SelectionReason::Model);
        assert_eq!(d.selection.redundancy(), 2);
        assert_eq!(selector.overhead().samples(), 1);
        assert!(d.overhead() >= d.select_time);
        // Tight deadlines need more redundancy.
        let tight = QosSpec::new(ms(55), 0.9).unwrap();
        let d2 = selector.select(&tight);
        assert!(d2.selection.redundancy() >= d.selection.redundancy());
    }

    #[test]
    fn adjusted_deadline_shrinks_after_first_measurement() {
        let mut selector = ReplicaSelector::new(5, SelectorConfig::default());
        warm(&mut selector, 0, 50);
        warm(&mut selector, 1, 60);
        let qos = QosSpec::new(ms(100), 0.0).unwrap();
        let first = selector.select(&qos);
        assert_eq!(first.adjusted_deadline, ms(100), "no δ before first run");
        let second = selector.select(&qos);
        assert!(
            second.adjusted_deadline <= ms(100),
            "δ from the first run now discounts the deadline"
        );
        assert_eq!(
            second.adjusted_deadline,
            ms(100).saturating_sub(first.overhead())
        );
    }

    #[test]
    fn decision_exposes_candidates_sorted_by_repository_order() {
        let mut selector = ReplicaSelector::new(5, SelectorConfig::default());
        warm(&mut selector, 2, 80);
        warm(&mut selector, 0, 40);
        let qos = QosSpec::new(ms(200), 0.5).unwrap();
        let d = selector.select(&qos);
        let ids: Vec<u64> = d.candidates.iter().map(|c| c.id.index()).collect();
        assert_eq!(ids, vec![0, 2], "repository iterates in id order");
    }
}
