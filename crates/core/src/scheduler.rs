//! The planning step that glues repository, model and Algorithm 1
//! (§4, §5.4.1).
//!
//! A client's timing fault handler (`aqua_gateway::ConcurrentHandler`)
//! plans each request in four steps:
//!
//! 1. it adjusts the client's deadline by the most recently measured
//!    algorithm overhead δ (§5.3.3),
//! 2. evaluates `F_Ri(t − δ)` for every replica not on probation using the
//!    online model (§5.3.1),
//! 3. runs Algorithm 1 to pick the replica subset (§5.3.2),
//! 4. and measures how long the plan took, as the next δ.
//!
//! On the very first request to a service — or whenever a replica without
//! history joins — there is no performance data, so "the selection strategy
//! selects all the replicas in the list. This allows the replicas to publish
//! their performance updates to the clients" (§5.4.1).
//!
//! Steps 2–3 are [`plan`]. The handler reads `F_Ri` from its published
//! tables; the model-based strategy builds each table from the repository,
//! with no δ: the reference the handler's first plan equals.

use crate::aqua;
use crate::model::ModelConfig;
use crate::qos::ReplicaId;
use crate::select::{select_replicas_tolerating, Candidate, Selection};

/// What [`plan`] takes besides the members: the model and the crashes to
/// tolerate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectorConfig {
    /// Model parameters (bucket width, delay estimator, method scope).
    // aqua-lint: allow(knob-census) a pin benchmark/ reads (`SnapshotPlanSpec::model`, benchmark/src/replay.rs and workloads/gateway.rs)
    pub model: ModelConfig,
    /// How many simultaneous replica crashes the selection must tolerate
    /// (the paper's Algorithm 1 is `1`; §5.3.2 sketches the general case).
    pub crashes: usize,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        SelectorConfig {
            model: ModelConfig::default(),
            crashes: 1,
        }
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

/// The one planning function (§5.3–§5.4.1): the model-based strategy and
/// the concurrent handler's lock-free path differ only in where `F_Ri`
/// comes from.
///
/// `members` are the replicas a plan may trust (selectable, not
/// excluded), in ascending id order, each with whatever `probability`
/// needs to read its `F_Ri(t − δ)`. A member with no distribution yet
/// forces the cold-start multicast to every member (§5.4.1: the members
/// after it are not read); otherwise Algorithm 1 picks the set tolerating
/// `config.crashes` crashes at `min_probability` (`Pc`).
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
        let Some(p) = probability(id, member) else {
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
    use crate::model::ResponseTimeModel;
    use crate::qos::QosSpec;
    use crate::repository::{InfoRepository, PerfReport};
    use crate::time::{Duration, Instant};

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn warm(repo: &mut InfoRepository, id: u64, service_ms: u64) {
        let r = ReplicaId::new(id);
        repo.insert_replica(r);
        for _ in 0..3 {
            repo.record_perf(r, PerfReport::new(ms(service_ms), ms(0), 0), Instant::EPOCH);
        }
        repo.record_gateway_delay(r, ms(2), Instant::EPOCH);
    }

    /// [`plan`] over the repository's trusted members, each `F_Ri` a
    /// table built from its windows.
    fn plan_over(repo: &InfoRepository, config: &SelectorConfig, qos: &QosSpec) -> Plan {
        let model = ResponseTimeModel::new(config.model);
        plan(
            config,
            qos.min_probability(),
            repo.selectable(),
            |_, stats| model.probability_by_for(stats, qos.deadline(), None),
        )
    }

    #[test]
    fn empty_repository_selects_nothing() {
        let repo = InfoRepository::new(5);
        let qos = QosSpec::new(ms(100), 0.9).unwrap();
        let p = plan_over(&repo, &SelectorConfig::default(), &qos);
        assert!(p.selection.replicas().is_empty());
        assert!(p.candidates.is_empty());
    }

    #[test]
    fn cold_start_selects_all() {
        let mut repo = InfoRepository::new(5);
        for i in 0..4 {
            repo.insert_replica(ReplicaId::new(i));
        }
        let qos = QosSpec::new(ms(100), 0.0).unwrap();
        let p = plan_over(&repo, &SelectorConfig::default(), &qos);
        assert!(
            p.candidates.is_empty(),
            "a cold-start multicast ranks nothing"
        );
        assert_eq!(p.selection.redundancy(), 4);
    }

    #[test]
    fn partially_cold_repository_still_selects_all() {
        let mut repo = InfoRepository::new(5);
        warm(&mut repo, 0, 50);
        repo.insert_replica(ReplicaId::new(1)); // cold
        let qos = QosSpec::new(ms(100), 0.0).unwrap();
        let p = plan_over(&repo, &SelectorConfig::default(), &qos);
        assert!(p.candidates.is_empty());
        assert_eq!(p.selection.redundancy(), 2);
    }

    #[test]
    fn replicas_on_probation_are_not_trusted() {
        let mut repo = InfoRepository::new(5);
        for i in 0..4 {
            warm(&mut repo, i, 20 + 10 * i);
        }
        repo.set_probation(ReplicaId::new(0), 5);
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let config = SelectorConfig::default();
        let p = plan_over(&repo, &config, &qos);
        assert_eq!(p.selection.replicas(), [1, 2].map(ReplicaId::new));
        assert_eq!(p.candidates.len(), 3, "r0 is not ranked at all");

        // A cold member multicasts to the trusted members only.
        repo.insert_replica(ReplicaId::new(9));
        let cold = plan_over(&repo, &config, &qos);
        assert!(cold.candidates.is_empty());
        assert_eq!(cold.selection.replicas(), [1, 2, 3, 9].map(ReplicaId::new));
    }

    #[test]
    fn tighter_deadlines_never_lower_redundancy() {
        let mut repo = InfoRepository::new(5);
        for i in 0..5 {
            warm(&mut repo, i, 50 + 10 * i);
        }
        let config = SelectorConfig::default();
        let loose = plan_over(&repo, &config, &QosSpec::new(ms(200), 0.9).unwrap());
        assert_eq!(loose.candidates.len(), 5);
        assert_eq!(loose.selection.redundancy(), 2);
        let tight = plan_over(&repo, &config, &QosSpec::new(ms(55), 0.9).unwrap());
        assert!(tight.selection.redundancy() >= loose.selection.redundancy());
    }

    #[test]
    fn candidates_follow_member_order() {
        let mut repo = InfoRepository::new(5);
        warm(&mut repo, 2, 80);
        warm(&mut repo, 0, 40);
        let qos = QosSpec::new(ms(200), 0.5).unwrap();
        let p = plan_over(&repo, &SelectorConfig::default(), &qos);
        let ids: Vec<u64> = p.candidates.iter().map(|c| c.id.index()).collect();
        assert_eq!(ids, vec![0, 2], "repository iterates in id order");
    }
}
