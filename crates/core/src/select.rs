//! The replica selection algorithm (Algorithm 1, §5.3.2).
//!
//! Given per-replica probabilities `F_Ri(t)` of meeting the client's
//! deadline, the algorithm picks the smallest prefix of the
//! probability-sorted replica list that meets the requested probability
//! `Pc(t)` **even if the single best replica crashes**:
//!
//! 1. sort replicas by `F_Ri(t)` in decreasing order;
//! 2. set aside the head `m0` (the most promising replica) — it is always
//!    part of the result but never counted toward the acceptance test;
//! 3. walk the remaining replicas, accumulating `prod = Π (1 − F_Ri(t))`
//!    over the candidate set `X`, until `1 − prod ≥ Pc(t)`;
//! 4. return `K = X ∪ {m0}`; if the test never passes, return **all**
//!    replicas `M`.
//!
//! Because `1 − F_R0(t) ≤ 1 − F_Ri(t)` for every `i`, the set `K` still
//! meets `Pc(t)` after the crash of *any single member* (Eq. 3).

use core::fmt;

use crate::aqua;
use crate::qos::ReplicaId;

/// A replica together with its predicted probability `F_Ri(t)` of answering
/// within the client's (overhead-adjusted) deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Candidate {
    /// The replica this estimate is for.
    pub id: ReplicaId,
    /// `F_Ri(t)`, clamped to `[0, 1]` during selection.
    pub probability: f64,
}

impl Candidate {
    /// Creates a candidate entry.
    pub fn new(id: ReplicaId, probability: f64) -> Self {
        Candidate { id, probability }
    }
}

/// The outcome of running Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Selection {
    /// The replicas the request should be multicast to, best first.
    replicas: Vec<ReplicaId>,
    /// `P_K(t)` over the *whole* returned set (Eq. 1), for diagnostics.
    predicted_probability: f64,
    /// `P_X(t)` excluding `m0` — the value the acceptance test ran on.
    /// This is the probability guaranteed to survive a single crash.
    crash_tolerant_probability: f64,
    /// `true` when no subset satisfied the test and all replicas of `M`
    /// were returned (Line 15 of Algorithm 1).
    fallback_all: bool,
}

impl Selection {
    /// The selected replica set `K`, ordered by decreasing `F_Ri(t)`.
    pub fn replicas(&self) -> &[ReplicaId] {
        &self.replicas
    }

    /// Consumes the selection, yielding the replica set.
    pub fn into_replicas(self) -> Vec<ReplicaId> {
        self.replicas
    }

    /// Number of replicas selected (the redundancy level of §4).
    pub fn redundancy(&self) -> usize {
        self.replicas.len()
    }

    /// `P_K(t)`: probability that at least one member of `K` responds in
    /// time (Eq. 1), assuming no crashes.
    pub fn predicted_probability(&self) -> f64 {
        self.predicted_probability
    }

    /// `P_X(t)`: the probability that still holds if any one member of `K`
    /// crashes (the quantity tested against `Pc(t)`; Eq. 3).
    pub fn crash_tolerant_probability(&self) -> f64 {
        self.crash_tolerant_probability
    }

    /// Whether Algorithm 1 fell back to returning every replica.
    pub fn is_fallback_all(&self) -> bool {
        self.fallback_all
    }

    /// Every one of `replicas`, with no prediction behind the choice: the
    /// cold-start multicast of §5.4.1.
    pub(crate) fn everyone(replicas: Vec<ReplicaId>) -> Self {
        Selection {
            replicas,
            predicted_probability: 0.0,
            crash_tolerant_probability: 0.0,
            fallback_all: true,
        }
    }
}

impl fmt::Display for Selection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} replica(s) [{}] predicted {:.3}{}",
            self.replicas.len(),
            self.replicas
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            self.predicted_probability,
            if self.fallback_all {
                " (fallback: all)"
            } else {
                ""
            }
        )
    }
}

/// Runs Algorithm 1 over `candidates` with the client's requested
/// probability `min_probability` (`Pc(t)`).
///
/// The caller is expected to have evaluated each candidate's probability at
/// the overhead-adjusted deadline `t − δ` (§5.3.3); this function is
/// agnostic to how the probabilities were produced.
///
/// Ties in probability are broken by replica id so the result is
/// deterministic. Probabilities are clamped to `[0, 1]`; NaN is treated
/// as 0.
///
/// An empty candidate list yields an empty fallback selection.
///
/// # Examples
///
/// ```
/// use aqua_core::select::{select_replicas, Candidate};
/// use aqua_core::qos::ReplicaId;
///
/// let candidates: Vec<Candidate> = [0.95f64, 0.9, 0.5, 0.2]
///     .iter()
///     .enumerate()
///     .map(|(i, p)| Candidate::new(ReplicaId::new(i as u64), *p))
///     .collect();
///
/// // Pc = 0.9: the test passes with X = {r1} (0.9 ≥ 0.9); K = {r0, r1}.
/// let s = select_replicas(&candidates, 0.9);
/// assert_eq!(s.redundancy(), 2);
/// assert!(!s.is_fallback_all());
/// assert!(s.crash_tolerant_probability() >= 0.9);
/// ```
pub fn select_replicas(candidates: &[Candidate], min_probability: f64) -> Selection {
    select_replicas_tolerating(candidates, min_probability, 1)
}

/// The multi-failure generalization the paper sketches in §5.3.2 ("it
/// should be simple to extend the above algorithm to handle multiple
/// failures by following a method similar to the one outlined above").
///
/// Instead of reserving only the single best replica `m0`, the top
/// `crashes` replicas are set aside and never counted toward the
/// acceptance test; the candidate set `X` must meet `Pc(t)` on its own.
///
/// **Guarantee.** For a non-fallback selection, the crash of *any*
/// `crashes` members of `K` still leaves `P(K \ C) ≥ Pc`: every crashed
/// member of `X` can be "replaced" in the bound by a distinct surviving
/// reserved replica, whose miss probability is no larger (the reserved
/// replicas are exactly the `crashes` highest-probability ones), so the
/// survivor product stays below `1 − Pc` — the same argument as Eq. 3.
///
/// `crashes = 1` reproduces Algorithm 1 exactly; `crashes = 0` performs no
/// reservation (no crash tolerance, minimum redundancy 1).
///
/// # Examples
///
/// ```
/// use aqua_core::select::{select_replicas_tolerating, Candidate};
/// use aqua_core::qos::ReplicaId;
///
/// let candidates: Vec<Candidate> = [0.95f64, 0.9, 0.9, 0.5, 0.5]
///     .iter()
///     .enumerate()
///     .map(|(i, p)| Candidate::new(ReplicaId::new(i as u64), *p))
///     .collect();
/// let single = select_replicas_tolerating(&candidates, 0.8, 1);
/// let double = select_replicas_tolerating(&candidates, 0.8, 2);
/// assert!(double.redundancy() > single.redundancy());
/// ```
#[aqua::hot_path]
pub fn select_replicas_tolerating(
    candidates: &[Candidate],
    min_probability: f64,
    crashes: usize,
) -> Selection {
    // The model hands us probabilities that are already in [0, 1] in the
    // overwhelmingly common case; sanitize lazily so the hot path is a plain
    // copy + sort with no per-element branching.
    let needs_clamp = candidates
        .iter()
        .any(|c| !(c.probability >= 0.0 && c.probability <= 1.0));
    let mut sorted: Vec<Candidate> = if needs_clamp {
        candidates
            .iter()
            .map(|c| Candidate {
                id: c.id,
                probability: if c.probability.is_nan() {
                    0.0
                } else {
                    c.probability.clamp(0.0, 1.0)
                },
            })
            .collect()
    } else {
        // aqua-lint: allow(no-alloc-in-select) the selected set is the return value; one copy of the candidate list is the function's contract
        candidates.to_vec()
    };
    // Decreasing probability, ties broken by ascending id for determinism —
    // the tie-break makes the comparator a total order, so an unstable sort
    // yields the same permutation as a stable one. `total_cmp` agrees with
    // `partial_cmp` on the sanitized (non-NaN) probabilities and cannot
    // panic even if an unsanitized NaN slipped through.
    sorted.sort_unstable_by(|a, b| {
        b.probability
            .total_cmp(&a.probability)
            .then_with(|| a.id.cmp(&b.id))
    });

    if sorted.is_empty() || sorted.len() <= crashes {
        // Not enough replicas to both reserve and test: return everything.
        let full_prod: f64 = sorted.iter().map(|c| 1.0 - c.probability).product();
        let predicted = if sorted.is_empty() {
            0.0
        } else {
            1.0 - full_prod
        };
        return Selection {
            replicas: sorted.iter().map(|c| c.id).collect(),
            predicted_probability: predicted,
            crash_tolerant_probability: 0.0,
            fallback_all: true,
        };
    }

    // In range: the early return above guarantees `crashes < sorted.len()`.
    let (reserved, rest) = sorted.split_at(crashes);

    // Lines 6–14: grow X until 1 − Π(1 − F_Ri) ≥ Pc.
    let mut prod = 1.0f64;
    for (taken, candidate) in rest.iter().enumerate() {
        prod *= 1.0 - candidate.probability;
        if 1.0 - prod >= min_probability {
            let replicas: Vec<ReplicaId> = reserved
                .iter()
                .map(|c| c.id)
                .chain(rest.iter().take(taken + 1).map(|c| c.id))
                .collect();
            let reserved_prod: f64 = reserved.iter().map(|c| 1.0 - c.probability).product();
            return Selection {
                replicas,
                predicted_probability: 1.0 - prod * reserved_prod,
                crash_tolerant_probability: 1.0 - prod,
                fallback_all: false,
            };
        }
    }

    // Line 15: no subset sufficed — return the complete set M.
    let full_prod: f64 = sorted.iter().map(|c| 1.0 - c.probability).product();
    Selection {
        replicas: sorted.iter().map(|c| c.id).collect(),
        predicted_probability: 1.0 - full_prod,
        crash_tolerant_probability: 1.0 - prod,
        fallback_all: true,
    }
}

/// Evaluates Eq. 1 for an arbitrary replica set: the probability that at
/// least one member responds in time given per-member probabilities.
///
/// Inputs are clamped to `[0, 1]`; an empty set yields 0.
///
/// # Examples
///
/// ```
/// use aqua_core::select::combined_probability;
///
/// assert_eq!(combined_probability(&[]), 0.0);
/// assert!((combined_probability(&[0.5, 0.5]) - 0.75).abs() < 1e-12);
/// ```
pub fn combined_probability(probabilities: &[f64]) -> f64 {
    if probabilities.is_empty() {
        return 0.0;
    }
    1.0 - probabilities
        .iter()
        .map(|p| 1.0 - p.clamp(0.0, 1.0))
        .product::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates(probs: &[f64]) -> Vec<Candidate> {
        probs
            .iter()
            .enumerate()
            .map(|(i, p)| Candidate::new(ReplicaId::new(i as u64), *p))
            .collect()
    }

    fn ids(selection: &Selection) -> Vec<u64> {
        selection.replicas().iter().map(|r| r.index()).collect()
    }

    #[test]
    fn empty_candidates_yield_empty_fallback() {
        let s = select_replicas(&[], 0.9);
        assert!(s.replicas().is_empty());
        assert!(s.is_fallback_all());
        assert_eq!(s.predicted_probability(), 0.0);
    }

    #[test]
    fn single_replica_falls_back_to_all() {
        // With one replica, newSortedList is empty, so the loop never
        // passes and Algorithm 1 returns M (the single replica).
        let s = select_replicas(&candidates(&[0.99]), 0.5);
        assert_eq!(ids(&s), vec![0]);
        assert!(s.is_fallback_all());
    }

    #[test]
    fn zero_probability_request_selects_exactly_two() {
        // Pc = 0 is satisfiable by the very first loop iteration, so the
        // minimum redundancy is always 2 (m0 plus one more) — exactly what
        // Figure 4 shows for the "probability 0" client.
        let s = select_replicas(&candidates(&[0.2, 0.9, 0.5, 0.7]), 0.0);
        assert_eq!(s.redundancy(), 2);
        assert!(!s.is_fallback_all());
        assert_eq!(ids(&s), vec![1, 3], "the two most promising replicas");
    }

    #[test]
    fn best_replica_reserved_not_counted() {
        // probs: best 0.99, rest 0.6 / 0.5. Pc = 0.8:
        // X = {0.6}: 0.6 < 0.8. X = {0.6, 0.5}: 1 − 0.4·0.5 = 0.8 ≥ 0.8.
        // K = {best, 0.6, 0.5} — the 0.99 replica never enters the test.
        let s = select_replicas(&candidates(&[0.99, 0.6, 0.5]), 0.8);
        assert_eq!(ids(&s), vec![0, 1, 2]);
        assert!(!s.is_fallback_all());
        assert!((s.crash_tolerant_probability() - 0.8).abs() < 1e-12);
        assert!(s.predicted_probability() > 0.99);
    }

    #[test]
    fn fallback_when_pool_insufficient() {
        let s = select_replicas(&candidates(&[0.5, 0.3, 0.2]), 0.99);
        assert!(s.is_fallback_all());
        assert_eq!(s.redundancy(), 3);
        // Predicted probability over all of M: 1 − 0.5·0.7·0.8 = 0.72.
        assert!((s.predicted_probability() - 0.72).abs() < 1e-12);
    }

    #[test]
    fn stops_at_minimum_needed() {
        // Never selects more than the minimum number of replicas necessary
        // (§6): with probs 0.9/0.9/0.9 and Pc 0.85, X = {second 0.9}
        // already passes, so K has exactly 2 members.
        let s = select_replicas(&candidates(&[0.9, 0.9, 0.9]), 0.85);
        assert_eq!(s.redundancy(), 2);
    }

    #[test]
    fn sorts_by_probability_desc_with_id_tiebreak() {
        let s = select_replicas(&candidates(&[0.5, 0.9, 0.5, 0.95]), 1.1_f64.min(1.0));
        // Pc = 1 is unreachable with probs < 1 → fallback, but ordering is
        // still by probability then id.
        assert_eq!(ids(&s), vec![3, 1, 0, 2]);
    }

    #[test]
    fn probability_one_requires_certain_backup() {
        // Pc = 1 passes only if X itself accumulates certainty.
        let s = select_replicas(&candidates(&[1.0, 1.0]), 1.0);
        assert!(!s.is_fallback_all());
        assert_eq!(s.redundancy(), 2);
        let s2 = select_replicas(&candidates(&[1.0, 0.999]), 1.0);
        assert!(s2.is_fallback_all(), "backup is not certain → fallback");
    }

    #[test]
    fn nan_and_out_of_range_probabilities_are_sanitized() {
        let cands = vec![
            Candidate::new(ReplicaId::new(0), f64::NAN),
            Candidate::new(ReplicaId::new(1), 2.0),
            Candidate::new(ReplicaId::new(2), -1.0),
        ];
        let s = select_replicas(&cands, 0.5);
        assert_eq!(ids(&s)[0], 1, "clamped 2.0 → 1.0 sorts first");
        // The only replica with mass is reserved as m0, so the candidate
        // set X (all zero-probability) can never reach Pc → fallback.
        assert!(s.is_fallback_all());
        assert!((s.predicted_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_crash_tolerance_equation_3() {
        // For a non-fallback selection, removing ANY single member must
        // leave a set that still meets Pc (Eq. 3).
        let probs = [0.95, 0.7, 0.65, 0.4, 0.3];
        let pc = 0.8;
        let cands = candidates(&probs);
        let s = select_replicas(&cands, pc);
        assert!(!s.is_fallback_all());
        let selected: Vec<f64> = s
            .replicas()
            .iter()
            .map(|id| probs[id.index() as usize])
            .collect();
        for drop_idx in 0..selected.len() {
            let survivors: Vec<f64> = selected
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop_idx)
                .map(|(_, p)| *p)
                .collect();
            assert!(
                combined_probability(&survivors) >= pc - 1e-12,
                "dropping member {drop_idx} broke the guarantee"
            );
        }
    }

    #[test]
    fn zero_crash_tolerance_selects_single_replica() {
        let s = select_replicas_tolerating(&candidates(&[0.95, 0.9, 0.5]), 0.9, 0);
        assert_eq!(ids(&s), vec![0], "X = {{m0}} alone meets Pc");
        assert!(!s.is_fallback_all());
    }

    #[test]
    fn double_crash_tolerance_reserves_two() {
        // probs sorted: 0.95, 0.9, 0.9, 0.5, 0.5; crashes = 2 reserves the
        // top two; X grows from {0.9, 0.5, 0.5} until ≥ 0.8:
        // X = {0.9} passes immediately → K = 3 members.
        let s = select_replicas_tolerating(&candidates(&[0.95, 0.9, 0.9, 0.5, 0.5]), 0.8, 2);
        assert!(!s.is_fallback_all());
        assert_eq!(s.redundancy(), 3);
        assert_eq!(ids(&s), vec![0, 1, 2]);
        // Losing ANY two members still meets 0.8.
        let probs = [0.95, 0.9, 0.9];
        for a in 0..3 {
            for b in 0..3 {
                if a == b {
                    continue;
                }
                let survivors: Vec<f64> = (0..3)
                    .filter(|i| *i != a && *i != b)
                    .map(|i| probs[i])
                    .collect();
                assert!(combined_probability(&survivors) >= 0.8);
            }
        }
    }

    #[test]
    fn too_few_replicas_for_reservation_fall_back() {
        let s = select_replicas_tolerating(&candidates(&[0.9, 0.9]), 0.5, 2);
        assert!(s.is_fallback_all());
        assert_eq!(s.redundancy(), 2);
        assert_eq!(s.crash_tolerant_probability(), 0.0);
    }

    #[test]
    fn crashes_one_matches_algorithm_1() {
        for pc in [0.0, 0.3, 0.7, 0.95] {
            let cands = candidates(&[0.9, 0.8, 0.6, 0.4, 0.2]);
            assert_eq!(
                select_replicas(&cands, pc),
                select_replicas_tolerating(&cands, pc, 1)
            );
        }
    }

    #[test]
    fn higher_crash_tolerance_never_selects_fewer() {
        let cands = candidates(&[0.95, 0.85, 0.7, 0.6, 0.5, 0.4]);
        let mut last = 0;
        for f in 0..4 {
            let s = select_replicas_tolerating(&cands, 0.7, f);
            assert!(s.redundancy() >= last, "f={f}");
            last = s.redundancy();
        }
    }

    #[test]
    fn combined_probability_basics() {
        assert_eq!(combined_probability(&[]), 0.0);
        assert_eq!(combined_probability(&[1.0]), 1.0);
        assert!((combined_probability(&[0.5, 0.5, 0.5]) - 0.875).abs() < 1e-12);
        assert_eq!(combined_probability(&[2.0]), 1.0, "clamped");
    }

    #[test]
    fn display_mentions_fallback() {
        let s = select_replicas(&candidates(&[0.1, 0.1]), 0.99);
        let text = s.to_string();
        assert!(text.contains("fallback"), "{text}");
    }
}
