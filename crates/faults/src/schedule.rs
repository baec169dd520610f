//! The instantiated, deterministic fault timeline.

use aqua_core::qos::ReplicaId;
use aqua_core::time::{Duration, Instant};

use crate::plan::{FaultKind, FaultSpec};

/// What a replica is doing at a point in time, fault-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Servicing normally (possibly degraded — see
    /// [`FaultSchedule::service_factor`]).
    Up,
    /// Stalled by a pause fault until the given instant; queued work
    /// survives.
    Paused {
        /// When the pause lifts.
        until: Instant,
    },
    /// Crashed until the given instant (recovery), or forever if the window
    /// saturates past any experiment horizon.
    Down {
        /// When the replica restarts.
        until: Instant,
    },
}

/// A [`FaultPlan`](crate::FaultPlan) bound to a seed: a pure function of
/// time that answers "what is broken right now?".
///
/// Both the simulator and the socket runtime hold one of these and query it
/// with their own notion of [`Instant`] (virtual time vs. time since process
/// start), which is what makes a single plan portable across the two.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    specs: Vec<FaultSpec>,
    seed: u64,
}

impl FaultSchedule {
    pub(crate) fn new(specs: Vec<FaultSpec>, seed: u64) -> Self {
        FaultSchedule { specs, seed }
    }

    /// A schedule that injects nothing.
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    /// Whether the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The resolved specs, in plan order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Crash/pause status of `replica` at `now`. Crash wins over pause when
    /// windows overlap.
    pub fn health(&self, replica: ReplicaId, now: Instant) -> ReplicaHealth {
        let mut paused: Option<Instant> = None;
        for spec in &self.specs {
            if !(spec.targets(replica) && spec.active_at(now)) {
                continue;
            }
            match spec.kind {
                FaultKind::Crash => return ReplicaHealth::Down { until: spec.end() },
                FaultKind::Pause => {
                    let until = spec.end();
                    paused = Some(paused.map_or(until, |u| u.max(until)));
                }
                _ => {}
            }
        }
        match paused {
            Some(until) => ReplicaHealth::Paused { until },
            None => ReplicaHealth::Up,
        }
    }

    /// Whether `replica` is inside a crash window at `now`.
    pub fn is_down(&self, replica: ReplicaId, now: Instant) -> bool {
        matches!(self.health(replica, now), ReplicaHealth::Down { .. })
    }

    /// If `replica` is paused at `now`, when the pause lifts.
    pub fn paused_until(&self, replica: ReplicaId, now: Instant) -> Option<Instant> {
        match self.health(replica, now) {
            ReplicaHealth::Paused { until } => Some(until),
            _ => None,
        }
    }

    /// If `replica` is inside a scheduled drain window at `now`, when the
    /// window ends (the reactivation instant of the rolling restart).
    /// Drain is orthogonal to [`FaultSchedule::health`]: a crash window
    /// overlapping a drain still loses queued work.
    pub fn draining_until(&self, replica: ReplicaId, now: Instant) -> Option<Instant> {
        self.specs
            .iter()
            .filter(|s| s.kind == FaultKind::Drain && s.targets(replica) && s.active_at(now))
            .map(FaultSpec::end)
            .max()
    }

    /// Combined service-time multiplier for `replica` at `now` (product of
    /// all active degrade windows; `1.0` when healthy).
    pub fn service_factor(&self, replica: ReplicaId, now: Instant) -> f64 {
        let mut factor = 1.0;
        for spec in &self.specs {
            if !(spec.targets(replica) && spec.active_at(now)) {
                continue;
            }
            if let FaultKind::Degrade { factor: f } = spec.kind {
                factor *= f;
            }
        }
        factor
    }

    /// Network delay modifier for a message between two endpoints at `now`:
    /// a multiplicative factor and a flat extra. Endpoints that are not
    /// replicas (clients, the coordinator) pass `None` and only match
    /// network-wide specs.
    pub fn delay_mod(
        &self,
        from: Option<ReplicaId>,
        to: Option<ReplicaId>,
        now: Instant,
    ) -> (f64, Duration) {
        let mut factor = 1.0;
        let mut pad = Duration::ZERO;
        for spec in &self.specs {
            if !spec.active_at(now) || !touches(spec, from, to) {
                continue;
            }
            if let FaultKind::DelaySpike { factor: f, extra } = spec.kind {
                factor *= f;
                pad = pad.saturating_add(extra);
            }
        }
        (factor, pad)
    }

    /// Flat extra latency the socket runtime adds on `replica`'s reply path
    /// at `now` (the `extra` of every active delay spike touching it).
    pub fn reply_delay(&self, replica: ReplicaId, now: Instant) -> Duration {
        self.delay_mod(Some(replica), None, now).1
    }

    /// Whether a message between two endpoints at `now` is lost.
    ///
    /// One-way partitions drop everything *sent by* the target replica.
    /// Probabilistic drops are decided by a deterministic hash of the seed,
    /// the endpoints, and the (nanosecond) send time, so the same plan drops
    /// the same messages in every run of either runtime.
    pub fn should_drop(
        &self,
        from: Option<ReplicaId>,
        to: Option<ReplicaId>,
        now: Instant,
    ) -> bool {
        for (idx, spec) in self.specs.iter().enumerate() {
            if !spec.active_at(now) {
                continue;
            }
            match spec.kind {
                FaultKind::PartitionOneWay if spec.replica.is_some() && spec.replica == from => {
                    return true;
                }
                FaultKind::Drop { probability }
                    if touches(spec, from, to)
                        && unit_hash(
                            self.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            endpoint_bits(from),
                            endpoint_bits(to),
                            now.as_nanos(),
                        ) < probability =>
                {
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    /// The earliest fault window edge (start or end) strictly after `now`,
    /// if any. Drivers sleep to this instant instead of polling.
    pub fn next_transition_after(&self, now: Instant) -> Option<Instant> {
        self.specs
            .iter()
            .flat_map(|s| [s.start, s.end()])
            .filter(|t| *t > now && *t < Instant::from_nanos(u64::MAX))
            .min()
    }

    /// The schedule's windows as joinable values: each carries the stable
    /// id the journal's `fault` events are tagged with (the plan index),
    /// so span ↔ fault joins in forensics are exact, not
    /// timestamp-heuristic.
    pub fn windows(&self) -> Vec<FaultWindow> {
        self.specs
            .iter()
            .enumerate()
            .map(|(idx, spec)| FaultWindow {
                id: idx as u64,
                replica: spec.replica,
                kind: spec.kind.label(),
                start: spec.start,
                end: spec.end(),
            })
            .collect()
    }
}

/// One fault window in joinable form: the stable `id` matches the
/// `"window"` field of the journal's `fault` events for this schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Stable id (the plan index) shared by the window's `active` and
    /// `cleared` journal events.
    pub id: u64,
    /// Target replica; `None` for network-wide windows.
    pub replica: Option<ReplicaId>,
    /// The fault kind's stable label.
    pub kind: &'static str,
    /// When the window opens.
    pub start: Instant,
    /// When the window closes (saturated for permanent faults).
    pub end: Instant,
}

impl FaultWindow {
    /// Whether this window touches a request that was multicast to
    /// `selected` (replica ids) and lived over `[from, to]`: the window's
    /// target must be one of the selected replicas (or network-wide) and
    /// the time intervals must intersect.
    pub fn overlaps(&self, selected: &[u64], from: Instant, to: Instant) -> bool {
        let targeted = match self.replica {
            None => true,
            Some(r) => selected.contains(&r.index()),
        };
        targeted && self.start <= to && self.end > from
    }
}

/// Whether a spec's target matches either endpoint of a message (or the spec
/// is network-wide).
fn touches(spec: &FaultSpec, from: Option<ReplicaId>, to: Option<ReplicaId>) -> bool {
    match spec.replica {
        None => true,
        Some(r) => from == Some(r) || to == Some(r),
    }
}

fn endpoint_bits(r: Option<ReplicaId>) -> u64 {
    match r {
        Some(id) => id.index(),
        None => u64::MAX,
    }
}

/// SplitMix64-style avalanche of the inputs, mapped to `[0, 1)`.
fn unit_hash(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let mut x = seed
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(c.wrapping_mul(0x2545_F491_4F6C_DD1D));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn at(v: u64) -> Instant {
        Instant::from_millis(v)
    }

    fn rid(v: u64) -> ReplicaId {
        ReplicaId::new(v)
    }

    #[test]
    fn crash_window_reports_down_then_up() {
        let s = FaultPlan::new()
            .crash_recover(3, at(100), ms(50))
            .instantiate(1);
        assert_eq!(s.health(rid(3), at(99)), ReplicaHealth::Up);
        assert_eq!(
            s.health(rid(3), at(100)),
            ReplicaHealth::Down { until: at(150) }
        );
        assert_eq!(
            s.health(rid(3), at(149)),
            ReplicaHealth::Down { until: at(150) }
        );
        assert_eq!(s.health(rid(3), at(150)), ReplicaHealth::Up);
        // Other replicas are unaffected.
        assert_eq!(s.health(rid(4), at(120)), ReplicaHealth::Up);
    }

    #[test]
    fn crash_forever_saturates() {
        let s = FaultPlan::new()
            .crash_recover(0, at(10), Duration::MAX)
            .instantiate(1);
        assert!(s.is_down(rid(0), Instant::from_secs(1_000_000)));
        // A saturated window edge is not a usable transition.
        assert_eq!(s.next_transition_after(at(10)), None);
    }

    #[test]
    fn pause_reports_latest_end_and_crash_wins() {
        let s = FaultPlan::new()
            .pause(1, at(0), ms(100))
            .pause(1, at(50), ms(100))
            .crash_recover(1, at(60), ms(10))
            .instantiate(1);
        assert_eq!(
            s.health(rid(1), at(10)),
            ReplicaHealth::Paused { until: at(100) }
        );
        assert_eq!(
            s.health(rid(1), at(55)),
            ReplicaHealth::Paused { until: at(150) }
        );
        assert_eq!(
            s.health(rid(1), at(65)),
            ReplicaHealth::Down { until: at(70) }
        );
        assert_eq!(s.paused_until(rid(1), at(120)), Some(at(150)));
    }

    #[test]
    fn degrade_factors_compose() {
        let s = FaultPlan::new()
            .degrade(2, at(0), ms(100), 3.0)
            .degrade(2, at(50), ms(100), 2.0)
            .instantiate(1);
        assert_eq!(s.service_factor(rid(2), at(10)), 3.0);
        assert_eq!(s.service_factor(rid(2), at(60)), 6.0);
        assert_eq!(s.service_factor(rid(2), at(120)), 2.0);
        assert_eq!(s.service_factor(rid(2), at(200)), 1.0);
        assert_eq!(s.service_factor(rid(9), at(60)), 1.0);
    }

    #[test]
    fn delay_spikes_scale_and_pad() {
        let s = FaultPlan::new()
            .delay_spike_all(at(0), ms(100), 4.0)
            .with(FaultSpec {
                replica: Some(rid(5)),
                kind: FaultKind::DelaySpike {
                    factor: 1.0,
                    extra: ms(20),
                },
                start: at(0),
                duration: ms(100),
            })
            .instantiate(1);
        // Network-wide spec matches any endpoint pair.
        assert_eq!(s.delay_mod(None, None, at(10)), (4.0, Duration::ZERO));
        // Replica-targeted spec only matches messages touching it.
        assert_eq!(s.delay_mod(Some(rid(5)), None, at(10)), (4.0, ms(20)));
        assert_eq!(s.delay_mod(None, Some(rid(5)), at(10)), (4.0, ms(20)));
        assert_eq!(s.reply_delay(rid(5), at(10)), ms(20));
        assert_eq!(
            s.delay_mod(Some(rid(1)), Some(rid(2)), at(200)),
            (1.0, Duration::ZERO)
        );
    }

    #[test]
    fn partition_drops_outbound_only() {
        let s = FaultPlan::new()
            .partition_one_way(7, at(0), ms(100))
            .instantiate(1);
        assert!(s.should_drop(Some(rid(7)), None, at(50)));
        assert!(s.should_drop(Some(rid(7)), Some(rid(1)), at(50)));
        assert!(!s.should_drop(Some(rid(1)), Some(rid(7)), at(50)));
        assert!(!s.should_drop(Some(rid(7)), None, at(150)));
    }

    #[test]
    fn probabilistic_drops_are_deterministic_and_calibrated() {
        let s = FaultPlan::new()
            .drop_messages(2, at(0), Duration::from_secs(10), 0.3)
            .instantiate(99);
        let t = FaultPlan::new()
            .drop_messages(2, at(0), Duration::from_secs(10), 0.3)
            .instantiate(99);
        let mut dropped = 0;
        let total = 10_000;
        for i in 0..total {
            let now = Instant::from_nanos(1 + i * 977);
            let d = s.should_drop(Some(rid(2)), Some(rid(9)), now);
            // Same plan + seed + message coordinates → same decision.
            assert_eq!(d, t.should_drop(Some(rid(2)), Some(rid(9)), now));
            dropped += u64::from(d);
        }
        let rate = dropped as f64 / total as f64;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate} far from 0.3");
        // A different seed reshuffles which messages die.
        let u = FaultPlan::new()
            .drop_messages(2, at(0), Duration::from_secs(10), 0.3)
            .instantiate(100);
        let mut differs = false;
        for i in 0..1_000 {
            let now = Instant::from_nanos(1 + i * 977);
            differs |= u.should_drop(Some(rid(2)), Some(rid(9)), now)
                != s.should_drop(Some(rid(2)), Some(rid(9)), now);
        }
        assert!(differs);
    }

    #[test]
    fn drain_windows_are_first_class() {
        let s = FaultPlan::new()
            .drain(3, at(100), ms(200))
            .pause(3, at(150), ms(10))
            .instantiate(1);
        // The drain window is queryable and scoped to its target.
        assert_eq!(s.draining_until(rid(3), at(99)), None);
        assert_eq!(s.draining_until(rid(3), at(100)), Some(at(300)));
        assert_eq!(s.draining_until(rid(3), at(299)), Some(at(300)));
        assert_eq!(s.draining_until(rid(3), at(300)), None);
        assert_eq!(s.draining_until(rid(4), at(150)), None);
        // Drain does not perturb health (the pause still reports).
        assert_eq!(
            s.health(rid(3), at(155)),
            ReplicaHealth::Paused { until: at(160) }
        );
        // The window surfaces in joinable form with the drain label.
        let windows = s.windows();
        assert_eq!(windows[0].kind, "drain");
        assert_eq!(windows[0].id, 0);
        // And it participates in the transition walk.
        assert_eq!(s.next_transition_after(at(0)), Some(at(100)));
    }

    #[test]
    fn next_transition_walks_every_edge() {
        let s = FaultPlan::new()
            .pause(0, at(100), ms(50))
            .degrade(1, at(120), ms(100), 2.0)
            .instantiate(1);
        assert_eq!(s.next_transition_after(at(0)), Some(at(100)));
        assert_eq!(s.next_transition_after(at(100)), Some(at(120)));
        assert_eq!(s.next_transition_after(at(120)), Some(at(150)));
        assert_eq!(s.next_transition_after(at(150)), Some(at(220)));
        assert_eq!(s.next_transition_after(at(220)), None);
    }
}
