//! The elastic supervisor's policy engine.
//!
//! Pure decision logic, no simulator or transport types: the
//! [`crate::DependabilityManager`] (sim) and the socket runtime's driver
//! feed observations in — QoS-calibration alerts from the clients'
//! watchdogs, queue depths from the replicas' piggybacked perf updates —
//! and periodically ask [`SupervisorPolicy::tick`] for actions. Three
//! loops close here:
//!
//! * **Load-adaptive replication** — Poloczek & Ciucu ("Contrasting
//!   Effects of Replication in Parallel Systems") show replication helps
//!   under underload and actively hurts under overload, so the policy
//!   lowers the effective replication target toward `min_replication`
//!   while fleet queues stay deep (every extra copy of a request is more
//!   queued work) and raises it back toward `max_replication` when the
//!   fleet runs idle.
//! * **Replica lifecycle** — a replica whose per-replica calibration
//!   stays degraded (the model keeps vouching for it, reality keeps
//!   disagreeing) is quarantined for a rolling restart; it rejoins
//!   through the clients' probation machinery.
//! * **Escalation ladder** — when several replicas degrade inside one
//!   correlation window the failure is not individual, and restarting
//!   replicas one by one just thins the fleet. The policy escalates to a
//!   fleet-level action instead: the manager renegotiates `Pc` downward
//!   and tells clients to shed load.
//!
//! Every tie-break (which sick replica to quarantine first) is derived
//! from the experiment seed, so a chaos scenario replays bit-identically.

use std::collections::BTreeMap;

use aqua_core::time::{Duration, Instant};

/// EWMA smoothing factor for per-replica queue depths in `(0, 1]`; higher
/// weighs fresh samples more.
const QUEUE_SMOOTHING: f64 = 0.2;

/// Minimum time between fleet-level escalations.
const ESCALATION_COOLDOWN: Duration = Duration::from_secs(60);

/// The correlation window for escalation, and how far back set-scoped
/// alerts hold a raise of the target.
const CORRELATED_WINDOW: Duration = Duration::from_secs(10);

/// Tunables for [`SupervisorPolicy`].
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// Lower bound on the effective replication target.
    pub min_replication: usize,
    /// Upper bound on the effective replication target.
    pub max_replication: usize,
    /// Fleet-mean smoothed queue depth at or above which the fleet is
    /// overloaded (replication backs off).
    pub overload_queue: f64,
    /// Fleet-mean smoothed queue depth at or below which the fleet is
    /// underloaded (replication expands).
    pub underload_queue: f64,
    /// Replica-scoped calibration alerts inside `sick_window` before a
    /// replica is quarantined.
    pub sick_alerts: u32,
    /// How far back replica alerts count toward quarantine.
    pub sick_window: Duration,
    /// Distinct degrading replicas inside `CORRELATED_WINDOW` (10 s) that
    /// turn per-replica restarts into a fleet-level escalation.
    pub correlated_count: usize,
    /// Minimum time between consecutive target changes, and between
    /// consecutive quarantines (rolling restarts are rolling).
    pub decision_interval: Duration,
    /// The experiment seed; every tie-break is a pure function of it.
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            min_replication: 1,
            max_replication: 4,
            overload_queue: 4.0,
            underload_queue: 1.0,
            sick_alerts: 2,
            sick_window: Duration::from_secs(30),
            correlated_count: 3,
            decision_interval: Duration::from_secs(5),
            seed: 0,
        }
    }
}

/// One decision out of [`SupervisorPolicy::tick`], in actuation order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SupervisorAction {
    /// The effective replication target moved. The actuator tops up from
    /// the standby pool on a raise and drains surplus replicas back to
    /// standby on a lower.
    SetTarget {
        /// The new effective target, within `[min, max]`.
        target: usize,
        /// Why it moved (`"overload"` / `"underload"`), for the journal.
        reason: &'static str,
    },
    /// Quarantine one sick replica: drain it, roll it, let probation
    /// readmit it.
    Quarantine {
        /// The replica to drain.
        replica: u64,
    },
    /// Correlated degradation: act on the fleet, not the member.
    Escalate {
        /// Every replica degrading inside the correlation window.
        degraded: Vec<u64>,
    },
}

/// Per-replica observation state.
#[derive(Clone, Debug, Default)]
struct ReplicaSignals {
    /// Smoothed queue depth from perf updates.
    queue_ewma: Option<f64>,
    /// Timestamps of recent replica-scoped calibration alerts.
    alerts: Vec<Instant>,
}

/// The supervisor's decision engine. See the module docs.
#[derive(Clone, Debug)]
pub struct SupervisorPolicy {
    config: SupervisorConfig,
    target: usize,
    replicas: BTreeMap<u64, ReplicaSignals>,
    /// Timestamps of recent set-scoped (whole-selection) alerts.
    set_alerts: Vec<Instant>,
    last_target_change: Option<Instant>,
    last_quarantine: Option<Instant>,
    last_escalation: Option<Instant>,
}

/// The instant `window` before `now`, clamped at the epoch.
fn cutoff(now: Instant, window: Duration) -> Instant {
    Instant::from_nanos(now.as_nanos().saturating_sub(window.as_nanos()))
}

/// SplitMix64 avalanche used for seeded tie-breaks (shared with the
/// manager's surplus-drain ordering).
pub(crate) fn mix(seed: u64, value: u64) -> u64 {
    let mut x = seed ^ value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl SupervisorPolicy {
    /// A policy starting at `initial_target` replicas (clamped to the
    /// configured bounds).
    pub fn new(initial_target: usize, config: SupervisorConfig) -> Self {
        let target = initial_target.clamp(config.min_replication, config.max_replication);
        SupervisorPolicy {
            config,
            target,
            replicas: BTreeMap::new(),
            set_alerts: Vec::new(),
            last_target_change: None,
            last_quarantine: None,
            last_escalation: None,
        }
    }

    /// The current effective replication target.
    pub fn target(&self) -> usize {
        self.target
    }

    /// The active tunables.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Feeds one calibration alert: `replica` is the sick member for
    /// replica-scoped alerts, `None` for set-scoped (whole-selection)
    /// drift.
    pub fn on_alert(&mut self, now: Instant, replica: Option<u64>) {
        match replica {
            Some(r) => self.replicas.entry(r).or_default().alerts.push(now),
            None => self.set_alerts.push(now),
        }
    }

    /// Feeds one queue-depth observation from a replica's piggybacked
    /// perf update.
    pub fn on_queue_sample(&mut self, replica: u64, queue_len: u32) {
        let alpha = QUEUE_SMOOTHING;
        let signals = self.replicas.entry(replica).or_default();
        let q = f64::from(queue_len);
        signals.queue_ewma = Some(match signals.queue_ewma {
            Some(prev) => prev + alpha * (q - prev),
            None => q,
        });
    }

    /// Forgets a replica's signal history (it left the fleet — drained,
    /// crashed, or evicted). A rejoin starts clean.
    pub fn forget(&mut self, replica: u64) {
        self.replicas.remove(&replica);
    }

    /// Mean smoothed queue depth over `live`, when enough of the fleet
    /// has reported.
    fn fleet_queue(&self, live: &[u64]) -> Option<f64> {
        let depths: Vec<f64> = live
            .iter()
            .filter_map(|r| self.replicas.get(r).and_then(|s| s.queue_ewma))
            .collect();
        // Half-fleet coverage guards against deciding off one noisy host.
        if depths.is_empty() || depths.len() * 2 < live.len() {
            return None;
        }
        Some(depths.iter().sum::<f64>() / depths.len() as f64)
    }

    fn expire(&mut self, now: Instant) {
        let sick_cutoff = cutoff(now, self.config.sick_window);
        for signals in self.replicas.values_mut() {
            signals.alerts.retain(|t| *t >= sick_cutoff);
        }
        let set_cutoff = cutoff(now, CORRELATED_WINDOW);
        self.set_alerts.retain(|t| *t >= set_cutoff);
    }

    /// Runs one decision round against the live fleet (replica ids
    /// currently in the view). Returns actions in actuation order; the
    /// policy assumes the actuator carries every one of them out.
    pub fn tick(&mut self, now: Instant, live: &[u64]) -> Vec<SupervisorAction> {
        self.expire(now);
        let mut actions = Vec::new();
        let correlated_cutoff = cutoff(now, CORRELATED_WINDOW);

        // 1. Correlated degradation first: if the fault is fleet-wide,
        //    restarting members one by one just thins the fleet.
        let degraded: Vec<u64> = self
            .replicas
            .iter()
            .filter(|(_, s)| s.alerts.iter().any(|t| *t >= correlated_cutoff))
            .map(|(r, _)| *r)
            .collect();
        let escalation_due = self
            .last_escalation
            .is_none_or(|t| now.saturating_duration_since(t) >= ESCALATION_COOLDOWN);
        if degraded.len() >= self.config.correlated_count.max(1) && escalation_due {
            self.last_escalation = Some(now);
            // The alerts are consumed by the escalation: the same burst
            // must not also trigger per-replica quarantines.
            for signals in self.replicas.values_mut() {
                signals.alerts.clear();
            }
            actions.push(SupervisorAction::Escalate { degraded });
            return actions;
        }

        // 2. Sick-replica quarantine, at most one per decision interval
        //    (rolling restarts are rolling), never below min live.
        let quarantine_due = self
            .last_quarantine
            .is_none_or(|t| now.saturating_duration_since(t) >= self.config.decision_interval);
        if quarantine_due && live.len() > self.config.min_replication {
            let mut sick: Vec<u64> = self
                .replicas
                .iter()
                .filter(|(r, s)| {
                    live.contains(r) && s.alerts.len() >= self.config.sick_alerts as usize
                })
                .map(|(r, _)| *r)
                .collect();
            // Seeded tie-break: which sick replica restarts first is a
            // pure function of the experiment seed, so seeded chaos runs
            // replay bit-identically.
            sick.sort_by_key(|r| (mix(self.config.seed, *r), *r));
            if let Some(victim) = sick.first().copied() {
                self.last_quarantine = Some(now);
                self.replicas.remove(&victim);
                actions.push(SupervisorAction::Quarantine { replica: victim });
            }
        }

        // 3. Load adaptation, one step per decision interval.
        let change_due = self
            .last_target_change
            .is_none_or(|t| now.saturating_duration_since(t) >= self.config.decision_interval);
        if change_due {
            let fleet_queue = self.fleet_queue(live);
            let overloaded = fleet_queue.is_some_and(|q| q >= self.config.overload_queue);
            let set_drifting = self.set_alerts.iter().any(|t| *t >= correlated_cutoff);
            let underloaded =
                fleet_queue.is_some_and(|q| q <= self.config.underload_queue) && !set_drifting;
            let proposed = if overloaded {
                self.target.saturating_sub(1)
            } else if underloaded {
                self.target + 1
            } else {
                self.target
            };
            let proposed = proposed.clamp(self.config.min_replication, self.config.max_replication);
            if proposed != self.target {
                self.target = proposed;
                self.last_target_change = Some(now);
                actions.push(SupervisorAction::SetTarget {
                    target: proposed,
                    reason: if overloaded { "overload" } else { "underload" },
                });
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(v: u64) -> Instant {
        Instant::from_secs(v)
    }

    fn config() -> SupervisorConfig {
        SupervisorConfig {
            min_replication: 2,
            max_replication: 5,
            seed: 7,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn overload_shrinks_the_target_to_the_floor() {
        let mut p = SupervisorPolicy::new(4, config());
        let live = [0, 1, 2, 3];
        let mut shrinks = Vec::new();
        for t in 0..60 {
            for r in &live {
                p.on_queue_sample(*r, 12);
            }
            for a in p.tick(secs(t), &live) {
                if let SupervisorAction::SetTarget { target, reason } = a {
                    assert_eq!(reason, "overload");
                    shrinks.push(target);
                }
            }
        }
        assert_eq!(shrinks, vec![3, 2], "one step per interval, floored");
        assert_eq!(p.target(), 2);
    }

    #[test]
    fn underload_grows_the_target_to_the_ceiling() {
        let mut p = SupervisorPolicy::new(3, config());
        let live = [0, 1, 2];
        let mut grows = Vec::new();
        for t in 0..60 {
            for r in &live {
                p.on_queue_sample(*r, 0);
            }
            for a in p.tick(secs(t), &live) {
                if let SupervisorAction::SetTarget { target, reason } = a {
                    assert_eq!(reason, "underload");
                    grows.push(target);
                }
            }
        }
        assert_eq!(grows, vec![4, 5]);
        assert_eq!(p.target(), 5);
    }

    #[test]
    fn no_decision_without_fleet_coverage() {
        let mut p = SupervisorPolicy::new(4, config());
        // Only one of four replicas ever reports: too thin to act on.
        p.on_queue_sample(0, 50);
        assert!(p.tick(secs(10), &[0, 1, 2, 3]).is_empty());
    }

    #[test]
    fn sick_replica_is_quarantined_after_repeated_alerts() {
        let mut p = SupervisorPolicy::new(3, config());
        let live = [0, 1, 2];
        p.on_alert(secs(1), Some(1));
        assert!(p.tick(secs(2), &live).is_empty(), "one alert is noise");
        p.on_alert(secs(3), Some(1));
        let actions = p.tick(secs(4), &live);
        assert_eq!(actions, vec![SupervisorAction::Quarantine { replica: 1 }]);
        // History cleared: no immediate second quarantine of the same one.
        assert!(p.tick(secs(20), &live).is_empty());
    }

    #[test]
    fn quarantine_never_drops_live_below_the_floor() {
        let mut p = SupervisorPolicy::new(2, config());
        p.on_alert(secs(1), Some(0));
        p.on_alert(secs(2), Some(0));
        assert!(
            p.tick(secs(3), &[0, 1]).is_empty(),
            "two live at min 2: hold"
        );
        assert_eq!(
            p.tick(secs(3), &[0, 1, 2]),
            vec![SupervisorAction::Quarantine { replica: 0 }]
        );
    }

    #[test]
    fn quarantine_order_is_a_pure_function_of_the_seed() {
        // Two sick replicas: below the correlation threshold, so the
        // policy restarts one of them — the tie-break under test.
        let pick_first = |seed: u64| {
            let mut p = SupervisorPolicy::new(3, SupervisorConfig { seed, ..config() });
            for r in 0..2 {
                p.on_alert(secs(1), Some(r));
                p.on_alert(secs(2), Some(r));
            }
            match p.tick(secs(3), &[0, 1, 2, 3]).first() {
                Some(SupervisorAction::Quarantine { replica }) => *replica,
                other => panic!("expected quarantine, got {other:?}"),
            }
        };
        // Same seed twice → same victim (bit-identical replay)…
        assert_eq!(pick_first(7), pick_first(7));
        // …and across seeds the choice varies (it is not just "lowest id").
        let picks: std::collections::BTreeSet<u64> = (0..16).map(pick_first).collect();
        assert!(picks.len() > 1, "seed actually enters the tie-break");
    }

    #[test]
    fn correlated_degradation_escalates_instead_of_restarting() {
        let mut p = SupervisorPolicy::new(4, config());
        let live = [0, 1, 2, 3];
        for r in 0..3 {
            p.on_alert(secs(5), Some(r));
            p.on_alert(secs(6), Some(r));
        }
        let actions = p.tick(secs(7), &live);
        assert_eq!(
            actions,
            vec![SupervisorAction::Escalate {
                degraded: vec![0, 1, 2]
            }],
            "fleet-level action, no per-replica quarantine"
        );
        // Cooldown: the same burst does not re-escalate.
        p.on_alert(secs(8), Some(0));
        p.on_alert(secs(8), Some(1));
        p.on_alert(secs(8), Some(2));
        let again = p.tick(secs(9), &live);
        assert!(
            !again
                .iter()
                .any(|a| matches!(a, SupervisorAction::Escalate { .. })),
            "{again:?}"
        );
    }

    #[test]
    fn stale_alerts_expire_out_of_the_windows() {
        let mut p = SupervisorPolicy::new(3, config());
        p.on_alert(secs(1), Some(2));
        p.on_alert(secs(2), Some(2));
        // 40 s later both alerts fell out of the 30 s sick window.
        assert!(p.tick(secs(42), &[0, 1, 2]).is_empty());
    }
}
