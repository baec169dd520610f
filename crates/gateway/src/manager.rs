//! The Proteus dependability manager (§2), grown into an elastic
//! supervisor.
//!
//! "The Proteus dependability manager manages the replication level for
//! different applications based on their dependability requirements." The
//! baseline duty is unchanged: watch the group view, and whenever the
//! number of live server replicas drops below the target, activate
//! replicas from a standby pool (processes that are running but have not
//! joined the service group).
//!
//! With [`ManagerConfig::supervision`] set, the manager additionally runs
//! the [`SupervisorPolicy`] loops:
//!
//! * **Load-adaptive replication** — the effective target moves inside
//!   `[min, max]`: down under overload (every extra copy of a request is
//!   more queued work — Poloczek & Ciucu), up under underload. Surplus
//!   replicas are drained back into the standby pool, deficits are topped
//!   up from it.
//! * **Rolling restarts** — a replica whose per-replica calibration stays
//!   degraded is drained (graceful group leave; queued work completes),
//!   rested for `RESTART_DELAY` (500 ms), and returned to the
//!   pool; clients readmit a rejoining replica through probation.
//! * **Escalation** — when enough replicas degrade inside one correlation
//!   window the manager stops restarting members and acts on the fleet:
//!   it journals an `escalation` event and multicasts a
//!   [`AquaMsg::Directive`] telling clients to renegotiate `Pc` downward
//!   and shed load.
//!
//! The manager observes the fleet through the same channels the paper's
//! gateways use: it subscribes to every replica's piggybacked
//! [`AquaMsg::PerfUpdate`]s (queue depths) and receives
//! [`AquaMsg::AlertReport`]s forwarded by the clients' QoS-calibration
//! watchdogs. Every supervisor-initiated drain is journalled as a `fault`
//! window (kind `drain`, ids offset by [`DRAIN_WINDOW_BASE`]) so the
//! forensics analyzer attributes any miss it causes to
//! `supervisor_drain`, not to an environmental fault.

use std::collections::{BTreeMap, BTreeSet};

use aqua_core::qos::ReplicaId;
use aqua_core::time::{Duration, Instant};
use aqua_group::{FailureDetectorConfig, GroupMsg, Member, MembershipAgent};
use aqua_obs::json::JsonValue;
use aqua_obs::Obs;
use lan_sim::{Context, Event, Node, NodeId};

use crate::proto::{AquaMsg, Wire};
use crate::supervisor::{mix, SupervisorAction, SupervisorConfig, SupervisorPolicy};

/// Journal window ids for supervisor-initiated drains start here, far
/// above any fault plan's indices, so the two id spaces never collide.
pub const DRAIN_WINDOW_BASE: u64 = 1_000_000;

/// How often the manager re-checks the replication level (besides reacting
/// to every view change).
const CHECK_INTERVAL: Duration = Duration::from_millis(200);

/// The manager does not enforce during this long after start: views
/// installed while the group is still forming under-count the servers
/// (their joins are in flight), and acting on them would activate standbys
/// spuriously.
const STARTUP_GRACE: Duration = Duration::from_secs(1);

/// Rest period between a drained replica leaving the view and its node
/// returning to the standby pool. Long enough for the drained process to
/// finish stragglers and go dormant, so a subsequent `Activate` cannot race
/// the tail of the drain.
const RESTART_DELAY: Duration = Duration::from_millis(500);

/// The `Pc` clients renegotiate down to when correlated degradation
/// escalates to a fleet-level action.
const ESCALATE_PC: f64 = 0.8;

/// Elastic-supervision tunables layered on top of [`ManagerConfig`].
#[derive(Clone, Copy, Debug)]
pub struct SupervisionConfig {
    /// The decision engine's tunables (bounds, thresholds, seed).
    pub policy: SupervisorConfig,
    /// How long clients shed load after an escalation.
    pub shed_for: Duration,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            policy: SupervisorConfig::default(),
            shed_for: Duration::from_secs(2),
        }
    }
}

/// Configuration of the dependability manager.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// The group coordinator node.
    pub coordinator: NodeId,
    /// Desired number of live server replicas (the initial effective
    /// target when supervision is on).
    pub target_replication: usize,
    /// Standby server nodes (spawned with `standby: true`) that can be
    /// activated, in activation order.
    pub standbys: Vec<NodeId>,
    /// Elastic supervision; `None` keeps the fixed-target baseline.
    pub supervision: Option<SupervisionConfig>,
}

/// One supervisor-initiated drain in flight.
#[derive(Debug, Clone, Copy)]
struct DrainRecord {
    node: NodeId,
    replica: u64,
    /// Journal window id (`DRAIN_WINDOW_BASE + seq`).
    window: u64,
    started: Instant,
    /// When the drained replica disappeared from the view (its graceful
    /// leave was installed); `None` while it is still finishing work.
    left: Option<Instant>,
}

/// The dependability manager node. See the module docs.
pub struct DependabilityManager {
    config: ManagerConfig,
    agent: Option<MembershipAgent>,
    enforce_after: Option<Instant>,
    /// Standby nodes available for activation, in activation order.
    /// Drained replicas return here once their rest period elapses.
    pool: Vec<NodeId>,
    /// Activated standbys that have not appeared in a view yet, with the
    /// time of the last `Activate` poke — re-sent while the join is
    /// outstanding, since the network may drop the command.
    pending_joins: BTreeMap<NodeId, Instant>,
    /// Supervisor-initiated drains in flight.
    draining: Vec<DrainRecord>,
    /// Server nodes we hold a perf-update subscription on.
    subscribed: BTreeSet<NodeId>,
    policy: Option<SupervisorPolicy>,
    obs: Option<Obs>,
    activations: u64,
    drains: u64,
    escalations: u64,
    /// Rate-limits `standby_pool_exhausted` to one event per episode.
    exhaustion_reported: bool,
}

impl std::fmt::Debug for DependabilityManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DependabilityManager")
            .field("target", &self.target())
            .field("activations", &self.activations)
            .field("drains", &self.drains)
            .field("standbys_left", &self.pool.len())
            .finish()
    }
}

impl DependabilityManager {
    /// Creates a manager from its configuration.
    pub fn new(config: ManagerConfig) -> Self {
        let pool = config.standbys.clone();
        let policy = config
            .supervision
            .map(|s| SupervisorPolicy::new(config.target_replication, s.policy));
        DependabilityManager {
            config,
            agent: None,
            enforce_after: None,
            pool,
            pending_joins: BTreeMap::new(),
            draining: Vec::new(),
            subscribed: BTreeSet::new(),
            policy,
            obs: None,
            activations: 0,
            drains: 0,
            escalations: 0,
            exhaustion_reported: false,
        }
    }

    /// Attaches an observability bundle: supervisor decisions, drain
    /// windows, escalations, and pool exhaustion get journalled and
    /// counted through it.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = Some(obs.clone());
        self
    }

    /// The effective replication target (moved by the supervisor when
    /// supervision is on, the configured constant otherwise).
    pub fn target(&self) -> usize {
        self.policy
            .as_ref()
            .map_or(self.config.target_replication, SupervisorPolicy::target)
    }

    fn emit_event(&self, kind: &str, fields: aqua_obs::json::JsonObject) {
        if let Some(obs) = &self.obs {
            obs.journal().emit_event(kind, fields);
        }
    }

    fn count(&self, name: &str, labels: &[(&str, &str)]) {
        if let Some(obs) = &self.obs {
            obs.registry().counter(name, labels).inc();
        }
    }

    /// Emits one edge of a supervisor drain window. The shape mirrors the
    /// fault injector's journal lines so the forensics analyzer joins the
    /// window by stable id and recognizes `kind: "drain"`.
    fn emit_drain_edge(&self, rec: &DrainRecord, phase: &str, at: Instant) {
        self.emit_event(
            "fault",
            JsonValue::object()
                .field("phase", phase)
                .field("kind", "drain")
                .field("window", rec.window)
                .field("at_ns", at.as_nanos())
                .field("start_ns", rec.started.as_nanos())
                .field("replica", rec.replica),
        );
    }

    fn enforce_replication(&mut self, ctx: &mut Context<'_, Wire>) {
        let Some(agent) = self.agent.as_ref() else {
            return;
        };
        // Never act before the first view arrives (an empty membership
        // snapshot is indistinguishable from "everything crashed") or
        // while the group is still forming.
        if agent.view().id == 0 || self.enforce_after.is_none_or(|t| ctx.now() < t) {
            return;
        }
        let view = agent.view();
        let live = view.servers().count();
        // The Activate command travels over the same faulty network as
        // everything else: re-poke any standby whose join is still
        // outstanding after two check intervals, in case the first
        // command was lost. Activation is idempotent on the server side.
        let now = ctx.now();
        let repoke_after = CHECK_INTERVAL.saturating_mul(2);
        let mut repoke = Vec::new();
        for (node, poked) in &mut self.pending_joins {
            if !view.contains(*node) && now.saturating_duration_since(*poked) >= repoke_after {
                *poked = now;
                repoke.push(*node);
            }
        }
        for node in repoke {
            ctx.send(node, GroupMsg::App(AquaMsg::Activate));
        }
        // Account for activations already in flight (standbys we poked
        // that have not appeared in a view yet): every activated standby
        // beyond the live servers counts toward the target.
        let in_flight = self
            .pending_joins
            .keys()
            .filter(|n| !view.contains(**n))
            .count();
        let mut deficit = self.target().saturating_sub(live).saturating_sub(in_flight);
        while deficit > 0 && !self.pool.is_empty() {
            let standby = self.pool.remove(0);
            self.pending_joins.insert(standby, ctx.now());
            self.activations += 1;
            self.count("aqua_manager_activations_total", &[]);
            self.emit_event(
                "supervisor",
                JsonValue::object()
                    .field("action", "activate")
                    .field("node", u64::from(standby.index()))
                    .field("at_ns", ctx.now().as_nanos()),
            );
            ctx.send(standby, GroupMsg::App(AquaMsg::Activate));
            deficit -= 1;
        }
        if deficit > 0 {
            // The pool ran dry with the fleet still below target: journal
            // it once per episode so operators (and the soak gate) see the
            // capacity floor was hit.
            if !self.exhaustion_reported {
                self.exhaustion_reported = true;
                self.count("aqua_manager_pool_exhausted_total", &[]);
                self.emit_event(
                    "standby_pool_exhausted",
                    JsonValue::object()
                        .field("target", self.target())
                        .field("live", live)
                        .field("deficit", deficit)
                        .field("at_ns", ctx.now().as_nanos()),
                );
            }
        } else {
            self.exhaustion_reported = false;
        }
    }

    /// Starts a graceful drain of `replica`, journalling the window that
    /// lets forensics attribute any resulting miss to the supervisor.
    fn drain_replica(&mut self, ctx: &mut Context<'_, Wire>, replica: u64, action: &str) {
        let Some(agent) = self.agent.as_ref() else {
            return;
        };
        let Some(node) = agent.view().node_of(ReplicaId::new(replica)) else {
            return;
        };
        if self.draining.iter().any(|d| d.node == node) {
            return;
        }
        let rec = DrainRecord {
            node,
            replica,
            window: DRAIN_WINDOW_BASE + self.drains,
            started: ctx.now(),
            left: None,
        };
        self.drains += 1;
        self.count("aqua_supervisor_drains_total", &[("action", action)]);
        self.emit_event(
            "supervisor",
            JsonValue::object()
                .field("action", action)
                .field("replica", replica)
                .field("window", rec.window)
                .field("at_ns", ctx.now().as_nanos()),
        );
        self.emit_drain_edge(&rec, "active", ctx.now());
        self.draining.push(rec);
        ctx.send(node, GroupMsg::App(AquaMsg::Drain));
    }

    /// Drains surplus replicas down to `target`, picking victims in the
    /// seeded tie-break order so replays are bit-identical.
    fn drain_surplus(&mut self, ctx: &mut Context<'_, Wire>, target: usize, seed: u64) {
        let Some(agent) = self.agent.as_ref() else {
            return;
        };
        let draining: BTreeSet<u64> = self.draining.iter().map(|d| d.replica).collect();
        let mut live: Vec<u64> = agent
            .view()
            .replica_ids()
            .map(ReplicaId::index)
            .filter(|r| !draining.contains(r))
            .collect();
        live.sort_by_key(|r| (mix(seed, *r), *r));
        let surplus = live.len().saturating_sub(target);
        for replica in live.into_iter().take(surplus) {
            self.drain_replica(ctx, replica, "shrink");
        }
    }

    /// One supervision round: finish rested drains, tick the policy, and
    /// actuate its decisions.
    fn supervise(&mut self, ctx: &mut Context<'_, Wire>) {
        let Some(sup) = self.config.supervision else {
            return;
        };
        let now = ctx.now();
        // Drains whose rest period elapsed: the node is dormant again and
        // safe to treat as a standby. Drains whose graceful leave has not
        // been observed yet get the command re-sent — the Drain travels
        // over the faulty network too, and begin_drain is idempotent.
        let repoke_after = CHECK_INTERVAL.saturating_mul(2);
        let mut i = 0;
        while i < self.draining.len() {
            let rec = self.draining[i];
            let due = rec
                .left
                .is_some_and(|left| now.saturating_duration_since(left) >= RESTART_DELAY);
            if due {
                self.draining.remove(i);
                self.pool.push(rec.node);
                self.emit_event(
                    "supervisor",
                    JsonValue::object()
                        .field("action", "restart_ready")
                        .field("replica", rec.replica)
                        .field("window", rec.window)
                        .field("at_ns", now.as_nanos()),
                );
            } else {
                if rec.left.is_none() && now.saturating_duration_since(rec.started) >= repoke_after
                {
                    ctx.send(rec.node, GroupMsg::App(AquaMsg::Drain));
                }
                i += 1;
            }
        }

        let Some(agent) = self.agent.as_ref() else {
            return;
        };
        if agent.view().id == 0 || self.enforce_after.is_none_or(|t| now < t) {
            return;
        }
        let draining: BTreeSet<u64> = self.draining.iter().map(|d| d.replica).collect();
        let live: Vec<u64> = agent
            .view()
            .replica_ids()
            .map(ReplicaId::index)
            .filter(|r| !draining.contains(r))
            .collect();
        let Some(policy) = self.policy.as_mut() else {
            return;
        };
        let actions = policy.tick(now, &live);
        for action in actions {
            match action {
                SupervisorAction::SetTarget { target, reason } => {
                    self.count(
                        "aqua_supervisor_target_changes_total",
                        &[("reason", reason)],
                    );
                    self.emit_event(
                        "supervisor",
                        JsonValue::object()
                            .field("action", "set_target")
                            .field("target", target)
                            .field("reason", reason)
                            .field("at_ns", now.as_nanos()),
                    );
                    if live.len() > target {
                        self.drain_surplus(ctx, target, sup.policy.seed);
                    }
                }
                SupervisorAction::Quarantine { replica } => {
                    self.count("aqua_supervisor_quarantines_total", &[]);
                    self.drain_replica(ctx, replica, "quarantine");
                }
                SupervisorAction::Escalate { degraded } => {
                    self.escalations += 1;
                    self.count("aqua_supervisor_escalations_total", &[]);
                    self.emit_event(
                        "escalation",
                        JsonValue::object()
                            .field(
                                "degraded",
                                JsonValue::Array(
                                    degraded.iter().map(|r| JsonValue::from(*r)).collect(),
                                ),
                            )
                            .field("pc", ESCALATE_PC)
                            .field("shed_ms", sup.shed_for.as_nanos() / 1_000_000)
                            .field("at_ns", now.as_nanos()),
                    );
                    let directive = GroupMsg::App(AquaMsg::Directive {
                        renegotiate_pc: Some(ESCALATE_PC),
                        shed_for: Some(sup.shed_for),
                    });
                    let me = ctx.self_id();
                    let clients: Vec<NodeId> = self
                        .agent
                        .as_ref()
                        .map(|a| {
                            a.view()
                                .clients()
                                .map(|m| m.node)
                                .filter(|n| *n != me)
                                .collect()
                        })
                        .unwrap_or_default();
                    if !clients.is_empty() {
                        ctx.multicast(&clients, directive);
                    }
                }
            }
        }
    }

    /// Reacts to an installed view: settle pending joins, notice drained
    /// replicas leaving, and keep perf-update subscriptions current.
    fn on_view_installed(&mut self, ctx: &mut Context<'_, Wire>) {
        let Some(agent) = self.agent.as_ref() else {
            return;
        };
        let view = agent.view();
        let now = ctx.now();
        self.pending_joins.retain(|n, _| !view.contains(*n));
        self.subscribed.retain(|n| view.contains(*n));
        // A drained replica disappearing from the view means its graceful
        // leave was installed: close the journal window there. (It may
        // still be finishing stragglers; the rest period covers that.)
        let mut left = Vec::new();
        for rec in &mut self.draining {
            if rec.left.is_none() && !view.contains(rec.node) {
                rec.left = Some(now);
                left.push(*rec);
            }
        }
        let server_nodes: Vec<(NodeId, u64)> = view
            .servers()
            .filter_map(|m| m.replica.map(|r| (m.node, r.index())))
            .collect();
        for rec in left {
            self.emit_drain_edge(&rec, "cleared", now);
            if let Some(policy) = self.policy.as_mut() {
                policy.forget(rec.replica);
            }
        }
        // Subscribe to every server we are not already subscribed to (a
        // recovered or reactivated replica forgets its subscribers, but
        // it also re-enters the view through a fresh join, which drops it
        // from `subscribed` in the retain above while it is away).
        if self.policy.is_some() {
            let me = ctx.self_id();
            for (node, _) in server_nodes {
                if self.subscribed.insert(node) {
                    ctx.send(node, GroupMsg::App(AquaMsg::Subscribe { client: me }));
                }
            }
        }
        self.enforce_replication(ctx);
    }
}

impl Node<Wire> for DependabilityManager {
    fn on_event(&mut self, event: Event<Wire>, ctx: &mut Context<'_, Wire>) {
        match event {
            Event::Started => {
                let me = Member::client(ctx.self_id());
                let group = FailureDetectorConfig::default();
                let mut agent = MembershipAgent::new(self.config.coordinator, me, group);
                agent.on_started(ctx);
                self.agent = Some(agent);
                self.enforce_after = Some(ctx.now().saturating_add(STARTUP_GRACE));
                ctx.set_timer(CHECK_INTERVAL);
            }
            Event::Timer { token } => {
                if let Some(agent) = self.agent.as_mut() {
                    if agent.on_timer(token, ctx) {
                        return;
                    }
                }
                self.supervise(ctx);
                self.enforce_replication(ctx);
                ctx.set_timer(CHECK_INTERVAL);
            }
            Event::Message { payload, .. } => match payload {
                GroupMsg::ViewChange(view) => {
                    let installed = self
                        .agent
                        .as_mut()
                        .expect("started")
                        .on_view_change(view)
                        .is_some();
                    if installed {
                        self.on_view_installed(ctx);
                    }
                }
                GroupMsg::App(AquaMsg::PerfUpdate { replica, perf }) => {
                    if let Some(policy) = self.policy.as_mut() {
                        policy.on_queue_sample(replica.index(), perf.queue_len);
                    }
                }
                GroupMsg::App(AquaMsg::AlertReport { replica, .. }) => {
                    if let Some(policy) = self.policy.as_mut() {
                        policy.on_alert(ctx.now(), replica);
                    }
                }
                _ => {}
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientConfig, ClientGateway, ServerConfig, ServerGateway};
    use aqua_core::qos::{QosSpec, ReplicaId};
    use aqua_core::time::Instant;
    use aqua_faults::FaultPlan;
    use aqua_group::GroupCoordinator;
    use aqua_replica::{LoadModel, ServiceTimeModel};
    use aqua_strategies::ModelBased;
    use lan_sim::{Simulation, UniformLan};

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn standby_is_activated_after_a_crash() {
        let mut sim = Simulation::with_network(51, UniformLan::aqua_testbed());
        let coordinator = sim.add_node(GroupCoordinator::<AquaMsg>::new(
            FailureDetectorConfig::default(),
        ));
        // Three active replicas, one of which crashes at 2 s.
        for i in 0..3u64 {
            let mut cfg = ServerConfig::paper(ReplicaId::new(i), coordinator);
            cfg.service = ServiceTimeModel::Deterministic(ms(40));
            if i == 0 {
                let crash = FaultPlan::new().crash_recover(0, Instant::from_secs(2), Duration::MAX);
                cfg.faults = Some(crash.instantiate(51));
            }
            sim.add_node(ServerGateway::new(cfg));
        }
        // Two standbys.
        let mut standbys = Vec::new();
        for i in 3..5u64 {
            let mut cfg = ServerConfig::paper(ReplicaId::new(i), coordinator);
            cfg.service = ServiceTimeModel::Deterministic(ms(40));
            cfg.standby = true;
            standbys.push(sim.add_node(ServerGateway::new(cfg)));
        }
        let manager = sim.add_node(DependabilityManager::new(ManagerConfig {
            coordinator,
            target_replication: 3,
            standbys: standbys.clone(),
            supervision: None,
        }));
        let mut ccfg = ClientConfig::paper(coordinator, QosSpec::new(ms(300), 0.9).unwrap());
        ccfg.num_requests = Some(40);
        ccfg.think_time = ms(250);
        let client = sim.add_node(ClientGateway::new(ccfg, Box::new(ModelBased::default())));

        // Before the crash: 3 live servers, standbys dormant.
        sim.run_until(Instant::from_millis(1_800));
        {
            let coord = sim.node::<GroupCoordinator<AquaMsg>>(coordinator).unwrap();
            assert_eq!(coord.view().servers().count(), 3);
            let mgr = sim.node::<DependabilityManager>(manager).unwrap();
            assert_eq!(mgr.activations, 0);
        }

        // After the crash + detection: the manager restores the level.
        sim.run_until(Instant::from_secs(30));
        let coord = sim.node::<GroupCoordinator<AquaMsg>>(coordinator).unwrap();
        assert_eq!(
            coord.view().servers().count(),
            3,
            "replication level restored"
        );
        let mgr = sim.node::<DependabilityManager>(manager).unwrap();
        assert_eq!(mgr.activations, 1, "exactly one standby activated");
        assert_eq!(mgr.pool.len(), 1);
        // The standby replica (r3) is now in the client's repository and
        // has serviced work.
        let standby_node = sim.node::<ServerGateway>(standbys[0]).unwrap();
        assert!(standby_node.serviced > 0, "{standby_node:?}");
        let gw = sim.node::<ClientGateway>(client).unwrap();
        assert!(gw
            .handler()
            .unwrap()
            .repository()
            .contains(ReplicaId::new(3)));
    }

    #[test]
    fn manager_does_not_overshoot_the_target() {
        let mut sim = Simulation::with_network(52, UniformLan::aqua_testbed());
        let coordinator = sim.add_node(GroupCoordinator::<AquaMsg>::new(
            FailureDetectorConfig::default(),
        ));
        for i in 0..2u64 {
            sim.add_node(ServerGateway::new(ServerConfig::paper(
                ReplicaId::new(i),
                coordinator,
            )));
        }
        let mut standbys = Vec::new();
        for i in 2..6u64 {
            let mut cfg = ServerConfig::paper(ReplicaId::new(i), coordinator);
            cfg.standby = true;
            standbys.push(sim.add_node(ServerGateway::new(cfg)));
        }
        let manager = sim.add_node(DependabilityManager::new(ManagerConfig {
            coordinator,
            target_replication: 4,
            standbys,
            supervision: None,
        }));
        sim.run_until(Instant::from_secs(10));
        // Target 4 with 2 active: exactly 2 activations even though the
        // check timer fired many times while joins were in flight.
        let mgr = sim.node::<DependabilityManager>(manager).unwrap();
        assert_eq!(mgr.activations, 2);
        let coord = sim.node::<GroupCoordinator<AquaMsg>>(coordinator).unwrap();
        assert_eq!(coord.view().servers().count(), 4);
    }

    #[test]
    fn overload_drains_surplus_replicas_back_to_the_pool() {
        let mut sim = Simulation::with_network(53, UniformLan::aqua_testbed());
        let coordinator = sim.add_node(GroupCoordinator::<AquaMsg>::new(
            FailureDetectorConfig::default(),
        ));
        // Four slow replicas: a steady request stream overwhelms them, so
        // queue depths stay high and the supervisor backs replication off.
        for i in 0..4u64 {
            let mut cfg = ServerConfig::paper(ReplicaId::new(i), coordinator);
            cfg.service = ServiceTimeModel::Deterministic(ms(120));
            cfg.load = LoadModel::nominal();
            sim.add_node(ServerGateway::new(cfg));
        }
        let supervision = SupervisionConfig {
            policy: SupervisorConfig {
                min_replication: 2,
                max_replication: 4,
                overload_queue: 2.0,
                underload_queue: 0.2,
                decision_interval: ms(500),
                seed: 53,
                ..SupervisorConfig::default()
            },
            ..SupervisionConfig::default()
        };
        let (obs, reader) = Obs::in_memory();
        let manager = sim.add_node(
            DependabilityManager::new(ManagerConfig {
                coordinator,
                target_replication: 4,
                standbys: Vec::new(),
                supervision: Some(supervision),
            })
            .with_obs(&obs),
        );
        // An open-loop client keeps every queue deep: a request every
        // 30 ms on average against 120 ms service.
        let mut ccfg = ClientConfig::paper(coordinator, QosSpec::new(ms(900), 0.9).unwrap());
        ccfg.num_requests = None;
        ccfg.arrivals = crate::ArrivalModel::OpenLoopPoisson {
            mean_interarrival: ms(30),
        };
        sim.add_node(ClientGateway::new(ccfg, Box::new(ModelBased::default())));

        sim.run_until(Instant::from_secs(20));
        let mgr = sim.node::<DependabilityManager>(manager).unwrap();
        assert_eq!(mgr.target(), 2, "overload shrank the target to the floor");
        assert!(mgr.drains >= 2, "surplus replicas were drained");
        let coord = sim.node::<GroupCoordinator<AquaMsg>>(coordinator).unwrap();
        assert_eq!(coord.view().servers().count(), 2);
        // Drained replicas rested and returned to the standby pool.
        assert_eq!(mgr.pool.len(), 2);
        // The journal shows the decisions and the drain fault windows.
        assert!(!reader
            .lines_containing("\"action\":\"set_target\"")
            .is_empty());
        let drains = reader.lines_containing("\"kind\":\"drain\"");
        assert!(
            drains.iter().any(|l| l.contains("\"phase\":\"active\""))
                && drains.iter().any(|l| l.contains("\"phase\":\"cleared\"")),
            "{drains:?}"
        );
        assert!(drains
            .iter()
            .all(|l| l.contains(&format!("\"window\":{DRAIN_WINDOW_BASE}"))
                || l.contains(&format!("\"window\":{}", DRAIN_WINDOW_BASE + 1))));
    }

    #[test]
    fn pool_exhaustion_is_journalled_once_per_episode() {
        let mut sim = Simulation::with_network(54, UniformLan::aqua_testbed());
        let coordinator = sim.add_node(GroupCoordinator::<AquaMsg>::new(
            FailureDetectorConfig::default(),
        ));
        // Two replicas, one crashes permanently; no standbys to cover it.
        for i in 0..2u64 {
            let mut cfg = ServerConfig::paper(ReplicaId::new(i), coordinator);
            if i == 0 {
                let crash = FaultPlan::new().crash_recover(0, Instant::from_secs(2), Duration::MAX);
                cfg.faults = Some(crash.instantiate(54));
            }
            sim.add_node(ServerGateway::new(cfg));
        }
        let (obs, reader) = Obs::in_memory();
        sim.add_node(
            DependabilityManager::new(ManagerConfig {
                coordinator,
                target_replication: 2,
                standbys: Vec::new(),
                supervision: None,
            })
            .with_obs(&obs),
        );
        sim.run_until(Instant::from_secs(12));
        let lines = reader.lines_containing("\"type\":\"standby_pool_exhausted\"");
        assert_eq!(lines.len(), 1, "one event per episode, not per check");
        assert!(lines[0].contains("\"deficit\":1"), "{}", lines[0]);
        assert!(obs
            .prometheus()
            .contains("aqua_manager_pool_exhausted_total 1"));
    }
}
