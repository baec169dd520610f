//! The simulated server-side gateway + replica application (§5.1 stages
//! 3–4, §5.4.1 server side).
//!
//! One [`ServerGateway`] node models a host running one replica: it joins
//! the multicast group as a server and drives the replica's Stage 3, an
//! [`aqua_replica::ReplicaCore`], on the simulation clock. The core queues
//! each request, stamping `t2` and `t3`, and samples its service time; the
//! node waits that out on a timer, replies with the piggybacked
//! performance data, and pushes a [`AquaMsg::PerfUpdate`] to every
//! subscriber — "each time it processes a request" (§5.4.1). The node
//! itself keeps membership, fault windows, drains and recovery.
//!
//! Crashes come only from the fault schedule's crash windows, and they are
//! silent: the node stops heartbeating and ignores every event until the
//! window ends (never, for a crash-forever window), so the group
//! coordinator evicts it via a view change.

use aqua_core::qos::ReplicaId;
use aqua_core::repository::MethodId;
use aqua_core::time::Instant;
use aqua_faults::{FaultSchedule, ReplicaHealth};
use aqua_group::{FailureDetectorConfig, GroupMsg, Member, MembershipAgent};
use aqua_replica::{LoadModel, ReplicaCore, ServiceTimeModel};
use lan_sim::{Context, Event, Node, NodeId, TimerToken};

use crate::proto::{AquaMsg, RequestId, Wire};

/// Reply payload size in bytes: the replicas "responded with an integer
/// data" (§6).
const REPLY_SIZE: u32 = 8;

/// Static configuration of one server replica host.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The replica identity this server joins the group as.
    pub replica: ReplicaId,
    /// The group coordinator node.
    pub coordinator: NodeId,
    /// Per-request service-time distribution.
    pub service: ServiceTimeModel,
    /// Method-specific overrides of `service` (multi-interface extension,
    /// §8 ext. 1): a server exporting several methods with different costs.
    pub method_services: Vec<(MethodId, ServiceTimeModel)>,
    /// Host load fluctuation.
    pub load: LoadModel,
    /// Start dormant: the replica process runs but does not join the
    /// service group until the dependability manager activates it
    /// (Proteus, §2).
    pub standby: bool,
    /// Scheduled fault injection on the simulation clock: crash windows
    /// (down, then rejoin at the window's end with an empty queue and
    /// fresh state, or never for a `Duration::MAX` window), pauses (the
    /// service stage stalls, queued work survives), and service-time
    /// degradations. Network-scoped faults (delay spikes, drops,
    /// partitions) live in the workload's network wrapper instead.
    pub faults: Option<FaultSchedule>,
}

#[cfg(test)]
impl ServerConfig {
    /// A paper-style server: Normal(100 ms, σ50 ms) service, steady host,
    /// no crash.
    pub(crate) fn paper(replica: ReplicaId, coordinator: NodeId) -> Self {
        ServerConfig {
            replica,
            coordinator,
            service: ServiceTimeModel::paper_load(),
            method_services: Vec::new(),
            load: LoadModel::nominal(),
            standby: false,
            faults: None,
        }
    }
}

/// The simulated server node. See the module docs.
pub struct ServerGateway {
    config: ServerConfig,
    agent: Option<MembershipAgent>,
    core: ReplicaCore<RequestId>,
    /// Fires when the request in service is done.
    service_timer: Option<TimerToken>,
    /// Standby replica that has not been activated yet (Proteus, §2).
    dormant: bool,
    /// Graceful drain in progress: we have left the group (no new
    /// selections reach us after the view change) but keep servicing the
    /// queue and any stragglers until it empties, then go dormant.
    draining: bool,
    /// For scheduled drains, the window end at which the replica
    /// reactivates on its own; manager-driven drains wait for `Activate`.
    drain_until: Option<Instant>,
    reactivate_timer: Option<TimerToken>,
    /// Crashed: events are dropped until the recovery timer, which a
    /// crash-forever window never sets.
    dead: bool,
    recovery_timer: Option<TimerToken>,
    /// Next edge of the scheduled fault plan.
    fault_timer: Option<TimerToken>,
    subscribers: Vec<NodeId>,
    /// The subscribers a `PerfUpdate` goes to, reused across replies.
    targets: Vec<NodeId>,
    pub(crate) serviced: u64,
    pub(crate) restarts: u64,
}

impl std::fmt::Debug for ServerGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerGateway")
            .field("replica", &self.config.replica)
            .field("queued", &self.core.queue_len())
            .field("serviced", &self.serviced)
            .field("crashed", &self.is_crashed())
            .finish()
    }
}

impl ServerGateway {
    /// Creates a server from its configuration.
    pub fn new(config: ServerConfig) -> Self {
        let core = ReplicaCore::new(
            config.replica,
            config.service.clone(),
            config.method_services.clone(),
            config.load.clone(),
            config.faults.clone().unwrap_or_default(),
        );
        ServerGateway {
            config,
            agent: None,
            core,
            service_timer: None,
            dormant: false,
            draining: false,
            drain_until: None,
            reactivate_timer: None,
            dead: false,
            recovery_timer: None,
            fault_timer: None,
            subscribers: Vec::new(),
            targets: Vec::new(),
            serviced: 0,
            restarts: 0,
        }
    }

    /// Begins a graceful drain: leave the group (the view change stops
    /// clients from selecting us), keep servicing queued work and
    /// stragglers, then go dormant once the queue empties. `until` is the
    /// self-reactivation instant for scheduled drains; `None` means the
    /// dependability manager owns reactivation (rolling restart).
    fn begin_drain(&mut self, ctx: &mut Context<'_, Wire>, until: Option<Instant>) {
        if self.dormant || self.dead {
            return;
        }
        if self.draining {
            // Overlapping drain windows extend the dormancy.
            self.drain_until = match (self.drain_until, until) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None, // a manager drain supersedes: wait for Activate
            };
            return;
        }
        self.draining = true;
        self.drain_until = until;
        if let Some(agent) = self.agent.as_mut() {
            agent.leave(ctx);
        }
        self.maybe_go_dormant(ctx);
    }

    /// Completes a drain once nothing is queued or in service: drop group
    /// state and go dormant, arming self-reactivation for scheduled
    /// drains whose window has not ended yet.
    fn maybe_go_dormant(&mut self, ctx: &mut Context<'_, Wire>) {
        if !self.draining || !self.core.is_idle() {
            return;
        }
        self.draining = false;
        self.dormant = true;
        self.agent = None;
        self.subscribers.clear();
        self.fault_timer = None;
        if let Some(at) = self.drain_until.take() {
            let now = ctx.now();
            if at <= now {
                // The scheduled window already ended while we finished
                // queued work: rejoin immediately.
                self.dormant = false;
                self.go_live(ctx);
            } else {
                self.reactivate_timer = Some(ctx.set_timer(at.saturating_duration_since(now)));
            }
        }
    }

    /// Joins the group under a fresh membership agent and arms the next
    /// fault edge (initial start, standby activation or restart).
    fn go_live(&mut self, ctx: &mut Context<'_, Wire>) {
        let me = Member::server(ctx.self_id(), self.config.replica);
        let mut agent = MembershipAgent::new(
            self.config.coordinator,
            me,
            FailureDetectorConfig::default(),
        );
        agent.on_started(ctx);
        self.agent = Some(agent);
        self.schedule_fault_edge(ctx);
    }

    /// Arms a timer at the next edge of the fault schedule (if any).
    fn schedule_fault_edge(&mut self, ctx: &mut Context<'_, Wire>) {
        let Some(schedule) = &self.config.faults else {
            return;
        };
        let now = ctx.now();
        self.fault_timer = schedule
            .next_transition_after(now)
            .map(|next| ctx.set_timer(next.saturating_duration_since(now)));
    }

    /// A fault-schedule edge passed: enter a scheduled down window, or
    /// resume work stalled by a pause that just ended.
    fn on_fault_edge(&mut self, ctx: &mut Context<'_, Wire>) {
        self.apply_scheduled_faults(ctx);
        self.schedule_fault_edge(ctx);
        if self.dead {
            return;
        }
        // A scheduled drain window opened: leave gracefully, reactivate
        // at the window's end.
        let drain = self
            .config
            .faults
            .as_ref()
            .and_then(|s| s.draining_until(self.config.replica, ctx.now()));
        if let Some(until) = drain {
            self.begin_drain(ctx, Some(until));
        }
        self.start_next_service(ctx);
        self.maybe_go_dormant(ctx);
    }

    /// Enters a scheduled down window: the replica crashes (queued work
    /// is lost, the group evicts us) and the recovery timer is set to the
    /// window's end — or never, for a saturated crash-forever window.
    fn apply_scheduled_faults(&mut self, ctx: &mut Context<'_, Wire>) {
        let Some(schedule) = &self.config.faults else {
            return;
        };
        if self.dead {
            return;
        }
        let now = ctx.now();
        if let ReplicaHealth::Down { until } = schedule.health(self.config.replica, now) {
            if let Some(agent) = self.agent.as_mut() {
                agent.stop();
            }
            self.core.crash();
            self.service_timer = None;
            self.dead = true;
            self.recovery_timer = if until.as_nanos() == u64::MAX {
                None // crash-forever: stay dark
            } else {
                Some(ctx.set_timer(until.saturating_duration_since(now)))
            };
        }
    }

    /// Whether this replica is currently crashed (permanently, or down
    /// awaiting recovery).
    pub fn is_crashed(&self) -> bool {
        self.dead
    }

    /// Current queue depth.
    pub fn queue_len(&self) -> usize {
        self.core.queue_len()
    }

    /// Whether no request is queued or in service.
    pub fn is_idle(&self) -> bool {
        self.core.is_idle()
    }

    /// The crash window ended: restart with an empty queue and fresh
    /// state (a process restart on the same host) and rejoin the group.
    fn recover(&mut self, ctx: &mut Context<'_, Wire>) {
        self.dead = false;
        self.restarts += 1;
        self.subscribers.clear();
        self.go_live(ctx);
    }

    /// Starts the next queued request unless one is in service or a pause
    /// holds the queue; the fault-edge timer resumes a paused replica.
    fn start_next_service(&mut self, ctx: &mut Context<'_, Wire>) {
        let now = ctx.now();
        if let Some(due) = self.core.start(now, ctx.rng()) {
            self.service_timer = Some(ctx.set_timer(due.saturating_duration_since(now)));
        }
    }

    fn finish_service(&mut self, ctx: &mut Context<'_, Wire>) {
        self.service_timer = None;
        let Some((id, perf)) = self.core.finish(ctx.now()) else {
            return;
        };
        self.serviced += 1;
        // Reply to the requesting client (perf piggybacked)…
        ctx.send(
            id.client,
            GroupMsg::App(AquaMsg::Reply {
                id,
                replica: self.config.replica,
                perf,
                payload_size: REPLY_SIZE,
            }),
        );
        // …and publish the update to all subscribers (§5.4.1). The
        // requesting client already got the data on the reply.
        let update = GroupMsg::App(AquaMsg::PerfUpdate {
            replica: self.config.replica,
            perf,
        });
        self.targets.clear();
        self.targets
            .extend(self.subscribers.iter().filter(|s| **s != id.client));
        if !self.targets.is_empty() {
            ctx.multicast(&self.targets, update);
        }
        self.start_next_service(ctx);
        self.maybe_go_dormant(ctx);
    }
}

impl Node<Wire> for ServerGateway {
    fn on_event(&mut self, event: Event<Wire>, ctx: &mut Context<'_, Wire>) {
        match event {
            Event::Started => {
                if self.config.standby {
                    self.dormant = true;
                } else {
                    self.go_live(ctx);
                }
            }
            Event::Timer { token } => {
                if self.dormant {
                    // Scheduled-drain window ended: rejoin the group.
                    if Some(token) == self.reactivate_timer {
                        self.reactivate_timer = None;
                        self.dormant = false;
                        self.go_live(ctx);
                    }
                    return;
                }
                if self.dead {
                    if Some(token) == self.recovery_timer {
                        self.recover(ctx);
                    }
                    return;
                }
                if Some(token) == self.fault_timer {
                    self.on_fault_edge(ctx);
                    return;
                }
                if let Some(agent) = self.agent.as_mut() {
                    if agent.on_timer(token, ctx) {
                        return;
                    }
                }
                if self.service_timer == Some(token) {
                    self.finish_service(ctx);
                }
            }
            Event::Message { payload, .. } => {
                if self.dormant {
                    if matches!(payload, GroupMsg::App(AquaMsg::Activate)) {
                        self.dormant = false;
                        self.reactivate_timer = None;
                        self.go_live(ctx);
                    }
                    return;
                }
                if self.dead {
                    return;
                }
                match payload {
                    GroupMsg::App(AquaMsg::Request {
                        id,
                        method,
                        payload_size: _,
                    }) => {
                        self.core.arrive(ctx.now(), id, method);
                        self.start_next_service(ctx);
                    }
                    GroupMsg::App(AquaMsg::Subscribe { client })
                        if !self.subscribers.contains(&client) =>
                    {
                        self.subscribers.push(client);
                    }
                    GroupMsg::App(AquaMsg::Drain) => {
                        // Manager-driven rolling restart: drain and wait
                        // dormant for a fresh Activate.
                        self.begin_drain(ctx, None);
                    }
                    GroupMsg::ViewChange(view) => {
                        if let Some(agent) = self.agent.as_mut() {
                            agent.on_view_change(view);
                        }
                    }
                    // Replies/updates are not addressed to servers; other
                    // control traffic is coordinator-bound.
                    _ => {}
                }
            }
        }
    }
}
