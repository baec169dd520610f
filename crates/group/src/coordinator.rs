//! The group coordinator: membership tracking and crash detection.
//!
//! Maestro/Ensemble "detects and notifies the members of changes to the
//! group membership" (§2). We model this with a coordinator node that
//! tracks heartbeats from server members and installs a new [`View`]
//! whenever a member joins, leaves, or is suspected of having crashed.
//! Clients learn about crashes from the view change and "remove the entry
//! for the failed replicas from their local information repositories"
//! (§5.4).

use aqua_core::time::{Duration, Instant};
use lan_sim::{Context, Event, Node, NodeId};

use crate::view::{Member, Role, View};
use crate::GroupMsg;

/// Failure-detector and heartbeat cadence parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureDetectorConfig {
    /// How often members send heartbeats.
    pub heartbeat_interval: Duration,
    /// Silence after which a server member is suspected crashed. Should be
    /// a small multiple of `heartbeat_interval`.
    pub timeout: Duration,
    /// How often the coordinator sweeps for suspects.
    pub check_interval: Duration,
}

impl Default for FailureDetectorConfig {
    fn default() -> Self {
        FailureDetectorConfig {
            heartbeat_interval: Duration::from_millis(50),
            timeout: Duration::from_millis(200),
            check_interval: Duration::from_millis(50),
        }
    }
}

/// The membership coordinator node.
///
/// Generic over the application payload `A` so one simulation type
/// parameter (`GroupMsg<A>`) covers both control and application traffic.
#[derive(Debug)]
pub struct GroupCoordinator<A> {
    config: FailureDetectorConfig,
    view: View,
    /// When each node was last heard from (its join or its latest
    /// heartbeat), indexed by [`NodeId::index`]; `None` for a node never
    /// heard from, or not since it left or was evicted.
    last_heartbeat: Vec<Option<Instant>>,
    views_installed: u64,
    _marker: core::marker::PhantomData<fn() -> A>,
}

impl<A> GroupCoordinator<A> {
    /// Creates a coordinator with the given failure-detector parameters.
    pub fn new(config: FailureDetectorConfig) -> Self {
        GroupCoordinator {
            config,
            view: View::default(),
            last_heartbeat: Vec::new(),
            views_installed: 0,
            _marker: core::marker::PhantomData,
        }
    }

    /// The current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Total number of views installed (diagnostics).
    pub fn views_installed(&self) -> u64 {
        self.views_installed
    }
}

impl<A> GroupCoordinator<A>
where
    A: lan_sim::Payload,
{
    fn install_view(&mut self, ctx: &mut Context<'_, GroupMsg<A>>) {
        self.view.id += 1;
        self.views_installed += 1;
        let targets: Vec<NodeId> = self.view.nodes().collect();
        ctx.multicast(&targets, GroupMsg::ViewChange(self.view.clone()));
    }

    /// Sets `node`'s slot of the heartbeat table, growing the table to
    /// reach it.
    fn set_heard(&mut self, node: NodeId, at: Option<Instant>) {
        let index = node.index() as usize;
        if index >= self.last_heartbeat.len() {
            self.last_heartbeat.resize(index + 1, None);
        }
        self.last_heartbeat[index] = at;
    }

    fn sweep_suspects(&mut self, ctx: &mut Context<'_, GroupMsg<A>>) {
        let now = ctx.now();
        let timeout = self.config.timeout;
        let last = &self.last_heartbeat;
        let suspects: Vec<NodeId> = self
            .view
            .servers()
            .map(|m| m.node)
            .filter(|node| {
                last.get(node.index() as usize)
                    .copied()
                    .flatten()
                    .is_none_or(|hb| now.saturating_duration_since(hb) > timeout)
            })
            .collect();
        if !suspects.is_empty() {
            self.view.members.retain(|m| !suspects.contains(&m.node));
            for node in &suspects {
                self.set_heard(*node, None);
            }
            self.install_view(ctx);
        }
    }
}

impl<A> Node<GroupMsg<A>> for GroupCoordinator<A>
where
    A: lan_sim::Payload,
{
    fn on_event(&mut self, event: Event<GroupMsg<A>>, ctx: &mut Context<'_, GroupMsg<A>>) {
        match event {
            Event::Started => {
                ctx.set_timer(self.config.check_interval);
            }
            Event::Timer { .. } => {
                self.sweep_suspects(ctx);
                ctx.set_timer(self.config.check_interval);
            }
            Event::Message { from, payload } => match payload {
                GroupMsg::Join { member } => {
                    debug_assert_eq!(from, member.node, "members join on their own behalf");
                    if !self.view.contains(member.node) {
                        self.view.members.push(member);
                        if member.role == Role::Server {
                            self.set_heard(member.node, Some(ctx.now()));
                        }
                        self.install_view(ctx);
                    }
                }
                GroupMsg::Leave { member } => {
                    if self.view.contains(member) {
                        self.view.members.retain(|m| m.node != member);
                        self.set_heard(member, None);
                        self.install_view(ctx);
                    }
                }
                GroupMsg::Heartbeat => self.set_heard(from, Some(ctx.now())),
                // Application traffic and view changes are not addressed to
                // the coordinator.
                GroupMsg::App(_) | GroupMsg::ViewChange(_) => {}
            },
        }
    }
}

/// Client-/server-side membership agent: joins the group on start, sends
/// heartbeats (servers), and tracks the latest view.
///
/// Embed one in any node that participates in a group, forward the node's
/// [`Event::Started`] / [`Event::Timer`] / view-change messages to it, and
/// read [`MembershipAgent::view`] for the current membership.
#[derive(Debug)]
pub struct MembershipAgent {
    coordinator: NodeId,
    me: Member,
    heartbeat_interval: Duration,
    heartbeat_timer: Option<lan_sim::TimerToken>,
    view: View,
    alive: bool,
}

impl MembershipAgent {
    /// Creates an agent for member `me` that talks to `coordinator`.
    pub fn new(coordinator: NodeId, me: Member, config: FailureDetectorConfig) -> Self {
        MembershipAgent {
            coordinator,
            me,
            heartbeat_interval: config.heartbeat_interval,
            heartbeat_timer: None,
            view: View::default(),
            alive: true,
        }
    }

    /// The most recent view delivered to this member.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// The member descriptor this agent joined as.
    pub fn me(&self) -> Member {
        self.me
    }

    /// Call from the node's `Event::Started`: joins the group and, for
    /// servers, starts the heartbeat clock.
    pub fn on_started<A>(&mut self, ctx: &mut Context<'_, GroupMsg<A>>)
    where
        A: lan_sim::Payload,
    {
        ctx.send(self.coordinator, GroupMsg::Join { member: self.me });
        if self.me.role == Role::Server {
            self.heartbeat_timer = Some(ctx.set_timer(self.heartbeat_interval));
        }
    }

    /// Call for every `Event::Timer`; returns `true` if the timer belonged
    /// to this agent (a heartbeat tick) and was consumed.
    pub fn on_timer<A>(
        &mut self,
        token: lan_sim::TimerToken,
        ctx: &mut Context<'_, GroupMsg<A>>,
    ) -> bool
    where
        A: lan_sim::Payload,
    {
        if self.heartbeat_timer != Some(token) {
            return false;
        }
        if self.alive {
            ctx.send(self.coordinator, GroupMsg::Heartbeat);
            self.heartbeat_timer = Some(ctx.set_timer(self.heartbeat_interval));
        }
        true
    }

    /// Call when a `GroupMsg::ViewChange` arrives; returns the new view if
    /// it superseded the held one.
    pub fn on_view_change(&mut self, view: View) -> Option<&View> {
        if view.id > self.view.id {
            self.view = view;
            Some(&self.view)
        } else {
            None
        }
    }

    /// Stops heartbeating (used when the owning node crashes silently).
    pub fn stop(&mut self) {
        self.alive = false;
    }

    /// Leaves the group gracefully.
    pub fn leave<A>(&mut self, ctx: &mut Context<'_, GroupMsg<A>>)
    where
        A: lan_sim::Payload,
    {
        self.alive = false;
        ctx.send(
            self.coordinator,
            GroupMsg::Leave {
                member: self.me.node,
            },
        );
    }
}
