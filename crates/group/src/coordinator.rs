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
use lan_sim::{Context, Event, Node, NodeId, TimerToken};

use crate::view::{Member, Role, View};
use crate::GroupMsg;

/// Failure-detector and heartbeat cadence parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureDetectorConfig {
    /// How often members send heartbeats.
    // aqua-lint: allow(knob-census) the armed-sweep proptest draws it; at the default cadence no sweep falls off the heartbeat grid
    pub heartbeat_interval: Duration,
    /// Silence after which a server member is suspected crashed. Should be
    /// a small multiple of `heartbeat_interval`.
    // aqua-lint: allow(knob-census) the armed-sweep proptest draws it; at the default cadence no sweep falls off the heartbeat grid
    pub timeout: Duration,
    /// The grid the coordinator sweeps for suspects on: a server is
    /// evicted at the first multiple of this interval, counted from the
    /// coordinator's start, at which it has been silent past `timeout`.
    // aqua-lint: allow(knob-census) the armed-sweep proptest draws it; at the default cadence no sweep falls off the heartbeat grid
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
///
/// The sweep for suspects keeps one timer, and only while the view holds a
/// server: it fires at the first tick of the `check_interval` grid at
/// which the stalest server could have been silent past `timeout`, sweeps
/// as a sweep on every tick would, and re-arms. The ticks between, where
/// no server could be evicted, are skipped. One order can differ: armed
/// ahead, the timer runs before another event of its tick that was
/// scheduled after it, where the sweep on every tick ran after any
/// scheduled before the tick before it (DESIGN §7).
#[derive(Debug)]
pub struct GroupCoordinator<A> {
    config: FailureDetectorConfig,
    view: View,
    /// When each node was last heard from (its join or its latest
    /// heartbeat), indexed by [`NodeId::index`]; `None` for a node never
    /// heard from, or not since it left or was evicted.
    last_heartbeat: Vec<Option<Instant>>,
    /// The instant the sweep grid counts from: the coordinator's start.
    started_at: Instant,
    /// The sweep timer, while one is armed.
    sweep: Option<TimerToken>,
    _marker: core::marker::PhantomData<fn() -> A>,
}

impl<A> GroupCoordinator<A> {
    /// Creates a coordinator with the given failure-detector parameters.
    pub fn new(config: FailureDetectorConfig) -> Self {
        GroupCoordinator {
            config,
            view: View::default(),
            last_heartbeat: Vec::new(),
            started_at: Instant::EPOCH,
            sweep: None,
            _marker: core::marker::PhantomData,
        }
    }

    /// The current view.
    pub fn view(&self) -> &View {
        &self.view
    }
}

impl<A> GroupCoordinator<A>
where
    A: lan_sim::Payload,
{
    fn install_view(&mut self, ctx: &mut Context<'_, GroupMsg<A>>) {
        self.view.id += 1;
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

    /// When `node` was last heard from.
    fn heard(&self, node: NodeId) -> Option<Instant> {
        self.last_heartbeat
            .get(node.index() as usize)
            .copied()
            .flatten()
    }

    /// The first tick of the sweep grid strictly after `at`.
    fn tick_after(&self, at: Instant) -> Instant {
        let interval = self.config.check_interval.as_nanos().max(1);
        let since = at.saturating_duration_since(self.started_at).as_nanos();
        self.started_at + Duration::from_nanos((since / interval + 1) * interval)
    }

    /// Arms the sweep timer, unless it is armed, at the first tick at
    /// which the stalest server could be a suspect: the first strictly
    /// after its `last heard + timeout`. Disarms it once no server is left.
    fn arm_sweep(&mut self, ctx: &mut Context<'_, GroupMsg<A>>) {
        let stalest = self
            .view
            .servers()
            .map(|m| self.heard(m.node).unwrap_or(Instant::EPOCH))
            .min();
        match (stalest, self.sweep) {
            (None, Some(token)) => {
                ctx.cancel_timer(token);
                self.sweep = None;
            }
            (Some(heard), None) => {
                let now = ctx.now();
                let due = self.tick_after(heard.saturating_add(self.config.timeout).max(now));
                self.sweep = Some(ctx.set_group_timer(due.saturating_duration_since(now)));
            }
            _ => {}
        }
    }

    /// Applies one control message to the membership.
    fn on_message(
        &mut self,
        from: NodeId,
        payload: GroupMsg<A>,
        ctx: &mut Context<'_, GroupMsg<A>>,
    ) {
        match payload {
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
        }
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
            Event::Started => self.started_at = ctx.now(),
            Event::Timer { token } => {
                if self.sweep == Some(token) {
                    self.sweep = None;
                    self.sweep_suspects(ctx);
                    self.arm_sweep(ctx);
                }
            }
            Event::Message { from, payload } => {
                let membership = matches!(payload, GroupMsg::Join { .. } | GroupMsg::Leave { .. });
                self.on_message(from, payload, ctx);
                if membership {
                    self.arm_sweep(ctx);
                }
            }
        }
    }
}

/// The detector as it ran before its sweep was armed only where it could
/// evict: a sweep on every tick of the grid. The coordinator must install
/// the views this one does, at the same instants.
#[cfg(test)]
pub(crate) struct PollingCoordinator<A>(pub(crate) GroupCoordinator<A>);

#[cfg(test)]
impl<A> Node<GroupMsg<A>> for PollingCoordinator<A>
where
    A: lan_sim::Payload,
{
    fn on_event(&mut self, event: Event<GroupMsg<A>>, ctx: &mut Context<'_, GroupMsg<A>>) {
        let coordinator = &mut self.0;
        match event {
            Event::Started => {
                ctx.set_group_timer(coordinator.config.check_interval);
            }
            Event::Timer { .. } => {
                coordinator.sweep_suspects(ctx);
                ctx.set_group_timer(coordinator.config.check_interval);
            }
            Event::Message { from, payload } => coordinator.on_message(from, payload, ctx),
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

    /// Call from the node's `Event::Started`: joins the group and, for
    /// servers, starts the heartbeat clock.
    pub fn on_started<A>(&mut self, ctx: &mut Context<'_, GroupMsg<A>>)
    where
        A: lan_sim::Payload,
    {
        ctx.send(self.coordinator, GroupMsg::Join { member: self.me });
        if self.me.role == Role::Server {
            self.heartbeat_timer = Some(ctx.set_group_timer(self.heartbeat_interval));
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
            self.heartbeat_timer = Some(ctx.set_group_timer(self.heartbeat_interval));
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

#[cfg(test)]
mod tests {
    //! The coordinator against [`PollingCoordinator`], the sweep on every
    //! tick it replaces, over random groups: both must send and deliver
    //! the same messages at the same instants.

    use super::*;
    use aqua_core::qos::ReplicaId;
    use lan_sim::topology::DROP_DELAY;
    use lan_sim::{AnyNode, NetworkModel, Payload, Simulation, TraceEvent, TraceRecord};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::Rng;

    #[derive(Debug, Clone)]
    struct NoApp;
    impl Payload for NoApp {}

    type Msg = GroupMsg<NoApp>;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// What a scripted member does at an instant of its script.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Act {
        /// Join (again) under a fresh membership agent.
        Join,
        /// Leave gracefully.
        Leave,
        /// Stop heartbeating and drop every later event.
        Crash,
    }

    /// A member that runs its script; its agent heartbeats while it is in.
    struct Scripted {
        coordinator: NodeId,
        member: Member,
        config: FailureDetectorConfig,
        script: Vec<(Duration, Act)>,
        acts: Vec<(TimerToken, Act)>,
        agent: Option<MembershipAgent>,
    }

    impl Node<Msg> for Scripted {
        fn on_event(&mut self, event: Event<Msg>, ctx: &mut Context<'_, Msg>) {
            match event {
                Event::Started => {
                    for &(at, act) in &self.script {
                        self.acts.push((ctx.set_timer(at), act));
                    }
                }
                Event::Timer { token } => {
                    if let Some(agent) = self.agent.as_mut() {
                        if agent.on_timer(token, ctx) {
                            return;
                        }
                    }
                    let act = self.acts.iter().find(|(t, _)| *t == token).map(|a| a.1);
                    match act {
                        Some(Act::Join) => {
                            let mut agent =
                                MembershipAgent::new(self.coordinator, self.member, self.config);
                            agent.on_started(ctx);
                            self.agent = Some(agent);
                        }
                        Some(Act::Leave) => {
                            if let Some(agent) = self.agent.as_mut() {
                                agent.leave(ctx);
                            }
                        }
                        Some(Act::Crash) => {
                            if let Some(agent) = self.agent.as_mut() {
                                agent.stop();
                            }
                            ctx.detach_self();
                        }
                        None => {}
                    }
                }
                Event::Message { payload, .. } => {
                    if let (GroupMsg::ViewChange(view), Some(agent)) = (payload, &mut self.agent) {
                        agent.on_view_change(view);
                    }
                }
            }
        }
    }

    /// A LAN of 0.05–2 ms that delays some messages by up to 400 ms more,
    /// drops some, and drops everything a node sends in its silent
    /// windows.
    struct TestNet {
        slow: f64,
        drop: f64,
        silent: Vec<(NodeId, Instant, Instant)>,
    }

    impl NetworkModel for TestNet {
        fn delay(
            &mut self,
            from: NodeId,
            _to: NodeId,
            _size: usize,
            _fanout: usize,
            now: Instant,
            rng: &mut SmallRng,
        ) -> Duration {
            let base = Duration::from_nanos(rng.gen_range(50_000..2_000_000u64));
            let extra = Duration::from_nanos(rng.gen_range(0..400_000_000u64));
            let (slow, drop) = (rng.gen_bool(self.slow), rng.gen_bool(self.drop));
            let silent = self
                .silent
                .iter()
                .any(|&(node, start, end)| node == from && (start..end).contains(&now));
            if drop || silent {
                DROP_DELAY
            } else if slow {
                base + extra
            } else {
                base
            }
        }
    }

    /// One server's script: when it first joins, then up to four later
    /// steps `(at, kind, silence ms)`: kind 0 leaves, 1 rejoins, 2 crashes
    /// and 3 goes silent for the given span. Instants are in nanoseconds.
    type ServerScript = (u64, Vec<(u64, u8, u64)>);

    /// Records the differential's trace ring holds: a run that leaves it
    /// short of full lost none.
    const TRACE_CAPACITY: usize = 1 << 20;

    /// Runs the group under `coordinator` for 4 s and returns every
    /// message sent and delivered, in order, the final view, and how many
    /// records the trace ring holds.
    fn run<C: AnyNode<Msg>>(
        coordinator: C,
        config: FailureDetectorConfig,
        servers: &[ServerScript],
        (slow, drop): (f64, f64),
    ) -> (Vec<TraceRecord>, View, usize) {
        let mut silent = Vec::new();
        for (index, (_, steps)) in servers.iter().enumerate() {
            let node = NodeId::new(index as u32 + 1);
            for &(at, kind, span) in steps {
                if kind == 3 {
                    let start = Instant::from_nanos(at);
                    silent.push((node, start, start + ms(span)));
                }
            }
        }
        let net = TestNet { slow, drop, silent };
        let mut sim = Simulation::<Msg>::with_network(17, net);
        sim.enable_trace(TRACE_CAPACITY);
        let coord = sim.add_node(coordinator);
        let scripted = |member: Member, script: Vec<(Duration, Act)>| Scripted {
            coordinator: coord,
            member,
            config,
            script,
            acts: Vec::new(),
            agent: None,
        };
        for (index, (join, steps)) in servers.iter().enumerate() {
            let node = NodeId::new(index as u32 + 1);
            let mut script = vec![(Duration::from_nanos(*join), Act::Join)];
            for &(at, kind, _) in steps {
                let act = [Act::Leave, Act::Join, Act::Crash].get(kind as usize);
                script.extend(act.map(|act| (Duration::from_nanos(at), *act)));
            }
            let member = Member::server(node, ReplicaId::new(index as u64));
            assert_eq!(sim.add_node(scripted(member, script)), node);
        }
        // A client that watches every view.
        let client = NodeId::new(servers.len() as u32 + 1);
        sim.add_node(scripted(Member::client(client), vec![(ms(1), Act::Join)]));
        sim.run_until(Instant::from_secs(4));

        let log = sim
            .trace()
            .filter(|r| {
                matches!(
                    r.event,
                    TraceEvent::MessageSent { .. } | TraceEvent::MessageDelivered { .. }
                )
            })
            .cloned()
            .collect();
        let agent = sim.node::<Scripted>(client).unwrap().agent.as_ref();
        let view = agent.expect("the client joined").view().clone();
        (log, view, sim.trace().count())
    }

    /// A server that first joins at any nanosecond, and whose later steps
    /// fall at any nanosecond too.
    fn server_script() -> impl Strategy<Value = ServerScript> {
        (
            1u64..600_000_000,
            prop::collection::vec((1u64..3_600_000_000, 0u8..4, 50u64..600), 0..5),
        )
            .prop_map(|(join, mut steps)| {
                steps.sort_unstable();
                (join, steps)
            })
    }

    /// Cases for the differential property: `PROPTEST_CASES` when set
    /// (the CI soak job runs it with 2000), else `default`.
    fn cases_or(default: u32) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|cases| cases.parse().ok())
            .unwrap_or(default)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases_or(64)))]

        /// Crashes, silent windows, slow and dropped heartbeats, leaves
        /// and rejoins: the sweep armed where it could evict installs the
        /// views the sweep on every tick installs, at the same instants,
        /// and every node sends and receives the same messages.
        ///
        /// Half the groups are the paper's: every server joins at the
        /// start and heartbeats on the sweep's own grid. In the others no
        /// other timer shares a tick: where one does and was set after
        /// the armed sweep, the two run in the other order (see
        /// [`GroupCoordinator`]).
        #[test]
        fn the_armed_sweep_installs_what_the_polling_sweep_installs(
            heartbeat in 10u64..60,
            silence in 1u64..5,
            extra in 0u64..40,
            check in 5u64..90,
            paper in any::<bool>(),
            servers in prop::collection::vec(server_script(), 1..5),
            slow in 0.0f64..0.2,
            drop in 0.0f64..0.2,
        ) {
            let mut servers = servers;
            let check = if paper {
                for (join, _) in &mut servers {
                    *join = 0;
                }
                heartbeat
            } else {
                check
            };
            let config = FailureDetectorConfig {
                heartbeat_interval: ms(heartbeat),
                timeout: ms(heartbeat * silence + extra),
                check_interval: ms(check),
            };
            let armed = run(GroupCoordinator::new(config), config, &servers, (slow, drop));
            let polling = PollingCoordinator(GroupCoordinator::new(config));
            let oracle = run(polling, config, &servers, (slow, drop));
            prop_assert!(armed.2 < TRACE_CAPACITY, "the trace ring held every record");
            prop_assert_eq!(armed.1, oracle.1);
            prop_assert!(armed.0 == oracle.0, "the message logs differ");
        }
    }
}
