//! # aqua-group — group communication for the AQuA reproduction
//!
//! A compact stand-in for the Maestro/Ensemble layer the paper builds on
//! (§2, §5.4): multicast groups with membership **views**, list-addressed
//! multicast (send to a chosen subset rather than the whole group), and a
//! heartbeat failure detector that turns replica crashes into view changes.
//!
//! The timing fault handler depends on exactly two properties of this
//! layer, both provided here:
//!
//! 1. a request can be multicast to a *selected list* of members, and
//! 2. when a member crashes, every surviving member is notified via a view
//!    change so the failed replica "will … not be considered in the
//!    selection process for future requests".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
mod view;

pub use coordinator::{FailureDetectorConfig, GroupCoordinator, MembershipAgent};
pub use view::{Member, Role, View};

use lan_sim::{Payload, Plane};

/// The wire format of a multicast group: control traffic plus application
/// payloads of type `A`.
#[derive(Debug, Clone)]
pub enum GroupMsg<A> {
    /// Application traffic (requests, replies, performance updates).
    App(A),
    /// A member announces itself to the coordinator.
    Join {
        /// The joining member.
        member: Member,
    },
    /// A member leaves gracefully.
    Leave {
        /// The leaving member's node.
        member: lan_sim::NodeId,
    },
    /// Periodic liveness signal from server members.
    Heartbeat,
    /// The coordinator installs a new membership view.
    ViewChange(View),
}

impl<A: Payload> Payload for GroupMsg<A> {
    fn wire_size(&self) -> usize {
        match self {
            GroupMsg::App(a) => a.wire_size(),
            GroupMsg::Join { .. } => 48,
            GroupMsg::Leave { .. } => 16,
            GroupMsg::Heartbeat => 16,
            GroupMsg::ViewChange(v) => 32 + 24 * v.members.len(),
        }
    }

    fn plane(&self) -> Plane {
        match self {
            GroupMsg::App(a) => a.plane(),
            _ => Plane::Group,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_core::qos::ReplicaId;
    use aqua_core::time::{Duration, Instant};
    use lan_sim::{Context, Event, Node, NodeId, Simulation};

    #[derive(Debug, Clone)]
    struct NoApp;
    impl Payload for NoApp {}

    /// A minimal group member driven entirely by its MembershipAgent.
    struct TestMember {
        agent: Option<MembershipAgent>,
        /// Wiring happens after ids are known, so the agent arrives late.
        pending: Option<(NodeId, Member, FailureDetectorConfig)>,
        views_seen: Vec<u64>,
        crash_at: Option<Instant>,
        /// Crashed: every later event is ignored.
        crashed: bool,
    }

    impl TestMember {
        fn new(crash_at: Option<Instant>) -> Self {
            TestMember {
                agent: None,
                pending: None,
                views_seen: Vec::new(),
                crash_at,
                crashed: false,
            }
        }
    }

    impl Node<GroupMsg<NoApp>> for TestMember {
        fn on_event(
            &mut self,
            event: Event<GroupMsg<NoApp>>,
            ctx: &mut Context<'_, GroupMsg<NoApp>>,
        ) {
            if self.crashed {
                return;
            }
            match event {
                Event::Started => {
                    let (coord, me, cfg) = self.pending.take().expect("wired before start");
                    let mut agent = MembershipAgent::new(coord, me, cfg);
                    agent.on_started(ctx);
                    self.agent = Some(agent);
                }
                Event::Timer { token } => {
                    if let Some(crash_at) = self.crash_at {
                        if ctx.now() >= crash_at {
                            // Crash silently: stop heartbeating, drop events.
                            self.agent.as_mut().unwrap().stop();
                            self.crashed = true;
                            return;
                        }
                    }
                    let agent = self.agent.as_mut().unwrap();
                    let _ = agent.on_timer(token, ctx);
                }
                Event::Message { payload, .. } => {
                    if let GroupMsg::ViewChange(view) = payload {
                        if let Some(v) = self.agent.as_mut().unwrap().on_view_change(view) {
                            self.views_seen.push(v.id);
                        }
                    }
                }
            }
        }
    }

    fn wire(
        sim: &mut Simulation<GroupMsg<NoApp>>,
        node: NodeId,
        coord: NodeId,
        me: Member,
        cfg: FailureDetectorConfig,
    ) {
        sim.node_mut::<TestMember>(node).unwrap().pending = Some((coord, me, cfg));
    }

    #[test]
    fn members_join_and_receive_views() {
        let cfg = FailureDetectorConfig::default();
        let mut sim = Simulation::new(1);
        let coord = sim.add_node(GroupCoordinator::<NoApp>::new(cfg));
        let a = sim.add_node(TestMember::new(None));
        let b = sim.add_node(TestMember::new(None));
        wire(
            &mut sim,
            a,
            coord,
            Member::server(a, ReplicaId::new(0)),
            cfg,
        );
        wire(&mut sim, b, coord, Member::client(b), cfg);
        sim.run_until(sim.now() + Duration::from_millis(500));
        let view = sim
            .node::<GroupCoordinator<NoApp>>(coord)
            .unwrap()
            .view()
            .clone();
        assert_eq!(view.servers().count(), 1);
        assert_eq!(view.clients().count(), 1);
        assert!(
            !sim.node::<TestMember>(b).unwrap().views_seen.is_empty(),
            "client observed at least one view change"
        );
    }

    #[test]
    fn crashed_server_is_evicted_from_view() {
        let cfg = FailureDetectorConfig {
            heartbeat_interval: Duration::from_millis(20),
            timeout: Duration::from_millis(100),
            check_interval: Duration::from_millis(20),
        };
        let mut sim = Simulation::new(7);
        let coord = sim.add_node(GroupCoordinator::<NoApp>::new(cfg));
        let server = sim.add_node(TestMember::new(Some(Instant::from_millis(300))));
        let client = sim.add_node(TestMember::new(None));
        wire(
            &mut sim,
            server,
            coord,
            Member::server(server, ReplicaId::new(5)),
            cfg,
        );
        wire(&mut sim, client, coord, Member::client(client), cfg);

        sim.run_until(Instant::from_millis(250));
        assert_eq!(
            sim.node::<GroupCoordinator<NoApp>>(coord)
                .unwrap()
                .view()
                .servers()
                .count(),
            1,
            "server alive before crash"
        );

        sim.run_until(Instant::from_millis(900));
        let coord_state = sim.node::<GroupCoordinator<NoApp>>(coord).unwrap();
        assert_eq!(
            coord_state.view().servers().count(),
            0,
            "crashed server evicted"
        );
        // The surviving client saw the eviction view.
        let client_state = sim.node::<TestMember>(client).unwrap();
        let last_view = client_state.agent.as_ref().unwrap().view();
        assert_eq!(last_view.servers().count(), 0);
        assert!(last_view.contains(client));
    }

    #[test]
    fn graceful_leave_installs_new_view() {
        let cfg = FailureDetectorConfig::default();
        let mut sim = Simulation::new(3);
        let coord = sim.add_node(GroupCoordinator::<NoApp>::new(cfg));
        let a = sim.add_node(TestMember::new(None));
        wire(
            &mut sim,
            a,
            coord,
            Member::server(a, ReplicaId::new(1)),
            cfg,
        );
        sim.run_until(sim.now() + Duration::from_millis(100));
        // Inject a Leave directly.
        sim.schedule_message(sim.now(), a, coord, GroupMsg::Leave { member: a });
        sim.run_until(sim.now() + Duration::from_millis(100));
        assert_eq!(
            sim.node::<GroupCoordinator<NoApp>>(coord)
                .unwrap()
                .view()
                .members
                .len(),
            0
        );
    }

    #[test]
    fn duplicate_join_is_idempotent() {
        let cfg = FailureDetectorConfig::default();
        let mut sim = Simulation::new(3);
        let coord = sim.add_node(GroupCoordinator::<NoApp>::new(cfg));
        let a = sim.add_node(TestMember::new(None));
        let member = Member::server(a, ReplicaId::new(1));
        wire(&mut sim, a, coord, member, cfg);
        sim.run_until(sim.now() + Duration::from_millis(50));
        let views_before = sim
            .node::<GroupCoordinator<NoApp>>(coord)
            .unwrap()
            .view()
            .id;
        sim.schedule_message(sim.now(), a, coord, GroupMsg::Join { member });
        sim.run_until(sim.now() + Duration::from_millis(50));
        let coord_state = sim.node::<GroupCoordinator<NoApp>>(coord).unwrap();
        assert_eq!(coord_state.view().id, views_before);
        assert_eq!(coord_state.view().members.len(), 1);
    }

    /// A node that does nothing itself: a test speaks for it by
    /// injecting its messages to the coordinator.
    struct Silent;

    impl Node<GroupMsg<NoApp>> for Silent {
        fn on_event(&mut self, _: Event<GroupMsg<NoApp>>, _: &mut Context<'_, GroupMsg<NoApp>>) {}
    }

    /// Delivers `msg` from `from` to `coord` at `at_ms`.
    fn inject(
        sim: &mut Simulation<GroupMsg<NoApp>>,
        at_ms: u64,
        from: NodeId,
        coord: NodeId,
        msg: GroupMsg<NoApp>,
    ) {
        sim.schedule_message(Instant::from_millis(at_ms), from, coord, msg);
    }

    /// Heartbeats from `from` at every `at_ms` of `times`.
    fn heartbeats(
        sim: &mut Simulation<GroupMsg<NoApp>>,
        from: NodeId,
        coord: NodeId,
        times: impl Iterator<Item = u64>,
    ) {
        for at_ms in times {
            inject(sim, at_ms, from, coord, GroupMsg::Heartbeat);
        }
    }

    /// The coordinator's server members, in view order, and how many
    /// views it has installed.
    fn servers(sim: &Simulation<GroupMsg<NoApp>>, coord: NodeId) -> (Vec<NodeId>, u64) {
        let coord = sim.node::<GroupCoordinator<NoApp>>(coord).unwrap();
        let nodes = coord.view().servers().map(|m| m.node).collect();
        (nodes, coord.view().id)
    }

    /// Delivers `node`'s join, as a server, to `coord` at `at_ms`. (The
    /// default detector the next tests run sweeps on a 50 ms grid and
    /// suspects a server silent for more than 200 ms.)
    fn join(sim: &mut Simulation<GroupMsg<NoApp>>, at_ms: u64, node: NodeId, coord: NodeId) {
        let member = Member::server(node, ReplicaId::new(node.index().into()));
        inject(sim, at_ms, node, coord, GroupMsg::Join { member });
    }

    #[test]
    fn nodes_past_the_heartbeat_table_join_and_heartbeat() {
        let mut sim = Simulation::new(1);
        let coord = sim.add_node(GroupCoordinator::<NoApp>::new(Default::default()));
        let near = sim.add_node(Silent);
        let far = (0..40).map(|_| sim.add_node(Silent)).last().unwrap();
        let stray = sim.add_node(Silent);
        join(&mut sim, 10, near, coord);
        // The table reaches `near`; `far` and then `stray` lie past it.
        join(&mut sim, 20, far, coord);
        inject(&mut sim, 30, stray, coord, GroupMsg::Heartbeat);
        heartbeats(&mut sim, near, coord, (60..=460).step_by(50));
        heartbeats(&mut sim, far, coord, (60..=460).step_by(50));
        sim.run_until(Instant::from_millis(500));
        assert_eq!(
            servers(&sim, coord),
            (vec![near, far], 2),
            "two joins, no eviction, and a heartbeat admits no one"
        );
    }

    #[test]
    fn a_server_that_left_can_rejoin() {
        let mut sim = Simulation::new(1);
        let coord = sim.add_node(GroupCoordinator::<NoApp>::new(Default::default()));
        let a = sim.add_node(Silent);
        let b = sim.add_node(Silent);
        join(&mut sim, 10, a, coord);
        join(&mut sim, 10, b, coord);
        heartbeats(&mut sim, b, coord, (60..=560).step_by(50));
        // `a` leaves just before a sweep and rejoins; it next heartbeats
        // as late as its rejoin allows, so only the rejoin's own time keeps
        // it in the view until then.
        inject(&mut sim, 95, a, coord, GroupMsg::Leave { member: a });
        sim.run_until(Instant::from_millis(120));
        assert_eq!(servers(&sim, coord), (vec![b], 3), "a left, b stayed");
        join(&mut sim, 150, a, coord);
        heartbeats(&mut sim, a, coord, (300..=550).step_by(50));
        sim.run_until(Instant::from_millis(600));
        assert_eq!(servers(&sim, coord), (vec![b, a], 4), "a is back");
    }

    #[test]
    fn an_evicted_suspect_that_heartbeats_stays_out_until_it_rejoins() {
        let mut sim = Simulation::new(1);
        let coord = sim.add_node(GroupCoordinator::<NoApp>::new(Default::default()));
        let s = sim.add_node(Silent);
        join(&mut sim, 10, s, coord);
        // Silent past the timeout: evicted by the sweep at 250 ms.
        heartbeats(&mut sim, s, coord, (300..=900).step_by(50));
        sim.run_until(Instant::from_millis(720));
        assert_eq!(
            servers(&sim, coord),
            (vec![], 2),
            "heartbeats do not readmit"
        );
        join(&mut sim, 730, s, coord);
        sim.run_until(Instant::from_millis(950));
        assert_eq!(servers(&sim, coord), (vec![s], 3), "a join does");
    }

    #[test]
    fn stale_views_are_ignored_by_agents() {
        let cfg = FailureDetectorConfig::default();
        let mut agent = MembershipAgent::new(NodeId::new(0), Member::client(NodeId::new(1)), cfg);
        let new = View {
            id: 5,
            members: vec![],
        };
        assert!(agent.on_view_change(new).is_some());
        let stale = View {
            id: 4,
            members: vec![Member::client(NodeId::new(9))],
        };
        assert!(agent.on_view_change(stale).is_none());
        assert_eq!(agent.view().id, 5);
    }
}
