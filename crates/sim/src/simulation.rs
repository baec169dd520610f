//! The simulation driver: event loop, node registry, determinism.

use core::fmt;

use aqua_core::aqua;
use aqua_core::time::Instant;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::event::{Class, Event, Scheduled};
use crate::network::{InstantNetwork, NetworkModel};
use crate::node::{AnyNode, BitSet, Context, NodeId, SimCore};
use crate::queue::CalendarQueue;
use crate::trace::{NodeCounters, TraceEvent, TraceRecord};
use crate::Payload;

/// A deterministic discrete-event simulation over a set of [`crate::node::Node`]s
/// connected by a [`NetworkModel`].
///
/// Determinism: events are totally ordered by `(timestamp, scheduling
/// sequence)` — the [`CalendarQueue`]'s `(at, origin, seq)` order with
/// origin 0 — and all randomness flows through one seeded [`SmallRng`], so
/// two runs with the same seed and the same wiring produce identical
/// histories.
///
/// # Examples
///
/// ```
/// use lan_sim::{Event, Context, Node, NodeId, Payload, Simulation};
/// use aqua_core::time::{Duration, Instant};
///
/// #[derive(Clone, Debug)]
/// struct Ping;
/// impl Payload for Ping {}
///
/// /// Sends one ping to a peer on start; counts pings received.
/// struct Peer { other: Option<NodeId>, received: u32 }
///
/// impl Node<Ping> for Peer {
///     fn on_event(&mut self, event: Event<Ping>, ctx: &mut Context<'_, Ping>) {
///         match event {
///             Event::Started => {
///                 if let Some(other) = self.other {
///                     ctx.send(other, Ping);
///                 }
///             }
///             Event::Message { .. } => self.received += 1,
///             Event::Timer { .. } => {}
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(7);
/// let a = sim.add_node(Peer { other: None, received: 0 });
/// let b = sim.add_node(Peer { other: Some(a), received: 0 });
/// # let _ = b;
/// sim.run_until_idle();
/// assert_eq!(sim.node::<Peer>(a).unwrap().received, 1);
/// ```
pub struct Simulation<M: Payload> {
    core: SimCore<M>,
    nodes: Vec<Option<Box<dyn AnyNode<M>>>>,
    started: bool,
    events_processed: u64,
    /// Whether an event that could settle a run (any but a group-plane
    /// one) was popped since [`Simulation::run_until_settled`] last asked.
    settling: bool,
}

impl<M: Payload> Simulation<M> {
    /// Creates a simulation with a zero-latency network and the given RNG
    /// seed.
    pub fn new(seed: u64) -> Self {
        Simulation::with_network(seed, InstantNetwork)
    }

    /// Creates a simulation over a specific network model.
    pub fn with_network<N: NetworkModel + 'static>(seed: u64, network: N) -> Self {
        Simulation {
            core: SimCore {
                now: Instant::EPOCH,
                queue: CalendarQueue::new(),
                seq: 0,
                next_timer: 0,
                cancelled: BitSet::default(),
                network: Box::new(network),
                rng: SmallRng::seed_from_u64(seed),
                detached: Vec::new(),
                tracer: Default::default(),
                app_in_flight: 0,
            },
            nodes: Vec::new(),
            started: false,
            events_processed: 0,
            settling: false,
        }
    }

    /// Registers a node and returns its id. Nodes added after the
    /// simulation has started receive their [`Event::Started`] at the
    /// current virtual time.
    pub fn add_node<N: AnyNode<M>>(&mut self, node: N) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node count fits in u32"));
        self.nodes.push(Some(Box::new(node)));
        if self.started {
            self.core.push(self.core.now, id, Event::Started);
        }
        id
    }

    /// The current virtual time.
    pub fn now(&self) -> Instant {
        self.core.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of messages sent over the simulated network so far (derived
    /// from the per-node trace counters — there is no separate tally).
    pub fn messages_sent(&self) -> u64 {
        self.core.tracer.total_sent()
    }

    /// Starts recording a bounded ring of [`TraceRecord`]s (per-node
    /// counters are always collected, ring or not).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.core.tracer.enable(capacity);
    }

    /// The recorded trace, oldest first (empty unless
    /// [`Simulation::enable_trace`] was called).
    pub fn trace(&self) -> impl Iterator<Item = &TraceRecord> {
        self.core.tracer.records()
    }

    /// Communication counters for one node.
    pub fn node_counters(&self, id: NodeId) -> NodeCounters {
        self.core.tracer.counters(id)
    }

    /// Bridges the simulator's observability into `obs`: per-node
    /// communication counters become `sim_*` registry metrics and any
    /// recorded trace ring is replayed into the journal as `sim_event`
    /// lines. Call once at the end of a run.
    pub fn export_obs(&self, obs: &aqua_obs::Obs) {
        use aqua_obs::json::JsonValue;

        let registry = obs.registry();
        for (node, counters) in self.core.tracer.all_counters() {
            let node = node.index().to_string();
            let labels = [("node", node.as_str())];
            registry
                .counter("sim_messages_sent_total", &labels)
                .add(counters.sent);
            registry
                .counter("sim_messages_delivered_total", &labels)
                .add(counters.delivered);
            registry
                .counter("sim_timers_fired_total", &labels)
                .add(counters.timers_fired);
        }
        registry
            .counter("sim_trace_dropped_total", &[])
            .add(self.core.tracer.dropped());

        let journal = obs.journal();
        for record in self.core.tracer.records() {
            let fields = JsonValue::object().field("at_nanos", record.at.as_nanos());
            let fields = match &record.event {
                TraceEvent::NodeStarted { node } => fields
                    .field("event", "node_started")
                    .field("node", u64::from(node.index())),
                TraceEvent::MessageSent {
                    from,
                    to,
                    size,
                    deliver_at,
                } => fields
                    .field("event", "message_sent")
                    .field("from", u64::from(from.index()))
                    .field("to", u64::from(to.index()))
                    .field("size", *size)
                    .field("deliver_at_nanos", deliver_at.as_nanos()),
                TraceEvent::MessageDelivered { from, to } => fields
                    .field("event", "message_delivered")
                    .field("from", u64::from(from.index()))
                    .field("to", u64::from(to.index())),
                TraceEvent::TimerFired { node } => fields
                    .field("event", "timer_fired")
                    .field("node", u64::from(node.index())),
                TraceEvent::NodeDetached { node } => fields
                    .field("event", "node_detached")
                    .field("node", u64::from(node.index())),
            };
            journal.emit_event("sim_event", fields);
        }
        journal.flush();
    }

    /// Injects a message from `from` to `to` at absolute time `at`,
    /// bypassing the network model. Intended for tests and harnesses.
    pub fn schedule_message(&mut self, at: Instant, from: NodeId, to: NodeId, payload: M) {
        self.core.push_message(at, from, to, payload);
    }

    /// Immutable, downcast access to a node's state.
    ///
    /// Returns `None` if the id is unknown or the concrete type does not
    /// match. Detached (crashed) nodes remain inspectable.
    pub fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.nodes
            .get(id.0 as usize)?
            .as_deref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable, downcast access to a node's state.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes
            .get_mut(id.0 as usize)?
            .as_deref_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for index in 0..self.nodes.len() {
            self.core
                .push(self.core.now, NodeId(index as u32), Event::Started);
        }
    }

    /// Processes the single next event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        self.step_bounded(None)
    }

    /// Pops and dispatches the next event, honoring an optional inclusive
    /// deadline with a single queue peek (no pop-and-reinsert, no second
    /// comparison pass in the caller).
    ///
    /// This is the hottest remaining loop of the workspace when the
    /// simulator drives fleet-scale scenarios, so the dispatch path is kept
    /// allocation-free: cancelled timers are one bit probe, detached nodes
    /// one bounds-checked flag load, and the per-node trace counters are a
    /// dense vector rather than a hash map.
    #[aqua::hot_path]
    fn step_bounded(&mut self, deadline: Option<Instant>) -> bool {
        loop {
            let due = |at| deadline.is_none_or(|deadline| at <= deadline.as_nanos());
            if !self.core.queue.peek_at().is_some_and(due) {
                return false;
            }
            let scheduled = self.core.queue.pop().expect("a peeked entry pops");
            debug_assert!(
                scheduled.at >= self.core.now,
                "time must not move backwards"
            );
            self.core.now = scheduled.at;
            self.core.app_in_flight -= u64::from(scheduled.class == Class::InFlight);
            self.settling |= scheduled.class != Class::Group;

            // Drop cancelled timers and deliveries to detached nodes.
            if let Event::Timer { token } = &scheduled.event {
                if self.core.cancelled.take(token.value()) {
                    continue;
                }
            }
            if self.core.is_detached(scheduled.target) {
                continue;
            }

            let Scheduled { target, event, .. } = scheduled;
            let record = match &event {
                Event::Started => TraceEvent::NodeStarted { node: target },
                Event::Message { from, .. } => TraceEvent::MessageDelivered {
                    from: *from,
                    to: target,
                },
                Event::Timer { .. } => TraceEvent::TimerFired { node: target },
            };
            self.core.tracer.record(self.core.now, record);
            let mut node = match self.nodes.get_mut(target.0 as usize) {
                Some(slot) => slot.take().expect("node not re-entrantly dispatched"),
                None => continue,
            };
            {
                let mut ctx = Context {
                    ops: &mut self.core,
                    self_id: target,
                };
                node.on_event(event, &mut ctx);
            }
            self.nodes[target.0 as usize] = Some(node);
            self.events_processed += 1;
            return true;
        }
    }

    /// Runs until the event queue is exhausted.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Runs until virtual time reaches `deadline` or the queue empties.
    ///
    /// Boundary contract (pinned by `run_until_boundary_*` tests and
    /// mirrored exactly by [`crate::ShardedSimulation::run_until`]): events
    /// scheduled at *exactly* `deadline` are processed, including zero-delay
    /// cascades they spawn at that same instant; events later than
    /// `deadline` stay queued; afterwards `now()` equals `deadline` even if
    /// the queue emptied earlier.
    pub fn run_until(&mut self, deadline: Instant) {
        self.ensure_started();
        while self.step_bounded(Some(deadline)) {}
        self.core.now = self.core.now.max(deadline);
    }

    /// Runs until `deadline` like [`Simulation::run_until`], or until
    /// `settled` holds after an event that leaves no application-plane
    /// message in flight. A message counts from its send until it is
    /// popped, unless it is due [`crate::topology::DROP_DELAY`] or more
    /// after it was sent: that is how a network drops one. Returns whether
    /// the run settled; if it did, `now()` is the instant of the event it
    /// settled on, and later events stay queued.
    ///
    /// `settled` sees the nodes after each such event, so it can ask
    /// whether any of them still has application work to do (a call
    /// waiting, a job in service). It is not asked after a group-plane
    /// message or timer ([`Payload::plane`], [`Context::set_group_timer`]):
    /// a node must not finish its application work on one. A harness that
    /// stops here has processed every application event of the run.
    pub fn run_until_settled(
        &mut self,
        deadline: Instant,
        mut settled: impl FnMut(&Self) -> bool,
    ) -> bool {
        self.ensure_started();
        self.settling = false;
        loop {
            let stepped = self.step_bounded(Some(deadline));
            if self.settling && self.core.app_in_flight == 0 {
                self.settling = false;
                if settled(self) {
                    return true;
                }
            }
            if !stepped {
                break;
            }
        }
        self.core.now = self.core.now.max(deadline);
        false
    }

    /// Application-plane messages sent or injected and not yet popped,
    /// leaving out dropped ones.
    #[cfg(test)]
    fn app_in_flight(&self) -> u64 {
        self.core.app_in_flight
    }
}

impl<M: Payload> fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.core.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.core.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TimerToken;
    use crate::node::Node;
    use aqua_core::time::Duration;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping,
        Pong,
    }
    impl Payload for Msg {}

    /// Replies Pong to every Ping; log of (time_ms, kind) for assertions.
    #[derive(Default)]
    struct Echo {
        log: Vec<(u64, &'static str)>,
    }

    impl Node<Msg> for Echo {
        fn on_event(&mut self, event: Event<Msg>, ctx: &mut Context<'_, Msg>) {
            match event {
                Event::Started => self.log.push((ctx.now().as_nanos(), "start")),
                Event::Message { from, payload } => match payload {
                    Msg::Ping => {
                        self.log.push((ctx.now().as_nanos(), "ping"));
                        ctx.send(from, Msg::Pong);
                    }
                    Msg::Pong => self.log.push((ctx.now().as_nanos(), "pong")),
                },
                Event::Timer { .. } => self.log.push((ctx.now().as_nanos(), "timer")),
            }
        }
    }

    #[test]
    fn started_delivered_to_all_nodes() {
        let mut sim = Simulation::<Msg>::new(1);
        let a = sim.add_node(Echo::default());
        let b = sim.add_node(Echo::default());
        sim.run_until_idle();
        assert_eq!(sim.node::<Echo>(a).unwrap().log, vec![(0, "start")]);
        assert_eq!(sim.node::<Echo>(b).unwrap().log, vec![(0, "start")]);
    }

    #[test]
    fn message_roundtrip() {
        let mut sim = Simulation::<Msg>::new(1);
        let a = sim.add_node(Echo::default());
        let b = sim.add_node(Echo::default());
        sim.schedule_message(Instant::from_millis(1), a, b, Msg::Ping);
        sim.run_until_idle();
        let b_log = &sim.node::<Echo>(b).unwrap().log;
        assert!(b_log.contains(&(1_000_000, "ping")));
        let a_log = &sim.node::<Echo>(a).unwrap().log;
        assert!(a_log.iter().any(|(_, k)| *k == "pong"));
        assert_eq!(sim.messages_sent(), 1, "only the Pong used the network");
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulation::<Msg>::new(1);
        let a = sim.add_node(Echo::default());
        let b = sim.add_node(Echo::default());
        sim.schedule_message(Instant::from_millis(10), a, b, Msg::Ping);
        sim.run_until(Instant::from_millis(5));
        assert_eq!(sim.now(), Instant::from_millis(5));
        assert!(sim.node::<Echo>(b).unwrap().log.len() == 1, "only start");
        sim.run_until(Instant::from_millis(10));
        assert!(sim
            .node::<Echo>(b)
            .unwrap()
            .log
            .contains(&(10_000_000, "ping")));
    }

    #[test]
    fn detached_nodes_receive_nothing() {
        let mut sim = Simulation::<Msg>::new(1);
        let a = sim.add_node(Echo::default());
        let b = sim.add_node(Crashed::default());
        sim.schedule_message(Instant::from_millis(2), a, b, Msg::Ping);
        sim.run_until_idle();
        assert!(sim.core.is_detached(b));
        assert_eq!(
            sim.node::<Crashed>(b).unwrap().events,
            1,
            "only the start event"
        );
    }

    /// Detaches itself on start: a host crash.
    #[derive(Default)]
    struct Crashed {
        events: u32,
    }

    impl Node<Msg> for Crashed {
        fn on_event(&mut self, _: Event<Msg>, ctx: &mut Context<'_, Msg>) {
            self.events += 1;
            ctx.detach_self();
        }
    }

    /// A node that sets a timer on start and records whether it fired.
    struct TimerNode {
        cancel: bool,
        token: Option<TimerToken>,
        fired: bool,
    }

    impl Node<Msg> for TimerNode {
        fn on_event(&mut self, event: Event<Msg>, ctx: &mut Context<'_, Msg>) {
            match event {
                Event::Started => {
                    let token = ctx.set_timer(Duration::from_millis(5));
                    if self.cancel {
                        ctx.cancel_timer(token);
                    }
                    self.token = Some(token);
                }
                Event::Timer { token } => {
                    assert_eq!(Some(token), self.token);
                    self.fired = true;
                }
                Event::Message { .. } => {}
            }
        }
    }

    #[test]
    fn timers_fire_unless_cancelled() {
        let mut sim = Simulation::<Msg>::new(1);
        let keep = sim.add_node(TimerNode {
            cancel: false,
            token: None,
            fired: false,
        });
        let cancel = sim.add_node(TimerNode {
            cancel: true,
            token: None,
            fired: false,
        });
        sim.run_until_idle();
        assert!(sim.node::<TimerNode>(keep).unwrap().fired);
        assert!(!sim.node::<TimerNode>(cancel).unwrap().fired);
        assert_eq!(sim.now(), Instant::from_millis(5));
    }

    #[test]
    fn late_added_nodes_get_started() {
        let mut sim = Simulation::<Msg>::new(1);
        let _a = sim.add_node(Echo::default());
        sim.run_until(Instant::from_millis(3));
        let b = sim.add_node(Echo::default());
        sim.run_until_idle();
        assert_eq!(sim.node::<Echo>(b).unwrap().log, vec![(3_000_000, "start")]);
    }

    /// On each Ping received, immediately arms a zero-delay timer that does
    /// the same, up to `cascade` times — a same-instant cascade used to pin
    /// the deadline-boundary contract.
    struct Cascader {
        cascade: u32,
        handled: Vec<u64>,
    }

    impl Node<Msg> for Cascader {
        fn on_event(&mut self, event: Event<Msg>, ctx: &mut Context<'_, Msg>) {
            if let Event::Message { .. } | Event::Timer { .. } = event {
                self.handled.push(ctx.now().as_nanos());
                if (self.handled.len() as u32) < self.cascade {
                    ctx.set_timer(Duration::ZERO);
                }
            }
        }
    }

    /// Pins the `run_until` boundary contract the sharded engine must
    /// reproduce: events at exactly the deadline run, zero-delay cascades
    /// they spawn at that instant run too, later events do not, and `now()`
    /// lands exactly on the deadline.
    #[test]
    fn run_until_boundary_processes_deadline_events_and_cascades() {
        let mut sim = Simulation::<Msg>::new(1);
        let a = sim.add_node(Echo::default());
        let c = sim.add_node(Cascader {
            cascade: 3,
            handled: Vec::new(),
        });
        let deadline = Instant::from_millis(10);
        sim.schedule_message(deadline, a, c, Msg::Ping);
        sim.schedule_message(
            Instant::from_nanos(deadline.as_nanos() + 1),
            a,
            c,
            Msg::Ping,
        );
        sim.run_until(deadline);
        let handled = &sim.node::<Cascader>(c).unwrap().handled;
        assert_eq!(
            handled,
            &vec![deadline.as_nanos(); 3],
            "the deadline event and its same-instant cascade all run"
        );
        assert_eq!(sim.now(), deadline, "time lands exactly on the deadline");
        sim.run_until_idle();
        assert_eq!(
            sim.node::<Cascader>(c).unwrap().handled.len(),
            4,
            "the deadline+1ns event was deferred, not dropped"
        );
    }

    /// `run_until` past an empty queue still advances the clock to the
    /// deadline (and never beyond it when events stop earlier).
    #[test]
    fn run_until_boundary_advances_clock_on_idle_queue() {
        let mut sim = Simulation::<Msg>::new(1);
        let a = sim.add_node(Echo::default());
        let b = sim.add_node(Echo::default());
        sim.schedule_message(Instant::from_millis(2), a, b, Msg::Ping);
        sim.run_until(Instant::from_millis(50));
        assert_eq!(sim.now(), Instant::from_millis(50));
    }

    #[test]
    fn deterministic_under_same_seed() {
        fn run(seed: u64) -> Vec<(u64, &'static str)> {
            let mut sim =
                Simulation::with_network(seed, crate::network::UniformLan::aqua_testbed());
            let a = sim.add_node(Echo::default());
            let b = sim.add_node(Echo::default());
            for i in 0..20 {
                sim.schedule_message(Instant::from_millis(i), a, b, Msg::Ping);
            }
            sim.run_until_idle();
            sim.node::<Echo>(a).unwrap().log.clone()
        }
        assert_eq!(run(99), run(99));
        assert_ne!(
            run(99),
            run(100),
            "different seeds jitter delays differently"
        );
    }

    #[test]
    fn downcast_to_wrong_type_is_none() {
        let mut sim = Simulation::<Msg>::new(1);
        let a = sim.add_node(Echo::default());
        assert!(sim.node::<TimerNode>(a).is_none());
        assert!(sim.node::<Echo>(NodeId::new(42)).is_none());
    }

    #[test]
    fn trace_records_sends_deliveries_and_timers() {
        let mut sim = Simulation::<Msg>::new(1);
        sim.enable_trace(64);
        let a = sim.add_node(Echo::default());
        let b = sim.add_node(Echo::default());
        sim.schedule_message(Instant::from_millis(1), a, b, Msg::Ping);
        sim.run_until_idle();
        // b got the ping and replied: a sent nothing itself? No — the Pong
        // came from b; a only received. Counters reflect that.
        assert_eq!(sim.node_counters(b).sent, 1, "the Pong");
        assert_eq!(sim.node_counters(b).delivered, 1, "the Ping");
        assert_eq!(sim.node_counters(a).delivered, 1, "the Pong");
        let kinds: Vec<&'static str> = sim
            .trace()
            .map(|r| match r.event {
                TraceEvent::NodeStarted { .. } => "start",
                TraceEvent::MessageSent { .. } => "sent",
                TraceEvent::MessageDelivered { .. } => "delivered",
                TraceEvent::TimerFired { .. } => "timer",
                TraceEvent::NodeDetached { .. } => "detached",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["start", "start", "delivered", "sent", "delivered"]
        );
    }

    #[test]
    fn export_obs_bridges_counters_and_trace() {
        let (obs, reader) = aqua_obs::Obs::in_memory();
        let mut sim = Simulation::<Msg>::new(1);
        sim.enable_trace(64);
        let a = sim.add_node(Echo::default());
        let b = sim.add_node(Echo::default());
        sim.schedule_message(Instant::from_millis(1), a, b, Msg::Ping);
        sim.run_until_idle();
        sim.export_obs(&obs);

        let prom = obs.prometheus();
        assert!(
            prom.contains("sim_messages_sent_total{node=\"1\"} 1"),
            "{prom}"
        );
        assert!(prom.contains("sim_messages_delivered_total{node=\"0\"} 1"));
        assert!(
            prom.contains("sim_timers_fired_total") || !prom.contains("timer"),
            "no timers ran"
        );
        let events = reader.lines_containing(r#""type":"sim_event""#);
        assert!(
            events
                .iter()
                .any(|l| l.contains(r#""event":"message_sent""#)),
            "{events:?}"
        );
        assert!(events
            .iter()
            .any(|l| l.contains(r#""event":"node_started""#)));
    }

    /// `Data` travels on the application plane, `Beat` on the group's.
    #[derive(Clone, Debug)]
    enum Planed {
        Data,
        Beat,
    }

    impl Payload for Planed {
        fn plane(&self) -> crate::Plane {
            match self {
                Planed::Data => crate::Plane::App,
                Planed::Beat => crate::Plane::Group,
            }
        }
    }

    /// Counts the `Data` it receives.
    #[derive(Default)]
    struct Sink {
        data: u32,
    }

    impl Node<Planed> for Sink {
        fn on_event(&mut self, event: Event<Planed>, _: &mut Context<'_, Planed>) {
            if let Event::Message {
                payload: Planed::Data,
                ..
            } = event
            {
                self.data += 1;
            }
        }
    }

    /// Two `Data` due at 5 and 9 ms, one dropped (due a day ahead), and
    /// `Beat`s at 7 and 20 ms, all from `a` to `b`.
    fn planes() -> (Simulation<Planed>, NodeId) {
        let mut sim = Simulation::<Planed>::new(1);
        let a = sim.add_node(Sink::default());
        let b = sim.add_node(Sink::default());
        for (at_ms, payload) in [
            (5, Planed::Data),
            (7, Planed::Beat),
            (9, Planed::Data),
            (20, Planed::Beat),
        ] {
            sim.schedule_message(Instant::from_millis(at_ms), a, b, payload);
        }
        let dropped = Instant::EPOCH.saturating_add(crate::topology::DROP_DELAY);
        sim.schedule_message(dropped, a, b, Planed::Data);
        (sim, b)
    }

    #[test]
    fn only_application_messages_that_will_land_are_in_flight() {
        let (mut sim, _) = planes();
        assert_eq!(sim.app_in_flight(), 2);
        sim.run_until(Instant::from_millis(5));
        assert_eq!(sim.app_in_flight(), 1);
        sim.run_until(Instant::from_millis(30));
        assert_eq!(sim.app_in_flight(), 0, "the dropped one never counted");
    }

    #[test]
    fn a_run_settles_at_its_last_application_event() {
        // Asked only once nothing is in flight: after the second `Data`.
        let (mut sim, b) = planes();
        assert!(sim.run_until_settled(Instant::from_secs(1), |_| true));
        assert_eq!(sim.now(), Instant::from_millis(9));
        assert_eq!(sim.node::<Sink>(b).unwrap().data, 2);
        // A predicate that never holds runs to the deadline.
        let (mut sim, _) = planes();
        assert!(!sim.run_until_settled(Instant::from_millis(30), |_| false));
        assert_eq!(sim.now(), Instant::from_millis(30));
        // Nor does a run settle before the deadline it is given.
        let (mut sim, _) = planes();
        assert!(!sim.run_until_settled(Instant::from_millis(6), |_| true));
        assert_eq!(sim.now(), Instant::from_millis(6));
        // Nor on a group-plane event: the `Beat` at 20 ms is not asked.
        let (mut sim, _) = planes();
        let late = |sim: &Simulation<Planed>| sim.now() >= Instant::from_millis(10);
        assert!(!sim.run_until_settled(Instant::from_secs(1), late));
        assert_eq!(sim.now(), Instant::from_secs(1));
    }
}
