//! Fleet-scale open-loop workload for geo scenarios.
//!
//! The paper's harness runs a handful of closed-loop clients against seven
//! replicas; the scenario engine needs the opposite shape — thousands of
//! open-loop clients spraying requests at hundreds of replicas across a
//! WAN topology. [`ScaleClient`] and [`ScaleReplica`] are deliberately
//! tiny actor implementations of that shape: clients fire requests at a
//! configured rate with randomized inter-arrivals (drawn from each node's
//! own deterministic RNG stream, so the sharded engine stays
//! worker-count-invariant), replicas serve them through a single-server
//! busy queue and reply. They run unchanged on [`lan_sim::Simulation`] and
//! [`lan_sim::ShardedSimulation`].

use std::collections::VecDeque;

use aqua_core::time::{Duration, Instant};
use lan_sim::{Context, Event, Node, NodeId, Payload};
use rand::Rng;

/// Messages of the scale workload.
#[derive(Debug, Clone)]
pub enum ScaleMsg {
    /// A client request.
    Request {
        /// Issuing client (reply address).
        client: NodeId,
        /// Client-local request number.
        seq: u64,
        /// Request wire size (bytes).
        size: u32,
        /// Wire size the reply should have (bytes).
        reply_size: u32,
    },
    /// A replica's reply.
    Reply {
        /// Echoed request number.
        seq: u64,
        /// Reply wire size (bytes).
        size: u32,
    },
}

impl Payload for ScaleMsg {
    fn wire_size(&self) -> usize {
        match self {
            ScaleMsg::Request { size, .. } | ScaleMsg::Reply { size, .. } => *size as usize,
        }
    }
}

/// An open-loop client: issues requests with randomized inter-arrival
/// times around a configured rate, to targets drawn from its nearest-k
/// replica list, and records latency statistics for replies.
pub struct ScaleClient {
    /// Nearest-k replica targets, precomputed by the scenario builder.
    pub targets: Vec<NodeId>,
    /// Mean inter-arrival gap.
    pub mean_gap: Duration,
    /// Destinations per request (multicast width).
    pub fanout: usize,
    /// Request wire size.
    pub request_bytes: u32,
    /// Requested reply wire size.
    pub reply_bytes: u32,
    /// Stop issuing new requests at this instant (replies still counted).
    pub issue_until: Instant,
    next_seq: u64,
    /// Unanswered requests as `(seq, sent at)`, in `seq` order: pushed at
    /// the back in issue order and only ever removed from.
    inflight: VecDeque<(u64, Instant)>,
    /// Requests issued.
    pub sent: u64,
    /// Replies received (first reply per request).
    pub received: u64,
    /// Sum of first-reply latencies, nanoseconds.
    pub total_latency_ns: u64,
    /// Worst first-reply latency, nanoseconds.
    pub max_latency_ns: u64,
}

impl ScaleClient {
    /// A client with no targets yet (the builder wires them afterwards).
    pub fn new(mean_gap: Duration, fanout: usize, issue_until: Instant) -> Self {
        ScaleClient {
            targets: Vec::new(),
            mean_gap,
            fanout: fanout.max(1),
            request_bytes: 256,
            reply_bytes: 512,
            issue_until,
            next_seq: 0,
            inflight: VecDeque::new(),
            sent: 0,
            received: 0,
            total_latency_ns: 0,
            max_latency_ns: 0,
        }
    }

    fn arm_next(&self, ctx: &mut Context<'_, ScaleMsg>) {
        // Exponential-ish inter-arrival: -ln(U) × mean, clamped away from
        // zero so pathological draws cannot collapse into one instant.
        let u: f64 = ctx.rng().gen_range(0.000_1..1.0f64);
        let gap = self.mean_gap.mul_f64((-u.ln()).max(0.01));
        ctx.set_timer(gap);
    }
}

impl Node<ScaleMsg> for ScaleClient {
    fn on_event(&mut self, event: Event<ScaleMsg>, ctx: &mut Context<'_, ScaleMsg>) {
        match event {
            Event::Started => {
                if !self.targets.is_empty() {
                    self.arm_next(ctx);
                }
            }
            Event::Timer { .. } => {
                if ctx.now() >= self.issue_until || self.targets.is_empty() {
                    return;
                }
                let seq = self.next_seq;
                self.next_seq += 1;
                let pick = ctx.rng().gen_range(0..self.targets.len());
                let fanout = self.fanout.min(self.targets.len());
                let request = ScaleMsg::Request {
                    client: ctx.self_id(),
                    seq,
                    size: self.request_bytes,
                    reply_size: self.reply_bytes,
                };
                for i in 0..fanout {
                    let to = self.targets[(pick + i) % self.targets.len()];
                    ctx.send(to, request.clone());
                }
                self.inflight.push_back((seq, ctx.now()));
                self.sent += 1;
                self.arm_next(ctx);
            }
            Event::Message { payload, .. } => {
                if let ScaleMsg::Reply { seq, .. } = payload {
                    if let Ok(pos) = self.inflight.binary_search_by_key(&seq, |(s, _)| *s) {
                        let (_, sent_at) = self.inflight.remove(pos).expect("position found");
                        let latency = ctx.now().saturating_duration_since(sent_at).as_nanos();
                        self.received += 1;
                        self.total_latency_ns += latency;
                        self.max_latency_ns = self.max_latency_ns.max(latency);
                    }
                }
            }
        }
    }
}

/// A replica serving requests through a single-server busy queue: each
/// request completes at `max(busy_until, now) + service`, where the
/// per-request service time is the configured mean with ±20% uniform
/// spread from the replica's own RNG stream.
pub struct ScaleReplica {
    /// Mean service time per request.
    pub service: Duration,
    busy_until: Instant,
    pending: VecDeque<(NodeId, u64, u32)>,
    /// Requests served.
    pub served: u64,
}

impl ScaleReplica {
    /// A replica with the given mean service time.
    pub fn new(service: Duration) -> Self {
        ScaleReplica {
            service,
            busy_until: Instant::EPOCH,
            pending: VecDeque::new(),
            served: 0,
        }
    }
}

impl Node<ScaleMsg> for ScaleReplica {
    fn on_event(&mut self, event: Event<ScaleMsg>, ctx: &mut Context<'_, ScaleMsg>) {
        match event {
            Event::Started => {}
            Event::Message { payload, .. } => {
                if let ScaleMsg::Request {
                    client,
                    seq,
                    reply_size,
                    ..
                } = payload
                {
                    let spread = ctx.rng().gen_range(0.8..=1.2f64);
                    let service = self.service.mul_f64(spread);
                    let start = self.busy_until.max(ctx.now());
                    let done = start.saturating_add(service);
                    self.busy_until = done;
                    self.pending.push_back((client, seq, reply_size));
                    ctx.set_timer(done.saturating_duration_since(ctx.now()));
                }
            }
            Event::Timer { .. } => {
                // Completions are armed in arrival order and complete in
                // arrival order (the busy queue is FIFO), so the front of
                // the pending queue is the finished request.
                if let Some((client, seq, size)) = self.pending.pop_front() {
                    self.served += 1;
                    ctx.send(client, ScaleMsg::Reply { seq, size });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lan_sim::topology::RegionSpec;
    use lan_sim::{GeoTopology, ShardedSimulation};

    fn topo() -> GeoTopology {
        let mut t = GeoTopology::from_rtt_ms(
            vec![RegionSpec::named("a"), RegionSpec::named("b")],
            &[vec![0.0, 10.0], vec![10.0, 0.0]],
        );
        t.jitter = 0.05;
        t
    }

    #[test]
    fn open_loop_roundtrips_complete() {
        let horizon = Instant::from_millis(500);
        let mut sim = ShardedSimulation::<ScaleMsg>::new(3, 2, topo());
        let replica = sim.add_node_in_region(0, ScaleReplica::new(Duration::from_micros(200)));
        let client =
            sim.add_node_in_region(1, ScaleClient::new(Duration::from_millis(10), 1, horizon));
        sim.node_mut::<ScaleClient>(client).unwrap().targets = vec![replica];
        sim.run_until(Instant::from_millis(600));
        let c = sim.node::<ScaleClient>(client).unwrap();
        assert!(c.sent > 10, "open loop kept issuing: {}", c.sent);
        assert_eq!(c.received, c.sent, "every request got a reply");
        let mean = Duration::from_nanos(c.total_latency_ns / c.received);
        assert!(
            mean >= Duration::from_millis(10),
            "latency at least one RTT: {mean:?}"
        );
        let r = sim.node::<ScaleReplica>(replica).unwrap();
        assert_eq!(r.served, c.sent);
    }

    /// A client wrapped in the books it used to keep: a list scanned from
    /// the front for every reply. The wrapped client makes every RNG draw
    /// and every send, so both sets of books see one history.
    struct LinearScanBooks {
        client: ScaleClient,
        inflight: Vec<(u64, Instant)>,
        received: u64,
        total_latency_ns: u64,
        max_latency_ns: u64,
        newest_answered: u64,
        overtaken: u64,
    }

    impl Node<ScaleMsg> for LinearScanBooks {
        fn on_event(&mut self, event: Event<ScaleMsg>, ctx: &mut Context<'_, ScaleMsg>) {
            let now = ctx.now();
            let reply = match &event {
                Event::Message {
                    payload: ScaleMsg::Reply { seq, .. },
                    ..
                } => Some(*seq),
                _ => None,
            };
            let issued = self.client.sent;
            self.client.on_event(event, ctx);
            if self.client.sent > issued {
                // Request numbers count issued requests.
                self.inflight.push((issued, now));
            }
            let Some(seq) = reply else { return };
            if let Some(pos) = self.inflight.iter().position(|(s, _)| *s == seq) {
                let (_, sent_at) = self.inflight.remove(pos);
                let latency = now.saturating_duration_since(sent_at).as_nanos();
                self.received += 1;
                self.total_latency_ns += latency;
                self.max_latency_ns = self.max_latency_ns.max(latency);
                self.overtaken += u64::from(seq < self.newest_answered);
                self.newest_answered = self.newest_answered.max(seq);
            }
        }
    }

    #[test]
    fn lost_requests_and_overtaking_replies_keep_the_books_straight() {
        let mut topology = topo();
        topology.loss = 0.3;
        let horizon = Instant::from_millis(400);
        let mut sim = ShardedSimulation::<ScaleMsg>::new(17, 2, topology);
        let replicas: Vec<NodeId> = (0..2)
            .map(|r| sim.add_node_in_region(r, ScaleReplica::new(Duration::from_micros(100))))
            .collect();
        let clients: Vec<NodeId> = (0..4)
            .map(|i| {
                // A near and a far replica, picked at random, and gaps much
                // shorter than the 10 ms RTT: near replies overtake far ones.
                let mut client = ScaleClient::new(Duration::from_millis(1), 1, horizon);
                client.targets = replicas.clone();
                sim.add_node_in_region(
                    i % 2,
                    LinearScanBooks {
                        client,
                        inflight: Vec::new(),
                        received: 0,
                        total_latency_ns: 0,
                        max_latency_ns: 0,
                        newest_answered: 0,
                        overtaken: 0,
                    },
                )
            })
            .collect();
        sim.run_until(Instant::from_millis(1_000));
        for id in clients {
            let books = sim.node::<LinearScanBooks>(id).unwrap();
            let client = &books.client;
            assert!(client.sent > 100, "open loop kept issuing: {}", client.sent);
            assert!(
                books.overtaken > 10,
                "replies overtook: {}",
                books.overtaken
            );
            assert!(client.inflight.len() > 10, "requests or replies were lost");
            assert_eq!(client.received + client.inflight.len() as u64, client.sent);
            assert_eq!(client.inflight.len(), books.inflight.len());
            assert_eq!(
                (
                    client.received,
                    client.total_latency_ns,
                    client.max_latency_ns
                ),
                (books.received, books.total_latency_ns, books.max_latency_ns),
                "binary search and linear scan disagree"
            );
        }
    }

    #[test]
    fn scale_workload_invariant_across_workers() {
        fn run(workers: usize) -> (u64, u64, u64) {
            let horizon = Instant::from_millis(300);
            let mut sim = ShardedSimulation::<ScaleMsg>::new(11, workers, topo());
            let mut replicas = Vec::new();
            for r in 0..2 {
                replicas
                    .push(sim.add_node_in_region(r, ScaleReplica::new(Duration::from_micros(300))));
            }
            for r in 0..2 {
                for _ in 0..3 {
                    let id = sim.add_node_in_region(
                        r,
                        ScaleClient::new(Duration::from_millis(7), 1, horizon),
                    );
                    sim.node_mut::<ScaleClient>(id).unwrap().targets = replicas.clone();
                }
            }
            sim.run_until(Instant::from_millis(400));
            (
                sim.trace_digest(),
                sim.events_processed(),
                sim.messages_sent(),
            )
        }
        assert_eq!(run(1), run(2));
    }
}
