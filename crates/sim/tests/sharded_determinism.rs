//! Worker-count-invariance tests for the sharded engine.
//!
//! The core claim (DESIGN.md §16): for a fixed seed and wiring, the merged
//! history of a [`ShardedSimulation`] is *bit-identical* for every worker
//! count — `W = 1` (the sequential baseline) and any parallel `W` produce
//! the same `TraceRecord` stream, the same per-node digests, and the same
//! final node states. The proptests drive random node graphs, workloads,
//! and seeds through W ∈ {1, 2, 4, 8}; the unit suite pins the tricky
//! cross-shard interleavings (message vs. timer ties at one instant,
//! cancellation across windows, zero-delay cascades at the deadline).

use aqua_core::time::{Duration, Instant};
use lan_sim::topology::RegionSpec;
use lan_sim::{
    Context, Event, GeoTopology, Node, NodeId, Payload, ShardedSimulation, TimerToken, TraceRecord,
};
use proptest::prelude::*;
use rand::Rng;

#[derive(Debug, Clone)]
struct Gossip {
    ttl: u32,
    tag: u32,
}
impl Payload for Gossip {}

/// Forwards each message to a randomly chosen neighbour (drawing from the
/// node's own RNG stream) while TTL remains, sometimes via a timer
/// indirection, and records everything it sees.
struct Gossiper {
    neighbours: Vec<NodeId>,
    log: Vec<(u64, u32, u32)>,
    pending: Vec<(TimerToken, Gossip)>,
}

impl Gossiper {
    fn new(neighbours: Vec<NodeId>) -> Self {
        Gossiper {
            neighbours,
            log: Vec::new(),
            pending: Vec::new(),
        }
    }

    fn forward(&mut self, g: Gossip, ctx: &mut Context<'_, Gossip>) {
        if g.ttl == 0 || self.neighbours.is_empty() {
            return;
        }
        let pick = ctx.rng().gen_range(0..self.neighbours.len());
        let to = self.neighbours[pick];
        let next = Gossip {
            ttl: g.ttl - 1,
            tag: g.tag,
        };
        // A third of forwards go through a timer indirection so timers and
        // messages interleave; one in six of those gets cancelled again.
        match ctx.rng().gen_range(0u32..6) {
            0 | 1 => {
                let delay = Duration::from_micros(ctx.rng().gen_range(0u64..40_000));
                let token = ctx.set_timer(delay);
                self.pending.push((token, next));
                if ctx.rng().gen_range(0u32..6) == 0 {
                    ctx.cancel_timer(token);
                }
            }
            _ => ctx.send(to, next),
        }
    }
}

impl Node<Gossip> for Gossiper {
    fn on_event(&mut self, event: Event<Gossip>, ctx: &mut Context<'_, Gossip>) {
        match event {
            Event::Started => {}
            Event::Message { from, payload } => {
                self.log
                    .push((ctx.now().as_nanos(), from.index(), payload.tag));
                self.forward(payload, ctx);
            }
            Event::Timer { token } => {
                self.log.push((ctx.now().as_nanos(), u32::MAX, 0));
                if let Some(pos) = self.pending.iter().position(|(t, _)| *t == token) {
                    let (_, g) = self.pending.remove(pos);
                    if !self.neighbours.is_empty() {
                        let pick = ctx.rng().gen_range(0..self.neighbours.len());
                        let to = self.neighbours[pick];
                        ctx.send(to, g);
                    }
                }
            }
        }
    }
}

/// Per-node receive logs: one `(at_ns, from, ttl)` list per node.
type NodeLogs = Vec<Vec<(u64, u32, u32)>>;

/// Everything a run leaves behind: digest, merged trace, per-node logs.
type History = (u64, Vec<TraceRecord>, NodeLogs);

/// The first `regions` regions of the AWS topology with 15 % jitter and
/// the given loss probability.
fn fleet_topology(regions: usize, loss: f64) -> GeoTopology {
    let aws = GeoTopology::aws_5region();
    let regions = regions.clamp(1, aws.region_count());
    let specs: Vec<RegionSpec> = aws.regions()[..regions].to_vec();
    let rtt: Vec<Vec<f64>> = (0..regions)
        .map(|i| {
            (0..regions)
                .map(|j| aws.one_way(i, j).as_nanos() as f64 * 2.0 / 1_000_000.0)
                .collect()
        })
        .collect();
    let mut topo = GeoTopology::from_rtt_ms(specs, &rtt);
    topo.jitter = 0.15;
    topo.loss = loss;
    topo
}

/// Builds a gossip fleet over `regions` regions with `per_region` nodes
/// and ring+cross neighbour wiring, and injects `injections`
/// (`(at_ms, source, ttl)`).
fn build_fleet(
    workers: usize,
    seed: u64,
    regions: usize,
    per_region: usize,
    loss: f64,
    injections: &[(u64, u32, u32)],
) -> (ShardedSimulation<Gossip>, Vec<NodeId>) {
    let topo = fleet_topology(regions, loss);
    let regions = topo.region_count();
    let mut sim = ShardedSimulation::<Gossip>::new(seed, workers, topo);
    sim.enable_trace(1 << 16);
    let total = regions * per_region;
    let ids: Vec<NodeId> = (0..total)
        .map(|i| sim.add_node_in_region(i % regions, Gossiper::new(Vec::new())))
        .collect();
    for (i, id) in ids.iter().enumerate() {
        let mut neighbours = vec![ids[(i + 1) % total], ids[(i + total / 2).max(1) % total]];
        neighbours.retain(|n| n != id);
        sim.node_mut::<Gossiper>(*id).unwrap().neighbours = neighbours;
    }
    for (at_ms, src, ttl) in injections {
        inject(&mut sim, &ids, Instant::from_millis(*at_ms), *src, *ttl);
    }
    (sim, ids)
}

/// Injects a gossip from node `src` to its ring successor at `at`.
fn inject(sim: &mut ShardedSimulation<Gossip>, ids: &[NodeId], at: Instant, src: u32, ttl: u32) {
    let from = ids[src as usize % ids.len()];
    let to = ids[(src as usize + 1) % ids.len()];
    sim.schedule_message(
        at,
        from,
        to,
        Gossip {
            ttl: ttl % 6,
            tag: src,
        },
    );
}

fn history(sim: &ShardedSimulation<Gossip>, ids: &[NodeId]) -> History {
    let logs = ids
        .iter()
        .map(|id| sim.node::<Gossiper>(*id).unwrap().log.clone())
        .collect();
    (sim.trace_digest(), sim.merged_trace(), logs)
}

/// Builds a lossless fleet, runs it to `deadline_ms` in one go, and
/// returns its history.
fn run_fleet(
    workers: usize,
    seed: u64,
    regions: usize,
    per_region: usize,
    injections: &[(u64, u32, u32)],
    deadline_ms: u64,
) -> History {
    let (mut sim, ids) = build_fleet(workers, seed, regions, per_region, 0.0, injections);
    sim.run_until(Instant::from_millis(deadline_ms));
    history(&sim, &ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random graphs × random seeds × W ∈ {1, 2, 4, 8}: byte-identical
    /// merged `TraceRecord` streams, digests, and node logs.
    #[test]
    fn merged_histories_invariant_across_worker_counts(
        seed in 0u64..10_000,
        regions in 2usize..=5,
        per_region in 1usize..=4,
        injections in prop::collection::vec((0u64..500, 0u32..20, 0u32..8), 1..12),
    ) {
        let (d1, t1, l1) = run_fleet(1, seed, regions, per_region, &injections, 1_500);
        for w in [2usize, 4, 8] {
            let (dw, tw, lw) = run_fleet(w, seed, regions, per_region, &injections, 1_500);
            prop_assert_eq!(d1, dw, "digest differs at W={}", w);
            prop_assert_eq!(&t1, &tw, "merged trace differs at W={}", w);
            prop_assert_eq!(&l1, &lw, "node logs differ at W={}", w);
        }
    }

    /// Chopping a parallel run into arbitrary `run_until` slices must not
    /// change the history — barrier windows compose with any deadline.
    #[test]
    fn sliced_runs_match_whole_runs(
        seed in 0u64..1_000,
        slice_ms in 7u64..200,
        injections in prop::collection::vec((0u64..400, 0u32..10, 0u32..6), 1..8),
    ) {
        let (d_whole, t_whole, _) = run_fleet(4, seed, 3, 2, &injections, 1_200);
        let (mut sim, _) = build_fleet(4, seed, 3, 2, 0.0, &injections);
        let mut t = 0;
        while t < 1_200 {
            t = (t + slice_ms).min(1_200);
            sim.run_until(Instant::from_millis(t));
        }
        prop_assert_eq!(d_whole, sim.trace_digest(), "sliced digest differs");
        prop_assert_eq!(&t_whole, &sim.merged_trace(), "sliced trace differs");
    }

    /// Changing any one word a digest folds — a delivery time, an event's
    /// origin, a message's destination or size, a timer's due time —
    /// changes `trace_digest()`.
    #[test]
    fn one_changed_word_changes_the_digest(
        seed in 0u64..1_000,
        scripts in prop::collection::vec(
            prop::collection::vec((any::<bool>(), 0u32..6, 1u64..5_000), 0..4),
            6,
        ),
        injections in prop::collection::vec((0u64..50_000, 0u32..6, 0u32..5), 1..6),
        pick in any::<u64>(),
        field in 0u8..3,
        delta in 1u64..5,
    ) {
        let base = scripted_digest(seed, &scripts, &injections);
        prop_assert_eq!(base, scripted_digest(seed, &scripts, &injections), "not a function of its inputs");

        let mut scripts = scripts;
        let mut injections = injections;
        let steps: Vec<(usize, usize)> = scripts
            .iter()
            .enumerate()
            .flat_map(|(node, script)| (0..script.len()).map(move |step| (node, step)))
            .collect();
        if field == 0 || steps.is_empty() {
            // An injection's delivery time, sender (the event's origin) or
            // destination.
            let chosen = pick as usize % injections.len();
            let (at_us, from, hop) = &mut injections[chosen];
            match pick % 3 {
                0 => *at_us += delta,
                1 => *from = (*from + delta as u32) % 6,
                _ => *hop = (*hop + delta as u32) % 5,
            }
        } else {
            // A scripted send's destination or size, or a timer's delay.
            let (node, step) = steps[pick as usize % steps.len()];
            let (is_send, to, amount) = &mut scripts[node][step];
            if field == 1 && *is_send {
                *to = (*to + delta as u32) % 6;
            } else {
                *amount += delta;
            }
        }
        prop_assert!(base != scripted_digest(seed, &scripts, &injections), "digest did not move");
    }
}

/// On start, runs a script of `(is_send, to, amount)`: a send of `amount`
/// bytes to node `to`, or a timer `amount` microseconds ahead.
struct Scripted {
    script: Vec<(bool, u32, u64)>,
}

#[derive(Debug, Clone)]
struct Sized(usize);
impl Payload for Sized {
    fn wire_size(&self) -> usize {
        self.0
    }
}

impl Node<Sized> for Scripted {
    fn on_event(&mut self, event: Event<Sized>, ctx: &mut Context<'_, Sized>) {
        if let Event::Started = event {
            for (is_send, to, amount) in &self.script {
                if *is_send {
                    ctx.send(NodeId::new(*to), Sized(*amount as usize));
                } else {
                    ctx.set_timer(Duration::from_micros(*amount));
                }
            }
        }
    }
}

/// The digest of six scripted nodes over three regions after `injections`
/// of `(at_us, from, hop)` — a message from `from` to the node `1 + hop`
/// places after it.
fn scripted_digest(
    seed: u64,
    scripts: &[Vec<(bool, u32, u64)>],
    injections: &[(u64, u32, u32)],
) -> u64 {
    let mut topo = fleet_topology(3, 0.0);
    // A message's size moves its delivery time only through the per-byte
    // term; without jitter that is the one word a size change moves.
    topo.jitter = 0.0;
    let mut sim = ShardedSimulation::<Sized>::new(seed, 2, topo);
    for (i, script) in scripts.iter().enumerate() {
        sim.add_node_in_region(
            i % 3,
            Scripted {
                script: script.clone(),
            },
        );
    }
    let nodes = scripts.len() as u32;
    for (at_us, from, hop) in injections {
        let to = (from + 1 + hop) % nodes;
        sim.schedule_message(
            Instant::from_nanos(at_us * 1_000),
            NodeId::new(*from),
            NodeId::new(to),
            Sized(64),
        );
    }
    sim.run_until_idle();
    sim.trace_digest()
}

// ---------------------------------------------------------------------------
// Slices, past and far-future injections, lossy links: the queue's edges.
// ---------------------------------------------------------------------------

/// Forty injections spread over ten seconds, a few of them in the first
/// milliseconds, so that the fleet has work on both sides of every slice
/// boundary below.
fn long_run() -> Vec<(u64, u32, u32)> {
    (0..40u64)
        .map(|i| ((i * i * 7) % 10_000, i as u32, 5))
        .collect()
}

/// `run_until` in slices narrower than one queue bucket (≈ 1 ms) and in
/// one wider than the queue's ring (≈ 4.3 s), over lossy links — dropped
/// messages wait a day ahead, beyond the ring — gives the history of one
/// uninterrupted run, the same for every worker count.
#[test]
fn slices_narrower_than_a_bucket_and_wider_than_the_ring_compose() {
    let run = |workers: usize, sliced: bool| {
        let (mut sim, ids) = build_fleet(workers, 77, 5, 3, 0.2, &long_run());
        if sliced {
            for step in 1..=150u64 {
                sim.run_until(Instant::from_nanos(step * 300_000));
            }
            sim.run_until(Instant::from_millis(5_000));
            for step in 1..=20u64 {
                sim.run_until(Instant::from_nanos(5_000_000_000 + step * 700_000));
            }
        }
        sim.run_until(Instant::from_millis(10_000));
        history(&sim, &ids)
    };
    let whole = run(1, false);
    assert!(
        whole.2.iter().map(Vec::len).sum::<usize>() > 100,
        "the fleet gossiped"
    );
    for workers in [1usize, 2, 8] {
        assert_eq!(whole, run(workers, true), "sliced run at W={workers}");
        assert_eq!(whole, run(workers, false), "whole run at W={workers}");
    }
}

/// A message injected into the past and one a day ahead, then
/// `run_until_idle`: both are delivered, the past one first, and the
/// history is the same for every worker count.
#[test]
fn past_and_day_ahead_injections_are_delivered_in_order() {
    let run = |workers: usize| {
        let (mut sim, ids) = build_fleet(workers, 5, 5, 2, 0.1, &long_run()[..6]);
        sim.run_until(Instant::from_millis(50));
        inject(&mut sim, &ids, Instant::from_millis(10), 100, 0);
        inject(&mut sim, &ids, Instant::from_secs(86_400), 200, 0);
        inject(&mut sim, &ids, Instant::from_millis(60), 300, 0);
        sim.run_until_idle();
        assert!(sim.now() >= Instant::from_secs(86_400));
        history(&sim, &ids)
    };
    let one = run(1);
    let tags: Vec<u32> = one
        .2
        .iter()
        .flatten()
        .map(|(_, _, tag)| *tag)
        .filter(|tag| *tag >= 100)
        .collect();
    let mut sorted = tags.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, [100, 200, 300], "each late injection ran once");
    for workers in [2usize, 8] {
        assert_eq!(one, run(workers), "W={workers}");
    }
}

// ---------------------------------------------------------------------------
// Cross-shard timer/message interleaving unit suite.
// ---------------------------------------------------------------------------

fn two_regions(rtt_ms: f64) -> GeoTopology {
    let mut t = GeoTopology::from_rtt_ms(
        vec![RegionSpec::named("east"), RegionSpec::named("west")],
        &[vec![0.0, rtt_ms], vec![rtt_ms, 0.0]],
    );
    t.jitter = 0.0;
    t
}

/// Sets a timer on start; when a message and its timer land at the same
/// instant, the `(at, origin, seq)` order decides — and must decide the
/// same way for every worker count.
struct TieBreaker {
    timer_delay: Duration,
    order: Vec<&'static str>,
}

impl Node<Gossip> for TieBreaker {
    fn on_event(&mut self, event: Event<Gossip>, ctx: &mut Context<'_, Gossip>) {
        match event {
            Event::Started => {
                if !self.timer_delay.is_zero() {
                    ctx.set_timer(self.timer_delay);
                }
            }
            Event::Message { .. } => self.order.push("message"),
            Event::Timer { .. } => self.order.push("timer"),
        }
    }
}

fn tie_order(workers: usize) -> (Vec<&'static str>, u64) {
    // 10 ms one-way link: the injected message from the east node arrives
    // at the west node at exactly t=10ms, the same instant its own timer
    // fires.
    let mut sim = ShardedSimulation::<Gossip>::new(9, workers, two_regions(20.0));
    let east = sim.add_node_in_region(
        0,
        TieBreaker {
            timer_delay: Duration::ZERO,
            order: Vec::new(),
        },
    );
    let west = sim.add_node_in_region(
        1,
        TieBreaker {
            timer_delay: Duration::from_millis(10),
            order: Vec::new(),
        },
    );
    sim.schedule_message(
        Instant::from_millis(10),
        east,
        west,
        Gossip { ttl: 0, tag: 0 },
    );
    sim.run_until_idle();
    (
        sim.node::<TieBreaker>(west).unwrap().order.clone(),
        sim.trace_digest(),
    )
}

#[test]
fn same_instant_cross_shard_message_vs_timer_ties_are_stable() {
    let (o1, d1) = tie_order(1);
    let (o2, d2) = tie_order(2);
    assert_eq!(o1.len(), 2, "both the message and the timer ran: {o1:?}");
    assert_eq!(o1, o2, "tie order depends on worker count");
    assert_eq!(d1, d2);
}

/// A timer armed in one window and cancelled in a later one (after a
/// cross-shard round boundary) must still be suppressed.
struct LateCancel {
    token: Option<TimerToken>,
    fired: bool,
}

impl Node<Gossip> for LateCancel {
    fn on_event(&mut self, event: Event<Gossip>, ctx: &mut Context<'_, Gossip>) {
        match event {
            Event::Started => {
                // Fires far in the future, well past several windows.
                self.token = Some(ctx.set_timer(Duration::from_millis(100)));
            }
            Event::Message { .. } => {
                // The cross-shard "cancel request" arrives ~10 ms in.
                if let Some(token) = self.token {
                    ctx.cancel_timer(token);
                }
            }
            Event::Timer { .. } => self.fired = true,
        }
    }
}

#[test]
fn cancellation_crosses_window_boundaries() {
    for workers in [1usize, 2] {
        let mut sim = ShardedSimulation::<Gossip>::new(5, workers, two_regions(20.0));
        let east = sim.add_node_in_region(
            0,
            TieBreaker {
                timer_delay: Duration::ZERO,
                order: Vec::new(),
            },
        );
        let west = sim.add_node_in_region(
            1,
            LateCancel {
                token: None,
                fired: false,
            },
        );
        sim.schedule_message(
            Instant::from_millis(5),
            east,
            west,
            Gossip { ttl: 0, tag: 0 },
        );
        sim.run_until_idle();
        assert!(
            !sim.node::<LateCancel>(west).unwrap().fired,
            "timer fired despite cancel (W={workers})"
        );
        assert!(sim.rounds() >= 2 || workers == 1);
    }
}

/// Lookahead must bound window size: with a 20 ms RTT (10 ms one-way
/// lookahead) and two shards, events 100 ms apart need multiple rounds,
/// and every cross-shard delivery lands in a strictly later round than
/// its send.
#[test]
fn rounds_scale_with_lookahead() {
    let mut sim = ShardedSimulation::<Gossip>::new(11, 2, two_regions(20.0));
    assert_eq!(sim.lookahead(), Duration::from_millis(10));
    let east = sim.add_node_in_region(
        0,
        TieBreaker {
            timer_delay: Duration::ZERO,
            order: Vec::new(),
        },
    );
    let west = sim.add_node_in_region(
        1,
        TieBreaker {
            timer_delay: Duration::ZERO,
            order: Vec::new(),
        },
    );
    for i in 0..10u64 {
        sim.schedule_message(
            Instant::from_millis(i * 100),
            east,
            west,
            Gossip {
                ttl: 0,
                tag: i as u32,
            },
        );
    }
    sim.run_until_idle();
    assert_eq!(sim.node::<TieBreaker>(west).unwrap().order.len(), 10);
    assert!(
        sim.rounds() >= 10,
        "10 deliveries 100 ms apart with 10 ms lookahead need ≥10 rounds, got {}",
        sim.rounds()
    );
}

/// Deadline exactly on a cross-shard arrival instant: the arrival runs,
/// its same-instant consequences run, nothing later does — identically
/// for sequential and parallel engines.
#[test]
fn deadline_at_cross_shard_arrival_is_inclusive() {
    for workers in [1usize, 2] {
        let mut sim = ShardedSimulation::<Gossip>::new(3, workers, two_regions(20.0));
        let east = sim.add_node_in_region(
            0,
            TieBreaker {
                timer_delay: Duration::ZERO,
                order: Vec::new(),
            },
        );
        let west = sim.add_node_in_region(
            1,
            TieBreaker {
                timer_delay: Duration::ZERO,
                order: Vec::new(),
            },
        );
        let deadline = Instant::from_millis(10);
        sim.schedule_message(deadline, east, west, Gossip { ttl: 0, tag: 1 });
        sim.schedule_message(
            Instant::from_nanos(deadline.as_nanos() + 1),
            east,
            west,
            Gossip { ttl: 0, tag: 2 },
        );
        sim.run_until(deadline);
        assert_eq!(
            sim.node::<TieBreaker>(west).unwrap().order.len(),
            1,
            "exactly the deadline event ran (W={workers})"
        );
        assert_eq!(sim.now(), deadline);
        sim.run_until_idle();
        assert_eq!(sim.node::<TieBreaker>(west).unwrap().order.len(), 2);
    }
}
