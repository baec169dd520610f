//! Sharded, conservatively-synchronized parallel DES engine.
//!
//! [`ShardedSimulation`] partitions nodes across `W` worker shards, each
//! with its own event queue, and synchronizes shards with a CMB-style
//! time-window barrier: every round the workers agree on the globally
//! earliest pending event time `T` and then each processes its local
//! events inside the inclusive window `[T, T + L − 1]`, where the
//! lookahead `L` is the minimum one-way latency of any inter-region link
//! ([`GeoTopology::min_inter_region_delay`]). A message sent from inside
//! the window at time `t ≥ T` arrives at `t + delay ≥ T + L`, i.e.
//! strictly *after* every window of the current round — so shards never
//! need to peek at each other mid-window and no rollbacks are required.
//! (Using `T + L` as the window end is the classic off-by-one: an arrival
//! at exactly `T + L` could land in a window another shard has already
//! finished. The lint crate's shard-barrier interleaving model proves the
//! checker catches that variant.)
//!
//! # Determinism across worker counts
//!
//! The engine is deterministic not just run-to-run but across `W`: for a
//! fixed seed, `W = 1` and `W = 8` produce bit-identical merged histories.
//! Two choices make partition-independence hold:
//!
//! * **Per-node RNG streams.** Every node draws from its own
//!   [`SmallRng`] seeded by `splitmix64(seed, node_index)` — no shared
//!   stream whose interleaving could depend on the partition.
//! * **Per-origin event keys.** Every scheduled event carries
//!   `(timestamp, origin, origin_seq)` where `origin_seq` comes from the
//!   *sending* node's private counter. The total order by that key is a
//!   property of the workload, not of the shard layout, and each shard's
//!   [`CalendarQueue`] pops in exactly that order.
//!
//! Since each node belongs to exactly one shard, a node's handler
//! sequence (events seen, RNG draws made, sends emitted) is identical for
//! every `W` — which is what the per-node digests and the merged-trace
//! proptests check.

use core::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Barrier, Mutex};

use aqua_core::aqua;
use aqua_core::time::{Duration, Instant};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::event::{Event, TimerToken};
use crate::node::{AnyNode, BitSet, Context, ContextCore, NodeId};
use crate::queue::{CalendarQueue, EventKey, Keyed};
use crate::topology::{GeoTopology, LinkFaultHook};
use crate::trace::{NodeCounters, TraceEvent, TraceRecord, Tracer};
use crate::Payload;

/// Horizon sentinel meaning "no work left / deadline passed: stop".
const STOP: u64 = u64::MAX;

/// SplitMix64 step, used to derive independent per-node RNG seeds from
/// the simulation seed. (Same generator the vendored `rand` uses to
/// expand seeds, applied here to decorrelate streams.)
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one 64-bit word into a running digest: xor, one multiply by an
/// odd constant, one xor-shift. Each step is a bijection of the digest for
/// a fixed word and of the word for a fixed digest, so two histories that
/// differ in a single folded word have different digests.
#[inline]
fn fold(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// What a scheduled event delivers, less what its key already says: a
/// message's sender is the key's origin, and a timer's token is its
/// target plus a per-node slot.
#[derive(Debug)]
enum Body<M> {
    Started,
    Message(M),
    Timer { slot: u32 },
}

/// What sits in a shard's queue, ordered by `(at, origin, origin_seq)` —
/// a total order independent of the shard layout. The key is stored as
/// fields so that `origin` and `target` share a word: six words with a
/// three-word payload.
#[derive(Debug)]
struct ShardScheduled<M> {
    at: Instant,
    origin_seq: u64,
    origin: NodeId,
    target: NodeId,
    body: Body<M>,
}

impl<M> ShardScheduled<M> {
    fn new(key: EventKey, target: NodeId, body: Body<M>) -> Self {
        ShardScheduled {
            at: Instant::from_nanos(key.at),
            origin_seq: key.seq,
            origin: NodeId::new(key.origin),
            target,
            body,
        }
    }
}

impl<M> Keyed for ShardScheduled<M> {
    #[inline]
    fn key(&self) -> EventKey {
        EventKey {
            at: self.at.as_nanos(),
            origin: self.origin.index(),
            seq: self.origin_seq,
        }
    }
}

/// The token of the timer in `slot` of `node`'s private timer counter.
fn timer_token(node: NodeId, slot: u32) -> TimerToken {
    TimerToken((u64::from(node.index()) << 32) | u64::from(slot))
}

/// A trace record tagged with the key of the event whose handler emitted
/// it plus an intra-handler index, so shard-local streams merge into the
/// exact sequential order.
#[derive(Debug)]
struct TaggedRecord {
    cause: EventKey,
    intra: u32,
    record: TraceRecord,
}

/// One node's shard-local state: behaviour, private RNG stream, private
/// event-sequence and timer counters, cancellation bits, and a running
/// digest of its local history (the partition-invariant fingerprint
/// the determinism gates compare).
struct LocalNode<M> {
    node: Option<Box<dyn AnyNode<M> + Send>>,
    rng: SmallRng,
    next_seq: u64,
    next_timer: u32,
    cancelled: BitSet,
    detached: bool,
    digest: u64,
}

impl<M> LocalNode<M> {
    /// Allocates the key of an event this node — `origin` — schedules for
    /// `at`, from its private sequence counter.
    #[inline]
    fn next_key(&mut self, origin: NodeId, at: Instant) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        EventKey {
            at: at.as_nanos(),
            origin: origin.index(),
            seq,
        }
    }
}

/// One worker shard: its event queue, the nodes it owns, counters, and
/// (when tracing) the tagged record log.
struct Shard<M> {
    queue: CalendarQueue<ShardScheduled<M>>,
    locals: Vec<LocalNode<M>>,
    tracer: Tracer,
    tagged: Vec<TaggedRecord>,
    tagged_dropped: u64,
    events_processed: u64,
    /// Virtual time of the last event this shard processed.
    now: Instant,
}

/// Read-only state shared by every worker during a run.
struct RunShared<'a> {
    topology: &'a GeoTopology,
    hooks: &'a [Box<dyn LinkFaultHook>],
    node_region: &'a [u32],
    node_shard: &'a [u32],
    node_local: &'a [u32],
    trace_on: bool,
    trace_cap: usize,
}

/// The engine-side [`ContextCore`] a shard hands to the node it is
/// dispatching: local sends go straight into the shard queue, cross-shard
/// sends into the per-destination outbox distributed at the barrier.
struct ShardCore<'a, 'b, M: Payload> {
    shard: &'a mut Shard<M>,
    shared: &'a RunShared<'b>,
    outbox: &'a mut [Vec<ShardScheduled<M>>],
    my_shard: u32,
    now: Instant,
    cause: EventKey,
    intra: u32,
}

impl<M: Payload> ShardCore<'_, '_, M> {
    fn local_mut(&mut self, node: NodeId) -> &mut LocalNode<M> {
        let li = self.shared.node_local[node.index() as usize] as usize;
        &mut self.shard.locals[li]
    }

    /// Records a trace event into the shard tracer (counters + tag log)
    /// attributed to the current cause.
    #[inline]
    fn note(&mut self, record: TraceEvent) {
        self.shard.tracer.record(self.now, record.clone());
        if self.shared.trace_on {
            if self.shard.tagged.len() >= self.shared.trace_cap {
                self.shard.tagged_dropped += 1;
            } else {
                self.shard.tagged.push(TaggedRecord {
                    cause: self.cause,
                    intra: self.intra,
                    record: TraceRecord {
                        at: self.now,
                        event: record,
                    },
                });
            }
        }
        self.intra += 1;
    }

    /// Routes an event to its target's shard: local targets go straight
    /// into this shard's queue, remote ones into the outbox.
    #[aqua::hot_path]
    fn route(&mut self, item: ShardScheduled<M>) {
        let dest = self.shared.node_shard[item.target.index() as usize];
        if dest == self.my_shard {
            self.shard.queue.push(item);
        } else {
            self.outbox[dest as usize].push(item);
        }
    }
}

impl<M: Payload> ContextCore<M> for ShardCore<'_, '_, M> {
    fn now(&self) -> Instant {
        self.now
    }

    fn rng_for(&mut self, node: NodeId) -> &mut SmallRng {
        &mut self.local_mut(node).rng
    }

    fn transmit(&mut self, from: NodeId, to: NodeId, payload: M, fanout: usize) {
        let size = payload.wire_size();
        let fr = self.shared.node_region[from.index() as usize] as usize;
        let tr = self.shared.node_region[to.index() as usize] as usize;
        let now = self.now;
        let topology = self.shared.topology;
        let hooks = self.shared.hooks;
        let local = self.local_mut(from);
        let delay = topology.link_delay(fr, tr, size, fanout, now, hooks, &mut local.rng);
        let at = now.saturating_add(delay);
        local.digest = fold(local.digest, 0xA1);
        local.digest = fold(local.digest, u64::from(to.index()));
        local.digest = fold(local.digest, size as u64);
        local.digest = fold(local.digest, at.as_nanos());
        let key = local.next_key(from, at);
        self.note(TraceEvent::MessageSent {
            from,
            to,
            size,
            deliver_at: at,
        });
        self.route(ShardScheduled::new(key, to, Body::Message(payload)));
    }

    fn send_self(&mut self, from: NodeId, after: Duration, payload: M) {
        let at = self.now.saturating_add(after);
        let local = self.local_mut(from);
        local.digest = fold(local.digest, 0xA2);
        local.digest = fold(local.digest, at.as_nanos());
        let key = local.next_key(from, at);
        self.shard
            .queue
            .push(ShardScheduled::new(key, from, Body::Message(payload)));
    }

    fn set_timer(&mut self, node: NodeId, after: Duration) -> TimerToken {
        let at = self.now.saturating_add(after);
        let local = self.local_mut(node);
        let slot = local.next_timer;
        local.next_timer += 1;
        local.digest = fold(local.digest, 0xA3);
        local.digest = fold(local.digest, at.as_nanos());
        let key = local.next_key(node, at);
        self.shard
            .queue
            .push(ShardScheduled::new(key, node, Body::Timer { slot }));
        timer_token(node, slot)
    }

    fn cancel_timer(&mut self, _node: NodeId, token: TimerToken) {
        // The owner is encoded in the token's high bits; timers are only
        // ever handed to the node that set them, so the owner is local.
        let owner = NodeId::new((token.value() >> 32) as u32);
        let slot = token.value() & 0xFFFF_FFFF;
        self.local_mut(owner).cancelled.set(slot);
    }

    fn detach(&mut self, node: NodeId) {
        let local = self.local_mut(node);
        local.detached = true;
        local.digest = fold(local.digest, 0xA4);
        self.note(TraceEvent::NodeDetached { node });
    }
}

/// Processes every event in `shard`'s queue with `at ≤ horizon`
/// (nanoseconds, inclusive), in `(at, origin, seq)` order, routing
/// cross-shard sends into `outbox`.
#[aqua::hot_path]
fn process_window<M: Payload>(
    shard: &mut Shard<M>,
    shared: &RunShared<'_>,
    my_shard: u32,
    horizon: u64,
    outbox: &mut [Vec<ShardScheduled<M>>],
) {
    while shard.queue.peek_at().is_some_and(|at| at <= horizon) {
        let Some(scheduled) = shard.queue.pop() else {
            return;
        };
        let key = scheduled.key();
        let ShardScheduled {
            at, target, body, ..
        } = scheduled;
        shard.now = shard.now.max(at);
        let li = shared.node_local[target.index() as usize] as usize;
        if let Body::Timer { slot } = body {
            if shard.locals[li].cancelled.take(u64::from(slot)) {
                continue;
            }
        }
        if shard.locals[li].detached {
            continue;
        }

        {
            let local = &mut shard.locals[li];
            local.digest = fold(local.digest, key.at);
            local.digest = fold(local.digest, u64::from(key.origin));
            local.digest = fold(local.digest, key.seq);
        }
        let mut node = shard.locals[li]
            .node
            .take()
            .expect("no re-entrant dispatch");
        {
            let mut core = ShardCore {
                shard: &mut *shard,
                shared,
                outbox,
                my_shard,
                now: at,
                cause: key,
                intra: 0,
            };
            let event = match body {
                Body::Started => {
                    let local = core.local_mut(target);
                    local.digest = fold(local.digest, 0xB1);
                    core.note(TraceEvent::NodeStarted { node: target });
                    Event::Started
                }
                Body::Message(payload) => {
                    let from = NodeId::new(key.origin);
                    core.note(TraceEvent::MessageDelivered { from, to: target });
                    Event::Message { from, payload }
                }
                Body::Timer { slot } => {
                    let token = timer_token(target, slot);
                    let local = core.local_mut(target);
                    local.digest = fold(local.digest, token.value());
                    core.note(TraceEvent::TimerFired { node: target });
                    Event::Timer { token }
                }
            };
            let mut ctx = Context {
                ops: &mut core,
                self_id: target,
            };
            node.on_event(event, &mut ctx);
        }
        shard.locals[li].node = Some(node);
        shard.events_processed += 1;
    }
}

/// A sharded, conservatively-synchronized parallel discrete-event
/// simulation over a [`GeoTopology`].
///
/// Same node programming model as [`crate::Simulation`] — the
/// [`Context`] hides the engine — but nodes are partitioned across up to
/// `workers` shards by region (`shard = region mod workers`), and shards
/// advance in lookahead-bounded time windows (see the module docs).
/// For the same seed and wiring, every worker count produces bit-identical
/// merged histories; `workers = 1` is the sequential baseline a speedup
/// is measured against.
pub struct ShardedSimulation<M: Payload + Send> {
    topology: GeoTopology,
    hooks: Vec<Box<dyn LinkFaultHook>>,
    workers: usize,
    effective: usize,
    lookahead: Duration,
    shards: Vec<Shard<M>>,
    node_region: Vec<u32>,
    node_shard: Vec<u32>,
    node_local: Vec<u32>,
    seed: u64,
    started: bool,
    now: Instant,
    rounds: u64,
    trace_on: bool,
    trace_cap: usize,
}

impl<M: Payload + Send> ShardedSimulation<M> {
    /// Creates a sharded simulation over `topology` with up to `workers`
    /// shards (clamped to the region count; forced to 1 when the topology
    /// has no inter-region link to derive a positive lookahead from).
    pub fn new(seed: u64, workers: usize, topology: GeoTopology) -> Self {
        let lookahead = topology.min_inter_region_delay();
        let effective = match lookahead {
            Some(l) if !l.is_zero() => workers.max(1).min(topology.region_count()),
            // Zero lookahead (or a single region) admits same-instant
            // cross-shard cascades, which would break conservative
            // windows — collapse to one shard.
            _ => 1,
        };
        let lookahead = if effective == 1 {
            Duration::MAX
        } else {
            lookahead.expect("effective > 1 implies an inter-region link")
        };
        ShardedSimulation {
            topology,
            hooks: Vec::new(),
            workers: workers.max(1),
            effective,
            lookahead,
            shards: (0..effective)
                .map(|_| Shard {
                    queue: CalendarQueue::new(),
                    locals: Vec::new(),
                    tracer: Tracer::default(),
                    tagged: Vec::new(),
                    tagged_dropped: 0,
                    events_processed: 0,
                    now: Instant::EPOCH,
                })
                .collect(),
            node_region: Vec::new(),
            node_shard: Vec::new(),
            node_local: Vec::new(),
            seed,
            started: false,
            now: Instant::EPOCH,
            rounds: 0,
            trace_on: false,
            trace_cap: 0,
        }
    }

    /// Adds a link-fault hook (applied to every message, in insertion
    /// order). Must be called before the first run.
    pub fn add_link_hook(&mut self, hook: Box<dyn LinkFaultHook>) {
        self.hooks.push(hook);
    }

    /// Registers a node in `region` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range for the topology.
    pub fn add_node_in_region<N: AnyNode<M> + Send>(&mut self, region: usize, node: N) -> NodeId {
        assert!(
            region < self.topology.region_count(),
            "region {region} out of range"
        );
        let id = NodeId::new(u32::try_from(self.node_region.len()).expect("node count fits u32"));
        let shard = (region % self.effective) as u32;
        self.node_region.push(region as u32);
        self.node_shard.push(shard);
        let locals = &mut self.shards[shard as usize].locals;
        self.node_local.push(locals.len() as u32);
        locals.push(LocalNode {
            node: Some(Box::new(node)),
            rng: SmallRng::seed_from_u64(splitmix64(self.seed ^ splitmix64(u64::from(id.index())))),
            next_seq: 0,
            next_timer: 0,
            cancelled: BitSet::default(),
            detached: false,
            digest: DIGEST_SEED,
        });
        if self.started {
            let at = self.now;
            self.push_from(id, at, id, Body::Started);
        }
        id
    }

    /// Registers a node in region 0.
    pub fn add_node<N: AnyNode<M> + Send>(&mut self, node: N) -> NodeId {
        self.add_node_in_region(0, node)
    }

    /// Allocates an event key from `origin`'s private counter and enqueues
    /// the event on `target`'s shard.
    fn push_from(&mut self, origin: NodeId, at: Instant, target: NodeId, body: Body<M>) {
        let oli = self.node_local[origin.index() as usize] as usize;
        let os = self.node_shard[origin.index() as usize] as usize;
        let key = self.shards[os].locals[oli].next_key(origin, at);
        let ts = self.node_shard[target.index() as usize] as usize;
        self.shards[ts]
            .queue
            .push(ShardScheduled::new(key, target, body));
    }

    /// Injects a message from `from` to `to` at absolute time `at`,
    /// bypassing the network model (tests and harnesses).
    pub fn schedule_message(&mut self, at: Instant, from: NodeId, to: NodeId, payload: M) {
        self.push_from(from, at, to, Body::Message(payload));
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let at = self.now;
        for index in 0..self.node_region.len() {
            let id = NodeId::new(index as u32);
            self.push_from(id, at, id, Body::Started);
        }
    }

    /// The requested worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The number of shards actually running (≤ workers, ≥ 1).
    pub fn effective_workers(&self) -> usize {
        self.effective
    }

    /// The synchronization lookahead ([`Duration::MAX`] when running as a
    /// single shard).
    pub fn lookahead(&self) -> Duration {
        self.lookahead
    }

    /// Barrier rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The current committed virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.node_region.len()
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// Total messages sent over the simulated network.
    pub fn messages_sent(&self) -> u64 {
        self.shards.iter().map(|s| s.tracer.total_sent()).sum()
    }

    /// Starts recording tagged trace records, up to `capacity` per shard.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace_on = true;
        self.trace_cap = capacity.max(1);
    }

    /// Trace records dropped because a shard's log hit capacity.
    pub fn trace_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.tagged_dropped).sum()
    }

    /// The merged trace: shard-local streams sorted by
    /// `(cause time, cause origin, cause seq, intra-handler index)` — the
    /// exact order a single-shard run emits them in.
    pub fn merged_trace(&self) -> Vec<TraceRecord> {
        let mut tagged: Vec<&TaggedRecord> =
            self.shards.iter().flat_map(|s| s.tagged.iter()).collect();
        tagged.sort_by_key(|t| (t.cause, t.intra));
        tagged.iter().map(|t| t.record.clone()).collect()
    }

    /// A partition-invariant digest of the full history: per-node
    /// digests (each a function only of that node's local event sequence)
    /// combined in node-id order. Bit-identical across worker counts for
    /// the same seed and wiring; O(nodes) memory, always on.
    pub fn trace_digest(&self) -> u64 {
        let mut h = DIGEST_SEED;
        for index in 0..self.node_region.len() {
            let li = self.node_local[index] as usize;
            let sh = self.node_shard[index] as usize;
            h = fold(h, index as u64);
            h = fold(h, self.shards[sh].locals[li].digest);
        }
        h
    }

    /// Communication counters for one node.
    pub fn node_counters(&self, id: NodeId) -> NodeCounters {
        let sh = self.node_shard[id.index() as usize] as usize;
        self.shards[sh].tracer.counters(id)
    }

    /// Detaches a node: every future delivery to it is dropped.
    pub fn detach_node(&mut self, id: NodeId) {
        let sh = self.node_shard[id.index() as usize] as usize;
        let li = self.node_local[id.index() as usize] as usize;
        let now = self.now;
        let shard = &mut self.shards[sh];
        shard.locals[li].detached = true;
        shard.locals[li].digest = fold(shard.locals[li].digest, 0xA4);
        shard
            .tracer
            .record(now, TraceEvent::NodeDetached { node: id });
    }

    /// Whether a node is detached.
    pub fn is_detached(&self, id: NodeId) -> bool {
        let sh = self.node_shard[id.index() as usize] as usize;
        let li = self.node_local[id.index() as usize] as usize;
        self.shards[sh].locals[li].detached
    }

    /// Immutable, downcast access to a node's state.
    pub fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        let sh = *self.node_shard.get(id.index() as usize)? as usize;
        let li = self.node_local[id.index() as usize] as usize;
        self.shards[sh].locals[li]
            .node
            .as_deref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable, downcast access to a node's state.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        let sh = *self.node_shard.get(id.index() as usize)? as usize;
        let li = self.node_local[id.index() as usize] as usize;
        self.shards[sh].locals[li]
            .node
            .as_deref_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Runs until every queue is empty.
    pub fn run_until_idle(&mut self) {
        self.run_rounds(None);
    }

    /// Runs until virtual time reaches `deadline` or all queues empty.
    ///
    /// Boundary contract — identical to [`crate::Simulation::run_until`]:
    /// events at exactly `deadline` are processed (including same-instant
    /// cascades), later events stay queued, and `now()` lands on
    /// `deadline`. At shard barriers the window end is
    /// `min(T + L − 1, deadline)`, so the deadline is always the inclusive
    /// end of the final window.
    pub fn run_until(&mut self, deadline: Instant) {
        self.run_rounds(Some(deadline));
        self.now = self.now.max(deadline);
    }

    /// Runs for `span` of virtual time from the current instant.
    pub fn run_for(&mut self, span: Duration) {
        let deadline = self.now.saturating_add(span);
        self.run_until(deadline);
    }

    /// The barrier-synchronized round loop (threaded when more than one
    /// shard is active; inline otherwise).
    fn run_rounds(&mut self, deadline: Option<Instant>) {
        self.ensure_started();
        let n = self.effective;
        let deadline_n = deadline.map(Instant::as_nanos);
        let shared = RunShared {
            topology: &self.topology,
            hooks: &self.hooks,
            node_region: &self.node_region,
            node_shard: &self.node_shard,
            node_local: &self.node_local,
            trace_on: self.trace_on,
            trace_cap: self.trace_cap,
        };

        if n == 1 {
            let shard = &mut self.shards[0];
            let mut outbox: Vec<Vec<ShardScheduled<M>>> = vec![Vec::new()];
            while let Some(next) = shard.queue.peek_at() {
                if deadline_n.is_some_and(|d| next > d) {
                    break;
                }
                // Infinite lookahead: one window drains everything due.
                let horizon = deadline_n.unwrap_or(u64::MAX - 1);
                process_window(shard, &shared, 0, horizon, &mut outbox);
                self.rounds += 1;
                debug_assert!(outbox[0].is_empty(), "single shard never routes out");
            }
            self.now = self.now.max(shard.now);
            return;
        }

        let lookahead_n = self.lookahead.as_nanos();
        let next_times: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let horizon = AtomicU64::new(0);
        let rounds = AtomicU64::new(0);
        let barrier = Barrier::new(n);
        let inboxes: Vec<Mutex<Vec<ShardScheduled<M>>>> =
            (0..n).map(|_| Mutex::new(Vec::new())).collect();

        std::thread::scope(|scope| {
            for (i, shard) in self.shards.iter_mut().enumerate() {
                let shared = &shared;
                let next_times = &next_times;
                let horizon = &horizon;
                let rounds = &rounds;
                let barrier = &barrier;
                let inboxes = &inboxes;
                scope.spawn(move || {
                    let mut outbox: Vec<Vec<ShardScheduled<M>>> =
                        (0..n).map(|_| Vec::new()).collect();
                    loop {
                        // 1. Publish my earliest pending event time.
                        let next = shard.queue.peek_at().unwrap_or(u64::MAX);
                        next_times[i].store(next, AtomicOrdering::Release);
                        let wait = barrier.wait();
                        // 2. Leader derives the round horizon
                        //    E = min(T + L − 1, deadline), or STOP.
                        if wait.is_leader() {
                            let t = next_times
                                .iter()
                                .map(|a| a.load(AtomicOrdering::Acquire))
                                .min()
                                .expect("at least one shard");
                            let h = if t == u64::MAX || deadline_n.is_some_and(|d| t > d) {
                                STOP
                            } else {
                                let end = t.saturating_add(lookahead_n).saturating_sub(1);
                                let end = deadline_n.map_or(end, |d| end.min(d));
                                end.min(STOP - 1)
                            };
                            horizon.store(h, AtomicOrdering::Release);
                            rounds.fetch_add(1, AtomicOrdering::AcqRel);
                        }
                        barrier.wait();
                        let h = horizon.load(AtomicOrdering::Acquire);
                        if h == STOP {
                            break;
                        }
                        // 3. Process my window; cross-shard sends land in
                        //    outboxes, then in destination inboxes.
                        process_window(shard, shared, i as u32, h, &mut outbox);
                        for (j, out) in outbox.iter_mut().enumerate() {
                            if !out.is_empty() {
                                inboxes[j].lock().expect("inbox poisoned").append(out);
                            }
                        }
                        // 4. All deliveries visible before anyone reads
                        //    next-round queue state.
                        barrier.wait();
                        let mut inbox = inboxes[i].lock().expect("inbox poisoned");
                        for item in inbox.drain(..) {
                            shard.queue.push(item);
                        }
                    }
                });
            }
        });

        self.rounds += rounds.load(AtomicOrdering::Acquire);
        let max_now = self
            .shards
            .iter()
            .map(|s| s.now)
            .max()
            .unwrap_or(Instant::EPOCH);
        self.now = self.now.max(max_now);
    }

    /// Bridges the sharded engine's observability into `obs`: merged
    /// per-node communication counters (same `sim_*` metrics as the
    /// sequential engine) plus per-shard event totals, barrier rounds, and
    /// the lookahead.
    pub fn export_obs(&self, obs: &aqua_obs::Obs) {
        let registry = obs.registry();
        let mut merged = Tracer::default();
        for shard in &self.shards {
            merged.absorb_counters(&shard.tracer);
        }
        for (node, counters) in merged.all_counters() {
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
        for (i, shard) in self.shards.iter().enumerate() {
            let shard_label = i.to_string();
            let labels = [("shard", shard_label.as_str())];
            registry
                .counter("sim_shard_events_total", &labels)
                .add(shard.events_processed);
        }
        registry
            .counter("sim_shard_rounds_total", &[])
            .add(self.rounds);
        registry
            .gauge("sim_shard_workers", &[])
            .set(self.effective as i64);
        let lookahead_nanos = if self.lookahead == Duration::MAX {
            0
        } else {
            self.lookahead.as_nanos() as i64
        };
        registry
            .gauge("sim_lookahead_nanos", &[])
            .set(lookahead_nanos);
        obs.journal().flush();
    }
}

impl<M: Payload + Send> fmt::Debug for ShardedSimulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSimulation")
            .field("now", &self.now)
            .field("nodes", &self.node_region.len())
            .field("workers", &self.effective)
            .field("lookahead", &self.lookahead)
            .field("rounds", &self.rounds)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::RegionSpec;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping,
        Pong,
    }
    impl Payload for Msg {}

    /// Pings a peer on start; replies Pong to Pings; logs everything.
    struct Peer {
        peer: Option<NodeId>,
        log: Vec<(u64, u32, &'static str)>,
    }

    impl crate::node::Node<Msg> for Peer {
        fn on_event(&mut self, event: Event<Msg>, ctx: &mut Context<'_, Msg>) {
            let t = ctx.now().as_nanos();
            match event {
                Event::Started => {
                    self.log.push((t, u32::MAX, "start"));
                    if let Some(p) = self.peer {
                        ctx.send(p, Msg::Ping);
                    }
                }
                Event::Message { from, payload } => match payload {
                    Msg::Ping => {
                        self.log.push((t, from.index(), "ping"));
                        ctx.send(from, Msg::Pong);
                    }
                    Msg::Pong => self.log.push((t, from.index(), "pong")),
                },
                Event::Timer { .. } => self.log.push((t, u32::MAX, "timer")),
            }
        }
    }

    fn two_region_topology() -> GeoTopology {
        let mut t = GeoTopology::from_rtt_ms(
            vec![RegionSpec::named("east"), RegionSpec::named("west")],
            &[vec![0.0, 20.0], vec![20.0, 0.0]],
        );
        t.jitter = 0.0;
        t
    }

    proptest::proptest! {
        /// Flipping any bits of any one folded word changes the digest:
        /// every later fold is a bijection of the running value.
        #[test]
        fn flipping_one_folded_word_changes_the_fold(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..40),
            pick in proptest::prelude::any::<usize>(),
            bit in 0u32..64,
            more in proptest::prelude::any::<u64>(),
        ) {
            let digest = |words: &[u64]| words.iter().fold(DIGEST_SEED, |h, w| fold(h, *w));
            let mut flipped = words.clone();
            flipped[pick % words.len()] ^= more | (1 << bit);
            proptest::prop_assert!(digest(&words) != digest(&flipped));
        }
    }

    /// What one pending event costs the queue's slab (plus a four-byte
    /// link): the 10k-node scenario holds ≈ 150 k of them.
    #[test]
    fn a_scheduled_event_with_a_three_word_payload_is_six_words() {
        #[derive(Clone, Debug)]
        #[allow(dead_code)]
        enum ScaleShaped {
            Request {
                client: NodeId,
                seq: u64,
                size: u32,
                reply_size: u32,
            },
            Reply {
                seq: u64,
                size: u32,
            },
        }
        assert_eq!(core::mem::size_of::<ScaleShaped>(), 24);
        assert_eq!(
            core::mem::size_of::<Option<ShardScheduled<ScaleShaped>>>(),
            48
        );
    }

    #[test]
    fn single_region_collapses_to_one_shard() {
        let topo = GeoTopology::from_rtt_ms(vec![RegionSpec::named("only")], &[vec![0.0]]);
        let sim = ShardedSimulation::<Msg>::new(1, 8, topo);
        assert_eq!(sim.effective_workers(), 1);
        assert_eq!(sim.lookahead(), Duration::MAX);
    }

    #[test]
    fn cross_shard_roundtrip_completes() {
        let mut sim = ShardedSimulation::<Msg>::new(1, 2, two_region_topology());
        assert_eq!(sim.effective_workers(), 2);
        assert_eq!(sim.lookahead(), Duration::from_millis(10));
        let a = sim.add_node_in_region(
            0,
            Peer {
                peer: None,
                log: Vec::new(),
            },
        );
        let b = sim.add_node_in_region(
            1,
            Peer {
                peer: Some(a),
                log: Vec::new(),
            },
        );
        sim.run_until_idle();
        let a_log = &sim.node::<Peer>(a).unwrap().log;
        assert!(
            a_log
                .iter()
                .any(|(_, from, k)| *k == "ping" && *from == b.index()),
            "{a_log:?}"
        );
        let b_log = &sim.node::<Peer>(b).unwrap().log;
        assert!(b_log.iter().any(|(_, _, k)| *k == "pong"), "{b_log:?}");
        assert_eq!(sim.messages_sent(), 2);
        assert!(sim.rounds() >= 2, "cross-shard traffic forces ≥2 rounds");
    }

    #[test]
    fn digest_and_trace_identical_across_worker_counts() {
        fn run(workers: usize) -> (u64, Vec<TraceRecord>, u64) {
            let mut sim = ShardedSimulation::<Msg>::new(42, workers, {
                let mut t = GeoTopology::aws_5region();
                t.jitter = 0.2;
                t
            });
            sim.enable_trace(4096);
            let mut ids = Vec::new();
            for r in 0..5 {
                for _ in 0..3 {
                    let peer = ids.last().copied();
                    ids.push(sim.add_node_in_region(
                        r,
                        Peer {
                            peer,
                            log: Vec::new(),
                        },
                    ));
                }
            }
            sim.run_until(Instant::from_secs(2));
            (
                sim.trace_digest(),
                sim.merged_trace(),
                sim.events_processed(),
            )
        }
        let (d1, t1, e1) = run(1);
        for w in [2, 4, 8] {
            let (dw, tw, ew) = run(w);
            assert_eq!(d1, dw, "digest differs at W={w}");
            assert_eq!(e1, ew, "event count differs at W={w}");
            assert_eq!(t1, tw, "merged trace differs at W={w}");
        }
    }

    #[test]
    fn run_until_boundary_matches_sequential_contract() {
        let mut sim = ShardedSimulation::<Msg>::new(1, 2, two_region_topology());
        let a = sim.add_node_in_region(
            0,
            Peer {
                peer: None,
                log: Vec::new(),
            },
        );
        let b = sim.add_node_in_region(
            1,
            Peer {
                peer: None,
                log: Vec::new(),
            },
        );
        let deadline = Instant::from_millis(30);
        sim.schedule_message(deadline, a, b, Msg::Ping);
        sim.schedule_message(
            Instant::from_nanos(deadline.as_nanos() + 1),
            a,
            b,
            Msg::Ping,
        );
        sim.run_until(deadline);
        assert_eq!(sim.now(), deadline);
        let pings = sim
            .node::<Peer>(b)
            .unwrap()
            .log
            .iter()
            .filter(|(_, _, k)| *k == "ping")
            .count();
        assert_eq!(pings, 1, "the event at exactly the deadline ran");
        sim.run_until_idle();
        let pings = sim
            .node::<Peer>(b)
            .unwrap()
            .log
            .iter()
            .filter(|(_, _, k)| *k == "ping")
            .count();
        assert_eq!(pings, 2, "the deadline+1ns event was deferred, not dropped");
    }

    #[test]
    fn detached_nodes_receive_nothing_sharded() {
        let mut sim = ShardedSimulation::<Msg>::new(1, 2, two_region_topology());
        let a = sim.add_node_in_region(
            0,
            Peer {
                peer: None,
                log: Vec::new(),
            },
        );
        let b = sim.add_node_in_region(
            1,
            Peer {
                peer: None,
                log: Vec::new(),
            },
        );
        sim.run_until(Instant::from_millis(1));
        sim.detach_node(b);
        sim.schedule_message(Instant::from_millis(2), a, b, Msg::Ping);
        sim.run_until_idle();
        assert!(sim.is_detached(b));
        assert_eq!(sim.node::<Peer>(b).unwrap().log.len(), 1, "only start");
    }
}
