//! Nodes (simulated hosts/processes) and the context they act through.

use core::fmt;
use std::any::Any;

use aqua_core::aqua;
use aqua_core::time::{Duration, Instant};
use rand::rngs::SmallRng;

use crate::event::{Class, Event, Scheduled, TimerToken};
use crate::network::NetworkModel;
use crate::topology::DROP_DELAY;
use crate::trace::{TraceEvent, Tracer};
use crate::{Payload, Plane};

/// Identifier of a node within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// Normally ids come from [`crate::Simulation::add_node`]; this
    /// constructor exists for tests and table-driven wiring.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The raw index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Behaviour of a simulated host/process.
///
/// Implementations receive [`Event`]s one at a time and react through the
/// [`Context`]: sending messages (which traverse the simulated network) and
/// setting timers. All state lives inside the node; the simulator guarantees
/// events are delivered in deterministic timestamp order.
///
/// The same `Node` implementation runs unchanged on the sequential
/// [`crate::Simulation`] and on the sharded parallel
/// [`crate::ShardedSimulation`] — the [`Context`] hides which engine is
/// dispatching.
pub trait Node<M: Payload> {
    /// Handles one event. `ctx` carries the current virtual time, the
    /// node's own id, the RNG, and the scheduling operations.
    fn on_event(&mut self, event: Event<M>, ctx: &mut Context<'_, M>);
}

/// Object-safe companion of [`Node`] that supports downcasting, so tests
/// and harnesses can inspect node state after a run.
pub trait AnyNode<M: Payload>: Node<M> + Any {
    /// Upcast to [`Any`] for downcasting.
    fn as_any(&self) -> &dyn Any;
    /// Upcast to mutable [`Any`] for downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<M: Payload, T: Node<M> + Any> AnyNode<M> for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Engine-side operations a [`Context`] forwards to.
///
/// Two implementations exist: the sequential [`SimCore`] (one queue, one
/// RNG, one sequence: `(timestamp, origin 0, seq)` order) and the sharded
/// engine's per-shard core (per-shard queues, per-node RNG streams,
/// `(timestamp, origin, seq)` order). Nodes never see the difference.
pub(crate) trait ContextCore<M> {
    /// Current virtual time.
    fn now(&self) -> Instant;
    /// The RNG stream a node draws from (engine-global or node-local).
    fn rng_for(&mut self, node: NodeId) -> &mut SmallRng;
    /// Sends `payload` over the simulated network as part of a `fanout`-way
    /// multicast.
    fn transmit(&mut self, from: NodeId, to: NodeId, payload: M, fanout: usize);
    /// Arms a timer on `node`.
    fn set_timer(&mut self, node: NodeId, after: Duration, plane: Plane) -> TimerToken;
    /// Cancels a pending timer on `node`.
    fn cancel_timer(&mut self, node: NodeId, token: TimerToken);
    /// Detaches `node` (simulated crash).
    fn detach(&mut self, node: NodeId);
}

/// Grow-on-demand bit set over `u64` indices.
///
/// Timer tokens are allocated sequentially, so cancellation state is a
/// dense bit per token instead of a `HashSet` probe on the event dispatch
/// hot path: `take` is one shift/mask, and the common case (nothing ever
/// cancelled) never allocates.
#[derive(Debug, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Sets bit `idx`.
    pub fn set(&mut self, idx: u64) {
        let word = (idx / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (idx % 64);
    }

    /// Clears and returns bit `idx`.
    #[aqua::hot_path]
    pub fn take(&mut self, idx: u64) -> bool {
        let word = (idx / 64) as usize;
        let Some(w) = self.words.get_mut(word) else {
            return false;
        };
        let mask = 1u64 << (idx % 64);
        let was = *w & mask != 0;
        *w &= !mask;
        was
    }
}

/// Internal scheduling state shared between the simulation driver and the
/// contexts it hands to nodes.
pub(crate) struct SimCore<M> {
    pub now: Instant,
    pub queue: crate::queue::CalendarQueue<Scheduled<M>>,
    pub seq: u64,
    pub next_timer: u64,
    /// Cancelled-timer flags, indexed by token value.
    pub cancelled: BitSet,
    pub network: Box<dyn NetworkModel>,
    pub rng: SmallRng,
    /// Detached (crashed at the simulator level) flags, indexed by node;
    /// deliveries to them are silently dropped at pop time.
    pub detached: Vec<bool>,
    /// Trace ring + per-node counters.
    pub tracer: Tracer,
    /// Application-plane messages queued to land less than
    /// [`DROP_DELAY`] after they were sent: the ones in flight.
    pub app_in_flight: u64,
}

impl<M> SimCore<M> {
    /// Queues a start.
    #[aqua::hot_path]
    pub(crate) fn push(&mut self, at: Instant, target: NodeId, event: Event<M>) {
        self.push_entry(at, target, event, Class::App);
    }

    #[aqua::hot_path]
    fn push_entry(&mut self, at: Instant, target: NodeId, event: Event<M>, class: Class) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled {
            at,
            seq,
            target,
            class,
            event,
        });
    }

    /// Marks a node detached.
    pub(crate) fn mark_detached(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if idx >= self.detached.len() {
            self.detached.resize(idx + 1, false);
        }
        self.detached[idx] = true;
    }

    /// Whether a node is detached (hot-path probe: one bounds check).
    #[aqua::hot_path]
    pub(crate) fn is_detached(&self, node: NodeId) -> bool {
        self.detached.get(node.0 as usize).copied().unwrap_or(false)
    }
}

impl<M: Payload> SimCore<M> {
    /// Queues the delivery of `payload` from `from` to `to` at `at`. An
    /// application-plane message counts as in flight unless it is due
    /// [`DROP_DELAY`] or more ahead: that is how a dropped one is modelled.
    #[aqua::hot_path]
    pub(crate) fn push_message(&mut self, at: Instant, from: NodeId, to: NodeId, payload: M) {
        let class = match payload.plane() {
            Plane::Group => Class::Group,
            Plane::App if at.saturating_duration_since(self.now) < DROP_DELAY => Class::InFlight,
            Plane::App => Class::App,
        };
        self.app_in_flight += u64::from(class == Class::InFlight);
        self.push_entry(at, to, Event::Message { from, payload }, class);
    }
}

impl<M: Payload> ContextCore<M> for SimCore<M> {
    fn now(&self) -> Instant {
        self.now
    }

    fn rng_for(&mut self, _node: NodeId) -> &mut SmallRng {
        &mut self.rng
    }

    fn transmit(&mut self, from: NodeId, to: NodeId, payload: M, fanout: usize) {
        let size = payload.wire_size();
        let delay = self
            .network
            .delay(from, to, size, fanout, self.now, &mut self.rng);
        let at = self.now.saturating_add(delay);
        self.tracer.record(
            self.now,
            TraceEvent::MessageSent {
                from,
                to,
                size,
                deliver_at: at,
            },
        );
        self.push_message(at, from, to, payload);
    }

    fn set_timer(&mut self, node: NodeId, after: Duration, plane: Plane) -> TimerToken {
        let token = TimerToken(self.next_timer);
        self.next_timer += 1;
        let at = self.now.saturating_add(after);
        let class = match plane {
            Plane::App => Class::App,
            Plane::Group => Class::Group,
        };
        self.push_entry(at, node, Event::Timer { token }, class);
        token
    }

    fn cancel_timer(&mut self, _node: NodeId, token: TimerToken) {
        self.cancelled.set(token.0);
    }

    fn detach(&mut self, node: NodeId) {
        self.mark_detached(node);
        self.tracer
            .record(self.now, TraceEvent::NodeDetached { node });
    }
}

/// The interface a node uses to act on the simulated world.
pub struct Context<'a, M: Payload> {
    pub(crate) ops: &'a mut dyn ContextCore<M>,
    pub(crate) self_id: NodeId,
}

impl<M: Payload> Context<'_, M> {
    /// The current virtual time.
    pub fn now(&self) -> Instant {
        self.ops.now()
    }

    /// This node's id.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// The deterministic random number generator this node draws from.
    ///
    /// Under the sequential engine this is the one simulation-global
    /// stream; under the sharded engine every node owns a SplitMix64-
    /// derived stream of its own, which is what keeps histories identical
    /// across worker counts.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.ops.rng_for(self.self_id)
    }

    /// Sends `payload` to `to` over the simulated network; the network
    /// model decides the delivery latency.
    pub fn send(&mut self, to: NodeId, payload: M) {
        self.ops.transmit(self.self_id, to, payload, 1);
    }

    /// Sends `payload` to every node in `to` (list-addressed multicast).
    ///
    /// The network model sees the full fan-out, matching the paper's
    /// observation that the gateway-to-gateway delay "varies … with the
    /// number of group members involved in the communication".
    pub fn multicast(&mut self, to: &[NodeId], payload: M) {
        for dest in to {
            self.ops
                .transmit(self.self_id, *dest, payload.clone(), to.len());
        }
    }

    /// Sets a timer that fires on this node after `after`.
    pub fn set_timer(&mut self, after: Duration) -> TimerToken {
        self.ops.set_timer(self.self_id, after, Plane::App)
    }

    /// [`Context::set_timer`] for a timer of the group plane (a heartbeat,
    /// a failure detector's sweep): like a group-plane message, its firing
    /// cannot settle a run ([`crate::Simulation::run_until_settled`]).
    pub fn set_group_timer(&mut self, after: Duration) -> TimerToken {
        self.ops.set_timer(self.self_id, after, Plane::Group)
    }

    /// Cancels a pending timer; firing events for it are dropped.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.ops.cancel_timer(self.self_id, token);
    }

    /// Detaches this node from the simulation: all subsequent deliveries to
    /// it (messages and timers) are dropped. Models a host crash.
    pub fn detach_self(&mut self) {
        self.ops.detach(self.self_id);
    }
}

impl<M: Payload> fmt::Debug for Context<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("self_id", &self.self_id)
            .field("now", &self.ops.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_set_take_roundtrip() {
        let mut bits = BitSet::default();
        assert!(!bits.take(5), "unset bit");
        bits.set(5);
        bits.set(64);
        bits.set(1000);
        assert!(bits.take(5));
        assert!(!bits.take(5), "take clears");
        assert!(bits.take(64));
        assert!(bits.take(1000));
        assert!(!bits.take(2000), "beyond allocated words");
    }
}
