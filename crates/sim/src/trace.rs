//! Execution tracing and per-node counters.
//!
//! Debugging a distributed algorithm means asking "who sent what, when?".
//! The simulator can record a bounded ring of typed [`TraceRecord`]s and
//! always keeps cheap per-node counters (messages sent/delivered, timers
//! fired), which tests use to assert communication patterns — e.g. that a
//! warm timing fault handler multicasts to exactly 2 replicas.

use std::collections::VecDeque;

use aqua_core::aqua;
use aqua_core::time::Instant;

use crate::node::NodeId;

/// One traced occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A node received its start event.
    NodeStarted {
        /// The node.
        node: NodeId,
    },
    /// A message was handed to the network.
    MessageSent {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Payload size in bytes.
        size: usize,
        /// When the network will deliver it.
        deliver_at: Instant,
    },
    /// A message reached its destination node.
    MessageDelivered {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
    },
    /// A timer fired on a node.
    TimerFired {
        /// The node.
        node: NodeId,
    },
}

/// A timestamped trace entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time of the occurrence.
    pub at: Instant,
    /// What happened.
    pub event: TraceEvent,
}

/// Per-node communication counters (always collected; O(1) per event).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Messages this node sent.
    pub sent: u64,
    /// Messages delivered to this node.
    pub delivered: u64,
    /// Timers that fired on this node.
    pub timers_fired: u64,
}

/// Bounded trace ring + counters, owned by the simulation core.
///
/// Counters are a dense vector indexed by node — node ids are small
/// sequential integers, so the per-event update is one bounds check and an
/// increment instead of a hash probe (and, on first touch, a `HashMap`
/// entry allocation) on the dispatch hot path.
#[derive(Debug, Default)]
pub(crate) struct Tracer {
    ring: Option<Ring>,
    counters: Vec<NodeCounters>,
}

#[derive(Debug)]
struct Ring {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    pub fn enable(&mut self, capacity: usize) {
        self.ring = Some(Ring {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            dropped: 0,
        });
    }

    /// Dense counter slot for `node`, growing the vector on first touch of
    /// a new high-water node index (amortized; steady state is index-only).
    #[inline]
    fn slot(&mut self, node: NodeId) -> &mut NodeCounters {
        let idx = node.index() as usize;
        if idx >= self.counters.len() {
            self.counters.resize(idx + 1, NodeCounters::default());
        }
        &mut self.counters[idx]
    }

    #[aqua::hot_path]
    #[inline]
    pub fn record(&mut self, at: Instant, event: TraceEvent) {
        match &event {
            TraceEvent::MessageSent { from, .. } => self.slot(*from).sent += 1,
            TraceEvent::MessageDelivered { to, .. } => self.slot(*to).delivered += 1,
            TraceEvent::TimerFired { node } => self.slot(*node).timers_fired += 1,
            TraceEvent::NodeStarted { .. } => {}
        }
        if let Some(ring) = &mut self.ring {
            if ring.records.len() == ring.capacity {
                ring.records.pop_front();
                ring.dropped += 1;
            }
            ring.records.push_back(TraceRecord { at, event });
        }
    }

    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter().flat_map(|r| r.records.iter())
    }

    pub fn dropped(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.dropped)
    }

    pub fn counters(&self, node: NodeId) -> NodeCounters {
        self.counters
            .get(node.index() as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Counters of every node that has communicated, in node order.
    pub fn all_counters(&self) -> Vec<(NodeId, NodeCounters)> {
        self.counters
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != NodeCounters::default())
            .map(|(i, c)| (NodeId::new(i as u32), *c))
            .collect()
    }

    /// Total messages pushed through the network, summed over all nodes.
    /// This is the single source of truth — the core keeps no separate
    /// message counter.
    pub fn total_sent(&self) -> u64 {
        self.counters.iter().map(|c| c.sent).sum()
    }

    /// Folds another tracer's per-node counters into this one (used when
    /// merging shard-local tracers on export).
    pub fn absorb_counters(&mut self, other: &Tracer) {
        for (i, c) in other.counters.iter().enumerate() {
            let slot = self.slot(NodeId::new(i as u32));
            slot.sent += c.sent;
            slot.delivered += c.delivered;
            slot.timers_fired += c.timers_fired;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_without_a_ring() {
        let mut tracer = Tracer::default();
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        tracer.record(
            Instant::EPOCH,
            TraceEvent::MessageSent {
                from: a,
                to: b,
                size: 10,
                deliver_at: Instant::from_millis(1),
            },
        );
        tracer.record(
            Instant::from_millis(1),
            TraceEvent::MessageDelivered { from: a, to: b },
        );
        tracer.record(Instant::from_millis(2), TraceEvent::TimerFired { node: b });
        assert_eq!(tracer.counters(a).sent, 1);
        assert_eq!(tracer.counters(b).delivered, 1);
        assert_eq!(tracer.counters(b).timers_fired, 1);
        assert_eq!(tracer.records().count(), 0, "ring disabled by default");
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut tracer = Tracer::default();
        tracer.enable(3);
        for i in 0..5 {
            tracer.record(
                Instant::from_millis(i),
                TraceEvent::NodeStarted {
                    node: NodeId::new(0),
                },
            );
        }
        assert_eq!(tracer.records().count(), 3);
        assert_eq!(tracer.dropped(), 2);
        let first = tracer.records().next().unwrap();
        assert_eq!(first.at, Instant::from_millis(2), "oldest two evicted");
    }
}
