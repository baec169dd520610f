//! Events, and the key that orders them in the classic engine's queue.

use core::fmt;

use aqua_core::time::Instant;

use crate::node::NodeId;
use crate::queue::{EventKey, Keyed};

/// Handle for a pending timer, usable to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerToken(pub(crate) u64);

impl TimerToken {
    /// The raw token value (unique within one simulation).
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TimerToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// An event delivered to a [`crate::node::Node`].
#[derive(Debug, Clone)]
pub enum Event<M> {
    /// Delivered once to every node when the simulation starts (and to
    /// nodes added later, at their insertion time).
    Started,
    /// A message arriving over the simulated network.
    Message {
        /// The sending node.
        from: NodeId,
        /// The payload.
        payload: M,
    },
    /// A timer set by this node has fired.
    Timer {
        /// The token returned when the timer was set.
        token: TimerToken,
    },
}

/// Internal: what sits in the classic engine's event queue.
#[derive(Debug)]
pub(crate) struct Scheduled<M> {
    pub at: Instant,
    /// Global sequence number: ties at equal timestamps are delivered in
    /// scheduling order, making runs fully deterministic.
    pub seq: u64,
    pub target: NodeId,
    pub class: Class,
    pub event: Event<M>,
}

/// How [`crate::Simulation::run_until_settled`] treats a queued event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// An application-plane message that will land: in flight until it is
    /// popped.
    InFlight,
    /// Any other application event: a start, a timer, a message a network
    /// dropped.
    App,
    /// A group-plane message or timer, which cannot settle a run.
    Group,
}

/// The classic engine has one sequence for the whole simulation, so every
/// event has origin 0 and the queue's `(at, origin, seq)` order is
/// `(at, seq)`.
impl<M> Keyed for Scheduled<M> {
    #[inline]
    fn key(&self) -> EventKey {
        EventKey {
            at: self.at.as_nanos(),
            origin: 0,
            seq: self.seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::CalendarQueue;

    #[test]
    fn scheduled_pops_by_time_then_seq() {
        let mk = |at_ms: u64, seq: u64| Scheduled::<()> {
            at: Instant::from_millis(at_ms),
            seq,
            target: NodeId::new(0),
            class: Class::App,
            event: Event::Started,
        };
        let mut queue = CalendarQueue::new();
        for (at_ms, seq) in [(2, 0), (1, 5), (3, 7), (1, 1), (5000, 2), (1, 3)] {
            queue.push(mk(at_ms, seq));
        }
        let popped: Vec<(u64, u64)> = core::iter::from_fn(|| queue.pop())
            .map(|s| (s.at.as_nanos() / 1_000_000, s.seq))
            .collect();
        assert_eq!(
            popped,
            vec![(1, 1), (1, 3), (1, 5), (2, 0), (3, 7), (5000, 2)]
        );
    }
}
