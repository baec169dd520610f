//! # lan-sim — a deterministic discrete-event LAN simulator
//!
//! The testbed substrate for the AQuA timing-fault reproduction: simulated
//! hosts ([`Node`]s) exchange messages over a pluggable [`NetworkModel`]
//! under a deterministic event loop ([`Simulation`]).
//!
//! Design goals:
//!
//! * **Determinism** — one seeded RNG, total event order by
//!   `(timestamp, sequence)`; identical seeds replay identical histories,
//!   which the experiment harness relies on.
//! * **Actor-style nodes** — all state is node-local; interaction happens
//!   only through messages and timers, mirroring how the real AQuA
//!   gateways interact across a LAN.
//! * **Virtual time** — [`aqua_core::time::Instant`] advances only when
//!   events fire, so a 100-second experiment runs in milliseconds.
//!
//! See the [`Simulation`] docs for a runnable example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod network;
mod node;
mod queue;
mod sharded;
mod simulation;
pub mod topology;
mod trace;

pub use event::{Event, TimerToken};
pub use network::{CongestedLan, InstantNetwork, NetworkModel, UniformLan};
pub use node::{AnyNode, Context, Node, NodeId};
pub use sharded::ShardedSimulation;
pub use simulation::Simulation;
pub use topology::{GeoNetwork, GeoTopology, LinkFaultHook, LinkOutcome, RegionSpec};
pub use trace::{NodeCounters, TraceEvent, TraceRecord};

/// A message payload that can traverse the simulated network.
///
/// `wire_size` feeds the network model's bandwidth term; the default (64
/// bytes) approximates a small control message.
pub trait Payload: Clone + std::fmt::Debug + 'static {
    /// Approximate serialized size in bytes.
    fn wire_size(&self) -> usize {
        64
    }

    /// The plane the message travels on: the application's by default.
    fn plane(&self) -> Plane {
        Plane::App
    }
}

/// Which traffic a message or a timer belongs to. The classic engine
/// counts the application plane's messages in flight, so that a harness
/// can stop a run once nothing is left that could change its outputs
/// ([`Simulation::run_until_settled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Plane {
    /// Application traffic: requests, replies and what rides with them.
    App,
    /// Group-membership traffic: joins, leaves, heartbeats and views.
    Group,
}
