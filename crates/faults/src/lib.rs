//! Unified fault injection for the AQuA reproduction.
//!
//! The paper's evaluation (§6) only ever injects the easiest adversary — a
//! permanent replica crash — yet its fault model (§3) admits *timing* faults:
//! a replica that is too slow, not just one that is gone. This crate provides
//! composable, seeded **fault plans** covering the transient regimes that
//! stress the selection algorithm hardest:
//!
//! * **crash-and-recover** — the replica dies silently and rejoins after a
//!   downtime window. This is the only way a replica crashes: a
//!   `Duration::MAX` downtime is the paper's permanent crash, and
//!   [`FaultPlan::mtbf_crashes`] draws memoryless crash windows from the
//!   seed,
//! * **pause** — a GC-like stall: no request is dequeued during the window
//!   but queued work survives and drains afterwards,
//! * **degrade** — the service time `S_i` is multiplied by a factor for
//!   the window (a slow disk, a noisy neighbour, a load burst),
//! * **delay spike** — network latency is scaled and/or padded,
//! * **message drop** — messages are dropped with a fixed probability,
//! * **one-way partition** — everything *sent by* the target replica is lost
//!   while inbound traffic still arrives.
//!
//! A [`FaultPlan`] is a pure description; [`FaultPlan::instantiate`] turns it
//! into a [`FaultSchedule`] — a deterministic function of time that both the
//! discrete-event simulator (`crates/sim` via `aqua-workload`) and the socket
//! runtime (`crates/runtime`) query, so the *same* plan produces the same
//! fault timeline in either world.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod obs;
mod plan;
mod schedule;

pub use obs::{emit_fault_events, FaultTracker};
pub use plan::{FaultKind, FaultPlan, FaultSpec};
pub use schedule::{FaultSchedule, FaultWindow, ReplicaHealth};
