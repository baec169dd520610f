//! # aqua-replica — server replica behaviour models
//!
//! The pure (transport-free) behaviour of an AQuA server replica:
//!
//! * [`ServiceTimeModel`] — per-request service-time distributions,
//!   including the paper's Normal(100 ms, σ 50 ms) synthetic load (§6);
//! * [`LoadModel`] / [`LoadProcess`] — host load fluctuation (§3);
//! * [`CrashPlan`] / [`CrashState`] — silent crash injection (§3);
//! * [`ReplicaCore`] — Stage 3 of §5.1 without I/O: the FIFO request
//!   queue, the `t2`/`t3` stamps, the sampled service and the piggybacked
//!   `ts`/`tq`, under the fault plan's pauses and service factors.
//!
//! The simulated server gateway node in `aqua-gateway` and the socket
//! server in `aqua-runtime` are both drivers of one [`ReplicaCore`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crash;
mod load;
mod replica_core;
mod service;

pub use crash::{CrashPlan, CrashState};
pub use load::{LoadModel, LoadProcess, LoadState};
pub use replica_core::ReplicaCore;
pub use service::ServiceTimeModel;
