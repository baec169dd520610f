//! # aqua-runtime — the timing fault handler over real sockets
//!
//! A deployment of the same `aqua-gateway` handler outside the simulator:
//! replica servers and client gateways as threads exchanging
//! length-prefixed frames over localhost TCP. This demonstrates that the
//! model and selection algorithm work against *wall-clock* measurements —
//! real queuing, real scheduling jitter, real connection teardown as the
//! crash detector.
//!
//! There is one socket client and one transport. A [`MuxPool`] owns one
//! socket per replica on a single epoll-driven event-loop thread,
//! reconnects lost replicas and keeps every handle's membership current;
//! a [`MuxHandle`] is one logical client over those sockets — selection,
//! retry, waiters. A single client is a pool and one handle made with
//! [`MuxPool::observed_handle`]. Client and [`ReplicaServer`] exchange
//! [`mod@wire`] frames over the same bounded, nonblocking connection type.
//!
//! ```no_run
//! use aqua_runtime::{MuxPool, MuxPoolConfig, ReplicaServer, ReplicaServerConfig};
//! use aqua_core::qos::{QosSpec, ReplicaId};
//! use aqua_core::repository::MethodId;
//! use aqua_core::time::Duration;
//! use aqua_strategies::ModelBased;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Three replicas with ~10 ms service time.
//! let servers: Vec<ReplicaServer> = (0..3)
//!     .map(|i| ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(i), 10)))
//!     .collect::<Result<_, _>>()?;
//! let replicas: Vec<_> = servers.iter().map(|s| (s.replica(), s.addr())).collect();
//!
//! let qos = QosSpec::new(Duration::from_millis(100), 0.9)?;
//! let pool = MuxPool::connect(&replicas, MuxPoolConfig::new(qos))?;
//! let client = pool.observed_handle(Box::new(ModelBased::default()));
//! let outcome = client.call(MethodId::DEFAULT, b"query")?;
//! assert!(outcome.timely);
//! # Ok(())
//! # }
//! ```

// `sys` is the single module allowed to contain unsafe code (raw epoll
// syscalls); everything else in the crate stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod conn;
pub mod mux;
mod reactor;
mod server;
mod sys;
#[cfg(test)]
mod test_support;
pub mod wire;

pub use mux::{CallError, CallOutcome, MuxHandle, MuxPool, MuxPoolConfig};
pub use server::{ReplicaServer, ReplicaServerConfig};
