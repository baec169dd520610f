//! # aqua — dynamic replica selection for tolerating timing faults
//!
//! A full reproduction of *"A Dynamic Replica Selection Algorithm for
//! Tolerating Timing Faults"* (Krishnamurthy, Sanders, Cukier — DSN 2001):
//! the probabilistic response-time model, the crash-tolerant selection
//! algorithm (Algorithm 1), and the AQuA-style middleware around it —
//! group communication, gateways, replica hosts — on both a deterministic
//! discrete-event simulator and real localhost sockets.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `aqua-core` | pmfs, repository, model, Algorithm 1, QoS, failure detection |
//! | [`sim`] | `lan-sim` | deterministic discrete-event LAN simulator |
//! | [`group`] | `aqua-group` | views, multicast, heartbeat failure detector |
//! | [`replica`] | `aqua-replica` | the sans-IO Stage-3 core, service-time models, load processes |
//! | [`gateway`] | `aqua-gateway` | the timing fault handler + client/server gateway nodes |
//! | [`strategies`] | `aqua-strategies` | the paper's strategy and classic baselines |
//! | [`workload`] | `aqua-workload` | experiment configs, runner, figure formatting |
//! | [`faults`] | `aqua-faults` | composable seeded fault plans shared by both runtimes; the only way a replica crashes |
//! | [`runtime`] | `aqua-runtime` | the handler over real TCP sockets |
//!
//! ## Where to start
//!
//! * `examples/quickstart.rs` — the selection algorithm in isolation, then
//!   a small simulated cluster.
//! * `examples/radar_tracking.rs` — a time-critical client on bursty
//!   replicas (the paper's motivating scenario class).
//! * `examples/search_engine.rs` — the real-socket runtime.
//! * `examples/crash_failover.rs` — the single-crash guarantee (Eq. 3)
//!   live.
//! * `examples/managed_cluster.rs` — the dependability manager holding the
//!   replication level through cascading crashes.
//! * `crates/bench/src/bin/` — one binary per paper figure (see
//!   DESIGN.md and EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aqua_core as core;
pub use aqua_faults as faults;
pub use aqua_gateway as gateway;
pub use aqua_group as group;
pub use aqua_replica as replica;
pub use aqua_runtime as runtime;
pub use aqua_strategies as strategies;
pub use aqua_workload as workload;
pub use lan_sim as sim;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use aqua_core::prelude::*;
    pub use aqua_gateway::{
        ClientConfig, ClientGateway, ConcurrentHandler, ServerConfig, ServerGateway,
    };
    pub use aqua_group::{FailureDetectorConfig, GroupCoordinator, Member, Role, View};
    pub use aqua_replica::{LoadModel, ServiceTimeModel};
    pub use aqua_strategies::{ModelBased, SelectionStrategy};
    pub use aqua_workload::{run_experiment, ExperimentConfig};
    pub use lan_sim::Simulation;
}
