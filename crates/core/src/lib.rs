//! # aqua-core — dynamic replica selection for tolerating timing faults
//!
//! A faithful, dependency-light implementation of the probabilistic model
//! and replica selection algorithm from *"A Dynamic Replica Selection
//! Algorithm for Tolerating Timing Faults"* (Krishnamurthy, Sanders, Cukier;
//! DSN 2001), the timing fault handler of the AQuA middleware.
//!
//! The crate is deliberately **transport-agnostic** ("sans-IO"): it contains
//! the measurement bookkeeping, the response-time model, and the selection
//! algorithm, but no networking. The same code drives both the
//! discrete-event simulation (`lan-sim` + `aqua-gateway`) and the
//! real-socket deployment (`aqua-runtime`).
//!
//! ## The pieces
//!
//! * [`time`] — nanosecond [`time::Duration`] / [`time::Instant`] newtypes
//!   usable with both virtual and wall-clock time.
//! * [`window`] — the sliding measurement window (`l` in the paper).
//! * [`pmf`] — empirical probability mass functions: relative-frequency
//!   estimation, convolution, CDFs (§5.3.1).
//! * [`repository`] — the gateway information repository (§5.2).
//! * [`model`] — the online response-time model `R = S + W + T` (Eq. 2).
//! * [`select`] — Algorithm 1 with the single-crash guarantee (Eq. 3).
//! * [`qos`] — client QoS specifications (§4).
//! * [`failure`] — timing failure detection and QoS callbacks (§5.4.2).
//! * [`scheduler`] — [`scheduler::plan`], the one planning function tying
//!   model and Algorithm 1 together.
//! * [`snapshot`] — immutable, epoch-published planning views for
//!   lock-free concurrent planning.
//! * [`sync`] — the locks and atomics of the planning path, which an
//!   interleaving check can swap for cooperative ones.
//!
//! ## Quick start
//!
//! The timing fault handler of `aqua-gateway` plans every request: it
//! publishes each replica's `F_Ri` table and runs [`scheduler::plan`] over
//! them, less its own measured overhead δ.
//!
//! ```
//! use aqua_core::prelude::*;
//! use aqua_core::snapshot::method_slot;
//! use aqua_gateway::ConcurrentHandler;
//! use aqua_strategies::ModelBased;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ms = Duration::from_millis;
//!
//! // "Respond within 150 ms with probability at least 0.9", planned with
//! // the paper's model and sliding window of 5.
//! let qos = QosSpec::new(ms(150), 0.9)?;
//! let mut handler = ConcurrentHandler::new(qos, 5, Box::new(ModelBased::default()));
//!
//! // Three replicas and their measurements (normally piggybacked on
//! // replies).
//! {
//!     let mut repository = handler.repository_mut();
//!     for i in 0..3 {
//!         let r = ReplicaId::new(i);
//!         repository.insert_replica(r);
//!         for _ in 0..5 {
//!             let report = PerfReport::new(ms(90 + 10 * i), ms(5), 1);
//!             repository.record_perf(r, report, Instant::EPOCH);
//!         }
//!         repository.record_gateway_delay(r, ms(3), Instant::EPOCH);
//!     }
//! }
//!
//! let plan = handler.plan_request(Instant::EPOCH);
//! let view = handler.planning_view();
//! let slot = method_slot(MethodScope::PerMethod, None);
//! for r in plan.replicas.iter() {
//!     let f = view.probability_by(*r, slot, qos.deadline());
//!     assert!(f.is_some_and(|f| f > 0.9), "{r}: F_R(150 ms) = {f:?}");
//! }
//! assert!(plan.replicas.len() >= 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Marker attributes, re-exported so call sites read `#[aqua::hot_path]`.
///
/// The attributes are no-ops at runtime; `aqua-lint` keys its
/// `no-alloc-in-select` rule on them (allocation is forbidden inside
/// marked functions). Import the module, not the attribute:
///
/// ```
/// use aqua_core::aqua;
///
/// #[aqua::hot_path]
/// fn tight_loop() {}
/// # tight_loop();
/// ```
pub mod aqua {
    pub use aqua_macros::hot_path;
}

pub mod analytic;
pub mod failure;
pub mod model;
pub mod pmf;
pub mod qos;
pub mod repository;
pub mod scheduler;
pub mod select;
pub mod snapshot;
pub mod sync;
pub mod time;
pub mod window;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::failure::{TimingFailureDetector, TimingVerdict};
    pub use crate::model::{
        DelayEstimator, MethodScope, ModelConfig, QueueEstimator, ResponseTimeModel,
    };
    pub use crate::pmf::Pmf;
    pub use crate::qos::{QosSpec, ReplicaId};
    pub use crate::repository::{InfoRepository, MethodId, PerfReport, ReplicaStats};
    pub use crate::scheduler::SelectorConfig;
    pub use crate::select::{
        combined_probability, select_replicas, select_replicas_tolerating, Candidate, Selection,
    };
    pub use crate::snapshot::{PlanningView, ReplicaSnapshot, SnapshotCell};
    pub use crate::time::{Duration, Instant};
    pub use crate::window::{BucketedWindow, SlidingWindow};
}
