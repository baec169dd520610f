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
//! * [`overhead`] — δ accounting for deadline adjustment (§5.3.3).
//! * [`scheduler`] — the per-client scheduling agent tying it all together,
//!   and [`scheduler::plan`], the one planning function every planner runs.
//! * [`snapshot`] — immutable, epoch-published planning views for
//!   lock-free concurrent planning.
//!
//! ## Quick start
//!
//! ```
//! use aqua_core::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ms = Duration::from_millis;
//!
//! // A scheduler with the paper's sliding window of 5.
//! let mut selector = ReplicaSelector::new(5, SelectorConfig::default());
//!
//! // The group has three replicas.
//! for i in 0..3 {
//!     selector.repository_mut().insert_replica(ReplicaId::new(i));
//! }
//!
//! // Feed measurements (normally piggybacked on replies).
//! for i in 0..3 {
//!     let r = ReplicaId::new(i);
//!     for _ in 0..5 {
//!         selector.repository_mut().record_perf(
//!             r,
//!             PerfReport::new(ms(90 + 10 * i), ms(5), 1),
//!             Instant::EPOCH,
//!         );
//!     }
//!     selector.repository_mut().record_gateway_delay(r, ms(3), Instant::EPOCH);
//! }
//!
//! // "Respond within 150 ms with probability at least 0.9."
//! let qos = QosSpec::new(ms(150), 0.9)?;
//! let decision = selector.select(&qos);
//! assert!(decision.selection.redundancy() >= 2);
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
pub mod overhead;
pub mod pmf;
pub mod qos;
pub mod repository;
pub mod scheduler;
pub mod select;
pub mod snapshot;
pub mod time;
pub mod window;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::failure::{TimingFailureDetector, TimingVerdict};
    pub use crate::model::{
        DelayEstimator, MethodScope, ModelConfig, QueueEstimator, ResponseTimeModel,
    };
    pub use crate::overhead::OverheadTracker;
    pub use crate::pmf::Pmf;
    pub use crate::qos::{QosSpec, ReplicaId};
    pub use crate::repository::{InfoRepository, MethodId, PerfReport, ReplicaStats};
    pub use crate::scheduler::{
        ColdStartPolicy, ReplicaSelector, SelectionDecision, SelectionReason, SelectorConfig,
    };
    pub use crate::select::{
        combined_probability, select_replicas, select_replicas_tolerating, Candidate, Selection,
    };
    pub use crate::snapshot::{PlanningView, ReplicaSnapshot, SnapshotCell};
    pub use crate::time::{Duration, Instant};
    pub use crate::window::{BucketedWindow, SlidingWindow};
}
