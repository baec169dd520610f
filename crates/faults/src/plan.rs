//! Fault plan description: what goes wrong, where, and when.

use aqua_core::qos::ReplicaId;
use aqua_core::time::{Duration, Instant};

use crate::schedule::FaultSchedule;

/// The shape of one injectable fault (§3's fault model, stretched to the
/// transient regimes of Tars and Poloczek & Ciucu).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The replica dies silently for the window and restarts at its end.
    ///
    /// In the simulator the node stops heartbeating (the coordinator evicts
    /// it via a view change); in the socket runtime its connections are torn
    /// down and new ones refused. Queued work is lost. Use a very long
    /// window for a paper-style permanent crash.
    Crash,
    /// GC-like stall: nothing is dequeued during the window, but queued work
    /// survives and drains once the pause lifts. Connections stay up.
    Pause,
    /// Service-time degradation: every service-time draw is multiplied by
    /// `factor` while the window is active (a slow disk, CPU contention).
    Degrade {
        /// Multiplier applied to each sampled `S_i` (> 1 slows down).
        factor: f64,
    },
    /// Network delay spike: message latency is scaled by `factor` and padded
    /// by `extra`. The simulator applies both to every affected link; the
    /// socket runtime (where LAN latency is ~0) applies `extra` to the reply
    /// path of the affected replica.
    DelaySpike {
        /// Multiplier on the base network delay.
        factor: f64,
        /// Flat additional latency.
        extra: Duration,
    },
    /// Messages touching the target are dropped with this probability.
    ///
    /// The drop decision is a deterministic hash of (seed, endpoints, time),
    /// so a given plan drops the same messages in every run.
    Drop {
        /// Per-message drop probability in `[0, 1]`.
        probability: f64,
    },
    /// One-way partition: every message *sent by* the target replica is
    /// lost; inbound traffic still arrives. The replica services requests it
    /// can never answer — the purest timing fault in the paper's sense.
    PartitionOneWay,
    /// Supervised drain + rolling restart: the replica leaves the group
    /// gracefully at the window's start, finishes its queued work, goes
    /// dormant, and reactivates at the window's end. Unlike
    /// [`FaultKind::Crash`] no queued work is lost; unlike a pause the
    /// replica disappears from the planning view while the window is
    /// active. This is the schedule-level form of the elastic supervisor's
    /// rolling restarts, so scripted chaos plans can exercise the same
    /// path.
    Drain,
}

impl FaultKind {
    /// Short stable label used in obs events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Pause => "pause",
            FaultKind::Degrade { .. } => "degrade",
            FaultKind::DelaySpike { .. } => "delay_spike",
            FaultKind::Drop { .. } => "drop",
            FaultKind::PartitionOneWay => "partition",
            FaultKind::Drain => "drain",
        }
    }
}

/// One fault applied to one target over one time window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The replica the fault targets; `None` means the whole network (only
    /// meaningful for [`FaultKind::DelaySpike`] and [`FaultKind::Drop`]).
    pub replica: Option<ReplicaId>,
    /// What goes wrong.
    pub kind: FaultKind,
    /// When the fault becomes active.
    pub start: Instant,
    /// How long it stays active. The window is `[start, start + duration)`.
    pub duration: Duration,
}

impl FaultSpec {
    /// The instant the fault clears (saturating).
    pub fn end(&self) -> Instant {
        self.start.saturating_add(self.duration)
    }

    /// Whether the fault is active at `now`.
    pub fn active_at(&self, now: Instant) -> bool {
        now >= self.start && now < self.end()
    }

    /// Whether the fault applies to messages or service on `replica`.
    pub fn targets(&self, replica: ReplicaId) -> bool {
        self.replica.is_none_or(|r| r == replica)
    }
}

/// A composable, ordered collection of [`FaultSpec`]s.
///
/// Build one with the fluent helpers, then [`FaultPlan::instantiate`] it
/// with the experiment seed to obtain the [`FaultSchedule`] both runtimes
/// consume.
///
/// # Examples
///
/// ```
/// use aqua_core::time::{Duration, Instant};
/// use aqua_faults::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .crash_recover(0, Instant::from_secs(2), Duration::from_secs(3))
///     .pause(1, Instant::from_secs(4), Duration::from_millis(500))
///     .delay_spike_all(Instant::from_secs(6), Duration::from_secs(1), 4.0);
/// let schedule = plan.instantiate(42);
/// assert_eq!(schedule.specs().len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Adds an arbitrary spec.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Replica `r` crashes at `at` and restarts after `downtime`.
    pub fn crash_recover(self, r: impl Into<ReplicaId>, at: Instant, downtime: Duration) -> Self {
        self.with(FaultSpec {
            replica: Some(r.into()),
            kind: FaultKind::Crash,
            start: at,
            duration: downtime,
        })
    }

    /// Replica `r` stalls (queued work survives) for `duration` from `at`.
    pub fn pause(self, r: impl Into<ReplicaId>, at: Instant, duration: Duration) -> Self {
        self.with(FaultSpec {
            replica: Some(r.into()),
            kind: FaultKind::Pause,
            start: at,
            duration,
        })
    }

    /// Replica `r`'s service times are multiplied by `factor` for the window.
    pub fn degrade(
        self,
        r: impl Into<ReplicaId>,
        at: Instant,
        duration: Duration,
        factor: f64,
    ) -> Self {
        self.with(FaultSpec {
            replica: Some(r.into()),
            kind: FaultKind::Degrade { factor },
            start: at,
            duration,
        })
    }

    /// Network-wide delay spike scaling every link by `factor`.
    pub fn delay_spike_all(self, at: Instant, duration: Duration, factor: f64) -> Self {
        self.with(FaultSpec {
            replica: None,
            kind: FaultKind::DelaySpike {
                factor,
                extra: Duration::ZERO,
            },
            start: at,
            duration,
        })
    }

    /// Messages touching replica `r` are dropped with `probability`.
    pub fn drop_messages(
        self,
        r: impl Into<ReplicaId>,
        at: Instant,
        duration: Duration,
        probability: f64,
    ) -> Self {
        self.with(FaultSpec {
            replica: Some(r.into()),
            kind: FaultKind::Drop { probability },
            start: at,
            duration,
        })
    }

    /// One-way partition: messages *from* replica `r` are lost for the
    /// window.
    pub fn partition_one_way(
        self,
        r: impl Into<ReplicaId>,
        at: Instant,
        duration: Duration,
    ) -> Self {
        self.with(FaultSpec {
            replica: Some(r.into()),
            kind: FaultKind::PartitionOneWay,
            start: at,
            duration,
        })
    }

    /// Replica `r` drains gracefully at `at` (leaves the group, finishes
    /// queued work, goes dormant) and reactivates after `duration` — a
    /// scripted rolling restart.
    pub fn drain(self, r: impl Into<ReplicaId>, at: Instant, duration: Duration) -> Self {
        self.with(FaultSpec {
            replica: Some(r.into()),
            kind: FaultKind::Drain,
            start: at,
            duration,
        })
    }

    /// Resolves the plan against an experiment seed, producing the
    /// deterministic time-indexed [`FaultSchedule`] both runtimes query.
    pub fn instantiate(&self, seed: u64) -> FaultSchedule {
        FaultSchedule::new(self.specs.clone(), seed)
    }
}
