//! What a workload hands back from one pass, and the interface every
//! workload has.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::spans::Recorder;
use crate::stats::Summary;

/// Metric name → value. Names are those of `BENCHMARK.json`.
pub type Metrics = BTreeMap<&'static str, Summary>;

/// How many failure descriptions a pass keeps; the count is unbounded.
const FAILURES_KEPT: usize = 8;

/// The outcome of one pass over a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// The metrics the pass measured.
    pub metrics: Metrics,
    /// Operations attempted: calls, experiments or repetitions, each
    /// with its correctness check.
    pub attempted: u64,
    /// Operations that failed or whose outputs were wrong.
    pub failed: u64,
    /// What the first few failures were.
    pub failures: Vec<String>,
    /// The pass's throughput — calls per second, or simulator events per
    /// second — for `obs.traced_over_untraced`.
    pub rate: f64,
}

impl Pass {
    /// Counts one failed operation.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < FAILURES_KEPT {
            self.failures.push(what());
        }
    }

    /// Adds another pass's operation counts to this one's.
    pub fn absorb(&mut self, other: &Pass) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = FAILURES_KEPT.saturating_sub(self.failures.len());
        self.failures
            .extend(other.failures.iter().take(room).cloned());
    }

    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: Summary) {
        self.metrics.insert(name, value);
    }
}

/// Whose traced run a traced pass is part of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The workload the run was asked for: full size.
    Named,
    /// Another workload's run, which needs this one only for the layers
    /// it alone exercises: scaled down where a full-size pass would not
    /// fit its share of the run.
    Background,
}

/// One benchmark workload, set up from a seed.
pub trait Workload {
    /// The untraced pass: the window every end-to-end metric comes from.
    fn measure(&mut self, length: Duration) -> Pass;

    /// The traced pass: the same work with spans, the program's own
    /// counters attached and layer replays, for `length` in all.
    fn trace(&mut self, length: Duration, role: Role, recorder: &mut Recorder) -> Pass;
}
