//! # aqua-workload — workloads and the experiment harness
//!
//! Declarative experiment configurations ([`ExperimentConfig`]), a
//! deterministic runner ([`run_experiment`]) over the full simulated stack
//! (coordinator + server gateways + client gateways on a LAN model), and
//! report/figure formatting for the regeneration binaries.
//!
//! [`ExperimentConfig::paper`] encodes the paper's §6 setup: seven replicas
//! with Normal(100 ms, σ50 ms) synthetic service load, two closed-loop
//! clients with 1 s think time and 50 requests each, client 1 pinned at a
//! (200 ms, Pc ≥ 0) spec and client 2 sweeping the deadline/probability
//! under test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod experiment;
mod report;
pub mod scale;
pub mod scenario;

pub use aqua_faults::{FaultKind, FaultPlan};
pub use config::{
    ClientSpec, ExperimentConfig, ManagerSpec, NetworkSpec, ServerSpec, StrategySpec,
};
pub use experiment::{
    run_experiment, run_experiment_observed, ClientReport, ExperimentReport, RoleWork,
};
pub use report::{Figure, Series};
pub use scale::{ScaleClient, ScaleMsg, ScaleReplica};
pub use scenario::{Scenario, ScenarioStats, ScheduleLinkHook};

/// Averages the y-values of several same-grid series into one.
///
/// Used to average experiment curves over multiple seeds.
///
/// # Panics
///
/// Panics if the series do not share the same x grid or `runs` is empty.
pub fn average_series(label: impl Into<String>, runs: &[Series]) -> Series {
    assert!(!runs.is_empty(), "need at least one run to average");
    let grid: Vec<f64> = runs[0].points.iter().map(|(x, _)| *x).collect();
    let mut out = Series::new(label);
    for (i, x) in grid.iter().enumerate() {
        let mut sum = 0.0;
        for run in runs {
            assert!(
                (run.points[i].0 - x).abs() < 1e-9,
                "averaged series must share the x grid"
            );
            sum += run.points[i].1;
        }
        out.push(*x, sum / runs.len() as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_series_averages() {
        let mut a = Series::new("s1");
        let mut b = Series::new("s2");
        for x in 0..3 {
            a.push(x as f64, 1.0);
            b.push(x as f64, 3.0);
        }
        let avg = average_series("avg", &[a, b]);
        assert_eq!(avg.points, vec![(0.0, 2.0), (1.0, 2.0), (2.0, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn average_of_nothing_panics() {
        let _ = average_series("avg", &[]);
    }
}
