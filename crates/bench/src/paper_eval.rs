//! The paper's §6 evaluation sweep, shared by the Figure 4 and Figure 5
//! regeneration binaries and the integration tests.

use aqua_core::qos::QosSpec;
use aqua_core::time::Duration;
use aqua_workload::{average_series, run_experiment_observed, ExperimentConfig, Figure, Series};

/// The probabilities the paper's second client requests.
pub const PAPER_PROBABILITIES: [f64; 3] = [0.9, 0.5, 0.0];

/// The deadline grid (ms) of Figures 4 and 5.
pub fn paper_deadlines() -> Vec<u64> {
    (100..=200).step_by(10).collect()
}

/// One cell of the sweep: deadline (ms), Pc, and the second client's
/// observed metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Client-2 deadline in milliseconds.
    pub deadline_ms: u64,
    /// Client-2 requested probability.
    pub probability: f64,
    /// Average number of replicas selected (Figure 4's y-axis).
    pub mean_redundancy: f64,
    /// Observed timing-failure probability (Figure 5's y-axis).
    pub failure_probability: f64,
}

/// Runs the paper's two-client experiment for one (deadline, Pc) cell and
/// one seed.
pub fn run_cell(deadline_ms: u64, probability: f64, seed: u64) -> SweepPoint {
    run_cell_observed(deadline_ms, probability, seed, None)
}

/// [`run_cell`] with optional observability — every cell of a sweep
/// accumulates into the same [`aqua_obs::Obs`] handle.
pub fn run_cell_observed(
    deadline_ms: u64,
    probability: f64,
    seed: u64,
    obs: Option<&aqua_obs::Obs>,
) -> SweepPoint {
    let qos = QosSpec::new(Duration::from_millis(deadline_ms), probability)
        .expect("sweep parameters are valid");
    let config = ExperimentConfig::paper(qos, seed);
    let report = run_experiment_observed(&config, obs);
    let client = report.client_under_test();
    SweepPoint {
        deadline_ms,
        probability,
        mean_redundancy: client.mean_redundancy(),
        failure_probability: client.failure_probability,
    }
}

/// Runs the full sweep, averaging each cell over `seeds`, and returns the
/// reproduction of Figure 4 (average replicas selected) and Figure 5
/// (observed timing-failure probability). With `obs`, all cells of the
/// sweep feed one [`aqua_obs::Obs`] handle, so the resulting snapshot
/// aggregates the whole grid.
pub fn run_paper_sweep_observed(seeds: &[u64], obs: Option<&aqua_obs::Obs>) -> (Figure, Figure) {
    let mut fig4 = Figure::new(
        "Figure 4: Comparison of the number of selected replicas",
        "deadline_ms",
        "avg replicas selected",
    );
    let mut fig5 = Figure::new(
        "Figure 5: Validation of the probabilistic model",
        "deadline_ms",
        "observed P(timing failure)",
    );

    for pc in PAPER_PROBABILITIES {
        let label = format!("Pc = {pc}");
        let mut redundancy_runs: Vec<Series> = Vec::new();
        let mut failure_runs: Vec<Series> = Vec::new();
        for seed in seeds {
            let mut red = Series::new(label.clone());
            let mut fail = Series::new(label.clone());
            for deadline in paper_deadlines() {
                let point = run_cell_observed(deadline, pc, *seed, obs);
                red.push(deadline as f64, point.mean_redundancy);
                fail.push(deadline as f64, point.failure_probability);
            }
            redundancy_runs.push(red);
            failure_runs.push(fail);
        }
        fig4.series
            .push(average_series(label.clone(), &redundancy_runs));
        fig5.series.push(average_series(label, &failure_runs));
    }
    (fig4, fig5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_produces_sane_metrics() {
        let p = run_cell(150, 0.5, 3);
        assert!(p.mean_redundancy >= 2.0, "minimum redundancy is 2");
        assert!(p.mean_redundancy <= 7.0, "never more than the pool");
        assert!((0.0..=1.0).contains(&p.failure_probability));
    }

    #[test]
    fn tighter_probability_selects_more_replicas() {
        // At a tight 110 ms deadline the Pc=0.9 client must fan out much
        // wider than the Pc=0 client.
        let strict = run_cell(110, 0.9, 5);
        let loose = run_cell(110, 0.0, 5);
        assert!(
            strict.mean_redundancy > loose.mean_redundancy,
            "strict {} vs loose {}",
            strict.mean_redundancy,
            loose.mean_redundancy
        );
    }
}
