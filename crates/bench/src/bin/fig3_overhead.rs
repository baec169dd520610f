//! Regenerates **Figure 3**: overhead of the replica selection algorithm
//! (µs per request) vs. number of replicas, for sliding windows of 5, 10,
//! and 20.
//!
//! The overhead is the measured δ of §5.3.3, timed on the two steps of
//! the handler's plan: building each replica's distribution-function
//! table, then running Algorithm 1 over the tables. The paper reports
//! 100–900 µs on 2001-era hardware, ~90% of it spent on the distribution
//! computation; absolute numbers on modern hardware are smaller, but the
//! growth with `n` and `l` is the reproduced shape.
//!
//! A cell is a few milliseconds of wall time, so on a shared host a
//! single run's series need not be monotone in `n` or `l`: neighbouring
//! cells cross. EXPERIMENTS.md's Figure 3 takes the median of seven runs
//! per cell; `synthetic::tests::table_work_grows_with_window_size` checks
//! the shape in counted work, which no host load moves.
//!
//! Usage: `fig3_overhead [iters]` (default 2000 iterations per cell).

use aqua_bench::synthetic::measure_overhead;
use aqua_core::prelude::*;
use aqua_workload::{Figure, Series};

fn main() {
    let iters: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    let qos = QosSpec::new(Duration::from_millis(150), 0.9).expect("valid spec");

    let mut fig = Figure::new(
        "Figure 3: Overhead of replica selection algorithm",
        "replicas",
        "overhead (us)",
    );
    let mut model_fraction_sum = 0.0;
    let mut cells = 0u32;
    let obs = aqua_bench::obs_from_env();
    for l in [5usize, 10, 20] {
        let mut series = Series::new(format!("window = {l}"));
        for n in 2..=8 {
            let m = measure_overhead(n, l, &qos, iters);
            series.push(n as f64, m.mean_total.as_nanos() as f64 / 1_000.0);
            model_fraction_sum += m.model_fraction();
            cells += 1;
            if let Some((obs, _)) = &obs {
                let window = l.to_string();
                let replicas = n.to_string();
                let labels = [("window", window.as_str()), ("replicas", replicas.as_str())];
                let registry = obs.registry();
                registry
                    .histogram("aqua_selection_overhead_ns", &labels)
                    .record(m.mean_total.as_nanos());
                registry
                    .histogram("aqua_selection_model_ns", &labels)
                    .record(m.mean_model.as_nanos());
                registry
                    .histogram("aqua_selection_algorithm_ns", &labels)
                    .record(m.mean_select.as_nanos());
            }
        }
        fig.series.push(series);
    }
    if let Some((obs, dir)) = &obs {
        aqua_bench::obs_dump(obs, dir);
    }
    println!("{}", fig.to_ascii(60, 12));
    println!("{}", fig.to_markdown());
    println!("```csv\n{}```", fig.to_csv());
    println!();
    println!(
        "mean fraction of overhead spent computing distribution functions: {:.0}% (paper: ~90%)",
        100.0 * model_fraction_sum / cells as f64
    );
    println!("paper expectations: overhead grows with the number of replicas");
    println!("and with the sliding-window size (paper: 100-900 us in 2001).");
}
