//! **Chaos harness** — Fig. 5's setup under injected faults.
//!
//! Runs the paper's seven-replica configuration (Normal(100 ms, σ50 ms)
//! synthetic service load, (200 ms, Pc = 0.9) client) through a set of
//! fault scenarios from `aqua-faults` — scheduled crash-and-recover, a
//! pause/stall, a network-wide delay spike, and probabilistic message
//! drops — and reports how far each scenario pushes the observed
//! timing-failure probability from the fault-free baseline. A
//! deadline-driven retry is armed, but the redundant selection at
//! Pc = 0.9 masks the pause and the drops, so the retry is not needed.
//!
//! Usage: `chaos_experiment [--seed N] [--check]`
//!
//! * `--seed N` — run a single reproducible history (default 7).
//! * `--check` — CI soak mode: exit non-zero unless every scenario
//!   completes all requests with a bounded failure rate.
//!
//! With `AQUA_OBS=dir` each scenario writes its own journal under
//! `dir/<scenario-slug>/` (gateway sequence numbers restart per scenario,
//! so the runs must not share one journal); every injected fault window
//! appears as `{"type":"fault","phase":"active"|"cleared",...}` lines
//! that correlate with the request spans around them, and each directory
//! can be replayed with `aqua_forensics` (see EXPERIMENTS.md § Chaos).
//! `AQUA_OBS_ROTATE_BYTES` bounds individual journal files.

use aqua_bench::chaos::{config, scenarios, REQUESTS};
use aqua_workload::run_experiment_observed;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    let obs_dir = aqua_obs::dir_from_env();
    println!("chaos harness: 7 replicas Normal(100 ms, σ50 ms), client");
    println!("(200 ms, Pc = 0.9), 50 requests, retry after 250 ms, seed {seed}.\n");
    println!("| scenario | P(failure) | gave up | retries | mean redundancy |");
    println!("|---|---|---|---|---|");

    let mut violations = Vec::new();
    for scenario in scenarios() {
        // One journal per scenario: gateway seqs restart for each run, so
        // sharing a journal would alias distinct requests during replay.
        let obs = obs_dir
            .as_ref()
            .map(|dir| aqua_bench::obs_into_subdir(dir, scenario.label));
        let report =
            run_experiment_observed(&config(seed, scenario.faults), obs.as_ref().map(|(o, _)| o));
        let c = report.client_under_test();
        println!(
            "| {} | {:.3} | {} | {} | {:.2} |",
            scenario.label,
            c.failure_probability,
            c.stats.gave_up,
            c.stats.retries,
            c.mean_redundancy()
        );
        if c.records.len() as u64 != REQUESTS {
            violations.push(format!(
                "{}: only {}/{REQUESTS} requests completed",
                scenario.label,
                c.records.len()
            ));
        }
        if c.failure_probability > scenario.budget {
            violations.push(format!(
                "{}: P(failure) {:.3} over budget {:.2}",
                scenario.label, c.failure_probability, scenario.budget
            ));
        }
        if let Some((obs, dir)) = obs {
            aqua_bench::obs_dump(&obs, &dir);
        }
    }
    println!();
    println!("expected: every fault window is masked — the crash by the");
    println!("redundant selection plus reconnect-with-probation, the pause");
    println!("and the drops by the redundant selection at Pc = 0.9 (the");
    println!("retry stays armed but is not needed) — so no scenario");
    println!("strays far above the fault-free baseline.");
    if check {
        if violations.is_empty() {
            println!("\ncheck: all scenarios within budget.");
        } else {
            eprintln!("\ncheck FAILED:");
            for v in &violations {
                eprintln!("  - {v}");
            }
            std::process::exit(1);
        }
    }
}
