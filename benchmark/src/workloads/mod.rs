//! The five workloads. Names are fixed: later issues refer to them.

pub mod gateway;
pub mod geo_sim;
pub mod loopback;
pub mod paper_sim;

use crate::pass::Workload;

/// Workload names, in the order `run.sh` runs them and a traced run
/// visits them.
pub const NAMES: [&str; 5] = [
    "gateway_plan",
    "gateway_churn",
    "loopback_mux",
    "paper_sim",
    "geo_sim",
];

/// Sets up workload `name` from `seed`: inputs generated, windows
/// filled, caches warm, connections up. What this takes is `setup_s`.
pub fn set_up(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "gateway_plan" => Box::new(gateway::Gateway::set_up(&gateway::PLAN, seed)),
        "gateway_churn" => Box::new(gateway::Gateway::set_up(&gateway::CHURN, seed)),
        "loopback_mux" => Box::new(loopback::Loopback::set_up(seed)?),
        "paper_sim" => Box::new(paper_sim::PaperSim::set_up(seed)),
        "geo_sim" => Box::new(geo_sim::GeoSim::set_up(seed)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}
