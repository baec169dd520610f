//! The committed 10k-node geo scenario on the sharded engine: its merged
//! history must not depend on the worker count. A short horizon keeps the
//! debug-build run in seconds; the full length runs in `benchmark/`'s
//! `geo_sim` workload.

use aqua_core::time::Duration;
use aqua_workload::Scenario;

const GEO_WAN_10K: &str = include_str!("../../../examples/scenarios/geo_wan_10k.json");

#[test]
fn geo_wan_10k_is_worker_invariant() {
    let mut scenario = Scenario::from_json(GEO_WAN_10K).expect("committed scenario parses");
    assert_eq!(scenario.node_count(), 10_000);
    scenario.duration = Duration::from_millis(300);
    let one = scenario.run(1);
    let eight = scenario.run(8);
    assert!(one.replies > 0, "the horizon is long enough for replies");
    assert!(eight.workers_effective > 1, "the second run is sharded");
    assert_eq!(one.digest, eight.digest, "merged histories differ");
    assert_eq!(one.events, eight.events);
    assert_eq!(one.replies, eight.replies);
}
