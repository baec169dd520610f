//! The committed 10k-node geo scenario on the sharded engine: its merged
//! history must not depend on the worker count, and must be the history
//! the engine produced before its event queue was replaced. A short
//! horizon keeps the debug-build run in seconds; the full length runs in
//! `benchmark/`'s `geo_sim` workload.

use aqua_core::time::Duration;
use aqua_workload::{Scenario, ScenarioStats};

const GEO_WAN_10K: &str = include_str!("../../../examples/scenarios/geo_wan_10k.json");

/// `(events, messages, requests, replies, latency sum ns, max latency ns)`
/// of `geo_wan_10k.json` at the file's seed over 300 ms, captured on the
/// binary-heap engine (commit 141c176) at W = 1, 2 and 8. The digest
/// cannot pin a history across a change to its own fold; these can. A
/// change that moves them has changed event order, RNG draws or the
/// workload — not just the engine's speed.
const PINNED_HISTORY: (u64, u64, u64, u64, u64, u64) = (
    217_230,
    103_643,
    58_833,
    44_778,
    1_641_875_947_823,
    86_970_400,
);

fn history(stats: &ScenarioStats) -> (u64, u64, u64, u64, u64, u64) {
    (
        stats.events,
        stats.messages,
        stats.requests,
        stats.replies,
        stats.latency_ns_sum,
        stats.max_latency_ns,
    )
}

#[test]
fn geo_wan_10k_is_worker_invariant_and_keeps_its_pinned_history() {
    let mut scenario = Scenario::from_json(GEO_WAN_10K).expect("committed scenario parses");
    assert_eq!(scenario.node_count(), 10_000);
    scenario.duration = Duration::from_millis(300);
    let one = scenario.run(1);
    assert_eq!(history(&one), PINNED_HISTORY, "W = 1 history moved");
    for workers in [2, 8] {
        let sharded = scenario.run(workers);
        assert!(sharded.workers_effective > 1, "W = {workers} is sharded");
        assert_eq!(
            history(&sharded),
            PINNED_HISTORY,
            "W = {workers} history moved"
        );
        assert_eq!(
            one.digest, sharded.digest,
            "merged histories differ at W = {workers}"
        );
    }
}
