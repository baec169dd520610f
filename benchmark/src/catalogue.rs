//! The metrics the benchmark reports, as `BENCHMARK.json` lists them. A
//! unit test holds the two together.

/// One metric: its name and unit.
pub type Metric = (&'static str, &'static str);

/// End-to-end metrics: printed by an untraced run, for every workload.
pub const END_TO_END: [Metric; 9] = [
    ("setup_s", "s"),
    ("calls_per_s", "1/s"),
    ("call_p50_us", "us"),
    ("call_p99_us", "us"),
    ("cpu_us_per_call", "us"),
    ("timely_share", "share"),
    ("mean_redundancy", "count"),
    ("sim_events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: printed by a traced run.
pub const PER_LAYER: [Metric; 59] = [
    ("core.model.cdf_lookup_ns", "ns"),
    ("core.select.select_ns", "ns"),
    ("core.snapshot.load_ns", "ns"),
    ("core.pmf.convolve_ns", "ns"),
    ("core.pmf.self_convolve_ns", "ns"),
    ("core.model.response_pmf_ns", "ns"),
    ("core.snapshot.build_ns", "ns"),
    ("core.repository.record_perf_ns", "ns"),
    ("core.model.cache_hit_ratio", "share"),
    ("strategies.model_based.select_ns", "ns"),
    ("gateway.concurrent.plan_ns_p50", "ns"),
    ("gateway.concurrent.plan_ns_p99", "ns"),
    ("gateway.concurrent.on_reply_ns_p50", "ns"),
    ("gateway.concurrent.on_reply_ns_p99", "ns"),
    ("gateway.concurrent.perf_update_ns_p50", "ns"),
    ("gateway.concurrent.perf_update_ns_p99", "ns"),
    ("gateway.concurrent.call_p999_us", "us"),
    ("gateway.concurrent.publishes_per_call", "count"),
    ("gateway.concurrent.redundant_reply_share", "share"),
    ("gateway.concurrent.lock_wait_ns_per_call", "ns"),
    ("gateway.concurrent.scaling_2t", "ratio"),
    ("gateway.timing.plan_ns_p50", "ns"),
    ("gateway.timing.on_reply_ns_p50", "ns"),
    ("gateway.timing.delta_ns_p50", "ns"),
    ("runtime.wire.encode_ns_64b", "ns"),
    ("runtime.wire.encode_ns_4k", "ns"),
    ("runtime.wire.decode_ns_64b", "ns"),
    ("runtime.wire.decode_ns_4k", "ns"),
    ("runtime.wire.bytes_per_call", "count"),
    ("runtime.reactor.writev_per_call", "count"),
    ("runtime.reactor.read_per_call", "count"),
    ("runtime.reactor.epoll_wait_per_call", "count"),
    ("runtime.reactor.frames_per_writev", "count"),
    ("runtime.server.service_ns_p50", "ns"),
    ("runtime.server.queue_ns_p50", "ns"),
    ("runtime.server.queue_ns_p99", "ns"),
    ("runtime.server.spawn_ms", "ms"),
    ("runtime.mux.connect_ms", "ms"),
    ("runtime.mux.call_p999_us", "us"),
    ("runtime.mux.c2_calls_per_s", "1/s"),
    ("runtime.mux.c2_stalled_call_share", "share"),
    ("sim.simulation.ns_per_event", "ns"),
    ("sim.simulation.events_per_pass", "count"),
    ("workload.experiment.replay_mismatch_cells", "count"),
    ("workload.experiment.cell_ms_p50", "ms"),
    ("workload.experiment.cell_ms_p99", "ms"),
    ("sim.sharded.ns_per_event_w1", "ns"),
    ("sim.sharded.events_total", "count"),
    ("sim.sharded.rounds_w2", "count"),
    ("sim.sharded.w2_over_w1_wall", "ratio"),
    ("sim.sharded.round_us_w2", "us"),
    ("sim.sharded.shard_imbalance_w2", "ratio"),
    ("sim.simulation.geo_ns_per_event", "ns"),
    ("workload.scenario.parse_ms", "ms"),
    ("workload.scenario.build_ms", "ms"),
    ("process.allocs_per_call", "count"),
    ("process.alloc_bytes_per_call", "count"),
    ("obs.traced_over_untraced", "ratio"),
    ("trace.residual_share", "share"),
];

/// The unit of metric `name`, if the catalogue has it.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_obs::json::JsonValue;

    fn contract() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        aqua_obs::parse::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(contract: &JsonValue, key: &str) -> Vec<(String, String)> {
        let text = |entry: &JsonValue, field: &str| {
            entry
                .get(field)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("{key} entry without {field}"))
                .to_string()
        };
        contract
            .get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|entry| (text(entry, "name"), text(entry, "unit")))
            .collect()
    }

    fn owned(table: &[Metric]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect()
    }

    #[test]
    fn the_catalogue_is_what_the_contract_lists() {
        let contract = contract();
        assert_eq!(listed(&contract, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&contract, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn the_workloads_are_what_the_contract_lists() {
        let contract = contract();
        let names: Vec<String> = contract
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("BENCHMARK.json lists workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
            .map(str::to_string)
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(name, _)| *name)
            .collect();
        for (i, name) in all.iter().enumerate() {
            assert!(!all[..i].contains(name), "{name} is listed twice");
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit_of(name).is_some_and(|unit| unit.len() <= 16));
        }
        assert_eq!(unit_of("absent"), None);
    }
}
