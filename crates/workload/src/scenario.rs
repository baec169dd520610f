//! Data-driven geo-scale scenarios.
//!
//! A scenario is a JSON file (in the spirit of Elvis's NDL: the experiment
//! is a data file, not a bench binary) describing a WAN topology plus an
//! open-loop fleet workload:
//!
//! ```json
//! {
//!   "name": "smoke_2region",
//!   "seed": 7,
//!   "workers": 2,
//!   "duration_ms": 400,
//!   "topology": {
//!     "regions": ["east", "west"],
//!     "rtt_ms": [[0, 20], [20, 0]],
//!     "jitter": 0.05,
//!     "loss": 0.0
//!   },
//!   "replicas": { "per_region": 2, "service_us": 300 },
//!   "clients": {
//!     "per_region": 4, "rate_per_sec": 100,
//!     "fanout": 1, "request_bytes": 256, "reply_bytes": 512,
//!     "nearest_k": 4
//!   }
//! }
//! ```
//!
//! `topology` either names a built-in dataset (`"dataset":
//! "aws_5region"` / `"aws_10region"`, the geo-SMR paper's inter-region
//! RTT matrices) or spells out `regions` + a symmetric `rtt_ms` matrix.
//! The same scenario builds on the sharded engine (any worker count, same
//! merged history) or the classic sequential engine via
//! [`lan_sim::GeoNetwork`].

use aqua_core::time::{Duration, Instant};
use aqua_faults::FaultSchedule;
use aqua_obs::json::JsonValue;
use lan_sim::topology::RegionSpec;
use lan_sim::{
    GeoNetwork, GeoTopology, LinkFaultHook, LinkOutcome, NodeId, ShardedSimulation, Simulation,
};

use crate::scale::{ScaleClient, ScaleMsg, ScaleReplica};

/// Adapts a [`FaultSchedule`] to the topology's [`LinkFaultHook`] seam:
/// fault specs are interpreted at the *region* level — a spec targeting
/// "replica `i`" applies to region `i`'s links, and network-wide specs
/// apply to every link. Delay spikes stretch deliveries (factors below 1
/// are clamped to 1, honoring the hook contract that delays only grow);
/// drops and one-way partitions become lost messages.
#[derive(Debug, Clone)]
pub struct ScheduleLinkHook {
    schedule: FaultSchedule,
}

impl ScheduleLinkHook {
    /// Wraps a schedule.
    pub fn new(schedule: FaultSchedule) -> Self {
        ScheduleLinkHook { schedule }
    }
}

impl LinkFaultHook for ScheduleLinkHook {
    fn apply(
        &self,
        from_region: usize,
        to_region: usize,
        now: Instant,
        delay: Duration,
    ) -> LinkOutcome {
        let from = Some(aqua_core::qos::ReplicaId::new(from_region as u64));
        let to = Some(aqua_core::qos::ReplicaId::new(to_region as u64));
        if self.schedule.should_drop(from, to, now) {
            return LinkOutcome::Drop;
        }
        let (factor, pad) = self.schedule.delay_mod(from, to, now);
        LinkOutcome::Deliver(delay.mul_f64(factor.max(1.0)).saturating_add(pad))
    }
}

/// A parsed scenario: topology + fleet shape + run length.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (reported in benches and obs).
    pub name: String,
    /// RNG seed.
    pub seed: u64,
    /// Default worker count for [`Scenario::run`]-style entry points.
    pub workers: usize,
    /// Virtual-time run length.
    pub duration: Duration,
    /// The WAN topology.
    pub topology: GeoTopology,
    /// Server replicas per region.
    pub replicas_per_region: usize,
    /// Mean per-request service time.
    pub service: Duration,
    /// Open-loop clients per region.
    pub clients_per_region: usize,
    /// Mean request rate per client, requests/second.
    pub rate_per_sec: f64,
    /// Destinations per request.
    pub fanout: usize,
    /// Request wire size (bytes).
    pub request_bytes: u32,
    /// Reply wire size (bytes).
    pub reply_bytes: u32,
    /// Size of each client's nearest-replica target set.
    pub nearest_k: usize,
}

fn req<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn opt_u64(v: &JsonValue, key: &str, default: u64) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(default)
}

fn opt_f64(v: &JsonValue, key: &str, default: f64) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or(default)
}

impl Scenario {
    /// Parses a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<Scenario, String> {
        let root = aqua_obs::parse::parse(text).map_err(|e| format!("scenario JSON: {e:?}"))?;
        let topo_spec = req(&root, "topology")?;
        let mut topology = if let Some(dataset) =
            topo_spec.get("dataset").and_then(JsonValue::as_str)
        {
            GeoTopology::dataset(dataset).ok_or_else(|| format!("unknown dataset `{dataset}`"))?
        } else {
            let names = req(topo_spec, "regions")?
                .as_array()
                .ok_or("`regions` must be an array")?
                .iter()
                .map(|n| {
                    n.as_str()
                        .map(RegionSpec::named)
                        .ok_or("region names must be strings")
                })
                .collect::<Result<Vec<_>, _>>()?;
            let rtt = req(topo_spec, "rtt_ms")?
                .as_array()
                .ok_or("`rtt_ms` must be a matrix")?
                .iter()
                .map(|row| {
                    row.as_array()
                        .ok_or("`rtt_ms` rows must be arrays")?
                        .iter()
                        .map(|x| x.as_f64().ok_or("`rtt_ms` entries must be numbers"))
                        .collect::<Result<Vec<f64>, _>>()
                })
                .collect::<Result<Vec<_>, _>>()?;
            if rtt.len() != names.len() || rtt.iter().any(|r| r.len() != names.len()) {
                return Err("`rtt_ms` must be square with one row per region".into());
            }
            GeoTopology::from_rtt_ms(names, &rtt)
        };
        topology.jitter = opt_f64(topo_spec, "jitter", topology.jitter);
        topology.loss = opt_f64(topo_spec, "loss", topology.loss);

        let replicas = req(&root, "replicas")?;
        let clients = req(&root, "clients")?;
        let fanout = opt_u64(clients, "fanout", 1).max(1) as usize;
        Ok(Scenario {
            name: root
                .get("name")
                .and_then(JsonValue::as_str)
                .unwrap_or("scenario")
                .to_string(),
            seed: opt_u64(&root, "seed", 1),
            workers: opt_u64(&root, "workers", 1).max(1) as usize,
            duration: Duration::from_millis(
                req(&root, "duration_ms")?
                    .as_u64()
                    .ok_or("`duration_ms` must be a number")?,
            ),
            topology,
            replicas_per_region: opt_u64(replicas, "per_region", 1) as usize,
            service: Duration::from_micros(opt_u64(replicas, "service_us", 500)),
            clients_per_region: opt_u64(clients, "per_region", 1) as usize,
            rate_per_sec: opt_f64(clients, "rate_per_sec", 10.0).max(0.001),
            fanout,
            request_bytes: opt_u64(clients, "request_bytes", 256) as u32,
            reply_bytes: opt_u64(clients, "reply_bytes", 512) as u32,
            nearest_k: opt_u64(clients, "nearest_k", 4).max(fanout as u64) as usize,
        })
    }

    /// Total nodes the scenario creates.
    pub fn node_count(&self) -> usize {
        self.topology.region_count() * (self.replicas_per_region + self.clients_per_region)
    }

    fn mean_gap(&self) -> Duration {
        Duration::from_secs_f64(1.0 / self.rate_per_sec)
    }

    /// Per-region nearest-k target lists over the replica fleet.
    ///
    /// Replica node ids are assigned region-major (all of region 0's
    /// replicas first), so targets are derivable from the topology alone —
    /// the same list for every engine and worker count.
    fn targets_by_region(&self, replica_ids: &[NodeId]) -> Vec<Vec<NodeId>> {
        let regions = self.topology.region_count();
        (0..regions)
            .map(|cr| {
                let mut by_distance: Vec<(u64, NodeId)> = replica_ids
                    .iter()
                    .enumerate()
                    .map(|(i, id)| {
                        let rr = i / self.replicas_per_region.max(1);
                        (self.topology.one_way(cr, rr).as_nanos(), *id)
                    })
                    .collect();
                by_distance.sort_by_key(|(d, id)| (*d, id.index()));
                by_distance
                    .into_iter()
                    .take(self.nearest_k.max(1))
                    .map(|(_, id)| id)
                    .collect()
            })
            .collect()
    }

    /// Builds the scenario on the sharded engine with `workers` shards
    /// (node ids and wiring are identical for every worker count).
    pub fn build(&self, workers: usize) -> ShardedSimulation<ScaleMsg> {
        self.build_with_faults(workers, &FaultSchedule::empty())
    }

    /// Builds on the sharded engine with a fault schedule composed into
    /// the topology's link hooks.
    pub fn build_with_faults(
        &self,
        workers: usize,
        faults: &FaultSchedule,
    ) -> ShardedSimulation<ScaleMsg> {
        let mut sim = ShardedSimulation::new(self.seed, workers, self.topology.clone());
        if !faults.is_empty() {
            sim.add_link_hook(Box::new(ScheduleLinkHook::new(faults.clone())));
        }
        let regions = self.topology.region_count();
        let horizon = Instant::EPOCH.saturating_add(self.duration);
        let mut replica_ids = Vec::new();
        for r in 0..regions {
            for _ in 0..self.replicas_per_region {
                replica_ids.push(sim.add_node_in_region(r, ScaleReplica::new(self.service)));
            }
        }
        let targets = self.targets_by_region(&replica_ids);
        for (r, region_targets) in targets.iter().enumerate().take(regions) {
            for _ in 0..self.clients_per_region {
                let id = sim
                    .add_node_in_region(r, ScaleClient::new(self.mean_gap(), self.fanout, horizon));
                let client = sim.node_mut::<ScaleClient>(id).expect("just added");
                client.targets = region_targets.clone();
                client.request_bytes = self.request_bytes;
                client.reply_bytes = self.reply_bytes;
            }
        }
        sim
    }

    /// Builds the same fleet on the classic sequential engine via a
    /// [`GeoNetwork`] adapter (one global RNG, so its history differs from
    /// the sharded engine's — it is the wall-clock baseline, not a
    /// determinism reference).
    pub fn build_classic(&self) -> Simulation<ScaleMsg> {
        let regions = self.topology.region_count();
        let mut network = GeoNetwork::new(self.topology.clone());
        let mut index = 0u32;
        for r in 0..regions {
            for _ in 0..self.replicas_per_region {
                network.assign(NodeId::new(index), r);
                index += 1;
            }
        }
        for r in 0..regions {
            for _ in 0..self.clients_per_region {
                network.assign(NodeId::new(index), r);
                index += 1;
            }
        }
        let mut sim = Simulation::with_network(self.seed, network);
        let horizon = Instant::EPOCH.saturating_add(self.duration);
        let mut replica_ids = Vec::new();
        for _ in 0..regions {
            for _ in 0..self.replicas_per_region {
                replica_ids.push(sim.add_node(ScaleReplica::new(self.service)));
            }
        }
        let targets = self.targets_by_region(&replica_ids);
        for region_targets in targets.iter().take(regions) {
            for _ in 0..self.clients_per_region {
                let id = sim.add_node(ScaleClient::new(self.mean_gap(), self.fanout, horizon));
                let client = sim.node_mut::<ScaleClient>(id).expect("just added");
                client.targets = region_targets.clone();
                client.request_bytes = self.request_bytes;
                client.reply_bytes = self.reply_bytes;
            }
        }
        sim
    }

    /// Builds, runs to the configured duration on `workers` shards, and
    /// summarizes.
    pub fn run(&self, workers: usize) -> ScenarioStats {
        let mut sim = self.build(workers);
        sim.run_until(Instant::EPOCH.saturating_add(self.duration));
        let mut stats = ScenarioStats {
            name: self.name.clone(),
            nodes: self.node_count() as u64,
            workers_requested: workers as u64,
            workers_effective: sim.effective_workers() as u64,
            rounds: sim.rounds(),
            events: sim.events_processed(),
            messages: sim.messages_sent(),
            digest: sim.trace_digest(),
            ..ScenarioStats::default()
        };
        for index in 0..self.node_count() {
            if let Some(c) = sim.node::<ScaleClient>(NodeId::new(index as u32)) {
                stats.requests += c.sent;
                stats.replies += c.received;
                stats.latency_ns_sum += c.total_latency_ns;
                stats.max_latency_ns = stats.max_latency_ns.max(c.max_latency_ns);
            }
        }
        stats
    }
}

/// Summary of one scenario run.
#[derive(Debug, Clone, Default)]
pub struct ScenarioStats {
    /// Scenario name.
    pub name: String,
    /// Total nodes.
    pub nodes: u64,
    /// Workers requested.
    pub workers_requested: u64,
    /// Shards actually used.
    pub workers_effective: u64,
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Events processed.
    pub events: u64,
    /// Messages sent over the simulated network.
    pub messages: u64,
    /// Requests issued by clients.
    pub requests: u64,
    /// First replies received.
    pub replies: u64,
    /// Sum of first-reply latencies (ns).
    pub latency_ns_sum: u64,
    /// Worst first-reply latency (ns).
    pub max_latency_ns: u64,
    /// Partition-invariant history digest.
    pub digest: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = include_str!("../../../examples/scenarios/smoke_2region.json");

    #[test]
    fn parses_committed_smoke_scenario() {
        let s = Scenario::from_json(SMOKE).expect("committed scenario parses");
        assert_eq!(s.name, "smoke_2region");
        assert_eq!(s.topology.region_count(), 2);
        assert_eq!(s.node_count(), (2 + 4) * 2);
        assert_eq!(s.workers, 2);
    }

    #[test]
    fn smoke_scenario_runs_and_is_worker_invariant() {
        let s = Scenario::from_json(SMOKE).expect("parses");
        let one = s.run(1);
        let par = s.run(s.workers);
        assert!(one.requests > 0, "clients issued work");
        assert!(one.replies > 0, "replicas answered");
        assert_eq!(one.digest, par.digest, "histories identical across W");
        assert_eq!(one.events, par.events);
        assert_eq!(one.replies, par.replies);
        // Nearest-k mixes local (150 µs) and remote (10 ms) targets, so
        // the mean sits above the local floor and the worst request paid
        // at least one inter-region round trip.
        let mean_ns = one.latency_ns_sum / one.replies;
        assert!(mean_ns > 100_000, "{mean_ns}");
        assert!(one.max_latency_ns >= 20_000_000, "{}", one.max_latency_ns);
    }

    #[test]
    fn dataset_scenarios_parse() {
        let s = Scenario::from_json(
            r#"{"duration_ms": 100,
                "topology": {"dataset": "aws_5region"},
                "replicas": {"per_region": 1, "service_us": 100},
                "clients": {"per_region": 1, "rate_per_sec": 50}}"#,
        )
        .expect("dataset scenario parses");
        assert_eq!(s.topology.region_count(), 5);
        assert_eq!(s.nearest_k, 4);
    }

    #[test]
    fn classic_engine_runs_the_same_scenario() {
        let s = Scenario::from_json(SMOKE).expect("parses");
        let mut sim = s.build_classic();
        sim.run_until(Instant::EPOCH.saturating_add(s.duration));
        assert!(sim.messages_sent() > 0);
    }

    #[test]
    fn fault_hook_drops_and_delays_only_increase() {
        use aqua_core::time::Duration;
        let schedule = crate::FaultPlan::new().instantiate(3);
        let hook = ScheduleLinkHook::new(schedule);
        match hook.apply(0, 1, Instant::EPOCH, Duration::from_millis(5)) {
            LinkOutcome::Deliver(d) => assert!(d >= Duration::from_millis(5)),
            LinkOutcome::Drop => panic!("empty schedule must not drop"),
        }
    }
}
