//! Building, running, and summarizing experiments.

use aqua_core::qos::ReplicaId;
use aqua_core::time::{Duration, Instant};
use aqua_faults::FaultSchedule;
use aqua_gateway::{
    AquaMsg, ClientConfig, ClientGateway, HandlerStats, RequestRecord, ServerConfig, ServerGateway,
    Wire,
};
use aqua_group::{FailureDetectorConfig, GroupCoordinator};
use lan_sim::topology::DROP_DELAY;
use lan_sim::{NodeCounters, NodeId, Simulation};

use crate::config::ExperimentConfig;

/// Summary of one client's run.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// Which client (index into the config).
    pub index: usize,
    /// The strategy name it ran.
    pub strategy: &'static str,
    /// Per-request records in issue order.
    pub records: Vec<RequestRecord>,
    /// Handler counters.
    pub stats: HandlerStats,
    /// Observed timing-failure probability over the run.
    pub failure_probability: f64,
    /// QoS callbacks issued.
    pub callbacks: u64,
}

impl ClientReport {
    /// Mean redundancy over all requests (cold-start multicast included,
    /// matching how the paper averages over a run of fifty requests).
    pub fn mean_redundancy(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.redundancy).sum::<usize>() as f64 / self.records.len() as f64
    }

    /// The `q`-quantile of observed response times (answered requests
    /// only); `None` when nothing was answered.
    pub fn latency_quantile(&self, q: f64) -> Option<Duration> {
        let mut latencies: Vec<Duration> = self
            .records
            .iter()
            .filter_map(|r| r.response_time)
            .collect();
        if latencies.is_empty() {
            return None;
        }
        latencies.sort_unstable();
        let idx = ((latencies.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(latencies[idx])
    }

    /// Mean observed response time (answered requests only).
    pub fn mean_latency(&self) -> Option<Duration> {
        let latencies: Vec<Duration> = self
            .records
            .iter()
            .filter_map(|r| r.response_time)
            .collect();
        if latencies.is_empty() {
            return None;
        }
        let total: Duration = latencies.iter().copied().sum();
        Some(total / latencies.len() as u64)
    }
}

/// The outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Per-client summaries, in config order.
    pub clients: Vec<ClientReport>,
    /// Virtual time when the run ended: the instant of its last
    /// application event, when every client had finished with no call
    /// waiting, every replica was idle and no application message was in
    /// flight; or [`ExperimentConfig::max_virtual_time`] if the budget ran
    /// out first. Only group traffic (heartbeats, sweeps, views) would run
    /// past it, and that changes no record and no handler counter.
    pub ended_at: Instant,
    /// Total messages sent over the simulated network.
    pub messages: u64,
    /// Total simulation events processed.
    pub events: u64,
    /// The simulator's per-node counters, summed per role.
    pub work: RoleWork,
}

/// The simulator's per-node counters summed over the coordinator, the
/// replicas and the clients: where a run's events went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoleWork {
    /// The group coordinator.
    pub coordinator: NodeCounters,
    /// Every replica host, standbys included.
    pub servers: NodeCounters,
    /// Every client gateway.
    pub clients: NodeCounters,
}

/// Adds `node`'s counters into `sum`.
fn add_counters(sum: &mut NodeCounters, node: NodeCounters) {
    sum.sent += node.sent;
    sum.delivered += node.delivered;
    sum.timers_fired += node.timers_fired;
}

impl ExperimentReport {
    /// The report of the *last* configured client — the "second client"
    /// under test in the paper's setup.
    pub fn client_under_test(&self) -> &ClientReport {
        self.clients.last().expect("at least one client configured")
    }
}

/// Builds and runs an experiment to completion: to its last application
/// event, or to the end of the virtual-time budget if that comes first.
///
/// # Examples
///
/// ```
/// use aqua_workload::{run_experiment, ExperimentConfig};
/// use aqua_core::qos::QosSpec;
/// use aqua_core::time::Duration;
///
/// # fn main() -> Result<(), aqua_core::qos::QosError> {
/// let qos = QosSpec::new(Duration::from_millis(160), 0.9)?;
/// let mut config = ExperimentConfig::paper(qos, 1);
/// // Keep the doctest quick: 5 requests per client.
/// for c in &mut config.clients {
///     c.num_requests = 5;
/// }
/// let report = run_experiment(&config);
/// assert_eq!(report.client_under_test().records.len(), 5);
/// # Ok(())
/// # }
/// ```
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentReport {
    run_experiment_observed(config, None)
}

/// [`run_experiment`] with optional observability: when `obs` is given,
/// every client gateway records its handler metrics and request spans into
/// it (labelled by client index), and at the end of the run the simulator's
/// communication counters and trace ring are bridged in via
/// [`Simulation::export_obs`].
pub fn run_experiment_observed(
    config: &ExperimentConfig,
    obs: Option<&aqua_obs::Obs>,
) -> ExperimentReport {
    let mut run = Run::build(config, obs);
    run.drain(Instant::EPOCH + config.max_virtual_time);
    if let Some(obs) = obs {
        run.finish_observability(obs);
    }
    run.report()
}

/// A built experiment: the simulation and the nodes its report reads.
struct Run {
    sim: Simulation<Wire>,
    schedule: FaultSchedule,
    coordinator: NodeId,
    /// Servers, then standbys.
    replicas: Vec<NodeId>,
    clients: Vec<NodeId>,
}

impl Run {
    fn build(config: &ExperimentConfig, obs: Option<&aqua_obs::Obs>) -> Run {
        let schedule = config.faults.instantiate(config.seed);
        let mut sim: Simulation<Wire> = {
            let network = config.network.build();
            // Simulation::with_network takes the model by value; box-dyn via
            // a small adapter below. Network-scoped faults (delay spikes,
            // drops, partitions) wrap the model; replica-scoped faults are
            // applied by each server gateway from its own copy of the
            // schedule.
            let faulty = FaultyNetwork {
                inner: BoxedNetwork(network),
                schedule: schedule.clone(),
                replica_nodes: config.servers.len() + config.standby_servers.len(),
            };
            Simulation::with_network(config.seed, faulty)
        };
        if obs.is_some() {
            sim.enable_trace(4096);
        }

        let coordinator = sim.add_node(GroupCoordinator::<AquaMsg>::new(
            FailureDetectorConfig::default(),
        ));

        let server_config =
            |i: usize, server: &crate::config::ServerSpec, standby: bool| ServerConfig {
                replica: ReplicaId::new(i as u64),
                coordinator,
                service: server.service.clone(),
                method_services: server.method_services.clone(),
                load: server.load.clone(),
                crash: server.crash,
                recover_after: server.recover_after,
                standby,
                faults: (!schedule.is_empty()).then(|| schedule.clone()),
            };
        let mut replicas: Vec<NodeId> = Vec::new();
        for (i, server) in config.servers.iter().enumerate() {
            let cfg = server_config(i, server, false);
            replicas.push(sim.add_node(ServerGateway::new(cfg)));
        }
        let standby_nodes: Vec<NodeId> = (config.servers.len()..)
            .zip(&config.standby_servers)
            .map(|(i, server)| sim.add_node(ServerGateway::new(server_config(i, server, true))))
            .collect();
        replicas.extend(&standby_nodes);
        let mut manager_node = None;
        if let Some(manager) = &config.manager {
            let mut node = aqua_gateway::DependabilityManager::new(aqua_gateway::ManagerConfig {
                coordinator,
                target_replication: manager.target_replication,
                standbys: standby_nodes,
                supervision: manager.supervision,
            });
            if let Some(obs) = obs {
                node = node.with_obs(obs);
            }
            manager_node = Some(sim.add_node(node));
        }

        let mut client_nodes: Vec<NodeId> = Vec::new();
        for (i, client) in config.clients.iter().enumerate() {
            let cfg = ClientConfig {
                coordinator,
                qos: client.qos,
                window: client.window,
                arrivals: client.arrivals,
                think_time: client.think_time,
                num_requests: Some(client.num_requests),
                methods: client.methods.clone(),
                probe_stale_after: client.probe_stale_after,
                renegotiate_to: client.renegotiate_to,
                retry_after: client.retry_after,
                // Clients report to (and take directives from) the manager
                // only when it actually supervises.
                manager: manager_node
                    .filter(|_| config.manager.is_some_and(|m| m.supervision.is_some())),
                calibration: client.calibration,
            };
            let strategy = client.strategy.build(config.seed.wrapping_add(i as u64));
            let mut gateway = ClientGateway::new(cfg, strategy);
            if let Some(obs) = obs {
                gateway = gateway.with_obs(obs, i as u64);
                if !schedule.is_empty() {
                    // Spans carry the stable ids of overlapping fault
                    // windows, matching the `fault` events journalled at
                    // the end of the run — the forensics analyzer joins on
                    // them.
                    gateway = gateway.with_fault_windows(schedule.windows());
                }
            }
            client_nodes.push(sim.add_node(gateway));
        }
        Run {
            sim,
            schedule,
            coordinator,
            replicas,
            clients: client_nodes,
        }
    }

    /// Runs to the last application event, or to `deadline` if that comes
    /// first; returns whether the run drained. Drained means every client
    /// finished with no call waiting, every replica idle and no
    /// application message in flight: late redundant replies and
    /// performance updates have landed, so records and handler counters
    /// are complete. Past that instant only group traffic runs, which
    /// changes neither.
    fn drain(&mut self, deadline: Instant) -> bool {
        let (clients, replicas) = (&self.clients, &self.replicas);
        self.sim.run_until_settled(deadline, |sim| {
            clients.iter().all(|n| {
                sim.node::<ClientGateway>(*n)
                    .is_some_and(|c| c.is_finished() && !c.has_pending_call())
            }) && replicas.iter().all(|n| {
                sim.node::<ServerGateway>(*n)
                    .is_some_and(ServerGateway::is_idle)
            })
        })
    }

    /// Flushes the clients' spans and bridges the simulator's counters,
    /// trace ring and fault timeline into `obs`.
    fn finish_observability(&mut self, obs: &aqua_obs::Obs) {
        for node in &self.clients {
            if let Some(gw) = self.sim.node_mut::<ClientGateway>(*node) {
                gw.finish_observability();
            }
        }
        self.sim.export_obs(obs);
        // The schedule is a pure function of time, so every window the run
        // saw open can be journalled in one pass.
        aqua_faults::emit_fault_events(obs, &self.schedule, self.sim.now());
    }

    fn report(&self) -> ExperimentReport {
        let sim = &self.sim;
        let clients = self
            .clients
            .iter()
            .enumerate()
            .map(|(index, node)| {
                let gw = sim
                    .node::<ClientGateway>(*node)
                    .expect("client node exists");
                let handler = gw.handler().expect("client started");
                let records = gw.records().to_vec();
                let failures = records.iter().filter(|r| !r.timely).count();
                let failure_probability = if records.is_empty() {
                    0.0
                } else {
                    failures as f64 / records.len() as f64
                };
                ClientReport {
                    index,
                    strategy: handler.strategy_name(),
                    stats: handler.stats(),
                    callbacks: handler.stats().callbacks,
                    failure_probability,
                    records,
                }
            })
            .collect();

        let mut work = RoleWork {
            coordinator: sim.node_counters(self.coordinator),
            ..RoleWork::default()
        };
        for node in &self.replicas {
            add_counters(&mut work.servers, sim.node_counters(*node));
        }
        for node in &self.clients {
            add_counters(&mut work.clients, sim.node_counters(*node));
        }

        ExperimentReport {
            clients,
            ended_at: sim.now(),
            messages: sim.messages_sent(),
            events: sim.events_processed(),
            work,
        }
    }
}

/// Adapter: a boxed network model as a `NetworkModel`.
struct BoxedNetwork(Box<dyn lan_sim::NetworkModel>);

impl lan_sim::NetworkModel for BoxedNetwork {
    fn delay(
        &mut self,
        from: NodeId,
        to: NodeId,
        size: usize,
        fanout: usize,
        now: Instant,
        rng: &mut rand::rngs::SmallRng,
    ) -> Duration {
        self.0.delay(from, to, size, fanout, now, rng)
    }
}

/// Network model wrapper applying the fault schedule's network-scoped
/// faults: delay spikes scale and pad the base delay, and drop/one-way
/// partition faults turn the message into a [`DROP_DELAY`] straggler, the
/// engine's sign of a dropped message (the network contract is "every
/// message eventually arrives"), which it does not count in flight.
struct FaultyNetwork {
    inner: BoxedNetwork,
    schedule: FaultSchedule,
    /// Number of replica-hosting nodes. Node 0 is the group coordinator and
    /// nodes `1..=replica_nodes` host replica `node - 1` (servers then
    /// standbys, in [`run_experiment`]'s add order); later nodes are clients.
    replica_nodes: usize,
}

impl FaultyNetwork {
    fn replica_of(&self, node: NodeId) -> Option<ReplicaId> {
        let idx = node.index() as usize;
        (1..=self.replica_nodes)
            .contains(&idx)
            .then(|| ReplicaId::new(idx as u64 - 1))
    }
}

impl lan_sim::NetworkModel for FaultyNetwork {
    fn delay(
        &mut self,
        from: NodeId,
        to: NodeId,
        size: usize,
        fanout: usize,
        now: Instant,
        rng: &mut rand::rngs::SmallRng,
    ) -> Duration {
        let base = self.inner.delay(from, to, size, fanout, now, rng);
        if self.schedule.is_empty() {
            return base;
        }
        let (from, to) = (self.replica_of(from), self.replica_of(to));
        if self.schedule.should_drop(from, to, now) {
            return DROP_DELAY;
        }
        let (factor, pad) = self.schedule.delay_mod(from, to, now);
        base.mul_f64(factor).saturating_add(pad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClientSpec, ServerSpec, StrategySpec};
    use aqua_core::qos::QosSpec;
    use aqua_replica::ServiceTimeModel;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn quick_config(qos: QosSpec, n_servers: usize, requests: u64, seed: u64) -> ExperimentConfig {
        let mut client = ClientSpec::paper(qos);
        client.num_requests = requests;
        client.think_time = ms(100);
        ExperimentConfig {
            seed,
            network: crate::config::NetworkSpec::paper(),
            servers: (0..n_servers)
                .map(|_| ServerSpec {
                    service: ServiceTimeModel::Deterministic(ms(40)),
                    ..ServerSpec::paper()
                })
                .collect(),
            standby_servers: Vec::new(),
            manager: None,
            clients: vec![client],
            faults: aqua_faults::FaultPlan::new(),
            max_virtual_time: Duration::from_secs(120),
        }
    }

    /// Drains `config`'s run, then continues it for 8 s more of virtual
    /// time: no record, no handler counter and no view may move.
    fn assert_drained(config: &ExperimentConfig) {
        let mut run = Run::build(config, None);
        assert!(run.drain(Instant::EPOCH + config.max_virtual_time));
        let views = |run: &Run| {
            run.sim
                .node::<GroupCoordinator<AquaMsg>>(run.coordinator)
                .expect("the coordinator")
                .view()
                .clone()
        };
        let (drained, views_drained) = (run.report(), views(&run));
        let deadline = run.sim.now() + Duration::from_secs(8);
        run.sim.run_until(deadline);
        let (later, views_later) = (run.report(), views(&run));
        assert!(later.events > drained.events, "group traffic runs on");
        for (drained, later) in drained.clients.iter().zip(&later.clients) {
            assert_eq!(drained.records, later.records, "client {}", drained.index);
            assert_eq!(drained.stats, later.stats, "client {}", drained.index);
        }
        assert_eq!(views_drained, views_later, "no view after the drain");
        let delivered = |report: &ExperimentReport| report.work.clients.delivered;
        assert_eq!(
            delivered(&drained),
            delivered(&later),
            "nothing reached a client"
        );
    }

    #[test]
    fn a_paper_run_drains_at_its_last_application_event() {
        let qos = QosSpec::new(ms(120), 0.9).unwrap();
        assert_drained(&ExperimentConfig::paper(qos, 2));
    }

    /// The seed-47 fault mix of `tests/fault_injection.rs`: a crash, a
    /// degradation and message drops on three of four replicas, with the
    /// retry armed at 300 ms.
    #[test]
    fn a_faulty_run_drains_at_its_last_application_event() {
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let mut config = quick_config(qos, 4, 20, 47);
        for (i, server) in config.servers.iter_mut().enumerate() {
            server.service = ServiceTimeModel::Deterministic(ms(20 + 20 * i as u64));
        }
        config.clients[0].think_time = ms(200);
        config.clients[0].retry_after = Some(ms(300));
        config.faults = aqua_faults::FaultPlan::new()
            .crash_recover(1, Instant::from_secs(2), Duration::from_secs(1))
            .degrade(2, Instant::from_secs(1), Duration::from_secs(4), 3.0)
            .drop_messages(3, Instant::from_secs(1), Duration::from_secs(5), 0.3);
        assert_drained(&config);
    }

    #[test]
    fn experiment_runs_to_completion() {
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let report = run_experiment(&quick_config(qos, 3, 10, 5));
        let client = report.client_under_test();
        assert_eq!(client.records.len(), 10);
        assert_eq!(client.failure_probability, 0.0);
        assert_eq!(client.strategy, "model-based");
        assert!(report.messages > 0);
    }

    #[test]
    fn reports_compute_redundancy_and_latency() {
        let qos = QosSpec::new(ms(200), 0.0).unwrap();
        let report = run_experiment(&quick_config(qos, 4, 10, 9));
        let client = report.client_under_test();
        // Cold start (4) then 2 each: mean in (2, 4].
        assert!(client.mean_redundancy() > 2.0);
        assert!(client.records[1..].iter().all(|r| r.redundancy == 2));
        let p50 = client.latency_quantile(0.5).unwrap();
        assert!(p50 >= ms(40) && p50 < ms(80), "p50 = {p50}");
        assert!(client.mean_latency().unwrap() >= ms(40));
    }

    #[test]
    fn different_strategies_are_wired_through() {
        let qos = QosSpec::new(ms(200), 0.5).unwrap();
        let mut config = quick_config(qos, 3, 5, 2);
        config.clients[0].strategy = StrategySpec::RoundRobin { k: 1 };
        let report = run_experiment(&config);
        assert_eq!(report.client_under_test().strategy, "round-robin");
        assert!(
            (report.client_under_test().mean_redundancy() - 1.0).abs() < 1e-9,
            "round-robin k=1 always selects one replica"
        );
    }

    #[test]
    fn deterministic_reports_per_seed() {
        let qos = QosSpec::new(ms(150), 0.9).unwrap();
        let a = run_experiment(&quick_config(qos, 3, 8, 77));
        let b = run_experiment(&quick_config(qos, 3, 8, 77));
        let ra: Vec<_> = a
            .client_under_test()
            .records
            .iter()
            .map(|r| (r.seq, r.timely, r.response_time))
            .collect();
        let rb: Vec<_> = b
            .client_under_test()
            .records
            .iter()
            .map(|r| (r.seq, r.timely, r.response_time))
            .collect();
        assert_eq!(ra, rb);
    }
}
