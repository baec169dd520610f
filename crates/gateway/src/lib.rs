//! # aqua-gateway — the AQuA gateway protocol handlers
//!
//! The middleware layer of the reproduction (§2, §5.4): client and server
//! gateways exchanging [`AquaMsg`]s through the group-communication
//! substrate.
//!
//! * [`ConcurrentHandler`] — the paper's timing fault handler as
//!   transport-agnostic state (selection, repository updates, `td`
//!   measurement, timing-failure detection), built for multi-threaded
//!   callers: lock-free snapshot planning plus sharded reply ingestion and
//!   pending-request tracking. The simulator and the socket runtime both
//!   drive it.
//! * [`Call`] — one request's lifecycle around the handler, sans I/O:
//!   the first attempt, the retry and give-up deadlines, what an attempt
//!   that reached nobody means, the redundancy count, and the view change
//!   that brings an orphaned request's retry forward. Both clients drive
//!   it.
//! * [`ClientGateway`] — a simulated client gateway node wrapping the
//!   handler plus the paper's closed-loop request generator.
//! * [`ServerGateway`] — a simulated replica host: FIFO queue, service-time
//!   model, load process, crash plan, performance publication.
//!
//! The crash-tolerance handlers of earlier AQuA work (§2) are
//! configurations of the one client: active replication is the
//! `AllReplicas` strategy, passive replication is `StaticK { k: 1 }` with
//! an armed retry, which [`Call::on_view`] fires once the primary is
//! evicted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod call;
mod client;
mod concurrent;
mod manager;
pub mod obs;
mod pending;
mod proto;
mod server;
mod supervisor;

pub use call::{Call, Step};
pub use client::{ArrivalModel, ClientConfig, ClientGateway, RequestRecord};
pub use concurrent::{ConcurrentHandler, HandlerStats, ReplyOutcome, RepositoryMut, RequestPlan};
pub use manager::{DependabilityManager, ManagerConfig, SupervisionConfig, DRAIN_WINDOW_BASE};
pub use obs::HandlerObserver;
// Re-exported so downstream crates can configure the QoS-calibration
// watchdog without depending on aqua-trace directly.
pub use aqua_trace::{CalibrationAlert, CalibrationConfig};
pub use proto::{AquaMsg, RequestId, Wire};
pub use server::{ServerConfig, ServerGateway};
pub use supervisor::{SupervisorAction, SupervisorConfig, SupervisorPolicy};

/// The handler's old name, kept for the benchmark's `paper_sim` probe
/// until it reaches the handler through a facade.
#[doc(hidden)]
pub type TimingFaultHandler = ConcurrentHandler;

#[cfg(test)]
mod sim_tests {
    //! End-to-end tests of the simulated stack: coordinator + servers +
    //! clients over a jittery LAN.

    use super::*;
    use aqua_core::qos::{QosSpec, ReplicaId};
    use aqua_core::time::{Duration, Instant};
    use aqua_group::{FailureDetectorConfig, GroupCoordinator};
    use aqua_replica::{CrashPlan, ServiceTimeModel};
    use aqua_strategies::ModelBased;
    use lan_sim::{NodeId, Simulation, UniformLan};

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    struct TestBed {
        sim: Simulation<Wire>,
        client: NodeId,
        servers: Vec<NodeId>,
    }

    /// Builds coordinator + `n` servers + one model-based client.
    fn build(
        n: usize,
        qos: QosSpec,
        requests: u64,
        seed: u64,
        crash: impl Fn(usize) -> CrashPlan,
        service: impl Fn(usize) -> ServiceTimeModel,
    ) -> TestBed {
        let mut sim = Simulation::with_network(seed, UniformLan::aqua_testbed());
        let coordinator = sim.add_node(GroupCoordinator::<AquaMsg>::new(
            FailureDetectorConfig::default(),
        ));
        let mut servers = Vec::new();
        for i in 0..n {
            let mut cfg = ServerConfig::paper(ReplicaId::new(i as u64), coordinator);
            cfg.crash = crash(i);
            cfg.service = service(i);
            servers.push(sim.add_node(ServerGateway::new(cfg)));
        }
        let mut ccfg = ClientConfig::paper(coordinator, qos);
        ccfg.num_requests = Some(requests);
        ccfg.think_time = ms(200); // shorter loop keeps tests fast
        let client = sim.add_node(ClientGateway::new(ccfg, Box::new(ModelBased::default())));
        TestBed {
            sim,
            client,
            servers,
        }
    }

    #[test]
    fn full_stack_services_all_requests() {
        let qos = QosSpec::new(ms(250), 0.9).unwrap();
        let mut bed = build(
            3,
            qos,
            20,
            42,
            |_| CrashPlan::Never,
            |_| ServiceTimeModel::Deterministic(ms(50)),
        );
        bed.sim.run_until(Instant::from_secs(60));
        let client = bed.sim.node::<ClientGateway>(bed.client).unwrap();
        assert!(client.is_finished(), "{client:?}");
        let records = client.records();
        assert_eq!(records.len(), 20);
        assert!(
            records.iter().all(|r| r.timely),
            "deterministic 50 ms service always beats a 250 ms deadline"
        );
        // First request is a cold-start full multicast; later ones are 2.
        assert_eq!(records[0].redundancy, 3);
        assert!(records[2..].iter().all(|r| r.redundancy == 2));
    }

    #[test]
    fn perf_updates_reach_non_requesting_clients() {
        let qos = QosSpec::new(ms(250), 0.0).unwrap();
        let mut bed = build(
            2,
            qos,
            5,
            7,
            |_| CrashPlan::Never,
            |_| ServiceTimeModel::Deterministic(ms(30)),
        );
        // Add a second, idle client that never sends requests but
        // subscribes to updates.
        let coordinator = NodeId::new(0);
        let mut idle_cfg = ClientConfig::paper(coordinator, qos);
        idle_cfg.num_requests = Some(0);
        let idle = bed.sim.add_node(ClientGateway::new(
            idle_cfg,
            Box::new(ModelBased::default()),
        ));
        bed.sim.run_until(Instant::from_secs(30));

        let idle_client = bed.sim.node::<ClientGateway>(idle).unwrap();
        let repo = idle_client.handler().unwrap().repository();
        assert_eq!(repo.len(), 2);
        for (_, stats) in repo.iter() {
            assert!(
                stats.histories().count() > 0,
                "pushed updates filled the idle client's repository"
            );
        }
    }

    #[test]
    fn crash_mid_run_is_masked_by_redundancy() {
        let qos = QosSpec::new(ms(300), 0.9).unwrap();
        // r0 is the fastest replica and crashes after 5 services.
        let mut bed = build(
            4,
            qos,
            25,
            11,
            |i| {
                if i == 0 {
                    CrashPlan::AfterRequests(5)
                } else {
                    CrashPlan::Never
                }
            },
            |i| {
                if i == 0 {
                    ServiceTimeModel::Deterministic(ms(20))
                } else {
                    ServiceTimeModel::Deterministic(ms(80))
                }
            },
        );
        bed.sim.run_until(Instant::from_secs(120));
        let r0 = bed.sim.node::<ServerGateway>(bed.servers[0]).unwrap();
        assert!(r0.is_crashed(), "r0 crashed");
        let client = bed.sim.node::<ClientGateway>(bed.client).unwrap();
        assert!(client.is_finished(), "{client:?}");
        let records = client.records();
        assert_eq!(records.len(), 25);
        let failures = records.iter().filter(|r| !r.timely).count();
        // The selected set tolerates a single crash (Eq. 3): even the
        // requests in flight during the crash get served by the backup.
        assert!(
            failures == 0,
            "single crash must be masked, got {failures} failures"
        );
        // After the view change, r0 is gone from the repository.
        let repo = client.handler().unwrap().repository();
        assert!(!repo.contains(ReplicaId::new(0)));
    }

    #[test]
    fn all_replicas_crashing_triggers_give_up() {
        let qos = QosSpec::new(ms(300), 0.0).unwrap();
        let mut bed = build(
            2,
            qos,
            10,
            13,
            |_| CrashPlan::AtTime(Instant::from_millis(1_200)),
            |_| ServiceTimeModel::Deterministic(ms(50)),
        );
        bed.sim.run_until(Instant::from_secs(120));
        let client = bed.sim.node::<ClientGateway>(bed.client).unwrap();
        let stats = client.handler().unwrap().stats();
        assert!(
            stats.gave_up > 0 || client.records().iter().any(|r| !r.timely),
            "with every replica dead, requests must fail: {stats:?}"
        );
    }

    /// `mux::tests::a_retry_due_at_the_give_up_is_never_sent` on the
    /// simulator: both replicas pause from 2 s to 10 s, past the 5 s
    /// give-up, and the retry deadline is the give-up, so a stalled request
    /// gives up without multicasting a retry it would give up in the same
    /// instant.
    #[test]
    fn a_retry_due_at_the_give_up_is_never_sent() {
        let qos = QosSpec::new(ms(50), 0.9).unwrap();
        let mut sim = Simulation::with_network(5, UniformLan::aqua_testbed());
        let coordinator = sim.add_node(GroupCoordinator::<AquaMsg>::new(
            FailureDetectorConfig::default(),
        ));
        let pause = aqua_faults::FaultPlan::new()
            .pause(0, Instant::from_secs(2), ms(8_000))
            .pause(1, Instant::from_secs(2), ms(8_000));
        for i in 0..2u64 {
            sim.add_node(ServerGateway::new(ServerConfig {
                service: ServiceTimeModel::Deterministic(ms(5 + 15 * i)),
                faults: Some(pause.instantiate(7)),
                ..ServerConfig::paper(ReplicaId::new(i), coordinator)
            }));
        }
        let mut ccfg = ClientConfig::paper(coordinator, qos);
        ccfg.num_requests = Some(10);
        ccfg.think_time = ms(200);
        ccfg.retry_after = Some(crate::client::GIVE_UP_AFTER);
        // FastestMean k=1 asks one replica once warm, leaving one to retry.
        let strategy = Box::new(aqua_strategies::FastestMean { k: 1 });
        let client = sim.add_node(ClientGateway::new(ccfg, strategy));
        sim.run_until(Instant::from_secs(30));

        let gw = sim.node::<ClientGateway>(client).unwrap();
        assert!(gw.is_finished(), "{gw:?}");
        let stats = gw.handler().unwrap().stats();
        assert!(stats.gave_up >= 1, "the pause stalled a request: {stats:?}");
        assert_eq!(stats.retries, 0, "no retry went out");
        assert_eq!(stats.abandoned, 0);
        assert_eq!(gw.handler().unwrap().pending_count(), 0);
        let stalled: Vec<&RequestRecord> = gw
            .records()
            .iter()
            .filter(|r| r.response_time.is_none())
            .collect();
        assert_eq!(stalled.len() as u64, stats.gave_up);
        assert!(
            stalled.iter().all(|r| r.redundancy == 1),
            "one replica asked, none retried: {stalled:?}"
        );
    }

    /// An answered call cancels its deadline timer: once the last reply
    /// is in, the client waits on no call and none of its timers fires
    /// again. Each request costs the client one timer, the one that
    /// issues it, although a retry and a give-up were armed for each.
    #[test]
    fn an_answered_call_leaves_no_timer_behind() {
        let qos = QosSpec::new(ms(250), 0.9).unwrap();
        let mut sim = Simulation::with_network(3, UniformLan::aqua_testbed());
        let coordinator = sim.add_node(GroupCoordinator::<AquaMsg>::new(
            FailureDetectorConfig::default(),
        ));
        for i in 0..3u64 {
            sim.add_node(ServerGateway::new(ServerConfig {
                service: ServiceTimeModel::Deterministic(ms(20)),
                ..ServerConfig::paper(ReplicaId::new(i), coordinator)
            }));
        }
        let mut ccfg = ClientConfig::paper(coordinator, qos);
        ccfg.num_requests = Some(10);
        ccfg.think_time = ms(200);
        ccfg.retry_after = Some(ms(150));
        let strategy = Box::new(ModelBased::default());
        let client = sim.add_node(ClientGateway::new(ccfg, strategy));
        sim.run_until(Instant::from_secs(5));

        let gw = sim.node::<ClientGateway>(client).unwrap();
        assert!(gw.is_finished(), "{gw:?}");
        assert!(gw.records().iter().all(|r| r.timely));
        assert!(!gw.has_pending_call());
        let fired = sim.node_counters(client).timers_fired;
        assert_eq!(fired, 10, "one issue timer per request");
        // Past every give-up the answered calls armed.
        sim.run_until(Instant::from_secs(15));
        assert_eq!(sim.node_counters(client).timers_fired, fired);
    }

    /// The passive handler of earlier AQuA work (§2) on the one client:
    /// `StaticK { k: 1 }` asks the first replica by id, the primary, and a
    /// retry armed far past any live reply resends a request only when the
    /// view change evicts the primary.
    fn passive(coordinator: NodeId, qos: QosSpec, requests: u64, think: Duration) -> ClientGateway {
        let mut ccfg = ClientConfig::paper(coordinator, qos);
        ccfg.num_requests = Some(requests);
        ccfg.think_time = think;
        ccfg.retry_after = Some(Duration::from_secs(1));
        ClientGateway::new(ccfg, Box::new(aqua_strategies::StaticK { k: 1 }))
    }

    #[test]
    fn passive_client_serves_through_the_primary() {
        let mut sim = Simulation::new(71);
        let coordinator = sim.add_node(GroupCoordinator::<AquaMsg>::new(
            FailureDetectorConfig::default(),
        ));
        let servers: Vec<NodeId> = (0..3u64)
            .map(|i| {
                let mut cfg = ServerConfig::paper(ReplicaId::new(i), coordinator);
                cfg.service = ServiceTimeModel::Deterministic(ms(30));
                sim.add_node(ServerGateway::new(cfg))
            })
            .collect();
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let client = sim.add_node(passive(coordinator, qos, 10, ms(150)));
        sim.run_until(Instant::from_secs(30));

        let gw = sim.node::<ClientGateway>(client).unwrap();
        assert!(gw.is_finished(), "{gw:?}");
        assert_eq!(gw.records().len(), 10);
        assert!(gw.records().iter().all(|r| r.timely && r.redundancy == 1));
        assert_eq!(gw.handler().unwrap().stats().retries, 0);
        let serviced: Vec<u64> = servers
            .iter()
            .map(|&n| sim.node::<ServerGateway>(n).unwrap().serviced)
            .collect();
        assert_eq!(serviced, [10, 0, 0], "primary-only traffic");
    }

    #[test]
    fn primary_crash_resends_to_the_senior_backup() {
        let mut sim = Simulation::new(72);
        let coordinator = sim.add_node(GroupCoordinator::<AquaMsg>::new(
            FailureDetectorConfig::default(),
        ));
        for i in 0..3u64 {
            let mut cfg = ServerConfig::paper(ReplicaId::new(i), coordinator);
            // Slow service so the crash catches a request in flight.
            cfg.service = ServiceTimeModel::Deterministic(ms(400));
            if i == 0 {
                cfg.crash = CrashPlan::AtTime(Instant::from_secs(3));
            }
            sim.add_node(ServerGateway::new(cfg));
        }
        let qos = QosSpec::new(ms(2_000), 0.9).unwrap();
        let client = sim.add_node(passive(coordinator, qos, 15, ms(100)));
        sim.run_until(Instant::from_secs(60));

        let gw = sim.node::<ClientGateway>(client).unwrap();
        assert!(gw.is_finished(), "{gw:?}");
        let stats = gw.handler().unwrap().stats();
        assert_eq!((stats.retries, stats.gave_up), (1, 0), "{stats:?}");
        // The request in flight went to the backup after the failover…
        let resent: Vec<&RequestRecord> =
            gw.records().iter().filter(|r| r.redundancy > 1).collect();
        assert_eq!(resent.len(), 1, "{resent:?}");
        // …and its latency includes the detection and failover gap, far
        // above the nominal 400 ms service, but not the 1 s retry timer.
        let latency = resent[0].response_time.expect("the backup answered");
        assert!(
            latency > ms(500) && latency < ms(1_400),
            "failover costs detection latency: {latency}"
        );
        assert!(gw.records().iter().all(|r| r.first_reply_at.is_some()));
    }

    #[test]
    fn active_probes_keep_unselected_replicas_fresh() {
        let qos = QosSpec::new(ms(300), 0.0).unwrap();
        let mut sim = Simulation::with_network(41, UniformLan::aqua_testbed());
        let coordinator = sim.add_node(GroupCoordinator::<AquaMsg>::new(
            FailureDetectorConfig::default(),
        ));
        // Two fast replicas plus one slow one the selection never picks.
        for i in 0..2u64 {
            sim.add_node(ServerGateway::new(ServerConfig {
                service: ServiceTimeModel::Deterministic(ms(20)),
                ..ServerConfig::paper(ReplicaId::new(i), coordinator)
            }));
        }
        let slow = sim.add_node(ServerGateway::new(ServerConfig {
            service: ServiceTimeModel::Deterministic(ms(200)),
            ..ServerConfig::paper(ReplicaId::new(2), coordinator)
        }));
        let mut ccfg = ClientConfig::paper(coordinator, qos);
        ccfg.num_requests = Some(20);
        ccfg.think_time = ms(400);
        ccfg.probe_stale_after = Some(Duration::from_secs(1));
        let client = sim.add_node(ClientGateway::new(ccfg, Box::new(ModelBased::default())));
        sim.run_until(Instant::from_secs(30));

        let gw = sim.node::<ClientGateway>(client).unwrap();
        assert!(gw.is_finished(), "{gw:?}");
        let handler = gw.handler().unwrap();
        assert!(
            handler.stats().probes > 3,
            "the slow replica went stale repeatedly: {:?}",
            handler.stats()
        );
        // The probes serviced real requests at the slow replica…
        let slow_node = sim.node::<ServerGateway>(slow).unwrap();
        assert!(slow_node.serviced > 3, "{slow_node:?}");
        // …and kept its entry fresh for the whole workload: without
        // probes the only update would be the cold-start multicast at
        // ~0.5 s (probing stops once the client finishes, around 8.5 s).
        let repository = handler.repository();
        let stats = repository.stats(ReplicaId::new(2)).unwrap();
        let last = stats.last_update().unwrap();
        assert!(
            last > Instant::from_secs(5),
            "entry refreshed late in the run, last update {last}"
        );
        // Probes never polluted the client-visible statistics.
        assert_eq!(handler.stats().delivered, 20);
        assert_eq!(handler.detector().total() as usize, 20);
    }

    #[test]
    fn crashed_replica_recovers_and_rejoins() {
        let qos = QosSpec::new(ms(300), 0.0).unwrap();
        let mut sim = Simulation::with_network(31, UniformLan::aqua_testbed());
        let coordinator = sim.add_node(GroupCoordinator::<AquaMsg>::new(
            FailureDetectorConfig::default(),
        ));
        // The only fast replica crashes at 2 s and restarts 3 s later.
        let fast = sim.add_node(ServerGateway::new(ServerConfig {
            service: ServiceTimeModel::Deterministic(ms(10)),
            crash: CrashPlan::AtTime(Instant::from_secs(2)),
            recover_after: Some(Duration::from_secs(3)),
            ..ServerConfig::paper(ReplicaId::new(0), coordinator)
        }));
        let _slow = sim.add_node(ServerGateway::new(ServerConfig {
            service: ServiceTimeModel::Deterministic(ms(150)),
            ..ServerConfig::paper(ReplicaId::new(1), coordinator)
        }));
        let mut ccfg = ClientConfig::paper(coordinator, qos);
        ccfg.num_requests = Some(40);
        ccfg.think_time = ms(300);
        let client = sim.add_node(ClientGateway::new(ccfg, Box::new(ModelBased::default())));

        // While the fast replica is down, it must be out of the view…
        sim.run_until(Instant::from_millis(3_500));
        {
            let coord = sim.node::<GroupCoordinator<AquaMsg>>(coordinator).unwrap();
            assert_eq!(coord.view().servers().count(), 1, "fast replica evicted");
            let server = sim.node::<ServerGateway>(fast).unwrap();
            assert!(server.is_crashed());
        }

        // …and after recovery it rejoins and serves again.
        sim.run_until(Instant::from_secs(30));
        let coord = sim.node::<GroupCoordinator<AquaMsg>>(coordinator).unwrap();
        assert_eq!(coord.view().servers().count(), 2, "fast replica rejoined");
        let server = sim.node::<ServerGateway>(fast).unwrap();
        assert_eq!(server.restarts, 1);
        assert!(!server.is_crashed());
        let before_recovery = server.serviced;
        assert!(before_recovery > 0, "served again after restart");

        let gw = sim.node::<ClientGateway>(client).unwrap();
        let repo = gw.handler().unwrap().repository();
        assert!(
            repo.contains(ReplicaId::new(0)),
            "the client re-learned about the recovered replica"
        );
        // Late requests go to the fast replica again (10 ms vs 150 ms).
        let late_latency = gw
            .records()
            .last()
            .and_then(|r| r.response_time)
            .expect("answered");
        assert!(
            late_latency < ms(100),
            "fast replica is being used again: {late_latency}"
        );
    }

    #[test]
    fn open_loop_overlaps_requests_and_builds_queues() {
        let qos = QosSpec::new(ms(400), 0.0).unwrap();
        let mut sim = Simulation::with_network(21, UniformLan::aqua_testbed());
        let coordinator = sim.add_node(GroupCoordinator::<AquaMsg>::new(
            FailureDetectorConfig::default(),
        ));
        // One slow replica: 100 ms service, arrivals every ~40 ms → the
        // FIFO queue must build and queuing delays must be observed.
        let server = sim.add_node(ServerGateway::new(ServerConfig {
            service: ServiceTimeModel::Deterministic(ms(100)),
            ..ServerConfig::paper(ReplicaId::new(0), coordinator)
        }));
        let mut ccfg = ClientConfig::paper(coordinator, qos);
        ccfg.num_requests = Some(30);
        ccfg.arrivals = crate::ArrivalModel::OpenLoopPoisson {
            mean_interarrival: ms(40),
        };
        let client = sim.add_node(ClientGateway::new(ccfg, Box::new(ModelBased::default())));
        sim.run_until(Instant::from_secs(60));

        let gw = sim.node::<ClientGateway>(client).unwrap();
        assert!(gw.is_finished(), "{gw:?}");
        assert_eq!(gw.records().len(), 30);
        let server_node = sim.node::<ServerGateway>(server).unwrap();
        assert_eq!(server_node.serviced, 30);
        // Queuing delays were measured and are substantial.
        let repo = gw.handler().unwrap().repository();
        let stats = repo.stats(ReplicaId::new(0)).unwrap();
        let max_queue_delay = stats
            .history(aqua_core::repository::MethodId::DEFAULT)
            .unwrap()
            .queuing_delays()
            .iter()
            .copied()
            .fold(Duration::ZERO, Duration::max);
        assert!(
            max_queue_delay >= ms(100),
            "arrivals at 2.5x the service rate must queue: {max_queue_delay}"
        );
        // And some requests genuinely overlapped.
        let overlapping = gw
            .records()
            .windows(2)
            .filter(|w| match w[0].first_reply_at {
                Some(reply) => w[1].sent_at < reply,
                None => true,
            })
            .count();
        assert!(
            overlapping > 5,
            "open loop overlaps requests: {overlapping}"
        );
    }

    #[test]
    fn deterministic_replay_under_fixed_seed() {
        fn run(seed: u64) -> Vec<(u64, bool, usize)> {
            let qos = QosSpec::new(ms(200), 0.5).unwrap();
            let mut bed = build(
                3,
                qos,
                10,
                seed,
                |_| CrashPlan::Never,
                |_| ServiceTimeModel::paper_load(),
            );
            bed.sim.run_until(Instant::from_secs(60));
            bed.sim
                .node::<ClientGateway>(bed.client)
                .unwrap()
                .records()
                .iter()
                .map(|r| (r.seq, r.timely, r.redundancy))
                .collect()
        }
        assert_eq!(run(99), run(99));
    }
}
