//! Declarative experiment configurations.

use aqua_core::model::ModelConfig;
use aqua_core::qos::QosSpec;
use aqua_core::time::Duration;
use aqua_faults::FaultPlan;
use aqua_replica::{CrashPlan, LoadModel, ServiceTimeModel};
use lan_sim::{CongestedLan, NetworkModel, UniformLan};

/// Which network model an experiment runs over.
#[derive(Debug, Clone)]
pub enum NetworkSpec {
    /// A calm switched LAN (the paper's testbed).
    Uniform(UniformLan),
    /// A LAN with occasional congestion spikes (§3's "occasional periods
    /// of high traffic").
    Congested {
        /// Calm behaviour.
        lan: UniformLan,
        /// Per-message probability of entering a congestion epoch.
        spike_prob: f64,
        /// Delay multiplier during congestion.
        spike_scale: f64,
        /// Epoch length.
        spike_duration: Duration,
    },
}

impl NetworkSpec {
    /// The paper-calibrated calm LAN.
    pub fn paper() -> Self {
        NetworkSpec::Uniform(UniformLan::aqua_testbed())
    }

    pub(crate) fn build(&self) -> Box<dyn NetworkModel> {
        match self {
            NetworkSpec::Uniform(lan) => Box::new(lan.clone()),
            NetworkSpec::Congested {
                lan,
                spike_prob,
                spike_scale,
                spike_duration,
            } => Box::new(CongestedLan::new(
                lan.clone(),
                *spike_prob,
                *spike_scale,
                *spike_duration,
            )),
        }
    }
}

/// Which selection strategy a client runs (buildable per client, since
/// strategies are stateful).
#[derive(Debug, Clone, PartialEq)]
pub enum StrategySpec {
    /// The paper's model-based algorithm with the given model config.
    ModelBased(ModelConfig),
    /// The multi-crash generalization (§5.3.2): tolerate `crashes`
    /// simultaneous failures.
    ModelBasedTolerating {
        /// Model configuration.
        model: ModelConfig,
        /// Simultaneous crashes to tolerate.
        crashes: usize,
    },
    /// Uniform random choice of `k`.
    Random {
        /// Redundancy level.
        k: usize,
    },
    /// Best historical mean response time, `k` replicas.
    FastestMean {
        /// Redundancy level.
        k: usize,
    },
    /// Shortest queue, `k` replicas.
    LeastLoaded {
        /// Redundancy level.
        k: usize,
    },
    /// Smallest last gateway delay, `k` replicas.
    Nearest {
        /// Redundancy level.
        k: usize,
    },
    /// Rotate through the pool, `k` at a time.
    RoundRobin {
        /// Redundancy level.
        k: usize,
    },
    /// Fixed first-`k` set.
    StaticK {
        /// Redundancy level.
        k: usize,
    },
    /// Send to everyone (active replication).
    AllReplicas,
}

impl StrategySpec {
    /// The paper's strategy with default model parameters.
    pub fn paper() -> Self {
        StrategySpec::ModelBased(ModelConfig::default())
    }

    /// Human-readable name matching the strategy's `name()`.
    pub fn name(&self) -> &'static str {
        match self {
            StrategySpec::ModelBased(_) | StrategySpec::ModelBasedTolerating { .. } => {
                "model-based"
            }
            StrategySpec::Random { .. } => "random-k",
            StrategySpec::FastestMean { .. } => "fastest-mean",
            StrategySpec::LeastLoaded { .. } => "least-loaded",
            StrategySpec::Nearest { .. } => "nearest",
            StrategySpec::RoundRobin { .. } => "round-robin",
            StrategySpec::StaticK { .. } => "static-k",
            StrategySpec::AllReplicas => "all-replicas",
        }
    }

    pub(crate) fn build(&self, seed: u64) -> Box<dyn aqua_strategies::SelectionStrategy> {
        use aqua_strategies as s;
        match self {
            StrategySpec::ModelBased(cfg) => Box::new(s::ModelBased::new(*cfg)),
            StrategySpec::ModelBasedTolerating { model, crashes } => {
                Box::new(s::ModelBased::new(*model).with_crash_tolerance(*crashes))
            }
            StrategySpec::Random { k } => Box::new(s::Random::new(*k, seed)),
            StrategySpec::FastestMean { k } => Box::new(s::FastestMean { k: *k }),
            StrategySpec::LeastLoaded { k } => Box::new(s::LeastLoaded { k: *k }),
            StrategySpec::Nearest { k } => Box::new(s::Nearest { k: *k }),
            StrategySpec::RoundRobin { k } => Box::new(s::RoundRobin::new(*k)),
            StrategySpec::StaticK { k } => Box::new(s::StaticK { k: *k }),
            StrategySpec::AllReplicas => Box::new(s::AllReplicas),
        }
    }
}

/// One server replica host.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// Per-request service-time distribution.
    pub service: ServiceTimeModel,
    /// Method-specific service-time overrides (multi-interface extension).
    pub method_services: Vec<(aqua_core::repository::MethodId, ServiceTimeModel)>,
    /// Host load fluctuation.
    pub load: LoadModel,
    /// Crash injection.
    pub crash: CrashPlan,
    /// Restart this long after a crash (`None` = permanent crash).
    pub recover_after: Option<Duration>,
}

impl ServerSpec {
    /// The paper's synthetic server: Normal(100 ms, σ50 ms), steady, no
    /// crash.
    pub fn paper() -> Self {
        ServerSpec {
            service: ServiceTimeModel::paper_load(),
            method_services: Vec::new(),
            load: LoadModel::nominal(),
            crash: CrashPlan::Never,
            recover_after: None,
        }
    }
}

/// One client.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// The client's QoS requirement.
    pub qos: QosSpec,
    /// Selection strategy.
    pub strategy: StrategySpec,
    /// Request pacing (closed loop with think time, or open-loop Poisson).
    pub arrivals: aqua_gateway::ArrivalModel,
    /// Think time between response and next request (closed loop).
    pub think_time: Duration,
    /// Requests to issue.
    pub num_requests: u64,
    /// Sliding-window size `l`.
    pub window: usize,
    /// Renegotiate to this spec when the QoS callback fires.
    pub renegotiate_to: Option<QosSpec>,
    /// Method ids cycled across requests (multi-interface extension).
    pub methods: Vec<aqua_core::repository::MethodId>,
    /// Probe replicas whose performance data is older than this (§8 ext. 3).
    pub probe_stale_after: Option<Duration>,
    /// Re-run selection over the remaining replicas when no reply has
    /// arrived after this long (`None` = wait for the give-up timeout, the
    /// paper's behaviour).
    pub retry_after: Option<Duration>,
    /// QoS-calibration watchdog override (supervisor scenarios enable
    /// `replica_alerts` so the manager sees per-replica drift). Only
    /// meaningful on observed runs.
    pub calibration: Option<aqua_gateway::CalibrationConfig>,
}

impl ClientSpec {
    /// The paper's client loop: think 1 s, 50 requests, window 5.
    pub fn paper(qos: QosSpec) -> Self {
        ClientSpec {
            qos,
            strategy: StrategySpec::paper(),
            arrivals: aqua_gateway::ArrivalModel::ClosedLoop,
            think_time: Duration::from_secs(1),
            num_requests: 50,
            window: 5,
            renegotiate_to: None,
            methods: vec![aqua_core::repository::MethodId::DEFAULT],
            probe_stale_after: None,
            retry_after: None,
            calibration: None,
        }
    }
}

/// Proteus-style dependability management (§2): keep `target_replication`
/// replicas alive by activating standbys — and, with `supervision` set,
/// run the elastic supervisor (load-adaptive target, rolling restarts,
/// correlated-failure escalation) on top.
#[derive(Debug, Clone, Copy)]
pub struct ManagerSpec {
    /// Desired number of live server replicas (the initial effective
    /// target under supervision).
    pub target_replication: usize,
    /// Elastic supervision tunables; `None` keeps the fixed target.
    pub supervision: Option<aqua_gateway::SupervisionConfig>,
}

/// A complete experiment: topology, workload, and run length.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// RNG seed (one seed = one fully reproducible history).
    pub seed: u64,
    /// Network model.
    pub network: NetworkSpec,
    /// Server replicas, one host each.
    pub servers: Vec<ServerSpec>,
    /// Standby replicas (dormant until the manager activates them).
    pub standby_servers: Vec<ServerSpec>,
    /// Dependability manager, if replication should be managed.
    pub manager: Option<ManagerSpec>,
    /// Clients, one host each.
    pub clients: Vec<ClientSpec>,
    /// Fault plan injected over the run (crashes, pauses, degradation,
    /// network trouble); instantiated with [`ExperimentConfig::seed`].
    pub faults: FaultPlan,
    /// Virtual-time budget: the cap on a run. A run that drains first
    /// stops at its last application event (see
    /// [`crate::ExperimentReport::ended_at`]).
    pub max_virtual_time: Duration,
}

impl ExperimentConfig {
    /// The paper's §6 setup: seven replicas with Normal(100 ms, σ50 ms)
    /// synthetic load, client 1 fixed at (200 ms, Pc ≥ 0), client 2 under
    /// test with `second_client`.
    pub fn paper(second_client: QosSpec, seed: u64) -> Self {
        let background =
            QosSpec::new(Duration::from_millis(200), 0.0).expect("valid constant spec");
        ExperimentConfig {
            seed,
            network: NetworkSpec::paper(),
            servers: (0..7).map(|_| ServerSpec::paper()).collect(),
            standby_servers: Vec::new(),
            manager: None,
            clients: vec![
                ClientSpec::paper(background),
                ClientSpec::paper(second_client),
            ],
            faults: FaultPlan::new(),
            max_virtual_time: Duration::from_secs(300),
        }
    }
}
