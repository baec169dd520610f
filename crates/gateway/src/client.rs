//! The simulated client gateway: the timing fault handler wired to the
//! group, plus the paper's closed-loop client workload.
//!
//! The paper's experiment clients "independently issued requests to the
//! same service with a one second delay between receiving a response and
//! issuing the next request" (§6). [`ClientGateway`] reproduces that loop:
//! join the group, subscribe to performance updates, issue a request,
//! deliver the earliest reply, think, repeat — recording one
//! [`RequestRecord`] per request for the harness.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::MethodId;
use aqua_core::time::{Duration, Instant};
use aqua_group::{FailureDetectorConfig, GroupMsg, Member, MembershipAgent};
use aqua_strategies::SelectionStrategy;
use lan_sim::{Context, Event, Node, NodeId, TimerToken};

use crate::call::{Call, Step};
use crate::concurrent::{ConcurrentHandler, ReplyOutcome, RequestPlan};
use crate::proto::{AquaMsg, RequestId, Wire};

/// The δ (§5.3.3) every simulated plan assumes: 1.5 µs, inside the
/// 0.7–2.6 µs that `fig3_overhead` measures for the handler's plan steps.
/// A constant keeps the host's clock out of a seeded run.
const MODELLED_OVERHEAD: Duration = Duration::from_nanos(1_500);

/// How a client paces its requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// One request outstanding at a time; the next is issued `think_time`
    /// after the previous response (the paper's §6 clients).
    ClosedLoop,
    /// Poisson arrivals with the given mean inter-arrival time; requests
    /// are issued regardless of outstanding ones, so they can overlap and
    /// genuinely queue at the replicas.
    OpenLoopPoisson {
        /// Mean inter-arrival time (1/λ).
        mean_interarrival: Duration,
    },
    /// On/off bursts: every `interval`, issue `size` requests
    /// back-to-back. Produces the sudden queue build-ups that distinguish
    /// leading (queue-length) from lagging (delay-history) load signals.
    Bursts {
        /// Requests per burst.
        size: u32,
        /// Time between burst starts.
        interval: Duration,
    },
}

/// Static configuration of one client gateway.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The group coordinator node.
    pub coordinator: NodeId,
    /// Group cadence parameters.
    pub group: FailureDetectorConfig,
    /// The client's QoS specification.
    pub qos: QosSpec,
    /// Sliding-window size `l` for the information repository.
    pub window: usize,
    /// Request pacing discipline.
    pub arrivals: ArrivalModel,
    /// Delay between receiving a response and the next request (paper: 1 s;
    /// used by [`ArrivalModel::ClosedLoop`]).
    pub think_time: Duration,
    /// Stop after this many requests (paper: 50 per run); `None` = endless.
    pub num_requests: Option<u64>,
    /// Delay before the first request (lets the group form).
    pub start_after: Duration,
    /// Request payload size in bytes.
    pub request_size: u32,
    /// Give up on a request this long after sending it (handles the case
    /// where every selected replica crashed before replying).
    pub give_up_after: Duration,
    /// Method ids cycled across requests (multi-interface extension; a
    /// single-entry vector reproduces the paper's single-method service).
    pub methods: Vec<MethodId>,
    /// If set, actively probe replicas whose performance data is older
    /// than this (§8, extension 3), checking at the same interval.
    pub probe_stale_after: Option<Duration>,
    /// If set, renegotiate to this spec when the QoS callback fires (§4).
    pub renegotiate_to: Option<QosSpec>,
    /// If set, a request still unanswered this long after being issued
    /// multicasts a sibling attempt over the replicas not yet asked (see
    /// [`Call`]); armed only when shorter than `give_up_after`. A view
    /// that evicts every replica the request asked brings it forward.
    pub retry_after: Option<Duration>,
    /// The dependability manager's node, when an elastic supervisor runs:
    /// the client forwards its watchdog's calibration alerts there and
    /// honors the fleet-level [`AquaMsg::Directive`]s it sends back
    /// (renegotiate `Pc`, shed load). Requires
    /// [`ClientGateway::with_obs`] — alerts come from the watchdog.
    pub manager: Option<NodeId>,
    /// Watchdog tunables override; supervisor deployments enable
    /// `replica_alerts` here so the manager sees per-replica drift. The
    /// default watchdog config applies when `None`.
    pub calibration: Option<aqua_trace::CalibrationConfig>,
}

impl ClientConfig {
    /// The paper's client loop: think 1 s, 50 requests, minimal payload.
    pub fn paper(coordinator: NodeId, qos: QosSpec) -> Self {
        ClientConfig {
            coordinator,
            group: FailureDetectorConfig::default(),
            qos,
            window: 5,
            arrivals: ArrivalModel::ClosedLoop,
            think_time: Duration::from_secs(1),
            num_requests: Some(50),
            start_after: Duration::from_millis(500),
            request_size: 16,
            give_up_after: Duration::from_secs(5),
            methods: vec![MethodId::DEFAULT],
            probe_stale_after: None,
            renegotiate_to: None,
            retry_after: None,
            manager: None,
            calibration: None,
        }
    }
}

/// Outcome of one request, as observed by the client gateway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Client-local sequence number.
    pub seq: u64,
    /// When the request was intercepted/sent (`t0` = `t1`).
    pub sent_at: Instant,
    /// How many replicas its attempts reached (the redundancy level).
    pub redundancy: usize,
    /// When the first reply arrived (`t4`), if any.
    pub first_reply_at: Option<Instant>,
    /// End-to-end response time `tr`, if a reply arrived.
    pub response_time: Option<Duration>,
    /// Whether the deadline was met (`false` for give-ups).
    pub timely: bool,
    /// Whether the QoS-violation callback fired on this request.
    pub callback: bool,
}

/// Outcome of trying to issue a single request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueResult {
    /// Request multicast; its deadline timer is armed.
    Issued,
    /// No servers in the view (or a view-change race emptied the targets).
    NoServers,
    /// The configured request budget is exhausted.
    Finished,
}

#[derive(Debug)]
enum TimerKind {
    /// Fire the next request (start or think-time expiry).
    IssueRequest,
    /// Check for stale replica entries and probe them (§8 ext. 3).
    ProbeCheck,
    /// The next deadline of a request or a probe in flight.
    Deadline(Call),
}

/// One buffered calibration alert: `(replica scope, method, observed,
/// promised)`, the fields an [`AquaMsg::AlertReport`] carries.
type BufferedAlert = (Option<u64>, u32, f64, f64);

/// The simulated client gateway node. See the module docs.
pub struct ClientGateway {
    config: ClientConfig,
    handler: Option<ConcurrentHandler>,
    strategy: Option<Box<dyn SelectionStrategy>>,
    agent: Option<MembershipAgent>,
    timers: HashMap<TimerToken, TimerKind>,
    records: Vec<RequestRecord>,
    issued: u64,
    subscribed: Vec<NodeId>,
    finished: bool,
    obs: Option<(aqua_obs::Obs, u64)>,
    /// The run's fault timeline, installed on the handler's observer at
    /// start so emitted spans carry stable fault-window ids.
    fault_windows: Vec<aqua_faults::FaultWindow>,
    /// Calibration alerts the watchdog hook buffered during the current
    /// event, drained into [`AquaMsg::AlertReport`]s afterwards (hooks
    /// run inside handler calls and cannot send messages themselves).
    alert_buffer: Option<Arc<Mutex<Vec<BufferedAlert>>>>,
    /// Issue no new requests before this instant (escalation directive).
    shed_until: Option<Instant>,
    /// Arrivals suppressed by load shedding so far.
    shed_requests: u64,
}

impl std::fmt::Debug for ClientGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientGateway")
            .field("issued", &self.issued)
            .field("records", &self.records.len())
            .field("finished", &self.finished)
            .finish()
    }
}

impl ClientGateway {
    /// Creates a client gateway with the given selection strategy.
    pub fn new(config: ClientConfig, strategy: Box<dyn SelectionStrategy>) -> Self {
        ClientGateway {
            config,
            handler: None,
            strategy: Some(strategy),
            agent: None,
            timers: HashMap::new(),
            records: Vec::new(),
            issued: 0,
            subscribed: Vec::new(),
            finished: false,
            obs: None,
            fault_windows: Vec::new(),
            alert_buffer: None,
            shed_until: None,
            shed_requests: 0,
        }
    }

    /// Enables observability: the handler will record metrics into `obs`
    /// labelled with `client`, and journal one span per request.
    #[must_use]
    pub fn with_obs(mut self, obs: &aqua_obs::Obs, client: u64) -> Self {
        self.obs = Some((obs.clone(), client));
        self
    }

    /// Installs the run's fault timeline: every journalled span is tagged
    /// with the stable ids of the fault windows that overlapped it, giving
    /// the forensics analyzer exact fault joins. No-op without
    /// [`ClientGateway::with_obs`].
    #[must_use]
    pub fn with_fault_windows(mut self, windows: Vec<aqua_faults::FaultWindow>) -> Self {
        self.fault_windows = windows;
        self
    }

    /// Emits the handler's remaining journal spans and flushes the sink.
    /// Call once at the end of a run; no-op without
    /// [`ClientGateway::with_obs`].
    pub fn finish_observability(&mut self) {
        if let Some(handler) = self.handler.as_ref() {
            handler.flush_observability();
        }
    }

    /// The per-request records collected so far (in issue order).
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// The handler, once the node has started.
    pub fn handler(&self) -> Option<&ConcurrentHandler> {
        self.handler.as_ref()
    }

    /// Whether the configured number of requests has completed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Arrivals suppressed by an escalation's load-shed directive.
    pub fn shed_requests(&self) -> u64 {
        self.shed_requests
    }

    fn live(&self) -> &ConcurrentHandler {
        self.handler.as_ref().expect("started")
    }

    fn schedule(&mut self, ctx: &mut Context<'_, Wire>, after: Duration, kind: TimerKind) {
        let token = ctx.set_timer(after);
        self.timers.insert(token, kind);
    }

    fn subscribe_to_new_servers(&mut self, ctx: &mut Context<'_, Wire>) {
        let Some(agent) = self.agent.as_ref() else {
            return;
        };
        let me = ctx.self_id();
        let new_servers: Vec<NodeId> = agent
            .view()
            .servers()
            .map(|m| m.node)
            .filter(|n| !self.subscribed.contains(n))
            .collect();
        if !new_servers.is_empty() {
            ctx.multicast(
                &new_servers,
                GroupMsg::App(AquaMsg::Subscribe { client: me }),
            );
            self.subscribed.extend(new_servers);
        }
    }

    /// Tries to issue exactly one request. All arrival pacing lives in
    /// [`ClientGateway::on_arrival`].
    fn issue_one(&mut self, ctx: &mut Context<'_, Wire>) -> IssueResult {
        if self.finished {
            return IssueResult::Finished;
        }
        // Load shedding (escalation directive): drop the arrival. Pacing
        // continues — closed-loop retries shortly, open-loop arrivals are
        // simply lost for the shed window.
        if self.shed_until.is_some_and(|until| ctx.now() < until) {
            self.shed_requests += 1;
            return IssueResult::NoServers;
        }
        if self.budget_spent() {
            return IssueResult::Finished;
        }
        let has_servers = self
            .agent
            .as_ref()
            .is_some_and(|a| a.view().servers().count() > 0);
        if !has_servers {
            return IssueResult::NoServers;
        }

        let now = ctx.now();
        let method = if self.config.methods.is_empty() {
            MethodId::DEFAULT
        } else {
            self.config.methods[(self.issued as usize) % self.config.methods.len()]
        };
        let (give_up_after, retry_after) = (self.config.give_up_after, self.config.retry_after);
        let Some((mut call, plan)) =
            Call::start(self.live(), now, method, give_up_after, retry_after)
        else {
            return IssueResult::NoServers;
        };
        // An empty multicast means selection raced a view change.
        if !self.send(ctx, &mut call, &plan, self.config.request_size) {
            return IssueResult::NoServers;
        }
        self.issued += 1;
        self.records.push(RequestRecord {
            seq: plan.seq,
            sent_at: now,
            redundancy: call.redundancy(),
            first_reply_at: None,
            response_time: None,
            timely: false,
            callback: false,
        });
        self.wait(ctx, call);
        IssueResult::Issued
    }

    /// Multicasts `attempt` to the hosts of its replicas in the current
    /// view and tells `call` how many it reached: `false` if that ended it.
    fn send(
        &mut self,
        ctx: &mut Context<'_, Wire>,
        call: &mut Call,
        attempt: &RequestPlan,
        payload_size: u32,
    ) -> bool {
        let view = self.agent.as_ref().expect("started").view();
        let targets: Vec<NodeId> = attempt
            .replicas
            .iter()
            .filter_map(|r| view.node_of(*r))
            .collect();
        let (client, seq, method) = (ctx.self_id(), attempt.seq, call.method());
        let id = RequestId { client, seq };
        let request = AquaMsg::Request {
            id,
            method,
            payload_size,
        };
        ctx.multicast(&targets, GroupMsg::App(request));
        call.sent(self.live(), ctx.now(), attempt, targets.len())
    }

    /// Arms one timer at `call`'s next deadline, if it has one.
    fn wait(&mut self, ctx: &mut Context<'_, Wire>, call: Call) {
        if let Some(deadline) = call.next_deadline() {
            let after = deadline.saturating_duration_since(ctx.now());
            self.schedule(ctx, after, TimerKind::Deadline(call));
        }
    }

    /// A request's or a probe's deadline passed: a retry goes out and is
    /// recorded, a give-up is a timing failure and the client moves on.
    fn on_deadline(&mut self, mut call: Call, ctx: &mut Context<'_, Wire>) {
        match call.on_deadline(self.live(), ctx.now()) {
            Step::Send(retry) => {
                self.send(ctx, &mut call, &retry, self.config.request_size);
                if let Some(rec) = self.records.iter_mut().find(|r| r.seq == call.seq()) {
                    rec.redundancy = call.redundancy();
                }
            }
            Step::GaveUp => self.finish_request(ctx),
            Step::Wait | Step::Answered => {}
        }
        self.wait(ctx, call);
    }

    /// Runs at once the retry of every call the view of `members` left
    /// without an asked replica ([`Call::on_view`]), in seq order: the
    /// timer map iterates in no fixed order. A moved call's old timer
    /// finds nothing when it fires.
    fn run_orphaned(&mut self, members: &[ReplicaId], ctx: &mut Context<'_, Wire>) {
        let now = ctx.now();
        let mut due: Vec<(u64, TimerToken)> = self
            .timers
            .iter_mut()
            .filter_map(|(token, kind)| match kind {
                TimerKind::Deadline(call) => {
                    call.on_view(now, members).then(|| (call.seq(), *token))
                }
                _ => None,
            })
            .collect();
        due.sort_unstable_by_key(|&(seq, _)| seq);
        for (_, token) in due {
            if let Some(TimerKind::Deadline(call)) = self.timers.remove(&token) {
                self.on_deadline(call, ctx);
            }
        }
    }

    /// Handles one arrival tick according to the pacing discipline.
    fn issue_request(&mut self, ctx: &mut Context<'_, Wire>) {
        const RETRY: Duration = Duration::from_millis(50);
        match self.config.arrivals {
            ArrivalModel::ClosedLoop => match self.issue_one(ctx) {
                IssueResult::Issued | IssueResult::Finished => {}
                // Group still forming: retry shortly.
                IssueResult::NoServers => self.schedule(ctx, RETRY, TimerKind::IssueRequest),
            },
            ArrivalModel::OpenLoopPoisson { mean_interarrival } => {
                // Open-loop clients pace themselves at issue time,
                // independent of when (or whether) replies arrive; a
                // no-server arrival is simply lost.
                let outcome = self.issue_one(ctx);
                if !matches!(outcome, IssueResult::Finished) {
                    let u: f64 = rand::Rng::gen_range(ctx.rng(), 0.0..1.0f64);
                    let gap = mean_interarrival.mul_f64(-(1.0 - u).ln());
                    self.schedule(
                        ctx,
                        gap.max(Duration::from_nanos(1)),
                        TimerKind::IssueRequest,
                    );
                }
            }
            ArrivalModel::Bursts { size, interval } => {
                let mut outcome = IssueResult::Issued;
                for _ in 0..size.max(1) {
                    outcome = self.issue_one(ctx);
                    if !matches!(outcome, IssueResult::Issued) {
                        break;
                    }
                }
                match outcome {
                    IssueResult::Finished => {}
                    IssueResult::NoServers => self.schedule(ctx, RETRY, TimerKind::IssueRequest),
                    IssueResult::Issued => self.schedule(ctx, interval, TimerKind::IssueRequest),
                }
            }
        }
    }

    /// Probes every replica whose repository entry has gone stale (§8,
    /// extension 3), then re-arms the check timer.
    fn probe_stale(&mut self, ctx: &mut Context<'_, Wire>) {
        let Some(staleness) = self.config.probe_stale_after else {
            return;
        };
        if !self.finished {
            let now = ctx.now();
            let stale = self.live().stale_replicas(now, staleness);
            for replica in stale {
                let (mut call, plan) =
                    Call::probe(self.live(), now, replica, self.config.give_up_after);
                self.send(ctx, &mut call, &plan, 0);
                self.wait(ctx, call);
            }
            self.schedule(ctx, staleness, TimerKind::ProbeCheck);
        }
    }

    /// Whether the configured number of requests went out; marks the
    /// client finished if so.
    fn budget_spent(&mut self) -> bool {
        let limit = self.config.num_requests;
        self.finished |= limit.is_some_and(|limit| self.issued >= limit);
        self.finished
    }

    /// Called when a request resolves (first reply or give-up); closed-loop
    /// clients schedule their next request from here.
    fn finish_request(&mut self, ctx: &mut Context<'_, Wire>) {
        if !self.budget_spent() && self.config.arrivals == ArrivalModel::ClosedLoop {
            let think = self.config.think_time;
            self.schedule(ctx, think, TimerKind::IssueRequest);
        }
    }

    fn on_app(&mut self, msg: AquaMsg, ctx: &mut Context<'_, Wire>) {
        match msg {
            AquaMsg::Reply {
                id,
                replica,
                perf,
                payload_size: _,
            } => {
                let now = ctx.now();
                let outcome = self.live().on_reply(now, id.seq, replica, perf);
                if let ReplyOutcome::Deliver {
                    response_time,
                    verdict,
                    request,
                } = outcome
                {
                    if let Some(rec) = self.records.iter_mut().find(|r| r.seq == request) {
                        rec.first_reply_at = Some(now);
                        rec.response_time = Some(response_time);
                        rec.timely = verdict.is_timely();
                        rec.callback = verdict.should_notify();
                    }
                    if verdict.should_notify() {
                        if let Some(new_qos) = self.config.renegotiate_to {
                            self.live().renegotiate(now, new_qos);
                        }
                    }
                    self.finish_request(ctx);
                }
            }
            AquaMsg::PerfUpdate { replica, perf } => {
                let now = ctx.now();
                self.live().on_perf_update(now, replica, perf);
            }
            AquaMsg::Directive {
                renegotiate_pc,
                shed_for,
            } => {
                // A fleet-level escalation from the supervisor: adapt the
                // promise instead of the fleet. Only honored when a
                // manager is configured — a stray directive from an
                // unknown sender must not move our QoS.
                if self.config.manager.is_none() {
                    return;
                }
                if let Some(pc) = renegotiate_pc {
                    let current = self.live().qos();
                    // Only ever renegotiate the promise downward.
                    if pc < current.min_probability() {
                        if let Ok(relaxed) = QosSpec::new(current.deadline(), pc) {
                            self.live().renegotiate(ctx.now(), relaxed);
                        }
                    }
                }
                if let Some(shed) = shed_for {
                    let until = ctx.now().saturating_add(shed);
                    self.shed_until = Some(match self.shed_until {
                        Some(existing) => existing.max(until),
                        None => until,
                    });
                }
            }
            // Requests/subscriptions are not addressed to clients.
            _ => {}
        }
    }

    /// Forwards calibration alerts the watchdog hook buffered during this
    /// event to the dependability manager.
    fn forward_alerts(&mut self, ctx: &mut Context<'_, Wire>) {
        let Some(manager) = self.config.manager else {
            return;
        };
        let Some(buffer) = self.alert_buffer.as_ref() else {
            return;
        };
        // The guard lives only for this statement: the buffered alerts
        // are moved out before any message goes on the wire.
        let pending: Vec<BufferedAlert> = buffer
            .lock()
            .map(|mut pending| pending.drain(..).collect())
            .unwrap_or_default();
        for (replica, method, observed, promised) in pending {
            ctx.send(
                manager,
                GroupMsg::App(AquaMsg::AlertReport {
                    replica,
                    method,
                    observed,
                    promised,
                }),
            );
        }
    }
}

impl Node<Wire> for ClientGateway {
    fn on_event(&mut self, event: Event<Wire>, ctx: &mut Context<'_, Wire>) {
        match event {
            Event::Started => {
                let strategy = self.strategy.take().expect("strategy set at construction");
                // One thread drives the handler, so every plan publishes
                // what the replies before it brought.
                let mut handler =
                    ConcurrentHandler::new(self.config.qos, self.config.window, strategy)
                        .with_min_republish(Duration::ZERO)
                        .with_modelled_overhead(MODELLED_OVERHEAD);
                if let Some((obs, client)) = self.obs.as_ref() {
                    handler.attach_obs(obs, Some(*client));
                    if !self.fault_windows.is_empty() {
                        handler.set_fault_windows(self.fault_windows.clone());
                    }
                    let config = &self.config;
                    self.alert_buffer = handler
                        .with_observer(|observer| {
                            // Reconfigure before hooking: configure_watchdog
                            // replaces the watchdog, hooks and all.
                            if let Some(calibration) = config.calibration {
                                observer.configure_watchdog(calibration);
                            }
                            config.manager?;
                            let buffer = Arc::new(Mutex::new(Vec::new()));
                            let sink = Arc::clone(&buffer);
                            observer.watchdog_mut().add_hook(move |alert| {
                                if let Ok(mut pending) = sink.lock() {
                                    pending.push((
                                        alert.replica,
                                        alert.method,
                                        alert.observed,
                                        alert.promised,
                                    ));
                                }
                            });
                            Some(buffer)
                        })
                        .flatten();
                }
                self.handler = Some(handler);
                self.finished = false;
                let me = Member::client(ctx.self_id());
                let mut agent =
                    MembershipAgent::new(self.config.coordinator, me, self.config.group);
                agent.on_started(ctx);
                self.agent = Some(agent);
                let start_after = self.config.start_after;
                self.schedule(ctx, start_after, TimerKind::IssueRequest);
                if let Some(interval) = self.config.probe_stale_after {
                    self.schedule(ctx, interval, TimerKind::ProbeCheck);
                }
            }
            Event::Timer { token } => {
                if let Some(agent) = self.agent.as_mut() {
                    if agent.on_timer(token, ctx) {
                        return;
                    }
                }
                match self.timers.remove(&token) {
                    Some(TimerKind::IssueRequest) => self.issue_request(ctx),
                    Some(TimerKind::ProbeCheck) => self.probe_stale(ctx),
                    Some(TimerKind::Deadline(call)) => self.on_deadline(call, ctx),
                    None => {}
                }
            }
            Event::Message { payload, .. } => match payload {
                GroupMsg::App(msg) => self.on_app(msg, ctx),
                GroupMsg::ViewChange(view) => {
                    let installed = self
                        .agent
                        .as_mut()
                        .expect("started")
                        .on_view_change(view)
                        .map(|v| v.replica_ids().collect::<Vec<_>>());
                    if let Some(servers) = installed {
                        let now = ctx.now();
                        self.live().on_view(now, servers.iter().copied());
                        self.subscribe_to_new_servers(ctx);
                        self.run_orphaned(&servers, ctx);
                    }
                }
                _ => {}
            },
        }
        // Alerts the watchdog raised while handling this event go out to
        // the manager now, from event-loop context.
        self.forward_alerts(ctx);
    }
}
