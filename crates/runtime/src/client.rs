//! The socket client gateway: the concurrent timing fault handler driven
//! by real TCP connections and the wall clock.
//!
//! One [`AquaClient`] holds a connection to every replica of a service,
//! subscribes to their performance updates, and exposes a synchronous
//! [`AquaClient::call`] that plans the replica subset, multicasts the
//! request, and delivers the earliest reply — measuring everything exactly
//! as §5.4.1 prescribes.
//!
//! Concurrency: there is **no global client lock**. Planning runs
//! lock-free on the caller's thread against the handler's published
//! snapshot ([`ConcurrentHandler`]); all sockets belong to one
//! [`Reactor`] event-loop thread that owns them in nonblocking mode —
//! a multicast encodes its request frame once and queues the shared bytes
//! on each selected replica's outbound ring; a call that is alone on the
//! client flushes those rings itself, concurrent calls leave them to the
//! reactor, which coalesces every ring into vectored writes (one syscall
//! per connection per readiness round). Inbound bytes reassemble per
//! connection and decoded frames are
//! applied straight into the handler's sharded write path — no reader
//! threads, no dispatcher hop, no cross-request contention. In-flight
//! calls wait on a sharded waiter table keyed by sequence number. The
//! previous implementations are preserved byte-compatibly behind feature
//! flags as A/B baselines: [`crate::serialized::SerializedClient`]
//! (feature `serialized-baseline`, single global lock) and
//! [`crate::threaded::ThreadedClient`] (feature `threaded-baseline`,
//! thread-per-connection writer/reader pairs).

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex as StdMutex, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::Instant as StdInstant;

use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::{MethodId, PerfReport};
use aqua_core::time::{Duration, Instant};
use aqua_gateway::{ConcurrentHandler, ReplyOutcome};
use aqua_strategies::SelectionStrategy;
use bytes::Bytes;
use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::reactor::{NetMetrics, Reactor, ReactorSink};
use crate::wire::Frame;

/// Number of waiter-table shards (sequence numbers hash across them).
const WAITER_SHARDS: usize = 16;

/// Configuration of a socket client.
#[derive(Debug, Clone)]
pub struct AquaClientConfig {
    /// The client's QoS specification.
    pub qos: QosSpec,
    /// Sliding-window size `l`.
    pub window: usize,
    /// Give up on a call after this long (must exceed the deadline).
    pub give_up_after: Duration,
    /// Client identifier sent in `Hello` (diagnostics only).
    pub id: u64,
    /// Optional observability sink: handler metrics/spans plus wire-level
    /// frame and byte counters.
    pub obs: Option<aqua_obs::Obs>,
    /// Optional deadline-driven retry: when the first selection has not
    /// produced a reply after this long, Algorithm 1 re-runs over the
    /// *remaining* replicas and the request is re-multicast as a sibling
    /// attempt (the original stays live; the earliest reply of either
    /// wins). `None` disables retries.
    pub retry_after: Option<Duration>,
    /// Reconnect policy for replicas lost to TCP teardown. With the
    /// default policy a recovered replica rejoins the connection set and
    /// the repository **on probation**; `None` keeps the historical
    /// evict-forever behavior.
    pub reconnect: Option<ReconnectPolicy>,
}

impl AquaClientConfig {
    /// Paper defaults: window 5, give up after 5 s.
    pub fn new(qos: QosSpec) -> Self {
        AquaClientConfig {
            qos,
            window: 5,
            give_up_after: Duration::from_secs(5),
            id: 0,
            obs: None,
            retry_after: None,
            reconnect: Some(ReconnectPolicy::default()),
        }
    }
}

/// Exponential-backoff reconnect policy for replicas lost to TCP teardown.
///
/// Backoff state is kept per replica and only resets once a **frame**
/// arrives from the recovered replica — a refusing server that accepts and
/// immediately drops connections therefore keeps escalating the delay
/// instead of ping-ponging at the initial backoff.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Delay before the first reconnect attempt.
    pub initial_backoff: Duration,
    /// Ceiling for the doubled backoff delay.
    pub max_backoff: Duration,
    /// Give up on the replica after this many consecutive attempts
    /// without receiving a frame from it.
    pub max_attempts: u32,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            initial_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            max_attempts: 20,
        }
    }
}

/// A successful call.
#[derive(Debug, Clone)]
pub struct CallOutcome {
    /// End-to-end response time `tr`.
    pub response_time: Duration,
    /// Whether the deadline was met.
    pub timely: bool,
    /// Whether the QoS-violation callback fired.
    pub callback: bool,
    /// How many replicas the request was multicast to.
    pub redundancy: usize,
    /// The replying replica.
    pub replica: ReplicaId,
    /// The reply payload.
    pub payload: Bytes,
}

/// A failed call.
#[derive(Debug)]
pub enum CallError {
    /// No replicas are connected.
    NoReplicas,
    /// No reply arrived within the give-up window (counted as a timing
    /// failure).
    GaveUp {
        /// How many replicas had been selected.
        redundancy: usize,
    },
    /// Transport-level failure.
    Io(io::Error),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::NoReplicas => write!(f, "no replicas available"),
            CallError::GaveUp { redundancy } => {
                write!(f, "no reply from any of {redundancy} selected replicas")
            }
            CallError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for CallError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CallError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CallError {
    fn from(e: io::Error) -> Self {
        CallError::Io(e)
    }
}

/// Cached wire-level counters (frames/bytes in each direction), so the
/// hot path never touches the registry lock.
#[derive(Clone)]
pub(crate) struct WireMetrics {
    pub(crate) frames_sent: Arc<aqua_obs::metrics::Counter>,
    pub(crate) bytes_sent: Arc<aqua_obs::metrics::Counter>,
    pub(crate) frames_received: Arc<aqua_obs::metrics::Counter>,
    pub(crate) bytes_received: Arc<aqua_obs::metrics::Counter>,
    pub(crate) reconnects: Arc<aqua_obs::metrics::Counter>,
}

impl WireMetrics {
    pub(crate) fn new(obs: &aqua_obs::Obs, client: u64) -> Self {
        let client = client.to_string();
        let labels = [("client", client.as_str())];
        let registry = obs.registry();
        WireMetrics {
            frames_sent: registry.counter("aqua_wire_frames_sent_total", &labels),
            bytes_sent: registry.counter("aqua_wire_bytes_sent_total", &labels),
            frames_received: registry.counter("aqua_wire_frames_received_total", &labels),
            bytes_received: registry.counter("aqua_wire_bytes_received_total", &labels),
            reconnects: registry.counter("aqua_client_reconnects_total", &labels),
        }
    }

    pub(crate) fn on_sent(&self, frame: &Frame) {
        self.frames_sent.inc();
        self.bytes_sent.add(frame.encoded_len() as u64);
    }

    pub(crate) fn on_received(&self, frame: &Frame) {
        self.frames_received.inc();
        self.bytes_received.add(frame.encoded_len() as u64);
    }
}

/// A latch that background reconnect threads wait on instead of plain
/// sleeping, so teardown can interrupt a backoff wait and join promptly.
pub(crate) struct StopSignal {
    state: StdMutex<bool>,
    cv: Condvar,
}

impl StopSignal {
    pub(crate) fn new() -> StopSignal {
        StopSignal {
            state: StdMutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Raises the signal and wakes every waiter. Idempotent.
    pub(crate) fn raise(&self) {
        {
            let mut raised = self.state.lock().unwrap_or_else(|p| p.into_inner());
            *raised = true;
        }
        self.cv.notify_all();
    }

    /// Whether the signal has been raised.
    pub(crate) fn is_raised(&self) -> bool {
        *self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Blocks up to `dur`; returns `true` if the signal was raised before
    /// the timeout elapsed.
    pub(crate) fn wait(&self, dur: std::time::Duration) -> bool {
        let deadline = StdInstant::now() + dur;
        let mut raised = self.state.lock().unwrap_or_else(|p| p.into_inner());
        while !*raised {
            let left = deadline.saturating_duration_since(StdInstant::now());
            if left.is_zero() {
                return false;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(raised, left)
                .unwrap_or_else(|p| p.into_inner());
            raised = guard;
        }
        true
    }
}

/// One resolved call message on a waiter channel.
enum WaitMsg {
    Outcome(CallOutcome),
    /// Every replica disconnected while the call was in flight.
    NoReplicas,
}

/// An in-flight call attempt awaiting its first reply.
struct Waiter {
    tx: Sender<WaitMsg>,
    /// Total replicas multicast to across all sibling attempts.
    redundancy: usize,
    /// All attempt seqs of the same logical request (including this one);
    /// resolving any attempt retires the rest.
    group: Vec<u64>,
}

struct Inner {
    handler: ConcurrentHandler,
    /// Per-replica reactor connection ids; the reactor owns the sockets.
    conns: RwLock<HashMap<ReplicaId, u64>>,
    /// In-flight call attempts, sharded by seq: shard → seq → waiter.
    waiters: Vec<Mutex<HashMap<u64, Waiter>>>,
    /// Last known address of every replica, for reconnects.
    addrs: Mutex<HashMap<ReplicaId, SocketAddr>>,
    /// Consecutive reconnect attempts per replica since its last frame.
    backoff: Mutex<HashMap<ReplicaId, u32>>,
    epoch: StdInstant,
    wire: Option<WireMetrics>,
    reconnect: Option<ReconnectPolicy>,
    client_id: u64,
    /// The event-loop thread owning every socket.
    reactor: Reactor,
    /// Self-reference handed to background reconnect threads.
    weak: Weak<Inner>,
    /// Interrupts reconnect backoff waits on teardown.
    stop: Arc<StopSignal>,
    /// Live reconnect threads, joined on drop (finished handles are
    /// reaped opportunistically).
    reconnect_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ReactorSink for Inner {
    fn on_frame(&self, tag: u64, _conn: u64, frame: Frame) {
        self.handle_frame(ReplicaId::new(tag), frame);
    }

    fn on_disconnect(&self, tag: u64, conn: u64) {
        self.handle_disconnect(ReplicaId::new(tag), conn);
    }
}

impl Inner {
    fn now(&self) -> Instant {
        Instant::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn waiter_shard(&self, seq: u64) -> &Mutex<HashMap<u64, Waiter>> {
        &self.waiters[(seq as usize) % WAITER_SHARDS]
    }

    /// Opens (or re-opens) the connection to one replica: the socket is
    /// handed to the reactor, which does all I/O from then on, and `admit`
    /// tells the handler about the replica.
    ///
    /// Registration, the `Hello` and publishing the connection id all
    /// happen under the `conns` write lock, which `handle_disconnect`
    /// takes first: a loss the reactor reports right after `register` —
    /// a server that accepts and drops — waits for the id to be in the
    /// map instead of being discarded as stale, and evicts the replica
    /// `admit` has just announced.
    fn open_connection(
        &self,
        id: ReplicaId,
        addr: SocketAddr,
        admit: impl FnOnce(&Inner),
    ) -> io::Result<()> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        {
            let mut addrs = self.addrs.lock();
            addrs.insert(id, addr);
        }
        let mut conns = self.conns.write().unwrap_or_else(|p| p.into_inner());
        let conn = self.reactor.register(stream, id.index())?;
        // The subscription handshake goes into the outbound ring before
        // the connection id is published, so it precedes any request.
        let hello = Frame::Hello {
            client: self.client_id,
        };
        if self.reactor.multicast(&[conn], &hello) == 1 {
            if let Some(wire) = &self.wire {
                wire.on_sent(&hello);
            }
        }
        conns.insert(id, conn);
        admit(self);
        Ok(())
    }

    /// Multicasts one request: the frame is encoded once by the reactor
    /// and its bytes queued on every listed replica's outbound ring;
    /// returns how many connections accepted it. Wire counters account
    /// at enqueue time, per accepted connection — byte-for-byte what the
    /// per-connection flush will put on the wire.
    fn multicast(
        &self,
        seq: u64,
        method: MethodId,
        payload: &Bytes,
        replicas: &[ReplicaId],
    ) -> usize {
        let mut targets: Vec<u64> = Vec::with_capacity(replicas.len());
        {
            let conns = self.conns.read().unwrap_or_else(|p| p.into_inner());
            for id in replicas {
                if let Some(&conn) = conns.get(id) {
                    targets.push(conn);
                }
            }
        }
        if targets.is_empty() {
            return 0;
        }
        let frame = Frame::Request {
            seq,
            method: method.index(),
            payload: payload.clone(),
        };
        let sent = self.reactor.multicast(&targets, &frame);
        if let Some(wire) = &self.wire {
            for _ in 0..sent {
                wire.on_sent(&frame);
            }
        }
        sent
    }

    /// Removes any leftover waiter entries for the given attempts (the
    /// delivery path retires what it can see; the caller sweeps the rest
    /// once the call resolves).
    fn clear_waiters(&self, seqs: &[u64]) {
        for s in seqs {
            let mut shard = self.waiter_shard(*s).lock();
            shard.remove(s);
        }
    }

    /// Handles one inbound frame from `id`'s connection (called on the
    /// reactor thread), applying it straight into the handler's sharded
    /// write path.
    fn handle_frame(&self, id: ReplicaId, frame: Frame) {
        if let Some(wire) = &self.wire {
            wire.on_received(&frame);
        }
        // A frame is proof of life: the replica's reconnect backoff
        // starts over.
        {
            let mut backoff = self.backoff.lock();
            backoff.remove(&id);
        }
        match frame {
            Frame::Reply {
                seq,
                replica,
                service_ns,
                queue_ns,
                queue_len,
                method,
                payload,
            } => {
                let perf = PerfReport {
                    service_time: Duration::from_nanos(service_ns),
                    queuing_delay: Duration::from_nanos(queue_ns),
                    queue_len,
                    method: MethodId::new(method),
                };
                let replica = ReplicaId::new(replica);
                debug_assert_eq!(replica, id, "replies come from their own connection");
                let now = self.now();
                let outcome = self.handler.on_reply(now, seq, replica, perf);
                if let ReplyOutcome::Deliver {
                    response_time,
                    verdict,
                } = outcome
                {
                    self.deliver(seq, replica, response_time, verdict, payload);
                }
            }
            Frame::PerfUpdate {
                replica,
                service_ns,
                queue_ns,
                queue_len,
                method,
            } => {
                let perf = PerfReport {
                    service_time: Duration::from_nanos(service_ns),
                    queuing_delay: Duration::from_nanos(queue_ns),
                    queue_len,
                    method: MethodId::new(method),
                };
                self.handler
                    .on_perf_update(self.now(), ReplicaId::new(replica), perf);
            }
            _ => {}
        }
    }

    /// Resolves the winning attempt's waiter and retires its siblings.
    /// The handler already classified the reply as first and retired the
    /// sibling pending entries; this is only waiter-table bookkeeping.
    fn deliver(
        &self,
        seq: u64,
        replica: ReplicaId,
        response_time: Duration,
        verdict: aqua_core::failure::TimingVerdict,
        payload: Bytes,
    ) {
        let waiter = {
            let mut shard = self.waiter_shard(seq).lock();
            shard.remove(&seq)
        };
        let Some(waiter) = waiter else {
            return; // resolved concurrently (give-up or disconnect sweep)
        };
        for s in &waiter.group {
            if *s != seq {
                let mut shard = self.waiter_shard(*s).lock();
                shard.remove(s);
            }
        }
        let outcome = CallOutcome {
            response_time,
            timely: verdict.is_timely(),
            callback: verdict.should_notify(),
            redundancy: waiter.redundancy,
            replica,
            payload,
        };
        let _ = waiter.tx.send(WaitMsg::Outcome(outcome));
    }

    /// TCP teardown is our crash detector: the replica leaves the "view".
    /// `conn` guards against stale events — if a reconnect already
    /// replaced this connection, the old connection's teardown is ignored.
    /// A connection still being opened is not stale: `open_connection`
    /// holds the write lock taken here until its id is in the map.
    fn handle_disconnect(&self, id: ReplicaId, conn: u64) {
        let remaining: Option<Vec<ReplicaId>> = {
            let mut conns = self.conns.write().unwrap_or_else(|p| p.into_inner());
            match conns.get(&id) {
                Some(&current) if current == conn => {
                    conns.remove(&id);
                    Some(conns.keys().copied().collect())
                }
                _ => None,
            }
        };
        let Some(remaining) = remaining else {
            return;
        };
        let now = self.now();
        self.handler.on_view(now, remaining.iter().copied());
        if remaining.is_empty() {
            self.fail_all_waiters(now);
        }
        self.spawn_reconnect(id);
    }

    /// Nobody left who could ever answer: fail every in-flight call
    /// immediately instead of letting each caller ride out its give-up
    /// timer.
    fn fail_all_waiters(&self, now: Instant) {
        let mut drained: Vec<(u64, Waiter)> = Vec::new();
        for shard in &self.waiters {
            let mut shard = shard.lock();
            drained.extend(shard.drain());
        }
        // One timing failure per logical request: the newest attempt
        // carries it, earlier ones retire as superseded.
        let mut handled: HashSet<u64> = HashSet::new();
        for (seq, waiter) in drained {
            if handled.contains(&seq) {
                continue; // a sibling of this group was already processed
            }
            let mut group = waiter.group.clone();
            group.sort_unstable();
            let last = *group.last().unwrap_or(&seq);
            for s in &group {
                handled.insert(*s);
                if *s != last {
                    self.handler.on_abandon(now, *s);
                }
            }
            self.handler.on_give_up(now, last);
            let _ = waiter.tx.send(WaitMsg::NoReplicas);
        }
    }

    /// Starts the background reconnect loop for a lost replica (if a
    /// policy is configured). On success the replica rejoins the
    /// connection set and the repository **on probation**. The thread's
    /// handle is tracked so teardown joins it instead of leaking it; its
    /// backoff waits ride the stop latch, so the join is prompt.
    fn spawn_reconnect(&self, id: ReplicaId) {
        let Some(policy) = self.reconnect.clone() else {
            return;
        };
        let weak = self.weak.clone();
        let stop = Arc::clone(&self.stop);
        let handle = std::thread::spawn(move || loop {
            if stop.is_raised() {
                return;
            }
            let Some(inner) = weak.upgrade() else { return };
            {
                let conns = inner.conns.read().unwrap_or_else(|p| p.into_inner());
                if conns.contains_key(&id) {
                    return; // already reconnected elsewhere
                }
            }
            let addr = {
                let addrs = inner.addrs.lock();
                addrs.get(&id).copied()
            };
            let Some(addr) = addr else { return };
            let attempt = {
                let mut backoff = inner.backoff.lock();
                let counter = backoff.entry(id).or_insert(0);
                let attempt = *counter;
                *counter += 1;
                attempt
            };
            if attempt >= policy.max_attempts {
                return;
            }
            let delay = std::time::Duration::from(policy.initial_backoff)
                .saturating_mul(1u32 << attempt.min(16))
                .min(std::time::Duration::from(policy.max_backoff));
            drop(inner); // don't pin the client alive while waiting
            if stop.wait(delay) {
                return;
            }
            let Some(inner) = weak.upgrade() else { return };
            let rejoin = |inner: &Inner| inner.handler.on_rejoin(inner.now(), id);
            if inner.open_connection(id, addr, rejoin).is_err() {
                continue;
            }
            if let Some(wire) = &inner.wire {
                wire.reconnects.inc();
            }
            return;
        });
        let mut threads = self.reconnect_threads.lock();
        threads.retain(|t| !t.is_finished());
        threads.push(handle);
    }
}

fn resolve(msg: WaitMsg) -> Result<CallOutcome, CallError> {
    match msg {
        WaitMsg::Outcome(outcome) => Ok(outcome),
        WaitMsg::NoReplicas => Err(CallError::NoReplicas),
    }
}

/// The socket client gateway. See the module docs.
///
/// Safe to share behind an `Arc`; concurrent [`AquaClient::call`]s plan,
/// send, and resolve fully in parallel — there is no global client lock.
pub struct AquaClient {
    inner: Arc<Inner>,
    give_up_after: Duration,
    retry_after: Option<Duration>,
}

impl Drop for AquaClient {
    fn drop(&mut self) {
        // Interrupt backoff waits, join every reconnect thread, then stop
        // and join the reactor — no thread outlives the client.
        self.inner.stop.raise();
        let threads: Vec<JoinHandle<()>> = {
            let mut threads = self.inner.reconnect_threads.lock();
            threads.drain(..).collect()
        };
        for t in threads {
            let _ = t.join();
        }
        self.inner.reactor.shutdown();
    }
}

impl std::fmt::Debug for AquaClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let replicas = {
            let conns = self.inner.conns.read().unwrap_or_else(|p| p.into_inner());
            conns.len()
        };
        f.debug_struct("AquaClient")
            .field("replicas", &replicas)
            .finish()
    }
}

impl AquaClient {
    /// Connects to every replica, subscribes to performance updates, and
    /// initializes the handler with the given strategy.
    ///
    /// # Errors
    ///
    /// Fails if any initial connection cannot be established.
    pub fn connect(
        replicas: &[(ReplicaId, SocketAddr)],
        config: AquaClientConfig,
        strategy: Box<dyn SelectionStrategy>,
    ) -> io::Result<AquaClient> {
        let mut handler = ConcurrentHandler::new(config.qos, config.window, strategy);
        if let Some(obs) = &config.obs {
            handler.attach_obs(obs, Some(config.id));
        }
        let wire = config
            .obs
            .as_ref()
            .map(|obs| WireMetrics::new(obs, config.id));
        let net = config.obs.as_ref().map(NetMetrics::new);
        let reactor = Reactor::spawn(net)?;
        let inner = Arc::new_cyclic(|weak| Inner {
            handler,
            conns: RwLock::new(HashMap::new()),
            waiters: (0..WAITER_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            addrs: Mutex::new(HashMap::new()),
            backoff: Mutex::new(HashMap::new()),
            epoch: StdInstant::now(),
            wire,
            reconnect: config.reconnect.clone(),
            client_id: config.id,
            reactor,
            weak: weak.clone(),
            stop: Arc::new(StopSignal::new()),
            reconnect_threads: Mutex::new(Vec::new()),
        });
        let weak = Arc::downgrade(&inner);
        let sink: Weak<dyn ReactorSink> = weak;
        inner.reactor.set_sink(sink);
        for (id, addr) in replicas {
            inner.open_connection(*id, *addr, |inner| {
                inner.handler.insert_replica(inner.now(), *id);
            })?;
        }
        Ok(AquaClient {
            inner,
            give_up_after: config.give_up_after,
            retry_after: config.retry_after,
        })
    }

    /// Runs `f` against the handler (repository inspection, stats, …).
    pub fn with_handler<R>(&self, f: impl FnOnce(&ConcurrentHandler) -> R) -> R {
        f(&self.inner.handler)
    }

    /// Emits any request spans still buffered by the handler's observer
    /// and flushes the journal. Call once at the end of an observed run.
    pub fn finish_observability(&self) {
        self.inner.handler.flush_observability();
    }

    /// Installs a fault timeline (e.g. from a chaos test's
    /// [`aqua_faults::FaultSchedule`]): every journalled span is tagged
    /// with the stable ids of overlapping fault windows so offline
    /// forensics can join misses to faults exactly. No-op without
    /// observability configured.
    pub fn set_fault_windows(&self, windows: Vec<aqua_faults::FaultWindow>) {
        self.inner.handler.set_fault_windows(windows);
    }

    /// Replaces the QoS-calibration watchdog configuration (margin,
    /// window, alert cooldown). No-op without observability configured.
    pub fn configure_watchdog(&self, config: aqua_gateway::CalibrationConfig) {
        self.inner
            .handler
            .with_observer(|observer| observer.configure_watchdog(config));
    }

    /// Registers a hook invoked on every QoS-calibration alert (the
    /// dependability-manager integration point). No-op without
    /// observability configured.
    pub fn on_calibration_alert(
        &self,
        hook: impl FnMut(&aqua_gateway::CalibrationAlert) + Send + 'static,
    ) {
        self.inner
            .handler
            .with_observer(|observer| observer.watchdog_mut().add_hook(hook));
    }

    /// Renegotiates the QoS spec at runtime (§5.4.2): the failure
    /// detector restarts under the new deadline and the planning snapshot
    /// is republished, so subsequent calls plan against the new spec.
    pub fn renegotiate(&self, qos: QosSpec) {
        self.inner.handler.renegotiate(self.inner.now(), qos);
    }

    /// Connects to an additional replica at runtime (a new member joining
    /// the service group). The replica starts cold, so the next request is
    /// a full multicast that warms it up (§5.4.1's bootstrap rule).
    ///
    /// # Errors
    ///
    /// Propagates connection errors; the client is unchanged on failure.
    pub fn add_replica(&self, id: ReplicaId, addr: SocketAddr) -> io::Result<()> {
        self.inner.open_connection(id, addr, |inner| {
            inner.handler.insert_replica(inner.now(), id);
        })
    }

    /// Invokes the replicated service: selects replicas per the QoS spec,
    /// multicasts the request, and returns the earliest reply.
    ///
    /// # Errors
    ///
    /// [`CallError::NoReplicas`] when every replica is gone,
    /// [`CallError::GaveUp`] when no selected replica answered within the
    /// give-up window, [`CallError::Io`] on transport failures during send.
    pub fn call(&self, method: MethodId, payload: &[u8]) -> Result<CallOutcome, CallError> {
        let inner = &self.inner;
        let _in_flight = inner.reactor.enter_call();
        let t0 = inner.now();
        let started = StdInstant::now();
        let give_up = std::time::Duration::from(self.give_up_after);
        let payload = Bytes::copy_from_slice(payload);

        // Plan lock-free against the published snapshot, then register
        // the waiter *before* multicasting so even a lightning-fast reply
        // finds it.
        let plan = inner.handler.plan_request_for(t0, Some(method));
        if plan.replicas.is_empty() {
            inner.handler.on_give_up(inner.now(), plan.seq);
            return Err(CallError::NoReplicas);
        }
        let first_seq = plan.seq;
        let first_selection = plan.replicas;
        let mut redundancy = first_selection.len();
        let (tx, rx) = bounded(2);
        {
            let mut shard = inner.waiter_shard(first_seq).lock();
            shard.insert(
                first_seq,
                Waiter {
                    tx: tx.clone(),
                    redundancy,
                    group: vec![first_seq],
                },
            );
        }
        let sent = inner.multicast(first_seq, method, &payload, &first_selection);
        if sent == 0 {
            inner.clear_waiters(&[first_seq]);
            inner.handler.on_give_up(inner.now(), first_seq);
            return Err(CallError::GaveUp { redundancy });
        }
        let mut seqs = vec![first_seq];

        // Stage 1 (optional): wait until the intermediate retry deadline,
        // then re-run Algorithm 1 over the remaining replicas and multicast
        // a sibling attempt. The original stays live; earliest reply wins.
        if let Some(retry_after) = self.retry_after {
            let wait = std::time::Duration::from(retry_after).min(give_up);
            match rx.recv_timeout(wait) {
                Ok(msg) => {
                    inner.clear_waiters(&seqs);
                    return resolve(msg);
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    let now = inner.now();
                    // plan_retry handles the sibling-group protocol and
                    // returns None if the request resolved meanwhile.
                    let retry = inner.handler.plan_retry(
                        now,
                        Some(method),
                        t0,
                        first_seq,
                        &first_selection,
                    );
                    if let Some(plan) = retry {
                        let added = plan.replicas.len();
                        let group = vec![first_seq, plan.seq];
                        {
                            let mut shard = inner.waiter_shard(first_seq).lock();
                            if let Some(w) = shard.get_mut(&first_seq) {
                                w.group.clone_from(&group);
                                w.redundancy = redundancy + added;
                            }
                        }
                        {
                            let mut shard = inner.waiter_shard(plan.seq).lock();
                            shard.insert(
                                plan.seq,
                                Waiter {
                                    tx: tx.clone(),
                                    redundancy: redundancy + added,
                                    group,
                                },
                            );
                        }
                        let sent = inner.multicast(plan.seq, method, &payload, &plan.replicas);
                        if sent > 0 {
                            redundancy += added;
                            seqs.push(plan.seq);
                        } else {
                            // Nobody reachable for the retry: retire the
                            // attempt quietly.
                            inner.clear_waiters(&[plan.seq]);
                            {
                                let mut shard = inner.waiter_shard(first_seq).lock();
                                if let Some(w) = shard.get_mut(&first_seq) {
                                    w.group = vec![first_seq];
                                    w.redundancy = redundancy;
                                }
                            }
                            inner.handler.on_abandon(now, plan.seq);
                        }
                    }
                }
            }
        }

        // Stage 2: wait out the rest of the give-up window.
        let remaining = give_up.saturating_sub(started.elapsed());
        match rx.recv_timeout(remaining) {
            Ok(msg) => {
                inner.clear_waiters(&seqs);
                resolve(msg)
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                let now = inner.now();
                // One timing failure per logical request: the newest
                // attempt carries the give-up, earlier ones retire.
                if let Some((last, earlier)) = seqs.split_last() {
                    for s in earlier {
                        inner.handler.on_abandon(now, *s);
                    }
                    if !inner.handler.on_give_up(now, *last) {
                        // A first reply (or the disconnect sweep) won the
                        // race against our timer: the resolution is on the
                        // channel, or arrives momentarily.
                        let msg = rx.recv_timeout(std::time::Duration::from_secs(1)).ok();
                        inner.clear_waiters(&seqs);
                        if let Some(msg) = msg {
                            return resolve(msg);
                        }
                        return Err(CallError::GaveUp { redundancy });
                    }
                }
                inner.clear_waiters(&seqs);
                drop(tx);
                Err(CallError::GaveUp { redundancy })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ReplicaServer, ReplicaServerConfig};
    use crate::test_support::{eventually, RefusingListener};
    use aqua_strategies::ModelBased;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn spawn_servers(service_ms: &[u64]) -> Vec<ReplicaServer> {
        service_ms
            .iter()
            .enumerate()
            .map(|(i, s)| {
                ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(i as u64), *s))
                    .expect("spawn")
            })
            .collect()
    }

    fn client_for(servers: &[ReplicaServer], qos: QosSpec) -> AquaClient {
        let replicas: Vec<(ReplicaId, SocketAddr)> =
            servers.iter().map(|s| (s.replica(), s.addr())).collect();
        AquaClient::connect(
            &replicas,
            AquaClientConfig::new(qos),
            Box::new(ModelBased::default()),
        )
        .expect("connect")
    }

    #[test]
    fn end_to_end_calls_over_sockets() {
        let servers = spawn_servers(&[5, 10, 15]);
        let qos = QosSpec::new(ms(500), 0.9).unwrap();
        let client = client_for(&servers, qos);
        let mut redundancies = Vec::new();
        for _ in 0..6 {
            let out = client
                .call(MethodId::DEFAULT, b"hello")
                .expect("call succeeds");
            assert!(out.timely, "500 ms deadline vs ≤15 ms service");
            assert_eq!(out.payload, Bytes::from_static(b"hello"), "echoed");
            redundancies.push(out.redundancy);
        }
        assert_eq!(redundancies[0], 3, "cold start selects all");
        assert_eq!(
            *redundancies.last().unwrap(),
            2,
            "warm Pc=0.9 needs only 2: {redundancies:?}"
        );
    }

    #[test]
    fn crash_is_detected_and_masked() {
        let servers = spawn_servers(&[5, 5, 5]);
        let qos = QosSpec::new(ms(500), 0.9).unwrap();
        let client = client_for(&servers, qos);
        for _ in 0..3 {
            client.call(MethodId::DEFAULT, b"x").expect("warm up");
        }
        servers[0].crash();
        // The very next calls still succeed via the other replicas.
        let mut successes = 0;
        for _ in 0..5 {
            if client.call(MethodId::DEFAULT, b"x").is_ok() {
                successes += 1;
            }
        }
        assert!(successes >= 4, "only the in-flight call may be lost");
        client.with_handler(|h| {
            assert!(
                !h.repository().contains(ReplicaId::new(0)),
                "disconnect evicted the crashed replica"
            );
        });
    }

    #[test]
    fn all_crashed_yields_no_replicas() {
        let servers = spawn_servers(&[5]);
        let qos = QosSpec::new(ms(200), 0.0).unwrap();
        let mut config = AquaClientConfig::new(qos);
        config.give_up_after = ms(400);
        let replicas: Vec<(ReplicaId, SocketAddr)> =
            servers.iter().map(|s| (s.replica(), s.addr())).collect();
        let client =
            AquaClient::connect(&replicas, config, Box::new(ModelBased::default())).unwrap();
        client.call(MethodId::DEFAULT, b"x").expect("first ok");
        servers[0].crash();
        std::thread::sleep(std::time::Duration::from_millis(100));
        let err = client.call(MethodId::DEFAULT, b"x").unwrap_err();
        assert!(
            matches!(err, CallError::NoReplicas | CallError::GaveUp { .. }),
            "{err}"
        );
        // Once the disconnect is processed, further calls fail fast.
        let err = client.call(MethodId::DEFAULT, b"x").unwrap_err();
        assert!(matches!(err, CallError::NoReplicas), "{err}");
    }

    #[test]
    fn measurements_fill_the_repository() {
        let servers = spawn_servers(&[20, 20]);
        let qos = QosSpec::new(ms(500), 0.5).unwrap();
        let client = client_for(&servers, qos);
        for _ in 0..4 {
            client.call(MethodId::DEFAULT, b"y").expect("ok");
        }
        client.with_handler(|h| {
            let repo = h.repository();
            assert!(repo.all_warm(), "both replicas have measurements");
            for (_, stats) in repo.iter() {
                let hist = stats.history(MethodId::DEFAULT).unwrap();
                let latest = *hist.service_times().latest().unwrap();
                assert!(
                    latest >= ms(20) && latest < ms(200),
                    "measured ts ≈ slept 20 ms, got {latest}"
                );
            }
        });
    }

    #[test]
    fn timing_failures_are_detected_on_the_wall_clock() {
        let servers = spawn_servers(&[80]);
        // 30 ms deadline vs 80 ms service: every reply is late.
        let qos = QosSpec::new(ms(30), 0.0).unwrap();
        let client = client_for(&servers, qos);
        let out = client.call(MethodId::DEFAULT, b"z").expect("reply arrives");
        assert!(!out.timely);
        assert!(out.response_time >= ms(80));
        client.with_handler(|h| {
            assert_eq!(h.detector().failures(), 1);
        });
    }

    #[test]
    fn observed_calls_emit_metrics_and_spans() {
        let (obs, reader) = aqua_obs::Obs::in_memory();
        let mut servers = Vec::new();
        for i in 0..2u64 {
            let mut cfg = ReplicaServerConfig::quick(ReplicaId::new(i), 5);
            cfg.obs = Some(obs.clone());
            servers.push(ReplicaServer::spawn(cfg).expect("spawn"));
        }
        let replicas: Vec<(ReplicaId, SocketAddr)> =
            servers.iter().map(|s| (s.replica(), s.addr())).collect();
        let mut config = AquaClientConfig::new(QosSpec::new(ms(500), 0.9).unwrap());
        config.id = 42;
        config.obs = Some(obs.clone());
        let client =
            AquaClient::connect(&replicas, config, Box::new(ModelBased::default())).unwrap();
        for _ in 0..4 {
            client.call(MethodId::DEFAULT, b"obs").expect("call ok");
        }
        client.finish_observability();

        let spans: Vec<String> = reader.lines_containing(r#""type":"request""#);
        assert_eq!(spans.len(), 4, "{spans:?}");
        assert!(
            spans[0].contains(r#""outcome":"delivered""#),
            "{}",
            spans[0]
        );

        let prom = obs.prometheus();
        assert!(
            prom.contains("aqua_requests_total{client=\"42\"} 4"),
            "{prom}"
        );
        assert!(prom.contains("aqua_wire_frames_sent_total{client=\"42\"}"));
        assert!(prom.contains("aqua_wire_bytes_received_total{client=\"42\"}"));
        assert!(prom.contains("aqua_server_serviced_total{replica=\"0\"}"));
        assert!(prom.contains("aqua_server_service_ns"));
        let delivered = client.with_handler(|h| h.stats().delivered);
        assert_eq!(delivered, 4);
    }

    #[test]
    fn wire_byte_counters_match_framing() {
        // The batching writer must account exactly the framing bytes the
        // old per-frame path would have: counters equal the sum of
        // `encoded_len` over everything sent.
        let (obs, _reader) = aqua_obs::Obs::in_memory();
        let servers = spawn_servers(&[5]);
        let replicas: Vec<(ReplicaId, SocketAddr)> =
            servers.iter().map(|s| (s.replica(), s.addr())).collect();
        let mut config = AquaClientConfig::new(QosSpec::new(ms(500), 0.9).unwrap());
        config.obs = Some(obs.clone());
        let client =
            AquaClient::connect(&replicas, config, Box::new(ModelBased::default())).unwrap();
        for _ in 0..3 {
            client.call(MethodId::DEFAULT, b"frame-check").expect("ok");
        }
        // Everything this client sends has a fixed shape: one Hello plus
        // one Request per call (single replica, no retries).
        let hello = Frame::Hello { client: 0 }.encoded_len() as u64;
        let request = Frame::Request {
            seq: 0,
            method: 0,
            payload: Bytes::from_static(b"frame-check"),
        }
        .encoded_len() as u64;
        let frames = obs
            .registry()
            .counter("aqua_wire_frames_sent_total", &[("client", "0")])
            .get();
        let bytes = obs
            .registry()
            .counter("aqua_wire_bytes_sent_total", &[("client", "0")])
            .get();
        assert_eq!(frames, 4, "one hello + three requests");
        assert_eq!(bytes, hello + 3 * request, "framing unchanged");
    }

    #[test]
    fn concurrent_calls_share_the_client() {
        let servers = spawn_servers(&[10, 10, 10]);
        let qos = QosSpec::new(ms(800), 0.9).unwrap();
        let client = std::sync::Arc::new(client_for(&servers, qos));
        let mut handles = Vec::new();
        for i in 0..8 {
            let c = std::sync::Arc::clone(&client);
            handles.push(std::thread::spawn(move || {
                c.call(MethodId::DEFAULT, format!("c{i}").as_bytes())
                    .map(|o| o.timely)
            }));
        }
        for h in handles {
            assert!(h.join().unwrap().expect("call ok"), "all timely");
        }
        client.with_handler(|h| {
            assert_eq!(h.stats().delivered, 8);
            assert_eq!(h.pending_count(), 0);
        });
    }
    #[test]
    fn a_connection_lost_while_it_opens_is_not_dropped_as_stale() {
        // The peer closes every connection the moment it accepts it, so
        // the reactor can report the loss before `open_connection` has
        // published the connection id. Each loss must still be handled —
        // replica evicted, reconnect scheduled — or the dead id stays in
        // the map for good and the attempts stop.
        let listener = RefusingListener::spawn();
        let mut config = AquaClientConfig::new(QosSpec::new(ms(200), 0.0).unwrap());
        config.give_up_after = ms(400);
        config.reconnect = Some(ReconnectPolicy {
            initial_backoff: ms(1),
            max_backoff: ms(1),
            max_attempts: u32::MAX,
        });
        let client = AquaClient::connect(
            &[(ReplicaId::new(0), listener.addr)],
            config,
            Box::new(ModelBased::default()),
        )
        .expect("the listener accepts");
        assert!(
            eventually(|| listener.accepted() >= 40),
            "reconnects stopped after {} connections: a loss went unhandled",
            listener.accepted()
        );
        drop(client);
    }
}
