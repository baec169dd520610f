//! The socket client: one pool of replica sockets, many logical clients.
//!
//! A [`MuxPool`] opens **one** reactor-managed socket per replica and owns
//! everything about those sockets: the `Hello` subscription, teardown as
//! the crash detector, reconnect with exponential backoff, and telling
//! every handle when the membership changes — a lost replica leaves every
//! handle's view, a recovered one rejoins every handle **on probation**,
//! a replica added at runtime starts cold in all of them.
//!
//! A [`MuxHandle`] is one logical client (§5.4's gateway): it owns a full
//! `ConcurrentHandler` (its own sliding windows, failure detector and
//! selection strategy) and drives each call's [`Call`] on the caller's
//! thread: multicast each attempt, then wait for the earliest reply until
//! the next deadline. Handles select independently, like separate clients.
//! The request sequence space is carved into per-handle namespaces: the
//! top [`HANDLE_BITS`] bits of the wire `seq` carry the handle id, the
//! low bits the handle-local sequence number. Servers echo `seq` verbatim,
//! so multiplexing is invisible on the wire — replies route back to the
//! owning handle by their high bits. Replies observed by one handle are
//! fanned to the others as passive perf updates — over a shared socket
//! every handle sees every reply, which keeps all repositories warm
//! without extra wire traffic.
//!
//! Handles come and go: dropping one removes its state from the pool (no
//! reply is fanned to it any more) and returns its id to a free list, so
//! only [`HANDLE_BITS`] worth of *live* handles exhaust the id space. A
//! reused id keeps counting handle-local sequence numbers where its last
//! owner stopped, so a reply still in flight to the old owner — the
//! redundant copies of its last call usually are — can never match a
//! request of the new one.
//!
//! Sending follows the reactor's rule (DESIGN.md §15): a call that is the
//! only one in flight on the pool flushes its own frames, concurrent
//! calls leave their frames for the loop to batch into one write per
//! socket.
//!
//! Lock order: `conns` before `handles`. Membership changes reach the
//! handles while `conns` is held, and a new handle copies the replica set
//! and joins `handles` under the same hold, so no handle can miss a change
//! or apply one out of order.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, Weak};
use std::thread::{JoinHandle, Thread};
use std::time::Instant as StdInstant;

use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::{MethodId, PerfReport};
use aqua_core::time::{Duration, Instant};
use aqua_gateway::{Call, ConcurrentHandler, ReplyOutcome, Step};
use aqua_strategies::SelectionStrategy;
use bytes::Bytes;
use parking_lot::Mutex;

use crate::reactor::{NetMetrics, Reactor, ReactorSink};
use crate::wire::Frame;

/// Bits of the wire sequence number reserved for the handle id.
pub const HANDLE_BITS: u32 = 24;
/// Bit position where the handle id starts (low bits are handle-local).
const HANDLE_SHIFT: u32 = 64 - HANDLE_BITS;
/// Mask selecting the handle-local sequence number.
const SEQ_MASK: u64 = (1 << HANDLE_SHIFT) - 1;

/// Sliding-window size `l` of each handle's repository, the paper's: a
/// rejoined replica's probation clears after this many fresh samples.
const WINDOW: usize = 5;

/// Configuration of a [`MuxPool`] and of every handle made from it.
#[derive(Debug, Clone)]
pub struct MuxPoolConfig {
    /// QoS specification every handle starts from.
    pub qos: QosSpec,
    /// Handles give up on a call after this long (must exceed the
    /// deadline).
    pub give_up_after: Duration,
    /// Pool identifier sent in `Hello` and used as the `client` label of
    /// the pool's metrics.
    pub id: u64,
    /// Optional observability sink. The wire and syscall counters are
    /// pool-level; only a handle made with [`MuxPool::observed_handle`]
    /// adds the handler's metrics and spans, so a pool with thousands of
    /// handles does not explode label cardinality.
    pub obs: Option<aqua_obs::Obs>,
    /// Optional deadline-driven retry this long after a call starts: a
    /// sibling attempt over the replicas not yet asked (see [`Call`]).
    /// `None` disables retries; one due at or past `give_up_after` is
    /// never sent.
    // aqua-lint: allow(knob-census) the socket retry tests (resilience.rs, concurrency.rs, this file) arm it; at `None` the runtime never retries
    pub retry_after: Option<Duration>,
    /// Exponential-backoff reconnect for replicas lost to TCP teardown:
    /// the ceiling of the doubled delay. A recovered replica rejoins the
    /// connection set and every handle's repository **on probation**;
    /// `None` makes eviction final.
    ///
    /// Backoff state is kept per replica and only resets once a **frame**
    /// arrives from the recovered replica — a refusing server that accepts
    /// and immediately drops connections therefore keeps escalating the
    /// delay instead of ping-ponging at the initial backoff.
    // aqua-lint: allow(knob-census) resilience.rs's final-eviction tests set `None`, and this file's refusing-listener test a 1 ms ceiling (at 1 s its attempts take 15 s)
    pub reconnect: Option<Duration>,
}

impl MuxPoolConfig {
    /// Defaults: give up after 5 s, no retry, reconnects backing off up
    /// to 1 s.
    pub fn new(qos: QosSpec) -> Self {
        MuxPoolConfig {
            qos,
            give_up_after: Duration::from_secs(5),
            id: 0,
            obs: None,
            retry_after: None,
            reconnect: Some(Duration::from_secs(1)),
        }
    }
}

/// Delay before a lost replica's first reconnect attempt; each further
/// attempt doubles it, up to [`MuxPoolConfig::reconnect`].
const INITIAL_BACKOFF: Duration = Duration::from_millis(25);

/// Consecutive reconnect attempts without a frame from the replica after
/// which the pool gives up on it.
pub(crate) const MAX_ATTEMPTS: u32 = 20;

/// A successful call.
#[derive(Debug, Clone)]
pub struct CallOutcome {
    /// End-to-end response time `tr`.
    pub response_time: Duration,
    /// Whether the deadline was met.
    pub timely: bool,
    /// Whether the QoS-violation callback fired.
    pub callback: bool,
    /// How many replicas the call's attempts reached.
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
        /// How many replicas the call's attempts reached.
        redundancy: usize,
    },
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::NoReplicas => write!(f, "no replicas available"),
            CallError::GaveUp { redundancy } => {
                write!(f, "no reply from any of the {redundancy} replicas reached")
            }
        }
    }
}

impl std::error::Error for CallError {}

/// Cached wire-level counters (frames/bytes in each direction), so the
/// hot path never touches the registry lock.
struct WireMetrics {
    frames_sent: Arc<aqua_obs::metrics::Counter>,
    bytes_sent: Arc<aqua_obs::metrics::Counter>,
    frames_received: Arc<aqua_obs::metrics::Counter>,
    bytes_received: Arc<aqua_obs::metrics::Counter>,
    reconnects: Arc<aqua_obs::metrics::Counter>,
}

impl WireMetrics {
    fn new(obs: &aqua_obs::Obs, client: u64) -> Self {
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

    fn on_sent(&self, frame: &Frame) {
        self.frames_sent.inc();
        self.bytes_sent.add(frame.encoded_len() as u64);
    }

    fn on_received(&self, frame: &Frame) {
        self.frames_received.inc();
        self.bytes_received.add(frame.encoded_len() as u64);
    }
}

/// A call's resolution: the first reply, whose redundancy the caller
/// fills in, or [`CallError::NoReplicas`] from the disconnect sweep.
type Resolved = Result<CallOutcome, CallError>;

fn resolve(msg: Resolved, redundancy: usize) -> Resolved {
    msg.map(|outcome| CallOutcome {
        redundancy,
        ..outcome
    })
}

fn perf_report(service_ns: u64, queue_ns: u64, queue_len: u32, method: u32) -> PerfReport {
    PerfReport {
        service_time: Duration::from_nanos(service_ns),
        queuing_delay: Duration::from_nanos(queue_ns),
        queue_len,
        method: MethodId::new(method),
    }
}

/// A caller waiting on a reply. The reactor thread unparks it to take
/// its resolution, which waits here and never for the caller, and to
/// read a new view.
struct Waiter {
    caller: Thread,
    resolved: Option<Resolved>,
}

/// Per-handle state shared between its callers and the reactor.
struct HandleState {
    handler: ConcurrentHandler,
    /// The seq of a request's first attempt → the caller waiting on it,
    /// for every call in flight. The handler owns the request's attempts,
    /// the caller's [`Call`] its deadlines and redundancy.
    waiters: Mutex<HashMap<u64, Waiter>>,
    /// Where this handle's wire-local sequence numbers start: one past
    /// the last the id's previous owners used (0 for a fresh id). The
    /// handler counts from 0; the wire carries `seq_base` + that.
    seq_base: u64,
    /// One past the highest handler seq this handle has put on the wire.
    next_seq: AtomicU64,
}

/// Handle ids not in use.
#[derive(Default)]
struct HandleIds {
    /// Ids never handed out start here.
    next: u64,
    /// Ids of dropped handles, each with the wire-local seq its next
    /// owner starts at.
    free: Vec<(u64, u64)>,
}

impl HandleState {
    /// Resolves the waiter of the request whose first reply the handler
    /// has just delivered (and whose other attempts it retired).
    fn deliver(&self, outcome: ReplyOutcome, replica: ReplicaId, payload: Bytes) {
        let ReplyOutcome::Deliver {
            response_time,
            verdict,
            request,
        } = outcome
        else {
            return;
        };
        let mut waiters = self.waiters.lock();
        // `None`: resolved concurrently (give-up or disconnect sweep).
        let Some(waiter) = waiters.get_mut(&request).filter(|w| w.resolved.is_none()) else {
            return;
        };
        waiter.resolved = Some(Ok(CallOutcome {
            response_time,
            timely: verdict.is_timely(),
            callback: verdict.should_notify(),
            redundancy: 0,
            replica,
            payload,
        }));
        waiter.caller.unpark();
    }

    /// Wakes every caller waiting on a reply to read the new view.
    fn nudge_all(&self) {
        for waiter in self.waiters.lock().values() {
            waiter.caller.unpark();
        }
    }

    /// Nobody left who could ever answer: fails every in-flight call at
    /// once instead of letting each caller ride out its give-up timer.
    /// The handler's locks nest inside the waiter table's here, and
    /// nowhere the other way round.
    fn fail_all(&self, now: Instant) {
        for (&request, waiter) in self.waiters.lock().iter_mut() {
            if waiter.resolved.is_none() {
                self.handler.on_give_up(now, request);
                waiter.resolved = Some(Err(CallError::NoReplicas));
                waiter.caller.unpark();
            }
        }
    }

    /// The resolution of the call whose first attempt is `first`. Without
    /// one yet, its caller parks once for it: until `until`, an unpark or
    /// a spurious wake-up. Taking the resolution retires the waiter.
    fn wait(&self, first: u64, until: StdInstant) -> Option<Resolved> {
        let take = || {
            let mut waiters = self.waiters.lock();
            let resolved = waiters.get_mut(&first)?.resolved.take()?;
            waiters.remove(&first);
            Some(resolved)
        };
        take().or_else(|| {
            std::thread::park_timeout(until.saturating_duration_since(StdInstant::now()));
            take()
        })
    }
}

struct Inner {
    config: MuxPoolConfig,
    /// Handle id → state of every live handle. Read-mostly: writes only
    /// when a handle is made or dropped.
    handles: RwLock<HashMap<u64, Arc<HandleState>>>,
    /// Replica → reactor connection token; the reactor owns the sockets.
    conns: RwLock<HashMap<ReplicaId, u64>>,
    /// Last known address of every replica, and the consecutive reconnect
    /// attempts since its last frame.
    peers: Mutex<HashMap<ReplicaId, (SocketAddr, u32)>>,
    reactor: Reactor,
    wire: Option<WireMetrics>,
    epoch: StdInstant,
    ids: Mutex<HandleIds>,
    /// Self-reference handed to background reconnect threads.
    weak: Weak<Inner>,
    /// Set on teardown, which then unparks every reconnect thread: their
    /// backoff waits end at once.
    stopped: Arc<AtomicBool>,
    /// Live reconnect threads, joined when the pool drops (finished
    /// handles are reaped opportunistically).
    reconnect_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    fn now(&self) -> Instant {
        Instant::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Every live handle's state.
    fn states(&self) -> Vec<Arc<HandleState>> {
        let handles = self.handles.read().unwrap_or_else(|p| p.into_inner());
        handles.values().cloned().collect()
    }

    /// The replicas every handle's view holds: those with a connection.
    fn members(&self) -> Vec<ReplicaId> {
        let conns = self.conns.read().unwrap_or_else(|p| p.into_inner());
        conns.keys().copied().collect()
    }

    /// Fans a perf observation to every handle except `skip` (the handle
    /// that already folded it in through `on_reply`), walking the handles
    /// under the read lock: a reply collects nothing.
    fn fan_perf(&self, skip: Option<u64>, replica: ReplicaId, perf: PerfReport, now: Instant) {
        let handles = self.handles.read().unwrap_or_else(|p| p.into_inner());
        for (_, state) in handles.iter().filter(|(hid, _)| Some(**hid) != skip) {
            state.handler.on_perf_update(now, replica, perf);
        }
    }

    /// Opens (or re-opens) the connection to one replica: the socket is
    /// handed to the reactor, which does all I/O from then on, and `admit`
    /// tells every handle's handler about the replica.
    ///
    /// Registration, the `Hello`, publishing the connection id and the
    /// admission all happen under the `conns` write lock, which
    /// `on_disconnect` takes first: a loss the reactor reports right after
    /// `register` — a server that accepts and drops — waits for the id to
    /// be in the map instead of being discarded as stale, and evicts the
    /// replica `admit` has just announced.
    fn open_connection(
        &self,
        id: ReplicaId,
        addr: SocketAddr,
        admit: impl Fn(&ConcurrentHandler, Instant),
    ) -> io::Result<()> {
        let stream = TcpStream::connect(addr)?;
        {
            let mut peers = self.peers.lock();
            peers.entry(id).or_insert((addr, 0)).0 = addr;
        }
        let mut conns = self.conns.write().unwrap_or_else(|p| p.into_inner());
        let conn = self.reactor.register(stream, id.index())?;
        // The subscription handshake is queued before the connection id is
        // published, so it precedes any request.
        let hello = Frame::Hello {
            client: self.config.id,
        };
        if self.reactor.multicast(&[conn], &hello) == 1 {
            if let Some(wire) = &self.wire {
                wire.on_sent(&hello);
            }
        }
        conns.insert(id, conn);
        let now = self.now();
        let handles = self.handles.read().unwrap_or_else(|p| p.into_inner());
        for state in handles.values() {
            admit(&state.handler, now);
        }
        Ok(())
    }

    /// Starts the background reconnect loop for a lost replica (unless
    /// eviction is final). On success the replica rejoins the
    /// connection set and every handle's repository **on probation**. The
    /// thread's handle is tracked so teardown joins it instead of leaking
    /// it; its backoff waits end when the pool stops, so the join is
    /// prompt.
    fn spawn_reconnect(&self, id: ReplicaId) {
        let Some(max_backoff) = self.config.reconnect else {
            return;
        };
        let weak = self.weak.clone();
        let stopped = Arc::clone(&self.stopped);
        let handle = std::thread::spawn(move || loop {
            let Some(inner) = weak.upgrade() else { return };
            {
                let conns = inner.conns.read().unwrap_or_else(|p| p.into_inner());
                if conns.contains_key(&id) {
                    return; // already reconnected elsewhere
                }
            }
            let peer = {
                let mut peers = inner.peers.lock();
                peers.get_mut(&id).map(|(addr, attempts)| {
                    *attempts += 1;
                    (*addr, *attempts - 1)
                })
            };
            let Some((addr, attempt)) = peer else { return };
            if attempt >= MAX_ATTEMPTS {
                return;
            }
            let delay = std::time::Duration::from(INITIAL_BACKOFF)
                .saturating_mul(1u32 << attempt.min(16))
                .min(std::time::Duration::from(max_backoff));
            drop(inner); // don't pin the pool's state alive while waiting
            let until = StdInstant::now() + delay;
            while !stopped.load(Ordering::SeqCst) && StdInstant::now() < until {
                std::thread::park_timeout(until.saturating_duration_since(StdInstant::now()));
            }
            if stopped.load(Ordering::SeqCst) {
                return;
            }
            let Some(inner) = weak.upgrade() else { return };
            let rejoin = |handler: &ConcurrentHandler, now| handler.on_rejoin(now, id);
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

impl ReactorSink for Inner {
    fn on_frame(&self, tag: u64, _conn: u64, frame: Frame) {
        if let Some(wire) = &self.wire {
            wire.on_received(&frame);
        }
        // A frame is proof of life: the replica's reconnect backoff
        // starts over.
        {
            let mut peers = self.peers.lock();
            if let Some((_, attempts)) = peers.get_mut(&ReplicaId::new(tag)) {
                *attempts = 0;
            }
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
                let perf = perf_report(service_ns, queue_ns, queue_len, method);
                let replica = ReplicaId::new(replica);
                debug_assert_eq!(replica.index(), tag, "replies come on their own connection");
                let hid = seq >> HANDLE_SHIFT;
                let now = self.now();
                // A dropped handle's replies find no state; those to an
                // earlier owner of a reused id fall below its base.
                let handles = self.handles.read().unwrap_or_else(|p| p.into_inner());
                let state = handles.get(&hid).cloned();
                drop(handles);
                let owner = state.and_then(|state| {
                    let local = (seq & SEQ_MASK).checked_sub(state.seq_base)?;
                    Some((state, local))
                });
                if let Some((state, local)) = owner {
                    let outcome = state.handler.on_reply(now, local, replica, perf);
                    state.deliver(outcome, replica, payload);
                }
                self.fan_perf(Some(hid), replica, perf, now);
            }
            Frame::PerfUpdate {
                replica,
                service_ns,
                queue_ns,
                queue_len,
                method,
            } => {
                let perf = perf_report(service_ns, queue_ns, queue_len, method);
                self.fan_perf(None, ReplicaId::new(replica), perf, self.now());
            }
            _ => {}
        }
    }

    /// TCP teardown is the crash detector: the replica leaves every
    /// handle's view. `conn` guards against stale events — if a reconnect
    /// already replaced this connection, the old one's teardown is
    /// ignored. A connection still being opened is not stale:
    /// `open_connection` holds the write lock taken here until its id is
    /// in the map.
    fn on_disconnect(&self, tag: u64, conn: u64) {
        let id = ReplicaId::new(tag);
        let now = self.now();
        let (states, none_left) = {
            let mut conns = self.conns.write().unwrap_or_else(|p| p.into_inner());
            if conns.get(&id) != Some(&conn) {
                return; // stale: a different connection instance
            }
            conns.remove(&id);
            // The view goes out under `conns`, as admissions do, so it
            // cannot overtake the rejoin of a replica it does not list.
            let states = self.states();
            for state in &states {
                state.handler.on_view(now, conns.keys().copied());
            }
            (states, conns.is_empty())
        };
        // The pool's own rule: with no replica left, no call can finish.
        // Otherwise a call whose asked replicas all went retries at once.
        for state in &states {
            if none_left {
                state.fail_all(now);
            } else {
                state.nudge_all();
            }
        }
        self.spawn_reconnect(id);
    }
}

/// A pool of reactor-managed replica sockets shared by many logical
/// client handles. See the module docs for the multiplexing scheme.
///
/// Dropping the pool joins its reconnect threads and its reactor, so no
/// thread outlives it; calls on a handle that does give up at once.
pub struct MuxPool {
    inner: Arc<Inner>,
}

impl Drop for MuxPool {
    fn drop(&mut self) {
        // Interrupt backoff waits, join every reconnect thread, then stop
        // and join the reactor.
        self.inner.stopped.store(true, Ordering::SeqCst);
        let threads: Vec<JoinHandle<()>> = {
            let mut threads = self.inner.reconnect_threads.lock();
            threads.drain(..).collect()
        };
        for t in &threads {
            t.thread().unpark();
        }
        for t in threads {
            let _ = t.join();
        }
        self.inner.reactor.shutdown();
        let mut conns = self.inner.conns.write().unwrap_or_else(|p| p.into_inner());
        conns.clear();
    }
}

impl std::fmt::Debug for MuxPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let handles = self.inner.handles.read();
        let handles = handles.unwrap_or_else(|p| p.into_inner()).len();
        f.debug_struct("MuxPool")
            .field("connections", &self.connection_count())
            .field("handles", &handles)
            .finish()
    }
}

impl MuxPool {
    /// Opens one socket per replica on a fresh reactor and subscribes to
    /// the replicas' performance updates.
    ///
    /// # Errors
    ///
    /// Fails if any connection cannot be established.
    pub fn connect(
        replicas: &[(ReplicaId, SocketAddr)],
        config: MuxPoolConfig,
    ) -> io::Result<MuxPool> {
        let net = config.obs.as_ref().map(NetMetrics::new);
        let reactor = Reactor::spawn(net)?;
        let wire = config
            .obs
            .as_ref()
            .map(|obs| WireMetrics::new(obs, config.id));
        let inner = Arc::new_cyclic(|weak| Inner {
            config,
            handles: RwLock::new(HashMap::new()),
            conns: RwLock::new(HashMap::new()),
            peers: Mutex::new(HashMap::new()),
            reactor,
            wire,
            epoch: StdInstant::now(),
            ids: Mutex::new(HandleIds::default()),
            weak: weak.clone(),
            stopped: Arc::default(),
            reconnect_threads: Mutex::new(Vec::new()),
        });
        let sink: Weak<dyn ReactorSink> = inner.weak.clone();
        inner.reactor.set_sink(sink);
        let pool = MuxPool { inner };
        for (id, addr) in replicas {
            pool.add_replica(*id, *addr)?;
        }
        Ok(pool)
    }

    /// Connects to an additional replica at runtime (a new member joining
    /// the service group). The replica starts cold in every handle, so
    /// each one's next request is a full multicast that warms it up
    /// (§5.4.1's bootstrap rule).
    ///
    /// # Errors
    ///
    /// Propagates connection errors; the pool is unchanged on failure.
    pub fn add_replica(&self, id: ReplicaId, addr: SocketAddr) -> io::Result<()> {
        self.inner.open_connection(id, addr, |handler, now| {
            handler.insert_replica(now, id);
        })
    }

    /// Creates a logical client handle with its own selection strategy
    /// and repository, initialized with the pool's current replica set.
    ///
    /// # Panics
    ///
    /// Panics when [`HANDLE_BITS`] worth of handles are alive at once.
    pub fn handle(&self, strategy: Box<dyn SelectionStrategy>) -> MuxHandle {
        self.new_handle(strategy, false)
    }

    /// [`MuxPool::handle`], with the handler's metrics and request spans
    /// attached to the pool's observability sink (if it has one) under
    /// the pool's `client` label.
    pub fn observed_handle(&self, strategy: Box<dyn SelectionStrategy>) -> MuxHandle {
        self.new_handle(strategy, true)
    }

    fn new_handle(&self, strategy: Box<dyn SelectionStrategy>, observed: bool) -> MuxHandle {
        let inner = &self.inner;
        let config = &inner.config;
        let (hid, seq_base) = {
            let mut ids = inner.ids.lock();
            ids.free.pop().unwrap_or_else(|| {
                let fresh = ids.next;
                assert!(fresh < (1 << HANDLE_BITS), "handle id space exhausted");
                ids.next += 1;
                (fresh, 0)
            })
        };
        let mut handler = ConcurrentHandler::new(config.qos, WINDOW, strategy);
        if let Some(obs) = config.obs.as_ref().filter(|_| observed) {
            handler.attach_obs(obs, Some(config.id));
        }
        let state = Arc::new(HandleState {
            handler,
            waiters: Mutex::new(HashMap::new()),
            seq_base,
            next_seq: AtomicU64::new(0),
        });
        {
            // Copy the replica set and join `handles` under one hold of
            // `conns`: a disconnect or admission either is in the copy or
            // finds the handle listed.
            let conns = inner.conns.read().unwrap_or_else(|p| p.into_inner());
            let now = inner.now();
            for id in conns.keys() {
                state.handler.insert_replica(now, *id);
            }
            let mut handles = inner.handles.write().unwrap_or_else(|p| p.into_inner());
            handles.insert(hid, Arc::clone(&state));
        }
        MuxHandle {
            inner: Arc::clone(inner),
            state,
            hid,
            give_up_after: config.give_up_after,
        }
    }

    /// Number of live replica connections.
    pub fn connection_count(&self) -> usize {
        let conns = self.inner.conns.read().unwrap_or_else(|p| p.into_inner());
        conns.len()
    }
}

/// One logical client multiplexed over a [`MuxPool`]'s sockets.
///
/// Cheap to create and independent in its selection decisions; safe to
/// move to a dedicated caller thread or to share between callers —
/// concurrent [`MuxHandle::call`]s plan, send and resolve in parallel.
/// Dropping a handle closes no socket: it takes the handle's state out of
/// the pool and frees its id.
pub struct MuxHandle {
    inner: Arc<Inner>,
    state: Arc<HandleState>,
    hid: u64,
    give_up_after: Duration,
}

impl std::fmt::Debug for MuxHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxHandle").field("id", &self.hid).finish()
    }
}

impl Drop for MuxHandle {
    fn drop(&mut self) {
        {
            let mut handles = self
                .inner
                .handles
                .write()
                .unwrap_or_else(|p| p.into_inner());
            handles.remove(&self.hid);
        }
        // Replies to this handle may still be in flight (the redundant
        // copies of its last call usually are): the id's next owner
        // starts past every seq they can carry.
        let next_base = self.state.seq_base + self.state.next_seq.load(Ordering::Relaxed);
        let mut ids = self.inner.ids.lock();
        ids.free.push((self.hid, next_base));
    }
}

impl MuxHandle {
    /// Runs `f` against this handle's handler (repository inspection,
    /// stats, …).
    pub fn with_handler<R>(&self, f: impl FnOnce(&ConcurrentHandler) -> R) -> R {
        f(&self.state.handler)
    }

    /// Renegotiates this handle's QoS spec at runtime (§5.4.2): the
    /// failure detector restarts under the new deadline and the planning
    /// snapshot is republished, so subsequent calls plan against the new
    /// spec.
    pub fn renegotiate(&self, qos: QosSpec) {
        self.state.handler.renegotiate(self.inner.now(), qos);
    }

    /// Invokes the replicated service through the shared socket pool:
    /// selects replicas per the QoS spec, multicasts the request (tagged
    /// with this handle's id), and returns the earliest reply.
    ///
    /// # Errors
    ///
    /// [`CallError::NoReplicas`] when every replica is gone,
    /// [`CallError::GaveUp`] when no selected replica answered within the
    /// give-up window.
    pub fn call(&self, method: MethodId, payload: &[u8]) -> Result<CallOutcome, CallError> {
        let inner = &self.inner;
        let handler = &self.state.handler;
        let _in_flight = inner.reactor.enter_call();
        let retry_after = inner.config.retry_after;
        let Some((mut call, plan)) = Call::start(
            handler,
            inner.now(),
            method,
            self.give_up_after,
            retry_after,
        ) else {
            return Err(CallError::NoReplicas);
        };
        // The waiter goes in *before* the multicast so even a
        // lightning-fast reply finds it.
        let first = call.seq();
        let waiter = Waiter {
            caller: std::thread::current(),
            resolved: None,
        };
        self.state.waiters.lock().insert(first, waiter);
        let reached = self.transmit(first, method, payload, &plan.replicas);
        let mut raced = None;
        if call.sent(handler, inner.now(), &plan, reached) {
            while let Some(deadline) = call.next_deadline() {
                let wait = deadline.saturating_duration_since(inner.now());
                let until = StdInstant::now() + std::time::Duration::from(wait);
                if let Some(msg) = self.state.wait(first, until) {
                    return resolve(msg, call.redundancy());
                }
                // Woken by a view change, the deadline or at random: a
                // view that kept none of the asked replicas brings the
                // armed retry forward to now.
                call.on_view(inner.now(), &inner.members());
                match call.on_deadline(handler, inner.now()) {
                    Step::Send(retry) => {
                        let reached = self.transmit(retry.seq, method, payload, &retry.replicas);
                        call.sent(handler, inner.now(), &retry, reached);
                    }
                    // A first reply (or the disconnect sweep) won the race
                    // against the give-up: its resolution is in the
                    // waiter, or arrives momentarily.
                    Step::Answered => {
                        let until = StdInstant::now() + std::time::Duration::from_secs(1);
                        raced = loop {
                            let msg = self.state.wait(first, until);
                            if msg.is_some() || StdInstant::now() >= until {
                                break msg;
                            }
                        };
                    }
                    Step::Wait | Step::GaveUp => {}
                }
            }
        }
        self.state.waiters.lock().remove(&first);
        let redundancy = call.redundancy();
        raced.map_or(Err(CallError::GaveUp { redundancy }), |msg| {
            resolve(msg, redundancy)
        })
    }

    /// Multicasts attempt `seq` to `replicas`: the reactor queues the
    /// frame on every listed replica's connection. Returns how many
    /// connections accepted it; the wire counters account at enqueue
    /// time, per accepted connection — byte-for-byte what the
    /// per-connection flush will put on the wire.
    fn transmit(
        &self,
        seq: u64,
        method: MethodId,
        payload: &[u8],
        replicas: &[ReplicaId],
    ) -> usize {
        let inner = &self.inner;
        let wire_seq = self.state.seq_base + seq;
        debug_assert!(
            wire_seq <= SEQ_MASK,
            "handle-local seq overflowed its field"
        );
        self.state.next_seq.fetch_max(seq + 1, Ordering::Relaxed);
        let targets: Vec<u64> = {
            let conns = inner.conns.read().unwrap_or_else(|p| p.into_inner());
            replicas
                .iter()
                .filter_map(|id| conns.get(id).copied())
                .collect()
        };
        let frame = Frame::Request {
            seq: (self.hid << HANDLE_SHIFT) | (wire_seq & SEQ_MASK),
            method: method.index(),
            payload: Bytes::copy_from_slice(payload),
        };
        let sent = inner.reactor.multicast(&targets, &frame);
        if let Some(wire) = &inner.wire {
            for _ in 0..sent {
                wire.on_sent(&frame);
            }
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ReplicaServer, ReplicaServerConfig};
    use crate::test_support::{eventually, RefusingListener};
    use aqua_faults::FaultPlan;
    use aqua_strategies::{FastestMean, ModelBased};
    use std::collections::BTreeSet;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    impl MuxHandle {
        /// Calls awaiting a reply.
        fn waiter_count(&self) -> usize {
            self.state.waiters.lock().len()
        }
    }

    fn pool_against(n: u64, service_ms: u64) -> (Vec<ReplicaServer>, MuxPool) {
        pool_observed(n, service_ms, None)
    }

    fn pool_observed(
        n: u64,
        service_ms: u64,
        obs: Option<aqua_obs::Obs>,
    ) -> (Vec<ReplicaServer>, MuxPool) {
        let servers = (0..n)
            .map(|i| ReplicaServerConfig::quick(ReplicaId::new(i), service_ms))
            .collect();
        let mut config = MuxPoolConfig::new(QosSpec::new(ms(500), 0.9).unwrap());
        config.obs = obs;
        pool_with(servers, config)
    }

    fn pool_with(
        servers: Vec<ReplicaServerConfig>,
        config: MuxPoolConfig,
    ) -> (Vec<ReplicaServer>, MuxPool) {
        let servers: Vec<ReplicaServer> = servers
            .into_iter()
            .map(|server| ReplicaServer::spawn(server).unwrap())
            .collect();
        let replicas: Vec<(ReplicaId, SocketAddr)> =
            servers.iter().map(|s| (s.replica(), s.addr())).collect();
        let pool = MuxPool::connect(&replicas, config).expect("connect");
        (servers, pool)
    }

    #[test]
    fn handles_share_sockets() {
        let (_servers, pool) = pool_against(2, 1);
        let a = pool.handle(Box::new(ModelBased::default()));
        let b = pool.handle(Box::new(ModelBased::default()));
        assert_eq!(pool.connection_count(), 2);
        let out = a.call(MethodId::DEFAULT, b"from-a").expect("call a");
        assert_eq!(out.payload, Bytes::from_static(b"from-a"));
        let out = b.call(MethodId::DEFAULT, b"from-b").expect("call b");
        assert_eq!(out.payload, Bytes::from_static(b"from-b"));
        a.with_handler(|h| assert_eq!(h.stats().delivered, 1));
        b.with_handler(|h| assert_eq!(h.stats().delivered, 1));
    }

    #[test]
    fn interleaved_replies_route_to_their_handle() {
        // Many handles calling concurrently with distinct payloads: each
        // reply must come back on the logical handle that issued it, even
        // though every frame shares the same few sockets.
        let (_servers, pool) = pool_against(2, 0);
        let pool = Arc::new(pool);
        let mut joins = Vec::new();
        for h in 0..8u64 {
            let handle = pool.handle(Box::new(ModelBased::default()));
            joins.push(std::thread::spawn(move || {
                for i in 0..16u64 {
                    let tag = format!("handle-{h}-call-{i}");
                    let out = handle
                        .call(MethodId::DEFAULT, tag.as_bytes())
                        .expect("call");
                    assert_eq!(
                        out.payload.as_slice(),
                        tag.as_bytes(),
                        "reply crossed handles"
                    );
                }
                handle.with_handler(|st| assert_eq!(st.stats().delivered, 16));
            }));
        }
        for j in joins {
            j.join().expect("caller thread");
        }
    }

    #[test]
    fn pool_reports_no_replicas_once_all_sockets_drop() {
        let (servers, pool) = pool_against(1, 1);
        let handle = pool.handle(Box::new(ModelBased::default()));
        handle.call(MethodId::DEFAULT, b"x").expect("first call");
        drop(servers);
        let deadline = StdInstant::now() + std::time::Duration::from_secs(2);
        loop {
            match handle.call(MethodId::DEFAULT, b"x") {
                Err(CallError::NoReplicas) => break,
                _ if StdInstant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                other => panic!("expected NoReplicas, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_socket_lost_while_the_pool_connects_is_not_dropped_as_stale() {
        // The peer closes on accept, so the loss can be reported before
        // the connection id is in the map.
        for _ in 0..20 {
            let listener = RefusingListener::spawn();
            let qos = QosSpec::new(Duration::from_millis(500), 0.9).unwrap();
            let pool = MuxPool::connect(
                &[(ReplicaId::new(0), listener.addr)],
                MuxPoolConfig::new(qos),
            )
            .expect("the listener accepts");
            assert!(
                eventually(|| pool.connection_count() == 0),
                "the dead socket stayed listed"
            );
        }
    }

    #[test]
    fn dropped_handles_are_forgotten_and_their_ids_reused() {
        let (_servers, pool) = pool_against(2, 0);
        let live = || pool.inner.handles.read().unwrap().len();
        let kept = pool.handle(Box::new(ModelBased::default()));
        let mut ids = std::collections::HashSet::new();
        for round in 0..1_000u64 {
            let handle = pool.handle(Box::new(ModelBased::default()));
            ids.insert(handle.hid);
            assert_eq!(live(), 2, "the kept handle and this one");
            if round % 50 == 0 {
                let tag = format!("round-{round}");
                let out = handle
                    .call(MethodId::DEFAULT, tag.as_bytes())
                    .expect("call");
                assert_eq!(out.payload.as_slice(), tag.as_bytes());
            }
        }
        assert_eq!(live(), 1, "only the kept handle is left");
        assert_eq!(
            ids.len(),
            1,
            "every short-lived handle got the same id back"
        );
        assert_eq!(pool.inner.ids.lock().next, 2, "two ids ever handed out");
        kept.call(MethodId::DEFAULT, b"still here").expect("call");
    }

    #[test]
    fn a_reused_id_ignores_replies_to_its_previous_owner() {
        // One replica, 60 ms a request, FIFO. The first handle gives up
        // after 10 ms and is dropped; the second gets its id. Its request
        // queues behind the first one's, so the reply it sees first is
        // the one addressed to its predecessor.
        let (_servers, pool) = pool_against(1, 60);
        let mut first = pool.handle(Box::new(ModelBased::default()));
        first.give_up_after = Duration::from_millis(10);
        let err = first.call(MethodId::DEFAULT, b"first").unwrap_err();
        assert!(matches!(err, CallError::GaveUp { .. }), "{err}");
        let hid = first.hid;
        drop(first);
        let second = pool.handle(Box::new(ModelBased::default()));
        assert_eq!(second.hid, hid);
        let out = second.call(MethodId::DEFAULT, b"second").expect("call");
        assert_eq!(out.payload, Bytes::from_static(b"second"));
    }

    /// A pool with syscall counters attached, `callers` threads each
    /// making `calls` calls on a handle of its own: wake-pipe writes and
    /// the `writev` batch histogram afterwards.
    fn syscalls_of(callers: usize, calls: usize) -> (u64, Arc<aqua_obs::metrics::Histogram>) {
        let obs = aqua_obs::Obs::metrics_only();
        let (_servers, pool) = pool_observed(2, 0, Some(obs.clone()));
        std::thread::scope(|scope| {
            for _ in 0..callers {
                let handle = pool.handle(Box::new(ModelBased::default()));
                scope.spawn(move || {
                    for _ in 0..calls {
                        handle.call(MethodId::DEFAULT, b"x").expect("call");
                    }
                });
            }
        });
        let registry = obs.registry();
        let wakes = registry
            .counter("aqua_net_syscalls_total", &[("op", "wake")])
            .get();
        (
            wakes,
            registry.histogram("aqua_net_writev_batch_frames", &[]),
        )
    }

    #[test]
    fn a_lone_caller_flushes_its_own_frames() {
        let (wakes, batch) = syscalls_of(1, 100);
        assert_eq!(wakes, 0, "nobody to hand over to: no wake-pipe write");
        assert_eq!(batch.max(), Some(1), "nobody to batch with");
        // Two `Hello`s and two copies of every request, one write each.
        assert_eq!(batch.count(), 2 + 2 * 100);
    }

    #[test]
    fn crowded_callers_still_batch() {
        let (wakes, batch) = syscalls_of(8, 200);
        assert!(wakes > 0, "concurrent senders hand over to the loop");
        assert!(
            batch.mean().expect("writes were made") > 1.0,
            "frames of concurrent calls share a writev: {:?} over {}",
            batch.mean(),
            batch.count()
        );
    }

    #[test]
    fn a_handle_made_while_a_socket_dies_holds_no_phantom_replica() {
        // Handles are made flat out while replica 0 crashes: whichever
        // one is half-made when the loss is handled must not keep the
        // dead replica — it would never be sent to, never warm, and hold
        // the handle in cold start (a full multicast on every call).
        let (servers, pool) = pool_against(4, 0);
        let gone = std::sync::atomic::AtomicBool::new(false);
        let handles: Vec<MuxHandle> = std::thread::scope(|scope| {
            let maker = scope.spawn(|| {
                let mut handles = Vec::new();
                while !gone.load(Ordering::SeqCst) {
                    handles.push(pool.handle(Box::new(ModelBased::default())));
                }
                handles
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            servers[0].crash();
            assert!(eventually(|| pool.connection_count() == 3));
            gone.store(true, Ordering::SeqCst);
            maker.join().expect("maker thread")
        });
        assert!(handles.len() > 1, "handles were being made all along");
        let live: BTreeSet<ReplicaId> = (1..4).map(ReplicaId::new).collect();
        let known = |handle: &MuxHandle| -> BTreeSet<ReplicaId> {
            handle.with_handler(|h| h.repository().replica_ids().collect())
        };
        for handle in &handles {
            assert!(
                known(handle).is_subset(&live),
                "handle {} knows {:?}, the pool is connected to {live:?}",
                handle.hid,
                known(handle)
            );
        }
        // The youngest is the one most likely to have raced the loss. Its
        // view turns warm once the republish throttle lets a fresh one
        // out; a phantom replica never warms, so the bound fails the test.
        let youngest = handles.last().expect("at least one");
        let warm = (0..1_000).any(|_| {
            youngest.call(MethodId::DEFAULT, b"warm").expect("call");
            youngest.with_handler(|h| h.planning_view().all_warm())
        });
        assert!(warm, "1 000 calls left the view cold");
        let out = youngest.call(MethodId::DEFAULT, b"x").expect("call");
        assert_eq!(out.redundancy, 2, "warm: Pc = 0.9 needs two of three");
    }

    #[test]
    fn a_recovered_replica_rejoins_every_handle_on_probation() {
        // Replica 0 is down from 150 ms to 450 ms on its own clock.
        let plan = FaultPlan::new().crash_recover(0, Instant::from_millis(150), ms(300));
        let began = StdInstant::now();
        let mut servers: Vec<ReplicaServerConfig> = (0..3)
            .map(|i| ReplicaServerConfig::quick(ReplicaId::new(i), 1))
            .collect();
        servers[0].faults = Some(plan.instantiate(7));
        let mut config = MuxPoolConfig::new(QosSpec::new(ms(500), 0.9).unwrap());
        config.give_up_after = ms(1_000);
        config.reconnect = Some(ms(100));
        let (_servers, pool) = pool_with(servers, config);
        let handles: Vec<MuxHandle> = (0..3)
            .map(|_| pool.handle(Box::new(ModelBased::default())))
            .collect();
        let call_all = || {
            for handle in &handles {
                let _ = handle.call(MethodId::DEFAULT, b"steady");
            }
        };
        // `None`: not in the repository; `Some(on probation)` otherwise.
        let zero_in = |handle: &MuxHandle| {
            let repository = handle.with_handler(|h| h.repository());
            let stats = repository.stats(ReplicaId::new(0));
            stats.map(|s| s.is_on_probation())
        };
        let all_see = |want: Option<bool>| handles.iter().all(|h| zero_in(h) == want);

        assert!(
            eventually(|| {
                call_all();
                pool.connection_count() == 2 && all_see(None)
            }),
            "the crash evicts replica 0 from every handle"
        );
        // Inside the window the server accepts and drops, so the replica
        // flickers in and out; wait it out before looking again.
        std::thread::sleep(std::time::Duration::from_millis(500).saturating_sub(began.elapsed()));
        assert!(eventually(|| pool.connection_count() == 3), "reconnected");
        assert!(all_see(Some(true)), "back in every handle, on probation");
        assert!(
            eventually(|| {
                call_all();
                all_see(Some(false))
            }),
            "l fresh samples clear probation in every handle"
        );
        assert_eq!(pool.connection_count(), 3);
    }

    #[test]
    fn a_crash_forever_window_ends_the_reconnects_and_is_masked() {
        // Replica 0 crashes for good 400 ms into its life: the simulator's
        // one crash form, on sockets.
        let crash_at = std::time::Duration::from_millis(400);
        let plan = FaultPlan::new().crash_recover(0, Instant::from_millis(400), Duration::MAX);
        let mut servers: Vec<ReplicaServerConfig> = (0..3)
            .map(|i| ReplicaServerConfig::quick(ReplicaId::new(i), 1))
            .collect();
        servers[0].faults = Some(plan.instantiate(7));
        let mut config = MuxPoolConfig::new(QosSpec::new(ms(500), 0.9).unwrap());
        let give_up = std::time::Duration::from_millis(1_000);
        config.give_up_after = Duration::from(give_up);
        // Back off 1 ms at most, so the attempts run out within the test.
        config.reconnect = Some(ms(1));
        // Replica 0's clock starts after this instant, so it is down from
        // `crash_at` after it at the latest.
        let spawned = StdInstant::now();
        let (servers, pool) = pool_with(servers, config);
        assert_eq!(pool.connection_count(), 3);

        // Every observation is taken before the callers stop and asserted
        // after they are joined, so a failed one cannot leave them running.
        let given_up = || {
            let attempts = pool.inner.peers.lock()[&ReplicaId::new(0)].1;
            let threads = pool.inner.reconnect_threads.lock();
            attempts > MAX_ATTEMPTS && threads.iter().all(JoinHandle::is_finished)
        };
        let stop = AtomicBool::new(false);
        let (calls, dropped, gave_up_at, after) = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..3)
                .map(|_| {
                    let handle = pool.handle(Box::new(ModelBased::default()));
                    let stop = &stop;
                    scope.spawn(move || {
                        let mut calls = Vec::new();
                        while !stop.load(Ordering::SeqCst) {
                            let issued = spawned.elapsed();
                            let out = handle.call(MethodId::DEFAULT, b"steady");
                            calls.push((issued, spawned.elapsed() - issued, out));
                            std::thread::sleep(std::time::Duration::from_millis(5));
                        }
                        calls
                    })
                })
                .collect();
            let dropped = eventually(|| pool.connection_count() < 3).then(|| spawned.elapsed());
            let serviced = servers[0].serviced();
            let gave_up_at = eventually(given_up).then(|| spawned.elapsed());
            std::thread::sleep(std::time::Duration::from_millis(300));
            let after = (
                pool.inner.peers.lock()[&ReplicaId::new(0)].1,
                pool.connection_count(),
                servers[0].serviced() - serviced,
            );
            stop.store(true, Ordering::SeqCst);
            let calls: Vec<_> = callers
                .into_iter()
                .flat_map(|caller| caller.join().expect("no caller panics"))
                .collect();
            (calls, dropped, gave_up_at, after)
        });
        // (a) Replica 0's connections drop at the window's start.
        let dropped = dropped.expect("replica 0's connections never dropped");
        assert!(
            dropped >= crash_at,
            "dropped at {dropped:?}, before the window"
        );
        // (b) Every reconnect is dropped at once, so the pool stops trying
        // after `MAX_ATTEMPTS`, and a dead replica serves nothing.
        let gave_up_at = gave_up_at.expect("the reconnect attempts never ran out");
        assert_eq!(
            after,
            (MAX_ATTEMPTS + 1, 2, 0),
            "(attempts, connections, serviced)"
        );
        // (c) Calls keep being served by the other replicas, and (d) no
        // caller hangs.
        let margin = std::time::Duration::from_millis(100);
        for (issued, took, out) in &calls {
            assert!(
                *took < give_up + margin,
                "a call issued at {issued:?} took {took:?}"
            );
            if *issued >= crash_at + margin {
                let out = out.as_ref().expect("the survivors answer");
                assert_ne!(out.replica, ReplicaId::new(0), "issued at {issued:?}");
            }
        }
        let served_after = |at| calls.iter().filter(|c| c.0 >= at && c.2.is_ok()).count();
        assert!(
            served_after(gave_up_at) > 0,
            "calls go on once the pool gives up"
        );
    }

    #[test]
    fn each_handle_retries_past_a_stalled_replica() {
        // `stalled_replica_is_masked_by_deadline_retry` (tests/resilience.rs)
        // with two handles on the pool: replica 0 is the fastest and
        // pauses from 400 ms to 1.9 s on its own clock.
        let plan = FaultPlan::new().pause(0, Instant::from_millis(400), ms(1_500));
        let began = StdInstant::now();
        let mut servers = vec![
            ReplicaServerConfig::quick(ReplicaId::new(0), 5),
            ReplicaServerConfig::quick(ReplicaId::new(1), 20),
        ];
        servers[0].faults = Some(plan.instantiate(7));
        let mut config = MuxPoolConfig::new(QosSpec::new(ms(100), 0.9).unwrap());
        config.give_up_after = ms(1_200);
        config.retry_after = Some(ms(150));
        let (_servers, pool) = pool_with(servers, config);
        // FastestMean k=1 pins a warm handle's selection to replica 0.
        let handles = [
            pool.handle(Box::new(FastestMean { k: 1 })),
            pool.handle(Box::new(FastestMean { k: 1 })),
        ];
        for handle in &handles {
            for _ in 0..3 {
                handle.call(MethodId::DEFAULT, b"warm").expect("warm-up");
            }
            handle.with_handler(|h| assert!(h.repository().all_warm()));
        }
        std::thread::sleep(std::time::Duration::from_millis(500).saturating_sub(began.elapsed()));
        for handle in &handles {
            let issued = StdInstant::now();
            let out = handle
                .call(MethodId::DEFAULT, b"stalled")
                .expect("the retry masks the stall");
            let elapsed = issued.elapsed();
            assert_eq!(out.replica, ReplicaId::new(1), "the retry's replica");
            assert_eq!(out.redundancy, 2, "one original target + one retry");
            assert!(
                elapsed >= std::time::Duration::from_millis(150),
                "no reply can precede the retry deadline, got {elapsed:?}"
            );
            handle.with_handler(|h| {
                assert_eq!(h.stats().retries, 1, "retries count per handle");
                assert_eq!(h.pending_count(), 0);
            });
            assert_eq!(handle.waiter_count(), 0, "both attempts left the table");
        }
    }

    #[test]
    fn a_retry_due_at_the_give_up_is_never_sent() {
        // Both replicas pause from 1 s to 3 s on their own clocks,
        // and the retry deadline is the give-up: a warm handle's call
        // must give up without multicasting a retry it would give up in
        // the same instant.
        let plan = FaultPlan::new()
            .pause(0, Instant::from_secs(1), ms(2_000))
            .pause(1, Instant::from_secs(1), ms(2_000));
        let began = StdInstant::now();
        let mut servers = vec![
            ReplicaServerConfig::quick(ReplicaId::new(0), 5),
            ReplicaServerConfig::quick(ReplicaId::new(1), 20),
        ];
        for server in &mut servers {
            server.faults = Some(plan.instantiate(7));
        }
        let mut config = MuxPoolConfig::new(QosSpec::new(ms(50), 0.9).unwrap());
        config.give_up_after = ms(100);
        config.retry_after = Some(ms(100));
        let (_servers, pool) = pool_with(servers, config);
        // FastestMean k=1 asks one replica once warm, leaving one to retry.
        let handle = pool.handle(Box::new(FastestMean { k: 1 }));
        for _ in 0..3 {
            handle.call(MethodId::DEFAULT, b"warm").expect("warm-up");
        }
        handle.with_handler(|h| assert!(h.repository().all_warm()));
        std::thread::sleep(std::time::Duration::from_millis(1_300).saturating_sub(began.elapsed()));
        let err = handle.call(MethodId::DEFAULT, b"paused").unwrap_err();
        assert!(matches!(err, CallError::GaveUp { redundancy: 1 }), "{err}");
        handle.with_handler(|h| {
            let stats = h.stats();
            assert_eq!(stats.retries, 0, "no retry went out");
            assert_eq!((stats.gave_up, stats.abandoned), (1, 0));
            assert_eq!(h.pending_count(), 0);
        });
        assert_eq!(handle.waiter_count(), 0);
    }

    /// Metric names (labels and values stripped) in `obs` and the record
    /// types in its journal.
    fn observed_names(
        obs: &aqua_obs::Obs,
        reader: &aqua_obs::journal::MemoryReader,
    ) -> (BTreeSet<String>, BTreeSet<String>) {
        let metrics = obs
            .prometheus()
            .lines()
            .filter(|line| !line.starts_with('#') && !line.is_empty())
            .filter_map(|line| line.split(['{', ' ']).next().map(str::to_string))
            .collect();
        let records = reader
            .lines()
            .iter()
            .filter_map(|line| {
                let rest = line.split(r#""type":""#).nth(1)?;
                rest.split('"').next().map(str::to_string)
            })
            .collect();
        (metrics, records)
    }

    #[test]
    fn an_observed_handle_journals_what_an_observed_client_does() {
        // `observed_calls_emit_metrics_and_spans` (client.rs) with an
        // observed handle as the second input: same calls, same names.
        let run = |as_client: bool| {
            let (obs, reader) = aqua_obs::Obs::in_memory();
            let servers: Vec<ReplicaServer> = (0..2)
                .map(|i| {
                    ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(i), 5)).unwrap()
                })
                .collect();
            let replicas: Vec<(ReplicaId, SocketAddr)> =
                servers.iter().map(|s| (s.replica(), s.addr())).collect();
            let mut config = MuxPoolConfig::new(QosSpec::new(ms(500), 0.9).unwrap());
            config.id = 42;
            config.obs = Some(obs.clone());
            let strategy = Box::new(ModelBased::default());
            if as_client {
                let pool = MuxPool::connect(&replicas, config).unwrap();
                let client = pool.observed_handle(strategy);
                for _ in 0..4 {
                    client.call(MethodId::DEFAULT, b"obs").expect("call");
                }
                client.with_handler(|h| h.flush_observability());
            } else {
                let pool = MuxPool::connect(&replicas, config).unwrap();
                let observed = pool.observed_handle(strategy);
                let plain = pool.handle(Box::new(ModelBased::default()));
                for _ in 0..4 {
                    observed.call(MethodId::DEFAULT, b"obs").expect("call");
                    plain.call(MethodId::DEFAULT, b"obs").expect("call");
                }
                observed.with_handler(|h| h.flush_observability());
                plain.with_handler(|h| h.flush_observability());
            }
            let spans = reader.lines_containing(r#""type":"request""#).len();
            assert_eq!(spans, 4, "one span per observed call, none for plain ones");
            let prom = obs.prometheus();
            assert!(
                prom.contains("aqua_requests_total{client=\"42\"} 4"),
                "{prom}"
            );
            observed_names(&obs, &reader)
        };
        assert_eq!(run(true), run(false));
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

    fn addrs(servers: &[ReplicaServer]) -> Vec<(ReplicaId, SocketAddr)> {
        servers.iter().map(|s| (s.replica(), s.addr())).collect()
    }

    /// A single client: a pool and the one observed handle made from it.
    fn client(replicas: &[(ReplicaId, SocketAddr)], config: MuxPoolConfig) -> (MuxPool, MuxHandle) {
        let pool = MuxPool::connect(replicas, config).expect("connect");
        let handle = pool.observed_handle(Box::new(ModelBased::default()));
        (pool, handle)
    }

    fn client_for(servers: &[ReplicaServer], qos: QosSpec) -> (MuxPool, MuxHandle) {
        client(&addrs(servers), MuxPoolConfig::new(qos))
    }

    #[test]
    fn end_to_end_calls_over_sockets() {
        let servers = spawn_servers(&[5, 10, 15]);
        let qos = QosSpec::new(ms(500), 0.9).unwrap();
        let (_pool, client) = client_for(&servers, qos);
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
        let (_pool, client) = client_for(&servers, qos);
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
        let mut config = MuxPoolConfig::new(qos);
        config.give_up_after = ms(400);
        let (_pool, client) = client(&addrs(&servers), config);
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
        let (_pool, client) = client_for(&servers, qos);
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
        let (_pool, client) = client_for(&servers, qos);
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
        let mut config = MuxPoolConfig::new(QosSpec::new(ms(500), 0.9).unwrap());
        config.id = 42;
        config.obs = Some(obs.clone());
        let (_pool, client) = client(&addrs(&servers), config);
        for _ in 0..4 {
            client.call(MethodId::DEFAULT, b"obs").expect("call ok");
        }
        client.with_handler(|h| h.flush_observability());

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
        let mut config = MuxPoolConfig::new(QosSpec::new(ms(500), 0.9).unwrap());
        config.obs = Some(obs.clone());
        let (_pool, client) = client(&addrs(&servers), config);
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
        let (_pool, client) = client_for(&servers, qos);
        let client = Arc::new(client);
        let mut handles = Vec::new();
        for i in 0..8 {
            let c = Arc::clone(&client);
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
    fn sixteen_callers_leave_the_pending_and_waiter_tables_empty() {
        // One client is one handle: every caller goes through the same
        // waiter table.
        let servers = spawn_servers(&[0, 0, 0]);
        let qos = QosSpec::new(ms(800), 0.9).unwrap();
        let (_pool, client) = client_for(&servers, qos);
        std::thread::scope(|scope| {
            for t in 0..16 {
                let client = &client;
                scope.spawn(move || {
                    for i in 0..50 {
                        let tag = format!("t{t}c{i}");
                        let out = client
                            .call(MethodId::DEFAULT, tag.as_bytes())
                            .expect("call");
                        assert_eq!(out.payload.as_slice(), tag.as_bytes());
                    }
                });
            }
        });
        client.with_handler(|h| {
            assert_eq!(h.stats().delivered, 16 * 50);
            assert_eq!(h.pending_count(), 0);
        });
        assert_eq!(client.waiter_count(), 0);
    }

    #[test]
    fn a_connection_lost_while_it_opens_is_not_dropped_as_stale() {
        // The peer closes every connection the moment it accepts it, so
        // the reactor can report the loss before `open_connection` has
        // published the connection id. Each loss must still be handled —
        // replica evicted, reconnect scheduled — or the dead id stays in
        // the map for good and the attempts stop.
        let listener = RefusingListener::spawn();
        let mut config = MuxPoolConfig::new(QosSpec::new(ms(200), 0.0).unwrap());
        config.give_up_after = ms(400);
        config.reconnect = Some(ms(1));
        let (pool, client) = client(&[(ReplicaId::new(0), listener.addr)], config);
        // The first connection and every reconnect attempt.
        let all = u64::from(MAX_ATTEMPTS) + 1;
        assert!(
            eventually(|| listener.accepted() >= all),
            "reconnects stopped after {} connections: a loss went unhandled",
            listener.accepted()
        );
        drop(client);
        drop(pool);
    }
}
