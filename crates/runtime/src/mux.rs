//! Multiplexed client handles: many logical clients, few sockets.
//!
//! The thread-per-connection design couples the number of logical clients
//! to the number of sockets: `L` clients against `R` replicas cost
//! `L × R` connections and `2 × L × R` OS threads, and every connection
//! subscribes to the server's `PerfUpdate` broadcast. A [`MuxPool`]
//! instead opens **one** reactor-managed socket per replica and carves
//! the request sequence space into per-handle namespaces: the top
//! [`HANDLE_BITS`] bits of the wire `seq` carry the handle id, the low
//! bits the handle-local sequence number. Servers echo `seq` verbatim,
//! so multiplexing is invisible on the wire — replies route back to the
//! owning handle by their high bits.
//!
//! Each [`MuxHandle`] owns a full `ConcurrentHandler` (its own sliding
//! windows, failure detector, and selection strategy), so handles make
//! independent selection decisions exactly like separate clients would.
//! Replies observed by one handle are fanned to the others as passive
//! perf updates — over a shared socket every handle sees every reply,
//! which keeps all repositories warm without extra wire traffic.
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
//! calls leave their frames for the loop to batch into one `writev` per
//! socket.
//!
//! v1 scope: no retry stage and no reconnect — a lost socket evicts the
//! replica from every handle. Benchmarks and steady-state serving paths
//! need neither; the full [`crate::AquaClient`] remains the durable
//! option.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, Weak};
use std::time::Instant as StdInstant;

use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::{MethodId, PerfReport};
use aqua_core::time::{Duration, Instant};
use aqua_gateway::{ConcurrentHandler, ReplyOutcome};
use aqua_strategies::SelectionStrategy;
use bytes::Bytes;
use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::client::{CallError, CallOutcome, WireMetrics};
use crate::reactor::{NetMetrics, Reactor, ReactorSink};
use crate::wire::Frame;

/// Bits of the wire sequence number reserved for the handle id.
pub const HANDLE_BITS: u32 = 24;
/// Bit position where the handle id starts (low bits are handle-local).
const HANDLE_SHIFT: u32 = 64 - HANDLE_BITS;
/// Mask selecting the handle-local sequence number.
const SEQ_MASK: u64 = (1 << HANDLE_SHIFT) - 1;

/// Configuration of a [`MuxPool`].
#[derive(Debug, Clone)]
pub struct MuxPoolConfig {
    /// QoS specification every handle starts from.
    pub qos: QosSpec,
    /// Sliding-window size `l` for each handle's repository.
    pub window: usize,
    /// Handles give up on a call after this long.
    pub give_up_after: Duration,
    /// Pool identifier sent in `Hello` (diagnostics only).
    pub id: u64,
    /// Optional observability sink. Instruments are pool-level (wire and
    /// syscall counters); handles deliberately attach none, so a pool
    /// with thousands of handles does not explode label cardinality.
    pub obs: Option<aqua_obs::Obs>,
}

impl MuxPoolConfig {
    /// Paper defaults: window 5, give up after 5 s.
    pub fn new(qos: QosSpec) -> Self {
        MuxPoolConfig {
            qos,
            window: 5,
            give_up_after: Duration::from_secs(5),
            id: 0,
            obs: None,
        }
    }
}

/// One resolved call message on a waiter channel.
enum WaitMsg {
    Outcome(CallOutcome),
    NoReplicas,
}

/// An in-flight call awaiting its earliest reply.
struct Waiter {
    tx: Sender<WaitMsg>,
    redundancy: usize,
}

/// Per-handle state shared between its caller thread and the reactor.
struct HandleState {
    handler: ConcurrentHandler,
    /// Handler seq → waiter. One mutex per handle: the only contention
    /// is the owning caller against the reactor thread.
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
    fn deliver(
        &self,
        seq: u64,
        replica: ReplicaId,
        response_time: Duration,
        verdict: aqua_core::failure::TimingVerdict,
        payload: Bytes,
    ) {
        let waiter = {
            let mut waiters = self.waiters.lock();
            waiters.remove(&seq)
        };
        let Some(waiter) = waiter else { return };
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

    /// Fails every in-flight call: the pool has no replicas left.
    fn fail_all(&self, now: Instant) {
        let drained: Vec<(u64, Waiter)> = {
            let mut waiters = self.waiters.lock();
            waiters.drain().collect()
        };
        for (seq, waiter) in drained {
            self.handler.on_give_up(now, seq);
            let _ = waiter.tx.send(WaitMsg::NoReplicas);
        }
    }
}

struct Inner {
    /// Handle id → state of every live handle. Read-mostly: writes only
    /// when a handle is made or dropped.
    handles: RwLock<HashMap<u64, Arc<HandleState>>>,
    /// Replica → reactor connection token.
    conns: RwLock<HashMap<ReplicaId, u64>>,
    reactor: Reactor,
    wire: Option<WireMetrics>,
    epoch: StdInstant,
    ids: Mutex<HandleIds>,
}

impl Inner {
    fn now(&self) -> Instant {
        Instant::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn handle_state(&self, hid: u64) -> Option<Arc<HandleState>> {
        let handles = self.handles.read().unwrap_or_else(|p| p.into_inner());
        handles.get(&hid).cloned()
    }

    /// Fans a perf observation to every handle except `skip` (the handle
    /// that already folded it in through `on_reply`).
    fn fan_perf(&self, skip: Option<u64>, replica: ReplicaId, perf: PerfReport, now: Instant) {
        let states: Vec<Arc<HandleState>> = {
            let handles = self.handles.read().unwrap_or_else(|p| p.into_inner());
            handles
                .iter()
                .filter(|(hid, _)| Some(**hid) != skip)
                .map(|(_, s)| Arc::clone(s))
                .collect()
        };
        for state in states {
            state.handler.on_perf_update(now, replica, perf);
        }
    }
}

impl ReactorSink for Inner {
    fn on_frame(&self, _tag: u64, _conn: u64, frame: Frame) {
        if let Some(wire) = &self.wire {
            wire.on_received(&frame);
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
                let hid = seq >> HANDLE_SHIFT;
                let now = self.now();
                // A dropped handle's replies find no state; those to an
                // earlier owner of a reused id fall below its base.
                let owner = self.handle_state(hid).and_then(|state| {
                    let local = (seq & SEQ_MASK).checked_sub(state.seq_base)?;
                    Some((state, local))
                });
                if let Some((state, local)) = owner {
                    let outcome = state.handler.on_reply(now, local, replica, perf);
                    if let ReplyOutcome::Deliver {
                        response_time,
                        verdict,
                    } = outcome
                    {
                        state.deliver(local, replica, response_time, verdict, payload);
                    }
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
                let perf = PerfReport {
                    service_time: Duration::from_nanos(service_ns),
                    queuing_delay: Duration::from_nanos(queue_ns),
                    queue_len,
                    method: MethodId::new(method),
                };
                self.fan_perf(None, ReplicaId::new(replica), perf, self.now());
            }
            _ => {}
        }
    }

    fn on_disconnect(&self, tag: u64, conn: u64) {
        let id = ReplicaId::new(tag);
        let remaining: Vec<ReplicaId> = {
            let mut conns = self.conns.write().unwrap_or_else(|p| p.into_inner());
            match conns.get(&id) {
                Some(&current) if current == conn => {
                    conns.remove(&id);
                }
                _ => return, // stale: a different connection instance
            }
            conns.keys().copied().collect()
        };
        let now = self.now();
        let states: Vec<Arc<HandleState>> = {
            let handles = self.handles.read().unwrap_or_else(|p| p.into_inner());
            handles.values().map(Arc::clone).collect()
        };
        for state in &states {
            state.handler.on_view(now, remaining.iter().copied());
        }
        if remaining.is_empty() {
            for state in &states {
                state.fail_all(now);
            }
        }
    }
}

/// A pool of reactor-managed replica sockets shared by many logical
/// client handles. See the module docs for the multiplexing scheme.
pub struct MuxPool {
    inner: Arc<Inner>,
    config: MuxPoolConfig,
}

impl std::fmt::Debug for MuxPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let conns = {
            let conns = self.inner.conns.read().unwrap_or_else(|p| p.into_inner());
            conns.len()
        };
        let handles = {
            let handles = self.inner.handles.read().unwrap_or_else(|p| p.into_inner());
            handles.len()
        };
        f.debug_struct("MuxPool")
            .field("connections", &conns)
            .field("handles", &handles)
            .finish()
    }
}

impl MuxPool {
    /// Opens one socket per replica on a fresh reactor.
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
        let inner = Arc::new(Inner {
            handles: RwLock::new(HashMap::new()),
            conns: RwLock::new(HashMap::new()),
            reactor,
            wire,
            epoch: StdInstant::now(),
            ids: Mutex::new(HandleIds::default()),
        });
        let weak = Arc::downgrade(&inner);
        let sink: Weak<dyn ReactorSink> = weak;
        inner.reactor.set_sink(sink);
        for (id, addr) in replicas {
            let stream = TcpStream::connect(*addr)?;
            stream.set_nodelay(true).ok();
            // Register, greet and publish the id under the write lock
            // `on_disconnect` takes first, so a loss reported right after
            // `register` is not discarded as stale (client.rs has the
            // same shape).
            let mut conns = inner.conns.write().unwrap_or_else(|p| p.into_inner());
            let conn = inner.reactor.register(stream, id.index())?;
            let hello = Frame::Hello { client: config.id };
            if inner.reactor.multicast(&[conn], &hello) == 1 {
                if let Some(wire) = &inner.wire {
                    wire.on_sent(&hello);
                }
            }
            conns.insert(*id, conn);
        }
        Ok(MuxPool { inner, config })
    }

    /// Creates a logical client handle with its own selection strategy
    /// and repository, initialized with the pool's current replica set.
    ///
    /// # Panics
    ///
    /// Panics when [`HANDLE_BITS`] worth of handles are alive at once.
    pub fn handle(&self, strategy: Box<dyn SelectionStrategy>) -> MuxHandle {
        let (hid, seq_base) = {
            let mut ids = self.inner.ids.lock();
            ids.free.pop().unwrap_or_else(|| {
                let fresh = ids.next;
                assert!(fresh < (1 << HANDLE_BITS), "handle id space exhausted");
                ids.next += 1;
                (fresh, 0)
            })
        };
        let handler = ConcurrentHandler::new(self.config.qos, self.config.window, strategy);
        let now = self.inner.now();
        let replicas: Vec<ReplicaId> = {
            let conns = self.inner.conns.read().unwrap_or_else(|p| p.into_inner());
            conns.keys().copied().collect()
        };
        for id in &replicas {
            handler.insert_replica(now, *id);
        }
        let state = Arc::new(HandleState {
            handler,
            waiters: Mutex::new(HashMap::new()),
            seq_base,
            next_seq: AtomicU64::new(0),
        });
        {
            let mut handles = self
                .inner
                .handles
                .write()
                .unwrap_or_else(|p| p.into_inner());
            handles.insert(hid, Arc::clone(&state));
        }
        MuxHandle {
            inner: Arc::clone(&self.inner),
            state,
            hid,
            give_up_after: self.config.give_up_after,
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
/// move to a dedicated caller thread. Dropping a handle closes no socket:
/// it takes the handle's state out of the pool and frees its id.
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
        let _in_flight = inner.reactor.enter_call();
        let t0 = inner.now();
        let plan = self.state.handler.plan_request_for(t0, Some(method));
        if plan.replicas.is_empty() {
            self.state.handler.on_give_up(inner.now(), plan.seq);
            return Err(CallError::NoReplicas);
        }
        let seq = plan.seq;
        let wire_seq = self.state.seq_base + seq;
        debug_assert!(
            wire_seq <= SEQ_MASK,
            "handle-local seq overflowed its field"
        );
        self.state.next_seq.fetch_max(seq + 1, Ordering::Relaxed);
        let redundancy = plan.replicas.len();
        let (tx, rx) = bounded(2);
        {
            let mut waiters = self.state.waiters.lock();
            waiters.insert(seq, Waiter { tx, redundancy });
        }
        let targets: Vec<u64> = {
            let conns = inner.conns.read().unwrap_or_else(|p| p.into_inner());
            plan.replicas
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
        if sent == 0 {
            let mut waiters = self.state.waiters.lock();
            waiters.remove(&seq);
            drop(waiters);
            self.state.handler.on_give_up(inner.now(), seq);
            return Err(CallError::GaveUp { redundancy });
        }
        match rx.recv_timeout(std::time::Duration::from(self.give_up_after)) {
            Ok(WaitMsg::Outcome(outcome)) => Ok(outcome),
            Ok(WaitMsg::NoReplicas) => Err(CallError::NoReplicas),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                let now = inner.now();
                if !self.state.handler.on_give_up(now, seq) {
                    // A reply won the race and is being delivered; give it
                    // a moment to land.
                    let msg = rx.recv_timeout(std::time::Duration::from_secs(1)).ok();
                    let mut waiters = self.state.waiters.lock();
                    waiters.remove(&seq);
                    drop(waiters);
                    if let Some(WaitMsg::Outcome(outcome)) = msg {
                        return Ok(outcome);
                    }
                    return Err(CallError::GaveUp { redundancy });
                }
                let mut waiters = self.state.waiters.lock();
                waiters.remove(&seq);
                drop(waiters);
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

    fn pool_against(n: u64, service_ms: u64) -> (Vec<ReplicaServer>, MuxPool) {
        pool_observed(n, service_ms, None)
    }

    fn pool_observed(
        n: u64,
        service_ms: u64,
        obs: Option<aqua_obs::Obs>,
    ) -> (Vec<ReplicaServer>, MuxPool) {
        let servers: Vec<ReplicaServer> = (0..n)
            .map(|i| {
                ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(i), service_ms))
                    .unwrap()
            })
            .collect();
        let replicas: Vec<(ReplicaId, SocketAddr)> =
            servers.iter().map(|s| (s.replica(), s.addr())).collect();
        let mut config = MuxPoolConfig::new(QosSpec::new(Duration::from_millis(500), 0.9).unwrap());
        config.obs = obs;
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
        // Same race as `AquaClient`'s: the peer closes on accept, so the
        // loss can be reported before the connection id is in the map.
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
}
