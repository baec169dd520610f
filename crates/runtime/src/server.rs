//! A replica server over real TCP sockets.
//!
//! One [`ReplicaServer`] is one AQuA server replica on localhost, run by
//! **one thread**: a level-triggered `epoll` loop over the listener, every
//! connection and a wake socket, the shape of the client's reactor. The
//! loop drives §5.1 Stage 3, an [`aqua_replica::ReplicaCore`] run on the
//! fault schedule's clock (time since spawn), as the simulated replica
//! does. The core stamps each request as the loop reads it (t2) and starts
//! the head job (t3); the loop piggybacks the measured service time and
//! `tq = t3 − t2` on the reply, and sends the same numbers to every other
//! subscriber as a `PerfUpdate` (§5.4.1). Service time is simulated by
//! waiting out a sampled duration; the *measured* elapsed time is what gets
//! reported, exactly like the instrumented gateway of the paper.
//!
//! Everything that waits is a deadline of the loop, kept with
//! `epoll_wait`'s timeout: the job in service, a reply held back by a delay
//! spike, and the next edge of the fault schedule (down windows, pauses,
//! service factors, the fault journal). Only the sub-millisecond remainder
//! the timeout cannot express is slept, so arrivals are read and stamped
//! while a job is in service, and a zero-time job is answered in the wake
//! that read it. Nothing polls.
//!
//! Every queue is bounded. The loop queues at most `FIFO_CAP` jobs; at that
//! depth it reads no connection, so backpressure reaches the client through
//! TCP. Replies and updates are written nonblocking from each
//! connection's [`Conn`] output, with `EPOLLOUT` armed only under
//! backpressure, and a peer that lets more than `MAX_UNSENT` bytes pile up
//! is closed like any other failed peer — no peer can wedge the replica.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use aqua_core::qos::ReplicaId;
use aqua_core::repository::{MethodId, PerfReport};
use aqua_core::time::Instant;
use aqua_faults::{FaultSchedule, FaultTracker};
use aqua_replica::{LoadModel, ReplicaCore, ServiceTimeModel};
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::conn::Conn;
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wire::Frame;

/// Jobs the loop queues at most. At this depth it reads nothing.
const FIFO_CAP: usize = 256;

/// Epoll cookie of the listener; connections count up from zero.
const LISTENER: u64 = u64::MAX;

/// Epoll cookie of the wake socket.
const WAKE: u64 = u64::MAX - 1;

/// Events pulled per `epoll_wait`.
const MAX_EVENTS: usize = 64;

/// Configuration of one socket replica.
#[derive(Debug, Clone)]
pub struct ReplicaServerConfig {
    /// This replica's identity.
    pub replica: ReplicaId,
    /// Per-request service-time distribution (waited out in real time).
    pub service: ServiceTimeModel,
    /// RNG seed for the service-time draws.
    pub seed: u64,
    /// Optional observability sink: serviced counts, measured service and
    /// queuing times, and the instantaneous queue depth.
    pub obs: Option<aqua_obs::Obs>,
    /// Scheduled fault injection on the server's own clock (zero at
    /// spawn): crash-and-recover windows refuse connections and drop
    /// queued work, pauses stall the FIFO (queued work survives),
    /// degradations stretch the service time, delay spikes
    /// postpone replies, and message drops swallow them.
    // aqua-lint: allow(knob-census) the socket resilience tests (resilience.rs, concurrency.rs, mux.rs) inject their faults here; at `None` nothing fails
    pub faults: Option<FaultSchedule>,
}

impl ReplicaServerConfig {
    /// A responsive test replica with deterministic service time.
    pub fn quick(replica: ReplicaId, service_ms: u64) -> Self {
        ReplicaServerConfig {
            replica,
            service: ServiceTimeModel::Deterministic(aqua_core::time::Duration::from_millis(
                service_ms,
            )),
            seed: replica.index(),
            obs: None,
            faults: None,
        }
    }
}

/// Cached server-side metric handles, created once per server.
struct ServerMetrics {
    serviced: Arc<aqua_obs::metrics::Counter>,
    service_ns: Arc<aqua_obs::metrics::Histogram>,
    queue_ns: Arc<aqua_obs::metrics::Histogram>,
    queue_depth: Arc<aqua_obs::metrics::Gauge>,
}

impl ServerMetrics {
    fn new(obs: &aqua_obs::Obs, replica: ReplicaId) -> Self {
        let replica = replica.index().to_string();
        let labels = [("replica", replica.as_str())];
        let registry = obs.registry();
        ServerMetrics {
            serviced: registry.counter("aqua_server_serviced_total", &labels),
            service_ns: registry.histogram("aqua_server_service_ns", &labels),
            queue_ns: registry.histogram("aqua_server_queue_ns", &labels),
            queue_depth: registry.gauge("aqua_server_queue_depth", &labels),
        }
    }
}

/// What the handle and the loop share.
#[derive(Debug)]
struct Shared {
    shutdown: AtomicBool,
    serviced: AtomicU64,
    /// Live connections and subscribers, as the loop last counted them.
    connections: AtomicUsize,
    subscribers: AtomicUsize,
    /// `crash`'s end of the wake socket, blocking: a byte written wakes the
    /// loop, and end-of-file comes once the loop has closed everything.
    wake: UnixStream,
}

impl Shared {
    fn new(wake: UnixStream) -> Shared {
        Shared {
            shutdown: AtomicBool::new(false),
            serviced: AtomicU64::new(0),
            connections: AtomicUsize::new(0),
            subscribers: AtomicUsize::new(0),
            wake,
        }
    }
}

/// Handle to a running socket replica. Dropping the handle crashes the
/// replica (all connections are torn down), which is also how crash tests
/// inject failures.
#[derive(Debug)]
pub struct ReplicaServer {
    addr: SocketAddr,
    replica: ReplicaId,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl ReplicaServer {
    /// Binds a listener on `127.0.0.1:0` and spawns the server's one
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates socket binding, epoll and thread-spawn errors.
    pub fn spawn(config: ReplicaServerConfig) -> io::Result<ReplicaServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let replica = config.replica;
        let (wake, loop_wake) = UnixStream::pair()?;
        let shared = Arc::new(Shared::new(wake));
        let server = ServerLoop::new(config, listener, loop_wake, Arc::clone(&shared))?;
        let thread = std::thread::Builder::new()
            .name("aqua-replica".to_string())
            .spawn(move || server.run())?;
        Ok(ReplicaServer {
            addr,
            replica,
            shared,
            thread: Some(thread),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This replica's identity.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// Requests serviced so far.
    pub fn serviced(&self) -> u64 {
        self.shared.serviced.load(Ordering::Relaxed)
    }

    /// Crashes the replica: connections are closed, the queue is dropped,
    /// and no further requests are serviced. Returns once every connection
    /// and the listener are shut. Idempotent.
    pub fn crash(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let mut wake = &self.shared.wake;
        let _ = wake.write(&[1u8]);
        // The loop never writes to its end; it hangs up after closing every
        // connection and the listener, and the read sees end-of-file.
        while matches!(
            wake.read(&mut [0u8; 1]),
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted
        ) {}
    }
}

impl Drop for ReplicaServer {
    fn drop(&mut self) {
        self.crash();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One accepted connection, owned by the loop.
struct Peer {
    conn: Conn,
    /// Sent a `Hello`: gets a `PerfUpdate` for every other peer's request.
    subscribed: bool,
}

/// Where a request's reply goes.
struct Job {
    conn: u64,
    seq: u64,
    payload: Bytes,
}

/// A job whose service has ended, and what the fault schedule decided.
struct Served {
    job: Job,
    perf: PerfReport,
    /// The fault schedule loses the reply.
    dropped: bool,
}

/// The server's thread: every socket, Stage 3 and the fault clock.
struct ServerLoop {
    shared: Arc<Shared>,
    replica: ReplicaId,
    core: ReplicaCore<Job>,
    rng: SmallRng,
    metrics: Option<ServerMetrics>,
    faults: FaultSchedule,
    /// The fault journal, when there is a sink and a schedule.
    journal: Option<(aqua_obs::Obs, FaultTracker)>,
    /// The fault schedule's time origin: spawn.
    epoch: StdInstant,
    /// The next fault-schedule edge to act on.
    next_edge: Option<StdInstant>,
    /// Inside a scheduled down window.
    down: bool,
    epoll: Epoll,
    listener: TcpListener,
    conns: HashMap<u64, Peer>,
    next_conn: u64,
    /// When the job in service ends; once it has, when a delay spike lets
    /// its reply go.
    due: Option<StdInstant>,
    /// A reply held back by a delay spike.
    held: Option<Served>,
    /// Whether connections are read; not while `FIFO_CAP` jobs wait.
    reading: bool,
    /// Connections whose assembler may hold frames a full queue turned away.
    stalled: VecDeque<u64>,
    /// Connections with new output, or room for it again, for the
    /// end-of-wake flush.
    dirty: Vec<u64>,
    /// Peers that failed while a reply or an update was queued.
    failed: Vec<u64>,
    /// The loop's end of the wake socket.
    wake: UnixStream,
}

impl ServerLoop {
    fn new(
        config: ReplicaServerConfig,
        listener: TcpListener,
        wake: UnixStream,
        shared: Arc<Shared>,
    ) -> io::Result<ServerLoop> {
        listener.set_nonblocking(true)?;
        wake.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER)?;
        epoll.add(wake.as_raw_fd(), EPOLLIN, WAKE)?;
        let faults = config.faults.unwrap_or_default();
        let epoch = StdInstant::now();
        let journal = config
            .obs
            .clone()
            .filter(|_| !faults.is_empty())
            .map(|obs| (obs, FaultTracker::new(faults.specs().len())));
        Ok(ServerLoop {
            shared,
            replica: config.replica,
            core: ReplicaCore::new(
                config.replica,
                config.service,
                Vec::new(),
                LoadModel::nominal(),
                faults.clone(),
            ),
            rng: SmallRng::seed_from_u64(config.seed),
            metrics: config
                .obs
                .as_ref()
                .map(|obs| ServerMetrics::new(obs, config.replica)),
            // A schedule's first edge is acted on at once: journal and
            // down state from time zero.
            next_edge: (!faults.is_empty()).then_some(epoch),
            faults,
            journal,
            epoch,
            down: false,
            epoll,
            listener,
            conns: HashMap::new(),
            next_conn: 0,
            due: None,
            held: None,
            reading: true,
            stalled: VecDeque::new(),
            dirty: Vec::new(),
            failed: Vec::new(),
            wake,
        })
    }

    fn stopped(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    fn run(mut self) {
        let mut events = [EpollEvent::EMPTY; MAX_EVENTS];
        loop {
            self.advance();
            self.flush_dirty();
            if self.stopped() {
                break;
            }
            let timeout = self.wait_ms();
            let Ok(n) = self.epoll.wait(&mut events, timeout) else {
                break;
            };
            let now = StdInstant::now();
            for ev in &events[..n] {
                let (token, bits) = (ev.data, ev.events);
                match token {
                    LISTENER => self.accept(),
                    WAKE => {
                        let _ = (&self.wake).read(&mut [0u8; 16]);
                    }
                    _ => self.on_conn_event(token, bits, now),
                }
            }
            if self.stopped() {
                break; // crashed: nothing read in this wake is serviced
            }
        }
        // Every connection and the listener close before the wake socket,
        // whose end-of-file is what `crash` waits for.
        self.close_all();
        drop(self.listener);
        drop(self.wake);
    }

    /// `epoll_wait`'s timeout for the next deadline — the job in service,
    /// a held reply, the next fault edge — or `-1` with none. A remainder
    /// under a millisecond is slept here and the wait only polls.
    fn wait_ms(&self) -> i32 {
        let Some(due) = [self.due, self.next_edge].into_iter().flatten().min() else {
            return -1;
        };
        let left = due.saturating_duration_since(StdInstant::now());
        if left >= StdDuration::from_millis(1) {
            return i32::try_from(left.as_millis()).unwrap_or(i32::MAX);
        }
        std::thread::sleep(left);
        0
    }

    /// Acts on everything due by now: the fault edge, then Stage 3.
    fn advance(&mut self) {
        let now = StdInstant::now();
        if self.next_edge.is_some_and(|edge| edge <= now) {
            self.on_fault_edge(now);
        }
        self.serve();
    }

    /// Journals the fault edges passed and, entering a down window, drops
    /// every connection with all queued and in-service work, like a
    /// crashed process. Then aims at the next edge.
    fn on_fault_edge(&mut self, now: StdInstant) {
        let at = fault_time(self.epoch, now);
        if let Some((obs, tracker)) = &mut self.journal {
            tracker.advance(obs, &self.faults, at);
        }
        let down = self.faults.is_down(self.replica, at);
        if down && !self.down {
            self.close_all();
            self.core.crash();
            self.due = None;
            self.held = None;
            self.stalled.clear();
            self.reading = true;
        }
        self.down = down;
        self.next_edge = self
            .faults
            .next_transition_after(at)
            .map(|edge| self.epoch + StdDuration::from_nanos(edge.as_nanos()));
    }

    /// Runs Stage 3 up to now: finishes the job in service once it is due,
    /// sends its reply once any delay spike has passed, and starts the next
    /// job unless a pause holds the queue. A zero-time job is started and
    /// answered in one call.
    fn serve(&mut self) {
        loop {
            let now = StdInstant::now();
            if self.due.is_some_and(|due| now < due) {
                return;
            }
            let at = fault_time(self.epoch, now);
            if self.due.take().is_none() {
                // Nothing to start, or a pause holds the queue until the
                // edge that ends it wakes the loop.
                let Some(due) = self.core.start(at, &mut self.rng) else {
                    return;
                };
                self.refill(now);
                self.due = Some(self.epoch + StdDuration::from_nanos(due.as_nanos()));
                continue;
            }
            let served = match self.held.take() {
                Some(served) => served,
                None => {
                    let Some((job, perf)) = self.core.finish(at) else {
                        return;
                    };
                    if let Some(m) = &self.metrics {
                        m.serviced.inc();
                        m.service_ns.record(perf.service_time.as_nanos());
                        m.queue_ns.record(perf.queuing_delay.as_nanos());
                        m.queue_depth.set(i64::from(perf.queue_len));
                    }
                    let dropped = self.faults.should_drop(Some(self.replica), None, at);
                    let served = Served { job, perf, dropped };
                    let spike = self.faults.reply_delay(self.replica, at);
                    if !spike.is_zero() {
                        // A network delay spike on the reply path.
                        self.held = Some(served);
                        self.due = Some(now + StdDuration::from(spike));
                        continue;
                    }
                    served
                }
            };
            self.reply(served);
            self.shared.serviced.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Queues the reply for the requester and a `PerfUpdate` for every
    /// other subscriber (the requester has the data piggybacked).
    fn reply(&mut self, served: Served) {
        let Served { job, perf, dropped } = served;
        let replica = self.replica.index();
        let (service_ns, queue_ns) = (perf.service_time.as_nanos(), perf.queuing_delay.as_nanos());
        let (queue_len, method) = (perf.queue_len, perf.method.index());
        if !dropped {
            if let Some(peer) = self.conns.get_mut(&job.conn) {
                let reply = Frame::Reply {
                    seq: job.seq,
                    replica,
                    service_ns,
                    queue_ns,
                    queue_len,
                    method,
                    payload: job.payload,
                };
                self.dirty.push(job.conn);
                if peer.conn.queue(&reply).is_err() {
                    self.failed.push(job.conn);
                }
            }
        }
        let update = Frame::PerfUpdate {
            replica,
            service_ns,
            queue_ns,
            queue_len,
            method,
        };
        for (&token, peer) in &mut self.conns {
            if peer.subscribed && token != job.conn {
                self.dirty.push(token);
                if peer.conn.queue(&update).is_err() {
                    self.failed.push(token);
                }
            }
        }
        while let Some(token) = self.failed.pop() {
            self.close(token);
        }
    }

    /// Room in the queue again: frames a full queue left in assemblers go
    /// first, in the order they were turned away; then reading resumes.
    fn refill(&mut self, now: StdInstant) {
        while !self.reading && self.core.queue_len() < FIFO_CAP {
            let Some(token) = self.stalled.pop_front() else {
                self.set_reading(true);
                return;
            };
            if self.take_frames(token, now).is_err() {
                self.close(token);
            }
        }
    }

    /// Acts on the complete frames buffered for `token`, in arrival order:
    /// a `Hello` subscribes the peer, a `Request` is queued, stamped t2 =
    /// `now`. Stops when the queue is full, leaving the rest for when it
    /// has room, and stops reading until then.
    ///
    /// # Errors
    ///
    /// A malformed frame: framing is lost and the connection must go.
    fn take_frames(&mut self, token: u64, now: StdInstant) -> io::Result<()> {
        let Some(peer) = self.conns.get_mut(&token) else {
            return Ok(());
        };
        let at = fault_time(self.epoch, now);
        while self.core.queue_len() < FIFO_CAP {
            match peer.conn.next_frame()? {
                Some(Frame::Hello { .. }) if !peer.subscribed => {
                    peer.subscribed = true;
                    self.shared.subscribers.fetch_add(1, Ordering::SeqCst);
                }
                Some(Frame::Request {
                    seq,
                    method,
                    payload,
                }) => {
                    let job = Job {
                        conn: token,
                        seq,
                        payload,
                    };
                    self.core.arrive(at, job, MethodId::new(method));
                }
                Some(_) => {} // clients send no replies or updates
                None => return Ok(()),
            }
        }
        if peer.conn.pending() > 0 {
            self.stalled.push_back(token);
        }
        self.set_reading(false);
        Ok(())
    }

    /// Arms or disarms reads on every connection.
    fn set_reading(&mut self, reading: bool) {
        if self.reading != reading {
            self.reading = reading;
            for peer in self.conns.values_mut() {
                peer.conn.rearm(&self.epoll, reading);
            }
        }
    }

    /// Takes every pending connection; inside a down window each is
    /// closed at once, so reconnect probes fail fast instead of hanging.
    fn accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) if self.down => drop(stream),
                // A socket the loop cannot take is dropped: the peer sees
                // a refusal.
                Ok((stream, _)) => {
                    let _ = self.insert(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Registers an accepted socket; returns its token.
    fn insert(&mut self, stream: TcpStream) -> io::Result<u64> {
        let token = self.next_conn;
        let conn = Conn::open(stream, &self.epoll, token, self.reading, None)?;
        self.next_conn += 1;
        let peer = Peer {
            conn,
            subscribed: false,
        };
        self.conns.insert(token, peer);
        self.shared.connections.fetch_add(1, Ordering::SeqCst);
        Ok(token)
    }

    fn on_conn_event(&mut self, token: u64, bits: u32, now: StdInstant) {
        if bits & EPOLLOUT != 0 {
            self.dirty.push(token);
        }
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
            if self.reading {
                self.read(token, now);
            } else if bits & (EPOLLERR | EPOLLHUP) != 0 {
                self.close(token);
            }
        }
    }

    /// One `read` per readiness, and what it brought is queued. Epoll is
    /// level-triggered: bytes — or the end-of-file — still waiting report
    /// the connection again. End-of-file and errors close it.
    fn read(&mut self, token: u64, now: StdInstant) {
        let Some(peer) = self.conns.get_mut(&token) else {
            return;
        };
        match peer.conn.read() {
            Ok(0) => {}
            Ok(_) if self.take_frames(token, now).is_ok() => {}
            _ => self.close(token),
        }
    }

    /// Flushes every connection on the list once; a failed peer is closed.
    fn flush_dirty(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        for token in dirty.drain(..) {
            let peer = self.conns.get_mut(&token);
            if peer.is_some_and(|peer| peer.conn.flush(&self.epoll).is_err()) {
                self.close(token);
            }
        }
        self.dirty = dirty;
    }

    fn close(&mut self, token: u64) {
        if let Some(peer) = self.conns.remove(&token) {
            peer.conn.close();
            self.shared.connections.fetch_sub(1, Ordering::SeqCst);
            if peer.subscribed {
                self.shared.subscribers.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    fn close_all(&mut self) {
        for (_, peer) in self.conns.drain() {
            peer.conn.close();
        }
        self.dirty.clear();
        self.shared.connections.store(0, Ordering::SeqCst);
        self.shared.subscribers.store(0, Ordering::SeqCst);
    }
}

/// The fault schedule's clock at `at`: time since `epoch`.
fn fault_time(epoch: StdInstant, at: StdInstant) -> Instant {
    Instant::from_nanos(at.duration_since(epoch).as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::eventually;

    fn connect(addr: SocketAddr) -> TcpStream {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_nodelay(true).ok();
        s
    }

    #[test]
    fn serves_a_request_with_perf_data() {
        let server =
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(1), 5)).unwrap();
        let mut conn = connect(server.addr());
        Frame::Request {
            seq: 9,
            method: 3,
            payload: Bytes::from_static(b"ping"),
        }
        .write_to(&mut conn)
        .unwrap();
        conn.flush().unwrap();
        let reply = Frame::read_from(&mut conn).unwrap();
        match reply {
            Frame::Reply {
                seq,
                replica,
                service_ns,
                method,
                payload,
                ..
            } => {
                assert_eq!(seq, 9);
                assert_eq!(replica, 1);
                assert_eq!(method, 3);
                assert_eq!(payload, Bytes::from_static(b"ping"));
                assert!(service_ns >= 5_000_000, "slept ≥ 5 ms: {service_ns}");
            }
            other => panic!("expected reply, got {other:?}"),
        }
        assert_eq!(server.serviced(), 1);
    }

    #[test]
    fn subscribers_receive_updates_for_others_requests() {
        let server =
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(2), 1)).unwrap();
        // Subscriber connection.
        let mut sub = connect(server.addr());
        Frame::Hello { client: 7 }.write_to(&mut sub).unwrap();
        // Give the server a beat to register the subscription.
        std::thread::sleep(StdDuration::from_millis(50));
        // Requester connection.
        let mut req = connect(server.addr());
        Frame::Request {
            seq: 1,
            method: 0,
            payload: Bytes::new(),
        }
        .write_to(&mut req)
        .unwrap();
        let _ = Frame::read_from(&mut req).unwrap();
        sub.set_read_timeout(Some(StdDuration::from_secs(2))).ok();
        match Frame::read_from(&mut sub).unwrap() {
            Frame::PerfUpdate { replica, .. } => assert_eq!(replica, 2),
            other => panic!("expected perf update, got {other:?}"),
        }
    }

    #[test]
    fn crash_tears_down_connections() {
        let server =
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(3), 1)).unwrap();
        let mut conn = connect(server.addr());
        server.crash();
        conn.set_read_timeout(Some(StdDuration::from_secs(2))).ok();
        let err = Frame::read_from(&mut conn).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
            ),
            "{err:?}"
        );
    }

    fn request(seq: u64) -> Frame {
        Frame::Request {
            seq,
            method: 0,
            payload: Bytes::from(seq.to_be_bytes().to_vec()),
        }
    }

    #[test]
    fn a_burst_is_queued_in_order_behind_its_hello() {
        // What one `read` of a pipelined segment hands the loop: a
        // `Hello`, eight requests and the first half of a ninth.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = connect(listener.local_addr().unwrap());
        let (wake, loop_wake) = UnixStream::pair().unwrap();
        let shared = Arc::new(Shared::new(wake));
        let config = ReplicaServerConfig::quick(ReplicaId::new(1), 0);
        let mut server = ServerLoop::new(config, listener, loop_wake, Arc::clone(&shared)).unwrap();
        let token = server.insert(stream).unwrap();
        let mut bytes = Vec::new();
        Frame::Hello { client: 7 }.encode_into(&mut bytes);
        for seq in 0..9 {
            request(seq).encode_into(&mut bytes);
        }
        let whole = bytes.len() - request(8).encoded_len() / 2;
        let arrive = |server: &mut ServerLoop, bytes: &[u8]| {
            server.conns.get_mut(&token).unwrap().conn.extend(bytes);
            server.take_frames(token, StdInstant::now()).unwrap();
        };
        arrive(&mut server, &bytes[..whole]);

        // Subscribed with every job still in the queue: the `Hello` took
        // effect before any request of its segment is serviced.
        assert_eq!(shared.subscribers.load(Ordering::SeqCst), 1);
        assert_eq!(server.core.queue_len(), 8);
        // Served back to back at one instant, in queue order.
        let queued = |server: &mut ServerLoop| {
            let at = fault_time(server.epoch, StdInstant::now());
            let mut served = Vec::new();
            while server.core.start(at, &mut server.rng).is_some() {
                served.extend(server.core.finish(at));
            }
            served
        };
        let served = queued(&mut server);
        let seqs: Vec<u64> = served.iter().map(|(job, _)| job.seq).collect();
        assert_eq!(seqs, (0..8).collect::<Vec<u64>>());
        assert!(
            served
                .windows(2)
                .all(|w| w[0].1.queuing_delay >= w[1].1.queuing_delay),
            "enqueue stamps follow arrival order"
        );

        // The rest of the ninth arrives: it is queued, nothing is redone.
        arrive(&mut server, &bytes[whole..]);
        assert!(matches!(queued(&mut server)[..], [(Job { seq: 8, .. }, _)]));
        assert_eq!(shared.subscribers.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let server =
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(5), 0)).unwrap();
        let mut conn = connect(server.addr());
        let mut burst = Vec::new();
        for seq in 0..32 {
            request(seq).encode_into(&mut burst);
        }
        conn.write_all(&burst).unwrap();
        conn.set_read_timeout(Some(StdDuration::from_secs(2))).ok();
        for expected in 0..32 {
            match Frame::read_from(&mut conn).unwrap() {
                Frame::Reply { seq, payload, .. } => {
                    assert_eq!(seq, expected);
                    assert_eq!(payload.as_slice(), expected.to_be_bytes());
                }
                other => panic!("expected reply, got {other:?}"),
            }
        }
        assert_eq!(server.serviced(), 32);
    }

    #[test]
    fn hello_and_request_in_one_segment_subscribe_the_peer() {
        let server =
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(6), 0)).unwrap();
        let mut sub = connect(server.addr());
        let mut segment = Vec::new();
        Frame::Hello { client: 7 }.encode_into(&mut segment);
        request(1).encode_into(&mut segment);
        sub.write_all(&segment).unwrap();
        sub.set_read_timeout(Some(StdDuration::from_secs(2))).ok();
        assert!(matches!(
            Frame::read_from(&mut sub).unwrap(),
            Frame::Reply { seq: 1, .. }
        ));
        // Someone else's request now reaches `sub` as a perf update.
        let mut other = connect(server.addr());
        request(2).write_to(&mut other).unwrap();
        let _ = Frame::read_from(&mut other).unwrap();
        match Frame::read_from(&mut sub).unwrap() {
            Frame::PerfUpdate { replica, .. } => assert_eq!(replica, 6),
            other => panic!("expected perf update, got {other:?}"),
        }
    }

    #[test]
    fn half_a_frame_then_eof_unsubscribes() {
        let server =
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(7), 0)).unwrap();
        let mut conn = connect(server.addr());
        let mut segment = Vec::new();
        Frame::Hello { client: 7 }.encode_into(&mut segment);
        let hello = segment.len();
        request(1).encode_into(&mut segment);
        conn.write_all(&segment[..hello + 6]).unwrap();
        assert!(eventually(|| server
            .shared
            .subscribers
            .load(Ordering::SeqCst)
            == 1));
        drop(conn);
        assert!(
            eventually(|| server.shared.subscribers.load(Ordering::SeqCst) == 0),
            "the loop saw EOF behind the half frame"
        );
        assert!(
            eventually(|| server.shared.connections.load(Ordering::SeqCst) == 0),
            "and let go of the socket"
        );
        assert_eq!(server.serviced(), 0);
    }
    #[test]
    fn a_malformed_frame_gets_the_connection_closed() {
        // Framing is lost for good, so the loop drops the connection — and
        // says so to the peer instead of leaving it to wait on a socket
        // nobody reads.
        let server =
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(8), 0)).unwrap();
        let mut conn = connect(server.addr());
        conn.write_all(&(crate::wire::MAX_FRAME + 1).to_be_bytes())
            .unwrap();
        conn.set_read_timeout(Some(StdDuration::from_secs(2))).ok();
        let mut byte = [0u8; 1];
        let closed = matches!(io::Read::read(&mut conn, &mut byte), Ok(0))
            || conn.write_all(&[0u8; 64]).is_err();
        assert!(closed, "the server hung up");
        assert!(eventually(|| server
            .shared
            .connections
            .load(Ordering::SeqCst)
            == 0));
    }

    /// Reads one reply within three seconds, or says why not.
    fn reply_within_3s(conn: &mut TcpStream) -> Result<Frame, String> {
        conn.set_read_timeout(Some(StdDuration::from_secs(3))).ok();
        Frame::read_from(conn).map_err(|e| format!("no reply within 3 s: {e}"))
    }

    #[test]
    fn a_peer_that_never_reads_does_not_wedge_the_replica() {
        let server =
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(9), 0)).unwrap();
        // 400 requests of 64 KiB, pipelined, and not one reply read: the
        // replies pile up far past any socket buffer.
        let mut deaf = connect(server.addr());
        let mut burst = Vec::new();
        for seq in 0..400 {
            Frame::Request {
                seq,
                method: 0,
                payload: Bytes::from(vec![0xA5u8; 64 * 1024]),
            }
            .encode_into(&mut burst);
        }
        let writer = std::thread::spawn(move || {
            // The server hangs up part-way; the write error is the point.
            let _ = deaf.write_all(&burst);
            deaf
        });
        let deaf = writer.join().unwrap();
        assert!(
            eventually(|| server.shared.connections.load(Ordering::SeqCst) == 0),
            "the peer that never reads was let go"
        );

        let mut polite = connect(server.addr());
        request(1).write_to(&mut polite).unwrap();
        match reply_within_3s(&mut polite) {
            Ok(Frame::Reply { seq: 1, .. }) => {}
            other => panic!("the replica is wedged: {other:?}"),
        }
        drop(deaf);
    }

    #[test]
    fn a_subscriber_that_never_reads_does_not_wedge_the_replica() {
        let server =
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(10), 0)).unwrap();
        let mut deaf = connect(server.addr());
        Frame::Hello { client: 1 }.write_to(&mut deaf).unwrap();
        assert!(eventually(|| server
            .shared
            .subscribers
            .load(Ordering::SeqCst)
            == 1));

        // A busy client reads all of its own replies, and every one of its
        // requests is a `PerfUpdate` the subscriber never reads. It sends
        // rounds of requests until the updates have overrun every socket
        // buffer and the server's own limit.
        const ROUND: usize = 50_000;
        let busy = connect(server.addr());
        busy.set_read_timeout(Some(StdDuration::from_secs(3))).ok();
        let mut burst = Vec::new();
        for seq in 0..ROUND as u64 {
            request(seq).encode_into(&mut burst);
        }
        let reply_len = Frame::Reply {
            seq: 0,
            replica: 0,
            service_ns: 0,
            queue_ns: 0,
            queue_len: 0,
            method: 0,
            payload: Bytes::from(vec![0u8; 8]),
        }
        .encoded_len();
        let mut buf = vec![0u8; 64 * 1024];
        for round in 0.. {
            if server.shared.subscribers.load(Ordering::SeqCst) == 0 {
                break;
            }
            assert!(round < 40, "{round} rounds and the subscriber is still on");
            std::thread::scope(|scope| {
                scope.spawn(|| (&busy).write_all(&burst).unwrap());
                let mut left = ROUND * reply_len;
                while left > 0 {
                    match io::Read::read(&mut &busy, &mut buf[..left.min(64 * 1024)]) {
                        Ok(n) if n > 0 => left -= n,
                        other => panic!("round {round}: {left} reply bytes short: {other:?}"),
                    }
                }
            });
        }

        let mut polite = connect(server.addr());
        request(1).write_to(&mut polite).unwrap();
        match reply_within_3s(&mut polite) {
            Ok(Frame::Reply { seq: 1, .. }) => {}
            other => panic!("the replica is wedged: {other:?}"),
        }
        drop(deaf);
    }

    #[test]
    fn a_full_fifo_stops_reading() {
        let server =
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(11), 1)).unwrap();
        let mut conn = connect(server.addr());
        let total = FIFO_CAP as u64 + 100;
        let mut burst = Vec::new();
        for seq in 0..total {
            request(seq).encode_into(&mut burst);
        }
        conn.write_all(&burst).unwrap();
        conn.set_read_timeout(Some(StdDuration::from_secs(5))).ok();
        for expected in 0..total {
            match Frame::read_from(&mut conn).unwrap() {
                Frame::Reply { seq, queue_len, .. } => {
                    assert_eq!(seq, expected);
                    assert!(
                        queue_len as usize <= FIFO_CAP,
                        "reply {seq} saw {queue_len} queued, the cap is {FIFO_CAP}"
                    );
                }
                other => panic!("expected reply, got {other:?}"),
            }
        }
    }

    #[test]
    fn arrivals_are_stamped_while_a_job_is_in_service() {
        // t2 is the read, not the end of the job in front: B, sent about
        // 10 ms into A's 300 ms, waits most of what is left of A, where
        // stamped at dequeue it would wait nothing. B is read after A, so
        // it waits at most A's wait and service, plus the moment between
        // A's end and B's start. Either bound holds under 150 ms of
        // scheduling delay.
        let server =
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(12), 300)).unwrap();
        let mut conn = connect(server.addr());
        request(1).write_to(&mut conn).unwrap();
        std::thread::sleep(StdDuration::from_millis(10));
        request(2).write_to(&mut conn).unwrap();
        conn.set_read_timeout(Some(StdDuration::from_secs(5))).ok();
        let mut stamps = [(StdDuration::ZERO, StdDuration::ZERO); 2];
        for _ in 0..2 {
            match Frame::read_from(&mut conn).unwrap() {
                Frame::Reply {
                    seq,
                    service_ns,
                    queue_ns,
                    ..
                } => {
                    stamps[seq as usize - 1] = (
                        StdDuration::from_nanos(service_ns),
                        StdDuration::from_nanos(queue_ns),
                    );
                }
                other => panic!("expected reply, got {other:?}"),
            }
        }
        let ((service_a, waited_a), (_, waited_b)) = (stamps[0], stamps[1]);
        assert!(
            service_a >= StdDuration::from_millis(300),
            "served {service_a:?}"
        );
        assert!(
            waited_b >= service_a / 2,
            "B waited {waited_b:?} behind A's {service_a:?}: stamped at dequeue?"
        );
        let bound = waited_a + service_a + StdDuration::from_millis(150);
        assert!(
            waited_b <= bound,
            "B waited {waited_b:?}, more than {bound:?}"
        );
    }
}
