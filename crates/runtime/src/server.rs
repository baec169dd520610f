//! A replica server over real TCP sockets.
//!
//! One [`ReplicaServer`] is one AQuA server replica on localhost: a
//! blocking accept loop, per-connection reader threads feeding a single
//! **FIFO service thread** (the request queue of §5.1 Stage 3), and
//! performance publication to subscribers after every serviced request
//! (§5.4.1). Service time is simulated by sleeping a sampled duration; the
//! *measured* elapsed time is what gets reported, exactly like the
//! instrumented gateway of the paper.
//!
//! A connection is one shared `Arc<TcpStream>` from accept to teardown:
//! its reader pulls whole bursts into a [`FrameAssembler`] (one `read`
//! however many frames arrived, like the client's reactor), and every
//! queued job, the subscriber list and the forced-shutdown list hold the
//! same handle — no descriptor is duplicated per request. Nothing polls:
//! `accept`, `read` and the service queue's `recv` all block, and a crash
//! wakes each of them (a throwaway self-connect, a socket shutdown, a
//! sentinel).

use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use aqua_core::qos::ReplicaId;
use aqua_core::time::Instant;
use aqua_faults::{FaultSchedule, FaultTracker};
use aqua_replica::ServiceTimeModel;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::wire::{Frame, FrameAssembler};

/// Configuration of one socket replica.
#[derive(Debug, Clone)]
pub struct ReplicaServerConfig {
    /// This replica's identity.
    pub replica: ReplicaId,
    /// Per-request service-time distribution (slept out in real time).
    pub service: ServiceTimeModel,
    /// RNG seed for the service-time draws.
    pub seed: u64,
    /// Crash (silently drop every connection and stop) after this many
    /// serviced requests.
    pub crash_after: Option<u64>,
    /// Optional observability sink: serviced counts, measured service and
    /// queuing times, and the instantaneous queue depth.
    pub obs: Option<aqua_obs::Obs>,
    /// Scheduled fault injection on the server's own clock (zero at
    /// spawn): crash-and-recover windows refuse connections and drop
    /// queued work, pauses stall the service thread (queued work
    /// survives), degradations and overloads stretch the slept service
    /// time, delay spikes postpone replies, and message drops swallow
    /// them.
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
            crash_after: None,
            obs: None,
            faults: None,
        }
    }
}

/// Cached server-side metric handles, created once per service loop.
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

/// A queued request job.
struct Job {
    /// The requester's connection.
    writer: Arc<TcpStream>,
    peer: SocketAddr,
    seq: u64,
    method: u32,
    payload: Bytes,
    enqueued: StdInstant,
}

/// A message on the service channel: the queue of §5.1 Stage 3 plus a
/// shutdown sentinel, so the service thread blocks on `recv()` instead of
/// polling a timeout.
enum ServiceMsg {
    Job(Job),
    Shutdown,
}

#[derive(Debug)]
struct Shared {
    shutdown: AtomicBool,
    /// Inside a scheduled down window: connections are refused (accepted
    /// and immediately dropped so reconnect probes fail fast) and queued
    /// work is discarded, but the listener stays alive for recovery.
    refusing: AtomicBool,
    serviced: AtomicU64,
    /// The server's time origin; fault schedules run on this clock.
    epoch: StdInstant,
    /// The listener's address: `crash` connects to it to wake `accept`.
    addr: SocketAddr,
    /// Wakes the service thread out of its blocking `recv()` on crash.
    notify: Mutex<Option<Sender<ServiceMsg>>>,
    /// Subscriber connections (for perf pushes).
    subscribers: Mutex<Vec<(SocketAddr, Arc<TcpStream>)>>,
    /// Every connection with a live reader, for forced shutdown.
    connections: Mutex<Vec<Arc<TcpStream>>>,
}

impl Shared {
    fn new(addr: SocketAddr) -> Shared {
        Shared {
            shutdown: AtomicBool::new(false),
            refusing: AtomicBool::new(false),
            serviced: AtomicU64::new(0),
            epoch: StdInstant::now(),
            addr,
            notify: Mutex::new(None),
            subscribers: Mutex::new(Vec::new()),
            connections: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> Instant {
        Instant::from_nanos(self.epoch.elapsed().as_nanos() as u64)
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
    threads: Vec<JoinHandle<()>>,
}

impl ReplicaServer {
    /// Binds a listener on `127.0.0.1:0` and spawns the accept and service
    /// threads.
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors.
    pub fn spawn(config: ReplicaServerConfig) -> io::Result<ReplicaServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(addr));
        let (job_tx, job_rx) = unbounded::<ServiceMsg>();
        *shared.notify.lock() = Some(job_tx.clone());

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            let job_tx = job_tx.clone();
            threads.push(std::thread::spawn(move || {
                accept_loop(listener, shared, job_tx);
            }));
        }
        {
            let shared = Arc::clone(&shared);
            let replica = config.replica;
            let service = config.service.clone();
            let seed = config.seed;
            let crash_after = config.crash_after;
            let metrics = config
                .obs
                .as_ref()
                .map(|obs| ServerMetrics::new(obs, replica));
            let faults = config.faults.clone().unwrap_or_else(FaultSchedule::empty);
            threads.push(std::thread::spawn(move || {
                service_loop(
                    shared,
                    job_rx,
                    replica,
                    service,
                    seed,
                    crash_after,
                    metrics,
                    faults,
                );
            }));
        }
        if let Some(schedule) = config.faults.filter(|s| !s.is_empty()) {
            let shared = Arc::clone(&shared);
            let replica = config.replica;
            let obs = config.obs.clone();
            threads.push(std::thread::spawn(move || {
                fault_driver(shared, schedule, replica, obs);
            }));
        }
        drop(job_tx);

        Ok(ReplicaServer {
            addr,
            replica: config.replica,
            shared,
            threads,
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
    /// and no further requests are serviced. Idempotent.
    pub fn crash(&self) {
        crash(&self.shared);
    }

    /// Whether the replica has crashed (or been shut down).
    pub fn is_crashed(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

impl Drop for ReplicaServer {
    fn drop(&mut self) {
        self.crash();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn crash(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    // Wake the service thread out of its blocking recv; the sentinel rides
    // behind any queued jobs, but the shutdown flag makes the loop discard
    // those on sight.
    // Take the sender out in its own statement: an `if let` scrutinee
    // keeps the temporary lock guard alive across the body, which would
    // hold `notify` across the send.
    let tx = shared.notify.lock().take();
    if let Some(tx) = tx {
        let _ = tx.send(ServiceMsg::Shutdown);
    }
    for conn in shared.connections.lock().drain(..) {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    shared.subscribers.lock().clear();
    // The accept loop blocks in `accept`; a throwaway connection gets it
    // to look at the flag. Refused at once when the listener is gone.
    let _ = TcpStream::connect_timeout(&shared.addr, StdDuration::from_millis(250));
}

/// Tears down live connections without shutting the replica down: the
/// entry into a scheduled down window.
fn drop_connections(shared: &Shared) {
    for conn in shared.connections.lock().drain(..) {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    shared.subscribers.lock().clear();
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, job_tx: Sender<ServiceMsg>) {
    // Reader threads are tracked here and joined when the accept loop
    // exits; by then shutdown/crash has torn every connection down, so
    // each reader's blocking read has already failed.
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    // `accept` blocks: it returns for a client, or for the connection
    // `crash` makes once the shutdown flag is up.
    while let Ok((stream, peer)) = listener.accept() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if shared.refusing.load(Ordering::SeqCst) {
            // Down window: explicit refusal. Dropping the accepted
            // stream resets the peer immediately, so reconnect
            // probes fail fast instead of hanging.
            drop(stream);
            continue;
        }
        stream.set_nodelay(true).ok();
        let stream = Arc::new(stream);
        shared.connections.lock().push(Arc::clone(&stream));
        let shared = Arc::clone(&shared);
        let job_tx = job_tx.clone();
        readers.retain(|t| !t.is_finished());
        readers.push(std::thread::spawn(move || {
            reader_loop(stream, peer, shared, job_tx)
        }));
    }
    for t in readers {
        let _ = t.join();
    }
}

/// Walks the fault schedule on the server's clock: flips the refusal flag
/// at down-window edges (tearing live connections down on entry) and
/// journals every fault activation/clearance exactly once.
fn fault_driver(
    shared: Arc<Shared>,
    schedule: FaultSchedule,
    replica: ReplicaId,
    obs: Option<aqua_obs::Obs>,
) {
    let mut tracker = FaultTracker::new(schedule.specs().len());
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let now = shared.now();
        if let Some(obs) = &obs {
            tracker.advance(obs, &schedule, now);
        }
        let down = schedule.is_down(replica, now);
        let was = shared.refusing.swap(down, Ordering::SeqCst);
        if down && !was {
            drop_connections(&shared);
        }
        let Some(next) = schedule.next_transition_after(now) else {
            return; // schedule exhausted; a saturated window never clears
        };
        // Sleep toward the next edge in short slices so a crash() still
        // joins promptly.
        let wait = std::time::Duration::from(next.saturating_duration_since(now))
            + StdDuration::from_millis(1);
        let deadline = StdInstant::now() + wait;
        while StdInstant::now() < deadline {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let left = deadline.saturating_duration_since(StdInstant::now());
            std::thread::sleep(left.min(StdDuration::from_millis(20)));
        }
    }
}

fn reader_loop(
    stream: Arc<TcpStream>,
    peer: SocketAddr,
    shared: Arc<Shared>,
    job_tx: Sender<ServiceMsg>,
) {
    let mut assembler = FrameAssembler::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        // One read takes in whatever has arrived: a pipelined burst of
        // requests costs one syscall, not two per frame.
        match assembler.read_from(&mut &*stream) {
            Ok(0) => break, // EOF: replies to queued jobs may still go out
            Ok(_) => {
                if enqueue_frames(&mut assembler, &stream, peer, &shared, &job_tx).is_err() {
                    // Framing is lost (or the service thread is gone):
                    // nothing more can be read from this peer.
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // Deregister this peer's subscription and let go of the socket; it
    // closes once the last queued job for it is done.
    shared.subscribers.lock().retain(|(p, _)| *p != peer);
    shared
        .connections
        .lock()
        .retain(|c| !Arc::ptr_eq(c, &stream));
}

/// Acts on every complete frame buffered in `assembler`, in arrival
/// order: a `Hello` subscribes the peer, a `Request` is stamped (t2) and
/// queued for the service thread.
///
/// # Errors
///
/// A malformed frame, or a service thread that no longer takes jobs.
fn enqueue_frames(
    assembler: &mut FrameAssembler,
    stream: &Arc<TcpStream>,
    peer: SocketAddr,
    shared: &Shared,
    job_tx: &Sender<ServiceMsg>,
) -> io::Result<()> {
    while let Some(frame) = assembler.next_frame()? {
        match frame {
            Frame::Hello { .. } => {
                shared.subscribers.lock().push((peer, Arc::clone(stream)));
            }
            Frame::Request {
                seq,
                method,
                payload,
            } => {
                let job = Job {
                    writer: Arc::clone(stream),
                    peer,
                    seq,
                    method,
                    payload,
                    enqueued: StdInstant::now(),
                };
                job_tx
                    .send(ServiceMsg::Job(job))
                    .map_err(|_| io::Error::from(io::ErrorKind::BrokenPipe))?;
            }
            _ => {} // clients do not send replies/updates
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn service_loop(
    shared: Arc<Shared>,
    job_rx: Receiver<ServiceMsg>,
    replica: ReplicaId,
    service: ServiceTimeModel,
    seed: u64,
    crash_after: Option<u64>,
    metrics: Option<ServerMetrics>,
    faults: FaultSchedule,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Reused frame buffer: replies and perf updates are encoded once per
    // job into this scratch space instead of allocating per frame (and
    // per subscriber).
    let mut frame_buf: Vec<u8> = Vec::with_capacity(256);
    loop {
        // Blocking receive: the sole wakeups are jobs, the crash sentinel,
        // and channel teardown — no polling.
        let job = match job_rx.recv() {
            Ok(ServiceMsg::Job(job)) => job,
            Ok(ServiceMsg::Shutdown) | Err(_) => return,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // Crashed while this job sat in the queue: discard it.
            return;
        }
        let now = shared.now();
        if faults.is_down(replica, now) {
            // A scheduled down window swallows queued work silently, like
            // a crashed process losing its queue.
            continue;
        }
        if let Some(until) = faults.paused_until(replica, now) {
            // Pause/stall: the service thread wedges but queued work
            // survives and is serviced after the resume.
            let stall = std::time::Duration::from(until.saturating_duration_since(now));
            std::thread::sleep(stall);
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
        }
        // t3: dequeue; tq = t3 − t2.
        let queue_ns = job.enqueued.elapsed().as_nanos() as u64;
        let factor = faults.service_factor(replica, shared.now());
        let target: std::time::Duration = service.sample(&mut rng).mul_f64(factor).into();
        let service_started = StdInstant::now();
        if !target.is_zero() {
            std::thread::sleep(target);
        }
        let service_ns = service_started.elapsed().as_nanos() as u64;
        let queue_len = job_rx.len() as u32;
        if let Some(m) = &metrics {
            m.serviced.inc();
            m.service_ns.record(service_ns);
            m.queue_ns.record(queue_ns);
            m.queue_depth.set(i64::from(queue_len));
        }

        let reply = Frame::Reply {
            seq: job.seq,
            replica: replica.index(),
            service_ns,
            queue_ns,
            queue_len,
            method: job.method,
            payload: job.payload,
        };
        let reply_at = shared.now();
        let spike = faults.reply_delay(replica, reply_at);
        if !spike.is_zero() {
            // Network delay spike on the reply path.
            std::thread::sleep(spike.into());
        }
        let mut writer = &*job.writer;
        frame_buf.clear();
        reply.encode_into(&mut frame_buf);
        if faults.should_drop(Some(replica), None, reply_at) {
            // The reply message is lost; the client's redundancy or retry
            // has to mask it.
        } else if writer.write_all(&frame_buf).is_err() {
            shared.subscribers.lock().retain(|(p, _)| *p != job.peer);
        }

        // Publish to every *other* subscriber (the requester already got
        // the data piggybacked on its reply).
        {
            let mut subs = shared.subscribers.lock();
            // With no other subscriber — the common single-client and
            // mux-pool case — skip the encode entirely.
            if subs.iter().any(|(p, _)| *p != job.peer) {
                let update = Frame::PerfUpdate {
                    replica: replica.index(),
                    service_ns,
                    queue_ns,
                    queue_len,
                    method: job.method,
                };
                // One encoding serves every subscriber.
                frame_buf.clear();
                update.encode_into(&mut frame_buf);
                subs.retain(|(p, w)| *p == job.peer || (&**w).write_all(&frame_buf).is_ok());
            }
        }

        let done = shared.serviced.fetch_add(1, Ordering::Relaxed) + 1;
        if crash_after.is_some_and(|n| done >= n) {
            crash(&shared);
            return;
        }
    }
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
        assert!(server.is_crashed());
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

    #[test]
    fn crash_after_n_requests() {
        let mut cfg = ReplicaServerConfig::quick(ReplicaId::new(4), 1);
        cfg.crash_after = Some(2);
        let server = ReplicaServer::spawn(cfg).unwrap();
        let mut conn = connect(server.addr());
        for seq in 0..2 {
            Frame::Request {
                seq,
                method: 0,
                payload: Bytes::new(),
            }
            .write_to(&mut conn)
            .unwrap();
            let _ = Frame::read_from(&mut conn).unwrap();
        }
        // Allow the crash to propagate.
        std::thread::sleep(StdDuration::from_millis(100));
        assert!(server.is_crashed());
        assert_eq!(server.serviced(), 2);
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
        // What one `read` of a pipelined segment hands the reader: a
        // `Hello`, eight requests and the first half of a ninth.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = Arc::new(connect(listener.local_addr().unwrap()));
        let peer = stream.local_addr().unwrap();
        let shared = Shared::new(listener.local_addr().unwrap());
        let (job_tx, job_rx) = unbounded();
        let mut bytes = Vec::new();
        Frame::Hello { client: 7 }.encode_into(&mut bytes);
        for seq in 0..9 {
            request(seq).encode_into(&mut bytes);
        }
        let whole = bytes.len() - request(8).encoded_len() / 2;
        let mut assembler = FrameAssembler::new();
        assembler.extend(&bytes[..whole]);
        enqueue_frames(&mut assembler, &stream, peer, &shared, &job_tx).unwrap();

        // Subscribed with every job still in the queue: the `Hello` took
        // effect before any request of its segment is serviced.
        assert_eq!(shared.subscribers.lock().len(), 1);
        let queued = || {
            let mut jobs = Vec::new();
            while let Ok(ServiceMsg::Job(job)) = job_rx.try_recv() {
                jobs.push(job);
            }
            jobs
        };
        let jobs = queued();
        let seqs: Vec<u64> = jobs.iter().map(|job| job.seq).collect();
        assert_eq!(seqs, (0..8).collect::<Vec<u64>>());
        assert!(
            jobs.windows(2).all(|w| w[0].enqueued <= w[1].enqueued),
            "enqueue stamps follow arrival order"
        );

        // The rest of the ninth arrives: it is queued, nothing is redone.
        assembler.extend(&bytes[whole..]);
        enqueue_frames(&mut assembler, &stream, peer, &shared, &job_tx).unwrap();
        assert!(matches!(queued()[..], [Job { seq: 8, .. }]));
        assert_eq!(shared.subscribers.lock().len(), 1);
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
        assert!(eventually(|| server.shared.subscribers.lock().len() == 1));
        drop(conn);
        assert!(
            eventually(|| server.shared.subscribers.lock().is_empty()),
            "the reader saw EOF behind the half frame"
        );
        assert!(
            eventually(|| server.shared.connections.lock().is_empty()),
            "and let go of the socket"
        );
        assert_eq!(server.serviced(), 0);
    }
    #[test]
    fn a_malformed_frame_gets_the_connection_closed() {
        // Framing is lost for good, so the reader stops — and says so to
        // the peer instead of leaving it to wait on a socket nobody reads.
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
        assert!(eventually(|| server.shared.connections.lock().is_empty()));
    }
}
