//! The readiness reactor: one event-loop thread owning every client
//! socket in nonblocking mode (DESIGN.md §15).
//!
//! Replaces the thread-per-connection writer/reader pairs of the previous
//! client. Outbound frames are queued on per-connection ring buffers and
//! flushed with **vectored writes**. Who flushes depends on the traffic
//! (frame-level Nagle): a sender that is the only call in flight on this
//! reactor ([`Reactor::enter_call`]) has nobody to batch with and flushes
//! its own connections on the spot — no wake-pipe write, no hand-off to
//! the loop; with two or more calls in flight senders mark the connection
//! dirty and poke the loop, which coalesces one Algorithm-1 multicast to
//! `q` replicas plus anything else queued behind it into a single
//! `writev`-style syscall per connection. Both go through the same ring
//! and the same [`flush_ring`] under the connection's mutex, so bytes
//! leave in ring order whoever writes them. Inbound bytes go through a
//! per-connection [`FrameAssembler`]: readiness-driven reads into a
//! growable reassembly buffer (one `read` per burst — a short read ends
//! the round, level-triggered epoll re-reports anything later), frames
//! decoded in place and handed to the registered [`ReactorSink`] (the
//! client's handler ingest shards) with no intermediate copy.
//!
//! Locking discipline: each connection's I/O state sits behind its own
//! mutex, acquired either by the reactor thread or by a sender queueing
//! (and, when alone, flushing) frames — never nested with the connection
//! map or the dirty list, and never held across a sink callback.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read as _, Write as _};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, Weak};
use std::thread::JoinHandle;

use aqua_core::aqua;
use bytes::Bytes;
use parking_lot::Mutex;

use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wire::{Frame, FrameAssembler, READ_CHUNK};

/// Reserved epoll cookie for the wake pipe.
const WAKE_TOKEN: u64 = u64::MAX;

/// Upper bound on segments handed to one vectored write.
const MAX_IOVECS: usize = 64;

/// Events pulled per `epoll_wait`.
const MAX_EVENTS: usize = 64;

/// Receives reactor events. Implemented by the client's shared state;
/// callbacks run on the reactor thread with **no reactor locks held**, so
/// they may call back into [`Reactor::multicast`] / [`Reactor::register`].
pub(crate) trait ReactorSink: Send + Sync {
    /// One decoded inbound frame from the connection registered with `tag`.
    fn on_frame(&self, tag: u64, conn: u64, frame: Frame);
    /// The connection registered with `tag` is gone (EOF, reset, or a
    /// protocol error); it has already been deregistered.
    fn on_disconnect(&self, tag: u64, conn: u64);
}

/// Cached handles for the reactor's syscall instruments
/// (`aqua_net_syscalls_total{op}` — `read`, `writev`, `epoll_wait` and the
/// wake-pipe writes as `wake` — `aqua_net_writev_batch_frames`, and the
/// per-connection `aqua_net_outbound_queue_depth` gauges). Socket writes
/// count the same whether a sender or the loop made them.
pub(crate) struct NetMetrics {
    obs: aqua_obs::Obs,
    reads: Arc<aqua_obs::metrics::Counter>,
    writevs: Arc<aqua_obs::metrics::Counter>,
    waits: Arc<aqua_obs::metrics::Counter>,
    wakes: Arc<aqua_obs::metrics::Counter>,
    batch_frames: Arc<aqua_obs::metrics::Histogram>,
}

impl NetMetrics {
    pub(crate) fn new(obs: &aqua_obs::Obs) -> NetMetrics {
        let registry = obs.registry();
        NetMetrics {
            obs: obs.clone(),
            reads: registry.counter("aqua_net_syscalls_total", &[("op", "read")]),
            writevs: registry.counter("aqua_net_syscalls_total", &[("op", "writev")]),
            waits: registry.counter("aqua_net_syscalls_total", &[("op", "epoll_wait")]),
            wakes: registry.counter("aqua_net_syscalls_total", &[("op", "wake")]),
            batch_frames: registry.histogram("aqua_net_writev_batch_frames", &[]),
        }
    }

    fn queue_gauge(&self, conn: u64) -> Arc<aqua_obs::metrics::Gauge> {
        let conn = conn.to_string();
        self.obs
            .registry()
            .gauge("aqua_net_outbound_queue_depth", &[("conn", conn.as_str())])
    }
}

/// Per-connection I/O state, guarded by the connection's own mutex.
struct ConnIo {
    stream: TcpStream,
    /// Inbound reassembly.
    assembler: FrameAssembler,
    /// Outbound ring: one encoded frame per segment, flushed oldest-first.
    out: VecDeque<Bytes>,
    /// Bytes of `out[0]` already written (partial-flush cursor).
    out_head: usize,
    /// Whether `EPOLLOUT` is currently armed.
    want_write: bool,
    closed: bool,
}

struct Conn {
    id: u64,
    /// Caller-chosen routing tag (the client keys these by replica).
    tag: u64,
    fd: RawFd,
    io: Mutex<ConnIo>,
    depth: Option<Arc<aqua_obs::metrics::Gauge>>,
}

struct Shared {
    epoll: Epoll,
    /// Write half of the wake pipe; senders poke it to interrupt
    /// `epoll_wait` after queueing output.
    wake_tx: UnixStream,
    /// Coalesces wake pokes: at most one pipe byte in flight.
    wake_pending: AtomicBool,
    conns: RwLock<HashMap<u64, Arc<Conn>>>,
    /// Connection ids with freshly queued output awaiting a flush.
    dirty: Mutex<Vec<u64>>,
    sink: RwLock<Option<Weak<dyn ReactorSink>>>,
    next_conn: AtomicU64,
    /// Client calls currently in flight ([`Reactor::enter_call`]): the
    /// send rule's only input.
    calls_in_flight: AtomicUsize,
    shutdown: AtomicBool,
    metrics: Option<NetMetrics>,
}

impl Shared {
    fn conn(&self, id: u64) -> Option<Arc<Conn>> {
        let conns = self.conns.read().unwrap_or_else(|p| p.into_inner());
        conns.get(&id).cloned()
    }

    fn wake(&self) {
        if !self.wake_pending.swap(true, Ordering::AcqRel) {
            self.poke();
        }
    }

    /// Writes one byte to the wake pipe.
    fn poke(&self) {
        let mut tx = &self.wake_tx;
        let _ = tx.write(&[1u8]);
        if let Some(m) = &self.metrics {
            m.wakes.inc();
        }
    }
}

/// One client call in flight on a reactor, from [`Reactor::enter_call`]
/// until drop.
pub(crate) struct CallGuard<'a> {
    in_flight: &'a AtomicUsize,
}

impl Drop for CallGuard<'_> {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Handle to the event-loop thread. Dropping it (or calling
/// [`Reactor::shutdown`]) stops and **joins** the thread — the reactor
/// never leaks.
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Reactor {
    /// Starts the event-loop thread.
    pub(crate) fn spawn(metrics: Option<NetMetrics>) -> io::Result<Reactor> {
        let epoll = Epoll::new()?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        epoll.add(wake_rx.as_raw_fd(), EPOLLIN, WAKE_TOKEN)?;
        let shared = Arc::new(Shared {
            epoll,
            wake_tx,
            wake_pending: AtomicBool::new(false),
            conns: RwLock::new(HashMap::new()),
            dirty: Mutex::new(Vec::new()),
            sink: RwLock::new(None),
            next_conn: AtomicU64::new(0),
            calls_in_flight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            metrics,
        });
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("aqua-reactor".to_string())
            .spawn(move || event_loop(loop_shared, wake_rx))?;
        Ok(Reactor {
            shared,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Installs the frame/disconnect consumer. Held weakly so the sink
    /// (which owns the reactor) doesn't cycle.
    pub(crate) fn set_sink(&self, sink: Weak<dyn ReactorSink>) {
        let mut slot = self.shared.sink.write().unwrap_or_else(|p| p.into_inner());
        *slot = Some(sink);
    }

    /// Takes ownership of `stream` (switched to nonblocking), registers it
    /// for readiness, and returns its connection id. Frames already queued
    /// via [`Reactor::send`] before the id is shared cannot be reordered
    /// with later sends — the ring is strictly FIFO.
    pub(crate) fn register(&self, stream: TcpStream, tag: u64) -> io::Result<u64> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "reactor is shut down",
            ));
        }
        stream.set_nonblocking(true)?;
        let id = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let fd = stream.as_raw_fd();
        let depth = self.shared.metrics.as_ref().map(|m| m.queue_gauge(id));
        let conn = Arc::new(Conn {
            id,
            tag,
            fd,
            io: Mutex::new(ConnIo {
                stream,
                assembler: FrameAssembler::new(),
                out: VecDeque::new(),
                out_head: 0,
                want_write: false,
                closed: false,
            }),
            depth,
        });
        {
            let mut conns = self.shared.conns.write().unwrap_or_else(|p| p.into_inner());
            conns.insert(id, Arc::clone(&conn));
        }
        if let Err(e) = self.shared.epoll.add(fd, EPOLLIN | EPOLLRDHUP, id) {
            let mut conns = self.shared.conns.write().unwrap_or_else(|p| p.into_inner());
            conns.remove(&id);
            return Err(e);
        }
        Ok(id)
    }

    /// Counts the caller's call as in flight until the guard drops. Held
    /// for the whole of `MuxHandle::call` / `AquaClient::call` — waiting
    /// for the reply included — so the count says how many callers could
    /// have a frame to batch with the next one sent.
    pub(crate) fn enter_call(&self) -> CallGuard<'_> {
        let in_flight = &self.shared.calls_in_flight;
        in_flight.fetch_add(1, Ordering::Relaxed);
        CallGuard { in_flight }
    }

    /// Queues one frame on a single connection. Returns whether the
    /// connection accepted it.
    #[cfg(test)]
    pub(crate) fn send(&self, conn: u64, frame: &Frame) -> bool {
        self.multicast(std::slice::from_ref(&conn), frame) == 1
    }

    /// Encodes `frame` **once** and queues the shared bytes on every
    /// listed connection's outbound ring. With at most the sender's own
    /// call in flight (a `Hello` is sent outside any call) nothing else
    /// can join the batch, so the sender flushes each ring itself; a
    /// write error there is left for the loop, which retries the flush
    /// and closes the connection. Otherwise the connections are marked
    /// dirty and the loop is woken with a single poke; its per-connection
    /// flush coalesces this segment with whatever else has queued into
    /// one vectored write. Returns how many connections accepted the
    /// frame.
    pub(crate) fn multicast(&self, targets: &[u64], frame: &Frame) -> usize {
        if targets.is_empty() {
            return 0;
        }
        let mut buf = Vec::with_capacity(frame.encoded_len());
        frame.encode_into(&mut buf);
        let encoded = Bytes::from(buf);
        let alone = self.shared.calls_in_flight.load(Ordering::Relaxed) <= 1;
        let mut queued = 0usize;
        let mut handed_over = false;
        for &id in targets {
            let Some(conn) = self.shared.conn(id) else {
                continue;
            };
            let flushed = {
                let mut io = conn.io.lock();
                if io.closed {
                    continue;
                }
                io.out.push_back(encoded.clone());
                if let Some(g) = &conn.depth {
                    g.add(1);
                }
                alone && flush_ring(&self.shared, &conn, &mut io).is_ok()
            };
            queued += 1;
            if !flushed {
                let mut dirty = self.shared.dirty.lock();
                dirty.push(id);
                handed_over = true;
            }
        }
        if handed_over {
            self.shared.wake();
        }
        queued
    }

    /// How many connections are currently registered.
    #[cfg(test)]
    pub(crate) fn conn_count(&self) -> usize {
        let conns = self.shared.conns.read().unwrap_or_else(|p| p.into_inner());
        conns.len()
    }

    /// Stops the event loop and joins its thread. Idempotent; also runs on
    /// drop.
    pub(crate) fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Poke unconditionally: `wake_pending` may be set with the byte
        // already drained, and a second byte merely causes one extra spin.
        self.shared.poke();
        let handle = self.thread.lock().take();
        if let Some(handle) = handle {
            if handle.thread().id() == std::thread::current().id() {
                // The sink's last Arc died on the reactor thread itself
                // (mid-dispatch): the loop is already on its way out via
                // the shutdown flag, so detach rather than self-join.
                drop(handle);
            } else {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn event_loop(shared: Arc<Shared>, wake_rx: UnixStream) {
    let mut events = [EpollEvent::EMPTY; MAX_EVENTS];
    // Scratch reused across iterations: decoded frames and dead
    // connections awaiting dispatch, and the flush worklist.
    let mut inbox: Vec<(u64, u64, Frame)> = Vec::new();
    let mut gone: Vec<(u64, u64)> = Vec::new();
    let mut flush: Vec<u64> = Vec::new();
    let mut wake_buf = [0u8; 64];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let n = match shared.epoll.wait(&mut events, 100) {
            Ok(n) => n,
            Err(_) => return,
        };
        if let Some(m) = &shared.metrics {
            m.waits.inc();
        }
        flush.clear();
        for ev in &events[..n] {
            let token = ev.data;
            let bits = ev.events;
            if token == WAKE_TOKEN {
                // Drain the pipe, *then* clear the coalescing flag: while
                // the flag is set no sender writes, so the drain cannot
                // eat the byte of a sender that saw it clear (which would
                // leave the flag set over an empty pipe, every later poke
                // coalesced away). The clear still comes *before* the
                // dirty list is drained below: a sender queueing after it
                // writes a fresh byte, so no wakeup is ever lost.
                // A short read has emptied the pipe; a byte written
                // after it is re-reported (level-triggered).
                let mut rx = &wake_rx;
                while let Ok(n) = rx.read(&mut wake_buf) {
                    if n < wake_buf.len() {
                        break;
                    }
                }
                shared.wake_pending.store(false, Ordering::Release);
                continue;
            }
            let Some(conn) = shared.conn(token) else {
                continue;
            };
            if bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
                read_ready(&shared, &conn, &mut inbox, &mut gone);
            }
            if bits & EPOLLOUT != 0 {
                flush.push(token);
            }
        }
        {
            let mut dirty = shared.dirty.lock();
            flush.append(&mut dirty);
        }
        flush.sort_unstable();
        flush.dedup();
        for &id in flush.iter() {
            if let Some(conn) = shared.conn(id) {
                flush_conn(&shared, &conn, &mut gone);
            }
        }
        dispatch(&shared, &mut inbox, &mut gone);
    }
}

/// Drains a readable connection: reads until a short read (or
/// `WouldBlock`), decoding every complete frame out of the reassembly
/// buffer into the inbox. A read that returns less than it asked for has
/// emptied the socket; epoll is level-triggered, so bytes — or the EOF —
/// that land afterwards report the connection readable again. EOF and
/// errors close the connection.
#[aqua::hot_path]
fn read_ready(
    shared: &Shared,
    conn: &Conn,
    inbox: &mut Vec<(u64, u64, Frame)>,
    gone: &mut Vec<(u64, u64)>,
) {
    let mut io = conn.io.lock();
    if io.closed {
        return;
    }
    let mut dead = false;
    {
        let ConnIo {
            stream, assembler, ..
        } = &mut *io;
        'reads: loop {
            if let Some(m) = &shared.metrics {
                m.reads.inc();
            }
            match assembler.read_from(stream) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    loop {
                        match assembler.next_frame() {
                            Ok(Some(frame)) => inbox.push((conn.tag, conn.id, frame)),
                            Ok(None) => break,
                            Err(_) => {
                                dead = true;
                                break 'reads;
                            }
                        }
                    }
                    if n < READ_CHUNK {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
    }
    if dead {
        close_conn(shared, conn, &mut io, gone);
    }
}

/// The loop's flush of one connection; a write error closes it.
fn flush_conn(shared: &Shared, conn: &Conn, gone: &mut Vec<(u64, u64)>) {
    let mut io = conn.io.lock();
    if io.closed {
        return;
    }
    if flush_ring(shared, conn, &mut io).is_err() {
        close_conn(shared, conn, &mut io, gone);
    }
}

/// Flushes a connection's outbound ring with vectored writes: up to
/// [`MAX_IOVECS`] queued frame segments per syscall. On a partial write
/// the cursor advances; on `WouldBlock`, `EPOLLOUT` is armed and the
/// remainder waits for writability. Runs under the connection's I/O lock
/// on the loop and on a sender that is alone, so whoever holds the lock
/// writes from the head of the ring.
///
/// # Errors
///
/// The write error that killed the connection; the ring is left as is.
#[aqua::hot_path]
fn flush_ring(shared: &Shared, conn: &Conn, io: &mut ConnIo) -> io::Result<()> {
    let mut result = Ok(());
    let mut popped = 0u64;
    let ConnIo {
        stream,
        out,
        out_head,
        want_write,
        ..
    } = io;
    loop {
        if out.is_empty() {
            if *want_write {
                *want_write = false;
                let _ = shared.epoll.modify(conn.fd, EPOLLIN | EPOLLRDHUP, conn.id);
            }
            break;
        }
        let written = {
            let mut slices = [IoSlice::new(&[]); MAX_IOVECS];
            let mut count = 0usize;
            for (i, seg) in out.iter().enumerate() {
                if count == MAX_IOVECS {
                    break;
                }
                let bytes = seg.as_slice();
                slices[count] = IoSlice::new(if i == 0 { &bytes[*out_head..] } else { bytes });
                count += 1;
            }
            match stream.write_vectored(&slices[..count]) {
                Ok(n) => {
                    if let Some(m) = &shared.metrics {
                        m.writevs.inc();
                        m.batch_frames.record(count as u64);
                    }
                    n
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !*want_write {
                        *want_write = true;
                        let _ =
                            shared
                                .epoll
                                .modify(conn.fd, EPOLLIN | EPOLLRDHUP | EPOLLOUT, conn.id);
                    }
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        };
        let mut left = written;
        while left > 0 {
            let seg_left = out[0].len() - *out_head;
            if left >= seg_left {
                left -= seg_left;
                out.pop_front();
                *out_head = 0;
                popped += 1;
            } else {
                *out_head += left;
                left = 0;
            }
        }
    }
    if popped > 0 {
        if let Some(g) = &conn.depth {
            g.sub(popped as i64);
        }
    }
    result
}

/// Tears one connection down under its I/O lock: deregisters the fd,
/// shuts the socket, discards queued output, and records the loss for
/// dispatch. Idempotent.
fn close_conn(shared: &Shared, conn: &Conn, io: &mut ConnIo, gone: &mut Vec<(u64, u64)>) {
    if io.closed {
        return;
    }
    io.closed = true;
    shared.epoll.delete(conn.fd);
    let _ = io.stream.shutdown(std::net::Shutdown::Both);
    io.out.clear();
    io.out_head = 0;
    if let Some(g) = &conn.depth {
        g.set(0);
    }
    gone.push((conn.tag, conn.id));
}

/// Hands buffered frames and disconnects to the sink with no reactor
/// locks held, after pruning dead connections from the map.
fn dispatch(shared: &Shared, inbox: &mut Vec<(u64, u64, Frame)>, gone: &mut Vec<(u64, u64)>) {
    if inbox.is_empty() && gone.is_empty() {
        return;
    }
    if !gone.is_empty() {
        let mut conns = shared.conns.write().unwrap_or_else(|p| p.into_inner());
        for (_, id) in gone.iter() {
            conns.remove(id);
        }
    }
    let sink = {
        let slot = shared.sink.read().unwrap_or_else(|p| p.into_inner());
        slot.as_ref().and_then(|w| w.upgrade())
    };
    let Some(sink) = sink else {
        inbox.clear();
        gone.clear();
        return;
    };
    for (tag, id, frame) in inbox.drain(..) {
        sink.on_frame(tag, id, frame);
    }
    for (tag, id) in gone.drain(..) {
        sink.on_disconnect(tag, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{unbounded, Receiver, Sender};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    /// `(tag, conn, frame)`; no frame means the connection was lost.
    type SinkEvent = (u64, u64, Option<Frame>);

    /// Test sink forwarding events over a channel.
    struct ChanSink {
        tx: Sender<SinkEvent>,
    }

    impl ReactorSink for ChanSink {
        fn on_frame(&self, tag: u64, conn: u64, frame: Frame) {
            let _ = self.tx.send((tag, conn, Some(frame)));
        }
        fn on_disconnect(&self, tag: u64, conn: u64) {
            let _ = self.tx.send((tag, conn, None));
        }
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    /// Installs a [`ChanSink`] on `reactor`; the sink must outlive the
    /// test (the reactor holds it weakly).
    fn chan_sink(reactor: &Reactor) -> (Arc<ChanSink>, Receiver<SinkEvent>) {
        let (tx, rx) = unbounded();
        let sink = Arc::new(ChanSink { tx });
        let weak = Arc::downgrade(&sink);
        let weak: Weak<dyn ReactorSink> = weak;
        reactor.set_sink(weak);
        (sink, rx)
    }

    #[test]
    fn frames_flow_both_ways() {
        let reactor = Reactor::spawn(None).unwrap();
        let (_sink, rx) = chan_sink(&reactor);

        let (ours, mut theirs) = pair();
        let conn = reactor.register(ours, 7).unwrap();

        // Outbound: queued frame reaches the peer.
        let frame = Frame::Hello { client: 3 };
        assert!(reactor.send(conn, &frame));
        theirs
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(Frame::read_from(&mut theirs).unwrap(), frame);

        // Inbound: peer's frame arrives at the sink with our tag.
        let reply = Frame::PerfUpdate {
            replica: 1,
            service_ns: 2,
            queue_ns: 3,
            queue_len: 4,
            method: 5,
        };
        reply.write_to(&mut theirs).unwrap();
        let (tag, id, got) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!((tag, id), (7, conn));
        assert_eq!(got, Some(reply));

        // Disconnect: dropping the peer surfaces as a loss event.
        drop(theirs);
        let (tag, id, got) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!((tag, id, got), (7, conn, None));
        assert_eq!(reactor.conn_count(), 0, "dead conn pruned");
    }

    #[test]
    fn multicast_encodes_once_and_reaches_every_target() {
        let reactor = Reactor::spawn(None).unwrap();
        let (a_ours, mut a_theirs) = pair();
        let (b_ours, mut b_theirs) = pair();
        let a = reactor.register(a_ours, 0).unwrap();
        let b = reactor.register(b_ours, 1).unwrap();
        let frame = Frame::Request {
            seq: 9,
            method: 1,
            payload: Bytes::from_static(b"fan out"),
        };
        assert_eq!(reactor.multicast(&[a, b], &frame), 2);
        for peer in [&mut a_theirs, &mut b_theirs] {
            peer.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            assert_eq!(&Frame::read_from(peer).unwrap(), &frame);
        }
        // Unknown targets don't count.
        assert_eq!(reactor.multicast(&[a, 999], &frame), 1);
        assert_eq!(&Frame::read_from(&mut a_theirs).unwrap(), &frame);
    }

    #[test]
    fn shutdown_joins_and_register_fails_after() {
        let reactor = Reactor::spawn(None).unwrap();
        let (ours, _theirs) = pair();
        reactor.shutdown();
        reactor.shutdown(); // idempotent
        assert!(reactor.register(ours, 0).is_err());
    }

    #[test]
    fn queued_batch_survives_backpressure() {
        // Stuff far more than one socket buffer into the ring while the
        // peer reads nothing, then drain: every frame must arrive intact
        // and in order (partial writes + EPOLLOUT rearming).
        let reactor = Reactor::spawn(None).unwrap();
        let (ours, mut theirs) = pair();
        let conn = reactor.register(ours, 0).unwrap();
        let payload = Bytes::from(vec![0xABu8; 32 * 1024]);
        let total = 64usize;
        for seq in 0..total as u64 {
            let frame = Frame::Request {
                seq,
                method: 0,
                payload: payload.clone(),
            };
            assert!(reactor.send(conn, &frame));
        }
        theirs
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for seq in 0..total as u64 {
            match Frame::read_from(&mut theirs).unwrap() {
                Frame::Request { seq: got, .. } => assert_eq!(got, seq),
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    /// Two threads send big frames on one connection while the peer reads
    /// nothing, so the ring backs up behind `EPOLLOUT`; then the peer
    /// drains. With `guarded`, each send sits inside its own call guard:
    /// the in-flight count flips between 1 and 2, so sends that flush
    /// inline and sends left to the loop interleave on the one ring.
    fn two_senders_through_backpressure(guarded: bool) {
        const PER_SENDER: u64 = 32;
        let reactor = Arc::new(Reactor::spawn(None).unwrap());
        let (ours, mut theirs) = pair();
        let conn = reactor.register(ours, 0).unwrap();
        let payload = Bytes::from(vec![0xABu8; 32 * 1024]);
        let senders: Vec<_> = (0..2u64)
            .map(|sender| {
                let reactor = Arc::clone(&reactor);
                let payload = payload.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_SENDER {
                        let _call = guarded.then(|| reactor.enter_call());
                        let frame = Frame::Request {
                            seq: (sender << 32) | i,
                            method: 0,
                            payload: payload.clone(),
                        };
                        assert!(reactor.send(conn, &frame));
                    }
                })
            })
            .collect();
        for sender in senders {
            sender.join().unwrap();
        }
        theirs
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut next = [0u64; 2];
        for _ in 0..2 * PER_SENDER {
            match Frame::read_from(&mut theirs).unwrap() {
                Frame::Request {
                    seq, payload: got, ..
                } => {
                    let sender = (seq >> 32) as usize;
                    assert_eq!(
                        seq & 0xFFFF_FFFF,
                        next[sender],
                        "sender {sender}'s frames left out of order or twice"
                    );
                    next[sender] += 1;
                    assert_eq!(got, payload);
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(next, [PER_SENDER; 2], "every frame arrived");
        // ... and nothing was written twice.
        theirs
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut byte = [0u8; 1];
        assert!(theirs.read(&mut byte).is_err(), "bytes past the last frame");
    }

    #[test]
    fn concurrent_inline_flushes_keep_ring_order() {
        // No call guards: both senders count as alone and flush inline.
        two_senders_through_backpressure(false);
    }

    #[test]
    fn inline_and_queued_sends_never_reorder() {
        two_senders_through_backpressure(true);
    }

    #[test]
    fn a_full_chunk_then_one_more_frame_are_all_decoded() {
        // Exactly `READ_CHUNK` bytes of frames in one write: that read is
        // not short, so the round reads again; the frame written later is
        // picked up by a later round.
        let reactor = Reactor::spawn(None).unwrap();
        let (_sink, rx) = chan_sink(&reactor);
        let (ours, mut theirs) = pair();
        reactor.register(ours, 0).unwrap();
        let frame = |seq: u64| Frame::Request {
            seq,
            method: 0,
            payload: Bytes::from(vec![seq as u8; 1024 - 21]),
        };
        assert_eq!(frame(0).encoded_len(), 1024);
        let frames = READ_CHUNK / 1024;
        let mut burst = Vec::new();
        for seq in 0..frames as u64 {
            frame(seq).encode_into(&mut burst);
        }
        assert_eq!(burst.len(), READ_CHUNK);
        theirs.write_all(&burst).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        frame(frames as u64).write_to(&mut theirs).unwrap();
        for seq in 0..=frames as u64 {
            let (_, _, got) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(got, Some(frame(seq)));
        }
    }

    #[test]
    fn a_close_right_after_a_short_read_still_disconnects() {
        // The read that takes the frame is short and ends the round
        // without seeing the EOF behind it; level-triggered epoll reports
        // the connection again.
        let reactor = Reactor::spawn(None).unwrap();
        let (_sink, rx) = chan_sink(&reactor);
        let (ours, mut theirs) = pair();
        let conn = reactor.register(ours, 4).unwrap();
        let frame = Frame::Hello { client: 1 };
        frame.write_to(&mut theirs).unwrap();
        drop(theirs);
        let (_, _, got) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got, Some(frame));
        let lost = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(lost, (4, conn, None));
        assert_eq!(reactor.conn_count(), 0);
    }
}
