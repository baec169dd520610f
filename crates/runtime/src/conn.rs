//! One framed, nonblocking connection: how a socket reads frames, and how
//! it buffers, bounds and flushes its output (DESIGN.md §15). The replica
//! server's loop and the client's reactor keep their sockets as [`Conn`]s;
//! when to read and who flushes is theirs to decide.
//!
//! Output is one contiguous buffer of encoded frames, written from the
//! front; `EPOLLOUT` is armed only while bytes wait. A peer that lets more
//! than [`MAX_UNSENT`] bytes pile up counts as failed, so no peer can make
//! either side buffer without bound.

use std::io::ErrorKind::{Interrupted, WouldBlock};
use std::io::{self, Write as _};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;

use aqua_core::aqua;

use crate::sys::{Epoll, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wire::{Frame, FrameAssembler, MAX_FRAME};

/// Unsent bytes past which a connection's peer counts as failed: two of
/// the largest frames, so no single frame trips it on its own.
pub(crate) const MAX_UNSENT: usize = 2 * MAX_FRAME as usize;

/// A client connection's instruments: its `read`s and socket writes
/// (`aqua_net_syscalls_total{op="read"|"writev"}`), the frames each write
/// carried (`aqua_net_writev_batch_frames`), and the frames waiting in its
/// output (`aqua_net_outbound_queue_depth{conn}`).
pub(crate) struct ConnMetrics {
    reads: Arc<aqua_obs::metrics::Counter>,
    writes: Arc<aqua_obs::metrics::Counter>,
    batch_frames: Arc<aqua_obs::metrics::Histogram>,
    depth: Arc<aqua_obs::metrics::Gauge>,
}

impl ConnMetrics {
    pub(crate) fn new(obs: &aqua_obs::Obs, conn: u64) -> ConnMetrics {
        let registry = obs.registry();
        let conn = conn.to_string();
        ConnMetrics {
            reads: registry.counter("aqua_net_syscalls_total", &[("op", "read")]),
            writes: registry.counter("aqua_net_syscalls_total", &[("op", "writev")]),
            batch_frames: registry.histogram("aqua_net_writev_batch_frames", &[]),
            depth: registry.gauge("aqua_net_outbound_queue_depth", &[("conn", conn.as_str())]),
        }
    }
}

/// One nonblocking socket registered with an epoll set under `token`.
pub(crate) struct Conn {
    stream: TcpStream,
    token: u64,
    assembler: FrameAssembler,
    /// Encoded frames, back to back from a frame boundary at `out[0]`.
    out: Vec<u8>,
    /// Bytes at the front of `out` the kernel has taken.
    sent: usize,
    /// Frames with bytes in `out[sent..]`.
    frames: usize,
    /// The interest set registered with epoll.
    interest: u32,
    metrics: Option<ConnMetrics>,
}

impl Conn {
    /// Makes `stream` nonblocking with Nagle off and registers it with
    /// `epoll` under `token`, for reads if `reading`.
    pub(crate) fn open(
        stream: TcpStream,
        epoll: &Epoll,
        token: u64,
        reading: bool,
        metrics: Option<ConnMetrics>,
    ) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let interest = interest(reading, false);
        epoll.add(stream.as_raw_fd(), interest, token)?;
        Ok(Conn {
            stream,
            token,
            assembler: FrameAssembler::new(),
            out: Vec::new(),
            sent: 0,
            frames: 0,
            interest,
            metrics,
        })
    }

    /// One `read` into the reassembly buffer. `Ok(0)`: nothing to read
    /// now; epoll is level-triggered, so later bytes report the socket
    /// again. An error (end-of-file included) means the connection must go.
    pub(crate) fn read(&mut self) -> io::Result<usize> {
        if let Some(m) = &self.metrics {
            m.reads.inc();
        }
        match self.assembler.read_from(&mut self.stream) {
            Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
            Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => Ok(0),
            read => read,
        }
    }

    /// The next complete frame read so far, if any. An error is a
    /// malformed frame: framing is lost and the connection must go.
    pub(crate) fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        self.assembler.next_frame()
    }

    /// Bytes read but not yet taken as frames.
    pub(crate) fn pending(&self) -> usize {
        self.assembler.pending()
    }

    /// Appends one frame to the output; the caller flushes it. Past
    /// [`MAX_UNSENT`] unsent bytes it writes what the socket takes on the
    /// spot, and an error says the peer has failed.
    #[aqua::hot_path]
    pub(crate) fn queue(&mut self, frame: &Frame) -> io::Result<()> {
        frame.encode_into(&mut self.out);
        self.frames += 1;
        if self.out.len() - self.sent > MAX_UNSENT {
            return self.write_out();
        }
        if let Some(m) = &self.metrics {
            m.depth.set(self.frames as i64);
        }
        Ok(())
    }

    /// Writes what the socket takes now and arms `EPOLLOUT` for the rest,
    /// keeping the read interest as it is. An error says the peer has
    /// failed: a write error, or more than [`MAX_UNSENT`] bytes unsent.
    pub(crate) fn flush(&mut self, epoll: &Epoll) -> io::Result<()> {
        self.write_out()?;
        self.rearm(epoll, self.interest & EPOLLIN != 0);
        Ok(())
    }

    /// Registers the interest the connection needs now, if it changed:
    /// reads if `reading`, writability while output waits.
    pub(crate) fn rearm(&mut self, epoll: &Epoll, reading: bool) {
        let want = interest(reading, self.sent < self.out.len());
        if want != self.interest {
            self.interest = want;
            let _ = epoll.modify(self.stream.as_raw_fd(), want, self.token);
        }
    }

    /// Hangs up on the peer. Dropping the socket's only descriptor takes
    /// it out of the epoll set.
    pub(crate) fn close(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(m) = &self.metrics {
            m.depth.set(0);
        }
    }

    /// Writes from the front of the output until it is empty or the
    /// socket would block, then drops the frames written whole.
    #[aqua::hot_path]
    fn write_out(&mut self) -> io::Result<()> {
        // The first frame not written whole starts here.
        let mut head = 0;
        let mut result = Ok(());
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => result = Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    if let Some(m) = &self.metrics {
                        m.writes.inc();
                        m.batch_frames.record(self.frames as u64);
                    }
                    self.sent += n;
                    while let Some(end) = frame_end(&self.out, head).filter(|&e| e <= self.sent) {
                        head = end;
                        self.frames -= 1;
                    }
                    continue;
                }
                Err(e) if e.kind() == Interrupted => continue,
                Err(e) if e.kind() == WouldBlock => {}
                Err(e) => result = Err(e),
            }
            break;
        }
        self.out.drain(..head);
        self.sent -= head;
        if let Some(m) = &self.metrics {
            m.depth.set(self.frames as i64);
        }
        if result.is_ok() && self.out.len() - self.sent > MAX_UNSENT {
            result = Err(io::Error::other("the peer lets its output pile up"));
        }
        result
    }
}

/// Where the frame starting at `at` in `out` ends, if one starts there.
fn frame_end(out: &[u8], at: usize) -> Option<usize> {
    let prefix = out.get(at..at + 4)?;
    let len = u32::from_be_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]);
    Some(at + 4 + len as usize)
}

/// The interest set of a connection: reads if `reading`, writability
/// while output waits.
fn interest(reading: bool, unsent: bool) -> u32 {
    let read = if reading { EPOLLIN | EPOLLRDHUP } else { 0 };
    read | if unsent { EPOLLOUT } else { 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::io::Read as _;
    use std::net::TcpListener;

    impl Conn {
        /// Feeds bytes to the reassembly buffer as if read.
        pub(crate) fn extend(&mut self, bytes: &[u8]) {
            self.assembler.extend(bytes);
        }
    }

    #[test]
    fn output_keeps_only_the_frames_not_written_whole() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let epoll = Epoll::new().unwrap();
        let mut conn = Conn::open(stream, &epoll, 0, true, None).unwrap();
        let frame = |seq| Frame::Request {
            seq,
            method: 0,
            payload: Bytes::from(vec![0xC3u8; 64 * 1024 - 21]),
        };
        let len = frame(0).encoded_len();
        assert_eq!(len, 64 * 1024);

        // The peer reads nothing: one frame at a time until the kernel
        // takes one in part.
        for seq in 0.. {
            assert!(seq < 1_000, "64 MiB and the socket still takes more");
            conn.queue(&frame(seq)).unwrap();
            conn.flush(&epoll).unwrap();
            if conn.sent < conn.out.len() {
                break;
            }
        }
        assert_eq!(conn.out.len(), len, "frames written whole are dropped");
        assert_eq!(conn.frames, 1);
        assert_eq!(conn.interest, EPOLLIN | EPOLLRDHUP | EPOLLOUT);
        for seq in 0..2 {
            conn.queue(&frame(seq)).unwrap();
        }
        assert_eq!(conn.frames, 3, "the part-written frame and two more");

        // The peer drains: everything goes, and so does `EPOLLOUT`.
        let reader = std::thread::spawn(move || {
            let mut buf = vec![0u8; 64 * 1024];
            while peer.read(&mut buf).is_ok_and(|n| n > 0) {}
        });
        while !conn.out.is_empty() {
            conn.flush(&epoll).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(conn.frames, 0);
        assert_eq!(conn.interest, EPOLLIN | EPOLLRDHUP);
        conn.close();
        reader.join().unwrap();
    }
}
