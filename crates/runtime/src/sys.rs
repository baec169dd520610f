//! Raw `epoll` syscalls for the reactor.
//!
//! The workspace's vendor-only dependency policy rules out `libc`, `mio`,
//! and `tokio`; the four symbols the reactor needs are declared here
//! directly against the C library that `std` already links. This is the
//! single module in the crate allowed to contain `unsafe` — everything
//! above it works with safe wrappers returning `io::Result`.

#![allow(unsafe_code)]

use std::io;
use std::os::unix::io::RawFd;

/// Interest/readiness: the fd is readable (or the peer closed).
pub const EPOLLIN: u32 = 0x1;
/// Interest/readiness: the fd accepts writes without blocking.
pub const EPOLLOUT: u32 = 0x4;
/// Readiness only: error condition on the fd.
pub const EPOLLERR: u32 = 0x8;
/// Readiness only: hang-up (peer closed both directions).
pub const EPOLLHUP: u32 = 0x10;
/// Interest/readiness: peer shut down its write half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;

/// Mirror of the kernel's `struct epoll_event`.
///
/// Packed to match the x86-64 syscall ABI, where the kernel declares the
/// struct `__attribute__((packed))` (12 bytes, not 16).
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN` | …).
    pub events: u32,
    /// Caller-chosen cookie, echoed back verbatim — the reactor stores
    /// the connection token here.
    pub data: u64,
}

impl EpollEvent {
    /// The all-zero event used to size `epoll_wait` buffers.
    pub const EMPTY: EpollEvent = EpollEvent { events: 0, data: 0 };
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance; the fd is closed on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failures.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 has no memory preconditions; the flag is a
        // valid constant and the returned fd is error-checked by `cvt`.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` is a live, properly initialized `#[repr(C, packed)]`
        // event for the duration of the call; `self.fd` is the owned epoll
        // fd, open until drop.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` with the given interest set and cookie.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures.
    pub fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, data)
    }

    /// Replaces `fd`'s interest set (used to arm/disarm `EPOLLOUT`).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures.
    pub fn modify(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, data)
    }

    /// Blocks until at least one registered fd is ready (or `timeout_ms`
    /// elapses; `-1` waits forever) and fills `events`. Returns how many
    /// entries were written. `EINTR` surfaces as `Ok(0)` so callers just
    /// loop.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failures other than `EINTR`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = events.len().min(i32::MAX as usize) as i32;
        // SAFETY: the out-pointer and `max` come from the same live slice,
        // so the kernel writes at most `events.len()` entries; `self.fd`
        // is the owned epoll fd, open until drop.
        match cvt(unsafe { epoll_wait(self.fd, events.as_mut_ptr(), max, timeout_ms) }) {
            Ok(n) => Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is owned exclusively by this Epoll and never
        // exposed, so this is the single close of a valid descriptor.
        let _ = unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn epoll_reports_readability() {
        let epoll = Epoll::new().expect("epoll_create1");
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        epoll.add(b.as_raw_fd(), EPOLLIN, 42).expect("add");

        let mut events = [EpollEvent::EMPTY; 4];
        let n = epoll.wait(&mut events, 0).expect("wait");
        assert_eq!(n, 0, "nothing written yet");

        a.write_all(b"x").expect("write");
        let n = epoll.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        let data = events[0].data;
        assert_eq!(data, 42, "cookie echoed back");
        let bits = events[0].events;
        assert_ne!(bits & EPOLLIN, 0, "readable");
    }

    #[test]
    fn interest_can_be_modified() {
        let epoll = Epoll::new().expect("epoll_create1");
        let (_a, b) = UnixStream::pair().expect("socketpair");
        epoll.add(b.as_raw_fd(), EPOLLIN, 1).expect("add");
        epoll
            .modify(b.as_raw_fd(), EPOLLIN | EPOLLOUT, 1)
            .expect("mod");
        let mut events = [EpollEvent::EMPTY; 4];
        let n = epoll.wait(&mut events, 100).expect("wait");
        assert_eq!(n, 1, "stream sockets are writable at rest");
    }
}
