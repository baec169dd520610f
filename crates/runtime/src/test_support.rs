//! Helpers shared by the crate's unit tests.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Polls `probe` until it holds or five seconds pass; returns whether it
/// held.
pub(crate) fn eventually(probe: impl Fn() -> bool) -> bool {
    let gives_up = Instant::now() + Duration::from_secs(5);
    while Instant::now() < gives_up {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    probe()
}

/// A listener that accepts and closes at once, counting as it goes: the
/// face a replica shows inside a down window, for the client-side tests.
pub(crate) struct RefusingListener {
    pub(crate) addr: SocketAddr,
    accepted: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl RefusingListener {
    pub(crate) fn spawn() -> RefusingListener {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let accepted = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (accepted, stop) = (Arc::clone(&accepted), Arc::clone(&stop));
            std::thread::spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    drop(stream);
                    accepted.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        RefusingListener {
            addr,
            accepted,
            stop,
            thread: Some(thread),
        }
    }

    /// Connections accepted (and closed) so far.
    pub(crate) fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::SeqCst)
    }
}

impl Drop for RefusingListener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
