//! Collision fixture for `pub-has-caller`: four files, split on the
//! `// file:` lines. `AquaClient` forwards `set_fault_windows` and
//! `configure_watchdog` to the handler and its observer, whose methods
//! share those names; nothing calls the client's two.

// file: crates/gateway/src/concurrent.rs
use std::sync::Mutex;

use crate::obs::HandlerObserver;

/// The handler.
pub struct ConcurrentHandler {
    observer: Mutex<HandlerObserver>,
}

impl ConcurrentHandler {
    /// Forwards to the observer.
    pub fn set_fault_windows(&self, windows: Vec<u64>) {
        if let Ok(mut observer) = self.observer.lock() {
            observer.set_fault_windows(windows);
        }
    }

    /// Runs `f` on the observer.
    pub fn with_observer(&self, f: impl FnOnce(&mut HandlerObserver)) {
        if let Ok(mut observer) = self.observer.lock() {
            f(&mut observer);
        }
    }
}

// file: crates/gateway/src/obs.rs
/// The observer.
#[derive(Default)]
pub struct HandlerObserver {
    windows: Vec<u64>,
}

impl HandlerObserver {
    /// Stores the windows.
    pub fn set_fault_windows(&mut self, windows: Vec<u64>) {
        self.windows = windows;
    }

    /// Replaces the watchdog.
    pub fn configure_watchdog(&mut self, margin: u64) {
        self.windows.push(margin);
    }
}

// file: crates/gateway/src/client.rs
/// A simulated client: names the handler, not the runtime client.
pub fn start(handler: &crate::concurrent::ConcurrentHandler) {
    handler.set_fault_windows(Vec::new());
    handler.with_observer(|observer| observer.configure_watchdog(1));
}

// file: crates/runtime/src/client.rs
use aqua_gateway::ConcurrentHandler;

/// The socket client.
pub struct AquaClient {
    handler: ConcurrentHandler,
}

impl AquaClient {
    /// Connects.
    pub fn connect(handler: ConcurrentHandler) -> Self {
        AquaClient { handler }
    }

    /// The client's handler.
    pub fn handler(&self) -> &ConcurrentHandler {
        &self.handler
    }

    /// Hidden by the handler's method of the same name.
    pub fn set_fault_windows(&self, windows: Vec<u64>) {
        self.handler.set_fault_windows(windows);
    }

    /// Hidden by the observer's method of the same name.
    pub fn configure_watchdog(&self, margin: u64) {
        self.handler
            .with_observer(|observer| observer.configure_watchdog(margin));
    }
}

// file: crates/runtime/tests/e2e.rs
use aqua_runtime::AquaClient;

/// Names the client, but its call is the path of the handler's method.
#[test]
fn e2e() {
    let client = AquaClient::connect(Default::default());
    aqua_gateway::ConcurrentHandler::set_fault_windows(client.handler(), Vec::new());
    start(client.handler());
}
