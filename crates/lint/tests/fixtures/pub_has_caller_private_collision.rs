//! Private-collision fixture for `pub-has-caller`: three files, split on the
//! `// file:` lines. The handler's own private `publish` shares its name
//! with the cell's `pub` one, and the handler's file names the cell; only
//! the handler's private method is ever called.

// file: crates/core/src/snapshot.rs
/// The cell.
#[derive(Default)]
pub struct SnapshotCell {
    value: u64,
}

impl SnapshotCell {
    /// Nothing calls it: the handler's calls are of its own `publish`.
    pub fn publish(&mut self, value: u64) {
        self.value = value;
    }

    /// Called by the handler.
    pub fn load(&self) -> u64 {
        self.value
    }
}

// file: crates/gateway/src/concurrent.rs
use aqua_core::snapshot::SnapshotCell;

/// The handler.
#[derive(Default)]
pub struct ConcurrentHandler {
    cell: SnapshotCell,
    published: u64,
}

impl ConcurrentHandler {
    /// Republishes.
    pub fn on_view(&mut self) {
        self.publish();
    }

    fn publish(&mut self) {
        self.published = self.cell.load() + 1;
    }
}

// file: crates/gateway/tests/it.rs
use aqua_gateway::ConcurrentHandler;

#[test]
fn it() {
    let mut handler = ConcurrentHandler::default();
    handler.on_view();
}
