//! Lock-contention accounting for the concurrent hot path.
//!
//! The throughput work of the runtime removed the global client lock; what
//! remains are short, named critical sections (pending-table shards,
//! ingestion shards, the snapshot publish lock). This module gives each of
//! them a pair of cached counters so a benchmark can read *how long callers
//! waited* to enter a section without any per-acquisition registry lookup:
//!
//! * `aqua_lock_wait_ns_total{lock="…"}` — cumulative nanoseconds spent
//!   blocked in `lock()` calls;
//! * `aqua_lock_acquisitions_total{lock="…"}` — number of acquisitions.
//!
//! The quotient is the mean lock-wait per acquisition — the direct measure
//! of how serialized a path still is (zero on an uncontended shard).
//!
//! Only registered counters time anything: a [`LockContention::detached`]
//! handle, the configuration of a handler with no [`crate::Obs`], takes
//! the lock and nothing else — no clock read, no atomic add.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::{Counter, Registry};

/// Metric name for cumulative nanoseconds spent waiting on a lock.
pub const LOCK_WAIT_NS_TOTAL: &str = "aqua_lock_wait_ns_total";
/// Metric name for the number of lock acquisitions.
pub const LOCK_ACQUISITIONS_TOTAL: &str = "aqua_lock_acquisitions_total";

/// The registered pair behind an accounting handle.
#[derive(Debug, Clone)]
struct Counters {
    wait_ns: Arc<Counter>,
    acquisitions: Arc<Counter>,
}

/// Cached wait-time counters for one named lock (or family of shards that
/// should be accounted together), or none at all.
///
/// Cloning shares the underlying counters, so a handle can be distributed
/// to every thread touching the section.
#[derive(Debug, Clone)]
pub struct LockContention {
    counters: Option<Counters>,
}

impl LockContention {
    /// Counters registered under the given lock name.
    pub fn new(registry: &Registry, lock: &str) -> Self {
        LockContention {
            counters: Some(Counters {
                wait_ns: registry.counter(LOCK_WAIT_NS_TOTAL, &[("lock", lock)]),
                acquisitions: registry.counter(LOCK_ACQUISITIONS_TOTAL, &[("lock", lock)]),
            }),
        }
    }

    /// No counters: acquisitions are neither timed nor counted. The
    /// configuration for handlers that have no [`crate::Obs`] attached.
    pub fn detached() -> Self {
        LockContention { counters: None }
    }

    /// Records one acquisition that waited `waited` to enter the section
    /// (a no-op on a detached handle).
    #[inline]
    pub fn record(&self, waited: Duration) {
        if let Some(counters) = &self.counters {
            counters.wait_ns.add(waited.as_nanos() as u64);
            counters.acquisitions.inc();
        }
    }

    /// Runs `acquire` (a closure performing the blocking `lock()` call)
    /// and returns the guard; a registered handle also times the call and
    /// records the wait.
    #[inline]
    pub fn acquire<G>(&self, acquire: impl FnOnce() -> G) -> G {
        if self.counters.is_none() {
            return acquire();
        }
        let started = Instant::now();
        let guard = acquire();
        self.record(started.elapsed());
        guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_detached_handle_counts_nothing() {
        let c = LockContention::detached();
        c.record(Duration::from_nanos(120));
        c.record(Duration::from_nanos(30));
        let m = std::sync::Mutex::new(7u32);
        assert_eq!(*c.acquire(|| m.lock().unwrap()), 7);
        assert!(c.counters.is_none());
    }

    #[test]
    fn registered_counters_share_the_registry_entry() {
        let registry = Registry::new();
        let a = LockContention::new(&registry, "pending-shard");
        let b = LockContention::new(&registry, "pending-shard");
        a.record(Duration::from_nanos(40));
        b.record(Duration::from_nanos(2));
        assert_eq!(
            registry
                .counter(LOCK_WAIT_NS_TOTAL, &[("lock", "pending-shard")])
                .get(),
            42
        );
        assert_eq!(
            registry
                .counter(LOCK_ACQUISITIONS_TOTAL, &[("lock", "pending-shard")])
                .get(),
            2
        );
    }

    #[test]
    fn acquire_times_the_closure() {
        let registry = Registry::new();
        let c = LockContention::new(&registry, "publish");
        let m = std::sync::Mutex::new(7u32);
        let guard = c.acquire(|| m.lock().unwrap());
        assert_eq!(*guard, 7);
        assert_eq!(
            registry
                .counter(LOCK_ACQUISITIONS_TOTAL, &[("lock", "publish")])
                .get(),
            1
        );
    }
}
