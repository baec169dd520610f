//! Positive fixture for `no-wallclock-in-sim`: host-clock reads, one per
//! construct.

use std::time::{Instant, SystemTime};

/// A plain call.
pub fn called() -> Instant {
    Instant::now()
}

/// Fully qualified, passed as a function.
pub fn passed(observed: bool) -> Option<std::time::Instant> {
    observed.then(std::time::Instant::now)
}

/// The calendar clock.
pub fn calendar() -> SystemTime {
    SystemTime::now()
}

/// An annotation without a reason suppresses nothing.
pub fn unjustified() -> Instant {
    // aqua-lint: allow(no-wallclock-in-sim)
    Instant::now()
}
