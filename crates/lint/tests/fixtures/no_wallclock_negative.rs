//! Negative fixture for `no-wallclock-in-sim`: time that comes from the
//! caller, justified observer reads and test code stay silent.

use aqua_core::time::{Duration, Instant};

/// Simulated time is a parameter, never read.
pub fn deadline(now: Instant, after: Duration) -> Instant {
    now.saturating_add(after)
}

/// `now` as a field or a method on something else is not a clock read.
pub fn stamp(ctx: &Context) -> Instant {
    let now = ctx.now();
    now.max(ctx.clock.now)
}

/// A read that only a metric sees, with its reason.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    // aqua-lint: allow(no-wallclock-in-sim) the span's duration reaches a histogram, never a plan
    let started = std::time::Instant::now();
    (f(), started.elapsed())
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_time_themselves() {
        let _ = std::time::Instant::now();
    }
}
