//! The timed window: one caller thread in a closed loop, cut into equal
//! segments so every timing metric is a median over segments with its
//! spread beside it.

use std::time::{Duration, Instant};

use crate::host;
use crate::pass::Pass;
use crate::stats::{LogHistogram, Summary};

/// Segments per window. Five gives a median that one disturbed segment
/// cannot move and quartiles the driver's own rule can be applied to.
pub const SEGMENTS: usize = 5;

/// What one segment of a closed loop saw.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Wall seconds the segment lasted.
    pub elapsed_s: f64,
    /// Process CPU seconds (all threads) used during the segment.
    pub cpu_s: f64,
    /// Per-call wall latency.
    pub latency: LogHistogram,
}

impl Segment {
    fn calls(&self) -> u64 {
        self.latency.count()
    }
}

/// What a request workload counts beside the latencies of a window.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Replicas selected, summed over calls.
    pub selected: u64,
    /// Calls answered within the deadline.
    pub timely: u64,
    /// Handler events: one per plan, per reply, per perf update.
    pub events: u64,
}

/// A finished window.
#[derive(Debug, Clone)]
pub struct Window {
    /// The segments in time order.
    pub segments: Vec<Segment>,
}

/// Runs `call` back to back on this thread for `length`, the next call
/// starting when the previous one returns. One clock read per call: the
/// end of a call is the start of the next, so loop overhead is inside the
/// latency and the latencies sum to the elapsed time.
pub fn closed_loop(length: Duration, mut call: impl FnMut()) -> Window {
    let segment_length = length / SEGMENTS as u32;
    let mut segments = Vec::with_capacity(SEGMENTS);
    let mut previous = Instant::now();
    for _ in 0..SEGMENTS {
        let started = previous;
        let ends = started + segment_length;
        let cpu_before = host::cpu_seconds();
        let mut latency = LogHistogram::new();
        loop {
            call();
            let now = Instant::now();
            latency.record((now - previous).as_nanos() as u64);
            previous = now;
            if now >= ends {
                break;
            }
        }
        segments.push(Segment {
            elapsed_s: (previous - started).as_secs_f64(),
            cpu_s: host::cpu_seconds() - cpu_before,
            latency,
        });
    }
    Window { segments }
}

impl Window {
    /// Calls completed in the window.
    pub fn calls(&self) -> u64 {
        self.segments.iter().map(Segment::calls).sum()
    }

    /// Wall seconds the window lasted.
    pub fn elapsed_s(&self) -> f64 {
        self.segments.iter().map(|s| s.elapsed_s).sum()
    }

    fn over_segments(&self, f: impl Fn(&Segment) -> f64) -> Summary {
        let values: Vec<f64> = self.segments.iter().map(f).collect();
        Summary::over(&values, self.calls())
    }

    /// Completed calls per second.
    pub fn calls_per_s(&self) -> Summary {
        self.over_segments(|s| s.calls() as f64 / s.elapsed_s)
    }

    /// The `q`-quantile of per-call latency in microseconds, per segment.
    pub fn latency_us(&self, q: f64) -> Summary {
        self.over_segments(|s| s.latency.quantile_us(q))
    }

    /// The `q`-quantile in microseconds over the whole window: for tails
    /// too thin to be taken per segment.
    pub fn latency_us_whole(&self, q: f64) -> Summary {
        let merged = self.merged_latency();
        Summary::exact(merged.quantile(q).unwrap_or(f64::NAN) / 1e3, merged.count())
    }

    /// Process CPU microseconds per call.
    pub fn cpu_us_per_call(&self) -> Summary {
        self.over_segments(|s| s.cpu_s * 1e6 / s.calls() as f64)
    }

    /// Sets the end-to-end metrics of a request workload on `pass`.
    pub fn report(&self, counts: Counts, pass: &mut Pass) {
        let calls = self.calls();
        let per_call = |count: u64| count as f64 / calls.max(1) as f64;
        let rate = self.calls_per_s();
        pass.rate = rate.value;
        pass.set("calls_per_s", rate);
        pass.set("call_p50_us", self.latency_us(0.5));
        pass.set("call_p99_us", self.latency_us(0.99));
        pass.set("cpu_us_per_call", self.cpu_us_per_call());
        pass.set(
            "timely_share",
            Summary::exact(per_call(counts.timely), calls),
        );
        pass.set(
            "mean_redundancy",
            Summary::exact(per_call(counts.selected), calls),
        );
        // Events per call are fixed by the seed, so the event rate moves
        // with the call rate and shares its segment spread.
        let events_per_call = per_call(counts.events);
        pass.set(
            "sim_events_per_s",
            Summary {
                value: rate.value * events_per_call,
                iqr: rate.iqr * events_per_call,
                samples: counts.events,
            },
        );
    }

    /// Every segment's latencies in one histogram.
    pub fn merged_latency(&self) -> LogHistogram {
        let mut merged = LogHistogram::new();
        for segment in &self.segments {
            merged.merge(&segment.latency);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_cuts_equal_segments_and_counts_every_call() {
        let mut calls = 0u64;
        let window = closed_loop(Duration::from_millis(50), || {
            calls += 1;
            std::hint::black_box(calls);
        });
        assert_eq!(window.segments.len(), SEGMENTS);
        assert_eq!(window.calls(), calls);
        for segment in &window.segments {
            assert!(segment.elapsed_s >= 0.010, "{}", segment.elapsed_s);
            assert!(segment.calls() > 0);
        }
        // Latencies sum to the elapsed time by construction.
        assert!((window.elapsed_s() - 0.050).abs() < 0.02);
        assert!(window.calls_per_s().value > 0.0);
        assert!(window.latency_us(0.5).value <= window.latency_us(0.99).value);
    }
}
