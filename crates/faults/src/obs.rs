//! Fault timeline → `aqua-obs` journal events and counters.
//!
//! Every fault window produces two journal lines, mirroring what a chaos
//! tool would log:
//!
//! ```json
//! {"type":"fault","phase":"active","kind":"pause","replica":2,"at_ns":2000000000}
//! {"type":"fault","phase":"cleared","kind":"pause","replica":2,"at_ns":2500000000}
//! ```
//!
//! plus an `aqua_faults_injected_total{kind=...}` counter per activation, so
//! Fig. 5-style experiments can correlate injected faults with timing
//! failures straight from the JSONL journal.

use aqua_core::time::Instant;
use aqua_obs::json::JsonValue;
use aqua_obs::Obs;

use crate::plan::FaultSpec;
use crate::schedule::FaultSchedule;

fn emit_edge(obs: &Obs, spec: &FaultSpec, index: usize, phase: &str, at: Instant) {
    // `window` is the stable id linking this window's `active`/`cleared`
    // pair to the spans that carry it in `fault_windows`; `fault` is the
    // same value under the original field name, kept for older readers.
    let mut fields = JsonValue::object()
        .field("phase", phase)
        .field("kind", spec.kind.label())
        .field("fault", index)
        .field("window", index)
        .field("at_ns", at.as_nanos())
        .field("start_ns", spec.start.as_nanos())
        .field("end_ns", spec.end().as_nanos());
    fields = match spec.replica {
        Some(r) => fields.field("replica", r.index()),
        None => fields.field("scope", "network"),
    };
    obs.journal().emit_event("fault", fields);
    if phase == "active" {
        obs.registry()
            .counter("aqua_faults_injected_total", &[("kind", spec.kind.label())])
            .inc();
    }
}

/// Emits `fault` journal events for every window edge at or before `upto`.
///
/// The simulator calls this once at the end of a run (the schedule is a pure
/// function of time, so the whole timeline is known); live drivers that need
/// incremental emission use [`FaultTracker`].
pub fn emit_fault_events(obs: &Obs, schedule: &FaultSchedule, upto: Instant) {
    let mut tracker = FaultTracker::new(schedule.specs().len());
    tracker.advance(obs, schedule, upto);
}

/// Incremental emitter of fault active/cleared events.
///
/// Each socket replica's event loop owns one and calls
/// [`FaultTracker::advance`] at every transition it wakes up for; each window
/// edge is emitted exactly once, in time order per fault.
#[derive(Debug)]
pub struct FaultTracker {
    /// Per-spec progress: 0 = nothing emitted, 1 = activation emitted,
    /// 2 = clear emitted.
    emitted: Vec<u8>,
}

impl FaultTracker {
    /// A tracker for a schedule with `specs` fault windows.
    pub fn new(specs: usize) -> Self {
        FaultTracker {
            emitted: vec![0; specs],
        }
    }

    /// Emits every not-yet-emitted window edge at or before `now`.
    pub fn advance(&mut self, obs: &Obs, schedule: &FaultSchedule, now: Instant) {
        for (idx, spec) in schedule.specs().iter().enumerate() {
            let stage = &mut self.emitted[idx];
            if *stage == 0 && spec.start <= now {
                emit_edge(obs, spec, idx, "active", spec.start);
                *stage = 1;
            }
            // A saturated end (permanent crash) never clears.
            if *stage == 1 && spec.end() <= now && spec.end() > spec.start {
                emit_edge(obs, spec, idx, "cleared", spec.end());
                *stage = 2;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use aqua_core::time::Duration;

    #[test]
    fn edges_are_emitted_once_in_order() {
        let schedule = FaultPlan::new()
            .pause(2, Instant::from_secs(2), Duration::from_millis(500))
            .crash_forever(0, Instant::from_secs(3))
            .instantiate(7);
        let (obs, reader) = Obs::in_memory();
        let mut tracker = FaultTracker::new(schedule.specs().len());
        tracker.advance(&obs, &schedule, Instant::from_secs(1));
        assert!(reader.lines_containing("\"type\":\"fault\"").is_empty());
        tracker.advance(&obs, &schedule, Instant::from_secs(2));
        tracker.advance(&obs, &schedule, Instant::from_secs(10));
        // Re-advancing emits nothing new.
        tracker.advance(&obs, &schedule, Instant::from_secs(20));
        let lines = reader.lines_containing("\"type\":\"fault\"");
        assert_eq!(lines.len(), 3, "pause active+cleared, crash active only");
        assert!(
            lines[0].contains("\"phase\":\"active\"") && lines[0].contains("\"kind\":\"pause\"")
        );
        assert!(lines[1].contains("\"phase\":\"cleared\""));
        assert!(lines[2].contains("\"kind\":\"crash\""));
        assert!(obs.prometheus().contains("aqua_faults_injected_total"));
    }

    #[test]
    fn edges_carry_the_stable_window_id() {
        let schedule = FaultPlan::new()
            .pause(2, Instant::from_secs(2), Duration::from_millis(500))
            .degrade(1, Instant::from_secs(1), Duration::from_secs(1), 2.0)
            .instantiate(7);
        let (obs, reader) = Obs::in_memory();
        emit_fault_events(&obs, &schedule, Instant::from_secs(30));
        // Both edges of the same window share one id, and the id matches
        // what `FaultSchedule::windows` hands the span instrumentation.
        let pause_edges = reader.lines_containing("\"kind\":\"pause\"");
        assert_eq!(pause_edges.len(), 2);
        for edge in &pause_edges {
            assert!(edge.contains("\"window\":0"), "got: {edge}");
        }
        let degrade_edges = reader.lines_containing("\"kind\":\"degrade\"");
        assert!(degrade_edges.iter().all(|e| e.contains("\"window\":1")));
        let windows = schedule.windows();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].id, 0);
        assert_eq!(windows[0].kind, "pause");
        assert_eq!(windows[1].id, 1);
    }

    #[test]
    fn window_overlap_requires_target_and_time_intersection() {
        let schedule = FaultPlan::new()
            .pause(2, Instant::from_secs(2), Duration::from_secs(1))
            .delay_spike_all(Instant::from_secs(10), Duration::from_secs(1), 4.0)
            .instantiate(7);
        let w = schedule.windows();
        // Replica-targeted window: selected set must contain the target.
        assert!(w[0].overlaps(&[2, 5], Instant::from_secs(2), Instant::from_secs(3)));
        assert!(!w[0].overlaps(&[3, 5], Instant::from_secs(2), Instant::from_secs(3)));
        // Disjoint in time.
        assert!(!w[0].overlaps(&[2], Instant::from_secs(4), Instant::from_secs(5)));
        // A span ending exactly at the window's start still touches it.
        assert!(w[0].overlaps(&[2], Instant::from_secs(1), Instant::from_secs(2)));
        // Network-wide window touches any selection.
        assert!(w[1].overlaps(&[0], Instant::from_secs(10), Instant::from_secs(11)));
    }

    #[test]
    fn batch_emission_matches_tracker() {
        let schedule = FaultPlan::new()
            .degrade(1, Instant::from_secs(1), Duration::from_secs(1), 2.0)
            .instantiate(7);
        let (obs, reader) = Obs::in_memory();
        emit_fault_events(&obs, &schedule, Instant::from_secs(30));
        assert_eq!(reader.lines_containing("\"type\":\"fault\"").len(), 2);
    }
}
