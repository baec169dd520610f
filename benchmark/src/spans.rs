//! The traced pass's span recorder: spans are taken in the benchmark,
//! around its calls into each layer, kept in memory, and written out when
//! the run ends.

use std::time::Instant;

use aqua_obs::json::JsonValue;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `gateway.concurrent.plan`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request all spans of one call share.
    pub request: u64,
    /// Operations timed inside the span: layer calls too short for one
    /// clock read are run `ops` times in one span.
    pub ops: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store with a fixed capacity: a traced window records
/// spans for sampled requests only, and stops recording (never
/// reallocating inside the timed loop) when full.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
}

impl Recorder {
    /// A recorder holding at most `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Nanoseconds since the recorder was created.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Whether a request of `spans_needed` spans still fits.
    #[inline]
    pub fn has_room(&self, spans_needed: usize) -> bool {
        self.spans.len() + spans_needed <= self.capacity
    }

    /// Opens a span at `start_ns`; [`Recorder::close`] sets its end.
    /// Returns the index children name as their parent, or `None` when
    /// the recorder is full.
    pub fn open(
        &mut self,
        name: &'static str,
        start_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        self.record(name, start_ns, start_ns, parent, request, 1)
    }

    /// Sets the end of an open span.
    pub fn close(&mut self, index: usize, end_ns: u64) {
        self.spans[index].end_ns = end_ns;
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
        ops: u32,
    ) -> Option<usize> {
        if self.spans.len() >= self.capacity {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            ops,
        });
        Some(self.spans.len() - 1)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of its interval
    /// that its child spans cover (overlapping children count once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let outer = &self.spans[parent];
                let start = span.start_ns.max(outer.start_ns);
                let end = span.end_ns.min(outer.end_ns);
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, intervals)| {
                intervals.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Spans that end before they start or do not lie inside their
    /// parent. Zero in a sound trace.
    pub fn misnested(&self) -> usize {
        self.spans
            .iter()
            .filter(|span| {
                span.end_ns < span.start_ns
                    || span.parent.is_some_and(|p| {
                        let outer = &self.spans[p];
                        span.start_ns < outer.start_ns || span.end_ns > outer.end_ns
                    })
            })
            .count()
    }

    /// Over all spans named `root`: the share of their time that no child
    /// span accounts for — how far the layers are from summing to the
    /// whole. `None` without such spans.
    pub fn residual_share(&self, root: &str) -> Option<f64> {
        let self_times = self.self_times_ns();
        let (mut own, mut whole) = (0u64, 0u64);
        for (span, self_ns) in self.spans.iter().zip(&self_times) {
            if span.name == root {
                own += self_ns;
                whole += span.duration_ns();
            }
        }
        (whole > 0).then(|| own as f64 / whole as f64)
    }

    /// Nanoseconds per operation of each span named `name`.
    pub fn ns_per_op(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / f64::from(s.ops.max(1)))
            .collect()
    }

    /// The trace as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> JsonValue {
        let self_times = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .zip(&self_times)
            .enumerate()
            .map(|(index, (span, self_ns))| {
                JsonValue::object()
                    .field("id", index)
                    .field("name", span.name)
                    .field("start_ns", span.start_ns)
                    .field("end_ns", span.end_ns)
                    .field(
                        "parent",
                        span.parent
                            .map_or(JsonValue::Null, |p| JsonValue::from(p as u64)),
                    )
                    .field("request", span.request)
                    .field("ops", u64::from(span.ops))
                    .field("self_ns", *self_ns)
                    .build()
            })
            .collect();
        JsonValue::object()
            .field("workload", workload)
            .field("seed", seed)
            .field("span_capacity", self.capacity)
            .field("misnested", self.misnested())
            .field("spans", JsonValue::Array(spans))
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Recorder {
        let mut rec = Recorder::new(16);
        for &(name, start, end, parent) in spans {
            rec.record(name, start, end, parent, 1, 1).unwrap();
        }
        rec
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let rec = recorder_with(&[
            ("call", 0, 100, None),
            ("plan", 10, 30, Some(0)),
            // Overlaps `plan` by 5 ns: the union covers 10..50.
            ("reply", 25, 50, Some(0)),
            ("lookup", 12, 20, Some(1)),
            ("reply", 60, 70, Some(0)),
        ]);
        assert_eq!(rec.self_times_ns(), vec![50, 12, 25, 8, 10]);
        assert_eq!(rec.misnested(), 0);
        assert_eq!(rec.residual_share("call"), Some(0.5));
        assert_eq!(rec.residual_share("absent"), None);
    }

    #[test]
    fn a_child_outside_its_parent_is_reported_and_clipped() {
        let rec = recorder_with(&[("call", 10, 20, None), ("plan", 15, 30, Some(0))]);
        assert_eq!(rec.misnested(), 1);
        assert_eq!(rec.self_times_ns()[0], 5);
    }

    #[test]
    fn open_close_and_capacity() {
        let mut rec = Recorder::new(2);
        assert!(rec.has_room(2));
        let root = rec.open("call", 5, None, 9).unwrap();
        let child = rec.record("plan", 6, 8, Some(root), 9, 4).unwrap();
        rec.close(root, 12);
        assert!(!rec.has_room(1));
        assert_eq!(rec.record("late", 13, 14, None, 10, 1), None);
        assert_eq!(rec.spans()[root].duration_ns(), 7);
        assert_eq!(rec.spans()[child].parent, Some(root));
        assert_eq!(rec.ns_per_op("plan"), vec![0.5]);
        let json = rec.to_json("w", 3).render();
        assert!(json.contains(r#""name":"plan""#) && json.contains(r#""self_ns":5"#));
    }
}
