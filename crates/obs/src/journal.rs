//! Structured per-request trace journal.
//!
//! Every request the timing-fault handler plans becomes a
//! [`RequestSpan`]: the paper's timestamps (`t0` submit, `t1` multicast,
//! per-reply `t4`), the selected replica set, each reply's `(ts, tq, td)`
//! latency decomposition with first-vs-redundant classification, and the
//! final timing verdict rendered as a string.
//! Spans are emitted as single JSONL lines through a pluggable [`Sink`]:
//! in-memory for tests, a buffered writer for binaries. Simulator trace
//! events are bridged into the same stream as `"sim_event"` lines so sim
//! and socket runs produce comparable journals.

use crate::json::JsonValue;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// One reply observed for a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplyObservation {
    /// Replica that sent the reply.
    pub replica: u64,
    /// Arrival time of the reply at the gateway (the paper's `t4`), in
    /// nanoseconds on the run's clock.
    pub at_nanos: u64,
    /// Service time `ts` reported by the replica.
    pub service_nanos: u64,
    /// Queueing delay `tq` reported by the replica.
    pub queue_nanos: u64,
    /// Gateway/transmission delay `td = (t4 - t1) - tq - ts`.
    pub gateway_nanos: u64,
    /// End-to-end response time `t4 - t1` for this reply.
    pub response_nanos: u64,
    /// Whether this was the first reply (delivered to the application);
    /// later replies are redundant.
    pub first: bool,
    /// Timing verdict for a delivered reply (`"timely"`, a failure
    /// description, ...); `None` for redundant replies.
    pub verdict: Option<String>,
    /// Gateway-side handling time for this reply (ingest-shard stats
    /// application in the concurrent handler), when measured.
    pub ingest_nanos: Option<u64>,
}

impl ReplyObservation {
    fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("replica", self.replica)
            .field("at_ns", self.at_nanos)
            .field("ts_ns", self.service_nanos)
            .field("tq_ns", self.queue_nanos)
            .field("td_ns", self.gateway_nanos)
            .field("response_ns", self.response_nanos)
            .field("first", self.first)
            .field("verdict", self.verdict.clone())
            .field("ingest_ns", self.ingest_nanos)
            .build()
    }

    /// Rebuilds a reply from a parsed journal object. Returns `None` when
    /// a required field is missing or mistyped.
    pub fn from_json(value: &JsonValue) -> Option<Self> {
        Some(ReplyObservation {
            replica: value.get("replica")?.as_u64()?,
            at_nanos: value.get("at_ns")?.as_u64()?,
            service_nanos: value.get("ts_ns")?.as_u64()?,
            queue_nanos: value.get("tq_ns")?.as_u64()?,
            gateway_nanos: value.get("td_ns")?.as_u64()?,
            response_nanos: value.get("response_ns")?.as_u64()?,
            first: value.get("first")?.as_bool()?,
            verdict: value
                .get("verdict")
                .and_then(|v| v.as_str())
                .map(str::to_owned),
            ingest_nanos: value.get("ingest_ns").and_then(JsonValue::as_u64),
        })
    }
}

/// Terminal state of a request span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanOutcome {
    /// A reply was delivered to the application.
    Delivered,
    /// The handler gave up (no reply before the extended deadline).
    GaveUp,
    /// The attempt was superseded by a deadline-driven retry that won (or
    /// was retired when its logical request resolved another way); it is
    /// not a timing failure.
    Superseded,
    /// The span was still pending when the journal was flushed.
    Pending,
}

impl SpanOutcome {
    fn as_str(self) -> &'static str {
        match self {
            SpanOutcome::Delivered => "delivered",
            SpanOutcome::GaveUp => "gave_up",
            SpanOutcome::Superseded => "superseded",
            SpanOutcome::Pending => "pending",
        }
    }

    /// Inverse of [`SpanOutcome::as_str`], for journal replay.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "delivered" => Some(SpanOutcome::Delivered),
            "gave_up" => Some(SpanOutcome::GaveUp),
            "superseded" => Some(SpanOutcome::Superseded),
            "pending" => Some(SpanOutcome::Pending),
            _ => None,
        }
    }
}

/// The full trace of one request, emitted as a single JSONL line.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestSpan {
    /// Handler-assigned sequence number.
    pub seq: u64,
    /// Client identity, when known.
    pub client: Option<u64>,
    /// Method identifier of the request.
    pub method: u32,
    /// Application submit time `t0` (nanoseconds).
    pub t0_nanos: u64,
    /// Multicast send time `t1` (nanoseconds).
    pub t1_nanos: u64,
    /// QoS deadline for the request (nanoseconds, relative to `t1`).
    pub deadline_nanos: u64,
    /// Replica set chosen by the selection algorithm, in send order.
    pub selected: Vec<u64>,
    /// Per-replica predicted P(reply before deadline) from the cached
    /// CDF model at plan time, parallel to `selected`. Empty when the
    /// planner had no model predictions (cold start, crash fallback).
    pub predicted: Vec<f64>,
    /// Version of the planning view / model snapshot the prediction came
    /// from (the concurrent handler's publish version; strategy planners
    /// report their own generation), for joining spans to model epochs.
    pub view_version: Option<u64>,
    /// Selection overhead `δ` for this plan (nanoseconds): the paper's
    /// algorithm-execution cost, previously only in a histogram.
    pub plan_nanos: Option<u64>,
    /// Whether this was a probe (sent to all replicas, not client-paid).
    pub probe: bool,
    /// For a deadline-driven retry attempt, the seq of the attempt it
    /// supersedes.
    pub retry_of: Option<u64>,
    /// Every reply observed so far, in arrival order.
    pub replies: Vec<ReplyObservation>,
    /// How the span ended.
    pub outcome: SpanOutcome,
    /// Time the span ended (first delivery or give-up), if it did.
    pub end_nanos: Option<u64>,
    /// Whether a QoS callback (timing-failure notification) was issued
    /// for this span — the no-miss-without-callback invariant checks
    /// this against the delivered verdict.
    pub callback: bool,
    /// Detector verdict recorded at give-up (`"failure"` or
    /// `"failure_qos_violated"`); `None` for spans that did not give up.
    /// Makes the callback decision auditable from the journal alone.
    pub give_up_verdict: Option<String>,
    /// Ids of fault windows (see the faults crate) active on a selected
    /// replica, or network-wide, at any point between `t1` and span end.
    pub fault_windows: Vec<u64>,
}

impl RequestSpan {
    /// Starts a span at plan time.
    pub fn begin(seq: u64, method: u32, t0_nanos: u64, t1_nanos: u64) -> Self {
        RequestSpan {
            seq,
            client: None,
            method,
            t0_nanos,
            t1_nanos,
            deadline_nanos: 0,
            selected: Vec::new(),
            predicted: Vec::new(),
            view_version: None,
            plan_nanos: None,
            probe: false,
            retry_of: None,
            replies: Vec::new(),
            outcome: SpanOutcome::Pending,
            end_nanos: None,
            callback: false,
            give_up_verdict: None,
            fault_windows: Vec::new(),
        }
    }

    /// Size of the selected replica set.
    pub fn selection_size(&self) -> usize {
        self.selected.len()
    }

    /// Combined predicted probability that at least one selected replica
    /// meets the deadline: `1 - Π(1 - pᵢ)` over the per-replica
    /// predictions. `None` when no predictions were recorded.
    pub fn predicted_set_probability(&self) -> Option<f64> {
        if self.predicted.is_empty() {
            return None;
        }
        let miss_all: f64 = self.predicted.iter().map(|p| 1.0 - p).product();
        Some(1.0 - miss_all)
    }

    /// Renders the span as one JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("type", "request")
            .field("seq", self.seq)
            .field("client", self.client)
            .field("method", self.method)
            .field("t0_ns", self.t0_nanos)
            .field("t1_ns", self.t1_nanos)
            .field("deadline_ns", self.deadline_nanos)
            .field("selected", self.selected.clone())
            .field("selection_size", self.selection_size())
            .field("predicted", self.predicted.clone())
            .field("view_version", self.view_version)
            .field("plan_ns", self.plan_nanos)
            .field("probe", self.probe)
            .field("retry_of", self.retry_of)
            .field(
                "replies",
                JsonValue::Array(self.replies.iter().map(ReplyObservation::to_json).collect()),
            )
            .field("outcome", self.outcome.as_str())
            .field("end_ns", self.end_nanos)
            .field("callback", self.callback)
            .field("give_up_verdict", self.give_up_verdict.clone())
            .field("fault_windows", self.fault_windows.clone())
            .build()
    }

    /// Rebuilds a span from a parsed `"type":"request"` journal object.
    /// Returns `None` when a required field is missing or mistyped.
    /// Optional fields added after the first journal format (predictions,
    /// plan time, callback, fault windows) default to empty, so older
    /// journals still replay.
    pub fn from_json(value: &JsonValue) -> Option<Self> {
        if value.get("type")?.as_str()? != "request" {
            return None;
        }
        let replies = value
            .get("replies")?
            .as_array()?
            .iter()
            .map(ReplyObservation::from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(RequestSpan {
            seq: value.get("seq")?.as_u64()?,
            client: value.get("client").and_then(JsonValue::as_u64),
            method: u32::try_from(value.get("method")?.as_u64()?).ok()?,
            t0_nanos: value.get("t0_ns")?.as_u64()?,
            t1_nanos: value.get("t1_ns")?.as_u64()?,
            deadline_nanos: value.get("deadline_ns")?.as_u64()?,
            selected: value
                .get("selected")?
                .as_array()?
                .iter()
                .map(JsonValue::as_u64)
                .collect::<Option<Vec<_>>>()?,
            predicted: value
                .get("predicted")
                .and_then(JsonValue::as_array)
                .map(|items| {
                    items
                        .iter()
                        .map(JsonValue::as_f64)
                        .collect::<Option<Vec<_>>>()
                })
                .unwrap_or(Some(Vec::new()))?,
            view_version: value.get("view_version").and_then(JsonValue::as_u64),
            plan_nanos: value.get("plan_ns").and_then(JsonValue::as_u64),
            probe: value.get("probe")?.as_bool()?,
            retry_of: value.get("retry_of").and_then(JsonValue::as_u64),
            replies,
            outcome: SpanOutcome::parse(value.get("outcome")?.as_str()?)?,
            end_nanos: value.get("end_ns").and_then(JsonValue::as_u64),
            callback: value
                .get("callback")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            give_up_verdict: value
                .get("give_up_verdict")
                .and_then(JsonValue::as_str)
                .map(str::to_owned),
            fault_windows: value
                .get("fault_windows")
                .and_then(JsonValue::as_array)
                .map(|items| {
                    items
                        .iter()
                        .map(JsonValue::as_u64)
                        .collect::<Option<Vec<_>>>()
                })
                .unwrap_or(Some(Vec::new()))?,
        })
    }
}

/// Destination for journal lines.
pub trait Sink: Send {
    /// Receives one complete JSONL line (no trailing newline).
    fn emit(&mut self, line: &str);

    /// Flushes buffered lines to their destination.
    fn flush(&mut self) {}
}

/// Test sink retaining every line in memory.
#[derive(Default)]
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl Sink for MemorySink {
    fn emit(&mut self, line: &str) {
        lock(&self.lines).push(line.to_owned());
    }
}

/// Read side of a [`MemorySink`]; usable while the journal is live.
#[derive(Clone, Debug)]
pub struct MemoryReader {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemoryReader {
    /// All lines emitted so far.
    pub fn lines(&self) -> Vec<String> {
        lock(&self.lines).clone()
    }

    /// Parses nothing — returns the lines that contain `needle`.
    pub fn lines_containing(&self, needle: &str) -> Vec<String> {
        lock(&self.lines)
            .iter()
            .filter(|l| l.contains(needle))
            .cloned()
            .collect()
    }
}

fn lock(lines: &Mutex<Vec<String>>) -> std::sync::MutexGuard<'_, Vec<String>> {
    lines.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// File sink with size-based rotation: when the active `journal.jsonl`
/// grows past `max_bytes` it is renamed to `journal.jsonl.N` (N counting
/// up from 1, oldest first) and a fresh file is started, so unbounded
/// chaos soaks never produce one unbounded file. A rotation boundary
/// always falls between lines. The forensics analyzer reads the rotated
/// parts back in `N` order followed by the active file.
pub struct RotatingSink {
    dir: std::path::PathBuf,
    max_bytes: u64,
    written: u64,
    next_index: u32,
    writer: Option<std::io::BufWriter<std::fs::File>>,
}

impl RotatingSink {
    /// File name of the active journal inside the sink's directory.
    pub const ACTIVE: &'static str = "journal.jsonl";

    /// Creates `dir` if needed and opens a fresh `journal.jsonl` in it.
    /// `max_bytes` of 0 disables rotation (plain bounded buffering).
    pub fn create(dir: impl AsRef<std::path::Path>, max_bytes: u64) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let file = std::fs::File::create(dir.join(Self::ACTIVE))?;
        Ok(RotatingSink {
            dir,
            max_bytes,
            written: 0,
            next_index: 1,
            writer: Some(std::io::BufWriter::new(file)),
        })
    }

    fn rotate(&mut self) {
        // Flush and close the active file before renaming it; reopen
        // best-effort — on failure we keep appending to the old file.
        if let Some(mut w) = self.writer.take() {
            let _ = w.flush();
        }
        let active = self.dir.join(Self::ACTIVE);
        let rotated = self
            .dir
            .join(format!("{}.{}", Self::ACTIVE, self.next_index));
        if std::fs::rename(&active, &rotated).is_ok() {
            self.next_index += 1;
        }
        match std::fs::File::create(&active) {
            Ok(file) => {
                self.writer = Some(std::io::BufWriter::new(file));
                self.written = 0;
            }
            Err(_) => {
                // Could not reopen: reattach to the rotated file so lines
                // keep landing somewhere.
                if let Ok(file) = std::fs::OpenOptions::new().append(true).open(&rotated) {
                    self.writer = Some(std::io::BufWriter::new(file));
                }
            }
        }
    }
}

impl Sink for RotatingSink {
    fn emit(&mut self, line: &str) {
        if self.max_bytes > 0 && self.written >= self.max_bytes {
            self.rotate();
        }
        if let Some(w) = self.writer.as_mut() {
            let _ = writeln!(w, "{line}");
            self.written += line.len() as u64 + 1;
        }
    }

    fn flush(&mut self) {
        if let Some(w) = self.writer.as_mut() {
            let _ = w.flush();
        }
    }
}

impl Drop for RotatingSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Sink that discards everything (observability disabled).
#[derive(Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn emit(&mut self, _line: &str) {}
}

/// Cloneable handle writing spans and events to a shared [`Sink`].
#[derive(Clone)]
pub struct Journal {
    sink: Arc<Mutex<dyn Sink>>,
}

impl Journal {
    /// Wraps any sink in a cloneable journal handle.
    pub fn new(sink: impl Sink + 'static) -> Self {
        Journal {
            sink: Arc::new(Mutex::new(sink)),
        }
    }

    /// Journal that keeps lines in memory, plus its reader.
    pub fn in_memory() -> (Self, MemoryReader) {
        let sink = MemorySink::default();
        let reader = MemoryReader {
            lines: Arc::clone(&sink.lines),
        };
        (Journal::new(sink), reader)
    }

    /// Journal that drops everything.
    pub fn null() -> Self {
        Journal::new(NullSink)
    }

    /// Emits a finished (or flushed-while-pending) request span.
    pub fn emit_span(&self, span: &RequestSpan) {
        self.emit_json(&span.to_json());
    }

    /// Emits an arbitrary event object; `kind` becomes the `"type"` field.
    pub fn emit_event(&self, kind: &str, fields: crate::json::JsonObject) {
        let mut object = JsonValue::object().field("type", kind).build();
        if let (JsonValue::Object(target), JsonValue::Object(extra)) = (&mut object, fields.build())
        {
            target.extend(extra);
        }
        self.emit_json(&object);
    }

    fn emit_json(&self, value: &JsonValue) {
        self.lock().emit(&value.render());
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        self.lock().flush();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, dyn Sink + 'static> {
        self.sink
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Journal { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_span() -> RequestSpan {
        let mut span = RequestSpan::begin(7, 3, 1_000, 1_100);
        span.client = Some(1);
        span.deadline_nanos = 200_000_000;
        span.selected = vec![2, 5];
        span.predicted = vec![0.75, 0.9];
        span.view_version = Some(12);
        span.plan_nanos = Some(4_200);
        span.replies.push(ReplyObservation {
            replica: 5,
            at_nanos: 90_001_100,
            service_nanos: 80_000_000,
            queue_nanos: 5_000_000,
            gateway_nanos: 5_000_000,
            response_nanos: 90_000_000,
            first: true,
            verdict: Some("timely".to_owned()),
            ingest_nanos: Some(350),
        });
        span.replies.push(ReplyObservation {
            replica: 2,
            at_nanos: 95_001_100,
            service_nanos: 90_000_000,
            queue_nanos: 2_000_000,
            gateway_nanos: 3_000_000,
            response_nanos: 95_000_000,
            first: false,
            verdict: None,
            ingest_nanos: None,
        });
        span.outcome = SpanOutcome::Delivered;
        span.end_nanos = Some(90_001_100);
        span.callback = false;
        span.fault_windows = vec![3];
        span
    }

    #[test]
    fn span_renders_expected_fields() {
        let line = sample_span().to_json().render();
        for needle in [
            r#""type":"request""#,
            r#""seq":7"#,
            r#""selection_size":2"#,
            r#""ts_ns":80000000"#,
            r#""first":true"#,
            r#""verdict":"timely""#,
            r#""outcome":"delivered""#,
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }

    #[test]
    fn memory_journal_round_trips() {
        let (journal, reader) = Journal::in_memory();
        journal.emit_span(&sample_span());
        journal.emit_event(
            "sim_event",
            crate::json::JsonValue::object().field("node", 3u64),
        );
        journal.flush();
        let lines = reader.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""type":"request""#));
        assert!(lines[1].starts_with(r#"{"type":"sim_event""#));
        assert_eq!(reader.lines_containing("sim_event").len(), 1);
    }

    #[test]
    fn rotating_sink_rotates_between_lines() {
        let dir = std::env::temp_dir().join(format!(
            "aqua-rotate-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        {
            let mut sink = RotatingSink::create(&dir, 16).unwrap();
            for i in 0..6 {
                sink.emit(&format!(r#"{{"line":{i}}}"#));
            }
            // Dropping flushes every part.
        }
        let part1 = std::fs::read_to_string(dir.join("journal.jsonl.1")).unwrap();
        let part2 = std::fs::read_to_string(dir.join("journal.jsonl.2")).unwrap();
        let active = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        let all = format!("{part1}{part2}{active}");
        // Every line intact and in order across the rotation boundaries.
        let expected: String = (0..6).map(|i| format!("{{\"line\":{i}}}\n")).collect();
        assert_eq!(all, expected);
        assert!(part1.len() >= 16, "rotation happens after the cap");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn span_round_trips_through_parser() {
        let span = sample_span();
        let line = span.to_json().render();
        let parsed = crate::parse::parse(&line).unwrap();
        assert_eq!(RequestSpan::from_json(&parsed).unwrap(), span);
    }

    #[test]
    fn span_without_new_fields_still_parses() {
        // A journal written before the causal-tracing fields existed.
        let legacy = r#"{"type":"request","seq":1,"client":null,"method":0,
            "t0_ns":0,"t1_ns":10,"deadline_ns":1000,"selected":[4],
            "selection_size":1,"probe":false,"retry_of":null,"replies":[],
            "outcome":"pending","end_ns":null}"#;
        let parsed = crate::parse::parse(legacy).unwrap();
        let span = RequestSpan::from_json(&parsed).unwrap();
        assert_eq!(span.seq, 1);
        assert!(span.predicted.is_empty());
        assert!(span.fault_windows.is_empty());
        assert!(!span.callback);
        assert!(span.give_up_verdict.is_none());
    }

    #[test]
    fn predicted_set_probability_combines() {
        let mut span = sample_span();
        let p = span.predicted_set_probability().unwrap();
        assert!((p - (1.0 - 0.25 * 0.1)).abs() < 1e-12);
        span.predicted.clear();
        assert!(span.predicted_set_probability().is_none());
    }
}
