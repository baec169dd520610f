//! # aqua-obs — unified observability for the AQuA reproduction
//!
//! The paper's selection algorithm is driven entirely by measured
//! quantities — per-replica service times `ts`, queue delays `tq`, gateway
//! delays `td`, the algorithm's own overhead `δ`, and the frequency of
//! timing failures (§5.2–§5.4). This crate is the single place those
//! measurements become observable:
//!
//! * [`metrics`] — a lock-free registry of atomic counters, gauges, and
//!   log-linear latency histograms with p50/p95/p99/max estimation.
//! * [`journal`] — a structured per-request trace journal: each request is
//!   a span carrying `t0/t1/t4`, the selected replica set, per-reply
//!   `(ts, tq, td)` decompositions, first-vs-redundant classification,
//!   and the timing verdict, emitted as JSONL through a pluggable sink.
//! * [`export`] — Prometheus text format and JSON snapshot renderers.
//! * [`json`] — the hand-rolled JSON writer both of the above use (the
//!   build is air-gapped, so there is no `serde_json`).
//! * [`parse`] — the matching JSON reader, used by the forensics
//!   analyzer to replay journals and rebuild span trees.
//!
//! The crate is dependency-free and layered below everything else:
//! gateway, runtime, sim, workload, and bench all feed the same [`Obs`]
//! handle, so a simulated run and a socket run produce comparable
//! journals and snapshots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contention;
pub mod export;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod parse;

use journal::{Journal, MemoryReader, RotatingSink};
use metrics::Registry;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Cloneable bundle of a metrics [`Registry`] and a trace [`Journal`].
///
/// This is the handle the instrumented layers accept. Cloning is cheap
/// (two `Arc`s); all clones observe into the same registry and journal.
#[derive(Clone, Debug)]
pub struct Obs {
    registry: Arc<Registry>,
    journal: Journal,
}

impl Obs {
    /// Observability with an in-memory journal; returns the reader for
    /// inspecting emitted lines. This is the test configuration.
    pub fn in_memory() -> (Self, MemoryReader) {
        let (journal, reader) = Journal::in_memory();
        (
            Obs {
                registry: Arc::new(Registry::new()),
                journal,
            },
            reader,
        )
    }

    /// Observability that counts metrics but discards journal lines.
    pub fn metrics_only() -> Self {
        Obs {
            registry: Arc::new(Registry::new()),
            journal: Journal::null(),
        }
    }

    /// Observability writing the journal to `dir/journal.jsonl` with
    /// size-based rotation: once the active file passes `max_bytes` it is
    /// renamed `journal.jsonl.N` and a fresh file starts, so long chaos
    /// soaks never grow one unbounded file. `max_bytes` of 0 disables
    /// rotation. Creates `dir` if needed.
    pub fn to_dir_rotating(dir: impl AsRef<Path>, max_bytes: u64) -> io::Result<Self> {
        Ok(Obs {
            registry: Arc::new(Registry::new()),
            journal: Journal::new(RotatingSink::create(dir, max_bytes)?),
        })
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The shared trace journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Renders the registry in Prometheus text format.
    pub fn prometheus(&self) -> String {
        export::to_prometheus(&self.registry.snapshot())
    }

    /// Renders the registry as a pretty-printed JSON document.
    pub fn json_snapshot(&self) -> String {
        export::to_json(&self.registry.snapshot()).render_pretty()
    }

    /// Flushes the journal and writes `metrics.prom` + `metrics.json`
    /// into `dir`. Pairs with [`Obs::to_dir_rotating`] at the end of a run.
    pub fn dump(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        self.journal.flush();
        std::fs::write(dir.join("metrics.prom"), self.prometheus())?;
        std::fs::write(dir.join("metrics.json"), self.json_snapshot())?;
        Ok(())
    }
}

/// Reads the `AQUA_OBS` environment toggle used by the experiment
/// binaries: unset/empty/`0`/`off` disables observability, any other
/// value is treated as the output directory (`1`/`on` map to
/// `"obs-out"`).
pub fn dir_from_env() -> Option<String> {
    match std::env::var("AQUA_OBS") {
        Ok(value) => match value.trim() {
            "" | "0" | "off" | "false" => None,
            "1" | "on" | "true" => Some("obs-out".to_owned()),
            dir => Some(dir.to_owned()),
        },
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let (obs, reader) = Obs::in_memory();
        let clone = obs.clone();
        clone.registry().counter("a_total", &[]).inc();
        obs.registry().counter("a_total", &[]).inc();
        clone
            .journal()
            .emit_event("test", json::JsonValue::object().field("x", 1u64));
        assert_eq!(obs.registry().counter("a_total", &[]).get(), 2);
        assert_eq!(reader.lines().len(), 1);
    }

    #[test]
    fn dump_writes_all_artifacts() {
        let dir = std::env::temp_dir().join(format!(
            "aqua-obs-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let obs = Obs::to_dir_rotating(&dir, 0).unwrap();
        obs.registry().histogram("lat_ns", &[]).record(42);
        obs.journal()
            .emit_event("probe", json::JsonValue::object().field("n", 1u64));
        obs.dump(&dir).unwrap();
        let journal = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        assert!(journal.contains("\"type\":\"probe\""));
        assert!(std::fs::read_to_string(dir.join("metrics.prom"))
            .unwrap()
            .contains("lat_ns"));
        assert!(std::fs::read_to_string(dir.join("metrics.json"))
            .unwrap()
            .contains("histograms"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
