//! What a run writes: the results file (every metric with unit, sample
//! count and segment spread, the seed, the window and the host it was
//! taken on) and the one-line result the driver reads from stdout.

use aqua_obs::json::JsonValue;

use crate::catalogue::Metric;
use crate::pass::Metrics;

/// Everything one run measured.
#[derive(Debug)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// The metrics of the run's kind, complete.
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// What the first few failures were.
    pub failures: Vec<String>,
    /// Where the run was taken.
    pub host: JsonValue,
}

/// Picks `wanted` out of `measured`, in catalogue order. `Err` lists the
/// metrics that are missing or not finite: a run that cannot report a
/// listed metric has no result.
pub fn select(wanted: &[Metric], measured: &Metrics) -> Result<Metrics, String> {
    let mut selected = Metrics::new();
    let mut missing = Vec::new();
    for (name, _) in wanted {
        match measured.get(name) {
            Some(summary) if summary.value.is_finite() => {
                selected.insert(name, *summary);
            }
            _ => missing.push(*name),
        }
    }
    if missing.is_empty() {
        Ok(selected)
    } else {
        Err(format!("metrics not measured: {}", missing.join(", ")))
    }
}

impl RunReport {
    /// Whether every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics as `name → {value, unit}`, in catalogue order;
    /// `detailed` adds the sample count and the segment IQR.
    fn metrics_json(&self, catalogue: &[Metric], detailed: bool) -> JsonValue {
        let mut metrics = JsonValue::object();
        for (name, unit) in catalogue {
            let Some(summary) = self.metrics.get(name) else {
                continue;
            };
            let mut entry = JsonValue::object()
                .field("value", summary.value)
                .field("unit", *unit);
            if detailed {
                entry = entry
                    .field("samples", summary.samples)
                    .field("segment_iqr", summary.iqr);
            }
            metrics = metrics.field(*name, entry);
        }
        metrics.build()
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric with its value as measured and
    /// its unit.
    pub fn result_line(&self, catalogue: &[Metric]) -> String {
        let metrics = self.metrics_json(catalogue, false);
        JsonValue::object()
            .field("correct", self.correct())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
            .build()
            .render()
    }

    /// The results file.
    pub fn to_json(&self, catalogue: &[Metric]) -> JsonValue {
        let metrics = self.metrics_json(catalogue, true);
        let attempted = self.attempted.max(1) as f64;
        JsonValue::object()
            .field("workload", self.workload.as_str())
            .field("seed", self.seed)
            .field("window_seconds", self.seconds)
            .field("traced", self.traced)
            .field("correct", self.correct())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("failed_share", self.failed as f64 / attempted)
            .field(
                "failures",
                JsonValue::Array(
                    self.failures
                        .iter()
                        .map(|f| JsonValue::from(f.as_str()))
                        .collect(),
                ),
            )
            .field("host", self.host.clone())
            .field("metrics", metrics)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    const CATALOGUE: [Metric; 2] = [("latency_ms", "ms"), ("setup_s", "s")];

    fn report(failed: u64) -> RunReport {
        let mut metrics = Metrics::new();
        metrics.insert(
            "latency_ms",
            Summary {
                value: 1.25,
                iqr: 0.5,
                samples: 10,
            },
        );
        metrics.insert("setup_s", Summary::exact(0.5, 3));
        RunReport {
            workload: "w".into(),
            seed: 7,
            seconds: 2,
            traced: false,
            metrics,
            attempted: 10,
            failed,
            failures: vec![],
            host: JsonValue::object().build(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = report(0).result_line(&CATALOGUE);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_ms":{"value":1.25,"unit":"ms"},"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
        assert!(report(1)
            .result_line(&CATALOGUE)
            .starts_with(r#"{"correct":false"#));
    }

    #[test]
    fn results_file_carries_spread_samples_and_seed() {
        let json = report(0).to_json(&CATALOGUE);
        assert_eq!(json.get("seed").and_then(JsonValue::as_u64), Some(7));
        let latency = json
            .get("metrics")
            .and_then(|m| m.get("latency_ms"))
            .unwrap();
        assert_eq!(latency.get("samples").and_then(JsonValue::as_u64), Some(10));
        assert_eq!(
            latency.get("segment_iqr").and_then(JsonValue::as_f64),
            Some(0.5)
        );
    }

    #[test]
    fn select_refuses_missing_and_non_finite_metrics() {
        let mut measured = Metrics::new();
        measured.insert("latency_ms", Summary::exact(f64::NAN, 0));
        let error = select(&CATALOGUE, &measured).unwrap_err();
        assert!(
            error.contains("latency_ms") && error.contains("setup_s"),
            "{error}"
        );
        measured.insert("latency_ms", Summary::exact(1.0, 1));
        measured.insert("setup_s", Summary::exact(1.0, 1));
        measured.insert("extra", Summary::exact(1.0, 1));
        assert_eq!(select(&CATALOGUE, &measured).unwrap().len(), 2);
    }
}
