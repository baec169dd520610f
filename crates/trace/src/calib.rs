//! Online QoS-calibration watchdog.
//!
//! The gateway *promises* a QoS — "the reply arrives within `deadline`
//! with probability at least `Pc`" — and backs the promise with model
//! predictions `P(t_i < deadline)` per selected replica (§5.2–§5.3). This
//! module audits that promise continuously: every retired request
//! contributes one `(promised, predicted, met-deadline)` sample to a
//! rolling window keyed by `(method, Pc band)`, plus one
//! `(predicted pᵢ, met)` sample per replica reply keyed by
//! `(method, replica)`.
//!
//! From the windows the watchdog maintains:
//!
//! * **observed success rate** — fraction of recent requests that met the
//!   deadline;
//! * **calibration error** — |mean predicted − observed| over the window,
//!   exported as `aqua_qos_calibration_error` (basis points, so a gauge
//!   of 250 means the model is off by 2.5 percentage points);
//! * **Brier score** — lifetime mean of `(predicted − met)²`, exported as
//!   `aqua_qos_brier` (basis points);
//! * **violations** — whenever the rolling observed rate drops more than
//!   `MARGIN` (0.05) below the rolling promised `Pc`, the watchdog bumps
//!   `aqua_qos_violations_total`, emits a `calibration_alert` journal
//!   event, and invokes every registered hook (the seam a
//!   DependabilityManager can use to renegotiate QoS or rebuild the
//!   model).
//!
//! Alerts are rate-limited by `cooldown` samples per band so a sustained
//! degradation produces a steady, bounded stream of alerts rather than
//! one per request.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use aqua_obs::json::JsonValue;
use aqua_obs::metrics::{Counter, Gauge};
use aqua_obs::Obs;

/// Gauges exported by the watchdog are fixed-point with this scale:
/// a probability-space value `v` is published as `round(v * 10_000)`
/// (basis points).
pub const GAUGE_SCALE: f64 = 10_000.0;

/// How far the observed success rate may fall below the promised `Pc`
/// before a violation is raised (probability).
const MARGIN: f64 = 0.05;

/// Width of the `Pc` quantization bands: a promise of 0.93 lands in the
/// "0.90" band.
const BAND_WIDTH: f64 = 0.05;

/// Tunables for [`QosWatchdog`].
#[derive(Clone, Copy, Debug)]
pub struct CalibrationConfig {
    /// Rolling samples required in a band before it may alert
    /// (default 32).
    pub min_samples: usize,
    /// Rolling-window length per band and per replica (default 256).
    pub window: usize,
    /// Minimum samples between consecutive alerts from one band
    /// (default 64).
    pub cooldown: usize,
    /// Whether the per-(method, replica) windows may raise
    /// replica-scoped alerts — the elastic supervisor's quarantine
    /// signal. Off by default so deployments without a supervisor keep
    /// the set-scoped alert stream unchanged.
    pub replica_alerts: bool,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            min_samples: 32,
            window: 256,
            cooldown: 64,
            replica_alerts: false,
        }
    }
}

/// One QoS violation, as handed to alert hooks and the journal.
#[derive(Clone, Debug)]
pub struct CalibrationAlert {
    /// Method whose band degraded.
    pub method: u32,
    /// For replica-scoped alerts, the replica whose calibration stays
    /// degraded; `None` for set-scoped (whole-selection) alerts. Set
    /// alerts signal the delivered QoS drifting below the promise —
    /// overload evidence; replica alerts pinpoint one sick member — the
    /// supervisor's quarantine signal.
    pub replica: Option<u64>,
    /// Lower edge of the `Pc` band, rendered with two decimals ("0.90").
    pub band: String,
    /// Rolling mean of the promised `Pc`.
    pub promised: f64,
    /// Rolling observed success rate — the delivered QoS.
    pub observed: f64,
    /// Rolling mean of the model's predicted set probability, when the
    /// planner produced predictions (`None` for baselines / cold starts).
    pub predicted: Option<f64>,
    /// |predicted − observed| over the window, when predictions exist.
    pub calibration_error: Option<f64>,
    /// Lifetime Brier score of the set predictions in this band.
    pub brier: Option<f64>,
    /// Rolling samples backing this alert.
    pub samples: usize,
    /// Journal timestamp of the outcome that tripped the alert.
    pub at_nanos: u64,
}

struct Sample {
    promised: f64,
    predicted: Option<f64>,
    met: bool,
}

struct BandStats {
    ring: VecDeque<Sample>,
    brier_sum: f64,
    brier_n: u64,
    since_alert: usize,
    calibration: Arc<Gauge>,
    brier: Arc<Gauge>,
    violations: Arc<Counter>,
}

struct ReplicaStats {
    ring: VecDeque<(f64, bool)>,
    calibration: Arc<Gauge>,
    since_alert: usize,
}

struct PendingPlan {
    method: u32,
    promised: f64,
    /// `1 − Π(1 − pᵢ)` over the predictions, when the planner had any.
    set_predicted: Option<f64>,
    /// Per-replica predictions not yet matched to a reply.
    replica_predicted: Vec<(u64, f64)>,
}

/// Streaming monitor of promised vs. delivered QoS. See the module docs.
pub struct QosWatchdog {
    obs: Obs,
    config: CalibrationConfig,
    pending: BTreeMap<u64, PendingPlan>,
    bands: HashMap<(u32, u32), BandStats>,
    replicas: HashMap<(u32, u64), ReplicaStats>,
    hooks: Vec<AlertHook>,
    alerts: u64,
}

/// A registered calibration-alert callback.
type AlertHook = Box<dyn FnMut(&CalibrationAlert) + Send>;

impl std::fmt::Debug for QosWatchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QosWatchdog")
            .field("pending", &self.pending.len())
            .field("bands", &self.bands.len())
            .field("alerts", &self.alerts)
            .finish()
    }
}

/// Outstanding plans are bounded; a plan whose outcome never arrives
/// (which the gateway does not produce, but a hostile journal replay
/// might) is evicted oldest-first past this cap.
const PENDING_CAP: usize = 8192;

impl QosWatchdog {
    /// A watchdog with the default [`CalibrationConfig`], recording
    /// metrics and alerts into `obs`.
    pub fn new(obs: &Obs) -> Self {
        QosWatchdog::with_config(obs, CalibrationConfig::default())
    }

    /// A watchdog with explicit tunables.
    pub fn with_config(obs: &Obs, config: CalibrationConfig) -> Self {
        QosWatchdog {
            obs: obs.clone(),
            config,
            pending: BTreeMap::new(),
            bands: HashMap::new(),
            replicas: HashMap::new(),
            hooks: Vec::new(),
            alerts: 0,
        }
    }

    /// Registers an alert hook. Hooks run synchronously on the thread
    /// that retires the request, after the journal event is emitted.
    pub fn add_hook(&mut self, hook: impl FnMut(&CalibrationAlert) + Send + 'static) {
        self.hooks.push(Box::new(hook));
    }

    /// The active tunables.
    pub fn config(&self) -> &CalibrationConfig {
        &self.config
    }

    fn band_of(&self, promised: f64) -> u32 {
        let w = BAND_WIDTH;
        ((promised / w).floor() as u32).min((1.0 / w) as u32)
    }

    fn band_label(&self, band: u32) -> String {
        format!("{:.2}", f64::from(band) * BAND_WIDTH)
    }

    /// Records a planned attempt. `predicted` pairs each selected
    /// replica's index with the model's `P(meet deadline)` for it; empty
    /// when the planner had no predictions (baseline strategy or
    /// cold-start multicast).
    pub fn on_plan(&mut self, seq: u64, method: u32, promised: f64, predicted: &[(u64, f64)]) {
        let set_predicted = if predicted.is_empty() {
            None
        } else {
            Some(
                1.0 - predicted
                    .iter()
                    .map(|(_, p)| 1.0 - p.clamp(0.0, 1.0))
                    .product::<f64>(),
            )
        };
        self.pending.insert(
            seq,
            PendingPlan {
                method,
                promised,
                set_predicted,
                replica_predicted: predicted.to_vec(),
            },
        );
        while self.pending.len() > PENDING_CAP {
            let oldest = *self.pending.keys().next().expect("non-empty");
            self.pending.remove(&oldest);
        }
    }

    /// Records one replica's reply to attempt `seq`: `met` is whether it
    /// arrived within the deadline and `at_nanos` the journal timestamp
    /// of the reply. Replies for unknown or already retired attempts are
    /// ignored.
    pub fn on_replica_reply(&mut self, seq: u64, replica: u64, met: bool, at_nanos: u64) {
        let Some(plan) = self.pending.get_mut(&seq) else {
            return;
        };
        let Some(pos) = plan
            .replica_predicted
            .iter()
            .position(|(r, _)| *r == replica)
        else {
            return;
        };
        let (_, p) = plan.replica_predicted.swap_remove(pos);
        let method = plan.method;
        let key = (method, replica);
        let window = self.config.window;
        let stats = match self.replicas.get_mut(&key) {
            Some(s) => s,
            None => {
                let method_label = key.0.to_string();
                let replica_label = replica.to_string();
                let gauge = self.obs.registry().gauge(
                    "aqua_qos_calibration_error",
                    &[
                        ("scope", "replica"),
                        ("method", method_label.as_str()),
                        ("replica", replica_label.as_str()),
                    ],
                );
                self.replicas.entry(key).or_insert(ReplicaStats {
                    ring: VecDeque::with_capacity(window),
                    calibration: gauge,
                    since_alert: self.config.cooldown,
                })
            }
        };
        if stats.ring.len() >= window {
            stats.ring.pop_front();
        }
        stats.ring.push_back((p.clamp(0.0, 1.0), met));
        stats.since_alert = stats.since_alert.saturating_add(1);
        let n = stats.ring.len() as f64;
        let pred: f64 = stats.ring.iter().map(|(p, _)| p).sum::<f64>() / n;
        let obs_rate = stats.ring.iter().filter(|(_, m)| *m).count() as f64 / n;
        stats
            .calibration
            .set(((pred - obs_rate).abs() * GAUGE_SCALE).round() as i64);
        // A replica whose delivered rate stays `MARGIN` below what the
        // model predicts for it is sick in exactly the sense the elastic
        // supervisor quarantines on: the prediction keeps vouching for it
        // and reality keeps disagreeing.
        let violated = self.config.replica_alerts
            && stats.ring.len() >= self.config.min_samples
            && pred - obs_rate > MARGIN;
        if !violated || stats.since_alert < self.config.cooldown {
            return;
        }
        stats.since_alert = 0;
        let samples = stats.ring.len();
        self.raise(CalibrationAlert {
            method,
            replica: Some(replica),
            band: String::new(),
            promised: pred,
            observed: obs_rate,
            predicted: Some(pred),
            calibration_error: Some((pred - obs_rate).abs()),
            brier: None,
            samples,
            at_nanos,
        });
    }

    /// Retires attempt `seq` with its logical outcome: `met` is whether
    /// the request's first reply beat the deadline (`false` for a
    /// give-up). Replicas that were predicted but never replied are
    /// scored as misses on a give-up.
    pub fn on_outcome(&mut self, seq: u64, met: bool, at_nanos: u64) {
        let Some(plan) = self.pending.remove(&seq) else {
            return;
        };
        if !met {
            // A give-up means nobody answered in time: every replica the
            // model vouched for missed.
            let unanswered = plan.replica_predicted.clone();
            self.pending.insert(seq, plan);
            for (replica, _) in unanswered {
                self.on_replica_reply(seq, replica, false, at_nanos);
            }
            let plan = self.pending.remove(&seq).expect("reinserted above");
            self.score_set(plan, false, at_nanos);
        } else {
            self.score_set(plan, true, at_nanos);
        }
    }

    /// Drops attempt `seq` without scoring it (superseded by a retry —
    /// the retry carries the logical outcome).
    pub fn on_abandon(&mut self, seq: u64) {
        self.pending.remove(&seq);
    }

    fn score_set(&mut self, plan: PendingPlan, met: bool, at_nanos: u64) {
        let band = self.band_of(plan.promised);
        let band_label = self.band_label(band);
        let key = (plan.method, band);
        let window = self.config.window;
        if !self.bands.contains_key(&key) {
            let registry = self.obs.registry();
            let method_label = plan.method.to_string();
            let labels = [
                ("scope", "set"),
                ("method", method_label.as_str()),
                ("pc_band", band_label.as_str()),
            ];
            let entry = BandStats {
                ring: VecDeque::with_capacity(window),
                brier_sum: 0.0,
                brier_n: 0,
                since_alert: self.config.cooldown,
                calibration: registry.gauge("aqua_qos_calibration_error", &labels),
                brier: registry.gauge("aqua_qos_brier", &labels),
                violations: registry.counter(
                    "aqua_qos_violations_total",
                    &[
                        ("method", method_label.as_str()),
                        ("pc_band", band_label.as_str()),
                    ],
                ),
            };
            self.bands.insert(key, entry);
        }
        let stats = self.bands.get_mut(&key).expect("inserted above");
        if stats.ring.len() >= window {
            stats.ring.pop_front();
        }
        stats.ring.push_back(Sample {
            promised: plan.promised,
            predicted: plan.set_predicted,
            met,
        });
        if let Some(p) = plan.set_predicted {
            let outcome = if met { 1.0 } else { 0.0 };
            stats.brier_sum += (p - outcome) * (p - outcome);
            stats.brier_n += 1;
        }
        stats.since_alert = stats.since_alert.saturating_add(1);

        let n = stats.ring.len();
        let observed = stats.ring.iter().filter(|s| s.met).count() as f64 / n as f64;
        let promised = stats.ring.iter().map(|s| s.promised).sum::<f64>() / n as f64;
        let predicted_samples: Vec<f64> = stats.ring.iter().filter_map(|s| s.predicted).collect();
        let predicted = if predicted_samples.is_empty() {
            None
        } else {
            Some(predicted_samples.iter().sum::<f64>() / predicted_samples.len() as f64)
        };
        let calibration_error = predicted.map(|p| (p - observed).abs());
        let brier = (stats.brier_n > 0).then(|| stats.brier_sum / stats.brier_n as f64);
        if let Some(e) = calibration_error {
            stats.calibration.set((e * GAUGE_SCALE).round() as i64);
        }
        if let Some(b) = brier {
            stats.brier.set((b * GAUGE_SCALE).round() as i64);
        }

        let violated = n >= self.config.min_samples && promised - observed > MARGIN;
        if !violated || stats.since_alert < self.config.cooldown {
            return;
        }
        stats.since_alert = 0;
        stats.violations.inc();
        self.raise(CalibrationAlert {
            method: plan.method,
            replica: None,
            band: band_label,
            promised,
            observed,
            predicted,
            calibration_error,
            brier,
            samples: n,
            at_nanos,
        });
    }

    /// Journals `alert` and runs every registered hook.
    fn raise(&mut self, alert: CalibrationAlert) {
        self.alerts += 1;
        let mut fields = JsonValue::object()
            .field("method", alert.method)
            .field(
                "scope",
                if alert.replica.is_some() {
                    "replica"
                } else {
                    "set"
                },
            )
            .field("promised", alert.promised)
            .field("observed", alert.observed)
            .field("samples", alert.samples as u64)
            .field("at_ns", alert.at_nanos);
        fields = match alert.replica {
            Some(r) => fields.field("replica", r),
            None => fields.field("pc_band", alert.band.as_str()),
        };
        if let Some(p) = alert.predicted {
            fields = fields.field("predicted", p);
        }
        if let Some(e) = alert.calibration_error {
            fields = fields.field("calibration_error", e);
        }
        if let Some(b) = alert.brier {
            fields = fields.field("brier", b);
        }
        self.obs.journal().emit_event("calibration_alert", fields);
        for hook in &mut self.hooks {
            hook(&alert);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(watchdog: &mut QosWatchdog, seq: u64, p: f64, met: bool) {
        watchdog.on_plan(seq, 0, 0.9, &[(1, p)]);
        watchdog.on_replica_reply(seq, 1, met, seq * 1_000);
        watchdog.on_outcome(seq, met, seq * 1_000);
    }

    #[test]
    fn well_calibrated_traffic_never_alerts() {
        let (obs, reader) = Obs::in_memory();
        let mut w = QosWatchdog::new(&obs);
        // 95% success against a 0.9 promise: comfortably inside margin.
        for seq in 0..200 {
            feed(&mut w, seq, 0.95, seq % 20 != 0);
        }
        assert_eq!(w.alerts, 0);
        assert!(reader.lines_containing("calibration_alert").is_empty());
        let prom = obs.prometheus();
        assert!(prom.contains("aqua_qos_calibration_error"), "{prom}");
        let violations = prom
            .lines()
            .find(|l| l.starts_with("aqua_qos_violations_total{"))
            .expect("series registered");
        assert!(violations.ends_with(" 0"), "no violations: {violations}");
    }

    #[test]
    fn drift_below_promise_raises_rate_limited_alerts() {
        let (obs, reader) = Obs::in_memory();
        let mut w = QosWatchdog::with_config(
            &obs,
            CalibrationConfig {
                min_samples: 10,
                cooldown: 50,
                ..CalibrationConfig::default()
            },
        );
        let mut seen = Vec::new();
        // Hook observes the same alerts the journal records.
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let log2 = log.clone();
        w.add_hook(move |a| log2.lock().unwrap().push(a.observed));
        // Model promises 0.9 and predicts 0.95, reality delivers 0.5.
        for seq in 0..150 {
            feed(&mut w, seq, 0.95, seq % 2 == 0);
            seen.push(seq);
        }
        assert!(w.alerts >= 2, "sustained drift keeps alerting");
        assert!(
            w.alerts <= 4,
            "cooldown bounds the alert rate, got {}",
            w.alerts
        );
        let lines = reader.lines_containing("\"type\":\"calibration_alert\"");
        assert_eq!(lines.len() as u64, w.alerts);
        assert!(lines[0].contains("\"pc_band\":\"0.90\""), "{}", lines[0]);
        assert!(lines[0].contains("\"promised\":0.9"), "{}", lines[0]);
        assert_eq!(log.lock().unwrap().len() as u64, w.alerts);
        let prom = obs.prometheus();
        assert!(prom.contains("aqua_qos_violations_total"), "{prom}");
        assert!(
            prom.contains("aqua_qos_calibration_error{scope=\"set\""),
            "{prom}"
        );
        assert!(prom.contains("aqua_qos_brier"), "{prom}");
    }

    #[test]
    fn per_replica_calibration_tracks_each_member() {
        let (obs, _reader) = Obs::in_memory();
        let mut w = QosWatchdog::new(&obs);
        for seq in 0..40 {
            // Replica 1 predicted 0.9 and always meets; replica 2
            // predicted 0.9 and always misses.
            w.on_plan(seq, 7, 0.9, &[(1, 0.9), (2, 0.9)]);
            w.on_replica_reply(seq, 1, true, seq);
            w.on_replica_reply(seq, 2, false, seq);
            w.on_outcome(seq, true, seq);
        }
        let prom = obs.prometheus();
        let line_for = |replica: &str| {
            prom.lines()
                .find(|l| {
                    l.starts_with("aqua_qos_calibration_error")
                        && l.contains("scope=\"replica\"")
                        && l.contains(&format!("replica=\"{replica}\""))
                })
                .unwrap_or_else(|| panic!("no replica {replica} series in {prom}"))
                .to_owned()
        };
        let value = |line: &str| line.rsplit(' ').next().unwrap().parse::<i64>().unwrap();
        // |0.9 − 1.0| = 0.1 → 1000 bps; |0.9 − 0.0| = 0.9 → 9000 bps.
        assert_eq!(value(&line_for("1")), 1000);
        assert_eq!(value(&line_for("2")), 9000);
    }

    #[test]
    fn sick_replica_raises_replica_scoped_alerts_when_enabled() {
        let (obs, reader) = Obs::in_memory();
        let mut w = QosWatchdog::with_config(
            &obs,
            CalibrationConfig {
                min_samples: 10,
                cooldown: 50,
                replica_alerts: true,
                ..CalibrationConfig::default()
            },
        );
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        w.add_hook(move |a| seen2.lock().unwrap().push(a.replica));
        for seq in 0..40 {
            // Replica 1 healthy, replica 2 predicted 0.9 but always late.
            w.on_plan(seq, 0, 0.9, &[(1, 0.9), (2, 0.9)]);
            w.on_replica_reply(seq, 1, true, seq * 1_000);
            w.on_replica_reply(seq, 2, false, seq * 1_000);
            w.on_outcome(seq, true, seq * 1_000);
        }
        let replica_alerts: Vec<Option<u64>> = seen
            .lock()
            .unwrap()
            .iter()
            .copied()
            .filter(Option::is_some)
            .collect();
        assert!(!replica_alerts.is_empty(), "sick replica alerted");
        assert!(
            replica_alerts.iter().all(|r| *r == Some(2)),
            "only the sick replica alerts: {replica_alerts:?}"
        );
        let lines = reader.lines_containing("\"scope\":\"replica\"");
        assert!(!lines.is_empty());
        assert!(lines[0].contains("\"replica\":2"), "{}", lines[0]);
        // The healthy fleet raised no set-scoped alert.
        assert!(reader.lines_containing("\"scope\":\"set\"").is_empty());
    }

    #[test]
    fn replica_alerts_are_off_by_default() {
        let (obs, reader) = Obs::in_memory();
        let mut w = QosWatchdog::with_config(
            &obs,
            CalibrationConfig {
                min_samples: 10,
                ..CalibrationConfig::default()
            },
        );
        for seq in 0..80 {
            w.on_plan(seq, 0, 0.9, &[(2, 0.9)]);
            w.on_replica_reply(seq, 2, false, seq);
            w.on_outcome(seq, true, seq);
        }
        assert!(reader.lines_containing("\"scope\":\"replica\"").is_empty());
    }

    #[test]
    fn give_up_scores_unanswered_replicas_as_misses() {
        let (obs, _reader) = Obs::in_memory();
        let mut w = QosWatchdog::new(&obs);
        for seq in 0..20 {
            w.on_plan(seq, 0, 0.9, &[(5, 0.99)]);
            w.on_outcome(seq, false, seq); // give-up: replica 5 never replied
        }
        let prom = obs.prometheus();
        assert!(
            prom.contains("replica=\"5\""),
            "unanswered replica still scored: {prom}"
        );
    }

    #[test]
    fn abandoned_attempts_are_not_scored() {
        let (obs, reader) = Obs::in_memory();
        let mut w = QosWatchdog::with_config(
            &obs,
            CalibrationConfig {
                min_samples: 5,
                ..CalibrationConfig::default()
            },
        );
        for seq in 0..50 {
            w.on_plan(seq, 0, 0.9, &[(1, 0.99)]);
            w.on_abandon(seq); // superseded — outcome carried by the retry
        }
        assert_eq!(w.alerts, 0);
        assert!(reader.lines_containing("calibration_alert").is_empty());
    }

    #[test]
    fn baseline_without_predictions_still_audits_the_promise() {
        let (obs, reader) = Obs::in_memory();
        let mut w = QosWatchdog::with_config(
            &obs,
            CalibrationConfig {
                min_samples: 10,
                ..CalibrationConfig::default()
            },
        );
        for seq in 0..40 {
            w.on_plan(seq, 0, 0.9, &[]); // round-robin etc.: no model
            w.on_outcome(seq, false, seq);
        }
        assert!(w.alerts >= 1, "promise audit works without a model");
        let line = &reader.lines_containing("calibration_alert")[0];
        assert!(!line.contains("calibration_error"), "{line}");
    }
}
