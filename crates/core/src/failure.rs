//! Timing failure detection and QoS violation callbacks (§5.4.2).
//!
//! "The handler maintains a counter that keeps track of the number of times
//! its client has failed to receive a timely response from a service. …
//! A timing failure occurs if `tr > t`. … If the frequency of timely
//! responses from the service does not meet the minimum probability the
//! client has requested in its QoS specification, the handler notifies the
//! client by issuing a callback."

use core::fmt;

use crate::qos::QosSpec;
use crate::time::Duration;

/// Verdict for a single response, returned by
/// [`TimingFailureDetector::record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingVerdict {
    /// The response arrived within the deadline.
    Timely,
    /// The response missed the deadline (`tr > t`).
    Failure {
        /// `true` when the observed frequency of timely responses has
        /// dropped below `Pc(t)` and the client must be notified via a
        /// callback so it can renegotiate or retry later.
        qos_violated: bool,
    },
}

impl TimingVerdict {
    /// Returns `true` for [`TimingVerdict::Timely`].
    pub fn is_timely(self) -> bool {
        matches!(self, TimingVerdict::Timely)
    }

    /// Returns `true` when the client callback should fire.
    pub fn should_notify(self) -> bool {
        matches!(self, TimingVerdict::Failure { qos_violated: true })
    }
}

/// Tracks response times against a [`QosSpec`] and detects QoS violations.
///
/// # Examples
///
/// ```
/// use aqua_core::failure::{TimingFailureDetector, TimingVerdict};
/// use aqua_core::qos::QosSpec;
/// use aqua_core::time::Duration;
///
/// # fn main() -> Result<(), aqua_core::qos::QosError> {
/// let qos = QosSpec::new(Duration::from_millis(100), 0.5)?;
/// let mut det = TimingFailureDetector::new(qos);
/// assert!(det.record(Duration::from_millis(80)).is_timely());
/// // One late response out of two keeps the timely rate at exactly 0.5,
/// // which still satisfies Pc = 0.5.
/// assert_eq!(
///     det.record(Duration::from_millis(150)),
///     TimingVerdict::Failure { qos_violated: false },
/// );
/// // A second late response drops the rate to 1/3 < 0.5: callback time.
/// assert!(det.record(Duration::from_millis(150)).should_notify());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct TimingFailureDetector {
    qos: QosSpec,
    total: u64,
    failures: u64,
    notifications: u64,
}

impl TimingFailureDetector {
    /// Creates a detector for the given specification.
    pub fn new(qos: QosSpec) -> Self {
        TimingFailureDetector {
            qos,
            total: 0,
            failures: 0,
            notifications: 0,
        }
    }

    /// The specification currently enforced.
    pub fn qos(&self) -> QosSpec {
        self.qos
    }

    /// Records a measured response time `tr = t4 − t0` and classifies it.
    pub fn record(&mut self, response_time: Duration) -> TimingVerdict {
        self.total += 1;
        if response_time <= self.qos.deadline() {
            TimingVerdict::Timely
        } else {
            self.failures += 1;
            let qos_violated = self.timely_rate() < self.qos.min_probability();
            if qos_violated {
                self.notifications += 1;
            }
            TimingVerdict::Failure { qos_violated }
        }
    }

    /// Total responses observed since the last (re)negotiation.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Timing failures observed since the last (re)negotiation.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Observed fraction of timely responses (1 when nothing observed yet).
    pub fn timely_rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            (self.total - self.failures) as f64 / self.total as f64
        }
    }

    /// Observed fraction of timing failures (0 when nothing observed yet).
    pub fn failure_rate(&self) -> f64 {
        1.0 - self.timely_rate()
    }

    /// Whether the service is currently violating the specification.
    pub fn is_violating(&self) -> bool {
        self.total > 0 && self.timely_rate() < self.qos.min_probability()
    }

    /// Installs a renegotiated specification and resets the counters, as
    /// when "the client can then either choose to renegotiate its QoS
    /// specification or issue its requests to the service at a later time".
    pub fn renegotiate(&mut self, qos: QosSpec) {
        self.qos = qos;
        self.total = 0;
        self.failures = 0;
        self.notifications = 0;
    }
}

impl fmt::Debug for TimingFailureDetector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimingFailureDetector")
            .field("qos", &self.qos)
            .field("total", &self.total)
            .field("failures", &self.failures)
            .field("timely_rate", &self.timely_rate())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(deadline_ms: u64, p: f64) -> QosSpec {
        QosSpec::new(Duration::from_millis(deadline_ms), p).unwrap()
    }

    #[test]
    fn boundary_response_is_timely() {
        let mut det = TimingFailureDetector::new(spec(100, 0.9));
        assert_eq!(
            det.record(Duration::from_millis(100)),
            TimingVerdict::Timely,
            "tr == t is not a failure (failure requires tr > t)"
        );
        assert_eq!(det.failures(), 0);
    }

    #[test]
    fn failure_counting_and_rates() {
        let mut det = TimingFailureDetector::new(spec(100, 0.0));
        det.record(Duration::from_millis(50));
        det.record(Duration::from_millis(150));
        det.record(Duration::from_millis(250));
        assert_eq!(det.total(), 3);
        assert_eq!(det.failures(), 2);
        assert!((det.failure_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!(!det.is_violating(), "Pc = 0 tolerates everything");
    }

    #[test]
    fn callback_fires_when_rate_drops_below_pc() {
        let mut det = TimingFailureDetector::new(spec(100, 0.75));
        for _ in 0..3 {
            assert!(det.record(Duration::from_millis(10)).is_timely());
        }
        // 3 timely + 1 late = 0.75: not yet below.
        assert_eq!(
            det.record(Duration::from_millis(200)),
            TimingVerdict::Failure {
                qos_violated: false
            }
        );
        // 3 timely + 2 late = 0.6 < 0.75: notify.
        let verdict = det.record(Duration::from_millis(200));
        assert!(verdict.should_notify());
        assert!(det.is_violating());
    }

    #[test]
    fn renegotiation_resets_counters() {
        let mut det = TimingFailureDetector::new(spec(100, 0.9));
        det.record(Duration::from_millis(500));
        assert!(det.is_violating());
        det.renegotiate(spec(600, 0.5));
        assert_eq!(det.total(), 0);
        assert!(!det.is_violating());
        assert!(det.record(Duration::from_millis(500)).is_timely());
    }

    #[test]
    fn pristine_detector_reports_perfect_rate() {
        let det = TimingFailureDetector::new(spec(100, 0.9));
        assert_eq!(det.timely_rate(), 1.0);
        assert_eq!(det.failure_rate(), 0.0);
        assert!(!det.is_violating());
    }
}
