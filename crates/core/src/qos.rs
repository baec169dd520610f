//! Client quality-of-service specifications.
//!
//! A client "expresses its requirements as a quality of service (QoS)
//! specification … the time by which the client wants to receive a response
//! after it transmits its request to this service, and the minimum
//! probability with which it wants this time constraint to be met" (§4).

use core::fmt;

use crate::time::Duration;

/// Identifier of a server replica inside an AQuA replication group.
///
/// # Examples
///
/// ```
/// use aqua_core::qos::ReplicaId;
///
/// let r = ReplicaId::new(3);
/// assert_eq!(r.to_string(), "r3");
/// assert_eq!(r.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ReplicaId(u64);

impl ReplicaId {
    /// Creates a replica id from a raw index.
    #[inline]
    pub const fn new(index: u64) -> Self {
        ReplicaId(index)
    }

    /// The raw index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u64> for ReplicaId {
    fn from(index: u64) -> Self {
        ReplicaId(index)
    }
}

/// Errors from validating a [`QosSpec`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QosError {
    /// The requested deadline was zero.
    ZeroDeadline,
    /// The requested probability was outside `[0, 1]` or not finite.
    InvalidProbability(f64),
}

impl fmt::Display for QosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QosError::ZeroDeadline => write!(f, "qos deadline must be positive"),
            QosError::InvalidProbability(p) => {
                write!(f, "qos probability must be within [0, 1], got {p}")
            }
        }
    }
}

impl std::error::Error for QosError {}

/// A client's timing requirement: a deadline `t` and the minimum probability
/// `Pc(t)` with which responses must meet it.
///
/// The paper's experiments use deadlines of 100–200 ms with probabilities
/// 0.9, 0.5, and 0 (the worst-case study).
///
/// # Examples
///
/// ```
/// use aqua_core::qos::QosSpec;
/// use aqua_core::time::Duration;
///
/// # fn main() -> Result<(), aqua_core::qos::QosError> {
/// let qos = QosSpec::new(Duration::from_millis(200), 0.9)?;
/// assert_eq!(qos.deadline(), Duration::from_millis(200));
/// assert_eq!(qos.min_probability(), 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct QosSpec {
    deadline: Duration,
    min_probability: f64,
}

impl QosSpec {
    /// Creates a validated QoS specification.
    ///
    /// # Errors
    ///
    /// Returns [`QosError::ZeroDeadline`] for a zero deadline, and
    /// [`QosError::InvalidProbability`] for a probability outside `[0, 1]`.
    pub fn new(deadline: Duration, min_probability: f64) -> Result<Self, QosError> {
        if deadline.is_zero() {
            return Err(QosError::ZeroDeadline);
        }
        if !min_probability.is_finite() || !(0.0..=1.0).contains(&min_probability) {
            return Err(QosError::InvalidProbability(min_probability));
        }
        Ok(QosSpec {
            deadline,
            min_probability,
        })
    }

    /// The response-time deadline `t`.
    #[inline]
    pub fn deadline(self) -> Duration {
        self.deadline
    }

    /// The minimum probability `Pc(t)` of timely responses.
    #[inline]
    pub fn min_probability(self) -> f64 {
        self.min_probability
    }
}

impl fmt::Debug for QosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QosSpec({} with p ≥ {})",
            self.deadline, self.min_probability
        )
    }
}

impl fmt::Display for QosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadline {} met with probability ≥ {}",
            self.deadline, self.min_probability
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_id_roundtrip() {
        let id = ReplicaId::from(7u64);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id}"), "r7");
        assert_eq!(format!("{id:?}"), "r7");
    }

    #[test]
    fn qos_validation() {
        assert!(QosSpec::new(Duration::from_millis(100), 0.0).is_ok());
        assert!(QosSpec::new(Duration::from_millis(100), 1.0).is_ok());
        assert_eq!(
            QosSpec::new(Duration::ZERO, 0.5).unwrap_err(),
            QosError::ZeroDeadline
        );
        assert!(matches!(
            QosSpec::new(Duration::from_millis(1), 1.5).unwrap_err(),
            QosError::InvalidProbability(_)
        ));
        assert!(matches!(
            QosSpec::new(Duration::from_millis(1), f64::NAN).unwrap_err(),
            QosError::InvalidProbability(_)
        ));
        assert!(matches!(
            QosSpec::new(Duration::from_millis(1), -0.1).unwrap_err(),
            QosError::InvalidProbability(_)
        ));
    }

    #[test]
    fn qos_display() {
        let qos = QosSpec::new(Duration::from_millis(150), 0.5).unwrap();
        assert_eq!(qos.to_string(), "deadline 150ms met with probability ≥ 0.5");
    }
}
