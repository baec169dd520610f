//! Network latency models for the simulated LAN.
//!
//! The paper's system model (§3): LAN links "do not experience frequent
//! fluctuations in traffic, \[but\] they may experience occasional periods of
//! high traffic, which may result in large delays in the message delivery
//! time". The models here cover the spectrum from an idealized constant-
//! latency switch to a congested LAN with delay spikes.

use aqua_core::time::{Duration, Instant};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::node::NodeId;

/// Decides the one-way delivery latency of each message.
///
/// Implementations may be stateful (e.g. congestion epochs) and may use the
/// deterministic simulation RNG.
pub trait NetworkModel {
    /// Latency for a message of `size` bytes from `from` to `to`, sent as
    /// part of a multicast to `fanout` destinations at time `now`.
    fn delay(
        &mut self,
        from: NodeId,
        to: NodeId,
        size: usize,
        fanout: usize,
        now: Instant,
        rng: &mut SmallRng,
    ) -> Duration;
}

/// Zero-latency network; useful for unit tests that want pure causality.
#[derive(Debug, Clone, Copy, Default)]
pub struct InstantNetwork;

impl NetworkModel for InstantNetwork {
    fn delay(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        _size: usize,
        _fanout: usize,
        _now: Instant,
        _rng: &mut SmallRng,
    ) -> Duration {
        Duration::ZERO
    }
}

/// A well-behaved switched LAN: base latency, a per-byte term, a small
/// per-destination multicast cost, and uniform jitter.
#[derive(Debug, Clone)]
pub struct UniformLan {
    /// Fixed one-way latency (propagation + protocol stack).
    pub base: Duration,
    /// Additional latency per payload byte (inverse bandwidth).
    pub per_byte: Duration,
    /// Additional latency per extra multicast destination.
    pub per_fanout: Duration,
    /// Jitter: the delay is multiplied by `1 + U(0, jitter)`.
    pub jitter: f64,
}

impl UniformLan {
    /// A LAN calibrated so a minimal request/response pair costs about the
    /// paper's observed 3.5 ms floor (§6): ~1.5 ms one-way through the
    /// gateway + Ensemble stack, small jitter.
    pub fn aqua_testbed() -> Self {
        UniformLan {
            base: Duration::from_micros(1_500),
            per_byte: Duration::from_nanos(80), // ~100 Mb/s effective
            per_fanout: Duration::from_micros(40),
            jitter: 0.10,
        }
    }
}

impl Default for UniformLan {
    fn default() -> Self {
        UniformLan::aqua_testbed()
    }
}

impl NetworkModel for UniformLan {
    fn delay(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        size: usize,
        fanout: usize,
        _now: Instant,
        rng: &mut SmallRng,
    ) -> Duration {
        let raw = self.base
            + self.per_byte.saturating_mul(size as u64)
            + self
                .per_fanout
                .saturating_mul(fanout.saturating_sub(1) as u64);
        let factor = 1.0 + rng.gen_range(0.0..=self.jitter.max(0.0));
        raw.mul_f64(factor)
    }
}

/// A LAN with occasional congestion epochs that multiply delays, matching
/// the "occasional periods of high traffic" of §3.
///
/// Congestion is modeled as a two-state process: at each message, if the
/// network is calm it becomes congested with probability `spike_prob`; a
/// congestion epoch lasts `spike_duration` and scales delays by
/// `spike_scale`.
#[derive(Debug, Clone)]
pub struct CongestedLan {
    /// The underlying calm-network behaviour.
    pub lan: UniformLan,
    /// Probability per message of entering a congestion epoch.
    pub spike_prob: f64,
    /// Multiplier applied to delays during congestion.
    pub spike_scale: f64,
    /// Length of one congestion epoch.
    pub spike_duration: Duration,
    congested_until: Option<Instant>,
}

impl CongestedLan {
    /// Creates a congested LAN over the given calm behaviour.
    pub fn new(
        lan: UniformLan,
        spike_prob: f64,
        spike_scale: f64,
        spike_duration: Duration,
    ) -> Self {
        CongestedLan {
            lan,
            spike_prob,
            spike_scale,
            spike_duration,
            congested_until: None,
        }
    }

    /// Whether the network is congested at `now`.
    pub fn is_congested(&self, now: Instant) -> bool {
        self.congested_until.is_some_and(|until| now < until)
    }
}

impl NetworkModel for CongestedLan {
    fn delay(
        &mut self,
        from: NodeId,
        to: NodeId,
        size: usize,
        fanout: usize,
        now: Instant,
        rng: &mut SmallRng,
    ) -> Duration {
        if !self.is_congested(now) && rng.gen_bool(self.spike_prob.clamp(0.0, 1.0)) {
            self.congested_until = Some(now.saturating_add(self.spike_duration));
        }
        let base = self.lan.delay(from, to, size, fanout, now, rng);
        if self.is_congested(now) {
            base.mul_f64(self.spike_scale.max(1.0))
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn instant_network_is_zero() {
        let mut net = InstantNetwork;
        assert_eq!(
            net.delay(n(0), n(1), 1000, 5, Instant::EPOCH, &mut rng()),
            Duration::ZERO
        );
    }

    #[test]
    fn uniform_lan_scales_with_size_and_fanout() {
        let mut net = UniformLan {
            base: Duration::from_micros(100),
            per_byte: Duration::from_nanos(100),
            per_fanout: Duration::from_micros(10),
            jitter: 0.0,
        };
        let mut r = rng();
        let small = net.delay(n(0), n(1), 0, 1, Instant::EPOCH, &mut r);
        let big = net.delay(n(0), n(1), 10_000, 1, Instant::EPOCH, &mut r);
        let multi = net.delay(n(0), n(1), 0, 5, Instant::EPOCH, &mut r);
        assert_eq!(small, Duration::from_micros(100));
        assert_eq!(big, Duration::from_micros(100 + 1_000));
        assert_eq!(multi, Duration::from_micros(100 + 40));
    }

    #[test]
    fn uniform_lan_jitter_bounded() {
        let mut net = UniformLan {
            base: Duration::from_micros(100),
            per_byte: Duration::ZERO,
            per_fanout: Duration::ZERO,
            jitter: 0.5,
        };
        let mut r = rng();
        for _ in 0..200 {
            let d = net.delay(n(0), n(1), 0, 1, Instant::EPOCH, &mut r);
            assert!(d >= Duration::from_micros(100));
            assert!(d <= Duration::from_micros(150));
        }
    }

    #[test]
    fn congestion_epochs_scale_delays() {
        let lan = UniformLan {
            base: Duration::from_micros(100),
            per_byte: Duration::ZERO,
            per_fanout: Duration::ZERO,
            jitter: 0.0,
        };
        // Always spike, 10× scale, 1 ms epochs.
        let mut net = CongestedLan::new(lan, 1.0, 10.0, Duration::from_millis(1));
        let mut r = rng();
        let d = net.delay(n(0), n(1), 0, 1, Instant::EPOCH, &mut r);
        assert_eq!(d, Duration::from_millis(1));
        assert!(net.is_congested(Instant::EPOCH));
        assert!(!net.is_congested(Instant::from_millis(2)));
        // After the epoch (and with spike_prob left at 1.0 it re-enters).
        let d2 = net.delay(n(0), n(1), 0, 1, Instant::from_millis(2), &mut r);
        assert_eq!(d2, Duration::from_millis(1));
    }

    #[test]
    fn congestion_never_triggers_with_zero_probability() {
        let lan = UniformLan {
            base: Duration::from_micros(100),
            per_byte: Duration::ZERO,
            per_fanout: Duration::ZERO,
            jitter: 0.0,
        };
        let mut net = CongestedLan::new(lan, 0.0, 10.0, Duration::from_millis(1));
        let mut r = rng();
        for i in 0..100 {
            let d = net.delay(n(0), n(1), 0, 1, Instant::from_millis(i), &mut r);
            assert_eq!(d, Duration::from_micros(100));
        }
    }
}
