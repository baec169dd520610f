//! Seeded input generation. Everything a workload feeds the program —
//! service-time draws, queue lengths, payload bytes, experiment seeds —
//! comes from `--seed` through this module, so the same seed gives the
//! same inputs and the program under test never sees the seed itself.

use aqua_core::time::Duration;

/// SplitMix64: the benchmark's own generator, so its inputs do not move
/// when the vendored `rand` stand-in changes.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated per `stream` so each input
    /// family draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut mixer = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        mixer.next_u64();
        mixer
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Standard normal by Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let radius = (-2.0 * self.next_f64().ln()).sqrt();
        radius * (std::f64::consts::TAU * self.next_f64()).cos()
    }
}

/// Stream ids: one per input family.
mod stream {
    pub const SERVICE: u64 = 1;
    pub const QUEUE_LEN: u64 = 2;
    pub const PAYLOAD: u64 = 3;
    pub const EXPERIMENT_SEEDS: u64 = 4;
    pub const SCENARIO_SEED: u64 = 5;
}

/// Draws per replica in a [`ServiceDraws`] table (a power of two, so a
/// call indexes it with a mask). 16 Ki draws span hundreds of sliding
/// windows at `l` = 100.
pub const DRAWS_PER_REPLICA: usize = 1 << 14;

/// Calls a replica's queue length holds for before it is redrawn. A
/// queue that moved on every call would make every report stale by the
/// time it is planned with; real queues drift.
pub const QUEUE_HOLD_CALLS: u64 = 64;

/// What replica `i` of a gateway workload looks like to the client.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaShape {
    /// Mean service time of replica 0.
    pub base_mean: Duration,
    /// Added to the mean per replica index, so replicas differ and
    /// Algorithm 1 has something to rank.
    pub mean_step: Duration,
    /// Standard deviation as a share of the replica's mean.
    pub spread: f64,
    /// Queue lengths are uniform in `0..=max_queue`, redrawn every
    /// [`QUEUE_HOLD_CALLS`] calls.
    pub max_queue: u32,
}

/// Pre-drawn per-replica performance reports: tables cycled by call
/// index, filled during set-up so the timed loop pays no generator cost.
#[derive(Debug, Clone)]
pub struct ServiceDraws {
    service: Vec<Vec<Duration>>,
    queue_len: Vec<Vec<u32>>,
}

impl ServiceDraws {
    /// Draws tables for `replicas` replicas from `seed`.
    pub fn generate(seed: u64, replicas: usize, shape: ReplicaShape) -> Self {
        let mut service = Vec::with_capacity(replicas);
        let mut queue_len = Vec::with_capacity(replicas);
        for replica in 0..replicas {
            let stream = (replica as u64) << 8;
            let mut rng = SplitMix64::new(seed, stream | stream::SERVICE);
            let mean = shape.base_mean.as_nanos() as f64
                + shape.mean_step.as_nanos() as f64 * replica as f64;
            let sd = mean * shape.spread;
            service.push(
                (0..DRAWS_PER_REPLICA)
                    .map(|_| {
                        // Truncated below at a tenth of the mean: a
                        // service time is never zero or negative.
                        let nanos = (mean + sd * rng.normal()).max(mean * 0.1);
                        Duration::from_nanos(nanos as u64)
                    })
                    .collect(),
            );
            let mut rng = SplitMix64::new(seed, stream | stream::QUEUE_LEN);
            queue_len.push(
                (0..DRAWS_PER_REPLICA)
                    .map(|_| rng.below(u64::from(shape.max_queue) + 1) as u32)
                    .collect(),
            );
        }
        ServiceDraws { service, queue_len }
    }

    /// The service time replica `replica` reports on call `call`.
    #[inline]
    pub fn service(&self, replica: usize, call: u64) -> Duration {
        self.service[replica][call as usize & (DRAWS_PER_REPLICA - 1)]
    }

    /// The queue length replica `replica` has during call `call`.
    #[inline]
    pub fn queue_len(&self, replica: usize, call: u64) -> u32 {
        self.queue_len[replica][(call / QUEUE_HOLD_CALLS) as usize & (DRAWS_PER_REPLICA - 1)]
    }
}

/// `len` payload bytes for the socket workload.
pub fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed, stream::PAYLOAD);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// The `count` experiment seeds one `paper_sim` pass runs each cell with.
pub fn experiment_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed, stream::EXPERIMENT_SEEDS);
    (0..count).map(|_| rng.next_u64() >> 1).collect()
}

/// The seed the `geo_sim` scenario is run with.
pub fn scenario_seed(seed: u64) -> u64 {
    SplitMix64::new(seed, stream::SCENARIO_SEED).next_u64() >> 1
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: ReplicaShape = ReplicaShape {
        base_mean: Duration::from_millis(90),
        mean_step: Duration::from_millis(10),
        spread: 0.3,
        max_queue: 4,
    };

    fn fingerprint(draws: &ServiceDraws) -> Vec<(u64, u32)> {
        (0..draws.service.len())
            .flat_map(|r| (0..64).map(move |c| (r, c * QUEUE_HOLD_CALLS)))
            .map(|(r, c)| (draws.service(r, c).as_nanos(), draws.queue_len(r, c)))
            .collect()
    }

    #[test]
    fn same_seed_same_draws_other_seed_other_draws() {
        let a = ServiceDraws::generate(7, 4, SHAPE);
        let b = ServiceDraws::generate(7, 4, SHAPE);
        let c = ServiceDraws::generate(8, 4, SHAPE);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn draws_follow_the_shape() {
        let draws = ServiceDraws::generate(11, 3, SHAPE);
        for replica in 0..3 {
            let calls = DRAWS_PER_REPLICA as u64;
            let mean = (0..calls)
                .map(|c| draws.service(replica, c).as_nanos() as f64)
                .sum::<f64>()
                / calls as f64;
            let expected = 90e6 + 10e6 * replica as f64;
            assert!(
                (mean - expected).abs() / expected < 0.02,
                "replica {replica}: {mean}"
            );
            assert!((0..calls).all(|c| draws.queue_len(replica, c) <= 4));
            assert!((0..calls).any(|c| draws.queue_len(replica, c) == 4));
            assert_eq!(
                draws.queue_len(replica, 0),
                draws.queue_len(replica, QUEUE_HOLD_CALLS - 1)
            );
            // The table wraps.
            assert_eq!(draws.service(replica, 3), draws.service(replica, calls + 3));
        }
        // Replicas draw from their own streams.
        assert_ne!(draws.service(0, 0), draws.service(1, 0));
    }

    #[test]
    fn seeds_and_payloads_are_functions_of_the_seed() {
        assert_eq!(experiment_seeds(3, 5), experiment_seeds(3, 5));
        assert_ne!(experiment_seeds(3, 5), experiment_seeds(4, 5));
        let seeds = experiment_seeds(3, 5);
        assert!(seeds
            .iter()
            .all(|s| seeds.iter().filter(|t| *t == s).count() == 1));
        assert_eq!(payload(9, 64), payload(9, 64));
        assert_ne!(payload(9, 64), payload(10, 64));
        assert_eq!(payload(9, 64).len(), 64);
        assert_eq!(scenario_seed(5), scenario_seed(5));
        assert_ne!(scenario_seed(5), scenario_seed(6));
    }

    #[test]
    fn uniform_helpers_stay_in_range() {
        let mut rng = SplitMix64::new(1, 0);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!(x > 0.0 && x < 1.0);
            assert!(rng.below(5) < 5);
        }
        let mean = (0..20_000).map(|_| rng.normal()).sum::<f64>() / 20_000.0;
        assert!(mean.abs() < 0.03, "{mean}");
    }
}
