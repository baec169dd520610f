//! Property tests for the replica behaviour models.

use aqua_core::qos::ReplicaId;
use aqua_core::repository::MethodId;
use aqua_core::time::{Duration, Instant};
use aqua_faults::FaultSchedule;
use aqua_replica::{LoadModel, LoadProcess, ReplicaCore, ServiceTimeModel};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- Service-time models ----------------

    #[test]
    fn uniform_samples_stay_in_bounds(lo in 1u64..500, width in 1u64..500, seed in 0u64..100) {
        let model = ServiceTimeModel::Uniform {
            lo: ms(lo),
            hi: ms(lo + width),
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            let s = model.sample(&mut rng);
            prop_assert!(s >= ms(lo) && s < ms(lo + width));
        }
    }

    #[test]
    fn normal_samples_respect_min(
        mean in 0u64..300,
        std in 1u64..200,
        min in 0u64..100,
        seed in 0u64..100,
    ) {
        let model = ServiceTimeModel::Normal {
            mean: ms(mean),
            std_dev: ms(std),
            min: ms(min),
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(model.sample(&mut rng) >= ms(min));
        }
    }

    #[test]
    fn pareto_samples_respect_scale(scale in 1u64..200, seed in 0u64..100) {
        let model = ServiceTimeModel::Pareto {
            scale: ms(scale),
            shape: 2.0,
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(model.sample(&mut rng) >= ms(scale));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed(mean in 1u64..500, seed in 0u64..100) {
        let model = ServiceTimeModel::Exponential { mean: ms(mean) };
        let a: Vec<Duration> = {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..50).map(|_| model.sample(&mut rng)).collect()
        };
        let b: Vec<Duration> = {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..50).map(|_| model.sample(&mut rng)).collect()
        };
        prop_assert_eq!(a, b);
    }

    // ---------------- Stage 3 ----------------

    #[test]
    fn queue_is_fifo_and_delays_are_exact(
        arrivals in prop::collection::vec(0u64..10_000, 1..50),
        service_gap in 1u64..500,
    ) {
        let mut arrivals = arrivals;
        arrivals.sort_unstable();
        let mut core = ReplicaCore::new(
            ReplicaId::new(0),
            ServiceTimeModel::Deterministic(ms(service_gap)),
            Vec::new(),
            LoadModel::nominal(),
            FaultSchedule::empty(),
        );
        for (i, at) in arrivals.iter().enumerate() {
            core.arrive(Instant::from_millis(*at), i, MethodId::DEFAULT);
        }
        prop_assert_eq!(core.queue_len(), arrivals.len());
        // Serve everything back to back from the last arrival on.
        let mut rng = SmallRng::seed_from_u64(0);
        let mut t = Instant::from_millis(*arrivals.last().unwrap());
        for (i, at) in arrivals.iter().enumerate() {
            let due = core.start(t, &mut rng).unwrap();
            let (item, perf) = core.finish(due).unwrap();
            prop_assert_eq!(item, i, "FIFO order");
            prop_assert_eq!(
                perf.queuing_delay,
                t.duration_since(Instant::from_millis(*at)),
                "tq = t3 − t2 exactly"
            );
            prop_assert_eq!(perf.service_time, ms(service_gap), "ts = finish − t3");
            t = due;
        }
        prop_assert!(core.is_idle());
    }

    // ---------------- Load process ----------------

    #[test]
    fn load_factors_come_from_the_configured_states(
        factor in 1.5f64..16.0,
        seed in 0u64..50,
    ) {
        let mut p = LoadProcess::new(LoadModel::bursty(ms(200), ms(100), factor));
        let mut rng = SmallRng::seed_from_u64(seed);
        for t in (0..20_000).step_by(7) {
            let f = p.factor(Instant::from_millis(t), &mut rng);
            prop_assert!(
                (f - 1.0).abs() < 1e-12 || (f - factor).abs() < 1e-12,
                "unexpected factor {f}"
            );
        }
    }
}
