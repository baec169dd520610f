//! Property-based tests for the core model and selection algorithm.

use aqua_core::prelude::*;
use proptest::prelude::*;

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// Strategy: a non-empty vector of millisecond durations ≤ 1 s.
fn duration_samples() -> impl Strategy<Value = Vec<Duration>> {
    prop::collection::vec(0u64..1_000, 1..40).prop_map(|v| v.into_iter().map(ms).collect())
}

/// Strategy: a vector of probabilities in [0, 1].
fn probabilities(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..=1.0, 0..max_len)
}

proptest! {
    // ---------------- Pmf invariants ----------------

    #[test]
    fn pmf_mass_is_one(samples in duration_samples()) {
        let pmf = Pmf::from_samples(samples, ms(1)).unwrap();
        prop_assert!((pmf.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pmf_cdf_is_monotone_and_bounded(samples in duration_samples()) {
        let pmf = Pmf::from_samples(samples, ms(1)).unwrap();
        let mut last = 0.0;
        for t in (0..1_100).step_by(13) {
            let p = pmf.cdf(ms(t));
            prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
            prop_assert!(p + 1e-12 >= last, "cdf decreased at t={t}");
            last = p;
        }
        prop_assert!(pmf.cdf(pmf.support_max()) > 1.0 - 1e-9);
    }

    #[test]
    fn pmf_cdf_zero_below_support(samples in duration_samples()) {
        let pmf = Pmf::from_samples(samples, ms(1)).unwrap();
        if pmf.support_min() > Duration::ZERO {
            prop_assert_eq!(pmf.cdf(pmf.support_min() - ms(1)), 0.0);
        }
    }

    #[test]
    fn convolution_preserves_mass_and_adds_means(
        a in duration_samples(),
        b in duration_samples(),
    ) {
        let pa = Pmf::from_samples(a, ms(1)).unwrap();
        let pb = Pmf::from_samples(b, ms(1)).unwrap();
        let c = pa.convolve(&pb).unwrap();
        prop_assert!((c.mass() - 1.0).abs() < 1e-8);
        let sum = pa.mean().as_millis_f64() + pb.mean().as_millis_f64();
        prop_assert!((c.mean().as_millis_f64() - sum).abs() < 0.5, "bucket rounding only");
    }

    #[test]
    fn convolution_commutes_on_cdf(
        a in duration_samples(),
        b in duration_samples(),
    ) {
        let pa = Pmf::from_samples(a, ms(1)).unwrap();
        let pb = Pmf::from_samples(b, ms(1)).unwrap();
        let ab = pa.convolve(&pb).unwrap();
        let ba = pb.convolve(&pa).unwrap();
        for t in (0..2_200).step_by(97) {
            prop_assert!((ab.cdf(ms(t)) - ba.cdf(ms(t))).abs() < 1e-9);
        }
    }

    #[test]
    fn convolution_dominates_components(
        a in duration_samples(),
        b in duration_samples(),
    ) {
        // Adding a non-negative term can only delay the response:
        // F_{A+B}(t) ≤ min(F_A(t), F_B(t)).
        let pa = Pmf::from_samples(a, ms(1)).unwrap();
        let pb = Pmf::from_samples(b, ms(1)).unwrap();
        let c = pa.convolve(&pb).unwrap();
        for t in (0..2_200).step_by(53) {
            let t = ms(t);
            prop_assert!(c.cdf(t) <= pa.cdf(t) + 1e-9);
            prop_assert!(c.cdf(t) <= pb.cdf(t) + 1e-9);
        }
    }

    #[test]
    fn quantile_cdf_galois(samples in duration_samples(), p in 0.0f64..=1.0) {
        let pmf = Pmf::from_samples(samples, ms(1)).unwrap();
        let q = pmf.quantile(p);
        prop_assert!(pmf.cdf(q) + 1e-9 >= p);
        if q > pmf.support_min() {
            prop_assert!(pmf.cdf(q - ms(1)) < p + 1e-9);
        }
    }

    #[test]
    fn shift_translates_cdf(samples in duration_samples(), shift in 0u64..500) {
        let pmf = Pmf::from_samples(samples, ms(1)).unwrap();
        let shifted = pmf.clone().shift_by(ms(shift));
        for t in (0..1_600).step_by(41) {
            let expect = if t >= shift { pmf.cdf(ms(t - shift)) } else { 0.0 };
            prop_assert!((shifted.cdf(ms(t)) - expect).abs() < 1e-9);
        }
    }

    // ---------------- Sliding window ----------------

    #[test]
    fn window_keeps_suffix(values in prop::collection::vec(any::<u32>(), 1..100),
                           cap in 1usize..20) {
        let mut w = SlidingWindow::new(cap);
        w.extend(values.iter().copied());
        let expect: Vec<u32> = values.iter().rev().take(cap).rev().copied().collect();
        prop_assert_eq!(w.iter().copied().collect::<Vec<_>>(), expect);
        prop_assert_eq!(w.len(), values.len().min(cap));
    }

    // ---------------- Algorithm 1 invariants ----------------

    #[test]
    fn selection_contains_best_and_at_least_two(
        probs in probabilities(12),
        pc in 0.0f64..=1.0,
    ) {
        let cands: Vec<Candidate> = probs
            .iter()
            .enumerate()
            .map(|(i, p)| Candidate::new(ReplicaId::new(i as u64), *p))
            .collect();
        let s = select_replicas(&cands, pc);
        if cands.is_empty() {
            prop_assert!(s.replicas().is_empty());
            return Ok(());
        }
        // The most promising replica is always selected.
        let best = cands
            .iter()
            .max_by(|a, b| {
                a.probability
                    .partial_cmp(&b.probability)
                    .unwrap()
                    .then_with(|| b.id.cmp(&a.id))
            })
            .unwrap()
            .id;
        prop_assert!(s.replicas().contains(&best));
        // Any non-fallback selection has at least 2 members (m0 + X).
        if !s.is_fallback_all() {
            prop_assert!(s.redundancy() >= 2);
        } else {
            prop_assert_eq!(s.redundancy(), cands.len());
        }
    }

    #[test]
    fn selection_meets_requested_probability(
        probs in probabilities(12),
        pc in 0.0f64..=1.0,
    ) {
        let cands: Vec<Candidate> = probs
            .iter()
            .enumerate()
            .map(|(i, p)| Candidate::new(ReplicaId::new(i as u64), *p))
            .collect();
        let s = select_replicas(&cands, pc);
        if !s.is_fallback_all() {
            prop_assert!(s.crash_tolerant_probability() + 1e-12 >= pc);
            prop_assert!(s.predicted_probability() + 1e-12 >= pc);
        }
    }

    #[test]
    fn selection_survives_any_single_crash(
        probs in probabilities(12),
        pc in 0.0f64..=1.0,
    ) {
        // Equation 3: for non-fallback selections, removing any single
        // member still meets Pc.
        let cands: Vec<Candidate> = probs
            .iter()
            .enumerate()
            .map(|(i, p)| Candidate::new(ReplicaId::new(i as u64), *p))
            .collect();
        let s = select_replicas(&cands, pc);
        if s.is_fallback_all() {
            return Ok(());
        }
        let selected: Vec<f64> = s
            .replicas()
            .iter()
            .map(|id| probs[id.index() as usize])
            .collect();
        for drop_idx in 0..selected.len() {
            let survivors: Vec<f64> = selected
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop_idx)
                .map(|(_, p)| *p)
                .collect();
            prop_assert!(
                combined_probability(&survivors) + 1e-9 >= pc,
                "crash of member {drop_idx} violates Pc"
            );
        }
    }

    #[test]
    fn selection_is_minimal_prefix(
        probs in probabilities(12),
        pc in 0.0f64..=1.0,
    ) {
        // The algorithm never selects more than the minimum needed: taking
        // one fewer replica from X must violate the acceptance test.
        let cands: Vec<Candidate> = probs
            .iter()
            .enumerate()
            .map(|(i, p)| Candidate::new(ReplicaId::new(i as u64), *p))
            .collect();
        let s = select_replicas(&cands, pc);
        if s.is_fallback_all() || s.redundancy() <= 2 {
            return Ok(());
        }
        // Members are ordered best-first: K = [m0, x1, ..., xk].
        let x_probs: Vec<f64> = s.replicas()[1..s.redundancy() - 1]
            .iter()
            .map(|id| probs[id.index() as usize])
            .collect();
        prop_assert!(
            combined_probability(&x_probs) < pc,
            "a strictly smaller candidate set already satisfied Pc"
        );
    }

    #[test]
    fn selection_survives_any_f_crashes(
        probs in probabilities(12),
        pc in 0.0f64..=1.0,
        f in 0usize..4,
    ) {
        // The §5.3.2 generalization: a non-fallback selection with crash
        // tolerance f keeps Pc after ANY f members crash.
        let cands: Vec<Candidate> = probs
            .iter()
            .enumerate()
            .map(|(i, p)| Candidate::new(ReplicaId::new(i as u64), *p))
            .collect();
        let s = select_replicas_tolerating(&cands, pc, f);
        if s.is_fallback_all() {
            return Ok(());
        }
        let selected: Vec<f64> = s
            .replicas()
            .iter()
            .map(|id| probs[id.index() as usize])
            .collect();
        // Check every crash set of size f (selection sizes stay small, so
        // enumerating combinations is cheap).
        fn check(selected: &[f64], pc: f64, crash: &mut Vec<usize>, start: usize, f: usize)
            -> Result<(), proptest::test_runner::TestCaseError>
        {
            if crash.len() == f {
                let survivors: Vec<f64> = selected
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !crash.contains(i))
                    .map(|(_, p)| *p)
                    .collect();
                prop_assert!(
                    combined_probability(&survivors) + 1e-9 >= pc,
                    "crash set {crash:?} violates Pc"
                );
                return Ok(());
            }
            for i in start..selected.len() {
                crash.push(i);
                check(selected, pc, crash, i + 1, f)?;
                crash.pop();
            }
            Ok(())
        }
        check(&selected, pc, &mut Vec::new(), 0, f.min(selected.len()))?;
    }

    #[test]
    fn selection_monotone_in_pc(probs in probabilities(12), pc in 0.0f64..=1.0) {
        // A weaker requirement never selects more replicas.
        let cands: Vec<Candidate> = probs
            .iter()
            .enumerate()
            .map(|(i, p)| Candidate::new(ReplicaId::new(i as u64), *p))
            .collect();
        let strict = select_replicas(&cands, pc);
        let loose = select_replicas(&cands, pc / 2.0);
        prop_assert!(loose.redundancy() <= strict.redundancy());
    }

    #[test]
    fn selection_size_matches_closed_form_for_iid_replicas(
        // Log-uniform over [0.001, 0.98): a small p needs thousands of
        // replicas, so |K| grows large and pools up to 4 096 fall back.
        p in (0.001f64.ln()..0.98f64.ln()).prop_map(f64::exp),
        pc in 0.0f64..0.995,
        n in 2usize..=4096,
    ) {
        // For n i.i.d. replicas with per-replica probability p, Algorithm 1
        // must select exactly k+1 replicas where k is the closed-form
        // minimum with 1 − (1−p)^k ≥ Pc (the +1 is the reserved m0), or
        // fall back when k exceeds the pool minus the reserve.
        use aqua_core::analytic::replicas_needed;
        let cands: Vec<Candidate> = (0..n)
            .map(|i| Candidate::new(ReplicaId::new(i as u64), p))
            .collect();
        let s = select_replicas(&cands, pc);
        let k = replicas_needed(p, pc).expect("p > 0").max(1) as usize;
        if k < n {
            prop_assert!(!s.is_fallback_all());
            prop_assert_eq!(
                s.redundancy(),
                k + 1,
                "closed form predicts X of {} plus the reserve (p={}, pc={})",
                k, p, pc
            );
        } else {
            prop_assert!(s.is_fallback_all());
            prop_assert_eq!(s.redundancy(), n);
        }
    }

    #[test]
    fn combined_probability_bounds(probs in probabilities(12)) {
        let p = combined_probability(&probs);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
        // At least as good as the best individual member.
        if let Some(best) = probs.iter().cloned().fold(None::<f64>, |acc, x| {
            Some(acc.map_or(x, |a| a.max(x)))
        }) {
            prop_assert!(p + 1e-12 >= best);
        }
    }

    // ---------------- Detector invariants ----------------

    #[test]
    fn detector_rates_sum_to_one(
        latencies in prop::collection::vec(0u64..400, 1..60),
        deadline in 1u64..300,
        pc in 0.0f64..=1.0,
    ) {
        let qos = QosSpec::new(ms(deadline), pc).unwrap();
        let mut det = TimingFailureDetector::new(qos);
        let mut failures = 0u64;
        for l in &latencies {
            if !det.record(ms(*l)).is_timely() {
                failures += 1;
            }
        }
        prop_assert_eq!(det.failures(), failures);
        prop_assert_eq!(det.total(), latencies.len() as u64);
        prop_assert!((det.timely_rate() + det.failure_rate() - 1.0).abs() < 1e-12);
        let expect_violating = det.timely_rate() < pc;
        prop_assert_eq!(det.is_violating(), expect_violating);
    }
}
