//! Property tests of the point-query model, for *any* interleaving of
//! repository mutations and *any* estimator combination:
//!
//! - a read from a snapshot kept by the publisher's reuse rule
//!   ([`ReplicaSnapshot::serves`], else [`ViewSpares::rebuilt`]) equals
//!   the from-scratch query bit for bit;
//! - on small windows, `F(x)` is the exact rational an enumeration of
//!   every tuple of retained samples gives, rounded once;
//! - it agrees with the whole-distribution float pipeline
//!   (`response_pmf_with(..).cdf(x)`) to 1e-12 at queue depths 0–32, and
//!   a table built only up to a horizon reads, below it, what the full
//!   one reads;
//! - a `QueueScaled` table refreshed from the one it replaces reads what
//!   a fresh table and the unbounded squaring chain read, bit for bit,
//!   and refreshes exactly when the rule says it may.

use std::collections::BTreeMap;
use std::sync::Arc;

use aqua_core::pmf::ConvScratch;
use aqua_core::prelude::*;
use aqua_core::repository::MethodHistory;
use aqua_core::snapshot::{method_slot, ViewSpares};
use proptest::prelude::*;

mod repo_ops;
use repo_ops::{all_configs, apply, ms, op, op_with, Op, METHODS, POOL};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One snapshot memo per estimator combination, kept by the rule a
    /// publish follows (the held snapshot while it
    /// [serves](ReplicaSnapshot::serves), else [`ViewSpares::rebuilt`]),
    /// survives an
    /// arbitrary interleaving of `record_perf` / `record_gateway_delay` /
    /// `remove_replica` / probation transitions / re-insertions while the
    /// horizon it refreshes to grows halfway through. After every operation
    /// it agrees bit for bit with the from-scratch model for every replica,
    /// method, and a spread of deadlines up to the horizon; it rebuilds
    /// exactly when a generation moved or its tables stop short of the
    /// horizon, and what it rebuilds serves at once.
    #[test]
    fn snapshot_refresh_matches_from_scratch_for_all_estimators(
        ops in prop::collection::vec(op(), 1..40),
    ) {
        let configs = all_configs();
        let mut repo = InfoRepository::new(5);
        for i in 0..POOL {
            repo.insert_replica(ReplicaId::new(i));
        }
        let models: Vec<ResponseTimeModel> = configs
            .into_iter()
            .map(ResponseTimeModel::new)
            .collect();
        let mut memos: Vec<BTreeMap<ReplicaId, Arc<ReplicaSnapshot>>> =
            models.iter().map(|_| BTreeMap::new()).collect();
        let mut scratch = ConvScratch::new();
        let mut spares = ViewSpares::default();

        for (step, op) in ops.iter().enumerate() {
            apply(&mut repo, op);
            // A read at 3 s past an 800 ms table would trip its horizon
            // assertion: growing the horizon must rebuild every table.
            let horizon = ms(if step < ops.len() / 2 { 800 } else { 3_000 });
            for (model, memo) in models.iter().zip(memos.iter_mut()) {
                for raw in 0..POOL {
                    let id = ReplicaId::new(raw);
                    let Some(stats) = repo.stats(id) else { continue };
                    // A removed id keeps its snapshot: the re-inserted
                    // replica's must not be answered from it.
                    let held = memo.get(&id);
                    let stale = held.is_none_or(|h| !h.is_current(stats) || !h.covers(horizon));
                    prop_assert_eq!(held.is_none_or(|h| !h.serves(stats, horizon)), stale);
                    let snapshot = match held {
                        Some(held) if !stale => Arc::clone(held),
                        held => spares.rebuilt(
                            id, stats, Some(model), &mut scratch, horizon, held.map(Arc::as_ref),
                        ),
                    };
                    prop_assert!(snapshot.serves(stats, horizon), "a rebuild is stale");
                    for method in [None, Some(MethodId::new(0)), Some(MethodId::new(1))] {
                        let slot = method_slot(model.config().method_scope, method);
                        for deadline_ms in [0u64, 50, 200, 800, 3_000] {
                            let deadline = ms(deadline_ms);
                            if deadline > horizon {
                                continue;
                            }
                            let memoized = snapshot.probability_by(slot, deadline);
                            let fresh = model.probability_by_for(stats, deadline, method);
                            match (memoized, fresh) {
                                (Some(m), Some(f)) => prop_assert!(
                                    m.to_bits() == f.to_bits(),
                                    "memoized {m} vs fresh {f} for {id:?} {method:?} @{deadline_ms}ms ({})",
                                    model_label(model),
                                ),
                                (None, None) => {}
                                (m, f) => prop_assert!(
                                    false,
                                    "presence mismatch: memoized {m:?} vs fresh {f:?} for {id:?} \
                                     {method:?} @{deadline_ms}ms ({})",
                                    model_label(model),
                                ),
                            }
                        }
                    }
                    memo.insert(id, snapshot);
                }
            }
        }
    }

    /// (b) Against the whole-distribution float pipeline, the reference
    /// the tables replaced: every estimator combination, queue depths up
    /// to the 32-fold cap, bounded and unbounded tables. Without pruning
    /// the two agree to 1e-12; the pruned default differs by the mass it
    /// cut. Below its horizon a bounded table reads the unbounded one's
    /// values bit for bit.
    #[test]
    fn tables_agree_with_the_float_pipeline_bounded_and_unbounded(
        ops in prop::collection::vec(op_with(60, 32), 1..30),
    ) {
        let mut repo = InfoRepository::new(5);
        for i in 0..POOL {
            repo.insert_replica(ReplicaId::new(i));
        }
        let models: Vec<ResponseTimeModel> = all_configs()
            .into_iter()
            .flat_map(|config| [config, ModelConfig { prune_epsilon: 0.0, ..config }])
            .map(ResponseTimeModel::new)
            .collect();
        let mut scratch = ConvScratch::new();

        for op in &ops {
            apply(&mut repo, op);
            let (Op::Perf { replica, .. } | Op::Delay { replica, .. }) = *op else {
                continue;
            };
            let Some(stats) = repo.stats(ReplicaId::new(replica)) else { continue };
            for model in &models {
                let tolerance = if model.config().prune_epsilon == 0.0 { 1e-12 } else { 1e-9 };
                for method in [None, Some(MethodId::new(1))] {
                    let reference = model.response_pmf_with(stats, method, &mut scratch);
                    let full = model.response_cdf(stats, method, &mut scratch, None);
                    prop_assert_eq!(full.is_some(), reference.is_some());
                    let (Some(full), Some(reference)) = (&full, &reference) else { continue };
                    let last = reference.support_max().as_millis() + 2;
                    for t in (0..=last).step_by(3) {
                        let (f, r) = (full.value_at(ms(t)), reference.cdf(ms(t)));
                        prop_assert!(
                            (f - r).abs() <= tolerance,
                            "table {f} vs pmf {r} at {t} ms ({})",
                            model_label(model),
                        );
                    }
                    for horizon_ms in [0u64, 9, 70, 150, 640] {
                        let bounded = model
                            .response_cdf(stats, method, &mut scratch, Some(ms(horizon_ms)))
                            .expect("present whenever the unbounded table is");
                        prop_assert!(bounded.covers(ms(horizon_ms)));
                        prop_assert!(!bounded.covers(ms(horizon_ms + 1)));
                        for t in 0..=horizon_ms {
                            let (b, f) = (bounded.value_at(ms(t)), full.value_at(ms(t)));
                            prop_assert!(
                                b.to_bits() == f.to_bits(),
                                "bounded {b} vs full {f} at {t} ms of {horizon_ms} ms ({})",
                                model_label(model),
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) On windows of at most six samples and queues of at most three,
    /// `F(x)` is the share of all tuples of retained samples — one per
    /// term of Eq. 2, `q` service samples for `S^{*q}` — whose bucket sum
    /// is at most `x`'s bucket. Counted here as a `u128` rational by
    /// listing every tuple, it must equal the table's value bit for bit,
    /// at every bucket and through bounded tables too.
    #[test]
    fn tables_read_the_exact_rational_of_every_sample_tuple(
        l in 1usize..=6,
        ops in prop::collection::vec(small_op(), 1..24),
    ) {
        let id = ReplicaId::new(0);
        let mut repo = InfoRepository::new(l);
        repo.insert_replica(id);
        for op in &ops {
            apply(&mut repo, op);
        }
        let stats = repo.stats(id).expect("only ever inserted");
        let mut scratch = ConvScratch::new();
        for bucket_ms in [1u64, 3] {
            for config in all_configs() {
                let model = ResponseTimeModel::new(ModelConfig { bucket: ms(bucket_ms), ..config });
                for method in [None, Some(MethodId::new(0)), Some(MethodId::new(1))] {
                    let table = model.response_cdf(stats, method, &mut scratch, None);
                    let oracle = tuple_sums(stats, model.config(), method);
                    prop_assert_eq!(table.is_some(), oracle.is_some(), "{}", model_label(&model));
                    let (Some(table), Some((sums, tuples))) = (table, oracle) else { continue };
                    let top = sums.keys().last().copied().unwrap_or(0) + 1;
                    let horizon = top / 2;
                    let bounded = model
                        .response_cdf(stats, method, &mut scratch, Some(ms(horizon * bucket_ms)))
                        .expect("present whenever the unbounded table is");
                    let mut within = 0u128;
                    for x in 0..=top {
                        within += sums.get(&x).copied().unwrap_or(0);
                        let exact = within as f64 / tuples as f64;
                        let at = ms(x * bucket_ms);
                        prop_assert!(
                            table.value_at(at).to_bits() == exact.to_bits(),
                            "F({x}) = {} vs {within}/{tuples} ({})",
                            table.value_at(at),
                            model_label(&model),
                        );
                        if x <= horizon {
                            prop_assert!(bounded.value_at(at).to_bits() == exact.to_bits());
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a′) The same oracle at queue lengths 4 and 5, where a table to a
    /// horizon sums over `S⊛S` or `S⊛S⊛S` instead of `S`: windows of at
    /// most three samples on one method keep the tuples listable. Tables
    /// bounded at a spread of horizons read the exact rational at every
    /// bucket up to theirs.
    #[test]
    fn deep_queues_read_the_exact_rational_of_every_sample_tuple(
        l in 1usize..=3,
        ops in prop::collection::vec(deep_op(), 1..12),
    ) {
        let id = ReplicaId::new(0);
        let mut repo = InfoRepository::new(l);
        repo.insert_replica(id);
        for op in &ops {
            apply(&mut repo, op);
        }
        let stats = repo.stats(id).expect("only ever inserted");
        let mut scratch = ConvScratch::new();
        for config in all_configs() {
            let model = ResponseTimeModel::new(config);
            let method = Some(MethodId::new(0));
            let oracle = tuple_sums(stats, model.config(), method);
            let full = model.response_cdf(stats, method, &mut scratch, None);
            prop_assert_eq!(full.is_some(), oracle.is_some(), "{}", model_label(&model));
            let (Some(full), Some((sums, tuples))) = (full, oracle) else { continue };
            let top = sums.keys().last().copied().unwrap_or(0) + 1;
            for horizon in [0, top / 3, top / 2, top] {
                let bounded = model
                    .response_cdf(stats, method, &mut scratch, Some(ms(horizon)))
                    .expect("present whenever the unbounded table is");
                let mut within = 0u128;
                for x in 0..=horizon {
                    within += sums.get(&x).copied().unwrap_or(0);
                    let exact = within as f64 / tuples as f64;
                    let (b, f) = (bounded.value_at(ms(x)), full.value_at(ms(x)));
                    prop_assert!(
                        b.to_bits() == exact.to_bits() && f.to_bits() == exact.to_bits(),
                        "F({x}) = {b} bounded at {horizon}, {f} unbounded, vs \
                         {within}/{tuples} ({})",
                        model_label(&model),
                    );
                }
            }
        }
    }
}

/// Perf reports on method 0 at queue lengths 4 and 5, and delays, for
/// replica 0 only.
fn deep_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..40, 4u32..=5).prop_map(|(service_ms, outstanding)| Op::Perf {
            replica: 0,
            method: 0,
            service_ms,
            queue_ms: 0,
            outstanding,
        }),
        1 => (0u64..15).prop_map(|delay_ms| Op::Delay { replica: 0, delay_ms }),
    ]
}

/// Perf reports and delays for replica 0 only, small enough that every
/// tuple of samples can be listed.
fn small_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..METHODS, 0u64..40, 0u64..20, 0u32..=3).prop_map(
            |(method, service_ms, queue_ms, outstanding)| Op::Perf {
                replica: 0,
                method,
                service_ms,
                queue_ms,
                outstanding,
            }
        ),
        1 => (0u64..15).prop_map(|delay_ms| Op::Delay { replica: 0, delay_ms }),
    ]
}

/// The number of sample tuples per bucket sum, and the number of tuples,
/// for the model `config` describes — or `None` when a term in use has
/// no samples. Lists every tuple; no convolution involved.
fn tuple_sums(
    stats: &ReplicaStats,
    config: &ModelConfig,
    method: Option<MethodId>,
) -> Option<(BTreeMap<u64, u128>, u128)> {
    let bucket_ns = config.bucket.as_nanos();
    let bucketed = |window: &SlidingWindow<Duration>| -> Vec<u64> {
        window.iter().map(|d| d.as_nanos() / bucket_ns).collect()
    };
    let term = |of: fn(&MethodHistory) -> &SlidingWindow<Duration>| -> Vec<u64> {
        match config.method_scope {
            MethodScope::PerMethod => stats
                .history(method.unwrap_or_default())
                .map(|history| bucketed(of(history)))
                .unwrap_or_default(),
            _ => stats
                .histories()
                .flat_map(|(_, history)| bucketed(of(history)))
                .collect(),
        }
    };
    let service = term(MethodHistory::service_times);
    let mut terms = vec![service.clone()];
    match config.queue_estimator {
        QueueEstimator::History => terms.push(term(MethodHistory::queuing_delays)),
        _ => terms.extend(std::iter::repeat_n(service, stats.outstanding() as usize)),
    }
    let shift = match config.delay_estimator {
        DelayEstimator::LastValue => stats.last_gateway_delay()?.as_nanos() / bucket_ns,
        _ => {
            terms.push(bucketed(stats.gateway_delays()));
            0
        }
    };
    if terms.iter().any(Vec::is_empty) {
        return None;
    }
    let mut sums = BTreeMap::new();
    let mut pick = vec![0usize; terms.len()];
    loop {
        let sum: u64 = terms.iter().zip(&pick).map(|(term, &i)| term[i]).sum();
        *sums.entry(shift + sum).or_insert(0u128) += 1;
        // Odometer: advance the first digit that has not wrapped.
        let mut digit = 0;
        loop {
            let Some(term) = terms.get(digit) else {
                let tuples = terms.iter().map(|term| term.len() as u128).product();
                return Some((sums, tuples));
            };
            pick[digit] += 1;
            if pick[digit] < term.len() {
                break;
            }
            pick[digit] = 0;
            digit += 1;
        }
    }
}

fn model_label(model: &ResponseTimeModel) -> String {
    format!("{:?}", model.config())
}

/// Cases for the refresh property: `PROPTEST_CASES` when set (the CI
/// soak job runs it with 5000), else `default`.
fn cases_or(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|cases| cases.parse().ok())
        .unwrap_or(default)
}

/// One service sample pushed between two builds.
#[derive(Debug, Clone)]
enum Push {
    /// A service time in ms.
    Sample(u64),
    /// This many ms below the window's smallest sample: a new minimum.
    Below(u64),
    /// This many ms above its largest: a new maximum.
    Above(u64),
    /// The sample the push evicts: a full window's counts stay as they are.
    Evicted,
}

/// What happens between two builds: the pushes, on which methods, the
/// queue length they report, and the gateway delay measured after them.
#[derive(Debug, Clone)]
struct Round {
    pushes: Vec<(Push, u32)>,
    queue: u32,
    delay_ms: u64,
}

fn round() -> impl Strategy<Value = Round> {
    let push = prop_oneof![
        4 => (1u64..40).prop_map(Push::Sample),
        1 => (1u64..4).prop_map(Push::Below),
        1 => (1u64..4).prop_map(Push::Above),
        2 => Just(Push::Evicted),
    ];
    (
        prop::collection::vec((push, 0..METHODS), 0..=12),
        0u32..=7,
        0u64..6,
    )
        .prop_map(|(pushes, queue, delay_ms)| Round {
            pushes,
            queue,
            delay_ms,
        })
}

/// The service time `push` stands for in a window holding `window`.
fn sample_of(push: &Push, window: &SlidingWindow<Duration>) -> Duration {
    let (lo, hi) = window
        .iter()
        .fold((ms(40), ms(1)), |(lo, hi), &d| (lo.min(d), hi.max(d)));
    match *push {
        Push::Sample(at) => ms(at),
        Push::Below(by) => lo.saturating_sub(ms(by)),
        Push::Above(by) => hi.saturating_add(ms(by)),
        Push::Evicted => window.oldest().copied().unwrap_or(ms(20)),
    }
}

/// The `(bucket, count)` pairs of the service samples a table of `slot`
/// is built from, counted here from the raw samples.
fn service_counts(stats: &ReplicaStats, scope: MethodScope, slot: u64) -> Vec<(u64, u32)> {
    let mut counts = BTreeMap::new();
    for (method, history) in stats.histories() {
        if scope == MethodScope::PerMethod && u64::from(method.index()) != slot {
            continue;
        }
        for d in history.service_times().iter() {
            *counts.entry(d.as_millis()).or_insert(0u32) += 1;
        }
    }
    counts.into_iter().collect()
}

/// The number of buckets two windows' counts differ in.
fn moved_buckets(old: &[(u64, u32)], new: &[(u64, u32)]) -> usize {
    let mut moved: BTreeMap<u64, i64> = BTreeMap::new();
    for &(at, n) in old {
        *moved.entry(at).or_default() -= i64::from(n);
    }
    for &(at, n) in new {
        *moved.entry(at).or_default() += i64::from(n);
    }
    moved.values().filter(|&&by| by != 0).count()
}

/// A snapshot the refresh property holds, with what it was built from.
struct Held {
    snapshot: Arc<ReplicaSnapshot>,
    horizon: Duration,
    queue: u32,
    /// Each method slot's service counts.
    service: BTreeMap<u64, Vec<(u64, u32)>>,
}

/// The kept powers a `QueueScaled` table to a horizon needs at queue
/// length `q`: `Some(false)` for `S⊛S` alone, `Some(true)` for `S⊛S⊛S`
/// too, `None` for the squaring chain.
fn kept_powers(q: u32) -> Option<bool> {
    match q {
        2 | 3 => Some(false),
        4 | 5 => Some(true),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases_or(32)))]

    /// One replica's `QueueScaled` snapshot, rebuilt by the shared refresh
    /// rule from the snapshot it replaces after each round of 0–12 pushes
    /// (new minima and maxima, pushes that leave the counts unchanged),
    /// at queue lengths 0–7 and a horizon that shrinks and then grows,
    /// over windows of up to 16 samples and of 100. For both delay
    /// estimators and both method scopes, every table reads what a fresh
    /// table and the unbounded squaring chain read, bit for bit, at every
    /// bucket up to the horizon. A table refreshes exactly when the one it
    /// replaces kept the powers it needs to the same horizon and at most
    /// eight buckets of `S` moved; a bigger move takes the fresh path.
    #[test]
    fn refreshed_tables_read_what_fresh_tables_and_the_chain_read(
        l in prop_oneof![1usize..=16, Just(100usize)],
        start in prop::collection::vec((1u64..40, 0..METHODS), 1..100),
        rounds in prop::collection::vec(round(), 1..9),
    ) {
        let id = ReplicaId::new(0);
        let mut repo = InfoRepository::new(l);
        repo.insert_replica(id);
        for &(service_ms, method) in start.iter().take(2 * l) {
            let report = PerfReport::new(ms(service_ms), ms(0), 0)
                .with_method(MethodId::new(method));
            repo.record_perf(id, report, Instant::EPOCH);
        }
        repo.record_gateway_delay(id, ms(1), Instant::EPOCH);
        let models: Vec<ResponseTimeModel> = all_configs()
            .into_iter()
            .filter(|config| config.queue_estimator == QueueEstimator::QueueScaled)
            .map(ResponseTimeModel::new)
            .collect();
        let mut held: Vec<Option<Held>> = models.iter().map(|_| None).collect();
        let mut scratch = ConvScratch::new();
        let mut spares = ViewSpares::default();
        for (step, round) in rounds.iter().enumerate() {
            for (push, method) in &round.pushes {
                let method = MethodId::new(*method);
                let window = repo
                    .stats(id)
                    .and_then(|stats| stats.history(method))
                    .map(MethodHistory::service_times);
                let service = window.map_or(ms(20), |window| sample_of(push, window));
                let report = PerfReport::new(service, ms(0), round.queue).with_method(method);
                repo.record_perf(id, report, Instant::EPOCH);
            }
            repo.record_gateway_delay(id, ms(round.delay_ms), Instant::EPOCH);
            // Shrinks, then grows past where it started.
            let third = rounds.len().div_ceil(3);
            let horizon = ms([240, 90, 330][(step / third).min(2)]);
            let stats = repo.stats(id).expect("only ever inserted");
            let q = stats.outstanding();
            for (at, model) in models.iter().enumerate() {
                let scope = model.config().method_scope;
                let last = held[at].as_ref();
                if last.is_some_and(|held| held.snapshot.serves(stats, horizon)) {
                    continue;
                }
                let snapshot = spares.rebuilt(
                    id, stats, Some(model), &mut scratch, horizon,
                    last.map(|held| held.snapshot.as_ref()),
                );
                let mut counts = BTreeMap::new();
                for method in [None, Some(MethodId::new(0)), Some(MethodId::new(1))] {
                    let slot = method_slot(scope, method);
                    let fresh = model.response_cdf(stats, method, &mut scratch, Some(horizon));
                    let chain = model.response_cdf(stats, method, &mut scratch, None);
                    let table = snapshot.table(slot);
                    prop_assert_eq!(table.is_some(), fresh.is_some());
                    prop_assert_eq!(table.is_some(), chain.is_some());
                    let (Some(table), Some(fresh), Some(chain)) = (table, fresh, chain) else {
                        continue;
                    };
                    for t in 0..=horizon.as_millis() {
                        let (r, f, c) = (
                            table.value_at(ms(t)),
                            fresh.value_at(ms(t)),
                            chain.value_at(ms(t)),
                        );
                        prop_assert!(
                            r.to_bits() == f.to_bits() && f.to_bits() == c.to_bits(),
                            "q = {q}, slot {slot} at {t} ms: refreshed {r}, fresh {f}, \
                             chain {c} ({})",
                            model_label(model),
                        );
                    }
                    let service = service_counts(stats, scope, slot);
                    let expected = match (last, kept_powers(q)) {
                        (Some(last), Some(cube)) => {
                            let moved = last
                                .service
                                .get(&slot)
                                .map_or(usize::MAX, |old| moved_buckets(old, &service));
                            last.horizon == horizon
                                && kept_powers(last.queue).is_some_and(|kept| kept || !cube)
                                && moved <= 8
                        }
                        _ => false,
                    };
                    prop_assert_eq!(
                        table.is_refreshed(),
                        expected,
                        "q = {}, slot {} ({})",
                        q,
                        slot,
                        model_label(model),
                    );
                    counts.insert(slot, service);
                }
                held[at] = Some(Held { snapshot, horizon, queue: q, service: counts });
            }
        }
    }
}
