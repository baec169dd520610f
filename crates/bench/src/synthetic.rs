//! Synthetic repositories for micro-benchmarking the selection algorithm
//! (Figure 3) without running a full simulation.

use std::sync::Arc;

use aqua_core::pmf::ConvScratch;
use aqua_core::prelude::*;
use aqua_core::scheduler::{plan, Plan};
use aqua_core::snapshot::{method_slot, PlanningView, ViewSpares};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a warmed-up repository with `n` replicas and a full sliding
/// window of `l` samples each, drawn to resemble the paper's workload
/// (service ≈ N(100 ms, 50 ms), small queue delays, ms-scale gateway
/// delays).
pub fn synthetic_repository(n: usize, l: usize, seed: u64) -> InfoRepository {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut repo = InfoRepository::new(l);
    for i in 0..n {
        let id = ReplicaId::new(i as u64);
        repo.insert_replica(id);
        for _ in 0..l {
            let service_ms: f64 = 100.0 + 50.0 * (rng.gen::<f64>() - 0.5) * 3.46; // ~uniform matching σ≈50
            let queue_ms: f64 = rng.gen::<f64>() * 20.0;
            repo.record_perf(
                id,
                PerfReport::new(
                    Duration::from_millis_f64(service_ms.max(0.0)),
                    Duration::from_millis_f64(queue_ms),
                    rng.gen_range(0..3),
                ),
                Instant::EPOCH,
            );
        }
        repo.record_gateway_delay(
            id,
            Duration::from_micros(rng.gen_range(1_000..6_000)),
            Instant::EPOCH,
        );
    }
    repo
}

/// The two steps of a handler's plan over a synthetic repository, timed
/// apart, with every member stale on every plan (each has a new report):
///
/// 1. the model: the deadline-bounded table build a publish makes for
///    each stale member ([`ViewSpares::rebuilt`]), in the buffers of the
///    view the previous plan retired;
/// 2. the selection: [`plan`] reading those tables at `t − δ`, the body of
///    the handler's snapshot planner, with δ the previous plan's total.
#[derive(Debug)]
pub struct SyntheticPlanner {
    repository: Arc<InfoRepository>,
    config: SelectorConfig,
    model: ResponseTimeModel,
    qos: QosSpec,
    scratch: ConvScratch,
    spares: ViewSpares,
    version: u64,
    delta: Duration,
}

/// One plan of a [`SyntheticPlanner`] and what its two steps took.
#[derive(Debug, Clone)]
pub struct TimedPlan {
    /// What Algorithm 1 selected, and the ranking it read.
    pub plan: Plan,
    /// Time building every member's table.
    pub model_time: Duration,
    /// Time in [`plan`]: each table's point read, then Algorithm 1.
    pub select_time: Duration,
}

impl TimedPlan {
    /// The plan's whole overhead δ.
    pub fn overhead(&self) -> Duration {
        self.model_time.saturating_add(self.select_time)
    }
}

impl SyntheticPlanner {
    /// A planner for `qos` over [`synthetic_repository`]`(n, l, seed)`,
    /// with the paper's model and cold-start rule.
    pub fn new(n: usize, l: usize, seed: u64, qos: QosSpec) -> Self {
        let config = SelectorConfig::default();
        SyntheticPlanner {
            repository: Arc::new(synthetic_repository(n, l, seed)),
            config,
            model: ResponseTimeModel::new(config.model),
            qos,
            scratch: ConvScratch::new(),
            spares: ViewSpares::default(),
            version: 0,
            delta: Duration::ZERO,
        }
    }

    /// Builds every member's table, then plans over them.
    pub fn plan(&mut self) -> TimedPlan {
        let started = std::time::Instant::now();
        self.spares.reclaim();
        let mut snapshots = self.spares.list();
        let horizon = self.qos.deadline();
        for (id, stats) in self.repository.iter() {
            let model = Some(&self.model);
            let scratch = &mut self.scratch;
            snapshots.push(
                self.spares
                    .rebuilt(id, stats, model, scratch, horizon, None),
            );
        }
        let built = std::time::Instant::now();
        let deadline = self.qos.deadline().saturating_sub(self.delta);
        let slot = method_slot(self.config.model.method_scope, None);
        let members = snapshots
            .iter()
            .filter(|snap| snap.is_selectable())
            .map(|snap| (snap.id(), snap));
        let plan = plan(
            &self.config,
            self.qos.min_probability(),
            members,
            |_, snap| snap.probability_by(slot, deadline),
        );
        let finished = std::time::Instant::now();
        self.version += 1;
        let repository = Arc::clone(&self.repository);
        let view = PlanningView::assemble(self.version, snapshots, repository, self.qos);
        self.spares.retire(Arc::new(view));
        let timed = TimedPlan {
            plan,
            model_time: Duration::from(built - started),
            select_time: Duration::from(finished - built),
        };
        self.delta = timed.overhead();
        timed
    }
}

/// Measures the mean per-plan overhead δ (and its model/selection split)
/// over `iters` plans of a [`SyntheticPlanner`].
pub fn measure_overhead(n: usize, l: usize, qos: &QosSpec, iters: u32) -> OverheadMeasurement {
    let mut planner = SyntheticPlanner::new(n, l, 42, *qos);
    // Warm up the buffers and δ.
    for _ in 0..16 {
        let _ = planner.plan();
    }
    let mut total = Duration::ZERO;
    let mut model = Duration::ZERO;
    let mut select = Duration::ZERO;
    for _ in 0..iters {
        let timed = planner.plan();
        total = total.saturating_add(timed.overhead());
        model = model.saturating_add(timed.model_time);
        select = select.saturating_add(timed.select_time);
    }
    OverheadMeasurement {
        n,
        l,
        mean_total: total / iters as u64,
        mean_model: model / iters as u64,
        mean_select: select / iters as u64,
    }
}

/// The result of [`measure_overhead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadMeasurement {
    /// Number of replicas.
    pub n: usize,
    /// Sliding-window size.
    pub l: usize,
    /// Mean total δ per decision.
    pub mean_total: Duration,
    /// Mean time computing distribution functions.
    pub mean_model: Duration,
    /// Mean time in Algorithm 1 proper.
    pub mean_select: Duration,
}

impl OverheadMeasurement {
    /// Fraction of the overhead spent computing distributions (the paper
    /// reports ≈90%).
    pub fn model_fraction(&self) -> f64 {
        let t = self.mean_total.as_nanos();
        if t == 0 {
            return 0.0;
        }
        self.mean_model.as_nanos() as f64 / t as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn synthetic_repository_is_warm() {
        let repo = synthetic_repository(7, 5, 1);
        assert_eq!(repo.len(), 7);
        assert!(repo.all_warm());
        for (_, stats) in repo.iter() {
            let h = stats.history(MethodId::DEFAULT).unwrap();
            assert_eq!(h.len(), 5, "window filled");
        }
    }

    #[test]
    fn planner_plans_over_synthetic_data() {
        let qos = QosSpec::new(Duration::from_millis(200), 0.9).unwrap();
        let mut planner = SyntheticPlanner::new(7, 5, 2, qos);
        for _ in 0..2 {
            let timed = planner.plan();
            assert_eq!(timed.plan.candidates.len(), 7, "every member is ranked");
            assert!(timed.plan.selection.redundancy() >= 2);
        }
    }

    #[test]
    fn overhead_measurement_is_positive_and_split() {
        let qos = QosSpec::new(Duration::from_millis(150), 0.9).unwrap();
        let m = measure_overhead(7, 5, &qos, 50);
        assert!(m.mean_total > Duration::ZERO);
        assert!(m.mean_model <= m.mean_total);
        let f = m.model_fraction();
        assert!((0.0..=1.0).contains(&f));
    }

    /// The count cells a `History` table build touches over `repo` at
    /// 1 ms buckets: each replica's distinct service buckets (the pairs
    /// it sums over) plus the dense span of its queuing buckets (the
    /// cumulative vector it spreads them into).
    fn table_cells(repo: &InfoRepository) -> usize {
        let bucket = |d: &Duration| d.as_millis();
        repo.iter()
            .map(|(_, stats)| {
                let history = stats.history(MethodId::DEFAULT).unwrap();
                let service: BTreeSet<u64> = history.service_times().iter().map(bucket).collect();
                let queuing: BTreeSet<u64> = history.queuing_delays().iter().map(bucket).collect();
                let span = match (queuing.first(), queuing.last()) {
                    (Some(lo), Some(hi)) => (hi - lo + 1) as usize,
                    _ => 0,
                };
                service.len() + span
            })
            .sum()
    }

    /// Fig. 3's shape counted rather than timed: on `measure_overhead`'s
    /// seeded draws, the table builds touch more cells with every replica
    /// added (`n` = 2–8) and with every larger window (`l` = 5, 10, 20),
    /// across the figure's whole grid. One timed run of `fig3_overhead`
    /// need not be monotone on a shared host; this test holds on any.
    #[test]
    fn table_work_grows_with_window_size() {
        let cells = |n, l| table_cells(&synthetic_repository(n, l, 42));
        let windows = [5, 10, 20];
        for n in 2..=8 {
            for l in windows {
                let here = cells(n, l);
                if n < 8 {
                    let more = cells(n + 1, l);
                    assert!(more > here, "l={l}: n={n} touches {here} cells, n+1 {more}");
                }
                if let Some(&wider) = windows.iter().find(|&&w| w > l) {
                    let more = cells(n, wider);
                    assert!(
                        more > here,
                        "n={n}: l={l} touches {here} cells, l={wider} {more}"
                    );
                }
            }
        }
    }
}
