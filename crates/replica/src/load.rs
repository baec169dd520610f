//! Host load fluctuation (§3: "the load on a replica may fluctuate and …
//! periods of high load may make it less responsive").
//!
//! A [`LoadModel`] multiplies a replica's sampled service time by a
//! time-varying factor. The Markov-modulated variant dwells in each load
//! state for an exponentially distributed time, producing the bursty
//! slowdowns the selection algorithm must adapt to.

use aqua_core::time::{Duration, Instant};
use rand::Rng;
use rand_distr::{Distribution, Exp};

/// One state of a Markov-modulated load process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadState {
    /// Service-time multiplier while in this state (1.0 = nominal).
    pub factor: f64,
    /// Mean dwell time before transitioning.
    pub mean_dwell: Duration,
}

/// A time-varying service-time multiplier.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadModel {
    /// Constant multiplier (1.0 reproduces the paper's steady testbed).
    Constant(f64),
    /// Markov-modulated: cycles through `states`, dwelling in each for an
    /// exponentially distributed time with the state's mean.
    MarkovModulated {
        /// The load states, visited round-robin with random dwell times.
        states: Vec<LoadState>,
    },
}

impl LoadModel {
    /// The steady, unloaded host of the paper's testbed.
    pub fn nominal() -> Self {
        LoadModel::Constant(1.0)
    }

    /// A host that is calm most of the time but periodically busy:
    /// nominal for ~`calm` on average, then `factor`× slower for ~`busy`.
    pub fn bursty(calm: Duration, busy: Duration, factor: f64) -> Self {
        LoadModel::MarkovModulated {
            states: vec![
                LoadState {
                    factor: 1.0,
                    mean_dwell: calm,
                },
                LoadState {
                    factor,
                    mean_dwell: busy,
                },
            ],
        }
    }
}

/// Tracks the current load state of one host over (virtual) time.
#[derive(Debug, Clone)]
pub struct LoadProcess {
    model: LoadModel,
    state: usize,
    until: Instant,
    initialized: bool,
    transitions: u64,
}

impl LoadProcess {
    /// Creates a process starting in the first state at time zero.
    pub fn new(model: LoadModel) -> Self {
        LoadProcess {
            model,
            state: 0,
            until: Instant::EPOCH,
            initialized: false,
            transitions: 0,
        }
    }

    fn draw_dwell<R: Rng + ?Sized>(state: &LoadState, rng: &mut R) -> Duration {
        let mean = state.mean_dwell.as_secs_f64().max(1e-9);
        let dwell = Exp::new(1.0 / mean).expect("rate positive").sample(rng);
        Duration::from_secs_f64(dwell.max(1e-9))
    }

    /// The multiplier in effect at `now`, advancing state transitions as
    /// needed. `now` must be non-decreasing across calls.
    pub fn factor<R: Rng + ?Sized>(&mut self, now: Instant, rng: &mut R) -> f64 {
        match &self.model {
            LoadModel::Constant(f) => *f,
            LoadModel::MarkovModulated { states } => {
                if states.is_empty() {
                    return 1.0;
                }
                if !self.initialized {
                    self.initialized = true;
                    self.until = Instant::EPOCH.saturating_add(Self::draw_dwell(&states[0], rng));
                }
                // `until` is the end of the current state's dwell interval;
                // once `now` passes it, hop to the next state (round-robin)
                // and extend by that state's own dwell.
                while now >= self.until {
                    self.state = (self.state + 1) % states.len();
                    self.transitions += 1;
                    let dwell = Self::draw_dwell(&states[self.state], rng);
                    self.until = self.until.saturating_add(dwell);
                }
                states[self.state % states.len()].factor
            }
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &LoadModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn constant_never_transitions() {
        let mut p = LoadProcess::new(LoadModel::Constant(2.5));
        let mut rng = SmallRng::seed_from_u64(1);
        for t in 0..100 {
            assert_eq!(p.factor(Instant::from_millis(t * 100), &mut rng), 2.5);
        }
        assert_eq!(p.transitions, 0);
    }

    #[test]
    fn nominal_is_one() {
        let mut p = LoadProcess::new(LoadModel::nominal());
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(p.factor(Instant::EPOCH, &mut rng), 1.0);
    }

    #[test]
    fn bursty_visits_both_states() {
        let mut p = LoadProcess::new(LoadModel::bursty(
            Duration::from_millis(100),
            Duration::from_millis(100),
            8.0,
        ));
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = std::collections::BTreeSet::new();
        for t in 0..2_000 {
            let f = p.factor(Instant::from_millis(t), &mut rng);
            seen.insert((f * 10.0) as u64);
        }
        assert!(seen.contains(&10), "nominal state visited");
        assert!(seen.contains(&80), "busy state visited");
        assert!(p.transitions > 0);
    }

    #[test]
    fn busy_fraction_tracks_dwell_ratio() {
        // calm mean 300 ms, busy mean 100 ms → busy ~25% of the time.
        let mut p = LoadProcess::new(LoadModel::bursty(
            Duration::from_millis(300),
            Duration::from_millis(100),
            4.0,
        ));
        let mut rng = SmallRng::seed_from_u64(11);
        let total = 200_000u64;
        let busy = (0..total)
            .filter(|t| p.factor(Instant::from_millis(*t), &mut rng) > 1.0)
            .count() as f64;
        let frac = busy / total as f64;
        assert!((frac - 0.25).abs() < 0.05, "busy fraction {frac}");
    }

    #[test]
    fn empty_markov_states_default_to_nominal() {
        let mut p = LoadProcess::new(LoadModel::MarkovModulated { states: vec![] });
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(p.factor(Instant::from_millis(5), &mut rng), 1.0);
    }
}
