//! Crash fault injection (§3: "a replica may crash, making it
//! unresponsive").
//!
//! Crashes in AQuA are *silent*: the replica simply stops processing and
//! stops heartbeating; the group layer eventually detects the silence and
//! installs a new view. [`CrashPlan`] decides *when* a replica crashes;
//! the owning node decides what crashing means (detach, drop queue, …).

use aqua_core::time::{Duration, Instant};
use rand::Rng;
use rand_distr::{Distribution, Exp};

/// When a replica should crash.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CrashPlan {
    /// Never crashes (the default).
    #[default]
    Never,
    /// Crashes at a fixed virtual time.
    AtTime(Instant),
    /// Crashes immediately after servicing this many requests.
    AfterRequests(u64),
    /// Crashes at an exponentially distributed time with the given mean
    /// (memoryless MTBF).
    Mtbf(Duration),
}

/// Runtime state of a [`CrashPlan`]: call the observers as events happen
/// and [`CrashState::is_crashed`] to know whether the replica is dead.
#[derive(Debug, Clone)]
pub struct CrashState {
    plan: CrashPlan,
    crash_at: Option<Instant>,
    serviced: u64,
    crashed: bool,
}

impl CrashState {
    /// Instantiates a plan. `Mtbf` draws its crash time immediately using
    /// `rng`, so the whole schedule is deterministic under a fixed seed.
    pub fn new<R: Rng + ?Sized>(plan: CrashPlan, start: Instant, rng: &mut R) -> Self {
        let crash_at = match plan {
            CrashPlan::Never | CrashPlan::AfterRequests(_) => None,
            CrashPlan::AtTime(at) => Some(at),
            CrashPlan::Mtbf(mean) => {
                let m = mean.as_secs_f64().max(1e-9);
                let delay = Exp::new(1.0 / m).expect("rate positive").sample(rng);
                Some(start.saturating_add(Duration::from_secs_f64(delay)))
            }
        };
        CrashState {
            plan,
            crash_at,
            serviced: 0,
            crashed: false,
        }
    }

    /// The plan this state was built from.
    pub fn plan(&self) -> CrashPlan {
        self.plan
    }

    /// The predetermined crash time, if the plan is time-based.
    pub fn crash_at(&self) -> Option<Instant> {
        self.crash_at
    }

    /// Whether the replica has crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Observer: virtual time has advanced to `now`. Returns `true` if this
    /// call transitioned the replica into the crashed state.
    pub fn observe_time(&mut self, now: Instant) -> bool {
        if self.crashed {
            return false;
        }
        if let Some(at) = self.crash_at {
            if now >= at {
                self.crashed = true;
                return true;
            }
        }
        false
    }

    /// Observer: one request was serviced. Returns `true` if this call
    /// transitioned the replica into the crashed state.
    pub fn observe_serviced(&mut self) -> bool {
        if self.crashed {
            return false;
        }
        self.serviced += 1;
        if let CrashPlan::AfterRequests(n) = self.plan {
            if self.serviced >= n {
                self.crashed = true;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(5)
    }

    #[test]
    fn never_never_crashes() {
        let mut s = CrashState::new(CrashPlan::Never, Instant::EPOCH, &mut rng());
        assert!(!s.observe_time(Instant::from_secs(1_000)));
        for _ in 0..1_000 {
            assert!(!s.observe_serviced());
        }
        assert!(!s.is_crashed());
    }

    #[test]
    fn at_time_crashes_exactly_once() {
        let mut s = CrashState::new(
            CrashPlan::AtTime(Instant::from_millis(500)),
            Instant::EPOCH,
            &mut rng(),
        );
        assert!(!s.observe_time(Instant::from_millis(499)));
        assert!(s.observe_time(Instant::from_millis(500)), "transition");
        assert!(s.is_crashed());
        assert!(!s.observe_time(Instant::from_millis(501)), "only once");
    }

    #[test]
    fn after_requests_counts_services() {
        let mut s = CrashState::new(CrashPlan::AfterRequests(3), Instant::EPOCH, &mut rng());
        assert!(!s.observe_serviced());
        assert!(!s.observe_serviced());
        assert!(s.observe_serviced());
        assert!(s.is_crashed());
        assert_eq!(s.serviced, 3);
    }

    #[test]
    fn mtbf_draws_future_crash_time() {
        let mut r = rng();
        let mut crash_times = Vec::new();
        for _ in 0..100 {
            let s = CrashState::new(
                CrashPlan::Mtbf(Duration::from_secs(10)),
                Instant::from_secs(1),
                &mut r,
            );
            let at = s.crash_at().expect("mtbf predetermines a time");
            assert!(at >= Instant::from_secs(1));
            crash_times.push(at.as_secs_f64() - 1.0);
        }
        let mean = crash_times.iter().sum::<f64>() / crash_times.len() as f64;
        assert!((mean - 10.0).abs() < 3.0, "mean crash delay {mean}");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let a = CrashState::new(
            CrashPlan::Mtbf(Duration::from_secs(5)),
            Instant::EPOCH,
            &mut SmallRng::seed_from_u64(9),
        );
        let b = CrashState::new(
            CrashPlan::Mtbf(Duration::from_secs(5)),
            Instant::EPOCH,
            &mut SmallRng::seed_from_u64(9),
        );
        assert_eq!(a.crash_at(), b.crash_at());
    }
}
