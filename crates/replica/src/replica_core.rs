//! The replica's FIFO server (§5.1, Stage 3) as a sans-IO state machine.
//!
//! "The protocol handler in the server gateway … enqueues it in the request
//! queue of the server application … The server uses FIFO ordering for
//! servicing the requests in the queue." A request is stamped `t2` when it
//! arrives and started at `t3`. Its completion yields the [`PerfReport`]
//! the replica piggybacks on its reply and pushes to every subscriber
//! (§5.4.1): the service time `ts`, `tq = t3 − t2` and the queue length.
//!
//! The core does no I/O and reads no clock: its driver passes the time in,
//! wakes at the instant [`ReplicaCore::start`] returns and calls
//! [`ReplicaCore::finish`] then. The simulated server node drives it on
//! the virtual clock, the socket server on time since spawn.

use std::collections::VecDeque;

use aqua_core::qos::ReplicaId;
use aqua_core::repository::{MethodId, PerfReport};
use aqua_core::time::Instant;
use aqua_faults::FaultSchedule;
use rand::Rng;

use crate::{LoadModel, LoadProcess, ServiceTimeModel};

/// A request and its arrival, `t2`.
#[derive(Debug)]
struct Request<J> {
    job: J,
    method: MethodId,
    arrived: Instant,
}

/// One replica's Stage 3: an unbounded FIFO, one request in service at a
/// time, and the fault plan's pauses and service factors. `J` is what the
/// driver needs to answer a request.
///
/// # Examples
///
/// ```
/// use aqua_core::qos::ReplicaId;
/// use aqua_core::repository::MethodId;
/// use aqua_core::time::{Duration, Instant};
/// use aqua_faults::FaultSchedule;
/// use aqua_replica::{LoadModel, ReplicaCore, ServiceTimeModel};
/// use rand::SeedableRng;
///
/// let service = ServiceTimeModel::Deterministic(Duration::from_millis(10));
/// let (load, faults) = (LoadModel::nominal(), FaultSchedule::empty());
/// let mut core = ReplicaCore::new(ReplicaId::new(0), service, Vec::new(), load, faults);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// core.arrive(Instant::from_millis(0), "a", MethodId::DEFAULT);
/// core.arrive(Instant::from_millis(4), "b", MethodId::DEFAULT);
/// let due = core.start(Instant::from_millis(5), &mut rng).unwrap();
/// assert_eq!(due, Instant::from_millis(15));
/// let (job, perf) = core.finish(due).unwrap();
/// assert_eq!(job, "a");
/// assert_eq!(perf.service_time, Duration::from_millis(10));
/// assert_eq!(perf.queuing_delay, Duration::from_millis(5));
/// assert_eq!(perf.queue_len, 1);
/// ```
#[derive(Debug)]
pub struct ReplicaCore<J> {
    replica: ReplicaId,
    service: ServiceTimeModel,
    method_services: Vec<(MethodId, ServiceTimeModel)>,
    load: LoadProcess,
    faults: FaultSchedule,
    queue: VecDeque<Request<J>>,
    /// The request in service and its start, `t3`.
    in_service: Option<(Request<J>, Instant)>,
}

impl<J> ReplicaCore<J> {
    /// A core for `replica`. A request's service time is sampled from its
    /// method's model in `method_services`, else from `service`, and
    /// stretched by the host's `load` and by the service factors of
    /// `faults`, whose pauses hold the queue.
    pub fn new(
        replica: ReplicaId,
        service: ServiceTimeModel,
        method_services: Vec<(MethodId, ServiceTimeModel)>,
        load: LoadModel,
        faults: FaultSchedule,
    ) -> Self {
        ReplicaCore {
            replica,
            service,
            method_services,
            load: LoadProcess::new(load),
            faults,
            queue: VecDeque::new(),
            in_service: None,
        }
    }

    /// Queues `job`, a call of `method` that arrived at `now` (`t2`).
    pub fn arrive(&mut self, now: Instant, job: J, method: MethodId) {
        self.queue.push_back(Request {
            job,
            method,
            arrived: now,
        });
    }

    /// Starts the oldest request at `now` (`t3`), unless one is in
    /// service, none waits or the fault plan pauses this replica. Returns
    /// when its service ends. The load factor is drawn from `rng` first,
    /// then the service time.
    pub fn start<R: Rng + ?Sized>(&mut self, now: Instant, rng: &mut R) -> Option<Instant> {
        if self.in_service.is_some()
            || self.queue.is_empty()
            || self.faults.paused_until(self.replica, now).is_some()
        {
            return None;
        }
        let request = self.queue.pop_front()?;
        let factor = self.load.factor(now, rng) * self.faults.service_factor(self.replica, now);
        let model = self
            .method_services
            .iter()
            .find(|(m, _)| *m == request.method)
            .map_or(&self.service, |(_, s)| s);
        let service_time = model.sample(rng).mul_f64(factor);
        self.in_service = Some((request, now));
        Some(now.saturating_add(service_time))
    }

    /// Ends the service in progress at `now`. Returns its job and the
    /// report to piggyback: `ts` is `now` less the start, `tq = t3 − t2`,
    /// and the queue length is what still waits.
    pub fn finish(&mut self, now: Instant) -> Option<(J, PerfReport)> {
        let (request, started) = self.in_service.take()?;
        let perf = PerfReport {
            service_time: now.saturating_duration_since(started),
            queuing_delay: started.saturating_duration_since(request.arrived),
            queue_len: self.queue.len() as u32,
            method: request.method,
        };
        Some((request.job, perf))
    }

    /// A crash: the job in service and every queued one are lost.
    pub fn crash(&mut self) {
        self.queue.clear();
        self.in_service = None;
    }

    /// Requests waiting, not counting the one in service.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no request waits or is in service.
    pub fn is_idle(&self) -> bool {
        self.in_service.is_none() && self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_core::time::Duration;
    use aqua_faults::FaultPlan;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn at(v: u64) -> Instant {
        Instant::from_millis(v)
    }

    /// A replica 0 core serving every request in `service_ms`.
    fn core(service_ms: u64, faults: FaultPlan) -> ReplicaCore<u32> {
        ReplicaCore::new(
            ReplicaId::new(0),
            ServiceTimeModel::Deterministic(ms(service_ms)),
            Vec::new(),
            LoadModel::nominal(),
            faults.instantiate(1),
        )
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn a_pause_holds_the_queue_until_it_ends() {
        let mut core = core(10, FaultPlan::new().pause(0u64, at(0), ms(50)));
        core.arrive(at(5), 1, MethodId::DEFAULT);
        assert_eq!(core.start(at(5), &mut rng()), None);
        assert_eq!(core.start(at(49), &mut rng()), None);
        assert_eq!(core.queue_len(), 1, "queued work survives the pause");
        assert_eq!(core.start(at(50), &mut rng()), Some(at(60)));
        let (job, perf) = core.finish(at(60)).unwrap();
        assert_eq!((job, perf.queuing_delay), (1, ms(45)));
    }

    #[test]
    fn a_service_factor_stretches_ts() {
        let mut core = core(10, FaultPlan::new().degrade(0u64, at(0), ms(100), 3.0));
        core.arrive(at(0), 1, MethodId::DEFAULT);
        let due = core.start(at(0), &mut rng()).unwrap();
        assert_eq!(core.finish(due).unwrap().1.service_time, ms(30));
        // Past the window, the nominal service time again.
        core.arrive(at(100), 2, MethodId::DEFAULT);
        let due = core.start(at(100), &mut rng()).unwrap();
        assert_eq!(core.finish(due).unwrap().1.service_time, ms(10));
    }

    #[test]
    fn a_crash_loses_the_queue_and_the_job_in_service() {
        let mut core = core(10, FaultPlan::new());
        for job in 0..3 {
            core.arrive(at(0), job, MethodId::DEFAULT);
        }
        core.start(at(0), &mut rng()).unwrap();
        core.crash();
        assert!(core.is_idle());
        assert_eq!(core.finish(at(10)), None, "nothing was in service");
        assert_eq!(core.start(at(10), &mut rng()), None, "nothing queued");
    }

    #[test]
    fn the_queue_length_is_read_after_the_pop() {
        let mut core = core(10, FaultPlan::new());
        for job in 0..3 {
            core.arrive(at(0), job, MethodId::DEFAULT);
        }
        let due = core.start(at(0), &mut rng()).unwrap();
        assert_eq!(core.queue_len(), 2);
        core.arrive(at(5), 3, MethodId::DEFAULT);
        assert_eq!(core.finish(due).unwrap().1.queue_len, 3);
    }

    #[test]
    fn a_method_is_served_by_its_own_model() {
        let slow = MethodId::new(2);
        let mut core = ReplicaCore::new(
            ReplicaId::new(0),
            ServiceTimeModel::Deterministic(ms(10)),
            vec![(slow, ServiceTimeModel::Deterministic(ms(40)))],
            LoadModel::nominal(),
            FaultSchedule::empty(),
        );
        core.arrive(at(0), 1, slow);
        core.arrive(at(0), 2, MethodId::DEFAULT);
        let due = core.start(at(0), &mut rng()).unwrap();
        let (_, perf) = core.finish(due).unwrap();
        assert_eq!((perf.service_time, perf.method), (ms(40), slow));
        let due = core.start(due, &mut rng()).unwrap();
        let (_, perf) = core.finish(due).unwrap();
        assert_eq!(
            (perf.service_time, perf.method),
            (ms(10), MethodId::DEFAULT)
        );
    }

    #[test]
    fn one_job_is_in_service_at_a_time() {
        let mut core = core(10, FaultPlan::new());
        core.arrive(at(0), 1, MethodId::DEFAULT);
        core.arrive(at(0), 2, MethodId::DEFAULT);
        assert_eq!(core.start(at(0), &mut rng()), Some(at(10)));
        assert_eq!(core.start(at(5), &mut rng()), None);
        assert!(!core.is_idle());
    }
}
