//! One request's lifecycle around the [`ConcurrentHandler`], sans I/O,
//! from interception to its first reply or its timing failure (§5.4).
//! A [`Call`] owns the rules both clients share: when the retry and the
//! give-up fall due, what an attempt that reached nobody means, and how
//! many replicas the request went to. Every step takes `now`; the caller
//! maps replicas to hosts, moves the bytes and wakes the call at
//! [`Call::next_deadline`]: the simulated [`crate::ClientGateway`] on a
//! timer, the socket mux on a channel's `recv_timeout`.

use aqua_core::qos::ReplicaId;
use aqua_core::repository::MethodId;
use aqua_core::time::{Duration, Instant};

use crate::concurrent::{ConcurrentHandler, RequestPlan};

/// One logical request in flight. See the module docs.
#[derive(Debug)]
pub struct Call {
    /// The seq of the first attempt, which names the request.
    first: u64,
    method: MethodId,
    /// When the retry is due; `None` once it ran, or when not armed.
    retry_at: Option<Instant>,
    /// When the request gives up; `None` once the call is over.
    give_up_at: Option<Instant>,
    /// Replicas the request's attempts reached.
    redundancy: usize,
}

/// What a deadline asks of the caller.
#[derive(Debug)]
pub enum Step {
    /// Multicast this retry attempt, then report it with [`Call::sent`].
    Send(RequestPlan),
    /// Nothing to do until the next deadline or a reply.
    Wait,
    /// The request gave up: a timing failure.
    GaveUp,
    /// The give-up lost to a reply, whose delivery stands (a probe's
    /// give-up ends here too). The call is over.
    Answered,
}

impl Call {
    /// Intercepts a request for `method` at `now` (`t0`) and plans its
    /// first attempt. It gives up `give_up_after` past `t0`; a retry is
    /// armed `retry_after` past `t0` only before the give-up, since a
    /// retry due at the give-up would only be given up with it. `None`
    /// when the plan is empty: the handler gave the request up at once.
    pub fn start(
        handler: &ConcurrentHandler,
        now: Instant,
        method: MethodId,
        give_up_after: Duration,
        retry_after: Option<Duration>,
    ) -> Option<(Call, RequestPlan)> {
        let plan = handler.plan_request_for(now, Some(method));
        if plan.replicas.is_empty() {
            handler.on_give_up(now, plan.seq);
            return None;
        }
        let mut call = Call::new(&plan, method, now, give_up_after);
        call.retry_at = retry_after
            .filter(|&retry| retry < give_up_after)
            .map(|retry| now.saturating_add(retry));
        Some((call, plan))
    }

    /// Plans an active probe of `replica` (§8, extension 3): a call with
    /// no retry, whose give-up only retires the probe.
    pub fn probe(
        handler: &ConcurrentHandler,
        now: Instant,
        replica: ReplicaId,
        give_up_after: Duration,
    ) -> (Call, RequestPlan) {
        let plan = handler.plan_probe(now, replica);
        (
            Call::new(&plan, MethodId::DEFAULT, now, give_up_after),
            plan,
        )
    }

    /// A call of `first` that gives up `give_up_after` past `now`, no retry.
    fn new(first: &RequestPlan, method: MethodId, now: Instant, give_up_after: Duration) -> Call {
        Call {
            first: first.seq,
            method,
            retry_at: None,
            give_up_at: Some(now.saturating_add(give_up_after)),
            redundancy: 0,
        }
    }

    /// The seq of the request's first attempt.
    pub fn seq(&self) -> u64 {
        self.first
    }

    /// The method the request invokes.
    pub fn method(&self) -> MethodId {
        self.method
    }

    /// How many replicas the request's attempts reached.
    pub fn redundancy(&self) -> usize {
        self.redundancy
    }

    /// The earlier pending deadline; `None` once the call is over.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.retry_at.or(self.give_up_at)
    }

    /// Reports that `attempt` reached `reached` replicas at `now`. An
    /// attempt that reached nobody is never answered: the first gives the
    /// request up, a retry is abandoned. `false` when the call is over.
    pub fn sent(
        &mut self,
        handler: &ConcurrentHandler,
        now: Instant,
        attempt: &RequestPlan,
        reached: usize,
    ) -> bool {
        self.redundancy += reached;
        if reached > 0 {
            true
        } else if attempt.seq == self.first {
            handler.on_give_up(now, attempt.seq);
            (self.retry_at, self.give_up_at) = (None, None);
            false
        } else {
            handler.on_abandon(now, attempt.seq);
            true
        }
    }

    /// Runs the deadline due at `now`, if any: the retry re-plans over the
    /// replicas not yet asked (nothing to send once nobody is left or the
    /// request resolved), the give-up fails the request unless a reply won.
    pub fn on_deadline(&mut self, handler: &ConcurrentHandler, now: Instant) -> Step {
        if self.retry_at.is_some_and(|at| at <= now) {
            self.retry_at = None;
            return handler
                .plan_retry(now, self.first)
                .map_or(Step::Wait, Step::Send);
        }
        if self.give_up_at.is_none_or(|at| at > now) {
            return Step::Wait;
        }
        self.give_up_at = None;
        if handler.on_give_up(now, self.first) {
            Step::GaveUp
        } else {
            Step::Answered
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_core::qos::QosSpec;
    use aqua_core::repository::PerfReport;
    use aqua_strategies::FastestMean;

    use crate::ReplyOutcome;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    const GIVE_UP: Duration = Duration::from_millis(100);

    /// A handler over replicas 0 and 1 that asks one replica a request,
    /// leaving the other to a retry.
    fn handler() -> ConcurrentHandler {
        let qos = QosSpec::new(ms(50), 0.9).unwrap();
        let handler = ConcurrentHandler::new(qos, 5, Box::new(FastestMean { k: 1 }));
        for id in 0..2 {
            handler.insert_replica(Instant::EPOCH, ReplicaId::new(id));
        }
        handler
    }

    /// Starts a call at `t0` = 0 and reports its first attempt as sent
    /// to every replica it planned.
    fn started(handler: &ConcurrentHandler, retry_after: Option<Duration>) -> Call {
        let (mut call, plan) = Call::start(
            handler,
            Instant::EPOCH,
            MethodId::DEFAULT,
            GIVE_UP,
            retry_after,
        )
        .expect("two replicas to ask");
        assert!(call.sent(handler, Instant::EPOCH, &plan, plan.replicas.len()));
        call
    }

    #[test]
    fn the_retry_is_armed_iff_it_precedes_the_give_up() {
        let at = |v| Some(Instant::EPOCH + ms(v));
        for (retry_after, first_deadline) in [
            (Some(ms(40)), at(40)),
            (Some(ms(99)), at(99)),
            (Some(ms(100)), at(100)),
            (Some(ms(150)), at(100)),
            (None, at(100)),
        ] {
            let h = handler();
            let mut call = started(&h, retry_after);
            assert_eq!(call.next_deadline(), first_deadline, "{retry_after:?}");
            // Run every deadline as it comes due.
            while let Some(due) = call.next_deadline() {
                if let Step::Send(plan) = call.on_deadline(&h, due) {
                    assert!(call.sent(&h, due, &plan, plan.replicas.len()));
                }
            }
            let armed = retry_after.is_some_and(|r| r < GIVE_UP);
            let stats = h.stats();
            assert_eq!(stats.retries, u64::from(armed), "{retry_after:?}");
            assert_eq!(stats.gave_up, 1);
            assert_eq!(stats.abandoned, u64::from(armed), "the superseded attempt");
            assert_eq!(h.pending_count(), 0);
        }
    }

    #[test]
    fn a_deadline_not_yet_due_does_nothing() {
        let h = handler();
        let mut call = started(&h, Some(ms(40)));
        assert!(matches!(
            call.on_deadline(&h, Instant::EPOCH + ms(39)),
            Step::Wait
        ));
        assert_eq!(call.next_deadline(), Some(Instant::EPOCH + ms(40)));
        assert_eq!(h.stats().retries, 0);
    }

    #[test]
    fn an_empty_plan_is_given_up_at_once() {
        let qos = QosSpec::new(ms(50), 0.9).unwrap();
        let h = ConcurrentHandler::new(qos, 5, Box::new(FastestMean { k: 1 }));
        let started = Call::start(&h, Instant::EPOCH, MethodId::DEFAULT, GIVE_UP, None);
        assert!(started.is_none(), "nobody to ask");
        assert_eq!(h.stats().gave_up, 1);
        assert_eq!(h.pending_count(), 0);
    }

    #[test]
    fn zero_reach_gives_up_a_first_attempt_and_abandons_a_retry() {
        // The first attempt reached nobody: over at once.
        let h = handler();
        let (mut call, plan) =
            Call::start(&h, Instant::EPOCH, MethodId::DEFAULT, GIVE_UP, Some(ms(40))).unwrap();
        assert!(!call.sent(&h, Instant::EPOCH, &plan, 0));
        assert_eq!(call.next_deadline(), None);
        assert_eq!(call.redundancy(), 0);
        let stats = h.stats();
        assert_eq!((stats.gave_up, stats.abandoned), (1, 0));
        assert_eq!(h.pending_count(), 0);

        // A retry that reached nobody: abandoned, the first attempt waits
        // on for its give-up.
        let h = handler();
        let mut call = started(&h, Some(ms(40)));
        let retry_at = Instant::EPOCH + ms(40);
        let Step::Send(retry) = call.on_deadline(&h, retry_at) else {
            panic!("one replica is left to retry");
        };
        assert!(call.sent(&h, retry_at, &retry, 0));
        assert_eq!(
            call.redundancy(),
            1,
            "only the first attempt reached anyone"
        );
        assert_eq!(call.next_deadline(), Some(Instant::EPOCH + GIVE_UP));
        let stats = h.stats();
        assert_eq!((stats.retries, stats.abandoned, stats.gave_up), (1, 1, 0));
        assert_eq!(h.pending_count(), 1);
        assert!(matches!(
            call.on_deadline(&h, Instant::EPOCH + GIVE_UP),
            Step::GaveUp
        ));
        assert_eq!(h.stats().gave_up, 1);
    }

    #[test]
    fn a_give_up_that_loses_to_a_reply_reports_the_reply() {
        let h = handler();
        let mut call = started(&h, None);
        let replied = Instant::EPOCH + ms(30);
        let outcome = h.on_reply(
            replied,
            call.seq(),
            ReplicaId::new(0),
            PerfReport::new(ms(10), ms(0), 0),
        );
        assert!(matches!(outcome, ReplyOutcome::Deliver { request: 0, .. }));
        assert!(matches!(
            call.on_deadline(&h, Instant::EPOCH + GIVE_UP),
            Step::Answered
        ));
        assert_eq!(call.next_deadline(), None, "the call is over");
        let stats = h.stats();
        assert_eq!((stats.delivered, stats.gave_up), (1, 0));
    }

    #[test]
    fn a_retry_after_the_reply_sends_nothing() {
        let h = handler();
        let mut call = started(&h, Some(ms(40)));
        h.on_reply(
            Instant::EPOCH + ms(30),
            call.seq(),
            ReplicaId::new(0),
            PerfReport::new(ms(10), ms(0), 0),
        );
        assert!(matches!(
            call.on_deadline(&h, Instant::EPOCH + ms(40)),
            Step::Wait
        ));
        assert_eq!(h.stats().retries, 0);
        assert_eq!(call.next_deadline(), Some(Instant::EPOCH + GIVE_UP));
    }

    #[test]
    fn redundancy_counts_the_replicas_reached() {
        // A cold-start multicast planned two replicas; one was reachable.
        let qos = QosSpec::new(ms(50), 0.9).unwrap();
        let h = ConcurrentHandler::new(qos, 5, Box::new(FastestMean { k: 3 }));
        for id in 0..3 {
            h.insert_replica(Instant::EPOCH, ReplicaId::new(id));
        }
        let (mut call, plan) =
            Call::start(&h, Instant::EPOCH, MethodId::DEFAULT, GIVE_UP, Some(ms(40))).unwrap();
        assert_eq!(plan.replicas.len(), 3);
        assert!(call.sent(&h, Instant::EPOCH, &plan, 2));
        assert_eq!(call.redundancy(), 2, "reached, not planned");

        // A retry over a fourth replica adds what it reached.
        h.insert_replica(Instant::EPOCH + ms(1), ReplicaId::new(3));
        let at = Instant::EPOCH + ms(40);
        let Step::Send(retry) = call.on_deadline(&h, at) else {
            panic!("replica 3 is left to retry");
        };
        assert_eq!(retry.replicas.as_ref(), [ReplicaId::new(3)]);
        assert!(call.sent(&h, at, &retry, 1));
        assert_eq!(call.redundancy(), 3);
    }

    #[test]
    fn a_probe_gives_up_without_failing_anything() {
        let h = handler();
        let (mut call, plan) = Call::probe(&h, Instant::EPOCH, ReplicaId::new(1), GIVE_UP);
        assert_eq!(plan.replicas.as_ref(), [ReplicaId::new(1)]);
        assert!(call.sent(&h, Instant::EPOCH, &plan, 1));
        assert_eq!(call.next_deadline(), Some(Instant::EPOCH + GIVE_UP));
        assert!(matches!(
            call.on_deadline(&h, Instant::EPOCH + GIVE_UP),
            Step::Answered
        ));
        let stats = h.stats();
        assert_eq!((stats.probes, stats.gave_up), (1, 0));
        assert_eq!(h.pending_count(), 0);
    }
}
