//! Property tests for the timing fault handler as a state machine: random
//! sequences of replies, perf updates, view changes, and give-ups must
//! never break its accounting invariants. The handler runs with no
//! republish debounce, as the simulator runs it.

use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::PerfReport;
use aqua_core::time::{Duration, Instant};
use aqua_gateway::{ConcurrentHandler, ReplyOutcome};
use aqua_strategies::ModelBased;
use proptest::prelude::*;

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn handler(qos: QosSpec, window: usize) -> ConcurrentHandler {
    ConcurrentHandler::new(qos, window, Box::new(ModelBased::default()))
        .with_min_republish(Duration::ZERO)
}

/// An abstract action to drive the handler with.
#[derive(Debug, Clone)]
enum Action {
    PlanRequest,
    /// Reply to the `nth` most recent plan from its `k`-th selected
    /// replica, after `latency_ms`.
    Reply {
        nth: usize,
        k: usize,
        latency_ms: u64,
        service_ms: u64,
        queue_ms: u64,
    },
    /// Push a perf update from replica `r % pool`.
    PerfUpdate {
        r: u64,
        service_ms: u64,
    },
    /// Give up on the `nth` most recent plan.
    GiveUp {
        nth: usize,
    },
    /// Install a view containing replicas with index bitmask `mask`.
    View {
        mask: u8,
    },
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => Just(Action::PlanRequest),
        4 => (0usize..4, 0usize..6, 1u64..600, 1u64..300, 0u64..100).prop_map(
            |(nth, k, latency_ms, service_ms, queue_ms)| Action::Reply {
                nth,
                k,
                latency_ms,
                service_ms,
                queue_ms,
            }
        ),
        2 => (0u64..6, 1u64..300).prop_map(|(r, service_ms)| Action::PerfUpdate { r, service_ms }),
        1 => (0usize..4).prop_map(|nth| Action::GiveUp { nth }),
        1 => (1u8..63).prop_map(|mask| Action::View { mask }),
    ]
}

/// An abstract action for the probation-flapping state machine.
#[derive(Debug, Clone)]
enum FlapAction {
    /// Toggle replica `r % pool` out of / back into the view.
    Flap { r: u64 },
    /// Socket-reconnect path: `on_rejoin` for replica `r % pool`.
    Reconnect { r: u64 },
    /// A perf sample from replica `r % pool`.
    Perf { r: u64, service_ms: u64 },
    /// Plan a request (probation members may only shadow).
    Plan,
}

fn flap_action() -> impl Strategy<Value = FlapAction> {
    prop_oneof![
        3 => (0u64..5).prop_map(|r| FlapAction::Flap { r }),
        1 => (0u64..5).prop_map(|r| FlapAction::Reconnect { r }),
        4 => (0u64..5, 1u64..300).prop_map(|(r, service_ms)| FlapAction::Perf { r, service_ms }),
        2 => Just(FlapAction::Plan),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn handler_accounting_never_breaks(actions in prop::collection::vec(action(), 1..80)) {
        let pool = 5u64;
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let handler = handler(qos, 5);
        for i in 0..pool {
            handler.insert_replica(Instant::EPOCH, ReplicaId::new(i));
        }

        let mut now = Instant::EPOCH;
        let mut plans: Vec<(u64, Vec<ReplicaId>, Instant)> = Vec::new();
        let mut delivered = 0u64;
        let mut gave_up = 0u64;

        for act in actions {
            now += ms(1);
            match act {
                Action::PlanRequest => {
                    let plan = handler.plan_request(now);
                    prop_assert!(
                        plan.replicas.len() <= handler.repository().len().max(1),
                        "never selects more than the pool"
                    );
                    // Selected replicas are all known.
                    for r in plan.replicas.iter() {
                        prop_assert!(handler.repository().contains(*r));
                    }
                    plans.push((plan.seq, plan.replicas.to_vec(), now));
                }
                Action::Reply { nth, k, latency_ms, service_ms, queue_ms } => {
                    let Some((seq, replicas, sent_at)) =
                        plans.iter().rev().nth(nth).cloned() else { continue };
                    let Some(replica) = replicas.get(k % replicas.len().max(1)).copied()
                        else { continue };
                    let at = sent_at + ms(latency_ms);
                    now = now.max(at);
                    let perf = PerfReport::new(ms(service_ms), ms(queue_ms), 0);
                    match handler.on_reply(now, seq, replica, perf) {
                        ReplyOutcome::Deliver { response_time, .. } => {
                            delivered += 1;
                            prop_assert!(response_time >= Duration::ZERO);
                        }
                        ReplyOutcome::Redundant | ReplyOutcome::Unknown => {}
                    }
                }
                Action::PerfUpdate { r, service_ms } => {
                    handler.on_perf_update(
                        now,
                        ReplicaId::new(r % pool),
                        PerfReport::new(ms(service_ms), ms(0), 0),
                    );
                }
                Action::GiveUp { nth } => {
                    if let Some((seq, _, _)) = plans.iter().rev().nth(nth).cloned() {
                        if handler.on_give_up(now, seq) {
                            gave_up += 1;
                            // Idempotent.
                            prop_assert!(!handler.on_give_up(now, seq));
                        }
                    }
                }
                Action::View { mask } => {
                    let servers: Vec<ReplicaId> = (0..pool)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(ReplicaId::new)
                        .collect();
                    handler.on_view(Instant::EPOCH, servers.clone());
                    prop_assert_eq!(handler.repository().len(), servers.len());
                }
            }

            // Invariants that must hold after every action:
            let stats = handler.stats();
            prop_assert_eq!(stats.delivered, delivered);
            prop_assert_eq!(stats.gave_up, gave_up);
            prop_assert_eq!(stats.requests, plans.len() as u64);
            // The detector never counts more outcomes than finalized
            // requests (each request is finalized at most once).
            prop_assert!(handler.detector().total() <= stats.requests);
            prop_assert_eq!(handler.detector().total(), delivered + gave_up);
            // Pending requests are exactly the unfinalized ones.
            prop_assert!(handler.pending_count() as u64 <= stats.requests);
            // Rates are probabilities.
            let rate = handler.detector().failure_rate();
            prop_assert!((0.0..=1.0).contains(&rate));
        }
    }

    /// Crash-recover flapping can never escape probation early: however a
    /// replica's leaves and rejoins interleave with perf samples and
    /// plans, every rejoin re-arms a full `l`-sample probation, exactly
    /// `l` fresh samples clear it, and while it lasts the replica is
    /// never a trusted candidate — only a shadow at the tail of a plan.
    #[test]
    fn flapping_replicas_never_escape_probation_early(
        actions in prop::collection::vec(flap_action(), 1..100),
    ) {
        let pool = 5u64;
        let l = 5u32; // repository window == probation length
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let handler = handler(qos, l as usize);
        let mut now = Instant::EPOCH;
        // Everyone starts in the view, so every later reappearance is a
        // rejoin (first joins are warmed by cold-start, not probation).
        handler.on_view(now, (0..pool).map(ReplicaId::new));

        // The shadow model: view membership and probation samples left.
        let mut in_view = [true; 5];
        let mut remaining = [0u32; 5];

        for act in actions {
            now += ms(1);
            match act {
                FlapAction::Flap { r } => {
                    let r = (r % pool) as usize;
                    in_view[r] = !in_view[r];
                    if in_view[r] {
                        remaining[r] = l; // rejoin re-arms a full window
                    }
                    let view: Vec<ReplicaId> = (0..pool)
                        .filter(|i| in_view[*i as usize])
                        .map(ReplicaId::new)
                        .collect();
                    handler.on_view(now, view);
                }
                FlapAction::Reconnect { r } => {
                    let r = r % pool;
                    handler.on_rejoin(now, ReplicaId::new(r));
                    // A no-op for present members; a rejoin otherwise.
                    if !in_view[r as usize] {
                        in_view[r as usize] = true;
                        remaining[r as usize] = l;
                    }
                }
                FlapAction::Perf { r, service_ms } => {
                    let r = r % pool;
                    handler.on_perf_update(
                        now,
                        ReplicaId::new(r),
                        PerfReport::new(ms(service_ms), ms(0), 0),
                    );
                    // Samples for departed replicas are dropped, fresh
                    // ones pay down the probation debt.
                    if in_view[r as usize] {
                        remaining[r as usize] = remaining[r as usize].saturating_sub(1);
                    }
                }
                FlapAction::Plan => {
                    let plan = handler.plan_request(now);
                    let mut seen_shadow = false;
                    for r in plan.replicas.iter() {
                        let on_probation = handler
                            .repository()
                            .stats(*r)
                            .is_some_and(|s| s.is_on_probation());
                        if seen_shadow {
                            prop_assert!(
                                on_probation,
                                "trusted member {r:?} after a probation shadow"
                            );
                        }
                        seen_shadow |= on_probation;
                    }
                }
            }

            // The handler must agree with the shadow model exactly.
            let repository = handler.repository();
            for i in 0..pool as usize {
                let id = ReplicaId::new(i as u64);
                let stats = repository.stats(id);
                prop_assert_eq!(stats.is_some(), in_view[i]);
                if let Some(stats) = stats {
                    prop_assert_eq!(
                        stats.probation_remaining(), remaining[i],
                        "replica {} probation debt diverged", i
                    );
                    prop_assert_eq!(stats.is_on_probation(), remaining[i] > 0);
                }
            }
            // Strategies may only trust replicas that are off probation.
            for (_, stats) in repository.selectable() {
                prop_assert!(!stats.is_on_probation());
            }
        }
    }

    #[test]
    fn handler_is_deterministic(actions in prop::collection::vec(action(), 1..40)) {
        fn run(actions: &[Action]) -> (u64, u64, u64, usize) {
            let qos = QosSpec::new(ms(200), 0.5).unwrap();
            let handler = handler(qos, 5);
            for i in 0..4u64 {
                handler.insert_replica(Instant::EPOCH, ReplicaId::new(i));
            }
            let mut now = Instant::EPOCH;
            let mut plans = Vec::new();
            for act in actions {
                now += ms(1);
                match act {
                    Action::PlanRequest => {
                        let p = handler.plan_request(now);
                        plans.push((p.seq, p.replicas));
                    }
                    Action::Reply { nth, k, latency_ms, service_ms, queue_ms } => {
                        if let Some((seq, replicas)) = plans.iter().rev().nth(*nth) {
                            if let Some(r) = replicas.get(k % replicas.len().max(1)) {
                                let _ = handler.on_reply(
                                    now + ms(*latency_ms),
                                    *seq,
                                    *r,
                                    PerfReport::new(ms(*service_ms), ms(*queue_ms), 0),
                                );
                            }
                        }
                    }
                    Action::PerfUpdate { r, service_ms } => handler.on_perf_update(
                        now,
                        ReplicaId::new(r % 4),
                        PerfReport::new(ms(*service_ms), ms(0), 0),
                    ),
                    Action::GiveUp { nth } => {
                        if let Some((seq, _)) = plans.iter().rev().nth(*nth) {
                            let _ = handler.on_give_up(now, *seq);
                        }
                    }
                    Action::View { mask } => handler.on_view(
                        Instant::EPOCH,
                        (0..4u64)
                            .filter(|i| mask & (1 << i) != 0)
                            .map(ReplicaId::new)
                            .collect::<Vec<_>>(),
                    ),
                }
            }
            let s = handler.stats();
            (s.delivered, s.gave_up, s.replicas_selected, handler.pending_count())
        }
        prop_assert_eq!(run(&actions), run(&actions));
    }
}
