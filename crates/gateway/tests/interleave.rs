//! The timing fault handler's two concurrency protocols (§5.4), checked
//! on the real [`ConcurrentHandler`]: its locks and atomics come from
//! `aqua_core::sync`, which this cfg resolves to `shadow`'s cooperative
//! types, and `shadow::check` explores every schedule of a few threads
//! calling it with at most [`BOUND`] preemptions each. Each buggy variant
//! is a `sync::mutant` point in the real code, and must be caught with
//! the violation named here.
//!
//! Run with
//! `RUSTFLAGS="--cfg aqua_check" cargo test -p aqua-gateway --test interleave --target-dir target/aqua_check`.
//! No `Obs` is attached: the observer's own locks are no scheduling
//! points (see `shadow::sync`'s soundness boundary).

#![cfg(aqua_check)]

use std::sync::{Arc, Mutex};

use aqua_core::prelude::*;
use aqua_gateway::{ConcurrentHandler, ReplyOutcome};
use aqua_strategies::ModelBased;
use shadow::{check, Exploration, Scenario, Thread};

/// Preemptions per schedule, as in CHESS. Each variant below is caught
/// within one; the second explores the shipped protocols further.
const BOUND: Option<u32> = Some(2);

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn now() -> Instant {
    Instant::from_millis(10)
}

fn perf(service_ms: u64) -> PerfReport {
    PerfReport::new(ms(service_ms), ms(0), 0)
}

/// A handler planning with the paper's model over a window of 2, with no
/// debounce and a modelled δ (so a run reads no clock), and `replicas`
/// each holding a full window of service times and gateway delays.
fn handler(replicas: u64) -> Arc<ConcurrentHandler> {
    let qos = QosSpec::new(ms(200), 0.5).expect("valid QoS");
    let mut h = ConcurrentHandler::new(qos, 2, Box::new(ModelBased::default()))
        .with_min_republish(Duration::ZERO)
        .with_modelled_overhead(Duration::ZERO);
    let mut repository = h.repository_mut();
    for r in (0..replicas).map(ReplicaId::new) {
        repository.insert_replica(r);
        for _ in 0..2 {
            repository.record_perf(r, perf(10 + 10 * r.index()), Instant::EPOCH);
            repository.record_gateway_delay(r, ms(1), Instant::EPOCH);
        }
    }
    drop(repository);
    Arc::new(h)
}

/// Asserts `e` meets its pins: `schedules` exactly, and passing or, for a
/// variant, a violation that mentions `catches`.
fn pinned(e: &Exploration, schedules: u64, catches: Option<&str>) {
    let found: Vec<&String> = e.violations.iter().map(|(_, why)| why).collect();
    match catches {
        None => assert!(e.passed(), "{} deadlocks, {:?}", e.deadlocks, e.violations),
        Some(text) => assert!(
            found.iter().any(|why| why.contains(text)),
            "no violation mentions {text:?}: {found:?}"
        ),
    }
    assert_eq!(e.schedules, schedules, "violations: {found:?}");
}

// ---------------------------------------------------------------------------
// Snapshot publish vs lock-free plan.
// ---------------------------------------------------------------------------

/// What a view holds: each replica and how many samples reached it.
type Content = Vec<(ReplicaId, u64)>;

fn content(repository: &InfoRepository) -> Content {
    repository
        .iter()
        .map(|(id, stats)| (id, stats.perf_generation()))
        .collect()
}

/// Every view a thread loaded, in load order.
type Views = Arc<Mutex<Vec<(u64, Content)>>>;

fn load(h: &ConcurrentHandler, views: &Views) {
    let view = h.planning_view();
    let seen = (view.version(), content(view.repository()));
    views.lock().expect("view log").push(seen);
}

/// Thread 0 ingests a reply to r0 and plans, publishing what it finds
/// dirty if it gets the publish lock; thread 1 changes the membership,
/// which publishes waiting for the lock; thread 2 plans. Each plan loads
/// the view after it. No version may regress or show two contents; and
/// a plan after the threads finish, which finds no publish in flight,
/// must read every sample the shards hold.
fn publish_vs_plan() -> Scenario {
    let h = handler(1);
    let views = Views::default();
    let (r0, r1) = (ReplicaId::new(0), ReplicaId::new(1));
    let plan = |ingest: bool| -> Thread {
        let (h, views) = (Arc::clone(&h), Arc::clone(&views));
        Box::new(move || {
            if ingest {
                h.on_perf_update(now(), r0, perf(30));
            }
            h.plan_request(now());
            load(&h, &views);
            Ok(())
        })
    };
    let member = Arc::clone(&h);
    Scenario {
        threads: vec![
            plan(true),
            Box::new(move || {
                member.on_view(now(), [r0, r1]);
                Ok(())
            }),
            plan(false),
        ],
        finally: Box::new(move || {
            h.plan_request(now());
            load(&h, &views);
            let views = views.lock().expect("view log");
            let mut found = Vec::new();
            for (i, (pv, pc)) in views.iter().enumerate() {
                for (v, c) in &views[i + 1..] {
                    if v < pv {
                        found.push(format!(
                            "snapshot version regressed: planner saw v{pv} then v{v}"
                        ));
                    } else if v == pv && c != pc {
                        found.push(format!(
                            "stale-snapshot ABA: v{pv} observed with content {pc:?} and then {c:?}"
                        ));
                    }
                }
            }
            let (version, held) = views.last().expect("the final load");
            let shards = content(&h.repository());
            if *held != shards {
                found.push(format!(
                    "plan missed an ingest: a plan with no publish in flight read v{version} \
                     holding {held:?}, the shards hold {shards:?}"
                ));
            }
            found.is_empty().then_some(()).ok_or(found.join("; "))
        }),
    }
}

#[test]
fn gateway_snapshot_publish_vs_plan() {
    pinned(&check(BOUND, None, publish_vs_plan), 16_509, None);
}

#[test]
fn gateway_snapshot_unserialized_publish() {
    let e = check(BOUND, Some("unserialized-publish"), publish_vs_plan);
    pinned(&e, 17_259, Some("ABA"));
}

#[test]
fn gateway_snapshot_plan_claims_dirty() {
    let e = check(BOUND, Some("plan-claims-dirty"), publish_vs_plan);
    pinned(&e, 16_457, Some("plan missed an ingest"));
}

// ---------------------------------------------------------------------------
// First reply vs retry vs give-up.
// ---------------------------------------------------------------------------

/// Three warm replicas and one request planned to two of them. Thread 0
/// replies to the first attempt, thread 1 plans the retry (to the third
/// replica, as the next seq), thread 2 replies to the retry and thread 3
/// gives the request up. Exactly one of delivery and give-up must
/// happen, and of the request's attempts only a delivering one may stay
/// in the pending table.
fn reply_vs_retry() -> Scenario {
    let h = handler(3);
    let first = h.plan_request(now());
    assert_eq!(first.replicas.len(), 2, "the retry needs a replica left");
    let attempts = [first.seq, first.seq + 1];
    let left = (0..3)
        .map(ReplicaId::new)
        .find(|r| !first.replicas.contains(r))
        .expect("a third replica");
    let asked = [first.replicas[0], left];
    let replies = Arc::new(Mutex::new([None; 2]));
    let gave_up = Arc::new(Mutex::new(false));
    let reply = |attempt: usize| -> Thread {
        let (h, replies) = (Arc::clone(&h), Arc::clone(&replies));
        Box::new(move || {
            let outcome = h.on_reply(now(), attempts[attempt], asked[attempt], perf(10));
            replies.lock().expect("replies")[attempt] = Some(outcome);
            Ok(())
        })
    };
    let (retry, give_up, gave) = (Arc::clone(&h), Arc::clone(&h), Arc::clone(&gave_up));
    Scenario {
        threads: vec![
            reply(0),
            Box::new(move || {
                retry.plan_retry(now(), attempts[0]);
                Ok(())
            }),
            reply(1),
            Box::new(move || {
                let won = give_up.on_give_up(now(), attempts[0]);
                *gave.lock().expect("give-up") = won;
                Ok(())
            }),
        ],
        finally: Box::new(move || {
            let replies = *replies.lock().expect("replies");
            let delivered: Vec<u64> = (0..2)
                .filter(|&a| matches!(replies[a], Some(ReplyOutcome::Deliver { .. })))
                .map(|a| attempts[a])
                .collect();
            let resolved = delivered.len() + usize::from(*gave_up.lock().expect("give-up"));
            if delivered.len() > 1 {
                return Err("duplicate first-reply delivery".into());
            }
            match resolved {
                0 => return Err("request neither delivered nor given up".into()),
                1 => {}
                _ => return Err("request both delivered and given up".into()),
            }
            // A reply finds an entry (redundant) or none (unknown).
            for (seq, r) in attempts.into_iter().zip(asked) {
                let left = h.on_reply(now(), seq, r, perf(10)) != ReplyOutcome::Unknown;
                if left && !delivered.contains(&seq) {
                    return Err(format!(
                        "lost pending entry: request resolved but the table holds attempt {seq}"
                    ));
                }
            }
            Ok(())
        }),
    }
}

#[test]
fn gateway_reply_vs_retry() {
    pinned(&check(BOUND, None, reply_vs_retry), 32_926, None);
}

#[test]
fn gateway_retry_missing_recheck() {
    let e = check(BOUND, Some("retry-missing-recheck"), reply_vs_retry);
    pinned(&e, 30_591, Some("lost pending entry"));
}

#[test]
fn gateway_reply_toctou_claim() {
    let e = check(BOUND, Some("reply-toctou-claim"), reply_vs_retry);
    pinned(&e, 35_322, Some("duplicate first-reply delivery"));
}

#[test]
fn gateway_give_up_strands_retry() {
    let e = check(BOUND, Some("give-up-strands-retry"), reply_vs_retry);
    pinned(&e, 29_190, Some("lost pending entry"));
}
