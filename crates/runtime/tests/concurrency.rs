//! Multi-threaded stress of the concurrent client: many caller threads
//! hammering one shared `MuxHandle` while a fault plan stalls the
//! preferred replica, forcing retries, sibling groups, and late replies
//! to retired attempts — the exact races the sharded pending table and
//! the `answered` CAS protocol exist to resolve.
//!
//! Invariants checked after the dust settles:
//! * no duplicate first-reply delivery (`delivered` == successful calls),
//! * no lost pending entries (`pending_count()` drains to zero),
//! * the handler's retry count matches the journal's `retry` spans.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::MethodId;
use aqua_core::time::{Duration, Instant};
use aqua_faults::FaultPlan;
use aqua_runtime::{MuxPool, MuxPoolConfig, ReplicaServer, ReplicaServerConfig};
use aqua_strategies::{FastestMean, ModelBased};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn replicas_of(servers: &[ReplicaServer]) -> Vec<(ReplicaId, SocketAddr)> {
    servers.iter().map(|s| (s.replica(), s.addr())).collect()
}

/// Six caller threads share the client while the pinned replica stalls
/// mid-run: every call issued into the pause window rides a retry to the
/// surviving replica, and the stalled replica's backlog later drains as
/// late replies to already-retired attempts.
#[test]
fn stress_with_stalled_replica_keeps_the_pending_table_consistent() {
    let (obs, reader) = aqua_obs::Obs::in_memory();

    // Replica 0 is fastest (5 ms) and pauses from 600 ms to 1.4 s on its
    // own clock; replica 1 (20 ms) carries the retries.
    let plan = FaultPlan::new().pause(0, Instant::from_millis(600), ms(800));
    let mut servers = Vec::new();
    for i in 0..2u64 {
        let mut cfg = ReplicaServerConfig::quick(ReplicaId::new(i), if i == 0 { 5 } else { 20 });
        if i == 0 {
            cfg.faults = Some(plan.instantiate(7));
        }
        servers.push(ReplicaServer::spawn(cfg).expect("spawn"));
    }

    let mut config = MuxPoolConfig::new(QosSpec::new(ms(200), 0.9).unwrap());
    config.give_up_after = ms(4_000);
    config.retry_after = Some(ms(150));
    config.obs = Some(obs.clone());
    // FastestMean k=1 pins warm selections to replica 0, so stalls are
    // guaranteed to hit and retries are guaranteed to re-plan.
    let pool = MuxPool::connect(&replicas_of(&servers), config).expect("connect");
    let client = Arc::new(pool.observed_handle(Box::new(FastestMean { k: 1 })));

    // Warm up so planning leaves cold start before the fault window.
    for _ in 0..3 {
        client.call(MethodId::DEFAULT, b"warm").expect("warm-up ok");
    }

    let successes = Arc::new(AtomicU64::new(0));
    let failures = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..6u64 {
        let client = Arc::clone(&client);
        let successes = Arc::clone(&successes);
        let failures = Arc::clone(&failures);
        handles.push(std::thread::spawn(move || {
            // ~40 calls spread over ~1.6 s: before, inside, and after the
            // pause window.
            for i in 0..40u64 {
                let payload = format!("t{t}c{i}");
                match client.call(MethodId::DEFAULT, payload.as_bytes()) {
                    Ok(out) => {
                        assert_eq!(
                            out.payload.as_ref(),
                            payload.as_bytes(),
                            "each call gets its own echo back"
                        );
                        successes.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
                std::thread::sleep(StdDuration::from_millis(25));
            }
        }));
    }
    for h in handles {
        h.join().expect("caller thread");
    }
    // Let the stalled replica's backlog drain: its late replies land on
    // retired attempts and must be classified without disturbing state.
    std::thread::sleep(StdDuration::from_millis(600));
    client.with_handler(|h| h.flush_observability());

    let ok = successes.load(Ordering::Relaxed);
    let failed = failures.load(Ordering::Relaxed);
    assert_eq!(ok + failed, 6 * 40, "every call resolved exactly once");
    assert_eq!(
        failed, 0,
        "the 4 s give-up window dwarfs the 800 ms stall; retries mask it"
    );

    client.with_handler(|h| {
        let stats = h.stats();
        // No duplicate first-reply delivery: the handler delivered exactly
        // one outcome per successful call (warm-ups included).
        assert_eq!(
            stats.delivered,
            ok + 3,
            "one delivery per call, never two: {stats:?}"
        );
        assert_eq!(h.pending_count(), 0, "no lost pending entries");
        assert!(
            stats.retries >= 1,
            "calls inside the pause window must have retried: {stats:?}"
        );
        // Every retry that was planned is journalled, one span each.
        let retry_spans = reader.lines_containing(r#""type":"retry""#);
        assert_eq!(
            retry_spans.len() as u64,
            stats.retries,
            "retry count matches journal spans: {retry_spans:?}"
        );
    });
}

/// A pure-contention hammer: sixteen threads, no faults, zero service
/// time, model-based planning. Every call must deliver exactly once and
/// the pending table must drain completely.
#[test]
fn hammer_shared_client_with_sixteen_threads() {
    let servers: Vec<ReplicaServer> = (0..3u64)
        .map(|i| {
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(i), 0)).expect("spawn")
        })
        .collect();
    let mut config = MuxPoolConfig::new(QosSpec::new(ms(500), 0.9).unwrap());
    config.give_up_after = ms(5_000);
    let pool = MuxPool::connect(&replicas_of(&servers), config).expect("connect");
    let client = Arc::new(pool.observed_handle(Box::new(ModelBased::default())));

    const THREADS: u64 = 16;
    const CALLS: u64 = 50;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let client = Arc::clone(&client);
        handles.push(std::thread::spawn(move || {
            for i in 0..CALLS {
                let payload = format!("h{t}x{i}");
                let out = client
                    .call(MethodId::DEFAULT, payload.as_bytes())
                    .expect("call ok");
                assert_eq!(out.payload.as_ref(), payload.as_bytes());
            }
        }));
    }
    for h in handles {
        h.join().expect("caller thread");
    }

    client.with_handler(|h| {
        let stats = h.stats();
        assert_eq!(stats.requests, THREADS * CALLS, "one plan per call");
        assert_eq!(
            stats.delivered,
            THREADS * CALLS,
            "exactly one delivery per call: {stats:?}"
        );
        assert_eq!(h.pending_count(), 0, "pending table fully drained");
    });
}
