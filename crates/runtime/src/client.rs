//! The single-client face of the socket runtime: a [`MuxPool`] and the
//! one [`MuxHandle`] made from it.
//!
//! One [`AquaClient`] holds a connection to every replica of a service,
//! subscribes to their performance updates, and exposes a synchronous
//! [`AquaClient::call`] that plans the replica subset, multicasts the
//! request, and delivers the earliest reply — measuring everything exactly
//! as §5.4.1 prescribes. All of that is [`crate::mux`]'s code: the pool
//! owns the sockets, reconnects and membership, the handle owns selection,
//! retry and the waiters. This type adds nothing but the pairing — its
//! handle has id 0, so a client's wire bytes are those of a lone handle —
//! and the handler observer, which its handle always carries.

use std::io;
use std::net::SocketAddr;

use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::MethodId;
use aqua_gateway::ConcurrentHandler;
use aqua_strategies::SelectionStrategy;

use crate::mux::{CallError, CallOutcome, MuxHandle, MuxPool, MuxPoolConfig};

/// Configuration of a socket client: the pool's.
pub type AquaClientConfig = MuxPoolConfig;

/// The socket client gateway. See the module docs.
///
/// Safe to share behind an `Arc`; concurrent [`AquaClient::call`]s plan,
/// send, and resolve fully in parallel — there is no global client lock.
#[derive(Debug)]
pub struct AquaClient {
    // Field order is drop order: the handle leaves the pool before the
    // pool joins its threads.
    handle: MuxHandle,
    pool: MuxPool,
}

impl AquaClient {
    /// Connects to every replica, subscribes to performance updates, and
    /// initializes the handler with the given strategy.
    ///
    /// # Errors
    ///
    /// Fails if any initial connection cannot be established.
    pub fn connect(
        replicas: &[(ReplicaId, SocketAddr)],
        config: AquaClientConfig,
        strategy: Box<dyn SelectionStrategy>,
    ) -> io::Result<AquaClient> {
        let pool = MuxPool::connect(replicas, config)?;
        let handle = pool.observed_handle(strategy);
        Ok(AquaClient { handle, pool })
    }

    /// Runs `f` against the handler (repository inspection, stats, …).
    pub fn with_handler<R>(&self, f: impl FnOnce(&ConcurrentHandler) -> R) -> R {
        self.handle.with_handler(f)
    }

    /// Emits any request spans still buffered by the handler's observer
    /// and flushes the journal. Call once at the end of an observed run.
    pub fn finish_observability(&self) {
        self.with_handler(|h| h.flush_observability());
    }

    /// Renegotiates the QoS spec at runtime (§5.4.2): the failure
    /// detector restarts under the new deadline and the planning snapshot
    /// is republished, so subsequent calls plan against the new spec.
    pub fn renegotiate(&self, qos: QosSpec) {
        self.handle.renegotiate(qos);
    }

    /// Connects to an additional replica at runtime (a new member joining
    /// the service group). The replica starts cold, so the next request is
    /// a full multicast that warms it up (§5.4.1's bootstrap rule).
    ///
    /// # Errors
    ///
    /// Propagates connection errors; the client is unchanged on failure.
    pub fn add_replica(&self, id: ReplicaId, addr: SocketAddr) -> io::Result<()> {
        self.pool.add_replica(id, addr)
    }

    /// Invokes the replicated service: selects replicas per the QoS spec,
    /// multicasts the request, and returns the earliest reply.
    ///
    /// # Errors
    ///
    /// [`CallError::NoReplicas`] when every replica is gone,
    /// [`CallError::GaveUp`] when no selected replica answered within the
    /// give-up window.
    pub fn call(&self, method: MethodId, payload: &[u8]) -> Result<CallOutcome, CallError> {
        self.handle.call(method, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::MAX_ATTEMPTS;
    use crate::server::{ReplicaServer, ReplicaServerConfig};
    use crate::test_support::{eventually, RefusingListener};
    use crate::wire::Frame;
    use aqua_core::time::Duration;
    use aqua_strategies::ModelBased;
    use bytes::Bytes;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn spawn_servers(service_ms: &[u64]) -> Vec<ReplicaServer> {
        service_ms
            .iter()
            .enumerate()
            .map(|(i, s)| {
                ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(i as u64), *s))
                    .expect("spawn")
            })
            .collect()
    }

    fn client_for(servers: &[ReplicaServer], qos: QosSpec) -> AquaClient {
        let replicas: Vec<(ReplicaId, SocketAddr)> =
            servers.iter().map(|s| (s.replica(), s.addr())).collect();
        AquaClient::connect(
            &replicas,
            AquaClientConfig::new(qos),
            Box::new(ModelBased::default()),
        )
        .expect("connect")
    }

    #[test]
    fn end_to_end_calls_over_sockets() {
        let servers = spawn_servers(&[5, 10, 15]);
        let qos = QosSpec::new(ms(500), 0.9).unwrap();
        let client = client_for(&servers, qos);
        let mut redundancies = Vec::new();
        for _ in 0..6 {
            let out = client
                .call(MethodId::DEFAULT, b"hello")
                .expect("call succeeds");
            assert!(out.timely, "500 ms deadline vs ≤15 ms service");
            assert_eq!(out.payload, Bytes::from_static(b"hello"), "echoed");
            redundancies.push(out.redundancy);
        }
        assert_eq!(redundancies[0], 3, "cold start selects all");
        assert_eq!(
            *redundancies.last().unwrap(),
            2,
            "warm Pc=0.9 needs only 2: {redundancies:?}"
        );
    }

    #[test]
    fn crash_is_detected_and_masked() {
        let servers = spawn_servers(&[5, 5, 5]);
        let qos = QosSpec::new(ms(500), 0.9).unwrap();
        let client = client_for(&servers, qos);
        for _ in 0..3 {
            client.call(MethodId::DEFAULT, b"x").expect("warm up");
        }
        servers[0].crash();
        // The very next calls still succeed via the other replicas.
        let mut successes = 0;
        for _ in 0..5 {
            if client.call(MethodId::DEFAULT, b"x").is_ok() {
                successes += 1;
            }
        }
        assert!(successes >= 4, "only the in-flight call may be lost");
        client.with_handler(|h| {
            assert!(
                !h.repository().contains(ReplicaId::new(0)),
                "disconnect evicted the crashed replica"
            );
        });
    }

    #[test]
    fn all_crashed_yields_no_replicas() {
        let servers = spawn_servers(&[5]);
        let qos = QosSpec::new(ms(200), 0.0).unwrap();
        let mut config = AquaClientConfig::new(qos);
        config.give_up_after = ms(400);
        let replicas: Vec<(ReplicaId, SocketAddr)> =
            servers.iter().map(|s| (s.replica(), s.addr())).collect();
        let client =
            AquaClient::connect(&replicas, config, Box::new(ModelBased::default())).unwrap();
        client.call(MethodId::DEFAULT, b"x").expect("first ok");
        servers[0].crash();
        std::thread::sleep(std::time::Duration::from_millis(100));
        let err = client.call(MethodId::DEFAULT, b"x").unwrap_err();
        assert!(
            matches!(err, CallError::NoReplicas | CallError::GaveUp { .. }),
            "{err}"
        );
        // Once the disconnect is processed, further calls fail fast.
        let err = client.call(MethodId::DEFAULT, b"x").unwrap_err();
        assert!(matches!(err, CallError::NoReplicas), "{err}");
    }

    #[test]
    fn measurements_fill_the_repository() {
        let servers = spawn_servers(&[20, 20]);
        let qos = QosSpec::new(ms(500), 0.5).unwrap();
        let client = client_for(&servers, qos);
        for _ in 0..4 {
            client.call(MethodId::DEFAULT, b"y").expect("ok");
        }
        client.with_handler(|h| {
            let repo = h.repository();
            assert!(repo.all_warm(), "both replicas have measurements");
            for (_, stats) in repo.iter() {
                let hist = stats.history(MethodId::DEFAULT).unwrap();
                let latest = *hist.service_times().latest().unwrap();
                assert!(
                    latest >= ms(20) && latest < ms(200),
                    "measured ts ≈ slept 20 ms, got {latest}"
                );
            }
        });
    }

    #[test]
    fn timing_failures_are_detected_on_the_wall_clock() {
        let servers = spawn_servers(&[80]);
        // 30 ms deadline vs 80 ms service: every reply is late.
        let qos = QosSpec::new(ms(30), 0.0).unwrap();
        let client = client_for(&servers, qos);
        let out = client.call(MethodId::DEFAULT, b"z").expect("reply arrives");
        assert!(!out.timely);
        assert!(out.response_time >= ms(80));
        client.with_handler(|h| {
            assert_eq!(h.detector().failures(), 1);
        });
    }

    #[test]
    fn observed_calls_emit_metrics_and_spans() {
        let (obs, reader) = aqua_obs::Obs::in_memory();
        let mut servers = Vec::new();
        for i in 0..2u64 {
            let mut cfg = ReplicaServerConfig::quick(ReplicaId::new(i), 5);
            cfg.obs = Some(obs.clone());
            servers.push(ReplicaServer::spawn(cfg).expect("spawn"));
        }
        let replicas: Vec<(ReplicaId, SocketAddr)> =
            servers.iter().map(|s| (s.replica(), s.addr())).collect();
        let mut config = AquaClientConfig::new(QosSpec::new(ms(500), 0.9).unwrap());
        config.id = 42;
        config.obs = Some(obs.clone());
        let client =
            AquaClient::connect(&replicas, config, Box::new(ModelBased::default())).unwrap();
        for _ in 0..4 {
            client.call(MethodId::DEFAULT, b"obs").expect("call ok");
        }
        client.finish_observability();

        let spans: Vec<String> = reader.lines_containing(r#""type":"request""#);
        assert_eq!(spans.len(), 4, "{spans:?}");
        assert!(
            spans[0].contains(r#""outcome":"delivered""#),
            "{}",
            spans[0]
        );

        let prom = obs.prometheus();
        assert!(
            prom.contains("aqua_requests_total{client=\"42\"} 4"),
            "{prom}"
        );
        assert!(prom.contains("aqua_wire_frames_sent_total{client=\"42\"}"));
        assert!(prom.contains("aqua_wire_bytes_received_total{client=\"42\"}"));
        assert!(prom.contains("aqua_server_serviced_total{replica=\"0\"}"));
        assert!(prom.contains("aqua_server_service_ns"));
        let delivered = client.with_handler(|h| h.stats().delivered);
        assert_eq!(delivered, 4);
    }

    #[test]
    fn wire_byte_counters_match_framing() {
        // The batching writer must account exactly the framing bytes the
        // old per-frame path would have: counters equal the sum of
        // `encoded_len` over everything sent.
        let (obs, _reader) = aqua_obs::Obs::in_memory();
        let servers = spawn_servers(&[5]);
        let replicas: Vec<(ReplicaId, SocketAddr)> =
            servers.iter().map(|s| (s.replica(), s.addr())).collect();
        let mut config = AquaClientConfig::new(QosSpec::new(ms(500), 0.9).unwrap());
        config.obs = Some(obs.clone());
        let client =
            AquaClient::connect(&replicas, config, Box::new(ModelBased::default())).unwrap();
        for _ in 0..3 {
            client.call(MethodId::DEFAULT, b"frame-check").expect("ok");
        }
        // Everything this client sends has a fixed shape: one Hello plus
        // one Request per call (single replica, no retries).
        let hello = Frame::Hello { client: 0 }.encoded_len() as u64;
        let request = Frame::Request {
            seq: 0,
            method: 0,
            payload: Bytes::from_static(b"frame-check"),
        }
        .encoded_len() as u64;
        let frames = obs
            .registry()
            .counter("aqua_wire_frames_sent_total", &[("client", "0")])
            .get();
        let bytes = obs
            .registry()
            .counter("aqua_wire_bytes_sent_total", &[("client", "0")])
            .get();
        assert_eq!(frames, 4, "one hello + three requests");
        assert_eq!(bytes, hello + 3 * request, "framing unchanged");
    }

    #[test]
    fn concurrent_calls_share_the_client() {
        let servers = spawn_servers(&[10, 10, 10]);
        let qos = QosSpec::new(ms(800), 0.9).unwrap();
        let client = std::sync::Arc::new(client_for(&servers, qos));
        let mut handles = Vec::new();
        for i in 0..8 {
            let c = std::sync::Arc::clone(&client);
            handles.push(std::thread::spawn(move || {
                c.call(MethodId::DEFAULT, format!("c{i}").as_bytes())
                    .map(|o| o.timely)
            }));
        }
        for h in handles {
            assert!(h.join().unwrap().expect("call ok"), "all timely");
        }
        client.with_handler(|h| {
            assert_eq!(h.stats().delivered, 8);
            assert_eq!(h.pending_count(), 0);
        });
    }

    #[test]
    fn sixteen_callers_leave_the_pending_and_waiter_tables_empty() {
        // One client is one handle: every caller goes through the same
        // waiter table.
        let servers = spawn_servers(&[0, 0, 0]);
        let qos = QosSpec::new(ms(800), 0.9).unwrap();
        let client = client_for(&servers, qos);
        std::thread::scope(|scope| {
            for t in 0..16 {
                let client = &client;
                scope.spawn(move || {
                    for i in 0..50 {
                        let tag = format!("t{t}c{i}");
                        let out = client
                            .call(MethodId::DEFAULT, tag.as_bytes())
                            .expect("call");
                        assert_eq!(out.payload.as_slice(), tag.as_bytes());
                    }
                });
            }
        });
        client.with_handler(|h| {
            assert_eq!(h.stats().delivered, 16 * 50);
            assert_eq!(h.pending_count(), 0);
        });
        assert_eq!(client.handle.waiter_count(), 0);
    }

    #[test]
    fn a_connection_lost_while_it_opens_is_not_dropped_as_stale() {
        // The peer closes every connection the moment it accepts it, so
        // the reactor can report the loss before `open_connection` has
        // published the connection id. Each loss must still be handled —
        // replica evicted, reconnect scheduled — or the dead id stays in
        // the map for good and the attempts stop.
        let listener = RefusingListener::spawn();
        let mut config = AquaClientConfig::new(QosSpec::new(ms(200), 0.0).unwrap());
        config.give_up_after = ms(400);
        config.reconnect = Some(ms(1));
        let client = AquaClient::connect(
            &[(ReplicaId::new(0), listener.addr)],
            config,
            Box::new(ModelBased::default()),
        )
        .expect("the listener accepts");
        // The first connection and every reconnect attempt.
        let all = u64::from(MAX_ATTEMPTS) + 1;
        assert!(
            eventually(|| listener.accepted() >= all),
            "reconnects stopped after {} connections: a loss went unhandled",
            listener.accepted()
        );
        drop(client);
    }
}
