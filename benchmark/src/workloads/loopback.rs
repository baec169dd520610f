//! `loopback_mux`: four replica servers with zero service time on
//! loopback TCP, one `MuxPool`, one `MuxHandle`, one blocking caller.
//! The only workload where `runtime` — wire codec, reactor, mux, server
//! threads — does most of the work; selection is a rounding error here.
//!
//! The whole workload — caller, reactor, server threads — is pinned to
//! one CPU. Unpinned on this 2-core VM it is bimodal: ≈ 11 k calls/s when
//! the scheduler spreads the threads over both cores and every hand-off
//! is a cross-core wake-up, ≈ 28 k when they share one, and which of the
//! two a run gets is luck (14 and 5 of 20 runs). Pinned, 20 of 20 runs
//! read 25–30 k, and what moves the number is the work per call.
//!
//! One caller on purpose: `MuxHandle::call` blocks, the host has two
//! cores, and with two or more senders the reactor's wake flag can latch
//! (see README.md), after which every send waits out the 100 ms
//! `epoll_wait` timeout. The traced pass probes that with two callers and
//! reports what it finds; the one-caller window fails if it sees the
//! latch's signature, stalled calls in a row.

use std::net::SocketAddr;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::{MethodId, PerfReport};
use aqua_core::time::Duration;
use aqua_obs::metrics::Histogram;
use aqua_obs::Obs;
use aqua_runtime::wire::{Frame, FrameAssembler};
use aqua_runtime::{MuxHandle, MuxPool, MuxPoolConfig, ReplicaServer, ReplicaServerConfig};
use aqua_strategies::{ModelBased, SelectionStrategy};
use bytes::Bytes;

use crate::pass::{Pass, Role, Workload};
use crate::replay::{self, Replayer, SPANS_PER_REPLAY};
use crate::spans::Recorder;
use crate::stats::Summary;
use crate::window::{closed_loop, Counts, Window};
use crate::workloads::gateway::SAMPLE_EVERY;
use crate::{alloc, host, inputs};

const REPLICAS: u64 = 4;
const PAYLOAD_BYTES: usize = 64;
const LARGE_PAYLOAD_BYTES: usize = 4096;
/// Calls before the window: fills the `l` = 5 windows of all four
/// replicas and takes the handler out of cold start.
const WARM_UP_CALLS: usize = 64;
/// A call this slow on loopback with idle servers is a stall, not
/// service time.
const STALL: StdDuration = StdDuration::from_millis(50);
/// Stalled calls in a row that mean the reactor's wake flag has latched:
/// a latch stalls every later send, while this shared host now and then
/// pauses the whole process for tens of milliseconds (an 86 ms call was
/// seen with idle servers and one caller), which stalls one call.
const LATCHED_AFTER: u32 = 3;
/// Wire rounds per replay span.
const WIRE_ROUNDS: u32 = 16;

fn qos() -> QosSpec {
    QosSpec::new(Duration::from_millis(150), 0.9).expect("constant spec is valid")
}

/// Servers, pool and handle, connected and warm. Field order is drop
/// order: the client side goes first, then the servers.
pub struct Loopback {
    seed: u64,
    handle: MuxHandle,
    _pool: MuxPool,
    servers: Vec<ReplicaServer>,
    payload: Vec<u8>,
    /// Time the servers took to spawn and the pool to connect.
    spawn: StdDuration,
    connect: StdDuration,
    /// Stalled calls in a row, up to now.
    stalled_in_a_row: u32,
    /// Dropped last: the threads above were spawned inside the pin.
    _pinned: Option<host::Pinned>,
}

impl Loopback {
    /// Spawns the servers, connects the pool and makes the warm-up calls.
    pub fn set_up(seed: u64) -> Result<Loopback, String> {
        Loopback::build(seed, None)
    }

    /// Set-up retried on a latched reactor, at most this often.
    const ATTEMPTS: usize = 3;

    fn build(seed: u64, obs: Option<&Obs>) -> Result<Loopback, String> {
        // The latch needs no second caller: `MuxPool::connect` sends its
        // `Hello`s from this thread, and a first request that races the
        // reactor's handling of that wake-up latches the flag. The pause
        // in `connect` below makes that rare; a set-up that still comes
        // up latched is torn down and repeated, since the windows are to
        // measure a healthy pool (the probe reports the stall).
        let mut last = String::new();
        for _ in 0..Self::ATTEMPTS {
            match Loopback::connect(seed, obs) {
                Ok(loopback) => return Ok(loopback),
                Err(what) => last = what,
            }
        }
        Err(last)
    }

    fn connect(seed: u64, obs: Option<&Obs>) -> Result<Loopback, String> {
        let pinned = host::pin_to_one_cpu();
        let started = StdInstant::now();
        let servers = (0..REPLICAS)
            .map(|i| {
                let mut config = ReplicaServerConfig::quick(ReplicaId::new(i), 0);
                config.obs = obs.cloned();
                ReplicaServer::spawn(config).map_err(|e| format!("spawn replica {i}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let spawn = started.elapsed();
        let replicas: Vec<(ReplicaId, SocketAddr)> =
            servers.iter().map(|s| (s.replica(), s.addr())).collect();
        let mut config = MuxPoolConfig::new(qos());
        config.obs = obs.cloned();
        let started = StdInstant::now();
        let pool = MuxPool::connect(&replicas, config).map_err(|e| format!("connect: {e}"))?;
        let connect = started.elapsed();
        // Let the reactor finish with the `Hello` wake-up before the first
        // request can race it.
        std::thread::sleep(StdDuration::from_millis(2));
        let handle = pool.handle(Box::new(ModelBased::default()));
        let mut loopback = Loopback {
            seed,
            handle,
            _pool: pool,
            servers,
            payload: inputs::payload(seed, PAYLOAD_BYTES),
            spawn,
            connect,
            stalled_in_a_row: 0,
            _pinned: pinned,
        };
        let mut warm = Pass::default();
        for _ in 0..WARM_UP_CALLS {
            loopback.call(&mut warm);
        }
        match warm.failures.first() {
            Some(what) => Err(format!("warm-up: {what}")),
            None => Ok(loopback),
        }
    }

    /// One blocking call, checked: `Ok`, the payload echoed, the reply
    /// from one of the replicas, a redundancy the pool can deliver, and
    /// the reactor not latched. Returns the redundancy and whether the
    /// reply was timely.
    #[inline]
    fn call(&mut self, pass: &mut Pass) -> (usize, bool) {
        pass.attempted += 1;
        let began = StdInstant::now();
        let result = self.handle.call(MethodId::DEFAULT, &self.payload);
        if began.elapsed() < STALL {
            self.stalled_in_a_row = 0;
        } else {
            self.stalled_in_a_row += 1;
            if self.stalled_in_a_row == LATCHED_AFTER {
                pass.fail(|| {
                    format!(
                        "{LATCHED_AFTER} calls in a row took {} ms or more with one caller: \
                         the reactor's wake flag has latched",
                        STALL.as_millis()
                    )
                });
            }
        }
        match result {
            Ok(outcome) => {
                let sound = outcome.payload.as_slice() == self.payload.as_slice()
                    && outcome.replica.index() < REPLICAS
                    && (1..=REPLICAS as usize).contains(&outcome.redundancy);
                if !sound {
                    pass.fail(|| {
                        format!(
                            "reply from replica {} with redundancy {} and {} payload bytes",
                            outcome.replica.index(),
                            outcome.redundancy,
                            outcome.payload.len()
                        )
                    });
                }
                (outcome.redundancy, outcome.timely)
            }
            Err(error) => {
                pass.fail(|| format!("call failed: {error}"));
                (0, false)
            }
        }
    }

    /// Requests the servers have serviced, once that stops moving: the
    /// redundant copies of the last call may still be in flight when the
    /// caller has its first reply.
    fn serviced_when_settled(&self, expected: u64) -> u64 {
        let gives_up = StdInstant::now() + StdDuration::from_secs(2);
        loop {
            let serviced: u64 = self.servers.iter().map(ReplicaServer::serviced).sum();
            if serviced >= expected || StdInstant::now() >= gives_up {
                return serviced;
            }
            std::thread::sleep(StdDuration::from_millis(1));
        }
    }

    /// The window's bookkeeping, shared by both passes.
    fn finish(&self, window: &Window, counts: Counts, pass: &mut Pass) {
        window.report(counts, pass);
        // Every selected replica services the request exactly once,
        // warm-up calls included.
        let selected = self.handle.with_handler(|h| h.stats().replicas_selected);
        let serviced = self.serviced_when_settled(selected);
        if serviced != selected {
            pass.fail(|| format!("servers serviced {serviced} requests, {selected} were sent"));
        }
    }
}

impl Workload for Loopback {
    fn measure(&mut self, length: StdDuration) -> Pass {
        let mut pass = Pass::default();
        let mut counts = Counts::default();
        let window = closed_loop(length, || {
            let (redundancy, timely) = self.call(&mut pass);
            // Handler events: the plan and a reply per selected replica.
            counts.events += 1 + redundancy as u64;
            counts.selected += redundancy as u64;
            counts.timely += u64::from(timely);
        });
        self.finish(&window, counts, &mut pass);
        pass
    }

    fn trace(&mut self, length: StdDuration, _role: Role, recorder: &mut Recorder) -> Pass {
        let mut pass = Pass::default();
        let obs = Obs::metrics_only();
        let mut traced = match Loopback::build(self.seed, Some(&obs)) {
            Ok(traced) => traced,
            Err(what) => {
                pass.attempted = 1;
                pass.fail(|| format!("traced set-up: {what}"));
                return pass;
            }
        };
        pass.set(
            "runtime.server.spawn_ms",
            Summary::exact(traced.spawn.as_secs_f64() * 1e3, REPLICAS),
        );
        pass.set(
            "runtime.mux.connect_ms",
            Summary::exact(traced.connect.as_secs_f64() * 1e3, REPLICAS),
        );
        let registry = obs.registry();
        let counter = |name: &str, labels: &[(&str, &str)]| registry.counter(name, labels).get();
        let client = [("client", "0")];
        let wire_bytes = || {
            counter("aqua_wire_bytes_sent_total", &client)
                + counter("aqua_wire_bytes_received_total", &client)
        };
        let syscalls = |op: &str| counter("aqua_net_syscalls_total", &[("op", op)]);
        let before = (
            wire_bytes(),
            syscalls("writev"),
            syscalls("read"),
            syscalls("epoll_wait"),
        );
        let allocations = alloc::Meter::start();

        let plan_spec = ModelBased::default()
            .snapshot_spec()
            .expect("the model-based strategy plans from snapshots");
        let mut replayer = Replayer::new(plan_spec);
        let mut wire = WireReplay::new(traced.seed);
        let mut counts = Counts::default();
        let mut request = 0u64;
        let window = closed_loop(length / 2, || {
            let sampled = request.is_multiple_of(SAMPLE_EVERY)
                && recorder.has_room(1 + SPANS_PER_REPLAY + WireReplay::SPANS);
            let start = recorder.now_ns();
            let (redundancy, timely) = traced.call(&mut pass);
            if sampled {
                recorder.record("call", start, recorder.now_ns(), None, request, 1);
                // The handle does not expose the selected set; the
                // replicas it would pick first stand in for it.
                let selected: Vec<ReplicaId> =
                    (0..redundancy.max(1) as u64).map(ReplicaId::new).collect();
                traced.handle.with_handler(|handler| {
                    replayer.replay(recorder, request, handler, &selected, &|_| {
                        PerfReport::new(Duration::from_micros(20), Duration::ZERO, 0)
                    });
                });
                wire.replay(recorder, request, &traced.payload);
            }
            // Handler events: the plan and a reply per selected replica.
            counts.events += 1 + redundancy as u64;
            counts.selected += redundancy as u64;
            counts.timely += u64::from(timely);
            request += 1;
        });
        let calls = window.calls().max(1);
        let per_call = |total: u64| Summary::exact(total as f64 / calls as f64, calls);

        pass.set(
            "runtime.wire.bytes_per_call",
            per_call(wire_bytes() - before.0),
        );
        pass.set(
            "runtime.reactor.writev_per_call",
            per_call(syscalls("writev") - before.1),
        );
        pass.set(
            "runtime.reactor.read_per_call",
            per_call(syscalls("read") - before.2),
        );
        pass.set(
            "runtime.reactor.epoll_wait_per_call",
            per_call(syscalls("epoll_wait") - before.3),
        );
        let batch = registry.histogram("aqua_net_writev_batch_frames", &[]);
        if let Some(frames) = batch.mean() {
            pass.set(
                "runtime.reactor.frames_per_writev",
                Summary::exact(frames, batch.count()),
            );
        }
        let across_servers = |name: &str| {
            let merged = Histogram::new();
            for i in 0..REPLICAS {
                merged.merge(&registry.histogram(name, &[("replica", &i.to_string())]));
            }
            merged
        };
        let service = across_servers("aqua_server_service_ns");
        let queue = across_servers("aqua_server_queue_ns");
        for (name, hist, q) in [
            ("runtime.server.service_ns_p50", &service, 0.5),
            ("runtime.server.queue_ns_p50", &queue, 0.5),
            ("runtime.server.queue_ns_p99", &queue, 0.99),
        ] {
            if let Some(value) = hist.quantile(q) {
                pass.set(name, Summary::exact(value as f64, hist.count()));
            }
        }
        pass.set("runtime.mux.call_p999_us", window.latency_us_whole(0.999));
        allocations.report(calls, &mut pass);
        replay::layer_metrics(recorder, &mut pass);
        replay::span_metrics(recorder, &WIRE_METRICS, &mut pass);
        traced.finish(&window, counts, &mut pass);
        drop(traced);

        match two_caller_probe(self.seed, length / 2) {
            Ok((calls_per_s, stalled_share, calls)) => {
                pass.set(
                    "runtime.mux.c2_calls_per_s",
                    Summary::exact(calls_per_s, calls),
                );
                pass.set(
                    "runtime.mux.c2_stalled_call_share",
                    Summary::exact(stalled_share, calls),
                );
            }
            Err(what) => {
                pass.attempted += 1;
                pass.fail(|| format!("two-caller probe: {what}"));
            }
        }
        pass
    }
}

/// Two callers on two handles of one pool for `length`: calls per second
/// and the share of calls that took [`STALL`] or longer. Reported, never
/// asserted — a latched wake flag shows here as ≈ 20 calls/s and a
/// stalled share near 1.
fn two_caller_probe(seed: u64, length: StdDuration) -> Result<(f64, f64, u64), String> {
    let first = Loopback::build(seed, None)?;
    let second = first._pool.handle(Box::new(ModelBased::default()));
    let payload = first.payload.clone();
    let started = StdInstant::now();
    let ends = started + length;
    let caller = |handle: &MuxHandle| {
        let (mut calls, mut stalled) = (0u64, 0u64);
        while StdInstant::now() < ends {
            let began = StdInstant::now();
            // A failed call counts as stalled: it waited out the give-up.
            let ok = handle.call(MethodId::DEFAULT, &payload).is_ok();
            calls += 1;
            stalled += u64::from(!ok || began.elapsed() >= STALL);
        }
        (calls, stalled)
    };
    let ((calls_a, stalled_a), (calls_b, stalled_b)) = std::thread::scope(|scope| {
        let other = scope.spawn(|| caller(&second));
        let mine = caller(&first.handle);
        (mine, other.join().expect("probe caller panicked"))
    });
    let elapsed = started.elapsed().as_secs_f64();
    let calls = calls_a + calls_b;
    Ok((
        calls as f64 / elapsed,
        (stalled_a + stalled_b) as f64 / calls.max(1) as f64,
        calls,
    ))
}

/// Replays the wire codec on a request's payload: `Frame::encode_into`
/// for the request, `FrameAssembler::extend` + `next_frame` for the
/// reply, at the request's own size and at 4 KiB.
struct WireReplay {
    large_payload: Vec<u8>,
    buffer: Vec<u8>,
    assembler: FrameAssembler,
}

/// Span name, metric name, for the four wire spans.
const WIRE_METRICS: [(&str, &str); 4] = [
    ("runtime.wire.encode_64b", "runtime.wire.encode_ns_64b"),
    ("runtime.wire.decode_64b", "runtime.wire.decode_ns_64b"),
    ("runtime.wire.encode_4k", "runtime.wire.encode_ns_4k"),
    ("runtime.wire.decode_4k", "runtime.wire.decode_ns_4k"),
];

impl WireReplay {
    /// Spans one wire replay records, root included.
    const SPANS: usize = WIRE_METRICS.len() + 1;

    fn new(seed: u64) -> Self {
        WireReplay {
            large_payload: inputs::payload(seed, LARGE_PAYLOAD_BYTES),
            buffer: Vec::with_capacity(2 * LARGE_PAYLOAD_BYTES),
            assembler: FrameAssembler::new(),
        }
    }

    fn replay(&mut self, recorder: &mut Recorder, request: u64, payload: &[u8]) {
        let Some(root) = recorder.open("replay.wire", recorder.now_ns(), None, request) else {
            return;
        };
        let sizes = [
            (payload, WIRE_METRICS[0].0, WIRE_METRICS[1].0),
            (
                &self.large_payload[..],
                WIRE_METRICS[2].0,
                WIRE_METRICS[3].0,
            ),
        ];
        for (payload, encode_span, decode_span) in sizes {
            let payload = Bytes::copy_from_slice(payload);
            let outbound = Frame::Request {
                seq: request,
                method: 0,
                payload: payload.clone(),
            };
            let start = recorder.now_ns();
            for _ in 0..WIRE_ROUNDS {
                self.buffer.clear();
                outbound.encode_into(&mut self.buffer);
                std::hint::black_box(&self.buffer);
            }
            let end = recorder.now_ns();
            recorder.record(encode_span, start, end, Some(root), request, WIRE_ROUNDS);

            let inbound = Frame::Reply {
                seq: request,
                replica: 0,
                service_ns: 20_000,
                queue_ns: 0,
                queue_len: 0,
                method: 0,
                payload,
            };
            self.buffer.clear();
            inbound.encode_into(&mut self.buffer);
            let start = recorder.now_ns();
            for _ in 0..WIRE_ROUNDS {
                self.assembler.extend(&self.buffer);
                std::hint::black_box(self.assembler.next_frame().ok().flatten());
            }
            let end = recorder.now_ns();
            recorder.record(decode_span, start, end, Some(root), request, WIRE_ROUNDS);
        }
        recorder.close(root, recorder.now_ns());
    }
}
