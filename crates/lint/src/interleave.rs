//! Step models of the workspace's synchronization hot spots, explored
//! exhaustively by the `shadow` crate's replay explorer.
//!
//! A [`Model`] is a fixed set of threads, each a straight-line sequence of
//! [`Step`]s over a `Clone`-able shadow state (built from the [`shadow`]
//! crate's [`ShadowLock`]/[`ShadowAtomicU64`] primitives), and an
//! invariant. [`explore`] runs it under [`shadow::explore`] with no
//! preemption bound: every run starts from the initial state, asks the
//! schedule which enabled thread steps next, and checks the invariant
//! after every step it has not seen before. All threads blocked with work
//! remaining is reported as a deadlock.
//!
//! Steps and invariants are closures, so a buggy variant is its shipped
//! model's builder called with a flag the closures capture; the flag
//! never enters the shadow state. [`catalogue`] lists every model with
//! the exact schedule count exploring it must give and, for a buggy
//! variant, the violation it must produce. The unit test, [`run_all`]
//! and `aqua-lint --interleave` all check against it.
//!
//! The gateway's timing fault handler is not modelled here: its
//! publish-vs-plan and reply-vs-retry protocols are checked on the real
//! `ConcurrentHandler` (`crates/gateway/tests/interleave.rs`, built with
//! `--cfg aqua_check`). Six models port the other hot spots (DESIGN.md
//! §11 describes each); each has one or two buggy variants that prove
//! the checker catches the bug the shipped design prevents:
//!
//! * `obs-registry-register-vs-scrape` — registration writes two vectors
//!   under the registry mutex while a scrape reads them, and a scrape
//!   reads histogram buckets before the count
//!   (`obs-registry-buggy-read-order` reads the count first).
//! * `repository-record-vs-remove-epoch` — a held snapshot's key carries
//!   the replica `epoch`, so a generation that restarts on re-insert never
//!   aliases a stale snapshot (`repository-no-epoch-aba` drops it).
//! * `reactor-wake-coalescing` — the reactor drains the self-pipe, clears
//!   `wake_pending`, then harvests; `reactor-lost-wakeup` harvests before
//!   the clear, `reactor-clear-before-drain` (the order the reactor first
//!   shipped with) clears before the drain and latches the flag.
//! * `mux-reply-routing` — wire seqs carry the handle in the top 24 bits,
//!   so replies route to the right parked caller while give-up races
//!   delivery; `mux-seq-collision` drops the handle bits.
//! * `sim-shard-window-barrier` — the sharded DES's inclusive window end
//!   `min(next) + L − 1` keeps a cross-shard arrival out of every window
//!   that could have sent it; `sim-shard-lookahead-off-by-one` uses
//!   `min(next) + L`.
//! * `reactor-send-rule` — a lone sender flushes the connection's output,
//!   one with company hands it to the loop, and frames leave in queue order;
//!   `reactor-send-write-past-ring` lets a lone sender write past frames
//!   queued behind `EPOLLOUT`.

use shadow::{Exploration, Leaf, ShadowAtomicU64, ShadowLock};

/// One atomic action a thread can take. The model builders below alias
/// their `Step<State>` as `St`, so `St::new(name, |s, tid| ..)` infers the
/// closure's argument types.
pub struct Step<S> {
    /// Display name used in violation traces.
    pub name: &'static str,
    /// Whether the step can run in `state` (lock acquisition gates here).
    pub enabled: Gate<S>,
    /// Execute the step.
    pub run: Action<S>,
}

/// Whether a step can run in a state, given the running thread's id.
pub type Gate<S> = Box<dyn Fn(&S, usize) -> bool>;
/// A step's effect on the state, given the running thread's id.
pub type Action<S> = Box<dyn Fn(&mut S, usize)>;
/// A model invariant: `Err` describes the violation.
pub type Invariant<S> = Box<dyn Fn(&S) -> Result<(), String>>;

impl<S> Step<S> {
    /// A step that can always run.
    pub fn new(name: &'static str, run: impl Fn(&mut S, usize) + 'static) -> Self {
        Self::gated(name, |_, _| true, run)
    }

    /// A step that runs only in states where `enabled` holds.
    pub fn gated(
        name: &'static str,
        enabled: impl Fn(&S, usize) -> bool + 'static,
        run: impl Fn(&mut S, usize) + 'static,
    ) -> Self {
        Step {
            name,
            enabled: Box::new(enabled),
            run: Box::new(run),
        }
    }
}

/// A complete model: initial state, per-thread step sequences, invariant.
pub struct Model<S> {
    /// The initial state.
    pub init: S,
    /// One straight-line step sequence per thread.
    pub threads: Vec<Vec<Step<S>>>,
    /// Checked after every step and at the end of every schedule.
    pub invariant: Invariant<S>,
}

/// Explores every interleaving of `model`'s threads.
pub fn explore<S: Clone>(model: &Model<S>) -> Exploration {
    shadow::explore(None, |schedule| {
        let mut state = model.init.clone();
        let mut pcs = vec![0usize; model.threads.len()];
        let mut trace = Vec::new();
        let mut leaf = Leaf::default();
        let mut current = None;
        loop {
            let step = |tid: usize| model.threads[tid].get(pcs[tid]);
            let enabled: Vec<usize> = (0..pcs.len())
                .filter(|&tid| step(tid).is_some_and(|st| (st.enabled)(&state, tid)))
                .collect();
            if enabled.is_empty() {
                leaf.deadlock = (0..pcs.len()).any(|tid| step(tid).is_some());
                if leaf.deadlock {
                    let why = "deadlock: all threads blocked".to_string();
                    leaf.violations.push((trace, why));
                }
                return leaf;
            }
            let tid = schedule.pick(&enabled, current);
            let st = &model.threads[tid][pcs[tid]];
            (st.run)(&mut state, tid);
            trace.push(format!("t{tid}:{}", st.name));
            pcs[tid] += 1;
            current = Some(tid);
            if let (Err(why), false) = ((model.invariant)(&state), schedule.replaying()) {
                leaf.violations.push((trace.clone(), why));
            }
        }
    })
}

/// One catalogue entry: a model and what exploring it must give.
pub struct Entry {
    /// Model name for reporting.
    pub name: &'static str,
    /// Exact number of complete schedules the explorer enumerates.
    pub schedules: u64,
    /// `None` for a shipped model, which must pass; for a buggy variant,
    /// text that one of its recorded violations must contain.
    pub catches: Option<&'static str>,
    explore: fn() -> Exploration,
}

impl Entry {
    /// Checks an exploration of this entry against its pins.
    pub fn check(&self, e: &Exploration) -> Result<(), String> {
        if e.schedules != self.schedules {
            return Err(format!(
                "explored {} schedules, pinned at {}",
                e.schedules, self.schedules
            ));
        }
        match self.catches {
            None if !e.passed() => Err("shipped model failed".to_string()),
            Some(text) if !e.violations.iter().any(|(_, msg)| msg.contains(text)) => Err(format!(
                "variant not caught: no violation mentions {text:?}"
            )),
            _ => Ok(()),
        }
    }
}

/// Every model: the six shipped ones (which must pass), then the seven
/// buggy variants (which must be caught).
pub fn catalogue() -> [Entry; 13] {
    let shipped = |name, schedules, explore| Entry {
        name,
        schedules,
        catches: None,
        explore,
    };
    let variant = |name, schedules, catches, explore| Entry {
        name,
        schedules,
        catches: Some(catches),
        explore,
    };
    [
        // 8 + 9 steps, 4 of each serialized by the registry lock.
        shipped("obs-registry-register-vs-scrape", 2_002, || {
            explore(&registry(false))
        }),
        // 7 + 6 always-enabled steps: C(13, 6).
        shipped("repository-record-vs-remove-epoch", 1_716, || {
            explore(&repository(true))
        }),
        // 2 + 2 + 9 always-enabled steps: 13!/(2!·2!·9!).
        shipped("reactor-wake-coalescing", 4_290, || {
            explore(&wake(|round| round))
        }),
        // 3 + 3 + 5 steps, each route gated on its reply having been sent.
        shipped("mux-reply-routing", 2_554, || explore(&mux(true))),
        // 4 + 3 + 5 steps, gated on the round protocol's handoffs.
        shipped("sim-shard-window-barrier", 3_168, || {
            explore(&shard_barrier(false))
        }),
        // 4 + 4 + 7 + 1 steps, the loop's waits gated on an event (or on
        // everyone else having parked).
        shipped("reactor-send-rule", 4_154, || explore(&send_rule(false))),
        variant("obs-registry-buggy-read-order", 2_002, "bucket", || {
            explore(&registry(true))
        }),
        variant("repository-no-epoch-aba", 1_716, "stale cache hit", || {
            explore(&repository(false))
        }),
        variant("reactor-lost-wakeup", 4_290, "lost wakeup", || {
            explore(&wake(|[poll, drain, clear, harvest]| {
                [poll, drain, harvest, clear]
            }))
        }),
        variant("reactor-clear-before-drain", 4_290, "latched flag", || {
            explore(&wake(|[poll, drain, clear, harvest]| {
                [poll, clear, drain, harvest]
            }))
        }),
        variant("mux-seq-collision", 2_554, "handle", || {
            explore(&mux(false))
        }),
        variant(
            "sim-shard-lookahead-off-by-one",
            3_168,
            "causality violation",
            || explore(&shard_barrier(true)),
        ),
        variant("reactor-send-write-past-ring", 4_234, "reorder", || {
            explore(&send_rule(true))
        }),
    ]
}

/// Explores every catalogue entry; check each with [`Entry::check`].
pub fn run_all() -> Vec<(Entry, Exploration)> {
    catalogue()
        .into_iter()
        .map(|entry| {
            let e = (entry.explore)();
            (entry, e)
        })
        .collect()
}

/// An invariant that reports the first violation a step recorded.
fn recorded(violation: &Option<String>) -> Result<(), String> {
    violation.clone().map_or(Ok(()), Err)
}

// ---------------------------------------------------------------------------
// Model 1: obs registry — register vs scrape.
// ---------------------------------------------------------------------------

/// Shadow of the `aqua-obs` registry hot spot.
#[derive(Clone)]
struct RegistryState {
    /// The registry mutex serializing registration against scrapes.
    lock: ShadowLock,
    /// `RegistryInner::names.len()` — first half of a registration.
    names: ShadowAtomicU64,
    /// `RegistryInner::values.len()` — second half of a registration.
    values: ShadowAtomicU64,
    /// Histogram observation count (bumped before the bucket, lock-free).
    hist_count: ShadowAtomicU64,
    /// Histogram bucket total (bumped after the count, lock-free).
    hist_bucket: ShadowAtomicU64,
    /// Scrape-side snapshots (`None` until read).
    snap_names: Option<u64>,
    snap_values: Option<u64>,
    snap_bucket: Option<u64>,
    snap_count: Option<u64>,
}

/// Register-vs-scrape model. Thread 0 registers a metric (two vector
/// pushes under the lock) then records two histogram samples (count, then
/// bucket, each time). Thread 1 scrapes: vector lengths under the lock,
/// then two read rounds of buckets-before-count. Invariants: the scrape
/// never sees torn vectors, and every observed `(bucket, count)` pair
/// satisfies `bucket <= count` so the quantile fallback holds. With
/// `count_first` the scrape's first round reads the count before the
/// bucket, so a concurrent record can land between the two reads.
fn registry(count_first: bool) -> Model<RegistryState> {
    type St = Step<RegistryState>;
    let can_lock = |s: &RegistryState, tid: usize| s.lock.can_acquire(tid);
    let register = vec![
        St::gated("reg.lock", can_lock, |s, tid| s.lock.acquire(tid)),
        St::new("reg.push_name", |s, _| {
            s.names.fetch_add(1);
        }),
        St::new("reg.push_value", |s, _| {
            s.values.fetch_add(1);
        }),
        St::new("reg.unlock", |s, tid| s.lock.release(tid)),
        St::new("hist.count+=1", |s, _| {
            s.hist_count.fetch_add(1);
        }),
        St::new("hist.bucket+=1", |s, _| {
            s.hist_bucket.fetch_add(1);
        }),
        St::new("hist.count+=1 (2)", |s, _| {
            s.hist_count.fetch_add(1);
        }),
        St::new("hist.bucket+=1 (2)", |s, _| {
            s.hist_bucket.fetch_add(1);
        }),
    ];
    let mut scrape = vec![
        St::gated("scrape.lock", can_lock, |s, tid| s.lock.acquire(tid)),
        St::new("scrape.read_names", |s, _| {
            s.snap_names = Some(s.names.load())
        }),
        St::new("scrape.read_values", |s, _| {
            s.snap_values = Some(s.values.load())
        }),
        St::new("scrape.unlock", |s, tid| s.lock.release(tid)),
        St::new("scrape.read_bucket", |s, _| {
            s.snap_bucket = Some(s.hist_bucket.load())
        }),
        St::new("scrape.read_count", |s, _| {
            s.snap_count = Some(s.hist_count.load())
        }),
        St::new("scrape.read_bucket (2)", |s, _| {
            // A new read round: the round-1 count snapshot must not be
            // compared against a round-2 bucket read.
            s.snap_count = None;
            s.snap_bucket = Some(s.hist_bucket.load());
        }),
        St::new("scrape.read_count (2)", |s, _| {
            s.snap_count = Some(s.hist_count.load())
        }),
        St::new("scrape.render", |_, _| {}),
    ];
    if count_first {
        scrape.swap(4, 5);
    }

    Model {
        init: RegistryState {
            lock: ShadowLock::default(),
            names: ShadowAtomicU64::new(0),
            values: ShadowAtomicU64::new(0),
            hist_count: ShadowAtomicU64::new(0),
            hist_bucket: ShadowAtomicU64::new(0),
            snap_names: None,
            snap_values: None,
            snap_bucket: None,
            snap_count: None,
        },
        threads: vec![register, scrape],
        invariant: Box::new(|s| {
            if let (Some(n), Some(v)) = (s.snap_names, s.snap_values) {
                if n != v {
                    return Err(format!("torn registration observed: names={n} values={v}"));
                }
            }
            if let (Some(b), Some(c)) = (s.snap_bucket, s.snap_count) {
                if b > c {
                    return Err(format!(
                        "bucket sum {b} exceeds count {c}; quantile fallback breaks"
                    ));
                }
            }
            Ok(())
        }),
    }
}

// ---------------------------------------------------------------------------
// Model 2: repository — record vs remove/re-insert (ABA epoch).
// ---------------------------------------------------------------------------

/// Shadow of the repository entry a table memo's key is derived from.
#[derive(Clone)]
struct RepoState {
    /// Bumped on every (re-)insert; part of the cache key.
    epoch: ShadowAtomicU64,
    /// Per-entry update generation; restarts at 0 on re-insert.
    generation: ShadowAtomicU64,
    /// Which incarnation of the replica the stats describe.
    incarnation: ShadowAtomicU64,
    /// Cached `(epoch, generation, incarnation)` from the reader side.
    cached: Option<(u64, u64, u64)>,
    /// First invariant violation observed by a lookup step.
    violation: Option<String>,
}

/// Epoch-keyed repository cache model. Without `key_includes_epoch` the
/// cache key is the generation alone: the ABA bug the epoch prevents.
fn repository(key_includes_epoch: bool) -> Model<RepoState> {
    type St = Step<RepoState>;
    let lookup = move |s: &mut RepoState, _: usize| {
        let Some((e, g, inc)) = s.cached else { return };
        let key_matches = (!key_includes_epoch || e == s.epoch.load()) && g == s.generation.load();
        if key_matches && inc != s.incarnation.load() {
            s.violation = Some(format!(
                "stale cache hit: key matched but data is from incarnation {inc}, repo at {}",
                s.incarnation.load()
            ));
        }
    };

    // Thread 0 — a table memo: snapshot a key, then keep validating the
    // held data against the live entry (ReplicaSnapshot::serves, the
    // rule a publish keeps a held snapshot by).
    let cache = vec![
        St::new("cache.build", |s, _| {
            s.cached = Some((s.epoch.load(), s.generation.load(), s.incarnation.load()));
        }),
        St::new("cache.lookup1", lookup),
        St::new("cache.lookup2", lookup),
        St::new("cache.lookup3", lookup),
        St::new("cache.lookup4", lookup),
        St::new("cache.lookup5", lookup),
        St::new("cache.lookup6", lookup),
    ];

    // Thread 1 — membership + measurement pipeline: two perf records, a
    // crash-driven remove, a re-insert (new incarnation, generation reset),
    // then two records for the *new* incarnation. The final generation
    // equals the cached one, which is exactly the ABA collision.
    let membership = vec![
        St::new("repo.record1", |s, _| {
            s.generation.fetch_add(1);
        }),
        St::new("repo.record2", |s, _| {
            s.generation.fetch_add(1);
        }),
        St::new("repo.remove", |s, _| s.generation.store(0)),
        St::new("repo.reinsert", |s, _| {
            s.epoch.fetch_add(1);
            s.incarnation.fetch_add(1);
        }),
        St::new("repo.record3", |s, _| {
            s.generation.fetch_add(1);
        }),
        St::new("repo.record4", |s, _| {
            s.generation.fetch_add(1);
        }),
    ];

    Model {
        init: RepoState {
            epoch: ShadowAtomicU64::new(7),
            generation: ShadowAtomicU64::new(0),
            incarnation: ShadowAtomicU64::new(0),
            cached: None,
            violation: None,
        },
        threads: vec![cache, membership],
        invariant: Box::new(|s| recorded(&s.violation)),
    }
}

// ---------------------------------------------------------------------------
// Model 3: socket runtime reactor — self-pipe wake coalescing.
// ---------------------------------------------------------------------------

/// Shadow of the reactor's wake path (`reactor.rs`): submitters enqueue
/// into per-connection outboxes and poke the self-pipe, coalescing pokes
/// through `wake_pending` (`swap(true, AcqRel)` — only the 0→1 transition
/// writes the wake byte). The loop drains the pipe, clears the flag, then
/// harvests. An enqueue whose poke was coalesced away (flag already set)
/// is covered either by the harvest that follows the clear, or — if it
/// lands after that harvest — by its own poke, which now sees the cleared
/// flag and writes the byte for the *next* poll round.
#[derive(Clone)]
struct WakeState {
    /// The wake-coalescing flag (`Reactor::wake_pending`).
    wake_pending: ShadowAtomicU64,
    /// Bytes readable from the self-pipe (poll readiness).
    pipe: ShadowAtomicU64,
    /// Enqueued-but-unharvested submissions across all outboxes.
    dirty: ShadowAtomicU64,
    /// Submissions the loop has flushed to sockets.
    flushed: ShadowAtomicU64,
    /// Whether the current poll round observed a wake.
    woke: bool,
    /// Completion flags: `[sender0, sender1, reactor]`.
    done: [bool; 3],
}

/// One step of a reactor poll round.
type WakeStep = (&'static str, fn(&mut WakeState, usize));

/// Wake-coalescing model; `order` permutes the shipped poll round (poll,
/// drain, clear, harvest) into the variant under test.
fn wake(order: fn([WakeStep; 4]) -> [WakeStep; 4]) -> Model<WakeState> {
    type St = Step<WakeState>;
    let sender = || {
        vec![
            St::new("send.enqueue", |s, _| {
                s.dirty.fetch_add(1);
            }),
            St::new("send.wake", |s, tid| {
                // `wake_pending.swap(true, AcqRel)` — one indivisible
                // RMW; only the 0→1 edge writes the pipe byte.
                let prev = s.wake_pending.load();
                s.wake_pending.store(1);
                if prev == 0 {
                    s.pipe.fetch_add(1);
                }
                s.done[tid] = true;
            }),
        ]
    };
    fn poll(s: &mut WakeState, _: usize) {
        s.woke = s.pipe.load() > 0;
    }
    fn drain(s: &mut WakeState, _: usize) {
        if s.woke {
            s.pipe.store(0);
        }
    }
    fn clear(s: &mut WakeState, _: usize) {
        if s.woke {
            s.wake_pending.store(0);
        }
    }
    fn harvest(s: &mut WakeState, _: usize) {
        if s.woke {
            let n = s.dirty.load();
            s.dirty.store(0);
            s.flushed.fetch_add(n);
        }
    }

    // Two poll rounds, then park.
    let round = order([
        ("loop.poll", poll),
        ("loop.drain", drain),
        ("loop.clear_flag", clear),
        ("loop.harvest+flush", harvest),
    ]);
    let mut reactor: Vec<St> = Vec::new();
    for _ in 0..2 {
        reactor.extend(round.map(|(name, run)| St::new(name, run)));
    }
    reactor.push(St::new("loop.park", |s, tid| s.done[tid] = true));

    Model {
        init: WakeState {
            wake_pending: ShadowAtomicU64::new(0),
            pipe: ShadowAtomicU64::new(0),
            dirty: ShadowAtomicU64::new(0),
            flushed: ShadowAtomicU64::new(0),
            woke: false,
            done: [false, false, false],
        },
        threads: vec![sender(), sender(), reactor],
        invariant: Box::new(|s| {
            if !s.done.iter().all(|&d| d) {
                return Ok(());
            }
            // Once every thread has parked, unharvested work must have a
            // wake byte pending — otherwise the reactor sleeps on it
            // forever.
            if s.dirty.load() > 0 && s.pipe.load() == 0 {
                return Err(format!(
                    "lost wakeup: {} dirty item(s) with an empty self-pipe; the parked reactor never flushes them",
                    s.dirty.load()
                ));
            }
            // And a set flag must have its byte in the pipe — otherwise no
            // later sender ever writes one and every send waits out the
            // poll timeout.
            if s.wake_pending.load() == 1 && s.pipe.load() == 0 {
                return Err(
                    "latched flag: wake_pending set with an empty self-pipe; every later poke is coalesced away"
                        .to_string(),
                );
            }
            Ok(())
        }),
    }
}

// ---------------------------------------------------------------------------
// Model 4: socket runtime mux — reply routing across the handle/seq split.
// ---------------------------------------------------------------------------

/// Mirrors `mux.rs`: wire seqs are 24 bits of handle id over 40 bits of
/// handle-local sequence.
const MUX_HANDLE_SHIFT: u32 = 40;
const MUX_SEQ_MASK: u64 = (1 << MUX_HANDLE_SHIFT) - 1;

/// Shadow of the mux pool's reply routing: two logical handles each park
/// waiters on handle-local seqs, the reader thread routes wire replies
/// back by splitting the wire seq, and the deadline path gives up on
/// un-replied attempts concurrently.
#[derive(Clone)]
struct MuxState {
    /// `waiters[handle][local]`: 1 = a caller is parked on this attempt.
    waiters: [[ShadowAtomicU64; 2]; 2],
    /// Wire replies awaiting routing: `(wire_seq, origin_handle)`.
    outbox: Vec<(u64, u64)>,
    /// Router cursor into `outbox` (replies route in arrival order).
    routed: usize,
    delivered: ShadowAtomicU64,
    dropped: ShadowAtomicU64,
    /// Replies that resolved a waiter of a different handle.
    crossed: ShadowAtomicU64,
    /// Completion flags: `[caller0, caller1, router]`.
    done: [bool; 3],
}

/// Mux reply-routing model. With `split_compose` wire seqs carry the
/// handle id in the top 24 bits, so routing is collision-free; without it
/// they are the bare handle-local counter, so two handles collide and a
/// reply resolves the wrong caller's waiter (and the right caller parks
/// forever).
fn mux(split_compose: bool) -> Model<MuxState> {
    type St = Step<MuxState>;
    let register = move |local: u64| {
        move |s: &mut MuxState, tid: usize| {
            let h = tid as u64;
            s.waiters[tid][local as usize].store(1);
            let wire = if split_compose {
                (h << MUX_HANDLE_SHIFT) | local
            } else {
                local // collision: both handles emit bare local counters
            };
            s.outbox.push((wire, h));
        }
    };
    let caller = || {
        vec![
            St::new("call.register(local=0)", register(0)),
            St::new("call.register(local=1)", register(1)),
            St::new("call.give_up", |s, tid| {
                // Caller h abandons attempt local == h if still un-replied
                // (the deadline path retiring its own pending entry); the
                // reply then routes to nobody.
                if s.waiters[tid][tid].load() == 1 {
                    s.waiters[tid][tid].store(0);
                }
                s.done[tid] = true;
            }),
        ]
    };
    fn route_enabled(s: &MuxState, _: usize) -> bool {
        s.outbox.len() > s.routed
    }
    fn route(s: &mut MuxState, _: usize) {
        let (wire, origin) = s.outbox[s.routed];
        s.routed += 1;
        let hid = (wire >> MUX_HANDLE_SHIFT) as usize;
        let local = (wire & MUX_SEQ_MASK) as usize;
        if hid < 2 && local < 2 && s.waiters[hid][local].load() == 1 {
            s.waiters[hid][local].store(0);
            s.delivered.fetch_add(1);
            if hid as u64 != origin {
                s.crossed.fetch_add(1);
            }
        } else {
            s.dropped.fetch_add(1);
        }
    }

    // The router drains all four replies in arrival order, each gated on
    // the reply actually having been sent, then parks.
    let mut router: Vec<St> = (0..4)
        .map(|_| St::gated("route.next", route_enabled, route))
        .collect();
    router.push(St::new("route.park", |s, tid| s.done[tid] = true));

    Model {
        init: MuxState {
            waiters: [
                [ShadowAtomicU64::new(0), ShadowAtomicU64::new(0)],
                [ShadowAtomicU64::new(0), ShadowAtomicU64::new(0)],
            ],
            outbox: Vec::new(),
            routed: 0,
            delivered: ShadowAtomicU64::new(0),
            dropped: ShadowAtomicU64::new(0),
            crossed: ShadowAtomicU64::new(0),
            done: [false, false, false],
        },
        threads: vec![caller(), caller(), router],
        invariant: Box::new(|s| {
            if s.crossed.load() > 0 {
                return Err(
                    "cross-handle delivery: a reply escaped its 24-bit handle namespace and resolved another handle's waiter"
                        .to_string(),
                );
            }
            if s.done.iter().all(|&d| d) {
                let routed = s.delivered.load() + s.dropped.load();
                if routed != 4 {
                    return Err(format!("router parked with {routed} of 4 replies routed"));
                }
                for (h, row) in s.waiters.iter().enumerate() {
                    for (l, w) in row.iter().enumerate() {
                        if w.load() == 1 {
                            return Err(format!(
                                "parked caller never resolved: handle {h} attempt {l} still waiting"
                            ));
                        }
                    }
                }
            }
            Ok(())
        }),
    }
}

// ---------------------------------------------------------------------------
// Model 5: sharded DES — conservative time-window barrier lookahead.
// ---------------------------------------------------------------------------

/// Shard A's pending event time in the barrier model.
const SHARD_A_EVENT: u64 = 10;
/// Shard B's pending local event time.
const SHARD_B_LOCAL: u64 = 15;
/// The topology lookahead: minimum cross-shard one-way delay.
const SHARD_LOOKAHEAD: u64 = 5;

/// Shadow of the sharded simulator's round protocol (`sharded.rs`): each
/// worker shard publishes its next pending event time, the leader
/// computes the round horizon from the global minimum `T` and the
/// topology lookahead `L`, each shard executes exactly the events inside
/// the inclusive window `[T, horizon]`, and cross-shard sends stage in an
/// outbox that distributes at the barrier — arriving at send-time + `L`.
/// An obs scrape reads the per-shard event counters lock-free throughout,
/// exactly like `export_obs` against a running simulation.
#[derive(Clone)]
struct ShardBarrierState {
    /// Published next-event times (0 = not yet published this round).
    next: [ShadowAtomicU64; 2],
    /// Round horizon the leader computed (0 = unset).
    horizon: ShadowAtomicU64,
    /// Shard A's pending event time (0 = consumed).
    a_event: ShadowAtomicU64,
    /// Shard B's pending local event time (0 = consumed).
    b_local: ShadowAtomicU64,
    /// Cross-shard arrival staged by A until the barrier.
    outbox_a: ShadowAtomicU64,
    /// B's post-barrier inbox (0 = empty).
    inbox_b: ShadowAtomicU64,
    /// Per-shard executed-event counters (what the scrape reads).
    events: [ShadowAtomicU64; 2],
    /// Window end each shard has fully executed (0 = none yet).
    closed: [ShadowAtomicU64; 2],
    /// Scrape scratch: last counter sum observed.
    scraped: Option<u64>,
    /// First violation observed (causality at drain, or a counter that
    /// ran backwards under the scrape).
    violation: Option<String>,
}

/// Time-window barrier model. The shipped inclusive window end is
/// `min(next) + L − 1`, so a cross-shard send from inside the window
/// arrives strictly after it. With `off_by_one` the end is
/// `min(next) + L`: shard B executes its local `t = T + L` event and
/// closes the window, then the barrier delivers a cross-shard arrival at
/// exactly `T + L` — into a window that already committed.
fn shard_barrier(off_by_one: bool) -> Model<ShardBarrierState> {
    type St = Step<ShardBarrierState>;
    fn horizon_set(s: &ShardBarrierState, _: usize) -> bool {
        s.horizon.load() != 0
    }
    fn scrape(s: &mut ShardBarrierState, _: usize) {
        let sum = s.events[0].load() + s.events[1].load();
        if let Some(prev) = s.scraped {
            if sum < prev {
                s.violation = Some(format!("event counter ran backwards: {prev} then {sum}"));
            }
        }
        s.scraped = Some(sum);
    }

    // Shard A — the round leader: publish, compute the horizon once both
    // shards have published, execute its in-window event (staging the
    // cross-shard send in the outbox), then distribute at the barrier.
    let shard_a = vec![
        St::new("a.publish_next", |s, _| s.next[0].store(s.a_event.load())),
        St::gated(
            "a.lead_horizon",
            |s, _| s.next[0].load() != 0 && s.next[1].load() != 0,
            move |s, _| {
                let t = s.next[0].load().min(s.next[1].load());
                let end = t + SHARD_LOOKAHEAD - if off_by_one { 0 } else { 1 };
                s.horizon.store(end);
            },
        ),
        St::gated("a.exec_window", horizon_set, |s, _| {
            let h = s.horizon.load();
            let at = s.a_event.load();
            if at != 0 && at <= h {
                s.a_event.store(0);
                s.events[0].fetch_add(1);
                s.outbox_a.store(at + SHARD_LOOKAHEAD);
            }
            s.closed[0].store(h);
        }),
        St::gated(
            "a.barrier_distribute",
            |s, _| s.closed[1].load() != 0,
            |s, _| {
                let arrival = s.outbox_a.load();
                if arrival != 0 {
                    s.outbox_a.store(0);
                    s.inbox_b.store(arrival);
                }
            },
        ),
    ];

    // Shard B — a follower: publish, execute whatever of its queue falls
    // inside the leader's window, then drain the barrier inbox. A drained
    // arrival at or before the window it just closed is an event executed
    // out of timestamp order — the committed window can no longer admit
    // it at its proper place in the merged history.
    let shard_b = vec![
        St::new("b.publish_next", |s, _| s.next[1].store(s.b_local.load())),
        St::gated("b.exec_window", horizon_set, |s, _| {
            let h = s.horizon.load();
            let at = s.b_local.load();
            if at != 0 && at <= h {
                s.b_local.store(0);
                s.events[1].fetch_add(1);
            }
            s.closed[1].store(h);
        }),
        St::gated(
            "b.drain_inbox",
            |s, _| s.inbox_b.load() != 0,
            |s, _| {
                let arrival = s.inbox_b.load();
                s.inbox_b.store(0);
                let closed = s.closed[1].load();
                if arrival <= closed {
                    s.violation = Some(format!(
                        "causality violation: cross-shard arrival at t={arrival} lands inside \
                         a window already closed at t={closed}"
                    ));
                }
            },
        ),
    ];

    // The obs scrape: five lock-free counter reads racing the round.
    let scraper = (0..5)
        .map(|_| St::new("scrape.read_counters", scrape))
        .collect();

    Model {
        init: ShardBarrierState {
            next: [ShadowAtomicU64::new(0), ShadowAtomicU64::new(0)],
            horizon: ShadowAtomicU64::new(0),
            a_event: ShadowAtomicU64::new(SHARD_A_EVENT),
            b_local: ShadowAtomicU64::new(SHARD_B_LOCAL),
            outbox_a: ShadowAtomicU64::new(0),
            inbox_b: ShadowAtomicU64::new(0),
            events: [ShadowAtomicU64::new(0), ShadowAtomicU64::new(0)],
            closed: [ShadowAtomicU64::new(0), ShadowAtomicU64::new(0)],
            scraped: None,
            violation: None,
        },
        threads: vec![shard_a, shard_b, scraper],
        invariant: Box::new(|s| recorded(&s.violation)),
    }
}

// ---------------------------------------------------------------------------
// Model 6: socket runtime reactor — who flushes a connection's output.
// ---------------------------------------------------------------------------

/// Shadow of the reactor's send rule (`reactor.rs`) over one connection.
/// A sender counts itself in flight, reads the count, queues its frame on
/// the output (the "ring") and — if it read "alone" — runs `Conn::flush`
/// under the same hold of the connection's lock; otherwise it marks the connection
/// dirty and wakes the loop. The loop blocks in `epoll_wait` until the
/// wake pipe or an armed `EPOLLOUT` reports, harvests the dirty list and
/// runs the same `Conn::flush`. The peer starts with a full socket buffer
/// and drains it once, at any point.
#[derive(Clone)]
struct SendRuleState {
    /// Calls in flight (`Shared::calls_in_flight`).
    in_flight: ShadowAtomicU64,
    /// What each sender read: was it the only call in flight?
    alone: [bool; 2],
    /// Whether each sender's frame still needs handing to the loop.
    hand_over: [bool; 2],
    /// Frames pushed on the ring so far; a frame's id is its push order.
    pushed: u8,
    /// The connection's output, oldest first (`Conn::out`).
    ring: Vec<u8>,
    /// Frames written to the socket, in write order.
    wire: Vec<u8>,
    /// Frames the socket buffer still takes before `WouldBlock`.
    room: u8,
    /// `EPOLLOUT` armed (in `Conn::interest`).
    armed: bool,
    /// Entries on the dirty list.
    dirty: ShadowAtomicU64,
    /// The wake-coalescing flag.
    wake_pending: ShadowAtomicU64,
    /// Bytes in the wake pipe.
    pipe: ShadowAtomicU64,
    /// The loop's current round saw the connection writable.
    writable: bool,
    /// Completion flags: `[sender0, sender1, reactor, peer]`.
    done: [bool; 4],
}

/// `Conn::flush`: write from the head of the ring while the socket takes
/// frames; arm `EPOLLOUT` on `WouldBlock`, disarm it on an empty ring.
fn send_rule_flush(s: &mut SendRuleState) {
    while let Some(&head) = s.ring.first() {
        if s.room == 0 {
            s.armed = true;
            return;
        }
        s.room -= 1;
        s.wire.push(head);
        s.ring.remove(0);
    }
    s.armed = false;
}

/// Send-rule model. As shipped every frame goes through the ring and
/// every write comes from its head, whoever flushes. With
/// `write_past_ring` a lone sender that finds the socket writable writes
/// its frame directly, past frames an earlier sender left in the ring
/// behind `EPOLLOUT`.
fn send_rule(write_past_ring: bool) -> Model<SendRuleState> {
    type St = Step<SendRuleState>;
    let push = move |s: &mut SendRuleState, tid: usize| {
        let id = s.pushed;
        s.pushed += 1;
        if write_past_ring && s.alone[tid] && s.room > 0 {
            // The bug: alone and the socket writable, so skip the ring.
            s.room -= 1;
            s.wire.push(id);
        } else if s.alone[tid] {
            s.ring.push(id);
            send_rule_flush(s);
        } else {
            s.ring.push(id);
            s.hand_over[tid] = true;
        }
    };
    let sender = || {
        vec![
            St::new("send.enter_call", |s, _| {
                s.in_flight.fetch_add(1);
            }),
            St::new("send.read_in_flight", |s, tid| {
                s.alone[tid] = s.in_flight.load() <= 1
            }),
            // One hold of the connection's I/O lock.
            St::new("send.push(+flush)", push),
            St::new("send.hand_over+exit_call", |s, tid| {
                if s.hand_over[tid] {
                    s.dirty.fetch_add(1);
                    if s.wake_pending.load() == 0 {
                        s.wake_pending.store(1);
                        s.pipe.fetch_add(1);
                    }
                }
                let left = s.in_flight.load() - 1;
                s.in_flight.store(left);
                s.done[tid] = true;
            }),
        ]
    };
    // `epoll_wait` returns for a wake byte or a writable armed socket —
    // or, once nobody else will act, for its timeout.
    fn event_or_quiet(s: &SendRuleState, _: usize) -> bool {
        s.pipe.load() > 0 || (s.armed && s.room > 0) || (s.done[0] && s.done[1] && s.done[3])
    }
    let mut reactor: Vec<St> = Vec::new();
    for _ in 0..3 {
        reactor.push(St::gated(
            "loop.epoll_wait+drain+clear",
            event_or_quiet,
            |s, _| {
                s.writable = s.armed && s.room > 0;
                if s.pipe.load() > 0 {
                    s.pipe.store(0);
                    s.wake_pending.store(0);
                }
            },
        ));
        reactor.push(St::new("loop.harvest+flush", |s, _| {
            let harvested = s.dirty.load();
            s.dirty.store(0);
            if harvested > 0 || s.writable {
                send_rule_flush(s);
            }
        }));
    }
    reactor.push(St::new("loop.park", |s, tid| s.done[tid] = true));
    let peer = vec![St::new("peer.drain", |s, tid| {
        s.room += 2;
        s.done[tid] = true;
    })];

    Model {
        init: SendRuleState {
            in_flight: ShadowAtomicU64::new(0),
            alone: [false; 2],
            hand_over: [false; 2],
            pushed: 0,
            ring: Vec::new(),
            wire: Vec::new(),
            room: 0,
            armed: false,
            dirty: ShadowAtomicU64::new(0),
            wake_pending: ShadowAtomicU64::new(0),
            pipe: ShadowAtomicU64::new(0),
            writable: false,
            done: [false; 4],
        },
        threads: vec![sender(), sender(), reactor, peer],
        invariant: Box::new(|s| {
            // Frame ids are ring positions: the wire must count up from 0.
            if let Some(at) = s
                .wire
                .iter()
                .enumerate()
                .position(|(i, &f)| usize::from(f) != i)
            {
                return Err(format!(
                    "reorder: frame {} left the socket in position {at} (wire {:?}, ring {:?})",
                    s.wire[at], s.wire, s.ring
                ));
            }
            if !s.done.iter().all(|&d| d) {
                return Ok(());
            }
            // Everyone has parked: a queued frame needs a future flush —
            // `EPOLLOUT` armed, or a dirty entry with a wake byte behind it.
            let flush_coming = s.armed || (s.dirty.load() > 0 && s.pipe.load() > 0);
            if !s.ring.is_empty() && !flush_coming {
                return Err(format!(
                    "stranded frame: ring {:?} with EPOLLOUT disarmed and no woken dirty entry",
                    s.ring
                ));
            }
            Ok(())
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalogue_entry_meets_its_pins() {
        let results = run_all();
        assert_eq!(
            results.iter().filter(|(e, _)| e.catches.is_none()).count(),
            6
        );
        for (i, (entry, e)) in results.iter().enumerate() {
            assert!(
                results[..i]
                    .iter()
                    .all(|(other, _)| other.name != entry.name),
                "duplicate entry {}",
                entry.name
            );
            if let Err(why) = entry.check(e) {
                panic!("{}: {why}; violations: {:?}", entry.name, e.violations);
            }
        }
    }
}
