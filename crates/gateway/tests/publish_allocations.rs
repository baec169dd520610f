//! Allocation counts of a republish, measured with a counting global
//! allocator on the calling thread.
//!
//! Wall time on a shared host is noisy; an allocation count is not. A
//! steady-state publish builds its view in the buffers of the view the
//! previous publish retired, so it stays within a small fixed number of
//! allocations however many replicas and tables it rebuilds.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aqua_core::model::{ModelConfig, QueueEstimator};
use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::PerfReport;
use aqua_core::time::{Duration, Instant};
use aqua_gateway::ConcurrentHandler;
use aqua_strategies::ModelBased;

/// The system allocator, counting the calling thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The `gateway_churn` shape: 16 replicas, windows of `l = 100`, the
/// q-fold `QueueScaled` estimator.
const REPLICAS: u64 = 16;
const WINDOW: usize = 100;

/// At most this many allocations per publish of 16 changed replicas. A
/// publish makes one, the new view's `Arc`, and none per replica or per
/// table; before views were recycled it made 185 to 187.
const PUBLISH_BOUND: u64 = 2;

/// Rounds before a publish counts as steady. The reports repeat every
/// 150 rounds (service times every 50, queues every 6), so a window holds
/// only the loop's reports from round 99 and has been in every state it
/// will ever be in by round 249, in both views whose buffers alternate:
/// from then on no window buffer grows.
const WARM_ROUNDS: u64 = 250;

fn model() -> ModelConfig {
    ModelConfig {
        queue_estimator: QueueEstimator::QueueScaled,
        ..ModelConfig::default()
    }
}

fn qos() -> QosSpec {
    QosSpec::new(Duration::from_millis(150), 0.9).unwrap()
}

/// Replica `r`'s report in round `round`: service times of 30–80 ms and
/// queues of 0–5, both moving every round so every table changes. A
/// queue that climbs from 2 to 3 or from 4 to 5 refreshes the powers of
/// `S` its last table kept; one that climbs to 4 builds `S⊛S⊛S` anew.
fn report(r: u64, round: u64) -> PerfReport {
    let service = Duration::from_millis(30 + (r * 3 + round * 7) % 50);
    let queue = ((r + round) % 6) as u32;
    PerfReport::new(service, service.saturating_mul(u64::from(queue)), queue)
}

#[test]
fn a_steady_state_publish_allocates_within_a_fixed_bound() {
    let handler = ConcurrentHandler::new(qos(), WINDOW, Box::new(ModelBased::new(model())));
    let ms = |v: u64| Instant::EPOCH + Duration::from_millis(v);
    for r in 0..REPLICAS {
        handler.insert_replica(Instant::EPOCH, ReplicaId::new(r));
    }
    // Fill every window, then one cold-start multicast gives every
    // replica a gateway delay.
    for round in 0..WINDOW as u64 {
        for r in 0..REPLICAS {
            handler.on_perf_update(ms(round), ReplicaId::new(r), report(r, round));
        }
    }
    let now = ms(WINDOW as u64);
    let plan = handler.plan_request(now);
    assert_eq!(
        plan.replicas.len(),
        REPLICAS as usize,
        "cold start asks everyone"
    );
    for id in plan.replicas.iter() {
        handler.on_reply(now, plan.seq, *id, report(id.index(), 0));
    }
    // Plan and retire requests until the pending table holds as many
    // seqs as it ever will: from then on a plan's own allocations are the
    // same every time.
    for _ in 0..3_000 {
        let plan = handler.plan_request(now);
        handler.on_abandon(now, plan.seq);
    }

    // One round per millisecond, one update per replica, then a plan: the
    // plan publishes what the round changed (the round is past the 500 µs
    // debounce), so every publish rebuilds all sixteen replicas' tables.
    // The round's updates and that plan are counted together. A second
    // plan on the same view publishes nothing; what the round allocated
    // beyond it is the ingest's and the publish's.
    let rounds = WARM_ROUNDS + 200;
    let mut per_publish = Vec::new();
    for round in 0..rounds {
        let now = ms(WINDOW as u64 + 1 + round);
        let version = handler.planning_view().version();
        let mut plans = Vec::with_capacity(2);
        let publishing = allocations_of(|| {
            for r in 0..REPLICAS {
                handler.on_perf_update(now, ReplicaId::new(r), report(r, round));
            }
            plans.push(handler.plan_request(now));
        });
        let planning = allocations_of(|| plans.push(handler.plan_request(now)));
        let view = handler.planning_view();
        assert_eq!(view.version(), version + 1, "one publish per round");
        assert!(view.all_warm());
        for plan in plans {
            handler.on_abandon(now, plan.seq);
        }
        per_publish.push(publishing.saturating_sub(planning));
    }
    // Warm-up: the first publishes grow the spare buffers.
    let steady = &per_publish[WARM_ROUNDS as usize..];
    let worst = steady.iter().copied().max().unwrap_or_default();
    assert!(
        worst <= PUBLISH_BOUND,
        "a steady-state publish allocated {worst} times (bound {PUBLISH_BOUND}): {steady:?}"
    );
}
