//! Criterion bench for the sharded engine's event queue under the hold
//! model: with `n` events pending, pop the earliest and push one an
//! exponentially distributed gap ahead of it — the steady state of a
//! discrete-event simulation. The calendar queue runs beside a `std`
//! binary heap of the same entries, the structure it replaced, at the
//! pending-set sizes the 10k-node geo scenario starts and ends with.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lan_sim::queue::{CalendarQueue, EventKey, Keyed};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Mean gap to a pushed event's due time: the 10k-node scenario's pending
/// events sit a few hundred milliseconds ahead.
const MEAN_AHEAD_NANOS: f64 = 200e6;

/// A queued entry the size of the engine's for a three-word payload: its
/// key and three more words. Keys are unique, so the derived order is the
/// key's.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Entry(EventKey, [u64; 3]);

impl Keyed for Entry {
    fn key(&self) -> EventKey {
        self.0
    }
}

/// The two operations the hold model needs of either queue.
trait Hold {
    fn push(&mut self, entry: Entry);
    fn pop(&mut self) -> Option<Entry>;
}

impl Hold for CalendarQueue<Entry> {
    fn push(&mut self, entry: Entry) {
        CalendarQueue::push(self, entry);
    }
    fn pop(&mut self) -> Option<Entry> {
        CalendarQueue::pop(self)
    }
}

impl Hold for BinaryHeap<Reverse<Entry>> {
    fn push(&mut self, entry: Entry) {
        BinaryHeap::push(self, Reverse(entry));
    }
    fn pop(&mut self) -> Option<Entry> {
        BinaryHeap::pop(self).map(|Reverse(entry)| entry)
    }
}

/// Draws keys an exponential gap ahead of `now`, from 1 000 origins.
struct Source {
    rng: SmallRng,
    seq: u64,
}

impl Source {
    fn key_after(&mut self, now: u64) -> EventKey {
        let u: f64 = self.rng.gen_range(0.000_1..1.0);
        self.seq += 1;
        EventKey {
            at: now + (-u.ln() * MEAN_AHEAD_NANOS) as u64,
            origin: (self.seq % 1_000) as u32,
            seq: self.seq,
        }
    }
}

fn hold<Q: Hold>(c: &mut Criterion, name: &str, mut queue: Q) {
    let mut group = c.benchmark_group(name);
    for pending in [1_000usize, 150_000] {
        let mut source = Source {
            rng: SmallRng::seed_from_u64(7),
            seq: 0,
        };
        while let Some(_drained) = queue.pop() {}
        for _ in 0..pending {
            queue.push(Entry(source.key_after(0), [0; 3]));
        }
        // One pass over the pending set, so that the measured steps run
        // in the steady state rather than on the initial fill.
        let step = |queue: &mut Q, source: &mut Source| {
            let Entry(key, words) = queue.pop().expect("the hold model never drains");
            queue.push(Entry(source.key_after(key.at), words));
            key.at
        };
        for _ in 0..pending {
            step(&mut queue, &mut source);
        }
        group.bench_function(BenchmarkId::new("pop_push", pending), |b| {
            b.iter(|| step(&mut queue, &mut source));
        });
    }
    group.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    hold(c, "event_queue_calendar", CalendarQueue::<Entry>::new());
    hold(
        c,
        "event_queue_std_heap",
        BinaryHeap::<Reverse<Entry>>::new(),
    );
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
