//! A monotone calendar queue: the pending-event set of the classic
//! engine and of each shard of the sharded one.
//!
//! A discrete-event simulation pops events in non-decreasing time order
//! and pushes almost all of them a short, bounded way into the future —
//! the shape a calendar queue (Brown, CACM 1988) is made for. Time is cut
//! into buckets of 2²⁰ ns; a ring of [`RING_BUCKETS`] of them
//! covers the next ≈ 4.3 s. Entries live in a slab and a bucket is a
//! singly-linked chain of `u32` slot indices through it, so a push into a
//! future bucket is a slot write and two link writes — no comparison, no
//! sift. Only the *current* bucket is ordered: when the queue reaches a
//! bucket its chain is turned into a binary heap of 24-byte keys (a few
//! hundred of them on the 10k-node scenario, cache-resident), and pops
//! come off that heap.
//!
//! The pop order is exactly the total order of [`EventKey`] —
//! `(at, origin, seq)` — whatever the bucket geometry, because buckets
//! partition time in order and the heap compares whole keys:
//!
//! * a push at or before the current bucket (a same-millisecond
//!   completion, an injection into the past, a delivery after
//!   [`CalendarQueue::peek_at`] ran ahead to a later bucket) goes straight
//!   into the heap;
//! * a push beyond the ring's span (a dropped message is modelled as a
//!   delivery a day ahead) waits on an overflow chain, which is re-placed
//!   when the queue reaches the earliest bucket on it;
//! * an occupancy bitmap finds the next non-empty bucket.
//!
//! Bucket width and ring length are constants, not settings: they only
//! move work between the heap and the chains. A workload whose events all
//! fall into one bucket (or a queue whose `peek_at` ran a day ahead to a
//! dropped message while earlier deliveries were still to come) gets a
//! binary heap of small keys over a slab, and one whose events are spread
//! thinner than a bucket each pays one bitmap scan per event.
//!
//! The slab grows in chunks of [`CHUNK_SLOTS`] slots, and frees nothing
//! until the queue is dropped: its size is the pending set's high-water
//! mark, rounded up to a chunk. The first chunk alone starts at 64 slots
//! and doubles up to a whole chunk, so a queue that never holds many
//! events never reserves many slots; later chunks are allocated whole and
//! never reallocated.

use core::cmp::Reverse;
use std::collections::BinaryHeap;

use aqua_core::aqua;

/// log₂ of the bucket width in nanoseconds: 2²⁰ ns ≈ 1.05 ms.
const BUCKET_SHIFT: u32 = 20;
/// Buckets in the ring; with 2²⁰ ns buckets it spans ≈ 4.3 s.
pub const RING_BUCKETS: usize = 4096;
const RING_MASK: u64 = RING_BUCKETS as u64 - 1;
const BITMAP_WORDS: usize = RING_BUCKETS / 64;
/// End-of-chain marker for the `u32` links.
const NIL: u32 = u32::MAX;
/// log₂ of the slots in one slab chunk.
const CHUNK_SHIFT: u32 = 10;
/// Slots in one slab chunk.
pub const CHUNK_SLOTS: usize = 1 << CHUNK_SHIFT;
/// Slots the first slab chunk reserves before it first doubles.
const FIRST_CHUNK_SLOTS: usize = 64;

/// The queue's total order: time, then the node that created the event,
/// then that node's private sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Due time, nanoseconds.
    pub at: u64,
    /// Index of the node that scheduled the event.
    pub origin: u32,
    /// That node's sequence number when it did.
    pub seq: u64,
}

/// What the current bucket's heap holds: the key, flattened so that it
/// packs into 24 bytes with the slab index of its entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey {
    at: u64,
    origin: u32,
    seq: u64,
    slot: u32,
}

impl HeapKey {
    fn new(key: EventKey, slot: u32) -> Reverse<HeapKey> {
        Reverse(HeapKey {
            at: key.at,
            origin: key.origin,
            seq: key.seq,
            slot,
        })
    }
}

/// What the queue asks of an entry: the key it is ordered by. Entries
/// carry their own key — rather than the queue storing one beside each —
/// so that an entry can pack it with its other fields.
pub trait Keyed {
    /// The entry's key; must not change while the entry is queued.
    fn key(&self) -> EventKey;
}

/// One slab chunk: entries, and beside them — not inside them — each
/// slot's link: to the next entry of its bucket while the slot is in
/// use, to the next free slot after that. Chains are walked through the
/// dense link arrays, which stay cache-resident, so the loads of the
/// scattered entries do not wait on one another.
#[derive(Debug)]
struct Chunk<T> {
    items: Vec<Option<T>>,
    links: Vec<u32>,
}

/// The slab: chunks that are allocated once and never moved, so that
/// growing it copies nothing and leaves no hole in the allocator's heap.
#[derive(Debug)]
struct Slab<T> {
    chunks: Vec<Chunk<T>>,
}

impl<T: Keyed> Slab<T> {
    fn len(&self) -> usize {
        match self.chunks.last() {
            Some(last) => (self.chunks.len() - 1) * CHUNK_SLOTS + last.items.len(),
            None => 0,
        }
    }

    #[inline]
    fn chunk(&self, index: u32) -> &Chunk<T> {
        &self.chunks[(index >> CHUNK_SHIFT) as usize]
    }

    #[inline]
    fn chunk_mut(&mut self, index: u32) -> &mut Chunk<T> {
        &mut self.chunks[(index >> CHUNK_SHIFT) as usize]
    }

    #[inline]
    fn link(&self, index: u32) -> u32 {
        self.chunk(index).links[index as usize % CHUNK_SLOTS]
    }

    #[inline]
    fn set_link(&mut self, index: u32, next: u32) {
        self.chunk_mut(index).links[index as usize % CHUNK_SLOTS] = next;
    }

    #[inline]
    fn key(&self, index: u32) -> EventKey {
        self.chunk(index).items[index as usize % CHUNK_SLOTS]
            .as_ref()
            .expect("a queued index names a live slot")
            .key()
    }

    #[inline]
    fn put(&mut self, index: u32, item: T) {
        self.chunk_mut(index).items[index as usize % CHUNK_SLOTS] = Some(item);
    }

    #[inline]
    fn take(&mut self, index: u32) -> T {
        self.chunk_mut(index).items[index as usize % CHUNK_SLOTS]
            .take()
            .expect("a heap key names a live slot")
    }

    /// Appends a slot, opening a new chunk when the last one is full. The
    /// first chunk doubles its reservation when it fills below
    /// [`CHUNK_SLOTS`]: indices stay put, and nothing points into a chunk.
    #[cold]
    #[inline(never)]
    fn append(&mut self, item: T) -> u32 {
        let len = self.len();
        assert!(len < NIL as usize, "calendar queue slab is full");
        let last_is_full = |c: &Chunk<T>| c.items.len() == CHUNK_SLOTS;
        if self.chunks.last().is_none_or(last_is_full) {
            let slots = if self.chunks.is_empty() {
                FIRST_CHUNK_SLOTS
            } else {
                CHUNK_SLOTS
            };
            self.chunks.push(Chunk {
                items: Vec::with_capacity(slots),
                links: Vec::with_capacity(slots),
            });
        }
        let last = self.chunks.last_mut().expect("a chunk was just opened");
        let filled = last.items.len();
        if filled == last.items.capacity() {
            last.items.reserve_exact(filled);
            last.links.reserve_exact(filled);
        }
        last.items.push(Some(item));
        last.links.push(NIL);
        len as u32
    }

    /// The slots the chunks have reserved.
    #[cfg(test)]
    fn reserved(&self) -> usize {
        self.chunks.iter().map(|c| c.items.capacity()).sum()
    }
}

/// A priority queue of `T` ordered by [`Keyed::key`]; see the module docs.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    slab: Slab<T>,
    /// Head of the LIFO free list: the slot freed last is reused first,
    /// while it is still in cache.
    free: u32,
    /// Chain head of every ring bucket, indexed by `bucket & RING_MASK`.
    heads: Vec<u32>,
    /// One bit per ring bucket with a non-empty chain.
    occupied: [u64; BITMAP_WORDS],
    /// The absolute number (`at >> BUCKET_SHIFT`) of the bucket `current`
    /// holds; every entry of an earlier-or-equal bucket is in `current`.
    cursor: u64,
    current: BinaryHeap<Reverse<HeapKey>>,
    /// Chain of entries that were beyond the ring when pushed.
    overflow: u32,
    /// Earliest bucket on the overflow chain (`u64::MAX` when empty).
    overflow_first: u64,
}

impl<T: Keyed> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue {
            slab: Slab { chunks: Vec::new() },
            free: NIL,
            heads: vec![NIL; RING_BUCKETS],
            occupied: [0; BITMAP_WORDS],
            cursor: 0,
            current: BinaryHeap::new(),
            overflow: NIL,
            overflow_first: u64::MAX,
        }
    }
}

impl<T: Keyed> CalendarQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of entries queued: the slots in use, counted off the
    /// free list rather than kept beside `push` and `pop`, which is a walk
    /// as long as the pending set's high-water mark.
    pub(crate) fn len(&self) -> usize {
        let mut index = self.free;
        let mut free = 0;
        while index != NIL {
            free += 1;
            index = self.slab.link(index);
        }
        self.slab.len() - free
    }

    /// Queues `item`. Keys need not be unique for the queue to work, but
    /// the order among equal keys is unspecified.
    #[aqua::hot_path]
    pub fn push(&mut self, item: T) {
        let key = item.key();
        let index = if self.free == NIL {
            self.slab.append(item)
        } else {
            let index = self.free;
            self.free = self.slab.link(index);
            self.slab.put(index, item);
            index
        };
        self.place(index, key);
    }

    /// Files the entry in slot `index` under its bucket: the heap for the
    /// current bucket or an earlier one, a ring chain within the ring's
    /// span, the overflow chain beyond it.
    #[inline]
    fn place(&mut self, index: u32, key: EventKey) {
        let bucket = key.at >> BUCKET_SHIFT;
        if bucket <= self.cursor {
            self.current.push(HeapKey::new(key, index));
        } else if bucket - self.cursor < RING_BUCKETS as u64 {
            let ring = (bucket & RING_MASK) as usize;
            self.slab.set_link(index, self.heads[ring]);
            self.heads[ring] = index;
            self.occupied[ring / 64] |= 1 << (ring % 64);
        } else {
            self.slab.set_link(index, self.overflow);
            self.overflow = index;
            self.overflow_first = self.overflow_first.min(bucket);
        }
    }

    /// The due time of the entry [`pop`](Self::pop) would return. Takes
    /// `&mut self` because it may have to open the next bucket to know.
    #[aqua::hot_path]
    pub fn peek_at(&mut self) -> Option<u64> {
        if self.current.is_empty() && !self.open_next_bucket() {
            return None;
        }
        self.current.peek().map(|Reverse(k)| k.at)
    }

    /// Removes and returns the entry with the smallest key.
    #[aqua::hot_path]
    pub fn pop(&mut self) -> Option<T> {
        if self.current.is_empty() && !self.open_next_bucket() {
            return None;
        }
        let Reverse(k) = self.current.pop()?;
        let item = self.slab.take(k.slot);
        self.slab.set_link(k.slot, self.free);
        self.free = k.slot;
        Some(item)
    }

    /// With `current` empty, moves the cursor to the earliest non-empty
    /// bucket and heapifies it. Returns whether there was one.
    fn open_next_bucket(&mut self) -> bool {
        debug_assert!(self.current.is_empty());
        let at_cursor = (self.cursor & RING_MASK) as usize;
        // The cursor's own ring bucket is always empty, so a hit is
        // 1..RING_BUCKETS buckets ahead.
        let in_ring = self
            .next_occupied((at_cursor + 1) % RING_BUCKETS)
            .map(|ring| self.cursor + ((ring + RING_BUCKETS - at_cursor) as u64 & RING_MASK));
        let next = in_ring.unwrap_or(u64::MAX).min(self.overflow_first);
        if next == u64::MAX {
            return false;
        }
        self.cursor = next;
        if self.overflow_first == next {
            self.replace_overflow();
        }
        // Heapify the chain in one pass, reusing the heap's buffer.
        let mut keys = core::mem::take(&mut self.current).into_vec();
        let ring = (next & RING_MASK) as usize;
        let mut index = core::mem::replace(&mut self.heads[ring], NIL);
        self.occupied[ring / 64] &= !(1 << (ring % 64));
        while index != NIL {
            keys.push(HeapKey::new(self.slab.key(index), index));
            index = self.slab.link(index);
        }
        self.current = BinaryHeap::from(keys);
        true
    }

    /// Re-files every overflow entry against the cursor's new position:
    /// its own bucket into the heap, the ring's span onto the ring, the
    /// rest back onto the overflow chain.
    fn replace_overflow(&mut self) {
        let mut index = core::mem::replace(&mut self.overflow, NIL);
        self.overflow_first = u64::MAX;
        while index != NIL {
            let next = self.slab.link(index);
            self.place(index, self.slab.key(index));
            index = next;
        }
    }

    /// The first occupied ring bucket at or after `from`, wrapping.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let (word, bit) = (from / 64, from % 64);
        let rest = self.occupied[word] & (!0u64 << bit);
        if rest != 0 {
            return Some(word * 64 + rest.trailing_zeros() as usize);
        }
        // The last step revisits `word` for its bits below `from`.
        (1..=BITMAP_WORDS).find_map(|step| {
            let w = (word + step) % BITMAP_WORDS;
            let bits = self.occupied[w];
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::DROP_DELAY;
    use proptest::prelude::*;

    const BUCKET_NANOS: u64 = 1 << BUCKET_SHIFT;
    const SPAN_NANOS: u64 = BUCKET_NANOS * RING_BUCKETS as u64;

    /// An entry that is nothing but its key. Every key is unique (`seq`
    /// counts pushes), so a slot handed out twice shows up as a popped
    /// entry the model does not expect.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Unique(EventKey);

    impl Keyed for Unique {
        fn key(&self) -> EventKey {
            self.0
        }
    }

    /// The queue beside the model it must be indistinguishable from: a
    /// binary heap of whole keys.
    #[derive(Default)]
    struct Pair {
        queue: CalendarQueue<Unique>,
        model: BinaryHeap<Reverse<EventKey>>,
        pushed: u64,
        /// Time of the last pop: what "the past" is relative to.
        now: u64,
    }

    impl Pair {
        fn push(&mut self, at: u64, origin: u32) {
            let key = EventKey {
                at,
                origin,
                seq: self.pushed,
            };
            self.pushed += 1;
            self.queue.push(Unique(key));
            self.model.push(Reverse(key));
        }

        fn peek(&mut self) {
            let expected = self.model.peek().map(|Reverse(k)| k.at);
            assert_eq!(self.queue.peek_at(), expected);
            assert_eq!(self.queue.len(), self.model.len());
        }

        fn pop(&mut self) {
            let expected = self.model.pop().map(|Reverse(k)| k);
            assert_eq!(self.queue.pop().map(|Unique(key)| key), expected);
            if let Some(key) = expected {
                self.now = key.at;
            }
        }

        fn drain(&mut self) {
            while !self.model.is_empty() {
                self.pop();
            }
            self.pop();
            self.peek();
        }
    }

    /// A push time of one of the shapes the bucket arithmetic can get
    /// wrong, relative to the time of the last pop.
    fn push_time(now: u64, shape: u8, x: u64) -> u64 {
        let edge = (now >> BUCKET_SHIFT) << BUCKET_SHIFT;
        match shape % 10 {
            // Same bucket or the next few.
            0 | 1 => now.saturating_add(x % (3 * BUCKET_NANOS)),
            // Anywhere on the ring.
            2 => now.saturating_add(x % SPAN_NANOS),
            // Behind the current bucket.
            3 => now.saturating_sub(x % (5 * BUCKET_NANOS)),
            // Exactly on a bucket edge, and one nanosecond before it.
            4 => edge.saturating_add((x % 6) * BUCKET_NANOS),
            5 => edge
                .saturating_add((x % 6) * BUCKET_NANOS)
                .saturating_sub(1),
            // Exactly one ring span ahead, one bucket less, one more.
            6 => edge.saturating_add(SPAN_NANOS - BUCKET_NANOS + (x % 3) * BUCKET_NANOS),
            // Several spans ahead: the overflow chain, re-placed in turn.
            7 => now.saturating_add(x % (4 * SPAN_NANOS)),
            8 => now.saturating_add(DROP_DELAY.as_nanos()),
            _ => u64::MAX - 1,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 192 }))]

        /// Random interleavings of push / `peek_at` / pop agree with the
        /// model at every step and drain to the same sequence.
        #[test]
        fn agrees_with_a_binary_heap_of_whole_keys(
            start in prop_oneof![Just(0u64), 0u64..(1 << 40), Just(u64::MAX - SPAN_NANOS)],
            ops in prop::collection::vec((0u8..8, any::<u8>(), any::<u64>(), 0u32..4), 1..400),
        ) {
            let mut pair = Pair { now: start, ..Pair::default() };
            for (op, shape, x, origin) in ops {
                match op {
                    0..=3 => pair.push(push_time(pair.now, shape, x), origin),
                    4 | 5 => pair.pop(),
                    _ => pair.peek(),
                }
            }
            pair.drain();
        }

        /// Equal timestamps are ordered by origin, then by sequence.
        #[test]
        fn equal_timestamps_pop_by_origin_then_seq(
            at in any::<u64>(),
            origins in prop::collection::vec(0u32..5, 1..60),
        ) {
            let mut pair = Pair::default();
            for origin in origins {
                pair.push(at, origin);
            }
            pair.drain();
        }
    }

    #[test]
    fn a_peek_that_ran_ahead_does_not_hide_a_later_push_behind_it() {
        let mut pair = Pair::default();
        pair.push(DROP_DELAY.as_nanos(), 0);
        pair.peek();
        pair.push(5, 1);
        pair.push(SPAN_NANOS, 2);
        pair.push(DROP_DELAY.as_nanos() - 1, 3);
        pair.drain();
    }

    #[test]
    fn the_ring_wraps_and_the_overflow_is_replaced_span_by_span() {
        let mut pair = Pair::default();
        for i in 0..40u64 {
            pair.push(i * SPAN_NANOS / 4 + i, (i % 3) as u32);
        }
        for _ in 0..10 {
            pair.pop();
        }
        for i in 0..40u64 {
            pair.push(pair.now + i * SPAN_NANOS / 7, 1);
        }
        pair.drain();
    }

    #[test]
    fn a_drained_queue_refills() {
        let mut pair = Pair::default();
        for round in 0..3u64 {
            for i in 0..100u64 {
                pair.push(pair.now + (i * 7919) % (2 * SPAN_NANOS), round as u32);
            }
            pair.drain();
        }
    }

    #[test]
    fn the_slab_reuses_every_freed_slot() {
        let n: u64 = if cfg!(miri) { 3_000 } else { 100_000 };
        let mut pair = Pair::default();
        for round in 0..2 {
            for i in 0..n {
                // A few hundred per bucket, like the 10k-node scenario.
                pair.push(pair.now + i * (BUCKET_NANOS / 300), (i % 7) as u32);
            }
            assert_eq!(pair.queue.slab.len(), n as usize, "round {round}");
            pair.drain();
        }
        // In steady state the slot freed last is the one reused.
        let freed_last = pair.queue.free;
        pair.push(pair.now + 1, 0);
        assert_ne!(pair.queue.free, freed_last);
        pair.pop();
        assert_eq!(pair.queue.free, freed_last);
        assert_eq!(pair.queue.slab.len(), n as usize);
    }

    #[test]
    fn len_counts_what_is_queued_wherever_it_waits() {
        let mut queue = CalendarQueue::new();
        assert_eq!(queue.len(), 0);
        // The current bucket's heap, a ring chain and the overflow chain.
        for (seq, at) in [0, BUCKET_NANOS * 3, DROP_DELAY.as_nanos()]
            .into_iter()
            .enumerate()
        {
            queue.push(Unique(EventKey {
                at,
                origin: 0,
                seq: seq as u64,
            }));
            assert_eq!(queue.len(), seq + 1);
        }
        assert_eq!(queue.peek_at(), Some(0));
        assert_eq!(queue.len(), 3, "a peek removes nothing");
        for left in (0..3).rev() {
            assert!(queue.pop().is_some());
            assert_eq!(queue.len(), left);
        }
        assert!(queue.pop().is_none());
        assert_eq!(queue.len(), 0);
        queue.push(Unique(EventKey {
            at: 1,
            origin: 0,
            seq: 3,
        }));
        assert_eq!(queue.len(), 1, "a reused slot counts again");
    }

    #[test]
    fn the_first_chunk_reserves_what_the_queue_held() {
        let mut pair = Pair::default();
        for round in 0..3 {
            for i in 0..FIRST_CHUNK_SLOTS as u64 {
                pair.push(pair.now + i * (BUCKET_NANOS / 3), round);
            }
            pair.drain();
        }
        assert_eq!(pair.queue.slab.len(), FIRST_CHUNK_SLOTS);
        assert!(
            pair.queue.slab.reserved() <= FIRST_CHUNK_SLOTS,
            "{} slots reserved for a queue that held {FIRST_CHUNK_SLOTS}",
            pair.queue.slab.reserved()
        );
        // Past it, the first chunk doubles up to a whole chunk, then
        // whole chunks follow.
        for i in 0..=CHUNK_SLOTS as u64 {
            pair.push(pair.now + i, 0);
        }
        assert_eq!(pair.queue.slab.chunks.len(), 2);
        assert_eq!(pair.queue.slab.chunks[0].items.len(), CHUNK_SLOTS);
        pair.drain();
    }

    #[test]
    fn a_heap_key_is_three_words() {
        assert_eq!(core::mem::size_of::<HeapKey>(), 24);
    }
}
