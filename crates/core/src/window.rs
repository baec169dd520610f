//! Fixed-capacity sliding windows over recent measurements.
//!
//! The gateway information repository (paper §5.2) records "the service time
//! … for the most recent `l` requests serviced by that replica" and likewise
//! for the queuing delay. `l` is "chosen so that it includes a reasonable
//! number of recent requests but eliminates obsolete measurements". The
//! paper's experiments use `l ∈ {5, 10, 20}` (Figure 3) and `l = 5` for the
//! end-to-end runs.

use core::fmt;

use crate::aqua;
use crate::time::Duration;

/// A bounded ring buffer that keeps only the most recent `capacity` samples.
///
/// Pushing into a full window evicts the oldest sample. Iteration order is
/// oldest → newest.
///
/// # Examples
///
/// ```
/// use aqua_core::window::SlidingWindow;
///
/// let mut w = SlidingWindow::new(3);
/// for x in [1, 2, 3, 4] {
///     w.push(x);
/// }
/// assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
/// assert_eq!(w.latest(), Some(&4));
/// ```
#[derive(Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SlidingWindow<T> {
    samples: Vec<T>,
    capacity: usize,
    /// Index of the oldest sample once the buffer has wrapped.
    head: usize,
    /// Total number of samples ever pushed (for diagnostics).
    pushed: u64,
}

impl<T> SlidingWindow<T> {
    /// Creates an empty window holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero: a zero-length history cannot support
    /// the relative-frequency estimate of §5.3.1.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sliding window capacity must be positive");
        SlidingWindow {
            samples: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            pushed: 0,
        }
    }

    /// The maximum number of samples retained (`l` in the paper).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of samples currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples have been recorded yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Returns `true` once the window holds `capacity` samples.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.samples.len() == self.capacity
    }

    /// Total number of samples ever pushed, including evicted ones.
    #[inline]
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Records a new sample, evicting the oldest if the window is full.
    pub fn push(&mut self, sample: T) {
        let _ = self.push_evicting(sample);
    }

    /// Like [`SlidingWindow::push`], but hands back the evicted sample so
    /// callers maintaining derived state (e.g. the bucket counts of a
    /// [`BucketedWindow`]) can retire its contribution in O(1) instead of
    /// rescanning the window.
    #[aqua::hot_path]
    pub fn push_evicting(&mut self, sample: T) -> Option<T> {
        self.pushed += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(sample);
            None
        } else {
            // aqua-lint: allow(no-panic-in-hot-path) head < capacity == len whenever the window is full
            let evicted = core::mem::replace(&mut self.samples[self.head], sample);
            self.head = (self.head + 1) % self.capacity;
            Some(evicted)
        }
    }

    /// The most recently pushed sample, if any.
    pub fn latest(&self) -> Option<&T> {
        if self.samples.is_empty() {
            None
        } else if self.samples.len() < self.capacity {
            self.samples.last()
        } else {
            let idx = (self.head + self.capacity - 1) % self.capacity;
            self.samples.get(idx)
        }
    }

    /// The oldest retained sample, if any.
    pub fn oldest(&self) -> Option<&T> {
        if self.samples.is_empty() {
            None
        } else if self.samples.len() < self.capacity {
            self.samples.first()
        } else {
            self.samples.get(self.head)
        }
    }

    /// Iterates over retained samples from oldest to newest.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            window: self,
            pos: 0,
        }
    }

    /// Removes all samples but keeps the capacity.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.head = 0;
    }

    /// Grows or shrinks the capacity, keeping the newest samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "sliding window capacity must be positive");
        let kept: Vec<T> = {
            let mut ordered: Vec<T> = Vec::with_capacity(self.samples.len());
            // Drain in oldest→newest order.
            let len = self.samples.len();
            let head = self.head;
            let mut tmp: Vec<Option<T>> = self.samples.drain(..).map(Some).collect();
            for i in 0..len {
                let idx = if len == self.capacity {
                    (head + i) % len
                } else {
                    i
                };
                if let Some(sample) = tmp.get_mut(idx).and_then(Option::take) {
                    ordered.push(sample);
                }
            }
            debug_assert_eq!(ordered.len(), len, "each slot drained exactly once");
            let skip = ordered.len().saturating_sub(capacity);
            ordered.drain(..skip);
            ordered
        };
        self.capacity = capacity;
        self.samples = kept;
        self.head = 0;
    }
}

impl<T: fmt::Debug> fmt::Debug for SlidingWindow<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlidingWindow")
            .field("capacity", &self.capacity)
            .field("samples", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

impl<'a, T> IntoIterator for &'a SlidingWindow<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T> Extend<T> for SlidingWindow<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for sample in iter {
            self.push(sample);
        }
    }
}

/// Iterator over a [`SlidingWindow`] from oldest to newest sample.
#[derive(Debug)]
pub struct Iter<'a, T> {
    window: &'a SlidingWindow<T>,
    pos: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.pos >= self.window.samples.len() {
            return None;
        }
        let idx = if self.window.samples.len() == self.window.capacity {
            (self.window.head + self.pos) % self.window.capacity
        } else {
            self.pos
        };
        self.pos += 1;
        self.window.samples.get(idx)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.window.samples.len() - self.pos;
        (remaining, Some(remaining))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

/// A sliding window over durations that maintains its per-bucket sample
/// counts **incrementally**: each push updates exactly two counters (the
/// new sample's bucket and, once the window is full, the evicted sample's),
/// so building the relative-frequency pmf of §5.3.1 no longer rescans the
/// `l` retained samples.
///
/// The window also carries a monotonically increasing **generation**,
/// bumped by every mutation. A consumer that memoizes anything derived
/// from the window (the model cache) stores the generation it computed
/// from and recomputes only when the generation moved.
///
/// # Examples
///
/// ```
/// use aqua_core::time::Duration;
/// use aqua_core::window::BucketedWindow;
///
/// let ms = Duration::from_millis;
/// let mut w = BucketedWindow::new(3, ms(1));
/// let g0 = w.generation();
/// for d in [ms(5), ms(5), ms(7), ms(9)] {
///     w.push(d); // capacity 3: the first 5 ms sample is evicted
/// }
/// assert_eq!(w.bucket_counts().collect::<Vec<_>>(), vec![(5, 1), (7, 1), (9, 1)]);
/// assert!(w.generation() > g0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BucketedWindow {
    samples: SlidingWindow<Duration>,
    bucket: Duration,
    /// `(i, n)`: `n` retained samples fall in bucket `i` (lower edge
    /// `i · bucket`). Sorted by `i`, one entry per occupied bucket: counts
    /// are ≥ 1 and sum to `samples.len()`. A flat vector, so cloning or
    /// dropping a window touches one allocation, not a tree of nodes.
    counts: Vec<(u64, u32)>,
    /// Bumped on every mutation; never reset (not even by `clear`).
    generation: u64,
}

impl BucketedWindow {
    /// Creates an empty window of `capacity` samples counted at `bucket`
    /// granularity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (see [`SlidingWindow::new`]) or the
    /// bucket width is zero.
    pub fn new(capacity: usize, bucket: Duration) -> Self {
        assert!(!bucket.is_zero(), "bucketed window bucket must be positive");
        BucketedWindow {
            samples: SlidingWindow::new(capacity),
            bucket,
            counts: Vec::new(),
            generation: 0,
        }
    }

    /// The underlying samples, oldest first.
    #[inline]
    pub fn samples(&self) -> &SlidingWindow<Duration> {
        &self.samples
    }

    /// The bucket width the counts are quantized to.
    #[inline]
    pub fn bucket_width(&self) -> Duration {
        self.bucket
    }

    /// The per-bucket counts as `(bucket index, count)` pairs in ascending
    /// bucket order — the exact input shape of
    /// [`crate::pmf::Pmf::from_bucket_counts`].
    pub fn bucket_counts(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.counts.iter().copied()
    }

    /// The mutation generation: strictly increases on every `push`,
    /// `clear`, or `set_capacity`.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Maximum number of retained samples (`l`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.samples.capacity()
    }

    /// Number of samples currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples have been recorded yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Returns `true` once the window holds `capacity` samples.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.samples.is_full()
    }

    /// The most recently pushed sample, if any.
    pub fn latest(&self) -> Option<Duration> {
        self.samples.latest().copied()
    }

    /// Total samples ever pushed, including evicted ones.
    #[inline]
    pub fn total_pushed(&self) -> u64 {
        self.samples.total_pushed()
    }

    /// Records a sample: a binary search and at most one shift of the
    /// short counts vector for each of the two affected buckets, O(1)
    /// amortized in the window size.
    #[aqua::hot_path]
    pub fn push(&mut self, sample: Duration) {
        self.generation += 1;
        let idx = sample.as_nanos() / self.bucket.as_nanos();
        if let Some(evicted) = self.samples.push_evicting(sample) {
            let old_idx = evicted.as_nanos() / self.bucket.as_nanos();
            if let Ok(at) = self.counts.binary_search_by_key(&old_idx, |entry| entry.0) {
                if let Some(entry) = self.counts.get_mut(at) {
                    entry.1 -= 1;
                    if entry.1 == 0 {
                        self.counts.remove(at);
                    }
                }
            }
        }
        count_sample(&mut self.counts, idx);
    }

    /// Removes all samples, keeping capacity and bucket width.
    pub fn clear(&mut self) {
        self.generation += 1;
        self.samples.clear();
        self.counts.clear();
    }

    /// Grows or shrinks the capacity, keeping the newest samples and
    /// rebuilding the counts to match.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.generation += 1;
        self.samples.set_capacity(capacity);
        self.counts.clear();
        let bucket_ns = self.bucket.as_nanos();
        for sample in self.samples.iter() {
            count_sample(&mut self.counts, sample.as_nanos() / bucket_ns);
        }
    }
}

/// Adds one sample to bucket `idx` of the sorted `counts`.
#[aqua::hot_path]
fn count_sample(counts: &mut Vec<(u64, u32)>, idx: u64) {
    match counts.binary_search_by_key(&idx, |entry| entry.0) {
        Ok(at) => {
            if let Some(entry) = counts.get_mut(at) {
                entry.1 += 1;
            }
        }
        Err(at) => counts.insert(at, (idx, 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SlidingWindow::<u32>::new(0);
    }

    #[test]
    fn fills_then_evicts_oldest() {
        let mut w = SlidingWindow::new(3);
        assert!(w.is_empty());
        w.push(1);
        w.push(2);
        assert!(!w.is_full());
        assert_eq!(w.oldest(), Some(&1));
        w.push(3);
        assert!(w.is_full());
        w.push(4);
        w.push(5);
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(w.latest(), Some(&5));
        assert_eq!(w.oldest(), Some(&3));
        assert_eq!(w.len(), 3);
        assert_eq!(w.total_pushed(), 5);
    }

    #[test]
    fn latest_and_oldest_on_partial_fill() {
        let mut w = SlidingWindow::new(5);
        assert_eq!(w.latest(), None);
        assert_eq!(w.oldest(), None);
        w.push(10);
        w.push(20);
        assert_eq!(w.latest(), Some(&20));
        assert_eq!(w.oldest(), Some(&10));
    }

    #[test]
    fn clear_resets_contents_not_capacity() {
        let mut w = SlidingWindow::new(2);
        w.extend([1, 2, 3]);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.capacity(), 2);
        w.push(9);
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn extend_wraps_like_repeated_push() {
        let mut w = SlidingWindow::new(4);
        w.extend(0..10);
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn shrink_capacity_keeps_newest() {
        let mut w = SlidingWindow::new(5);
        w.extend([1, 2, 3, 4, 5, 6]); // retained: 2..=6
        w.set_capacity(3);
        assert_eq!(w.capacity(), 3);
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![4, 5, 6]);
        w.push(7);
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![5, 6, 7]);
    }

    #[test]
    fn grow_capacity_keeps_order() {
        let mut w = SlidingWindow::new(2);
        w.extend([1, 2, 3]); // retained: 2, 3
        w.set_capacity(4);
        w.push(4);
        w.push(5);
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn iter_is_exact_size() {
        let mut w = SlidingWindow::new(3);
        w.extend([1, 2, 3, 4]);
        let it = w.iter();
        assert_eq!(it.len(), 3);
    }

    #[test]
    fn debug_shows_samples_in_order() {
        let mut w = SlidingWindow::new(2);
        w.extend([1, 2, 3]);
        let dbg = format!("{w:?}");
        assert!(dbg.contains("[2, 3]"), "unexpected debug output: {dbg}");
    }

    #[test]
    fn push_evicting_returns_displaced_sample() {
        let mut w = SlidingWindow::new(2);
        assert_eq!(w.push_evicting(1), None);
        assert_eq!(w.push_evicting(2), None);
        assert_eq!(w.push_evicting(3), Some(1));
        assert_eq!(w.push_evicting(4), Some(2));
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(w.total_pushed(), 4);
    }

    mod bucketed {
        use super::*;
        use std::collections::BTreeMap;

        fn ms(v: u64) -> Duration {
            Duration::from_millis(v)
        }

        /// The counts invariant, checked against a full rescan.
        fn assert_counts_consistent(w: &BucketedWindow) {
            let mut expected: BTreeMap<u64, u32> = BTreeMap::new();
            for s in w.samples().iter() {
                *expected
                    .entry(s.as_nanos() / w.bucket_width().as_nanos())
                    .or_insert(0) += 1;
            }
            let actual: BTreeMap<u64, u32> = w.bucket_counts().collect();
            assert_eq!(actual, expected);
        }

        #[test]
        #[should_panic(expected = "bucket must be positive")]
        fn zero_bucket_rejected() {
            let _ = BucketedWindow::new(3, Duration::ZERO);
        }

        #[test]
        fn counts_track_pushes_and_evictions() {
            let mut w = BucketedWindow::new(3, ms(1));
            for d in [ms(5), ms(5), ms(7), ms(5), ms(9), ms(9)] {
                w.push(d);
                assert_counts_consistent(&w);
            }
            assert_eq!(
                w.bucket_counts().collect::<Vec<_>>(),
                vec![(5, 1), (9, 2)],
                "retained samples are 5, 9, 9"
            );
            assert_eq!(w.len(), 3);
            assert_eq!(w.latest(), Some(ms(9)));
        }

        #[test]
        fn generation_moves_on_every_mutation() {
            let mut w = BucketedWindow::new(2, ms(1));
            let g0 = w.generation();
            w.push(ms(1));
            let g1 = w.generation();
            assert!(g1 > g0);
            w.clear();
            let g2 = w.generation();
            assert!(g2 > g1);
            w.set_capacity(4);
            assert!(w.generation() > g2);
        }

        #[test]
        fn clear_and_set_capacity_keep_counts_consistent() {
            let mut w = BucketedWindow::new(4, ms(2));
            for d in [ms(1), ms(2), ms(3), ms(8), ms(9)] {
                w.push(d);
            }
            assert_counts_consistent(&w);
            w.set_capacity(2);
            assert_counts_consistent(&w);
            assert_eq!(w.len(), 2, "newest two survive the shrink");
            w.clear();
            assert!(w.is_empty());
            assert_eq!(w.bucket_counts().count(), 0);
            w.push(ms(5));
            assert_counts_consistent(&w);
        }

        #[test]
        fn counts_feed_pmf_identically_to_samples() {
            use crate::pmf::Pmf;
            let mut w = BucketedWindow::new(10, ms(1));
            for i in 0..25u64 {
                w.push(ms(10 + (i * 7) % 13));
            }
            let from_counts = Pmf::from_bucket_counts(w.bucket_counts(), ms(1)).unwrap();
            let from_samples = Pmf::from_samples(w.samples().iter().copied(), ms(1)).unwrap();
            for t in 0..40 {
                assert!((from_counts.cdf(ms(t)) - from_samples.cdf(ms(t))).abs() < 1e-12);
            }
        }

        /// What the window did before its counts were a flat vector: the
        /// same push/evict bookkeeping against a `BTreeMap`.
        #[derive(Default)]
        struct Shadow {
            samples: std::collections::VecDeque<u64>,
            counts: BTreeMap<u64, u32>,
        }

        impl Shadow {
            fn evict_to(&mut self, capacity: usize) {
                while self.samples.len() > capacity {
                    let old = self.samples.pop_front().unwrap();
                    let count = self.counts.get_mut(&old).unwrap();
                    *count -= 1;
                    if *count == 0 {
                        self.counts.remove(&old);
                    }
                }
            }
        }

        #[derive(Debug, Clone)]
        enum Op {
            Push(u64),
            Clear,
            SetCapacity(usize),
        }

        use proptest::prelude::*;

        proptest! {
            #[test]
            fn flat_counts_match_a_btreemap_shadow(
                ops in prop::collection::vec(
                    prop_oneof![
                        12 => (0u64..40).prop_map(Op::Push),
                        1 => Just(Op::Clear),
                        1 => (1usize..12).prop_map(Op::SetCapacity),
                    ],
                    1..200,
                ),
            ) {
                let mut capacity = 6;
                let mut w = BucketedWindow::new(capacity, ms(2));
                let mut shadow = Shadow::default();
                for op in ops {
                    match op {
                        Op::Push(v) => {
                            w.push(ms(v));
                            shadow.samples.push_back(v / 2);
                            *shadow.counts.entry(v / 2).or_insert(0) += 1;
                        }
                        Op::Clear => {
                            w.clear();
                            shadow = Shadow::default();
                        }
                        Op::SetCapacity(c) => {
                            w.set_capacity(c);
                            capacity = c;
                        }
                    }
                    shadow.evict_to(capacity);
                    // Same entries in the same (ascending) order.
                    prop_assert_eq!(
                        w.bucket_counts().collect::<Vec<_>>(),
                        shadow.counts.iter().map(|(i, c)| (*i, *c)).collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}
