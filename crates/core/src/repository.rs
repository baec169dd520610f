//! The gateway information repository (§5.2).
//!
//! Each timing fault handler keeps a repository **local to the client
//! gateway** that stores, for every replica offering the handler's service:
//!
//! * the current number of outstanding requests in the replica's queue,
//! * the most recently measured two-way gateway-to-gateway delay,
//! * a *service time vector* and a *queuing delay vector* holding the
//!   measurements for the most recent `l` requests (the sliding window).
//!
//! The repository is updated from the performance data piggybacked on every
//! reply and from the updates that replicas push to their subscribers
//! (§5.4.1), and entries are removed when the group-membership layer reports
//! a crash (§5.4).

use std::collections::BTreeMap;
use std::fmt;

use crate::qos::ReplicaId;
use crate::time::{Duration, Instant};
use crate::window::{BucketedWindow, SlidingWindow};

/// Default bucket width for the incrementally maintained window counts:
/// matches `ModelConfig::default().bucket` (1 ms, ≤ 1% of the deadlines
/// studied), so the default model builds its pmfs straight from the counts.
pub const DEFAULT_BUCKET: Duration = Duration::from_millis(1);

/// Identifier of a service method, for the multi-interface extension
/// (paper §8, extension 1).
///
/// Handlers that do not classify performance data per method use
/// [`MethodId::DEFAULT`] everywhere, which reproduces the paper's
/// single-method behaviour exactly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MethodId(u32);

impl MethodId {
    /// The single method of a paper-style single-interface service.
    pub const DEFAULT: MethodId = MethodId(0);

    /// Creates a method id from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        MethodId(index)
    }

    /// The raw index.
    #[inline]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl Default for MethodId {
    fn default() -> Self {
        MethodId::DEFAULT
    }
}

impl fmt::Debug for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// The performance data a replica publishes after servicing a request:
/// piggybacked on the reply and pushed to all subscribers (§5.4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfReport {
    /// Service duration `ts` measured around the application upcall.
    pub service_time: Duration,
    /// Queuing delay `tq = t3 − t2` spent in the FIFO request queue.
    pub queuing_delay: Duration,
    /// Number of outstanding requests left in the replica's queue.
    pub queue_len: u32,
    /// Which method was invoked (multi-interface extension).
    pub method: MethodId,
}

impl PerfReport {
    /// Convenience constructor for single-method services.
    pub fn new(service_time: Duration, queuing_delay: Duration, queue_len: u32) -> Self {
        PerfReport {
            service_time,
            queuing_delay,
            queue_len,
            method: MethodId::DEFAULT,
        }
    }

    /// Returns a copy tagged with a method id.
    #[must_use]
    pub fn with_method(mut self, method: MethodId) -> Self {
        self.method = method;
        self
    }
}

/// Per-method measurement history: the service time and queuing delay
/// vectors of §5.2, kept with incrementally maintained bucket counts so the
/// model can rebuild its pmfs in O(distinct buckets) instead of O(l).
#[derive(Debug)]
pub struct MethodHistory {
    service_times: BucketedWindow,
    queuing_delays: BucketedWindow,
    /// Bumped on every recorded report; the model cache's per-method
    /// invalidation key.
    generation: u64,
}

impl MethodHistory {
    fn new(window: usize, bucket: Duration) -> Self {
        MethodHistory {
            service_times: BucketedWindow::new(window, bucket),
            queuing_delays: BucketedWindow::new(window, bucket),
            generation: 0,
        }
    }

    fn record(&mut self, service_time: Duration, queuing_delay: Duration) {
        self.generation += 1;
        self.service_times.push(service_time);
        self.queuing_delays.push(queuing_delay);
    }

    /// The recorded service times, oldest first.
    pub fn service_times(&self) -> &SlidingWindow<Duration> {
        self.service_times.samples()
    }

    /// The recorded queuing delays, oldest first.
    pub fn queuing_delays(&self) -> &SlidingWindow<Duration> {
        self.queuing_delays.samples()
    }

    /// The service-time window with its incremental bucket counts.
    pub fn service_window(&self) -> &BucketedWindow {
        &self.service_times
    }

    /// The queuing-delay window with its incremental bucket counts.
    pub fn queuing_window(&self) -> &BucketedWindow {
        &self.queuing_delays
    }

    /// Monotone counter bumped on every report recorded for this method.
    /// While it is unchanged, pmfs derived from this history are still
    /// valid (the cache-invalidation contract).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of requests recorded (capped at the window size).
    pub fn len(&self) -> usize {
        self.service_times.len()
    }

    /// Returns `true` if no measurements have been recorded.
    pub fn is_empty(&self) -> bool {
        self.service_times.is_empty()
    }
}

impl Clone for MethodHistory {
    fn clone(&self) -> Self {
        MethodHistory {
            service_times: self.service_times.clone(),
            queuing_delays: self.queuing_delays.clone(),
            generation: self.generation,
        }
    }

    /// Copies `source` into this history's windows, reusing their buffers.
    fn clone_from(&mut self, source: &Self) {
        self.service_times.clone_from(&source.service_times);
        self.queuing_delays.clone_from(&source.queuing_delays);
        self.generation = source.generation;
    }
}

/// Everything the repository knows about one replica.
#[derive(Debug)]
pub struct ReplicaStats {
    histories: BTreeMap<MethodId, MethodHistory>,
    gateway_delays: BucketedWindow,
    outstanding: u32,
    last_update: Option<Instant>,
    window: usize,
    bucket: Duration,
    probation: u32,
    /// Repository-global insertion stamp: a replica that is removed and
    /// later re-inserted gets a **different** epoch, so cache entries keyed
    /// on `(epoch, generation)` can never confuse the fresh entry's
    /// restarted generations with the old entry's (the ABA hazard).
    epoch: u64,
    /// Bumped on every perf report for *any* method and on probation
    /// transitions: the aggregate-scope invalidation key (and the carrier
    /// of `outstanding`/probation changes that per-method generations
    /// don't see).
    perf_generation: u64,
}

impl Clone for ReplicaStats {
    fn clone(&self) -> Self {
        ReplicaStats {
            histories: self.histories.clone(),
            gateway_delays: self.gateway_delays.clone(),
            outstanding: self.outstanding,
            last_update: self.last_update,
            window: self.window,
            bucket: self.bucket,
            probation: self.probation,
            epoch: self.epoch,
            perf_generation: self.perf_generation,
        }
    }

    /// Copies `source` into this entry, reusing the buffers of every
    /// window it already holds: a method history this entry lacks is the
    /// only thing allocated, one this entry has and `source` lacks is
    /// dropped.
    fn clone_from(&mut self, source: &Self) {
        self.histories
            .retain(|method, _| source.histories.contains_key(method));
        for (method, history) in &source.histories {
            match self.histories.get_mut(method) {
                Some(held) => held.clone_from(history),
                None => {
                    self.histories.insert(*method, history.clone());
                }
            }
        }
        self.gateway_delays.clone_from(&source.gateway_delays);
        self.outstanding = source.outstanding;
        self.last_update = source.last_update;
        self.window = source.window;
        self.bucket = source.bucket;
        self.probation = source.probation;
        self.epoch = source.epoch;
        self.perf_generation = source.perf_generation;
    }
}

impl ReplicaStats {
    fn new(window: usize, bucket: Duration, epoch: u64) -> Self {
        ReplicaStats {
            histories: BTreeMap::new(),
            gateway_delays: BucketedWindow::new(window, bucket),
            outstanding: 0,
            last_update: None,
            window,
            bucket,
            probation: 0,
            epoch,
            perf_generation: 0,
        }
    }

    /// History for one method, if any measurement has been recorded for it.
    pub fn history(&self, method: MethodId) -> Option<&MethodHistory> {
        self.histories.get(&method)
    }

    /// Iterates over `(method, history)` pairs with recorded data.
    pub fn histories(&self) -> impl Iterator<Item = (MethodId, &MethodHistory)> {
        self.histories.iter().map(|(m, h)| (*m, h))
    }

    /// The most recently measured two-way gateway-to-gateway delay `td`.
    pub fn last_gateway_delay(&self) -> Option<Duration> {
        self.gateway_delays.latest()
    }

    /// The recent history of gateway delays (extension A4; the paper keeps
    /// only the last value but notes the windowed variant is "simple").
    pub fn gateway_delays(&self) -> &SlidingWindow<Duration> {
        self.gateway_delays.samples()
    }

    /// The gateway-delay window with its incremental bucket counts.
    pub fn gateway_delay_window(&self) -> &BucketedWindow {
        &self.gateway_delays
    }

    /// Monotone counter for the gateway-delay slot: moves exactly when a
    /// delay measurement is recorded.
    pub fn delay_generation(&self) -> u64 {
        self.gateway_delays.generation()
    }

    /// Monotone counter bumped by every perf report (any method) and every
    /// probation transition — see the field docs.
    pub fn perf_generation(&self) -> u64 {
        self.perf_generation
    }

    /// The repository-global insertion stamp of this entry (ABA guard for
    /// generation-keyed caches).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The replica's current number of outstanding queued requests.
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// When this entry last changed, if ever.
    pub fn last_update(&self) -> Option<Instant> {
        self.last_update
    }

    /// Returns `true` once the entry has at least one service-time sample,
    /// one queuing-delay sample, and one gateway-delay measurement — the
    /// minimum for the model of §5.3.1 to produce a prediction.
    pub fn is_warm(&self) -> bool {
        self.histories.values().any(|h| !h.is_empty()) && !self.gateway_delays.is_empty()
    }

    /// Returns `true` while the replica is on probation: it recently
    /// (re)joined and fewer than the required number of fresh samples have
    /// arrived, so its history is not yet trustworthy and the selection
    /// strategies skip it (it still receives shadow traffic to warm up).
    pub fn is_on_probation(&self) -> bool {
        self.probation > 0
    }

    /// Fresh samples still needed before the replica leaves probation.
    pub fn probation_remaining(&self) -> u32 {
        self.probation
    }

    fn record_perf(&mut self, report: PerfReport, now: Instant) {
        let window = self.window;
        let bucket = self.bucket;
        self.perf_generation += 1;
        self.probation = self.probation.saturating_sub(1);
        let history = self
            .histories
            .entry(report.method)
            .or_insert_with(|| MethodHistory::new(window, bucket));
        history.record(report.service_time, report.queuing_delay);
        self.outstanding = report.queue_len;
        self.last_update = Some(now);
    }

    fn record_gateway_delay(&mut self, delay: Duration, now: Instant) {
        self.gateway_delays.push(delay);
        self.last_update = Some(now);
    }

    fn put_on_probation(&mut self, samples: u32) {
        self.perf_generation += 1;
        self.probation = samples;
    }
}

/// The gateway information repository of §5.2: one entry per replica of the
/// service the owning handler communicates with.
///
/// # Examples
///
/// ```
/// use aqua_core::repository::{InfoRepository, PerfReport};
/// use aqua_core::qos::ReplicaId;
/// use aqua_core::time::{Duration, Instant};
///
/// let mut repo = InfoRepository::new(5);
/// let r0 = ReplicaId::new(0);
/// repo.insert_replica(r0);
/// repo.record_perf(
///     r0,
///     PerfReport::new(Duration::from_millis(100), Duration::from_millis(2), 1),
///     Instant::EPOCH,
/// );
/// repo.record_gateway_delay(r0, Duration::from_millis(3), Instant::EPOCH);
/// assert!(repo.stats(r0).unwrap().is_warm());
/// ```
#[derive(Debug, Clone)]
pub struct InfoRepository {
    replicas: BTreeMap<ReplicaId, ReplicaStats>,
    window: usize,
    bucket: Duration,
    /// Monotone insertion counter: every entry creation takes the next
    /// value as its [`ReplicaStats::epoch`], so a removed-then-re-added
    /// replica is distinguishable from the entry it replaced.
    next_epoch: u64,
}

impl InfoRepository {
    /// Creates an empty repository whose sliding windows hold `window`
    /// samples (`l` in the paper; the experiments use 5), counting samples
    /// at the [`DEFAULT_BUCKET`] (1 ms) granularity.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        InfoRepository::with_bucket(window, DEFAULT_BUCKET)
    }

    /// Like [`InfoRepository::new`] with an explicit count-bucket width.
    /// Pick the model's `ModelConfig::bucket` so pmfs build straight from
    /// the incremental counts (a mismatched model falls back to rescanning
    /// the raw samples — correct, just slower).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `bucket` is zero.
    pub fn with_bucket(window: usize, bucket: Duration) -> Self {
        assert!(window > 0, "repository window must be positive");
        assert!(!bucket.is_zero(), "repository bucket must be positive");
        InfoRepository {
            replicas: BTreeMap::new(),
            window,
            bucket,
            next_epoch: 0,
        }
    }

    /// The sliding-window size `l`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Registers a replica (on service discovery or a join view change).
    ///
    /// Returns `true` if the replica was not already present. Existing
    /// history is preserved when re-inserting a known replica.
    pub fn insert_replica(&mut self, id: ReplicaId) -> bool {
        let window = self.window;
        let bucket = self.bucket;
        let next_epoch = &mut self.next_epoch;
        let mut inserted = false;
        self.replicas.entry(id).or_insert_with(|| {
            inserted = true;
            *next_epoch += 1;
            ReplicaStats::new(window, bucket, *next_epoch)
        });
        inserted
    }

    /// Puts `id` on probation for `samples` fresh reports, inserting a blank
    /// entry if the replica is unknown (the rejoin case: eviction dropped
    /// its history, so a recovered replica starts from scratch).
    ///
    /// While on probation the replica is excluded from
    /// [`InfoRepository::selectable`] — the strategies will not *trust* it —
    /// but the handler keeps multicasting to it so the `l` samples that end
    /// the probation actually arrive.
    pub fn set_probation(&mut self, id: ReplicaId, samples: u32) {
        let window = self.window;
        let bucket = self.bucket;
        let next_epoch = &mut self.next_epoch;
        let stats = self.replicas.entry(id).or_insert_with(|| {
            *next_epoch += 1;
            ReplicaStats::new(window, bucket, *next_epoch)
        });
        stats.put_on_probation(samples);
    }

    /// Removes a replica (on a crash view change, §5.4): it "will therefore
    /// not be considered in the selection process for future requests".
    ///
    /// Returns the removed entry, if the replica was known.
    pub fn remove_replica(&mut self, id: ReplicaId) -> Option<ReplicaStats> {
        self.replicas.remove(&id)
    }

    /// Makes the entry for `id` a copy of `stats`, reusing the window
    /// buffers of the entry already held for it. This is the merge
    /// primitive for sharded ingestion: per-replica shards record into
    /// their own repositories, and a publisher copies the refreshed
    /// entries into the merged view it is about to publish — the view it
    /// published before, once nobody holds that any more.
    ///
    /// The insertion counter is advanced past the entry's epoch so a later
    /// [`InfoRepository::insert_replica`] can never mint a duplicate epoch.
    pub fn copy_stats(&mut self, id: ReplicaId, stats: &ReplicaStats) {
        self.next_epoch = self.next_epoch.max(stats.epoch());
        match self.replicas.get_mut(&id) {
            Some(held) => held.clone_from(stats),
            None => {
                self.replicas.insert(id, stats.clone());
            }
        }
    }

    /// Drops every replica for which `keep` returns `false`.
    pub fn retain_replicas(&mut self, mut keep: impl FnMut(ReplicaId) -> bool) {
        self.replicas.retain(|id, _| keep(*id));
    }

    /// Whether the repository has an entry for `id`.
    pub fn contains(&self, id: ReplicaId) -> bool {
        self.replicas.contains_key(&id)
    }

    /// Number of replicas currently known.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Returns `true` if no replicas are known.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica ids in deterministic (ascending) order.
    pub fn replica_ids(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        self.replicas.keys().copied()
    }

    /// The stats entry for one replica.
    pub fn stats(&self, id: ReplicaId) -> Option<&ReplicaStats> {
        self.replicas.get(&id)
    }

    /// Iterates over `(replica, stats)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ReplicaId, &ReplicaStats)> {
        self.replicas.iter().map(|(id, s)| (*id, s))
    }

    /// Like [`InfoRepository::iter`], but skips replicas on probation: the
    /// candidates a selection strategy may trust.
    pub fn selectable(&self) -> impl Iterator<Item = (ReplicaId, &ReplicaStats)> {
        self.iter().filter(|(_, s)| !s.is_on_probation())
    }

    /// The ids of replicas not on probation, in ascending order.
    pub fn selectable_ids(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        self.selectable().map(|(id, _)| id)
    }

    /// Records a performance report for `id` (ignored for unknown replicas,
    /// which can happen when an update races a crash view change).
    pub fn record_perf(&mut self, id: ReplicaId, report: PerfReport, now: Instant) {
        if let Some(stats) = self.replicas.get_mut(&id) {
            stats.record_perf(report, now);
        }
    }

    /// Records a measured two-way gateway-to-gateway delay for `id`.
    pub fn record_gateway_delay(&mut self, id: ReplicaId, delay: Duration, now: Instant) {
        if let Some(stats) = self.replicas.get_mut(&id) {
            stats.record_gateway_delay(delay, now);
        }
    }

    /// Returns `true` if every selectable replica has enough data for the
    /// model.
    ///
    /// The paper's handler multicasts to **all** replicas until performance
    /// updates have initialized the repository (§5.4.1); this predicate
    /// drives that cold-start rule. Replicas on probation are ignored: they
    /// are warmed by shadow traffic, not by falling back to full multicast.
    pub fn all_warm(&self) -> bool {
        let mut any = false;
        for (_, stats) in self.selectable() {
            if !stats.is_warm() {
                return false;
            }
            any = true;
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn report(ts: u64, tq: u64, qlen: u32) -> PerfReport {
        PerfReport::new(ms(ts), ms(tq), qlen)
    }

    #[test]
    fn insert_and_remove_replicas() {
        let mut repo = InfoRepository::new(3);
        let a = ReplicaId::new(1);
        let b = ReplicaId::new(2);
        assert!(repo.insert_replica(a));
        assert!(!repo.insert_replica(a), "double insert is idempotent");
        assert!(repo.insert_replica(b));
        assert_eq!(repo.len(), 2);
        assert!(repo.contains(a));
        assert!(repo.remove_replica(a).is_some());
        assert!(!repo.contains(a));
        assert!(repo.remove_replica(a).is_none());
    }

    #[test]
    fn perf_updates_fill_windows_and_queue_len() {
        let mut repo = InfoRepository::new(2);
        let r = ReplicaId::new(0);
        repo.insert_replica(r);
        let t = Instant::from_millis(10);
        repo.record_perf(r, report(100, 5, 3), t);
        repo.record_perf(r, report(110, 6, 2), t + ms(1));
        repo.record_perf(r, report(120, 7, 1), t + ms(2));
        let stats = repo.stats(r).unwrap();
        let hist = stats.history(MethodId::DEFAULT).unwrap();
        assert_eq!(
            hist.service_times().iter().copied().collect::<Vec<_>>(),
            vec![ms(110), ms(120)],
            "window of 2 keeps only the newest two"
        );
        assert_eq!(
            hist.queuing_delays().iter().copied().collect::<Vec<_>>(),
            vec![ms(6), ms(7)]
        );
        assert_eq!(stats.outstanding(), 1, "queue length is latest value");
        assert_eq!(stats.last_update(), Some(t + ms(2)));
    }

    #[test]
    fn gateway_delay_keeps_latest_and_history() {
        let mut repo = InfoRepository::new(3);
        let r = ReplicaId::new(0);
        repo.insert_replica(r);
        repo.record_gateway_delay(r, ms(4), Instant::EPOCH);
        repo.record_gateway_delay(r, ms(6), Instant::from_millis(1));
        let stats = repo.stats(r).unwrap();
        assert_eq!(stats.last_gateway_delay(), Some(ms(6)));
        assert_eq!(stats.gateway_delays().len(), 2);
    }

    #[test]
    fn warm_requires_perf_and_delay() {
        let mut repo = InfoRepository::new(2);
        let r = ReplicaId::new(0);
        repo.insert_replica(r);
        assert!(!repo.stats(r).unwrap().is_warm());
        repo.record_perf(r, report(100, 1, 0), Instant::EPOCH);
        assert!(!repo.stats(r).unwrap().is_warm(), "missing delay");
        repo.record_gateway_delay(r, ms(3), Instant::EPOCH);
        assert!(repo.stats(r).unwrap().is_warm());
        assert!(repo.all_warm());
    }

    #[test]
    fn all_warm_is_false_for_empty_repository() {
        let repo = InfoRepository::new(2);
        assert!(!repo.all_warm());
    }

    #[test]
    fn updates_for_unknown_replicas_are_dropped() {
        let mut repo = InfoRepository::new(2);
        let ghost = ReplicaId::new(9);
        repo.record_perf(ghost, report(1, 1, 1), Instant::EPOCH);
        repo.record_gateway_delay(ghost, ms(1), Instant::EPOCH);
        assert!(!repo.contains(ghost));
    }

    #[test]
    fn per_method_histories_are_separate() {
        let mut repo = InfoRepository::new(4);
        let r = ReplicaId::new(0);
        repo.insert_replica(r);
        let fast = MethodId::new(1);
        let slow = MethodId::new(2);
        repo.record_perf(r, report(10, 0, 0).with_method(fast), Instant::EPOCH);
        repo.record_perf(r, report(500, 0, 0).with_method(slow), Instant::EPOCH);
        let stats = repo.stats(r).unwrap();
        assert_eq!(stats.histories().count(), 2);
        assert_eq!(
            stats.history(fast).unwrap().service_times().latest(),
            Some(&ms(10))
        );
        assert_eq!(
            stats.history(slow).unwrap().service_times().latest(),
            Some(&ms(500))
        );
        assert!(stats.history(MethodId::DEFAULT).is_none());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = InfoRepository::new(0);
    }

    #[test]
    fn probation_clears_after_enough_fresh_samples() {
        let mut repo = InfoRepository::new(3);
        let r = ReplicaId::new(4);
        repo.set_probation(r, 3);
        assert!(repo.contains(r), "probation inserts unknown replicas");
        assert!(repo.stats(r).unwrap().is_on_probation());
        assert_eq!(repo.stats(r).unwrap().probation_remaining(), 3);
        assert_eq!(repo.selectable_ids().count(), 0);
        for i in 0..3 {
            repo.record_perf(r, report(50, 1, 0), Instant::from_millis(i));
        }
        assert!(!repo.stats(r).unwrap().is_on_probation());
        assert_eq!(repo.selectable_ids().collect::<Vec<_>>(), vec![r]);
    }

    #[test]
    fn probation_preserves_existing_entries_and_history() {
        let mut repo = InfoRepository::new(2);
        let r = ReplicaId::new(0);
        repo.insert_replica(r);
        repo.record_perf(r, report(10, 0, 0), Instant::EPOCH);
        repo.set_probation(r, 2);
        assert!(
            repo.stats(r).unwrap().history(MethodId::DEFAULT).is_some(),
            "probation does not wipe history"
        );
    }

    #[test]
    fn all_warm_ignores_probation_replicas() {
        let mut repo = InfoRepository::new(2);
        let a = ReplicaId::new(0);
        let b = ReplicaId::new(1);
        repo.insert_replica(a);
        repo.record_perf(a, report(10, 0, 0), Instant::EPOCH);
        repo.record_gateway_delay(a, ms(1), Instant::EPOCH);
        assert!(repo.all_warm());
        // A cold rejoiner on probation must not push the handler back into
        // full cold-start multicast…
        repo.set_probation(b, 5);
        assert!(repo.all_warm());
        // …but a repository with only probation entries is not warm.
        repo.remove_replica(a);
        assert!(!repo.all_warm());
    }

    #[test]
    fn generations_move_exactly_with_their_slot() {
        let mut repo = InfoRepository::new(3);
        let r = ReplicaId::new(0);
        repo.insert_replica(r);
        let (g_perf0, g_delay0) = {
            let s = repo.stats(r).unwrap();
            (s.perf_generation(), s.delay_generation())
        };
        repo.record_perf(r, report(10, 1, 0), Instant::EPOCH);
        {
            let s = repo.stats(r).unwrap();
            assert!(s.perf_generation() > g_perf0, "perf bumps perf slot");
            assert_eq!(s.delay_generation(), g_delay0, "perf leaves delay slot");
            assert_eq!(s.history(MethodId::DEFAULT).unwrap().generation(), 1);
        }
        let g_perf1 = repo.stats(r).unwrap().perf_generation();
        repo.record_gateway_delay(r, ms(2), Instant::EPOCH);
        {
            let s = repo.stats(r).unwrap();
            assert!(s.delay_generation() > g_delay0, "delay bumps delay slot");
            assert_eq!(s.perf_generation(), g_perf1, "delay leaves perf slot");
        }
        // A report for another method moves the per-replica perf slot but
        // not the first method's history generation.
        repo.record_perf(
            r,
            report(10, 1, 2).with_method(MethodId::new(7)),
            Instant::EPOCH,
        );
        let s = repo.stats(r).unwrap();
        assert!(s.perf_generation() > g_perf1);
        assert_eq!(s.history(MethodId::DEFAULT).unwrap().generation(), 1);
    }

    #[test]
    fn probation_transitions_bump_perf_generation() {
        let mut repo = InfoRepository::new(2);
        let r = ReplicaId::new(0);
        repo.insert_replica(r);
        let g0 = repo.stats(r).unwrap().perf_generation();
        repo.set_probation(r, 2);
        assert!(repo.stats(r).unwrap().perf_generation() > g0);
    }

    #[test]
    fn epoch_distinguishes_reinserted_replicas() {
        let mut repo = InfoRepository::new(2);
        let r = ReplicaId::new(3);
        repo.insert_replica(r);
        let first_epoch = repo.stats(r).unwrap().epoch();
        repo.remove_replica(r);
        repo.insert_replica(r);
        let second_epoch = repo.stats(r).unwrap().epoch();
        assert_ne!(
            first_epoch, second_epoch,
            "a re-added replica must not look like the entry it replaced"
        );
        // Probation-driven insertion of an unknown replica stamps one too.
        let p = ReplicaId::new(9);
        repo.set_probation(p, 1);
        assert!(repo.stats(p).unwrap().epoch() > second_epoch);
    }

    #[test]
    fn method_windows_expose_consistent_counts() {
        let mut repo = InfoRepository::new(4);
        let r = ReplicaId::new(0);
        repo.insert_replica(r);
        for ts in [10u64, 10, 20, 30, 30] {
            repo.record_perf(r, report(ts, 1, 0), Instant::EPOCH);
        }
        let hist = repo.stats(r).unwrap().history(MethodId::DEFAULT).unwrap();
        // Window of 4 keeps 10, 20, 30, 30; 1 ms buckets.
        assert_eq!(
            hist.service_window().bucket_counts().collect::<Vec<_>>(),
            vec![(10, 1), (20, 1), (30, 2)]
        );
        assert_eq!(
            hist.queuing_window().bucket_counts().collect::<Vec<_>>(),
            vec![(1, 4)]
        );
    }

    #[test]
    fn replica_ids_are_sorted() {
        let mut repo = InfoRepository::new(1);
        for i in [5u64, 1, 3] {
            repo.insert_replica(ReplicaId::new(i));
        }
        let ids: Vec<u64> = repo.replica_ids().map(ReplicaId::index).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }
}
