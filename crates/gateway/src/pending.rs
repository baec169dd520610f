//! The handler's pending-request table: sequence number → entry, trimmed
//! in constant time per insert.
//!
//! An answered entry stays in the table for a while so that a late
//! duplicate reply classifies as [`crate::ReplyOutcome::Redundant`] rather
//! than [`crate::ReplyOutcome::Unknown`]; entries among the last
//! [`KEEP_RECENT`] sequence numbers are never trimmed. Beside the map the
//! table keeps its seqs in insertion order, and every insert looks at a
//! fixed number of them at the front: one older than the cutoff is
//! dropped if its entry is answered (or already gone), and moved to the
//! back if it is still open. Open entries are never dropped here — only
//! their owner (a reply, give-up, abandon or sibling retire) removes them.
//!
//! Trimming on insert rather than on a redundant reply bounds the table
//! however a request is answered: a one-replica group or a `k = 1`
//! strategy never sends a redundant reply at all.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Answered entries among the most recent `KEEP_RECENT` sequence numbers
/// are kept for duplicate classification.
pub(crate) const KEEP_RECENT: u64 = 1024;

/// Front entries examined per insert. More than one, so the insertion
/// order shrinks whenever its front has aged out.
const TRIM_PER_INSERT: usize = 2;

/// What the trim needs to know about an entry.
pub(crate) trait Answered {
    /// Whether the request was resolved (delivered or given up).
    fn is_answered(&self) -> bool;
}

/// A pending-request table (see the module docs).
#[derive(Debug)]
pub(crate) struct PendingTable<E> {
    entries: HashMap<u64, E>,
    /// Every seq inserted and not yet trimmed, oldest first except for
    /// open entries moved to the back. May name seqs whose entries were
    /// removed since; the trim skips those.
    order: VecDeque<u64>,
}

impl<E> Default for PendingTable<E> {
    fn default() -> Self {
        PendingTable {
            entries: HashMap::new(),
            order: VecDeque::new(),
        }
    }
}

impl<E: Answered> PendingTable<E> {
    /// Inserts the entry of attempt `seq`, then trims the front of the
    /// table against `seq`'s cutoff: every entry among the
    /// [`KEEP_RECENT`] seqs up to and including `seq` is kept.
    pub(crate) fn insert(&mut self, seq: u64, entry: E) {
        self.entries.insert(seq, entry);
        self.order.push_back(seq);
        let cutoff = (seq + 1).saturating_sub(KEEP_RECENT);
        for _ in 0..TRIM_PER_INSERT {
            match self.order.front() {
                Some(&front) if front < cutoff => {
                    self.order.pop_front();
                    if let Entry::Occupied(entry) = self.entries.entry(front) {
                        if entry.get().is_answered() {
                            entry.remove();
                        } else {
                            self.order.push_back(front);
                        }
                    }
                }
                _ => return,
            }
        }
    }
}

impl<E> PendingTable<E> {
    pub(crate) fn get(&self, seq: u64) -> Option<&E> {
        self.entries.get(&seq)
    }

    /// Removes an entry; its seq leaves the insertion order at a later
    /// trim.
    pub(crate) fn remove(&mut self, seq: u64) -> Option<E> {
        self.entries.remove(&seq)
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &E> {
        self.entries.values()
    }

    /// Entries held, answered or not.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConcurrentHandler, ReplyOutcome};
    use aqua_core::qos::{QosSpec, ReplicaId};
    use aqua_core::repository::PerfReport;
    use aqua_core::time::{Duration, Instant};
    use aqua_strategies::{ModelBased, SelectionStrategy, StaticK};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// How far past [`KEEP_RECENT`] the handler's table may run: each of
    /// its 16 shards trims only on its own inserts, so the whole table can
    /// lag by one shard's share of the window.
    const SLACK: usize = KEEP_RECENT as usize / 16;

    impl Answered for bool {
        fn is_answered(&self) -> bool {
            *self
        }
    }

    #[test]
    fn trims_answered_entries_past_the_window_and_keeps_open_ones() {
        let mut table = PendingTable::default();
        // Seq 0 stays open, seq 1 is removed by its owner, the rest are
        // answered.
        table.insert(0, false);
        table.insert(1, true);
        table.remove(1);
        for seq in 2..3 * KEEP_RECENT {
            table.insert(seq, true);
        }
        assert_eq!(table.len(), KEEP_RECENT as usize + 1);
        assert!(table.get(0).is_some(), "an open entry is never trimmed");
        for seq in 2 * KEEP_RECENT..3 * KEEP_RECENT {
            assert!(table.get(seq).is_some(), "seq {seq} is in the window");
        }
        // Its insertion order holds the window plus the open entry moved
        // to the back.
        assert_eq!(table.order.len(), KEEP_RECENT as usize + 1);
    }

    /// The leak a trim on redundant replies alone left: a request
    /// answered by its only reply was never freed.
    #[test]
    fn a_single_replica_handler_keeps_a_bounded_pending_table() {
        let handler = with_replicas(Box::new(ModelBased::default()), 1);
        for call in 0..20_000 {
            let now = Instant::from_nanos(call * 10_000);
            let plan = handler.plan_request(now);
            assert_eq!(plan.replicas.as_ref(), [ReplicaId::new(0)]);
            let out = handler.on_reply(now, plan.seq, plan.replicas[0], report());
            assert!(matches!(out, ReplyOutcome::Deliver { .. }));
        }
        assert_eq!(handler.pending_count(), 0);
        let entries = handler.tracked_entries();
        let bound = KEEP_RECENT as usize + SLACK;
        assert!(entries <= bound, "the handler holds {entries} entries");
    }

    fn with_replicas(strategy: Box<dyn SelectionStrategy>, replicas: u64) -> ConcurrentHandler {
        let qos = QosSpec::new(Duration::from_millis(200), 0.9).unwrap();
        let h = ConcurrentHandler::new(qos, 5, strategy);
        for r in 0..replicas {
            h.insert_replica(Instant::EPOCH, ReplicaId::new(r));
        }
        h
    }

    fn report() -> PerfReport {
        PerfReport::new(Duration::from_millis(20), Duration::ZERO, 0)
    }

    /// What the table must say about one attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum State {
        /// Awaiting its first reply: a reply delivers.
        Open,
        /// Resolved with its entry in place: a reply is redundant.
        Answered,
        /// Gone: a reply is unknown.
        Removed,
    }

    struct Attempt {
        state: State,
        replicas: Vec<ReplicaId>,
        /// The seq of the logical request's first attempt.
        origin: u64,
    }

    /// The protocol the handler runs, without any trimming.
    #[derive(Default)]
    struct Model {
        attempts: BTreeMap<u64, Attempt>,
        /// Every attempt of a logical request, by its origin.
        groups: BTreeMap<u64, Vec<u64>>,
        open: usize,
        next: u64,
    }

    impl Model {
        fn state(&self, seq: u64) -> State {
            self.attempts.get(&seq).map_or(State::Removed, |a| a.state)
        }

        fn add(&mut self, seq: u64, replicas: Vec<ReplicaId>, origin: u64) {
            let state = State::Open;
            self.attempts.insert(
                seq,
                Attempt {
                    state,
                    replicas,
                    origin,
                },
            );
            self.groups.entry(origin).or_default().push(seq);
            self.open += 1;
            self.next = seq + 1;
        }

        fn set(&mut self, seq: u64, state: State) {
            let attempt = self.attempts.get_mut(&seq).unwrap();
            self.open -= usize::from(attempt.state == State::Open);
            self.open += usize::from(state == State::Open);
            attempt.state = state;
        }

        /// Resolves the logical request of open attempt `seq`: every open
        /// attempt's entry goes, except a delivering one's, which stays to
        /// classify duplicates.
        fn resolve(&mut self, seq: u64, delivered: bool) {
            let origin = self.attempts[&seq].origin;
            for attempt in self.groups[&origin].clone() {
                if self.state(attempt) == State::Open {
                    self.set(attempt, State::Removed);
                }
            }
            if delivered {
                self.set(seq, State::Answered);
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Plan `n` requests; request `i` is answered by the replicas
        /// whose bit is set in `replies[i % 4]` (none: it stays open).
        Burst {
            n: u64,
            replies: [u8; 4],
        },
        /// Reply from the `k`-th selected replica of the attempt `back`
        /// seqs before the newest.
        Reply {
            back: u64,
            k: usize,
        },
        /// Give-up through the `k`-th attempt of the request of the
        /// attempt `back` seqs before the newest.
        GiveUp {
            back: u64,
            k: usize,
        },
        Abandon {
            back: u64,
        },
        Retry {
            back: u64,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        // `back` reaches past the window on purpose, and straddles its
        // edge often.
        let edge = KEEP_RECENT - 8..KEEP_RECENT + 8;
        let back = move || prop_oneof![0u64..64, edge.clone(), 0u64..2_500];
        prop_oneof![
            3 => (1u64..80, any::<u32>())
                .prop_map(|(n, bits)| Op::Burst { n, replies: bits.to_le_bytes() }),
            4 => (back(), 0usize..3).prop_map(|(back, k)| Op::Reply { back, k }),
            1 => (back(), 0usize..3).prop_map(|(back, k)| Op::GiveUp { back, k }),
            1 => back().prop_map(|back| Op::Abandon { back }),
            2 => back().prop_map(|back| Op::Retry { back }),
        ]
    }

    /// Sends one reply to `handler` and checks it against `model`.
    fn reply(
        handler: &ConcurrentHandler,
        model: &mut Model,
        now: Instant,
        seq: u64,
        replica: ReplicaId,
    ) -> Result<(), TestCaseError> {
        let out = handler.on_reply(now, seq, replica, report());
        let expected = match model.state(seq) {
            State::Open => {
                prop_assert!(
                    matches!(out, ReplyOutcome::Deliver { .. }),
                    "open attempt {seq} must deliver, got {out:?}"
                );
                model.resolve(seq, true);
                return Ok(());
            }
            State::Answered => ReplyOutcome::Redundant,
            State::Removed => ReplyOutcome::Unknown,
        };
        if out != expected {
            // Only an answered entry older than the window may have been
            // trimmed.
            prop_assert!(
                seq + KEEP_RECENT < model.next
                    && expected == ReplyOutcome::Redundant
                    && out == ReplyOutcome::Unknown,
                "reply to seq {seq} (next {}): expected {expected:?}, got {out:?}",
                model.next
            );
            model.set(seq, State::Removed);
        }
        Ok(())
    }

    /// Drives `ops`, cycling until more than two windows of seqs were
    /// planned, through the handler and the model side by side.
    fn check(k: usize, ops: &[Op]) -> Result<(), TestCaseError> {
        let handler = with_replicas(Box::new(StaticK { k }), 4);
        let plan = |now| {
            let plan = handler.plan_request(now);
            (plan.seq, plan.replicas.to_vec())
        };
        let mut model = Model::default();
        let mut now = Instant::EPOCH;
        let mut max_open = 0;
        while model.next <= 2 * KEEP_RECENT + 100 {
            for op in ops {
                now += Duration::from_micros(10);
                let target = |back: u64| model.next.checked_sub(back + 1);
                match *op {
                    Op::Burst { n, replies } => {
                        for i in 0..n {
                            let (seq, replicas) = plan(now);
                            model.add(seq, replicas.clone(), seq);
                            for (k, replica) in replicas.into_iter().enumerate() {
                                if replies[(i % 4) as usize] & (1 << k) != 0 {
                                    reply(&handler, &mut model, now, seq, replica)?;
                                }
                            }
                        }
                    }
                    Op::Reply { back, k } => {
                        let Some(seq) = target(back) else { continue };
                        let Some(&replica) = model.attempts[&seq].replicas.get(k) else {
                            continue;
                        };
                        reply(&handler, &mut model, now, seq, replica)?;
                    }
                    Op::GiveUp { back, k } => {
                        let Some(target) = target(back) else { continue };
                        let attempts = &model.groups[&model.attempts[&target].origin];
                        let seq = attempts[k % attempts.len()];
                        let open = model.state(seq) == State::Open;
                        prop_assert_eq!(handler.on_give_up(now, seq), open, "give-up of {}", seq);
                        if open {
                            model.resolve(seq, false);
                        }
                    }
                    Op::Abandon { back } => {
                        let Some(seq) = target(back) else { continue };
                        let open = model.state(seq) == State::Open;
                        prop_assert_eq!(handler.on_abandon(now, seq), open, "abandon of {}", seq);
                        if open {
                            model.set(seq, State::Removed);
                        }
                    }
                    Op::Retry { back } => {
                        let Some(seq) = target(back) else { continue };
                        let retried = handler.plan_retry(now, seq);
                        if model.state(seq) != State::Open {
                            prop_assert!(retried.is_none(), "retry of resolved seq {seq}");
                        }
                        if let Some(retry) = retried {
                            let origin = model.attempts[&seq].origin;
                            model.add(retry.seq, retry.replicas.to_vec(), origin);
                        }
                    }
                }
                prop_assert_eq!(handler.pending_count(), model.open, "open attempts");
                max_open = max_open.max(model.open);
                // The table holds the window, the open attempts, and
                // resolved entries no trim has reached yet. Two front
                // entries examined per insert keep the last below a small
                // multiple of the open ones (DESIGN.md §12).
                prop_assert!(
                    handler.tracked_entries() <= KEEP_RECENT as usize + SLACK + 3 * max_open,
                    "table holds {} entries, at most {} were open at once",
                    handler.tracked_entries(),
                    max_open
                );
            }
            // Progress even when the ops plan nothing.
            let (seq, replicas) = plan(now);
            model.add(seq, replicas, seq);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Trimming on insert changes nothing a reply to one of the last
        /// `KEEP_RECENT` seqs can see, never drops an open entry, and
        /// keeps the table bounded, at every redundancy the selection
        /// may use.
        #[test]
        fn trimming_on_insert_keeps_the_reply_protocol(
            ops in prop::collection::vec(op(), 1..40),
            k in 1usize..=3,
        ) {
            check(k, &ops)?;
        }
    }
}
