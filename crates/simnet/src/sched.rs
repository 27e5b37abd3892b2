//! The event queue behind [`World`](crate::World): a binary heap on
//! `(at, seq)`.
//!
//! `at` is an absolute microsecond timestamp and `seq` the world's
//! monotone insertion sequence, so events pop in time order and events of
//! one microsecond pop in the order they were queued. That total order is
//! the simulator's determinism contract: same seed, same event order, same
//! trace. An event may be queued at any time not earlier than the last
//! pop — before a time [`EventQueue::next_at`] has only peeked at, too (a
//! driver that stopped short of the next event may queue one "now") —
//! and queueing one earlier panics, because it would run the simulated
//! clock backwards.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One queued event, ordered by `(at, seq)` alone.
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic priority queue of events, smallest `(at, seq)` first.
///
/// Its buffer keeps its capacity, so once a run has reached its
/// high-water mark of queued events the queue allocates nothing.
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    /// The time of the last pop; no event may be queued before it.
    popped: u64,
}

/// The queue's former name, kept for callers that still use it.
pub type TimerWheel<T> = EventQueue<T>;

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue at time 0.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
            popped: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queues `item` at `(at, seq)`.
    ///
    /// # Panics
    ///
    /// If `at` is earlier than the last popped event's time.
    pub fn insert(&mut self, at: u64, seq: u64, item: T) {
        assert!(
            at >= self.popped,
            "event queued at {at} µs, before the last pop at {} µs",
            self.popped
        );
        self.heap.push(Reverse(Entry { at, seq, item }));
    }

    /// The timestamp of the next event, or `None` if empty.
    pub fn next_at(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Removes and returns the `(at, seq)`-minimal event as
    /// `(at, seq, item)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        let Reverse(Entry { at, seq, item }) = self.heap.pop()?;
        self.popped = at;
        Some((at, seq, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the queue, returning `(at, seq, item)` in pop order.
    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u64, u32)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        for (i, &at) in [50u64, 3, 3, 700, 50, 0].iter().enumerate() {
            q.insert(at, i as u64, 10 * i as u32);
        }
        assert_eq!(q.len(), 6);
        assert_eq!(
            drain(&mut q),
            vec![
                (0, 5, 50),
                (3, 1, 10),
                (3, 2, 20),
                (50, 0, 0),
                (50, 4, 40),
                (700, 3, 30)
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn insert_before_a_peeked_time_pops_first() {
        let mut q = EventQueue::new();
        q.insert(1_000, 0, 0);
        assert_eq!(q.next_at(), Some(1_000));
        // A caller at simulated time 400 may still insert there.
        q.insert(400, 1, 1);
        q.insert(400, 2, 2);
        q.insert(1_000, 3, 3);
        assert_eq!(q.next_at(), Some(400));
        assert_eq!(
            drain(&mut q),
            vec![(400, 1, 1), (400, 2, 2), (1_000, 0, 0), (1_000, 3, 3)]
        );
    }

    #[test]
    #[should_panic(expected = "before the last pop")]
    fn insert_before_the_last_pop_panics() {
        let mut q = EventQueue::new();
        q.insert(1_000, 0, 0);
        q.pop();
        q.insert(1_000, 1, 1); // The popped microsecond is still legal...
        q.insert(999, 2, 2); // ...the one before it is not.
    }
}
