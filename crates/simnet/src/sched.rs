//! The hierarchical timer wheel behind [`World`](crate::World)'s event
//! queue.
//!
//! The simulator's old scheduler was a `BinaryHeap<(Time, seq)>`: one
//! `O(log n)` sift per insert and per pop, with every same-microsecond
//! event paying its own pop. The wheel replaces that with the classic
//! Varghese–Lauck hierarchy: [`LEVELS`] levels of [`SLOTS`] slots each,
//! where a level-`l` slot spans `64^l` microseconds, so the whole wheel
//! covers `64^6` µs (≈ 19 hours of simulated time) and everything beyond
//! that lives in a sorted overflow map until its frame comes around.
//! Insert is `O(1)` (a shift, a mask, a list link); expiry cascades an
//! event down at most `LEVELS - 1` times over its whole life; and a full
//! slot of same-microsecond events is drained as one *batch*, which is
//! exactly the "batched same-tick delivery" the run loop wants.
//!
//! # Determinism
//!
//! The wheel is a drop-in replacement for the heap *bit for bit*, not
//! just "equivalent on average". The heap's contract is: events pop in
//! `(at, seq)` order, where `seq` is the global insertion sequence. The
//! wheel preserves it exactly:
//!
//! - **Slot residency is unambiguous.** An event goes to the highest
//!   level `l` where its time's base-64 digit differs from the current
//!   time's (`level = ⌊log64(t ⊕ cur)⌋`). Because all digits *above* `l`
//!   match `cur`, a slot never mixes "this lap" with "next lap" events —
//!   the classic hashed-wheel ambiguity cannot arise, so the first
//!   occupied slot (bitmap `trailing_zeros`) at the lowest occupied
//!   level *is* the global minimum.
//! - **Same-tick batches are seq-sorted.** A level-0 slot holds events
//!   of one exact microsecond, but cascades can append out of insertion
//!   order, so each batch is sorted by `seq` before delivery — restoring
//!   precisely the heap's FIFO tie-break.
//! - **Late inserts slot into the live batch.** `next_at` (the run
//!   loop's peek) advances the wheel to the next occupied microsecond;
//!   if the caller then inserts an event *before* that horizon (e.g.
//!   `run_until` stopped early and test code pokes a process "now"),
//!   the insert binary-searches into the pending batch by `(at, seq)`
//!   instead of corrupting a level.
//!
//! `tests/sched_props.rs` checks the wheel against a `BinaryHeap` model
//! of that order; `tests/golden/chaos_hashes.txt` at the workspace root
//! was generated while a heap-scheduled world was asserted bit-identical
//! to this one, so it pins the order the heap gave.

/// Number of wheel levels; level `l` slots span `64^l` µs.
pub const LEVELS: usize = 6;
/// Slots per level. 64 = one `u64` occupancy bitmap per level.
pub const SLOTS: usize = 64;
/// log2(SLOTS): the per-level digit width in bits.
const SLOT_BITS: u32 = 6;
/// Mask for one base-64 digit.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Times at or beyond `cur`'s frame plus `64^LEVELS` µs overflow into
/// the sorted map.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// One popped entry: `(at, seq, item)`.
type Entry<T> = (u64, u64, T);

/// "No node": the end of a slot list or of the free list.
const NIL: u32 = u32::MAX;

/// One queued event in the slab. `next` threads the node onto exactly one
/// list at a time: its slot's list while it waits in a level, nothing
/// while it sits in the ready batch, the free list once popped.
struct Node<T> {
    at: u64,
    seq: u64,
    next: u32,
    /// `None` only while the node is on the free list.
    item: Option<T>,
}

/// A hierarchical timer wheel ordered by `(at, seq)` — a deterministic
/// priority queue specialised for simulation time.
///
/// `at` is an absolute microsecond timestamp; `seq` is the caller's
/// monotone insertion sequence and is the FIFO tie-break for events at
/// the same microsecond. Entries may be inserted at or after the last
/// popped timestamp (inserting into the past panics in debug builds and
/// is clamped into the current batch in release builds — the simulator
/// never does this).
///
/// # Memory
///
/// Every queued event lives in one slab (`nodes`); a slot is the head of
/// an intrusive singly-linked list through the slab, so an insert links a
/// node, a cascade *re*links it (the item never moves), and a pop returns
/// the node to a free list threaded through the same slab. Once the slab
/// and the ready batch have reached the run's high-water mark, the wheel
/// allocates nothing: its heap footprint is the live events, not a
/// buffer per occupied slot.
pub struct TimerWheel<T> {
    /// The slab: queued events and, threaded through `next`, free nodes.
    nodes: Vec<Node<T>>,
    /// Head of the free list.
    free: u32,
    /// `heads[l][s]`: list of the events whose base-64 digit `l` is `s`
    /// and whose digits above `l` all equal `cur`'s. List order is
    /// irrelevant — batches are seq-sorted when they become ready.
    heads: [[u32; SLOTS]; LEVELS],
    /// Per-level occupancy bitmaps (bit `s` ⇔ `heads[l][s]` non-empty).
    occ: [u64; LEVELS],
    /// Events at or beyond `cur`'s `64^LEVELS`-µs frame, ordered.
    overflow: std::collections::BTreeMap<(u64, u64), T>,
    /// The wheel's current time: every event with `at < cur` has been
    /// popped or sits in `batch`; every event in the levels has
    /// `at > cur`.
    cur: u64,
    /// Ready events as `(at, seq, node)`, sorted by `(at, seq)`
    /// **descending** so `pop` is a `Vec::pop` from the tail. Normally
    /// one exact microsecond's slot; below-horizon inserts splice in by
    /// binary search. The buffer persists across batches.
    batch: Vec<(u64, u64, u32)>,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel anchored at time 0.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            nodes: Vec::new(),
            free: NIL,
            heads: [[NIL; SLOTS]; LEVELS],
            occ: [0; LEVELS],
            overflow: std::collections::BTreeMap::new(),
            cur: 0,
            batch: Vec::new(),
            len: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `item` at `(at, seq)`.
    pub fn insert(&mut self, at: u64, seq: u64, item: T) {
        self.len += 1;
        if at > self.cur && (at >> WHEEL_BITS) != (self.cur >> WHEEL_BITS) {
            self.overflow.insert((at, seq), item);
            return;
        }
        let node = Node {
            at,
            seq,
            next: NIL,
            item: Some(item),
        };
        let idx = match self.free {
            NIL => {
                assert!(self.nodes.len() < NIL as usize, "timer wheel slab full");
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
            idx => {
                self.free = self.nodes[idx as usize].next;
                self.nodes[idx as usize] = node;
                idx
            }
        };
        self.link(idx);
    }

    /// Files node `idx` (off every list) where its time belongs relative
    /// to `cur`: the ready batch, or a level slot of the current frame.
    fn link(&mut self, idx: u32) {
        let (at, seq) = {
            let n = &self.nodes[idx as usize];
            (n.at, n.seq)
        };
        if at <= self.cur {
            // At or before the horizon (the wheel peeked ahead of the
            // caller's clock): the event belongs in the ready batch, in
            // `(at, seq)` position. The common case — an event armed
            // exactly at the batch's microsecond with the largest seq so
            // far — lands at the front of the descending batch.
            let pos = self.batch.partition_point(|&(a, s, _)| (a, s) > (at, seq));
            self.batch.insert(pos, (at, seq, idx));
            return;
        }
        debug_assert_eq!(at >> WHEEL_BITS, self.cur >> WHEEL_BITS);
        // Highest differing base-64 digit picks the level; because all
        // digits above it match `cur`, the slot is lap-unambiguous.
        let level = ((63 - (at ^ self.cur).leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((at >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.nodes[idx as usize].next = self.heads[level][slot];
        self.heads[level][slot] = idx;
        self.occ[level] |= 1 << slot;
    }

    /// The timestamp of the next event, or `None` if empty. Advances the
    /// wheel's internal horizon to that event (cascading as needed), but
    /// pops nothing.
    pub fn next_at(&mut self) -> Option<u64> {
        self.refill();
        self.batch.last().map(|&(at, _, _)| at)
    }

    /// Removes and returns the `(at, seq)`-minimal event.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        self.refill();
        let (at, seq, idx) = self.batch.pop()?;
        self.len -= 1;
        let node = &mut self.nodes[idx as usize];
        let item = node.item.take().expect("a batched node holds its item");
        node.next = self.free;
        self.free = idx;
        Some((at, seq, item))
    }

    /// Ensures `batch` holds the front of the queue: cascades upper
    /// levels down and drains the next due slot (or overflow frame)
    /// until the earliest events are batched, seq-sorted.
    fn refill(&mut self) {
        while self.batch.is_empty() {
            // The digit hierarchy totally orders the levels: every
            // level-l event precedes every level-(l+1) event, and all of
            // them precede the overflow. The lowest occupied level's
            // first occupied slot is therefore the global minimum.
            let Some(level) = self.occ.iter().position(|&b| b != 0) else {
                self.refill_from_overflow();
                return;
            };
            let slot = self.occ[level].trailing_zeros() as usize;
            self.occ[level] &= !(1 << slot);
            let mut idx = std::mem::replace(&mut self.heads[level][slot], NIL);
            let shift = SLOT_BITS * level as u32;
            // Advance to the slot's base: keep digits above `level`,
            // set digit `level` to `slot`, zero the rest.
            let frame = (self.cur >> (shift + SLOT_BITS)) << (shift + SLOT_BITS);
            self.cur = frame | ((slot as u64) << shift);
            if level == 0 {
                // One exact microsecond: this *is* the next batch.
                // Cascades may have linked out of insertion order, so
                // restore the heap's FIFO tie-break by seq.
                while idx != NIL {
                    let n = &self.nodes[idx as usize];
                    debug_assert_eq!(n.at, self.cur);
                    self.batch.push((n.at, n.seq, idx));
                    idx = n.next;
                }
                self.batch
                    .sort_unstable_by_key(|&(_, seq, _)| std::cmp::Reverse(seq));
                return;
            }
            // Cascade: re-bucket each event strictly below `level`
            // (its digit `level` now matches `cur`'s).
            while idx != NIL {
                let next = self.nodes[idx as usize].next;
                self.link(idx);
                idx = next;
            }
        }
    }

    /// All levels are empty: jump to the first overflow event and pull
    /// its whole `64^LEVELS`-µs frame back into the wheel.
    fn refill_from_overflow(&mut self) {
        let Some((&(at0, _), _)) = self.overflow.first_key_value() else {
            return;
        };
        self.cur = at0;
        let frame_end = ((at0 >> WHEEL_BITS) + 1) << WHEEL_BITS;
        let rest = self.overflow.split_off(&(frame_end, 0));
        let frame = std::mem::replace(&mut self.overflow, rest);
        self.len -= frame.len();
        for ((at, seq), item) in frame {
            // `at == cur` entries drop straight into the batch (the
            // insert path keeps it `(at, seq)`-descending), later ones
            // re-bucket into the levels.
            self.insert(at, seq, item);
        }
        debug_assert!(!self.batch.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the wheel, returning `(at, seq)` in pop order.
    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = w.pop() {
            out.push((at, seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        for (i, &at) in [50u64, 3, 3, 700, 50, 0].iter().enumerate() {
            w.insert(at, i as u64, 0);
        }
        assert_eq!(w.len(), 6);
        assert_eq!(
            drain(&mut w),
            vec![(0, 5), (3, 1), (3, 2), (50, 0), (50, 4), (700, 3)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn level_boundaries_and_overflow() {
        // One event per level boundary, plus deep overflow.
        let times = [
            1u64,
            63,
            64,
            4095,
            4096,
            262_143,
            262_144,
            16_777_216,
            1_073_741_824,
            68_719_476_735,          // last µs inside the wheel span
            68_719_476_736,          // first overflow frame
            3 * 68_719_476_736 + 17, // a later overflow frame
        ];
        let mut w = TimerWheel::new();
        for (i, &at) in times.iter().rev().enumerate() {
            w.insert(at, i as u64, 0);
        }
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(at, _)| at).collect();
        assert_eq!(order, times);
    }

    #[test]
    fn same_tick_batch_is_seq_fifo_across_cascade() {
        let mut w = TimerWheel::new();
        // 10_000 sits above level 0 initially (digit 1 differs), so it
        // cascades; 10_000 inserted *after* the horizon moves must still
        // interleave by seq.
        w.insert(10_000, 0, 0);
        w.insert(10_000, 2, 0);
        w.insert(500, 1, 0);
        assert_eq!(w.pop().map(|e| (e.0, e.1)), Some((500, 1)));
        w.insert(10_000, 3, 0);
        assert_eq!(drain(&mut w), vec![(10_000, 0), (10_000, 2), (10_000, 3)]);
    }

    #[test]
    fn insert_below_advanced_horizon_enters_batch() {
        let mut w = TimerWheel::new();
        w.insert(1_000, 0, 0);
        // Peek advances the horizon to 1_000...
        assert_eq!(w.next_at(), Some(1_000));
        // ...but a caller at simulated time 400 may still insert there.
        w.insert(400, 1, 0);
        w.insert(400, 2, 0);
        w.insert(1_000, 3, 0);
        assert_eq!(w.next_at(), Some(400));
        assert_eq!(
            drain(&mut w),
            vec![(400, 1), (400, 2), (1_000, 0), (1_000, 3)]
        );
    }

    #[test]
    fn interleaved_insert_pop_matches_a_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Deterministic xorshift; no external RNG in unit tests.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut wheel = TimerWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let (mut seq, mut now) = (0u64, 0u64);
        for round in 0..10_000 {
            let burst = (rnd() % 4) as usize + 1;
            for _ in 0..burst {
                // Mix near, far, and very-far (overflow) deadlines.
                let delay = match rnd() % 10 {
                    0..=5 => rnd() % 512,
                    6..=7 => rnd() % 5_000_000,
                    8 => rnd() % (1 << 38),
                    _ => (1 << 36) + rnd() % (1 << 40),
                };
                wheel.insert(now + delay, seq, 0);
                heap.push(Reverse((now + delay, seq)));
                seq += 1;
            }
            if round % 3 != 0 {
                for _ in 0..(rnd() % 3) {
                    let w = wheel.pop().map(|e| (e.0, e.1));
                    let h = heap.pop().map(|Reverse(e)| e);
                    assert_eq!(w, h);
                    if let Some((at, _)) = w {
                        now = at;
                    }
                }
            }
        }
        loop {
            let w = wheel.pop().map(|e| (e.0, e.1));
            let h = heap.pop().map(|Reverse(e)| e);
            assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
    }
}
