//! The receiving half of a message exchange (§4.2.2).
//!
//! The receiver queues incoming segments by position and tracks an
//! acknowledgment number: the highest segment number received with no
//! gaps before it. When a segment carries *please ack* an explicit
//! acknowledgment is produced; when an out-of-order arrival reveals a
//! gap, an immediate acknowledgment prompts the sender to retransmit the
//! first lost segment (§4.2.4).

use std::cell::RefCell;

use crate::segment::{MsgType, Segment};
use simnet::Payload;

/// The most slots (512 bytes) of a receiver's vector kept for a later
/// one: a message of up to 16 segments, 23 KiB at the default grain, is
/// assembled in a vector an earlier one left.
const SPARE_SLOTS: usize = 16;

/// The most such vectors kept: as many multi-segment messages as a
/// thread assembles at once (the members of a troupe a bulk call was
/// multicast to, its returns at the caller) take no vector of their own.
const SPARE_VECTORS: usize = 8;

thread_local! {
    /// Emptied slot vectors of receivers this thread dropped, for the
    /// next to take: a buffer, not state (nothing reads what they held),
    /// of at most [`SPARE_VECTORS`] × [`SPARE_SLOTS`] slots, 4 KiB. A
    /// hostile 255-segment message leaves nothing behind.
    static SPARE: RefCell<Vec<Vec<Option<Payload>>>> = const { RefCell::new(Vec::new()) };
}

/// What the receiver wants done after absorbing a segment.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RecvActions {
    /// Send an explicit acknowledgment with the current ack number.
    pub send_ack: bool,
    /// The message just completed (all segments present).
    pub completed: bool,
}

/// State machine assembling one incoming message.
#[derive(Debug)]
pub struct MsgReceiver {
    msg_type: MsgType,
    call_number: u32,
    total: u8,
    /// Segment payloads by index (`segment number - 1`); each is a shared
    /// window into the datagram it arrived in.
    slots: Vec<Option<Payload>>,
    /// Highest consecutive segment number received.
    ack_number: u8,
    /// Segments received, the consecutive prefix included.
    received: u8,
}

impl MsgReceiver {
    /// Starts assembling the message that `first` belongs to, in a slot
    /// vector a receiver dropped on this thread left, if there is one.
    pub fn new(first: &Segment) -> MsgReceiver {
        let mut slots = SPARE.with_borrow_mut(Vec::pop).unwrap_or_default();
        slots.resize(usize::from(first.header.total), None);
        MsgReceiver {
            msg_type: first.header.msg_type,
            call_number: first.header.call_number,
            total: first.header.total,
            slots,
            ack_number: 0,
            received: 0,
        }
    }

    /// Total segments expected.
    pub fn total(&self) -> u8 {
        self.total
    }

    /// Current acknowledgment number (all segments `<=` it received).
    pub fn ack_number(&self) -> u8 {
        self.ack_number
    }

    /// `true` once every segment is present.
    pub fn complete(&self) -> bool {
        self.ack_number == self.total
    }

    /// Number of segments buffered beyond the consecutive prefix — the
    /// out-of-order buffering the PARC discipline bounds to zero
    /// (§4.2.5).
    pub fn buffered_out_of_order(&self) -> usize {
        usize::from(self.received - self.ack_number)
    }

    /// Absorbs one data segment of this message.
    pub fn on_segment(&mut self, seg: &Segment) -> RecvActions {
        let mut actions = RecvActions::default();
        debug_assert!(seg.is_data());
        debug_assert_eq!(seg.header.call_number, self.call_number);
        // Segment numbers are 1-based (§4.2.1); zero never occurs in a
        // well-formed segment, and subtracting from it below would
        // underflow. `Segment::decode` rejects it on the wire, but this
        // entry point also takes pre-built segments — a hostile or
        // corrupted one must not take the node down.
        if seg.header.number == 0 {
            return actions;
        }
        let idx = seg.header.number as usize - 1;
        if idx >= self.slots.len() {
            // Inconsistent total; ignore the segment.
            return actions;
        }
        let was_complete = self.complete();
        if self.slots[idx].is_none() {
            self.slots[idx] = Some(seg.data.clone());
            self.received += 1;
            // Advance the ack number over any newly-filled prefix.
            while (self.ack_number as usize) < self.slots.len()
                && self.slots[self.ack_number as usize].is_some()
            {
                self.ack_number += 1;
            }
        }
        if self.complete() && !was_complete {
            actions.completed = true;
        }
        // An out-of-order arrival (gap before this segment) triggers an
        // immediate ack so the sender retransmits the first lost segment.
        let gap = !self.complete() && seg.header.number > self.ack_number + 1;
        if seg.header.please_ack || gap {
            actions.send_ack = true;
        }
        actions
    }

    /// Builds the explicit acknowledgment for the current state.
    pub fn make_ack(&self) -> Segment {
        Segment::ack(self.msg_type, self.call_number, self.total, self.ack_number)
    }

    /// Consumes the receiver, yielding the assembled message bytes. A
    /// single-segment message (the common case) is returned as the
    /// received window itself — no copy; multi-segment messages
    /// concatenate once, straight into the result's one allocation.
    ///
    /// # Panics
    ///
    /// Panics if the message is not complete; callers must check
    /// [`MsgReceiver::complete`] first.
    pub fn assemble(self) -> Payload {
        assert!(self.complete(), "assembling an incomplete message");
        fn part(slot: &Option<Payload>) -> &Payload {
            slot.as_ref().expect("complete message has all slots")
        }
        match self.slots.as_slice() {
            [only] => part(only).clone(),
            slots => {
                let len = slots.iter().map(|s| part(s).len()).sum();
                Payload::build(len, |out| {
                    let mut at = 0;
                    for slot in slots {
                        let bytes = part(slot);
                        out[at..at + bytes.len()].copy_from_slice(bytes);
                        at += bytes.len();
                    }
                })
            }
        }
    }
}

/// Leaves the slot vector, emptied, for a later receiver on this thread,
/// within the bounds of [`SPARE`].
impl Drop for MsgReceiver {
    fn drop(&mut self) {
        if self.slots.capacity() > SPARE_SLOTS {
            return;
        }
        // `try_with`: a receiver dropped while the thread exits keeps its
        // vector rather than panic in `drop`.
        let _ = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.len() < SPARE_VECTORS {
                self.slots.clear();
                spare.push(std::mem::take(&mut self.slots));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(n: u8, total: u8, please_ack: bool, data: &[u8]) -> Segment {
        Segment::data(MsgType::Call, 7, 0, total, n, please_ack, data.to_vec())
    }

    #[test]
    fn single_segment_completes_immediately() {
        let s = seg(1, 1, false, b"hi");
        let mut r = MsgReceiver::new(&s);
        let a = r.on_segment(&s);
        assert!(a.completed);
        assert!(!a.send_ack);
        assert_eq!(r.ack_number(), 1);
        assert_eq!(r.assemble(), b"hi");
    }

    #[test]
    fn in_order_assembly() {
        let parts = [
            seg(1, 3, false, b"ab"),
            seg(2, 3, false, b"cd"),
            seg(3, 3, false, b"e"),
        ];
        let mut r = MsgReceiver::new(&parts[0]);
        assert!(!r.on_segment(&parts[0]).completed);
        assert!(!r.on_segment(&parts[1]).completed);
        assert!(r.on_segment(&parts[2]).completed);
        assert_eq!(r.assemble(), b"abcde");
    }

    #[test]
    fn out_of_order_assembly_and_gap_ack() {
        let mut r = MsgReceiver::new(&seg(1, 3, false, b""));
        // Segment 3 arrives first: gap detected, ack demanded.
        let a = r.on_segment(&seg(3, 3, false, b"e"));
        assert!(a.send_ack && !a.completed);
        assert_eq!(r.ack_number(), 0);
        r.on_segment(&seg(1, 3, false, b"ab"));
        assert_eq!(r.ack_number(), 1);
        let a = r.on_segment(&seg(2, 3, false, b"cd"));
        assert!(a.completed);
        assert_eq!(r.ack_number(), 3);
        assert_eq!(r.assemble(), b"abcde");
    }

    #[test]
    fn duplicate_segment_harmless() {
        let mut r = MsgReceiver::new(&seg(1, 2, false, b""));
        r.on_segment(&seg(1, 2, false, b"ab"));
        let a = r.on_segment(&seg(1, 2, false, b"ab"));
        assert!(!a.completed);
        r.on_segment(&seg(2, 2, false, b"cd"));
        assert_eq!(r.assemble(), b"abcd");
    }

    #[test]
    fn please_ack_honored() {
        let mut r = MsgReceiver::new(&seg(1, 2, true, b""));
        let a = r.on_segment(&seg(1, 2, true, b"ab"));
        assert!(a.send_ack);
        let ack = r.make_ack();
        assert!(ack.header.ack);
        assert_eq!(ack.header.number, 1);
        assert_eq!(ack.header.total, 2);
    }

    #[test]
    fn completion_reported_once() {
        let mut r = MsgReceiver::new(&seg(1, 1, false, b""));
        assert!(r.on_segment(&seg(1, 1, false, b"x")).completed);
        assert!(!r.on_segment(&seg(1, 1, false, b"x")).completed);
    }

    #[test]
    fn zero_segment_number_rejected() {
        // `Segment::decode` refuses number == 0, but `on_segment` is also
        // reachable with pre-built segments; before the guard this
        // underflowed `number - 1` and panicked debug builds.
        let mut r = MsgReceiver::new(&seg(1, 2, false, b""));
        let hostile = Segment::data(MsgType::Call, 7, 0, 2, 0, true, b"zz".to_vec());
        let a = r.on_segment(&hostile);
        assert_eq!(a, RecvActions::default());
        assert_eq!(r.ack_number(), 0);
    }

    #[test]
    fn inconsistent_total_ignored() {
        let mut r = MsgReceiver::new(&seg(1, 2, false, b""));
        // A hostile segment claiming number 3 of 3 in a 2-segment message.
        let bad = Segment::data(MsgType::Call, 7, 0, 3, 3, false, b"zz".to_vec());
        let a = r.on_segment(&bad);
        assert_eq!(a, RecvActions::default());
    }

    /// Out-of-order buffering is counted as segments arrive: the
    /// segments held past the consecutive prefix, duplicates once.
    #[test]
    fn buffered_out_of_order_counts_the_segments_past_the_prefix() {
        let mut r = MsgReceiver::new(&seg(1, 5, false, b""));
        for (n, buffered) in [(3, 1), (5, 2), (3, 2), (1, 2), (2, 1), (4, 0)] {
            r.on_segment(&seg(n, 5, false, b"x"));
            assert_eq!(r.buffered_out_of_order(), buffered, "after {n}");
        }
        assert!(r.complete());
    }

    /// A receiver leaves its slot vector, emptied, to a later one on its
    /// thread, within the bounds: `SPARE_VECTORS` of `SPARE_SLOTS` slots.
    #[test]
    fn a_dropped_receiver_leaves_its_slot_vector_to_the_next() {
        let mut r = MsgReceiver::new(&seg(1, 6, false, b""));
        for n in 1..=6 {
            r.on_segment(&seg(n, 6, false, b"ab"));
        }
        let buffer = r.slots.as_ptr();
        assert_eq!(r.assemble(), b"abababababab");
        let r = MsgReceiver::new(&seg(1, 5, false, b""));
        assert_eq!(
            (r.slots.len(), r.slots.as_ptr()),
            (5, buffer),
            "the same vector"
        );
        drop(r);
        drop(MsgReceiver::new(&seg(1, 255, false, b"")));
        assert!(SPARE.with_borrow(Vec::is_empty), "255 slots are not kept");
        let open: Vec<MsgReceiver> = (0..10)
            .map(|_| MsgReceiver::new(&seg(1, 2, false, b"")))
            .collect();
        drop(open);
        assert_eq!(SPARE.with_borrow(Vec::len), SPARE_VECTORS);
    }
}
