//! The receiving half of a message exchange (§4.2.2).
//!
//! The receiver queues incoming segments by position and tracks an
//! acknowledgment number: the highest segment number received with no
//! gaps before it. When a segment carries *please ack* an explicit
//! acknowledgment is produced; when an out-of-order arrival reveals a
//! gap, an immediate acknowledgment prompts the sender to retransmit the
//! first lost segment (§4.2.4).

use crate::segment::{MsgType, Segment};
use simnet::Payload;

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
}

impl MsgReceiver {
    /// Starts assembling the message that `first` belongs to.
    pub fn new(first: &Segment) -> MsgReceiver {
        MsgReceiver {
            msg_type: first.header.msg_type,
            call_number: first.header.call_number,
            total: first.header.total,
            slots: vec![None; first.header.total as usize],
            ack_number: 0,
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
        self.slots[self.ack_number as usize..]
            .iter()
            .filter(|s| s.is_some())
            .count()
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
    pub fn assemble(mut self) -> Payload {
        assert!(self.complete(), "assembling an incomplete message");
        if self.slots.len() == 1 {
            return self.slots[0]
                .take()
                .expect("complete message has all slots");
        }
        fn part(slot: &Option<Payload>) -> &[u8] {
            slot.as_deref().expect("complete message has all slots")
        }
        let len = self.slots.iter().map(|s| part(s).len()).sum();
        Payload::build(len, |out| {
            let mut at = 0;
            for slot in &self.slots {
                let bytes = part(slot);
                out[at..at + bytes.len()].copy_from_slice(bytes);
                at += bytes.len();
            }
        })
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
}
