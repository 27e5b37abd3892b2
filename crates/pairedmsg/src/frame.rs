//! A message laid out as its datagrams.
//!
//! [`Config::frame`](crate::Config::frame) copies a message into one
//! buffer that holds [`HEADER_LEN`] bytes of room in front of each
//! `max_segment_data`-byte chunk of it (the last chunk may be short):
//!
//! ```text
//! | room 1 | chunk 1 | room 2 | chunk 2 | ... | room k | chunk k |
//! ```
//!
//! Once segment `n`'s header is in room `n`, its datagram is a window of
//! that buffer. A sender puts it there with [`Payload::stamp`]: the only
//! handle on the buffer writes it, and a handle other senders share
//! succeeds only where the room holds exactly that header already, as it
//! does for every peer sent the message at the same call number. Only a
//! datagram whose header differs — a *please ack* retransmission, a peer
//! at another call number — is still copied, by [`Segment::encode`]. A
//! datagram handed out is shared, so its room is never written again.
//!
//! An empty message is one segment of room alone; a message whose framed
//! form fits [`Payload::INLINE`] bytes (up to 14 bytes of message) is held
//! in place, and so is each datagram cut from it.
//!
//! [`Segment::encode`]: crate::Segment::encode

use std::ops::Range;

use crate::segment::{SegmentHeader, HEADER_LEN, MAX_SEGMENTS};
use crate::sender::SendError;
use simnet::Payload;

/// A message in its framed layout (module docs): the form every sender
/// cuts, so that a plain message can never be cut as a framed one.
/// Cloning it shares the buffer.
#[derive(Clone, Debug)]
pub struct Framed {
    /// Room and chunk after room and chunk.
    bytes: Payload,
    /// Data bytes in every segment but the last.
    chunk: usize,
}

/// The empty message, framed: one segment of room alone, held in place.
impl Default for Framed {
    fn default() -> Framed {
        Framed::new(1, &[])
    }
}

impl Framed {
    /// Frames `message` in `chunk`-byte segments: its one copy.
    pub(crate) fn new(chunk: usize, message: &[u8]) -> Framed {
        let chunk = chunk.max(1);
        let total = message.len().div_ceil(chunk).max(1);
        let bytes = Payload::build(total * HEADER_LEN + message.len(), |out| {
            let datagrams = out.chunks_mut(HEADER_LEN + chunk);
            for (datagram, part) in datagrams.zip(message.chunks(chunk)) {
                datagram[HEADER_LEN..].copy_from_slice(part);
            }
        });
        Framed { bytes, chunk }
    }

    /// Segments the message is cut into (an empty one still travels as
    /// one).
    pub(crate) fn total(&self) -> usize {
        self.bytes.len().div_ceil(HEADER_LEN + self.chunk)
    }

    /// The message's length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len() - self.total() * HEADER_LEN
    }

    /// `true` for the empty message.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `Ok` if the message fits in [`MAX_SEGMENTS`] segments, as it must
    /// to be sent.
    pub(crate) fn fits(&self) -> Result<(), SendError> {
        if self.total() > MAX_SEGMENTS {
            return Err(SendError::TooLong {
                len: self.len(),
                max: self.chunk * MAX_SEGMENTS,
            });
        }
        Ok(())
    }

    /// Segment `number`'s room and data (1-based, `<= total`).
    fn datagram_range(&self, number: u8) -> Range<usize> {
        debug_assert!((1..=self.total()).contains(&usize::from(number)));
        let start = (usize::from(number) - 1) * (HEADER_LEN + self.chunk);
        start..(start + HEADER_LEN + self.chunk).min(self.bytes.len())
    }

    /// Segment `number`'s data: a window of the buffer.
    pub fn data(&self, number: u8) -> Payload {
        let range = self.datagram_range(number);
        self.bytes.slice(range.start + HEADER_LEN..range.end)
    }

    /// The message's bytes, segment by segment: borrows of the buffer,
    /// past the rooms.
    pub fn parts(&self) -> impl Iterator<Item = &[u8]> {
        (1..=self.total()).map(|n| {
            let range = self.datagram_range(n as u8);
            &self.bytes[range.start + HEADER_LEN..range.end]
        })
    }

    /// Puts `header` in the room of the segment it numbers, if it can
    /// without a copy: this handle writes it if it is the only one on the
    /// buffer, and a shared handle finds it there already or fails (module
    /// docs). Bytes anybody else holds are never written.
    pub(crate) fn put_header(&mut self, header: SegmentHeader) -> bool {
        let at = self.datagram_range(header.number).start;
        self.bytes.stamp(at, &header.to_bytes())
    }

    /// Segment `number`'s datagram, room and data: a window of the buffer,
    /// whatever its room holds.
    pub(crate) fn window(&self, number: u8) -> Payload {
        self.bytes.slice(self.datagram_range(number))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{MsgType, Segment};

    fn header(number: u8, total: u8, call_number: u32) -> SegmentHeader {
        Segment::data(
            MsgType::Call,
            call_number,
            5,
            total,
            number,
            false,
            Vec::new(),
        )
        .header
    }

    /// The message, a chunk at a time, past empty rooms.
    #[test]
    fn framing_leaves_room_in_front_of_each_chunk() {
        let message: Vec<u8> = (1..=10).collect();
        let framed = Framed::new(4, &message);
        assert_eq!((framed.total(), framed.len()), (3, 10));
        let parts: Vec<Vec<u8>> = (1..=3).map(|n| framed.data(n).to_vec()).collect();
        assert_eq!(parts, [vec![1, 2, 3, 4], vec![5, 6, 7, 8], vec![9, 10]]);
        assert_eq!(framed.bytes.len(), 3 * HEADER_LEN + 10);
        assert_eq!(framed.parts().collect::<Vec<_>>(), parts, "borrowed alike");
        let empty = Framed::new(4, &[]);
        assert_eq!((empty.total(), empty.len(), empty.data(1).len()), (1, 0, 0));
        assert_eq!(empty.parts().collect::<Vec<_>>(), [&[] as &[u8]]);
        for (len, total) in [(8, 2), (9, 3), (1, 1)] {
            assert_eq!(
                Framed::new(4, &message[..len]).total(),
                total,
                "{len} bytes"
            );
        }
    }

    /// A stamped window is the datagram `encode` copies together; a
    /// shared buffer yields it only where the room already holds it.
    #[test]
    fn a_stamped_window_is_the_encoded_datagram() {
        let mut framed = Framed::new(20, &[3; 50]);
        let encoded = |h: SegmentHeader, f: &Framed| {
            let data = f.data(h.number);
            Segment::data(h.msg_type, h.call_number, h.span, 3, h.number, false, data).encode()
        };
        let h2 = header(2, 3, 9);
        assert!(framed.put_header(h2), "the only handle writes");
        let first = framed.window(2);
        assert_eq!(first, encoded(h2, &framed));
        assert!(first.shares_buffer_with(&framed.bytes));

        let mut peer = framed.clone();
        assert!(peer.put_header(h2), "the same header is there");
        assert!(!peer.put_header(header(2, 3, 10)), "another call number");
        assert!(!peer.put_header(header(3, 3, 10)), "an empty room");
        assert_eq!(first, encoded(h2, &framed), "nothing handed out moved");
        let empty = Framed::default();
        assert_eq!((empty.total(), empty.len()), (1, 0));
    }
}
