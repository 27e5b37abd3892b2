//! The segment wire format (Figure 4.2).
//!
//! A message is transmitted as one or more segments, each a datagram with
//! a 16-byte header:
//!
//! ```text
//! byte 0       message type (0 = call, 1 = return)
//! byte 1       control bits (bit 0 = please ack, bit 1 = ack, bit 2 = probe)
//! byte 2       total segments in the message (1..=255)
//! byte 3       segment number (data: 1..=total; ack: ack number 0..=total)
//! bytes 4..8   call number, most significant byte first
//! bytes 8..16  causal span id, most significant byte first (0 = none)
//! ```
//!
//! The span id extends the paper's Figure 4.2 format: it attributes the
//! segment to the replicated call that caused it (see `obs`), so a whole
//! one-to-many fan-out is reconstructable from the wire alone. Control
//! segments (acks, probes) carry span 0.
//!
//! The probe bit occupies one of the paper's six unused control bits: the
//! paper's crash-detection probes are "special control segments" (§4.2.3)
//! and this is their encoding.

use std::fmt;

use simnet::Payload;

#[cfg(debug_assertions)]
thread_local! {
    static ENCODES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of datagrams this thread has copied together so far, by
/// [`Segment::encode`] (debug builds only; always 0 in release). A
/// datagram cut from a framed message ([`crate::Framed`]) is a window,
/// not a copy, and does not count. Lets tests pin the zero-copy contract,
/// e.g. "a 5-member multicast copies no segment".
pub fn encodes() -> u64 {
    #[cfg(debug_assertions)]
    {
        ENCODES.with(|c| c.get())
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

fn count_encode() {
    #[cfg(debug_assertions)]
    ENCODES.with(|c| c.set(c.get() + 1));
}

/// Whether a segment belongs to a call or a return message.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MsgType {
    /// A call message (client to server).
    Call,
    /// A return message (server to client).
    Return,
}

impl MsgType {
    fn to_byte(self) -> u8 {
        match self {
            MsgType::Call => 0,
            MsgType::Return => 1,
        }
    }

    fn from_byte(b: u8) -> Result<MsgType, SegmentError> {
        match b {
            0 => Ok(MsgType::Call),
            1 => Ok(MsgType::Return),
            other => Err(SegmentError::BadType(other)),
        }
    }
}

/// The largest number of segments one message may occupy: the total
/// segments field is a byte and zero is reserved (§4.2.1).
pub const MAX_SEGMENTS: usize = 255;

/// Size of the fixed segment header: Figure 4.2's 8 bytes plus the span
/// id. `Config::default()` cuts segments at the Ethernet MTU less this,
/// with no slack; an assertion in [`crate::config`] ties the two.
pub const HEADER_LEN: usize = 16;

const PLEASE_ACK: u8 = 0b001;
const ACK: u8 = 0b010;
const PROBE: u8 = 0b100;

/// A decoded segment header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SegmentHeader {
    /// Call or return.
    pub msg_type: MsgType,
    /// Sender requests an explicit acknowledgment.
    pub please_ack: bool,
    /// This segment *is* an acknowledgment; its `number` field is the
    /// acknowledgment number (all segments `<= number` received).
    pub ack: bool,
    /// This is a crash-detection probe (or, with `ack`, a probe response).
    pub probe: bool,
    /// Total number of segments in the message.
    pub total: u8,
    /// Segment number (data) or acknowledgment number (ack).
    pub number: u8,
    /// Pairs this segment's message with its partner (§4.2.1).
    pub call_number: u32,
    /// Causal span the message belongs to (0 = none; control segments
    /// always carry 0).
    pub span: u64,
}

impl SegmentHeader {
    /// The header's 16 bytes, as they go on the wire.
    pub(crate) fn to_bytes(self) -> [u8; HEADER_LEN] {
        let mut bits = 0u8;
        if self.please_ack {
            bits |= PLEASE_ACK;
        }
        if self.ack {
            bits |= ACK;
        }
        if self.probe {
            bits |= PROBE;
        }
        let mut out = [0; HEADER_LEN];
        out[0] = self.msg_type.to_byte();
        out[1] = bits;
        out[2] = self.total;
        out[3] = self.number;
        out[4..8].copy_from_slice(&self.call_number.to_be_bytes());
        out[8..].copy_from_slice(&self.span.to_be_bytes());
        out
    }

    /// Decodes the header at the front of a datagram, checking it as
    /// [`Segment::decode`] does.
    pub fn decode(bytes: &[u8]) -> Result<SegmentHeader, SegmentError> {
        if bytes.len() < HEADER_LEN {
            return Err(SegmentError::Truncated);
        }
        let msg_type = MsgType::from_byte(bytes[0])?;
        let bits = bytes[1];
        let total = bytes[2];
        let number = bytes[3];
        let call_number = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        let span = u64::from_be_bytes(bytes[8..16].try_into().expect("length checked"));
        let header = SegmentHeader {
            msg_type,
            please_ack: bits & PLEASE_ACK != 0,
            ack: bits & ACK != 0,
            probe: bits & PROBE != 0,
            total,
            number,
            call_number,
            span,
        };
        let is_data = !header.ack && !header.probe;
        if is_data && (total == 0 || number == 0 || number > total) {
            return Err(SegmentError::BadPosition { total, number });
        }
        if header.ack && !header.probe && number > total {
            return Err(SegmentError::BadPosition { total, number });
        }
        Ok(header)
    }
}

/// A whole segment: header plus (for data segments) payload bytes.
///
/// The payload is a [`Payload`] handle: cloning a segment (retransmission
/// queues, troupe blasts) shares the underlying bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Segment {
    /// The header.
    pub header: SegmentHeader,
    /// Payload; empty for control segments.
    pub data: Payload,
}

/// Errors decoding a segment from a datagram.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SegmentError {
    /// Shorter than the fixed header.
    Truncated,
    /// Unknown message type byte.
    BadType(u8),
    /// A data segment with a zero total or number, or number > total.
    BadPosition {
        /// The claimed total segment count.
        total: u8,
        /// The claimed segment number.
        number: u8,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Truncated => write!(f, "datagram shorter than segment header"),
            SegmentError::BadType(b) => write!(f, "unknown message type byte {b}"),
            SegmentError::BadPosition { total, number } => {
                write!(f, "bad segment position {number}/{total}")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

impl Segment {
    /// Builds a data segment attributed to causal span `span` (0 = none).
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        msg_type: MsgType,
        call_number: u32,
        span: u64,
        total: u8,
        number: u8,
        please_ack: bool,
        data: impl Into<Payload>,
    ) -> Segment {
        Segment {
            header: SegmentHeader {
                msg_type,
                please_ack,
                ack: false,
                probe: false,
                total,
                number,
                call_number,
                span,
            },
            data: data.into(),
        }
    }

    /// Builds an explicit acknowledgment for message `(msg_type,
    /// call_number)` acknowledging all segments `<= ack_number`.
    pub fn ack(msg_type: MsgType, call_number: u32, total: u8, ack_number: u8) -> Segment {
        Segment {
            header: SegmentHeader {
                msg_type,
                please_ack: false,
                ack: true,
                probe: false,
                total,
                number: ack_number,
                call_number,
                span: 0,
            },
            data: Payload::empty(),
        }
    }

    /// Builds a crash-detection probe (§4.2.3).
    pub fn probe(call_number: u32) -> Segment {
        Segment {
            header: SegmentHeader {
                msg_type: MsgType::Call,
                please_ack: true,
                ack: false,
                probe: true,
                total: 0,
                number: 0,
                call_number,
                span: 0,
            },
            data: Payload::empty(),
        }
    }

    /// Builds the response to a probe.
    pub fn probe_reply(call_number: u32) -> Segment {
        Segment {
            header: SegmentHeader {
                msg_type: MsgType::Call,
                please_ack: false,
                ack: true,
                probe: true,
                total: 0,
                number: 0,
                call_number,
                span: 0,
            },
            data: Payload::empty(),
        }
    }

    /// Encodes the segment as a datagram payload, copying header and data
    /// into the datagram's one buffer (none for up to
    /// [`Payload::INLINE`] bytes: acks, probes); every hop, duplicate and
    /// multicast destination afterwards shares it. A message's data
    /// segments are cut from its framed form instead ([`crate::Framed`]),
    /// and copied here only when the header they need is not the one in
    /// their room.
    pub fn encode(&self) -> Payload {
        count_encode();
        Payload::build(HEADER_LEN + self.data.len(), |out| {
            out[..HEADER_LEN].copy_from_slice(&self.header.to_bytes());
            out[HEADER_LEN..].copy_from_slice(&self.data);
        })
    }

    /// Decodes a received datagram into a segment. The segment's data is
    /// a zero-copy window into `payload` (sharing its allocation).
    pub fn decode(payload: &Payload) -> Result<Segment, SegmentError> {
        let header = SegmentHeader::decode(payload)?;
        Ok(Segment {
            header,
            data: payload.slice(HEADER_LEN..payload.len()),
        })
    }

    /// Decodes a borrowed byte slice into a segment, copying the data
    /// bytes out (the boundary case for callers without a [`Payload`]).
    pub fn decode_bytes(bytes: &[u8]) -> Result<Segment, SegmentError> {
        let header = SegmentHeader::decode(bytes)?;
        Ok(Segment {
            header,
            data: Payload::copy_from(&bytes[HEADER_LEN..]),
        })
    }

    /// Returns `true` for a data segment (neither ack nor probe).
    pub fn is_data(&self) -> bool {
        !self.header.ack && !self.header.probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(ack, probe, please_ack)` of each control segment, after a round
    /// trip; none is data.
    #[test]
    fn control_segments_round_trip_with_their_flags() {
        for (s, flags) in [
            (Segment::ack(MsgType::Return, 7, 5, 3), (true, false, false)),
            (Segment::probe(100), (false, true, true)),
            (Segment::probe_reply(100), (true, true, false)),
        ] {
            let h = Segment::decode(&s.encode()).unwrap().header;
            assert_eq!((h.ack, h.probe, h.please_ack), flags, "{s:?}");
            assert!(!s.is_data());
        }
    }

    /// The encoder this crate used before it wrote into the datagram's
    /// allocation directly: build a `Vec`, then convert. Kept as the
    /// byte-for-byte reference.
    fn encode_via_vec(s: &Segment) -> Vec<u8> {
        let h = &s.header;
        let mut out = Vec::with_capacity(HEADER_LEN + s.data.len());
        out.push(h.msg_type.to_byte());
        let mut bits = 0u8;
        if h.please_ack {
            bits |= PLEASE_ACK;
        }
        if h.ack {
            bits |= ACK;
        }
        if h.probe {
            bits |= PROBE;
        }
        out.push(bits);
        out.push(h.total);
        out.push(h.number);
        out.extend_from_slice(&h.call_number.to_be_bytes());
        out.extend_from_slice(&h.span.to_be_bytes());
        out.extend_from_slice(&s.data);
        out
    }

    #[test]
    fn in_place_encode_matches_the_vec_encoder() {
        // Past the inline limit, so the datagram has a buffer to share.
        let window = Payload::from(vec![5u8; 48]).slice(2..42);
        for s in [
            Segment::data(MsgType::Call, 42, 77, 3, 2, true, vec![9, 9, 9]),
            Segment::data(MsgType::Return, u32::MAX, u64::MAX, 255, 255, false, window),
            Segment::data(MsgType::Call, 1, 0, 1, 1, false, Vec::new()),
            Segment::ack(MsgType::Return, 7, 5, 3),
            Segment::ack(MsgType::Call, 0x0102_0304, 1, 1),
            Segment::probe(100),
            Segment::probe_reply(100),
        ] {
            let wire = s.encode();
            assert_eq!(wire, encode_via_vec(&s), "{s:?}");
            // Everything downstream of the encode shares its one buffer.
            assert!(wire.clone().shares_buffer_with(&wire));
            let back = Segment::decode(&wire).unwrap();
            assert_eq!(back, s);
            assert!(back.data.is_empty() || back.data.shares_buffer_with(&wire));
        }
    }

    #[test]
    fn header_is_exactly_sixteen_bytes() {
        let s = Segment::data(MsgType::Call, 1, 0, 1, 1, false, Vec::new());
        assert_eq!(s.encode().len(), HEADER_LEN);
    }

    #[test]
    fn call_number_and_span_big_endian() {
        let s = Segment::data(
            MsgType::Call,
            0x0102_0304,
            0x0506_0708,
            1,
            1,
            false,
            Vec::new(),
        );
        let bytes = s.encode();
        assert_eq!(&bytes[4..8], &[1, 2, 3, 4]);
        assert_eq!(&bytes[8..16], &[0, 0, 0, 0, 5, 6, 7, 8]);
    }

    #[test]
    fn control_segments_carry_span_zero() {
        assert_eq!(Segment::ack(MsgType::Call, 9, 1, 1).header.span, 0);
        assert_eq!(Segment::probe(9).header.span, 0);
        assert_eq!(Segment::probe_reply(9).header.span, 0);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            Segment::decode_bytes(&[0; 15]),
            Err(SegmentError::Truncated)
        );
    }

    #[test]
    fn bad_type_rejected() {
        let mut bytes = Segment::data(MsgType::Call, 1, 0, 1, 1, false, Vec::new())
            .encode()
            .to_vec();
        bytes[0] = 9;
        assert_eq!(Segment::decode_bytes(&bytes), Err(SegmentError::BadType(9)));
    }

    #[test]
    fn zero_total_data_rejected() {
        let bytes = [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(matches!(
            Segment::decode_bytes(&bytes),
            Err(SegmentError::BadPosition { .. })
        ));
    }

    #[test]
    fn number_beyond_total_rejected() {
        let bytes = [0, 0, 2, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(matches!(
            Segment::decode_bytes(&bytes),
            Err(SegmentError::BadPosition { .. })
        ));
    }

    #[test]
    fn zero_number_data_rejected() {
        // A valid total with number == 0: the 1-based position invariant
        // that, unchecked, underflowed reassembly indexing (PR 4).
        let bytes = [0, 0, 4, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(
            Segment::decode_bytes(&bytes),
            Err(SegmentError::BadPosition {
                total: 4,
                number: 0
            })
        );
    }

    #[test]
    fn ack_number_beyond_total_rejected() {
        let mut bytes = Segment::ack(MsgType::Call, 1, 3, 3).encode().to_vec();
        bytes[3] = 4; // ack_number > total
        assert_eq!(
            Segment::decode_bytes(&bytes),
            Err(SegmentError::BadPosition {
                total: 3,
                number: 4
            })
        );
    }

    #[test]
    fn probe_ignores_position_fields() {
        // Probes carry no segment position; arbitrary total/number bytes
        // must not be mistaken for a data-position violation.
        let mut bytes = Segment::probe(1).encode().to_vec();
        bytes[2] = 0;
        bytes[3] = 200;
        let s = Segment::decode_bytes(&bytes).unwrap();
        assert!(s.header.probe);
        assert!(!s.is_data());
    }

    #[test]
    fn every_truncation_length_rejected_cleanly() {
        let wire = Segment::data(MsgType::Call, 7, 1, 2, 1, true, vec![5; 10]).encode();
        for len in 0..HEADER_LEN {
            assert_eq!(
                Segment::decode_bytes(&wire[..len]),
                Err(SegmentError::Truncated),
                "length {len}"
            );
        }
        // At exactly HEADER_LEN the header parses and data is empty.
        assert!(Segment::decode_bytes(&wire[..HEADER_LEN]).is_ok());
    }

    #[test]
    fn decode_shares_the_datagram_allocation() {
        let s = Segment::data(MsgType::Call, 1, 0, 1, 1, false, vec![7u8; 32]);
        let wire = s.encode();
        let back = Segment::decode(&wire).unwrap();
        assert_eq!(back, s);
        // The decoded data is a window into the wire payload, not a copy.
        assert_eq!(back.data, wire.slice(HEADER_LEN..wire.len()));
        assert!(back.data.shares_buffer_with(&wire));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn encode_counter_counts_encodes() {
        let s = Segment::data(MsgType::Call, 1, 0, 1, 1, false, vec![1u8, 2]);
        let before = encodes();
        let wire = s.encode();
        assert_eq!(encodes(), before + 1);
        let _ = Segment::decode(&wire).unwrap();
        let _ = wire.clone();
        assert_eq!(encodes(), before + 1, "decode and clone never re-encode");
    }
}
