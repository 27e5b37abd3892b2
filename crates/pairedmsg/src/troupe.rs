//! Troupe-wide transmission of one call message (§4.3.3).
//!
//! The paper's optimization note: "a multicast implementation of the
//! one-to-many call requires only m+n messages" — the client transmits
//! each call segment *once* to the whole server troupe instead of once
//! per member. For that to work every member must receive byte-identical
//! datagrams, which in turn requires a troupe-wide call number (the same
//! `call_number` on every member's copy); receivers then demultiplex by
//! `(client address, call number)` exactly as they already do.
//!
//! A [`TroupeSender`] performs the segmentation once and yields the
//! segments for the single multicast transmission. Per-member reliability
//! stays with each peer's [`Endpoint`](crate::Endpoint): the caller
//! installs a pre-transmitted sender there via
//! [`Endpoint::adopt_call`](crate::Endpoint::adopt_call), so
//! acknowledgments, unicast retransmission toward the members that are
//! behind, implicit acknowledgment by the return message (the PARC
//! piggyback discipline, §4.2.5), and crash-detection probing all work
//! unchanged.

use crate::config::{Config, ProtocolMode};
use crate::segment::{MsgType, Segment};
use crate::sender::{MsgSender, SendError};
use simnet::{Payload, Time};

/// One call message segmented for a single troupe-wide multicast.
#[derive(Debug)]
pub struct TroupeSender {
    segments: Vec<Segment>,
    call_number: u32,
    span: u64,
}

impl TroupeSender {
    /// Segments `data` once for the whole troupe. The initial blast is
    /// always eager (multicast is not stop-and-wait), regardless of the
    /// configured [`ProtocolMode`]; the per-member retransmission path
    /// keeps the configured discipline.
    pub fn new(
        config: &Config,
        call_number: u32,
        span: u64,
        data: impl Into<Payload>,
    ) -> Result<TroupeSender, SendError> {
        let eager = Config {
            mode: ProtocolMode::Circus,
            ..config.clone()
        };
        let mut sender =
            MsgSender::new(Time::ZERO, &eager, MsgType::Call, call_number, span, data)?;
        Ok(TroupeSender {
            segments: sender.initial_segments().collect(),
            call_number,
            span,
        })
    }

    /// The segments of the initial multicast transmission, in order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The troupe-wide call number stamped on every segment.
    pub fn call_number(&self) -> u32 {
        self.call_number
    }

    /// The causal span stamped on every segment.
    pub fn span(&self) -> u64 {
        self.span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{Endpoint, Event};

    fn config() -> Config {
        Config {
            max_segment_data: 4,
            ..Config::default()
        }
    }

    #[test]
    fn segments_match_a_plain_sender() {
        let cfg = config();
        let ts = TroupeSender::new(&cfg, 9, 77, b"abcdefghij").unwrap();
        let mut plain =
            MsgSender::new(Time::ZERO, &cfg, MsgType::Call, 9, 77, b"abcdefghij").unwrap();
        assert_eq!(
            ts.segments(),
            &plain.initial_segments().collect::<Vec<_>>()[..]
        );
        assert!(ts.segments().iter().all(|s| s.header.call_number == 9));
        assert!(ts.segments().iter().all(|s| s.header.span == 77));
    }

    #[test]
    fn eager_blast_even_in_parc_mode() {
        let cfg = Config {
            mode: ProtocolMode::Parc,
            ..config()
        };
        let ts = TroupeSender::new(&cfg, 1, 0, b"abcdefghij").unwrap();
        assert_eq!(ts.segments().len(), 3, "all segments multicast at once");
    }

    #[test]
    fn oversize_rejected() {
        let data = vec![0u8; 4 * 255 + 1];
        assert!(TroupeSender::new(&config(), 1, 0, &data).is_err());
    }

    /// The receiving endpoint cannot tell a multicast copy from a unicast
    /// one: an adopted call completes through the normal event path when
    /// the (multicast) segments arrive at the peer, and the return
    /// message implicitly acknowledges the adopted sender.
    #[test]
    fn adopted_call_round_trips_through_endpoints() {
        let cfg = config();
        let now = Time::ZERO;
        let mut client = Endpoint::new(cfg.clone());
        let mut server = Endpoint::new(cfg.clone());

        let ts = TroupeSender::new(&cfg, 1, 0, b"abcdefghij").unwrap();
        client.adopt_call(now, 1, 0, b"abcdefghij").unwrap();
        // The client queued nothing of its own: the blast is external.
        assert!(client.poll_transmit().is_none());

        for seg in ts.segments() {
            server.on_datagram(now, &seg.encode()).unwrap();
        }
        let ev = server.poll_event().expect("call delivered");
        assert!(matches!(
            ev,
            Event::Message {
                msg_type: MsgType::Call,
                call_number: 1,
                ..
            }
        ));

        // The return implicitly acknowledges the adopted sender.
        server.send(now, MsgType::Return, 1, 0, b"ok").unwrap();
        while let Some(bytes) = server.poll_transmit() {
            client.on_datagram(now, &bytes).unwrap();
        }
        let ev = client.poll_event().expect("return delivered");
        assert!(matches!(
            ev,
            Event::Message {
                msg_type: MsgType::Return,
                call_number: 1,
                ..
            }
        ));
        assert_eq!(client.stats().send_call_regressions, 0);
    }

    /// A member that missed the multicast is served by the ordinary
    /// unicast retransmission schedule (straggler fallback).
    #[test]
    fn straggler_served_by_unicast_retransmission() {
        let cfg = config();
        let mut client = Endpoint::new(cfg.clone());
        client.adopt_call(Time::ZERO, 1, 0, b"abcdefghij").unwrap();
        let due = client.poll_timer().expect("retransmission armed");
        client.on_timer(due);
        let seg = client.poll_transmit_segment().expect("retransmit queued");
        assert!(seg.is_data());
        assert_eq!(seg.header.number, 1);
        assert!(seg.header.please_ack, "retransmissions demand an ack");
    }
}
