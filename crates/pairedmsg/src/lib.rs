//! # pairedmsg: the Circus paired message protocol
//!
//! A paired message protocol is "a distillation of the communication
//! requirements of conventional remote procedure call protocols" (§4.2):
//! it exchanges reliably delivered, variable-length call/return message
//! pairs over unreliable datagrams, identified by call numbers.
//!
//! This implementation follows the Circus protocol of §4.2 exactly:
//!
//! - messages are carried in segments with the header of Figure 4.2 —
//!   its 8 bytes plus an 8-byte causal span id, 16 in all ([`segment`]);
//!   a message is laid out as its datagrams once, with room for each
//!   header, and every first transmission is a window of it ([`frame`]);
//! - a segment is as large as the wire allows and no larger: by default
//!   1,484 data bytes, the 1,500-byte Ethernet MTU less those 16, so a
//!   full segment is exactly one frame. Table 4.2 charges per datagram
//!   (`sendmsg` 8.1 ms, `select`+`sigblock`+`recvmsg` 5.0 ms, whatever the
//!   size) and §4.2.4 asks only that a segment fit the MTU, so filling it
//!   is what makes a bulk message cheapest ([`Config::max_segment_data`]);
//! - senders transmit all segments eagerly, then periodically retransmit
//!   the first unacknowledged one with *please ack* set ([`sender`]);
//! - receivers assemble segments, track the highest-consecutive
//!   acknowledgment number, and fast-ack on out-of-order arrivals
//!   ([`receiver`]);
//! - acknowledgments may be explicit (ack segments) or implicit (a return
//!   acknowledges its call; a later call acknowledges an earlier return);
//! - the ack of a completed call is deferred in the hope the return will
//!   serve instead (§4.2.4);
//! - a one-segment return to a call the callee never acknowledged
//!   explicitly is sent once, with no timer: the caller's call timer is
//!   its retransmission timer. A lost return brings the call back with
//!   *please ack*, and the callee answers with the return; the caller
//!   never acknowledges a return unasked. Every other return keeps the
//!   callee's timer and *please ack*. A return of two or more segments
//!   needs it, because its first segment stops the caller's timer; so
//!   does one to a call already acknowledged explicitly, because that ack
//!   stopped it. That is the one rule: every endpoint holds, because
//!   [`Endpoint::new`] requires a replay TTL of at least the crash horizon,
//!   so a held return outlives its caller's re-sends. The cost is that a
//!   callee no longer notices a dead caller through a one-segment return
//!   ([`endpoint`], "How a return gets acknowledged", which gives the
//!   whole argument);
//! - crash detection uses probes and timeouts (§4.2.3), or the peer's
//!   host's port-unreachable notice, surfacing
//!   [`endpoint::Event::PeerDead`];
//! - completed call numbers are remembered to suppress replay of delayed
//!   duplicates (§4.2.4), for a bounded time ([`replay`]).
//!
//! The state machines are sans-io: they consume time and segments and
//! produce segments, events, and timer deadlines, so they can be driven
//! by unit tests directly or by the `simnet` world via the `circus`
//! runtime.
//!
//! Unlike the Xerox PARC protocol, which acknowledges every segment but
//! the last, this protocol keeps multiple segments in flight and buffers
//! at the receiver — the paper's stated trade-off (§4.2.5).

#![warn(missing_docs)]

pub mod config;
pub mod endpoint;
pub mod frame;
pub mod receiver;
pub mod replay;
pub mod segment;
pub mod sender;

pub use config::{Config, ProtocolMode};
pub use endpoint::{Counters, Endpoint, Event};
pub use frame::Framed;
pub use receiver::{MsgReceiver, RecvActions};
pub use replay::ReplayLog;
pub use segment::{MsgType, Segment, SegmentError, SegmentHeader, HEADER_LEN, MAX_SEGMENTS};
pub use sender::{MsgSender, SendError, SenderTick};
