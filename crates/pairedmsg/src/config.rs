//! Protocol tuning parameters.

use simnet::net::ETHERNET_MTU;
use simnet::Duration;

use crate::frame::Framed;
use crate::segment::{HEADER_LEN, MAX_SEGMENTS};

/// Which multi-segment transmission discipline to use (§4.2.5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolMode {
    /// The Circus discipline: transmit all segments eagerly, retransmit
    /// the first unacknowledged one on timeout. Minimal datagram count,
    /// unbounded receiver buffering.
    Circus,
    /// The Xerox PARC discipline: "an explicit acknowledgment of every
    /// segment but the last. This doubles the number of segments sent,
    /// but since there is never more than one unacknowledged segment in
    /// transit, only one segment's worth of buffer space is required"
    /// (§4.2.5).
    Parc,
}

/// How long a sender waits before retransmitting the first
/// unacknowledged segment (with *please ack* set): the base of the
/// exponential backoff schedule.
pub const RETRANSMIT_INTERVAL: Duration = Duration::from_millis(300);
/// Factor applied to the retransmission interval after each
/// unacknowledged retransmission. An acknowledgment that makes progress
/// resets the interval to the base.
pub const BACKOFF_MULTIPLIER: u64 = 2;
/// Ceiling on the backed-off retransmission interval.
pub const RETRANSMIT_CAP: Duration = Duration::from_micros(1_200_000);
/// Interval between crash-detection probes while awaiting a reply
/// (§4.2.3).
pub const PROBE_INTERVAL: Duration = Duration::from_secs(2);
/// Unanswered probes before declaring the peer dead.
pub const MAX_UNANSWERED_PROBES: u32 = 3;

const _: () = assert!(RETRANSMIT_INTERVAL.as_micros() < PROBE_INTERVAL.as_micros());
const _: () = assert!(RETRANSMIT_INTERVAL.as_micros() <= RETRANSMIT_CAP.as_micros());
const _: () = assert!(BACKOFF_MULTIPLIER >= 1);

/// The retransmission interval after `retries` unacknowledged
/// retransmissions: `base × multiplier^retries`, capped.
pub(crate) const fn backed_off_interval(retries: u32) -> Duration {
    let (mut us, mut i) = (RETRANSMIT_INTERVAL.as_micros(), 0);
    while i < retries {
        us = us.saturating_mul(BACKOFF_MULTIPLIER);
        if us >= RETRANSMIT_CAP.as_micros() {
            return RETRANSMIT_CAP;
        }
        i += 1;
    }
    Duration::from_micros(us)
}

/// Tunable parameters of the paired message protocol.
///
/// The paper gives the structure of the protocol but not its constants
/// (§4.2.3 discusses the timeout trade-off qualitatively). The ones no
/// experiment or test varies are the constants above; they and the
/// defaults here are scaled to the 1985 testbed, where a round trip took
/// tens of milliseconds. A node runs [`Config::DEFAULT`]; the ablations
/// and this crate's tests build others by hand.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Config {
    /// Maximum payload bytes per segment. Header plus payload must fit
    /// the network MTU (§4.2.4): the simulated LAN drops a larger
    /// datagram (`net.oversize`) and its sender ends in `PeerDead`. The
    /// default fills the MTU exactly (`simnet::net::ETHERNET_MTU` less
    /// [`HEADER_LEN`]: 1,500 − 16 = 1,484) because Table 4.2 charges
    /// `sendmsg` and `recvmsg` per datagram whatever its size, so a
    /// smaller segment only buys more of them.
    pub max_segment_data: usize,
    /// Retransmissions of one message before declaring the peer dead.
    pub max_retransmits: u32,
    /// Width of the deterministic jitter window as a fraction of the
    /// current interval, in parts per thousand (`100` = the interval is
    /// perturbed by up to ±5%). Jitter is a pure function of
    /// [`Config::jitter_seed`], the call number, the message type, and
    /// the retry count — the same run replays bit-identically.
    pub jitter_permille: u32,
    /// Seed for the deterministic retransmission jitter; give each
    /// endpoint a distinct seed to decorrelate retransmit storms.
    pub jitter_seed: u64,
    /// How long a completed exchange's call number is remembered so that
    /// delayed duplicates cannot replay it (§4.2.4).
    pub replay_ttl: Duration,
    /// Multi-segment transmission discipline (§4.2.5).
    pub mode: ProtocolMode,
}

/// Payload bytes of a segment that, with its header, encodes to exactly
/// one MTU-sized datagram: there is no slack.
const MTU_SEGMENT_DATA: usize = ETHERNET_MTU - HEADER_LEN;

// The header already grew once (8 → 16 bytes, when spans rode along). The
// next change to it or to the MTU must stop here and be decided — every
// multi-segment golden and documented datagram count rests on 1,484 —
// rather than surface as `net.oversize` drops and a 4.5 s `PeerDead`, or
// as a silently different grain.
const _: () = assert!(
    MTU_SEGMENT_DATA == 1_484,
    "segment header and Ethernet MTU changed apart: revisit the default segment size"
);

// The configuration every node runs holds its held returns long enough:
// `validate`, at build time.
const _: () = assert!(
    Config::DEFAULT.replay_ttl.as_micros() >= Config::DEFAULT.crash_horizon().as_micros(),
    "the default replay_ttl is shorter than the default crash horizon"
);

impl Default for Config {
    fn default() -> Config {
        Config::DEFAULT
    }
}

impl Config {
    /// The Circus configuration of §4.2, the one every node runs.
    pub const DEFAULT: Config = Config {
        max_segment_data: MTU_SEGMENT_DATA,
        max_retransmits: 4,
        jitter_permille: 100,
        jitter_seed: 0,
        replay_ttl: Duration::from_secs(60),
        mode: ProtocolMode::Circus,
    };

    /// The PARC-style stop-and-wait configuration of §4.2.5.
    pub fn parc() -> Config {
        Config {
            mode: ProtocolMode::Parc,
            ..Config::DEFAULT
        }
    }

    /// Largest message this configuration can carry.
    pub fn max_message_len(&self) -> usize {
        self.max_segment_data * MAX_SEGMENTS
    }

    /// Segments a message of `len` bytes is cut into (an empty message
    /// still travels as one).
    pub fn segments_of(&self, len: usize) -> usize {
        len.div_ceil(self.max_segment_data.max(1)).max(1)
    }

    /// Lays `message` out as its datagrams, [`HEADER_LEN`] bytes of room
    /// in front of each segment's data ([`Framed`]): the one copy of its
    /// bytes that every sender, retransmission and peer then cuts windows
    /// from. The only place a message is framed.
    pub fn frame(&self, message: &[u8]) -> Framed {
        Framed::new(self.max_segment_data, message)
    }

    /// Time from first transmission to retransmission exhaustion
    /// (`PeerDead`), jitter excluded: one backed-off wait before each
    /// permitted retransmission plus the final wait that ends in giving
    /// up. With the defaults this is 0.3 + 0.6 + 1.2 + 1.2 + 1.2 = 4.5 s.
    /// A sender never gives up sooner, whatever its jitter.
    pub const fn crash_horizon(&self) -> Duration {
        let (mut total, mut retries) = (0u64, 0);
        loop {
            total = total.saturating_add(backed_off_interval(retries).as_micros());
            if retries == self.max_retransmits {
                break;
            }
            retries += 1;
        }
        Duration::from_micros(total)
    }

    /// Panics if `replay_ttl` is shorter than [`Config::crash_horizon`]: a
    /// held return lives only as long as its call's record, which must
    /// outlive the caller's re-sends (`endpoint`'s module docs). A `Config`
    /// is the program's own, never remote input.
    pub fn validate(&self) {
        let horizon = self.crash_horizon();
        let ttl = self.replay_ttl;
        assert!(
            ttl >= horizon,
            "replay_ttl {ttl} is shorter than the crash horizon {horizon}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_limits() {
        let c = Config::default();
        // A full segment is one Ethernet frame, header included.
        assert_eq!(c.max_segment_data + HEADER_LEN, ETHERNET_MTU);
        assert_eq!(c.max_message_len(), MAX_SEGMENTS * c.max_segment_data);
    }

    #[test]
    fn default_is_the_constant_and_valid() {
        let (default, constant) = (Config::default(), Config::DEFAULT);
        assert_eq!(default, constant);
        default.validate();
        constant.validate();
    }

    #[test]
    fn default_crash_horizon() {
        // 0.3 + 0.6 + 1.2 + 1.2 + 1.2 s.
        assert_eq!(
            Config::default().crash_horizon(),
            Duration::from_micros(4_500_000)
        );
    }
}
