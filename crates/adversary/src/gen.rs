//! Hostile-datagram generators.
//!
//! Each generator family produces byte strings aimed at one decode-path
//! failure class. All of them are [`Strategy`] values over the local
//! proptest shim, so the same taxonomy drives both the property tests
//! (decode-never-panics) and the live [`AdvInjector`](crate::inject).
//!
//! One calibration matters more than any individual generator: under
//! Cooper's fault model (§2.2 of the paper) corruption is *detectable* —
//! checksums turn a damaged packet into a lost packet. The simulated
//! wire has no checksum, so the generators enforce the equivalent
//! property structurally: **no generated datagram may decode into a
//! valid call that a replica would execute.** Otherwise the adversary
//! could feed a legitimate-looking call to a subset of a troupe and
//! break replica convergence — a Byzantine fault the paper explicitly
//! scopes out. Concretely:
//!
//! - `RandomBytes` is capped below the minimum `CallMessage` wire size,
//!   so even a random prefix that decodes as a one-segment data segment
//!   cannot internalize as a call;
//! - `ForgedSpan` payloads are likewise sub-minimum garbage;
//! - `StaleCall` is *deliberately* well-formed but addressed to a
//!   troupe incarnation that never exists, so every replica that sees
//!   it rejects it identically (`WrongTroupe`);
//! - `PleaseAck` re-sends a captured call exactly as its caller would
//!   retransmit it: the most it can earn is the genuine return again;
//! - capture-based bit flips (in the injector) force the type byte to
//!   an invalid value if the flip alone left the segment decodable.

use circus::{CallMessage, ThreadId, TroupeId};
use pairedmsg::{MsgType, Segment, HEADER_LEN};
use proptest::collection::vec;
use proptest::prelude::*;
use simnet::{HostId, SockAddr};

/// The taxonomy of hostile datagrams. Each variant is one generator
/// family and one `adv.gen.<name>` metric, so the accounting oracle can
/// prove every injected datagram came from exactly one family.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HostileKind {
    /// Arbitrary bytes, shorter than any internalizable call.
    RandomBytes,
    /// A valid segment cut below the 16-byte header.
    TruncatedHeader,
    /// A segment whose message-type byte is neither Call nor Return.
    BadType,
    /// A data segment with `total == 0`, `number == 0`, or
    /// `number > total` — the PR-4 underflow class.
    BadPosition,
    /// An acknowledgment whose ack number exceeds its total.
    BadAck,
    /// A structurally valid segment carrying a random span ID and
    /// sub-minimum garbage payload.
    ForgedSpan,
    /// A well-formed call bearing a troupe incarnation that has never
    /// been registered (stale/forged identity).
    StaleCall,
    /// A captured datagram with one bit flipped (then forced garbled —
    /// see the module docs). Capture-based; injector only.
    BitFlip,
    /// A captured datagram re-delivered verbatim, original source and
    /// destination. Capture-based; injector only.
    Replay,
    /// A captured call segment re-delivered with *please ack* set,
    /// original source and destination: a forged demand for its return.
    /// Capture-based; injector only.
    PleaseAck,
}

impl HostileKind {
    /// The metric suffix for this family: `adv.gen.<name>`.
    pub fn name(self) -> &'static str {
        match self {
            HostileKind::RandomBytes => "random",
            HostileKind::TruncatedHeader => "truncate",
            HostileKind::BadType => "badtype",
            HostileKind::BadPosition => "badpos",
            HostileKind::BadAck => "badack",
            HostileKind::ForgedSpan => "span",
            HostileKind::StaleCall => "stale",
            HostileKind::BitFlip => "bitflip",
            HostileKind::Replay => "replay",
            HostileKind::PleaseAck => "pleaseack",
        }
    }
}

/// Minimum wire size of a [`CallMessage`]: thread id (10), call_seq (4),
/// two troupe ids (16), module/proc (4), and the args length prefix (4).
/// Generated garbage payloads stay strictly below this so they can never
/// internalize as a call even when the segment header is valid.
pub const CALL_MESSAGE_MIN: usize = 38;

/// One hostile datagram: which family produced it, and the bytes.
pub type Hostile = (HostileKind, Vec<u8>);

fn boxed<S: Strategy<Value = Hostile> + 'static>(s: S) -> Box<dyn Strategy<Value = Hostile>> {
    Box::new(s)
}

/// A structurally valid one-segment data segment with small payload,
/// used as the base for mutation families.
fn valid_segment() -> impl Strategy<Value = Vec<u8>> {
    (
        0u32..1000,
        0u64..=u64::MAX,
        1u8..=8,
        vec(any::<u8>(), 0..24),
    )
        .prop_map(|(cn, span, total, payload)| {
            let number = 1 + (cn as u8 % total);
            Segment::data(MsgType::Call, cn, span, total, number, cn % 2 == 0, payload)
                .encode()
                .to_vec()
        })
}

/// The composite generator: a uniform choice over every self-contained
/// hostile family (`BitFlip` and `Replay` need live captures, so they
/// live in the injector). `attacker` is stamped into stale calls as the
/// forging thread's origin.
pub fn hostile_datagram(attacker: SockAddr) -> Union<Hostile> {
    Union::new(vec![
        // Arbitrary short garbage: exercises every length check at once.
        boxed(vec(any::<u8>(), 0..CALL_MESSAGE_MIN).prop_map(|b| (HostileKind::RandomBytes, b))),
        // A valid segment truncated below its header.
        boxed(
            (valid_segment(), 0usize..HEADER_LEN).prop_map(|(mut b, keep)| {
                b.truncate(keep);
                (HostileKind::TruncatedHeader, b)
            }),
        ),
        // Unknown message-type byte.
        boxed((valid_segment(), 2u8..=255).prop_map(|(mut b, ty)| {
            b[0] = ty;
            (HostileKind::BadType, b)
        })),
        // Out-of-range positions: total == 0, number == 0, number > total.
        boxed((valid_segment(), 0u8..3).prop_map(|(mut b, which)| {
            match which {
                0 => b[2] = 0,                      // total == 0
                1 => b[3] = 0,                      // number == 0 (PR-4 class)
                _ => b[3] = b[2].saturating_add(1), // number > total
            }
            (HostileKind::BadPosition, b)
        })),
        // Acknowledgment whose ack number exceeds its total.
        boxed(
            (0u32..1000, 1u8..=8, 1u8..=200).prop_map(|(cn, total, excess)| {
                let mut b = Segment::ack(MsgType::Return, cn, total, total)
                    .encode()
                    .to_vec();
                b[3] = total.saturating_add(excess);
                (HostileKind::BadAck, b)
            }),
        ),
        // Valid header, random span, sub-minimum garbage payload.
        boxed(
            (0u32..1000, 0u64..=u64::MAX, vec(any::<u8>(), 0..32)).prop_map(
                |(cn, span, payload)| {
                    let b = Segment::data(MsgType::Call, cn, span, 1, 1, true, payload)
                        .encode()
                        .to_vec();
                    (HostileKind::ForgedSpan, b)
                },
            ),
        ),
        // Well-formed call, nonexistent troupe incarnation.
        boxed(stale_call_segment(attacker)),
    ])
}

/// `bytes` as its caller's retransmission would carry it, if it is a
/// data segment of a call: the same segment with *please ack* set.
pub fn please_ack_duplicate(bytes: &[u8]) -> Option<Vec<u8>> {
    let mut seg = Segment::decode_bytes(bytes).ok()?;
    if !seg.is_data() || seg.header.msg_type != MsgType::Call {
        return None;
    }
    seg.header.please_ack = true;
    Some(seg.encode().to_vec())
}

/// A well-formed single-segment call whose `server_troupe` is an
/// incarnation that is never registered in any scenario: real troupe ids
/// are small sequential integers, these sit in the top half of the id
/// space. Every replica rejects it identically with `WrongTroupe`, which
/// is exactly the stale-incarnation path the paper's reconfiguration
/// story depends on.
pub fn stale_call_segment(attacker: SockAddr) -> impl Strategy<Value = Hostile> {
    (
        0u32..100,
        0u32..100,
        (u64::MAX / 2)..=u64::MAX,
        0u16..4,
        vec(any::<u8>(), 0..8),
    )
        .prop_map(move |(serial, call_seq, stale_id, proc, args)| {
            let msg = CallMessage {
                thread: ThreadId {
                    origin: attacker,
                    serial,
                },
                call_seq,
                client_troupe: TroupeId::UNREGISTERED,
                server_troupe: TroupeId(stale_id),
                module: 1 + (proc % 2), // the scenario's store/commit modules
                proc,
                args,
                members: vec![],
            };
            let b = Segment::data(MsgType::Call, 1, 0, 1, 1, true, wire::to_bytes(&msg))
                .encode()
                .to_vec();
            (HostileKind::StaleCall, b)
        })
}

/// A source address that no scenario ever binds: forged traffic comes
/// "from" here, and replies to it vanish as undeliverable.
pub fn attacker_addr() -> SockAddr {
    SockAddr::new(HostId(66), 6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    /// The Byzantine calibration: nothing a generator emits may decode
    /// into a call a replica would execute, except `StaleCall`, whose
    /// troupe id every replica rejects identically.
    #[test]
    fn generated_hostiles_cannot_execute() {
        let mut rng = TestRng::for_test(concat!(module_path!(), "::generated"));
        let strat = hostile_datagram(attacker_addr());
        for _ in 0..2000 {
            let (kind, bytes) = strat.generate(&mut rng);
            let Ok(seg) = Segment::decode_bytes(&bytes) else {
                continue;
            };
            if seg.header.ack || seg.header.probe {
                continue; // control segments carry no call
            }
            match kind {
                HostileKind::StaleCall => {
                    let msg = wire::from_bytes::<CallMessage>(&seg.data)
                        .expect("stale calls are well-formed");
                    assert!(
                        msg.server_troupe.0 >= u64::MAX / 2,
                        "stale call must target a nonexistent incarnation"
                    );
                }
                _ => {
                    assert!(
                        seg.data.len() < CALL_MESSAGE_MIN,
                        "{kind:?} produced an internalizable payload ({} bytes)",
                        seg.data.len()
                    );
                    assert!(wire::from_bytes::<CallMessage>(&seg.data).is_err());
                }
            }
        }
    }

    /// Every family shows up under a uniform draw.
    #[test]
    fn all_generated_families_reachable() {
        let mut rng = TestRng::for_test(concat!(module_path!(), "::families"));
        let strat = hostile_datagram(attacker_addr());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            let (kind, _) = strat.generate(&mut rng);
            seen.insert(kind);
        }
        assert_eq!(
            seen.len(),
            7,
            "expected all 7 generated families, saw {seen:?}"
        );
    }

    #[test]
    fn please_ack_duplicate_sets_the_bit_on_call_data_only() {
        let call = Segment::data(MsgType::Call, 9, 4, 3, 2, false, vec![1]);
        let dup = please_ack_duplicate(&call.encode()).expect("a call segment");
        let asked = Segment::data(MsgType::Call, 9, 4, 3, 2, true, vec![1]);
        assert_eq!(Segment::decode_bytes(&dup), Ok(asked));
        let ret = Segment::data(MsgType::Return, 9, 0, 1, 1, false, vec![1]);
        assert_eq!(please_ack_duplicate(&ret.encode()), None);
        let ack = Segment::ack(MsgType::Call, 9, 1, 1);
        assert_eq!(please_ack_duplicate(&ack.encode()), None);
        assert_eq!(please_ack_duplicate(&[0; 3]), None);
    }
}
