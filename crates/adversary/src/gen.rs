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
//! - `AckTrailer` carriers hold sub-minimum garbage: the forged ack in
//!   their trailer is the attack, not the call;
//! - capture-based bit flips (in the injector) force the type byte to
//!   an invalid value if the flip alone left the segment decodable.

use circus::{CallMessage, ThreadId, TroupeId};
use pairedmsg::{MsgType, Segment, HEADER_LEN, TRAILER_LEN};
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
    /// A segment with control bit 3 (the ack trailer) set: on an ack or
    /// a probe, with no room for the trailer, naming a return of 0
    /// segments, or well-formed on a garbage call. The injector also
    /// aims well-formed ones at a captured live return's sender.
    AckTrailer,
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
            HostileKind::AckTrailer => "trailer",
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
        // The ack-trailer bit, garbled or forged.
        boxed(ack_trailer_segment()),
    ])
}

/// Control bit 3, the ack trailer, set where it is garbled — on an ack
/// or a probe, or naming a return of 0 segments — or flipped on over a
/// valid data segment's last five bytes, or carrying a well-formed
/// forged ack on sub-minimum garbage.
fn ack_trailer_segment() -> impl Strategy<Value = Hostile> {
    (
        valid_segment(),
        0u8..4,
        0u32..1000,
        1u8..=8,
        vec(any::<u8>(), 0..CALL_MESSAGE_MIN - TRAILER_LEN),
    )
        .prop_map(|(segment, which, acked, total, garbage)| {
            let b = match which {
                0 => {
                    let mut b = segment;
                    b[1] |= ACK_TRAILER_BIT;
                    b
                }
                1 => {
                    let control = match acked % 3 {
                        0 => Segment::ack(MsgType::Return, acked, total, total),
                        1 => Segment::probe(acked),
                        _ => Segment::probe_reply(acked),
                    };
                    let mut b = control.encode().to_vec();
                    b[1] |= ACK_TRAILER_BIT;
                    b.extend_from_slice(&acked.to_be_bytes());
                    b.push(total);
                    b
                }
                2 => {
                    let mut b = forged_trailer(acked, total, garbage);
                    *b.last_mut().expect("a trailer") = 0;
                    b
                }
                _ => forged_trailer(acked, total, garbage),
            };
            (HostileKind::AckTrailer, b)
        })
}

/// The ack-trailer bit of the control byte (Figure 4.2's bit 3).
const ACK_TRAILER_BIT: u8 = 0b1000;

/// A single-segment call of `garbage` (too short to internalize) whose
/// trailer acknowledges return `acked` of `total` segments in full.
pub fn forged_trailer(acked: u32, total: u8, garbage: Vec<u8>) -> Vec<u8> {
    let mut carrier = Segment::data(MsgType::Call, acked, 0, 1, 1, false, garbage);
    carrier.acks_return = Some((acked, total));
    carrier.encode().to_vec()
}

/// The call number and segment count of `bytes` if it is the data
/// segment of a return: a return some member is sending, that a forged
/// trailer can name.
pub fn live_return(bytes: &[u8]) -> Option<(u32, u8)> {
    let seg = Segment::decode_bytes(bytes).ok()?;
    let h = seg.header;
    (seg.is_data() && h.msg_type == MsgType::Return).then_some((h.call_number, h.total))
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
            8,
            "expected all 8 generated families, saw {seen:?}"
        );
    }

    /// Every garbled form of the trailer family fails to decode; every
    /// form that decodes carries data no replica could execute, and one
    /// in four forges a well-formed ack.
    #[test]
    fn trailer_family_is_garbled_or_harmless() {
        let mut rng = TestRng::for_test(concat!(module_path!(), "::trailer"));
        let strat = ack_trailer_segment();
        let (mut garbled, mut forged) = (0, 0);
        for _ in 0..2000 {
            let (kind, bytes) = strat.generate(&mut rng);
            assert_eq!(kind, HostileKind::AckTrailer);
            assert_ne!(bytes[1] & ACK_TRAILER_BIT, 0, "bit 3 is always set");
            match Segment::decode_bytes(&bytes) {
                Err(_) => garbled += 1,
                Ok(seg) => {
                    assert!(seg.is_data() && seg.acks_return.is_some());
                    assert!(seg.data.len() < CALL_MESSAGE_MIN);
                    forged += 1;
                }
            }
        }
        assert!(
            garbled > 500 && forged > 500,
            "{garbled} garbled, {forged} forged"
        );
        assert_eq!(
            Segment::decode_bytes(&forged_trailer(7, 2, vec![1, 2])).map(|s| s.acks_return),
            Ok(Some((7, 2)))
        );
    }

    #[test]
    fn live_return_names_only_return_data() {
        let ret = Segment::data(MsgType::Return, 9, 0, 3, 2, false, vec![1]).encode();
        assert_eq!(live_return(&ret), Some((9, 3)));
        let call = Segment::data(MsgType::Call, 9, 0, 1, 1, false, vec![1]).encode();
        assert_eq!(live_return(&call), None);
        assert_eq!(
            live_return(&Segment::ack(MsgType::Return, 9, 1, 1).encode()),
            None
        );
        assert_eq!(live_return(&[0; 3]), None);
    }
}
