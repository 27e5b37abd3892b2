//! Property-based tests: any message survives any bounded loss pattern,
//! and reassembly is exact for arbitrary payloads and segment sizes.

use pairedmsg::{Config, Endpoint, Event, MsgType, Segment};
use proptest::prelude::*;
use simnet::Time;

/// Drives a one-way transfer under a pseudo-random loss pattern; returns
/// the delivered payload.
fn transfer_with_loss(payload: &[u8], seg_size: usize, loss_seed: u64, loss_pct: u8) -> Vec<u8> {
    let config = Config {
        max_segment_data: seg_size.max(1),
        max_retransmits: 200,
        ..Config::default()
    };
    let mut tx = Endpoint::new(config.clone());
    let mut rx = Endpoint::new(config);
    let mut now = Time::ZERO;
    let mut rng = simnet::SimRng::new(loss_seed);
    tx.send(now, MsgType::Call, 1, 0, payload).unwrap();

    for _ in 0..10_000 {
        let mut moved = false;
        while let Some(bytes) = tx.poll_transmit() {
            moved = true;
            if !rng.chance(loss_pct as f64 / 100.0) {
                rx.on_datagram(now, &bytes).unwrap();
            }
        }
        while let Some(bytes) = rx.poll_transmit() {
            moved = true;
            if !rng.chance(loss_pct as f64 / 100.0) {
                tx.on_datagram(now, &bytes).unwrap();
            }
        }
        if let Some(Event::Message { data, .. }) = rx.poll_event() {
            return data.to_vec();
        }
        if !moved {
            // Advance to the next retransmission deadline.
            match tx.poll_timer() {
                Some(t) => {
                    now = t;
                    tx.on_timer(now);
                }
                None => break,
            }
        }
    }
    panic!("message never delivered");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reassembly is exact for arbitrary payloads, segment sizes, and
    /// loss patterns up to 40%.
    #[test]
    fn any_message_survives_loss(
        payload in proptest::collection::vec(any::<u8>(), 0..3000),
        seg_size in 1usize..600,
        loss_seed: u64,
        loss_pct in 0u8..40,
    ) {
        // Keep within the 255-segment limit.
        prop_assume!(payload.len().div_ceil(seg_size.max(1)) <= 255);
        let got = transfer_with_loss(&payload, seg_size, loss_seed, loss_pct);
        prop_assert_eq!(got, payload);
    }

    /// Decoding arbitrary bytes never panics.
    #[test]
    fn segment_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Segment::decode_bytes(&bytes);
        let _ = Segment::decode(&simnet::Payload::from(bytes));
    }

    /// encode ∘ decode is the identity on valid data segments, for the
    /// full call-number and causal-span ranges.
    #[test]
    fn segment_encode_decode_round_trips(
        cn: u32,
        span: u64,
        total in 1u8..=255,
        data in proptest::collection::vec(any::<u8>(), 0..100),
        please_ack: bool,
    ) {
        let number = 1 + (cn % total as u32) as u8;
        let s = Segment::data(MsgType::Return, cn, span, total, number, please_ack, data);
        let decoded = Segment::decode(&s.encode()).unwrap();
        prop_assert_eq!(decoded.header.span, span);
        prop_assert_eq!(decoded, s);
    }

    /// Control segments (acks, probes, probe replies) round-trip too.
    #[test]
    fn control_segments_round_trip(cn: u32, total in 1u8..=255, n: u8, is_call: bool) {
        let msg_type = if is_call { MsgType::Call } else { MsgType::Return };
        for s in [
            Segment::ack(msg_type, cn, total, n.min(total)),
            Segment::probe(cn),
            Segment::probe_reply(cn),
        ] {
            prop_assert_eq!(Segment::decode(&s.encode()).unwrap(), s);
        }
    }

    /// Overwriting any single header byte of a valid segment yields a
    /// clean decode result (Ok or a structured error), never a panic —
    /// the exact corruption class the adversary's bit-flip family sends.
    #[test]
    fn mutated_header_never_panics(
        cn: u32,
        span: u64,
        total in 1u8..=255,
        idx in 0usize..pairedmsg::HEADER_LEN,
        val: u8,
        data in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let number = 1 + (cn % total as u32) as u8;
        let s = Segment::data(MsgType::Call, cn, span, total, number, true, data);
        let mut wire = s.encode().to_vec();
        wire[idx] = val;
        let _ = Segment::decode_bytes(&wire);
    }

    /// Feeding an endpoint arbitrary garbage datagrams never panics and
    /// never fabricates a message event.
    #[test]
    fn endpoint_survives_garbage(
        datagrams in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), 0..50),
    ) {
        let mut e = Endpoint::new(Config::default());
        for d in &datagrams {
            let _ = e.on_datagram(Time::ZERO, &simnet::Payload::from(d));
        }
        while let Some(ev) = e.poll_event() {
            // Garbage can complete a (garbage) message only if it parsed
            // as valid data segments; it must never kill the peer.
            prop_assert!(!matches!(ev, Event::PeerDead));
        }
    }
}

/// The purge this crate used before the completion-ordered queue: scan
/// every record. Kept here, and only here, as the reference.
#[derive(Default)]
struct RetainLog {
    completed: std::collections::BTreeMap<(MsgType, u32), Time>,
    watermark: Option<u32>,
}

impl RetainLog {
    /// Purges; returns the expired call numbers, sorted.
    fn purge(&mut self, now: Time, ttl: simnet::Duration) -> Vec<u32> {
        let mut watermark = self.watermark;
        let mut expired = Vec::new();
        self.completed.retain(|&(msg_type, cn), at| {
            let keep = now.since(*at) < ttl;
            if !keep && msg_type == MsgType::Call {
                watermark = Some(watermark.map_or(cn, |wm| wm.max(cn)));
                expired.push(cn);
            }
            keep
        });
        self.watermark = watermark;
        expired
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The queue purge forgets exactly what the full-scan purge forgot:
    /// same surviving keys, same watermark, the same expired calls handed
    /// out, after every step of a random sequence of completions and
    /// (never backwards) clock readings — with few enough distinct keys
    /// that some complete again, both after their record expired and while
    /// it is still remembered.
    #[test]
    fn queue_purge_matches_the_retain_purge(seed: u64, steps in 1usize..400) {
        let ttl = simnet::Duration::from_millis(1_000);
        let mut rng = simnet::SimRng::new(seed);
        let mut log = pairedmsg::ReplayLog::new();
        let mut reference = RetainLog::default();
        let mut now = Time::ZERO;
        for _ in 0..steps {
            // Mostly small steps, sometimes none, sometimes past the TTL.
            now += simnet::Duration::from_micros(match rng.below(8) {
                0 => 0,
                1 => 1_000_000 + rng.below(500_000),
                _ => rng.below(300_000),
            });
            let mut expired = Vec::new();
            log.purge(now, ttl, |cn| expired.push(cn));
            expired.sort_unstable();
            prop_assert_eq!(expired, reference.purge(now, ttl));
            prop_assert_eq!(log.watermark(), reference.watermark);
            prop_assert_eq!(log.keys(), reference.completed.keys().copied().collect::<Vec<_>>());
            for _ in 0..rng.below(4) {
                let msg_type = if rng.chance(0.5) { MsgType::Call } else { MsgType::Return };
                let key = (msg_type, rng.below(24) as u32);
                let total = 1 + rng.below(3) as u8;
                log.record(key, total, now);
                reference.completed.insert(key, now);
                prop_assert_eq!(log.total_of(key), Some(total));
            }
            prop_assert_eq!(log.len(), reference.completed.len());
        }
    }
}
