//! Property-based tests: any message survives any bounded loss pattern,
//! reassembly is exact for arbitrary payloads and segment sizes, every
//! datagram cut from a framed message is the one a contiguous encode
//! makes, and an endpoint fed garbage or well-formed hostile segments
//! neither panics nor breaks a §4.2 rule it alone answers for.

mod spec;

use pairedmsg::{
    Config, Endpoint, Event, MsgSender, MsgType, ProtocolMode, Segment, SegmentHeader,
};
use proptest::prelude::*;
use simnet::{Duration, Payload, Time};
use spec::{Pair, Rule, CLIENT, SERVER};

/// Drives a one-way transfer, through the datagram encoding and under the
/// §4.2 checker, with a pseudo-random loss pattern; returns the delivered
/// payload.
fn transfer_with_loss(payload: &[u8], seg_size: usize, loss_seed: u64, loss_pct: u8) -> Vec<u8> {
    let mut pair = Pair::new(Config {
        max_segment_data: seg_size.max(1),
        max_retransmits: 200,
        // Records must outlive the schedule: a 239.7 s crash horizon.
        replay_ttl: Duration::from_secs(240),
        ..Config::default()
    });
    pair.spec.unreliable();
    let mut now = Time::ZERO;
    let mut rng = simnet::SimRng::new(loss_seed);
    pair.ends[CLIENT]
        .send(now, MsgType::Call, 1, 0, payload)
        .unwrap();
    for _ in 0..10_000 {
        let mut moved = false;
        for from in [CLIENT, SERVER] {
            for seg in pair.drain(now, from) {
                moved = true;
                if !rng.chance(loss_pct as f64 / 100.0) {
                    pair.arrive(now, 1 - from, Segment::decode(&seg.encode()).unwrap());
                }
            }
        }
        if let Some(Event::Message { data, .. }) = pair.event(SERVER) {
            return data.to_vec();
        }
        if !moved {
            // Advance to the next retransmission deadline.
            let Some(t) = pair.ends[CLIENT].poll_timer() else {
                break;
            };
            now = t;
            pair.tick(now, CLIENT);
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

/// One hostile step, decoded from a word: a data segment, an ack, a probe
/// or probe reply from the peer, over call numbers 1..=4, with totals and
/// segment numbers that need not agree (0 and past the total included); a
/// tick of up to 20 s; or a call or return the endpoint sends of its own.
fn hostile_step(pair: &mut Pair, now: &mut Time, w: u64) {
    let msg_type = [MsgType::Call, MsgType::Return][(w >> 3) as usize & 1];
    let cn = 1 + (w >> 8) as u32 % 4;
    let (total, number) = ((w >> 16) as u8 % 4, (w >> 24) as u8 % 5);
    let please_ack = w >> 4 & 1 == 1;
    let seg = match w % 8 {
        0..=3 => Segment::data(msg_type, cn, 0, total, number, please_ack, vec![w as u8; 3]),
        4 => Segment::ack(msg_type, cn, total, number),
        5 if please_ack => Segment::probe(cn),
        5 => Segment::probe_reply(cn),
        6 => {
            *now += Duration::from_millis((w >> 32) % 20_000);
            return pair.tick(*now, CLIENT);
        }
        _ => {
            let data = vec![7u8; (w >> 32) as usize % 10];
            let _ = pair.ends[CLIENT].send(*now, msg_type, cn, 0, data);
            return;
        }
    };
    pair.arrive(*now, CLIENT, seg);
}

/// The datagram of header `h` as it always was: `Segment::encode` of
/// that header over the contiguous message, cut every `chunk` bytes.
fn contiguous_encode(message: &[u8], chunk: usize, h: SegmentHeader) -> Payload {
    let start = (usize::from(h.number) - 1) * chunk;
    let data = &message[start..(start + chunk).min(message.len())];
    Segment::data(
        h.msg_type,
        h.call_number,
        h.span,
        h.total,
        h.number,
        h.please_ack,
        data,
    )
    .encode()
}

/// Checks every datagram `endpoint` queued against [`contiguous_encode`]
/// and keeps a copy of its bytes in `sent`.
fn check_queued(
    endpoint: &mut Endpoint,
    message: &[u8],
    chunk: usize,
    sent: &mut Vec<(Payload, Vec<u8>)>,
) {
    while let Some(datagram) = endpoint.poll_transmit() {
        let h = SegmentHeader::decode(&datagram).expect("a data segment");
        assert_eq!(datagram, contiguous_encode(message, chunk, h), "{h:?}");
        let bytes = datagram.to_vec();
        sent.push((datagram, bytes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wire does not depend on how a message is laid out: for any
    /// segment size, length (exact multiples of it included), protocol
    /// discipline, call numbers across a three-peer fan-out (equal or
    /// not), a message handed over alone or shared, and a cut for a
    /// multicast, every first transmission and every *please ack*
    /// retransmission of every segment is byte for byte the datagram
    /// `Segment::encode` makes over the contiguous message — and no
    /// datagram handed out ever changes afterwards.
    #[test]
    fn framed_datagrams_are_the_contiguous_encodes(
        chunk in 1usize..=40,
        pick in 0usize..=163,
        exact: bool,
        parc: bool,
        shared: bool,
        is_call: bool,
        call_numbers in proptest::collection::vec(1u32..=3, 3),
        span: u64,
        fill: u8,
    ) {
        let len = pick % (4 * chunk + 4);
        let len = if exact { len - len % chunk } else { len };
        let mode = if parc { ProtocolMode::Parc } else { ProtocolMode::Circus };
        let config = Config { max_segment_data: chunk, mode, ..Config::default() };
        let msg_type = if is_call { MsgType::Call } else { MsgType::Return };
        let message: Vec<u8> = (0..len).map(|i| fill ^ i as u8).collect();
        let mut framed = config.frame(&message);
        let held = shared.then(|| framed.clone());
        let mut sent = Vec::new();

        let mut peers: Vec<Endpoint> = (0..3).map(|_| Endpoint::new(config.clone())).collect();
        for (peer, &cn) in peers.iter_mut().zip(&call_numbers) {
            peer.send_shared(Time::ZERO, msg_type, cn, span, &mut framed).unwrap();
            check_queued(peer, &message, chunk, &mut sent);
        }
        let cn = call_numbers[0];
        let mut cut = MsgSender::new(Time::ZERO, &config, msg_type, cn, span, framed.clone()).unwrap();
        for datagram in cut.initial_datagrams() {
            let h = SegmentHeader::decode(&datagram).unwrap();
            prop_assert_eq!(&datagram, &contiguous_encode(&message, chunk, h));
        }

        // Each segment in turn is re-sent with *please ack*, then
        // acknowledged; PARC releases the next on the ack.
        let total = config.segments_of(len) as u8;
        for (peer, &cn) in peers.iter_mut().zip(&call_numbers) {
            for number in 1..=total {
                let due = peer.poll_timer().expect("a retransmission timer");
                peer.on_timer(due);
                let before = sent.len();
                check_queued(peer, &message, chunk, &mut sent);
                let resent = SegmentHeader::decode(&sent[before].0).unwrap();
                prop_assert!(resent.please_ack && resent.number == number);
                peer.on_segment(due, Segment::ack(msg_type, cn, total, number));
                check_queued(peer, &message, chunk, &mut sent);
            }
        }
        for (datagram, bytes) in &sent {
            prop_assert_eq!(&datagram[..], &bytes[..]);
        }
        drop(held);
    }
}

proptest! {
    /// Well-formed hostile segments, interleaved with ticks and traffic of
    /// the endpoint's own: no panic, no call delivered twice (S1), no ack
    /// ahead of the data it acknowledges (S3).
    #[test]
    fn endpoint_survives_hostile_segments(words in proptest::collection::vec(any::<u64>(), 0..120)) {
        let mut pair = Pair::new(Config { max_segment_data: 4, ..Config::default() });
        pair.spec.unreliable();
        let mut now = Time::ZERO;
        for w in words {
            hostile_step(&mut pair, &mut now, w);
            pair.drain(now, CLIENT);
        }
        let broken: Vec<_> = std::mem::take(&mut pair.spec.violations).into_iter()
            .filter(|v| matches!(v.0, Rule::S1 | Rule::S3))
            .collect();
        prop_assert!(broken.is_empty(), "{broken:#?}");
    }
}

/// The purge this crate used before the completion-ordered queue: scan
/// every record. Kept here, and only here, as the reference, with each
/// record's segment count and acked bit beside it in plain maps.
#[derive(Default)]
struct RetainLog {
    completed: std::collections::BTreeMap<(MsgType, u32), Time>,
    totals: std::collections::BTreeMap<(MsgType, u32), u8>,
    acked: std::collections::BTreeSet<(MsgType, u32)>,
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
        self.totals.retain(|k, _| self.completed.contains_key(k));
        self.acked.retain(|k| self.completed.contains_key(k));
        self.watermark = watermark;
        expired
    }

    fn record(&mut self, key: (MsgType, u32), total: u8, at: Time) {
        self.completed.insert(key, at);
        self.totals.insert(key, total);
        self.acked.remove(&key);
    }

    fn note_acked(&mut self, key: (MsgType, u32)) {
        if self.completed.contains_key(&key) {
            self.acked.insert(key);
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Runs answer every question a map would: after every step of
    /// completions that mostly extend a run, mixed with explicit acks,
    /// keys completed again inside a run, completions out of order or
    /// older than the run's last, and purges at a clock that never runs
    /// backwards, the log agrees with the reference on the expired calls,
    /// the watermark, `keys()`, and `acked` and `total_of` for every key.
    #[test]
    fn runs_answer_as_the_retain_reference(seed: u64, steps in 1usize..200) {
        let ttl = simnet::Duration::from_millis(1_000);
        let mut rng = simnet::SimRng::new(seed);
        let mut log = pairedmsg::ReplayLog::new();
        let mut reference = RetainLog::default();
        let mut now = Time::ZERO;
        let mut next = [1u32; 2];
        for _ in 0..steps {
            now += simnet::Duration::from_micros(match rng.below(8) {
                0 => 0,
                1 => 1_000_000 + rng.below(500_000),
                _ => rng.below(200_000),
            });
            let mut expired = Vec::new();
            log.purge(now, ttl, |cn| expired.push(cn));
            expired.sort_unstable();
            prop_assert_eq!(expired, reference.purge(now, ttl));
            prop_assert_eq!(log.watermark(), reference.watermark);
            for _ in 0..rng.below(5) {
                let t = rng.below(2) as usize;
                let msg_type = [MsgType::Call, MsgType::Return][t];
                let remembered: Vec<_> = reference.completed.keys().copied().collect();
                let pick = |rng: &mut simnet::SimRng| remembered[rng.below(remembered.len() as u64) as usize];
                match rng.below(10) {
                    // Acknowledge a remembered message, or one that is not.
                    0 | 1 => {
                        let key = if remembered.is_empty() || rng.chance(0.2) {
                            (msg_type, rng.below(u64::from(next[t]) + 2) as u32)
                        } else {
                            pick(&mut rng)
                        };
                        log.note_acked(key);
                        reference.note_acked(key);
                        continue;
                    }
                    // Complete a remembered message again.
                    2 if !remembered.is_empty() => {
                        let key = pick(&mut rng);
                        let total = 1 + rng.below(2) as u8;
                        log.record(key, total, now);
                        reference.record(key, total, now);
                    }
                    // Complete one out of order, or at an older time.
                    3 => {
                        let key = (msg_type, rng.below(u64::from(next[t]) + 3) as u32);
                        let at = Time::from_micros(now.as_micros().saturating_sub(rng.below(400_000)));
                        let total = 1 + rng.below(2) as u8;
                        log.record(key, total, at);
                        reference.record(key, total, at);
                    }
                    // The common case: the next number.
                    _ => {
                        let key = (msg_type, next[t]);
                        next[t] += 1 + u32::from(rng.chance(0.05));
                        let total = if rng.chance(0.9) { 1 } else { 2 };
                        log.record(key, total, now);
                        reference.record(key, total, now);
                    }
                }
            }
            prop_assert_eq!(log.keys(), reference.completed.keys().copied().collect::<Vec<_>>());
            prop_assert_eq!(log.len(), reference.completed.len());
            for (t, msg_type) in [MsgType::Call, MsgType::Return].into_iter().enumerate() {
                for cn in 0..next[t] + 3 {
                    let key = (msg_type, cn);
                    let remembered = reference.completed.contains_key(&key);
                    prop_assert_eq!(log.total_of(key), reference.totals.get(&key).copied(), "{:?}", key);
                    let acked = remembered.then(|| reference.acked.contains(&key));
                    prop_assert_eq!(log.acked(key), acked, "{:?}", key);
                }
            }
        }
    }
}
