//! The single-segment fast path against the general path.
//!
//! A message that fits one segment is delivered by `Endpoint` without a
//! `MsgReceiver`: its data window *is* the message. Two checks pin that
//! to the general reassembly path:
//!
//! - component level: for any lone segment, a one-slot [`MsgReceiver`]
//!   reports exactly what the fast path assumes (complete at once, ack iff
//!   *please ack*, nothing buffered, the same window back);
//! - endpoint level: whole seeded conversations — lone and multi-segment
//!   messages both ways under loss, duplication, late replays and
//!   retransmission with *please ack* — must produce the transcripts the
//!   general path produced. [`GOLDEN`] was recorded by running this file
//!   against the commit before the fast path existed, where every message
//!   went through `MsgReceiver`; a transcript folds every datagram either
//!   side transmits, every event either side delivers, and both sides'
//!   final counters. Its conversations keep a replay TTL far short of the
//!   crash horizon, so the server times every return. [`HELD_GOLDEN`]'s
//!   TTL covers the horizon, so the server holds its one-segment returns
//!   and re-sends them when the client's call timer asks (`endpoint`,
//!   "How a return gets acknowledged"); it was recorded the same way, on
//!   a copy of the endpoint with the fast path taken out.

use pairedmsg::{Config, Endpoint, Event, MsgReceiver, MsgType, Segment};
use proptest::prelude::*;
use simnet::{Duration, Payload, SimRng, Time};

proptest! {
    #[test]
    fn lone_segment_is_what_a_one_slot_receiver_assembles(
        is_call: bool,
        call_number: u32,
        span: u64,
        please_ack: bool,
        data in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let msg_type = if is_call { MsgType::Call } else { MsgType::Return };
        let wire = Segment::data(msg_type, call_number, span, 1, 1, please_ack, data).encode();
        let seg = Segment::decode(&wire).unwrap();
        let mut general = MsgReceiver::new(&seg);
        let actions = general.on_segment(&seg);
        prop_assert!(actions.completed);
        prop_assert_eq!(actions.send_ack, please_ack);
        prop_assert_eq!(general.total(), 1);
        prop_assert_eq!(general.buffered_out_of_order(), 0);
        let assembled = general.assemble();
        prop_assert_eq!(&assembled, &seg.data);
        prop_assert!(seg.data.is_empty() || assembled.shares_buffer_with(&wire));
    }
}

/// FNV-1a, fed tagged records.
struct Fold(u64);

impl Fold {
    fn bytes(&mut self, tag: u8, bytes: &[u8]) {
        let h = obs::fnv1a_fold(self.0, &[tag]);
        let h = obs::fnv1a_fold(h, &(bytes.len() as u32).to_le_bytes());
        self.0 = obs::fnv1a_fold(h, bytes);
    }

    fn words(&mut self, tag: u8, words: &[u64]) {
        for w in words {
            self.bytes(tag, &w.to_le_bytes());
        }
    }
}

/// A datagram held back to arrive (again) after its exchange is over.
struct Late {
    to_server: bool,
    bytes: Payload,
    due_call: u32,
}

struct Conversation {
    client: Endpoint,
    server: Endpoint,
    rng: SimRng,
    now: Time,
    fold: Fold,
    late: Vec<Late>,
    call: u32,
    /// The client has the current call's return.
    answered: bool,
}

impl Conversation {
    /// Carries everything one side has queued to the other, folding each
    /// datagram as transmitted; the wire loses, duplicates and delays.
    fn carry(&mut self, to_server: bool) -> bool {
        let mut moved = false;
        loop {
            let (tx, rx) = if to_server {
                (&mut self.client, &mut self.server)
            } else {
                (&mut self.server, &mut self.client)
            };
            let Some(bytes) = tx.poll_transmit() else {
                return moved;
            };
            moved = true;
            self.fold.bytes(to_server as u8, &bytes);
            if self.rng.chance(0.15) {
                continue; // Lost.
            }
            rx.on_datagram(self.now, &bytes).unwrap();
            if self.rng.chance(0.10) {
                rx.on_datagram(self.now, &bytes).unwrap(); // Duplicated.
            }
            if self.rng.chance(0.10) {
                let due_call = self.call + 1 + self.rng.below(60) as u32;
                self.late.push(Late {
                    to_server,
                    bytes,
                    due_call,
                });
            }
        }
    }

    /// Delivers every event queued on either side, folding each; the
    /// server answers a call with its arguments reversed.
    fn deliver(&mut self) {
        while let Some(ev) = self.server.poll_event() {
            let Event::Message {
                msg_type,
                call_number,
                span,
                data,
            } = ev
            else {
                panic!("the server gave up on a live client");
            };
            self.fold
                .words(2, &[msg_type as u64, call_number as u64, span]);
            self.fold.bytes(3, &data);
            if msg_type == MsgType::Call {
                let mut reply = data.to_vec();
                reply.reverse();
                self.server
                    .send(self.now, MsgType::Return, call_number, span + 1, reply)
                    .unwrap();
            }
        }
        while let Some(ev) = self.client.poll_event() {
            let Event::Message {
                msg_type,
                call_number,
                span,
                data,
            } = ev
            else {
                panic!("the client gave up on a live server");
            };
            self.fold
                .words(4, &[msg_type as u64, call_number as u64, span]);
            self.fold.bytes(5, &data);
            if msg_type == MsgType::Return && call_number == self.call {
                self.answered = true;
            }
        }
    }

    /// One call/return exchange, retransmission ticks included.
    fn exchange(&mut self) {
        self.call += 1;
        self.answered = false;
        // Mostly lone segments (the empty message too); sometimes three.
        let len = match self.rng.below(10) {
            0 => 0,
            1 | 2 => 1_100 + self.rng.below(1_500) as usize,
            _ => 1 + self.rng.below(200) as usize,
        };
        let fill = self.rng.next_u64();
        let args: Vec<u8> = (0..len)
            .map(|i| (fill >> (i % 8 * 8)) as u8 ^ i as u8)
            .collect();
        self.client
            .send(
                self.now,
                MsgType::Call,
                self.call,
                self.call as u64 * 3,
                args,
            )
            .unwrap();
        while !self.answered {
            let moved = self.carry(true) | self.carry(false);
            self.deliver();
            if !moved && !self.answered {
                let due = [self.client.poll_timer(), self.server.poll_timer()]
                    .into_iter()
                    .flatten()
                    .min()
                    .expect("an unanswered call keeps a timer armed");
                self.now = self.now.max(due);
                self.client.on_timer(self.now);
                self.server.on_timer(self.now);
            }
        }
        // Replays of earlier exchanges' datagrams arrive now.
        let (due, later): (Vec<Late>, Vec<Late>) = std::mem::take(&mut self.late)
            .into_iter()
            .partition(|l| l.due_call <= self.call);
        self.late = later;
        for l in due {
            let rx = if l.to_server {
                &mut self.server
            } else {
                &mut self.client
            };
            rx.on_datagram(self.now, &l.bytes).unwrap();
        }
        self.carry(true);
        self.carry(false);
        self.deliver();
        self.now += Duration::from_millis(1 + self.rng.below(40));
    }
}

/// The conversations' configuration: returns timed (`held` false) or
/// held.
fn config(held: bool) -> Config {
    let config = Config {
        // The grain the transcripts were recorded at: "sometimes three"
        // segments below means 1,100..2,600 bytes over this.
        max_segment_data: 1_024,
        max_retransmits: if held { 10 } else { 60 },
        ..Config::default()
    };
    Config {
        // Short enough that records expire (and replays meet the
        // watermark) within one conversation: 3 s, or the 11.7 s horizon.
        replay_ttl: if held {
            config.crash_horizon()
        } else {
            Duration::from_secs(3)
        },
        ..config
    }
}

fn transcript(seed: u64, config: Config) -> u64 {
    let mut c = Conversation {
        client: Endpoint::new(config.clone()),
        server: Endpoint::new(config),
        rng: SimRng::new(seed),
        now: Time::ZERO,
        fold: Fold(obs::FNV1A_BASIS),
        late: Vec::new(),
        call: 0,
        answered: false,
    };
    for _ in 0..150 {
        c.exchange();
    }
    for e in [&c.client, &c.server] {
        let s = e.stats();
        c.fold.words(
            6,
            &[
                s.segments_sent,
                s.max_recv_buffered as u64,
                s.calls_delivered,
                s.returns_delivered,
                s.duplicate_call_deliveries,
                s.send_call_regressions,
                s.replays_suppressed,
            ],
        );
    }
    c.fold.0
}

/// `(seed, transcript)` as the general path produced them, returns timed.
const GOLDEN: [(u64, u64); 6] = [
    (1, 0x37d2_fa36_d799_2d80),
    (2, 0x121e_60d3_b0bc_ceb6),
    (3, 0xba15_2f2e_1dc8_64e8),
    (1985, 0x7c36_73ff_acdb_b09f),
    (0xDEAD_BEEF, 0xcde0_f8d9_35f0_a3ef),
    (u64::MAX, 0x4cc5_6e2d_0e40_6ce7),
];

/// `(seed, transcript)` as the general path produced them, returns held.
const HELD_GOLDEN: [(u64, u64); 6] = [
    (1, 0x1d6f_b43c_80ac_2d86),
    (2, 0x55f7_ef94_9024_f579),
    (3, 0x53f8_2305_d74a_6e10),
    (1985, 0x27a5_cf5c_6581_024d),
    (0xDEAD_BEEF, 0xeb9f_222d_5d7b_0507),
    (u64::MAX, 0x5e70_78af_1c75_a7b9),
];

#[test]
fn conversations_match_the_general_path_transcripts() {
    for (held, golden) in [(false, GOLDEN), (true, HELD_GOLDEN)] {
        let actual: Vec<(u64, u64)> = golden
            .iter()
            .map(|&(seed, _)| (seed, transcript(seed, config(held))))
            .collect();
        assert_eq!(
            actual, golden,
            "transcripts (held: {held}) diverged from the general path; actual: {actual:#x?}"
        );
    }
}
