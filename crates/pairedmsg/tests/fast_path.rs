//! The single-segment fast path against the general path, and the §4.2
//! rules over a seeded sweep of the same conversation.
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
//!   general path produced ([`HELD_GOLDEN`], recorded on a copy of the
//!   endpoint with the fast path taken out). A transcript folds every
//!   datagram either side transmits, every event either side delivers, and
//!   both sides' final counters.
//!
//! Every conversation runs under the §4.2 checker (`spec`). The sweep runs
//! a variant over 300 seeds, drawing from a second RNG so the wire's draws
//! stay the golden ones: a quarter of the calls run 200–1,100 ms, so
//! *please ack* copies arrive while they run and their returns keep the
//! callee's timer; three returns in ten are adopted and carried by a cut
//! `MsgSender`, as a troupe-wide blast would carry them; every third seed
//! runs the PARC discipline; every fifth runs on a lossless wire, for S6;
//! and one in five crashes the server in place of an answer, or the client
//! while its call runs, for S4.

mod spec;

use std::collections::BTreeMap;

use pairedmsg::{Config, Event, MsgReceiver, MsgSender, MsgType, ProtocolMode, Segment};
use proptest::prelude::*;
use simnet::{Duration, SimRng, Time};
use spec::{Pair, CLIENT, SERVER};

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
    to: usize,
    seg: Segment,
    due_call: u32,
}

struct Conversation {
    pair: Pair,
    config: Config,
    rng: SimRng,
    now: Time,
    fold: Fold,
    late: Vec<Late>,
    call: u32,
    /// The current call's return: its arguments reversed.
    expect: Vec<u8>,
    /// The client has the current call's return.
    answered: bool,
    /// A side raised `PeerDead`, or nothing is left to time.
    over: bool,
    /// The sweep's variant (module docs), which draws from `vary`.
    sweep: bool,
    vary: SimRng,
    lossless: bool,
    adopted: u64,
    /// Calls still running: when each returns, its number, span and
    /// return.
    running: Vec<(Time, u32, u64, Vec<u8>)>,
    /// The exchange at which a side crashes, and which side.
    crash: Option<(u32, usize)>,
    down: Option<usize>,
    /// The server had a timer armed after the client crashed.
    callee_timed: bool,
}

impl Conversation {
    /// Seed `seed`'s golden conversation, or its variant in the sweep.
    fn new(seed: u64, config: Config, sweep: bool) -> Conversation {
        let mut vary = SimRng::new(!seed);
        let crash = (sweep && seed % 5 == 3).then(|| {
            let side = if vary.chance(0.5) { SERVER } else { CLIENT };
            (100 + vary.below(50) as u32, side)
        });
        let lossless = sweep && seed.is_multiple_of(5);
        let mut pair = Pair::new(config.clone());
        if !lossless {
            pair.spec.unreliable();
        }
        Conversation {
            pair,
            config,
            rng: SimRng::new(seed),
            now: Time::ZERO,
            fold: Fold(obs::FNV1A_BASIS),
            late: Vec::new(),
            call: 0,
            expect: Vec::new(),
            answered: false,
            over: false,
            sweep,
            vary,
            lossless,
            adopted: 0,
            running: Vec::new(),
            crash,
            down: None,
            callee_timed: false,
        }
    }

    /// Carries everything side `from` has queued to the other side; a
    /// crashed side sends nothing.
    fn carry(&mut self, from: usize) -> bool {
        if self.down == Some(from) {
            return false;
        }
        let segs = self.pair.drain(self.now, from);
        let moved = !segs.is_empty();
        for seg in segs {
            self.transmit(from, seg);
        }
        moved
    }

    /// One datagram on the wire, folded as transmitted: unless the wire is
    /// lossless, it loses, duplicates and delays.
    fn transmit(&mut self, from: usize, seg: Segment) {
        let to = 1 - from;
        self.fold.bytes((to == SERVER) as u8, &seg.encode());
        if self.down == Some(to) {
            self.pair.spec.unreliable();
            return;
        }
        if self.lossless {
            self.pair.arrive(self.now, to, seg);
            return;
        }
        if self.rng.chance(0.15) {
            return; // Lost.
        }
        self.pair.arrive(self.now, to, seg.clone());
        if self.rng.chance(0.10) {
            self.pair.arrive(self.now, to, seg.clone()); // Duplicated.
        }
        if self.rng.chance(0.10) {
            // In the sweep a copy may come back before the next call, while
            // its exchange's return is still held.
            let soonest = self.call + u32::from(!self.sweep);
            let due_call = soonest + self.rng.below(60) as u32;
            self.late.push(Late { to, seg, due_call });
        }
    }

    /// Delivers every event queued on either side, folding each; the
    /// server answers a call with its arguments reversed.
    fn deliver(&mut self) {
        for (side, tag) in [(SERVER, 2), (CLIENT, 4)] {
            while let Some(ev) = self.pair.event(side) {
                let Event::Message {
                    msg_type,
                    call_number,
                    span,
                    data,
                } = ev
                else {
                    assert!(self.down.is_some(), "side {side} gave up on a live peer");
                    self.over = true;
                    continue;
                };
                self.fold
                    .words(tag, &[msg_type as u64, call_number as u64, span]);
                self.fold.bytes(tag + 1, &data);
                match msg_type {
                    MsgType::Call => {
                        let reply = data.iter().rev().copied().collect();
                        self.answer(call_number, span + 1, reply);
                    }
                    MsgType::Return if call_number == self.call => {
                        assert_eq!(data, self.expect, "return {call_number}");
                        self.answered = true;
                    }
                    MsgType::Return => {}
                }
            }
        }
    }

    /// The server has call `cn`: in the sweep a quarter of the calls run
    /// 200–1,100 ms.
    fn answer(&mut self, cn: u32, span: u64, reply: Vec<u8>) {
        if self.crash == Some((cn, CLIENT)) {
            self.down = Some(CLIENT);
        }
        let service = if self.sweep && self.vary.chance(0.25) {
            200 + self.vary.below(901)
        } else {
            0
        };
        let due = self.now + Duration::from_millis(service);
        self.running.push((due, cn, span, reply));
    }

    /// Sends the return of every call whose service time is up, or adopts
    /// it and carries a cut sender's copy; the server crashes instead if
    /// this is its exchange.
    fn serve(&mut self) -> bool {
        let now = self.now;
        let (due, running) = std::mem::take(&mut self.running)
            .into_iter()
            .partition::<Vec<_>, _>(|r| r.0 <= now);
        self.running = running;
        let served = !due.is_empty();
        for (_, cn, span, reply) in due {
            if self.crash == Some((cn, SERVER)) {
                self.down = Some(SERVER);
            }
            if self.down == Some(SERVER) {
                break;
            }
            let circus = self.config.mode == ProtocolMode::Circus;
            if !(self.sweep && circus && self.vary.chance(0.3)) {
                let server = &mut self.pair.ends[SERVER];
                server.send(now, MsgType::Return, cn, span, reply).unwrap();
                continue;
            }
            self.adopted += 1;
            let reply = self.config.frame(&reply);
            let cut = MsgSender::new(now, &self.config, MsgType::Return, cn, span, reply.clone());
            let cut = cut.unwrap();
            let server = &mut self.pair.ends[SERVER];
            server.adopt(now, MsgType::Return, cn, span, reply).unwrap();
            for n in 1..=cut.total() {
                let seg = cut.segment(n, false);
                self.pair.spec.sent(now, SERVER, &seg.header);
                self.transmit(SERVER, seg);
            }
        }
        served
    }

    /// The earliest timer of a live side, or the end of a running call.
    fn next_due(&self) -> Option<Time> {
        let live = [CLIENT, SERVER]
            .into_iter()
            .filter(|&side| self.down != Some(side));
        let timers = live.filter_map(|side| self.pair.ends[side].poll_timer());
        timers.chain(self.running.iter().map(|r| r.0)).min()
    }

    /// Advances the clock to `due` and ticks every live side.
    fn tick(&mut self, due: Time) {
        self.now = self.now.max(due);
        let timed = self.pair.ends[SERVER].poll_timer().is_some();
        self.callee_timed |= self.down == Some(CLIENT) && timed;
        for side in [CLIENT, SERVER] {
            if self.down != Some(side) {
                self.pair.tick(self.now, side);
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
        self.expect = args.iter().rev().copied().collect();
        let (span, start) = (self.call as u64 * 3, self.now);
        self.pair.ends[CLIENT]
            .send(self.now, MsgType::Call, self.call, span, args)
            .unwrap();
        while !self.answered && !self.over {
            let moved = self.carry(CLIENT) | self.carry(SERVER);
            self.deliver();
            let moved = self.serve() | moved;
            if moved || self.answered || self.over {
                continue;
            }
            let Some(due) = self.next_due() else {
                assert!(
                    self.down.is_some(),
                    "an unanswered call keeps a timer armed"
                );
                self.over = true;
                break;
            };
            assert!(
                due.since(start) < Duration::from_secs(60),
                "call {} never answered",
                self.call
            );
            self.tick(due);
        }
        if self.over {
            return;
        }
        // Replays of earlier exchanges' datagrams arrive now.
        let (due, later): (Vec<Late>, Vec<Late>) = std::mem::take(&mut self.late)
            .into_iter()
            .partition(|l| l.due_call <= self.call);
        self.late = later;
        for l in due {
            self.pair.arrive(self.now, l.to, l.seg);
        }
        self.carry(CLIENT);
        self.carry(SERVER);
        self.deliver();
        self.serve();
        self.now += Duration::from_millis(1 + self.rng.below(40));
    }

    /// 150 exchanges, or fewer if a side crashed.
    fn run(&mut self) {
        for _ in 0..150 {
            self.exchange();
            if self.over {
                return;
            }
        }
    }
}

/// The conversations' configuration: short enough a replay TTL, the
/// 11.7 s crash horizon, that records expire (and replays meet the
/// watermark) within one conversation.
fn config() -> Config {
    let config = Config {
        // The grain the transcripts were recorded at: "sometimes three"
        // segments below means 1,100..2,600 bytes over this.
        max_segment_data: 1_024,
        max_retransmits: 10,
        ..Config::default()
    };
    Config {
        replay_ttl: config.crash_horizon(),
        ..config
    }
}

fn transcript(seed: u64) -> u64 {
    let mut c = Conversation::new(seed, config(), false);
    c.run();
    for s in &c.pair.counts {
        c.fold.words(
            6,
            &[
                s.segments_sent.get(),
                s.max_recv_buffered.get(),
                s.calls_delivered.get(),
                s.returns_delivered.get(),
                s.duplicate_call_deliveries.get(),
                s.send_call_regressions.get(),
                s.replays_suppressed.get(),
            ],
        );
    }
    c.fold.0
}

/// `(seed, transcript)` as the general path produced them.
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
    let actual: Vec<(u64, u64)> = HELD_GOLDEN
        .iter()
        .map(|&(seed, _)| (seed, transcript(seed)))
        .collect();
    assert_eq!(
        actual, HELD_GOLDEN,
        "transcripts diverged from the general path; actual: {actual:#x?}"
    );
}

#[test]
fn the_rules_hold_over_a_seeded_sweep() {
    let each = "owed resent_held resent_timed dead_by_probes dead_by_silence floor adopted \
                suppressed callee_dead";
    let mut tally: BTreeMap<&str, u64> = each.split(' ').map(|w| (w, 0)).collect();
    for seed in 1..=300u64 {
        let mode = [ProtocolMode::Circus, ProtocolMode::Parc][usize::from(seed.is_multiple_of(3))];
        let mut c = Conversation::new(seed, Config { mode, ..config() }, true);
        c.run();
        let callee_dead = c.down == Some(CLIENT) && c.pair.ends[SERVER].is_dead();
        match c.down {
            // A crashed server's client must notice; a crashed client's
            // server ends dead if it was left timing a return (within the
            // bound `exchange` puts on every call), else with nothing timed.
            Some(SERVER) => assert!(c.pair.ends[CLIENT].is_dead(), "seed {seed}"),
            Some(_) => assert_eq!(callee_dead, c.callee_timed, "seed {seed}"),
            // The last return, if timed, is re-sent and answered: S6
            // sees that on a lossless wire.
            None => {
                while let Some(due) = c.next_due() {
                    c.tick(due);
                    c.carry(SERVER);
                    c.carry(CLIENT);
                    c.deliver();
                }
            }
        }
        let found = c.pair.spec.finish();
        assert!(found.is_empty(), "seed {seed}: {found:#?}");
        // Stop-and-wait never buffers a segment out of order (§4.2.5),
        // though a late replay of an expired return may.
        if mode == ProtocolMode::Parc && c.lossless {
            assert!(c.pair.counts.iter().all(|s| s.max_recv_buffered.get() <= 1));
        }
        let suppressed = c.pair.counts[SERVER].replays_suppressed.get();
        let counts = [
            ("adopted", c.adopted),
            ("suppressed", suppressed),
            ("callee_dead", u64::from(callee_dead)),
        ];
        for (what, n) in c.pair.spec.tally.clone().into_iter().chain(counts) {
            *tally.entry(what).or_default() += n;
        }
    }
    let missed: Vec<_> = each.split(' ').filter(|&w| tally[w] == 0).collect();
    assert!(missed.is_empty(), "unexercised: {missed:?} in {tally:?}");
}
