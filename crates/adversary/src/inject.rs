//! The live traffic injector: arms a chaos scenario with an adversary.
//!
//! [`AdvInjector`] implements [`simnet::TrafficInjector`]. The simnet
//! world calls [`observe`](simnet::TrafficInjector::observe) on every
//! delivered datagram and [`inject`](simnet::TrafficInjector::inject) at
//! seeded ticks; the injector answers with forged datagrams drawn from
//! the [`gen`](crate::gen) taxonomy plus three capture-derived attacks
//! (verbatim replay, guaranteed-garbled bit flip, and a captured call
//! re-sent with *please ack*).
//!
//! Determinism contract: the injector owns a splitmix64 stream seeded
//! from `seed ^ ADV_DOMAIN` and never touches the world's own RNG, and
//! `observe` samples captures by a plain counter (every 97th datagram),
//! so two runs of the same seed are bit-identical — same trace hash,
//! same metrics dump, same span hash.

use crate::gen::{attacker_addr, hostile_datagram, please_ack_duplicate, HostileKind};
use obs::Registry;
use pairedmsg::Segment;
use proptest::strategy::{Strategy, Union};
use proptest::test_runner::TestRng;
use simnet::{Duration, ForgedDatagram, HostId, Payload, SockAddr, Time, TrafficInjector, World};

/// The attacker's host id: never spawned by any scenario, so replies to
/// forged traffic drop as undeliverable instead of reaching a process.
pub const ATTACKER_HOST: HostId = HostId(66);

/// Domain-separation constant mixed into the scenario seed so the
/// adversary's stream is unrelated to the fault plan drawn from the
/// same seed.
const ADV_DOMAIN: u64 = 0xadf0_5eed_9e37_79b9;

/// First injection tick: late enough that the stack is registered and
/// carrying traffic worth capturing.
const FIRST_TICK: Duration = Duration::from_millis(5_000);

/// Injection budget: ticks 1–3 forged datagrams each.
const TICK_BUDGET: u32 = 60;

/// Capture-ring size and sampling stride (prime, so the samples spread
/// across traffic phases instead of locking onto one periodic flow).
const CAPTURE_CAP: usize = 64;
const CAPTURE_STRIDE: u64 = 97;

/// A captured live datagram, replayable verbatim. The delivery time is
/// kept so the replay suite can pick captures whose completed-call
/// records are still inside (or deliberately outside) the replay TTL.
#[derive(Clone, Debug)]
struct Capture {
    at: Time,
    from: SockAddr,
    to: SockAddr,
    data: Vec<u8>,
}

/// The adversary. Build one with [`AdvInjector::new`] (fuzzing) or
/// [`AdvInjector::capture_only`] (records traffic, injects nothing —
/// the replay-attack suite uses this to harvest a completed call's
/// segments and re-deliver them after quiescence).
pub struct AdvInjector {
    rng: TestRng,
    reg: Registry,
    strategy: Union<(HostileKind, Vec<u8>)>,
    attacker: SockAddr,
    targets: Vec<SockAddr>,
    captures: Vec<Capture>,
    capture_filter: Option<fn(SockAddr, SockAddr) -> bool>,
    observed: u64,
    matched: u64,
    ticks_left: u32,
}

impl AdvInjector {
    /// A fuzzing adversary seeded from the scenario seed, targeting the
    /// given live addresses.
    pub fn new(seed: u64, reg: Registry, targets: Vec<SockAddr>) -> AdvInjector {
        let attacker = attacker_addr();
        AdvInjector {
            rng: TestRng::new(seed ^ ADV_DOMAIN),
            reg,
            strategy: hostile_datagram(attacker),
            attacker,
            targets,
            captures: Vec::new(),
            capture_filter: None,
            observed: 0,
            matched: 0,
            ticks_left: TICK_BUDGET,
        }
    }

    /// A passive recorder: keeps the *latest* `CAPTURE_CAP`×8 datagrams
    /// matching `filter` (a ring, so long runs keep their freshest
    /// traffic) and never injects anything. The replay suite drains
    /// [`captures`](AdvInjector::captures) after quiescence.
    pub fn capture_only(reg: Registry, filter: fn(SockAddr, SockAddr) -> bool) -> AdvInjector {
        let attacker = attacker_addr();
        AdvInjector {
            rng: TestRng::new(ADV_DOMAIN),
            reg,
            strategy: hostile_datagram(attacker),
            attacker,
            targets: Vec::new(),
            captures: Vec::new(),
            capture_filter: Some(filter),
            observed: 0,
            matched: 0,
            ticks_left: 0,
        }
    }

    /// Everything captured so far, as `(delivered_at, from, to, bytes)`.
    pub fn captures(&self) -> Vec<(Time, SockAddr, SockAddr, Vec<u8>)> {
        self.captures
            .iter()
            .map(|c| (c.at, c.from, c.to, c.data.clone()))
            .collect()
    }

    /// One forged datagram, counting it in the `adv.*` metrics family.
    fn forge(&mut self) -> ForgedDatagram {
        // Three draws in five try a capture-derived attack; without
        // captures yet, fall through to the generated taxonomy. The roll
        // is taken unconditionally so the stream stays aligned across
        // scenarios whose capture timing differs.
        let roll = self.rng.below(5);
        let capture = if !self.captures.is_empty() {
            let i = self.rng.below(self.captures.len() as u64) as usize;
            Some(self.captures[i].clone())
        } else {
            None
        };
        let (kind, from, to, data) = match (roll, capture) {
            (2, Some(c)) => {
                // Verbatim replay: original source, destination, bytes.
                // The protocol must absorb it exactly as it absorbs the
                // network's own duplicates.
                (HostileKind::Replay, c.from, c.to, c.data)
            }
            (3, Some(c)) if !c.data.is_empty() => {
                // Bit flip. §2.2 assumes checksums catch corruption, so
                // a flip that happens to leave the segment decodable is
                // forced garbled: a slipped-through corrupt-but-valid
                // call would be a Byzantine fault outside the model.
                let mut d = c.data;
                let bit = self.rng.below(d.len() as u64 * 8);
                d[(bit / 8) as usize] ^= 1 << (bit % 8);
                if Segment::decode_bytes(&d).is_ok() {
                    d[0] = 0xff;
                }
                (HostileKind::BitFlip, self.attacker, c.to, d)
            }
            (4, Some(c)) => match please_ack_duplicate(&c.data) {
                // The caller's own retransmission, forged: it may bring
                // back the genuine return (or an ack of the call), and must
                // never run the call again.
                Some(d) => (HostileKind::PleaseAck, c.from, c.to, d),
                None => self.generated(),
            },
            _ => self.generated(),
        };
        self.reg.add("adv.injected", 1);
        self.reg.add(&format!("adv.gen.{}", kind.name()), 1);
        if Segment::decode_bytes(&data).is_ok() {
            // Passed the first structural gate; deeper layers (payload
            // internalize, incarnation check) must still reject it.
            self.reg.add("adv.accepted", 1);
        }
        ForgedDatagram { from, to, data }
    }

    /// A draw from the generated taxonomy, aimed at a random target.
    fn generated(&mut self) -> (HostileKind, SockAddr, SockAddr, Vec<u8>) {
        let (kind, bytes) = self.strategy.generate(&mut self.rng);
        let i = self.rng.below(self.targets.len() as u64) as usize;
        (kind, self.attacker, self.targets[i], bytes)
    }
}

impl TrafficInjector for AdvInjector {
    fn observe(&mut self, now: Time, from: SockAddr, to: SockAddr, data: &Payload) {
        self.observed += 1;
        match self.capture_filter {
            // Recorder mode: a dense ring of the latest N matching
            // datagrams, so the harvest covers whole recent calls.
            Some(filter) => {
                if filter(from, to) {
                    let c = Capture {
                        at: now,
                        from,
                        to,
                        data: data.to_vec(),
                    };
                    if self.captures.len() < CAPTURE_CAP * 8 {
                        self.captures.push(c);
                    } else {
                        self.captures[self.matched as usize % (CAPTURE_CAP * 8)] = c;
                    }
                    self.matched += 1;
                }
            }
            // Fuzzing mode: sample every 97th datagram into a ring.
            None => {
                if self.observed.is_multiple_of(CAPTURE_STRIDE) {
                    let c = Capture {
                        at: now,
                        from,
                        to,
                        data: data.to_vec(),
                    };
                    if self.captures.len() < CAPTURE_CAP {
                        self.captures.push(c);
                    } else {
                        let i = (self.observed / CAPTURE_STRIDE) as usize % CAPTURE_CAP;
                        self.captures[i] = c;
                    }
                }
            }
        }
    }

    fn inject(&mut self, _now: Time) -> (Vec<ForgedDatagram>, Option<Duration>) {
        if self.ticks_left == 0 || self.targets.is_empty() {
            return (Vec::new(), None);
        }
        self.ticks_left -= 1;
        let n = 1 + self.rng.below(3);
        let forged = (0..n).map(|_| self.forge()).collect();
        let gap = Duration::from_millis(200 + self.rng.below(500));
        (forged, Some(gap))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The `ScenarioOptions::injector` entry point: arms a fuzzing
/// [`AdvInjector`] against the standard chaos topology (ringmaster
/// troupe, store members and spares, clients). The target list mirrors
/// `chaos::quiesce`'s spawn layout.
pub fn install_adversary(seed: u64, w: &mut World) {
    use chaos::{CLIENT_PORT, MEMBER_PORT};
    use circus::binding::RINGMASTER_PORT;
    let mut targets = Vec::new();
    for h in 1..=3u32 {
        targets.push(SockAddr::new(HostId(h), RINGMASTER_PORT));
    }
    for h in 10..=14u32 {
        targets.push(SockAddr::new(HostId(h), MEMBER_PORT));
    }
    for h in 20..=21u32 {
        targets.push(SockAddr::new(HostId(h), CLIENT_PORT));
    }
    let inj = AdvInjector::new(seed, w.metrics(), targets);
    w.set_injector(Box::new(inj), FIRST_TICK);
}
