//! Each §4.2 rule of the checker (`spec`) proven to fire: a short segment
//! and event stream that keeps every rule, and the same stream doctored
//! in one place, which must break that rule and no other.

mod spec;

use std::collections::BTreeSet;

use pairedmsg::config::MAX_UNANSWERED_PROBES;
use pairedmsg::{Config, Event, MsgType, Segment, SegmentHeader};
use simnet::{Duration, Payload, Time};
use spec::{Rule, Spec, CLIENT, SERVER};

fn ms(n: u64) -> Time {
    Time::ZERO + Duration::from_millis(n)
}

/// Segment `number` of call `cn`'s `total`.
fn call(cn: u32, number: u8, total: u8, please_ack: bool) -> SegmentHeader {
    let data = Payload::empty();
    Segment::data(MsgType::Call, cn, 0, total, number, please_ack, data).header
}

/// Call `cn`'s one-segment return.
fn ret(cn: u32) -> SegmentHeader {
    Segment::data(MsgType::Return, cn, 0, 1, 1, false, Payload::empty()).header
}

fn ack(ty: MsgType, cn: u32, number: u8, total: u8) -> SegmentHeader {
    Segment::ack(ty, cn, total, number).header
}

fn message(msg_type: MsgType, call_number: u32) -> Event {
    Event::Message {
        msg_type,
        call_number,
        span: 0,
        data: Payload::empty(),
    }
}

/// `h` leaves `from` at `at` and arrives at the other side.
fn over(spec: &mut Spec, at: Time, from: usize, h: SegmentHeader) {
    spec.sent(at, from, &h);
    spec.arrived(at, 1 - from, &h);
}

/// Call `cn` crosses at `at` ms and the server delivers it.
fn called(spec: &mut Spec, at: u64, cn: u32) {
    over(spec, ms(at), CLIENT, call(cn, 1, 1, false));
    spec.event(ms(at), SERVER, &message(MsgType::Call, cn));
}

/// Runs `stream` as recorded and doctored: recorded it breaks no rule,
/// doctored it breaks `rule` alone.
fn fires(rule: Rule, stream: impl Fn(&mut Spec, bool)) {
    for doctored in [false, true] {
        let mut spec = Spec::new(&Config::default());
        stream(&mut spec, doctored);
        let rules: BTreeSet<Rule> = spec.finish().iter().map(|v| v.0).collect();
        let expected = BTreeSet::from_iter(doctored.then_some(rule));
        assert_eq!(rules, expected, "doctored: {doctored}");
    }
}

#[test]
fn s1_fires_on_a_call_delivered_twice() {
    fires(Rule::S1, |spec, doctored| {
        called(spec, 0, 1);
        if doctored {
            spec.event(ms(5), SERVER, &message(MsgType::Call, 1));
        }
    });
}

/// A lost one-segment return re-sent on the callee's own clock rather
/// than on its call's *please ack* copy: doctored, the only copy came
/// while the call ran, before the return first went out.
#[test]
fn s2_fires_on_a_held_return_re_sent_unasked() {
    fires(Rule::S2, |spec, doctored| {
        spec.unreliable();
        called(spec, 0, 1);
        let copy = |spec: &mut Spec, at| over(spec, ms(at), CLIENT, call(1, 1, 1, true));
        if doctored {
            copy(spec, 20);
        }
        spec.sent(ms(40), SERVER, &ret(1));
        if !doctored {
            copy(spec, 300);
        }
        over(spec, ms(340), SERVER, ret(1));
        spec.drained(ms(340), SERVER);
        spec.event(ms(340), CLIENT, &message(MsgType::Return, 1));
    });
}

#[test]
fn s3_fires_on_an_ack_ahead_of_its_data() {
    fires(Rule::S3, |spec, doctored| {
        spec.unreliable();
        over(spec, ms(0), CLIENT, call(1, 1, 3, false));
        spec.sent(ms(0), CLIENT, &call(1, 2, 3, false));
        over(spec, ms(0), CLIENT, call(1, 3, 3, false));
        let acked = if doctored { 3 } else { 1 };
        over(spec, ms(0), SERVER, ack(MsgType::Call, 1, acked, 3));
    });
}

#[test]
fn s4_fires_on_peer_dead_before_the_crash_horizon() {
    // Default jitter takes at most 5 % off the 4.5 s horizon.
    fires(Rule::S4, |spec, doctored| {
        spec.unreliable();
        spec.sent(ms(0), CLIENT, &call(1, 1, 1, false));
        let at = if doctored { 4_200 } else { 4_275 };
        spec.event(ms(at), CLIENT, &Event::PeerDead);
    });
}

#[test]
fn s4_fires_on_peer_dead_after_an_answered_probe() {
    fires(Rule::S4, |spec, doctored| {
        called(spec, 0, 1);
        over(spec, ms(300), CLIENT, call(1, 1, 1, true));
        over(spec, ms(300), SERVER, ack(MsgType::Call, 1, 1, 1));
        for i in 1..=MAX_UNANSWERED_PROBES as u64 {
            spec.sent(ms(300 + 2_000 * i), CLIENT, &Segment::probe(1).header);
            if doctored && i == 2 {
                let reply = Segment::probe_reply(1).header;
                over(spec, ms(300 + 2_000 * i), SERVER, reply);
            }
        }
        spec.event(ms(8_300), CLIENT, &Event::PeerDead);
    });
}

/// A port-unreachable notice licenses a `PeerDead` at once, but only on
/// the connection it is for: doctored, the notice reached the client's
/// checker of a connection to another peer.
#[test]
fn s4_fires_on_peer_dead_after_a_notice_for_another_peer() {
    fires(Rule::S4, |spec, doctored| {
        spec.sent(ms(0), CLIENT, &call(1, 1, 1, false));
        let mut other = Spec::new(&Config::default());
        let notified = if doctored { &mut other } else { &mut *spec };
        notified.unreachable(CLIENT);
        spec.event(ms(1), CLIENT, &Event::PeerDead);
    });
}

#[test]
fn s5_fires_on_a_please_ack_copy_left_unanswered() {
    fires(Rule::S5, |spec, doctored| {
        called(spec, 0, 1);
        // The caller re-asks while the call runs.
        over(spec, ms(300), CLIENT, call(1, 1, 1, true));
        if !doctored {
            over(spec, ms(300), SERVER, ack(MsgType::Call, 1, 1, 1));
        }
        spec.drained(ms(300), SERVER);
        // A copy that outlived the call's record is owed nothing.
        let expired = Time::ZERO + Config::default().replay_ttl;
        over(spec, expired, CLIENT, call(1, 1, 1, true));
        spec.drained(expired, SERVER);
    });
}

#[test]
fn s6_fires_on_a_third_datagram_in_a_quick_exchange() {
    fires(Rule::S6, |spec, doctored| {
        called(spec, 0, 1);
        over(spec, ms(40), SERVER, ret(1));
        spec.event(ms(40), CLIENT, &message(MsgType::Return, 1));
        if doctored {
            over(spec, ms(40), CLIENT, ack(MsgType::Return, 1, 1, 1));
        }
        // A call that runs past the retransmission interval may cost more.
        called(spec, 1_000, 2);
        over(spec, ms(1_300), CLIENT, call(2, 1, 1, true));
        over(spec, ms(1_300), SERVER, ack(MsgType::Call, 2, 1, 1));
        over(spec, ms(1_310), SERVER, ret(2));
    });
}
