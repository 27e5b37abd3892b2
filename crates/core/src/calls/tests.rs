//! The one-to-many engine's tests, beside it (`calls.rs` holds the
//! engine itself).

use super::*;
use crate::addr::ModuleAddr;
use crate::counts::RpcCounts;
use crate::message::ReturnMessage;
use crate::netio::mock::*;
use crate::thread::ThreadIdGen;
use pairedmsg::MAX_SEGMENTS;
use proptest::prelude::*;
use simnet::HostId;
use std::collections::{BTreeSet, HashMap};

fn members(hosts: std::ops::RangeInclusive<u32>) -> Vec<ModuleAddr> {
    let member = |h| ModuleAddr::new(SockAddr::new(HostId(h), 70), 1);
    hosts.map(member).collect()
}

/// A troupe of `n_members` members on hosts 1.., at port 70.
pub(crate) fn troupe_of(n_members: u32) -> Troupe {
    Troupe::new(TroupeId(9), members(1..=n_members))
}

/// A `Unanimous` call of procedure 0 of module 1 of `troupe`.
pub(crate) fn call_to<'a>(troupe: &'a Troupe, thread: ThreadId, args: &'a [u8]) -> Call<'a> {
    Call::solo(thread, troupe, (1, 0), args, CollationPolicy::Unanimous)
}

/// The engine with what it needs around it: connections, a mock
/// wire, and the peers `admit` refuses.
struct Rig {
    calls: ClientCalls,
    conns: Conns,
    config: NodeConfig,
    io: MockIo,
    threads: ThreadIdGen,
    dead: Vec<SockAddr>,
}

impl Rig {
    fn new(config: NodeConfig) -> Rig {
        Rig {
            calls: ClientCalls::default(),
            conns: Conns::new(ME),
            config,
            io: MockIo::default(),
            threads: ThreadIdGen::new(ME),
            dead: Vec::new(),
        }
    }

    /// Begins one call of `args` to `troupe` on a fresh thread and
    /// flushes it to the wire.
    fn call(&mut self, troupe: &Troupe, args: Vec<u8>, policy: CollationPolicy) -> u64 {
        let mut call = call_to(troupe, self.threads.fresh(), &args);
        call.collation = policy;
        let (io, conns, dead) = (&mut self.io, &mut self.conns, &self.dead);
        let admit = |addr, _| !dead.contains(&addr);
        let handle = (self.calls).begin(io, conns, &self.config, call, CallPurpose::App, admit);
        while conns.flush(io).is_some() {}
        handle
    }

    fn unanimous(&mut self, troupe: &Troupe, args: Vec<u8>) -> u64 {
        self.call(troupe, args, CollationPolicy::Unanimous)
    }
}

fn rig() -> Rig {
    Rig::new(NodeConfig::default())
}

/// Arguments whose call message is cut into `k` default segments
/// (the call header fits the slack `k - 1` full segments leave).
fn args_of(k: usize) -> Vec<u8> {
    vec![7; (k - 1) * pairedmsg::Config::DEFAULT.max_segment_data + 1]
}

fn addrs_of(troupe: &Troupe) -> Vec<SockAddr> {
    troupe.members.iter().map(|m| m.addr).collect()
}

/// The data plane is read off the call: one segment goes out per
/// member under per-member numbers; two segments to the same troupe
/// are blasted once each under one number — the largest any member
/// was due — and every member's counter moves past it.
#[test]
fn call_data_plane_is_chosen_by_segment_count() {
    let mut r = rig();
    let troupe = troupe_of(3);
    // Put the first member one call ahead of the others.
    r.unanimous(&troupe_of(1), args_of(1));
    r.io.sent.clear();

    r.unanimous(&troupe, args_of(1));
    assert!(r.io.mcasts.is_empty(), "a single segment is not shared");
    let sent = r.io.sent.iter();
    let sent: Vec<_> = sent.map(|(to, b)| (*to, header(b).call_number)).collect();
    let per_member = addrs_of(&troupe).into_iter().zip([2, 1, 1]);
    assert_eq!(sent, per_member.collect::<Vec<_>>());
    r.io.sent.clear();

    r.unanimous(&troupe, args_of(2));
    assert!(r.io.sent.is_empty(), "no per-member copies");
    assert_eq!(r.io.mcasts.len(), 2, "two segments, two multicasts");
    for (number, (tos, bytes)) in r.io.mcasts.iter().enumerate() {
        assert_eq!(tos, &addrs_of(&troupe));
        let h = header(bytes);
        assert_eq!((h.call_number, h.total), (3, 2), "the max of 3, 2, 2");
        assert_eq!(h.number as usize, number + 1);
        assert!(!h.please_ack);
    }
    for addr in addrs_of(&troupe) {
        assert_eq!(r.calls.numbers.due(addr), 4, "every counter past it");
    }
    // Each connection still runs a retransmission clock, so a
    // straggler gets the unicast fallback.
    assert!(r.conns.endpoints().all(|e| e.poll_timer().is_some()));
    assert_eq!(r.calls.route.len(), 1 + 3 + 3);
}

/// A single live target is not worth a multicast: it stays per member.
#[test]
fn one_live_member_keeps_bulk_calls_unicast() {
    let troupe = troupe_of(3);
    let mut r = rig();
    r.dead = addrs_of(&troupe)[1..].to_vec();
    r.unanimous(&troupe, args_of(2));
    assert!(r.io.mcasts.is_empty());
    let dests: Vec<SockAddr> = r.io.sent.iter().map(|(to, _)| *to).collect();
    assert_eq!(dests, vec![troupe.members[0].addr; 2], "both segments");
}

/// A call too long for any sender is nobody's to share: it fails
/// member by member, with nothing on the wire.
#[test]
fn oversize_call_fails_without_a_blast() {
    let mut r = rig();
    let handle = r.unanimous(&troupe_of(3), args_of(MAX_SEGMENTS + 1));
    assert!(r.io.mcasts.is_empty() && r.io.sent.is_empty());
    let finished = r.calls.decide(handle).expect("over at once");
    assert_eq!(finished.result, Err(CallError::AllMembersDead));
    assert!(r.calls.outstanding.is_empty());
}

/// `multicast_small_calls` extends the blast to single segments —
/// §4.3.3's m+n count on every call.
#[test]
fn small_calls_are_multicast_on_request() {
    let mut r = Rig::new(NodeConfig {
        multicast_small_calls: true,
        ..NodeConfig::default()
    });
    let troupe = troupe_of(3);
    r.unanimous(&troupe, b"x".to_vec());
    assert!(r.io.sent.is_empty(), "no per-member unicast copies");
    assert_eq!(r.io.mcasts.len(), 1, "one segment, one multicast");
    assert_eq!(r.io.mcasts[0].0, addrs_of(&troupe));
    assert!(!r.io.timers.is_empty());
    // One live target still degenerates to the 2-message exchange.
    r.unanimous(&troupe_of(1), b"x".to_vec());
    assert_eq!((r.io.mcasts.len(), r.io.sent.len()), (1, 1));
}

/// The zero-copy contract on the multicast path: a two-segment call
/// to a five-member troupe copies no segment. The call is encoded as
/// its datagrams, the cut writes both headers into its one buffer, and
/// each multicast datagram is a window of it, refcount-shared across
/// all five destinations and the members' adopted senders — no
/// per-destination encode, no per-destination copy
/// (`tests/alloc_budget.rs` counts the blast and the adoptions).
#[test]
fn multicast_call_to_five_members_copies_no_segment() {
    let mut r = rig();
    r.unanimous(&troupe_of(5), args_of(2));
    assert!(r.io.sent.is_empty(), "no per-member unicast copies");
    assert_eq!(r.io.mcasts.len(), 2);
    assert_eq!(r.io.mcasts[0].0.len(), 5, "all five members addressed");
    let [(_, first), (_, second)] = &r.io.mcasts[..] else {
        unreachable!("two segments")
    };
    assert!(first.shares_buffer_with(second), "one buffer");
}

/// Members refused admission are excluded from the multicast address
/// list exactly as they are skipped by the unicast loop, and their
/// counters stay where they were.
#[test]
fn multicast_call_excludes_dead_members() {
    let mut r = rig();
    let troupe = troupe_of(3);
    let dead = troupe.members[1].addr;
    r.dead = vec![dead];
    r.call(&troupe, args_of(2), CollationPolicy::Majority);
    assert_eq!(r.io.mcasts.len(), 2);
    for (tos, _) in &r.io.mcasts {
        assert_eq!(tos, &[troupe.members[0].addr, troupe.members[2].addr]);
    }
    assert_eq!(r.calls.numbers.due(dead), 1, "never numbered");
    assert_eq!(r.calls.route.len(), 2);
}

/// Unicast and multicast calls interleaved over overlapping troupes:
/// every peer sees strictly increasing call numbers (what the replay
/// watermark and the `send_call_regressions` audit need), and every
/// blast reaches all its members under one number.
#[test]
fn interleaved_data_planes_never_regress_a_peers_call_number() {
    let mut r = rig();
    r.conns.counts = RpcCounts::register(&obs::Registry::new(), ME);
    let a = Troupe::new(TroupeId(9), members(1..=3));
    let b = Troupe::new(TroupeId(10), members(2..=5));
    let troupes = [&a, &b, &troupe_of(1)];
    let script = [
        (0, 1),
        (1, 2),
        (2, 1),
        (0, 3),
        (0, 1),
        (1, 1),
        (2, 2),
        (1, 2),
        (0, 2),
    ];
    for (troupe, k) in script.map(|(t, k)| (troupes[t], k)) {
        let blasts = r.io.mcasts.len();
        r.unanimous(troupe, args_of(k));
        let shared = k > 1 && troupe.members.len() > 1;
        assert_eq!(r.io.mcasts.len() - blasts, if shared { k } else { 0 });
    }
    // Per peer, (call number, segment number) only ever climbs: a
    // reused number would restart at segment 1.
    let mut last: HashMap<SockAddr, (u32, u8)> = HashMap::new();
    for &(to, at) in &r.io.numbers {
        let before = last.insert(to, at).unwrap_or((0, 0));
        assert!(at > before, "{to}: {at:?} after {before:?}");
    }
    assert_eq!(r.conns.counts.pm.send_call_regressions.get(), 0);
}

/// The call message `io` blasted, put back together from its segments.
fn blasted(io: &MockIo) -> CallMessage {
    let mut bytes = Vec::new();
    for (_, datagram) in &io.mcasts {
        bytes.extend_from_slice(
            &pairedmsg::Segment::decode(datagram)
                .expect("a segment")
                .data,
        );
    }
    from_bytes(&bytes).expect("a call message")
}

/// Where member `i`'s return to call `handle` is awaited.
fn route_of(r: &Rig, handle: u64, i: usize) -> (SockAddr, u32) {
    let route = r.calls.route.iter().find(|(_, &to)| to == (handle, i));
    *route.expect("awaited").0
}

/// A normal return of `results`, whole, and the parts of it three
/// members send, cut at the default segment.
fn cut(results: &[u8]) -> (Payload, Vec<Payload>) {
    let reply = ReturnMessage::Normal(results.to_vec());
    let whole = wire::to_bytes(&reply);
    let layout = crate::message::parts(whole.len(), 3).expect("cut");
    let part = |i| wire::to_bytes(&reply.part(reply.digest(), layout.range(i))).into();
    (whole.into(), (0..3).map(part).collect())
}

fn garbled(returned: Option<Returned>) -> bool {
    matches!(
        returned,
        Some(Returned::Finished(Finished {
            result: Err(CallError::Garbled),
            ..
        }))
    )
}

/// A unanimous blast of two or more segments names its admitted members
/// in order; a single segment, or a blast collated any other way, names
/// none, and its message is the one it always was.
#[test]
fn a_unanimous_bulk_blast_names_its_admitted_members() {
    let troupe = troupe_of(3);
    let mut r = rig();
    r.dead = vec![troupe.members[0].addr];
    r.unanimous(&troupe, args_of(2));
    assert_eq!(blasted(&r.io).members, addrs_of(&troupe)[1..]);
    assert_eq!(r.io.mcasts[0].0, addrs_of(&troupe)[1..]);

    let mut r = rig();
    r.call(&troupe, args_of(2), CollationPolicy::Majority);
    assert_eq!(blasted(&r.io).members, []);
    let mut r = rig();
    r.unanimous(&troupe, args_of(1));
    let (_, datagram) = &r.io.sent[0];
    let data = pairedmsg::Segment::decode(datagram)
        .expect("a segment")
        .data;
    let msg: CallMessage = from_bytes(&data).expect("a call message");
    assert_eq!(msg.members, []);
    assert_eq!(wire::to_bytes(&msg), &data[..], "as it was laid out before");
}

/// A part answers only a call that named its members, only from one of
/// them, and only cut as the layout cuts: a part on any other call, from
/// any other address, or cut otherwise, is garbled, and counted in
/// `adv.rejected`.
#[test]
fn a_part_the_layout_does_not_give_is_garbled() {
    let (_, sent) = cut(&[4; 5000]);
    let troupe = troupe_of(3);
    // A single segment: no members named.
    let mut r = rig();
    let handle = r.unanimous(&troupe, args_of(1));
    let at = route_of(&r, handle, 1);
    assert!(garbled(r.calls.on_return(&mut r.io, at, sent[1].clone())));
    assert_eq!(r.io.reg.get("adv.rejected"), 1);
    // From an address the call did not name (a route doctored to lead
    // there: the engine routes only the members it named).
    let handle = r.unanimous(&troupe, args_of(2));
    let outsider = (SockAddr::new(HostId(66), 6), 1);
    r.calls.route.insert(outsider, (handle, 0));
    r.calls.call_mut(handle).unresolved += 1;
    assert!(garbled(r.calls.on_return(
        &mut r.io,
        outsider,
        sent[0].clone()
    )));
    assert_eq!(r.io.reg.get("adv.rejected"), 2);
    // Two tail parts swapped: each is a part the layout gives some member,
    // but not the one that sent it.
    let handle = r.unanimous(&troupe, args_of(2));
    let (_, short) = cut(&[4; 2000]);
    for (i, part) in [(0, &short[0]), (1, &short[2]), (2, &short[1])] {
        let at = route_of(&r, handle, i);
        let returned = r.calls.on_return(&mut r.io, at, part.clone());
        assert_eq!(garbled(returned), i == 2, "garbled once all are in");
    }
    assert_eq!(r.io.reg.get("adv.rejected"), 3);
    assert!(!r.calls.outstanding.contains_key(&handle));
    assert!(!r.calls.layouts.contains_key(&handle));
}

/// An owner dead before its part came: the whole return is fetched from
/// each member whose part is in, in the order they came, until one
/// answers; the call fails as if every member had died when none does,
/// and completes with the fetched return when one does.
#[test]
fn a_dead_owner_is_replaced_by_a_fetch() {
    let troupe = troupe_of(3);
    let (whole, sent) = cut(&[3; 5000]);
    for answered in [false, true] {
        let mut r = rig();
        let handle = r.unanimous(&troupe, args_of(2));
        for i in [2, 1] {
            let at = route_of(&r, handle, i);
            assert!(r.calls.on_return(&mut r.io, at, sent[i].clone()).is_none());
        }
        let dead = troupe.members[0].addr;
        assert_eq!(r.calls.peer_dead(dead), [handle]);
        let asked = |returned: Option<Returned>| match returned {
            Some(Returned::Fetch(f)) => (f.handle, f.from, f.key.call_seq, f.module),
            other => panic!("expected a fetch, got {other:?}"),
        };
        let member = |i: usize| troupe.members[i].addr;
        assert_eq!(asked(r.calls.advance(handle)), (handle, member(2), 1, 1));
        assert!(r.calls.advance(handle).is_none(), "one fetch at a time");
        let refused = Err(CallError::Remote("no return kept".into()));
        assert_eq!(asked(r.calls.fetched(handle, refused.clone())).1, member(1));
        let last = if answered {
            Ok(whole.to_vec())
        } else {
            refused
        };
        let result = match r.calls.fetched(handle, last) {
            Some(Returned::Finished(f)) => f.result,
            other => panic!("expected the call to finish, got {other:?}"),
        };
        let want = if answered {
            Ok(vec![3; 5000])
        } else {
            Err(CallError::AllMembersDead)
        };
        assert_eq!(result, want);
        assert!(r.calls.outstanding.is_empty() && r.calls.layouts.is_empty());
    }
}

/// A member's solo call on a thread leaves the number its troupe's
/// next call there takes where it was: the server groups the copies by
/// `(client troupe, thread, call_seq)`, and the members that never
/// called alone number that call 1. (The healer asks for a repair
/// alone on a thread, then installs on it as the Ringmaster.)
#[test]
fn a_solo_call_leaves_the_troupe_sequence_where_it_was() {
    let mut seqs = CallSeqs::default();
    let (troupe, solo) = (TroupeId(5), TroupeId::UNREGISTERED);
    let thread = ThreadIdGen::new(ME).fresh();
    assert_eq!(seqs.next(solo, thread), 1);
    assert_eq!(seqs.next(troupe, thread), 1, "as its peers number it");
    assert_eq!(seqs.next(troupe, thread), 2);
    assert_eq!(seqs.next(solo, thread), 2);
    assert_eq!((seqs.ranges(ME), seqs.many.len()), ((0, 0), 2));
}

/// The bookkeeping invariant: each call's `unresolved` is the number
/// of its live `route` entries, every route leads to a call, and —
/// unless a `displaced` route took some member's return away — a
/// finished call with nothing left to hear is gone.
fn check(calls: &ClientCalls, displaced: bool) {
    for (h, call) in &calls.outstanding {
        let live = calls.route.values().filter(|(rh, _)| rh == h).count();
        assert_eq!(call.unresolved, live, "call #{h}");
        assert!(displaced || call.purpose.is_some() || live > 0, "call #{h}");
    }
    for (handle, _) in calls.route.values() {
        assert!(calls.outstanding.contains_key(handle));
    }
}

proptest! {
    /// Whatever the interleaving of calls on both data planes,
    /// returns, peer deaths and routes displaced by a reused call
    /// number, the invariant holds; and when every peer has died, no
    /// route is left, and no call either unless a displaced route
    /// took its member's return away.
    #[test]
    fn unresolved_is_the_calls_live_routes(
        ops in proptest::collection::vec((0u8..5, any::<u8>()), 1..80)
    ) {
        let mut r = rig();
        let a = Troupe::new(TroupeId(9), members(1..=3));
        let b = Troupe::new(TroupeId(10), members(2..=5));
        let ok = Payload::from(wire::to_bytes(&ReturnMessage::Normal(b"ok".to_vec())));
        let peer = |arg: u8| SockAddr::new(HostId(1 + u32::from(arg) % 5), 70);
        let die = |r: &mut Rig, peer| {
            for h in r.calls.peer_dead(peer) {
                r.calls.decide(h);
            }
            r.conns.remove(peer);
        };
        let mut displaced = false;
        for (op, arg) in ops {
            match op {
                0 => {
                    let h = r.unanimous(&a, args_of(1));
                    r.calls.decide(h);
                }
                1 => {
                    let h = r.call(&b, args_of(2), CollationPolicy::FirstCome);
                    r.calls.decide(h);
                }
                2 => {
                    let n = r.calls.route.len().max(1);
                    let at = r.calls.route.keys().copied().nth(usize::from(arg) % n);
                    if let Some(at) = at {
                        r.calls.on_return(&mut r.io, at, ok.clone());
                    }
                }
                3 => die(&mut r, peer(arg)),
                // The next call to this peer reuses a number: if a
                // return is still awaited there, its route is displaced.
                _ => {
                    r.calls.numbers.set(peer(arg), 1);
                    displaced = true;
                }
            }
            check(&r.calls, displaced);
        }
        for h in 1..=5 {
            die(&mut r, peer(h - 1));
        }
        prop_assert!(r.calls.route.is_empty());
        prop_assert!(displaced || r.calls.outstanding.is_empty());
    }

    /// The table against a map: calls on threads of three origins as
    /// two client troupes, their serials skipped, out of order and
    /// repeated, get the numbers a map from every `(client troupe,
    /// thread)` to its last number gives, so a thread's calls as one
    /// troupe never move its number as the other. They cost at most a
    /// range per troupe and origin, plus one per run of serials
    /// skipped between two that called, plus one per pair that called
    /// twice.
    #[test]
    fn call_seqs_agree_with_a_map_per_thread(
        calls in proptest::collection::vec((0u64..2, 0u32..3, 0u32..40), 1..200)
    ) {
        let mut seqs = CallSeqs::default();
        let mut model: BTreeMap<(TroupeId, ThreadId), u32> = BTreeMap::new();
        for (troupe, host, serial) in calls {
            let thread = ThreadId { origin: SockAddr::new(HostId(host), 9), serial };
            let last = model.entry((TroupeId(troupe), thread)).or_insert(0);
            *last += 1;
            prop_assert_eq!(seqs.next(TroupeId(troupe), thread), *last);
        }
        let multi = model.values().filter(|&&n| n > 1).count();
        prop_assert_eq!(seqs.many.len(), multi);
        let mut bound = multi;
        for (troupe, host) in (0..2).flat_map(|t| (0..3).map(move |h| (TroupeId(t), HostId(h)))) {
            let origin = model.keys().filter(|(c, t)| *c == troupe && t.origin.host == host);
            let called: BTreeSet<u32> = origin.map(|(_, t)| t.serial).collect();
            let (Some(&lo), Some(&hi)) = (called.first(), called.last()) else {
                continue;
            };
            let gap_after = |s: &u32| called.contains(s) && !called.contains(&(s + 1));
            bound += 1 + (lo..hi).filter(gap_after).count();
        }
        let (own, foreign) = seqs.ranges(SockAddr::new(HostId(0), 9));
        prop_assert!(own + foreign <= bound, "{own} + {foreign} ranges");
    }
}
