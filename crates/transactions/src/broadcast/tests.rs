use super::*;

#[test]
fn propose_accept_encode_from_borrowed_parts_and_round_trip() {
    let p = Propose {
        msg_id: 7,
        payload: vec![1, 2],
    };
    assert_eq!(Propose::encode(7, &[1, 2]), to_bytes(&p));
    assert_eq!(from_bytes::<Propose>(&to_bytes(&p)).unwrap(), p);
    let a = Accept {
        msg_id: 7,
        accepted_time: 99,
        payload: vec![1, 2],
    };
    assert_eq!(Accept::encode(7, 99, &[1, 2]), to_bytes(&a));
    assert_eq!(from_bytes::<Accept>(&to_bytes(&a)).unwrap(), a);
}

#[test]
fn borrowed_views_parse_without_copying() {
    let p = Propose::encode(7, &[1, 2, 3]);
    let a = Accept::encode(7, 99, &[1, 2, 3]);
    let pr = ProposeRef::parse(&p).unwrap();
    let ar = AcceptRef::parse(&a).unwrap();
    assert_eq!((pr.msg_id, pr.payload), (7, &[1u8, 2, 3][..]));
    assert_eq!(
        (ar.msg_id, ar.accepted_time, ar.payload),
        (7, 99, &[1u8, 2, 3][..])
    );
    // Each payload is the run of its argument bytes after the ids and the
    // length word, not a copy of it.
    assert_eq!(pr.payload.as_ptr_range(), p[12..15].as_ptr_range());
    assert_eq!(ar.payload.as_ptr_range(), a[20..23].as_ptr_range());
}

fn vote(t: u64) -> VoteSlot {
    VoteSlot::Vote(circus::wrap_reply_vote(to_bytes(&t)).into())
}

#[test]
fn strict_max_time_takes_the_maximum_of_every_member() {
    let c = StrictMaxTime;
    assert_eq!(
        c.decide(&[vote(10), vote(30), vote(20)]),
        Decision::Ready(circus::wrap_reply_vote(to_bytes(&30u64)).into())
    );
    assert_eq!(c.decide(&[vote(10), VoteSlot::Pending]), Decision::Wait);
    // A dead member fails the round once every live member has answered,
    // not before: a live member's answer may yet be a stale binding.
    assert!(matches!(
        c.decide(&[vote(10), VoteSlot::Dead]),
        Decision::Fail(circus::CollateError::Rejected(_))
    ));
    assert_eq!(
        c.decide(&[VoteSlot::Pending, VoteSlot::Dead]),
        Decision::Wait
    );
}

#[test]
fn all_ack_needs_every_member() {
    let c = AllAck::new();
    assert_eq!(c.decide(&[vote(1), VoteSlot::Pending]), Decision::Wait);
    assert!(matches!(
        c.decide(&[vote(1), VoteSlot::Dead]),
        Decision::Fail(circus::CollateError::Rejected(_))
    ));
    assert_eq!(
        c.decide(&[VoteSlot::Dead, VoteSlot::Pending]),
        Decision::Wait
    );
    // Differing reply bytes are fine: only the ack matters.
    assert_eq!(
        c.decide(&[vote(1), vote(2)]),
        Decision::Ready(circus::wrap_reply_vote(to_bytes(&Bytes(Vec::new()))).into())
    );
}

/// A tiny deterministic app: appends message bytes to a log.
struct Log {
    entries: Vec<Vec<u8>>,
}
impl OrderedApply for Log {
    fn apply(&mut self, payload: &[u8]) -> Vec<u8> {
        self.entries.push(payload.to_vec());
        to_bytes(&(self.entries.len() as u32))
    }
    fn snapshot(&self) -> Vec<u8> {
        to_bytes(
            &self
                .entries
                .iter()
                .map(|e| Bytes(e.clone()))
                .collect::<Vec<_>>(),
        )
    }
    fn restore(&mut self, state: &[u8]) {
        self.entries = from_bytes::<Vec<Bytes>>(state)
            .map(|v| v.into_iter().map(|Bytes(b)| b).collect())
            .unwrap_or_default();
    }
}

fn log_service() -> OrderedBroadcastService<Log> {
    OrderedBroadcastService::new(Log {
        entries: Vec::new(),
    })
}

/// The folded order of applying `ids` one after another.
fn order(ids: &[u64]) -> AppliedOrder {
    ids.iter().copied().collect()
}

fn ctx(now_us: u64) -> ServiceCtx {
    ctx_from(0, now_us)
}

/// A dispatch context for a call from the client on host `origin`.
fn ctx_from(origin: u32, now_us: u64) -> ServiceCtx {
    ServiceCtx {
        thread: circus::ThreadId {
            origin: simnet::SockAddr::new(simnet::HostId(origin), 0),
            serial: 0,
        },
        caller: circus::TroupeId(0),
        invocation: 0,
        now: simnet::Time::from_micros(now_us),
        me: simnet::SockAddr::new(simnet::HostId(0), 0),
        effects: Vec::new(),
        span: obs::SpanId::NONE,
        metrics: obs::Registry::new(),
    }
}

fn propose(s: &mut OrderedBroadcastService<Log>, now: u64, id: u64, payload: &[u8]) -> Step {
    propose_from(s, 0, now, id, payload)
}

fn propose_from(
    s: &mut OrderedBroadcastService<Log>,
    origin: u32,
    now: u64,
    id: u64,
    payload: &[u8],
) -> Step {
    let mut c = ctx_from(origin, now);
    s.dispatch(
        &mut c,
        PROC_GET_PROPOSED_TIME,
        &Propose::encode(id, payload),
    )
}

fn accept(s: &mut OrderedBroadcastService<Log>, now: u64, id: u64, t: u64, p: &[u8]) -> Step {
    accept_from(s, 0, now, id, t, p)
}

fn accept_from(
    s: &mut OrderedBroadcastService<Log>,
    origin: u32,
    now: u64,
    id: u64,
    t: u64,
    p: &[u8],
) -> Step {
    let mut c = ctx_from(origin, now);
    s.dispatch(&mut c, PROC_ACCEPT_TIME, &Accept::encode(id, t, p))
}

fn reply_bytes(step: Step) -> Vec<u8> {
    match step {
        Step::Reply(b) => b,
        other => panic!("expected reply, got {other:?}"),
    }
}

#[test]
fn queue_orders_by_accepted_time_with_tiebreak() {
    let mut s = log_service();
    // Two proposals, then acceptance in reverse arrival order.
    propose(&mut s, 100, 1, b"first");
    propose(&mut s, 200, 2, b"second");
    // Accept msg 2 at time 250: it cannot run while msg 1 is still
    // only proposed.
    accept(&mut s, 300, 2, 250, b"second");
    assert!(s.applied_order.is_empty(), "msg 2 must wait behind msg 1");
    // Accept msg 1 at time 240 (< 250): both drain, 1 before 2.
    accept(&mut s, 400, 1, 240, b"first");
    assert_eq!(s.applied_order, order(&[1, 2]));
    assert_eq!(s.app().entries, vec![b"first".to_vec(), b"second".to_vec()]);
}

#[test]
fn equal_times_tie_broken_by_id() {
    let mut s = log_service();
    for id in [2u64, 1] {
        propose(&mut s, 100, id, &id.to_be_bytes());
    }
    for id in [2u64, 1] {
        accept(&mut s, 500, id, 300, &id.to_be_bytes());
    }
    assert_eq!(s.applied_order, order(&[1, 2]), "ties break by message id");
}

#[test]
fn accepted_message_drains_ahead_of_later_proposed_head() {
    let mut s = log_service();
    // msg 2 proposed first (time 100), msg 1 proposed later (time
    // 300): the queue head is msg 2. Accepting msg 2 at 150 keeps it
    // at the head; the drain must apply it even though a *proposed*
    // entry (msg 1) still sits in the queue behind it.
    propose(&mut s, 100, 2, b"early");
    propose(&mut s, 300, 1, b"late");
    accept(&mut s, 400, 2, 150, b"early");
    assert_eq!(
        s.applied_order,
        order(&[2]),
        "accepted head must not wait on a later proposal"
    );
    // And the inverse: accepted *behind* a proposed head stays put.
    accept(&mut s, 500, 3, 450, b"blocked");
    assert_eq!(
        s.applied_order,
        order(&[2]),
        "accepted behind a proposed head must wait"
    );
    accept(&mut s, 600, 1, 320, b"late");
    assert_eq!(s.applied_order, order(&[2, 1, 3]));
}

#[test]
fn orphaned_proposal_is_collected_after_ttl() {
    let mut s = log_service().with_proposal_ttl(1_000);
    // The broadcaster of msg 9 "crashes" after the propose.
    propose(&mut s, 100, 9, b"orphan");
    // A later broadcast completes both phases before the TTL: it
    // stays stuck behind the orphan.
    propose(&mut s, 200, 10, b"live");
    accept(&mut s, 300, 10, 250, b"live");
    assert!(s.applied_order.is_empty(), "TTL not yet reached");
    // Past the TTL the orphan is collected and the queue flows.
    accept(&mut s, 2_000, 11, 1_500, b"after");
    assert_eq!(s.applied_order, order(&[10, 11]));
    assert_eq!(s.queue_len(), 0);
    assert_eq!(
        s.app().entries,
        vec![b"live".to_vec(), b"after".to_vec()],
        "the orphan must never reach the app"
    );
}

#[test]
fn accept_after_gc_reinstalls_the_message() {
    let mut s = log_service().with_proposal_ttl(1_000);
    propose(&mut s, 100, 9, b"slow");
    // Another broadcast's drain collects the orphan...
    accept(&mut s, 2_000, 10, 1_900, b"other");
    assert_eq!(s.applied_order, order(&[10]));
    // ...but the slow broadcaster was alive after all: its accept
    // carries the payload and the message still applies.
    let r = reply_bytes(accept(&mut s, 2_100, 9, 2_050, b"slow"));
    assert_eq!(s.applied_order, order(&[10, 9]));
    assert!(!from_bytes::<Bytes>(&r).unwrap().0.is_empty());
}

#[test]
fn duplicate_accept_replies_cached_result_without_reapplying() {
    let mut s = log_service();
    propose(&mut s, 100, 1, b"m");
    let first = reply_bytes(accept(&mut s, 200, 1, 150, b"m"));
    let dup = reply_bytes(accept(&mut s, 300, 1, 150, b"m"));
    assert_eq!(first, dup, "retried accept must reply the cached result");
    assert_eq!(s.applied_order, order(&[1]), "never applied twice");
    assert_eq!(s.app().entries.len(), 1);
}

#[test]
fn duplicate_propose_after_apply_replies_stored_time() {
    let mut s = log_service();
    propose(&mut s, 100, 1, b"m");
    accept(&mut s, 200, 1, 150, b"m");
    // A duplicated propose datagram arrives late: the reply must be
    // the *accepted* time, not a fresh clock reading, and the
    // message must not re-enter the queue.
    let r = reply_bytes(propose(&mut s, 900, 1, b"m"));
    assert_eq!(from_bytes::<u64>(&r).unwrap(), 150);
    assert_eq!(s.queue_len(), 0);
    assert_eq!(s.applied_order, order(&[1]));
}

#[test]
fn accept_for_unknown_message_installs_it() {
    // A rejoined spare that missed the propose phase entirely.
    let mut s = log_service();
    let r = reply_bytes(accept(&mut s, 200, 5, 150, b"installed"));
    assert_eq!(s.applied_order, order(&[5]));
    assert_eq!(s.app().entries, vec![b"installed".to_vec()]);
    assert!(!from_bytes::<Bytes>(&r).unwrap().0.is_empty());
}

/// Two client hosts for the hazard tests: `A` is the one under test,
/// `B` a bystander whose cache entry `A`'s proposals must not retire.
const A: u32 = 1;
const B: u32 = 2;

/// `B` broadcasts message 900; returns the reply to its accept.
fn bystander_broadcast(s: &mut OrderedBroadcastService<Log>) -> Vec<u8> {
    propose_from(s, B, 10, 900, b"other");
    reply_bytes(accept_from(s, B, 20, 900, 15, b"other"))
}

#[test]
fn h1_first_accept_arriving_after_the_next_proposal_still_applies() {
    let mut s = log_service();
    bystander_broadcast(&mut s);
    // A's accept of 10 is slow to reach this member; A collated the
    // others' replies first-come and went on to broadcast 11.
    propose_from(&mut s, A, 100, 10, b"k");
    propose_from(&mut s, A, 200, 11, b"k+1");
    let early = reply_bytes(accept_from(&mut s, A, 300, 11, 250, b"k+1"));
    assert!(
        from_bytes::<Bytes>(&early).unwrap().0.is_empty(),
        "11 waits behind 10's placeholder"
    );
    assert_eq!(s.applied_order, order(&[900]));
    assert_eq!(s.queue_len(), 2);
    // The *first* accept of 10 this member ever sees: it applies, and
    // 11 behind it — nothing was inferred from A having moved on.
    let late = reply_bytes(accept_from(&mut s, A, 400, 10, 150, b"k"));
    assert!(!from_bytes::<Bytes>(&late).unwrap().0.is_empty());
    assert_eq!(s.applied_order, order(&[900, 10, 11]));
    assert_eq!(
        s.app().entries,
        vec![b"other".to_vec(), b"k".to_vec(), b"k+1".to_vec()]
    );
    assert!(s.has_applied(10) && s.has_applied(11));
    assert_eq!(s.queue_len(), 0);
}

#[test]
fn h2_second_accept_after_the_client_moved_on_is_not_reapplied() {
    let mut s = log_service();
    let others = bystander_broadcast(&mut s);
    propose_from(&mut s, A, 100, 10, b"k");
    let first = reply_bytes(accept_from(&mut s, A, 200, 10, 150, b"k"));
    assert!(!from_bytes::<Bytes>(&first).unwrap().0.is_empty());
    // A's next proposal retires A's cache entry for 10 — and only it.
    propose_from(&mut s, A, 300, 11, b"k+1");
    assert_eq!(s.retry_cache_len(), 1);
    // A retry of accept(10) that crossed the original arrives now.
    let mut c = ctx_from(A, 400);
    let accept_10 = Accept::encode(10, 150, b"k");
    let second = reply_bytes(s.dispatch(&mut c, PROC_ACCEPT_TIME, &accept_10));
    assert!(
        from_bytes::<Bytes>(&second).unwrap().0.is_empty(),
        "a retired duplicate replies the empty result"
    );
    assert_eq!(c.metrics.get("bcast.dup_accepts"), 1);
    assert_eq!(s.applied_order, order(&[900, 10]), "applied once");
    assert_eq!(s.app().entries.len(), 2);
    // The bystander's own retry is still answered from the cache.
    assert_eq!(
        reply_bytes(accept_from(&mut s, B, 500, 900, 15, b"other")),
        others
    );
}

#[test]
fn h3_retired_proposal_is_refused_and_queues_no_placeholder() {
    let mut s = log_service();
    propose_from(&mut s, A, 100, 10, b"k");
    accept_from(&mut s, A, 200, 10, 150, b"k");
    propose_from(&mut s, A, 300, 11, b"k+1");
    let queued = s.queue_len();
    // A duplicate of propose(10) surfaces after 11 retired it: there
    // is no stored time left to reply, and a placeholder would head
    // the queue until the proposal TTL.
    assert!(matches!(
        propose_from(&mut s, A, 400, 10, b"k"),
        Step::Error(_)
    ));
    assert_eq!(s.queue_len(), queued);
    accept_from(&mut s, A, 500, 11, 350, b"k+1");
    assert_eq!(s.applied_order, order(&[10, 11]));
    assert_eq!(s.queue_len(), 0);
}

#[test]
fn ledgers_stay_small_however_many_messages_apply() {
    let mut s = log_service();
    for (client, base) in [(A, 1_000u64), (B, 2_000)] {
        for i in 0..200 {
            let (id, now) = (base + i, 1_000 * (base + i));
            propose_from(&mut s, client, now, id, b"m");
            accept_from(&mut s, client, now + 10, id, now + 5, b"m");
        }
    }
    assert_eq!(s.applied_order.len(), 400);
    assert_eq!(s.applied_order.recent().len(), RECENT_IDS);
    assert_eq!(s.id_ranges(), 2, "one range per client");
    assert_eq!(s.retry_cache_len(), 2, "one live entry per client");
}

#[test]
fn state_transfer_carries_the_whole_protocol() {
    let mut donor = log_service();
    propose(&mut donor, 100, 1, b"done");
    accept(&mut donor, 200, 1, 150, b"done");
    // Two other clients' in-flight broadcasts: one proposed and
    // accepted but not yet drained (blocked behind an in-flight
    // proposal), plus that bare proposal.
    propose_from(&mut donor, A, 300, 2, b"pending");
    propose_from(&mut donor, B, 400, 3, b"blocked");
    accept_from(&mut donor, B, 500, 3, 450, b"blocked");
    assert_eq!(donor.applied_order, order(&[1]));

    let mut spare = log_service();
    spare.set_state(&donor.get_state());
    assert_eq!(spare.applied_order, donor.applied_order);
    assert_eq!(spare.queue_len(), donor.queue_len());
    assert_eq!(spare.state_digest(), donor.state_digest());

    // The spare continues the in-flight broadcasts exactly as the
    // donor would: accept msg 2, both drain, identical orders.
    for s in [&mut donor, &mut spare] {
        accept_from(s, A, 600, 2, 420, b"pending");
        assert_eq!(s.applied_order, order(&[1, 2, 3]));
    }
    assert_eq!(donor.state_digest(), spare.state_digest());
    // And the idempotence state traveled too: a duplicate accept of
    // msg 1 at the spare replies the cached result, not a re-apply —
    // and msg 3, drained from the transferred queue, is cached under
    // the origin that queue entry carried.
    for (origin, id, t, payload) in [(0, 1, 150, &b"done"[..]), (B, 3, 450, b"blocked")] {
        let dup = reply_bytes(accept_from(&mut spare, origin, 700, id, t, payload));
        assert!(!from_bytes::<Bytes>(&dup).unwrap().0.is_empty());
        assert_eq!(
            dup,
            reply_bytes(accept_from(&mut donor, origin, 700, id, t, payload))
        );
    }
    assert_eq!(spare.applied_order, order(&[1, 2, 3]));
    assert_eq!(spare.get_state(), donor.get_state());
}

#[test]
fn garbled_ledgers_leave_the_blank_state() {
    let mut donor = log_service();
    propose(&mut donor, 100, 1, b"m");
    accept(&mut donor, 200, 1, 150, b"m");
    let (app, order, _, retry, queue) = from_bytes::<StateWire>(&donor.get_state()).unwrap();
    // Adjacent ranges: no `IdSet` ever emits them.
    let ids = vec![(1, 1), (2, 2)];
    let mut spare = log_service();
    spare.set_state(&to_bytes(&(app, order, ids, retry, queue)));
    assert!(spare.applied_order.is_empty() && !spare.has_applied(1));
    assert!(spare.app().entries.is_empty());
}

#[test]
fn an_unknown_queue_status_leaves_the_blank_state() {
    let mut donor = log_service();
    propose(&mut donor, 100, 1, b"m");
    accept(&mut donor, 200, 1, 150, b"m");
    propose_from(&mut donor, A, 300, 2, b"in flight");
    let (app, order, ids, retry, queue) = from_bytes::<StateWire>(&donor.get_state()).unwrap();
    assert_eq!(queue.len(), 1, "message 2 is in flight");
    // A status word no member writes: neither proposed nor accepted. A
    // spare that dropped the row alone would lack a message its peers
    // queue, and could apply a later one ahead of it.
    let queue: Vec<_> = (queue.into_iter())
        .map(|(time, id, origin, _, payload)| (time, id, origin, 2u16, payload))
        .collect();
    let mut spare = log_service();
    spare.set_state(&to_bytes(&(app, order, ids, retry, queue)));
    assert!(spare.applied_order.is_empty() && !spare.has_applied(1));
    assert_eq!(spare.queue_len(), 0);
    assert!(spare.app().entries.is_empty());
}

#[test]
fn applied_order_rejects_a_window_it_could_not_have_kept() {
    let o = order(&[4, 9, 2]);
    assert_eq!(from_bytes::<AppliedOrder>(&to_bytes(&o)), Ok(o));
    let decode = |count: u64, recent: Vec<u64>| {
        from_bytes::<AppliedOrder>(&to_bytes(&(count, FNV1A_BASIS, recent)))
    };
    let full: Vec<u64> = (1..=RECENT_IDS as u64).collect();
    assert!(decode(RECENT_IDS as u64 + 5, full.clone()).is_ok());
    let bad = WireError::Invalid("AppliedOrder");
    assert_eq!(decode(3, full), Err(bad.clone()), "longer than the count");
    let long: Vec<u64> = (0..=RECENT_IDS as u64).collect();
    assert_eq!(decode(100, long), Err(bad), "longer than RECENT_IDS");
}

#[test]
fn wedge_refuses_work_then_lapses() {
    let mut s = log_service();
    let mut c = ctx(1_000_000);
    assert!(matches!(s.wedge(&mut c), Step::Reply(_)));
    assert!(
        matches!(propose(&mut s, 1_100_000, 1, b"m"), Step::Error(_)),
        "wedged member must refuse proposals"
    );
    // Past the wedge TTL the lease lapses and service resumes.
    assert!(matches!(
        propose(&mut s, 1_000_000 + 13_000_000, 1, b"m"),
        Step::Reply(_)
    ));
    // An explicit unwedge also resumes service.
    let mut c = ctx(20_000_000);
    assert!(matches!(s.wedge(&mut c), Step::Reply(_)));
    s.unwedge();
    assert!(matches!(
        propose(&mut s, 20_100_000, 2, b"n"),
        Step::Reply(_)
    ));
}
