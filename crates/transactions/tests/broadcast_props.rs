//! Property tests for the ordered broadcast protocol: concurrent
//! broadcasters, skewed member clocks, per-member reordered and
//! duplicated accept delivery — every member must end with an
//! identical folded `applied_order` and a byte-identical application
//! log (Figure 5.1's claim, the max-of-proposals rule). And for the
//! messages the synchronization schemes send: a form declared once is
//! one layout, whether its fields are owned or borrowed.

use circus::message::ReturnView;
use circus::{ReturnMessage, Service, TroupeId};
use proptest::prelude::*;
use transactions::broadcast::{
    Accept, OrderedApply, Propose, PROC_ACCEPT_TIME, PROC_GET_PROPOSED_TIME,
};
use transactions::OrderedBroadcastService;
use transactions::{AppliedOrder, CmOp, CmRequest, ExecuteRequest, ObjId, Op};
use wire::{from_bytes, to_bytes, Externalize, Internalize};

/// A deterministic app: logs payload bytes.
struct Log {
    entries: Vec<Vec<u8>>,
}

impl OrderedApply for Log {
    fn apply(&mut self, payload: &[u8]) -> Vec<u8> {
        self.entries.push(payload.to_vec());
        to_bytes(&(self.entries.len() as u32))
    }
}

fn ctx(now_us: u64) -> circus::ServiceCtx {
    circus::ServiceCtx {
        thread: circus::ThreadId {
            origin: simnet::SockAddr::new(simnet::HostId(0), 0),
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

const MEMBERS: usize = 3;
const MAX_MSGS: usize = 6;

proptest! {
    /// The client side is modeled faithfully: each message's proposal
    /// reaches every member (the strict propose collation guarantees
    /// that), the accepted time is the maximum of the members' skewed
    /// local proposals, and then the accepts are delivered to each
    /// member in an independently shuffled order, with duplicates. The
    /// applied order must come out byte-identical everywhere, equal to
    /// the (accepted time, message id) sort.
    #[test]
    fn skewed_clocks_and_reordered_accepts_agree_on_order(
        skews in proptest::collection::vec(0u64..5_000_000, MEMBERS),
        jitters in proptest::collection::vec(0u64..1_000, MEMBERS * MAX_MSGS),
        perm_keys in proptest::collection::vec(any::<u64>(), MEMBERS * MAX_MSGS),
        dups in proptest::collection::vec(any::<bool>(), MEMBERS * MAX_MSGS),
        n_msgs in 1usize..=MAX_MSGS,
    ) {
        let mut members: Vec<OrderedBroadcastService<Log>> = (0..MEMBERS)
            .map(|_| OrderedBroadcastService::new(Log { entries: Vec::new() }))
            .collect();

        // Phase 1: every proposal reaches every member; the broadcaster
        // takes the max of the (skewed, jittered) local clock readings.
        let mut accepted: Vec<(u64, u64, Vec<u8>)> = Vec::new();
        for i in 0..n_msgs {
            let msg_id = 100 + i as u64;
            let global = 1_000 + 500 * i as u64;
            let payload = vec![i as u8 + 1, 0xAB];
            let mut max = 0u64;
            for (m, svc) in members.iter_mut().enumerate() {
                let local = global + skews[m] + jitters[m * MAX_MSGS + i];
                let mut c = ctx(local);
                let step = svc.dispatch(
                    &mut c,
                    PROC_GET_PROPOSED_TIME,
                    &to_bytes(&Propose { msg_id, payload: &payload[..] }),
                );
                let circus::Step::Reply(bytes) = step else {
                    panic!("propose refused");
                };
                max = max.max(from_bytes::<u64>(&bytes).unwrap());
            }
            accepted.push((msg_id, max, payload));
        }

        // Phase 2: deliver the accepts to each member in its own
        // shuffled order, duplicating some (retries, network dups).
        for (m, svc) in members.iter_mut().enumerate() {
            let mut order: Vec<usize> = (0..n_msgs).collect();
            order.sort_by_key(|&i| perm_keys[m * MAX_MSGS + i]);
            let now = 8_000_000 + skews[m]; // All due, well inside the GC TTL.
            for &i in &order {
                let reps = if dups[m * MAX_MSGS + i] { 2 } else { 1 };
                for _ in 0..reps {
                    let (msg_id, time, payload) = &accepted[i];
                    let mut c = ctx(now);
                    let step = svc.dispatch(
                        &mut c,
                        PROC_ACCEPT_TIME,
                        &to_bytes(&Accept {
                            msg_id: *msg_id,
                            accepted_time: *time,
                            payload: &payload[..],
                        }),
                    );
                    prop_assert!(matches!(step, circus::Step::Reply(_)));
                }
            }
        }

        // The agreed order: sort by (accepted time, message id).
        let mut expect: Vec<(u64, u64)> =
            accepted.iter().map(|&(id, t, _)| (t, id)).collect();
        expect.sort();
        // The app's own log spells the order out (payload byte 0 is the
        // message's index + 1); the folded order must be that of the ids.
        let log: Vec<Vec<u8>> = expect
            .iter()
            .map(|&(_, id)| vec![(id - 100) as u8 + 1, 0xAB])
            .collect();
        let expect: AppliedOrder = expect.into_iter().map(|(_, id)| id).collect();
        for svc in &members {
            prop_assert_eq!(&svc.applied_order, &expect);
            prop_assert_eq!(&svc.app().entries, &log);
            prop_assert_eq!(svc.queue_len(), 0);
        }
        // Byte-identical application, not just id agreement.
        let digest = members[0].state_digest();
        for svc in &members[1..] {
            prop_assert_eq!(svc.state_digest(), digest);
        }
    }
}

/// What `from_bytes` makes of `input` as a `T`: the bytes of the value it
/// reads, or why it refuses.
fn reread<'a, T: Internalize<'a> + Externalize>(
    input: &'a [u8],
) -> Result<Vec<u8>, wire::WireError> {
    from_bytes::<T>(input).map(|v| to_bytes(&v))
}

/// The inputs a form is read from: its own bytes, each of its
/// truncations, its bytes with one word too many, arbitrary bytes, and
/// arbitrary bytes after its first eight.
fn inputs(bytes: &[u8], junk: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
    out.push([bytes, &[0, 0]].concat());
    out.push(junk.to_vec());
    out.push([&bytes[..bytes.len().min(8)], junk].concat());
    out.push(bytes.to_vec());
    out
}

proptest! {
    /// Each form declared generic over its byte or operation fields is
    /// one layout: its borrowed and owned instances write the same bytes,
    /// and where both read (`Propose`, `Accept`) `from_bytes` accepts
    /// exactly the same inputs as either and reads the same value. A
    /// borrowed slice of operations only writes. `ReturnMessage`, written
    /// from its runs, and `ReturnView`, declared, are held to the same:
    /// the view writes the message's bytes and reads them back.
    #[test]
    fn borrowed_and_owned_forms_are_one_layout(
        msg_id: u64,
        time: u64,
        payload in proptest::collection::vec(any::<u8>(), 0..24),
        kinds in proptest::collection::vec((0u8..3, any::<u64>(), any::<i64>()), 0..4),
        text: String,
        junk in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let propose = Propose { msg_id, payload: payload.clone() };
        let bytes = to_bytes(&propose);
        prop_assert_eq!(to_bytes(&Propose { msg_id, payload: &payload[..] }), bytes.clone());
        for input in inputs(&bytes, &junk) {
            prop_assert_eq!(reread::<Propose>(&input), reread::<Propose<&[u8]>>(&input));
        }
        prop_assert_eq!(from_bytes::<Propose>(&bytes), Ok(propose));

        let accept = Accept { msg_id, accepted_time: time, payload: payload.clone() };
        let bytes = to_bytes(&accept);
        let borrowed = Accept { msg_id, accepted_time: time, payload: &payload[..] };
        prop_assert_eq!(to_bytes(&borrowed), bytes.clone());
        for input in inputs(&bytes, &junk) {
            prop_assert_eq!(reread::<Accept>(&input), reread::<Accept<&[u8]>>(&input));
        }
        prop_assert_eq!(from_bytes::<Accept>(&bytes), Ok(accept));

        let ops: Vec<Op> = kinds
            .iter()
            .map(|&(kind, obj, v)| match kind {
                0 => Op::Read(ObjId(obj)),
                1 => Op::Write(ObjId(obj), v),
                _ => Op::Add(ObjId(obj), v),
            })
            .collect();
        let exec = ExecuteRequest { nonce: msg_id, ops: ops.clone() };
        let bytes = to_bytes(&(&exec, time));
        prop_assert_eq!(to_bytes(&(ExecuteRequest { nonce: msg_id, ops: &ops[..] }, time)), bytes.clone());
        prop_assert_eq!(from_bytes::<(ExecuteRequest, u64)>(&bytes), Ok((exec, time)));

        let cm_ops: Vec<CmOp> = kinds
            .iter()
            .map(|&(kind, obj, v)| match kind {
                0 => CmOp::Insert(obj),
                _ => CmOp::Incr(ObjId(obj), v),
            })
            .collect();
        let cm = CmRequest { op_id: msg_id, ops: cm_ops.clone() };
        let bytes = to_bytes(&cm);
        prop_assert_eq!(to_bytes(&CmRequest { op_id: msg_id, ops: &cm_ops[..] }), bytes.clone());
        prop_assert_eq!(from_bytes::<CmRequest>(&bytes), Ok(cm));

        for (msg, view) in [
            (ReturnMessage::Normal(payload.clone()), ReturnView::Normal(&payload)),
            (ReturnMessage::Error(text.clone()), ReturnView::Error(&text)),
            (ReturnMessage::WrongTroupe(TroupeId(time)), ReturnView::WrongTroupe(TroupeId(time))),
            (ReturnMessage::NoSuchProcedure, ReturnView::NoSuchProcedure),
            (ReturnMessage::Part { digest: time, bytes: payload.clone() }, ReturnView::Part(time, &payload)),
        ] {
            let bytes = to_bytes(&msg);
            prop_assert_eq!(to_bytes(&view), bytes.clone());
            prop_assert_eq!(from_bytes::<ReturnView>(&bytes), Ok(view));
            let over = [&bytes[..], &[0, 0]].concat();
            prop_assert!(from_bytes::<ReturnView>(&over).is_err());
            for n in 0..bytes.len() {
                prop_assert!(from_bytes::<ReturnView>(&bytes[..n]).is_err());
            }
        }
    }
}
