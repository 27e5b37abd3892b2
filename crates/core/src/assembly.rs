//! The many-to-one server algorithm (§4.3.2): group the call messages of
//! one replicated call by `(client troupe, thread, call sequence)`,
//! collate the argument sets, let the procedure execute exactly once,
//! and keep its return for the client members still to call (§4.3.4) —
//! and, where it was sent in parts, for a client that must fetch it whole
//! because a part's owner died.
//!
//! Invariants kept here: an assembly is opened by [`Assemblies::join`]
//! and closed by [`Assemblies::close`] alone, and is found by its timer's
//! serial or its invocation by a walk of the open ones; only a member of
//! the client troupe opens an assembly; each executes once.

use std::collections::HashMap;
use std::rc::Rc;

use crate::census;
use crate::collate::{CollateError, Collation, Decision, Slots};
use crate::counts::RpcCounts;
use crate::message::{encode, parts, Arrival, CallKey, CallMessage, Cut, ReturnMessage};
use crate::netio::NetIo;
use obs::SpanId;
use pairedmsg::Framed;
use simnet::{Duration, Payload, SockAddr, Time};
use wire::VecMap;

/// Where an open assembly stands.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PendState {
    /// Collecting call messages from client troupe members.
    Collecting,
    /// The service is blocked on a nested call.
    AwaitingNested,
    /// The service suspended the invocation (waiting on a lock or other
    /// internal condition); it will be advanced by `NodeEffect::StepFor`.
    Suspended,
}

/// The process addresses of a client troupe's members, as one many-to-one
/// assembly holds them.
pub(crate) enum Members {
    /// An unregistered caller: the source of the call message is the
    /// single "member" the return must reach.
    Solo(SockAddr),
    /// A registered troupe: the directory's own list, shared.
    Troupe(Rc<[SockAddr]>),
}

impl Members {
    pub(crate) fn as_slice(&self) -> &[SockAddr] {
        match self {
            Members::Solo(addr) => std::slice::from_ref(addr),
            Members::Troupe(addrs) => addrs,
        }
    }
}

/// How one client member's copy of a call asked to be answered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Responder {
    /// The paired-message call number to reply on.
    cn: u32,
    /// The part of a return of two or more segments the copy asked for.
    cut: Option<Cut>,
}

struct Pending {
    serial: u64,
    module: u16,
    proc: u16,
    client_members: Members,
    /// Per member, once its call message has arrived: how to answer it.
    responders: Slots<Option<Responder>>,
    args: Collation,
    state: PendState,
    deadline: Time,
    /// Invocation id allocated when the service first executed; reused on
    /// every resume so services can key per-invocation state.
    invocation: u64,
    /// Wire span of the call message that opened this assembly (the
    /// first-arrived member copy, which is deterministic under a fixed
    /// seed); parent of the invoke span.
    call_span: u64,
    /// Span minted when the service executed; nested calls made by the
    /// service and the reply segments are attributed to it.
    invoke_span: SpanId,
}

/// How long completed replies are buffered for slow client members
/// (§4.3.4).
const DONE_TTL: Duration = Duration::from_secs(60);

/// What is kept of an answered call for [`DONE_TTL`] after its close.
struct Answered {
    /// For client members whose call messages arrive after execution
    /// ("execution of the procedure thus appears instantaneous to the slow
    /// client troupe members", §4.3.4), if some member had yet to call.
    slow: Option<Framed>,
    /// The part `slow` answers a copy of the call that asked for it.
    cut: Option<Cut>,
    /// A return sent in parts, unframed, with its digest: for a client
    /// that fetches it whole because a part's owner died, and to cut
    /// another part for a slow member whose copy named another list.
    /// Without `slow`, kept only until the calling thread's next call.
    kept: Option<(ReturnMessage, u64)>,
    at: Time,
    /// Invoke span the buffered reply is attributed to.
    span: u64,
}

/// The answer to a copy of a call that asked for `cut`: that part of
/// `reply`, whose digest is `digest`, framed under `pm`, where the return
/// is cut for it; else the return whole.
fn answer(
    pm: &pairedmsg::Config,
    reply: &ReturnMessage,
    digest: Option<u64>,
    cut: Option<Cut>,
) -> Framed {
    let len = reply.encoded_len();
    let layout = |c: Cut| parts(len, c.of.into(), pm.max_segment_data);
    match cut.zip(digest).and_then(|(c, d)| Some((c, d, layout(c)?))) {
        Some((c, d, l)) => encode(pm, &reply.part(d, l.range(c.index.into()))),
        None => encode(pm, reply),
    }
}

/// The sender of a call message is not a member of the troupe it claims
/// to call for.
#[derive(Debug)]
pub(crate) struct Outsider;

/// One execution of a procedure: what a service's context is made from.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Invocation {
    pub(crate) id: u64,
    pub(crate) module: u16,
    pub(crate) proc: u16,
    pub(crate) span: SpanId,
}

#[derive(Default)]
pub(crate) struct Assemblies {
    /// Walked when a peer dies, so ordered: assemblies then execute in
    /// key order, not in a hasher's.
    pending: VecMap<CallKey, Pending>,
    last_serial: u64,
    last_invocation: u64,
    /// Point lookups, and `purge_done`'s `retain` — whose predicate has no
    /// side effect, so its order cannot be observed: otherwise never walked.
    answered: HashMap<CallKey, Answered>,
    /// Where invocations and split calls ([`Assemblies::time_out`]) are
    /// counted; the split calls from the first assembly of two or more
    /// members on, the only kind that can split.
    pub(crate) counts: RpcCounts,
}

impl Assemblies {
    /// The engine's part of [`Node::census`](crate::Node::census).
    pub(crate) fn census(&self, out: &mut Vec<(&'static str, usize)>) {
        out.push((census::OPEN_ASSEMBLIES, self.pending.len()));
        out.push((census::BUFFERED_RETURNS, self.answered.len()));
    }

    /// One line per open assembly, each followed by one per member it
    /// waits for that called the same `(client troupe, thread)` under
    /// another number; then the split calls counted, if there were any.
    pub(crate) fn stuck(&self, out: &mut Vec<String>) {
        for (k, p) in &self.pending {
            out.push(format!(
                "assembly {k:?} module={} proc={:#06x} state={:?} inv={}",
                p.module, p.proc, p.state, p.invocation
            ));
            for (member, seq) in self.split_members(k, p) {
                out.push(format!(
                    "split assembly {k:?}: {member} called it as call_seq {seq}"
                ));
            }
        }
        if let Some(n) = self.counts.split_calls.get().filter(|&n| n > 0) {
            out.push(format!(
                "split calls={n}: timed out on members heard under another call_seq"
            ));
        }
    }

    /// Forgets buffered returns older than [`DONE_TTL`].
    pub(crate) fn purge_done(&mut self, now: Time) {
        self.answered.retain(|_, a| now.since(a.at) < DONE_TTL);
    }

    /// The return of an already-answered call, ready and waiting for a
    /// slow member (§4.3.4) — the part `cut` its copy of the call asked
    /// for, if the return was cut — with the span it is attributed to.
    pub(crate) fn buffered(
        &self,
        key: &CallKey,
        cut: Option<Cut>,
        pm: &pairedmsg::Config,
    ) -> Option<(Framed, u64)> {
        let a = self.answered.get(key)?;
        let slow = a.slow.as_ref()?;
        let reply = match &a.kept {
            Some((reply, digest)) if a.cut != cut => answer(pm, reply, Some(*digest), cut),
            _ => slow.clone(),
        };
        Some((reply, a.span))
    }

    /// The return `fetch_return` asks for: answered from what is kept and
    /// nothing else.
    pub(crate) fn fetch(&self, key: &CallKey) -> Option<&ReturnMessage> {
        let kept = self.answered.get(key)?.kept.as_ref();
        kept.map(|(reply, _)| reply)
    }

    pub(crate) fn is_open(&self, key: &CallKey) -> bool {
        self.pending.contains_key(key)
    }

    /// Adds the call message `msg`, arrived at `at`, to its call's
    /// assembly. The call's first message opens the assembly over
    /// `members`, with the argument collation and deadline `fresh` makes,
    /// and comes back with the serial to arm the assembly timeout under
    /// if a silent member could stall it. Only a member's message opens
    /// or joins anything: remote input must not open what no member's
    /// call will close.
    pub(crate) fn join(
        &mut self,
        at: &Arrival,
        msg: CallMessage<Payload, Payload>,
        cut: Option<Cut>,
        members: Members,
        fresh: impl FnOnce(&[SockAddr]) -> (Collation, Time),
    ) -> Result<Option<u64>, Outsider> {
        let key = msg.key();
        let index_in = |m: &Members| m.as_slice().iter().position(|m| *m == at.from);
        let (i, stall) = match self.pending.get(&key) {
            Some(p) => (index_in(&p.client_members).ok_or(Outsider)?, None),
            None => {
                let i = index_in(&members).ok_or(Outsider)?;
                // The thread's next call is here: a return kept for a
                // fetch alone is done with.
                let previous = CallKey {
                    call_seq: key.call_seq.wrapping_sub(1),
                    ..key
                };
                let kept = self.answered.get(&previous);
                if kept.is_some_and(|a| a.slow.is_none()) {
                    self.answered.remove(&previous);
                }
                let n = members.as_slice().len();
                let (args, deadline) = fresh(members.as_slice());
                self.last_serial += 1;
                let serial = self.last_serial;
                if n > 1 {
                    self.counts.split_calls.handle();
                }
                let p = Pending {
                    serial,
                    module: msg.module,
                    proc: msg.proc,
                    client_members: members,
                    responders: Slots::new(n, None),
                    args,
                    state: PendState::Collecting,
                    deadline,
                    invocation: 0,
                    call_span: at.span,
                    invoke_span: SpanId::NONE,
                };
                self.pending.insert(key, p);
                // Only multi-member assemblies can stall on a silent member.
                (i, (n > 1).then_some(serial))
            }
        };
        let p = self.pending.get_mut(&key).expect("opened above");
        p.responders[i] = Some(Responder { cn: at.pm_cn, cut });
        p.args.add_vote(i, msg.args);
        Ok(stall)
    }

    /// If the assembly for `key` is collecting and its argument collation
    /// has decided, moves it on: to an invocation with the collated
    /// arguments (exactly-once execution, §4.1), or to the error that
    /// must close it.
    pub(crate) fn execute(
        &mut self,
        io: &mut dyn NetIo,
        key: CallKey,
    ) -> Option<Result<(Invocation, Payload), CollateError>> {
        let p = self.pending.get_mut(&key)?;
        if p.state != PendState::Collecting {
            return None;
        }
        let args = match p.args.decide() {
            Decision::Wait => return None,
            Decision::Ready(args) => args,
            Decision::Fail(e) => return Some(Err(e)),
        };
        self.last_invocation += 1;
        self.counts.invocations.inc();
        p.invocation = self.last_invocation;
        // The invoke span parents to the wire span of the call message
        // that opened the assembly, stitching the server-side execution
        // into the client's call tree.
        p.invoke_span = io.span(
            SpanId::from_raw(p.call_span),
            format_args!("invoke m{}.p{}", p.module, p.proc),
        );
        Some(Ok((p.invocation(), args)))
    }

    /// The service running `key`'s invocation suspended it, or made a
    /// nested call.
    pub(crate) fn set_state(&mut self, key: &CallKey, state: PendState) {
        if let Some(p) = self.pending.get_mut(key) {
            p.state = state;
        }
    }

    /// The nested call the assembly for `key` waited on has finished:
    /// the invocation to resume, if it was waiting.
    pub(crate) fn resume(&mut self, key: &CallKey) -> Option<Invocation> {
        let p = self.pending.get_mut(key)?;
        if p.state != PendState::AwaitingNested {
            return None;
        }
        p.state = PendState::Collecting; // Transitional; the step re-sets it.
        Some(p.invocation())
    }

    /// The assembly whose invocation `id` is suspended, and that
    /// invocation.
    pub(crate) fn suspended(&self, id: u64) -> Option<(CallKey, Invocation)> {
        let suspended = |p: &Pending| p.invocation == id && p.state == PendState::Suspended;
        let found = self.pending.iter().find(|(_, p)| suspended(p));
        found.map(|(&key, p)| (key, p.invocation()))
    }

    /// The span of the invocation the assembly for `key` is running.
    pub(crate) fn invoke_span(&self, key: &CallKey) -> SpanId {
        let p = self.pending.get(key);
        p.map_or(SpanId::NONE, |p| p.invoke_span)
    }

    /// The client members of the open assembly for `key`.
    pub(crate) fn members(&self, key: &CallKey) -> &[SockAddr] {
        let p = self.pending.get(key);
        p.map_or(&[], |p| p.client_members.as_slice())
    }

    /// Closes the assembly for `key`: `send`s `reply`, framed under `pm`,
    /// to every client member heard from, under the invoke span, and keeps
    /// it for the rest (§4.3.4). A member whose copy named the server
    /// members is sent the part its position there names, if the reply
    /// spans two or more segments; the reply is then kept unframed for a
    /// fetch, and never framed whole unless some copy named no members.
    /// The members heard from are grouped by the part each is sent and the
    /// call number each called on, one `send` per group, so a group of two
    /// or more can share one multicast (§4.3.3). In the fault-free case
    /// every member called on the same number and asked for the same part,
    /// and the group is the whole troupe, which is sent as it stands. Each
    /// `send` is handed the answer itself, the only handle at first, so
    /// the first group's datagrams are windows of its buffer; it leaves a
    /// handle for the next group and for keeping.
    pub(crate) fn close(
        &mut self,
        key: &CallKey,
        reply: ReturnMessage,
        pm: &pairedmsg::Config,
        now: Time,
        mut send: impl FnMut(&[SockAddr], u32, u64, &mut Framed),
    ) {
        let Some(p) = self.pending.remove(key) else {
            return;
        };
        let span = p.invoke_span.raw();
        let members = p.client_members.as_slice();
        // Hashed only if some copy is sent a part.
        let len = reply.encoded_len();
        let cut = |c: Cut| parts(len, c.of.into(), pm.max_segment_data).is_some();
        let mut heard = p.responders.iter().flatten();
        let digest = heard
            .any(|r| r.cut.is_some_and(cut))
            .then(|| reply.digest());
        let (cut, framed) = match p.responders.split_first() {
            Some((&Some(first), rest)) if rest.iter().all(|&r| r == Some(first)) => {
                let mut framed = answer(pm, &reply, digest, first.cut);
                send(members, first.cn, span, &mut framed);
                (first.cut, framed)
            }
            _ => {
                let heard = members.iter().zip(&p.responders);
                let mut heard: Vec<(Option<Cut>, u32, SockAddr)> = heard
                    .filter_map(|(&to, r)| Some(((*r)?.cut, (*r)?.cn, to)))
                    .collect();
                // Stable: each group keeps the troupe's order.
                heard.sort_by_key(|&(cut, cn, _)| (cut, cn));
                // The last answer framed, with the part it is.
                let mut framed: Option<(Option<Cut>, Framed)> = None;
                for group in heard.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
                    let (cut, cn) = (group[0].0, group[0].1);
                    if framed.as_ref().is_none_or(|f| f.0 != cut) {
                        framed = Some((cut, answer(pm, &reply, digest, cut)));
                    }
                    let tos: Vec<SockAddr> = group.iter().map(|&(.., to)| to).collect();
                    let (_, answer) = framed.as_mut().expect("framed above");
                    send(&tos, cn, span, answer);
                }
                framed.expect("a member's message opened the assembly")
            }
        };
        let slow = p.responders.contains(&None).then_some(framed);
        let kept = digest.map(|digest| (reply, digest));
        if slow.is_some() || kept.is_some() {
            let at = now;
            let answered = Answered {
                slow,
                cut,
                kept,
                at,
                span,
            };
            self.answered.insert(*key, answered);
        }
    }

    /// The assembly timeout armed under `serial` fired: the assembly it
    /// belongs to, if that is still open, and whether it now proceeds
    /// without the silent members ("the client receives notification if
    /// any server troupe member crashes, so it can proceed with those
    /// still available", §4.3.1 — mirrored here on the server side). A
    /// silent member heard on the same `(client troupe, thread)` under
    /// another number is alive and called, only not as this call: it is
    /// counted as a split call.
    pub(crate) fn time_out(&mut self, serial: u64, now: Time) -> Option<(CallKey, bool)> {
        let (&key, p) = self.pending.iter().find(|(_, p)| p.serial == serial)?;
        if p.state != PendState::Collecting || now < p.deadline {
            return Some((key, false));
        }
        let split = self.split_members(&key, p).count() as u64;
        self.counts.split_calls.handle().add(split);
        let p = self.pending.get_mut(&key).expect("read above");
        for (i, responder) in p.responders.iter().enumerate() {
            if responder.is_none() {
                p.args.mark_dead(i);
            }
        }
        Some((key, true))
    }

    /// The members the assembly `p` for `key` has not heard from that
    /// called in another open assembly of the same `(client troupe,
    /// thread)`, each with the `call_seq` it used there: one logical call
    /// its troupe's members numbered differently (§4.3.2). `pending` is
    /// ordered by key, so those assemblies are one range.
    fn split_members<'a>(
        &'a self,
        key: &'a CallKey,
        p: &'a Pending,
    ) -> impl Iterator<Item = (SockAddr, u32)> + 'a {
        let first = CallKey {
            call_seq: 0,
            ..*key
        };
        let pair = first..=CallKey {
            call_seq: u32::MAX,
            ..first
        };
        let members = p.client_members.as_slice().iter().zip(&p.responders);
        let silent = members.filter_map(|(&m, heard)| heard.is_none().then_some(m));
        silent.filter_map(move |member| {
            let mut others = self.pending.range(pair.clone()).filter(|&(k, _)| k != key);
            others.find_map(|(k, other)| {
                let i = other
                    .client_members
                    .as_slice()
                    .iter()
                    .position(|&o| o == member)?;
                other.responders[i].map(|_| (member, k.call_seq))
            })
        })
    }

    /// Every open assembly, in key order.
    pub(crate) fn keys(&self) -> Vec<CallKey> {
        self.pending.keys().copied().collect()
    }

    /// Stops the assembly for `key` expecting a call message from the
    /// dead peer `addr`. `true` if it was collecting and `addr` is one of
    /// its members: that may have decided the collation.
    pub(crate) fn excuse(&mut self, key: &CallKey, addr: SockAddr) -> bool {
        let waiting = self.pending.get_mut(key);
        let Some(p) = waiting.filter(|p| p.state == PendState::Collecting) else {
            return false;
        };
        let members = p.client_members.as_slice();
        let member = members.iter().position(|m| *m == addr);
        member.is_some_and(|i| {
            p.args.mark_dead(i);
            true
        })
    }
}

impl Pending {
    fn invocation(&self) -> Invocation {
        Invocation {
            id: self.invocation,
            module: self.module,
            proc: self.proc,
            span: self.invoke_span,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::addr::TroupeId;
    use crate::collate::CollationPolicy;
    use crate::netio::mock::MockIo;
    use crate::thread::ThreadId;
    use proptest::prelude::*;
    use simnet::HostId;

    fn host(h: u32) -> SockAddr {
        SockAddr::new(HostId(h), 50)
    }

    fn pm() -> pairedmsg::Config {
        pairedmsg::Config::default()
    }

    /// The copy of troupe 7's call number `seq` that `from` sends.
    pub(crate) fn message(from: SockAddr, seq: u32) -> (Arrival, CallMessage<Payload, Payload>) {
        let (origin, pm_cn) = (host(9), seq);
        let at = Arrival {
            from,
            pm_cn,
            span: 0,
        };
        let msg = CallMessage {
            thread: ThreadId { origin, serial: 1 },
            call_seq: seq,
            client_troupe: TroupeId(7),
            server_troupe: TroupeId::UNREGISTERED,
            module: 1,
            proc: 0,
            args: Payload::copy_from(b"same"),
            members: Payload::default(),
        };
        (at, msg)
    }

    /// The lookups answer from the open assemblies alone: `suspended(id)`
    /// names exactly the suspended assembly whose invocation is `id`, and
    /// the serial of a closed assembly times nothing out.
    fn check(a: &mut Assemblies) {
        let mut suspended = std::collections::BTreeMap::new();
        for (key, p) in &a.pending {
            assert_eq!(p.invocation == 0, p.state == PendState::Collecting);
            if p.state == PendState::Suspended {
                suspended.insert(p.invocation, *key);
            }
        }
        for id in 0..=a.last_invocation {
            assert_eq!(a.suspended(id).map(|(k, _)| k), suspended.get(&id).copied());
        }
        let open: Vec<u64> = a.pending.values().map(|p| p.serial).collect();
        for serial in (1..=a.last_serial).filter(|s| !open.contains(s)) {
            assert_eq!(a.time_out(serial, Time::ZERO), None);
        }
    }

    /// The members heard from are grouped by the call number each called
    /// on: in the fault-free case one send goes to the whole troupe; two
    /// responders on different call numbers are two sends, and a member
    /// not heard from finds the return buffered.
    #[test]
    fn close_sends_once_per_call_number() {
        let troupe: Rc<[SockAddr]> = (1..=3).map(host).collect();
        let closed = |arrivals: &[(u32, u32)]| {
            let mut a = Assemblies::default();
            let mut key = None;
            for &(h, pm_cn) in arrivals {
                let (mut at, msg) = message(host(h), 1);
                at.pm_cn = pm_cn;
                key = Some(msg.key());
                let fresh = |m: &[SockAddr]| {
                    let args = Collation::new(CollationPolicy::Unanimous, m.len());
                    (args, Time::ZERO)
                };
                assert!(a
                    .join(&at, msg, None, Members::Troupe(troupe.clone()), fresh)
                    .is_ok());
            }
            let key = key.expect("a call message");
            let mut sends = Vec::new();
            a.close(
                &key,
                ReturnMessage::NoSuchProcedure,
                &pm(),
                Time::ZERO,
                |tos, cn, _, _| {
                    sends.push((tos.to_vec(), cn));
                },
            );
            (sends, a.buffered(&key, None, &pm()).is_some())
        };
        let whole = (vec![(troupe.to_vec(), 4)], false);
        assert_eq!(closed(&[(1, 4), (2, 4), (3, 4)]), whole);
        let split = vec![(vec![host(1)], 4), (vec![host(2)], 7)];
        assert_eq!(closed(&[(2, 7), (1, 4)]), (split, true));
        let pair = vec![(vec![host(2), host(3)], 4), (vec![host(1)], 9)];
        assert_eq!(closed(&[(3, 4), (1, 9), (2, 4)]), (pair, false));
    }

    /// Copies that name the server members are each sent the part this
    /// member's position names, framed once for all of them; the return
    /// is kept unframed for a fetch and to cut a slow member's part, and
    /// is forgotten at the thread's next call. A copy that names no
    /// members, or a return of one segment, is answered whole.
    #[test]
    fn a_return_of_two_segments_or_more_is_sent_in_parts() {
        let troupe: Rc<[SockAddr]> = (1..=3).map(host).collect();
        let big = ReturnMessage::Normal(vec![3; 5000]);
        let layout = parts(big.encoded_len(), 3, pm().max_segment_data).expect("cut");
        let part = |index: u16| wire::to_bytes(&big.part(big.digest(), layout.range(index.into())));
        let bytes = |framed: &Framed| framed.parts().flatten().copied().collect::<Vec<u8>>();
        let cut = |index| Some(Cut { index, of: 3 });
        let mut a = Assemblies::default();
        // Call `seq` from the members at `hosts`, each asking for part 1,
        // closed with `reply`: what is sent, to whom.
        let call = |a: &mut Assemblies, seq, hosts: &[u32], reply: &ReturnMessage| {
            for &h in hosts {
                let (at, msg) = message(host(h), seq);
                let fresh = |m: &[SockAddr]| {
                    (
                        Collation::new(CollationPolicy::Unanimous, m.len()),
                        Time::ZERO,
                    )
                };
                let joined = a.join(&at, msg, cut(1), Members::Troupe(troupe.clone()), fresh);
                assert!(joined.is_ok());
            }
            let key = message(host(1), seq).1.key();
            let mut sent = Vec::new();
            a.close(
                &key,
                reply.clone(),
                &pm(),
                Time::ZERO,
                |tos, _, _, framed| {
                    sent.push((tos.to_vec(), bytes(framed)));
                },
            );
            (key, sent)
        };
        // Member 3 is slow.
        let (key, sent) = call(&mut a, 1, &[1, 2], &big);
        assert_eq!(sent, [(vec![host(1), host(2)], part(1))]);
        let answer = |a: &Assemblies, cut| bytes(&a.buffered(&key, cut, &pm()).expect("kept").0);
        assert_eq!(answer(&a, cut(1)), part(1));
        assert_eq!(
            answer(&a, cut(2)),
            part(2),
            "cut again from the kept return"
        );
        assert_eq!(
            answer(&a, None),
            wire::to_bytes(&big),
            "whole, to a copy naming none"
        );
        assert_eq!(a.fetch(&key), Some(&big));
        // Every member answered, the thread's next call forgets the return;
        // one still to call keeps it.
        let (next, _) = call(&mut a, 2, &[1, 2, 3], &big);
        assert_eq!((a.fetch(&key), a.fetch(&next)), (Some(&big), Some(&big)));
        call(&mut a, 3, &[1, 2, 3], &big);
        assert!(a.fetch(&next).is_none());
        assert!(a.fetch(&key).is_some(), "member 3 has yet to call");
        // A return of one segment is sent whole, and not kept.
        let small = ReturnMessage::Normal(vec![3; 50]);
        let (key, sent) = call(&mut a, 4, &[1, 2, 3], &small);
        assert_eq!(sent, [(troupe.to_vec(), wire::to_bytes(&small))]);
        assert!(a.fetch(&key).is_none());
    }

    /// A member heard on the assembly's `(client troupe, thread)` under
    /// another number is a split call: named while both assemblies are
    /// open, counted when the one it is silent in times out. A member
    /// heard in no open assembly is merely silent.
    #[test]
    fn a_member_heard_under_another_number_is_a_split_call() {
        let troupe: Rc<[SockAddr]> = (1..=3).map(host).collect();
        let late = Time::ZERO + Duration::from_secs(11);
        let mut a = Assemblies {
            counts: RpcCounts::register(&obs::Registry::new(), host(9)),
            ..Assemblies::default()
        };
        // Members 1 and 2 number the call 1; member 3 numbers it 2.
        let mut serials = Vec::new();
        for (h, seq) in [(1, 1), (3, 2), (2, 1)] {
            let (at, msg) = message(host(h), seq);
            let fresh =
                |m: &[SockAddr]| (Collation::new(CollationPolicy::Unanimous, m.len()), late);
            let joined = a.join(&at, msg, None, Members::Troupe(troupe.clone()), fresh);
            serials.extend(joined.expect("a member"));
        }
        let mut stuck = Vec::new();
        a.stuck(&mut stuck);
        let named = stuck.iter().filter(|l| l.starts_with("split assembly"));
        assert_eq!(named.count(), 1 + 2, "{stuck:?}");
        assert_eq!(a.counts.split_calls.get(), Some(0));
        let &[one, two] = serials.as_slice() else {
            panic!("two assemblies: {serials:?}")
        };
        let (key_one, key_two) = (message(host(1), 1).1.key(), message(host(3), 2).1.key());
        assert_eq!(a.time_out(one, late), Some((key_one, true)));
        assert_eq!(a.counts.split_calls.get(), Some(1), "member 3, heard as 2");
        a.close(
            &key_one,
            ReturnMessage::NoSuchProcedure,
            &pm(),
            late,
            |_, _, _, _| {},
        );
        assert_eq!(a.time_out(two, late), Some((key_two, true)));
        assert_eq!(
            a.counts.split_calls.get(),
            Some(1),
            "members 1 and 2 are in no open assembly"
        );
    }

    proptest! {
        /// After any sequence of call messages (from the three members
        /// and from an outsider), timeouts, member deaths, suspensions,
        /// nested-call waits and replies, the lookups agree with the open
        /// assemblies and no outsider has opened anything; a closed call
        /// leaves its return behind exactly if some member has yet to
        /// call; and closing the rest leaves nothing.
        #[test]
        fn lookups_agree_and_the_last_close_leaves_nothing(
            ops in proptest::collection::vec((0u8..5, any::<u8>()), 1..120)
        ) {
            let mut a = Assemblies::default();
            let mut io = MockIo::default();
            let troupe: Rc<[SockAddr]> = (1..=3).map(host).collect();
            let late = Time::ZERO + Duration::from_secs(11);
            // Runs the assembly if it is ready, and leaves it executing.
            let mut execute = |a: &mut Assemblies, key: CallKey, suspend: bool| match a.execute(&mut io, key) {
                Some(Ok(_)) if suspend => a.set_state(&key, PendState::Suspended),
                Some(Ok(_)) => a.set_state(&key, PendState::AwaitingNested),
                Some(Err(_)) => a.close(&key, ReturnMessage::NoSuchProcedure, &pm(), late, |_, _, _, _| {}),
                None => {}
            };
            for (op, arg) in ops {
                let (peer, flag) = (host(1 + u32::from(arg / 4) % 4), arg % 2 == 0);
                let (at, msg) = message(peer, 1 + u32::from(arg) % 3);
                let key = msg.key();
                match op {
                    0 | 1 if a.buffered(&key, None, &pm()).is_none() => {
                        let was_open = a.is_open(&key);
                        let fresh = |m: &[SockAddr]| (Collation::new(CollationPolicy::Unanimous, m.len()), late);
                        let joined = a.join(&at, msg, None, Members::Troupe(troupe.clone()), fresh);
                        prop_assert_eq!(joined.is_ok(), troupe.contains(&peer));
                        prop_assert_eq!(a.is_open(&key), was_open || joined.is_ok());
                        execute(&mut a, key, flag);
                    }
                    2 if a.time_out(a.pending.get(&key).map_or(0, |p| p.serial), late).is_some() => {
                        execute(&mut a, key, flag);
                    }
                    3 if a.excuse(&key, peer) => execute(&mut a, key, flag),
                    4 if flag && a.resume(&key).is_some() => a.set_state(&key, PendState::Suspended),
                    // The service replies.
                    4 if a.suspended(a.pending.get(&key).map_or(0, |p| p.invocation)).is_some() => {
                        let unheard = a.pending[&key].responders.contains(&None);
                        let mut sent = 0;
                        a.close(&key, ReturnMessage::NoSuchProcedure, &pm(), late, |tos, _, _, _| sent += tos.len());
                        prop_assert_eq!(sent < 3, unheard);
                        prop_assert_eq!(a.buffered(&key, None, &pm()).is_some(), unheard);
                    }
                    _ => {}
                }
                check(&mut a);
            }
            for key in a.keys() {
                a.close(&key, ReturnMessage::NoSuchProcedure, &pm(), late, |_, _, _, _| {});
            }
            prop_assert!(a.pending.is_empty());
            check(&mut a);
        }
    }
}
