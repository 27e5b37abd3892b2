//! The one-to-many client algorithm (§4.3.1): send the same call message
//! to every member of the server troupe — once per member, or once for
//! all by multicast (§4.3.3) — and collate the returns.
//!
//! Invariants kept here: a call's `unresolved` is the number of its live
//! `route` entries, each peer's call numbers strictly increase, and a
//! `(client troupe, thread)`'s `call_seq` never repeats over the node's
//! life ([`CallSeqs`]).

use std::collections::BTreeMap;

use crate::addr::{Troupe, TroupeId};
use crate::binding::reserved_procs::{GET_STATE, GET_STATE_SINCE};
use crate::census;
use crate::collate::{Collation, CollationPolicy, Decision};
use crate::conn::Conns;
use crate::idset::IdSet;
use crate::message::{encode, wrap_reply_vote, CallKey, CallMessage, ReturnView};
use crate::netio::NetIo;
use crate::node::{CallHandle, NodeConfig};
use crate::numbers::{CallNumbers, StateTransfer};
use crate::service::CallError;
use crate::thread::ThreadId;
use obs::SpanId;
use pairedmsg::MsgType;
use simnet::{Payload, SockAddr, Syscall, Time};
use wire::from_bytes;

/// Why a call was made, which is where its result must go.
#[derive(Debug)]
pub(crate) enum CallPurpose {
    /// Initiated by the application; completion goes to `AppEvent`.
    App,
    /// A nested call made by the service handling `key`, under the span
    /// `parent`; completion resumes the service (§3.4).
    Nested { key: CallKey, parent: SpanId },
    /// An internal `lookup_troupe_by_id` to the binding agent (§4.3.2).
    DirLookup { troupe: TroupeId },
    /// An internal `report_suspect` to the binding agent (§3.5.1, §6.4):
    /// fire-and-forget; the result is discarded.
    SuspectReport,
}

/// One replicated call to make, described: on behalf of `thread`, to
/// `troupe`, returns collated under `collation`, the caller presenting
/// itself as a member of `client_troupe`.
pub(crate) struct Call<'a> {
    pub(crate) thread: ThreadId,
    pub(crate) troupe: &'a Troupe,
    pub(crate) module: u16,
    pub(crate) proc: u16,
    pub(crate) args: &'a [u8],
    pub(crate) collation: CollationPolicy,
    pub(crate) client_troupe: TroupeId,
}

impl<'a> Call<'a> {
    /// A call one process makes alone: it presents itself as a plain
    /// unregistered client, so no server mistakes the call for one
    /// message of a many-to-one call and waits out the assembly timeout
    /// for the other members' copies (§4.3.2).
    pub(crate) fn solo(
        thread: ThreadId,
        troupe: &'a Troupe,
        (module, proc): (u16, u16),
        args: &'a [u8],
        collation: CollationPolicy,
    ) -> Call<'a> {
        let client_troupe = TroupeId::UNREGISTERED;
        Call {
            thread,
            troupe,
            module,
            proc,
            args,
            collation,
            client_troupe,
        }
    }
}

struct Outstanding {
    collation: Collation,
    /// `None` once finished: the call lingers only to absorb late returns.
    purpose: Option<CallPurpose>,
    /// Members neither heard from nor given up on: the call's entries in
    /// `ClientCalls::route`.
    unresolved: usize,
    /// When the call began, for the `rpc.call_latency_us` histogram.
    begun: Time,
    /// A state fetch: each answer carries its member's call numbers.
    transfer: bool,
}

/// A call finished: what the dispatcher needs to route its result.
#[derive(Debug)]
pub(crate) struct Finished {
    pub(crate) handle: u64,
    pub(crate) purpose: CallPurpose,
    pub(crate) result: Result<Vec<u8>, CallError>,
    pub(crate) begun: Time,
}

/// What a return message led to.
#[derive(Debug)]
pub(crate) enum Returned {
    Finished(Finished),
    /// The watchdog (§4.3.4) saw a straggler disagree with the value this
    /// call already delivered.
    Violation(CallHandle),
}

/// The call sequence number of every distributed thread this node has
/// called on, per client troupe it presented: its `k`th call on a thread
/// as troupe `c` goes out under `call_seq` k.
///
/// **The numbering key is the server's matching key.** A server matches
/// the copies of a many-to-one call by `(client troupe, thread,
/// call_seq)` (§4.3.2), against its open assemblies and against the
/// returns it buffers for `DONE_TTL` (60 s). So a number never repeats
/// within a `(client troupe, thread)` over the node's life (it would
/// join another call's assembly or be answered with another call's
/// return), and nothing outside that pair moves it: a member's solo
/// (`UNREGISTERED`) call on a thread would otherwise number its copy of
/// the troupe's next call there one past its peers' copies, and the
/// server would open two assemblies for one call.
///
/// So the table never forgets a thread. Forgetting one is safe only if
/// every member of the client troupe forgets it in step, because each
/// member numbers the calls it makes for the troupe on its own and the
/// server assembles their copies by those numbers. The members' clocks
/// disagree on when a thread went idle. A thread that calls again inside
/// that window goes out as 1 from the member that forgot and as k + 1
/// from the one that did not: the server opens two assemblies and runs
/// the procedure twice.
///
/// Nor does it need to forget: it is exact and small. A thread that has
/// called once as one client troupe from here (a library client mints one
/// per submission, and a store member's `ready_to_commit` call-back runs
/// on it) is a serial in that troupe's [`IdSet`] for its origin. A base
/// process mints serials consecutively, so that is one range per troupe
/// and origin plus one per serial skipped there. A second call as the
/// troupe moves the thread to `many` at 2, so [`CallSeqs::next`] returns
/// what a map from every `(client troupe, thread)` to its last number
/// would.
#[derive(Default)]
pub(crate) struct CallSeqs {
    /// Serials of the threads that have made exactly one call from here,
    /// per client troupe and origin.
    once: BTreeMap<(TroupeId, SockAddr), IdSet>,
    /// The last `call_seq` of each thread that has made two or more calls
    /// from here as the client troupe.
    many: BTreeMap<(TroupeId, ThreadId), u32>,
}

impl CallSeqs {
    /// The `call_seq` of `thread`'s next call from this node as a member
    /// of `client_troupe`.
    pub(crate) fn next(&mut self, client_troupe: TroupeId, thread: ThreadId) -> u32 {
        if let Some(seq) = self.many.get_mut(&(client_troupe, thread)) {
            *seq += 1;
            return *seq;
        }
        let (serial, origin) = (u64::from(thread.serial), (client_troupe, thread.origin));
        let once = self.once.entry(origin).or_default();
        if once.insert(serial) {
            return 1;
        }
        once.remove(serial);
        if once.is_empty() {
            self.once.remove(&origin);
        }
        self.many.insert((client_troupe, thread), 2);
        2
    }

    /// Ranges held for the threads that called once, summed over the
    /// client troupes: those based at `me`, and all others.
    fn ranges(&self, me: SockAddr) -> (usize, usize) {
        let (mut own, mut foreign) = (0, 0);
        for (&(_, origin), serials) in &self.once {
            let held = if origin == me { &mut own } else { &mut foreign };
            *held += serials.range_count();
        }
        (own, foreign)
    }
}

#[derive(Default)]
pub(crate) struct ClientCalls {
    /// `outstanding` and `route` are walked when a peer dies, so ordered:
    /// calls then fail over in key order, not in a hasher's.
    outstanding: BTreeMap<u64, Outstanding>,
    /// `(peer, call number)` of each awaited return to `(handle, member)`.
    route: BTreeMap<(SockAddr, u32), (u64, usize)>,
    seqs: CallSeqs,
    last_handle: u64,
    /// Next outgoing call number per peer.
    pub(crate) numbers: CallNumbers,
}

impl ClientCalls {
    /// One line per call still awaiting collation.
    pub(crate) fn stuck(&self, out: &mut Vec<String>) {
        for (h, c) in &self.outstanding {
            if let Some(purpose) = &c.purpose {
                out.push(format!(
                    "out call #{h} purpose={purpose:?} begun={:?} collation={:?}",
                    c.begun, c.collation
                ));
            }
        }
    }

    /// The engine's part of [`Node::census`](crate::Node::census), for
    /// the node at `me`.
    pub(crate) fn census(&self, me: SockAddr, out: &mut Vec<(&'static str, usize)>) {
        let (own, foreign) = self.seqs.ranges(me);
        out.extend([
            (census::OWN_SEQ_RANGES, own),
            (census::FOREIGN_SEQ_RANGES, foreign),
            (census::MULTI_CALL_THREADS, self.seqs.many.len()),
            (census::CALL_NUMBERS, self.numbers.len()),
            (census::OUTSTANDING_CALLS, self.outstanding.len()),
            (census::ROUTES, self.route.len()),
        ]);
    }

    /// Sends `call` to every member of its troupe that `admit` lets
    /// through now — a member refused is marked dead in the collation
    /// instead, so the call fails fast on it rather than re-running the
    /// whole retransmission schedule (§3.5.1's degraded-mode calls
    /// proceed against the survivors). The caller `decide`s the call
    /// next: it may already be over.
    pub(crate) fn begin(
        &mut self,
        io: &mut dyn NetIo,
        conns: &mut Conns,
        config: &NodeConfig,
        call: Call<'_>,
        purpose: CallPurpose,
        mut admit: impl FnMut(SockAddr, Time) -> bool,
    ) -> u64 {
        self.last_handle += 1;
        let handle = self.last_handle;
        let (troupe, module, proc) = (call.troupe, call.module, call.proc);
        let msg = CallMessage {
            thread: call.thread,
            call_seq: self.seqs.next(call.client_troupe, call.thread),
            client_troupe: call.client_troupe,
            server_troupe: troupe.id,
            module,
            proc,
            args: call.args,
        };
        // Externalize once; the timer package reads the clock and arms the
        // interval timer for the exchange (§4.2.4), inside a critical
        // region.
        io.charge(Syscall::Compute);
        io.charge(Syscall::GetTimeOfDay);
        io.charge(Syscall::SetITimer);
        io.charge(Syscall::SigBlock);
        // Encode the call message once, as its datagrams; every member's
        // sender (and every retransmission) shares this buffer.
        let mut bytes = encode(&config.pm, &msg);

        // Mint the causal span covering this call. Application calls and
        // binding lookups start new trees; a nested call made by a service
        // hangs off that invocation's span, so one client call's whole
        // fan-out — including onward hops — reconstructs as a single tree.
        let span = match &purpose {
            CallPurpose::App => io.span(SpanId::NONE, format_args!("call m{module}.p{proc}")),
            CallPurpose::Nested { parent, .. } => {
                io.span(*parent, format_args!("nested m{module}.p{proc}"))
            }
            CallPurpose::DirLookup { .. } => io.span(SpanId::NONE, format_args!("lookup")),
            CallPurpose::SuspectReport => io.span(SpanId::NONE, format_args!("report suspect")),
        }
        .raw();
        let now = io.now();

        // The data plane is read off the call (§4.3.3): two or more
        // segments to two or more live members are sent once, by
        // multicast; a single segment goes out per member unless the
        // configuration multicasts those too.
        let shareable = conns.shareable(bytes.len(), config.multicast_small_calls);
        let mut collation = Collation::new(call.collation, troupe.members.len());
        let mut blast = Vec::new();
        for (i, member) in troupe.members.iter().enumerate() {
            if !admit(member.addr, now) {
                collation.mark_dead(i);
            } else if shareable {
                blast.push(member.addr);
            }
        }
        // A blast must reach every member under the same number: the
        // largest any of them is due.
        let shared = (blast.len() > 1).then(|| {
            let cn = blast.iter().map(|&a| self.numbers.due(a)).max();
            let cn = cn.expect("addresses members");
            conns.blast(io, MsgType::Call, cn, span, &mut bytes, &blast);
            cn
        });

        let call = Outstanding {
            collation,
            purpose: Some(purpose),
            unresolved: 0,
            begun: now,
            transfer: matches!(proc, GET_STATE | GET_STATE_SINCE),
        };
        self.outstanding.insert(handle, call);
        for (i, member) in troupe.members.iter().enumerate() {
            if self.call_mut(handle).collation.is_dead(i) {
                continue; // Not admitted.
            }
            let addr = member.addr;
            let cn = self.numbers.take(addr, shared);
            if shared.is_none() {
                // The first member's sender takes the only handle on the
                // call and writes its headers into it; a member at the
                // same call number shares those datagrams, one at another
                // copies them.
                let endpoint = conns.endpoint(addr);
                let sent = endpoint.send_shared(now, MsgType::Call, cn, span, &mut bytes);
                if sent.is_err() {
                    // Only an oversize message fails to send, which the
                    // stub layer prevents; treat it as an instantly dead
                    // member.
                    self.call_mut(handle).collation.mark_dead(i);
                    continue;
                }
            }
            // Expect member `i`'s return from `(addr, cn)`.
            if let Some((displaced, _)) = self.route.insert((addr, cn), (handle, i)) {
                self.resolve_route(displaced);
            }
            self.call_mut(handle).unresolved += 1;
        }
        handle
    }

    fn call_mut(&mut self, handle: u64) -> &mut Outstanding {
        self.outstanding.get_mut(&handle).expect("call exists")
    }

    /// Accounts for one of `handle`'s route entries having been removed
    /// (the return arrived, or the member is given up on).
    fn resolve_route(&mut self, handle: u64) {
        if let Some(call) = self.outstanding.get_mut(&handle) {
            call.unresolved -= 1;
        }
    }

    /// Applies the collation decision for an outstanding call: if that
    /// finishes it, says so — once.
    pub(crate) fn decide(&mut self, handle: u64) -> Option<Finished> {
        let call = self.outstanding.get(&handle)?;
        let result = match call.purpose.as_ref().map(|_| call.collation.decide()) {
            None | Some(Decision::Wait) => None,
            // The one copy of the results: out of the datagram they
            // arrived in, into the caller's vector.
            Some(Decision::Ready(bytes)) => Some(match ReturnView::decode(&bytes) {
                Ok(ReturnView::Normal(data)) => Ok(data.to_vec()),
                Ok(ReturnView::Error(e)) => Err(CallError::Remote(e.to_owned())),
                Ok(ReturnView::WrongTroupe(hint)) => Err(CallError::StaleBinding(Some(hint))),
                Ok(ReturnView::NoSuchProcedure) => Err(CallError::NoSuchProcedure),
                Err(_) => Err(CallError::Garbled),
            }),
            Some(Decision::Fail(e)) => Some(Err(e.into())),
        };
        self.settle(handle, result)
    }

    /// Fails a call immediately (stale binding and similar fatal replies).
    fn fail(&mut self, handle: u64, err: CallError) -> Option<Finished> {
        self.settle(handle, Some(Err(err)))
    }

    /// Finishes `handle` with `result`, if it has one and the call has
    /// not finished before; then forgets the call once it is finished
    /// and has heard from (or given up on) every member. In unanimous
    /// mode this *is* the paper's synchronization point: "the return
    /// from a replicated procedure call is thus a synchronization point"
    /// (§4.3.1); in first-come mode the call lingers, absorbing and
    /// discarding late returns by their call numbers (§4.3.4).
    fn settle(
        &mut self,
        handle: u64,
        result: Option<Result<Vec<u8>, CallError>>,
    ) -> Option<Finished> {
        let call = self.outstanding.get_mut(&handle)?;
        let begun = call.begun;
        let finished = result.and_then(|result| {
            let purpose = call.purpose.take()?;
            Some(Finished {
                handle,
                purpose,
                result,
                begun,
            })
        });
        if call.purpose.is_none() && call.unresolved == 0 {
            self.outstanding.remove(&handle);
        }
        finished
    }

    /// Handles a return message arriving from a server troupe member.
    pub(crate) fn on_return(
        &mut self,
        io: &mut dyn NetIo,
        (from, cn): (SockAddr, u32),
        data: Payload,
    ) -> Option<Returned> {
        // No route: a late return for a call already cleaned up (§4.3.4).
        let (handle, member) = self.route.remove(&(from, cn))?;
        self.resolve_route(handle);
        // Each member's return message is internalized by the stubs
        // (user-mode time grows with the degree of replication,
        // Table 4.1).
        io.charge(Syscall::Compute);
        // Fatal binding replies bypass collation: the server troupe's
        // incarnation no longer matches, so no member executed (§6.2).
        // The message is checked whole but in place; what is collated is
        // the arrival datagram's own window.
        let transfer = self.outstanding.get(&handle).is_some_and(|c| c.transfer);
        let mut state = None;
        let fatal = match ReturnView::decode(&data) {
            Ok(ReturnView::WrongTroupe(hint)) => Some(CallError::StaleBinding(Some(hint))),
            Ok(ReturnView::NoSuchProcedure) => Some(CallError::NoSuchProcedure),
            // A survivor's state comes with its call numbers: the joiner
            // raises its own to them, and collates the state alone.
            Ok(ReturnView::Normal(body)) if transfer => match from_bytes::<StateTransfer>(body) {
                Ok(t) => {
                    self.numbers.raise(io.me(), &t.call_numbers);
                    state = Some(Payload::from(wrap_reply_vote(t.state.0)));
                    None
                }
                Err(_) => Some(CallError::Garbled),
            },
            Ok(_) => None,
            Err(_) => {
                io.metrics().add("adv.rejected", 1);
                Some(CallError::Garbled)
            }
        };
        if let Some(err) = fatal {
            return self.fail(handle, err).map(Returned::Finished);
        }
        let call = self.outstanding.get_mut(&handle)?;
        call.collation.add_vote(member, state.unwrap_or(data));
        // The watchdog compares stragglers against the value already
        // delivered (§4.3.4).
        let violation =
            call.purpose.is_none() && call.collation.is_watchdog() && !call.collation.votes_agree();
        let finished = self.decide(handle).map(Returned::Finished);
        if violation {
            return Some(Returned::Violation(CallHandle(handle)));
        }
        finished
    }

    /// The peer at `addr` died (§4.2.3): every call with a member there
    /// proceeds without it. The caller then `decide`s every outstanding
    /// call, in the handle order returned.
    pub(crate) fn peer_dead(&mut self, addr: SockAddr) -> Vec<u64> {
        let its_routes = (addr, 0)..=(addr, u32::MAX);
        while let Some((&at, &(handle, idx))) = self.route.range(its_routes.clone()).next() {
            self.route.remove(&at);
            self.resolve_route(handle);
            if let Some(call) = self.outstanding.get_mut(&handle) {
                call.collation.mark_dead(idx);
            }
        }
        self.outstanding.keys().copied().collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
                conns: Conns::new(ME, config.pm.clone()),
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
            conns.flush_all(io);
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
        vec![7; (k - 1) * pairedmsg::Config::default().max_segment_data + 1]
    }

    fn addrs_of(troupe: &Troupe) -> Vec<SockAddr> {
        troupe.members.iter().map(|m| m.addr).collect()
    }

    /// A paired-message configuration no endpoint would accept fails when
    /// the connection table is built, before any peer is contacted.
    #[test]
    #[should_panic(expected = "shorter than the crash horizon")]
    fn a_replay_ttl_short_of_the_crash_horizon_fails_at_build() {
        let mut config = NodeConfig::default();
        config.pm.replay_ttl = config.pm.crash_horizon() - simnet::Duration::from_micros(1);
        Rig::new(config);
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

    /// A single live target is not worth a multicast, and the PARC
    /// discipline has no blast to share: both stay per member.
    #[test]
    fn one_live_member_or_parc_mode_keeps_bulk_calls_unicast() {
        let troupe = troupe_of(3);
        let mut r = rig();
        r.dead = addrs_of(&troupe)[1..].to_vec();
        r.unanimous(&troupe, args_of(2));
        assert!(r.io.mcasts.is_empty());
        let dests: Vec<SockAddr> = r.io.sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(dests, vec![troupe.members[0].addr; 2], "both segments");

        let mut r = Rig::new(NodeConfig {
            pm: pairedmsg::Config::parc(),
            ..NodeConfig::default()
        });
        r.unanimous(&troupe, args_of(3));
        assert!(r.io.mcasts.is_empty());
        assert_eq!(r.io.sent.len(), 3, "stop-and-wait: one segment each");
        for (_, bytes) in &r.io.sent {
            let h = header(bytes);
            assert!(h.number == 1 && h.please_ack);
        }
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
    /// per-destination encode, no per-destination copy. (The encode
    /// counter only counts in debug builds.)
    #[test]
    #[cfg(debug_assertions)]
    fn multicast_call_to_five_members_copies_no_segment() {
        let mut r = rig();
        let before = pairedmsg::segment::encodes();
        r.unanimous(&troupe_of(5), args_of(2));
        let encoded = pairedmsg::segment::encodes() - before;
        assert_eq!(r.io.mcasts.len(), 2);
        assert_eq!(r.io.mcasts[0].0.len(), 5, "all five members addressed");
        assert_eq!(encoded, 0, "no segment copied, for any member");
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
}
