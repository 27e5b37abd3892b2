//! The one-to-many client algorithm (§4.3.1): send the same call message
//! to every member of the server troupe — once per member, or once for
//! all by multicast (§4.3.3) — and collate the returns.
//!
//! A unanimous call that goes out by blast names the members it went to,
//! in order: each returns its part of a return of two or more segments
//! (`message::parts`) with the digest of the whole, and the collation
//! joins the parts and checks every digest against them. Should a part's
//! owner die before its part is in, the whole return is fetched from a
//! member whose part is (`fetch_return`, answered from what that member
//! kept and never executed).
//!
//! Invariants kept here: a call's `unresolved` is the number of its live
//! `route` entries, each peer's call numbers strictly increase, and a
//! `(client troupe, thread)`'s `call_seq` never repeats over the node's
//! life ([`CallSeqs`]).

use std::collections::BTreeMap;

use crate::addr::{Troupe, TroupeId};
use crate::binding::reserved_procs::{FETCH_RETURN, GET_STATE};
use crate::census;
use crate::collate::{CollateError, Collation, CollationPolicy, Decision, PartsDecision};
use crate::conn::Conns;
use crate::message::{encode, wrap_reply_vote, CallKey, CallMessage, ReturnView};
use crate::netio::NetIo;
use crate::node::{CallHandle, NodeConfig};
use crate::numbers::{CallNumbers, StateTransfer};
use crate::service::CallError;
use crate::thread::ThreadId;
use obs::SpanId;
use pairedmsg::{Config, MsgType};
use simnet::{Payload, SockAddr, Syscall, Time};
use wire::{from_bytes, IdSet, VecMap};

/// Why a call was made, which is where its result must go.
#[derive(Debug)]
pub(crate) enum CallPurpose {
    /// Initiated by the application; completion goes to `AppEvent`.
    App,
    /// A nested call made by the service handling `key`, under the span
    /// `parent`; completion resumes the service (§3.4). A `get_state`
    /// names the local module its reply is installed in first, and
    /// whether the module's recovery token went with it (§6.4.1).
    Nested {
        key: CallKey,
        parent: SpanId,
        install: Option<(u16, bool)>,
    },
    /// An internal `lookup_troupe_by_id` to the binding agent (§4.3.2).
    DirLookup { troupe: TroupeId },
    /// An internal `report_suspect` to the binding agent (§3.5.1, §6.4):
    /// fire-and-forget; the result is discarded.
    SuspectReport,
    /// A `fetch_return` for call `handle`, a part of whose return never
    /// came: its owner died first.
    Fetch { handle: u64 },
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

/// The members a call named to cut its return among
/// (`CallMessage::members`), and what fetching the whole return takes.
struct Layout {
    /// The members named, in the order of their parts; then those whose
    /// parts are in, in the order they came, whom a fetch asks in turn.
    /// The blast's address list, whose buffer holds them all.
    addrs: Vec<SockAddr>,
    /// How many members were named.
    owners: usize,
    /// The call as `fetch_return` names it, and the troupe and module it
    /// went to.
    key: CallKey,
    troupe: TroupeId,
    module: u16,
    /// How many of the members whose parts are in have been asked.
    asked: usize,
    /// A fetch is out.
    fetching: bool,
}

/// A `fetch_return` to make: ask `from`, a member of `troupe` that sent
/// call `handle` its part, for the return of `key` at `module`.
#[derive(Debug)]
pub(crate) struct Fetch {
    pub(crate) handle: u64,
    pub(crate) from: SockAddr,
    pub(crate) key: CallKey,
    pub(crate) troupe: TroupeId,
    pub(crate) module: u16,
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
    /// A part's owner is dead: the whole return must be fetched.
    Fetch(Fetch),
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

/// A return message, read whole in place, as the result of the call.
fn result(bytes: &[u8]) -> Result<Vec<u8>, CallError> {
    match from_bytes(bytes) {
        Ok(ReturnView::Normal(data)) => Ok(data.to_vec()),
        Ok(ReturnView::Error(e)) => Err(CallError::Remote(e.to_owned())),
        Ok(ReturnView::WrongTroupe(hint)) => Err(CallError::StaleBinding(Some(hint))),
        Ok(ReturnView::NoSuchProcedure) => Err(CallError::NoSuchProcedure),
        Ok(ReturnView::Part(..)) | Err(_) => Err(CallError::Garbled),
    }
}

#[derive(Default)]
pub(crate) struct ClientCalls {
    /// `outstanding` and `route` are walked when a peer dies, so ordered:
    /// calls then fail over in key order, not in a hasher's.
    outstanding: VecMap<u64, Outstanding>,
    /// `(peer, call number)` of each awaited return to `(handle, member)`.
    route: BTreeMap<(SockAddr, u32), (u64, usize)>,
    /// The layouts of the outstanding calls that named one, by handle:
    /// a call that names none carries nothing for it.
    layouts: BTreeMap<u64, Layout>,
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
        let mut msg = CallMessage {
            thread: call.thread,
            // A fetch opens no assembly, so it takes no number in its
            // thread's sequence.
            call_seq: match proc {
                FETCH_RETURN => 0,
                _ => self.seqs.next(call.client_troupe, call.thread),
            },
            client_troupe: call.client_troupe,
            server_troupe: troupe.id,
            module,
            proc,
            args: call.args,
            members: &[][..],
        };
        let key = msg.key();
        // Externalize once. The call arms no timer of its own: the node's
        // one protocol timer covers it (`Conns::flush`).
        io.charge(Syscall::Compute);

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
            CallPurpose::Fetch { .. } => io.span(SpanId::NONE, format_args!("fetch m{module}")),
        }
        .raw();
        let now = io.now();

        // The data plane is read off the call (§4.3.3): two or more
        // segments to two or more live members are sent once, by
        // multicast; a single segment goes out per member unless the
        // configuration multicasts those too.
        let small = config.multicast_small_calls;
        let shareable = Conns::shareable(msg.encoded_len(), small);
        let transfer = proc == GET_STATE;
        let unanimous = matches!(call.collation, CollationPolicy::Unanimous);
        let mut collation = Collation::new(call.collation, troupe.members.len());
        // Room for the members whose parts come in behind those named.
        let mut blast = Vec::with_capacity(if shareable {
            2 * troupe.members.len()
        } else {
            0
        });
        for (i, member) in troupe.members.iter().enumerate() {
            if !admit(member.addr, now) {
                collation.mark_dead(i);
            } else if shareable {
                blast.push(member.addr);
            }
        }
        // A unanimous blast of two or more segments names its members,
        // behind the arguments, unless that would make it too long to
        // send: they return its result in parts.
        let named = unanimous
            && !transfer
            && blast.len() > 1
            && Config::DEFAULT.segments_of(msg.encoded_len()) > 1;
        if named {
            msg.members = &blast[..];
            if !Conns::shareable(msg.encoded_len(), small) {
                msg.members = &[];
            }
        }
        let named = !msg.members.is_empty();
        // Encode the call message once, as its datagrams; every member's
        // sender (and every retransmission) shares this buffer.
        let mut bytes = encode(&msg);
        // A blast must reach every member under the same number: the
        // largest any of them is due.
        let shared = (blast.len() > 1).then(|| {
            let cn = blast.iter().map(|&a| self.numbers.due(a)).max();
            let cn = cn.expect("addresses members");
            conns.blast(io, MsgType::Call, cn, span, &mut bytes, &blast);
            cn
        });
        if named {
            let layout = Layout {
                owners: blast.len(),
                addrs: blast,
                key,
                troupe: troupe.id,
                module,
                asked: 0,
                fetching: false,
            };
            self.layouts.insert(handle, layout);
        }

        let call = Outstanding {
            collation,
            purpose: Some(purpose),
            unresolved: 0,
            begun: now,
            transfer,
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
        let result = call.purpose.as_ref().and_then(|_| {
            let decision = match self.layouts.get(&handle) {
                Some(l) => call.collation.decide_parts(l.owners),
                None => PartsDecision::Decided(call.collation.decide()),
            };
            match decision {
                PartsDecision::Decided(Decision::Wait) => None,
                // The one copy of the results: out of the datagram they
                // arrived in, or out of the parts, into the caller's vector.
                PartsDecision::Decided(Decision::Ready(bytes)) => Some(result(&bytes)),
                PartsDecision::Joined(Ok(results)) => Some(Ok(results)),
                PartsDecision::Joined(Err(joined)) => Some(result(&joined)),
                PartsDecision::Decided(Decision::Fail(e)) => Some(Err(e.into())),
                PartsDecision::Garbled => Some(Err(CallError::Garbled)),
            }
        });
        self.settle(handle, result)
    }

    /// Moves call `handle` on as far as it can go now: finishes it if its
    /// collation has decided; else asks for its whole return to be
    /// fetched if a part's owner is dead and a member whose part is in is
    /// left to ask; else, if nothing but a fetch could finish it and no
    /// member is left to ask, fails it as though every member had died.
    pub(crate) fn advance(&mut self, handle: u64) -> Option<Returned> {
        if let Some(finished) = self.decide(handle) {
            return Some(Returned::Finished(finished));
        }
        let call = self.outstanding.get(&handle)?;
        call.purpose.as_ref()?;
        let l = self.layouts.get_mut(&handle).filter(|l| !l.fetching)?;
        if !call.collation.wants_whole(l.owners) {
            return None;
        }
        if let Some(&from) = l.addrs.get(l.owners + l.asked) {
            (l.asked, l.fetching) = (l.asked + 1, true);
            let (key, troupe, module) = (l.key, l.troupe, l.module);
            return Some(Returned::Fetch(Fetch {
                handle,
                from,
                key,
                troupe,
                module,
            }));
        }
        let stranded = !call.collation.is_pending();
        let all_dead = CallError::from(CollateError::AllDead);
        stranded
            .then(|| self.fail(handle, all_dead))?
            .map(Returned::Finished)
    }

    /// The `fetch_return` for call `handle` is over: a return fetched is
    /// collated in a dead owner's place, and the call moves on.
    pub(crate) fn fetched(
        &mut self,
        handle: u64,
        result: Result<Vec<u8>, CallError>,
    ) -> Option<Returned> {
        let call = self.outstanding.get_mut(&handle)?;
        if let Some(l) = self.layouts.get_mut(&handle) {
            l.fetching = false;
            if let Ok(whole) = result {
                call.collation.add_fetched(Payload::from(whole));
            }
        }
        self.advance(handle)
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
            self.layouts.remove(&handle);
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
        let fatal = match from_bytes(&data) {
            Ok(ReturnView::WrongTroupe(hint)) => Some(CallError::StaleBinding(Some(hint))),
            Ok(ReturnView::NoSuchProcedure) => Some(CallError::NoSuchProcedure),
            // A survivor's state comes with its call numbers: the joiner
            // raises its own to them, and collates the state alone.
            Ok(ReturnView::Normal(body)) if transfer => match from_bytes::<StateTransfer>(body) {
                Ok(t) => {
                    self.numbers.raise(io.me(), &t.call_numbers);
                    state = Some(Payload::from(wrap_reply_vote(t.state)));
                    None
                }
                Err(_) => Some(CallError::Garbled),
            },
            // A part answers only a call that named its members, and only
            // from one of them.
            Ok(ReturnView::Part(..)) => match self.layouts.get_mut(&handle) {
                Some(l) if l.addrs[..l.owners].contains(&from) => {
                    l.addrs.push(from);
                    None
                }
                _ => {
                    io.metrics().add("adv.rejected", 1);
                    Some(CallError::Garbled)
                }
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
        let advanced = self.advance(handle);
        // Parts cut other than their layout cuts are found once all are in.
        if let Some(Returned::Finished(Finished {
            result: Err(CallError::Garbled),
            ..
        })) = &advanced
        {
            io.metrics().add("adv.rejected", 1);
        }
        if violation {
            return Some(Returned::Violation(CallHandle(handle)));
        }
        advanced
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
pub(crate) mod tests;
