//! What a [`Node`] does with a call message (§4.3.2): it asks the
//! `directory` who is calling, adds the message to its `assembly`, runs
//! the exported service when the assembly is ready — sending the thread
//! onward through `calls` if the service makes a nested call — and
//! returns the reply to every member of the calling troupe: whole, or the
//! part of it this member's position names where the call named the
//! members it went to. A `fetch_return` is answered from the returns
//! kept, and runs nothing.

use std::cell::Cell;
use std::rc::Rc;

use super::{AppEvent, Node};
use crate::addr::{ModuleAddr, Troupe, TroupeId};
use crate::assembly::{Invocation, Members, Outsider, PendState};
use crate::binding;
use crate::binding::binding_procs::LOOKUP_TROUPE_BY_ID;
use crate::binding::reserved_procs::{self, FETCH_RETURN, GET_STATE};
use crate::calls::{Call, CallPurpose};
use crate::collate::{Collation, CollationPolicy};
use crate::message::{encode, Arrival, CallKey, CallMessage, ReturnMessage};
use crate::netio::{make_tag, NetIo, TAG_PENDING, TAG_WAKE};
use crate::service::{
    self, CallError, NodeEffect, OutCall, ServiceCtx, StateSince, Step, TroupeTarget,
};
use pairedmsg::Framed;
use simnet::{Payload, SockAddr, Syscall};

thread_local! {
    /// The members of the last call-back's target troupe, handed back for
    /// the next call-back on this thread to refill: once one has run, a
    /// call-back builds its troupe without allocating. (A buffer, not
    /// state: nothing reads what it held.)
    static CALLERS: Cell<Vec<ModuleAddr>> = const { Cell::new(Vec::new()) };
}

impl Node {
    fn reply(&mut self, io: &mut dyn NetIo, at: &Arrival, mut reply: Framed) {
        (self.conns).send_return(io, &[at.from], at.pm_cn, at.span, &mut reply);
    }

    /// Handles a call message arriving from a client troupe member.
    pub(super) fn on_call_message(&mut self, io: &mut dyn NetIo, at: Arrival, data: Payload) {
        io.charge(Syscall::Compute); // Internalize.
        let Ok(msg) = CallMessage::decode(&data) else {
            // Garbled call; the client will time out and retry.
            io.metrics().add("adv.rejected", 1);
            return;
        };
        self.assemblies.purge_done(io.now());

        // Incarnation check (§6.2): a call bearing the wrong server
        // troupe ID must be rejected so stale client caches are detected.
        let mine = self.my_troupe.id;
        if msg.server_troupe != mine && msg.server_troupe != TroupeId::UNREGISTERED {
            io.metrics().add("adv.rejected", 1);
            let reply = encode(&ReturnMessage::WrongTroupe(mine));
            return self.reply(io, &at, reply);
        }

        if msg.proc == FETCH_RETURN {
            return self.fetch_return(io, &at, &msg.args);
        }

        // A slow member of an already-answered call: its return message
        // is ready and waiting (§4.3.4).
        let cut = msg.cut_of(self.me);
        if let Some((reply, span)) = self.assemblies.buffered(&msg.key(), cut) {
            return self.reply(io, &Arrival { span, ..at }, reply);
        }

        if !self.services.contains_key(&msg.module) && msg.proc < reserved_procs::RESERVED_BASE {
            let reply = encode(&ReturnMessage::NoSuchProcedure);
            return self.reply(io, &at, reply);
        }

        // Determine the client troupe's membership (§4.3.2): singleton
        // for unregistered callers — the source of the call message is
        // the single "member" the return must reach — else the directory
        // or the binding agent.
        let members = if msg.client_troupe == TroupeId::UNREGISTERED {
            Members::Solo(at.from)
        } else {
            match self.directory.members(msg.client_troupe) {
                Some(m) => Members::Troupe(m.clone()),
                None => return self.park_and_lookup(io, at, msg),
            }
        };
        self.process_call(io, at, msg, members);
    }

    /// Answers `fetch_return(key)`: the return of the call `key` this
    /// member kept when it sent a part of it, carried as the normal
    /// result; an error if it is no longer kept. Nothing is executed.
    fn fetch_return(&mut self, io: &mut dyn NetIo, at: &Arrival, args: &[u8]) {
        io.charge(Syscall::Compute); // Externalize the kept return.
        let kept = wire::from_bytes::<CallKey>(args).ok();
        let kept = kept.and_then(|key| self.assemblies.fetch(&key));
        let reply = match kept {
            Some(whole) => ReturnMessage::Normal(wire::to_bytes(whole)),
            None => ReturnMessage::Error("fetch_return: no return kept for the call".into()),
        };
        let reply = encode(&reply);
        self.reply(io, at, reply);
    }

    /// Adds a call message to its assembly — opening it if this is the
    /// call's first — and executes the procedure if that completes it.
    fn process_call(
        &mut self,
        io: &mut dyn NetIo,
        at: Arrival,
        msg: CallMessage<Payload, Payload>,
        members: Members,
    ) {
        let (key, module, proc) = (msg.key(), msg.module, msg.proc);
        let cut = msg.cut_of(self.me);
        let (now, wait) = (io.now(), self.config.assembly_timeout);
        let (services, directory) = (&self.services, &self.directory);
        let fresh = |members: &[SockAddr]| {
            let service = (proc < reserved_procs::RESERVED_BASE).then(|| services.get(&module));
            let policy = service.flatten().map(|s| s.arg_collation(proc));
            let policy = policy.unwrap_or(CollationPolicy::Unanimous);
            let mut args = Collation::new(policy, members.len());
            // Client members already under a dead-peer marker will never
            // send their copy of this call; excuse them now so a degraded
            // client troupe does not pay the assembly timeout on every
            // call (§4.3.2). The sender itself is plainly alive.
            for (i, m) in members.iter().enumerate() {
                if *m != at.from && directory.is_dead(*m, now) {
                    args.mark_dead(i);
                }
            }
            args
        };
        match self.assemblies.join(&at, msg, cut, members, fresh) {
            Ok(None) => {}
            Ok(Some(serial)) => {
                self.conns
                    .arm(io, now + wait, make_tag(TAG_PENDING, serial));
            }
            Err(Outsider) => {
                // A caller we do not believe is in the client troupe: it
                // opens nothing, and an assembly already open keeps its
                // definite membership, so re-fetching the directory here
                // could loop forever. Reject the straggler instead: either
                // its own view is stale (it will rebind) or ours is (the
                // next call, with no open assembly, triggers a fresh
                // lookup through the binding agent).
                let why = "caller is not a member of the calling troupe";
                self.directory.forget(key.client_troupe);
                let reply = encode(&ReturnMessage::Error(why.into()));
                return self.reply(io, &at, reply);
            }
        }
        self.try_execute(io, key);
    }

    /// Executes the procedure once the argument collation is ready
    /// (exactly-once execution, §4.1).
    pub(super) fn try_execute(&mut self, io: &mut dyn NetIo, key: CallKey) {
        match self.assemblies.execute(io, key) {
            None => {}
            Some(Ok((invocation, args))) => {
                let mut ctx = self.service_ctx(io, &key, &invocation);
                let (services, me) = (&mut self.services, &mut self.my_troupe);
                let numbers = &self.calls.numbers;
                let Invocation { module, proc, .. } = invocation;
                let step = service::dispatch(services, me, numbers, &mut ctx, module, proc, &args);
                self.apply_effects(io, ctx.effects);
                self.apply_step(io, key, step);
            }
            Some(Err(e)) => {
                let why = format!("argument collation failed: {e}");
                self.finish_pending(io, key, ReturnMessage::Error(why));
            }
        }
    }

    fn service_ctx(&self, io: &dyn NetIo, key: &CallKey, invocation: &Invocation) -> ServiceCtx {
        ServiceCtx {
            thread: key.thread,
            caller: key.client_troupe,
            invocation: invocation.id,
            now: io.now(),
            me: self.me,
            span: invocation.span,
            metrics: io.metrics(),
            effects: Vec::new(),
        }
    }

    /// Applies a service's step: a reply closes the assembly, a nested
    /// call sends the thread onward.
    fn apply_step(&mut self, io: &mut dyn NetIo, key: CallKey, step: Step) {
        let reply = match step {
            Step::Reply(data) => ReturnMessage::Normal(data),
            Step::Error(e) => ReturnMessage::Error(e),
            Step::Suspend => return self.assemblies.set_state(&key, PendState::Suspended),
            Step::Call(out) => match self.nested_call(io, key, out) {
                Ok(()) => return,
                Err(e) => ReturnMessage::Error(e),
            },
        };
        self.finish_pending(io, key, reply);
    }

    /// Makes the nested call `out` on behalf of the invocation `key`.
    fn nested_call(
        &mut self,
        io: &mut dyn NetIo,
        key: CallKey,
        mut out: OutCall,
    ) -> Result<(), String> {
        // A `get_state` is this node's fetch of its troupe's state for
        // its own module of that number (§6.4.1). The node stamps in the
        // module's recovery token, if it keeps one (how much state it
        // already replayed from its log), and installs the reply there
        // by the same test when it comes back.
        let mut install = None;
        if out.proc == GET_STATE && out.args.is_empty() {
            let service = self.services.get(&out.module);
            if let Some(tok) = service.and_then(|s| s.recovery_token()) {
                out.args = tok.into();
            }
            install = Some((out.module, !out.args.is_empty()));
        }
        let callback = matches!(out.target, TroupeTarget::Caller);
        let mut thread = key.thread;
        let troupe = match out.target {
            TroupeTarget::Troupe(t) => t,
            TroupeTarget::Caller => self.caller_troupe(&key, out.module)?,
            TroupeTarget::Peers => {
                let me = self.me;
                let peers = self.my_troupe.members.iter().filter(|m| m.addr != me);
                let peers: Vec<ModuleAddr> = peers.copied().collect();
                out.module = peers.first().map_or(out.module, |m| m.module);
                // On a thread of its own: two members asking one peer on
                // the invocation's thread would send it one call key.
                thread = self.threads.fresh();
                // Unchecked: a peer may hold a newer incarnation.
                Troupe::new(TroupeId::UNREGISTERED, peers)
            }
        };
        self.assemblies.set_state(&key, PendState::AwaitingNested);
        // Thread-ID propagation (§3.4.1): the nested call runs on behalf
        // of the incoming thread. A solo nested call presents as
        // unregistered, so the server does not wait for the other
        // members' (never-coming) copies.
        let procedure = (out.module, out.proc);
        let mut call = Call::solo(thread, &troupe, procedure, &out.args, out.collation);
        if !out.solo {
            call.client_troupe = self.my_troupe.id;
        }
        let parent = self.assemblies.invoke_span(&key);
        let purpose = CallPurpose::Nested {
            key,
            parent,
            install,
        };
        self.begin(io, call, purpose);
        if callback {
            CALLERS.set(troupe.members);
        }
        Ok(())
    }

    /// The troupe that made the call `key`, as members of `module`: the
    /// target of a call-back (§5.3), built in the member buffer the last
    /// call-back handed back.
    fn caller_troupe(&self, key: &CallKey, module: u16) -> Result<Troupe, String> {
        let members: &[SockAddr] = if key.client_troupe == TroupeId::UNREGISTERED {
            self.assemblies.members(key)
        } else {
            let known = self.directory.members(key.client_troupe);
            known.ok_or_else(|| "caller troupe unknown".to_string())?
        };
        let mut buf = CALLERS.take();
        buf.clear();
        buf.extend(members.iter().map(|&a| ModuleAddr::new(a, module)));
        Ok(Troupe::new(key.client_troupe, buf))
    }

    /// Applies effects queued by a service handler.
    fn apply_effects(&mut self, io: &mut dyn NetIo, effects: Vec<NodeEffect>) {
        for e in effects {
            match e {
                NodeEffect::PreloadDirectory { id, members } => {
                    self.directory.install(id, members.into());
                }
                NodeEffect::InvalidateDirectory { id } => self.directory.forget(id),
                NodeEffect::StepFor { invocation, step } => {
                    if let Some((key, _)) = self.assemblies.suspended(invocation) {
                        self.apply_step(io, key, step);
                    }
                }
                NodeEffect::NotifyAgent { tag } => {
                    self.events.push_back(AppEvent::Notify { tag });
                }
                NodeEffect::Wake { invocation, after } => {
                    let (deadline, tag) = (io.now() + after, make_tag(TAG_WAKE, invocation));
                    self.conns.arm(io, deadline, tag);
                }
            }
        }
    }

    /// Wakes the suspended `invocation` ([`NodeEffect::Wake`]); one that
    /// moved on meanwhile is left alone.
    pub(super) fn wake_service(&mut self, io: &mut dyn NetIo, invocation: u64) {
        let Some((key, invocation)) = self.assemblies.suspended(invocation) else {
            return;
        };
        let mut ctx = self.service_ctx(io, &key, &invocation);
        let step = match self.services.get_mut(&invocation.module) {
            Some(s) => s.wake(&mut ctx),
            None => Step::Error("module vanished".into()),
        };
        self.apply_effects(io, ctx.effects);
        self.apply_step(io, key, step);
    }

    /// Installs the reply to this node's own `get_state` in `module`: as
    /// a [`StateSince`] if the fetch carried the module's recovery
    /// `token`, else as the whole state it is. A reply that does not
    /// decode fails the fetch.
    pub(super) fn install_state(
        &mut self,
        io: &dyn NetIo,
        (module, token): (u16, bool),
        reply: &[u8],
    ) -> Result<(), CallError> {
        let Some(s) = self.services.get_mut(&module) else {
            return Ok(());
        };
        if !token {
            s.set_state(reply);
            return Ok(());
        }
        match wire::from_bytes::<StateSince<&[u8]>>(reply) {
            Ok(StateSince::Delta(delta)) => {
                io.metrics().add("spare.delta_fetches", 1);
                s.apply_delta(delta);
            }
            Ok(StateSince::Full(state)) => {
                io.metrics().add("spare.full_fetches", 1);
                s.set_state(state);
            }
            Err(_) => return Err(CallError::Garbled),
        }
        Ok(())
    }

    /// Resumes a service blocked on a nested call.
    pub(super) fn resume_service(
        &mut self,
        io: &mut dyn NetIo,
        key: CallKey,
        result: Result<Vec<u8>, CallError>,
    ) {
        let Some(invocation) = self.assemblies.resume(&key) else {
            return;
        };
        let mut ctx = self.service_ctx(io, &key, &invocation);
        let step = match self.services.get_mut(&invocation.module) {
            Some(s) => s.resume(&mut ctx, result),
            None => Step::Error("module vanished".into()),
        };
        self.apply_effects(io, ctx.effects);
        self.apply_step(io, key, step);
    }

    /// Sends the reply — or each member's part of it — to every client
    /// member heard from, once for all of them, by multicast, where they
    /// share a call number (§4.3.3), and buffers it for the rest (§4.3.4).
    fn finish_pending(&mut self, io: &mut dyn NetIo, key: CallKey, reply: ReturnMessage) {
        if !self.assemblies.is_open(&key) {
            return;
        }
        io.charge(Syscall::Compute); // Externalize reply.
        let (now, conns) = (io.now(), &mut self.conns);
        let send = |tos: &[SockAddr], cn, span, reply: &mut Framed| {
            conns.send_return(io, tos, cn, span, reply);
        };
        self.assemblies.close(&key, reply, now, send);
    }

    /// Makes an administrative call to the binding agent troupe. Solo:
    /// each member asks independently as it needs to, so presenting
    /// `my_troupe` here would make the binding agent wait out the
    /// assembly timeout for the other members' (never-coming) copies.
    pub(super) fn ask_binder(
        &mut self,
        io: &mut dyn NetIo,
        binder: &Troupe,
        proc: u16,
        args: Vec<u8>,
        purpose: CallPurpose,
    ) {
        let (thread, majority) = (self.threads.fresh(), CollationPolicy::Majority);
        let call = Call::solo(
            thread,
            binder,
            (binding::BINDING_MODULE, proc),
            &args,
            majority,
        );
        self.begin(io, call, purpose);
    }

    fn park_and_lookup(
        &mut self,
        io: &mut dyn NetIo,
        at: Arrival,
        msg: CallMessage<Payload, Payload>,
    ) {
        let troupe = msg.client_troupe;
        if !self.directory.park(at, msg) {
            return; // Already asked: the answer releases this message too.
        }
        let Some(binder) = self.directory.binder.clone() else {
            return self.fail_parked(io, troupe, "client troupe unknown and no binding agent");
        };
        let (args, purpose) = (wire::to_bytes(&troupe), CallPurpose::DirLookup { troupe });
        self.ask_binder(io, &binder, LOOKUP_TROUPE_BY_ID, args, purpose);
    }

    pub(super) fn finish_lookup(
        &mut self,
        io: &mut dyn NetIo,
        troupe: TroupeId,
        result: Result<Vec<u8>, CallError>,
    ) {
        let reply = result.ok();
        let found = reply.and_then(|bytes| wire::from_bytes::<Option<Troupe>>(&bytes).ok());
        let Some(found) = found.flatten() else {
            return self.fail_parked(io, troupe, "client troupe not registered");
        };
        let members: Rc<[SockAddr]> = found.members.iter().map(|m| m.addr).collect();
        for pk in self.directory.answer(troupe, Some(&members)) {
            // Judged against the answer itself: a parked straggler's
            // rejection forgets the directory entry.
            self.process_call(io, pk.at, pk.msg, Members::Troupe(members.clone()));
        }
    }

    fn fail_parked(&mut self, io: &mut dyn NetIo, troupe: TroupeId, why: &str) {
        let reply = encode(&ReturnMessage::Error(why.to_string()));
        for pk in self.directory.answer(troupe, None) {
            self.reply(io, &pk.at, reply.clone());
        }
    }
}
