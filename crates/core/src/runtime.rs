//! The simulator driver: binding a [`Node`] to a `simnet` process.
//!
//! [`CircusProcess`] plays the role of one 4.2BSD process linked with the
//! Circus run-time system (§4.3): its datagram and timer handlers drive
//! the protocol machinery, and an optional [`Agent`] supplies the
//! application half (a client program, a reconfiguration manager, a test
//! harness...). Server-only processes need no agent: exported services
//! are dispatched by the node itself.

use crate::calls::Call;
use crate::node::{AppEvent, CallHandle, Node, NodeConfig, TimerKey};
use crate::service::{CallError, Service};
use crate::{CollationPolicy, ThreadId, Troupe, TroupeId};
use simnet::{Ctx, Duration, Process, SockAddr, TimerId};
use std::fmt;

/// What application code sees: the node plus live I/O.
pub struct NodeCtx<'a, 'b, 'w> {
    /// The protocol runtime (directory, troupe id, services...).
    pub node: &'a mut Node,
    io: &'a mut Ctx<'b>,
    _w: std::marker::PhantomData<&'w ()>,
}

impl<'a, 'b, 'w> NodeCtx<'a, 'b, 'w> {
    /// Current simulated time.
    pub fn now(&self) -> simnet::Time {
        self.io.now()
    }

    /// This process's address.
    pub fn me(&self) -> SockAddr {
        self.io.me()
    }

    /// Creates a fresh distributed thread based here (§3.4.1).
    pub fn fresh_thread(&mut self) -> ThreadId {
        self.node.fresh_thread()
    }

    /// Begins a replicated procedure call; completion arrives at
    /// [`Agent::on_call_done`].
    pub fn call(
        &mut self,
        thread: ThreadId,
        troupe: &Troupe,
        module: u16,
        proc: u16,
        args: Vec<u8>,
        collation: CollationPolicy,
    ) -> CallHandle {
        let mut call = Call::solo(thread, troupe, (module, proc), &args, collation);
        call.client_troupe = self.node.troupe_id();
        self.node.begin_call(self.io, call)
    }

    /// Like [`NodeCtx::call`], but presents the caller as a plain
    /// unregistered client even if this process is a registered troupe
    /// member. A registered member's *solo* administrative call (e.g. the
    /// join agent's state re-fetch, §6.4.1) must not be mistaken for one
    /// message of a many-to-one replicated call — the server would wait
    /// out the assembly timeout for the other members' copies (§4.3.2).
    pub fn call_solo(
        &mut self,
        thread: ThreadId,
        troupe: &Troupe,
        module: u16,
        proc: u16,
        args: Vec<u8>,
        collation: CollationPolicy,
    ) -> CallHandle {
        let call = Call::solo(thread, troupe, (module, proc), &args, collation);
        self.node.begin_call(self.io, call)
    }

    /// Arms an application timer; it arrives at [`Agent::on_app_timer`]
    /// carrying `key`.
    pub fn set_app_timer(&mut self, delay: Duration, key: TimerKey) {
        self.node.set_app_timer(self.io, delay, key);
    }

    /// Direct access to the simulator context (spawning processes during
    /// reconfiguration, fault injection in tests...).
    pub fn sim(&mut self) -> &mut Ctx<'b> {
        self.io
    }

    /// The world's metrics registry (counters, gauges, histograms, and
    /// causal spans) — for agents that record domain metrics or inspect
    /// span trees.
    pub fn metrics(&self) -> obs::Registry {
        self.io.metrics()
    }
}

/// Application logic hosted by a [`CircusProcess`].
///
/// The `Any` supertrait allows state inspection from tests via
/// [`CircusProcess::agent_as`].
pub trait Agent: std::any::Any {
    /// Runs when the process starts.
    fn on_start(&mut self, _node: &mut NodeCtx<'_, '_, '_>) {}

    /// Runs when external code pokes the process.
    fn on_poke(&mut self, _node: &mut NodeCtx<'_, '_, '_>, _tag: u64) {}

    /// A replicated call begun with [`NodeCtx::call`] completed.
    fn on_call_done(
        &mut self,
        _node: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        _result: Result<Vec<u8>, CallError>,
    ) {
    }

    /// A peer process was declared dead (§4.2.3).
    fn on_member_dead(&mut self, _node: &mut NodeCtx<'_, '_, '_>, _addr: SockAddr) {}

    /// The watchdog detected a determinism violation on a first-come
    /// call this agent made (§4.3.4). Abort whatever depended on it.
    fn on_determinism_violation(&mut self, _node: &mut NodeCtx<'_, '_, '_>, _handle: CallHandle) {}

    /// An application timer armed with [`NodeCtx::set_app_timer`] fired.
    fn on_app_timer(&mut self, _node: &mut NodeCtx<'_, '_, '_>, _key: TimerKey) {}

    /// A service on this node queued
    /// [`NodeEffect::NotifyAgent`](crate::service::NodeEffect::NotifyAgent):
    /// event-driven hand-off from the server half to the application half.
    fn on_notify(&mut self, _node: &mut NodeCtx<'_, '_, '_>, _tag: u64) {}
}

/// Misconfiguration caught by [`NodeBuilder::build`] before the process
/// ever runs — instead of a panic or a silent first-call failure.
#[derive(Debug, PartialEq, Eq)]
pub enum BuildError {
    /// Two services were exported under the same module number; the
    /// second would silently shadow the first.
    DuplicateModule(u16),
    /// The troupe incarnation was set twice with different values; the
    /// member cannot belong to two incarnations (§6.2).
    TroupeIdConflict(TroupeId, TroupeId),
    /// The binding agent troupe was configured with no members, so no
    /// directory lookup can ever succeed — the binder is effectively
    /// missing.
    MissingBinder,
    /// The same client troupe was preloaded into the directory twice;
    /// one membership would silently shadow the other.
    DuplicateDirectory(TroupeId),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateModule(m) => {
                write!(f, "module {m} exported twice")
            }
            BuildError::TroupeIdConflict(a, b) => {
                write!(f, "conflicting troupe incarnations {a:?} and {b:?}")
            }
            BuildError::MissingBinder => {
                write!(f, "binder troupe has no members; lookups can never succeed")
            }
            BuildError::DuplicateDirectory(t) => {
                write!(f, "directory entry for troupe {t:?} preloaded twice")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Validating builder for a [`CircusProcess`].
///
/// Collects the process's configuration — agent, exported services,
/// troupe incarnation, binding agent, directory preloads — and checks it
/// for contradictions in [`NodeBuilder::build`], returning a typed
/// [`BuildError`] instead of panicking or misbehaving at the first call.
///
/// ```
/// # use circus::{NodeBuilder, NodeConfig};
/// # use simnet::{HostId, SockAddr};
/// let p = NodeBuilder::new(SockAddr::new(HostId(0), 70), NodeConfig::default())
///     .build()
///     .expect("valid configuration");
/// # let _ = p;
/// ```
pub struct NodeBuilder {
    me: SockAddr,
    config: NodeConfig,
    agent: Option<Box<dyn Agent>>,
    services: Vec<(u16, Box<dyn Service>)>,
    troupe_ids: Vec<TroupeId>,
    binder: Option<Troupe>,
    directory: Vec<(TroupeId, Vec<SockAddr>)>,
}

impl NodeBuilder {
    /// Starts building a process at `me` with the given configuration.
    pub fn new(me: SockAddr, config: NodeConfig) -> NodeBuilder {
        NodeBuilder {
            me,
            config,
            agent: None,
            services: Vec::new(),
            troupe_ids: Vec::new(),
            binder: None,
            directory: Vec::new(),
        }
    }

    /// Attaches application logic.
    pub fn agent(mut self, agent: Box<dyn Agent>) -> NodeBuilder {
        self.agent = Some(agent);
        self
    }

    /// Exports a service as module number `module`.
    pub fn service(mut self, module: u16, service: Box<dyn Service>) -> NodeBuilder {
        self.services.push((module, service));
        self
    }

    /// Sets the member's troupe incarnation (§6.2).
    pub fn troupe_id(mut self, id: TroupeId) -> NodeBuilder {
        self.troupe_ids.push(id);
        self
    }

    /// Configures the binding agent troupe used for directory lookups.
    pub fn binder(mut self, binder: Troupe) -> NodeBuilder {
        self.binder = Some(binder);
        self
    }

    /// Pre-populates the client-troupe directory (§4.3.2).
    pub fn directory(mut self, id: TroupeId, members: Vec<SockAddr>) -> NodeBuilder {
        self.directory.push((id, members));
        self
    }

    /// Validates the configuration and constructs the process.
    pub fn build(self) -> Result<CircusProcess, BuildError> {
        let mut seen_modules = std::collections::BTreeSet::new();
        for (m, _) in &self.services {
            if !seen_modules.insert(*m) {
                return Err(BuildError::DuplicateModule(*m));
            }
        }
        if let Some(&first) = self.troupe_ids.first() {
            if let Some(&other) = self.troupe_ids.iter().find(|&&id| id != first) {
                return Err(BuildError::TroupeIdConflict(first, other));
            }
        }
        if let Some(b) = &self.binder {
            if b.members.is_empty() {
                return Err(BuildError::MissingBinder);
            }
        }
        let mut seen_troupes = std::collections::BTreeSet::new();
        for (t, _) in &self.directory {
            if !seen_troupes.insert(*t) {
                return Err(BuildError::DuplicateDirectory(*t));
            }
        }

        let mut node = Node::new(self.me, self.config);
        for (m, s) in self.services {
            node.export(m, s);
        }
        if let Some(&id) = self.troupe_ids.first() {
            node.set_troupe_id(id);
        }
        if let Some(b) = self.binder {
            node.set_binder(b);
        }
        for (t, members) in self.directory {
            node.preload_directory(t, members);
        }
        Ok(CircusProcess {
            node,
            agent: self.agent,
        })
    }
}

/// A simulated process running the Circus run-time system.
pub struct CircusProcess {
    node: Node,
    agent: Option<Box<dyn Agent>>,
}

impl CircusProcess {
    /// Creates a bare process at `me` with the given configuration (no
    /// agent, no services). Use [`NodeBuilder`] for anything richer.
    pub fn new(me: SockAddr, config: NodeConfig) -> CircusProcess {
        CircusProcess {
            node: Node::new(me, config),
            agent: None,
        }
    }

    /// The protocol runtime.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Mutable access to the protocol runtime.
    pub fn node_mut(&mut self) -> &mut Node {
        &mut self.node
    }

    /// Downcasts the agent to its concrete type (for tests/examples).
    pub fn agent_as<A: Agent>(&self) -> Option<&A> {
        let a = self.agent.as_deref()?;
        let any: &dyn std::any::Any = a;
        any.downcast_ref::<A>()
    }

    /// Mutable agent downcast.
    pub fn agent_as_mut<A: Agent>(&mut self) -> Option<&mut A> {
        let a = self.agent.as_deref_mut()?;
        let any: &mut dyn std::any::Any = a;
        any.downcast_mut::<A>()
    }

    /// Delivers queued node events to the agent, looping until quiet
    /// (agent callbacks may themselves complete further calls), then
    /// charges the timer package for the timers the agent armed.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..10_000 {
            let Some(ev) = self.node.poll_event() else {
                break;
            };
            let Some(agent) = self.agent.as_deref_mut() else {
                continue; // Serverside process: drop app events.
            };
            let mut nc = NodeCtx {
                node: &mut self.node,
                io: ctx,
                _w: std::marker::PhantomData,
            };
            match ev {
                AppEvent::CallDone { handle, result } => {
                    agent.on_call_done(&mut nc, handle, result)
                }
                AppEvent::MemberDead { addr } => agent.on_member_dead(&mut nc, addr),
                AppEvent::DeterminismViolation { handle } => {
                    agent.on_determinism_violation(&mut nc, handle)
                }
                AppEvent::Notify { tag } => agent.on_notify(&mut nc, tag),
            }
        }
        self.node.conns.charge_package(ctx);
    }

    fn with_agent_ctx(
        &mut self,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut dyn Agent, &mut NodeCtx<'_, '_, '_>),
    ) {
        if let Some(agent) = self.agent.as_deref_mut() {
            let mut nc = NodeCtx {
                node: &mut self.node,
                io: ctx,
                _w: std::marker::PhantomData,
            };
            f(agent, &mut nc);
        }
        self.pump(ctx);
    }
}

impl Process for CircusProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Services first: a durable service recovers its state from the
        // local disk before the agent (or any peer) can observe it.
        self.node.start(ctx);
        self.with_agent_ctx(ctx, |agent, nc| agent.on_start(nc));
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: SockAddr, data: simnet::Payload) {
        self.node.on_datagram(ctx, from, data);
        self.pump(ctx);
    }

    fn on_unreachable(&mut self, ctx: &mut Ctx<'_>, dead: SockAddr) {
        self.node.on_unreachable(ctx, dead);
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId, tag: u64) {
        if let Some(key) = self.node.on_timer(ctx, tag) {
            self.with_agent_ctx(ctx, |agent, nc| agent.on_app_timer(nc, key));
        } else {
            self.pump(ctx);
        }
    }

    fn on_poke(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.with_agent_ctx(ctx, |agent, nc| agent.on_poke(nc, tag));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModuleAddr, ServiceCtx, Step};
    use simnet::HostId;

    struct Null;
    impl Service for Null {
        fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, _args: &[u8]) -> Step {
            Step::Reply(Vec::new())
        }
    }

    fn builder() -> NodeBuilder {
        NodeBuilder::new(SockAddr::new(HostId(1), 70), NodeConfig::default())
    }

    fn build_err(b: NodeBuilder) -> BuildError {
        match b.build() {
            Ok(_) => panic!("expected a BuildError"),
            Err(e) => e,
        }
    }

    #[test]
    fn duplicate_module_is_rejected() {
        let err = build_err(
            builder()
                .service(3, Box::new(Null))
                .service(3, Box::new(Null)),
        );
        assert_eq!(err, BuildError::DuplicateModule(3));
    }

    #[test]
    fn conflicting_troupe_ids_are_rejected() {
        let err = build_err(builder().troupe_id(TroupeId(1)).troupe_id(TroupeId(2)));
        assert_eq!(err, BuildError::TroupeIdConflict(TroupeId(1), TroupeId(2)));
        // Setting the same incarnation twice is merely redundant.
        assert!(builder()
            .troupe_id(TroupeId(1))
            .troupe_id(TroupeId(1))
            .build()
            .is_ok());
    }

    #[test]
    fn empty_binder_troupe_is_rejected() {
        let err = build_err(builder().binder(Troupe::new(TroupeId(9), Vec::new())));
        assert_eq!(err, BuildError::MissingBinder);
    }

    #[test]
    fn duplicate_directory_preload_is_rejected() {
        let member = vec![SockAddr::new(HostId(2), 70)];
        let err = build_err(
            builder()
                .directory(TroupeId(4), member.clone())
                .directory(TroupeId(4), member),
        );
        assert_eq!(err, BuildError::DuplicateDirectory(TroupeId(4)));
    }

    #[test]
    fn valid_configuration_builds() {
        let binder = Troupe::new(
            TroupeId(8),
            vec![ModuleAddr::new(SockAddr::new(HostId(5), 70), 0)],
        );
        let p = builder()
            .service(1, Box::new(Null))
            .troupe_id(TroupeId(2))
            .binder(binder)
            .directory(TroupeId(4), vec![SockAddr::new(HostId(2), 70)])
            .build()
            .expect("valid configuration");
        assert!(p.node().service_as::<Null>(1).is_some());
    }
}
