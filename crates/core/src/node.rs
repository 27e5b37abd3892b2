//! The replicated procedure call runtime of one process.
//!
//! A [`Node`] is what §4.3 calls "the run-time system that is linked
//! with each user's programs". The protocol state lives in three engines
//! that never see one another — the one-to-many client algorithm
//! (§4.3.1, `calls`), the many-to-one server algorithm (§4.3.2,
//! `assembly`) and the directory of client troupes and dead peers
//! (`directory`) — because "the general case … factors into the two
//! special cases already described" (§4.3.3). The node itself keeps the
//! connections, the timers, the exported services and the event queue,
//! and dispatches between the engines: this file holds its interface,
//! its entry points and the client half; `serve` holds what it does with
//! a call message.

use std::collections::{BTreeMap, VecDeque};

use crate::addr::{ModuleAddr, Troupe, TroupeId};
use crate::assembly::Assemblies;
use crate::binding::binding_procs::REPORT_SUSPECT;
use crate::binding::reserved_procs;
use crate::calls::{Call, CallPurpose, ClientCalls, Fetch, Finished, Returned};
use crate::collate::CollationPolicy;
use crate::conn::Conns;
use crate::counts::RpcCounts;
use crate::directory::Directory;
use crate::message::Arrival;
use crate::netio::make_tag;
pub use crate::netio::{split_tag, NetIo, TimerKey, TAG_APP, TAG_CONN, TAG_PENDING, TAG_WAKE};
use crate::service::{CallError, Service};
use crate::thread::{ThreadId, ThreadIdGen};
use pairedmsg::{Event as PmEvent, MsgType, Segment};
use simnet::{Duration, Payload, SockAddr, Syscall};

#[path = "serve.rs"]
mod serve;

/// Handle identifying an in-progress replicated call made by this node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CallHandle(pub u64);

/// Completion notifications for the application layer.
#[derive(Debug)]
pub enum AppEvent {
    /// A replicated call made via `NodeCtx::call` finished.
    CallDone {
        /// The handle `call` returned.
        handle: CallHandle,
        /// Collated results or failure.
        result: Result<Vec<u8>, CallError>,
    },
    /// A peer process was declared dead by the paired message layer
    /// (§4.2.3); binding-level software may want to rebind (§6.4).
    MemberDead {
        /// The dead peer.
        addr: SockAddr,
    },
    /// The watchdog (§4.3.4) saw a late reply disagree with the value
    /// the computation already proceeded with: a determinism violation.
    /// The paper's remedy is to abort the enclosing transaction.
    DeterminismViolation {
        /// The first-come call whose response set is inconsistent.
        handle: CallHandle,
    },
    /// A service on this node queued `NodeEffect::NotifyAgent`: wake the
    /// agent half without waiting for a timer.
    Notify {
        /// The tag the service attached.
        tag: u64,
    },
}

/// Node configuration.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// How long a server waits for the remaining call messages of a
    /// many-to-one call before treating silent client members as dead.
    pub assembly_timeout: Duration,
    /// *Also* multicast one-to-many calls that fit one segment. A call of
    /// two or more segments to two or more live members always goes out
    /// by troupe-wide multicast — one `sendmsg` per segment whatever the
    /// degree of replication, unicast retransmission only toward
    /// stragglers (§4.3.3's "m+n messages") — because from two segments
    /// up that is measurably faster; the node reads that off the encoded
    /// call, not off this field. For a single segment it buys no latency
    /// (the stagger of n unicasts hides behind the client's n serial
    /// receives) and members that start in step collide more, so the
    /// default leaves such calls per member, as the paper measured them.
    /// On gives §4.3.3's count on every call: what `BENCH_4.json`'s
    /// `multicast` rows and the chaos multicast sweeps exercise.
    pub multicast_small_calls: bool,
}

impl Default for NodeConfig {
    fn default() -> NodeConfig {
        NodeConfig {
            assembly_timeout: Duration::from_secs(10),
            multicast_small_calls: false,
        }
    }
}

/// The per-process replicated procedure call runtime: connections,
/// timers, exported services, and dispatch between the three engines
/// that own the protocol state.
pub struct Node {
    me: SockAddr,
    config: NodeConfig,
    /// This process's troupe incarnation and its members; `UNREGISTERED`,
    /// with none, until exported through the binding agent.
    my_troupe: Troupe,
    threads: ThreadIdGen,
    conns: Conns,
    services: BTreeMap<u16, Box<dyn Service>>,
    /// The calls this process makes (§4.3.1).
    calls: ClientCalls,
    /// The calls made on this process (§4.3.2).
    assemblies: Assemblies,
    /// Client troupe memberships and dead peers.
    directory: Directory,
    events: VecDeque<AppEvent>,
}

impl Node {
    /// Debug view of client calls still awaiting collation and server
    /// assemblies still open, one line each (and one naming each member
    /// an assembly waits for that called its thread under another
    /// number, and one for the split calls counted so far), then the
    /// [`census`] on one line — for post-mortem inspection from tests.
    ///
    /// [`census`]: Node::census
    pub fn debug_stuck(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.calls.stuck(&mut out);
        self.assemblies.stuck(&mut out);
        let counts = self.census().into_iter().map(|(l, n)| format!("{l}={n}"));
        out.push(format!("census {}", counts.collect::<Vec<_>>().join(" ")));
        out
    }

    /// How much protocol state this node holds: one `(label, count)` per
    /// map, labels from [`crate::census`], whose docs say what bounds
    /// each count. The chaos harness checks every process against those
    /// bounds at quiesce.
    pub fn census(&self) -> Vec<(&'static str, usize)> {
        let mut out = Vec::with_capacity(crate::census::LABELS.len());
        self.calls.census(self.me, &mut out);
        self.assemblies.census(&mut out);
        self.directory.census(&mut out);
        self.conns.census(&mut out);
        out
    }

    /// Test hook: makes `next` the call number of this node's next call
    /// to `peer`, behind its connection's back. Rewinding it breaks the
    /// per-peer monotonicity the `serial-monotonicity` oracle audits, and
    /// numbering calls to made-up peers inflates the `call numbers`
    /// census: `tests/oracles_fire.rs` proves both oracles fire with it.
    #[doc(hidden)]
    pub fn set_call_number(&mut self, peer: SockAddr, next: u32) {
        self.calls.numbers.set(peer, next);
    }

    /// Creates a node for the process at `me`.
    pub fn new(me: SockAddr, config: NodeConfig) -> Node {
        Node {
            me,
            my_troupe: Troupe::new(TroupeId::UNREGISTERED, Vec::new()),
            threads: ThreadIdGen::new(me),
            conns: Conns::new(me),
            services: BTreeMap::new(),
            calls: ClientCalls::default(),
            assemblies: Assemblies::default(),
            directory: Directory::default(),
            events: VecDeque::new(),
            config,
        }
    }

    /// This process's address.
    pub fn me(&self) -> SockAddr {
        self.me
    }

    /// The current troupe incarnation of this member.
    pub fn troupe_id(&self) -> TroupeId {
        self.my_troupe.id
    }

    /// Installs a troupe incarnation whose members are not known here
    /// (normally the binding agent installs both, remotely, through the
    /// reserved `set_troupe_id` procedure, §6.2).
    pub fn set_troupe_id(&mut self, id: TroupeId) {
        self.my_troupe = Troupe::new(id, Vec::new());
    }

    /// Exports a service as module number `module`.
    pub fn export(&mut self, module: u16, service: Box<dyn Service>) {
        self.services.insert(module, service);
    }

    /// Read access to an exported service, downcast to its concrete type
    /// (for tests and examples).
    pub fn service_as<S: Service>(&self, module: u16) -> Option<&S> {
        let s = self.services.get(&module)?;
        let any: &dyn std::any::Any = s.as_ref();
        any.downcast_ref::<S>()
    }

    /// Mutable access to an exported service, downcast to its concrete
    /// type (for tests and examples).
    pub fn service_as_mut<S: Service>(&mut self, module: u16) -> Option<&mut S> {
        let s = self.services.get_mut(&module)?;
        let any: &mut dyn std::any::Any = s.as_mut();
        any.downcast_mut::<S>()
    }

    /// Starts the node: resolves its `rpc.{me}.*` handles in the
    /// process's registry, where its connections and assemblies count from
    /// then on, then runs every exported service's [`Service::on_start`]
    /// hook. Called once by the process wrapper when it starts, *before*
    /// the agent — a durable service recovers its state from the local
    /// disk here.
    pub fn start(&mut self, io: &mut dyn NetIo) {
        let metrics = io.metrics();
        let counts = RpcCounts::register(&metrics, self.me);
        self.assemblies.counts = counts.clone();
        self.conns.counts = counts;
        for svc in self.services.values_mut() {
            svc.on_start(&metrics);
        }
    }

    /// Configures the binding agent troupe used for directory lookups.
    pub fn set_binder(&mut self, binder: Troupe) {
        self.directory.binder = Some(binder);
    }

    /// Pre-populates the client-troupe directory (a third party such as
    /// the configuration manager may register whole troupes, §6.2).
    pub fn preload_directory(&mut self, id: TroupeId, members: Vec<SockAddr>) {
        self.directory.install(id, members.into());
    }

    /// Creates a fresh distributed thread based at this process.
    pub fn fresh_thread(&mut self) -> ThreadId {
        self.threads.fresh()
    }

    /// How many threads this process has based here: their serials are
    /// `1..=` this.
    pub fn threads_minted(&self) -> u32 {
        self.threads.minted()
    }

    /// Drains the next application event.
    pub fn poll_event(&mut self) -> Option<AppEvent> {
        self.events.pop_front()
    }

    /// Number of per-peer connections this node holds. The adversarial
    /// replay suite asserts that re-delivered segments of a completed
    /// call create no new endpoint state.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    // -----------------------------------------------------------------
    // One-to-many calls (§4.3.1): `calls`, and where their results go.
    // -----------------------------------------------------------------

    /// Begins a replicated procedure call on behalf of `call.thread`.
    ///
    /// The same call message is sent to each server troupe member with
    /// the same call sequence number; the returns are collated under
    /// `call.collation`. Completion is reported via
    /// [`AppEvent::CallDone`].
    pub(crate) fn begin_call(&mut self, io: &mut dyn NetIo, call: Call<'_>) -> CallHandle {
        let handle = self.begin(io, call, CallPurpose::App);
        self.flush_all(io);
        CallHandle(handle)
    }

    fn begin(&mut self, io: &mut dyn NetIo, call: Call<'_>, purpose: CallPurpose) -> u64 {
        self.directory.learn(call.troupe);
        // A member under a live dead-peer marker is not addressed at
        // all. Probes are exempt: their entire point is to test the
        // suspect, so `null` always goes to the wire and the binding
        // agent's confirmation is never short-circuited by the prober's
        // own stale marker.
        let probe = call.proc == reserved_procs::NULL;
        let directory = &mut self.directory;
        let admit = |addr, now| probe || directory.admit(addr, now);
        let (conns, config) = (&mut self.conns, &self.config);
        let handle = self.calls.begin(io, conns, config, call, purpose, admit);
        self.decide(io, handle);
        handle
    }

    /// Applies call `handle`'s collation decision, if it has one now, or
    /// fetches its whole return if a part's owner died.
    fn decide(&mut self, io: &mut dyn NetIo, handle: u64) {
        if let Some(returned) = self.calls.advance(handle) {
            self.returned(io, returned);
        }
    }

    /// Acts on what a return, a death or a fetch led to.
    fn returned(&mut self, io: &mut dyn NetIo, returned: Returned) {
        match returned {
            Returned::Finished(call) => self.finish_call(io, call),
            Returned::Violation(handle) => {
                let alarm = AppEvent::DeterminismViolation { handle };
                self.events.push_back(alarm);
            }
            Returned::Fetch(fetch) => self.fetch(io, fetch),
        }
    }

    /// Asks one member whose part is in for the whole return, a part of
    /// which a dead member never delivered. A call of its own, alone, to
    /// that member: not one the directory learns a troupe from.
    fn fetch(&mut self, io: &mut dyn NetIo, fetch: Fetch) {
        let Fetch {
            handle,
            from,
            key,
            troupe,
            module,
        } = fetch;
        let troupe = Troupe::new(troupe, vec![ModuleAddr::new(from, module)]);
        let (args, first) = (wire::to_bytes(&key), CollationPolicy::FirstCome);
        let procedure = (module, reserved_procs::FETCH_RETURN);
        let call = Call::solo(key.thread, &troupe, procedure, &args, first);
        let directory = &mut self.directory;
        let admit = |addr, now| directory.admit(addr, now);
        let (conns, config, purpose) =
            (&mut self.conns, &self.config, CallPurpose::Fetch { handle });
        let handle = self.calls.begin(io, conns, config, call, purpose, admit);
        self.decide(io, handle);
    }

    /// Routes a finished call's result according to its purpose.
    fn finish_call(&mut self, io: &mut dyn NetIo, call: Finished) {
        let (handle, result) = (CallHandle(call.handle), call.result);
        match call.purpose {
            CallPurpose::App => {
                let reg = io.metrics();
                reg.add("rpc.calls_completed", 1);
                reg.observe(
                    "rpc.call_latency_us",
                    io.now().since(call.begun).as_micros(),
                );
                self.events.push_back(AppEvent::CallDone { handle, result });
            }
            CallPurpose::Nested { key, install, .. } => {
                let result = result.and_then(|reply| match install {
                    Some(to) => self.install_state(io, to, &reply).map(|()| reply),
                    None => Ok(reply),
                });
                self.resume_service(io, key, result);
            }
            CallPurpose::DirLookup { troupe } => self.finish_lookup(io, troupe, result),
            CallPurpose::Fetch { handle } => {
                if let Some(returned) = self.calls.fetched(handle, result) {
                    self.returned(io, returned);
                }
            }
            // Fire-and-forget: the binding agent confirms (or clears) the
            // suspicion on its own; a failed report just means the binder
            // was unreachable, and the next death report will retry.
            CallPurpose::SuspectReport => {}
        }
    }

    // -----------------------------------------------------------------
    // Datagram and timer entry points.
    // -----------------------------------------------------------------

    /// Feeds an incoming datagram (call this from `Process::on_datagram`).
    pub fn on_datagram(&mut self, io: &mut dyn NetIo, from: SockAddr, bytes: impl Into<Payload>) {
        let bytes = bytes.into();
        // SIGIO delivery: check readiness and enter the critical region
        // (§4.2.4). `recvmsg` itself is charged by the world.
        io.charge(Syscall::Select);
        io.charge(Syscall::SigBlock);
        let Ok(seg) = Segment::decode(&bytes) else {
            // Garbled segment: treated as lost (§2.2), so no sign of life:
            // it opens no connection and lifts no dead-peer marker.
            // Counted so the adversarial harness can assert hostile
            // traffic was seen and refused rather than silently swallowed.
            io.metrics().add("adv.rejected", 1);
            return;
        };
        let now = io.now();
        self.directory.heard_from(from);
        self.conns.endpoint(from).on_segment(now, seg);
        self.drain_pm_events(io, from);
        self.flush_all(io);
    }

    /// Feeds a port-unreachable notice about `dead` (call this from
    /// `Process::on_unreachable`): a connection to it ends in `PeerDead`
    /// at once, the same death its crash horizon would have declared.
    pub fn on_unreachable(&mut self, io: &mut dyn NetIo, dead: SockAddr) {
        io.charge(Syscall::Select);
        io.charge(Syscall::SigBlock);
        if self.conns.on_unreachable(dead) {
            self.drain_pm_events(io, dead);
            self.flush_all(io);
        }
    }

    /// Handles every event the endpoint for `peer` has queued. Handling
    /// one never queues another on the same endpoint (only datagrams and
    /// timer ticks do), and `PeerDead` — always an endpoint's last event —
    /// removes the connection, which ends the loop.
    fn drain_pm_events(&mut self, io: &mut dyn NetIo, peer: SockAddr) {
        while let Some(ev) = self.conns.poll_event(peer) {
            self.on_pm_event(io, peer, ev);
        }
    }

    /// Feeds a timer expiry (call this from `Process::on_timer`). Returns
    /// the application's key if the timer belonged to the application.
    pub fn on_timer(&mut self, io: &mut dyn NetIo, tag: u64) -> Option<TimerKey> {
        let (kind, low) = split_tag(tag);
        match kind {
            TAG_CONN => {
                if self.conns.on_timer(low) {
                    self.flush_all(io);
                }
                None
            }
            TAG_PENDING => {
                if let Some((key, proceed)) = self.assemblies.time_out(low, io.now()) {
                    if proceed {
                        // World-wide, not per node: rare, and a per-node
                        // handle costs every node its key.
                        io.metrics().add("rpc.assembly_timeouts", 1);
                        self.try_execute(io, key);
                    }
                    self.flush_all(io);
                }
                None
            }
            TAG_APP => Some(TimerKey::new(low)),
            TAG_WAKE => {
                self.wake_service(io, low);
                self.flush_all(io);
                None
            }
            _ => None,
        }
    }

    /// Arms an application-level timer; it comes back from
    /// [`Node::on_timer`] with the given key. The [`TimerKey`] newtype
    /// proves the tag fits the node's 56-bit tag space, so the old
    /// truncation hazard is unrepresentable here.
    pub fn set_app_timer(&mut self, io: &mut dyn NetIo, delay: Duration, key: TimerKey) {
        io.set_timer(delay, make_tag(TAG_APP, key.raw()));
    }

    fn on_pm_event(&mut self, io: &mut dyn NetIo, from: SockAddr, ev: PmEvent) {
        match ev {
            PmEvent::Message {
                msg_type: MsgType::Return,
                call_number,
                data,
                ..
            } => {
                if let Some(returned) = (self.calls).on_return(io, (from, call_number), data) {
                    self.returned(io, returned);
                }
            }
            PmEvent::Message {
                msg_type: MsgType::Call,
                call_number: pm_cn,
                span,
                data,
            } => self.on_call_message(io, Arrival { from, pm_cn, span }, data),
            PmEvent::PeerDead => self.on_peer_dead(io, from),
        }
    }

    /// Handles the death of a peer process (§4.2.3), declared by its
    /// crash horizon or on its host's word: every outstanding call with a
    /// member there proceeds without it, and pending many-to-one calls
    /// stop expecting its call message.
    fn on_peer_dead(&mut self, io: &mut dyn NetIo, addr: SockAddr) {
        for handle in self.calls.peer_dead(addr) {
            self.decide(io, handle);
        }
        for key in self.assemblies.keys() {
            if self.assemblies.excuse(&key, addr) {
                self.try_execute(io, key);
            }
        }
        self.conns.remove(addr);
        // Remember the death for a bounded window: long enough that a
        // genuinely crashed member cannot make later calls re-suffer the
        // retransmission schedule, short enough that a member wrongly
        // suspected across a partition is re-admitted once quiet.
        let ttl = pairedmsg::Config::DEFAULT.crash_horizon().saturating_mul(2);
        self.directory.mark_dead(addr, io.now() + ttl);
        // Report the suspected crash to the binding agent (§3.5.1, §6.4)
        // so repair can start in-system: the agent probes the suspect
        // itself and only a confirmed death leads to eviction. Binding
        // agent members skip the report — they observe each other
        // directly and the healer runs beside them.
        let reporter = (self.directory.binder.clone())
            .filter(|b| !b.members.iter().any(|m| m.addr == self.me));
        if let Some(binder) = reporter {
            let (proc, args) = (REPORT_SUSPECT, wire::to_bytes(&(addr.host.0, addr.port)));
            self.ask_binder(io, &binder, proc, args, CallPurpose::SuspectReport);
        }
        self.events.push_back(AppEvent::MemberDead { addr });
    }

    /// Transmits queued segments on every connection, ticking and draining
    /// each whose deadline comes meanwhile; then arms the protocol timer.
    fn flush_all(&mut self, io: &mut dyn NetIo) {
        while let Some(peer) = self.conns.flush(io) {
            self.drain_pm_events(io, peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calls::tests::{call_to, troupe_of};
    use crate::netio::mock::*;
    use crate::ModuleAddr;
    use simnet::{HostId, Time};

    fn node() -> Node {
        Node::new(ME, NodeConfig::default())
    }

    /// Begins one call of `args` to `troupe` on a fresh thread.
    fn call(n: &mut Node, io: &mut MockIo, troupe: &Troupe, args: &[u8]) -> CallHandle {
        let thread = n.fresh_thread();
        n.begin_call(io, call_to(troupe, thread, args))
    }

    /// Requires the node's next event to be `handle` failing for want of
    /// live members.
    fn assert_fails_next(n: &mut Node, handle: CallHandle) {
        match n.poll_event() {
            Some(AppEvent::CallDone { handle: h, result }) => {
                assert_eq!(h, handle);
                assert_eq!(result, Err(CallError::AllMembersDead));
            }
            other => panic!("expected {handle:?} to fail next, got {other:?}"),
        }
    }

    #[test]
    fn call_to_empty_troupe_fails_immediately() {
        let mut n = node();
        let mut io = MockIo::default();
        let handle = call(&mut n, &mut io, &Troupe::new(TroupeId(1), Vec::new()), b"");
        assert_fails_next(&mut n, handle);
        assert!(io.sent.is_empty());
    }

    /// A call issued while *every* target member is under a live
    /// dead-peer marker must fail immediately with `AllMembersDead`
    /// rather than hang until the markers expire (§3.5.1 degraded mode);
    /// once they have expired the members are re-admitted and the call
    /// goes out.
    #[test]
    fn call_with_all_members_dead_fails_until_the_markers_expire() {
        let mut n = node();
        let mut io = MockIo::default();
        let troupe = troupe_of(3);
        for m in &troupe.members {
            let until = Time::ZERO + Duration::from_secs(10);
            n.directory.mark_dead(m.addr, until);
        }
        let handle = call(&mut n, &mut io, &troupe, b"x");
        assert_fails_next(&mut n, handle);
        assert!(io.sent.is_empty(), "nothing goes to the wire");

        io.now = Time::ZERO + Duration::from_secs(60);
        call(&mut n, &mut io, &troupe, b"x");
        assert_eq!(io.sent.len(), 3, "every member re-admitted");
    }

    /// A peer's death fails the calls waiting on it in handle order —
    /// the order of their map keys, not of a hasher's seed — and then
    /// tells the application.
    #[test]
    fn peer_death_fails_its_calls_in_handle_order() {
        let mut n = node();
        let mut io = MockIo::default();
        let troupe = troupe_of(1);
        let peer = troupe.members[0].addr;
        let handles: Vec<CallHandle> = (0..8)
            .map(|_| call(&mut n, &mut io, &troupe, b"x"))
            .collect();
        assert_eq!(n.debug_stuck().len(), 8 + 1, "eight calls and the census");
        n.on_peer_dead(&mut io, peer);
        for want in handles {
            assert_fails_next(&mut n, want);
        }
        assert!(matches!(
            n.poll_event(),
            Some(AppEvent::MemberDead { addr }) if addr == peer
        ));
        let stuck = n.debug_stuck();
        assert_eq!(stuck.len(), 1, "{stuck:?}");
        assert!(
            stuck[0].contains("outstanding calls=0 routes=0"),
            "{stuck:?}"
        );
        let labels: Vec<&str> = n.census().into_iter().map(|(l, _)| l).collect();
        assert_eq!(labels, crate::census::LABELS, "every label, in order");
    }

    /// A garbled datagram is lost (§2.2): no event, no connection, and
    /// no sign of life that would lift its sender's dead-peer marker.
    #[test]
    fn garbage_datagrams_ignored() {
        let mut n = node();
        let mut io = MockIo::default();
        let from = SockAddr::new(HostId(5), 5);
        n.directory
            .mark_dead(from, Time::ZERO + Duration::from_secs(10));
        n.on_datagram(&mut io, from, &b"not a segment!"[..]);
        n.on_datagram(&mut io, from, Payload::empty());
        assert!(n.poll_event().is_none());
        assert!(n.directory.is_dead(from, io.now), "the marker stays");
        assert_eq!(n.conns.len(), 0, "no connection opened");
    }

    #[test]
    fn unknown_timer_tags_are_harmless() {
        let mut n = node();
        let mut io = MockIo::default();
        assert_eq!(n.on_timer(&mut io, make_tag(TAG_CONN, 999)), None);
        assert_eq!(n.on_timer(&mut io, make_tag(TAG_PENDING, 999)), None);
        assert_eq!(n.on_timer(&mut io, make_tag(7, 1)), None);
        // App tags come back verbatim.
        assert_eq!(
            n.on_timer(&mut io, make_tag(TAG_APP, 42)),
            Some(TimerKey::new(42))
        );
    }

    #[test]
    fn directory_learned_from_outgoing_calls() {
        let mut n = node();
        let mut io = MockIo::default();
        let member = ModuleAddr::new(SockAddr::new(HostId(4), 70), 1);
        call(
            &mut n,
            &mut io,
            &Troupe::new(TroupeId(33), vec![member]),
            b"",
        );
        // Unregistered targets are NOT recorded.
        let anon = Troupe::singleton(ModuleAddr::new(SockAddr::new(HostId(5), 70), 1));
        call(&mut n, &mut io, &anon, b"");
        let learned = n.directory.members(TroupeId(33));
        assert_eq!(learned.map(|m| &m[..]), Some(&[member.addr][..]));
        assert!(n.directory.members(TroupeId::UNREGISTERED).is_none());
    }
}
