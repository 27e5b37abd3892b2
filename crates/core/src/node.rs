//! The replicated procedure call runtime of one process.
//!
//! A [`Node`] bundles everything §4.3 describes as "the run-time system
//! that is linked with each user's programs":
//!
//! - a table of paired-message connections, one per peer process;
//! - the **one-to-many** client algorithm (§4.3.1): send the same call
//!   message to every server troupe member, collate the returns;
//! - the **many-to-one** server algorithm (§4.3.2): group call messages
//!   by `(client troupe, thread, call sequence)`, collate the argument
//!   sets, execute the procedure exactly once, return the results to
//!   every client troupe member;
//! - thread-ID propagation (§3.4.1) and per-thread call sequence numbers;
//! - troupe-ID (incarnation) checking for cache invalidation (§6.2);
//! - buffering of return messages for slow client troupe members
//!   (first-come collation, §4.3.4);
//! - a directory of client troupe memberships, consulted "by a local
//!   cache or by contacting the binding agent" (§4.3.2).
//!
//! The general many-to-many call needs no further machinery: "the general
//! case therefore factors into the two special cases already described"
//! (§4.3.3).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use crate::addr::{ModuleAddr, Troupe, TroupeId};
use crate::binding::{self, reserved_procs};
use crate::collate::{Collation, CollationPolicy, Decision};
use crate::message::{CallMessage, ReturnMessage, ReturnView};
use crate::service::{
    CallError, NodeEffect, OutCall, Service, ServiceCtx, StateSince, Step, TroupeTarget,
};
use crate::thread::{ThreadId, ThreadIdGen};
use obs::SpanId;
use pairedmsg::{Endpoint, Event as PmEvent, MsgSender, MsgType, ProtocolMode, MAX_SEGMENTS};
use simnet::{Duration, Payload, SockAddr, Syscall, Time, TimerId};
use wire::{encode_with, from_bytes};

/// Externalizes a message into its one allocation: the `Payload` every
/// sender, retransmission and buffered copy of it then shares.
fn encode(msg: &impl wire::Externalize) -> Payload {
    encode_with(msg, Payload::copy_from)
}

/// Abstraction over the I/O facilities a node needs; implemented for the
/// simulator's [`simnet::Ctx`] and by test mocks.
pub trait NetIo {
    /// Current time.
    fn now(&self) -> Time;
    /// This process's address.
    fn me(&self) -> SockAddr;
    /// Transmits a datagram (charging one `sendmsg`). The payload handle
    /// is cheap to clone; implementations never copy the bytes.
    fn send(&mut self, to: SockAddr, bytes: Payload);
    /// Transmits a datagram attributed to causal span `span` (0 = none).
    /// The default drops the attribution; the simulator overrides it so
    /// network trace events carry the span.
    fn send_spanned(&mut self, to: SockAddr, bytes: Payload, _span: u64) {
        self.send(to, bytes);
    }
    /// Transmits the same datagram to every destination, attributed to
    /// causal span `span`. The default degenerates to per-destination
    /// unicast (m `sendmsg` charges, same shared payload); the simulator
    /// overrides it with true Ethernet multicast — one `sendmsg` charge
    /// for all copies (§4.3.3).
    fn multicast_spanned(&mut self, tos: &[SockAddr], bytes: Payload, span: u64) {
        for &to in tos {
            self.send_spanned(to, bytes.clone(), span);
        }
    }
    /// Arms a timer, returning its cancelable id.
    fn set_timer(&mut self, delay: Duration, tag: u64) -> TimerId;
    /// Cancels a pending timer. Returns `true` iff the timer was live.
    /// The default is for logic-test mocks without a scheduler — it
    /// reports every cancel as a miss; the simulator overrides it.
    fn cancel_timer(&mut self, _id: TimerId) -> bool {
        false
    }
    /// Charges a syscall to this process's CPU account.
    fn charge(&mut self, sys: Syscall);
    /// Charges user-mode computation.
    fn charge_compute(&mut self, d: Duration);
    /// The metrics registry this process publishes into. The default is a
    /// fresh detached registry each call, so logic-test mocks compile
    /// unchanged; the simulator overrides it with the world's registry.
    fn metrics(&self) -> obs::Registry {
        obs::Registry::new()
    }
}

impl NetIo for simnet::Ctx<'_> {
    fn now(&self) -> Time {
        simnet::Ctx::now(self)
    }
    fn me(&self) -> SockAddr {
        simnet::Ctx::me(self)
    }
    fn send(&mut self, to: SockAddr, bytes: Payload) {
        simnet::Ctx::send(self, to, bytes);
    }
    fn send_spanned(&mut self, to: SockAddr, bytes: Payload, span: u64) {
        simnet::Ctx::send_spanned(self, to, bytes, span);
    }
    fn multicast_spanned(&mut self, tos: &[SockAddr], bytes: Payload, span: u64) {
        simnet::Ctx::multicast_spanned(self, tos, bytes, span);
    }
    fn set_timer(&mut self, delay: Duration, tag: u64) -> TimerId {
        simnet::Ctx::set_timer(self, delay, tag)
    }
    fn cancel_timer(&mut self, id: TimerId) -> bool {
        simnet::Ctx::cancel_timer(self, id)
    }
    fn charge(&mut self, sys: Syscall) {
        simnet::Ctx::charge(self, sys);
    }
    fn charge_compute(&mut self, d: Duration) {
        simnet::Ctx::charge_dur(self, Syscall::Compute, d);
    }
    fn metrics(&self) -> obs::Registry {
        simnet::Ctx::metrics(self)
    }
}

/// Timer tag kinds (the node multiplexes one tag space).
const TAG_KIND_SHIFT: u64 = 56;
/// Connection (paired message protocol) timer; low bits = connection id.
pub const TAG_CONN: u64 = 0;
/// Many-to-one assembly timeout; low bits = pending-call serial.
pub const TAG_PENDING: u64 = 1;
/// Application timer; low bits = the application's own tag.
pub const TAG_APP: u64 = 2;

fn make_tag(kind: u64, low: u64) -> u64 {
    (kind << TAG_KIND_SHIFT) | (low & ((1 << TAG_KIND_SHIFT) - 1))
}

/// Splits a timer tag into (kind, low bits).
pub fn split_tag(tag: u64) -> (u64, u64) {
    (tag >> TAG_KIND_SHIFT, tag & ((1 << TAG_KIND_SHIFT) - 1))
}

/// An application timer tag, guaranteed to fit the node's 56-bit tag
/// space.
///
/// The node multiplexes one `u64` timer tag space between its own
/// protocol timers and the application's (the top byte is the kind), so
/// application tags must fit in the low 56 bits. With raw `u64` tags an
/// oversize tag came back truncated and the application silently never
/// recognized its own timer — a real bug class (the PR-3 self-heal tick
/// died exactly this way). `TimerKey::new` is `const` and asserts the
/// bound, so a `const KEY: TimerKey = TimerKey::new(...)` with an
/// oversize value is a *compile* error, not a silent truncation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerKey(u64);

impl TimerKey {
    /// Wraps a raw tag value. Panics (at compile time in `const`
    /// contexts) if it exceeds the 56-bit tag space.
    pub const fn new(raw: u64) -> TimerKey {
        assert!(
            raw < (1 << TAG_KIND_SHIFT),
            "application timer tag exceeds the 56-bit tag space"
        );
        TimerKey(raw)
    }

    /// The raw tag value (always `< 2^56`).
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// A cancelable handle for an armed application timer, returned by
/// [`Node::set_app_timer`] / `NodeCtx::set_app_timer` and redeemed with
/// [`Node::cancel_app_timer`] / `NodeCtx::cancel_app_timer`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerHandle(TimerId);

/// Handle identifying an in-progress replicated call made by this node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CallHandle(pub u64);

/// Completion notifications for the application layer.
#[derive(Debug)]
pub enum AppEvent {
    /// A replicated call made via [`Node::begin_call`] finished.
    CallDone {
        /// The handle returned by `begin_call`.
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
    /// A service on this node queued [`NodeEffect::NotifyAgent`]: wake the
    /// agent half without waiting for a timer.
    Notify {
        /// The tag the service attached.
        tag: u64,
    },
}

/// Node configuration.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Paired message protocol parameters.
    pub pm: pairedmsg::Config,
    /// Charge the protocol-overhead syscalls the 1985 implementation
    /// performed (select, sigblock, setitimer, gettimeofday) so that the
    /// performance tables reproduce. Disable for pure-logic tests.
    pub charge_overhead: bool,
    /// User-mode CPU charged per message externalized or internalized
    /// (stub marshaling cost).
    pub compute_per_msg: Duration,
    /// How long a server waits for the remaining call messages of a
    /// many-to-one call before treating silent client members as dead.
    pub assembly_timeout: Duration,
    /// How long completed replies are buffered for slow client members
    /// (§4.3.4).
    pub done_ttl: Duration,
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
            pm: pairedmsg::Config::default(),
            charge_overhead: true,
            compute_per_msg: Duration::from_millis_f64(3.0),
            assembly_timeout: Duration::from_secs(10),
            done_ttl: Duration::from_secs(60),
            multicast_small_calls: false,
        }
    }
}

impl NodeConfig {
    /// A configuration with all CPU charging disabled, for logic tests.
    pub fn uncharged() -> NodeConfig {
        NodeConfig {
            charge_overhead: false,
            compute_per_msg: Duration::ZERO,
            ..NodeConfig::default()
        }
    }
}

// ---------------------------------------------------------------------
// Client engine types (one-to-many calls, §4.3.1).
// ---------------------------------------------------------------------

#[derive(Debug)]
enum CallPurpose {
    /// Initiated by the application; completion goes to `AppEvent`.
    App,
    /// A nested call made by a service handling `key`; completion resumes
    /// the service (§3.4's distributed threads).
    Nested { key: CallKey },
    /// An internal `lookup_troupe_by_id` to the binding agent (§4.3.2).
    DirLookup { troupe: TroupeId },
    /// An internal `report_suspect` to the binding agent (§3.5.1, §6.4):
    /// fire-and-forget; the result is discarded.
    SuspectReport,
}

struct OutstandingCall {
    collation: Collation,
    purpose: CallPurpose,
    done: bool,
    /// Members neither heard from nor given up on: the call's entries in
    /// `Node::route`.
    unresolved: usize,
    /// When the call began, for the `rpc.call_latency_us` histogram.
    begun: Time,
}

// ---------------------------------------------------------------------
// Server engine types (many-to-one calls, §4.3.2).
// ---------------------------------------------------------------------

/// Groups the call messages of one replicated call: "two or more call
/// messages arriving at a server bear the same thread ID and call
/// sequence number if and only if they are part of the same replicated
/// call" (§4.3.2), scoped by the client troupe ID.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct CallKey {
    client_troupe: TroupeId,
    thread: ThreadId,
    call_seq: u32,
}

#[derive(Debug, PartialEq, Eq)]
enum PendState {
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
enum Members {
    /// An unregistered caller: the source of the call message is the
    /// single "member" the return must reach.
    Solo(SockAddr),
    /// A registered troupe: the directory's own list, shared.
    Troupe(Rc<[SockAddr]>),
}

impl Members {
    fn as_slice(&self) -> &[SockAddr] {
        match self {
            Members::Solo(addr) => std::slice::from_ref(addr),
            Members::Troupe(addrs) => addrs,
        }
    }
}

struct Pending {
    serial: u64,
    module: u16,
    proc: u16,
    /// Client troupe members (process addresses).
    client_members: Members,
    /// Per member: the paired-message call number to reply on, once its
    /// call message has arrived.
    responders: Vec<Option<u32>>,
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

struct DoneCall {
    /// Encoded `ReturnMessage`, buffered for client members whose call
    /// messages arrive after execution ("execution of the procedure thus
    /// appears instantaneous to the slow client troupe members", §4.3.4).
    reply: Payload,
    at: Time,
    /// Invoke span the buffered reply is attributed to.
    span: u64,
}

/// A call message parked until the client troupe's membership is known.
struct Parked {
    from: SockAddr,
    pm_cn: u32,
    span: u64,
    msg: CallMessage<Payload>,
}

struct Conn {
    id: u64,
    endpoint: Endpoint,
    armed: Option<Time>,
    /// Generation of the most recent timer armed for this connection;
    /// firings of superseded timers are ignored, so re-arming an earlier
    /// deadline does not leave a trail of live duplicate timers.
    arm_gen: u64,
}

/// The per-process replicated procedure call runtime.
pub struct Node {
    me: SockAddr,
    config: NodeConfig,
    /// This process's troupe incarnation; `UNREGISTERED` until exported
    /// through the binding agent.
    my_troupe: TroupeId,
    threads: ThreadIdGen,

    conns: BTreeMap<SockAddr, Conn>,
    conn_addrs: Vec<SockAddr>,

    // Client engine. `outstanding`, `route` and `pending` are walked when
    // a peer dies, so they are ordered maps: the order in which calls then
    // fail over is a function of their keys, not of a hasher's seed.
    outstanding: BTreeMap<u64, OutstandingCall>,
    route: BTreeMap<(SockAddr, u32), (u64, usize)>,
    seq_by_thread: HashMap<ThreadId, u32>,
    next_handle: u64,

    // Server engine.
    services: BTreeMap<u16, Box<dyn Service>>,
    pending: BTreeMap<CallKey, Pending>,
    pending_by_serial: HashMap<u64, CallKey>,
    pending_by_invocation: HashMap<u64, CallKey>,
    next_pending_serial: u64,
    next_invocation: u64,
    done: HashMap<CallKey, DoneCall>,

    // Directory of client troupe memberships (§4.3.2).
    directory: HashMap<TroupeId, Rc<[SockAddr]>>,
    parked: HashMap<TroupeId, Vec<Parked>>,
    lookups_in_flight: HashMap<TroupeId, u64>,
    binder: Option<Troupe>,

    /// Peers declared dead by the paired-message layer (§4.2.3), each
    /// with an expiry. While a marker is live, new calls fail fast on
    /// that member instead of waiting out the full retransmission
    /// schedule again, and many-to-one assemblies do not wait for its
    /// call messages. The expiry re-admits a peer that was wrongly
    /// suspected across a healed partition; `null` probes always go to
    /// the wire so the binding agent's confirmation is never short-
    /// circuited by the prober's own stale marker.
    dead_peers: HashMap<SockAddr, Time>,

    /// Next outgoing call number per peer. A unicast call takes each
    /// member's own next number. A multicast call must reach every member
    /// under the *same* number — the precondition for byte-identical
    /// segments (§4.3.3) — so it takes the largest of its members' next
    /// numbers and moves all of them past it. Either way each peer sees a
    /// strictly increasing sequence, which is all the replay watermark
    /// and the monotonicity audit need, however the two kinds interleave
    /// over overlapping troupes.
    /// Lives on the node, not the connection: a connection dropped after
    /// a false crash suspicion (healed partition) is recreated fresh, but
    /// the peer's surviving endpoint still remembers earlier call
    /// numbers — restarting at 1 would make new calls look like replays
    /// there, acknowledged (or suppressed) without ever being delivered.
    call_numbers: HashMap<SockAddr, u32>,

    /// One-to-many calls whose data segments went out by multicast, and
    /// the segments so transmitted (each charged a single `sendmsg`).
    mcast_calls: u64,
    mcast_segments: u64,

    events: VecDeque<AppEvent>,
}

impl Node {
    /// Debug view of client calls still awaiting collation and server
    /// assemblies still open — for post-mortem inspection from tests.
    pub fn debug_stuck(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (h, c) in &self.outstanding {
            if !c.done {
                out.push(format!(
                    "out call #{h} purpose={:?} begun={:?} collation={:?}",
                    c.purpose, c.begun, c.collation
                ));
            }
        }
        for (k, p) in &self.pending {
            out.push(format!(
                "assembly {k:?} module={} proc={:#06x} state={:?} inv={}",
                p.module, p.proc, p.state, p.invocation
            ));
        }
        out
    }

    /// Creates a node for the process at `me`.
    pub fn new(me: SockAddr, config: NodeConfig) -> Node {
        Node {
            me,
            config,
            my_troupe: TroupeId::UNREGISTERED,
            threads: ThreadIdGen::new(me),
            conns: BTreeMap::new(),
            conn_addrs: Vec::new(),
            outstanding: BTreeMap::new(),
            route: BTreeMap::new(),
            seq_by_thread: HashMap::new(),
            next_handle: 1,
            services: BTreeMap::new(),
            pending: BTreeMap::new(),
            pending_by_serial: HashMap::new(),
            pending_by_invocation: HashMap::new(),
            next_pending_serial: 1,
            next_invocation: 1,
            done: HashMap::new(),
            directory: HashMap::new(),
            parked: HashMap::new(),
            lookups_in_flight: HashMap::new(),
            binder: None,
            dead_peers: HashMap::new(),
            call_numbers: HashMap::new(),
            mcast_calls: 0,
            mcast_segments: 0,
            events: VecDeque::new(),
        }
    }

    /// This process's address.
    pub fn me(&self) -> SockAddr {
        self.me
    }

    /// The current troupe incarnation of this member.
    pub fn troupe_id(&self) -> TroupeId {
        self.my_troupe
    }

    /// Installs a troupe incarnation (normally done remotely through the
    /// reserved `set_troupe_id` procedure, §6.2).
    pub fn set_troupe_id(&mut self, id: TroupeId) {
        self.my_troupe = id;
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

    /// Installs transferred state into an exported service (the joining
    /// member's half of §6.4.1's state transfer).
    pub fn set_service_state(&mut self, module: u16, state: &[u8]) {
        if let Some(svc) = self.services.get_mut(&module) {
            svc.set_state(state);
        }
    }

    /// Applies a recovery delta to an exported service (the joining
    /// member's half of delta catch-up; see
    /// [`Service::get_state_since`]).
    pub fn apply_service_delta(&mut self, module: u16, delta: &[u8]) {
        if let Some(svc) = self.services.get_mut(&module) {
            svc.apply_delta(delta);
        }
    }

    /// Runs every exported service's [`Service::on_start`] hook. Called
    /// once by the process wrapper when it starts, *before* the agent —
    /// a durable service recovers its state from the local disk here.
    pub fn start_services(&mut self, io: &mut dyn NetIo) {
        let metrics = io.metrics();
        for svc in self.services.values_mut() {
            svc.on_start(&metrics);
        }
    }

    /// Configures the binding agent troupe used for directory lookups.
    pub fn set_binder(&mut self, binder: Troupe) {
        self.binder = Some(binder);
    }

    /// Pre-populates the client-troupe directory (a third party such as
    /// the configuration manager may register whole troupes, §6.2).
    pub fn preload_directory(&mut self, id: TroupeId, members: Vec<SockAddr>) {
        self.directory.insert(id, members.into());
    }

    /// Creates a fresh distributed thread based at this process.
    pub fn fresh_thread(&mut self) -> ThreadId {
        self.threads.fresh()
    }

    /// Number of service invocations this member has started — assemblies
    /// that reached a collation decision and ran service code. The chaos
    /// harness compares this across troupe members at quiesce.
    pub fn invocations(&self) -> u64 {
        self.next_invocation - 1
    }

    /// Publishes this node's protocol counters into a metrics registry,
    /// under `rpc.{me}.*` gauges: paired-message endpoint totals summed
    /// over all peers (in deterministic sorted order) plus the invocation
    /// count. This is the only sanctioned way out for the endpoint
    /// statistics — the chaos serial-number oracle and the §4.2.5
    /// ablation read the registry, never the stats structs.
    pub fn publish_metrics(&self, reg: &obs::Registry) {
        let mut total = pairedmsg::EndpointStats::default();
        for c in self.conns.values() {
            total.absorb(&c.endpoint.stats());
        }
        // Multicast segments bypass the endpoints; each went to the
        // network once.
        total.segments_sent += self.mcast_segments;
        let me = self.me;
        total.publish(reg, &format!("rpc.{me}"));
        reg.set_gauge(&format!("rpc.{me}.invocations"), self.invocations());
        reg.set_gauge(&format!("rpc.{me}.mcast_calls"), self.mcast_calls);
        reg.set_gauge(&format!("rpc.{me}.mcast_segments"), self.mcast_segments);
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
    // One-to-many calls (§4.3.1).
    // -----------------------------------------------------------------

    /// Begins a replicated procedure call on behalf of `thread`.
    ///
    /// The same call message is sent to each server troupe member with
    /// the same call sequence number; the returns are collated under
    /// `collation`. Completion is reported via [`AppEvent::CallDone`].
    #[allow(clippy::too_many_arguments)]
    pub fn begin_call(
        &mut self,
        io: &mut dyn NetIo,
        thread: ThreadId,
        troupe: &Troupe,
        module: u16,
        proc: u16,
        args: Vec<u8>,
        collation: CollationPolicy,
    ) -> CallHandle {
        let handle = self.begin_call_inner(
            io,
            thread,
            troupe,
            module,
            proc,
            args,
            collation,
            CallPurpose::App,
            self.my_troupe,
        );
        self.flush_all(io);
        CallHandle(handle)
    }

    /// Like [`Node::begin_call`], but presents the caller as a plain
    /// unregistered client even if this process is a registered troupe
    /// member. A registered member's *solo* administrative call (e.g. the
    /// join agent's state re-fetch, §6.4.1) must not be mistaken for one
    /// message of a many-to-one replicated call — the server would wait
    /// out the assembly timeout for the other members' copies (§4.3.2).
    #[allow(clippy::too_many_arguments)]
    pub fn begin_call_solo(
        &mut self,
        io: &mut dyn NetIo,
        thread: ThreadId,
        troupe: &Troupe,
        module: u16,
        proc: u16,
        args: Vec<u8>,
        collation: CollationPolicy,
    ) -> CallHandle {
        let handle = self.begin_call_inner(
            io,
            thread,
            troupe,
            module,
            proc,
            args,
            collation,
            CallPurpose::App,
            TroupeId::UNREGISTERED,
        );
        self.flush_all(io);
        CallHandle(handle)
    }

    #[allow(clippy::too_many_arguments)]
    fn begin_call_inner(
        &mut self,
        io: &mut dyn NetIo,
        thread: ThreadId,
        troupe: &Troupe,
        module: u16,
        proc: u16,
        args: Vec<u8>,
        collation: CollationPolicy,
        purpose: CallPurpose,
        client_troupe: TroupeId,
    ) -> u64 {
        let handle = self.next_handle;
        self.next_handle += 1;

        let seq = self.seq_by_thread.entry(thread).or_insert(0);
        *seq += 1;
        let call_seq = *seq;

        let msg = CallMessage {
            thread,
            call_seq,
            client_troupe,
            server_troupe: troupe.id,
            module,
            proc,
            args,
        };
        io.charge_compute(self.config.compute_per_msg); // Externalize once.
        if self.config.charge_overhead {
            // The timer package reads the clock and arms the interval
            // timer for the exchange (§4.2.4), inside a critical region.
            io.charge(Syscall::GetTimeOfDay);
            io.charge(Syscall::SetITimer);
            io.charge(Syscall::SigBlock);
        }
        // Encode the call message once; every member's sender (and every
        // retransmission) shares this buffer.
        let bytes = encode(&msg);

        // Mint the causal span covering this call. Application calls and
        // binding lookups start new trees; a nested call made by a service
        // hangs off that invocation's span, so one client call's whole
        // fan-out — including onward hops — reconstructs as a single tree.
        let reg = io.metrics();
        let now_us = io.now().as_micros();
        let span = match &purpose {
            CallPurpose::App => reg.span_root(format_args!("call m{module}.p{proc}"), now_us),
            CallPurpose::Nested { key } => {
                let parent = self
                    .pending
                    .get(key)
                    .map(|p| p.invoke_span)
                    .unwrap_or(SpanId::NONE);
                reg.span_child(parent, format_args!("nested m{module}.p{proc}"), now_us)
            }
            CallPurpose::DirLookup { .. } => reg.span_root("lookup", now_us),
            CallPurpose::SuspectReport => reg.span_root("report suspect", now_us),
        };

        let call = OutstandingCall {
            collation: Collation::new(collation, troupe.members.len()),
            purpose,
            done: false,
            unresolved: 0,
            begun: io.now(),
        };
        self.outstanding.insert(handle, call);

        // The caller just bound to this troupe, so it knows the
        // membership; record it so call-backs *from* that troupe (the
        // ready_to_commit pattern, §5.3) can be grouped without a
        // binding-agent round trip.
        if troupe.id != TroupeId::UNREGISTERED {
            let addrs = || troupe.members.iter().map(|m| m.addr);
            let known = self
                .directory
                .get(&troupe.id)
                .is_some_and(|d| d.iter().copied().eq(addrs()));
            if !known {
                self.directory.insert(troupe.id, addrs().collect());
            }
        }

        // The data plane is read off the call (§4.3.3): two or more
        // segments to two or more live members are sent once, by
        // multicast; a single segment goes out per member unless the
        // configuration multicasts those too. PARC's stop-and-wait has no
        // blast to share, so its multi-segment calls stay per member (as
        // does an oversize call, to fail there).
        let now = io.now();
        let shareable = match self.config.pm.segments_of(bytes.len()) {
            1 => self.config.multicast_small_calls,
            2..=MAX_SEGMENTS => self.config.pm.mode == ProtocolMode::Circus,
            _ => false,
        };
        let mut blast = Vec::new();
        if shareable {
            for (i, member) in troupe.members.iter().enumerate() {
                if self.admit_member(handle, proc, now, i, member.addr) {
                    blast.push(member.addr);
                }
            }
        }
        if blast.len() > 1 {
            self.multicast_call(io, handle, span.raw(), &bytes, troupe, &blast);
        } else {
            // Nothing to share, or fewer than two to share it with
            // (admitting a member twice at one `now` answers the same).
            for (i, member) in troupe.members.iter().enumerate() {
                let addr = member.addr;
                if !self.admit_member(handle, proc, now, i, addr) {
                    continue;
                }
                let cn = {
                    let next = self.call_numbers.entry(addr).or_insert(1);
                    let cn = *next;
                    *next += 1;
                    cn
                };
                self.unicast_call(handle, cn, span.raw(), &bytes, now, i, addr);
            }
        }
        self.check_decision(io, handle);
        handle
    }

    /// Decides whether member `i` of a new call is addressed at all: one
    /// under a live dead-peer marker is marked dead in the collation
    /// instead, so the call fails fast on it rather than re-running the
    /// whole retransmission schedule (§3.5.1's degraded-mode calls
    /// proceed against the survivors). Probes are exempt: their entire
    /// point is to test the suspect.
    fn admit_member(
        &mut self,
        handle: u64,
        proc: u16,
        now: Time,
        i: usize,
        addr: SockAddr,
    ) -> bool {
        if proc != reserved_procs::NULL {
            if let Some(&until) = self.dead_peers.get(&addr) {
                if now < until {
                    self.call_mut(handle).collation.mark_dead(i);
                    return false;
                }
                self.dead_peers.remove(&addr);
            }
        }
        true
    }

    /// Sends member `i`'s copy of a call by unicast. The send can only
    /// fail for oversize messages, which the stub layer prevents; treat
    /// failure as an instantly dead member.
    #[allow(clippy::too_many_arguments)]
    fn unicast_call(
        &mut self,
        handle: u64,
        cn: u32,
        span: u64,
        bytes: &Payload,
        now: Time,
        i: usize,
        addr: SockAddr,
    ) {
        let conn = self.conn_mut(addr);
        if conn
            .endpoint
            .send(now, MsgType::Call, cn, span, bytes.clone())
            .is_err()
        {
            self.call_mut(handle).collation.mark_dead(i);
            return;
        }
        self.add_route(addr, cn, handle, i);
    }

    /// Expects member `i`'s return for call `handle` from `(addr, cn)`.
    fn add_route(&mut self, addr: SockAddr, cn: u32, handle: u64, i: usize) {
        if let Some((displaced, _)) = self.route.insert((addr, cn), (handle, i)) {
            self.resolve_route(displaced);
        }
        self.call_mut(handle).unresolved += 1;
    }

    /// Accounts for one of `handle`'s route entries having been removed
    /// (the return arrived, or the member is given up on).
    fn resolve_route(&mut self, handle: u64) {
        if let Some(call) = self.outstanding.get_mut(&handle) {
            call.unresolved -= 1;
        }
    }

    /// Transmits one call's data segments to the members at `addrs` (two
    /// or more of `troupe`'s, in its order) by multicast (§4.3.3): the
    /// segments go to the wire once each, charged a single `sendmsg`, and
    /// then each member's endpoint adopts a pre-transmitted sender —
    /// keeping per-member acknowledgment tracking, unicast retransmission
    /// toward stragglers, the implicit ack carried by the return message,
    /// and crash-detection probing. Adopting *after* the blast starts
    /// each retransmission clock at the last `sendmsg`, not k `sendmsg`s
    /// before it.
    fn multicast_call(
        &mut self,
        io: &mut dyn NetIo,
        handle: u64,
        span: u64,
        bytes: &Payload,
        troupe: &Troupe,
        addrs: &[SockAddr],
    ) {
        let next = |a| self.call_numbers.get(a).copied().unwrap_or(1);
        let cn = addrs.iter().map(next).max().expect("addresses members");
        // Cut off to the side: the members' own senders differ from this
        // one in their jitter seeds only.
        let pm = &self.config.pm;
        let cut = MsgSender::new(io.now(), pm, MsgType::Call, cn, span, bytes.clone())
            .expect("the caller counted the segments");
        self.mcast_calls += 1;
        self.mcast_segments += u64::from(cut.total());
        for number in 1..=cut.total() {
            io.multicast_spanned(addrs, cut.segment(number, false).encode(), span);
        }
        let sent = io.now();
        for (i, member) in troupe.members.iter().enumerate() {
            let addr = member.addr;
            if !addrs.contains(&addr) {
                continue; // Not admitted.
            }
            let endpoint = &mut self.conn_mut(addr).endpoint;
            if endpoint.adopt_call(sent, cn, span, bytes.clone()).is_err() {
                self.call_mut(handle).collation.mark_dead(i);
                continue;
            }
            self.call_numbers.insert(addr, cn + 1);
            self.add_route(addr, cn, handle, i);
        }
    }

    fn call_mut(&mut self, handle: u64) -> &mut OutstandingCall {
        self.outstanding.get_mut(&handle).expect("call exists")
    }

    /// Applies the collation decision for an outstanding call.
    fn check_decision(&mut self, io: &mut dyn NetIo, handle: u64) {
        let Some(call) = self.outstanding.get(&handle) else {
            return;
        };
        if !call.done {
            match call.collation.decide() {
                Decision::Wait => {}
                Decision::Ready(bytes) => {
                    self.call_mut(handle).done = true;
                    // The one copy of the results: out of the datagram
                    // they arrived in, into the caller's vector.
                    let result = match ReturnView::decode(&bytes) {
                        Ok(ReturnView::Normal(data)) => Ok(data.to_vec()),
                        Ok(ReturnView::Error(e)) => Err(CallError::Remote(e.to_owned())),
                        Ok(ReturnView::WrongTroupe(hint)) => {
                            Err(CallError::StaleBinding(Some(hint)))
                        }
                        Ok(ReturnView::NoSuchProcedure) => Err(CallError::NoSuchProcedure),
                        Err(_) => Err(CallError::Garbled),
                    };
                    self.complete_call(io, handle, result);
                }
                Decision::Fail(e) => {
                    self.call_mut(handle).done = true;
                    self.complete_call(io, handle, Err(e.into()));
                }
            }
        }
        self.gc_call(handle);
    }

    /// Fails a call immediately (stale binding and similar fatal replies).
    fn fail_call(&mut self, io: &mut dyn NetIo, handle: u64, err: CallError) {
        let Some(call) = self.outstanding.get_mut(&handle) else {
            return;
        };
        if call.done {
            self.gc_call(handle);
            return;
        }
        call.done = true;
        self.complete_call(io, handle, Err(err));
        self.gc_call(handle);
    }

    /// Removes bookkeeping once a finished call has heard from (or given
    /// up on) every member. In unanimous mode this *is* the paper's
    /// synchronization point: "the return from a replicated procedure
    /// call is thus a synchronization point" (§4.3.1); in first-come mode
    /// the call lingers, absorbing and discarding late returns by their
    /// call numbers (§4.3.4).
    fn gc_call(&mut self, handle: u64) {
        let Some(call) = self.outstanding.get(&handle) else {
            return;
        };
        // Route entries are removed as returns arrive or peers die; any
        // remaining entry means a member has yet to be heard from.
        if call.done && call.unresolved == 0 {
            self.outstanding.remove(&handle);
        }
    }

    /// Routes a finished call's result according to its purpose.
    fn complete_call(
        &mut self,
        io: &mut dyn NetIo,
        handle: u64,
        result: Result<Vec<u8>, CallError>,
    ) {
        let begun = self.call_mut(handle).begun;
        let purpose = std::mem::replace(&mut self.call_mut(handle).purpose, CallPurpose::App);
        match purpose {
            CallPurpose::App => {
                let reg = io.metrics();
                reg.add("rpc.calls_completed", 1);
                reg.observe("rpc.call_latency_us", io.now().since(begun).as_micros());
                self.events.push_back(AppEvent::CallDone {
                    handle: CallHandle(handle),
                    result,
                });
            }
            CallPurpose::Nested { key } => self.resume_service(io, key, result),
            CallPurpose::DirLookup { troupe } => self.finish_lookup(io, troupe, result),
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
        if self.config.charge_overhead {
            // SIGIO delivery: check readiness and enter the critical
            // region (§4.2.4). `recvmsg` itself is charged by the world.
            io.charge(Syscall::Select);
            io.charge(Syscall::SigBlock);
        }
        let now = io.now();
        // Hearing from a peer at all rehabilitates it: a marker left by a
        // healed partition must not fail-fast calls to a live member.
        self.dead_peers.remove(&from);
        let conn = self.conn_mut(from);
        if conn.endpoint.on_datagram(now, &bytes).is_err() {
            // Garbled segment: treated as lost (§2.2). Counted so the
            // adversarial harness can assert hostile traffic was seen
            // and refused rather than silently swallowed.
            io.metrics().add("adv.rejected", 1);
            return;
        }
        self.drain_pm_events(io, from);
        self.flush_all(io);
    }

    /// Handles every event the endpoint for `peer` has queued. Handling
    /// one never queues another on the same endpoint (only datagrams and
    /// timer ticks do), and `PeerDead` — always an endpoint's last event —
    /// removes the connection, which ends the loop.
    fn drain_pm_events(&mut self, io: &mut dyn NetIo, peer: SockAddr) {
        while let Some(ev) = self
            .conns
            .get_mut(&peer)
            .and_then(|conn| conn.endpoint.poll_event())
        {
            self.on_pm_event(io, peer, ev);
        }
    }

    /// Feeds a timer expiry (call this from `Process::on_timer`). Returns
    /// the application's key if the timer belonged to the application.
    pub fn on_timer(&mut self, io: &mut dyn NetIo, tag: u64) -> Option<TimerKey> {
        let (kind, low) = split_tag(tag);
        match kind {
            TAG_CONN => {
                let conn_id = low & 0xFFFF_FFFF;
                let gen = low >> 32; // 24 bits of generation survive the tag.
                let addr = self.conn_addrs.get(conn_id as usize).copied();
                if let Some(addr) = addr {
                    let now = io.now();
                    if let Some(conn) = self.conns.get_mut(&addr) {
                        if conn.arm_gen & 0x00FF_FFFF != gen {
                            // A superseded timer; the newer one governs.
                            return None;
                        }
                        conn.armed = None;
                        conn.endpoint.on_timer(now);
                        self.drain_pm_events(io, addr);
                        self.flush_all(io);
                    }
                }
                None
            }
            TAG_PENDING => {
                if let Some(key) = self.pending_by_serial.get(&low).copied() {
                    self.assembly_timeout(io, key);
                    self.flush_all(io);
                }
                None
            }
            TAG_APP => Some(TimerKey::new(low)),
            _ => None,
        }
    }

    /// Arms an application-level timer; it comes back from
    /// [`Node::on_timer`] with the given key. The [`TimerKey`] newtype
    /// proves the tag fits the node's 56-bit tag space, so the old
    /// truncation hazard is unrepresentable here. The returned handle
    /// cancels it ([`Node::cancel_app_timer`]).
    pub fn set_app_timer(
        &mut self,
        io: &mut dyn NetIo,
        delay: Duration,
        key: TimerKey,
    ) -> TimerHandle {
        TimerHandle(io.set_timer(delay, make_tag(TAG_APP, key.raw())))
    }

    /// Cancels an application timer armed with [`Node::set_app_timer`].
    /// Returns `true` iff the timer was still pending; cancelling an
    /// already-fired or already-cancelled timer is a recorded miss
    /// (`sim.timer.cancel_miss`) and returns `false`.
    pub fn cancel_app_timer(&mut self, io: &mut dyn NetIo, handle: TimerHandle) -> bool {
        io.cancel_timer(handle.0)
    }

    fn on_pm_event(&mut self, io: &mut dyn NetIo, from: SockAddr, ev: PmEvent) {
        match ev {
            PmEvent::Message {
                msg_type: MsgType::Return,
                call_number,
                data,
                ..
            } => self.on_return_message(io, from, call_number, data),
            PmEvent::Message {
                msg_type: MsgType::Call,
                call_number,
                span,
                data,
            } => self.on_call_message(io, from, call_number, span, data),
            PmEvent::PeerDead => self.on_peer_dead(io, from),
        }
    }

    /// Handles a return message arriving from a server troupe member.
    fn on_return_message(&mut self, io: &mut dyn NetIo, from: SockAddr, cn: u32, data: Payload) {
        let Some((handle, member_idx)) = self.route.remove(&(from, cn)) else {
            return; // Late return for a call already cleaned up (§4.3.4).
        };
        self.resolve_route(handle);
        // Each member's return message is internalized by the stubs
        // (user-mode time grows with the degree of replication,
        // Table 4.1).
        io.charge_compute(self.config.compute_per_msg);
        // Fatal binding replies bypass collation: the server troupe's
        // incarnation no longer matches, so no member executed (§6.2).
        // The message is checked whole but in place; what is collated is
        // the arrival datagram's own window.
        match ReturnView::decode(&data) {
            Ok(ReturnView::WrongTroupe(hint)) => {
                self.fail_call(io, handle, CallError::StaleBinding(Some(hint)));
                return;
            }
            Ok(ReturnView::NoSuchProcedure) => {
                self.fail_call(io, handle, CallError::NoSuchProcedure);
                return;
            }
            Ok(_) => {}
            Err(_) => {
                io.metrics().add("adv.rejected", 1);
                self.fail_call(io, handle, CallError::Garbled);
                return;
            }
        }
        if let Some(call) = self.outstanding.get_mut(&handle) {
            call.collation.add_vote(member_idx, data);
            // The watchdog compares stragglers against the value already
            // delivered (§4.3.4).
            if call.done && call.collation.is_watchdog() && !call.collation.votes_agree() {
                self.events.push_back(AppEvent::DeterminismViolation {
                    handle: CallHandle(handle),
                });
            }
            self.check_decision(io, handle);
        }
    }

    /// Handles the death of a peer process (§4.2.3): every outstanding
    /// call with a member there proceeds without it, and pending
    /// many-to-one calls stop expecting its call message.
    fn on_peer_dead(&mut self, io: &mut dyn NetIo, addr: SockAddr) {
        // Client side: mark the member dead in every outstanding call.
        let its_routes = (addr, 0)..=(addr, u32::MAX);
        while let Some((&at, &(handle, idx))) = self.route.range(its_routes.clone()).next() {
            self.route.remove(&at);
            self.resolve_route(handle);
            if let Some(call) = self.outstanding.get_mut(&handle) {
                call.collation.mark_dead(idx);
            }
        }
        let handles: Vec<u64> = self.outstanding.keys().copied().collect();
        for h in handles {
            self.check_decision(io, h);
        }
        // Server side: stop waiting for its call messages.
        let keys: Vec<CallKey> = self.pending.keys().copied().collect();
        for key in keys {
            let executed = {
                let p = self.pending.get_mut(&key).expect("key");
                if p.state != PendState::Collecting {
                    continue;
                }
                if let Some(i) = p.client_members.as_slice().iter().position(|m| *m == addr) {
                    p.args.mark_dead(i);
                    true
                } else {
                    false
                }
            };
            if executed {
                self.try_execute(io, key);
            }
        }
        // Drop the connection; a new one is made if the address is
        // reused by a replacement member.
        if let Some(conn) = self.conns.remove(&addr) {
            if let Some(slot) = self.conn_addrs.get_mut(conn.id as usize) {
                // Keep the id slot but point it nowhere.
                *slot = SockAddr::new(simnet::HostId(u32::MAX), 0);
            }
        }
        // Remember the death for a bounded window: long enough that a
        // genuinely crashed member cannot make later calls re-suffer the
        // retransmission schedule, short enough that a member wrongly
        // suspected across a partition is re-admitted once quiet.
        let ttl = self.config.pm.crash_horizon().saturating_mul(2);
        self.dead_peers.insert(addr, io.now() + ttl);
        // Report the suspected crash to the binding agent (§3.5.1, §6.4)
        // so repair can start in-system: the agent probes the suspect
        // itself and only a confirmed death leads to eviction. Binding
        // agent members skip the report — they observe each other
        // directly and the healer runs beside them.
        let reporter = self
            .binder
            .clone()
            .filter(|b| !b.members.iter().any(|m| m.addr == self.me));
        if let Some(binder) = reporter {
            let thread = self.threads.fresh();
            self.begin_call_inner(
                io,
                thread,
                &binder,
                binding::BINDING_MODULE,
                binding::binding_procs::REPORT_SUSPECT,
                binding::encode_report_suspect(addr),
                CollationPolicy::Majority,
                CallPurpose::SuspectReport,
                TroupeId::UNREGISTERED,
            );
        }
        self.events.push_back(AppEvent::MemberDead { addr });
    }

    // -----------------------------------------------------------------
    // Many-to-one calls (§4.3.2).
    // -----------------------------------------------------------------

    /// Handles a call message arriving from a client troupe member.
    /// `span` is the causal span the client stamped on the segments.
    fn on_call_message(
        &mut self,
        io: &mut dyn NetIo,
        from: SockAddr,
        pm_cn: u32,
        span: u64,
        data: Payload,
    ) {
        io.charge_compute(self.config.compute_per_msg); // Internalize.
        let Ok(msg) = CallMessage::decode(&data) else {
            // Garbled call; the client will time out and retry.
            io.metrics().add("adv.rejected", 1);
            return;
        };
        self.purge_done(io.now());

        // Incarnation check (§6.2): a call bearing the wrong server
        // troupe ID must be rejected so stale client caches are detected.
        if msg.server_troupe != self.my_troupe && msg.server_troupe != TroupeId::UNREGISTERED {
            io.metrics().add("adv.rejected", 1);
            let reply = encode(&ReturnMessage::WrongTroupe(self.my_troupe));
            self.send_return(io, from, pm_cn, span, reply);
            return;
        }

        let key = CallKey {
            client_troupe: msg.client_troupe,
            thread: msg.thread,
            call_seq: msg.call_seq,
        };

        // A slow member of an already-answered call: its return message
        // is ready and waiting (§4.3.4).
        if let Some(done) = self.done.get(&key) {
            let reply = done.reply.clone();
            let done_span = done.span;
            self.send_return(io, from, pm_cn, done_span, reply);
            return;
        }

        if !self.services.contains_key(&msg.module) && msg.proc < reserved_procs::RESERVED_BASE {
            let reply = encode(&ReturnMessage::NoSuchProcedure);
            self.send_return(io, from, pm_cn, span, reply);
            return;
        }

        // Determine the client troupe's membership (§4.3.2): singleton
        // for unregistered callers, else the directory or binding agent.
        // For an unregistered caller the source of the call message is the
        // single "member" the return must reach.
        let members = if msg.client_troupe == TroupeId::UNREGISTERED {
            Members::Solo(from)
        } else {
            match self.directory.get(&msg.client_troupe) {
                Some(m) => Members::Troupe(m.clone()),
                None => {
                    self.park_and_lookup(io, from, pm_cn, span, msg);
                    return;
                }
            }
        };
        self.process_call(io, from, pm_cn, span, msg, members, key);
    }

    #[allow(clippy::too_many_arguments)]
    fn process_call(
        &mut self,
        io: &mut dyn NetIo,
        from: SockAddr,
        pm_cn: u32,
        span: u64,
        msg: CallMessage<Payload>,
        members: Members,
        key: CallKey,
    ) {
        if !self.pending.contains_key(&key) {
            let policy = if msg.proc >= reserved_procs::RESERVED_BASE {
                CollationPolicy::Unanimous
            } else {
                self.services
                    .get(&msg.module)
                    .map(|s| s.arg_collation(msg.proc))
                    .unwrap_or(CollationPolicy::Unanimous)
            };
            let serial = self.next_pending_serial;
            self.next_pending_serial += 1;
            let now = io.now();
            let deadline = now + self.config.assembly_timeout;
            let n = members.as_slice().len();
            // Client members already under a dead-peer marker will never
            // send their copy of this call; mark them dead now so a
            // degraded client troupe does not pay the assembly timeout on
            // every call (§4.3.2). The sender itself is plainly alive.
            let mut args = Collation::new(policy, n);
            for (i, m) in members.as_slice().iter().enumerate() {
                if *m != from && self.dead_peers.get(m).is_some_and(|&until| now < until) {
                    args.mark_dead(i);
                }
            }
            self.pending.insert(
                key,
                Pending {
                    serial,
                    module: msg.module,
                    proc: msg.proc,
                    client_members: members,
                    responders: vec![None; n],
                    args,
                    state: PendState::Collecting,
                    deadline,
                    invocation: 0,
                    call_span: span,
                    invoke_span: SpanId::NONE,
                },
            );
            self.pending_by_serial.insert(serial, key);
            if n > 1 {
                // Only multi-member assemblies can stall on a silent
                // member; arm the assembly timeout.
                if self.config.charge_overhead {
                    io.charge(Syscall::SetITimer);
                }
                let _ = io.set_timer(self.config.assembly_timeout, make_tag(TAG_PENDING, serial));
            }
        }
        let p = self.pending.get_mut(&key).expect("just inserted");
        match p.client_members.as_slice().iter().position(|m| *m == from) {
            Some(i) => {
                p.responders[i] = Some(pm_cn);
                p.args.add_vote(i, msg.args);
            }
            None => {
                // A caller we do not believe is in the client troupe. An
                // assembly for this call is already open with a definite
                // membership, so re-fetching the directory here could
                // loop forever (the open assembly would still not list
                // the sender). Reject the straggler instead: either its
                // own view is stale (it will rebind) or ours is (the
                // next call, with no open assembly, triggers a fresh
                // lookup through the binding agent).
                let reply = encode(&ReturnMessage::Error(
                    "caller is not a member of the calling troupe".into(),
                ));
                self.directory.remove(&key.client_troupe);
                self.send_return(io, from, pm_cn, span, reply);
                return;
            }
        }
        self.try_execute(io, key);
    }

    /// Executes the procedure once the argument collation is ready
    /// (exactly-once execution, §4.1).
    fn try_execute(&mut self, io: &mut dyn NetIo, key: CallKey) {
        let decision = {
            let Some(p) = self.pending.get(&key) else {
                return;
            };
            if p.state != PendState::Collecting {
                return;
            }
            p.args.decide()
        };
        match decision {
            Decision::Wait => {}
            Decision::Ready(args) => {
                let invocation = self.next_invocation;
                self.next_invocation += 1;
                let (module, proc, invoke_span) = {
                    let p = self.pending.get_mut(&key).expect("pending");
                    p.invocation = invocation;
                    // The invoke span parents to the wire span of the call
                    // message that opened the assembly, stitching the
                    // server-side execution into the client's call tree.
                    let span = io.metrics().span_child(
                        SpanId::from_raw(p.call_span),
                        format_args!("invoke m{}.p{}", p.module, p.proc),
                        io.now().as_micros(),
                    );
                    p.invoke_span = span;
                    (p.module, p.proc, span)
                };
                self.pending_by_invocation.insert(invocation, key);
                let mut ctx = ServiceCtx {
                    thread: key.thread,
                    caller: key.client_troupe,
                    invocation,
                    now: io.now(),
                    me: self.me,
                    span: invoke_span,
                    metrics: io.metrics(),
                    effects: Vec::new(),
                };
                let step = self.run_service_step(io, &mut ctx, module, proc, &args);
                self.apply_effects(io, std::mem::take(&mut ctx.effects));
                self.apply_step(io, key, ctx, step);
            }
            Decision::Fail(e) => {
                let reply = encode(&ReturnMessage::Error(format!(
                    "argument collation failed: {e}"
                )));
                self.finish_pending(io, key, reply);
            }
        }
    }

    /// Runs the initial dispatch of a service (or a reserved procedure).
    fn run_service_step(
        &mut self,
        io: &mut dyn NetIo,
        ctx: &mut ServiceCtx,
        module: u16,
        proc: u16,
        args: &[u8],
    ) -> Step {
        io.charge_compute(self.config.compute_per_msg); // Internalize args.
        if proc >= reserved_procs::RESERVED_BASE {
            return self.run_reserved(ctx, module, proc, args);
        }
        match self.services.get_mut(&module) {
            Some(s) => s.dispatch(ctx, proc, args),
            None => Step::Error("no such module".into()),
        }
    }

    /// The runtime-provided procedures every module answers (§6.2,
    /// §6.4.1).
    fn run_reserved(&mut self, ctx: &mut ServiceCtx, module: u16, proc: u16, args: &[u8]) -> Step {
        match proc {
            reserved_procs::NULL => Step::Reply(Vec::new()),
            reserved_procs::GET_STATE => match self.services.get(&module) {
                Some(s) => Step::Reply(s.get_state()),
                None => Step::Error("no such module".into()),
            },
            reserved_procs::GET_STATE_SINCE => match self.services.get(&module) {
                // An empty token (the caller has no durable state, or its
                // module does not implement recovery) degenerates to a
                // full copy, so mixed troupes stay compatible.
                Some(s) => {
                    let since = if args.is_empty() {
                        StateSince::Full(s.get_state())
                    } else {
                        s.get_state_since(args)
                    };
                    Step::Reply(since.encode())
                }
                None => Step::Error("no such module".into()),
            },
            reserved_procs::SET_TROUPE_ID => match from_bytes::<TroupeId>(args) {
                Ok(id) => {
                    self.my_troupe = id;
                    Step::Reply(Vec::new())
                }
                Err(e) => Step::Error(format!("bad troupe id: {e}")),
            },
            reserved_procs::WEDGE => match self.services.get_mut(&module) {
                // The service may Suspend until in-flight invocations
                // drain (§6.4.1) and later reply via `StepFor`.
                Some(s) => s.wedge(ctx),
                None => Step::Error("no such module".into()),
            },
            reserved_procs::UNWEDGE => match self.services.get_mut(&module) {
                Some(s) => {
                    s.unwedge();
                    Step::Reply(Vec::new())
                }
                None => Step::Error("no such module".into()),
            },
            _ => Step::Error("unknown reserved procedure".into()),
        }
    }

    /// Applies a service's step, looping through nested calls.
    fn apply_step(&mut self, io: &mut dyn NetIo, key: CallKey, ctx: ServiceCtx, step: Step) {
        match step {
            Step::Reply(data) => {
                let reply = encode(&ReturnMessage::Normal(data));
                self.finish_pending(io, key, reply);
            }
            Step::Error(e) => {
                let reply = encode(&ReturnMessage::Error(e));
                self.finish_pending(io, key, reply);
            }
            Step::Suspend => {
                if let Some(p) = self.pending.get_mut(&key) {
                    p.state = PendState::Suspended;
                }
            }
            Step::Call(mut out) => {
                // A `get_state_since` call with empty args asks the node
                // to stamp in the *local* module's recovery token (how
                // much state the joiner already replayed from its log).
                // The module may legitimately have no token — the callee
                // then serves a full copy.
                if out.proc == reserved_procs::GET_STATE_SINCE && out.args.is_empty() {
                    if let Some(tok) = self
                        .services
                        .get(&out.module)
                        .and_then(|s| s.recovery_token())
                    {
                        out.args = tok;
                    }
                }
                let troupe = match self.resolve_target(&key, &out) {
                    Ok(t) => t,
                    Err(e) => {
                        let reply = encode(&ReturnMessage::Error(e));
                        self.finish_pending(io, key, reply);
                        return;
                    }
                };
                if let Some(p) = self.pending.get_mut(&key) {
                    p.state = PendState::AwaitingNested;
                }
                // Thread-ID propagation (§3.4.1): the nested call runs on
                // behalf of the incoming thread. A solo nested call
                // presents as unregistered, exactly like
                // `begin_call_solo`, so the server does not wait for the
                // other members' (never-coming) copies.
                let client_troupe = if out.solo {
                    TroupeId::UNREGISTERED
                } else {
                    self.my_troupe
                };
                self.begin_call_inner(
                    io,
                    ctx.thread,
                    &troupe,
                    out.module,
                    out.proc,
                    out.args,
                    out.collation,
                    CallPurpose::Nested { key },
                    client_troupe,
                );
            }
        }
    }

    /// Applies effects queued by a service handler.
    fn apply_effects(&mut self, io: &mut dyn NetIo, effects: Vec<NodeEffect>) {
        for e in effects {
            match e {
                NodeEffect::PreloadDirectory { id, members } => {
                    self.directory.insert(id, members.into());
                }
                NodeEffect::InvalidateDirectory { id } => {
                    self.directory.remove(&id);
                }
                NodeEffect::StepFor { invocation, step } => {
                    let Some(&key) = self.pending_by_invocation.get(&invocation) else {
                        continue;
                    };
                    let suspended = self
                        .pending
                        .get(&key)
                        .is_some_and(|p| p.state == PendState::Suspended);
                    if !suspended {
                        continue;
                    }
                    let invoke_span = self
                        .pending
                        .get(&key)
                        .map(|p| p.invoke_span)
                        .unwrap_or(SpanId::NONE);
                    let ctx = ServiceCtx {
                        thread: key.thread,
                        caller: key.client_troupe,
                        invocation,
                        now: io.now(),
                        me: self.me,
                        span: invoke_span,
                        metrics: io.metrics(),
                        effects: Vec::new(),
                    };
                    self.apply_step(io, key, ctx, step);
                }
                NodeEffect::SetServiceState { module, state } => {
                    self.set_service_state(module, &state);
                }
                NodeEffect::ApplyServiceDelta { module, delta } => {
                    self.apply_service_delta(module, &delta);
                }
                NodeEffect::NotifyAgent { tag } => {
                    self.events.push_back(AppEvent::Notify { tag });
                }
            }
        }
    }

    fn resolve_target(&self, key: &CallKey, out: &OutCall) -> Result<Troupe, String> {
        match &out.target {
            TroupeTarget::Troupe(t) => Ok(t.clone()),
            TroupeTarget::Caller => {
                let members: &[SockAddr] = if key.client_troupe == TroupeId::UNREGISTERED {
                    self.pending
                        .get(key)
                        .map_or(&[], |p| p.client_members.as_slice())
                } else {
                    self.directory
                        .get(&key.client_troupe)
                        .ok_or_else(|| "caller troupe unknown".to_string())?
                };
                Ok(Troupe::new(
                    key.client_troupe,
                    members
                        .iter()
                        .map(|&a| ModuleAddr::new(a, out.module))
                        .collect(),
                ))
            }
        }
    }

    /// Resumes a service blocked on a nested call.
    fn resume_service(
        &mut self,
        io: &mut dyn NetIo,
        key: CallKey,
        result: Result<Vec<u8>, CallError>,
    ) {
        let Some(p) = self.pending.get_mut(&key) else {
            return;
        };
        if p.state != PendState::AwaitingNested {
            return;
        }
        p.state = PendState::Collecting; // Transitional; re-set below.
        let module = p.module;
        let invocation = p.invocation;
        let invoke_span = p.invoke_span;
        let mut ctx = ServiceCtx {
            thread: key.thread,
            caller: key.client_troupe,
            invocation,
            now: io.now(),
            me: self.me,
            span: invoke_span,
            metrics: io.metrics(),
            effects: Vec::new(),
        };
        let step = match self.services.get_mut(&module) {
            Some(s) => s.resume(&mut ctx, result),
            None => Step::Error("module vanished".into()),
        };
        self.apply_effects(io, std::mem::take(&mut ctx.effects));
        self.apply_step(io, key, ctx, step);
    }

    /// Sends the reply to every client member heard from, and buffers it
    /// for the rest (§4.3.4).
    fn finish_pending(&mut self, io: &mut dyn NetIo, key: CallKey, reply: Payload) {
        let Some(p) = self.pending.remove(&key) else {
            return;
        };
        self.pending_by_serial.remove(&p.serial);
        self.pending_by_invocation.remove(&p.invocation);
        io.charge_compute(self.config.compute_per_msg); // Externalize reply.
        let span = p.invoke_span.raw();
        let all_answered = p.responders.iter().all(|r| r.is_some());
        for (i, responder) in p.responders.iter().enumerate() {
            if let Some(cn) = responder {
                let to = p.client_members.as_slice()[i];
                self.send_return(io, to, *cn, span, reply.clone());
            }
        }
        if !all_answered {
            self.done.insert(
                key,
                DoneCall {
                    reply,
                    at: io.now(),
                    span,
                },
            );
        }
    }

    /// The assembly timeout fired: proceed without the silent members
    /// ("the client receives notification if any server troupe member
    /// crashes, so it can proceed with those still available", §4.3.1 —
    /// mirrored here on the server side).
    fn assembly_timeout(&mut self, io: &mut dyn NetIo, key: CallKey) {
        let proceed = {
            let Some(p) = self.pending.get_mut(&key) else {
                return;
            };
            if p.state != PendState::Collecting || io.now() < p.deadline {
                return;
            }
            for (i, responder) in p.responders.iter().enumerate() {
                if responder.is_none() {
                    p.args.mark_dead(i);
                }
            }
            true
        };
        if proceed {
            self.try_execute(io, key);
        }
    }

    fn purge_done(&mut self, now: Time) {
        let ttl = self.config.done_ttl;
        self.done.retain(|_, d| now.since(d.at) < ttl);
    }

    // -----------------------------------------------------------------
    // Directory maintenance (§4.3.2).
    // -----------------------------------------------------------------

    fn park_and_lookup(
        &mut self,
        io: &mut dyn NetIo,
        from: SockAddr,
        pm_cn: u32,
        span: u64,
        msg: CallMessage<Payload>,
    ) {
        let troupe = msg.client_troupe;
        self.parked.entry(troupe).or_default().push(Parked {
            from,
            pm_cn,
            span,
            msg,
        });
        if self.lookups_in_flight.contains_key(&troupe) {
            return;
        }
        let Some(binder) = self.binder.clone() else {
            // No binding agent: fail the parked calls.
            self.fail_parked(io, troupe, "client troupe unknown and no binding agent");
            return;
        };
        let thread = self.threads.fresh();
        // Solo call: each member looks the troupe up independently as it
        // needs to, so presenting `my_troupe` here would make the binding
        // agent wait out the assembly timeout for the other members'
        // (never-coming) copies of this lookup.
        let handle = self.begin_call_inner(
            io,
            thread,
            &binder,
            binding::BINDING_MODULE,
            binding::binding_procs::LOOKUP_TROUPE_BY_ID,
            binding::encode_lookup_by_id(troupe),
            CollationPolicy::Majority,
            CallPurpose::DirLookup { troupe },
            TroupeId::UNREGISTERED,
        );
        self.lookups_in_flight.insert(troupe, handle);
    }

    fn finish_lookup(
        &mut self,
        io: &mut dyn NetIo,
        troupe: TroupeId,
        result: Result<Vec<u8>, CallError>,
    ) {
        self.lookups_in_flight.remove(&troupe);
        let members = result
            .ok()
            .and_then(|bytes| binding::decode_lookup_reply(&bytes).ok())
            .flatten();
        match members {
            Some(t) => {
                let addrs: Rc<[SockAddr]> = t.members.iter().map(|m| m.addr).collect();
                self.directory.insert(troupe, addrs);
                let parked = self.parked.remove(&troupe).unwrap_or_default();
                for pk in parked {
                    let key = CallKey {
                        client_troupe: pk.msg.client_troupe,
                        thread: pk.msg.thread,
                        call_seq: pk.msg.call_seq,
                    };
                    // Re-read per call: a parked straggler's rejection
                    // below forgets the directory entry.
                    let members = self.directory.get(&troupe).cloned();
                    let members = Members::Troupe(members.unwrap_or_else(|| Rc::from([])));
                    self.process_call(io, pk.from, pk.pm_cn, pk.span, pk.msg, members, key);
                }
            }
            None => self.fail_parked(io, troupe, "client troupe not registered"),
        }
    }

    fn fail_parked(&mut self, io: &mut dyn NetIo, troupe: TroupeId, why: &str) {
        let parked = self.parked.remove(&troupe).unwrap_or_default();
        let reply = encode(&ReturnMessage::Error(why.to_string()));
        for pk in parked {
            self.send_return(io, pk.from, pk.pm_cn, pk.span, reply.clone());
        }
    }

    // -----------------------------------------------------------------
    // Connections.
    // -----------------------------------------------------------------

    fn conn_mut(&mut self, addr: SockAddr) -> &mut Conn {
        if !self.conns.contains_key(&addr) {
            let id = self.conn_addrs.len() as u64;
            self.conn_addrs.push(addr);
            // Derive a per-connection jitter seed from the endpoint pair
            // so retransmissions of different connections decorrelate
            // deterministically under a fixed simulation seed.
            let mut pm = self.config.pm.clone();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in self
                .me
                .host
                .0
                .to_le_bytes()
                .into_iter()
                .chain(self.me.port.to_le_bytes())
                .chain(addr.host.0.to_le_bytes())
                .chain(addr.port.to_le_bytes())
            {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            pm.jitter_seed ^= h;
            self.conns.insert(
                addr,
                Conn {
                    id,
                    endpoint: Endpoint::new(pm),
                    armed: None,
                    arm_gen: 0,
                },
            );
        }
        self.conns.get_mut(&addr).expect("just inserted")
    }

    fn send_return(
        &mut self,
        io: &mut dyn NetIo,
        to: SockAddr,
        cn: u32,
        span: u64,
        reply: Payload,
    ) {
        let now = io.now();
        let conn = self.conn_mut(to);
        if let Err(too_long) = conn.endpoint.send(now, MsgType::Return, cn, span, reply) {
            // Silence would hang the caller for ever: its call was
            // acknowledged and this member keeps answering its probes. A
            // reply the protocol cannot carry is the procedure's error.
            let error = encode(&ReturnMessage::Error(format!("reply not sent: {too_long}")));
            // A few dozen bytes: this fits whatever a call fitted in.
            let _ = conn.endpoint.send(now, MsgType::Return, cn, span, error);
        }
    }

    /// Transmits queued segments on every connection and re-arms
    /// retransmission timers.
    fn flush_all(&mut self, io: &mut dyn NetIo) {
        let charge_overhead = self.config.charge_overhead;
        for (&addr, conn) in self.conns.iter_mut() {
            let now = io.now();
            while let Some(seg) = conn.endpoint.poll_transmit_segment() {
                let span = seg.header.span;
                io.send_spanned(addr, seg.encode(), span);
            }
            // Re-arm the protocol timer if none is armed or the deadline
            // moved earlier; the generation stamp invalidates the
            // superseded timer.
            let deadline = conn.endpoint.poll_timer();
            if let Some(t) = deadline {
                let need = match conn.armed {
                    None => true,
                    Some(a) => t < a,
                };
                if need {
                    conn.armed = Some(t);
                    conn.arm_gen += 1;
                    let delay = t.since(now);
                    let tag = make_tag(TAG_CONN, ((conn.arm_gen & 0x00FF_FFFF) << 32) | conn.id);
                    if charge_overhead {
                        // The timer package reads the clock to compute the
                        // absolute deadline, masks interrupts around its
                        // queue, and arms the interval timer (§4.2.4).
                        io.charge(Syscall::GetTimeOfDay);
                        io.charge(Syscall::SigBlock);
                        io.charge(Syscall::SetITimer);
                    }
                    let _ = io.set_timer(delay, tag);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pairedmsg::Segment;
    use simnet::HostId;

    /// Minimal in-memory I/O for exercising `Node` without a world.
    struct MockIo {
        now: Time,
        me: SockAddr,
        sent: Vec<(SockAddr, Payload)>,
        timers: Vec<(Duration, u64)>,
    }

    impl MockIo {
        fn new() -> MockIo {
            MockIo {
                now: Time::ZERO,
                me: SockAddr::new(HostId(0), 1),
                sent: Vec::new(),
                timers: Vec::new(),
            }
        }
    }

    impl NetIo for MockIo {
        fn now(&self) -> Time {
            self.now
        }
        fn me(&self) -> SockAddr {
            self.me
        }
        fn send(&mut self, to: SockAddr, bytes: Payload) {
            self.sent.push((to, bytes));
        }
        fn set_timer(&mut self, delay: Duration, tag: u64) -> TimerId {
            self.timers.push((delay, tag));
            TimerId(self.timers.len() as u64 - 1)
        }
        fn charge(&mut self, _sys: Syscall) {}
        fn charge_compute(&mut self, _d: Duration) {}
    }

    fn node() -> Node {
        Node::new(SockAddr::new(HostId(0), 1), NodeConfig::uncharged())
    }

    #[test]
    fn tag_split_round_trips() {
        for kind in [TAG_CONN, TAG_PENDING, TAG_APP] {
            for low in [0u64, 1, 0xFFFF, (1 << 56) - 1] {
                let tag = make_tag(kind, low);
                assert_eq!(split_tag(tag), (kind, low & ((1 << 56) - 1)));
            }
        }
    }

    #[test]
    fn call_to_empty_troupe_fails_immediately() {
        let mut n = node();
        let mut io = MockIo::new();
        let thread = n.fresh_thread();
        let troupe = Troupe::new(TroupeId(1), Vec::new());
        let handle = n.begin_call(
            &mut io,
            thread,
            &troupe,
            1,
            0,
            Vec::new(),
            CollationPolicy::Unanimous,
        );
        match n.poll_event() {
            Some(AppEvent::CallDone { handle: h, result }) => {
                assert_eq!(h, handle);
                assert_eq!(result, Err(CallError::AllMembersDead));
            }
            other => panic!("expected immediate failure, got {other:?}"),
        }
        assert!(io.sent.is_empty());
    }

    /// Marks every member of `troupe` with a live dead-peer marker.
    fn mark_all_dead(n: &mut Node, troupe: &Troupe, until: Time) {
        for m in &troupe.members {
            n.dead_peers.insert(m.addr, until);
        }
    }

    fn troupe_of(n_members: u32) -> Troupe {
        let members: Vec<ModuleAddr> = (1..=n_members)
            .map(|h| ModuleAddr::new(SockAddr::new(HostId(h), 70), 1))
            .collect();
        Troupe::new(TroupeId(9), members)
    }

    /// A call issued while *every* target member is under a live
    /// dead-peer marker must fail immediately with `AllMembersDead`
    /// rather than hang until the markers expire (§3.5.1 degraded mode).
    #[test]
    fn call_with_all_members_dead_fails_immediately() {
        let mut n = node();
        let mut io = MockIo::new();
        let troupe = troupe_of(3);
        mark_all_dead(&mut n, &troupe, Time::ZERO + Duration::from_secs(10));
        let thread = n.fresh_thread();
        let handle = n.begin_call(
            &mut io,
            thread,
            &troupe,
            1,
            0,
            b"x".to_vec(),
            CollationPolicy::Unanimous,
        );
        match n.poll_event() {
            Some(AppEvent::CallDone { handle: h, result }) => {
                assert_eq!(h, handle);
                assert_eq!(result, Err(CallError::AllMembersDead));
            }
            other => panic!("expected immediate failure, got {other:?}"),
        }
        assert!(io.sent.is_empty(), "nothing goes to the wire");
    }

    /// Same fail-fast for the solo path (`begin_call_solo`, §6.4.1's
    /// administrative calls).
    #[test]
    fn solo_call_with_all_members_dead_fails_immediately() {
        let mut n = node();
        let mut io = MockIo::new();
        let troupe = troupe_of(3);
        mark_all_dead(&mut n, &troupe, Time::ZERO + Duration::from_secs(10));
        let thread = n.fresh_thread();
        let handle = n.begin_call_solo(
            &mut io,
            thread,
            &troupe,
            1,
            0,
            b"x".to_vec(),
            CollationPolicy::Unanimous,
        );
        match n.poll_event() {
            Some(AppEvent::CallDone { handle: h, result }) => {
                assert_eq!(h, handle);
                assert_eq!(result, Err(CallError::AllMembersDead));
            }
            other => panic!("expected immediate failure, got {other:?}"),
        }
        assert!(io.sent.is_empty(), "nothing goes to the wire");
    }

    /// An expired marker re-admits the member: the call must go out, not
    /// fail fast (regression guard for the marker-expiry branch).
    #[test]
    fn expired_dead_markers_do_not_fail_calls() {
        let mut n = node();
        let mut io = MockIo::new();
        io.now = Time::ZERO + Duration::from_secs(60);
        let troupe = troupe_of(2);
        mark_all_dead(&mut n, &troupe, Time::ZERO + Duration::from_secs(10));
        let thread = n.fresh_thread();
        n.begin_call(
            &mut io,
            thread,
            &troupe,
            1,
            0,
            b"x".to_vec(),
            CollationPolicy::Unanimous,
        );
        assert_eq!(io.sent.len(), 2, "both members re-admitted");
        assert!(n.dead_peers.is_empty());
    }

    /// A peer's death fails the calls waiting on it in handle order —
    /// the order of their map keys, not of a hasher's seed — and leaves
    /// no route or call bookkeeping behind.
    #[test]
    fn peer_death_fails_its_calls_in_handle_order() {
        let mut n = node();
        let mut io = MockIo::new();
        let troupe = troupe_of(1);
        let peer = troupe.members[0].addr;
        let handles: Vec<CallHandle> = (0..8)
            .map(|_| {
                let thread = n.fresh_thread();
                n.begin_call(
                    &mut io,
                    thread,
                    &troupe,
                    1,
                    0,
                    b"x".to_vec(),
                    CollationPolicy::Unanimous,
                )
            })
            .collect();
        assert_eq!(n.route.len(), 8);
        n.on_peer_dead(&mut io, peer);
        for want in handles {
            match n.poll_event() {
                Some(AppEvent::CallDone { handle, result }) => {
                    assert_eq!(handle, want);
                    assert_eq!(result, Err(CallError::AllMembersDead));
                }
                other => panic!("expected {want:?} to fail next, got {other:?}"),
            }
        }
        assert!(matches!(
            n.poll_event(),
            Some(AppEvent::MemberDead { addr }) if addr == peer
        ));
        assert!(n.route.is_empty() && n.outstanding.is_empty());
    }

    #[test]
    fn call_sends_one_message_per_member() {
        let mut n = node();
        let mut io = MockIo::new();
        let thread = n.fresh_thread();
        let members: Vec<ModuleAddr> = (1..=3)
            .map(|h| ModuleAddr::new(SockAddr::new(HostId(h), 70), 1))
            .collect();
        let troupe = Troupe::new(TroupeId(9), members.clone());
        n.begin_call(
            &mut io,
            thread,
            &troupe,
            1,
            0,
            b"x".to_vec(),
            CollationPolicy::Unanimous,
        );
        assert_eq!(io.sent.len(), 3);
        let dests: Vec<SockAddr> = io.sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(dests, members.iter().map(|m| m.addr).collect::<Vec<_>>());
        // A retransmission timer was armed for each connection.
        assert!(!io.timers.is_empty());
    }

    /// MockIo that records troupe-wide multicasts separately from
    /// unicast sends, so tests can pin the m+n message discipline, and
    /// every datagram's destination and `(call number, segment number)`
    /// in wire order.
    struct McastIo {
        inner: MockIo,
        mcasts: Vec<(Vec<SockAddr>, Payload)>,
        numbers: Vec<(SockAddr, (u32, u8))>,
    }

    impl McastIo {
        fn new() -> McastIo {
            McastIo {
                inner: MockIo::new(),
                mcasts: Vec::new(),
                numbers: Vec::new(),
            }
        }

        fn note(&mut self, to: SockAddr, bytes: &Payload) {
            let h = header(bytes);
            self.numbers.push((to, (h.call_number, h.number)));
        }
    }

    impl NetIo for McastIo {
        fn now(&self) -> Time {
            self.inner.now
        }
        fn me(&self) -> SockAddr {
            self.inner.me
        }
        fn send(&mut self, to: SockAddr, bytes: Payload) {
            self.note(to, &bytes);
            self.inner.sent.push((to, bytes));
        }
        fn multicast_spanned(&mut self, tos: &[SockAddr], bytes: Payload, _span: u64) {
            tos.iter().for_each(|&to| self.note(to, &bytes));
            self.mcasts.push((tos.to_vec(), bytes));
        }
        fn set_timer(&mut self, delay: Duration, tag: u64) -> TimerId {
            self.inner.timers.push((delay, tag));
            TimerId(self.inner.timers.len() as u64 - 1)
        }
        fn charge(&mut self, _sys: Syscall) {}
        fn charge_compute(&mut self, _d: Duration) {}
    }

    fn header(bytes: &Payload) -> pairedmsg::SegmentHeader {
        Segment::decode(bytes).expect("a segment").header
    }

    /// Arguments whose call message is cut into `k` default segments
    /// (the call header fits the slack `k - 1` full segments leave).
    fn args_of(k: usize) -> Vec<u8> {
        vec![7; (k - 1) * pairedmsg::Config::default().max_segment_data + 1]
    }

    /// Begins one `Unanimous` call of `args` to `troupe` on a fresh thread.
    fn call(n: &mut Node, io: &mut McastIo, troupe: &Troupe, args: Vec<u8>) {
        let thread = n.fresh_thread();
        n.begin_call(io, thread, troupe, 1, 0, args, CollationPolicy::Unanimous);
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
        let mut n = node();
        let mut io = McastIo::new();
        let troupe = troupe_of(3);
        // Put the first member one call ahead of the others.
        call(&mut n, &mut io, &troupe_of(1), args_of(1));
        io.inner.sent.clear();

        call(&mut n, &mut io, &troupe, args_of(1));
        assert!(io.mcasts.is_empty(), "a single segment is not shared");
        let sent: Vec<(SockAddr, u32)> = io
            .inner
            .sent
            .iter()
            .map(|(to, bytes)| (*to, header(bytes).call_number))
            .collect();
        let per_member = addrs_of(&troupe).into_iter().zip([2, 1, 1]);
        assert_eq!(sent, per_member.collect::<Vec<_>>());
        io.inner.sent.clear();

        call(&mut n, &mut io, &troupe, args_of(2));
        assert!(io.inner.sent.is_empty(), "no per-member copies");
        assert_eq!(io.mcasts.len(), 2, "two segments, two multicasts");
        for (number, (tos, bytes)) in io.mcasts.iter().enumerate() {
            assert_eq!(tos, &addrs_of(&troupe));
            let h = header(bytes);
            assert_eq!((h.call_number, h.total), (3, 2), "the max of 3, 2, 2");
            assert_eq!(h.number as usize, number + 1);
            assert!(!h.please_ack);
        }
        for addr in addrs_of(&troupe) {
            assert_eq!(n.call_numbers[&addr], 4, "every counter past it");
        }
        // Each connection still runs a retransmission clock, so a
        // straggler gets the unicast fallback.
        assert!(n.conns.values().all(|c| c.armed.is_some()));
        assert_eq!(n.route.len(), 1 + 3 + 3);
    }

    /// A single live target is not worth a multicast, and the PARC
    /// discipline has no blast to share: both stay per member.
    #[test]
    fn one_live_member_or_parc_mode_keeps_bulk_calls_unicast() {
        let troupe = troupe_of(3);
        let mut n = node();
        let mut io = McastIo::new();
        for m in &troupe.members[1..] {
            n.dead_peers
                .insert(m.addr, Time::ZERO + Duration::from_secs(10));
        }
        call(&mut n, &mut io, &troupe, args_of(2));
        assert!(io.mcasts.is_empty());
        let dests: Vec<SockAddr> = io.inner.sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(dests, vec![troupe.members[0].addr; 2], "both segments");

        let parc = NodeConfig {
            pm: pairedmsg::Config::parc(),
            ..NodeConfig::uncharged()
        };
        let mut n = Node::new(SockAddr::new(HostId(0), 1), parc);
        let mut io = McastIo::new();
        call(&mut n, &mut io, &troupe, args_of(3));
        assert!(io.mcasts.is_empty());
        assert_eq!(io.inner.sent.len(), 3, "stop-and-wait: one segment each");
        for (_, bytes) in &io.inner.sent {
            let h = header(bytes);
            assert!(h.number == 1 && h.please_ack);
        }
    }

    /// A call too long for any sender is nobody's to share: it fails
    /// member by member, with nothing on the wire.
    #[test]
    fn oversize_call_fails_without_a_blast() {
        let mut n = node();
        let mut io = McastIo::new();
        call(&mut n, &mut io, &troupe_of(3), args_of(MAX_SEGMENTS + 1));
        assert!(io.mcasts.is_empty() && io.inner.sent.is_empty());
        assert!(matches!(
            n.poll_event(),
            Some(AppEvent::CallDone {
                result: Err(CallError::AllMembersDead),
                ..
            })
        ));
    }

    /// `multicast_small_calls` extends the blast to single segments —
    /// §4.3.3's m+n count on every call.
    #[test]
    fn small_calls_are_multicast_on_request() {
        let config = NodeConfig {
            multicast_small_calls: true,
            ..NodeConfig::uncharged()
        };
        let mut n = Node::new(SockAddr::new(HostId(0), 1), config);
        let mut io = McastIo::new();
        let troupe = troupe_of(3);
        call(&mut n, &mut io, &troupe, b"x".to_vec());
        assert!(io.inner.sent.is_empty(), "no per-member unicast copies");
        assert_eq!(io.mcasts.len(), 1, "one segment, one multicast");
        assert_eq!(io.mcasts[0].0, addrs_of(&troupe));
        assert!(!io.inner.timers.is_empty());
        // One live target still degenerates to the 2-message exchange.
        call(&mut n, &mut io, &troupe_of(1), b"x".to_vec());
        assert_eq!((io.mcasts.len(), io.inner.sent.len()), (1, 1));
    }

    /// The zero-copy contract on the multicast path: a two-segment call
    /// to a five-member troupe encodes each segment exactly once.
    /// Per-member senders adopt a shared handle on the message bytes and
    /// each encoded datagram is refcount-shared across all five
    /// destinations — no per-destination encode, no per-destination copy.
    /// (The encode counter only counts in debug builds.)
    #[test]
    #[cfg(debug_assertions)]
    fn multicast_call_to_five_members_encodes_each_segment_once() {
        let mut n = node();
        let mut io = McastIo::new();
        let before = pairedmsg::segment::encodes();
        call(&mut n, &mut io, &troupe_of(5), args_of(2));
        let encoded = pairedmsg::segment::encodes() - before;
        assert_eq!(io.mcasts.len(), 2);
        assert_eq!(io.mcasts[0].0.len(), 5, "all five members addressed");
        assert_eq!(encoded, 2, "one encode per segment, not per member");
    }

    /// Dead-marked members are excluded from the multicast address list
    /// exactly as they are skipped by the unicast loop, and their
    /// counters stay where they were.
    #[test]
    fn multicast_call_excludes_dead_members() {
        let mut n = node();
        let mut io = McastIo::new();
        let troupe = troupe_of(3);
        let dead = troupe.members[1].addr;
        n.dead_peers
            .insert(dead, Time::ZERO + Duration::from_secs(10));
        let thread = n.fresh_thread();
        let args = args_of(2);
        n.begin_call(
            &mut io,
            thread,
            &troupe,
            1,
            0,
            args,
            CollationPolicy::Majority,
        );
        assert_eq!(io.mcasts.len(), 2);
        for (tos, _) in &io.mcasts {
            assert_eq!(tos, &[troupe.members[0].addr, troupe.members[2].addr]);
        }
        assert!(!n.call_numbers.contains_key(&dead));
        assert_eq!(n.route.len(), 2);
    }

    /// Unicast and multicast calls interleaved over overlapping troupes:
    /// every peer sees strictly increasing call numbers (what the replay
    /// watermark and the `send_call_regressions` audit need), and every
    /// blast reaches all its members under one number.
    #[test]
    fn interleaved_data_planes_never_regress_a_peers_call_number() {
        let mut n = node();
        let mut io = McastIo::new();
        let members = |hosts: std::ops::RangeInclusive<u32>| {
            hosts
                .map(|h| ModuleAddr::new(SockAddr::new(HostId(h), 70), 1))
                .collect()
        };
        let a = Troupe::new(TroupeId(9), members(1..=3));
        let b = Troupe::new(TroupeId(10), members(2..=5));
        let solo = troupe_of(1);
        let script = [
            (&a, 1),
            (&b, 2),
            (&solo, 1),
            (&a, 3),
            (&a, 1),
            (&b, 1),
            (&solo, 2),
            (&b, 2),
            (&a, 2),
        ];
        for (troupe, k) in script {
            let blasts = io.mcasts.len();
            call(&mut n, &mut io, troupe, args_of(k));
            let shared = k > 1 && troupe.members.len() > 1;
            assert_eq!(io.mcasts.len() - blasts, if shared { k } else { 0 });
        }
        // Per peer, (call number, segment number) only ever climbs: a
        // reused number would restart at segment 1.
        let mut last: HashMap<SockAddr, (u32, u8)> = HashMap::new();
        for &(to, at) in &io.numbers {
            let before = last.insert(to, at).unwrap_or((0, 0));
            assert!(at > before, "{to}: {at:?} after {before:?}");
        }
        for conn in n.conns.values() {
            assert_eq!(conn.endpoint.stats().send_call_regressions, 0);
        }
    }

    #[test]
    fn garbage_datagrams_ignored() {
        let mut n = node();
        let mut io = MockIo::new();
        let from = SockAddr::new(HostId(5), 5);
        n.on_datagram(&mut io, from, &b"not a segment!"[..]);
        n.on_datagram(&mut io, from, Payload::empty());
        assert!(n.poll_event().is_none());
    }

    #[test]
    fn unknown_timer_tags_are_harmless() {
        let mut n = node();
        let mut io = MockIo::new();
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
        let mut io = MockIo::new();
        let thread = n.fresh_thread();
        let member = ModuleAddr::new(SockAddr::new(HostId(4), 70), 1);
        let troupe = Troupe::new(TroupeId(33), vec![member]);
        n.begin_call(
            &mut io,
            thread,
            &troupe,
            1,
            0,
            Vec::new(),
            CollationPolicy::Unanimous,
        );
        // Unregistered targets are NOT recorded.
        let thread2 = n.fresh_thread();
        let anon = Troupe::singleton(ModuleAddr::new(SockAddr::new(HostId(5), 70), 1));
        n.begin_call(
            &mut io,
            thread2,
            &anon,
            1,
            0,
            Vec::new(),
            CollationPolicy::Unanimous,
        );
        assert_eq!(
            n.directory.get(&TroupeId(33)).map(|m| &m[..]),
            Some(&[member.addr][..])
        );
        assert!(!n.directory.contains_key(&TroupeId::UNREGISTERED));
    }

    #[test]
    fn set_service_state_reaches_the_service() {
        struct Holder {
            state: Vec<u8>,
        }
        impl Service for Holder {
            fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, _args: &[u8]) -> Step {
                Step::Reply(Vec::new())
            }
            fn set_state(&mut self, state: &[u8]) {
                self.state = state.to_vec();
            }
        }
        let mut n = node();
        n.export(1, Box::new(Holder { state: Vec::new() }));
        n.set_service_state(1, &[1, 2, 3]);
        assert_eq!(n.service_as::<Holder>(1).unwrap().state, vec![1, 2, 3]);
        // Unknown module: silently ignored.
        n.set_service_state(9, &[4]);
    }
}
