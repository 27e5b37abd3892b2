//! What the system allocates, counted — gates, not comments. This is the
//! one binary with a counting `#[global_allocator]`; it counts per thread
//! (the test harness allocates on its own threads while tests run), so
//! the numbers are exact and repeat per seed.
//!
//! - One n=3 `Unanimous` 64-byte echo call (a single segment, sent per
//!   member) must average at most [`CALL_BUDGET`] heap allocations,
//!   measured over 1 000 calls after a 200-call warm-up, and one 8 KiB
//!   call (six segments each way, the call multicast) at most
//!   [`BULK_CALL_BUDGET`]. The budgets move down, never up.
//! - The same call must leave no heap behind: once every TTL window and
//!   high-water mark has been passed, 20 000 more calls may grow the live
//!   heap by at most [`HEAP_GROWTH_BUDGET`] bytes in all. The same holds
//!   for 20 000 ordered broadcasts, 20 000 commutative requests and 20 000
//!   transactions committed on durable members: what a member remembers of
//!   a message, in memory or on disk, is bounded by the number of clients.
//!   And it holds for 20 000 transactions each on a fresh distributed
//!   thread, as a `TxnClient` makes them: what a call runtime remembers
//!   of a thread is bounded too.
//! - One ordered broadcast by the library `Broadcaster` must average at
//!   most [`BROADCAST_BUDGET`] allocations, one transaction committed on
//!   durable members at most [`COMMIT_BUDGET`], and one committed by two
//!   library `TxnClient`s contending for a hot object at most
//!   [`CONTENDED_COMMIT_BUDGET`].
//! - The world's event queue must not allocate at all over a
//!   steady-state pop + insert loop.
//! - A world with no trace sink keeps no spans: what its registry holds
//!   after 20 000 echo calls is within [`NO_SINK_GROWTH_BUDGET`] bytes of
//!   what it holds after 100.
//! - A chaos world retains only the trace its report reads: the last
//!   `chaos::TRACE_SAMPLE` events up to quiesce.
//! - A client's connections cost what they hold: one call to each member
//!   of an n=3 troupe leaves at most [`CONNECTION_HEAP_BUDGET`] bytes at
//!   the client.
//! - A message is framed once (`pairedmsg::Config::frame`) and sent from
//!   its only handle: every first transmission, unicast or cut for a
//!   multicast and adopted by its peers, is a window of that buffer and
//!   allocates nothing, and peers at one call number share its datagrams.
//!   Only a datagram whose header differs — another call number, a
//!   *please ack* retransmission — is copied, once.
//! - `wire::encode_with` writes every message into one scratch buffer per
//!   thread: alternating bulk calls and returns allocate nothing once it
//!   has grown, and a return written past a large block grows it once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rdp::chaos::{run_scenario, ScenarioOptions, Store, TRACE_SAMPLE};
use rdp::circus::testbed::{
    addr, agent, agent_mut, enqueue, node, service, spawn_troupe, world, Caller, CountingService,
    Request, MODULE, PROC_ECHO,
};
use rdp::circus::{
    census, Agent, CallError, CallHandle, CallMessage, CollationPolicy, NodeBuilder, NodeConfig,
    NodeCtx, ReturnMessage, Service, ThreadId, Troupe, TroupeId,
};
use rdp::pairedmsg::{Config, Endpoint, Event, Framed, MsgSender, MsgType, Segment};
use rdp::simnet::{
    DiskConfig, Duration, EventQueue, Payload, SockAddr, Time, TraceEvent, TraceRing, TraceSink,
    Until, World,
};
use rdp::transactions::{
    Broadcaster, CmBatch, CmOp, CommitVoterService, CommutativeService, ExecuteRequest, Next,
    ObjId, Op, OrderedApply, OrderedBroadcastService, ProposeAccept, Protocol, TroupeStoreService,
    TxnClient, TxnOutcome, PROC_EXECUTE,
};
use rdp::wire::{encode_with, from_bytes, to_bytes, Externalize};

/// Allocations per replicated echo call the call path may spend.
/// Measured: 9.01; one stray allocation per call would read 10.01.
const CALL_BUDGET: f64 = 9.51;

/// The same for an 8 KiB echo call. Measured: 14.01; one stray
/// allocation per call would read 15.01.
const BULK_CALL_BUDGET: f64 = 14.51;

/// Allocations per ordered broadcast (two n=3 calls, an 8-byte payload)
/// by the library `Broadcaster`. Measured: 25.01; one stray allocation
/// per broadcast would read 26.01.
const BROADCAST_BUDGET: f64 = 25.51;

/// Allocations per transaction (one `Add` on a durable n=3 store, the
/// client voting through its `ready_to_commit` call-back). Measured:
/// 30.52; one stray allocation per transaction would read 31.52.
const COMMIT_BUDGET: f64 = 31.02;

/// Allocations per transaction committed by two library `TxnClient`s
/// contending for one hot object on the same durable store, so that lock
/// waits, their wake-ups and the waits-for probe run as well. Measured:
/// 34.06; one stray allocation per transaction would read 35.06.
const CONTENDED_COMMIT_BUDGET: f64 = 34.56;

/// Bytes of live heap 20 000 steady-state echo calls may add. Measured:
/// −456 (B-tree nodes come and go); a `Vec` that kept a 40-byte span
/// record, four per call, for ever would grow it by 5.2 MB.
const HEAP_GROWTH_BUDGET: i64 = 16 * 1024;

/// Bytes of heap one n=3 echo member may hold once it has served calls
/// for longer than the 60 s `replay_ttl` (~980 remembered calls), all of
/// it freed when the member is killed. Measured: 14 KiB; a 24-byte record,
/// a 16-byte expiry-queue entry and an audit-set node per remembered call
/// held 62.5 KB.
const MEMBER_HEAP_BUDGET: i64 = 24 * 1024;

/// Bytes a client process may hold, beyond what it held before it called,
/// once it has made one echo call to each member of an n=3 troupe: its
/// connection table (room for eight 424-byte connections), the three
/// connections' tables of messages in flight and what the call runtime
/// keeps of the call. Measured: 9,036. Tables kept as B-trees held 13,492:
/// a 4,768-byte leaf for the connections, a 1,160-byte one per connection
/// for its senders and a 1,424-byte one for the outstanding calls.
const CONNECTION_HEAP_BUDGET: i64 = 10 * 1024;

/// Bytes a world's registry may hold after 20 000 echo calls beyond what
/// it holds after 100, with no trace sink installed. A registry that kept
/// the last 4 096 spans, four per call, held 160 KB more.
const NO_SINK_GROWTH_BUDGET: i64 = 64 * 1024;

thread_local! {
    /// Heap allocations made by this thread (`alloc`, `alloc_zeroed` and
    /// `realloc` calls; frees are not counted).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated less bytes it has freed. A test's
    /// world lives and dies on one thread, so differences of this are its
    /// live-heap growth.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

// `try_with`, not `with`: a thread being torn down may allocate or free
// after its locals are gone, and nobody reads its counters any more.

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn resize(from: usize, to: usize) {
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + to as i64 - from as i64));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// integers (const-initialised, no destructor, so touching them allocates
// nothing) and cannot affect the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        resize(0, layout.size());
        // SAFETY: the caller's `layout` obligations pass through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        resize(0, layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        resize(layout.size(), new_size);
        // SAFETY: `ptr` came from this allocator (i.e. from `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(layout.size(), 0);
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// A closed-loop test client with logic of its own: poked with a number
/// of operations to run, it runs them one at a time, all on one
/// distributed thread unless it says otherwise, and counts the ones done.
/// It keeps no per-operation state, so whatever grows with the run is the
/// system's.
trait ClosedLoop: Agent + 'static {
    fn completed(&self) -> u64;
}

/// Has client `A` at `client` run `calls` more operations to completion
/// and returns the number of heap allocations the whole world made
/// meanwhile.
fn run_calls<A: ClosedLoop>(w: &mut World, client: SockAddr, calls: u64) -> u64 {
    let done = |w: &World| agent(w, client, A::completed);
    let target = done(w) + calls;
    let before = allocations();
    w.poke(client, calls);
    while done(w) < target {
        assert!(w.step(), "the exchange stalled");
    }
    allocations() - before
}

/// Has the testbed `Caller` at `client` make `calls` echo calls of
/// `payload` bytes of `troupe`, back to back on one distributed thread,
/// checks every echo and forgets it (so whatever grows with the run is
/// the system's), and returns the number of heap allocations the whole
/// world made between the first call and the last completion.
fn run_echo_calls(
    w: &mut World,
    client: SockAddr,
    troupe: &Troupe,
    payload: usize,
    calls: u64,
) -> u64 {
    let thread = ThreadId {
        origin: client,
        serial: 1,
    };
    let echo = |i: u64| Request::new(troupe, MODULE, PROC_ECHO, vec![i as u8; payload]).on(thread);
    enqueue(w, client, (0..calls).map(echo));
    let before = allocations();
    w.poke(client, calls - 1);
    while agent(w, client, |c: &Caller| c.completed.len() as u64) < calls {
        assert!(w.step(), "the exchange stalled");
    }
    let spent = allocations() - before;
    agent_mut(w, client, |c: &mut Caller| {
        for (i, done) in c.completed.drain(..).enumerate() {
            let right = vec![i as u8; payload];
            assert_eq!(
                done.result,
                Ok(right),
                "every echo must return its arguments"
            );
        }
    });
    spent
}

/// The three member addresses every rig here spawns its troupe on.
fn member_addrs() -> Vec<SockAddr> {
    (1..=3).map(|h| addr(h, 70)).collect()
}

/// Spawns an n=3 troupe of `service()` members and one client process
/// hosting `agent(troupe)` into `w` and lets the world settle; returns
/// the troupe and the client's address.
fn spawn_rig<S: Service, A: Agent>(
    w: &mut World,
    service: impl FnMut() -> S,
    agent: impl FnOnce(Troupe) -> A,
) -> (Troupe, SockAddr) {
    spawn_rig_exporting(w, service, agent, |client| client)
}

/// [`spawn_rig`] with a client process that `exports` services of its
/// own.
fn spawn_rig_exporting<S: Service, A: Agent>(
    w: &mut World,
    service: impl FnMut() -> S,
    agent: impl FnOnce(Troupe) -> A,
    exports: impl FnOnce(NodeBuilder) -> NodeBuilder,
) -> (Troupe, SockAddr) {
    let config = NodeConfig::default();
    let troupe = spawn_troupe(
        w,
        TroupeId(4242),
        &member_addrs(),
        MODULE,
        &config,
        None,
        service,
    );
    let client = addr(10, 50);
    let p = exports(NodeBuilder::new(client, config))
        .agent(Box::new(agent(troupe.clone())))
        .build()
        .expect("valid client node");
    w.spawn(client, Box::new(p));
    w.run(Until::Idle);
    (troupe, client)
}

/// Spawns the n=3 echo troupe and the testbed's `Caller` as its one
/// client.
fn spawn_echo_rig(w: &mut World) -> (Troupe, SockAddr) {
    spawn_rig(w, CountingService::default, |_| Caller::default())
}

/// Holds the steady-state n=3 echo call of `payload` bytes to `budget`
/// allocations.
fn assert_call_allocates_at_most(budget: f64, payload: usize) {
    let mut w = World::new(1985);
    let (troupe, client) = spawn_echo_rig(&mut w);

    run_echo_calls(&mut w, client, &troupe, payload, 200);
    let spent = run_echo_calls(&mut w, client, &troupe, payload, 1_000);
    let per_call = spent as f64 / 1_000.0;
    println!("allocations per n=3 {payload}-byte echo call: {per_call:.2}");

    assert!(
        per_call <= budget,
        "{per_call:.2} allocations per {payload}-byte call exceeds the budget of {budget}"
    );
}

#[test]
fn replicated_echo_call_stays_within_its_allocation_budget() {
    assert_call_allocates_at_most(CALL_BUDGET, 64);
}

#[test]
fn replicated_bulk_echo_call_stays_within_its_allocation_budget() {
    assert_call_allocates_at_most(BULK_CALL_BUDGET, 8192);
}

// The heap-flat tests run on the 1985 testbed (`world`), where an echo
// call takes ~61 simulated ms, so 20 000 warm-up operations span 20
// simulated minutes or more — past the 60 s replay and done-call TTLs
// and every buffer's high-water mark. Whatever still grows after that
// grows with the number of operations.

/// Warms the rig up with 20 000 operations (`run(w, n)` runs `n` more),
/// runs 20 000 more and holds the live heap's growth over those to
/// [`HEAP_GROWTH_BUDGET`].
fn assert_heap_is_flat(w: &mut World, what: &str, mut run: impl FnMut(&mut World, u64)) {
    const CALLS: u64 = 20_000;
    run(w, CALLS);
    let warm = live_bytes();
    println!("live heap after {CALLS} {what}: {warm} bytes");
    for step in 1..=4 {
        run(w, CALLS / 4);
        println!(
            "live heap after {} {what}: {} bytes",
            CALLS + step * CALLS / 4,
            live_bytes()
        );
    }
    let grown = live_bytes() - warm;
    assert!(
        grown < HEAP_GROWTH_BUDGET,
        "live heap grew by {grown} bytes over {CALLS} {what} (budget {HEAP_GROWTH_BUDGET})"
    );
}

#[test]
fn replicated_echo_heap_is_flat() {
    let mut w = world(1985);
    let (troupe, client) = spawn_echo_rig(&mut w);
    assert_heap_is_flat(&mut w, "echo calls", |w, n| {
        run_echo_calls(w, client, &troupe, 64, n);
    });
}

/// What a member remembers of the calls it served within the last
/// `replay_ttl` (§4.2.4) is runs of call numbers, not a record per call:
/// after 2 000 echo calls, ~122 simulated seconds, the whole member
/// process — freed by killing it — is within [`MEMBER_HEAP_BUDGET`].
#[test]
fn a_member_remembers_a_ttl_of_calls_in_little_heap() {
    let mut w = world(1985);
    let (troupe, client) = spawn_echo_rig(&mut w);
    run_echo_calls(&mut w, client, &troupe, 64, 2_000);
    let member = member_addrs()[0];
    let remembered = node(&w, member, |n| {
        let census = n.census();
        census
            .iter()
            .find(|&&(label, _)| label == census::REPLAY_RECORDS)
            .map(|&(_, n)| n)
    });
    assert!(
        remembered.is_some_and(|n| n > 900),
        "a full replay window: {remembered:?} calls"
    );
    let before = live_bytes();
    w.kill(member);
    let freed = before - live_bytes();
    println!("an echo member remembering {remembered:?} calls held {freed} bytes");
    assert!(
        freed <= MEMBER_HEAP_BUDGET,
        "killing the member freed {freed} bytes (budget {MEMBER_HEAP_BUDGET})"
    );
}

/// A table of connections, or of a connection's messages in flight, costs
/// the entries it has room for, not a B-tree leaf of eleven: what a
/// client holds once it has called each member of an n=3 troupe is within
/// [`CONNECTION_HEAP_BUDGET`] of what it held before.
#[test]
fn a_connection_costs_what_it_holds() {
    // The heap killing the client frees, after `calls` echo calls.
    let held_after = |calls: u64| {
        let mut w = World::new(1985);
        let (troupe, client) = spawn_echo_rig(&mut w);
        if calls > 0 {
            run_echo_calls(&mut w, client, &troupe, 64, calls);
        }
        let before = live_bytes();
        w.kill(client);
        before - live_bytes()
    };
    let connected = held_after(1) - held_after(0);
    println!("one call to each of three members left {connected} bytes at the client");
    assert!(
        connected <= CONNECTION_HEAP_BUDGET,
        "the client's call left {connected} bytes (budget {CONNECTION_HEAP_BUDGET})"
    );
}

/// Runs the echo rig with no trace sink for `calls` echo calls, drops
/// the world and returns the live heap its metrics registry — the handle
/// that outlives it — still holds.
fn registry_heap_after(calls: u64) -> i64 {
    const BATCH: u64 = 100;
    let before = live_bytes();
    let reg = {
        let mut w = world(1985);
        let (troupe, client) = spawn_echo_rig(&mut w);
        for _ in 0..calls / BATCH {
            run_echo_calls(&mut w, client, &troupe, 64, BATCH);
        }
        w.metrics()
    };
    assert_eq!(reg.span_count(), 4 * calls, "a call span, three invokes");
    live_bytes() - before
}

#[test]
fn a_world_with_no_sink_keeps_no_spans() {
    let early = registry_heap_after(100);
    let late = registry_heap_after(20_000);
    println!("registry heap after 100 echo calls: {early} bytes; after 20 000: {late}");
    assert!(
        late - early < NO_SINK_GROWTH_BUDGET,
        "the registry grew by {} bytes from echo call 100 to 20 000 (budget \
         {NO_SINK_GROWTH_BUDGET})",
        late - early
    );
}

/// Every event of a world from its installation on (a second `TraceRing`
/// would hide behind the harness's in `World::trace_sink_as`).
struct Everything(Vec<TraceEvent>);

impl TraceSink for Everything {
    fn record(&mut self, ev: &TraceEvent) {
        self.0.push(ev.clone());
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A chaos world retains only the trace its report reads: the last
/// [`TRACE_SAMPLE`] events up to quiesce. A window of 4 096 held 192 KiB
/// there, a third of the world's heap, of which the report kept the
/// oldest 64. The hash and the count still cover every event.
#[test]
fn a_chaos_world_keeps_only_the_trace_it_reports() {
    let opts = ScenarioOptions::default();
    let report = rdp::chaos::run(&Store, 1, &opts);
    let mut q = run_scenario(1, &opts);
    let window = |w: &World| {
        w.trace_sink_as::<TraceRing>()
            .expect("the harness's ring")
            .events()
    };
    let ring = q
        .world
        .trace_sink_as::<TraceRing>()
        .expect("the harness's ring");
    assert!(ring.seen() > TRACE_SAMPLE as u64, "{} events", ring.seen());
    assert_eq!(
        window(&q.world).len(),
        TRACE_SAMPLE,
        "the window is the sample"
    );
    assert_eq!(report.trace_events, ring.seen());
    assert_eq!(report.trace_hash, ring.hash());
    assert_eq!(
        report.trace_sample,
        window(&q.world),
        "the report keeps all of it"
    );

    // The window is the world's tail: run on past quiesce beside a sink
    // that keeps every event, and the window ends where that stream does.
    let before = window(&q.world);
    q.world.add_trace_sink(Box::new(Everything(Vec::new())));
    q.world
        .run(Until::Elapsed(Duration::from_micros(10_000_000)));
    let after = &q
        .world
        .trace_sink_as::<Everything>()
        .expect("installed above")
        .0;
    assert!(!after.is_empty(), "the world is still running");
    let stream: Vec<TraceEvent> = before.iter().chain(after).cloned().collect();
    assert_eq!(window(&q.world), stream[stream.len() - TRACE_SAMPLE..]);
}

/// The broadcast application: a running sum of the 8-byte payloads.
struct Sum(u64);

impl OrderedApply for Sum {
    fn apply(&mut self, payload: &[u8]) -> Vec<u8> {
        self.0 += from_bytes::<u64>(payload).unwrap_or(0);
        to_bytes(&self.0)
    }
}

/// First message id [`BroadcastLoop`] mints.
const FIRST_MSG_ID: u64 = 1_000;

/// Sequential ordered broadcasts by the library's [`ProposeAccept`], all
/// on one distributed thread, the `k`th carrying `FIRST_MSG_ID + k` as
/// its payload.
struct BroadcastLoop {
    troupe: Troupe,
    thread: Option<ThreadId>,
    proto: ProposeAccept,
    payload: Vec<u8>,
    done: u64,
    remaining: u64,
    wrong: u64,
}

impl BroadcastLoop {
    fn broadcast_next(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        self.proto.start();
        self.payload = to_bytes(&(FIRST_MSG_ID + self.done));
        self.send(nc);
    }

    fn send(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        let thread = *self.thread.get_or_insert_with(|| nc.fresh_thread());
        let (proc, args, collation) = self.proto.request(&self.payload);
        nc.call(thread, &self.troupe, MODULE, proc, args, collation);
    }
}

impl Agent for BroadcastLoop {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        self.remaining = tag;
        self.broadcast_next(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        match self.proto.reply(result) {
            Next::Again => return self.send(nc),
            // The protocol's ledger of confirmed ids would grow with the
            // run; the loop forgets it.
            Next::Confirmed => self.proto.results.clear(),
            _ => self.wrong += 1,
        }
        self.done += 1;
        self.remaining -= 1;
        if self.remaining > 0 {
            self.broadcast_next(nc);
        }
    }
}

impl ClosedLoop for BroadcastLoop {
    fn completed(&self) -> u64 {
        self.done
    }
}

#[test]
fn ordered_broadcast_heap_is_flat() {
    let mut w = world(1985);
    let (_, client) = spawn_rig(
        &mut w,
        || OrderedBroadcastService::new(Sum(0)),
        |troupe| BroadcastLoop {
            troupe,
            thread: None,
            proto: ProposeAccept::new(FIRST_MSG_ID),
            payload: Vec::new(),
            done: 0,
            remaining: 0,
            wrong: 0,
        },
    );
    assert_heap_is_flat(&mut w, "ordered broadcasts", |w, n| {
        run_calls::<BroadcastLoop>(w, client, n);
    });

    // Let the last exchange settle, then: everything applied, nothing
    // remembered per message.
    w.run(Until::Idle);
    let (done, wrong) = agent(&w, client, |c: &BroadcastLoop| (c.completed(), c.wrong));
    assert_eq!((done, wrong), (40_000, 0));
    let sum: u64 = (FIRST_MSG_ID..FIRST_MSG_ID + done).sum();
    for a in member_addrs() {
        let view = service(&w, a, MODULE, |s: &OrderedBroadcastService<Sum>| {
            (
                s.applied_order.len() as u64,
                s.app().0,
                s.id_ranges(),
                s.retry_cache_len(),
                s.queue_len(),
            )
        });
        assert_eq!(view, (done, sum, 1, 1, 0), "member {a}");
    }
}

/// Sequential commutative requests by the library's [`CmBatch`], all on
/// one distributed thread: one counter increment each.
struct CommuteLoop {
    troupe: Troupe,
    thread: Option<ThreadId>,
    proto: CmBatch,
    ops: Vec<CmOp>,
    done: u64,
    remaining: u64,
    wrong: u64,
}

impl CommuteLoop {
    fn submit(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        let thread = *self.thread.get_or_insert_with(|| nc.fresh_thread());
        self.proto.start();
        let (proc, args, collation) = self.proto.request(&self.ops);
        nc.call(thread, &self.troupe, MODULE, proc, args, collation);
    }
}

impl Agent for CommuteLoop {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        self.remaining = tag;
        self.submit(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        match self.proto.reply(result) {
            // As for the broadcast loop: forget the confirmed ids.
            Next::Confirmed => self.proto.confirmed.clear(),
            _ => self.wrong += 1,
        }
        self.done += 1;
        self.remaining -= 1;
        if self.remaining > 0 {
            self.submit(nc);
        }
    }
}

impl ClosedLoop for CommuteLoop {
    fn completed(&self) -> u64 {
        self.done
    }
}

#[test]
fn commutative_heap_is_flat() {
    let mut w = world(1985);
    let (_, client) = spawn_rig(&mut w, CommutativeService::new, |troupe| CommuteLoop {
        troupe,
        thread: None,
        proto: CmBatch::new(0),
        ops: vec![CmOp::Incr(ObjId(1), 1)],
        done: 0,
        remaining: 0,
        wrong: 0,
    });
    assert_heap_is_flat(&mut w, "commutative requests", |w, n| {
        run_calls::<CommuteLoop>(w, client, n);
    });

    assert_eq!(agent(&w, client, |c: &CommuteLoop| c.wrong), 0);
    for a in member_addrs() {
        let view = service(&w, a, MODULE, |s: &CommutativeService| {
            (s.counter(ObjId(1)), s.applied(), s.id_ranges())
        });
        assert_eq!(view, (40_000, 40_000, 1), "member {a}");
    }
}

/// Module number of the `ready_to_commit` voter at [`CommitLoop`]'s
/// process.
const COMMIT_MODULE: u16 = 2;

/// Sequential transactions, each adding 1 to one object: the `n`th
/// under nonce `n`, as a `TxnClient` mints them — and, with
/// `fresh_threads`, each on a thread of its own, as a `TxnClient` makes
/// them. The members' `ready_to_commit` call-backs then run on a fresh
/// thread each too.
struct CommitLoop {
    troupe: Troupe,
    thread: Option<ThreadId>,
    fresh_threads: bool,
    nonce: u64,
    remaining: u64,
    wrong: u64,
}

impl CommitLoop {
    fn submit(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        if self.fresh_threads {
            self.thread = None;
        }
        let thread = *self.thread.get_or_insert_with(|| nc.fresh_thread());
        let req = ExecuteRequest {
            nonce: self.nonce + 1,
            ops: vec![Op::Add(ObjId(1), 1)],
        };
        nc.call(
            thread,
            &self.troupe,
            MODULE,
            PROC_EXECUTE,
            to_bytes(&req),
            CollationPolicy::Unanimous,
        );
    }
}

impl Agent for CommitLoop {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        self.remaining = tag;
        self.submit(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        let outcome = result.ok().and_then(|b| from_bytes::<TxnOutcome>(&b).ok());
        if !matches!(outcome, Some(TxnOutcome::Committed(_))) {
            self.wrong += 1;
        }
        self.nonce += 1;
        self.remaining -= 1;
        if self.remaining > 0 {
            self.submit(nc);
        }
    }
}

impl ClosedLoop for CommitLoop {
    fn completed(&self) -> u64 {
        self.nonce
    }
}

/// Spawns an n=3 troupe of durable store members, a disk each, and one
/// client process running a [`CommitLoop`] (each transaction on a fresh
/// thread if `fresh_threads`) that exports the `ready_to_commit` voter;
/// returns the client's address.
fn spawn_commit_rig(w: &mut World, fresh_threads: bool) -> SockAddr {
    let disks: Vec<_> = member_addrs()
        .iter()
        .map(|a| w.install_disk(a.host, DiskConfig::faultless()))
        .collect();
    let mut disks = disks.into_iter();
    let (_, client) = spawn_rig_exporting(
        w,
        || {
            let disk = disks.next().expect("one disk per member");
            TroupeStoreService::with_durability(COMMIT_MODULE, disk, 64)
        },
        |troupe| CommitLoop {
            troupe,
            thread: None,
            fresh_threads,
            nonce: 0,
            remaining: 0,
            wrong: 0,
        },
        |client| client.service(COMMIT_MODULE, Box::new(CommitVoterService)),
    );
    client
}

/// Holds 20 000 durable commits, after 20 000 more warm the rig up, to
/// [`HEAP_GROWTH_BUDGET`], each on a fresh thread if `fresh_threads`.
fn assert_commit_store_heap_is_flat(fresh_threads: bool) {
    let mut w = world(1985);
    let client = spawn_commit_rig(&mut w, fresh_threads);
    assert_heap_is_flat(&mut w, "durable commits", |w, n| {
        run_calls::<CommitLoop>(w, client, n);
    });

    // Everything committed everywhere, in one range per client.
    let (done, wrong) = agent(&w, client, |c: &CommitLoop| (c.completed(), c.wrong));
    assert_eq!((done, wrong), (40_000, 0));
    for a in member_addrs() {
        let view = service(&w, a, MODULE, |s: &TroupeStoreService| {
            (
                s.tm().store().read_committed(ObjId(1)) as u64,
                s.ledger().len(),
                s.ledger().range_count(),
            )
        });
        assert_eq!(view, (done, done, 1), "member {a}");
    }
}

#[test]
fn commit_store_heap_is_flat() {
    assert_commit_store_heap_is_flat(false);
}

/// Each submission on a fresh thread: the client calls once on each, and
/// each member calls back once on each. The call runtime that kept an
/// entry per thread it ever called on grew by hundreds of kilobytes here.
#[test]
fn commit_store_heap_is_flat_on_fresh_threads() {
    assert_commit_store_heap_is_flat(true);
}

#[test]
fn durable_commit_stays_within_its_allocation_budget() {
    let mut w = World::new(1985);
    let client = spawn_commit_rig(&mut w, false);
    run_calls::<CommitLoop>(&mut w, client, 200);
    let per_commit = run_calls::<CommitLoop>(&mut w, client, 1_000) as f64 / 1_000.0;
    println!("allocations per n=3 durable commit: {per_commit:.2}");
    assert!(
        per_commit <= COMMIT_BUDGET,
        "{per_commit:.2} allocations per commit exceeds the budget of {COMMIT_BUDGET}"
    );
    assert_eq!(agent(&w, client, |c: &CommitLoop| c.wrong), 0);
}

/// Transactions each client of the contended rig runs before the
/// measured window, and in it.
const CONTENDED_WARM: u64 = 100;
const CONTENDED_TIMED: u64 = 500;

/// Two library `TxnClient`s, each with a script of transactions that add
/// 1 to the hot object and 1 to one of sixteen others, against the
/// durable n=3 store: whichever reaches the hot object second waits for
/// its lock, is re-run by `wake` through `StepFor` once the first
/// commits, and asks the waits-for graph whether waiting deadlocks.
/// Returns the allocations per committed transaction over the window.
fn contended_commit_allocations(w: &mut World) -> f64 {
    let disks: Vec<_> = member_addrs()
        .iter()
        .map(|a| w.install_disk(a.host, DiskConfig::faultless()))
        .collect();
    let mut disks = disks.into_iter();
    let config = NodeConfig::default();
    let troupe = spawn_troupe(
        w,
        TroupeId(4242),
        &member_addrs(),
        MODULE,
        &config,
        None,
        || {
            let disk = disks.next().expect("one disk per member");
            TroupeStoreService::with_durability(COMMIT_MODULE, disk, 64)
        },
    );
    let len = 2 * (CONTENDED_WARM + CONTENDED_TIMED);
    let clients = [addr(10, 50), addr(11, 50)];
    for (c, &client) in clients.iter().enumerate() {
        let script = (0..len)
            .map(|i| {
                vec![
                    Op::Add(ObjId(1), 1),
                    Op::Add(ObjId(100 + (i + c as u64) % 16), 1),
                ]
            })
            .collect();
        let p = NodeBuilder::new(client, config.clone())
            .service(COMMIT_MODULE, Box::new(CommitVoterService))
            .agent(Box::new(TxnClient::new(troupe.clone(), MODULE, script)))
            .build()
            .expect("valid client node");
        w.spawn(client, Box::new(p));
    }
    w.run(Until::Idle);
    let committed = |w: &World| -> u64 {
        let of = |&c: &SockAddr| agent(w, c, |t: &TxnClient| t.committed.len() as u64);
        clients.iter().map(of).sum()
    };
    for &client in &clients {
        w.poke(client, 0);
    }
    let run_to = |w: &mut World, total: u64| {
        while committed(w) < total {
            assert!(w.step(), "the transactions stalled");
        }
    };
    run_to(w, 2 * CONTENDED_WARM);
    let (before, from) = (allocations(), committed(w));
    run_to(w, 2 * (CONTENDED_WARM + CONTENDED_TIMED));
    let per_commit = (allocations() - before) as f64 / (committed(w) - from) as f64;
    for &client in &clients {
        let errors = agent(w, client, |t: &TxnClient| t.errors.clone());
        assert!(errors.is_empty(), "client {client}: {errors:?}");
    }
    per_commit
}

#[test]
fn contended_commit_stays_within_its_allocation_budget() {
    let mut w = World::new(1985);
    let per_commit = contended_commit_allocations(&mut w);
    println!("allocations per contended n=3 durable commit: {per_commit:.2}");
    assert!(
        per_commit <= CONTENDED_COMMIT_BUDGET,
        "{per_commit:.2} allocations per contended commit exceeds the budget of {CONTENDED_COMMIT_BUDGET}"
    );
}

#[test]
fn library_broadcaster_stays_within_its_allocation_budget() {
    const WARM: u64 = 200;
    const TIMED: u64 = 1_000;
    let mut w = World::new(1985);
    let script = (0..WARM + TIMED).map(|i| to_bytes(&i)).collect();
    let (_, client) = spawn_rig(
        &mut w,
        || OrderedBroadcastService::new(Sum(0)),
        |troupe| Broadcaster::new(troupe, MODULE, FIRST_MSG_ID, script),
    );
    let done = |w: &World| agent(w, client, |b: &Broadcaster| b.results.len() as u64);
    w.poke(client, 0);
    while done(&w) < WARM {
        assert!(w.step(), "the broadcasts stalled");
    }
    let before = allocations();
    while done(&w) < WARM + TIMED {
        assert!(w.step(), "the broadcasts stalled");
    }
    let per_broadcast = (allocations() - before) as f64 / TIMED as f64;
    println!("allocations per n=3 ordered broadcast: {per_broadcast:.2}");
    assert!(
        per_broadcast <= BROADCAST_BUDGET,
        "{per_broadcast:.2} allocations per broadcast exceeds the budget of {BROADCAST_BUDGET}"
    );
}

#[test]
fn event_queue_steady_state_allocates_nothing() {
    // 64 timers pending; each expiry arms a successor a protocol-like
    // distance ahead (retransmit, probe, assembly and TTL horizons).
    const HORIZONS_US: [u64; 4] = [300_000, 2_000_000, 10_000_000, 60_000_000];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut seq = 0u64;
    for i in 0..64 {
        queue.insert(1 + rnd() % 300_000, seq, i);
        seq += 1;
    }
    let mut turn = |queue: &mut EventQueue<u64>, i: u64| {
        let (at, _, item) = queue.pop().expect("queue stays primed");
        let ahead = HORIZONS_US[(i % 4) as usize] + rnd() % 1_000;
        queue.insert(at + ahead, seq, item);
        seq += 1;
    };
    // Warm-up: let the heap's buffer reach its high-water mark.
    for i in 0..10_000 {
        turn(&mut queue, i);
    }
    let before = allocations();
    for i in 0..100_000 {
        turn(&mut queue, i);
    }
    assert_eq!(
        allocations() - before,
        0,
        "steady-state pop + insert must not allocate"
    );
}

/// An 8 KiB message: six segments at the default grain.
const BULK: usize = 8 * 1024;

/// A `len`-byte message, framed as `circus` frames one.
fn framed(len: usize) -> Framed {
    let bytes: Vec<u8> = (0..len).map(|i| i as u8).collect();
    Config::default().frame(&bytes)
}

/// A client endpoint that has made `n` exchanges of `len`-byte messages
/// with a server of its own, so its tables and queues hold what a steady
/// call of that size needs.
fn warm_endpoint(n: u32, len: usize) -> Endpoint {
    fn deliver(from: &mut Endpoint, to: &mut Endpoint, msg_type: MsgType, cn: u32, len: usize) {
        from.send_shared(Time::ZERO, msg_type, cn, 0, &mut framed(len))
            .unwrap();
        while let Some(datagram) = from.poll_transmit() {
            to.on_datagram(Time::ZERO, &datagram).unwrap();
        }
        assert!(matches!(to.poll_event(), Some(Event::Message { .. })));
    }
    let [mut client, mut server] = [(); 2].map(|_| Endpoint::new(Config::default()));
    for cn in 1..=n {
        deliver(&mut client, &mut server, MsgType::Call, cn, len);
        deliver(&mut server, &mut client, MsgType::Return, cn, len);
    }
    client
}

/// Drains `endpoint`'s queued datagrams into `out`, which has the room.
fn drain(endpoint: &mut Endpoint, out: &mut Vec<Payload>) {
    while let Some(datagram) = endpoint.poll_transmit() {
        out.push(datagram);
    }
}

/// Every datagram in `sent` is the message's: `Segment::encode` of its
/// header over the contiguous message.
fn assert_encodes_of(sent: &[Payload], message: &Framed) {
    for datagram in sent {
        let header = Segment::decode(datagram).unwrap().header;
        let data = message.data(header.number);
        let seg = Segment { header, data };
        assert_eq!(datagram, &seg.encode(), "segment {}", header.number);
    }
}

#[test]
fn a_six_segment_message_sent_from_its_only_handle_allocates_nothing() {
    let mut client = warm_endpoint(3, BULK);
    let mut sent = Vec::with_capacity(8);
    let mut message = framed(BULK);
    let before = allocations();
    client
        .send_shared(Time::ZERO, MsgType::Call, 4, 0, &mut message)
        .unwrap();
    drain(&mut client, &mut sent);
    assert_eq!(allocations() - before, 0, "six windows of the message");
    assert_eq!(sent.len(), 6);
    assert!(sent.iter().all(|d| d.shares_buffer_with(&sent[0])));
    assert_encodes_of(&sent, &message);
}

/// A multicast cut from the only handle, then adopted by three peers'
/// endpoints, is the same six windows.
#[test]
fn a_six_segment_blast_from_its_only_handle_allocates_nothing() {
    let config = Config::default();
    let mut peers: Vec<Endpoint> = (0..3).map(|_| warm_endpoint(3, BULK)).collect();
    let mut sent = Vec::with_capacity(8);
    let message = framed(BULK);
    let before = allocations();
    let mut cut = MsgSender::new(Time::ZERO, &config, MsgType::Call, 4, 0, message).unwrap();
    sent.extend(cut.initial_datagrams());
    for peer in &mut peers {
        let message = cut.framed().clone();
        peer.adopt(Time::ZERO, MsgType::Call, 4, 0, message)
            .unwrap();
        drain(peer, &mut sent);
    }
    assert_eq!(allocations() - before, 0, "six windows of the message");
    assert_eq!(sent.len(), 6, "the peers queue nothing of their own");
    assert!(sent.iter().all(|d| d.shares_buffer_with(&sent[0])));
    assert_encodes_of(&sent, cut.framed());
}

/// Sends one framed message to three warm peers at `call_numbers`, the
/// first handed its only handle, and returns the allocations that took,
/// each peer's datagrams and the message.
fn fan_out(len: usize, call_numbers: [u32; 3]) -> (u64, Vec<Vec<Payload>>, Framed) {
    let mut peers: Vec<Endpoint> = (0..3).map(|_| warm_endpoint(3, len)).collect();
    let mut sent: Vec<Vec<Payload>> = (0..3).map(|_| Vec::with_capacity(8)).collect();
    let mut message = framed(len);
    let before = allocations();
    for ((peer, out), cn) in peers.iter_mut().zip(&mut sent).zip(call_numbers) {
        peer.send_shared(Time::ZERO, MsgType::Call, cn, 0, &mut message)
            .unwrap();
        drain(peer, out);
    }
    (allocations() - before, sent, message)
}

#[test]
fn a_fan_out_at_one_call_number_shares_one_datagram_per_segment() {
    for (len, segments) in [(64, 1), (BULK, 6)] {
        let (spent, sent, message) = fan_out(len, [4, 4, 4]);
        assert_eq!(spent, 0, "{len} bytes to three peers");
        for peer in &sent {
            assert_eq!(peer.len(), segments);
            for (datagram, first) in peer.iter().zip(&sent[0]) {
                assert!(datagram.shares_buffer_with(first));
            }
            assert_encodes_of(peer, &message);
        }
    }
}

#[test]
fn a_peer_at_another_call_number_copies_its_datagrams() {
    for (len, segments) in [(64, 1), (BULK, 6)] {
        let (spent, sent, message) = fan_out(len, [4, 5, 4]);
        assert_eq!(spent, segments, "{len} bytes: the second peer copies");
        assert!(!sent[1][0].shares_buffer_with(&sent[0][0]));
        assert!(sent[2][0].shares_buffer_with(&sent[0][0]));
        let (spent, ..) = fan_out(len, [4, 5, 6]);
        assert_eq!(spent, 2 * segments, "{len} bytes: two peers copy");
        for peer in &sent {
            assert_encodes_of(peer, &message);
        }
    }
}

#[test]
fn a_please_ack_retransmission_copies_one_segment_and_moves_no_datagram() {
    let mut client = warm_endpoint(3, BULK);
    let mut sent = Vec::with_capacity(8);
    client
        .send_shared(Time::ZERO, MsgType::Call, 4, 0, &mut framed(BULK))
        .unwrap();
    drain(&mut client, &mut sent);
    let bytes: Vec<Vec<u8>> = sent.iter().map(|d| d.to_vec()).collect();

    let due = client
        .poll_timer()
        .expect("the call's retransmission timer");
    let before = allocations();
    client.on_timer(due);
    let again = client.poll_transmit().expect("a retransmission");
    assert_eq!(allocations() - before, 1, "one segment copied");
    assert!(client.poll_transmit().is_none());

    let (h, h0) = (
        Segment::decode(&again).unwrap().header,
        Segment::decode(&sent[0]).unwrap().header,
    );
    assert!(h.please_ack && !h0.please_ack && h.number == 1);
    assert!(!again.shares_buffer_with(&sent[0]));
    let control_bits_aside = |d: &Payload| (d[0], d[2..].to_vec());
    assert_eq!(control_bits_aside(&again), control_bits_aside(&sent[0]));
    let now: Vec<Vec<u8>> = sent.iter().map(|d| d.to_vec()).collect();
    assert_eq!(now, bytes, "a datagram on the wire is never written again");
}

/// The allocations `wire::encode_with` makes encoding `msg` into a sink
/// that allocates nothing, and the length it encoded.
fn encode_counted(msg: &impl Externalize) -> (u64, usize) {
    let before = allocations();
    let len = encode_with(msg, <[u8]>::len);
    (allocations() - before, len)
}

/// Runs `check` on a fresh thread: its scratch buffer starts empty.
fn on_a_fresh_thread(check: impl FnOnce() + Send + 'static) {
    std::thread::spawn(check).join().expect("the check passes");
}

/// An 8 KiB echo's return (8,198 bytes) and a call naming three members
/// (8,254), one after the other, as a server member that calls onward
/// encodes them: after the first pair, neither allocates or grows the
/// scratch buffer again.
#[test]
fn alternating_bulk_returns_and_calls_reuse_the_scratch_buffer() {
    on_a_fresh_thread(|| {
        let call = CallMessage {
            thread: ThreadId {
                origin: addr(9, 70),
                serial: 1,
            },
            call_seq: 1,
            client_troupe: TroupeId(3),
            server_troupe: TroupeId(4),
            module: 1,
            proc: 0,
            args: vec![7u8; 8198],
            members: member_addrs(),
        };
        let reply = ReturnMessage::Normal(vec![7u8; 8192]);
        let (_, call_len) = encode_counted(&call);
        let (_, reply_len) = encode_counted(&reply);
        assert_eq!((reply_len, call_len), (8198, 8254));
        for pair in 0..100 {
            let (reply_allocs, _) = encode_counted(&reply);
            let (call_allocs, _) = encode_counted(&call);
            assert_eq!((reply_allocs, call_allocs), (0, 0), "pair {pair}");
        }
    });
}

/// A return whose last bytes come after a large block — the pad of an
/// odd-length result, or of a part's bytes — is written into room made
/// for all of it at once: one allocation, from an empty scratch buffer,
/// not one and two doublings.
#[test]
fn a_return_written_past_a_large_block_grows_the_scratch_once() {
    on_a_fresh_thread(|| {
        let normal = ReturnMessage::Normal(vec![1u8; 8191]);
        assert_eq!(encode_counted(&normal), (1, 8198));
    });
    on_a_fresh_thread(|| {
        let part = ReturnMessage::Part {
            digest: 7,
            bytes: vec![1u8; 8191],
        };
        assert_eq!(encode_counted(&part), (1, 8206));
    });
}
