//! The allocation budget of the steady-state call path — a gate, not a
//! comment. This binary carries its own counting `#[global_allocator]`,
//! which counts per thread (the test harness allocates on its own threads
//! while tests run), so the numbers are exact and repeat per seed.
//!
//! - One n=3 `Unanimous` 64-byte echo call (a single segment, sent per
//!   member) must average at most [`CALL_BUDGET`] heap allocations,
//!   measured over 1 000 calls after a 200-call warm-up, and one 8 KiB
//!   call (six segments each way, the call multicast) at most
//!   [`BULK_CALL_BUDGET`]. The budgets move down, never up, in later PRs.
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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rdp::circus::testbed::{
    addr, agent, agent_mut, enqueue, service, spawn_troupe, world, Caller, CountingService,
    Request, MODULE, PROC_ECHO,
};
use rdp::circus::{
    Agent, CallError, CallHandle, CollationPolicy, NodeBuilder, NodeConfig, NodeCtx, Service,
    ThreadId, Troupe, TroupeId,
};
use rdp::simnet::{DiskConfig, EventQueue, SockAddr, Until, World};
use rdp::transactions::{
    Broadcaster, CmBatch, CmOp, CommitVoterService, CommutativeService, ExecuteRequest, Next,
    ObjId, Op, OrderedApply, OrderedBroadcastService, ProposeAccept, Protocol, TroupeStoreService,
    TxnClient, TxnOutcome, PROC_EXECUTE,
};
use rdp::wire::{from_bytes, to_bytes};

/// Allocations per replicated echo call the call path may spend.
/// Measured: 9.53 — the 11.5 DESIGN.md "Data plane: who allocates what"
/// names one by one, less the two the client itself used to make in the
/// measured window (its arguments and a copy of the troupe; the testbed
/// `Caller`'s requests are queued beforehand). The parent of the PR that
/// introduced this gate spent 133.4; the one before messages were sent
/// from their own buffers, small payloads kept inline and one-caller
/// assemblies given no vectors, 21.5; the one before members called at
/// one call number shared one call datagram, 11.53. One stray `Vec` per
/// call does not fit under it.
const CALL_BUDGET: f64 = 10.03;

/// The same for an 8 KiB echo call: 14.50 measured, as when one member
/// returned in full (every member now returns a part, and only the head
/// is reassembled); 16.51 before two members sent a one-segment digest of
/// the return in place of it (two reassemblies fewer at the client),
/// 43.51 before every first
/// transmission was a window of the message's one framed buffer and a
/// multi-segment receive reused its slot vector, 52.5 before the change
/// that set `CALL_BUDGET` to 12. Sending the call once per member spent
/// eleven more.
const BULK_CALL_BUDGET: f64 = 15.0;

/// Allocations per ordered broadcast (two n=3 calls, an 8-byte payload)
/// by the library `Broadcaster`. Measured: 26.02; 28.03 before it took
/// the fault-safe collations, which every call shares (its lenient
/// propose built a collator per call, and it kept each accept's decoded
/// result), 32.02 before members called at one call number shared one
/// call datagram, 65.0 before small payloads were kept inline and custom
/// collators read their votes in place; the `Broadcaster` that copied
/// the troupe for each call spent two more, the one that also cloned the
/// payload five times per broadcast seven.
const BROADCAST_BUDGET: f64 = 26.52;

/// Allocations per transaction (one `Add` on a durable n=3 store, the
/// client voting through its `ready_to_commit` call-back). Measured:
/// 31.78; 33.78 before members called at one call number shared one call
/// datagram, 59.78 before a commit stopped copying what it keeps (a lock
/// holder map per locked object, the workspace copied into its log
/// record and the record into the retained ones, a fresh frame per log
/// append, a heap-held 2-byte vote and a one-member caller troupe per
/// call-back), 78.8 before the change that set `CALL_BUDGET` to 12.
const COMMIT_BUDGET: f64 = 32.28;

/// Allocations per transaction committed by two library `TxnClient`s
/// contending for one hot object on the same durable store, so that lock
/// waits, their wake-ups and the waits-for probe run as well. Measured:
/// 35.51; 37.51 before members called at one call number shared one call
/// datagram, 75.01 before a commit stopped copying what it keeps (and a
/// waits-for relation that kept a set per waiter spent 1.5 more).
const CONTENDED_COMMIT_BUDGET: f64 = 36.01;

/// Bytes of live heap 20 000 steady-state echo calls may add. Measured:
/// −456 (B-tree nodes come and go); the parent of the PR that introduced
/// this gate grew by 5.2 MB — one doubling of a `Vec` that kept a 40-byte
/// span record, four per call, for ever.
const HEAP_GROWTH_BUDGET: i64 = 16 * 1024;

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
