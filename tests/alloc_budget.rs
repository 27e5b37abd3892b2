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
//!   heap by at most [`HEAP_GROWTH_BUDGET`] bytes in all.
//! - The timer wheel must not allocate at all over a steady-state
//!   pop + insert loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rdp::circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, ModuleAddr, NodeBuilder,
    NodeConfig, NodeCtx, Service, ServiceCtx, Step, ThreadId, Troupe, TroupeId,
};
use rdp::simnet::{HostId, NetConfig, SockAddr, SyscallCosts, TimerWheel, Until, World};

/// Allocations per replicated echo call the call path may spend.
/// Measured: 23.5 (DESIGN.md "Data plane: who allocates what" names each
/// one); the parent of the PR that introduced this gate spent 133.4. One
/// stray `Vec` per call does not fit under it.
const CALL_BUDGET: f64 = 25.0;

/// The same for an 8 KiB echo call: the 54.5 measured, plus 10 %. Sending
/// the call once per member spent 65.5.
const BULK_CALL_BUDGET: f64 = 60.0;

/// Bytes of live heap 20 000 steady-state echo calls may add. Measured:
/// −456 (B-tree nodes come and go); the parent of the PR that introduced
/// this gate grew by 5.2 MB — one doubling of a `Vec` that kept a 40-byte
/// span record, four per call, for ever.
const HEAP_GROWTH_BUDGET: i64 = 16 * 1024;

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

const MODULE: u16 = 1;

struct Echo;

impl Service for Echo {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, args: &[u8]) -> Step {
        Step::Reply(args.to_vec())
    }
}

/// Sequential echo calls; stops issuing once `remaining` reaches zero.
struct EchoClient {
    troupe: Troupe,
    /// Bytes of arguments per call.
    payload: usize,
    thread: Option<ThreadId>,
    remaining: u64,
    completed: u64,
    wrong: u64,
}

impl EchoClient {
    fn call_one(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        let thread = *self.thread.get_or_insert_with(|| nc.fresh_thread());
        let troupe = self.troupe.clone();
        let fill = self.completed as u8;
        nc.call(
            thread,
            &troupe,
            MODULE,
            0,
            vec![fill; self.payload],
            CollationPolicy::Unanimous,
        );
    }
}

impl Agent for EchoClient {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        self.remaining = tag;
        self.call_one(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        let fill = self.completed as u8;
        let right = |r: &Vec<u8>| r.len() == self.payload && r.iter().all(|&b| b == fill);
        if !result.is_ok_and(|r| right(&r)) {
            self.wrong += 1;
        }
        self.completed += 1;
        self.remaining -= 1;
        if self.remaining > 0 {
            self.call_one(nc);
        }
    }
}

/// Runs `calls` more echo calls to completion and returns the number of
/// heap allocations the whole world made meanwhile.
fn run_calls(w: &mut World, client: SockAddr, calls: u64) -> u64 {
    let done = |w: &World| {
        w.with_proc(client, |p: &CircusProcess| {
            p.agent_as::<EchoClient>().map_or(0, |c| c.completed)
        })
        .unwrap_or(0)
    };
    let target = done(w) + calls;
    let before = allocations();
    w.poke(client, calls);
    while done(w) < target {
        assert!(w.step(), "the echo exchange stalled");
    }
    allocations() - before
}

/// Spawns the n=3 echo troupe and its one sequential client, which sends
/// `payload` bytes a call, into `w` and lets the world settle; returns the
/// client's address.
fn spawn_echo_rig(w: &mut World, payload: usize) -> SockAddr {
    let id = TroupeId(4242);
    let members: Vec<SockAddr> = (1..=3).map(|h| SockAddr::new(HostId(h), 70)).collect();
    for &a in &members {
        let p = NodeBuilder::new(a, NodeConfig::default())
            .service(MODULE, Box::new(Echo))
            .troupe_id(id)
            .build()
            .expect("valid member node");
        w.spawn(a, Box::new(p));
    }
    let client = SockAddr::new(HostId(10), 50);
    let agent = EchoClient {
        troupe: Troupe::new(
            id,
            members
                .iter()
                .map(|&a| ModuleAddr::new(a, MODULE))
                .collect(),
        ),
        payload,
        thread: None,
        remaining: 0,
        completed: 0,
        wrong: 0,
    };
    let p = NodeBuilder::new(client, NodeConfig::default())
        .agent(Box::new(agent))
        .build()
        .expect("valid client node");
    w.spawn(client, Box::new(p));
    w.run(Until::Idle);
    client
}

fn assert_every_echo_was_right(w: &World, client: SockAddr) {
    let wrong = w
        .with_proc(client, |p: &CircusProcess| {
            p.agent_as::<EchoClient>().map(|c| c.wrong)
        })
        .flatten();
    assert_eq!(wrong, Some(0), "every echo must return its arguments");
}

/// Holds the steady-state n=3 echo call of `payload` bytes to `budget`
/// allocations.
fn assert_call_allocates_at_most(budget: f64, payload: usize) {
    let mut w = World::new(1985);
    let client = spawn_echo_rig(&mut w, payload);

    run_calls(&mut w, client, 200);
    let spent = run_calls(&mut w, client, 1_000);
    let per_call = spent as f64 / 1_000.0;
    println!("allocations per n=3 {payload}-byte echo call: {per_call:.2}");

    assert_every_echo_was_right(&w, client);
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

#[test]
fn replicated_echo_heap_is_flat() {
    // The 1985 testbed: a call takes ~61 simulated ms, so the 20 000
    // warm-up calls span 20 simulated minutes — past the 60 s replay and
    // done-call TTLs, the span window and every buffer's high-water mark.
    // Whatever still grows after that grows with the number of calls.
    const CALLS: u64 = 20_000;
    let mut w = World::with_config(1985, NetConfig::lan_1985(), SyscallCosts::vax_4_2bsd());
    let client = spawn_echo_rig(&mut w, 64);

    run_calls(&mut w, client, CALLS);
    let warm = live_bytes();
    println!("live heap after {CALLS} echo calls: {warm} bytes");
    for step in 1..=4 {
        run_calls(&mut w, client, CALLS / 4);
        println!(
            "live heap after {} echo calls: {} bytes",
            CALLS + step * CALLS / 4,
            live_bytes()
        );
    }
    let grown = live_bytes() - warm;

    assert_every_echo_was_right(&w, client);
    assert!(
        grown < HEAP_GROWTH_BUDGET,
        "live heap grew by {grown} bytes over {CALLS} calls (budget {HEAP_GROWTH_BUDGET})"
    );
}

#[test]
fn timer_wheel_steady_state_allocates_nothing() {
    // 64 timers pending; each expiry arms a successor a protocol-like
    // distance ahead (retransmit, probe, assembly and TTL horizons), so
    // every level of the wheel is exercised, cascades included.
    const HORIZONS_US: [u64; 4] = [300_000, 2_000_000, 10_000_000, 60_000_000];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut seq = 0u64;
    for i in 0..64 {
        wheel.insert(1 + rnd() % 300_000, seq, i);
        seq += 1;
    }
    let mut turn = |wheel: &mut TimerWheel<u64>, i: u64| {
        let (at, _, item) = wheel.pop().expect("wheel stays primed");
        let ahead = HORIZONS_US[(i % 4) as usize] + rnd() % 1_000;
        wheel.insert(at + ahead, seq, item);
        seq += 1;
    };
    // Warm-up: let the slab and the batch reach their high-water marks.
    for i in 0..10_000 {
        turn(&mut wheel, i);
    }
    let before = allocations();
    for i in 0..100_000 {
        turn(&mut wheel, i);
    }
    assert_eq!(
        allocations() - before,
        0,
        "steady-state pop + insert must not allocate"
    );
}
