//! The allocation budget of the steady-state call path — a gate, not a
//! comment. This binary carries its own counting `#[global_allocator]`,
//! which counts per thread (the test harness allocates on its own threads
//! while tests run), so the numbers are exact and repeat per seed.
//!
//! - One n=3 unicast `Unanimous` 64-byte echo call must average at most
//!   [`CALL_BUDGET`] heap allocations, measured over 1 000 calls after a
//!   200-call warm-up. The budget moves down, never up, in later PRs.
//! - The timer wheel must not allocate at all over a steady-state
//!   pop + insert loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rdp::circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, ModuleAddr, NodeBuilder,
    NodeConfig, NodeCtx, Service, ServiceCtx, Step, ThreadId, Troupe, TroupeId,
};
use rdp::simnet::{HostId, SockAddr, TimerWheel, Until, World};

/// Allocations per replicated echo call the call path may spend.
/// Measured: 23.5 (DESIGN.md "Data plane: who allocates what" names each
/// one); the parent of the PR that introduced this gate spent 133.4.
const CALL_BUDGET: f64 = 28.0;

thread_local! {
    /// Heap allocations made by this thread (`alloc`, `alloc_zeroed` and
    /// `realloc` calls; frees are not counted).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down may allocate after its locals are gone;
    // nobody reads its count any more.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// integer (const-initialised, no destructor, so touching it allocates
// nothing) and cannot affect the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator (i.e. from `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const MODULE: u16 = 1;
const PAYLOAD: usize = 64;

struct Echo;

impl Service for Echo {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, args: &[u8]) -> Step {
        Step::Reply(args.to_vec())
    }
}

/// Sequential echo calls; stops issuing once `remaining` reaches zero.
struct EchoClient {
    troupe: Troupe,
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
            vec![fill; PAYLOAD],
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
        if result.as_deref() != Ok(&[fill; PAYLOAD][..]) {
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

#[test]
fn replicated_echo_call_stays_within_its_allocation_budget() {
    let mut w = World::new(1985);
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

    run_calls(&mut w, client, 200);
    let spent = run_calls(&mut w, client, 1_000);
    let per_call = spent as f64 / 1_000.0;
    println!("allocations per n=3 64-byte echo call: {per_call:.2}");

    let wrong = w
        .with_proc(client, |p: &CircusProcess| {
            p.agent_as::<EchoClient>().map(|c| c.wrong)
        })
        .flatten();
    assert_eq!(wrong, Some(0), "every echo must return its arguments");
    assert!(
        per_call <= CALL_BUDGET,
        "{per_call:.2} allocations per call exceeds the budget of {CALL_BUDGET}"
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
