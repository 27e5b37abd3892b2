//! What encoding a bulk message allocates, counted. `wire::encode_with`
//! writes every message into one scratch buffer per thread, kept between
//! encodes; a message that knows its encoded length has that much room
//! made at once, so a few bytes written past a large block never double
//! the buffer past the size it keeps. This binary carries its own
//! counting `#[global_allocator]`, which counts per thread, and runs each
//! check on a thread of its own, whose scratch buffer starts empty.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use circus::{CallMessage, ReturnMessage, ThreadId, TroupeId};
use simnet::{HostId, SockAddr};

thread_local! {
    /// Heap allocations made by this thread (`alloc`, `alloc_zeroed` and
    /// `realloc` calls; frees are not counted).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// integer (const-initialised, no destructor, so touching it allocates
// nothing) and cannot affect the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
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

/// The allocations `wire::encode_with` makes encoding `msg` into a sink
/// that allocates nothing, and the length it encoded.
fn encode_counted(msg: &impl wire::Externalize) -> (u64, usize) {
    let before = allocations();
    let len = wire::encode_with(msg, <[u8]>::len);
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
        let member = |h| SockAddr::new(HostId(h), 70);
        let call = CallMessage {
            thread: ThreadId {
                origin: member(9),
                serial: 1,
            },
            call_seq: 1,
            client_troupe: TroupeId(3),
            server_troupe: TroupeId(4),
            module: 1,
            proc: 0,
            args: vec![7u8; 8198],
            members: (1..=3).map(member).collect::<Vec<_>>(),
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
