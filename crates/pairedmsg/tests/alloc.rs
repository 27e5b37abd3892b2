//! What sending a message allocates, counted. This binary carries its
//! own counting `#[global_allocator]`, which counts per thread (the test
//! harness allocates on its own threads while tests run), so the numbers
//! are exact.
//!
//! A message encoded with [`HEADER_LEN`] bytes of room in front and
//! handed to an endpoint as its only handle goes out with no allocation:
//! its first segment's header is written into that room and the datagram
//! is the front of the message's own buffer. A message some other handle
//! shares is copied into a datagram of its own, one allocation. Either
//! way the bytes on the wire are the same.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pairedmsg::{Config, Endpoint, Event, MsgType, Segment, HEADER_LEN};
use simnet::{Payload, Time};

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

/// A 64-byte message as `circus` encodes one: room for a segment header
/// in front.
fn message() -> Payload {
    Payload::build_with_headroom(HEADER_LEN, 64, |out| out.fill(7))
}

/// A client and a server endpoint that have made `n` exchanges, so their
/// tables and queues hold what a steady call needs.
fn warm(n: u32) -> (Endpoint, Endpoint) {
    let (mut client, mut server) = (
        Endpoint::new(Config::default()),
        Endpoint::new(Config::default()),
    );
    for cn in 1..=n {
        client
            .send(Time::ZERO, MsgType::Call, cn, 0, message())
            .unwrap();
        server
            .on_datagram(Time::ZERO, &client.poll_transmit().unwrap())
            .unwrap();
        assert!(matches!(server.poll_event(), Some(Event::Message { .. })));
        server
            .send(Time::ZERO, MsgType::Return, cn, 0, message())
            .unwrap();
        client
            .on_datagram(Time::ZERO, &server.poll_transmit().unwrap())
            .unwrap();
        assert!(matches!(client.poll_event(), Some(Event::Message { .. })));
    }
    (client, server)
}

/// Sends `msg` as call `cn` and returns the allocations that took, and
/// the datagram.
fn send(client: &mut Endpoint, cn: u32, msg: Payload) -> (u64, Payload) {
    let before = allocations();
    client.send(Time::ZERO, MsgType::Call, cn, 0, msg).unwrap();
    let datagram = client.poll_transmit().expect("one segment queued");
    (allocations() - before, datagram)
}

#[test]
fn a_message_handed_over_whole_is_sent_from_its_own_buffer() {
    let (mut client, _) = warm(3);
    let msg = message();
    let (spent, datagram) = send(&mut client, 4, msg);
    assert_eq!(
        spent, 0,
        "the datagram is the front of the message's buffer"
    );
    let seg = Segment::decode(&datagram).unwrap();
    assert_eq!((seg.header.call_number, seg.header.total), (4, 1));
    assert_eq!(seg.data, message());

    let (mut client, _) = warm(3);
    let msg = message();
    let kept = msg.clone();
    let (spent, copied) = send(&mut client, 4, msg);
    assert_eq!(spent, 1, "a shared message is copied into its datagram");
    assert!(!copied.shares_buffer_with(&kept));
    assert_eq!(copied, datagram, "the same bytes either way");
}

#[test]
fn a_retransmission_leaves_the_first_datagram_as_it_was() {
    let (mut client, _) = warm(3);
    let (_, first) = send(&mut client, 4, message());
    let sent = first.to_vec();
    let due = client
        .poll_timer()
        .expect("the call's retransmission timer");
    client.on_timer(due);
    let again = client.poll_transmit().expect("a retransmission");
    let (h, h0) = (
        Segment::decode(&again).unwrap().header,
        Segment::decode(&first).unwrap().header,
    );
    assert!(h.please_ack && !h0.please_ack);
    assert_eq!(
        first.to_vec(),
        sent,
        "the datagram on the wire is never written again"
    );
    assert!(!again.shares_buffer_with(&first));
    assert_eq!(&again[HEADER_LEN..], &first[HEADER_LEN..]);
}
