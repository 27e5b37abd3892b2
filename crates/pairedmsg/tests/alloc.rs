//! What sending a message allocates, counted. This binary carries its
//! own counting `#[global_allocator]`, which counts per thread (the test
//! harness allocates on its own threads while tests run), so the numbers
//! are exact.
//!
//! A message is framed once (`Config::frame`: room for a header in front
//! of each segment's data) and handed to a sender as its only handle:
//! every segment's initial header is written into its room, and every
//! first transmission, unicast or cut for a multicast, is a window of
//! that one buffer. A peer sent the message afterwards at the same call
//! number finds the same headers there and shares those datagrams; only a
//! datagram whose header differs — another call number, a *please ack*
//! retransmission — is copied. Either way the bytes on the wire are the
//! same.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pairedmsg::{Config, Endpoint, Event, Framed, MsgSender, MsgType, Segment};
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

/// An 8 KiB message: six segments at the default grain.
const BULK: usize = 8 * 1024;

/// A `len`-byte message, framed as `circus` frames one.
fn message(len: usize) -> Framed {
    let bytes: Vec<u8> = (0..len).map(|i| i as u8).collect();
    Config::default().frame(&bytes)
}

/// A client endpoint that has made `n` exchanges of `len`-byte messages
/// with a server of its own, so its tables and queues hold what a steady
/// call of that size needs.
fn warm(n: u32, len: usize) -> Endpoint {
    let mut ends = [
        Endpoint::new(Config::default()),
        Endpoint::new(Config::default()),
    ];
    for cn in 1..=n {
        for (from, msg_type) in [(0, MsgType::Call), (1, MsgType::Return)] {
            let [sender, receiver] = if from == 0 {
                let [a, b] = &mut ends;
                [a, b]
            } else {
                let [a, b] = &mut ends;
                [b, a]
            };
            (sender.send_shared(Time::ZERO, msg_type, cn, 0, &mut message(len))).unwrap();
            while let Some(datagram) = sender.poll_transmit() {
                receiver.on_datagram(Time::ZERO, &datagram).unwrap();
            }
            assert!(matches!(receiver.poll_event(), Some(Event::Message { .. })));
        }
    }
    let [client, _] = ends;
    client
}

/// Drains `endpoint`'s queued datagrams into `out`, which has the room.
fn drain(endpoint: &mut Endpoint, out: &mut Vec<Payload>) {
    while let Some(datagram) = endpoint.poll_transmit() {
        out.push(datagram);
    }
}

/// Every datagram in `sent` is the parent's: `Segment::encode` of its
/// header over the contiguous message.
fn assert_encodes_of(sent: &[Payload], framed: &Framed) {
    for datagram in sent {
        let header = Segment::decode(datagram).unwrap().header;
        let data = framed.data(header.number);
        let seg = Segment { header, data };
        assert_eq!(datagram, &seg.encode(), "segment {}", header.number);
    }
}

#[test]
fn a_six_segment_message_sent_from_its_only_handle_allocates_nothing() {
    let mut client = warm(3, BULK);
    let mut sent = Vec::with_capacity(8);
    let mut framed = message(BULK);
    let before = allocations();
    client
        .send_shared(Time::ZERO, MsgType::Call, 4, 0, &mut framed)
        .unwrap();
    drain(&mut client, &mut sent);
    assert_eq!(allocations() - before, 0, "six windows of the message");
    assert_eq!(sent.len(), 6);
    assert!(sent.iter().all(|d| d.shares_buffer_with(&sent[0])));
    assert_encodes_of(&sent, &framed);
}

/// A multicast cut from the only handle, then adopted by three peers'
/// endpoints, is the same six windows.
#[test]
fn a_six_segment_blast_from_its_only_handle_allocates_nothing() {
    let config = Config::default();
    let mut peers: Vec<Endpoint> = (0..3).map(|_| warm(3, BULK)).collect();
    let mut sent = Vec::with_capacity(8);
    let framed = message(BULK);
    let before = allocations();
    let mut cut = MsgSender::new(Time::ZERO, &config, MsgType::Call, 4, 0, framed).unwrap();
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
/// first handed its only handle, and returns the allocations that took
/// and each peer's datagrams.
fn fan_out(len: usize, call_numbers: [u32; 3]) -> (u64, Vec<Vec<Payload>>, Framed) {
    let mut peers: Vec<Endpoint> = (0..3).map(|_| warm(3, len)).collect();
    let mut sent: Vec<Vec<Payload>> = (0..3).map(|_| Vec::with_capacity(8)).collect();
    let mut framed = message(len);
    let before = allocations();
    for ((peer, out), cn) in peers.iter_mut().zip(&mut sent).zip(call_numbers) {
        (peer.send_shared(Time::ZERO, MsgType::Call, cn, 0, &mut framed)).unwrap();
        drain(peer, out);
    }
    (allocations() - before, sent, framed)
}

#[test]
fn a_fan_out_at_one_call_number_shares_one_datagram_per_segment() {
    for (len, segments) in [(64, 1), (BULK, 6)] {
        let (spent, sent, framed) = fan_out(len, [4, 4, 4]);
        assert_eq!(spent, 0, "{len} bytes to three peers");
        for peer in &sent {
            assert_eq!(peer.len(), segments);
            for (datagram, first) in peer.iter().zip(&sent[0]) {
                assert!(datagram.shares_buffer_with(first));
            }
            assert_encodes_of(peer, &framed);
        }
    }
}

#[test]
fn a_peer_at_another_call_number_copies_its_datagrams() {
    for (len, segments) in [(64, 1), (BULK, 6)] {
        let (spent, sent, framed) = fan_out(len, [4, 5, 4]);
        assert_eq!(spent, segments, "{len} bytes: the second peer copies");
        assert!(!sent[1][0].shares_buffer_with(&sent[0][0]));
        assert!(sent[2][0].shares_buffer_with(&sent[0][0]));
        let (spent, ..) = fan_out(len, [4, 5, 6]);
        assert_eq!(spent, 2 * segments, "{len} bytes: two peers copy");
        for peer in &sent {
            assert_encodes_of(peer, &framed);
        }
    }
}

#[test]
fn a_please_ack_retransmission_copies_one_segment_and_moves_no_datagram() {
    let mut client = warm(3, BULK);
    let mut sent = Vec::with_capacity(8);
    client
        .send_shared(Time::ZERO, MsgType::Call, 4, 0, &mut message(BULK))
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
