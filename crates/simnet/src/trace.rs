//! Structured event tracing for the simulated world: the one stream the
//! system emits about itself.
//!
//! Every observable state transition in the simulator — a datagram handed
//! to the network (with its first [`HEAD_LEN`] bytes: a paired-message
//! segment's whole §4.2 header), a delivery, a drop (with its reason), a
//! port-unreachable notice delivered, a timer firing, a process
//! spawn/kill, a host crash/restart, a causal span minted — is reported
//! to every [`TraceSink`] installed on the [`World`](crate::World).
//! Because the simulation is deterministic, the sequence of
//! [`TraceEvent`]s is a pure function of the seed and the workload;
//! [`TraceRing`] folds it into a single value so "same seed ⇒ same trace"
//! becomes a one-line assertion, keeps as many of the latest events as it
//! is asked to for inspection, and builds the span forest over the ones
//! it kept.

use std::any::Any;

use obs::{Registry, SpanId, SpanRecord, SpanTree};

use crate::ledger::RunNote;
use crate::payload::Payload;
use crate::process::{HostId, SockAddr, TimerId};
use crate::time::Time;

/// How many leading bytes of each datagram its events carry: a
/// paired-message segment header, span included, is exactly this long.
pub const HEAD_LEN: usize = 16;

/// The first [`HEAD_LEN`] bytes of `data`, zero-padded.
pub(crate) fn head(data: &Payload) -> [u8; HEAD_LEN] {
    let mut head = [0; HEAD_LEN];
    let n = data.len().min(HEAD_LEN);
    head[..n].copy_from_slice(&data[..n]);
    head
}

/// A datagram's length as its events carry it (the MTU is far below
/// 4 GiB; an oversize send saturates).
pub(crate) fn wire_len(data: &Payload) -> u32 {
    u32::try_from(data.len()).unwrap_or(u32::MAX)
}

/// Why the network dropped a datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Larger than the configured MTU; dropped at the sender.
    Oversize,
    /// Taken by the random loss model.
    Loss,
    /// Source and destination were in different partition groups.
    Partitioned,
    /// Destination host down or no process bound to the destination port.
    Undeliverable,
}

/// One observable simulator transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A datagram was accepted by the network (one per destination).
    Send {
        /// Departure time.
        at: Time,
        /// Sender.
        from: SockAddr,
        /// Destination.
        to: SockAddr,
        /// Payload length in bytes.
        len: u32,
        /// The datagram's first [`HEAD_LEN`] bytes, zero-padded.
        head: [u8; HEAD_LEN],
    },
    /// The duplication model scheduled a second copy of a datagram.
    Duplicate {
        /// Departure time.
        at: Time,
        /// Sender.
        from: SockAddr,
        /// Destination.
        to: SockAddr,
        /// The datagram's first [`HEAD_LEN`] bytes, zero-padded.
        head: [u8; HEAD_LEN],
    },
    /// A datagram reached a live process.
    Deliver {
        /// Arrival time.
        at: Time,
        /// Sender.
        from: SockAddr,
        /// Destination.
        to: SockAddr,
        /// Payload length in bytes.
        len: u32,
        /// The datagram's first [`HEAD_LEN`] bytes, zero-padded.
        head: [u8; HEAD_LEN],
    },
    /// A datagram was dropped.
    Drop {
        /// Time of the drop (send time for sender-side drops, arrival
        /// time for receiver-side ones).
        at: Time,
        /// Sender.
        from: SockAddr,
        /// Destination.
        to: SockAddr,
        /// Payload length in bytes.
        len: u32,
        /// What killed it.
        reason: DropReason,
        /// The datagram's first [`HEAD_LEN`] bytes, zero-padded.
        head: [u8; HEAD_LEN],
    },
    /// A timer came due (it may still be ignored if its owning process
    /// was since replaced).
    TimerFire {
        /// Fire time.
        at: Time,
        /// Owning process.
        owner: SockAddr,
        /// The id returned when the timer was armed.
        id: TimerId,
        /// The tag passed when the timer was armed.
        tag: u64,
    },
    /// A process was installed at an address.
    Spawn {
        /// Time of the spawn.
        at: Time,
        /// Where.
        addr: SockAddr,
    },
    /// A process was destroyed.
    Kill {
        /// Time of the kill.
        at: Time,
        /// Where.
        addr: SockAddr,
    },
    /// A host went down, destroying all its processes (fail-stop).
    CrashHost {
        /// Time of the crash.
        at: Time,
        /// Which host.
        host: HostId,
    },
    /// A crashed host came back up, empty of processes.
    RestartHost {
        /// Time of the restart.
        at: Time,
        /// Which host.
        host: HostId,
    },
    /// An adversarial datagram was injected into the network by a
    /// [`TrafficInjector`](crate::TrafficInjector). The forged source
    /// address is recorded so a trace post-mortem can separate hostile
    /// traffic from the workload's own.
    Inject {
        /// Injection time.
        at: Time,
        /// Forged source address.
        from: SockAddr,
        /// Destination.
        to: SockAddr,
        /// Payload length in bytes.
        len: u32,
    },
    /// A live host found no process at a datagram's port, and its
    /// port-unreachable notice reached the datagram's sender
    /// ([`Process::on_unreachable`](crate::Process::on_unreachable)).
    Unreachable {
        /// Arrival time of the notice.
        at: Time,
        /// The sender it reached.
        to: SockAddr,
        /// The empty port the sender's datagram was addressed to.
        dead: SockAddr,
    },
    /// A causal span was minted ([`Ctx::span`](crate::Ctx::span)), ahead
    /// of the datagrams it causes.
    Span {
        /// Mint time.
        at: Time,
        /// The new span.
        id: SpanId,
        /// Its parent, or [`SpanId::NONE`] for a root.
        parent: SpanId,
        /// Its label's intern id in the world's registry
        /// ([`Registry::span_label`]).
        label: u32,
    },
}

// Every retained event is one slot of a ring: the ring's heap is its
// capacity times this.
const _: () = assert!(std::mem::size_of::<TraceEvent>() <= 48);
// A sweep's reports cross threads with their trace samples.
const _: fn() = || {
    fn is_send<T: Send>() {}
    is_send::<TraceEvent>();
};

impl TraceEvent {
    /// Folds the event into an FNV-1a hash state: its kind, its time, every
    /// other field as a little-endian word and a datagram's head bytes, so
    /// any divergence between two runs changes the hash.
    fn fold_into(&self, h: &mut u64) {
        use TraceEvent::*;
        let addr = |a: SockAddr| u64::from(a.host.0) << 16 | u64::from(a.port);
        let (kind, at, words, head): (u64, _, [u64; 4], &[u8]) = match *self {
            Send {
                at,
                from,
                to,
                len,
                ref head,
            } => (1, at, [addr(from), addr(to), len.into(), 0], head),
            Duplicate {
                at,
                from,
                to,
                ref head,
            } => (2, at, [addr(from), addr(to), 0, 0], head),
            Deliver {
                at,
                from,
                to,
                len,
                ref head,
            } => (3, at, [addr(from), addr(to), len.into(), 0], head),
            Drop {
                at,
                from,
                to,
                len,
                reason,
                ref head,
            } => (
                4,
                at,
                [addr(from), addr(to), len.into(), reason as u64],
                head,
            ),
            TimerFire { at, owner, id, tag } => (5, at, [addr(owner), id.0, tag, 0], &[]),
            Spawn { at, addr: a } => (6, at, [addr(a), 0, 0, 0], &[]),
            Kill { at, addr: a } => (7, at, [addr(a), 0, 0, 0], &[]),
            CrashHost { at, host } => (8, at, [host.0.into(), 0, 0, 0], &[]),
            RestartHost { at, host } => (9, at, [host.0.into(), 0, 0, 0], &[]),
            Inject { at, from, to, len } => (10, at, [addr(from), addr(to), len.into(), 0], &[]),
            Unreachable { at, to, dead } => (12, at, [addr(to), addr(dead), 0, 0], &[]),
            Span {
                at,
                id,
                parent,
                label,
            } => (11, at, [id.raw(), parent.raw(), label.into(), 0], &[]),
        };
        for w in [kind, at.as_micros()].into_iter().chain(words) {
            *h = obs::fnv1a_fold(*h, &w.to_le_bytes());
        }
        *h = obs::fnv1a_fold(*h, head);
    }
}

/// Receives every [`TraceEvent`] the world emits, and, if it asks, every
/// handler run's notes ([`RunNote`]).
pub trait TraceSink: Any {
    /// Called once per event, in simulation order.
    fn record(&mut self, ev: &TraceEvent);
    /// Whether the world should build run notes for this sink; asked when
    /// it is installed. No note is built while no sink takes them.
    fn takes_runs(&self) -> bool {
        false
    }
    /// Called once per run note, in simulation order, while some
    /// installed sink takes them.
    fn run(&mut self, _note: &RunNote) {}
    /// Downcast support for [`World::trace_sink_as`](crate::World::trace_sink_as).
    fn as_any(&self) -> &dyn Any;
}

/// The one retained window: folds *every* event into a running FNV-1a
/// hash, counts it, and retains the last `capacity` events.
///
/// Two runs with the same seed and workload must produce the same
/// [`hash`](TraceRing::hash), so "same seed ⇒ same trace" is a one-line
/// assertion at any capacity. The capacity only decides how much of the
/// stream can be inspected afterwards: none ([`TraceRing::new`]`(0)`, hash
/// and count only), the tail leading up to the quiesce — what a failure
/// post-mortem wants, at fixed memory however long the run (the chaos
/// harness keeps the 64 its report prints; a deterministic run gives a
/// longer tail to a replay of its seed) — or everything
/// ([`TraceRing::unbounded`], for tests that inspect whole streams). Span
/// mints are events like any other, so the forest
/// ([`TraceRing::span_tree`]) covers what the window does, at no memory
/// of its own.
#[derive(Clone, Debug)]
pub struct TraceRing {
    hash: u64,
    seen: u64,
    ring: Vec<TraceEvent>,
    capacity: usize,
    head: usize,
}

impl TraceRing {
    /// A ring keeping at most `capacity` events; zero keeps none.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            hash: obs::FNV1A_BASIS,
            seen: 0,
            ring: Vec::with_capacity(capacity.min(1024)),
            capacity,
            head: 0,
        }
    }

    /// A ring that never evicts: memory grows with the run.
    pub fn unbounded() -> TraceRing {
        TraceRing::new(usize::MAX)
    }

    /// The hash over *all* events ever recorded.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Total number of events ever recorded (retained or evicted).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.retained().cloned().collect()
    }

    fn retained(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring[self.head..].iter().chain(&self.ring[..self.head])
    }

    /// The causal forest over the span mints this ring retains; `reg` is
    /// the registry of the world it recorded, which names their labels and
    /// counts the spans the ring did not keep.
    pub fn span_tree(&self, reg: &Registry) -> SpanTree {
        span_tree(self.retained(), reg)
    }
}

/// The causal forest over the [`TraceEvent::Span`]s of `events`, a stream
/// retained from the world whose registry is `reg`. A span whose parent
/// the stream no longer holds is a root, and
/// [`render`](SpanTree::render) says how much of the run the forest
/// covers.
pub fn span_tree<'a>(events: impl IntoIterator<Item = &'a TraceEvent>, reg: &Registry) -> SpanTree {
    let records = events.into_iter().filter_map(|ev| match *ev {
        TraceEvent::Span {
            at,
            id,
            parent,
            label,
        } => Some(SpanRecord {
            id,
            parent,
            at_us: at.as_micros(),
            label: reg.span_label(label),
        }),
        _ => None,
    });
    SpanTree::window(records, reg.span_count())
}

impl TraceSink for TraceRing {
    fn record(&mut self, ev: &TraceEvent) {
        ev.fold_into(&mut self.hash);
        self.seen += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(ev.clone());
        } else if self.capacity > 0 {
            self.ring[self.head] = ev.clone();
            self.head = (self.head + 1) % self.capacity;
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(h: u32, p: u16) -> SockAddr {
        SockAddr::new(HostId(h), p)
    }

    #[test]
    fn identical_streams_hash_identically() {
        let evs = [
            TraceEvent::Send {
                at: Time::ZERO,
                from: addr(1, 2),
                to: addr(3, 4),
                len: 9,
                head: [7; HEAD_LEN],
            },
            TraceEvent::CrashHost {
                at: Time::from_micros(5),
                host: HostId(3),
            },
        ];
        let mut a = TraceRing::new(0);
        let mut b = TraceRing::new(0);
        for e in &evs {
            a.record(e);
            b.record(e);
        }
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.seen(), 2);
    }

    #[test]
    fn any_field_difference_changes_hash() {
        let base = TraceEvent::Deliver {
            at: Time::from_micros(1),
            from: addr(1, 2),
            to: addr(3, 4),
            len: 10,
            head: [0; HEAD_LEN],
        };
        let variants = [
            TraceEvent::Deliver {
                at: Time::from_micros(2),
                from: addr(1, 2),
                to: addr(3, 4),
                len: 10,
                head: [0; HEAD_LEN],
            },
            TraceEvent::Deliver {
                at: Time::from_micros(1),
                from: addr(1, 5),
                to: addr(3, 4),
                len: 10,
                head: [0; HEAD_LEN],
            },
            TraceEvent::Deliver {
                at: Time::from_micros(1),
                from: addr(1, 2),
                to: addr(3, 4),
                len: 11,
                head: [0; HEAD_LEN],
            },
            TraceEvent::Deliver {
                at: Time::from_micros(1),
                from: addr(1, 2),
                to: addr(3, 4),
                len: 10,
                head: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3],
            },
            TraceEvent::Send {
                at: Time::from_micros(1),
                from: addr(1, 2),
                to: addr(3, 4),
                len: 10,
                head: [0; HEAD_LEN],
            },
        ];
        let mut h0 = TraceRing::new(0);
        h0.record(&base);
        for v in &variants {
            let mut h = TraceRing::new(0);
            h.record(v);
            assert_ne!(h.hash(), h0.hash(), "{v:?} collided with {base:?}");
        }
    }

    #[test]
    fn ring_keeps_the_tail_and_hashes_everything() {
        let mut ring = TraceRing::new(2);
        let evs: Vec<TraceEvent> = (0..5)
            .map(|i| TraceEvent::Kill {
                at: Time::from_micros(i),
                addr: addr(1, 1),
            })
            .collect();
        let mut h = TraceRing::new(0);
        for e in &evs {
            ring.record(e);
            h.record(e);
        }
        assert_eq!(ring.seen(), 5);
        assert_eq!(ring.hash(), h.hash());
        assert_eq!(ring.events(), evs[3..].to_vec(), "last two retained");
    }

    #[test]
    fn ring_below_capacity_keeps_everything_in_order() {
        let mut ring = TraceRing::new(10);
        let evs: Vec<TraceEvent> = (0..3)
            .map(|i| TraceEvent::Spawn {
                at: Time::from_micros(i),
                addr: addr(2, 7),
            })
            .collect();
        for e in &evs {
            ring.record(e);
        }
        assert_eq!(ring.events(), evs);
        assert_eq!(ring.seen(), 3);
    }

    #[test]
    fn capacity_decides_what_is_kept_never_the_hash() {
        let evs: Vec<TraceEvent> = (0..3_000)
            .map(|i| TraceEvent::Kill {
                at: Time::from_micros(i),
                addr: addr(1, 1),
            })
            .collect();
        let mut none = TraceRing::new(0);
        let mut all = TraceRing::unbounded();
        for e in &evs {
            none.record(e);
            all.record(e);
        }
        assert!(none.events().is_empty());
        assert_eq!(all.events(), evs);
        assert_eq!(none.seen(), 3_000);
        assert_eq!(none.hash(), all.hash());
    }
}
