//! Structured event tracing for the simulated world.
//!
//! Every observable state transition in the simulator — a datagram handed
//! to the network, a delivery, a drop (with its reason), a timer firing, a
//! process spawn/kill, a host crash/restart — can be reported to a
//! [`TraceSink`] installed on the [`World`](crate::World). Because the
//! simulation is deterministic, the sequence of [`TraceEvent`]s is a pure
//! function of the seed and the workload; [`TraceRing`] folds it into a
//! single value so "same seed ⇒ same trace" becomes a one-line assertion,
//! and keeps as many of the latest events as it is asked to for inspection.

use std::any::Any;

use crate::process::{HostId, SockAddr, TimerId};
use crate::time::Time;

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
        len: usize,
        /// Causal span attribution (0 = none).
        span: u64,
    },
    /// The duplication model scheduled a second copy of a datagram.
    Duplicate {
        /// Departure time.
        at: Time,
        /// Sender.
        from: SockAddr,
        /// Destination.
        to: SockAddr,
        /// Causal span attribution (0 = none).
        span: u64,
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
        len: usize,
        /// Causal span attribution (0 = none).
        span: u64,
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
        len: usize,
        /// What killed it.
        reason: DropReason,
        /// Causal span attribution (0 = none).
        span: u64,
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
        len: usize,
    },
}

impl TraceEvent {
    /// Folds the event into an FNV-1a hash state; the encoding covers every
    /// field, so any divergence between two runs changes the hash.
    fn fold_into(&self, h: &mut u64) {
        fn mix(h: &mut u64, v: u64) {
            *h = obs::fnv1a_fold(*h, &v.to_le_bytes());
        }
        fn mix_addr(h: &mut u64, a: SockAddr) {
            mix(h, a.host.0 as u64);
            mix(h, a.port as u64);
        }
        match *self {
            TraceEvent::Send {
                at,
                from,
                to,
                len,
                span,
            } => {
                mix(h, 1);
                mix(h, at.as_micros());
                mix_addr(h, from);
                mix_addr(h, to);
                mix(h, len as u64);
                mix(h, span);
            }
            TraceEvent::Duplicate { at, from, to, span } => {
                mix(h, 2);
                mix(h, at.as_micros());
                mix_addr(h, from);
                mix_addr(h, to);
                mix(h, span);
            }
            TraceEvent::Deliver {
                at,
                from,
                to,
                len,
                span,
            } => {
                mix(h, 3);
                mix(h, at.as_micros());
                mix_addr(h, from);
                mix_addr(h, to);
                mix(h, len as u64);
                mix(h, span);
            }
            TraceEvent::Drop {
                at,
                from,
                to,
                len,
                reason,
                span,
            } => {
                mix(h, 4);
                mix(h, at.as_micros());
                mix_addr(h, from);
                mix_addr(h, to);
                mix(h, len as u64);
                mix(h, reason as u64);
                mix(h, span);
            }
            TraceEvent::TimerFire { at, owner, id, tag } => {
                mix(h, 5);
                mix(h, at.as_micros());
                mix_addr(h, owner);
                mix(h, id.0);
                mix(h, tag);
            }
            TraceEvent::Spawn { at, addr } => {
                mix(h, 6);
                mix(h, at.as_micros());
                mix_addr(h, addr);
            }
            TraceEvent::Kill { at, addr } => {
                mix(h, 7);
                mix(h, at.as_micros());
                mix_addr(h, addr);
            }
            TraceEvent::CrashHost { at, host } => {
                mix(h, 8);
                mix(h, at.as_micros());
                mix(h, host.0 as u64);
            }
            TraceEvent::RestartHost { at, host } => {
                mix(h, 9);
                mix(h, at.as_micros());
                mix(h, host.0 as u64);
            }
            TraceEvent::Inject { at, from, to, len } => {
                mix(h, 10);
                mix(h, at.as_micros());
                mix_addr(h, from);
                mix_addr(h, to);
                mix(h, len as u64);
            }
        }
    }
}

/// Receives every [`TraceEvent`] the world emits.
pub trait TraceSink: Any {
    /// Called once per event, in simulation order.
    fn record(&mut self, ev: &TraceEvent);
    /// Downcast support for [`World::trace_sink_as`](crate::World::trace_sink_as).
    fn as_any(&self) -> &dyn Any;
}

/// The one trace sink: folds *every* event into a running FNV-1a hash,
/// counts it, and retains the last `capacity` events.
///
/// Two runs with the same seed and workload must produce the same
/// [`hash`](TraceRing::hash), so "same seed ⇒ same trace" is a one-line
/// assertion at any capacity. The capacity only decides how much of the
/// stream can be inspected afterwards: none ([`TraceRing::new`]`(0)`, hash
/// and count only), the tail leading up to the quiesce — what a failure
/// post-mortem wants, at fixed memory however long the run (the chaos
/// harness keeps 4 096) — or everything ([`TraceRing::unbounded`], for
/// tests that inspect whole streams).
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
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }
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
                span: 7,
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
            span: 0,
        };
        let variants = [
            TraceEvent::Deliver {
                at: Time::from_micros(2),
                from: addr(1, 2),
                to: addr(3, 4),
                len: 10,
                span: 0,
            },
            TraceEvent::Deliver {
                at: Time::from_micros(1),
                from: addr(1, 5),
                to: addr(3, 4),
                len: 10,
                span: 0,
            },
            TraceEvent::Deliver {
                at: Time::from_micros(1),
                from: addr(1, 2),
                to: addr(3, 4),
                len: 11,
                span: 0,
            },
            TraceEvent::Deliver {
                at: Time::from_micros(1),
                from: addr(1, 2),
                to: addr(3, 4),
                len: 10,
                span: 3,
            },
            TraceEvent::Send {
                at: Time::from_micros(1),
                from: addr(1, 2),
                to: addr(3, 4),
                len: 10,
                span: 0,
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
