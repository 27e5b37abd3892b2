//! What a node asks of its environment — datagrams, timers, a CPU
//! account, a metrics registry — and the one timer tag space it shares
//! between its protocol timers and the application's.

use std::fmt;

use obs::SpanId;
use simnet::{Duration, Payload, SockAddr, Syscall, Time};

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
    /// Transmits the same datagram to every destination: on the
    /// simulator, Ethernet multicast, one `sendmsg` charge for all copies
    /// (§4.3.3).
    fn multicast(&mut self, tos: &[SockAddr], bytes: Payload);
    /// Arms a timer that comes back with `tag`. There is no cancelling
    /// one: a timer its owner has moved past is recognised where it
    /// fires.
    fn set_timer(&mut self, delay: Duration, tag: u64);
    /// Charges one operation, priced by the world's cost table, to this
    /// process's CPU account.
    fn charge(&mut self, sys: Syscall);
    /// The metrics registry this process publishes into.
    fn metrics(&self) -> obs::Registry;
    /// Mints a causal span under `parent` ([`SpanId::NONE`] for a root),
    /// now. The default mints in [`NetIo::metrics`]; the simulator's mint
    /// also joins the trace stream ([`simnet::Ctx::span`]).
    fn span(&mut self, parent: SpanId, label: fmt::Arguments<'_>) -> SpanId {
        let at_us = self.now().as_micros();
        self.metrics().mint_span(parent, label, at_us).0
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
    fn multicast(&mut self, tos: &[SockAddr], bytes: Payload) {
        simnet::Ctx::multicast(self, tos, bytes);
    }
    fn set_timer(&mut self, delay: Duration, tag: u64) {
        simnet::Ctx::set_timer(self, delay, tag);
    }
    fn charge(&mut self, sys: Syscall) {
        simnet::Ctx::charge(self, sys);
    }
    fn metrics(&self) -> obs::Registry {
        simnet::Ctx::metrics(self)
    }
    fn span(&mut self, parent: SpanId, label: fmt::Arguments<'_>) -> SpanId {
        simnet::Ctx::span(self, parent, label)
    }
}

/// Timer tag kinds (the node multiplexes one tag space).
const TAG_KIND_SHIFT: u64 = 56;
/// The node's paired-message protocol timer; low bits = its generation.
pub const TAG_CONN: u64 = 0;
/// Many-to-one assembly timeout; low bits = pending-call serial.
pub const TAG_PENDING: u64 = 1;
/// Application timer; low bits = the application's own tag.
pub const TAG_APP: u64 = 2;
/// A service's wake-up ([`NodeEffect::Wake`]); low bits = the invocation.
///
/// [`NodeEffect::Wake`]: crate::service::NodeEffect::Wake
pub const TAG_WAKE: u64 = 3;

pub(crate) fn make_tag(kind: u64, low: u64) -> u64 {
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

/// The one in-memory `NetIo` for exercising a `Node`, or one of its
/// engines, without a world.
#[cfg(test)]
pub(crate) mod mock {
    use super::*;
    use pairedmsg::{Segment, SegmentHeader};
    use simnet::HostId;

    /// Records unicast sends and troupe-wide multicasts apart, so tests
    /// can pin the m+n message discipline; every datagram's destination
    /// and `(call number, segment number)` in wire order; and timers.
    #[derive(Default)]
    pub(crate) struct MockIo {
        pub(crate) now: Time,
        pub(crate) sent: Vec<(SockAddr, Payload)>,
        pub(crate) mcasts: Vec<(Vec<SockAddr>, Payload)>,
        pub(crate) numbers: Vec<(SockAddr, (u32, u8))>,
        pub(crate) timers: Vec<(Duration, u64)>,
        /// Where the mocked process counts.
        pub(crate) reg: obs::Registry,
    }

    /// The address every mocked process runs at.
    pub(crate) const ME: SockAddr = SockAddr {
        host: HostId(0),
        port: 1,
    };

    pub(crate) fn header(bytes: &Payload) -> SegmentHeader {
        Segment::decode(bytes).expect("a segment").header
    }

    impl MockIo {
        fn note(&mut self, to: SockAddr, bytes: &Payload) {
            let h = header(bytes);
            self.numbers.push((to, (h.call_number, h.number)));
        }
    }

    impl NetIo for MockIo {
        fn now(&self) -> Time {
            self.now
        }
        fn me(&self) -> SockAddr {
            ME
        }
        fn send(&mut self, to: SockAddr, bytes: Payload) {
            self.note(to, &bytes);
            self.sent.push((to, bytes));
        }
        fn multicast(&mut self, tos: &[SockAddr], bytes: Payload) {
            tos.iter().for_each(|&to| self.note(to, &bytes));
            self.mcasts.push((tos.to_vec(), bytes));
        }
        fn set_timer(&mut self, delay: Duration, tag: u64) {
            self.timers.push((delay, tag));
        }
        fn charge(&mut self, _sys: Syscall) {}
        fn metrics(&self) -> obs::Registry {
            self.reg.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_split_round_trips() {
        for kind in [TAG_CONN, TAG_PENDING, TAG_APP, TAG_WAKE] {
            for low in [0u64, 1, 0xFFFF, (1 << 56) - 1] {
                let tag = make_tag(kind, low);
                assert_eq!(split_tag(tag), (kind, low & ((1 << 56) - 1)));
            }
        }
    }
}
