//! The `rpc.<addr>.*` metric family: one node's registry handles, resolved
//! when it starts and bumped where each event happens, so its totals
//! outlive its connections and the process itself.

use obs::{Counter, Registry};
use simnet::SockAddr;

/// One node's `rpc.{me}.*` handles. Before the node starts they are held
/// by no registry and count nothing.
#[derive(Clone, Default)]
pub(crate) struct RpcCounts {
    /// What every paired-message endpoint of the node counts; a segment
    /// sent by multicast is counted in its `segments_sent` once.
    pub(crate) pm: pairedmsg::Counters,
    /// Assemblies that reached a collation decision and ran service code.
    pub(crate) invocations: Counter,
    /// Calls whose data segments went out by multicast.
    pub(crate) mcast_calls: Counter,
    /// Segments sent by multicast, each charged a single `sendmsg`.
    pub(crate) mcast_segments: Counter,
    /// Returns whose data segments went out by multicast: only a member
    /// that closed a many-to-one assembly has one to count.
    pub(crate) mcast_returns: Late,
    /// Silent members of timed-out assemblies heard on the same `(client
    /// troupe, thread)` under another number: only a node that opened an
    /// assembly of two or more client members has one that could split.
    pub(crate) split_calls: Late,
}

impl RpcCounts {
    /// Registers (or finds) `me`'s handles in `reg`; the [`Late`] ones
    /// wait for their first event.
    pub(crate) fn register(reg: &Registry, me: SockAddr) -> RpcCounts {
        let counter = |name: &str| reg.counter(format_args!("rpc.{me}.{name}"));
        let late = |name| Late {
            name,
            at: Some((reg.clone(), me)),
            counter: None,
        };
        RpcCounts {
            pm: pairedmsg::Counters::register(reg, format_args!("rpc.{me}")),
            invocations: counter("invocations"),
            mcast_calls: counter("mcast_calls"),
            mcast_segments: counter("mcast_segments"),
            mcast_returns: late("mcast_returns"),
            split_calls: late("split_calls"),
        }
    }
}

/// A counter whose key joins the registry at its first event, so a node
/// that never sees one shows no key.
#[derive(Clone, Default)]
pub(crate) struct Late {
    name: &'static str,
    at: Option<(Registry, SockAddr)>,
    counter: Option<Counter>,
}

impl Late {
    /// The handle, its key registered first if this is its first event.
    pub(crate) fn handle(&mut self) -> &Counter {
        let Late { name, at, counter } = self;
        counter.get_or_insert_with(|| match at {
            Some((reg, me)) => reg.counter(format_args!("rpc.{me}.{name}")),
            None => Counter::default(),
        })
    }

    /// What it counted, once it has had its first event.
    pub(crate) fn get(&self) -> Option<u64> {
        self.counter.as_ref().map(Counter::get)
    }
}
