//! The table of paired-message connections, one per peer process, and
//! the one protocol timer each keeps armed.

use std::collections::HashMap;

use crate::census;
use crate::counts::RpcCounts;
use crate::message::ReturnMessage;
use crate::netio::{make_tag, NetIo, TAG_CONN};
use pairedmsg::{Endpoint, Event, Framed, MsgSender, MsgType, ProtocolMode, MAX_SEGMENTS};
use simnet::{SockAddr, Syscall, Time};
use wire::VecMap;

struct Conn {
    id: u64,
    endpoint: Endpoint,
    armed: Option<Time>,
    /// Generation of the most recent timer armed for this connection;
    /// firings of superseded timers are ignored, so re-arming an earlier
    /// deadline does not leave a trail of live duplicate timers.
    arm_gen: u64,
}

/// Only 24 bits of a timer's generation survive the tag.
const GEN_MASK: u64 = 0x00FF_FFFF;

/// Connections a table makes room for at its first. A process of a
/// troupe world talks to its own troupe's members, its clients or
/// servers and the Ringmaster: five to eight peers, as a rule, which a
/// table grown from four would reallocate to reach.
const PEERS: usize = 8;

/// Every connection of one node, made on first use.
pub(crate) struct Conns {
    me: SockAddr,
    pm: pairedmsg::Config,
    /// Ordered: `flush_all` walks it, and the order of its `sendmsg`s is
    /// part of the trace.
    table: VecMap<SockAddr, Conn>,
    /// Connection id (what a timer tag carries) to peer address: one entry
    /// per connection in `table`, so a dropped connection's timers find
    /// nothing. Point lookups only, never walked.
    ids: HashMap<u64, SockAddr>,
    /// The id of the next connection made.
    next_id: u64,
    /// Where every connection counts, and the multicasts are counted.
    pub(crate) counts: RpcCounts,
}

impl Conns {
    /// Panics on a `pm` no endpoint would accept, rather than at the first
    /// datagram to or from a peer.
    pub(crate) fn new(me: SockAddr, pm: pairedmsg::Config) -> Conns {
        pm.validate();
        Conns {
            me,
            pm,
            table: VecMap::new(),
            ids: HashMap::new(),
            next_id: 0,
            counts: RpcCounts::default(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.table.len()
    }

    /// The table's part of [`Node::census`](crate::Node::census).
    pub(crate) fn census(&self, out: &mut Vec<(&'static str, usize)>) {
        let records = self.endpoints().map(Endpoint::replay_records).sum();
        out.push((census::CONNECTIONS, self.len()));
        out.push((census::REPLAY_RECORDS, records));
    }

    /// Every endpoint, in address order.
    pub(crate) fn endpoints(&self) -> impl Iterator<Item = &Endpoint> {
        self.table.values().map(|c| &c.endpoint)
    }

    /// The endpoint for `addr`, connecting first if need be.
    pub(crate) fn endpoint(&mut self, addr: SockAddr) -> &mut Endpoint {
        let (me, ids, next_id, pm) = (self.me, &mut self.ids, &mut self.next_id, &self.pm);
        let counts = &self.counts.pm;
        if self.table.is_empty() {
            self.table.reserve(PEERS);
        }
        let conn = self.table.get_or_insert_with(addr, || {
            let id = *next_id;
            *next_id += 1;
            ids.insert(id, addr);
            // Derive a per-connection jitter seed from the endpoint pair
            // so retransmissions of different connections decorrelate
            // deterministically under a fixed simulation seed.
            let mut pm = pm.clone();
            let h = obs::fnv1a(&me.host.0.to_le_bytes());
            let h = obs::fnv1a_fold(h, &me.port.to_le_bytes());
            let h = obs::fnv1a_fold(h, &addr.host.0.to_le_bytes());
            pm.jitter_seed ^= obs::fnv1a_fold(h, &addr.port.to_le_bytes());
            Conn {
                id,
                endpoint: Endpoint::counting(pm, counts.clone()),
                armed: None,
                arm_gen: 0,
            }
        });
        &mut conn.endpoint
    }

    /// `peer`'s host answered with port-unreachable: the connection to
    /// it, if there is one, declares it dead. Says whether there was.
    pub(crate) fn on_unreachable(&mut self, peer: SockAddr) -> bool {
        let conn = self.table.get_mut(&peer);
        conn.map(|c| c.endpoint.on_unreachable()).is_some()
    }

    /// The next event the endpoint for `peer` has queued, if the
    /// connection still exists.
    pub(crate) fn poll_event(&mut self, peer: SockAddr) -> Option<Event> {
        self.table.get_mut(&peer)?.endpoint.poll_event()
    }

    /// A `TAG_CONN` timer fired: ticks the endpoint it was armed for and
    /// names the peer, unless a newer timer governs (or the connection
    /// is gone).
    pub(crate) fn on_timer(&mut self, low: u64, now: Time) -> Option<SockAddr> {
        let (conn_id, gen) = (low & 0xFFFF_FFFF, low >> 32);
        let addr = *self.ids.get(&conn_id)?;
        let conn = self.table.get_mut(&addr)?;
        if conn.arm_gen & GEN_MASK != gen {
            return None;
        }
        conn.armed = None;
        conn.endpoint.on_timer(now);
        Some(addr)
    }

    /// Drops the connection to a dead peer; a new one is made if the
    /// address is reused by a replacement member.
    pub(crate) fn remove(&mut self, addr: SockAddr) {
        if let Some(conn) = self.table.remove(&addr) {
            self.ids.remove(&conn.id);
        }
    }

    /// Whether a message of `len` bytes to two or more peers goes out
    /// once, by multicast (§4.3.3): two or more segments under the eager
    /// discipline (PARC's stop-and-wait has no blast to share), and one
    /// segment if `small` says so. An oversize message is nobody's to
    /// share: it fails per peer.
    pub(crate) fn shareable(&self, len: usize, small: bool) -> bool {
        match self.pm.segments_of(len) {
            1 => small,
            2..=MAX_SEGMENTS => self.pm.mode == ProtocolMode::Circus,
            _ => false,
        }
    }

    /// Transmits one message to the peers at `addrs` (two or more) by
    /// multicast (§4.3.3): each segment goes to the wire once, charged a
    /// single `sendmsg`, under call number `cn`, which must be due on
    /// every one of those connections. Each peer's endpoint then adopts
    /// it — keeping per-peer acknowledgment tracking, unicast
    /// retransmission toward a straggler, and, for a call, the implicit
    /// ack the return carries and crash-detection probing. Adopting
    /// *after* the blast starts each retransmission clock at the last
    /// `sendmsg`, not k `sendmsg`s before it. The segments are cut from
    /// `msg` itself, taken over while the caller holds it alone, so each
    /// is a window of its buffer; `msg` is left a handle on it.
    pub(crate) fn blast(
        &mut self,
        io: &mut dyn NetIo,
        msg_type: MsgType,
        cn: u32,
        span: u64,
        msg: &mut Framed,
        addrs: &[SockAddr],
    ) {
        // Cut off to the side: the peers' own senders differ from this
        // one in their jitter seeds only.
        let mut cut = MsgSender::new(io.now(), &self.pm, msg_type, cn, span, std::mem::take(msg))
            .expect("the caller counted the segments");
        match msg_type {
            MsgType::Call => self.counts.mcast_calls.inc(),
            MsgType::Return => self.counts.mcast_returns.handle().inc(),
        }
        // The segments bypass the endpoints; each goes to the network once.
        let segments = u64::from(cut.total());
        self.counts.mcast_segments.add(segments);
        self.counts.pm.segments_sent.add(segments);
        for datagram in cut.initial_datagrams() {
            io.multicast(addrs, datagram);
        }
        *msg = cut.framed().clone();
        let now = io.now();
        for &addr in addrs {
            let endpoint = self.endpoint(addr);
            let adopted = endpoint.adopt(now, msg_type, cn, span, msg.clone());
            adopted.expect("the cut above fitted");
        }
    }

    /// Sends a return message to the peers at `tos`, on call number `cn`
    /// of each connection: once for all by [`Conns::blast`] when there are
    /// two or more and the reply can be shared, else queued per peer.
    /// `reply` is taken over while the caller holds it alone, so its
    /// datagrams are windows of it, and left a handle on it
    /// (`Endpoint::send_shared`).
    pub(crate) fn send_return(
        &mut self,
        io: &mut dyn NetIo,
        tos: &[SockAddr],
        cn: u32,
        span: u64,
        reply: &mut Framed,
    ) {
        if tos.len() > 1 && self.shareable(reply.len(), true) {
            return self.blast(io, MsgType::Return, cn, span, reply, tos);
        }
        for &to in tos {
            self.queue_return(io.now(), to, cn, span, reply);
        }
    }

    /// Queues a return message on call number `cn` of the connection to
    /// `to`, leaving `reply` a handle on it for the next peer.
    fn queue_return(&mut self, now: Time, to: SockAddr, cn: u32, span: u64, reply: &mut Framed) {
        let endpoint = self.endpoint(to);
        if let Err(too_long) = endpoint.send_shared(now, MsgType::Return, cn, span, reply) {
            // Silence would hang the caller for ever: its call was
            // acknowledged and this member keeps answering its probes. A
            // reply the protocol cannot carry is the procedure's error.
            let error =
                wire::to_bytes(&ReturnMessage::Error(format!("reply not sent: {too_long}")));
            // A few dozen bytes: this fits whatever a call fitted in.
            let _ = endpoint.send(now, MsgType::Return, cn, span, error);
        }
    }

    /// Transmits queued segments on every connection and re-arms
    /// retransmission timers.
    pub(crate) fn flush_all(&mut self, io: &mut dyn NetIo) {
        for (&addr, conn) in self.table.iter_mut() {
            let now = io.now();
            while let Some(datagram) = conn.endpoint.poll_transmit() {
                io.send(addr, datagram);
            }
            // Re-arm the protocol timer if none is armed or the deadline
            // moved earlier; the generation stamp invalidates the
            // superseded timer.
            let Some(t) = conn.endpoint.poll_timer() else {
                continue;
            };
            if conn.armed.is_some_and(|armed| armed <= t) {
                continue;
            }
            conn.armed = Some(t);
            conn.arm_gen += 1;
            let tag = make_tag(TAG_CONN, ((conn.arm_gen & GEN_MASK) << 32) | conn.id);
            // The timer package reads the clock to compute the absolute
            // deadline, masks interrupts around its queue, and arms the
            // interval timer (§4.2.4).
            io.charge(Syscall::GetTimeOfDay);
            io.charge(Syscall::SigBlock);
            io.charge(Syscall::SetITimer);
            let _ = io.set_timer(t.since(now), tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netio::mock::{MockIo, ME};
    use crate::netio::split_tag;
    use simnet::HostId;

    /// Sends a call to `peer` and returns the low bits of the timer the
    /// flush arms for it.
    fn arm(conns: &mut Conns, io: &mut MockIo, peer: SockAddr, cn: u32) -> u64 {
        let sent = conns
            .endpoint(peer)
            .send(io.now, MsgType::Call, cn, 0, b"x");
        sent.expect("a small call");
        conns.flush_all(io);
        let &(_, tag) = io.timers.last().expect("a timer armed");
        split_tag(tag).1
    }

    /// A dropped connection's timers reach nothing — not the connection
    /// that replaces it at the same address — and the id table holds the
    /// live connections only, however many times the peer reconnects.
    #[test]
    fn a_dropped_connection_forgets_its_id() {
        let (mut conns, mut io) = (
            Conns::new(ME, pairedmsg::Config::default()),
            MockIo::default(),
        );
        let peer = SockAddr::new(HostId(7), 70);
        let mut stale = arm(&mut conns, &mut io, peer, 1);
        for cn in 2..=101 {
            conns.remove(peer);
            let live = arm(&mut conns, &mut io, peer, cn);
            assert_eq!(conns.on_timer(stale, io.now), None, "cycle {cn}");
            assert_eq!(conns.on_timer(live, io.now), Some(peer));
            stale = live;
        }
        assert_eq!((conns.ids.len(), conns.len()), (1, 1));
    }
}
