//! The table of paired-message connections, one per peer process, and
//! the one protocol timer each keeps armed.

use std::collections::BTreeMap;

use crate::census;
use crate::message::{encode, ReturnMessage};
use crate::netio::{make_tag, NetIo, TAG_CONN};
use pairedmsg::{Endpoint, Event, MsgSender, MsgType, ProtocolMode, MAX_SEGMENTS};
use simnet::{Payload, SockAddr, Syscall, Time};

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

/// Every connection of one node, made on first use.
pub(crate) struct Conns {
    me: SockAddr,
    pm: pairedmsg::Config,
    /// Ordered: `flush_all` walks it, and the order of its `sendmsg`s is
    /// part of the trace.
    table: BTreeMap<SockAddr, Conn>,
    /// Connection id (what a timer tag carries) to peer address.
    addrs: Vec<SockAddr>,
    /// Calls and returns whose data segments went out by multicast, and
    /// the segments so transmitted (each charged a single `sendmsg`).
    mcast_calls: u64,
    mcast_returns: u64,
    mcast_segments: u64,
}

impl Conns {
    /// Panics on a `pm` no endpoint would accept, rather than at the first
    /// datagram to or from a peer.
    pub(crate) fn new(me: SockAddr, pm: pairedmsg::Config) -> Conns {
        pm.validate();
        Conns {
            me,
            pm,
            table: BTreeMap::new(),
            addrs: Vec::new(),
            mcast_calls: 0,
            mcast_returns: 0,
            mcast_segments: 0,
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
        let (me, addrs, pm) = (self.me, &mut self.addrs, &self.pm);
        let conn = self.table.entry(addr).or_insert_with(|| {
            let id = addrs.len() as u64;
            addrs.push(addr);
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
                endpoint: Endpoint::new(pm),
                armed: None,
                arm_gen: 0,
            }
        });
        &mut conn.endpoint
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
        let addr = *self.addrs.get(conn_id as usize)?;
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
            // Keep the id slot but point it nowhere.
            self.addrs[conn.id as usize] = SockAddr::new(simnet::HostId(u32::MAX), 0);
        }
    }

    /// Calls, returns and segments sent by multicast so far.
    pub(crate) fn multicast_totals(&self) -> (u64, u64, u64) {
        (self.mcast_calls, self.mcast_returns, self.mcast_segments)
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
    /// `sendmsg`, not k `sendmsg`s before it.
    pub(crate) fn blast(
        &mut self,
        io: &mut dyn NetIo,
        msg_type: MsgType,
        cn: u32,
        span: u64,
        bytes: &Payload,
        addrs: &[SockAddr],
    ) {
        // Cut off to the side: the peers' own senders differ from this
        // one in their jitter seeds only.
        let cut = MsgSender::new(io.now(), &self.pm, msg_type, cn, span, bytes.clone())
            .expect("the caller counted the segments");
        match msg_type {
            MsgType::Call => self.mcast_calls += 1,
            MsgType::Return => self.mcast_returns += 1,
        }
        self.mcast_segments += u64::from(cut.total());
        for number in 1..=cut.total() {
            io.multicast_spanned(addrs, cut.segment(number, false).encode(), span);
        }
        let now = io.now();
        for &addr in addrs {
            let endpoint = self.endpoint(addr);
            let adopted = endpoint.adopt(now, msg_type, cn, span, bytes.clone());
            adopted.expect("the cut above fitted");
        }
    }

    /// Sends a return message to the peers at `tos`, on call number `cn`
    /// of each connection: once for all by [`Conns::blast`] when there are
    /// two or more and the reply can be shared, else queued per peer.
    pub(crate) fn send_return(
        &mut self,
        io: &mut dyn NetIo,
        tos: &[SockAddr],
        cn: u32,
        span: u64,
        reply: &Payload,
    ) {
        if tos.len() > 1 && self.shareable(reply.len(), true) {
            return self.blast(io, MsgType::Return, cn, span, reply, tos);
        }
        for &to in tos {
            self.queue_return(io.now(), to, cn, span, reply.clone());
        }
    }

    /// Queues a return message on call number `cn` of the connection to
    /// `to`.
    fn queue_return(&mut self, now: Time, to: SockAddr, cn: u32, span: u64, reply: Payload) {
        let endpoint = self.endpoint(to);
        if let Err(too_long) = endpoint.send(now, MsgType::Return, cn, span, reply) {
            // Silence would hang the caller for ever: its call was
            // acknowledged and this member keeps answering its probes. A
            // reply the protocol cannot carry is the procedure's error.
            let error = encode(&ReturnMessage::Error(format!("reply not sent: {too_long}")));
            // A few dozen bytes: this fits whatever a call fitted in.
            let _ = endpoint.send(now, MsgType::Return, cn, span, error);
        }
    }

    /// Transmits queued segments on every connection and re-arms
    /// retransmission timers.
    pub(crate) fn flush_all(&mut self, io: &mut dyn NetIo) {
        for (&addr, conn) in self.table.iter_mut() {
            let now = io.now();
            while let Some(seg) = conn.endpoint.poll_transmit_segment() {
                let span = seg.header.span;
                io.send_spanned(addr, seg.encode(), span);
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
