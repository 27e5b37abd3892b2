//! The table of paired-message connections, one per peer process, and
//! the node's one protocol timer for their earliest deadline: one
//! interval timer per process, as the paper's timer package (§4.2.4).

use crate::census;
use crate::counts::RpcCounts;
use crate::message::ReturnMessage;
use crate::netio::{make_tag, NetIo, TAG_CONN};
use pairedmsg::{Endpoint, Event, Framed, MsgSender, MsgType, ProtocolMode, MAX_SEGMENTS};
use simnet::{SockAddr, Syscall, Time};
use wire::VecMap;

/// Connections a table makes room for at its first. A process of a
/// troupe world talks to its own troupe's members, its clients or
/// servers and the Ringmaster: five to eight peers, as a rule, which a
/// table grown from four would reallocate to reach.
const PEERS: usize = 8;

/// Every connection of one node, made on first use.
pub(crate) struct Conns {
    me: SockAddr,
    pm: pairedmsg::Config,
    /// Ordered: `flush` walks it, and the order of its `sendmsg`s is
    /// part of the trace.
    table: VecMap<SockAddr, Endpoint>,
    /// The deadline the protocol timer is armed for, until it fires.
    armed: Option<Time>,
    /// The generation of the timer armed last, in its tag's 56 low bits:
    /// an earlier timer, superseded by an earlier deadline, fires idle.
    arm_gen: u64,
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
            armed: None,
            arm_gen: 0,
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
        self.table.values()
    }

    /// The endpoint for `addr`, connecting first if need be.
    pub(crate) fn endpoint(&mut self, addr: SockAddr) -> &mut Endpoint {
        let (me, pm, counts) = (self.me, &self.pm, &self.counts.pm);
        if self.table.is_empty() {
            self.table.reserve(PEERS);
        }
        self.table.get_or_insert_with(addr, || {
            // Derive a per-connection jitter seed from the endpoint pair
            // so retransmissions of different connections decorrelate
            // deterministically under a fixed simulation seed.
            let mut pm = pm.clone();
            let h = obs::fnv1a(&me.host.0.to_le_bytes());
            let h = obs::fnv1a_fold(h, &me.port.to_le_bytes());
            let h = obs::fnv1a_fold(h, &addr.host.0.to_le_bytes());
            pm.jitter_seed ^= obs::fnv1a_fold(h, &addr.port.to_le_bytes());
            Endpoint::counting(pm, counts.clone())
        })
    }

    /// `peer`'s host answered with port-unreachable: the connection to
    /// it, if there is one, declares it dead. Says whether there was.
    pub(crate) fn on_unreachable(&mut self, peer: SockAddr) -> bool {
        let endpoint = self.table.get_mut(&peer);
        endpoint.map(Endpoint::on_unreachable).is_some()
    }

    /// The next event the endpoint for `peer` has queued, if the
    /// connection still exists.
    pub(crate) fn poll_event(&mut self, peer: SockAddr) -> Option<Event> {
        self.table.get_mut(&peer)?.poll_event()
    }

    /// A `TAG_CONN` timer of generation `gen` fired: whether it is the one
    /// armed last, which is then armed no longer. Its deadline has come,
    /// so the node flushes ([`Conns::flush`]).
    pub(crate) fn on_timer(&mut self, gen: u64) -> bool {
        self.armed.take_if(|_| gen == self.arm_gen).is_some()
    }

    /// Drops the connection to a dead peer; a new one is made if the
    /// address is reused by a replacement member.
    pub(crate) fn remove(&mut self, addr: SockAddr) {
        self.table.remove(&addr);
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

    /// Transmits every connection's queued segments, each message's clock
    /// starting at its first ([`Endpoint::transmit`]). Then ticks and names
    /// the first endpoint, in table order, whose deadline came meanwhile,
    /// for the node to drain; if none, arms the timer for the earliest.
    pub(crate) fn flush(&mut self, io: &mut dyn NetIo) -> Option<SockAddr> {
        for (&addr, endpoint) in self.table.iter_mut() {
            while let Some(datagram) = endpoint.transmit(io.now()) {
                io.send(addr, datagram);
            }
        }
        let now = io.now();
        let is_due = |(_, e): &(&SockAddr, &mut Endpoint)| e.poll_timer().is_some_and(|t| t <= now);
        if let Some((&addr, due)) = self.table.iter_mut().find(is_due) {
            due.on_timer(now);
            return Some(addr);
        }
        let next = self.table.values().filter_map(Endpoint::poll_timer).min();
        // Unless armed already, for that deadline or an earlier one.
        if let Some(t) = next.filter(|&t| self.armed.is_none_or(|armed| armed > t)) {
            self.arm(io, t);
        }
        None
    }

    /// Arms the protocol timer for `deadline`, superseding any armed. The
    /// timer package reads the clock, masks interrupts around its queue
    /// and arms the interval timer (§4.2.4); the interval is measured
    /// after those charges, so the timer fires at the deadline.
    fn arm(&mut self, io: &mut dyn NetIo, deadline: Time) {
        self.armed = Some(deadline);
        self.arm_gen += 1;
        io.charge(Syscall::GetTimeOfDay);
        io.charge(Syscall::SigBlock);
        io.charge(Syscall::SetITimer);
        io.set_timer(deadline.since(io.now()), make_tag(TAG_CONN, self.arm_gen));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netio::mock::{MockIo, ME};
    use crate::netio::split_tag;
    use simnet::{Duration, HostId};

    fn ms(n: u64) -> Time {
        Time::ZERO + Duration::from_millis(n)
    }

    /// Flushes as the node does, draining nothing: the peers ticked on
    /// the way.
    fn flush(conns: &mut Conns, io: &mut MockIo) -> Vec<SockAddr> {
        let mut ticked = Vec::new();
        while let Some(peer) = conns.flush(io) {
            ticked.push(peer);
        }
        ticked
    }

    /// Sends a call to `peer` at `at` and flushes.
    fn call(conns: &mut Conns, io: &mut MockIo, peer: SockAddr, at: Time) {
        io.now = at;
        let sent = conns.endpoint(peer).send(at, MsgType::Call, 1, 0, b"x");
        sent.expect("a small call");
        assert_eq!(flush(conns, io), [], "nothing due yet");
    }

    /// The timer armed last: its generation, from its tag, and deadline.
    fn armed(conns: &Conns, io: &MockIo) -> (u64, Time) {
        let &(_, tag) = io.timers.last().expect("a timer armed");
        let (kind, gen) = split_tag(tag);
        assert_eq!((kind, gen), (TAG_CONN, conns.arm_gen));
        (gen, conns.armed.expect("armed"))
    }

    /// Fires timer `(gen, at)` at its deadline: the peers it ticked, or
    /// `None` if a later one superseded it.
    fn fire(conns: &mut Conns, io: &mut MockIo, (gen, at): (u64, Time)) -> Option<Vec<SockAddr>> {
        io.now = io.now.max(at);
        conns.on_timer(gen).then(|| flush(conns, io))
    }

    /// One timer serves every connection: a firing ticks exactly those
    /// whose deadline has come; an earlier deadline supersedes the armed
    /// timer, whose firing then ticks none; and a dropped connection's
    /// deadline governs nothing, not even the connection that replaces it
    /// at the same address.
    #[test]
    fn a_firing_ticks_exactly_the_due_connections() {
        let (mut conns, mut io) = (
            Conns::new(ME, pairedmsg::Config::default()),
            MockIo::default(),
        );
        let [a, b, c] = [7, 8, 9].map(|h| SockAddr::new(HostId(h), 70));
        call(&mut conns, &mut io, a, ms(0));
        let first = armed(&conns, &io);
        assert_eq!(first.1, ms(300));
        call(&mut conns, &mut io, b, ms(100));
        assert_eq!(io.timers.len(), 1, "armed already, for an earlier deadline");

        assert_eq!(fire(&mut conns, &mut io, first), Some(vec![a]));
        let second = armed(&conns, &io);
        assert_eq!(second.1, ms(400), "b's deadline");
        assert_eq!(fire(&mut conns, &mut io, second), Some(vec![b]));
        let superseded = armed(&conns, &io);
        assert!(superseded.1 > ms(800), "a's second deadline");

        call(&mut conns, &mut io, c, ms(500));
        let third = armed(&conns, &io);
        assert_eq!(third.1, ms(800));
        assert_eq!(fire(&mut conns, &mut io, third), Some(vec![c]));
        assert_eq!(fire(&mut conns, &mut io, superseded), None);

        let dropped = armed(&conns, &io);
        conns.remove(a);
        call(&mut conns, &mut io, a, ms(810));
        assert_eq!(io.timers.len(), 5, "armed already, for a's old deadline");
        assert_eq!(fire(&mut conns, &mut io, dropped), Some(vec![]));
        let next = armed(&conns, &io);
        assert_eq!(fire(&mut conns, &mut io, next), Some(vec![b]));
        let replaced = armed(&conns, &io);
        assert_eq!(replaced.1, ms(1_110), "the new a's deadline");
        assert_eq!(fire(&mut conns, &mut io, replaced), Some(vec![a]));
        assert_eq!(conns.len(), 3);
    }
}
