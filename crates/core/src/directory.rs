//! What this process believes about other processes (§4.3.2, §4.2.3):
//! the memberships of client troupes — "a local cache or … the binding
//! agent" — with the call messages parked while the agent is asked, and
//! which peers were lately declared dead.
//!
//! Invariants kept here: a troupe is asked about once at a time, every
//! parked message is handed back exactly once, and a dead-peer marker
//! outlives its expiry only until the next question about that peer.

use std::collections::HashMap;
use std::rc::Rc;

use crate::addr::{Troupe, TroupeId};
use crate::census;
use crate::message::{Arrival, CallMessage};
use simnet::{Payload, SockAddr, Time};

/// A call message parked until its client troupe's membership is known.
pub(crate) struct Parked {
    pub(crate) at: Arrival,
    pub(crate) msg: CallMessage<Payload, Payload>,
}

#[derive(Default)]
pub(crate) struct Directory {
    /// Point lookups only, never walked.
    members: HashMap<TroupeId, Rc<[SockAddr]>>,
    /// The troupes being asked about, each with the call messages that
    /// wait for the answer. Point lookups only, never walked.
    parked: HashMap<TroupeId, Vec<Parked>>,
    /// The binding agent troupe to ask, if one is configured.
    pub(crate) binder: Option<Troupe>,
    /// Peers declared dead by the paired-message layer (§4.2.3), each
    /// with an expiry. While a marker is live, new calls fail fast on
    /// that member instead of waiting out the full retransmission
    /// schedule again, and many-to-one assemblies do not wait for its
    /// call messages. The expiry re-admits a peer that was wrongly
    /// suspected across a healed partition.
    /// Point lookups only, never walked.
    dead_peers: HashMap<SockAddr, Time>,
}

impl Directory {
    /// The directory's part of [`Node::census`](crate::Node::census).
    pub(crate) fn census(&self, out: &mut Vec<(&'static str, usize)>) {
        let parked = self.parked.values().map(Vec::len).sum();
        out.extend([
            (census::DIRECTORY_ENTRIES, self.members.len()),
            (census::DEAD_PEERS, self.dead_peers.len()),
            (census::PARKED_CALLS, parked),
        ]);
    }

    /// The membership of troupe `id`, if known.
    pub(crate) fn members(&self, id: TroupeId) -> Option<&Rc<[SockAddr]>> {
        self.members.get(&id)
    }

    pub(crate) fn install(&mut self, id: TroupeId, members: Rc<[SockAddr]>) {
        self.members.insert(id, members);
    }

    pub(crate) fn forget(&mut self, id: TroupeId) {
        self.members.remove(&id);
    }

    /// A caller that just bound to `troupe` knows its membership; record
    /// it so call-backs *from* that troupe (the ready_to_commit pattern,
    /// §5.3) can be grouped without a binding-agent round trip.
    pub(crate) fn learn(&mut self, troupe: &Troupe) {
        if troupe.id == TroupeId::UNREGISTERED {
            return;
        }
        let addrs = || troupe.members.iter().map(|m| m.addr);
        let known = self.members(troupe.id);
        if !known.is_some_and(|d| d.iter().copied().eq(addrs())) {
            self.install(troupe.id, addrs().collect());
        }
    }

    /// Parks a call message of a troupe whose membership is unknown.
    /// `true` if nobody has been asked about that troupe yet: the caller
    /// asks now, and [`Directory::answer`]s when it knows.
    pub(crate) fn park(&mut self, at: Arrival, msg: CallMessage<Payload, Payload>) -> bool {
        let parked = self.parked.entry(msg.client_troupe).or_default();
        parked.push(Parked { at, msg });
        parked.len() == 1
    }

    /// The question about `troupe` is settled — with its membership, or
    /// without. Hands back every call message parked for it.
    pub(crate) fn answer(
        &mut self,
        troupe: TroupeId,
        members: Option<&Rc<[SockAddr]>>,
    ) -> Vec<Parked> {
        if let Some(members) = members {
            self.install(troupe, members.clone());
        }
        self.parked.remove(&troupe).unwrap_or_default()
    }

    /// Remembers `addr`'s death until `until`.
    pub(crate) fn mark_dead(&mut self, addr: SockAddr, until: Time) {
        self.dead_peers.insert(addr, until);
    }

    /// Hearing from a peer at all rehabilitates it: a marker left by a
    /// healed partition must not fail-fast calls to a live member.
    pub(crate) fn heard_from(&mut self, addr: SockAddr) {
        self.dead_peers.remove(&addr);
    }

    /// `true` while `addr` is under a live dead-peer marker.
    pub(crate) fn is_dead(&self, addr: SockAddr, now: Time) -> bool {
        self.dead_peers.get(&addr).is_some_and(|&until| now < until)
    }

    /// Whether a new call should address `addr` at all; forgets an
    /// expired marker on the way.
    pub(crate) fn admit(&mut self, addr: SockAddr, now: Time) -> bool {
        match self.dead_peers.get(&addr) {
            Some(&until) if now < until => false,
            Some(_) => {
                self.dead_peers.remove(&addr);
                true
            }
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::tests::message;
    use simnet::{Duration, HostId};

    /// A troupe is asked about once however many of its calls park, and
    /// another troupe's calls are asked about apart; the answer hands
    /// every call parked for the troupe back once, in arrival order, and
    /// the next call to park asks again.
    #[test]
    fn a_troupe_is_asked_about_once_and_its_calls_come_back_once() {
        let mut d = Directory::default();
        let member = SockAddr::new(HostId(1), 50);
        let mut park = |troupe, seq| {
            let (at, mut msg) = message(member, seq);
            msg.client_troupe = TroupeId(troupe);
            d.park(at, msg)
        };
        let asks = [(7, 1), (7, 2), (8, 1), (7, 3)].map(|(troupe, seq)| park(troupe, seq));
        assert_eq!(asks, [true, false, true, false]);
        let members: Rc<[SockAddr]> = [member].into();
        let back = d.answer(TroupeId(7), Some(&members));
        let seqs: Vec<u32> = back.iter().map(|p| p.msg.call_seq).collect();
        assert_eq!(seqs, [1, 2, 3]);
        assert!(d.answer(TroupeId(7), None).is_empty(), "handed back once");
        assert_eq!(d.members(TroupeId(7)), Some(&members));
        assert_eq!(d.answer(TroupeId(8), None).len(), 1);
        let (at, msg) = message(member, 4);
        assert!(d.park(at, msg), "asked again");
        assert_eq!(d.answer(TroupeId(7), None).len(), 1);
        assert!(d.parked.is_empty());
    }

    /// A marker fails calls fast while it is live; its expiry, or any
    /// word from the peer, re-admits the member and leaves nothing
    /// behind.
    #[test]
    fn dead_markers_expire_and_are_forgotten() {
        let mut d = Directory::default();
        let peer = |h| SockAddr::new(HostId(h), 70);
        let at = |s| Time::ZERO + Duration::from_secs(s);
        d.mark_dead(peer(1), at(10));
        d.mark_dead(peer(2), at(10));
        assert!(d.is_dead(peer(1), at(9)) && !d.admit(peer(1), at(9)));
        assert!(!d.is_dead(peer(1), at(10)) && d.admit(peer(1), at(10)));
        d.heard_from(peer(2));
        assert!(d.admit(peer(2), at(0)));
        assert!(d.dead_peers.is_empty());
    }
}
