//! The next call number per peer, and how a joining member inherits its
//! troupe's.
//!
//! A many-to-one call's return goes back to its callers by one multicast
//! only if every caller sent its copy under the same call number
//! (§4.3.3). Members of a troupe number their calls alike because they
//! make the same calls; a member that joins later (§6.4.1) has made none.
//! So a survivor's answer to the state fetch carries its numbers beside
//! the state, as a [`StateTransfer`], and the joiner raises its own to
//! them: from then on it calls every peer under the number its troupe
//! does.

use std::collections::HashMap;

use simnet::{HostId, SockAddr};
use wire::to_bytes;

/// No run numbers its calls to a peer this far, so a transfer that says
/// so is garbled or forged; adopting it would run the peer's numbers out.
const UNREACHED: u32 = u32::MAX / 2;

/// Next outgoing call number per peer. A unicast call takes each member's
/// own next number. A multicast call must reach every member under the
/// *same* number — the precondition for byte-identical segments (§4.3.3)
/// — so it takes the largest of its members' next numbers and moves all
/// of them past it.
///
/// Kept by the call engine, not on the connection: a connection dropped
/// after a false crash suspicion (healed partition) is recreated fresh,
/// but the peer's surviving endpoint still remembers earlier call
/// numbers — restarting at 1 would make new calls look like replays
/// there, acknowledged (or suppressed) without ever being delivered. For
/// the same reason a number only rises.
#[derive(Default)]
pub(crate) struct CallNumbers {
    /// Point lookups, and a walk sorted by peer for a transfer: never walked in hash order.
    next: HashMap<SockAddr, u32>,
}

impl CallNumbers {
    /// The number of the next call to `peer`.
    pub(crate) fn due(&self, peer: SockAddr) -> u32 {
        self.next.get(&peer).copied().unwrap_or(1)
    }

    /// Takes the number of a call to `peer`: `shared` if the call is a
    /// multicast under it (never below [`CallNumbers::due`]), else the
    /// peer's due number; the peer's counter moves past it.
    pub(crate) fn take(&mut self, peer: SockAddr, shared: Option<u32>) -> u32 {
        let next = self.next.entry(peer).or_insert(1);
        let cn = shared.unwrap_or(*next);
        *next = cn + 1;
        cn
    }

    /// Peers numbered.
    pub(crate) fn len(&self) -> usize {
        self.next.len()
    }

    /// Makes `next` the number of the next call to `peer`, whatever it
    /// was: the node's test hook, and the only way a number goes down.
    pub(crate) fn set(&mut self, peer: SockAddr, next: u32) {
        self.next.insert(peer, next);
    }

    /// Raises each peer's next number to the one `from` has for it —
    /// never lowering one — except `me`'s: the joiner at `me` inheriting
    /// a survivor's numbers. A number past [`UNREACHED`] is not taken.
    pub(crate) fn raise(&mut self, me: SockAddr, from: &[PeerNumber]) {
        for p in from {
            let peer = SockAddr::new(HostId(p.host), p.port);
            if peer != me && p.next <= UNREACHED {
                let next = self.next.entry(peer).or_insert(1);
                *next = (*next).max(p.next);
            }
        }
    }

    /// A state-fetch answer: `state` as the service externalized it, with
    /// these numbers beside it, in peer order.
    pub(crate) fn transfer(&self, state: Vec<u8>) -> Vec<u8> {
        let mut call_numbers: Vec<PeerNumber> = (self.next.iter())
            .map(|(peer, &next)| PeerNumber {
                host: peer.host.0,
                port: peer.port,
                next,
            })
            .collect();
        call_numbers.sort_unstable_by_key(|p| (p.host, p.port));
        to_bytes(&StateTransfer {
            state,
            call_numbers,
        })
    }
}

wire::record! {
    /// One peer's next call number, as a survivor ships it.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub(crate) struct PeerNumber {
        /// The peer's host.
        pub(crate) host: u32,
        /// The peer's port.
        pub(crate) port: u16,
        /// The number of the survivor's next call to it.
        pub(crate) next: u32,
    }
}

wire::record! {
    /// The answer to the reserved `get_state` procedure on the wire: the
    /// node wraps what the service returned with its call numbers, and
    /// the fetching node unwraps it, so a service's state-transfer
    /// contract never sees them.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub(crate) struct StateTransfer {
        /// The state, whole or as a `StateSince` (see `GET_STATE`).
        pub(crate) state: Vec<u8>,
        /// The answering node's next call number per peer.
        pub(crate) call_numbers: Vec<PeerNumber>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::from_bytes;

    fn at(h: u32) -> SockAddr {
        SockAddr::new(HostId(h), 70)
    }

    /// A joiner's next number to each peer becomes the larger of its own
    /// and the survivor's, and never goes down; the survivor's number for
    /// the joiner itself is not the joiner's to take.
    #[test]
    fn a_joiner_takes_the_larger_number_and_skips_itself() {
        let mut survivor = CallNumbers::default();
        survivor.set(at(1), 9);
        survivor.set(at(2), 3);
        survivor.set(at(7), 40);
        let mut joiner = CallNumbers::default();
        joiner.set(at(2), 6);
        let shipped = from_bytes::<StateTransfer>(&survivor.transfer(b"s".to_vec())).unwrap();
        assert_eq!(shipped.state, b"s");
        let hosts: Vec<u32> = shipped.call_numbers.iter().map(|p| p.host).collect();
        assert_eq!(hosts, [1, 2, 7], "shipped in peer order");

        joiner.raise(at(7), &shipped.call_numbers);
        assert_eq!((joiner.due(at(1)), joiner.due(at(2))), (9, 6));
        assert_eq!(joiner.len(), 2, "its own address is skipped");
        assert_eq!(joiner.take(at(1), None), 9);

        let mut behind = CallNumbers::default();
        behind.set(at(1), 2);
        behind.set(at(3), u32::MAX);
        let behind = from_bytes::<StateTransfer>(&behind.transfer(Vec::new())).unwrap();
        joiner.raise(at(7), &behind.call_numbers);
        assert_eq!(joiner.due(at(1)), 10, "never lowered");
        assert_eq!(joiner.due(at(3)), 1, "a number no run reaches is not taken");
    }
}
