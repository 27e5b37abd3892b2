//! Property-based tests on the collators and the call/return message
//! wire formats.

use circus::message::ReturnView;
use circus::{
    CallMessage, Collation, CollationPolicy, Decision, ReturnMessage, ThreadId, TroupeId,
};
use proptest::prelude::*;
use simnet::{HostId, SockAddr};

proptest! {
    /// Unanimous collation: order of vote arrival never changes the
    /// decision once all votes are in.
    #[test]
    fn unanimous_order_independent(
        votes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..4), 1..6),
        order in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let n = votes.len();
        let mut forward = Collation::new(CollationPolicy::Unanimous, n);
        for (i, v) in votes.iter().enumerate() {
            forward.add_vote(i, v.clone());
        }
        let mut permuted = Collation::new(CollationPolicy::Unanimous, n);
        let mut idx: Vec<usize> = (0..n).collect();
        // Deterministic permutation from the seed values.
        for (k, o) in order.iter().enumerate() {
            let j = (*o as usize) % n;
            idx.swap(k % n, j);
        }
        for &i in &idx {
            permuted.add_vote(i, votes[i].clone());
        }
        prop_assert_eq!(forward.decide(), permuted.decide());
    }

    /// Majority collation can only produce a value held by a quorum.
    #[test]
    fn majority_output_has_quorum(
        votes in proptest::collection::vec(0u8..3, 1..8),
    ) {
        let n = votes.len();
        let mut c = Collation::new(CollationPolicy::Majority, n);
        for (i, v) in votes.iter().enumerate() {
            c.add_vote(i, vec![*v]);
        }
        if let Decision::Ready(out) = c.decide() {
            let count = votes.iter().filter(|v| out == vec![**v]).count();
            prop_assert!(count > n / 2, "{out:?} lacks a quorum in {votes:?}");
        }
    }

    /// First-come always yields one of the actual votes.
    #[test]
    fn first_come_yields_a_vote(
        votes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..4), 1..6),
    ) {
        let n = votes.len();
        let mut c = Collation::new(CollationPolicy::FirstCome, n);
        for (i, v) in votes.iter().enumerate() {
            c.add_vote(i, v.clone());
        }
        match c.decide() {
            Decision::Ready(out) => prop_assert!(votes.contains(&out.to_vec())),
            other => prop_assert!(false, "unexpected {other:?}"),
        }
    }

    /// Call messages round-trip through the wire format for arbitrary
    /// field values, with members named or not.
    #[test]
    fn call_message_round_trips(
        host: u32,
        port: u16,
        serial: u32,
        call_seq: u32,
        client: u64,
        server: u64,
        module: u16,
        proc: u16,
        args in proptest::collection::vec(any::<u8>(), 0..200),
        named in proptest::collection::vec(any::<(u32, u16)>(), 0..4),
    ) {
        let msg = CallMessage {
            thread: ThreadId { origin: SockAddr::new(HostId(host), port), serial },
            call_seq,
            client_troupe: TroupeId(client),
            server_troupe: TroupeId(server),
            module,
            proc,
            args,
            members: named.into_iter().map(|(host, port)| SockAddr::new(HostId(host), port)).collect(),
        };
        let got = wire::from_bytes::<CallMessage>(&wire::to_bytes(&msg)).unwrap();
        prop_assert_eq!(got, msg);
    }

    /// Return messages read back as what was written, for every variant.
    #[test]
    fn return_message_round_trips(
        data in proptest::collection::vec(any::<u8>(), 0..200),
        err: String,
        id: u64,
    ) {
        for (msg, view) in [
            (ReturnMessage::Normal(data.clone()), ReturnView::Normal(&data)),
            (ReturnMessage::Error(err.clone()), ReturnView::Error(&err)),
            (ReturnMessage::WrongTroupe(TroupeId(id)), ReturnView::WrongTroupe(TroupeId(id))),
            (ReturnMessage::NoSuchProcedure, ReturnView::NoSuchProcedure),
            (ReturnMessage::Part { digest: id, bytes: data.clone() }, ReturnView::Part(id, &data)),
        ] {
            let bytes = wire::to_bytes(&msg);
            prop_assert_eq!(wire::from_bytes::<ReturnView>(&bytes), Ok(view));
        }
    }

    /// Internalizing arbitrary bytes as a call or return message fails
    /// cleanly — the node-level decode path a hostile datagram reaches
    /// once its segment header passes the structural check.
    #[test]
    fn message_internalize_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let _ = wire::from_bytes::<CallMessage>(&bytes);
        let _ = wire::from_bytes::<ReturnView>(&bytes);
    }
}
