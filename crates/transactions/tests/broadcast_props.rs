//! Property tests for the ordered broadcast protocol: concurrent
//! broadcasters, skewed member clocks, per-member reordered and
//! duplicated accept delivery — every member must end with an
//! identical folded `applied_order` and a byte-identical application
//! log (Figure 5.1's claim, the max-of-proposals rule).

use circus::Service;
use proptest::prelude::*;
use transactions::broadcast::{
    Accept, OrderedApply, Propose, PROC_ACCEPT_TIME, PROC_GET_PROPOSED_TIME,
};
use transactions::{AppliedOrder, OrderedBroadcastService};
use wire::{from_bytes, to_bytes};

/// A deterministic app: logs payload bytes.
struct Log {
    entries: Vec<Vec<u8>>,
}

impl OrderedApply for Log {
    fn apply(&mut self, payload: &[u8]) -> Vec<u8> {
        self.entries.push(payload.to_vec());
        to_bytes(&(self.entries.len() as u32))
    }
}

fn ctx(now_us: u64) -> circus::ServiceCtx {
    circus::ServiceCtx {
        thread: circus::ThreadId {
            origin: simnet::SockAddr::new(simnet::HostId(0), 0),
            serial: 0,
        },
        caller: circus::TroupeId(0),
        invocation: 0,
        now: simnet::Time::from_micros(now_us),
        me: simnet::SockAddr::new(simnet::HostId(0), 0),
        effects: Vec::new(),
        span: obs::SpanId::NONE,
        metrics: obs::Registry::new(),
    }
}

const MEMBERS: usize = 3;
const MAX_MSGS: usize = 6;

proptest! {
    /// The client side is modeled faithfully: each message's proposal
    /// reaches every member (the strict propose collation guarantees
    /// that), the accepted time is the maximum of the members' skewed
    /// local proposals, and then the accepts are delivered to each
    /// member in an independently shuffled order, with duplicates. The
    /// applied order must come out byte-identical everywhere, equal to
    /// the (accepted time, message id) sort.
    #[test]
    fn skewed_clocks_and_reordered_accepts_agree_on_order(
        skews in proptest::collection::vec(0u64..5_000_000, MEMBERS),
        jitters in proptest::collection::vec(0u64..1_000, MEMBERS * MAX_MSGS),
        perm_keys in proptest::collection::vec(any::<u64>(), MEMBERS * MAX_MSGS),
        dups in proptest::collection::vec(any::<bool>(), MEMBERS * MAX_MSGS),
        n_msgs in 1usize..=MAX_MSGS,
    ) {
        let mut members: Vec<OrderedBroadcastService<Log>> = (0..MEMBERS)
            .map(|_| OrderedBroadcastService::new(Log { entries: Vec::new() }))
            .collect();

        // Phase 1: every proposal reaches every member; the broadcaster
        // takes the max of the (skewed, jittered) local clock readings.
        let mut accepted: Vec<(u64, u64, Vec<u8>)> = Vec::new();
        for i in 0..n_msgs {
            let msg_id = 100 + i as u64;
            let global = 1_000 + 500 * i as u64;
            let payload = vec![i as u8 + 1, 0xAB];
            let mut max = 0u64;
            for (m, svc) in members.iter_mut().enumerate() {
                let local = global + skews[m] + jitters[m * MAX_MSGS + i];
                let mut c = ctx(local);
                let step = svc.dispatch(
                    &mut c,
                    PROC_GET_PROPOSED_TIME,
                    &Propose::encode(msg_id, &payload),
                );
                let circus::Step::Reply(bytes) = step else {
                    panic!("propose refused");
                };
                max = max.max(from_bytes::<u64>(&bytes).unwrap());
            }
            accepted.push((msg_id, max, payload));
        }

        // Phase 2: deliver the accepts to each member in its own
        // shuffled order, duplicating some (retries, network dups).
        for (m, svc) in members.iter_mut().enumerate() {
            let mut order: Vec<usize> = (0..n_msgs).collect();
            order.sort_by_key(|&i| perm_keys[m * MAX_MSGS + i]);
            let now = 8_000_000 + skews[m]; // All due, well inside the GC TTL.
            for &i in &order {
                let reps = if dups[m * MAX_MSGS + i] { 2 } else { 1 };
                for _ in 0..reps {
                    let (msg_id, time, payload) = &accepted[i];
                    let mut c = ctx(now);
                    let step = svc.dispatch(
                        &mut c,
                        PROC_ACCEPT_TIME,
                        &Accept::encode(*msg_id, *time, payload),
                    );
                    prop_assert!(matches!(step, circus::Step::Reply(_)));
                }
            }
        }

        // The agreed order: sort by (accepted time, message id).
        let mut expect: Vec<(u64, u64)> =
            accepted.iter().map(|&(id, t, _)| (t, id)).collect();
        expect.sort();
        // The app's own log spells the order out (payload byte 0 is the
        // message's index + 1); the folded order must be that of the ids.
        let log: Vec<Vec<u8>> = expect
            .iter()
            .map(|&(_, id)| vec![(id - 100) as u8 + 1, 0xAB])
            .collect();
        let expect: AppliedOrder = expect.into_iter().map(|(_, id)| id).collect();
        for svc in &members {
            prop_assert_eq!(&svc.applied_order, &expect);
            prop_assert_eq!(&svc.app().entries, &log);
            prop_assert_eq!(svc.queue_len(), 0);
        }
        // Byte-identical application, not just id agreement.
        let digest = members[0].state_digest();
        for svc in &members[1..] {
            prop_assert_eq!(svc.state_digest(), digest);
        }
    }
}
