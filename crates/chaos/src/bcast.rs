//! The ordered-broadcast workload: Figure 5.1 under a seeded fault
//! schedule.
//!
//! The replicated module is an [`OrderedBroadcastService`] and the
//! clients speak [`ProposeAccept`] — the two-phase propose/accept
//! protocol — through partitions, loss bursts, and member crashes.
//!
//! Three workload-specific oracles sit on top of the shared ones:
//!
//! - **Identical applied order** (§5.4): at quiesce, every member's
//!   folded `applied_order` (count and order-sensitive fold) is equal,
//!   and so is the application-state digest — the app is an
//!   order-*sensitive* checksum, so two members that applied the same
//!   messages in different orders cannot collide. A violation prints
//!   each side's window of most recent ids. This is the oracle that
//!   catches a rejoined spare whose state transfer dropped the queue or
//!   the applied history.
//! - **No starvation** (Figure 5.1's liveness claim): every broadcast a
//!   client confirmed is in every member's applied-id set, every queue
//!   has drained, and every client finished its script. A queue-head
//!   placeholder that never resolves — the stall this workload was
//!   built to flush out — fails this oracle, not a timeout. The quiesce
//!   probe matters here: its accepts force a dispatch (and thus a queue
//!   drain) at every member, so a straggler whose agreed time was
//!   slightly in the future still applies before the oracles look.
//! - **Bounded state**
//!   ([`check_bounded_state`]): at
//!   quiesce no member holds more retry-cache entries than there are
//!   clients, more applied-id ranges than one per client plus one per
//!   id a client minted and never confirmed, or anything queued.
//!
//! Members run with a proposal TTL of [`CHAOS_PROPOSAL_TTL_US`], well
//! above the default: under chaos a client may retry one accept for the
//! better part of a minute, and garbage-collecting a placeholder whose
//! accept is still in flight elsewhere would let members apply later
//! messages in different orders. The default TTL is for servers whose
//! clients are presumed dead after thirty seconds; the chaos clients
//! are explicitly immortal and the TTL must dominate their retry
//! horizon.

use std::fmt;

use circus::Service;
use simnet::{HostId, SockAddr, World};
use transactions::{AppliedOrder, OrderedApply, OrderedBroadcastService, ProposeAccept};
use wire::to_bytes;

use crate::harness::{Quiesced, Workload};
use crate::oracle::{
    check_bounded_state, check_census, check_monotonicity, check_replication, check_split_calls,
    Violation,
};

/// Proposal TTL for chaos members: must dominate the clients' accept
/// retry horizon (fault windows up to ~60 s of self-heal), or orphan GC
/// would collect placeholders whose accepts are merely delayed.
pub const CHAOS_PROPOSAL_TTL_US: u64 = 90_000_000;

/// The broadcast application under test: an order-sensitive checksum.
/// `total` folds each payload's hash in with a multiply, so applying
/// the same payload set in two different orders yields two different
/// digests — exactly what the identical-applied-order oracle needs from
/// the application layer.
#[derive(Default)]
pub struct ChaosApp {
    total: u64,
    count: u64,
}

impl OrderedApply for ChaosApp {
    fn apply(&mut self, payload: &[u8]) -> Vec<u8> {
        let h = obs::fnv1a(payload);
        self.total = self.total.wrapping_mul(31).wrapping_add(h);
        self.count += 1;
        to_bytes(&self.count)
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut v = self.total.to_be_bytes().to_vec();
        v.extend_from_slice(&self.count.to_be_bytes());
        v
    }

    fn restore(&mut self, state: &[u8]) {
        if state.len() == 16 {
            self.total = u64::from_be_bytes(state[..8].try_into().expect("8 bytes"));
            self.count = u64::from_be_bytes(state[8..].try_into().expect("8 bytes"));
        }
    }
}

/// The ordered-broadcast workload.
pub struct Bcast;

/// What a broadcast run reports beyond the common fields.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BcastExtra {
    /// Client-confirmed broadcasts across all clients (probes included).
    pub broadcasts: usize,
}

impl fmt::Display for BcastExtra {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} broadcasts", self.broadcasts)
    }
}

impl Workload for Bcast {
    type Proto = ProposeAccept;
    type Extra = BcastExtra;
    const NAME: &'static str = "bcast";
    const TROUPE: &'static str = "bcast";
    const SCRIPT_SALT: u64 = 0x4243_5354;
    const SCRIPT_LEN: usize = 30;

    fn service(&self, _w: &mut World, _host: HostId) -> Box<dyn Service> {
        Box::new(
            OrderedBroadcastService::new(ChaosApp::default())
                .with_proposal_ttl(CHAOS_PROPOSAL_TTL_US),
        )
    }

    fn check(&self, q: &Quiesced, extra: &mut BcastExtra, out: &mut Vec<Violation>) {
        let (mut confirmed, mut unconfirmed) = (Vec::new(), 0);
        q.each_client::<ProposeAccept>(|_, a| {
            confirmed.extend_from_slice(&a.results);
            unconfirmed += a.unconfirmed();
        });
        extra.broadcasts = confirmed.len();
        let clients = q.client_addrs.len();
        let views = q.member_views(|addr, s: &OrderedBroadcastService<ChaosApp>| {
            check_bounded_state(
                addr,
                &[
                    ("retry-cache entries", s.retry_cache_len(), clients),
                    ("applied-id ranges", s.id_ranges(), clients + unconfirmed),
                    ("queued messages", s.queue_len(), 0),
                ],
                out,
            );
            BcastView {
                addr,
                order: s.applied_order.clone(),
                digest: s.state_digest(),
                queued: s.queue_len(),
                missing: confirmed
                    .iter()
                    .copied()
                    .filter(|&id| !s.has_applied(id))
                    .collect(),
            }
        });
        check_applied_order(&views, out);
        check_no_starvation(&views, out);
        check_replication(q, out);
        check_monotonicity(q, out);
        check_split_calls(q, out);
        check_census::<ProposeAccept>(q, out);
    }
}

/// One member at quiesce: its folded applied order and state digest, its
/// queue length, and which confirmed ids its applied-id set lacks.
struct BcastView {
    addr: SockAddr,
    order: AppliedOrder,
    digest: u64,
    queued: usize,
    missing: Vec<u64>,
}

/// The identical-applied-order oracle: every current member's folded
/// `applied_order` equal, every state digest equal.
fn check_applied_order(views: &[BcastView], out: &mut Vec<Violation>) {
    const ORACLE: &str = "identical-applied-order";
    let Some(first) = views.first() else {
        out.push(Violation {
            oracle: ORACLE,
            detail: "no live broadcast member at quiesce".into(),
        });
        return;
    };
    let show = |o: &AppliedOrder| {
        format!(
            "{} (fold {:#018x}, most recent {:?})",
            o.len(),
            o.fold(),
            o.recent()
        )
    };
    for v in &views[1..] {
        if v.order != first.order {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "applied orders diverge: {} applied {}, {} applied {}",
                    first.addr,
                    show(&first.order),
                    v.addr,
                    show(&v.order)
                ),
            });
        }
        if v.digest != first.digest {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "state digests diverge: {} has {:#018x}, {} has {:#018x}",
                    first.addr, first.digest, v.addr, v.digest
                ),
            });
        }
    }
}

/// The no-starvation oracle: every confirmed broadcast applied at every
/// member, every queue drained.
fn check_no_starvation(views: &[BcastView], out: &mut Vec<Violation>) {
    const ORACLE: &str = "no-starvation";
    for v in views {
        if v.queued != 0 {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "member {} still queues {} message(s) at quiesce",
                    v.addr, v.queued
                ),
            });
        }
        for id in &v.missing {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "broadcast {id} was confirmed to its client but member {} never \
                     applied it",
                    v.addr
                ),
            });
        }
    }
}
