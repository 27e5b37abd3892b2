//! The ordered-broadcast workload: Figure 5.1 under a seeded fault
//! schedule.
//!
//! The replicated module is an [`OrderedBroadcastService`] and the
//! clients speak [`ProposeAccept`] — the two-phase propose/accept
//! protocol — through partitions, loss bursts, and member crashes.
//!
//! Two workload-specific oracles sit on top of the shared ones:
//!
//! - **Identical applied order** (§5.4): at quiesce, every member's
//!   `applied_order` is byte-identical, and so is the application-state
//!   digest — the app is an order-*sensitive* checksum, so two members
//!   that applied the same messages in different orders cannot collide.
//!   This is the oracle that catches a rejoined spare whose state
//!   transfer dropped the queue or the applied history.
//! - **No starvation** (Figure 5.1's liveness claim): every broadcast a
//!   client confirmed is in every member's applied order, every queue
//!   has drained, and every client finished its script. A queue-head
//!   placeholder that never resolves — the stall this workload was
//!   built to flush out — fails this oracle, not a timeout. The quiesce
//!   probe matters here: its accepts force a dispatch (and thus a queue
//!   drain) at every member, so a straggler whose agreed time was
//!   slightly in the future still applies before the oracles look.
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
use transactions::{OrderedApply, OrderedBroadcastService};
use wire::to_bytes;

use crate::client::ProposeAccept;
use crate::harness::{Quiesced, Workload};
use crate::oracle::{check_monotonicity, check_replication, Violation};

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
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in payload {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
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
        let views = q.member_views(|addr, s: &OrderedBroadcastService<ChaosApp>| {
            (
                addr,
                s.applied_order.clone(),
                s.state_digest(),
                s.queue_len(),
            )
        });
        let mut confirmed = Vec::new();
        q.each_client::<ProposeAccept>(|_, a| confirmed.extend_from_slice(&a.confirmed));
        extra.broadcasts = confirmed.len();
        check_applied_order(&views, out);
        check_no_starvation(&views, &confirmed, out);
        check_replication(q, out);
        check_monotonicity(q, out);
    }
}

/// The identical-applied-order oracle: every current member's
/// `applied_order` equal, every state digest equal.
fn check_applied_order(views: &[(SockAddr, Vec<u64>, u64, usize)], out: &mut Vec<Violation>) {
    const ORACLE: &str = "identical-applied-order";
    let Some(first) = views.first() else {
        out.push(Violation {
            oracle: ORACLE,
            detail: "no live broadcast member at quiesce".into(),
        });
        return;
    };
    for v in &views[1..] {
        if v.1 != first.1 {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "applied orders diverge: {} applied {:?}, {} applied {:?}",
                    first.0, first.1, v.0, v.1
                ),
            });
        }
        if v.2 != first.2 {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "state digests diverge: {} has {:#018x}, {} has {:#018x}",
                    first.0, first.2, v.0, v.2
                ),
            });
        }
    }
}

/// The no-starvation oracle: every confirmed broadcast applied at every
/// member, every queue drained.
fn check_no_starvation(
    views: &[(SockAddr, Vec<u64>, u64, usize)],
    confirmed: &[u64],
    out: &mut Vec<Violation>,
) {
    const ORACLE: &str = "no-starvation";
    for v in views {
        if v.3 != 0 {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!("member {} still queues {} message(s) at quiesce", v.0, v.3),
            });
        }
        for &id in confirmed {
            if !v.1.contains(&id) {
                out.push(Violation {
                    oracle: ORACLE,
                    detail: format!(
                        "broadcast {id} was confirmed to its client but member {} never \
                         applied it",
                        v.0
                    ),
                });
            }
        }
    }
}
