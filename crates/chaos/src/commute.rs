//! The commutative-operations workload: CRDT-style counters and
//! grow-only sets under a seeded fault schedule.
//!
//! The replicated module is a [`CommutativeService`] and the clients
//! speak [`CmBatch`]. There is no commit protocol and no agreed order:
//! members apply operations as they arrive, and the workload's only
//! obligations are *delivery everywhere* (the all-ack collation plus
//! same-id retry) and *idempotence* (the per-request dedup ledger).
//!
//! The workload-specific oracle is **convergence without commit**: at
//! quiesce every member's state digest is identical — the digest is
//! order-*insensitive*, covering counters, set, and dedup ledger — and
//! every batch a client confirmed is in every member's ledger. Members
//! may apply the batches in wildly different interleavings under
//! partitions and loss bursts; commutativity says the end states still
//! coincide, with zero aborts along the way (the property BENCH_8
//! prices against the commit and broadcast protocols). Beside it,
//! **bounded state**
//! ([`check_bounded_state`]): each
//! member holds its dedup ledger in at most one range per client, plus
//! one per id a client minted and never confirmed.

use std::fmt;

use circus::Service;
use simnet::{HostId, SockAddr, World};
use transactions::{CmBatch, CommutativeService};

use crate::harness::{Quiesced, Workload};
use crate::oracle::{
    check_bounded_state, check_census, check_monotonicity, check_replication, check_split_calls,
    Violation,
};

/// The commutative-operations workload.
pub struct Commute;

/// What a commutative run reports beyond the common fields.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommuteExtra {
    /// Client-confirmed batches across all clients (probes included).
    pub batches: usize,
}

impl fmt::Display for CommuteExtra {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} batches", self.batches)
    }
}

impl Workload for Commute {
    type Proto = CmBatch;
    type Extra = CommuteExtra;
    const NAME: &'static str = "commute";
    const TROUPE: &'static str = "commute";
    const SCRIPT_SALT: u64 = 0x434F_4D4D;
    const SCRIPT_LEN: usize = 30;

    fn service(&self, _w: &mut World, _host: HostId) -> Box<dyn Service> {
        Box::new(CommutativeService::new())
    }

    fn check(&self, q: &Quiesced, extra: &mut CommuteExtra, out: &mut Vec<Violation>) {
        let (mut confirmed, mut unconfirmed) = (Vec::new(), 0);
        q.each_client::<CmBatch>(|_, a| {
            confirmed.extend_from_slice(&a.confirmed);
            unconfirmed += a.unconfirmed();
        });
        extra.batches = confirmed.len();
        let ranges = q.client_addrs.len() + unconfirmed;
        let views = q.member_views(|addr, s: &CommutativeService| {
            check_bounded_state(addr, &[("dedup-ledger ranges", s.id_ranges(), ranges)], out);
            CmView {
                addr,
                digest: s.state_digest(),
                missing: confirmed
                    .iter()
                    .copied()
                    .filter(|&id| !s.has_seen(id))
                    .collect(),
            }
        });
        check_convergence(&views, out);
        check_replication(q, out);
        check_monotonicity(q, out);
        check_split_calls(q, out);
        check_census::<CmBatch>(q, out);
    }
}

/// One member at quiesce: its digest, and which confirmed ids its
/// ledger lacks.
struct CmView {
    addr: SockAddr,
    digest: u64,
    missing: Vec<u64>,
}

/// The convergence-without-commit oracle: identical state digests at
/// every member, and every confirmed batch in every member's ledger.
fn check_convergence(views: &[CmView], out: &mut Vec<Violation>) {
    const ORACLE: &str = "convergence-without-commit";
    let Some(first) = views.first() else {
        out.push(Violation {
            oracle: ORACLE,
            detail: "no live commutative member at quiesce".into(),
        });
        return;
    };
    for v in &views[1..] {
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
    for v in views {
        for &id in &v.missing {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "batch {id} was confirmed to its client but member {} never applied it",
                    v.addr
                ),
            });
        }
    }
}
