//! The commit-protocol workload: a replicated transactional store.
//!
//! Members are [`TroupeStoreService`]s, clients run [`Txn`] scripts,
//! and the oracles are the eight of [`check_all`]. This is the workload the adversary and the
//! benchmark drive, through its two halves [`run_scenario`] and
//! [`check_all`]: they need the frozen [`Quiesced`] world itself, not
//! just the folded report.

use std::fmt;

use circus::Service;
use simnet::{HostId, SockAddr, World};
use transactions::{TroupeStoreService, Txn};

use crate::harness::{each_client, quiesce, Quiesced, ScenarioOptions, Workload, COMMIT_MODULE};
use crate::oracle::{check_all, Violation};

/// The store workload.
pub struct Store;

/// What a store run reports beyond the common fields.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreExtra {
    /// Client-confirmed commits across all clients (probes included).
    pub commits: usize,
    /// Aborted or ambiguously-failed submissions across all clients.
    pub aborts: u32,
}

impl fmt::Display for StoreExtra {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} commits, {} aborts", self.commits, self.aborts)
    }
}

impl StoreExtra {
    /// Totals the transaction ledgers of `clients`.
    pub(crate) fn tally(w: &World, clients: &[SockAddr]) -> StoreExtra {
        let mut extra = StoreExtra::default();
        each_client::<Txn>(w, clients, |_, a| {
            extra.commits += a.committed_keys.len();
            extra.aborts += a.aborts;
        });
        extra
    }
}

impl Workload for Store {
    type Proto = Txn;
    type Extra = StoreExtra;
    const NAME: &'static str = "store";
    const TROUPE: &'static str = "store";
    const SCRIPT_SALT: u64 = 0x574F_524B;
    const SCRIPT_LEN: usize = 40;

    fn service(&self, _w: &mut World, _host: HostId) -> Box<dyn Service> {
        Box::new(TroupeStoreService::new(COMMIT_MODULE))
    }

    fn check(&self, q: &Quiesced, extra: &mut StoreExtra, out: &mut Vec<Violation>) {
        out.extend(check_all(q));
        *extra = StoreExtra::tally(&q.world, &q.client_addrs);
    }
}

/// The first half of `run(&Store, …)`: builds the world, runs the fault
/// plan for `seed` against the live store workload, quiesces, and
/// returns the frozen world for [`check_all`] (and whatever else the
/// caller wants to do to it).
pub fn run_scenario(seed: u64, opts: &ScenarioOptions) -> Quiesced {
    quiesce(&Store, seed, opts).0
}
