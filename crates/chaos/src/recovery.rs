//! The recovery workload: crash a durable member mid-commit and measure
//! its log-replay rejoin.
//!
//! The [`Store`](crate::Store) workload replaces a crashed member with a
//! *warm spare* — a fresh process that takes the survivors' full state.
//! This workload exercises the durable path instead: store members write
//! a per-member commit log and snapshots to a seeded, faulty in-sim
//! [`Disk`](simnet::Disk), there are no warm spares, and the fault
//! schedule is a script of its own: one member is crashed mid-workload
//! (the crash applies the disk's torn-tail/truncation semantics to
//! unsynced bytes), and the *same host* then boots a recovery process on
//! the surviving disk. That process replays snapshot-plus-log locally,
//! registers itself as the spare for the troupe, and rejoins through the
//! wedge protocol. Its node sends the replayed log head (the store's
//! recovery token) with the state fetch, so the survivors send only the
//! *delta* of commits past it (`get_state_since`) rather than the whole
//! state.
//!
//! On top of the store oracles, two recovery-specific invariants are
//! checked at quiesce:
//!
//! * **recovered-digest** — the rejoined member's state digest equals
//!   every survivor's digest: replay plus delta catch-up reconstructs
//!   exactly the replicated state, never an approximation of it;
//! * **torn-log safety** — a torn or truncated log never yields a
//!   corrupt or partially-applied transaction: every commit the
//!   recovered member holds matches a client submission and is held by
//!   every survivor too (replay is checksum-bounded, so a damaged
//!   record vanishes entirely instead of half-applying).
//!
//! MTTR is measured in simulated time from the crash to the registry
//! showing the troupe back at full strength with the recovered member
//! in it; recovery network cost is the byte length of the state-fetch
//! reply (`spare.state_bytes`), beside what a whole-state transfer would
//! have cost (a survivor's `get_state` at the crash).

use std::fmt;

use circus::{CircusProcess, NodeBuilder, Service};
use ringmaster::{SpareAgent, SpareService, SPARE_CTL_MODULE};
use simnet::{DiskConfig, Duration, HostId, SockAddr, Until, World};
use transactions::{RecoveryInfo, TroupeStoreService, Txn};

use crate::drive::Driver;
use crate::harness::{
    Quiesced, ScenarioOptions, Workload, COMMIT_MODULE, MEMBER_MODULE, MEMBER_PORT, REPLICATION,
};
use crate::oracle::{check_all, Violation};
use crate::plan::FaultPlan;
use crate::store::StoreExtra;

/// The recovery workload and its durability knobs.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// Commits between snapshots at every durable member (0 = snapshot
    /// only on demand, so the whole history stays in the log).
    pub snapshot_every: usize,
    /// Arm the disks with [`DiskConfig::hostile`] — transient write
    /// errors while running, torn tails and bit flips at crash — instead
    /// of [`DiskConfig::faultless`].
    pub disk_faults: bool,
}

impl Default for Recovery {
    fn default() -> Recovery {
        Recovery {
            snapshot_every: 8,
            disk_faults: true,
        }
    }
}

/// What a recovery run reports beyond the common fields.
#[derive(Clone, Debug, Default)]
pub struct RecoveryExtra {
    /// Where the recovery process was booted (the crashed member's host,
    /// one port up).
    pub recovered: Option<SockAddr>,
    /// Simulated crash-to-rejoined time, if the heal completed.
    pub mttr: Option<Duration>,
    /// Bytes of the state-fetch reply that rejoined the member.
    pub recovery_bytes: u64,
    /// Bytes of a survivor's whole state at the crash: what a rejoin
    /// without the log would have fetched.
    pub full_state_bytes: u64,
    /// Delta fetches served to the rejoining member (0 or 1).
    pub delta_fetches: u64,
    /// Full-state fetches served to the rejoining member.
    pub full_fetches: u64,
    /// What the recovered member replayed from its disk.
    pub recovery: Option<RecoveryInfo>,
    /// Client-confirmed commits across all clients (probes included).
    pub commits: usize,
    /// Bytes the surviving members wrote to their disks, summed, over the
    /// whole run (`disk.h*.bytes_written`): what durability costs a
    /// member that never had to recover.
    pub survivor_disk_bytes: u64,
}

impl fmt::Display for RecoveryExtra {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mttr {:?}, {} recovery bytes of {} ({} delta / {} full fetches), {} commits",
            self.mttr,
            self.recovery_bytes,
            self.full_state_bytes,
            self.delta_fetches,
            self.full_fetches,
            self.commits,
        )?;
        if let Some(r) = &self.recovery {
            write!(
                f,
                ", replayed {} (deduped {}) from snapshot v{}, {} torn of {} log bytes",
                r.replayed, r.deduped, r.snapshot_version, r.torn_bytes, r.log_bytes
            )?;
        }
        Ok(())
    }
}

impl Recovery {
    fn durable_store(&self, disk: simnet::Disk) -> Box<dyn Service> {
        Box::new(TroupeStoreService::with_durability(
            COMMIT_MODULE,
            disk,
            self.snapshot_every,
        ))
    }
}

impl Workload for Recovery {
    type Proto = Txn;
    type Extra = RecoveryExtra;
    const NAME: &'static str = "recovery";
    const TROUPE: &'static str = "store";
    const SCRIPT_SALT: u64 = 0x5245_434F;
    const SCRIPT_LEN: usize = 30;
    const WARM_SPARES: bool = false;

    /// Durable members: each host gets its own seeded faulty disk, and
    /// the store service writes its commit log and snapshots there.
    fn service(&self, w: &mut World, host: HostId) -> Box<dyn Service> {
        let cfg = if self.disk_faults {
            DiskConfig::hostile()
        } else {
            DiskConfig::faultless()
        };
        self.durable_store(w.install_disk(host, cfg))
    }

    /// The whole schedule is one crash: no plan is generated, and the
    /// network is never faulted (so there is nothing to heal or drain).
    fn faults(
        &self,
        d: &mut Driver,
        seed: u64,
        opts: &ScenarioOptions,
        extra: &mut RecoveryExtra,
    ) -> FaultPlan {
        // Let the workload reach roughly its halfway point, so the crash
        // lands on a live commit stream and the log has content to replay.
        let halfway = opts.txns_per_client.max(1);
        let clients = d.clients.clone();
        let deadline = d.w.now() + Duration::from_micros(180_000_000);
        let warmed = d.w.run(Until::pred(deadline, |w| {
            StoreExtra::tally(w, &clients).commits >= halfway
        }));
        if !warmed {
            d.warnings
                .push("workload never reached its halfway point".into());
        }

        // Crash one durable member. `crash_host` applies the disk's crash
        // semantics (drop unsynced bytes, maybe tear or flip the tail), so
        // what the recovery process finds is exactly what survived.
        let at = (seed % d.members.len() as u64) as usize;
        let victim = d.members[at];
        let host = victim.addr.host;
        let crash_at = d.w.now();
        // What a whole-state rejoin would fetch, read off a survivor.
        let survivor = d.members[(at + 1) % d.members.len()].addr;
        let whole = d.w.with_proc(survivor, |p: &CircusProcess| {
            let store = p.node().service_as::<TroupeStoreService>(MEMBER_MODULE);
            store.map_or(0, |s| s.get_state().len() as u64)
        });
        extra.full_state_bytes = whole.unwrap_or(0);
        d.w.crash_host(host);
        d.w.restart_host(host);

        // Boot the recovery process on the same host and disk, at a fresh
        // port — the dead address is never reused, its peers still remember
        // the dead process's call numbers. The store service replays the
        // local snapshot-plus-log in `on_start`; the spare machinery then
        // offers the process to the Ringmaster, which activates it to
        // replace the member it just confirmed dead.
        let recovered = SockAddr::new(host, MEMBER_PORT + 1);
        extra.recovered = Some(recovered);
        let disk = d.w.disk(host).expect("member host has a disk");
        let spare_ctl = SpareService::new(d.rm.clone(), Self::TROUPE, MEMBER_MODULE);
        let p = NodeBuilder::new(recovered, d.config.clone())
            .service(MEMBER_MODULE, self.durable_store(disk))
            .service(SPARE_CTL_MODULE, Box::new(spare_ctl))
            .agent(Box::new(SpareAgent::new(d.rm.clone(), Self::TROUPE)))
            .binder(d.rm.clone())
            .build()
            .expect("valid node");
        d.w.spawn(recovered, Box::new(p));
        d.spares += 1;

        // MTTR: crash to the registry showing full strength again without
        // the dead member — with no warm spares in this world, that means
        // with the recovered member in the troupe.
        if d.await_self_heal(victim, REPLICATION, Duration::from_micros(90_000_000)) {
            extra.mttr = Some(d.w.now() - crash_at);
        }
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    fn check(&self, q: &Quiesced, extra: &mut RecoveryExtra, out: &mut Vec<Violation>) {
        let recovered = extra.recovered.expect("the fault script ran");
        out.extend(check_all(q));
        check_recovered_digest(q, recovered, out);
        check_torn_log_safety(q, recovered, out);

        let reg = q.world.metrics();
        extra.recovery_bytes = reg.get("spare.state_bytes");
        extra.delta_fetches = reg.get("spare.delta_fetches");
        extra.full_fetches = reg.get("spare.full_fetches");
        extra.recovery = q
            .service_at(recovered, |s: &TroupeStoreService| s.recovery)
            .flatten();
        extra.commits = StoreExtra::tally(&q.world, &q.client_addrs).commits;
        extra.survivor_disk_bytes = q
            .members
            .iter()
            .filter(|m| m.addr != recovered)
            .map(|m| reg.get(&format!("disk.h{}.bytes_written", m.addr.host.0)))
            .sum();
    }
}

/// Recovery oracle 1: the rejoined member's digest equals every
/// survivor's. Replay plus catch-up must reconstruct the replicated
/// state exactly.
fn check_recovered_digest(q: &Quiesced, recovered: SockAddr, out: &mut Vec<Violation>) {
    const ORACLE: &str = "recovered-digest";
    let digest_of = |addr: SockAddr| q.service_at(addr, |s: &TroupeStoreService| s.state_digest());
    let Some(rec) = digest_of(recovered) else {
        out.push(Violation {
            oracle: ORACLE,
            detail: format!("recovered member {recovered} is not a live store process"),
        });
        return;
    };
    for m in &q.members {
        if m.addr == recovered {
            continue;
        }
        match digest_of(m.addr) {
            Some(d) if d == rec => {}
            Some(d) => out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "recovered {recovered} has digest {rec:#018x} but survivor {} has {d:#018x}",
                    m.addr
                ),
            }),
            None => {}
        }
    }
}

/// Recovery oracle 2: a torn or truncated log never yields a corrupt or
/// partially-applied transaction. Every commit the recovered member
/// holds must match a client submission (no phantom record decoded out
/// of damaged bytes) and must be held by every surviving member (a
/// record the troupe never agreed on cannot reappear through replay).
fn check_torn_log_safety(q: &Quiesced, recovered: SockAddr, out: &mut Vec<Violation>) {
    const ORACLE: &str = "torn-log-safety";
    let ledger_of =
        |addr: SockAddr| q.service_at(addr, |s: &TroupeStoreService| s.ledger().clone());
    let Some(rec_ledger) = ledger_of(recovered) else {
        return; // recovered-digest already reported the missing process
    };
    let mut known = 0;
    q.each_client::<Txn>(|_, a| {
        known += a
            .submitted
            .iter()
            .filter(|&&(t, n, _)| rec_ledger.contains(t, n))
            .count() as u64;
    });
    let phantoms = rec_ledger.len().saturating_sub(known);
    if phantoms > 0 {
        out.push(Violation {
            oracle: ORACLE,
            detail: format!(
                "recovered {recovered} holds {phantoms} transaction(s) no client ever \
                 submitted — a corrupt record survived replay"
            ),
        });
    }
    // (The dead member is never among the registered members that
    // `ledger_of` can read: its process is gone.)
    for m in q.members.iter().filter(|m| m.addr != recovered) {
        if ledger_of(m.addr).is_some_and(|l| !rec_ledger.is_subset(&l)) {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "recovered {recovered} holds a commit survivor {} does not — replay \
                     resurrected a commit the troupe never agreed on",
                    m.addr
                ),
            });
        }
    }
}
