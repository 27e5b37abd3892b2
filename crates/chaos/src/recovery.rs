//! The recovery scenario: crash a durable member mid-commit and measure
//! its log-replay rejoin.
//!
//! The base [`scenario`](crate::scenario) replaces a crashed member with
//! a *warm spare* — a fresh process that takes the survivors' full state.
//! This scenario exercises the durable path instead: store members write
//! a per-member commit log and snapshots to a seeded, faulty in-sim
//! [`Disk`], one member is crashed mid-workload (the crash applies the
//! disk's torn-tail/truncation semantics to unsynced bytes), and the
//! *same host* then boots a recovery process on the surviving disk. That
//! process replays snapshot-plus-log locally, registers itself as the
//! spare for the troupe, and rejoins through the wedge protocol — asking
//! the survivors only for the *delta* of commits past its replayed log
//! head (`get_state_since`) rather than a full state transfer.
//!
//! On top of the base oracles, two recovery-specific invariants are
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
//! reply (`spare.state_bytes`).

use circus::binding::{binding_procs, BINDING_MODULE, RINGMASTER_PORT};
use circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, ModuleAddr, NodeBuilder,
    NodeConfig, NodeCtx, ThreadId, Troupe, TroupeId,
};
use ringmaster::{
    spawn_ringmaster, RegisterTroupe, RingmasterService, SpareAgent, SpareService, SPARE_CTL_MODULE,
};
use simnet::{
    DiskConfig, Duration, HostId, NetConfig, SimRng, SockAddr, SyscallCosts, TraceRing, World,
};
use transactions::{CommitVoterService, ObjId, Op, RecoveryInfo, TroupeStoreService};
use wire::{from_bytes, to_bytes};

use crate::client::RebindingClient;
use crate::oracle::{check_all, Violation};
use crate::plan::FaultPlan;
use crate::scenario::{
    Quiesced, CLIENT_PORT, COMMIT_MODULE, STORE_MODULE, STORE_NAME, STORE_PORT, STORE_REPLICATION,
};

/// Knobs of one recovery run.
#[derive(Clone, Debug)]
pub struct RecoveryOptions {
    /// Transactions per client (the crash lands roughly halfway).
    pub txns_per_client: usize,
    /// Commits between snapshots at every durable member (0 = snapshot
    /// only on demand, so the whole history stays in the log).
    pub snapshot_every: usize,
    /// Rejoin with `get_state_since` (delta catch-up) instead of the
    /// full `get_state` transfer.
    pub use_delta: bool,
    /// Arm the disks with [`DiskConfig::hostile`] — transient write
    /// errors while running, torn tails and bit flips at crash — instead
    /// of [`DiskConfig::faultless`].
    pub disk_faults: bool,
    /// Carry one-to-many call data as troupe-wide multicasts.
    pub multicast_calls: bool,
}

impl Default for RecoveryOptions {
    fn default() -> RecoveryOptions {
        RecoveryOptions {
            txns_per_client: 30,
            snapshot_every: 8,
            use_delta: true,
            disk_faults: true,
            multicast_calls: false,
        }
    }
}

/// Everything one recovery run produced.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// The seed.
    pub seed: u64,
    /// FNV-1a hash over every trace event of the run.
    pub trace_hash: u64,
    /// Total trace events emitted.
    pub trace_events: u64,
    /// FNV-1a hash over the causal span records minted during the run.
    pub span_hash: u64,
    /// Deterministic JSON dump of the metrics registry at quiesce.
    pub metrics_json: String,
    /// Simulated crash-to-rejoined time, if the heal completed.
    pub mttr: Option<Duration>,
    /// Bytes of the state-fetch reply that rejoined the member.
    pub recovery_bytes: u64,
    /// Delta fetches served to the rejoining member (0 or 1).
    pub delta_fetches: u64,
    /// Full-state fetches served to the rejoining member.
    pub full_fetches: u64,
    /// What the recovered member replayed from its disk.
    pub recovery: Option<RecoveryInfo>,
    /// Client-confirmed commits across all clients (probes included).
    pub commits: usize,
    /// Oracle violations (base oracles plus the two recovery oracles).
    pub violations: Vec<Violation>,
    /// Driver anomalies.
    pub warnings: Vec<String>,
    /// Whether every client finished its script and probe.
    pub all_clients_finished: bool,
}

impl RecoveryReport {
    /// `true` if the run is clean.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.warnings.is_empty() && self.all_clients_finished
    }

    /// A copy-pasteable command reproducing this run by seed.
    pub fn repro(&self) -> String {
        format!(
            "CHAOS_SEED={} cargo test -p chaos --test recovery",
            self.seed
        )
    }

    /// A one-paragraph failure description, repro line first.
    pub fn failure_summary(&self) -> String {
        let mut s = format!(
            "recovery seed {} FAILED — reproduce with:\n    {}\n\
             trace hash {:#018x}; mttr {:?}, {} recovery bytes \
             ({} delta / {} full fetches), {} commits\n",
            self.seed,
            self.repro(),
            self.trace_hash,
            self.mttr,
            self.recovery_bytes,
            self.delta_fetches,
            self.full_fetches,
            self.commits,
        );
        if let Some(r) = &self.recovery {
            s.push_str(&format!(
                "replayed {} (deduped {}) from snapshot v{}, {} torn of {} log bytes\n",
                r.replayed, r.deduped, r.snapshot_version, r.torn_bytes, r.log_bytes
            ));
        }
        if !self.all_clients_finished {
            s.push_str("clients did not finish their scripts\n");
        }
        for w in &self.warnings {
            s.push_str(&format!("driver: {w}\n"));
        }
        for v in &self.violations {
            s.push_str(&format!("violation: {v}\n"));
        }
        s
    }
}

/// Registers the store troupe (same administrative third party as the
/// base scenario).
struct Registrar {
    binder: Troupe,
    req: RegisterTroupe,
    id: Option<TroupeId>,
}

impl Agent for Registrar {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        let t = nc.fresh_thread();
        let binder = self.binder.clone();
        nc.call(
            t,
            &binder,
            BINDING_MODULE,
            binding_procs::REGISTER_TROUPE,
            to_bytes(&self.req),
            CollationPolicy::Majority,
        );
    }

    fn on_call_done(
        &mut self,
        _nc: &mut NodeCtx<'_, '_, '_>,
        _h: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        if let Ok(bytes) = result {
            self.id = from_bytes(&bytes).ok();
        }
    }
}

fn clients_finished(w: &World, clients: &[SockAddr]) -> bool {
    clients.iter().all(|&c| {
        w.with_proc(c, |p: &CircusProcess| {
            p.agent_as::<RebindingClient>()
                .is_some_and(|a| a.finished())
        })
        .unwrap_or(false)
    })
}

fn total_commits(w: &World, clients: &[SockAddr]) -> usize {
    clients
        .iter()
        .map(|&c| {
            w.with_proc(c, |p: &CircusProcess| {
                p.agent_as::<RebindingClient>()
                    .map_or(0, |a| a.committed_keys.len())
            })
            .unwrap_or(0)
        })
        .sum()
}

/// Runs one recovery scenario for `seed` and returns the report.
pub fn run_recovery(seed: u64, opts: &RecoveryOptions) -> RecoveryReport {
    let mut w = World::with_config(seed, NetConfig::lan_1985(), SyscallCosts::default());
    w.set_trace_sink(Box::new(TraceRing::new(4_096)));
    let mut warnings: Vec<String> = Vec::new();

    let config = NodeConfig {
        assembly_timeout: Duration::from_micros(1_500_000),
        multicast_calls: opts.multicast_calls,
        ..NodeConfig::default()
    };
    let rm_hosts = vec![HostId(1), HostId(2), HostId(3)];
    let rm = spawn_ringmaster(&mut w, &rm_hosts, config.clone());

    // Durable members: each host gets its own seeded faulty disk, and
    // the store service writes its commit log and snapshots there.
    let disk_cfg = if opts.disk_faults {
        DiskConfig::hostile()
    } else {
        DiskConfig::faultless()
    };
    let members: Vec<ModuleAddr> = [10u32, 11, 12]
        .iter()
        .map(|&h| ModuleAddr::new(SockAddr::new(HostId(h), STORE_PORT), STORE_MODULE))
        .collect();
    for m in &members {
        let disk = w.install_disk(m.addr.host, disk_cfg.clone());
        let p = NodeBuilder::new(m.addr, config.clone())
            .service(
                STORE_MODULE,
                Box::new(TroupeStoreService::with_durability(
                    COMMIT_MODULE,
                    disk,
                    opts.snapshot_every,
                )),
            )
            .binder(rm.clone())
            .build()
            .expect("valid node");
        w.spawn(m.addr, Box::new(p));
    }

    let registrar = SockAddr::new(HostId(90), CLIENT_PORT);
    let p = NodeBuilder::new(registrar, config.clone())
        .agent(Box::new(Registrar {
            binder: rm.clone(),
            req: RegisterTroupe {
                name: STORE_NAME.into(),
                members: members.clone(),
            },
            id: None,
        }))
        .build()
        .expect("valid node");
    w.spawn(registrar, Box::new(p));
    w.poke(registrar, 0);
    let deadline = w.now() + Duration::from_micros(30_000_000);
    let registered = w.run(simnet::Until::pred(deadline, |w| {
        w.with_proc(registrar, |p: &CircusProcess| {
            p.agent_as::<Registrar>().is_some_and(|r| r.id.is_some())
        })
        .unwrap_or(false)
    }));
    if !registered {
        warnings.push("store troupe never registered".into());
    }

    // Same workload shape as the base scenario: a small conflicting
    // object set, seed-derived scripts, domain-separated RNG.
    let mut wrng = SimRng::new(seed ^ 0x5245_434F_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let objs = [ObjId(1), ObjId(2), ObjId(3)];
    let client_addrs: Vec<SockAddr> = [20u32, 21]
        .iter()
        .map(|&h| SockAddr::new(HostId(h), CLIENT_PORT))
        .collect();
    for &c in &client_addrs {
        let mut script = Vec::new();
        for _ in 0..opts.txns_per_client {
            let mut txn = Vec::new();
            for _ in 0..=wrng.below(2) {
                let obj = objs[wrng.below(objs.len() as u64) as usize];
                txn.push(if wrng.chance(0.25) {
                    Op::Read(obj)
                } else {
                    Op::Add(obj, 1 + wrng.below(5) as i64)
                });
            }
            script.push(txn);
        }
        let p = NodeBuilder::new(c, config.clone())
            .agent(Box::new(RebindingClient::new(
                rm.clone(),
                STORE_NAME,
                STORE_MODULE,
                script,
            )))
            .service(COMMIT_MODULE, Box::new(CommitVoterService))
            .binder(rm.clone())
            .build()
            .expect("valid node");
        w.spawn(c, Box::new(p));
        w.poke(c, 0);
    }

    // Let the workload reach roughly its halfway point, so the crash
    // lands on a live commit stream and the log has content to replay.
    let halfway = opts.txns_per_client.max(1);
    let deadline = w.now() + Duration::from_micros(180_000_000);
    let warmed = w.run(simnet::Until::pred(deadline, |w| {
        total_commits(w, &client_addrs) >= halfway
    }));
    if !warmed {
        warnings.push("workload never reached its halfway point".into());
    }

    // Crash one durable member. `crash_host` applies the disk's crash
    // semantics (drop unsynced bytes, maybe tear or flip the tail), so
    // what the recovery process finds is exactly what survived.
    let victim = members[(seed % members.len() as u64) as usize];
    let crash_at = w.now();
    w.crash_host(victim.addr.host);
    w.restart_host(victim.addr.host);

    // Boot the recovery process on the same host and disk, at a fresh
    // port — the dead address is never reused, its peers still remember
    // the dead process's call numbers. The store service replays the
    // local snapshot-plus-log in `on_start`; the spare machinery then
    // offers the process to the Ringmaster, which activates it to
    // replace the member it just confirmed dead.
    let recovered_addr = SockAddr::new(victim.addr.host, STORE_PORT + 1);
    let disk = w.disk(victim.addr.host).expect("member host has a disk");
    let spare_ctl = if opts.use_delta {
        SpareService::with_delta(rm.clone(), STORE_NAME, STORE_MODULE)
    } else {
        SpareService::new(rm.clone(), STORE_NAME, STORE_MODULE)
    };
    let p = NodeBuilder::new(recovered_addr, config.clone())
        .service(
            STORE_MODULE,
            Box::new(TroupeStoreService::with_durability(
                COMMIT_MODULE,
                disk,
                opts.snapshot_every,
            )),
        )
        .service(SPARE_CTL_MODULE, Box::new(spare_ctl))
        .agent(Box::new(SpareAgent::new(rm.clone(), STORE_NAME)))
        .binder(rm.clone())
        .build()
        .expect("valid node");
    w.spawn(recovered_addr, Box::new(p));

    // MTTR: crash to the registry showing full strength again with the
    // recovered member in the troupe.
    let healer = SockAddr::new(rm_hosts[0], RINGMASTER_PORT);
    let deadline = w.now() + Duration::from_micros(90_000_000);
    let healed = w.run(simnet::Until::pred(deadline, |w| {
        w.with_proc(healer, |p: &CircusProcess| {
            p.node()
                .service_as::<RingmasterService>(BINDING_MODULE)
                .and_then(|s| s.lookup(STORE_NAME))
                .is_some_and(|t| {
                    t.members.len() == STORE_REPLICATION
                        && !t.members.iter().any(|m| m.addr == victim.addr)
                        && t.members.iter().any(|m| m.addr == recovered_addr)
                })
        })
        .unwrap_or(false)
    }));
    let mttr = if healed {
        Some(w.now() - crash_at)
    } else {
        warnings.push(format!(
            "recovered member {recovered_addr} never rejoined the troupe"
        ));
        None
    };

    // Quiesce: let every client finish, then one probe transaction per
    // client to flush stale bindings, then let retransmissions settle.
    let deadline = w.now() + Duration::from_micros(180_000_000);
    let finished = w.run(simnet::Until::pred(deadline, |w| {
        clients_finished(w, &client_addrs)
    }));
    if !finished {
        warnings.push("clients did not finish before quiesce".into());
    }
    for &c in &client_addrs {
        w.with_proc_mut(c, |p: &mut CircusProcess| {
            if let Some(a) = p.agent_as_mut::<RebindingClient>() {
                a.enqueue(vec![Op::Add(ObjId(1), 0)]);
            }
        });
        w.poke(c, 0);
    }
    let deadline = w.now() + Duration::from_micros(120_000_000);
    let probed = w.run(simnet::Until::pred(deadline, |w| {
        clients_finished(w, &client_addrs)
    }));
    if !probed {
        warnings.push("probe transactions did not finish".into());
    }
    w.run(simnet::Until::Elapsed(Duration::from_micros(5_000_000)));

    // Fold into a Quiesced (empty fault plan: the one crash above is
    // the whole schedule) so the base oracles run unchanged, then add
    // the recovery oracles on top.
    let store_members = w
        .with_proc(healer, |p: &CircusProcess| {
            p.node()
                .service_as::<RingmasterService>(BINDING_MODULE)
                .and_then(|s| s.lookup(STORE_NAME))
                .map(|t| t.members.clone())
        })
        .flatten()
        .unwrap_or_else(|| members.clone());
    let recovery = w
        .with_proc(recovered_addr, |p: &CircusProcess| {
            p.node()
                .service_as::<TroupeStoreService>(STORE_MODULE)
                .and_then(|s| s.recovery)
        })
        .flatten();
    let q = Quiesced {
        world: w,
        seed,
        plan: FaultPlan {
            seed,
            faults: Vec::new(),
        },
        store_members,
        client_addrs: client_addrs.clone(),
        ringmaster_hosts: rm_hosts,
        all_clients_finished: finished && probed,
        repairs: usize::from(healed),
        driver_warnings: warnings,
    };
    let mut violations = check_all(&q);
    check_recovered_digest(&q, recovered_addr, &mut violations);
    check_torn_log_safety(&q, recovered_addr, victim.addr, &mut violations);

    let (trace_hash, trace_events) = q
        .world
        .trace_sink_as::<TraceRing>()
        .map_or((0, 0), |ring| (ring.hash(), ring.seen()));
    q.world.refresh_metrics();
    let reg = q.world.metrics();
    let mut commits = 0usize;
    for &c in &client_addrs {
        commits += q
            .world
            .with_proc(c, |p: &CircusProcess| {
                p.agent_as::<RebindingClient>()
                    .map_or(0, |a| a.committed_keys.len())
            })
            .unwrap_or(0);
    }
    RecoveryReport {
        seed,
        trace_hash,
        trace_events,
        span_hash: reg.span_hash(),
        metrics_json: reg.dump_json(),
        mttr,
        recovery_bytes: reg.get("spare.state_bytes"),
        delta_fetches: reg.get("spare.delta_fetches"),
        full_fetches: reg.get("spare.full_fetches"),
        recovery,
        commits,
        violations,
        warnings: q.driver_warnings.clone(),
        all_clients_finished: q.all_clients_finished,
    }
}

/// Recovery oracle 1: the rejoined member's digest equals every
/// survivor's. Replay plus catch-up must reconstruct the replicated
/// state exactly.
fn check_recovered_digest(q: &Quiesced, recovered: SockAddr, out: &mut Vec<Violation>) {
    const ORACLE: &str = "recovered-digest";
    let digest_of = |addr: SockAddr| {
        q.world
            .with_proc(addr, |p: &CircusProcess| {
                p.node()
                    .service_as::<TroupeStoreService>(STORE_MODULE)
                    .map(|s| s.state_digest())
            })
            .flatten()
    };
    let Some(rec) = digest_of(recovered) else {
        out.push(Violation {
            oracle: ORACLE,
            detail: format!("recovered member {recovered} is not a live store process"),
        });
        return;
    };
    for m in &q.store_members {
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
fn check_torn_log_safety(
    q: &Quiesced,
    recovered: SockAddr,
    dead: SockAddr,
    out: &mut Vec<Violation>,
) {
    const ORACLE: &str = "torn-log-safety";
    let ledger_of = |addr: SockAddr| -> Option<Vec<(ThreadId, u64)>> {
        q.world
            .with_proc(addr, |p: &CircusProcess| {
                p.node()
                    .service_as::<TroupeStoreService>(STORE_MODULE)
                    .map(|s| s.committed_log().to_vec())
            })
            .flatten()
    };
    let Some(rec_ledger) = ledger_of(recovered) else {
        return; // recovered-digest already reported the missing process
    };
    let submitted: std::collections::HashSet<(ThreadId, u64)> = q
        .client_addrs
        .iter()
        .filter_map(|&c| {
            q.world.with_proc(c, |p: &CircusProcess| {
                p.agent_as::<RebindingClient>()
                    .map(|a| {
                        a.submitted
                            .iter()
                            .map(|(t, n, _)| (*t, *n))
                            .collect::<Vec<_>>()
                    })
                    .unwrap_or_default()
            })
        })
        .flatten()
        .collect();
    let survivors: Vec<(SockAddr, Vec<(ThreadId, u64)>)> = q
        .store_members
        .iter()
        .filter(|m| m.addr != recovered && m.addr != dead)
        .filter_map(|m| ledger_of(m.addr).map(|l| (m.addr, l)))
        .collect();
    for key in &rec_ledger {
        if !submitted.contains(key) {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "recovered {recovered} holds {key:?}, which no client ever submitted \
                     — a corrupt record survived replay"
                ),
            });
        }
        for (addr, ledger) in &survivors {
            if !ledger.contains(key) {
                out.push(Violation {
                    oracle: ORACLE,
                    detail: format!(
                        "recovered {recovered} holds {key:?} but survivor {addr} does not \
                         — replay resurrected a commit the troupe never agreed on"
                    ),
                });
            }
        }
    }
}
