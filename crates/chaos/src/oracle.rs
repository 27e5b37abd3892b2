//! Invariant oracles, checked against a [`Quiesced`] world.
//!
//! Each oracle states a property the system promises *despite* the fault
//! schedule, and checks it from independent witnesses: the commit ledger
//! every store member keeps (in commit order, as part of its transferred
//! state), the submission record every client keeps, the paired-message
//! audit counters every endpoint keeps, and the Ringmaster's registry.
//!
//! 1. **Exactly-once execution** — no member ever committed the same
//!    `(thread, nonce)` twice, and every commit a client was told about
//!    is present at every current member (§4.2.4's at-most-once delivery
//!    plus troupe-commit agreement give exactly-once).
//! 2. **Replica-state convergence** — all current members have identical
//!    state digests, and that state equals an independent replay of the
//!    commit ledger against the clients' submission records (§5.1: every
//!    member serializes the same transactions in the same order).
//! 3. **Transaction atomicity** — a transaction is in either every
//!    current member's ledger or none, and never in a ledger if its
//!    client saw an explicit abort (all-or-nothing across the troupe).
//! 4. **No stale binding survives** — after the quiesce probe, every
//!    client's cached binding for the store equals the Ringmaster's
//!    registry entry, and the Ringmaster members agree with each other
//!    (§6.2: cache invalidation must eventually catch every
//!    reconfiguration).
//! 5. **Serial-number monotonicity** — no endpoint in the whole world
//!    ever sent a call number out of order or delivered a call twice
//!    (§4.2.4), even under duplication and loss bursts.
//! 6. **No permanent under-replication** — at quiesce the store troupe
//!    is back at its configured replication degree and every registered
//!    member is a live process: a troupe "continues to function as long
//!    as at least one member survives" (§3.5.1), but the self-healing
//!    pipeline must also have restored full strength, not left the
//!    system running degraded forever.

use std::collections::{BTreeMap, HashMap};

use circus::binding::RINGMASTER_PORT;
use circus::{CircusProcess, ThreadId, Troupe};
use simnet::SockAddr;
use transactions::{ObjId, Op, TroupeStoreService};

use crate::client::Txn;
use crate::drive::ringmaster_at;
use crate::harness::{Quiesced, REPLICATION};

/// One invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which oracle fired.
    pub oracle: &'static str,
    /// What it saw.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

struct MemberView {
    addr: SockAddr,
    ledger: Vec<(ThreadId, u64)>,
    digest: u64,
    snapshot: Vec<(u64, i64)>,
}

struct ClientView {
    addr: SockAddr,
    submitted: Vec<(ThreadId, u64, Vec<Op>)>,
    committed: Vec<(ThreadId, u64)>,
    aborted: Vec<(ThreadId, u64)>,
    cached: Option<Troupe>,
}

fn member_views(q: &Quiesced) -> Vec<MemberView> {
    q.member_views(|addr, s: &TroupeStoreService| MemberView {
        addr,
        ledger: s.committed_log().to_vec(),
        digest: s.state_digest(),
        snapshot: s.tm().store().snapshot(),
    })
}

fn client_views(q: &Quiesced) -> Vec<ClientView> {
    let mut views = Vec::new();
    q.each_client::<Txn>(|addr, a| {
        views.push(ClientView {
            addr,
            submitted: a.submitted.clone(),
            committed: a.committed_keys.clone(),
            aborted: a.aborted_keys.clone(),
            cached: a.cache().get(q.troupe).cloned(),
        })
    });
    views
}

fn check_exactly_once(members: &[MemberView], clients: &[ClientView], out: &mut Vec<Violation>) {
    const ORACLE: &str = "exactly-once";
    for m in members {
        let mut seen = HashMap::new();
        for (i, key) in m.ledger.iter().enumerate() {
            if let Some(first) = seen.insert(*key, i) {
                out.push(Violation {
                    oracle: ORACLE,
                    detail: format!(
                        "member {} committed {key:?} twice (ledger entries {first} and {i})",
                        m.addr
                    ),
                });
            }
        }
    }
    for c in clients {
        for key in &c.committed {
            for m in members {
                if !m.ledger.contains(key) {
                    out.push(Violation {
                        oracle: ORACLE,
                        detail: format!(
                            "client {} was told {key:?} committed, but member {} has no \
                             ledger entry for it",
                            c.addr, m.addr
                        ),
                    });
                }
            }
        }
    }
}

fn check_convergence(members: &[MemberView], clients: &[ClientView], out: &mut Vec<Violation>) {
    const ORACLE: &str = "convergence";
    if let Some(first) = members.first() {
        for m in &members[1..] {
            if m.digest != first.digest {
                out.push(Violation {
                    oracle: ORACLE,
                    detail: format!(
                        "state digests diverge: {} has {:#018x}, {} has {:#018x}",
                        first.addr, first.digest, m.addr, m.digest
                    ),
                });
            }
        }
    }
    // Independent replay: reconstruct what each member's state *should*
    // be from its own ledger joined with the clients' submission records.
    let ops_by_key: HashMap<(ThreadId, u64), &[Op]> = clients
        .iter()
        .flat_map(|c| c.submitted.iter())
        .map(|(t, n, ops)| ((*t, *n), ops.as_slice()))
        .collect();
    for m in members {
        let mut replayed: BTreeMap<ObjId, i64> = BTreeMap::new();
        let mut complete = true;
        for key in &m.ledger {
            let Some(ops) = ops_by_key.get(key) else {
                out.push(Violation {
                    oracle: ORACLE,
                    detail: format!(
                        "member {} ledger entry {key:?} matches no client submission",
                        m.addr
                    ),
                });
                complete = false;
                continue;
            };
            for op in *ops {
                match *op {
                    Op::Read(_) => {}
                    Op::Write(o, v) => {
                        replayed.insert(o, v);
                    }
                    Op::Add(o, d) => {
                        *replayed.entry(o).or_insert(0) += d;
                    }
                }
            }
        }
        if !complete {
            continue;
        }
        let actual: BTreeMap<ObjId, i64> = m
            .snapshot
            .iter()
            .filter(|&&(_, v)| v != 0)
            .map(|&(o, v)| (ObjId(o), v))
            .collect();
        replayed.retain(|_, v| *v != 0);
        if actual != replayed {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "member {} state {actual:?} differs from ledger replay {replayed:?}",
                    m.addr
                ),
            });
        }
    }
}

fn check_atomicity(members: &[MemberView], clients: &[ClientView], out: &mut Vec<Violation>) {
    const ORACLE: &str = "atomicity";
    let mut union: Vec<(ThreadId, u64)> = Vec::new();
    for m in members {
        for key in &m.ledger {
            if !union.contains(key) {
                union.push(*key);
            }
        }
    }
    for key in &union {
        let holders: Vec<SockAddr> = members
            .iter()
            .filter(|m| m.ledger.contains(key))
            .map(|m| m.addr)
            .collect();
        if holders.len() != members.len() {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "{key:?} committed at {holders:?} but not at the other of {} members",
                    members.len()
                ),
            });
        }
    }
    for c in clients {
        for key in &c.aborted {
            for m in members {
                if m.ledger.contains(key) {
                    out.push(Violation {
                        oracle: ORACLE,
                        detail: format!(
                            "client {} saw {key:?} abort, yet member {} committed it",
                            c.addr, m.addr
                        ),
                    });
                }
            }
        }
    }
}

fn check_stale_bindings(q: &Quiesced, clients: &[ClientView], out: &mut Vec<Violation>) {
    const ORACLE: &str = "stale-binding";
    let name = q.troupe;
    let mut registry: Vec<(SockAddr, Option<Troupe>)> = Vec::new();
    for &h in &q.ringmaster_hosts {
        let addr = SockAddr::new(h, RINGMASTER_PORT);
        if let Some(binding) = ringmaster_at(&q.world, addr, |s| s.lookup(name).cloned()) {
            registry.push((addr, binding));
        }
    }
    let Some((first_addr, first)) = registry.first().cloned() else {
        out.push(Violation {
            oracle: ORACLE,
            detail: "no ringmaster member reachable to read the registry".into(),
        });
        return;
    };
    for (addr, binding) in &registry[1..] {
        if *binding != first {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "ringmaster members disagree on '{name}': {first_addr} has \
                     {first:?}, {addr} has {binding:?}"
                ),
            });
        }
    }
    let Some(truth) = first else {
        out.push(Violation {
            oracle: ORACLE,
            detail: format!("'{name}' is not in the registry at quiesce"),
        });
        return;
    };
    for c in clients {
        match &c.cached {
            Some(t) if *t == truth => {}
            Some(t) => out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "client {} still caches {:?} (incarnation {:?}) but the registry \
                     says {:?} (incarnation {:?})",
                    c.addr, t.members, t.id, truth.members, truth.id
                ),
            }),
            None => out.push(Violation {
                oracle: ORACLE,
                detail: format!("client {} has no cached binding after its probe", c.addr),
            }),
        }
    }
}

/// The serial-number-monotonicity oracle (shared by every workload): no
/// endpoint ever sent a call number out of order or delivered a call
/// twice (§4.2.4). Every node publishes its endpoint totals into the
/// registry; the oracle reads them back from there rather than reaching
/// into the protocol structs.
pub fn check_monotonicity(q: &Quiesced, out: &mut Vec<Violation>) {
    const ORACLE: &str = "serial-monotonicity";
    q.world.refresh_metrics();
    let reg = q.world.metrics();
    for addr in q.world.proc_addrs() {
        let regressions = reg.get(&format!("rpc.{addr}.send_call_regressions"));
        if regressions != 0 {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!("{addr} sent {regressions} non-monotonic call number(s)"),
            });
        }
        let duplicates = reg.get(&format!("rpc.{addr}.duplicate_call_deliveries"));
        if duplicates != 0 {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!("{addr} delivered {duplicates} duplicate call(s)"),
            });
        }
    }
}

/// The no-permanent-under-replication oracle (shared by every
/// workload): the troupe is back at its specified degree and every
/// registered member is a distinct live process.
pub fn check_replication(q: &Quiesced, out: &mut Vec<Violation>) {
    const ORACLE: &str = "under-replication";
    if q.members.len() != REPLICATION {
        out.push(Violation {
            oracle: ORACLE,
            detail: format!(
                "{} troupe has {} registered member(s) at quiesce; the specification \
                 asks for {REPLICATION}",
                q.troupe,
                q.members.len()
            ),
        });
    }
    let mut seen: Vec<SockAddr> = Vec::new();
    for m in &q.members {
        if seen.contains(&m.addr) {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "member {} registered twice — replication degree is nominal only",
                    m.addr
                ),
            });
        }
        seen.push(m.addr);
        // A registry entry naming a dead process is replication on paper
        // only: the healer evicted-but-never-replaced, or replaced with
        // a spare that died unnoticed.
        if q.world.with_proc(m.addr, |_p: &CircusProcess| ()).is_none() {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!("registered member {} is not a live process", m.addr),
            });
        }
    }
}

/// The bounded-state oracle (broadcast and commutative workloads): at
/// quiesce, nothing `member` tracks exceeds its bound. `tracked` rows
/// are `(what, held, bound)`; the bounds are counted in clients, never
/// in messages, so a ledger that keeps an entry per message fails here
/// in any run of more messages than clients.
pub fn check_bounded_state(
    member: SockAddr,
    tracked: &[(&str, usize, usize)],
    out: &mut Vec<Violation>,
) {
    for &(what, held, bound) in tracked {
        if held > bound {
            out.push(Violation {
                oracle: "bounded-state",
                detail: format!(
                    "member {member} holds {held} {what} at quiesce; the bound is {bound}"
                ),
            });
        }
    }
}

/// Runs all six store oracles and returns every violation found.
pub fn check_all(q: &Quiesced) -> Vec<Violation> {
    let members = member_views(q);
    let clients = client_views(q);
    let mut out = Vec::new();
    if members.is_empty() {
        out.push(Violation {
            oracle: "convergence",
            detail: "no live store member at quiesce".into(),
        });
    }
    check_exactly_once(&members, &clients, &mut out);
    check_convergence(&members, &clients, &mut out);
    check_atomicity(&members, &clients, &mut out);
    check_stale_bindings(q, &clients, &mut out);
    check_monotonicity(q, &mut out);
    check_replication(q, &mut out);
    out
}
