//! Invariant oracles, checked against a [`Quiesced`] world.
//!
//! Each oracle states a property the system promises *despite* the fault
//! schedule, and checks it from independent witnesses: the commit ledger
//! every store member keeps (the set of `(origin, nonce)` keys it
//! committed, part of its transferred state), the submission record
//! every client keeps, the paired-message audit counters every endpoint
//! keeps, and the Ringmaster's registry.
//!
//! 1. **Exactly-once execution** — no member ever committed a
//!    transaction whose key its ledger already held, and every commit a
//!    client was told about is present at every current member (§4.2.4's
//!    at-most-once delivery plus troupe-commit agreement give
//!    exactly-once).
//! 2. **Replica-state convergence** — all current members have identical
//!    state digests, and that state equals an independent replay of the
//!    clients' submissions the member's ledger holds (§5.1: every member
//!    serializes the same transactions in the same order). The ledger
//!    keeps no commit order, and needs none here: the workload's
//!    transactions are `Add`s and `Read`s, which commute.
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
//! 7. **Bounded state** — a member's ledger costs at most one range per
//!    client plus one per submission that client did not see commit (the
//!    only way a gap can open), however long the run; every live
//!    process, clients and the Ringmaster troupe included, holds each
//!    count of its call runtime's census within a bound counted in
//!    processes, incarnations and attempts that confirmed nothing
//!    ([`check_census`]); and every live Ringmaster member's registry,
//!    spare pools and suspect queue stay within what the scenario
//!    registered, spawned and ran.
//! 8. **One assembly per logical call** — no server ever timed out an
//!    assembly on a client member it had heard on the same `(client
//!    troupe, thread)` under another number ([`check_split_calls`]): the
//!    members of a troupe number each call alike (§4.3.2).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use circus::binding::RINGMASTER_PORT;
use circus::{census, CircusProcess, ThreadId, Troupe};
use simnet::SockAddr;
use transactions::{Ledger, ObjId, Op, TroupeStoreService, Txn};

use crate::client::Scripted;
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
    ledger: Ledger,
    duplicates: u64,
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
        ledger: s.ledger().clone(),
        duplicates: s.duplicate_commits(),
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
    for m in members.iter().filter(|m| m.duplicates > 0) {
        out.push(Violation {
            oracle: ORACLE,
            detail: format!(
                "member {} committed {} transaction(s) whose key its ledger already held",
                m.addr, m.duplicates
            ),
        });
    }
    for c in clients {
        for key @ &(thread, nonce) in &c.committed {
            for m in members {
                if !m.ledger.contains(thread, nonce) {
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
    // be from the clients' submission records its own ledger holds.
    for m in members {
        let mut replayed: BTreeMap<ObjId, i64> = BTreeMap::new();
        let mut matched = 0;
        let held = clients
            .iter()
            .flat_map(|c| &c.submitted)
            .filter(|(t, n, _)| m.ledger.contains(*t, *n));
        for (_, _, ops) in held {
            matched += 1;
            for op in ops {
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
        let unmatched = m.ledger.len().saturating_sub(matched);
        if unmatched > 0 {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "member {} ledger holds {unmatched} transaction(s) matching no client \
                     submission",
                    m.addr
                ),
            });
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
    let found = out.len();
    for &(thread, nonce, _) in clients.iter().flat_map(|c| &c.submitted) {
        let holders: Vec<SockAddr> = members
            .iter()
            .filter(|m| m.ledger.contains(thread, nonce))
            .map(|m| m.addr)
            .collect();
        if !holders.is_empty() && holders.len() != members.len() {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "{:?} committed at {holders:?} but not at the other of {} members",
                    (thread, nonce),
                    members.len()
                ),
            });
        }
    }
    // Ledgers may still differ in keys no client submitted (convergence
    // names those): a split commit all the same.
    let split = members.iter().find(|m| m.ledger != members[0].ledger);
    if let (true, Some(m)) = (out.len() == found, split) {
        out.push(Violation {
            oracle: ORACLE,
            detail: format!(
                "members {} and {} committed different transaction sets",
                members[0].addr, m.addr
            ),
        });
    }
    for c in clients {
        for key @ &(thread, nonce) in &c.aborted {
            for m in members {
                if m.ledger.contains(thread, nonce) {
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
/// twice (§4.2.4), as every node counts it into the registry.
pub fn check_monotonicity(q: &Quiesced, out: &mut Vec<Violation>) {
    let regressions = |a: &str, n| format!("{a} sent {n} non-monotonic call number(s)");
    let duplicates = |a: &str, n| format!("{a} delivered {n} duplicate call(s)");
    let oracle = "serial-monotonicity";
    nonzero_rpc(q, ".send_call_regressions", oracle, regressions, out);
    nonzero_rpc(q, ".duplicate_call_deliveries", oracle, duplicates, out);
}

/// The split-call oracle (every workload): no server ever timed out an
/// assembly on a client member it had heard on the same `(client troupe,
/// thread)` under another number. The members of a troupe number a
/// logical call alike (§4.3.2); one that did not split the call into two
/// assemblies, each waiting out the assembly timeout and each executing.
pub fn check_split_calls(q: &Quiesced, out: &mut Vec<Violation>) {
    let split = |a: &str, n| {
        format!(
            "{a} timed out {n} assembly wait(s) on a client member heard on the same thread \
             under another call_seq"
        )
    };
    nonzero_rpc(q, ".split_calls", "split-call", split, out);
}

/// One `oracle` violation, worded by `detail`, for each process whose
/// `rpc.<addr>{suffix}` count is not zero: every process that ever
/// counted one, killed ones and dropped connections included.
fn nonzero_rpc(
    q: &Quiesced,
    suffix: &str,
    oracle: &'static str,
    detail: impl Fn(&str, u64) -> String,
    out: &mut Vec<Violation>,
) {
    q.world.metrics().each("rpc.", suffix, |addr, n| {
        if n != 0 {
            let detail = detail(addr, n);
            out.push(Violation { oracle, detail });
        }
    });
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

/// The bounded-state oracle (every workload): at quiesce, nothing
/// `process` tracks exceeds its bound. `tracked` rows are `(what, held,
/// bound)`; the bounds are counted in processes, clients, incarnations
/// and attempts that never completed, never in messages, so a map that
/// keeps an entry per message fails here in any run of more messages
/// than those.
pub fn check_bounded_state(
    process: SockAddr,
    tracked: &[(&str, usize, usize)],
    out: &mut Vec<Violation>,
) {
    for &(what, held, bound) in tracked {
        if held > bound {
            out.push(Violation {
                oracle: "bounded-state",
                detail: format!(
                    "process {process} holds {held} {what} at quiesce; the bound is {bound}"
                ),
            });
        }
    }
}

/// What the bounded-state oracle counts in a quiesced world to bound the
/// call runtime's [`census`](circus::Node::census) of every process.
struct Scale {
    /// Addresses a process ran at, plus any an injector forged from: the
    /// most peers any process can have heard from or called.
    processes: usize,
    /// Incarnations the registry bound the workload troupe under: its
    /// registration and each membership change since.
    incarnations: usize,
    /// Spare activations attempted, completed or aborted
    /// (`spare.activations` + `spare.join_failures`).
    activations: usize,
    /// Per client: the threads it minted that did not carry a confirmed
    /// script item (lookups, suspect reports, attempts that failed).
    skipped: Vec<(SockAddr, usize)>,
    /// Calls outstanding at every live process together.
    in_flight: usize,
    /// The most members any troupe in the scenario has.
    widest: usize,
}

fn count(counts: &[(&str, usize)], label: &str) -> usize {
    counts
        .iter()
        .find(|(l, _)| *l == label)
        .map_or(0, |&(_, n)| n)
}

impl Scale {
    /// The bound on `label` at a process whose census is `counts`, whose
    /// connections delivered `delivered` messages, and which (a client)
    /// minted `skipped` threads that confirmed nothing. Every label has
    /// one: a census label added without its bound here panics, it does
    /// not pass unchecked.
    fn bound(
        &self,
        label: &str,
        counts: &[(&str, usize)],
        delivered: usize,
        skipped: usize,
    ) -> usize {
        let held = |l| count(counts, l);
        match label {
            // Every thread a process mints calls from it at once, so its
            // own serials run unbroken, in the set of the troupe each first
            // called as, but for the ones that called again. The healer
            // also installs each incarnation as the Ringmaster on a repair
            // thread of its own, between probe threads that only called
            // alone: one range per incarnation.
            census::OWN_SEQ_RANGES => 1 + held(census::MULTI_CALL_THREADS) + self.incarnations,
            // Nested calls on another process's thread: store members call
            // each client back once per attempt they execute, and a
            // committed attempt was executed by every member of the
            // incarnation it ran on, so a run of a client's serials with
            // no call-back here holds a thread that confirmed nothing —
            // at most one range per client plus one per such thread.
            // Ringmaster members install each incarnation once, on the
            // thread that asked for it, and a spare whose activation
            // aborts after one call leaves one more.
            census::FOREIGN_SEQ_RANGES => {
                let clients: usize = self.skipped.iter().map(|(_, s)| 1 + s).sum();
                clients + self.incarnations + self.activations
            }
            // Only a spare calls twice as one troupe on one thread: each
            // step of its join, on the thread it is activated on.
            census::MULTI_CALL_THREADS => self.activations,
            // One per peer.
            census::CALL_NUMBERS | census::CONNECTIONS | census::DEAD_PEERS => self.processes,
            // An agent has one call of its own out at a time; beyond it,
            // one nested call per open assembly and one lookup per parked
            // call message.
            census::OUTSTANDING_CALLS => {
                1 + held(census::OPEN_ASSEMBLIES) + held(census::PARKED_CALLS)
            }
            census::ROUTES => self.widest * held(census::OUTSTANDING_CALLS),
            // Each serves a call some process still has outstanding.
            census::OPEN_ASSEMBLIES => self.in_flight,
            // An assembly closes short of a member when a client's vote
            // round aborts (a no vote, or a member given up on): an
            // attempt that confirmed nothing.
            census::BUFFERED_RETURNS => skipped,
            // The Ringmaster troupe's own, plus every incarnation.
            census::DIRECTORY_ENTRIES => 1 + self.incarnations,
            // Parked only while its lookup is out, at most one per peer.
            census::PARKED_CALLS => self.processes * held(census::OUTSTANDING_CALLS),
            // Each is a message delivered (`delivered` counts the whole
            // run's, the held connections' among them); its expiry is what
            // bounds it in time (pairedmsg's
            // `per_peer_state_is_bounded_by_the_replay_ttl`).
            census::REPLAY_RECORDS => delivered,
            other => panic!("census label {other:?} has no bound in the bounded-state oracle"),
        }
    }
}

/// The bounded-state oracle over the call runtime (every workload): every
/// live process — members, spares, clients, the Ringmaster troupe, the
/// registrar — holds each [`census`](circus::Node::census) count within
/// the bound `Scale::bound` states for it; then every live Ringmaster
/// member's registry, spare pools and suspect queue hold theirs.
pub fn check_census<P: Scripted>(q: &Quiesced, out: &mut Vec<Violation>) {
    let addrs = q.world.proc_addrs();
    let mut censuses = Vec::with_capacity(addrs.len());
    for a in addrs {
        if let Some(c) = q.world.with_proc(a, |p: &CircusProcess| p.node().census()) {
            censuses.push((a, c));
        }
    }
    let mut skipped = Vec::with_capacity(q.client_addrs.len());
    q.each_client::<P>(|addr, c| {
        let minted = q
            .world
            .with_proc(addr, |p: &CircusProcess| p.node().threads_minted());
        let minted = minted.unwrap_or(0) as usize;
        skipped.push((addr, minted.saturating_sub(c.confirmed_items())));
    });
    let reg = q.world.metrics();
    let generation = |a| ringmaster_at(&q.world, a, |s| s.generation(q.troupe)).unwrap_or(0);
    let rm = q
        .ringmaster_hosts
        .iter()
        .map(|&h| SockAddr::new(h, RINGMASTER_PORT));
    let scale = Scale {
        processes: q.spawned.len() + q.outsiders,
        incarnations: rm.map(generation).max().unwrap_or(0) as usize,
        activations: (reg.get("spare.activations") + reg.get("spare.join_failures")) as usize,
        skipped,
        in_flight: censuses
            .iter()
            .map(|(_, c)| count(c, census::OUTSTANDING_CALLS))
            .sum(),
        widest: REPLICATION.max(q.ringmaster_hosts.len()),
    };
    let mut key = String::new();
    let mut delivered = |addr: SockAddr, what: &str| {
        key.clear();
        let _ = write!(key, "rpc.{addr}.{what}");
        reg.get(&key) as usize
    };
    for (addr, counts) in &censuses {
        let got = delivered(*addr, "calls_delivered") + delivered(*addr, "returns_delivered");
        let skipped = scale.skipped.iter().find(|(c, _)| c == addr);
        let skipped = skipped.map_or(0, |&(_, s)| s);
        for &(label, held) in counts {
            let bound = scale.bound(label, counts, got, skipped);
            check_bounded_state(*addr, &[(label, held, bound)], out);
        }
    }
    check_ringmaster_state(q, scale.processes, out);
}

/// The bounded-state oracle over the Ringmaster's own state: every live
/// member binds at most the two troupes a scenario registers (its own
/// and the workload's), pools no more spares than the scenario spawned,
/// and queues at most one suspect per address of the run's `processes`.
/// That last is a bound and not zero because a member that does not
/// lead hears every `report_suspect` and never drains its queue.
fn check_ringmaster_state(q: &Quiesced, processes: usize, out: &mut Vec<Violation>) {
    for &h in &q.ringmaster_hosts {
        let addr = SockAddr::new(h, RINGMASTER_PORT);
        let tracked = ringmaster_at(&q.world, addr, |s| {
            let spares = s.spare_pools().iter().map(|(_, pool)| pool.len()).sum();
            [
                ("registry entries", s.bindings().len(), 2),
                ("pooled spares", spares, q.spares),
                ("queued suspects", s.suspect_count(), processes),
            ]
        });
        if let Some(tracked) = tracked {
            check_bounded_state(addr, &tracked, out);
        }
    }
}

/// The store's bounded-state rule: each member's ledger in at most one
/// range per client plus one per submission the client did not see
/// commit. Nonces are consecutive per client, so a range can only end at
/// a nonce that never committed here — which the client cannot have seen
/// commit without breaking exactly-once.
fn check_ledger_bound(members: &[MemberView], clients: &[ClientView], out: &mut Vec<Violation>) {
    let bound: usize = clients
        .iter()
        .map(|c| 1 + c.submitted.len().saturating_sub(c.committed.len()))
        .sum();
    for m in members {
        let held = m.ledger.range_count();
        check_bounded_state(m.addr, &[("commit-ledger ranges", held, bound)], out);
    }
}

/// Runs all eight store oracles and returns every violation found.
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
    check_split_calls(q, &mut out);
    check_census::<Txn>(q, &mut out);
    check_replication(q, &mut out);
    check_ledger_bound(&members, &clients, &mut out);
    out
}
