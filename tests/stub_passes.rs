//! The stubs' ledger. Table 4.1 prices the stubs at 3.0 ms for each
//! message they marshal (`Syscall::Compute`), and every process pays that
//! once per message: a client externalizes its call once and internalizes
//! each member's return once; a member internalizes each call message it
//! receives once and externalizes each reply once.
//!
//! The tests pin the exact `cpu.<addr>.sys.compute.n` of every process of
//! an echo, a replicated program, a commit and an ordered broadcast. The
//! last two add up an ordered-broadcast member's and a durable store
//! member's whole CPU budget per operation, and show that four
//! closed-loop clients see four such budgets as their latency: the
//! members are the bottleneck.

use rdp::circus::testbed::{
    addr, agent, enqueue, node_mut, results, spawn_caller, spawn_troupe, world, CountingService,
    Request, MODULE, PROC_ECHO,
};
use rdp::circus::{NodeBuilder, NodeConfig, ThreadId, TroupeId};
use rdp::simnet::{DiskConfig, Duration, SimRng, SockAddr, Syscall, Until, World};
use rdp::transactions::{
    Broadcaster, CommitVoterService, ObjId, Op, OrderedApply, OrderedBroadcastService,
    TroupeStoreService, TxnClient,
};
use rdp::wire::{from_bytes, to_bytes};

/// Operations each ledger test runs.
const OPS: u64 = 10;

/// Module number of the `ready_to_commit` voter at the commit client.
const COMMIT_MODULE: u16 = 2;

/// The stub passes `a` has paid.
fn passes(w: &World, a: SockAddr) -> u64 {
    w.cpu(a).count_of(Syscall::Compute.index())
}

/// `n` troupe member addresses.
fn members(n: usize) -> Vec<SockAddr> {
    (1..=n as u32).map(|h| addr(h, 70)).collect()
}

/// Spawns one client process at `client` hosting `agent`, exporting the
/// commit voter, and lets the world settle.
fn spawn_client(
    w: &mut World,
    client: SockAddr,
    config: NodeConfig,
    agent: impl rdp::circus::Agent,
) {
    let p = NodeBuilder::new(client, config)
        .service(COMMIT_MODULE, Box::new(CommitVoterService))
        .agent(Box::new(agent))
        .build()
        .expect("valid client node");
    w.spawn(client, Box::new(p));
}

/// An echo to n members costs the client its call and n returns, and
/// each member the call and its reply.
#[test]
fn an_echo_costs_the_client_one_plus_n_passes_and_each_member_two() {
    for n in 1..=5 {
        let mut w = world(1985);
        let config = NodeConfig::default();
        let troupe = spawn_troupe(
            &mut w,
            TroupeId(7),
            &members(n),
            MODULE,
            &config,
            None,
            CountingService::default,
        );
        let client = spawn_caller(&mut w, addr(10, 100), config, None);
        let echo = Request::new(&troupe, MODULE, PROC_ECHO, vec![7; 64]);
        enqueue(&mut w, client, vec![echo; OPS as usize]);
        w.poke(client, OPS - 1);
        w.run(Until::Idle);
        assert_eq!(results(&w, client).len() as u64, OPS);
        assert_eq!(passes(&w, client), (1 + n as u64) * OPS, "client, n = {n}");
        for m in members(n) {
            assert_eq!(passes(&w, m), 2 * OPS, "member {m}, n = {n}");
        }
    }
}

/// The replicated program (§4.3.3): a server member internalizes the m
/// call messages of one logical call and externalizes one reply; a client
/// member externalizes its call and internalizes n returns. The data plane
/// does not change the ledger.
#[test]
fn a_server_member_pays_m_plus_one_passes_per_logical_call() {
    for (m, n) in (1..=3).flat_map(|m| (1..=3).map(move |n| (m, n))) {
        for multicast in [false, true] {
            assert_program_ledger(m, n, multicast);
        }
    }
}

/// Runs `OPS` logical echo calls from an `m`-member client troupe to an
/// `n`-member troupe and checks every process's stub passes.
fn assert_program_ledger(m: usize, n: usize, multicast: bool) {
    let mut w = world(1985);
    let config = NodeConfig {
        multicast_small_calls: multicast,
        ..NodeConfig::default()
    };
    let servers = members(n);
    let server = spawn_troupe(
        &mut w,
        TroupeId(4242),
        &servers,
        MODULE,
        &config,
        None,
        CountingService::default,
    );
    let client_id = TroupeId(4343);
    let clients: Vec<SockAddr> = (0..m as u32).map(|i| addr(100 + i, 100)).collect();
    spawn_troupe(
        &mut w,
        client_id,
        &clients,
        MODULE,
        &config,
        None,
        CountingService::default,
    );
    for &s in &servers {
        node_mut(&mut w, s, |nd| {
            nd.preload_directory(client_id, clients.clone())
        });
    }
    let thread = ThreadId {
        origin: clients[0],
        serial: 1,
    };
    let echo = Request::new(&server, MODULE, PROC_ECHO, vec![7; 64]).on(thread);
    for &c in &clients {
        enqueue(&mut w, c, vec![echo.clone(); OPS as usize]);
    }
    for _ in 0..OPS {
        for &c in &clients {
            w.poke(c, 0);
        }
        w.run(Until::Idle);
    }
    let cell = format!("m = {m}, n = {n}, multicast {multicast}");
    for &c in &clients {
        assert_eq!(results(&w, c).len() as u64, OPS, "{cell}");
        assert_eq!(passes(&w, c), (1 + n as u64) * OPS, "client {c}, {cell}");
    }
    for &s in &servers {
        assert_eq!(passes(&w, s), (m as u64 + 1) * OPS, "server {s}, {cell}");
    }
}

/// A transaction is one `execute` call and one `ready_to_commit`
/// call-back from the three members: each member pays 2 + 2 passes, and
/// the client 1 + 3 for its call and 3 + 1 for the call-back it serves.
#[test]
fn a_commit_costs_each_member_four_passes_and_the_client_eight() {
    let mut w = world(1985);
    let store = spawn_troupe(
        &mut w,
        TroupeId(4242),
        &members(3),
        MODULE,
        &NodeConfig::default(),
        None,
        || TroupeStoreService::new(COMMIT_MODULE),
    );
    let script = (0..OPS)
        .map(|i| vec![Op::Add(ObjId(1), 1), Op::Add(ObjId(100 + i % 16), 1)])
        .collect();
    let client = addr(10, 50);
    let txn = TxnClient::new(store, MODULE, script);
    spawn_client(&mut w, client, NodeConfig::default(), txn);
    w.poke(client, 0);
    w.run(Until::Idle);
    let (committed, errors) = agent(&w, client, |t: &TxnClient| {
        (t.committed.len() as u64, t.errors.clone())
    });
    assert_eq!((committed, errors), (OPS, Vec::<String>::new()));
    assert_eq!(passes(&w, client), 8 * OPS, "client");
    for m in members(3) {
        assert_eq!(passes(&w, m), 4 * OPS, "member {m}");
    }
}

/// The broadcast application: a running sum.
struct Sum(u64);

impl OrderedApply for Sum {
    fn apply(&mut self, payload: &[u8]) -> Vec<u8> {
        self.0 += from_bytes::<u64>(payload).unwrap_or(0);
        to_bytes(&self.0)
    }
}

/// Spawns the 3-member ordered broadcast troupe and `clients`
/// broadcasters, each with `ops` messages to send; returns their
/// addresses.
fn spawn_broadcast(w: &mut World, clients: u32, ops: u64) -> Vec<SockAddr> {
    let troupe = spawn_troupe(
        w,
        TroupeId(7),
        &members(3),
        MODULE,
        &NodeConfig::default(),
        None,
        || OrderedBroadcastService::new(Sum(0)),
    );
    (0..clients)
        .map(|i| {
            let client = addr(10 + i, 50);
            let script = (0..ops).map(|k| to_bytes(&k)).collect();
            let first_id = (u64::from(i) + 1) * 1_000_000;
            let broadcaster = Broadcaster::new(troupe.clone(), MODULE, first_id, script);
            spawn_client(w, client, NodeConfig::default(), broadcaster);
            client
        })
        .collect()
}

fn broadcasts(w: &World, clients: &[SockAddr]) -> u64 {
    let done = |&c: &SockAddr| agent(w, c, |b: &Broadcaster| b.results.len() as u64);
    clients.iter().map(done).sum()
}

/// A broadcast is two rounds, propose and accept, each one call: each
/// member pays 2 + 2 passes, and the broadcaster 2 × (1 + 3).
#[test]
fn a_broadcast_costs_each_member_four_passes_and_the_broadcaster_eight() {
    let mut w = world(1985);
    let clients = spawn_broadcast(&mut w, 1, OPS);
    w.poke(clients[0], 0);
    w.run(Until::Idle);
    assert_eq!(broadcasts(&w, &clients), OPS);
    assert_eq!(passes(&w, clients[0]), 8 * OPS, "broadcaster");
    for m in members(3) {
        assert_eq!(passes(&w, m), 4 * OPS, "member {m}");
    }
}

/// An ordered-broadcast member's CPU budget per broadcast, part by part,
/// in µs: two call messages in, each a `select` and a `recvmsg` under
/// `sigblock`; two replies out by `sendmsg`; four stub passes. No timer is
/// armed, since each reply is held. Four closed-loop broadcasters keep
/// every member busy, so a broadcast takes four of these budgets.
#[test]
fn an_ordered_broadcast_member_budget_sums_to_four_clients_latency() {
    const CLIENTS: u32 = 4;
    const WARM: u64 = 40;
    const TIMED: u64 = 200;
    let budget = [
        (Syscall::Select, 2, 1_800),
        (Syscall::RecvMsg, 2, 2_800),
        (Syscall::SigBlock, 2, 400),
        (Syscall::SendMsg, 2, 8_100),
        (Syscall::Compute, 4, 3_000),
    ];
    let per_broadcast: u64 = budget.iter().map(|&(_, n, us)| n * us).sum();
    assert_eq!(per_broadcast, 38_200);

    let mut w = world(1985);
    let ops = (WARM + TIMED).div_ceil(u64::from(CLIENTS)) + 1;
    let clients = spawn_broadcast(&mut w, CLIENTS, ops);
    for &c in &clients {
        w.poke(c, 0);
    }
    let run_to = |w: &mut World, total: u64| {
        while broadcasts(w, &clients) < total {
            assert!(w.step(), "the broadcasts stalled");
        }
        w.now()
    };
    let from = run_to(&mut w, WARM);
    for m in members(3) {
        w.reset_cpu(m);
    }
    let to = run_to(&mut w, WARM + TIMED);
    for m in members(3) {
        let cpu = w.cpu(m);
        for (sys, n, us) in budget {
            let part = (cpu.count_of(sys.index()), cpu.time_in_us(sys.index()));
            assert_eq!(part, (n * TIMED, n * us * TIMED), "member {m}, {sys:?}");
        }
        assert_eq!(cpu.total_us(), per_broadcast * TIMED, "member {m}: {cpu:?}");
    }
    // Each broadcaster has one broadcast out at all times, so its latency
    // is CLIENTS times the time between completions.
    let latency_ms = to.since(from).as_millis_f64() * f64::from(CLIENTS) / TIMED as f64;
    let expected_ms = (per_broadcast * u64::from(CLIENTS)) as f64 / 1_000.0;
    assert!(
        (latency_ms - expected_ms).abs() < 0.01,
        "{latency_ms} ms per broadcast, against {expected_ms} ms of member CPU"
    );
}

/// Transactions each commit-budget client runs.
const COMMIT_OPS: u64 = 60;

/// `commit_contended`'s rig: `clients` closed-loop `TxnClient`s against
/// the durable 3-member store (a checkpoint every 64 commits), each
/// transaction two `Add`s, the first on the hot object with probability
/// 1/4 and everything else on the client's own 16 objects.
fn spawn_contended_commit(w: &mut World, clients: u32) -> Vec<SockAddr> {
    let disks: Vec<_> = members(3)
        .iter()
        .map(|a| w.install_disk(a.host, DiskConfig::faultless()))
        .collect();
    let mut disks = disks.into_iter();
    // A commit deadlock resolves by the vote's assembly timeout (§5.3.1).
    let config = NodeConfig {
        assembly_timeout: Duration::from_millis(1200),
        ..NodeConfig::default()
    };
    let store = spawn_troupe(w, TroupeId(7), &members(3), MODULE, &config, None, || {
        let disk = disks.next().expect("one disk per member");
        TroupeStoreService::with_durability(COMMIT_MODULE, disk, 64)
    });
    let mut rng = SimRng::new(1985);
    (0..clients)
        .map(|i| {
            let client = addr(10 + i, 50);
            let private = |rng: &mut SimRng| ObjId(1000 * u64::from(i + 1) + rng.below(16));
            let script = (0..COMMIT_OPS)
                .map(|_| {
                    let hot = rng.chance(0.25);
                    let first = if hot { ObjId(1) } else { private(&mut rng) };
                    vec![Op::Add(first, 1), Op::Add(private(&mut rng), 1)]
                })
                .collect();
            let txn = TxnClient::new(store.clone(), MODULE, script);
            spawn_client(w, client, config.clone(), txn);
            client
        })
        .collect()
}

fn commits(w: &World, clients: &[SockAddr]) -> u64 {
    let done = |&c: &SockAddr| agent(w, c, |t: &TxnClient| t.committed.len() as u64);
    clients.iter().map(done).sum()
}

/// A durable store member's budget per committed transaction: the
/// `execute` call and the `ready_to_commit` return in, each a `select`
/// and a `recvmsg`; the reply and the vote out by `sendmsg`; four stub
/// passes; one WAL append and one fsync. The timer package is charged
/// only when a connection timer is armed, on a few transactions in ten.
/// Four closed-loop clients keep every member busy, so a transaction
/// takes four of these budgets.
#[test]
fn a_commit_member_budget_sums_to_four_clients_latency() {
    const CLIENTS: u32 = 4;
    const WARM: u64 = 40;
    const TIMED: u64 = 160;
    let mut w = world(1985);
    let clients = spawn_contended_commit(&mut w, CLIENTS);
    for &c in &clients {
        w.poke(c, 0);
    }
    let run_to = |w: &mut World, total: u64| {
        while commits(w, &clients) < total {
            assert!(w.step(), "the transactions stalled");
        }
        w.now()
    };
    let from = run_to(&mut w, WARM);
    let to = run_to(&mut w, WARM + TIMED);
    w.run(Until::Idle);
    let committed = commits(&w, &clients);
    assert_eq!(committed, u64::from(CLIENTS) * COMMIT_OPS);
    for &c in &clients {
        let (aborts, errors) = agent(&w, c, |t: &TxnClient| (t.aborts, t.errors.clone()));
        assert_eq!((aborts, errors), (0, Vec::<String>::new()), "client {c}");
    }

    let reg = w.metrics();
    assert_eq!(
        reg.get("wal.appends"),
        3 * committed,
        "one append per member"
    );
    // Each member also checkpoints once on recovery at start and once
    // per 64 commits: a slot write, fsync'd like an append.
    let checkpoints = 1 + committed / 64;
    let latency_ms = to.since(from).as_millis_f64() * f64::from(CLIENTS) / TIMED as f64;
    for m in members(3) {
        let cpu = w.cpu(m);
        for (sys, n) in [
            (Syscall::SendMsg, 2),
            (Syscall::RecvMsg, 2),
            (Syscall::Select, 2),
            (Syscall::Compute, 4),
        ] {
            assert_eq!(
                cpu.count_of(sys.index()),
                n * committed,
                "member {m}, {sys:?}"
            );
        }
        let disk = |name: &str| reg.get(&format!("disk.h{}.{name}", m.host.0));
        assert_eq!(disk("appends"), committed + checkpoints, "member {m}");
        assert_eq!(disk("fsyncs"), committed + checkpoints, "member {m}");
        let arms = cpu.count_of(Syscall::GetTimeOfDay.index()) as f64 / committed as f64;
        assert!(
            arms < 0.2,
            "member {m}: {arms} timer-package arms per commit"
        );
        let cpu_ms = cpu.total_us() as f64 / committed as f64 / 1_000.0;
        let expected_ms = cpu_ms * f64::from(CLIENTS);
        assert!(
            (latency_ms - expected_ms).abs() < 0.01 * latency_ms,
            "member {m}: {latency_ms} ms per transaction, against {expected_ms} ms of member CPU"
        );
    }
}
