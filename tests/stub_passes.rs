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

use bench::budget::{self, Stamped};
use rdp::circus::testbed::{
    addr, agent, enqueue, node_mut, results, spawn_caller, spawn_troupe, world, CountingService,
    Request, MODULE, PROC_ECHO,
};
use rdp::circus::{Agent, NodeBuilder, NodeConfig, NodeCtx, ThreadId, TimerKey, TroupeId};
use rdp::simnet::{Duration, SockAddr, Syscall, Time, Until, World};
use rdp::transactions::{
    Broadcaster, CommitVoterService, ObjId, Op, TroupeStoreService, TxnClient,
};

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

fn broadcasts(w: &World, clients: &[SockAddr]) -> u64 {
    let done = |&c: &SockAddr| agent(w, c, |b: &Stamped<Broadcaster>| b.inner.results.len());
    clients.iter().map(|c| done(c) as u64).sum()
}

/// A broadcast is two rounds, propose and accept, each one call: each
/// member pays 2 + 2 passes, and the broadcaster 2 × (1 + 3).
#[test]
fn a_broadcast_costs_each_member_four_passes_and_the_broadcaster_eight() {
    let mut w = world(1985);
    let clients = budget::spawn_bcast(&mut w, 1, OPS as usize);
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
    let clients = budget::spawn_bcast(&mut w, CLIENTS, ops as usize);
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

fn commits(w: &World, clients: &[SockAddr]) -> u64 {
    let done = |&c: &SockAddr| agent(w, c, |t: &Stamped<TxnClient>| t.inner.committed.len());
    clients.iter().map(|c| done(c) as u64).sum()
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
    let clients = budget::spawn_commit(&mut w, CLIENTS, COMMIT_OPS as usize);
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
        let txn = |s: &Stamped<TxnClient>| (s.inner.aborts, s.inner.errors.clone());
        let (aborts, errors) = agent(&w, c, txn);
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

/// The timer package's one price (`circus`'s `conn.rs`): a commit client
/// opens one vote assembly per transaction, for the members' three
/// `ready_to_commit` call-backs, while its protocol timer is armed for
/// an earlier deadline (the execute call's). The assembly's timeout only
/// joins the package's queue and charges nothing, so every `setitimer`
/// the client pays comes with its package, and fewer than one a
/// transaction.
#[test]
fn a_vote_assembly_behind_the_protocol_timer_charges_no_setitimer() {
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
    let script = (0..OPS).map(|i| vec![Op::Add(ObjId(i), 1)]).collect();
    let client = addr(10, 50);
    spawn_client(
        &mut w,
        client,
        NodeConfig::default(),
        TxnClient::new(store, MODULE, script),
    );
    w.poke(client, 0);
    w.run(Until::Idle);
    let committed = agent(&w, client, |t: &TxnClient| t.committed.len() as u64);
    assert_eq!(committed, OPS);
    let cpu = w.cpu(client);
    let n = |sys: Syscall| cpu.count_of(sys.index());
    assert_eq!(n(Syscall::SetITimer), n(Syscall::GetTimeOfDay), "{cpu:?}");
    assert!(n(Syscall::SetITimer) < OPS, "{cpu:?}");
}

const EARLY: TimerKey = TimerKey::new(1);
const LATE: TimerKey = TimerKey::new(2);

/// Arms `EARLY` one second out and `LATE` two when poked; notes when
/// each fires.
#[derive(Default)]
struct TwoTimers {
    fired: Vec<(TimerKey, Time)>,
}

impl Agent for TwoTimers {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        nc.set_app_timer(Duration::from_secs(1), EARLY);
        nc.set_app_timer(Duration::from_secs(2), LATE);
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        self.fired.push((key, nc.now()));
    }
}

/// An application timer armed ahead of every deadline pending pays the
/// timer package — `gettimeofday`, `sigblock`, `setitimer` — exactly
/// once; one armed behind it pays nothing; each fires at its deadline.
#[test]
fn an_application_timer_ahead_of_every_deadline_pays_the_package_once() {
    let mut w = world(1985);
    let me = addr(10, 50);
    let node = NodeBuilder::new(me, NodeConfig::default()).agent(Box::<TwoTimers>::default());
    w.spawn(me, Box::new(node.build().expect("valid node")));
    w.run(Until::Idle);
    let poked = w.now();
    w.poke(me, 0);
    w.run(Until::Idle);
    let cpu = w.cpu(me);
    for sys in [Syscall::GetTimeOfDay, Syscall::SigBlock, Syscall::SetITimer] {
        assert_eq!(cpu.count_of(sys.index()), 1, "{sys:?}: {cpu:?}");
    }
    assert_eq!(cpu.total_us(), 2_300, "the package, and nothing else");
    let at = |s| poked + Duration::from_secs(s);
    let fired = agent(&w, me, |t: &TwoTimers| t.fired.clone());
    assert_eq!(fired, [(EARLY, at(1)), (LATE, at(2))]);
}
