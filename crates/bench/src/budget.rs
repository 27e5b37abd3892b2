//! `repro budget`: one operation's latency, charged microsecond by
//! microsecond to the cells of its critical path.
//!
//! Each rig runs with a [`Ledger`] installed before its first process,
//! so every handler run is on record. An operation is what the benchmark
//! times on that rig: for a closed-loop client, from the completion of
//! its previous operation to the completion of this one; on the chaos
//! store, one application call. The ledger walks back from the
//! operation's completion to its beginning ([`Ledger::path`]) and each
//! stretch of the path lands in one cell:
//! - CPU, by the role of the process that ran (client, member, binder)
//!   and the syscall kind it was charged for. A run that waited for its
//!   host's CPU is preceded on the path by the run ahead of it, so CPU
//!   queueing is charged to the run ahead, in its role and kinds;
//! - wire time, a datagram from its departure to its arrival;
//! - timer wait, a timer from its arming to its firing;
//! - untraced, before an event the world itself made (a poke).
//!
//! The cells sum to the operation's latency exactly, by construction
//! and by assertion.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use circus::testbed::{
    addr, agent, spawn_troupe, Caller, CountingService, Request, MODULE, PROC_ECHO,
};
use circus::{
    Agent, CallError, CallHandle, CircusProcess, NodeBuilder, NodeConfig, NodeCtx, ThreadId,
    TimerKey, TroupeId,
};
use simnet::{
    Ctx, DiskConfig, Duration, Ledger, NetConfig, Payload, Process, SimRng, SockAddr, Stretch,
    Syscall, SyscallCosts, Time, TimerId, Until, World, ALL_SYSCALLS,
};
use transactions::{
    Broadcaster, CommitVoterService, ObjId, Op, OrderedApply, OrderedBroadcastService,
    TroupeStoreService, TxnClient,
};

use crate::tables::PAPER_TABLE_4_1;

/// Module number of the `ready_to_commit` voter at a commit client.
const COMMIT_MODULE: u16 = 2;

/// What a process is to the operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// A process that makes operations.
    Client,
    /// A member of the troupe they call.
    Member,
    /// A member of the binding agent (the Ringmaster).
    Binder,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Client => "client",
            Role::Member => "member",
            Role::Binder => "binder",
        }
    }
}

/// Where a microsecond of an operation went.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cell {
    /// CPU of a process in `Role`, charged to the syscall of that index
    /// ([`Syscall::index`]).
    Cpu(Role, usize),
    /// A datagram on the wire.
    Wire,
    /// A timer's wait.
    Timer,
    /// Before an event the world made.
    Untraced,
}

impl Cell {
    /// The CPU cell of `role` for `sys`.
    pub fn cpu(role: Role, sys: Syscall) -> Cell {
        Cell::Cpu(role, sys.index())
    }

    fn label(self) -> String {
        match self {
            Cell::Cpu(role, sys) => format!("{} {}", role.name(), ALL_SYSCALLS[sys].name()),
            Cell::Wire => "wire".into(),
            Cell::Timer => "timer wait".into(),
            Cell::Untraced => "untraced".into(),
        }
    }
}

/// One timed operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Operation {
    /// The process that made it.
    pub client: SockAddr,
    /// When it began.
    pub begin: Time,
    /// When it completed.
    pub done: Time,
}

impl Operation {
    /// Its end-to-end latency.
    pub fn latency(&self) -> Duration {
        self.done.since(self.begin)
    }
}

/// An operation's latency, cell by cell.
#[derive(Clone, Debug)]
pub struct Budget {
    /// The operation.
    pub op: Operation,
    /// The time charged to each cell on its path; absent cells hold none.
    pub cells: BTreeMap<Cell, Duration>,
}

impl Budget {
    /// The time charged to `cell`.
    pub fn get(&self, cell: Cell) -> Duration {
        self.cells.get(&cell).copied().unwrap_or_default()
    }

    /// The sum of every cell.
    pub fn total(&self) -> Duration {
        (self.cells.values()).fold(Duration::ZERO, |sum, &d| sum + d)
    }

    /// The sum of `role`'s CPU cells.
    pub fn role(&self, role: Role) -> Duration {
        let of_role = |(c, _): &(&Cell, &Duration)| matches!(c, Cell::Cpu(r, _) if *r == role);
        let cells = self.cells.iter().filter(of_role);
        cells.fold(Duration::ZERO, |sum, (_, &d)| sum + d)
    }
}

/// A rig that has run with a ledger: its world, its timed operations in
/// completion order, and who plays which role.
pub struct Measured {
    /// The world, quiesced.
    world: World,
    /// The operations of the timed window, in completion order.
    pub ops: Vec<Operation>,
    role: Box<dyn Fn(SockAddr) -> Role>,
}

impl Measured {
    fn ledger(&self) -> &Ledger {
        self.world
            .trace_sink_as()
            .expect("the rig installed a ledger")
    }

    /// The budget of operation `i`.
    ///
    /// # Panics
    ///
    /// If its cells do not sum to its latency.
    pub fn budget(&self, i: usize) -> Budget {
        let op = self.ops[i];
        let path = self.ledger().path(op.client, op.begin, op.done);
        let path = path.expect("the operation completed in a run of its client");
        let mut cells = BTreeMap::new();
        for (stretch, d) in path {
            let cell = match stretch {
                Stretch::Cpu { addr, sys } => Cell::cpu((self.role)(addr), sys),
                Stretch::Wire => Cell::Wire,
                Stretch::Timer => Cell::Timer,
                Stretch::Untraced => Cell::Untraced,
            };
            *cells.entry(cell).or_insert(Duration::ZERO) += d;
        }
        let budget = Budget { op, cells };
        assert_eq!(budget.total(), op.latency(), "the cells of op {i}");
        budget
    }

    /// The operation at quantile `q` of latency (ties in completion
    /// order).
    pub fn quantile(&self, q: f64) -> usize {
        let mut order: Vec<usize> = (0..self.ops.len()).collect();
        order.sort_by_key(|&i| (self.ops[i].latency(), i));
        let rank = ((order.len() as f64 * q).ceil() as usize).clamp(1, order.len());
        order[rank - 1]
    }

    /// The median operation.
    pub fn median(&self) -> usize {
        self.quantile(0.5)
    }
}

// ---------------------------------------------------------------------
// Rigs.
// ---------------------------------------------------------------------

/// A closed-loop client agent whose completions are timed: `count` reads
/// how many operations it has finished, and a completion is whatever
/// makes it grow, stamped when the node handed it to the agent (before
/// the agent begins the next operation).
pub struct Stamped<A> {
    /// The client agent timed.
    pub inner: A,
    count: fn(&A) -> usize,
    /// When each operation completed, in order.
    done: Vec<Time>,
}

impl<A: Agent> Stamped<A> {
    /// Wraps `inner`, whose finished operations `count` reads.
    fn new(inner: A, count: fn(&A) -> usize) -> Stamped<A> {
        Stamped {
            inner,
            count,
            done: Vec::new(),
        }
    }

    /// Runs `f` on the inner agent; a completion it finds is stamped with
    /// the instant the node handed the agent the event.
    fn around(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        f: impl FnOnce(&mut A, &mut NodeCtx<'_, '_, '_>),
    ) {
        let now = nc.now();
        f(&mut self.inner, nc);
        let finished = (self.count)(&self.inner);
        self.done.resize(finished.max(self.done.len()), now);
    }
}

impl<A: Agent> Agent for Stamped<A> {
    fn on_start(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        self.around(nc, |a, nc| a.on_start(nc));
    }
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        self.around(nc, |a, nc| a.on_poke(nc, tag));
    }
    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        self.around(nc, |a, nc| a.on_call_done(nc, handle, result));
    }
    fn on_member_dead(&mut self, nc: &mut NodeCtx<'_, '_, '_>, addr: SockAddr) {
        self.around(nc, |a, nc| a.on_member_dead(nc, addr));
    }
    fn on_determinism_violation(&mut self, nc: &mut NodeCtx<'_, '_, '_>, handle: CallHandle) {
        self.around(nc, |a, nc| a.on_determinism_violation(nc, handle));
    }
    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        self.around(nc, |a, nc| a.on_app_timer(nc, key));
    }
    fn on_notify(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        self.around(nc, |a, nc| a.on_notify(nc, tag));
    }
}

/// The benchmark's layout: a 3-member troupe on hosts 1–3, port 70.
fn members() -> Vec<SockAddr> {
    (1..=3).map(|h| addr(h, 70)).collect()
}

/// Client `i`, on host 10 + `i`, port 50.
fn client(i: u32) -> SockAddr {
    addr(10 + i, 50)
}

/// Hosts 1–3 hold the members; everyone else is a client.
fn by_host(a: SockAddr) -> Role {
    match a.host.0 {
        1..=3 => Role::Member,
        _ => Role::Client,
    }
}

/// A world on the 1985 LAN and Table 4.2's costs, with `ledger`
/// installed before anything runs.
fn ledgered(seed: u64, ledger: Ledger) -> World {
    let mut w = World::with_config(seed, NetConfig::lan_1985(), SyscallCosts::vax_4_2bsd());
    w.add_trace_sink(Box::new(ledger));
    w
}

/// Closed-loop operations from per-client completion times: each from
/// the completion before it, skipping each client's first `warm` and
/// last `warm`, when not every client is in the loop. In completion
/// order.
fn closed_loop(done: &[(SockAddr, Vec<Time>)], warm: usize) -> Vec<Operation> {
    let mut ops: Vec<Operation> = done
        .iter()
        .flat_map(|(client, times)| {
            let timed = warm..times.len().saturating_sub(warm);
            timed.map(move |k| Operation {
                client: *client,
                begin: times[k - 1],
                done: times[k],
            })
        })
        .collect();
    ops.sort_by_key(|op| (op.done, op.client));
    ops
}

/// Calls each echo rig makes, back to back.
const ECHO_CALLS: usize = 21;

/// A Circus process that charges `extra` more `Compute` at the start of
/// every datagram handler: a planted cost, to show which cells move.
struct Planted {
    inner: CircusProcess,
    extra: Duration,
}

impl Process for Planted {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: SockAddr, data: Payload) {
        if !self.extra.is_zero() {
            ctx.charge_dur(Syscall::Compute, self.extra);
        }
        self.inner.on_datagram(ctx, from, data);
    }
    fn on_unreachable(&mut self, ctx: &mut Ctx<'_>, dead: SockAddr) {
        self.inner.on_unreachable(ctx, dead);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId, tag: u64) {
        self.inner.on_timer(ctx, timer, tag);
    }
    fn on_poke(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.inner.on_poke(ctx, tag);
    }
    fn recv_syscall(&self) -> Option<Syscall> {
        self.inner.recv_syscall()
    }
}

/// An echo rig: one client calling `members` back to back on one
/// thread, each call `payload` bytes out and back, its every receive
/// charged `plant` more. The ops are every call but the first and the
/// last.
fn echo_rig(members: &[SockAddr], client: SockAddr, payload: usize, plant: Duration) -> Measured {
    let mut w = ledgered(1985, Ledger::new());
    let config = NodeConfig::default();
    let troupe = spawn_troupe(
        &mut w,
        TroupeId(4242),
        members,
        MODULE,
        &config,
        None,
        CountingService::default,
    );
    let inner = NodeBuilder::new(client, config)
        .agent(Box::<Caller>::default())
        .build()
        .expect("valid client node");
    w.spawn(
        client,
        Box::new(Planted {
            inner,
            extra: plant,
        }),
    );
    let thread = ThreadId {
        origin: client,
        serial: 1,
    };
    let echo = Request::new(&troupe, MODULE, PROC_ECHO, vec![7; payload]).on(thread);
    let enqueue = |p: &mut Planted| {
        let caller = p.inner.agent_as_mut::<Caller>().expect("a caller");
        caller.enqueue(vec![echo; ECHO_CALLS]);
    };
    w.with_proc_mut(client, enqueue).expect("the client");
    w.poke(client, ECHO_CALLS as u64 - 1);
    w.run(Until::Idle);
    let caller = |p: &Planted| p.inner.agent_as::<Caller>().map(|c| c.completed.clone());
    let completed = w.with_proc(client, caller).flatten().expect("the client");
    assert!(completed.iter().all(|c| c.result.is_ok()), "every echo");
    let done = completed.iter().map(|c| c.done).collect();
    Measured {
        ops: closed_loop(&[(client, done)], 1),
        world: w,
        role: Box::new(by_host),
    }
}

/// `echo_small`'s rig: 64-byte echoes to three members.
pub fn echo_small() -> Measured {
    echo_rig(&members(), client(0), 64, Duration::ZERO)
}

/// `echo_bulk`'s rig: 8 KiB echoes to three members.
pub fn echo_bulk() -> Measured {
    echo_rig(&members(), client(0), 8 * 1024, Duration::ZERO)
}

/// Table 4.1's Circus n = 1 row: 64-byte echoes to one member.
pub fn table_4_1() -> Measured {
    table_4_1_planted(Duration::ZERO)
}

/// Table 4.1's n = 1 rig with `plant` more `Compute` charged at the
/// start of every datagram the client receives.
pub fn table_4_1_planted(plant: Duration) -> Measured {
    echo_rig(&members()[..1], client(0), 64, plant)
}

/// Operations each of the four clients of the commit and broadcast rigs
/// makes, of which the first and last four are not timed.
const PER_CLIENT: usize = 30;
const WARM: usize = 4;

/// Spawns `n` closed-loop clients at hosts 10, 11, …, each hosting
/// `make(i)`, [`Stamped`], and the commit voter, and pokes each.
fn spawn_clients<A: Agent>(
    w: &mut World,
    n: u32,
    mut make: impl FnMut(u32) -> A,
    count: fn(&A) -> usize,
) -> Vec<SockAddr> {
    let clients: Vec<SockAddr> = (0..n).map(client).collect();
    for (i, &c) in (0..).zip(&clients) {
        let p = NodeBuilder::new(c, commit_config())
            .service(COMMIT_MODULE, Box::new(CommitVoterService))
            .agent(Box::new(Stamped::new(make(i), count)))
            .build()
            .expect("valid client node");
        w.spawn(c, Box::new(p));
        w.poke(c, 0);
    }
    clients
}

/// Runs the clients of `w`, stamped agents `A`, to the end: their
/// closed-loop operations.
fn measured<A: Agent>(mut w: World, clients: &[SockAddr]) -> Measured {
    w.run(Until::Idle);
    let done = |&c: &SockAddr| (c, agent(&w, c, |s: &Stamped<A>| s.done.clone()));
    let done: Vec<_> = clients.iter().map(done).collect();
    Measured {
        ops: closed_loop(&done, WARM),
        world: w,
        role: Box::new(by_host),
    }
}

/// The commit rig's node configuration: a 1.2 s vote assembly, as
/// `commit_contended`'s.
fn commit_config() -> NodeConfig {
    NodeConfig {
        assembly_timeout: Duration::from_millis(1200),
        ..NodeConfig::default()
    }
}

/// Spawns the commit rig, a stand-in for the benchmark's
/// `commit_contended` with its layout, node configuration and mix but
/// not its seeds or scripts: the durable 3-member store (a checkpoint
/// every 64 commits) and `clients` closed-loop [`TxnClient`]s, poked,
/// each `per_client` transactions of two `Add`s, the first on the hot
/// object with probability 1/4 and everything else on the client's own
/// 16 objects. Each client agent is a [`Stamped`] `TxnClient`.
pub fn spawn_commit(w: &mut World, clients: u32, per_client: usize) -> Vec<SockAddr> {
    let mut disks = (members().iter())
        .map(|a| w.install_disk(a.host, DiskConfig::faultless()))
        .collect::<Vec<_>>()
        .into_iter();
    let store = spawn_troupe(
        w,
        TroupeId(7),
        &members(),
        MODULE,
        &commit_config(),
        None,
        || {
            let disk = disks.next().expect("one disk per member");
            TroupeStoreService::with_durability(COMMIT_MODULE, disk, 64)
        },
    );
    let mut rng = SimRng::new(1985);
    let script = |i: u32, rng: &mut SimRng| -> Vec<Vec<Op>> {
        let private = |rng: &mut SimRng| ObjId(1000 * u64::from(i + 1) + rng.below(16));
        (0..per_client)
            .map(|_| {
                let first = if rng.chance(0.25) {
                    ObjId(1)
                } else {
                    private(rng)
                };
                vec![Op::Add(first, 1), Op::Add(private(rng), 1)]
            })
            .collect()
    };
    let make = |i| TxnClient::new(store.clone(), MODULE, script(i, &mut rng));
    spawn_clients(w, clients, make, |t: &TxnClient| t.committed.len())
}

/// The commit rig's median operation: four clients, 30 transactions
/// each.
pub fn commit_contended() -> Measured {
    let mut w = ledgered(1985, Ledger::new());
    let clients = spawn_commit(&mut w, 4, PER_CLIENT);
    measured::<TxnClient>(w, &clients)
}

/// The broadcast application: a running sum.
struct Sum(u64);

impl OrderedApply for Sum {
    fn apply(&mut self, payload: &[u8]) -> Vec<u8> {
        self.0 += wire::from_bytes::<u64>(payload).unwrap_or(0);
        wire::to_bytes(&self.0)
    }
}

/// Spawns the broadcast rig, a stand-in for the benchmark's
/// `ordered_bcast`: the 3-member ordered broadcast troupe and `clients`
/// closed-loop [`Broadcaster`]s, poked, each with `per_client` messages.
/// Each client agent is a [`Stamped`] `Broadcaster`.
pub fn spawn_bcast(w: &mut World, clients: u32, per_client: usize) -> Vec<SockAddr> {
    let troupe = spawn_troupe(
        w,
        TroupeId(7),
        &members(),
        MODULE,
        &NodeConfig::default(),
        None,
        || OrderedBroadcastService::new(Sum(0)),
    );
    let make = |i: u32| {
        let script = (0..per_client as u64).map(|k| wire::to_bytes(&k)).collect();
        Broadcaster::new(troupe.clone(), MODULE, u64::from(i + 1) * 1_000_000, script)
    };
    spawn_clients(w, clients, make, |b: &Broadcaster| b.results.len())
}

/// The broadcast rig's operations: four clients, 30 broadcasts each.
pub fn ordered_bcast() -> Measured {
    let mut w = ledgered(1985, Ledger::new());
    let clients = spawn_bcast(&mut w, 4, PER_CLIENT);
    measured::<Broadcaster>(w, &clients)
}

/// The chaos store seed the budget table decomposes.
const CHAOS_SEED: u64 = 1;

fn watch_calls(_seed: u64, w: &mut World) {
    let calls = w.metrics().histogram("rpc.call_latency_us");
    w.add_trace_sink(Box::new(Ledger::watching(calls)));
}

/// One chaos store scenario, seed `seed`, from the full spawn on; its
/// operations are the application calls, each as `rpc.call_latency_us`
/// timed it.
pub fn chaos_store(seed: u64) -> Measured {
    let opts = chaos::ScenarioOptions {
        injector: Some(watch_calls),
        ..<chaos::Store as chaos::Workload>::options()
    };
    let q = chaos::run_scenario(seed, &opts);
    let ledger: &Ledger = q.world.trace_sink_as().expect("installed");
    let ops = (ledger.observed().iter())
        .map(|o| Operation {
            client: o.addr,
            begin: o.begin,
            done: o.done,
        })
        .collect();
    let (clients, binders) = (q.client_addrs.clone(), q.ringmaster_hosts.clone());
    Measured {
        ops,
        world: q.world,
        role: Box::new(move |a| {
            if clients.contains(&a) {
                Role::Client
            } else if binders.contains(&a.host) {
                Role::Binder
            } else {
                Role::Member
            }
        }),
    }
}

/// Runs a rig.
pub type Rig = fn() -> Measured;

/// Every rig `repro budget` knows, by the benchmark workload it stands
/// in for: the same layout and costs, not the benchmark's own seeds,
/// scripts or run lengths.
pub const RIGS: &[(&str, Rig)] = &[
    ("echo_small", echo_small),
    ("echo_bulk", echo_bulk),
    ("commit_contended", commit_contended),
    ("ordered_bcast", ordered_bcast),
    ("chaos_faults", || chaos_store(CHAOS_SEED)),
    ("table4.1", table_4_1),
];

/// One operation's budget as `repro budget <rig> [--op N]` prints it.
pub fn render_op(rig: &str, m: &Measured, i: usize) -> String {
    let b = m.budget(i);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{rig}: op {i} of {} (median {}, p99 {}), {} from {} to {}: {:.2} ms",
        m.ops.len(),
        m.median(),
        m.quantile(0.99),
        b.op.client,
        b.op.begin,
        b.op.done,
        b.op.latency().as_millis_f64()
    );
    for (cell, d) in &b.cells {
        let _ = writeln!(out, "  {:<20} {:>8.2}", cell.label(), d.as_millis_f64());
    }
    out
}

/// The budget table: the median operation of every rig, cell by cell,
/// beside Table 4.1's paper figure.
pub fn table() -> String {
    let budgets: Vec<(&str, Budget)> = RIGS
        .iter()
        .map(|&(name, rig)| {
            let m = rig();
            (name, m.budget(m.median()))
        })
        .collect();
    let mut cells: Vec<Cell> = budgets
        .iter()
        .flat_map(|(_, b)| b.cells.keys())
        .copied()
        .collect();
    cells.sort();
    cells.dedup();
    let mut out = String::from(
        "budget: each rig's median operation, its latency charged cell by cell \
         along its critical path (ms); the rigs stand in for the benchmark's \
         workloads\n",
    );
    let heads = ["echo64", "echo8K", "commit", "bcast", "store#1", "t4.1n=1"];
    let _ = write!(out, "{:<20}", "cell");
    for h in heads {
        let _ = write!(out, " {h:>8}");
    }
    out.push('\n');
    let mut row = |label: &str, f: &dyn Fn(&Budget) -> Duration| {
        let _ = write!(out, "{label:<20}");
        for (_, b) in &budgets {
            let _ = write!(out, " {:>8.2}", f(b).as_millis_f64());
        }
        out.push('\n');
    };
    for cell in cells {
        row(&cell.label(), &|b| b.get(cell));
    }
    row("= op latency", &|b| b.op.latency());
    let paper = PAPER_TABLE_4_1.iter().find(|r| r.0 == "Circus n=1");
    let paper = paper.expect("Table 4.1 has an n = 1 row").1;
    let _ = writeln!(out, "paper, Table 4.1, Circus n=1: {paper:.1} ms");
    out
}
