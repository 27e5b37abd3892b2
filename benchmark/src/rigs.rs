//! The benchmark's own rigs for the four fault-free workloads.
//!
//! Modelled on `crates/bench/src/testbed.rs` and `ablations.rs`, but
//! seeded from an argument, sized by fixed operation counts, and checking
//! their outputs. All clients are closed-loop with no think time: a client
//! submits its next operation when the previous one completes.
//!
//! Layout of every rig: a 3-member troupe on hosts 1..=3 (port 70), `k`
//! client processes on hosts 10.. (port 50), the 1985 LAN and the VAX
//! 4.2BSD syscall cost table.

use circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, ModuleAddr, NodeBuilder,
    NodeConfig, NodeCtx, Service, ServiceCtx, Step, ThreadId, Troupe, TroupeId,
};
use simnet::{
    DiskConfig, Duration, HostId, NetConfig, SimRng, SockAddr, SyscallCosts, Time, Until, World,
};
use transactions::{
    Broadcaster, CommitVoterService, ObjId, Op, OrderedApply, OrderedBroadcastService,
    TroupeStoreService, TxnClient,
};
use wire::{from_bytes, to_bytes};

use crate::measure::{Edge, Rep, SetupClock};
use crate::trace::{
    CountingSink, Progress, Rec, Recorder, SegmentCounts, SegmentTap, SinkCounts, Spanned,
    SpannedService, Timed,
};

/// Degree of replication of every server troupe.
pub const REPLICAS: usize = 3;
const MODULE: u16 = 1;
const COMMIT_MODULE: u16 = 2;
const MEMBER_PORT: u16 = 70;
const CLIENT_PORT: u16 = 50;
/// Commits between snapshots of a durable store member.
const SNAPSHOT_EVERY: usize = 64;
/// Share of the scripted operations that run before the timed window.
const WARMUP_SHARE: f64 = 0.05;

/// The simulated testbed every rig runs on (README: "Injected network
/// delay and syscall costs").
pub fn testbed(seed: u64) -> World {
    World::with_config(seed, NetConfig::lan_1985(), SyscallCosts::vax_4_2bsd())
}

/// Warm-up operations preceding `timed` timed ones.
pub fn warmup_ops(timed: u64) -> u64 {
    ((timed as f64 * WARMUP_SHARE).ceil() as u64).max(1)
}

/// Script sizes of one repetition: warm-up, timed window, and a cool-down
/// as long as the warm-up (see [`Drive`]), each a multiple of the client
/// count so every client gets the same script length.
struct Plan {
    warm: u64,
    timed: u64,
    per_client: u64,
}

fn plan(timed: u64, clients: usize) -> Plan {
    let k = clients as u64;
    let warm = warmup_ops(timed).div_ceil(k) * k;
    let timed = timed.div_ceil(k) * k;
    Plan {
        warm,
        timed,
        per_client: (2 * warm + timed) / k,
    }
}

fn member_addr(i: usize) -> SockAddr {
    SockAddr::new(HostId(1 + i as u32), MEMBER_PORT)
}

fn client_addr(i: usize) -> SockAddr {
    SockAddr::new(HostId(10 + i as u32), CLIENT_PORT)
}

fn troupe(id: TroupeId, replicas: usize) -> Troupe {
    let members = (0..replicas)
        .map(|i| ModuleAddr::new(member_addr(i), MODULE))
        .collect();
    Troupe::new(id, members)
}

/// Installs the traced run's instruments on a fresh world — the counting
/// sink, the passive tap — and starts a span recorder. The untraced run
/// has none of them: processes and services are spawned bare.
fn attach(w: &mut World) -> Rec {
    w.set_trace_sink(Box::new(CountingSink::default()));
    w.set_injector(Box::new(SegmentTap::default()), Duration::ZERO);
    Recorder::shared()
}

/// Spawns a Circus process, wrapped in [`Spanned`] when traced.
fn spawn(w: &mut World, addr: SockAddr, p: CircusProcess, t: &Option<Rec>, layer: &'static str) {
    match t {
        Some(rec) => w.spawn(addr, Box::new(Spanned::new(p, rec.clone(), layer))),
        None => w.spawn(addr, Box::new(p)),
    }
}

/// Boxes a service, wrapped in [`SpannedService`] when traced.
fn service<S: Service>(s: S, t: &Option<Rec>, layer: &'static str) -> Box<dyn Service> {
    match t {
        Some(rec) => Box::new(SpannedService::new(s, rec.clone(), layer)),
        None => Box::new(s),
    }
}

/// Reads the Circus process at `addr`, through the wrapper when traced.
fn with_node<R>(
    w: &World,
    addr: SockAddr,
    traced: bool,
    f: impl FnOnce(&CircusProcess) -> R,
) -> Option<R> {
    if traced {
        w.with_proc(addr, |s: &Spanned<CircusProcess>| f(&s.inner))
    } else {
        w.with_proc(addr, f)
    }
}

/// Reads service `S` exported as [`MODULE`] at `addr`, through both
/// wrappers when traced.
fn with_service<S: Service, R>(
    w: &World,
    addr: SockAddr,
    traced: bool,
    f: impl FnOnce(&S) -> R,
) -> Option<R> {
    with_node(w, addr, traced, |p| {
        if traced {
            p.node()
                .service_as::<SpannedService<S>>(MODULE)
                .map(|s| f(&s.inner))
        } else {
            p.node().service_as::<S>(MODULE).map(f)
        }
    })
    .flatten()
}

/// Per-client completion ordinals and simulated times, read back after
/// the run.
struct ClientLog {
    done_at: Vec<(u64, Time)>,
    /// Replicated calls this client completed over its whole script.
    calls: u64,
    errors: Vec<String>,
}

/// Drives a spawned world through warm-up, the timed window and cool-down
/// and fills the parts of a [`Rep`] common to all rigs.
///
/// The scripts hold `warm + timed + cool` operations (`cool == warm`). The
/// window opens when `warm` have completed and closes when `warm + timed`
/// have, so both edges cut a system in steady state — every client still
/// busy, one operation in flight each — and per-operation counts come out
/// whole. The world then runs on to the end of the scripts so the output
/// checks see a quiesced system.
struct Drive {
    setup: SetupClock,
    clients: Vec<SockAddr>,
    progress: Progress,
    plan: Plan,
}

/// The timed window of one repetition, as the clients' logs need it.
struct Window {
    /// Ordinal of the last operation completed before the window.
    first: u64,
    /// Ordinal of the last operation completed inside it.
    last: u64,
    /// Simulated clock at the opening edge.
    open_sim: Time,
}

impl Drive {
    fn run(self, w: &mut World, t: &Option<Rec>) -> (Rep, Window) {
        let Plan { warm, timed, .. } = self.plan;
        let scripted = self.plan.per_client * self.clients.len() as u64;
        // A generous simulated deadline — an hour plus a second per
        // operation, where the slowest takes 0.4 s — so a stuck world ends
        // the run instead of spinning its periodic timers forever.
        let deadline = Time::from_secs(3600 + scripted);
        let mut rep = Rep {
            scripted: timed,
            ..Rep::default()
        };
        for &c in &self.clients {
            w.poke(c, 0);
        }
        let progress = self.progress.clone();
        let until = |w: &mut World, n: u64| {
            let progress = progress.clone();
            w.run(Until::pred(deadline, move |_| progress.get() >= n))
        };
        until(w, warm);
        (rep.setup_s, rep.setup_raw_s) = self.setup.stop();
        let open = Edge::open(w);
        let first = self.progress.get();
        let traced_open = t.as_ref().map(|rec| (rec.borrow().spans().len(), taps(w)));
        until(w, warm + timed);
        let close = Edge::close(w);
        let last = self.progress.get();
        rep.window(&open, &close);
        rep.ops = last - first;
        if let (Some(rec), Some((first_span, (sink0, seg0)))) = (t, traced_open) {
            let spans = rec.borrow();
            let from_ns = spans
                .spans()
                .get(first_span)
                .map_or(u64::MAX, |s| s.start_ns);
            (rep.self_ns, rep.handler_ns) = spans.self_times(from_ns);
            let (sink1, seg1) = taps(w);
            rep.sink = sink1.since(&sink0);
            rep.segments = seg1.since(&seg0);
            rep.recorder = Some(rec.clone());
        }
        if !until(w, scripted) {
            rep.errors.push(format!(
                "only {} of {scripted} scripted operations completed by simulated {:?}",
                self.progress.get(),
                w.now()
            ));
        }
        let window = Window {
            first,
            last,
            open_sim: open.sim,
        };
        (rep, window)
    }
}

/// Current totals of the traced run's sink and tap.
pub fn taps(w: &World) -> (SinkCounts, SegmentCounts) {
    (
        w.trace_sink_as::<CountingSink>()
            .map(|s| s.counts)
            .unwrap_or_default(),
        w.injector_as::<SegmentTap>()
            .map(|s| s.counts)
            .unwrap_or_default(),
    )
}

/// Folds the clients' completion logs into the repetition: one latency
/// sample per operation completed inside the window, measured completion
/// to completion at its client (closed loop, no think time: an operation
/// starts when its client's previous one completes).
fn fold_clients(rep: &mut Rep, window: &Window, logs: Vec<ClientLog>) {
    for log in logs {
        rep.errors.extend(log.errors);
        rep.client_calls += log.calls;
        let mut prev = window.open_sim;
        for &(ordinal, at) in &log.done_at {
            if ordinal > window.first && ordinal <= window.last {
                rep.lat_us.push(at.since(prev).as_micros());
            }
            prev = at;
        }
    }
}

/// Sums `rpc.<member>.invocations` over the troupe (whole run).
fn member_invocations(w: &World, replicas: usize) -> u64 {
    w.refresh_metrics();
    let reg = w.metrics();
    (0..replicas)
        .map(|i| reg.get(&format!("rpc.{}.invocations", member_addr(i))))
        .sum()
}

// ---------------------------------------------------------------------
// Replicated echo (`echo_small`, `echo_bulk`, and the n=1 baseline).
// ---------------------------------------------------------------------

struct EchoService;

impl Service for EchoService {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, args: &[u8]) -> Step {
        Step::Reply(args.to_vec())
    }
}

/// Sequential replicated echo calls; arguments are seeded bytes and every
/// result is compared with what was sent.
struct EchoClient {
    troupe: Troupe,
    thread: Option<ThreadId>,
    payload: usize,
    rng: SimRng,
    remaining: u64,
    sent: Vec<u8>,
    completed: usize,
    mismatches: u64,
    failures: Vec<String>,
}

impl EchoClient {
    fn call_one(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        let thread = *self.thread.get_or_insert_with(|| nc.fresh_thread());
        // One seeded byte per call, repeated: distinct arguments without
        // charging the host clock for 8 KiB of random bytes per call.
        let fill = self.rng.next_u64() as u8;
        self.sent.clear();
        self.sent.resize(self.payload, fill);
        let troupe = self.troupe.clone();
        nc.call(
            thread,
            &troupe,
            MODULE,
            0,
            self.sent.clone(),
            CollationPolicy::Unanimous,
        );
    }
}

impl Agent for EchoClient {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        self.call_one(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        match result {
            Ok(bytes) if bytes == self.sent => {}
            Ok(_) => self.mismatches += 1,
            Err(e) => self.failures.push(format!("echo call failed: {e}")),
        }
        self.completed += 1;
        self.remaining -= 1;
        if self.remaining > 0 {
            self.call_one(nc);
        }
    }
}

/// One repetition of the replicated echo: 1 client, `replicas` members,
/// `payload`-byte arguments and results, `timed` calls after warm-up.
pub fn run_echo(seed: u64, replicas: usize, payload: usize, timed: u64, traced: bool) -> Rep {
    let setup = SetupClock::start();
    let mut w = testbed(seed);
    let t = traced.then(|| attach(&mut w));
    let id = TroupeId(4242);
    for i in 0..replicas {
        let a = member_addr(i);
        let p = NodeBuilder::new(a, NodeConfig::default())
            .service(MODULE, service(EchoService, &t, "app"))
            .troupe_id(id)
            .build()
            .expect("valid member node");
        spawn(&mut w, a, p, &t, "core.member");
    }
    let plan = plan(timed, 1);
    let progress = Progress::default();
    let client = client_addr(0);
    let agent = EchoClient {
        troupe: troupe(id, replicas),
        thread: None,
        payload,
        rng: SimRng::new(seed ^ 0x4543_484F), // "ECHO"
        remaining: plan.per_client,
        sent: Vec::new(),
        completed: 0,
        mismatches: 0,
        failures: Vec::new(),
    };
    let agent = Timed::new(agent, |c| c.completed, progress.clone(), t.clone(), "app");
    let p = NodeBuilder::new(client, NodeConfig::default())
        .agent(Box::new(agent))
        .build()
        .expect("valid client node");
    spawn(&mut w, client, p, &t, "core.client");

    let drive = Drive {
        setup,
        clients: vec![client],
        progress,
        plan,
    };
    let (mut rep, window) = drive.run(&mut w, &t);

    let log = with_node(&w, client, traced, |p| {
        p.agent_as::<Timed<EchoClient>>().map(|t| {
            let c = &t.inner;
            let mut errors = c.failures.clone();
            if c.mismatches > 0 {
                errors.push(format!(
                    "{} echo results differ from their arguments",
                    c.mismatches
                ));
            }
            ClientLog {
                done_at: t.done_at.clone(),
                calls: c.completed as u64,
                errors,
            }
        })
    })
    .flatten();
    match log {
        Some(log) => fold_clients(&mut rep, &window, vec![log]),
        None => rep.errors.push("echo client process vanished".into()),
    }
    rep.member_invocations = member_invocations(&w, replicas);
    rep
}

// ---------------------------------------------------------------------
// Contended troupe commit (`commit_contended`).
// ---------------------------------------------------------------------

/// The shared hot object; client `c`'s private objects are
/// `1000 * (c + 1) + 0..PRIVATE_OBJECTS`.
const HOT: ObjId = ObjId(1);
const PRIVATE_OBJECTS: u64 = 16;
/// Probability that a transaction's first operation hits [`HOT`].
const HOT_PROBABILITY: f64 = 0.25;

fn private_obj(rng: &mut SimRng, client: usize) -> ObjId {
    ObjId(1000 * (client as u64 + 1) + rng.below(PRIVATE_OBJECTS))
}

/// Seeded scripts: every transaction is two `Add`s, the first on the hot
/// object with probability [`HOT_PROBABILITY`], everything else private.
fn commit_scripts(seed: u64, clients: usize, per_client: u64) -> Vec<Vec<Vec<Op>>> {
    let mut rng = SimRng::new(seed ^ 0x434F_4D4D_4954); // "COMMIT"
    (0..clients)
        .map(|c| {
            (0..per_client)
                .map(|_| {
                    let first = if rng.chance(HOT_PROBABILITY) {
                        HOT
                    } else {
                        private_obj(&mut rng, c)
                    };
                    let second = private_obj(&mut rng, c);
                    vec![
                        Op::Add(first, 1 + rng.below(5) as i64),
                        Op::Add(second, 1 + rng.below(5) as i64),
                    ]
                })
                .collect()
        })
        .collect()
}

/// One repetition of the contended commit workload: `clients` closed-loop
/// `TxnClient`s against a 3-member *durable* store troupe; `timed`
/// transactions in total after warm-up (split evenly).
pub fn run_commit(seed: u64, clients: usize, timed: u64, traced: bool) -> Rep {
    let setup = SetupClock::start();
    let mut w = testbed(seed);
    let t = traced.then(|| attach(&mut w));
    // As in `bench::ablations`: a commit deadlock between members that
    // locked the hot object in different orders resolves by the vote's
    // assembly timeout, then abort and client retry (§5.3.1).
    let config = NodeConfig {
        assembly_timeout: Duration::from_millis(1200),
        ..NodeConfig::default()
    };
    let id = TroupeId(7);
    for i in 0..REPLICAS {
        let a = member_addr(i);
        let disk = w.install_disk(a.host, DiskConfig::faultless());
        let store = TroupeStoreService::with_durability(COMMIT_MODULE, disk, SNAPSHOT_EVERY);
        let p = NodeBuilder::new(a, config.clone())
            .service(MODULE, service(store, &t, "transactions"))
            .troupe_id(id)
            .build()
            .expect("valid member node");
        spawn(&mut w, a, p, &t, "core.member");
    }
    let plan = plan(timed, clients);
    let scripts = commit_scripts(seed, clients, plan.per_client);
    let progress = Progress::default();
    let addrs: Vec<SockAddr> = (0..clients).map(client_addr).collect();
    for (&a, script) in addrs.iter().zip(&scripts) {
        let client = TxnClient::new(troupe(id, REPLICAS), MODULE, script.clone());
        let agent = Timed::new(
            client,
            |c| c.committed.len(),
            progress.clone(),
            t.clone(),
            "transactions.client",
        );
        let p = NodeBuilder::new(a, config.clone())
            .agent(Box::new(agent))
            .service(
                COMMIT_MODULE,
                service(CommitVoterService, &t, "transactions"),
            )
            .build()
            .expect("valid client node");
        spawn(&mut w, a, p, &t, "core.client");
    }

    let drive = Drive {
        setup,
        clients: addrs.clone(),
        progress,
        plan,
    };
    let (mut rep, window) = drive.run(&mut w, &t);

    let mut logs = Vec::new();
    for (&a, script) in addrs.iter().zip(&scripts) {
        let log = with_node(&w, a, traced, |p| {
            p.agent_as::<Timed<TxnClient>>().map(|t| {
                let c = &t.inner;
                let mut errors = c.errors.clone();
                // Every `Add` returns the object's new value; a private
                // object is only ever touched by its owner, so its results
                // must be the running sums of the script.
                if let Some(why) = check_private_sums(script, &c.committed) {
                    errors.push(format!("client {a}: {why}"));
                }
                ClientLog {
                    done_at: t.done_at.clone(),
                    calls: c.committed.len() as u64 + c.aborts as u64,
                    errors,
                }
            })
        })
        .flatten();
        match log {
            Some(log) => logs.push(log),
            None => rep.errors.push(format!("commit client {a} vanished")),
        }
    }
    fold_clients(&mut rep, &window, logs);

    // Quiesced members must agree on the module state, and the hot
    // object must hold the sum of every committed increment.
    let digests: Vec<Option<u64>> = (0..REPLICAS)
        .map(|i| {
            with_service(&w, member_addr(i), traced, |s: &TroupeStoreService| {
                s.state_digest()
            })
        })
        .collect();
    if digests.iter().any(|d| d.is_none() || *d != digests[0]) {
        rep.errors
            .push(format!("store members diverged: digests {digests:?}"));
    }
    let hot_expected: i64 = scripts
        .iter()
        .flatten()
        .flatten()
        .map(|op| match op {
            Op::Add(o, d) if *o == HOT => *d,
            _ => 0,
        })
        .sum();
    let hot_seen = with_service(&w, member_addr(0), traced, |s: &TroupeStoreService| {
        s.tm().store().read_committed(HOT)
    });
    if rep.errors.is_empty() && hot_seen != Some(hot_expected) {
        rep.errors.push(format!(
            "hot object holds {hot_seen:?}, scripts add up to {hot_expected}"
        ));
    }
    rep.member_invocations = member_invocations(&w, REPLICAS);
    rep
}

/// Checks the per-operation results of a client's committed transactions
/// on its private objects against the running sums of its script.
fn check_private_sums(script: &[Vec<Op>], committed: &[Vec<i64>]) -> Option<String> {
    if committed.len() != script.len() {
        return Some(format!(
            "{} of {} transactions committed",
            committed.len(),
            script.len()
        ));
    }
    let mut sums = std::collections::BTreeMap::new();
    for (i, (txn, results)) in script.iter().zip(committed).enumerate() {
        if results.len() != txn.len() {
            return Some(format!(
                "transaction {i} returned {} results",
                results.len()
            ));
        }
        for (op, &got) in txn.iter().zip(results) {
            if let Op::Add(obj, delta) = op {
                if *obj == HOT {
                    continue;
                }
                let sum = sums.entry(obj.0).or_insert(0i64);
                *sum += delta;
                if got != *sum {
                    return Some(format!(
                        "transaction {i}: object {} read {got}, expected {sum}",
                        obj.0
                    ));
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Ordered broadcast (`ordered_bcast`).
// ---------------------------------------------------------------------

/// The replicated application: a running sum of the broadcast deltas.
struct SumApp {
    total: i64,
}

impl OrderedApply for SumApp {
    fn apply(&mut self, payload: &[u8]) -> Vec<u8> {
        self.total += from_bytes::<i64>(payload).unwrap_or(0);
        to_bytes(&self.total)
    }

    fn snapshot(&self) -> Vec<u8> {
        to_bytes(&self.total)
    }
}

type BcastService = OrderedBroadcastService<SumApp>;

/// One repetition of the ordered broadcast workload: `clients`
/// closed-loop `Broadcaster`s against a 3-member troupe; `timed` messages
/// in total after warm-up.
pub fn run_bcast(seed: u64, clients: usize, timed: u64, traced: bool) -> Rep {
    let setup = SetupClock::start();
    let mut w = testbed(seed);
    let t = traced.then(|| attach(&mut w));
    let id = TroupeId(7);
    for i in 0..REPLICAS {
        let a = member_addr(i);
        let svc = OrderedBroadcastService::new(SumApp { total: 0 });
        let p = NodeBuilder::new(a, NodeConfig::default())
            .service(MODULE, service(svc, &t, "transactions"))
            .troupe_id(id)
            .build()
            .expect("valid member node");
        spawn(&mut w, a, p, &t, "core.member");
    }
    let plan = plan(timed, clients);
    let per_client = plan.per_client;
    let mut rng = SimRng::new(seed ^ 0x0042_4341_5354); // "BCAST"
    let mut expected_total = 0i64;
    let progress = Progress::default();
    let addrs: Vec<SockAddr> = (0..clients).map(client_addr).collect();
    for (i, &a) in addrs.iter().enumerate() {
        let msgs: Vec<Vec<u8>> = (0..per_client)
            .map(|_| {
                let delta = 1 + rng.below(9) as i64;
                expected_total += delta;
                to_bytes(&delta)
            })
            .collect();
        let client = Broadcaster::new(
            troupe(id, REPLICAS),
            MODULE,
            (i as u64 + 1) * 1_000_000_000,
            msgs,
        );
        let agent = Timed::new(
            client,
            |c| c.results.len(),
            progress.clone(),
            t.clone(),
            "transactions.client",
        );
        let p = NodeBuilder::new(a, NodeConfig::default())
            .agent(Box::new(agent))
            .build()
            .expect("valid client node");
        spawn(&mut w, a, p, &t, "core.client");
    }

    let scripted = per_client * clients as u64;
    let drive = Drive {
        setup,
        clients: addrs.clone(),
        progress,
        plan,
    };
    let (mut rep, window) = drive.run(&mut w, &t);

    let mut logs = Vec::new();
    for &a in &addrs {
        let log = with_node(&w, a, traced, |p| {
            p.agent_as::<Timed<Broadcaster>>().map(|t| {
                let c = &t.inner;
                let mut errors = c.errors.clone();
                if c.results.len() as u64 != per_client {
                    errors.push(format!(
                        "broadcaster {a}: {} of {per_client} messages confirmed",
                        c.results.len()
                    ));
                }
                ClientLog {
                    done_at: t.done_at.clone(),
                    // Two replicated calls per broadcast: propose, accept.
                    calls: 2 * c.results.len() as u64,
                    errors,
                }
            })
        })
        .flatten();
        match log {
            Some(log) => logs.push(log),
            None => rep.errors.push(format!("broadcaster {a} vanished")),
        }
    }
    fold_clients(&mut rep, &window, logs);

    // Every member applied every message, in one agreed order.
    let views: Vec<Option<(u64, usize, i64)>> = (0..REPLICAS)
        .map(|i| {
            with_service(&w, member_addr(i), traced, |s: &BcastService| {
                (s.state_digest(), s.applied_order.len(), s.app().total)
            })
        })
        .collect();
    if views.iter().any(|v| v.is_none() || *v != views[0]) {
        rep.errors.push(format!(
            "broadcast members diverged: (digest, applied, total) {views:?}"
        ));
    } else if views[0] != views[0].map(|(d, _, _)| (d, scripted as usize, expected_total)) {
        rep.errors.push(format!(
            "members applied {:?}, scripts hold {scripted} messages summing to {expected_total}",
            views[0]
        ));
    }
    rep.member_invocations = member_invocations(&w, REPLICAS);
    rep
}
