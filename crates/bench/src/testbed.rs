//! The echo testbeds of §4.4.1 (Figures 4.5–4.7), plus the multicast
//! rig of the theoretical analysis (§4.4.2).
//!
//! Each rig measures one client performing `calls` sequential echo
//! exchanges, reporting the mean real time per call and the client's CPU
//! split — exactly the quantities of Table 4.1, produced by actually
//! running the protocols in the simulated testbed.

use circus::testbed::{
    addr, agent, enqueue, node_mut, spawn_caller, spawn_troupe, Caller, Completed, CountingService,
    Request, MODULE, PROC_ECHO,
};
use circus::{NodeConfig, ThreadId, TroupeId};
use simnet::{
    CpuView, Ctx, Duration, HostId, NetConfig, Payload, Process, SockAddr, Syscall, SyscallCosts,
    Time, World,
};

/// Result of one echo experiment.
#[derive(Clone, Debug, Default)]
pub struct EchoResult {
    /// Mean wall-clock (simulated) time per call, milliseconds.
    pub real_ms: f64,
    /// Mean client CPU per call, milliseconds.
    pub total_cpu_ms: f64,
    /// User-mode portion.
    pub user_ms: f64,
    /// Kernel-mode portion.
    pub kernel_ms: f64,
    /// The client's CPU view, snapshotted from the metrics registry (for
    /// the Table 4.3 profile).
    pub client_cpu: CpuView,
}

impl EchoResult {
    fn from_account(client_cpu: CpuView, total_real: Duration, calls: u32) -> EchoResult {
        let n = calls as f64;
        EchoResult {
            real_ms: total_real.as_millis_f64() / n,
            total_cpu_ms: client_cpu.total_ms() / n,
            user_ms: client_cpu.user_ms() / n,
            kernel_ms: client_cpu.kernel_ms() / n,
            client_cpu,
        }
    }
}

const PAYLOAD: usize = 64;

fn world() -> World {
    World::with_config(1985, NetConfig::lan_1985(), SyscallCosts::vax_4_2bsd())
}

// ---------------------------------------------------------------------
// UDP and TCP echo (Figures 4.5 and 4.6).
// ---------------------------------------------------------------------

/// What tells the two raw echo programs apart.
#[derive(Clone, Copy)]
struct Transport {
    send: Syscall,
    recv: Syscall,
    /// Whether the client arms and cancels its own timeout around every
    /// receive (`alarm(t)` … `alarm(0)`: two `setitimer`s per call).
    alarms: bool,
}

/// Figure 4.5: `loop { sendmsg(); alarm(t); recvmsg(); alarm(0) }`
/// against `loop { recvmsg(); sendmsg() }`.
const UDP: Transport = Transport {
    send: Syscall::SendMsg,
    recv: Syscall::RecvMsg,
    alarms: true,
};

/// Figure 4.6: `loop { write(); read() }` against `loop { read();
/// write() }`. Connection establishment is ignored, as its cost "is
/// amortized over the read and write loop" (§4.4.1); kernel timers
/// replace the client alarms.
const TCP: Transport = Transport {
    send: Syscall::Write,
    recv: Syscall::Read,
    alarms: false,
};

struct RawServer(Transport);

impl Process for RawServer {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: SockAddr, data: Payload) {
        ctx.send_as(self.0.send, from, data);
    }

    fn recv_syscall(&self) -> Option<Syscall> {
        Some(self.0.recv)
    }
}

struct RawClient {
    transport: Transport,
    server: SockAddr,
    remaining: u32,
    started: Time,
    finished: Option<Time>,
}

impl RawClient {
    fn send_one(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send_as(self.transport.send, self.server, vec![0u8; PAYLOAD]);
        if self.transport.alarms {
            ctx.charge(Syscall::SetITimer);
        }
    }
}

impl Process for RawClient {
    fn on_poke(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        self.started = ctx.now();
        self.send_one(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {
        if self.transport.alarms {
            ctx.charge(Syscall::SetITimer);
        }
        self.remaining -= 1;
        if self.remaining == 0 {
            self.finished = Some(ctx.now());
        } else {
            self.send_one(ctx);
        }
    }

    fn recv_syscall(&self) -> Option<Syscall> {
        Some(self.transport.recv)
    }
}

fn run_raw_echo(transport: Transport, calls: u32) -> EchoResult {
    let mut w = world();
    let server = SockAddr::new(HostId(1), 7);
    let client = SockAddr::new(HostId(0), 100);
    w.spawn(server, Box::new(RawServer(transport)));
    w.spawn(
        client,
        Box::new(RawClient {
            transport,
            server,
            remaining: calls,
            started: Time::ZERO,
            finished: None,
        }),
    );
    w.poke(client, 0);
    w.run(simnet::Until::pred(Time::from_secs(3600), |w| {
        w.with_proc(client, |c: &RawClient| c.finished.is_some())
            .unwrap_or(false)
    }));
    let (started, finished) = w
        .with_proc(client, |c: &RawClient| (c.started, c.finished.unwrap()))
        .unwrap();
    EchoResult::from_account(w.cpu(client), finished.since(started), calls)
}

/// Runs the UDP echo experiment (the lower bound of §4.4.1).
pub fn run_udp_echo(calls: u32) -> EchoResult {
    run_raw_echo(UDP, calls)
}

/// Runs the TCP echo experiment.
pub fn run_tcp_echo(calls: u32) -> EchoResult {
    run_raw_echo(TCP, calls)
}

// ---------------------------------------------------------------------
// Circus replicated echo (Figure 4.7).
// ---------------------------------------------------------------------

/// The rpctest rig of Figure 4.7: a troupe of `replicas` echo servers on
/// hosts `1..=replicas` and one client on host 0 with `calls` echo calls
/// queued, all on one distributed thread. Returns the client's address.
fn spawn_rpctest(w: &mut World, config: NodeConfig, replicas: usize, calls: u32) -> SockAddr {
    let members: Vec<SockAddr> = (1..=replicas as u32).map(|h| addr(h, 70)).collect();
    let troupe = spawn_troupe(
        w,
        TroupeId(4242),
        &members,
        MODULE,
        &config,
        None,
        CountingService::default,
    );
    let client = spawn_caller(w, addr(0, 100), config, None);
    let thread = ThreadId {
        origin: client,
        serial: 1,
    };
    let echo = Request::new(&troupe, MODULE, PROC_ECHO, vec![0u8; PAYLOAD]).on(thread);
    enqueue(w, client, vec![echo; calls as usize]);
    client
}

/// Requires the rpctest client to have finished all of its `calls`, every
/// one successfully.
fn assert_all_echoed(w: &World, client: SockAddr, calls: u32) {
    let ok = agent(w, client, |c: &Caller| {
        c.completed.iter().filter(|c| c.result.is_ok()).count()
    });
    assert_eq!(ok, calls as usize, "every echo call must succeed");
}

/// Runs the Circus replicated echo — single-segment calls, the one size
/// whose data plane is a choice — per member (the paper's measured
/// implementation) or by the troupe-wide multicast of §4.3.3, which
/// charges the client one `sendmsg` per call segment regardless of the
/// degree of replication.
pub fn run_circus_echo_mode(replicas: usize, calls: u32, multicast: bool) -> EchoResult {
    let mut w = world();
    let config = NodeConfig {
        multicast_small_calls: multicast,
        ..NodeConfig::default()
    };
    let client = spawn_rpctest(&mut w, config, replicas, calls);
    // Back to back: each call begun when the last completes.
    w.poke(client, u64::from(calls) - 1);
    let completed = |w: &World| agent(w, client, |c: &Caller| c.completed.len());
    w.run(simnet::Until::pred(Time::from_secs(36_000), |w| {
        completed(w) == calls as usize
    }));
    assert_all_echoed(&w, client, calls);
    let (started, finished) = agent(&w, client, |c: &Caller| {
        (c.completed[0].begun, c.completed[calls as usize - 1].done)
    });
    EchoResult::from_account(w.cpu(client), finished.since(started), calls)
}

/// What one call costs a caller that thinks between calls, summed over
/// the client and every member.
#[derive(Clone, Copy, Debug)]
pub struct PacedResult {
    /// `sendmsg` syscalls per call.
    pub sendmsgs: f64,
    /// CPU time per call, milliseconds.
    pub cpu_ms: f64,
    /// Data segments sent again per call (`rpc.*.retransmits`).
    pub retransmits: f64,
}

/// Runs the Circus replicated echo with a caller that begins one call
/// every `gap` rather than at the completion of the last, and measures
/// `calls` whole periods of its steady state: what a call costs when the
/// next call is not there to acknowledge its returns.
pub fn run_paced_echo(replicas: usize, calls: u32, gap: Duration) -> PacedResult {
    /// Periods run before the measured ones.
    const WARMUP: u32 = 4;
    let mut w = world();
    let client = spawn_rpctest(&mut w, NodeConfig::default(), replicas, WARMUP + calls);
    let everyone: Vec<SockAddr> = (1..=replicas as u32)
        .map(|h| addr(h, 70))
        .chain([client])
        .collect();
    let periods = |w: &mut World, n: u32| {
        for _ in 0..n {
            w.poke(client, 0);
            w.run(simnet::Until::Elapsed(gap));
        }
    };
    let retransmits = |w: &World| w.metrics().sum_suffix(".retransmits");
    periods(&mut w, WARMUP);
    for &a in &everyone {
        w.reset_cpu(a);
    }
    let before = retransmits(&w);
    periods(&mut w, calls);
    let after = retransmits(&w);
    assert_all_echoed(&w, client, WARMUP + calls);
    let cpus: Vec<CpuView> = everyone.iter().map(|&a| w.cpu(a)).collect();
    let per_call = |total: f64| total / calls as f64;
    PacedResult {
        sendmsgs: per_call(
            cpus.iter()
                .map(|c| c.count_of(Syscall::SendMsg.index()) as f64)
                .sum(),
        ),
        cpu_ms: per_call(cpus.iter().map(CpuView::total_ms).sum()),
        retransmits: per_call((after - before) as f64),
    }
}

/// What one logical call of a replicated program costs: every member of
/// the client troupe makes it, and it is executed once per server member.
#[derive(Clone, Copy, Debug)]
pub struct ProgramResult {
    /// `sendmsg` syscalls per logical call, every process together.
    pub sendmsgs: f64,
    /// Simulated time per logical call, from its members' first begin to
    /// their last completion, milliseconds.
    pub ms: f64,
}

/// Runs the replicated program of §4.3.3: an `m`-member client troupe,
/// registered with the `n` server members, makes `calls` one-segment
/// echo calls on its one distributed thread, each member every call, one
/// logical call a second; `multicast` is `multicast_small_calls` on every
/// node. Each server member assembles the m call messages into one
/// execution (§4.3.2) and returns to all m.
pub fn run_troupe_echo(m: usize, n: usize, multicast: bool, calls: u32) -> ProgramResult {
    /// Logical calls run before the measured ones.
    const WARMUP: u32 = 2;
    let mut w = world();
    let config = NodeConfig {
        multicast_small_calls: multicast,
        ..NodeConfig::default()
    };
    let servers: Vec<SockAddr> = (1..=n as u32).map(|h| addr(h, 70)).collect();
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
    let echo = Request::new(&server, MODULE, PROC_ECHO, vec![0u8; PAYLOAD]).on(thread);
    for &c in &clients {
        enqueue(&mut w, c, vec![echo.clone(); (WARMUP + calls) as usize]);
    }
    let periods = |w: &mut World, k: u32| {
        for _ in 0..k {
            for &c in &clients {
                w.poke(c, 0);
            }
            w.run(simnet::Until::Elapsed(Duration::from_secs(1)));
        }
    };
    periods(&mut w, WARMUP);
    let everyone: Vec<SockAddr> = servers.iter().chain(&clients).copied().collect();
    for &a in &everyone {
        w.reset_cpu(a);
    }
    periods(&mut w, calls);
    for &c in &clients {
        assert_all_echoed(&w, c, WARMUP + calls);
    }
    let completed: Vec<Vec<Completed>> = clients
        .iter()
        .map(|&c| agent(&w, c, |a: &Caller| a.completed.clone()))
        .collect();
    let measured = WARMUP as usize..(WARMUP + calls) as usize;
    let span_ms: f64 = measured
        .map(|i| {
            let begun = completed.iter().map(|c| c[i].begun).min();
            let done = completed.iter().map(|c| c[i].done).max();
            done.expect("a member")
                .since(begun.expect("a member"))
                .as_millis_f64()
        })
        .sum();
    let sendmsgs: u64 = everyone
        .iter()
        .map(|&a| w.cpu(a).count_of(Syscall::SendMsg.index()))
        .sum();
    ProgramResult {
        sendmsgs: sendmsgs as f64 / f64::from(calls),
        ms: span_ms / f64::from(calls),
    }
}

// ---------------------------------------------------------------------
// Multicast one-to-many rig (§4.4.2).
// ---------------------------------------------------------------------

/// Echo server for the multicast rig. To realize §4.4.2's model — the
/// client's per-member completion times T_i are independent exponentials
/// with mean r — the server delays each reply by exp(r) while the
/// network itself is instantaneous.
struct McServer {
    mean_rt: Duration,
    queued: Vec<(SockAddr, Payload)>,
}

impl Process for McServer {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: SockAddr, data: Payload) {
        let delay = ctx.rng().exponential(self.mean_rt);
        self.queued.push((from, data));
        let tag = self.queued.len() as u64 - 1;
        ctx.set_timer(delay, tag);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: simnet::TimerId, tag: u64) {
        let (to, data) = self.queued[tag as usize].clone();
        ctx.send(to, data);
    }
}

/// Client multicasting a call and waiting for all `n` returns.
struct McClient {
    members: Vec<SockAddr>,
    calls_left: u32,
    outstanding: usize,
    call_started: Time,
    durations: Vec<Duration>,
}

impl McClient {
    fn fire(&mut self, ctx: &mut Ctx<'_>) {
        self.call_started = ctx.now();
        self.outstanding = self.members.len();
        let members = self.members.clone();
        ctx.multicast(&members, vec![0u8; 16]);
    }
}

impl Process for McClient {
    fn on_poke(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        self.fire(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {
        self.outstanding -= 1;
        if self.outstanding == 0 {
            self.durations.push(ctx.now().since(self.call_started));
            self.calls_left -= 1;
            if self.calls_left > 0 {
                self.fire(ctx);
            }
        }
    }
}

/// Measures the mean time of a multicast one-to-many call to `n` servers
/// whose per-member round-trip times are exponentially distributed with
/// mean `mean_rt_ms` — exactly the model of §4.4.2. Compare against
/// `analysis::expected_max_exponential(n, mean_rt_ms)`.
pub fn run_multicast_call(n: usize, calls: u32, mean_rt_ms: f64, seed: u64) -> f64 {
    let mut w = World::with_config(seed, NetConfig::ideal(), SyscallCosts::free());
    let members: Vec<SockAddr> = (0..n)
        .map(|i| SockAddr::new(HostId(1 + i as u32), 7))
        .collect();
    for &m in &members {
        w.spawn(
            m,
            Box::new(McServer {
                mean_rt: Duration::from_millis_f64(mean_rt_ms),
                queued: Vec::new(),
            }),
        );
    }
    let client = SockAddr::new(HostId(0), 100);
    w.spawn(
        client,
        Box::new(McClient {
            members,
            calls_left: calls,
            outstanding: 0,
            call_started: Time::ZERO,
            durations: Vec::new(),
        }),
    );
    w.poke(client, 0);
    w.run(simnet::Until::pred(Time::from_secs(864_000), |w| {
        w.with_proc(client, |c: &McClient| c.calls_left == 0)
            .unwrap_or(false)
    }));
    let durations = w
        .with_proc(client, |c: &McClient| c.durations.clone())
        .unwrap();
    let total: f64 = durations.iter().map(|d| d.as_millis_f64()).sum();
    total / durations.len() as f64
}
