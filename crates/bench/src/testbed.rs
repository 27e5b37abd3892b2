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
#[derive(Clone, Debug)]
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
    /// Number of calls measured.
    pub calls: u32,
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
            calls,
        }
    }

    /// Total `sendmsg` syscalls charged to the client over the whole
    /// experiment — the m half of the message count (§4.3.3).
    pub fn client_sendmsgs(&self) -> u64 {
        self.client_cpu.count_of(Syscall::SendMsg.index())
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

/// Runs the Circus replicated echo at the given degree of replication,
/// with the paper-faithful unicast data plane.
pub fn run_circus_echo(replicas: usize, calls: u32) -> EchoResult {
    run_circus_echo_mode(replicas, calls, false)
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
    let retransmits = |w: &World| {
        w.refresh_metrics();
        w.metrics().sum_suffix(".retransmits")
    };
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_echo_matches_paper_cpu() {
        let r = run_udp_echo(200);
        // Table 4.1: UDP total CPU 13.3 ms/call (sendmsg + recvmsg + 2
        // setitimer = 8.1 + 2.8 + 2.4).
        assert!(
            (r.total_cpu_ms - 13.3).abs() < 0.2,
            "udp cpu {} != 13.3",
            r.total_cpu_ms
        );
        // Real time ≈ both ends' CPU + 2 network trips: 20–30 ms.
        assert!(
            r.real_ms > 20.0 && r.real_ms < 32.0,
            "udp real {}",
            r.real_ms
        );
    }

    #[test]
    fn tcp_echo_cheaper_than_udp() {
        let udp = run_udp_echo(200);
        let tcp = run_tcp_echo(200);
        // Table 4.1's surprise: the TCP echo is *faster* than UDP.
        assert!(tcp.total_cpu_ms < udp.total_cpu_ms);
        assert!(tcp.real_ms < udp.real_ms);
        assert!(
            (tcp.total_cpu_ms - 8.3).abs() < 0.2,
            "tcp cpu {}",
            tcp.total_cpu_ms
        );
    }

    #[test]
    fn circus_unreplicated_costs_about_twice_udp() {
        let udp = run_udp_echo(100);
        let circus = run_circus_echo(1, 100);
        // §4.4.1: "An unreplicated Circus remote procedure call requires
        // almost twice the time of a simple UDP exchange."
        let ratio = circus.real_ms / udp.real_ms;
        assert!(
            (1.5..=2.6).contains(&ratio),
            "circus/udp real ratio {ratio} (circus {} udp {})",
            circus.real_ms,
            udp.real_ms
        );
    }

    #[test]
    fn circus_grows_linearly_with_replication() {
        let times: Vec<f64> = (1..=5).map(|n| run_circus_echo(n, 60).real_ms).collect();
        // Monotone growth.
        for i in 1..times.len() {
            assert!(times[i] > times[i - 1], "{times:?}");
        }
        // Roughly linear (Figure 4.8). The paper's own series has a knee
        // where the client CPU becomes the bottleneck (increments of
        // +10.0, +11.4, +20.8, +19.3 ms), so demand a good but not
        // perfect fit.
        let x: Vec<f64> = (1..=5).map(|n| n as f64).collect();
        let r2 = analysis::r_squared(&x, &times);
        assert!(r2 > 0.93, "linear fit r2 {r2} for {times:?}");
        // Paper slope: 10–20 ms per extra member.
        let (slope, _) = analysis::linear_fit(&x, &times);
        assert!(
            (8.0..=25.0).contains(&slope),
            "slope {slope} outside the paper's 10–20 ms band"
        );
    }

    #[test]
    fn multicast_mode_flattens_client_sendmsg_cost() {
        let calls = 60u32;
        let uni: Vec<EchoResult> = (1..=5)
            .map(|n| run_circus_echo_mode(n, calls, false))
            .collect();
        let mc: Vec<EchoResult> = (1..=5)
            .map(|n| run_circus_echo_mode(n, calls, true))
            .collect();

        // Unicast charges one sendmsg per member per call; multicast
        // charges exactly one per call (single-segment payload), flat in
        // the degree of replication.
        for (i, (u, m)) in uni.iter().zip(&mc).enumerate() {
            let n = (i + 1) as u64;
            assert_eq!(u.client_sendmsgs(), n * calls as u64, "unicast n={n}");
            assert_eq!(m.client_sendmsgs(), calls as u64, "multicast n={n}");
        }

        // The flattened sendmsg bill shows up as a flattened real-time
        // slope (Figure 4.8's per-replica growth, minus the per-member
        // transmission cost).
        let x: Vec<f64> = (1..=5).map(|n| n as f64).collect();
        let (uni_slope, _) =
            analysis::linear_fit(&x, &uni.iter().map(|r| r.real_ms).collect::<Vec<_>>());
        let (mc_slope, _) =
            analysis::linear_fit(&x, &mc.iter().map(|r| r.real_ms).collect::<Vec<_>>());
        assert!(
            mc_slope < uni_slope,
            "multicast slope {mc_slope} not below unicast slope {uni_slope}"
        );
        // n=1 falls back to unicast in both modes: identical cost there.
        assert_eq!(uni[0].client_sendmsgs(), mc[0].client_sendmsgs());
    }

    #[test]
    fn multicast_grows_logarithmically() {
        // The §4.4.2 claim: with multicast and exponential round trips,
        // E[T] ≈ H_n · r.
        let r = 20.0;
        for n in [1usize, 4, 16] {
            let measured = run_multicast_call(n, 400, r, 7);
            let expected = analysis::expected_max_exponential(n as u32, r);
            let ratio = measured / expected;
            assert!(
                (0.8..=1.25).contains(&ratio),
                "n={n}: measured {measured:.1}, H_n*r = {expected:.1}"
            );
        }
    }
}
