//! Integration tests for the simulated world: event ordering, CPU
//! serialization, fault injection, and determinism.

use simnet::{
    trace::{DropReason, TraceEvent, TraceRing, TraceSink, HEAD_LEN},
    Ctx, Duration, HostId, NetConfig, Partition, Payload, Process, Registry, SockAddr, SpanId,
    Syscall, SyscallCosts, Time, World,
};

/// Replies to every datagram with the same payload.
struct Echo;
impl Process for Echo {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: SockAddr, data: Payload) {
        ctx.send(from, data);
    }
}

/// Sends `count` pings on poke and records reply arrival times.
struct Pinger {
    server: SockAddr,
    count: usize,
    reply_times: Vec<Time>,
}

impl Pinger {
    fn new(server: SockAddr, count: usize) -> Pinger {
        Pinger {
            server,
            count,
            reply_times: Vec::new(),
        }
    }
}

impl Process for Pinger {
    fn on_poke(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        for _ in 0..self.count {
            ctx.send(self.server, b"ping".to_vec());
        }
    }
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {
        self.reply_times.push(ctx.now());
    }
}

fn addr(h: u32, p: u16) -> SockAddr {
    SockAddr::new(HostId(h), p)
}

#[test]
fn echo_round_trip_costs_match_cost_model() {
    let mut world = World::new(7);
    let server = addr(1, 7);
    let client = addr(0, 100);
    world.spawn(server, Box::new(Echo));
    world.spawn(client, Box::new(Pinger::new(server, 1)));
    world.poke(client, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));

    let c = world.cpu(client);
    let s = world.cpu(server);
    // Client: 1 sendmsg + 1 recvmsg; server: 1 recvmsg + 1 sendmsg.
    assert_eq!(c.count_of(Syscall::SendMsg.index()), 1);
    assert_eq!(c.count_of(Syscall::RecvMsg.index()), 1);
    assert_eq!(s.count_of(Syscall::SendMsg.index()), 1);
    assert_eq!(s.count_of(Syscall::RecvMsg.index()), 1);
    assert_eq!(c.kernel_us, 8_100 + 2_800);
}

#[test]
fn host_cpu_serializes_concurrent_work() {
    // Two clients on the SAME host each do a send; the second's send must
    // start only after the first's completes (serial CPU).
    let mut world = World::new(7);
    let server = addr(1, 7);
    world.spawn(server, Box::new(Echo));
    let c1 = addr(0, 100);
    let c2 = addr(0, 101);
    world.spawn(c1, Box::new(Pinger::new(server, 1)));
    world.spawn(c2, Box::new(Pinger::new(server, 1)));
    world.poke(c1, 0);
    world.poke(c2, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));

    let t1 = world.with_proc(c1, |p: &Pinger| p.reply_times[0]).unwrap();
    let t2 = world.with_proc(c2, |p: &Pinger| p.reply_times[0]).unwrap();
    // The second client's whole exchange trails the first's by at least one
    // sendmsg (8.1 ms), because the host CPU is serial.
    let gap = t2.since(t1);
    assert!(
        gap >= Duration::from_millis_f64(8.0),
        "expected serialized CPU, gap was {gap}"
    );
}

#[test]
fn crashed_host_receives_nothing() {
    let mut world = World::new(7);
    let server = addr(1, 7);
    let client = addr(0, 100);
    world.spawn(server, Box::new(Echo));
    world.spawn(client, Box::new(Pinger::new(server, 1)));
    world.crash_host(HostId(1));
    world.poke(client, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));
    assert_eq!(
        world.with_proc(client, |p: &Pinger| p.reply_times.len()),
        Some(0)
    );
    assert!(world.net_stats().undeliverable >= 1);
    assert!(!world.is_alive(server));
}

#[test]
fn partition_blocks_cross_group_traffic() {
    let mut world = World::new(7);
    let server = addr(1, 7);
    let client = addr(0, 100);
    world.spawn(server, Box::new(Echo));
    world.spawn(client, Box::new(Pinger::new(server, 1)));
    world.set_partition(Partition::isolate(vec![HostId(1)]));
    world.poke(client, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));
    assert_eq!(
        world.with_proc(client, |p: &Pinger| p.reply_times.len()),
        Some(0)
    );
    assert!(world.net_stats().partitioned >= 1);

    // Healing the partition restores connectivity for new traffic.
    world.set_partition(Partition::none());
    world.poke(client, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));
    assert_eq!(
        world.with_proc(client, |p: &Pinger| p.reply_times.len()),
        Some(1)
    );
}

#[test]
fn loss_drops_datagrams() {
    let mut world = World::with_config(7, NetConfig::lossy(1.0), SyscallCosts::default());
    let server = addr(1, 7);
    let client = addr(0, 100);
    world.spawn(server, Box::new(Echo));
    world.spawn(client, Box::new(Pinger::new(server, 10)));
    world.poke(client, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));
    assert_eq!(world.net_stats().lost, 10);
    assert_eq!(world.net_stats().delivered, 0);
}

#[test]
fn multicast_charges_once_delivers_to_all() {
    struct Caster {
        members: Vec<SockAddr>,
    }
    impl Process for Caster {
        fn on_poke(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            let members = self.members.clone();
            ctx.multicast(&members, b"hello".to_vec());
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {}
    }
    struct Sink {
        got: usize,
    }
    impl Process for Sink {
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {
            self.got += 1;
        }
    }

    let mut world = World::new(7);
    let members: Vec<SockAddr> = (1..=5).map(|h| addr(h, 7)).collect();
    for &m in &members {
        world.spawn(m, Box::new(Sink { got: 0 }));
    }
    let caster = addr(0, 100);
    world.spawn(
        caster,
        Box::new(Caster {
            members: members.clone(),
        }),
    );
    world.poke(caster, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));

    assert_eq!(world.cpu(caster).count_of(Syscall::SendMsg.index()), 1);
    assert_eq!(world.net_stats().multicasts, 1);
    for &m in &members {
        assert_eq!(world.with_proc(m, |s: &Sink| s.got), Some(1));
    }
}

/// Counter semantics under duplication + multicast: `net.sent` counts
/// one accepted datagram per destination (never per duplicated copy),
/// the trace carries one `Send` per destination plus one `Duplicate`
/// per extra copy, and the per-destination delivery counts agree with
/// `Send + Duplicate = Deliver` when nothing is lost.
#[test]
fn duplicated_multicast_counters_and_trace_agree() {
    struct Caster {
        members: Vec<SockAddr>,
    }
    impl Process for Caster {
        fn on_poke(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            let members = self.members.clone();
            ctx.multicast(&members, b"blast".to_vec());
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {}
    }
    struct Sink {
        got: usize,
    }
    impl Process for Sink {
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {
            self.got += 1;
        }
    }

    let config = NetConfig {
        duplicate: 1.0, // every accepted datagram is delivered twice
        ..NetConfig::lan_1985()
    };
    let mut world = World::with_config(7, config, SyscallCosts::default());
    world.set_trace_sink(Box::new(TraceRing::unbounded()));
    let members: Vec<SockAddr> = (1..=5).map(|h| addr(h, 7)).collect();
    for &m in &members {
        world.spawn(m, Box::new(Sink { got: 0 }));
    }
    let caster = addr(0, 100);
    world.spawn(
        caster,
        Box::new(Caster {
            members: members.clone(),
        }),
    );
    world.poke(caster, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));

    // One accepted datagram per destination; duplicates are counted
    // separately and never inflate `sent`.
    let stats = world.net_stats();
    assert_eq!(stats.sent, 5, "sent counts one datagram per destination");
    assert_eq!(stats.duplicated, 5, "every accepted datagram duplicated");
    assert_eq!(stats.delivered, 10, "each member gets original + copy");
    assert_eq!(stats.lost, 0);
    assert_eq!(stats.multicasts, 1);

    // The trace tells the same story, event by event.
    let log = world.trace_sink_as::<TraceRing>().unwrap();
    let mut sends = 0;
    let mut dups = 0;
    let mut delivers = 0;
    for ev in &log.events() {
        match ev {
            TraceEvent::Send { len, .. } => {
                assert_eq!(*len, 5, "payload length survives the fan-out");
                sends += 1;
            }
            TraceEvent::Duplicate { .. } => dups += 1,
            TraceEvent::Deliver { .. } => delivers += 1,
            _ => {}
        }
    }
    assert_eq!(sends, 5);
    assert_eq!(dups, 5);
    assert_eq!(delivers, 10);

    // And every member saw exactly original + duplicate.
    for &m in &members {
        assert_eq!(world.with_proc(m, |s: &Sink| s.got), Some(2));
    }
}

#[test]
fn identical_seeds_give_identical_traces() {
    fn run(seed: u64) -> Vec<u64> {
        let mut world = World::with_config(seed, NetConfig::lossy(0.3), SyscallCosts::default());
        let server = addr(1, 7);
        let client = addr(0, 100);
        world.spawn(server, Box::new(Echo));
        world.spawn(client, Box::new(Pinger::new(server, 50)));
        world.poke(client, 0);
        world.run(simnet::Until::Elapsed(Duration::from_secs(5)));
        world
            .with_proc(client, |p: &Pinger| {
                p.reply_times.iter().map(|t| t.as_micros()).collect()
            })
            .unwrap()
    }
    assert_eq!(run(99), run(99));
    assert_ne!(run(99), run(100));
}

#[test]
fn killed_process_timers_do_not_fire_for_replacement() {
    struct TimerBomb {
        fired: bool,
    }
    impl Process for TimerBomb {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(Duration::from_millis(100), 1);
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _id: simnet::TimerId, _tag: u64) {
            self.fired = true;
        }
    }

    let mut world = World::new(7);
    let a = addr(0, 50);
    world.spawn(a, Box::new(TimerBomb { fired: false }));
    world.run(simnet::Until::Elapsed(Duration::from_millis(10)));
    // Replace the process before its timer fires.
    world.spawn(a, Box::new(TimerBomb { fired: false }));
    world.run(simnet::Until::Elapsed(Duration::from_millis(50)));
    // Cancel the replacement's own timer tracking by checking: the OLD
    // timer (epoch 1) must not fire on the NEW process before the new
    // process's own timer at +110ms.
    world.run(simnet::Until::Time(Time::from_millis(105)));
    assert_eq!(world.with_proc(a, |p: &TimerBomb| p.fired), Some(false));
    world.run(simnet::Until::Time(Time::from_millis(200)));
    assert_eq!(world.with_proc(a, |p: &TimerBomb| p.fired), Some(true));
}

#[test]
fn run_until_pred_stops_early() {
    let mut world = World::new(7);
    let server = addr(1, 7);
    let client = addr(0, 100);
    world.spawn(server, Box::new(Echo));
    world.spawn(client, Box::new(Pinger::new(server, 3)));
    world.poke(client, 0);
    let ok = world.run(simnet::Until::pred(Time::from_secs(10), |w| {
        w.with_proc(client, |p: &Pinger| p.reply_times.len() >= 2)
            .unwrap_or(false)
    }));
    assert!(ok);
    let n = world
        .with_proc(client, |p: &Pinger| p.reply_times.len())
        .unwrap();
    assert_eq!(n, 2, "should stop as soon as the predicate holds");
}

#[test]
fn spawn_from_handler_takes_effect() {
    struct Spawner;
    impl Process for Spawner {
        fn on_poke(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            ctx.spawn(SockAddr::new(HostId(2), 9), Box::new(Echo));
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {}
    }
    let mut world = World::new(7);
    let spawner = addr(0, 1);
    world.spawn(spawner, Box::new(Spawner));
    world.poke(spawner, 0);
    world.run(simnet::Until::Elapsed(Duration::from_millis(1)));
    assert!(world.is_alive(addr(2, 9)));
}

#[test]
fn oversize_datagrams_dropped() {
    let mut world = World::new(7);
    let server = addr(1, 7);
    let client = addr(0, 100);
    struct Big {
        server: SockAddr,
    }
    impl Process for Big {
        fn on_poke(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            ctx.send(self.server, vec![0u8; 100_000]);
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {}
    }
    world.spawn(server, Box::new(Echo));
    world.spawn(client, Box::new(Big { server }));
    world.poke(client, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));
    assert_eq!(world.net_stats().oversize, 1);
    assert_eq!(world.net_stats().delivered, 0);
}

/// Counts datagrams; used to observe state freshness across restarts.
struct Counter {
    seen: u64,
}
impl Process for Counter {
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {
        self.seen += 1;
    }
}

#[test]
fn killed_process_receives_no_further_datagrams() {
    let mut world = World::new(7);
    let server = addr(1, 7);
    let client = addr(0, 100);
    world.set_trace_sink(Box::new(TraceRing::unbounded()));
    world.spawn(server, Box::new(Echo));
    world.spawn(client, Box::new(Pinger::new(server, 1)));
    world.poke(client, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));
    assert_eq!(
        world.with_proc(client, |p: &Pinger| p.reply_times.len()),
        Some(1)
    );

    let undeliverable_before = world.net_stats().undeliverable;
    world.kill(server);
    assert!(!world.is_alive(server));
    assert!(world.host_up(HostId(1)), "kill must not take the host down");
    world.poke(client, 1);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));

    // No further replies, and the ping is accounted as undeliverable.
    assert_eq!(
        world.with_proc(client, |p: &Pinger| p.reply_times.len()),
        Some(1)
    );
    assert!(world.net_stats().undeliverable > undeliverable_before);
    let log = world.trace_sink_as::<TraceRing>().unwrap();
    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e, TraceEvent::Kill { addr: a, .. } if *a == server)));
    assert!(log.events().iter().any(|e| matches!(
        e,
        TraceEvent::Drop { to, reason: DropReason::Undeliverable, .. } if *to == server
    )));
}

#[test]
fn restart_host_yields_fresh_process_state() {
    let mut world = World::new(7);
    let counter = addr(1, 9);
    let client = addr(0, 100);
    world.spawn(counter, Box::new(Counter { seen: 0 }));
    world.spawn(client, Box::new(Pinger::new(counter, 3)));
    world.poke(client, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));
    assert_eq!(world.with_proc(counter, |c: &Counter| c.seen), Some(3));

    world.crash_host(HostId(1));
    world.restart_host(HostId(1));
    // The host is back, but empty: volatile state died with the crash.
    assert!(world.host_up(HostId(1)));
    assert!(!world.is_alive(counter));
    assert_eq!(world.with_proc(counter, |c: &Counter| c.seen), None);

    // A replacement process starts from its initial state.
    world.spawn(counter, Box::new(Counter { seen: 0 }));
    world.poke(client, 1);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));
    assert_eq!(world.with_proc(counter, |c: &Counter| c.seen), Some(3));
}

#[test]
fn partition_preserves_intra_partition_delivery() {
    let mut world = World::new(7);
    let server = addr(1, 7);
    let near = addr(2, 100); // same partition group as the server
    let far = addr(3, 100); // other side of the partition
    world.spawn(server, Box::new(Echo));
    world.spawn(near, Box::new(Pinger::new(server, 1)));
    world.spawn(far, Box::new(Pinger::new(server, 1)));
    world.set_partition(Partition::groups(vec![vec![HostId(1), HostId(2)]]));
    world.poke(near, 0);
    world.poke(far, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));

    // Intra-partition traffic flows; cross-partition traffic is dropped.
    assert_eq!(
        world.with_proc(near, |p: &Pinger| p.reply_times.len()),
        Some(1)
    );
    assert_eq!(
        world.with_proc(far, |p: &Pinger| p.reply_times.len()),
        Some(0)
    );
    assert!(world.net_stats().partitioned >= 1);
}

#[test]
fn oversize_send_counted_and_traced() {
    struct BigSender {
        to: SockAddr,
    }
    impl Process for BigSender {
        fn on_poke(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            ctx.send(self.to, vec![0; 4000]);
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {}
    }
    let mut world = World::new(7); // default net: mtu 1500
    let server = addr(1, 7);
    let client = addr(0, 100);
    world.set_trace_sink(Box::new(TraceRing::unbounded()));
    world.spawn(server, Box::new(Echo));
    world.spawn(client, Box::new(BigSender { to: server }));
    world.poke(client, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));

    let stats = world.net_stats();
    assert_eq!(stats.oversize, 1);
    assert_eq!(stats.delivered, 0);
    let log = world.trace_sink_as::<TraceRing>().unwrap();
    assert!(log.events().iter().any(|e| matches!(
        e,
        TraceEvent::Drop {
            len: 4000,
            reason: DropReason::Oversize,
            ..
        }
    )));
}

#[test]
fn registry_is_the_single_source_of_cpu_and_net_counters() {
    let mut world = World::new(7);
    let server = addr(1, 7);
    let client = addr(0, 100);
    world.spawn(server, Box::new(Echo));
    world.spawn(client, Box::new(Pinger::new(server, 2)));
    world.poke(client, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));

    let reg = world.metrics();
    // The NetView and CpuView are snapshots of the same registry keys.
    assert_eq!(reg.get("net.sent"), world.net_stats().sent);
    assert_eq!(reg.get("net.delivered"), world.net_stats().delivered);
    assert_eq!(reg.get("cpu.h0:100.total_us"), world.cpu(client).total_us());
    assert_eq!(
        reg.get("cpu.h1:7.sys.sendmsg.n"),
        world.cpu(server).count_of(Syscall::SendMsg.index())
    );
    // Warmup reset clears the registry counters too.
    world.reset_cpu(client);
    assert_eq!(reg.get("cpu.h0:100.total_us"), 0);
}

#[test]
fn a_span_mint_is_an_event_ahead_of_the_sends_it_causes() {
    struct Spanner {
        to: SockAddr,
    }
    impl Process for Spanner {
        fn on_poke(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            let span = ctx.span(SpanId::NONE, "call");
            ctx.send(self.to, span.raw().to_be_bytes().to_vec());
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {}
    }
    let mut world = World::new(7);
    let server = addr(1, 7);
    let client = addr(0, 100);
    world.set_trace_sink(Box::new(TraceRing::unbounded()));
    world.spawn(server, Box::new(Echo));
    world.spawn(client, Box::new(Spanner { to: server }));
    world.poke(client, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));

    let log = world.trace_sink_as::<TraceRing>().unwrap();
    let events = log.events();
    let minted = events.iter().position(|e| {
        matches!(e, TraceEvent::Span { id, parent, .. } if *id == SpanId(1) && parent.is_none())
    });
    let sent = events
        .iter()
        .position(|e| matches!(e, TraceEvent::Send { .. }));
    assert!(minted.expect("the mint") < sent.expect("the send"));
    // The datagram's head rides every event of its journey, zero-padded.
    let mut head = [0; HEAD_LEN];
    head[7] = 1;
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::Deliver { len: 8, head: h, .. } if *h == head)));
    assert_eq!(world.metrics().span_count(), 1);
    assert_eq!(log.span_tree(&world.metrics()).render(), "#1 call @0us\n");
}

/// A sink that counts the events it is given.
#[derive(Default)]
struct Tally(u64);

impl TraceSink for Tally {
    fn record(&mut self, _ev: &TraceEvent) {
        self.0 += 1;
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn every_sink_sees_every_event_and_set_replaces_them_all() {
    let mut world = World::new(3);
    let (server, client) = (addr(1, 7), addr(0, 100));
    world.set_trace_sink(Box::new(Tally(1_000)));
    world.set_trace_sink(Box::new(TraceRing::new(0)));
    world.add_trace_sink(Box::new(Tally::default()));
    world.add_trace_sink(Box::new(Tally(7)));
    world.spawn(server, Box::new(Echo));
    world.spawn(client, Box::new(Pinger::new(server, 5)));
    world.poke(client, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(2)));
    let seen = world.trace_sink_as::<TraceRing>().unwrap().seen();
    assert!(seen > 10);
    assert_eq!(
        world.trace_sink_as::<Tally>().unwrap().0,
        seen,
        "the first Tally"
    );
}

/// A forest built from a ring covers the spans the ring still holds:
/// a child whose parent was pushed out is a root, and the render says
/// how many of the run's spans it shows.
#[test]
fn span_tree_is_built_from_the_retained_stream() {
    let reg = Registry::new();
    let mut ring = TraceRing::new(3);
    let mut parent = SpanId::NONE;
    for i in 0..4u64 {
        let at = Time::from_micros(10 * i);
        let (id, label) = reg.mint_span(parent, format_args!("call {i}"), at.as_micros());
        ring.record(&TraceEvent::Span {
            at,
            id,
            parent,
            label,
        });
        parent = id;
    }
    ring.record(&TraceEvent::Kill {
        at: Time::from_micros(50),
        addr: addr(1, 1),
    });
    let tree = ring.span_tree(&reg);
    assert_eq!(tree.roots(), &[3]);
    assert_eq!(
        tree.render(),
        "# last 2 of 4 spans\n#3 call 2 @20us\n  #4 call 3 @30us\n"
    );
    let whole = simnet::trace::span_tree(&[], &reg);
    assert!(whole.roots().is_empty());
}

#[test]
fn metrics_dump_is_seed_deterministic() {
    fn run(seed: u64) -> String {
        let mut world = World::with_config(seed, NetConfig::lossy(0.2), SyscallCosts::default());
        let server = addr(1, 7);
        let client = addr(0, 100);
        world.spawn(server, Box::new(Echo));
        world.spawn(client, Box::new(Pinger::new(server, 20)));
        world.poke(client, 0);
        world.run(simnet::Until::Elapsed(Duration::from_secs(5)));
        world.metrics().dump_json()
    }
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43), "different seeds should diverge");
}

#[test]
fn trace_hash_is_seed_deterministic() {
    fn run(seed: u64) -> (u64, u64) {
        let mut world = World::with_config(seed, NetConfig::lossy(0.2), SyscallCosts::default());
        world.set_trace_sink(Box::new(TraceRing::new(0)));
        let server = addr(1, 7);
        let client = addr(0, 100);
        world.spawn(server, Box::new(Echo));
        world.spawn(client, Box::new(Pinger::new(server, 20)));
        world.poke(client, 0);
        world.crash_host(HostId(1));
        world.restart_host(HostId(1));
        world.run(simnet::Until::Elapsed(Duration::from_secs(5)));
        let h = world.trace_sink_as::<TraceRing>().unwrap();
        (h.hash(), h.seen())
    }
    assert_eq!(run(42), run(42));
    assert_ne!(run(42).0, run(43).0, "different seeds should diverge");
}

/// Pings on poke, and records every port-unreachable notice it hears.
struct Notified {
    ping: Pinger,
    notices: Vec<(Time, SockAddr)>,
}

impl Process for Notified {
    fn on_poke(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.ping.on_poke(ctx, tag);
    }
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: SockAddr, data: Payload) {
        self.ping.on_datagram(ctx, from, data);
    }
    fn on_unreachable(&mut self, ctx: &mut Ctx<'_>, dead: SockAddr) {
        self.notices.push((ctx.now(), dead));
    }
}

/// A world where the process at h0:100 pings h1:7, and nothing listens
/// there; `between` runs after the pings leave and before they arrive.
/// Returns the world and the notices the pinger heard.
fn ping_an_empty_port(
    count: usize,
    between: impl FnOnce(&mut World),
) -> (World, Vec<(Time, SockAddr)>) {
    let mut world = World::new(7);
    world.set_trace_sink(Box::new(TraceRing::unbounded()));
    let (client, empty) = (addr(0, 100), addr(1, 7));
    world.spawn(addr(1, 8), Box::new(Echo));
    let ping = Pinger::new(empty, count);
    let notices = Vec::new();
    world.spawn(client, Box::new(Notified { ping, notices }));
    world.poke(client, 0);
    world.run(simnet::Until::pred(Time::from_secs(1), |w| {
        w.net_stats().sent == count as u64
    }));
    between(&mut world);
    world.run(simnet::Until::Elapsed(Duration::from_secs(1)));
    let notices = world.with_proc(client, |n: &Notified| n.notices.clone());
    (world, notices.expect("the pinger"))
}

/// A live host answers every datagram to a port nothing holds with one
/// port-unreachable notice, which travels back like a datagram, is
/// charged to the sender as one, is counted in `net.unreachable` and is
/// an event of the stream, after the drop that caused it.
#[test]
fn a_live_host_answers_each_datagram_to_an_empty_port_with_one_notice() {
    let (world, notices) = ping_an_empty_port(3, |_| {});
    let (client, empty) = (addr(0, 100), addr(1, 7));
    assert_eq!(notices.len(), 3);
    let sent_at = Time::ZERO + Duration::from_micros(8_100);
    for &(at, dead) in &notices {
        assert_eq!(dead, empty);
        assert!(at >= sent_at + NetConfig::lan_1985().base_latency.saturating_mul(2));
    }
    let stats = world.net_stats();
    assert_eq!((stats.unreachable, stats.undeliverable), (3, 3));
    assert_eq!(world.metrics().get("net.unreachable"), 3);
    let cpu = world.cpu(client);
    assert_eq!(cpu.count_of(Syscall::RecvMsg.index()), 3);

    let events = world.trace_sink_as::<TraceRing>().unwrap().events();
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Drop {
                to,
                reason: DropReason::Undeliverable,
                ..
            } if to == empty => Some("drop"),
            TraceEvent::Unreachable { to, dead, .. } if (to, dead) == (client, empty) => {
                Some("notice")
            }
            _ => None,
        })
        .collect();
    assert_eq!(kinds.len(), 6, "{events:?}");
    assert_eq!(kinds.iter().filter(|&&k| k == "notice").count(), 3);
    assert_eq!(kinds[0], "drop");
}

/// A down host answers nothing, and a notice crosses no partition: not
/// the datagram's on the way out, nor its own on the way back, nor one
/// the loss model takes.
#[test]
fn no_notice_from_a_down_host_across_a_partition_or_when_lost() {
    let isolate = |w: &mut World| w.set_partition(Partition::isolate(vec![HostId(1)]));
    let dropped = |w: &World| w.net_stats().undeliverable + w.net_stats().partitioned == 1;
    type Between = Box<dyn FnOnce(&mut World)>;
    let cases: [(&str, Between); 4] = [
        ("host down", Box::new(|w| w.crash_host(HostId(1)))),
        (
            "partitioned at send, healed before a notice could return",
            Box::new(move |w| {
                isolate(w);
                w.run(simnet::Until::pred(Time::from_secs(1), dropped));
                w.set_partition(Partition::none());
            }),
        ),
        (
            "partitioned at arrival",
            Box::new(move |w| {
                w.run(simnet::Until::pred(Time::from_secs(1), dropped));
                isolate(w);
            }),
        ),
        ("lost", Box::new(|w| w.set_net(NetConfig::lossy(1.0)))),
    ];
    for (case, between) in cases {
        let (world, notices) = ping_an_empty_port(1, between);
        assert_eq!(notices, [], "{case}");
        assert_eq!(world.net_stats().unreachable, 0, "{case}");
        let events = world.trace_sink_as::<TraceRing>().unwrap().events();
        let heard = events
            .iter()
            .any(|e| matches!(e, TraceEvent::Unreachable { .. }));
        assert!(!heard, "{case}");
    }
}
