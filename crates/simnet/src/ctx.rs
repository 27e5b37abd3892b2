//! The handle a process acts through ([`Ctx`]) and the process-independent
//! part of the world it acts on ([`Core`]): the event queue
//! ([`EventQueue`]), the network, the cost table, the metrics registry,
//! the hosts and their disks.
//!
//! Every charge a handler makes advances its virtual clock and adds to
//! the running process's `cpu.<addr>.*` counters at once; those counters
//! are the one record of CPU time, and [`obs::CpuView`] the one way to
//! read it.

use std::collections::BTreeMap;
use std::fmt;

use obs::{Counter, CpuView, NetView, Registry, SpanId};

use crate::cpu::{Syscall, SyscallCosts, ALL_SYSCALLS};
use crate::disk::Disk;
use crate::net::{NetConfig, Partition};
use crate::payload::Payload;
use crate::process::{HostId, Process, SockAddr, TimerId};
use crate::rng::SimRng;
use crate::sched::EventQueue;
use crate::time::{Duration, Time};
use crate::trace::{head, wire_len, DropReason, TraceEvent, TraceSink};

/// Port-unreachable notices delivered to their senders.
pub(crate) const UNREACHABLE: &str = "net.unreachable";

/// Pre-resolved handles for the global `net.*` counters, so the hot path
/// never does a name lookup.
pub(crate) struct NetCounters {
    pub(crate) sent: Counter,
    pub(crate) delivered: Counter,
    pub(crate) lost: Counter,
    pub(crate) duplicated: Counter,
    pub(crate) partitioned: Counter,
    pub(crate) undeliverable: Counter,
    pub(crate) oversize: Counter,
    pub(crate) multicasts: Counter,
    /// Where `net.unreachable` is counted, by name: it is registered at
    /// the first notice, so a run without one dumps no such key.
    reg: Registry,
}

impl NetCounters {
    pub(crate) fn new(reg: &Registry) -> NetCounters {
        NetCounters {
            sent: reg.counter("net.sent"),
            delivered: reg.counter("net.delivered"),
            lost: reg.counter("net.lost"),
            duplicated: reg.counter("net.duplicated"),
            partitioned: reg.counter("net.partitioned"),
            undeliverable: reg.counter("net.undeliverable"),
            oversize: reg.counter("net.oversize"),
            multicasts: reg.counter("net.multicasts"),
            reg: reg.clone(),
        }
    }

    pub(crate) fn view(&self) -> NetView {
        NetView {
            sent: self.sent.get(),
            delivered: self.delivered.get(),
            lost: self.lost.get(),
            duplicated: self.duplicated.get(),
            partitioned: self.partitioned.get(),
            undeliverable: self.undeliverable.get(),
            oversize: self.oversize.get(),
            multicasts: self.multicasts.get(),
            unreachable: self.reg.get(UNREACHABLE),
        }
    }
}

/// Pre-resolved handles for one process's `cpu.<addr>.*` counters.
pub(crate) struct CpuCounters {
    user_us: Counter,
    kernel_us: Counter,
    total_us: Counter,
    sys_us: Vec<Counter>,
    sys_n: Vec<Counter>,
}

impl CpuCounters {
    pub(crate) fn new(reg: &Registry, addr: SockAddr) -> CpuCounters {
        CpuCounters {
            user_us: reg.counter(format_args!("cpu.{addr}.user_us")),
            kernel_us: reg.counter(format_args!("cpu.{addr}.kernel_us")),
            total_us: reg.counter(format_args!("cpu.{addr}.total_us")),
            sys_us: ALL_SYSCALLS
                .iter()
                .map(|s| reg.counter(format_args!("cpu.{addr}.sys.{}.us", s.name())))
                .collect(),
            sys_n: ALL_SYSCALLS
                .iter()
                .map(|s| reg.counter(format_args!("cpu.{addr}.sys.{}.n", s.name())))
                .collect(),
        }
    }

    /// Records one charge of `d` to `sys`.
    fn record(&self, sys: Syscall, d: Duration) {
        let us = d.as_micros();
        let mode = if sys.is_kernel() {
            &self.kernel_us
        } else {
            &self.user_us
        };
        mode.add(us);
        self.total_us.add(us);
        self.sys_us[sys.index()].add(us);
        self.sys_n[sys.index()].inc();
    }

    pub(crate) fn reset(&self) {
        self.user_us.reset();
        self.kernel_us.reset();
        self.total_us.reset();
        for c in self.sys_us.iter().chain(self.sys_n.iter()) {
            c.reset();
        }
    }

    pub(crate) fn view(&self) -> CpuView {
        CpuView {
            user_us: self.user_us.get(),
            kernel_us: self.kernel_us.get(),
            times_us: self.sys_us.iter().map(Counter::get).collect(),
            counts: self.sys_n.iter().map(Counter::get).collect(),
        }
    }
}

pub(crate) enum EventKind {
    Datagram {
        from: SockAddr,
        to: SockAddr,
        data: Payload,
    },
    Timer {
        owner: SockAddr,
        id: TimerId,
        tag: u64,
        epoch: u64,
    },
    Start {
        at: SockAddr,
        epoch: u64,
    },
    Poke {
        at: SockAddr,
        tag: u64,
    },
    /// A live host's port-unreachable notice on its way back to `to`, the
    /// sender of a datagram that found no process at `dead`.
    Unreachable {
        to: SockAddr,
        dead: SockAddr,
    },
    /// An armed [`TrafficInjector`](crate::TrafficInjector) tick: the
    /// injector runs and may queue forged datagrams and/or re-arm itself.
    Inject,
}

#[derive(Clone, Debug, Default)]
pub(crate) struct HostState {
    pub(crate) down: bool,
    pub(crate) busy_until: Time,
}

/// Deferred world mutations requested by a running process.
pub(crate) enum Pending {
    Spawn(SockAddr, Box<dyn Process>),
    Kill(SockAddr),
    CrashHost(HostId),
    RestartHost(HostId),
}

/// Everything a process handler may touch while running.
///
/// Obtained only inside [`Process`] handlers; all effects (sends, timers,
/// spawns) are routed through it so the simulation stays deterministic.
pub struct Ctx<'a> {
    pub(crate) core: &'a mut Core,
    pub(crate) cpu: &'a CpuCounters,
    pub(crate) me: SockAddr,
    pub(crate) vnow: Time,
}

/// The shared, process-independent part of the world.
pub(crate) struct Core {
    pub(crate) now: Time,
    /// The next event's insertion sequence: ties at one microsecond pop
    /// in the order the events were queued.
    pub(crate) seq: u64,
    pub(crate) queue: EventQueue<EventKind>,
    pub(crate) rng: SimRng,
    pub(crate) net: NetConfig,
    pub(crate) costs: SyscallCosts,
    pub(crate) partition: Partition,
    pub(crate) registry: Registry,
    pub(crate) net_ctr: NetCounters,
    pub(crate) hosts: BTreeMap<HostId, HostState>,
    pub(crate) next_timer: u64,
    pub(crate) pending: Vec<Pending>,
    /// Epoch of the process whose handler is currently running; set by the
    /// dispatcher so timers armed by the handler carry the owner's epoch
    /// (stale timers for replaced processes are dropped at fire time).
    pub(crate) epoch_hint: u64,
    /// The structured event-trace recorders, each fed every event in
    /// order; none, and no event is built.
    pub(crate) sinks: Vec<Box<dyn TraceSink>>,
    /// The world seed, kept so per-host disk fault streams can be derived
    /// from it without touching the world RNG.
    pub(crate) seed: u64,
    /// Simulated disks, one per host that opted in via
    /// [`World::install_disk`](crate::World::install_disk). Disks survive
    /// host crashes (minus the unsynced tail) — that is the point.
    pub(crate) disks: BTreeMap<HostId, Disk>,
}

impl Core {
    pub(crate) fn push(&mut self, at: Time, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.insert(at.as_micros(), seq, kind);
    }

    pub(crate) fn trace(&mut self, ev: TraceEvent) {
        self.trace_with(|| ev);
    }

    /// Pay-for-what-you-use tracing: the event is only *constructed* when
    /// a sink is installed. Hot-path call sites (every send, delivery,
    /// drop, timer fire, span mint) use this so steady-state runs with no
    /// sink skip the `TraceEvent` build entirely.
    #[inline]
    pub(crate) fn trace_with(&mut self, ev: impl FnOnce() -> TraceEvent) {
        if self.sinks.is_empty() {
            return;
        }
        let ev = ev();
        for sink in &mut self.sinks {
            sink.record(&ev);
        }
    }

    pub(crate) fn host_up(&self, h: HostId) -> bool {
        self.hosts.get(&h).map(|s| !s.down).unwrap_or(true)
    }

    /// Schedules the delivery (with loss/duplication/jitter) of one
    /// datagram departing `from` at time `depart`. The payload is never
    /// copied: each scheduled copy (duplication, multicast fan-out) shares
    /// the same buffer.
    fn transmit(&mut self, from: SockAddr, to: SockAddr, data: Payload, depart: Time) {
        self.net_ctr.sent.inc();
        self.trace_with(|| TraceEvent::Send {
            at: depart,
            from,
            to,
            len: wire_len(&data),
            head: head(&data),
        });
        let dropped = if data.len() > self.net.mtu {
            self.net_ctr.oversize.inc();
            Some(DropReason::Oversize)
        } else if self.rng.chance(self.net.loss) {
            self.net_ctr.lost.inc();
            Some(DropReason::Loss)
        } else {
            None
        };
        if let Some(reason) = dropped {
            self.trace_with(|| TraceEvent::Drop {
                at: depart,
                from,
                to,
                len: wire_len(&data),
                reason,
                head: head(&data),
            });
            return;
        }
        let copies = if self.rng.chance(self.net.duplicate) {
            self.net_ctr.duplicated.inc();
            self.trace_with(|| TraceEvent::Duplicate {
                at: depart,
                from,
                to,
                head: head(&data),
            });
            2
        } else {
            1
        };
        for _ in 0..copies {
            let jitter = self.rng.exponential(self.net.jitter_mean);
            let at = depart + self.net.latency_for(data.len()) + jitter;
            let data = data.clone();
            self.push(at, EventKind::Datagram { from, to, data });
        }
    }

    /// Sends the port-unreachable notice for a datagram from `to` that
    /// found no process at `dead` (its host up and reachable): the world's
    /// own header-only datagram, lost, delayed and jittered as any other.
    pub(crate) fn answer_unreachable(&mut self, to: SockAddr, dead: SockAddr) {
        if self.rng.chance(self.net.loss) {
            return;
        }
        let jitter = self.rng.exponential(self.net.jitter_mean);
        let at = self.now + self.net.latency_for(0) + jitter;
        self.push(at, EventKind::Unreachable { to, dead });
    }
}

impl<'a> Ctx<'a> {
    /// The current (virtual) time, including CPU charges accrued while
    /// handling this event.
    pub fn now(&self) -> Time {
        self.vnow
    }

    /// The address of the running process.
    pub fn me(&self) -> SockAddr {
        self.me
    }

    /// Charges one operation at the world's cost table, advancing virtual
    /// time and the process's `cpu.<addr>.*` counters.
    pub fn charge(&mut self, sys: Syscall) {
        let d = self.core.costs.cost(sys);
        self.charge_dur(sys, d);
    }

    /// Charges an operation with an explicit duration, as
    /// [`Ctx::charge`] does.
    pub fn charge_dur(&mut self, sys: Syscall, d: Duration) {
        self.cpu.record(sys, d);
        self.vnow += d;
    }

    /// Sends a datagram, charging one `sendmsg`.
    pub fn send(&mut self, to: SockAddr, data: impl Into<Payload>) {
        self.send_as(Syscall::SendMsg, to, data);
    }

    /// Sends a datagram, charging the given syscall (e.g. `write` for the
    /// stream-socket comparison rig).
    pub fn send_as(&mut self, sys: Syscall, to: SockAddr, data: impl Into<Payload>) {
        self.charge(sys);
        self.core.transmit(self.me, to, data.into(), self.vnow);
    }

    /// Sends the same datagram to every destination with a *single*
    /// `sendmsg` charge, modelling Ethernet multicast (§4.3.3: "a
    /// multicast implementation requires only m+n messages"). The payload
    /// is converted once; every destination shares the same buffer
    /// (`Payload::clone` never allocates).
    pub fn multicast(&mut self, tos: &[SockAddr], data: impl Into<Payload>) {
        self.charge(Syscall::SendMsg);
        self.core.net_ctr.multicasts.inc();
        let data = data.into();
        for &to in tos {
            self.core.transmit(self.me, to, data.clone(), self.vnow);
        }
    }

    /// The world's metrics registry (cheap clone of a shared handle).
    pub fn metrics(&self) -> Registry {
        self.core.registry.clone()
    }

    /// Mints a causal span under `parent` ([`SpanId::NONE`] for a root)
    /// at the handler's virtual time: the registry folds it
    /// ([`Registry::mint_span`]) and every trace sink gets it as a
    /// [`TraceEvent::Span`], ahead of the datagrams it causes.
    pub fn span(&mut self, parent: SpanId, label: impl fmt::Display) -> SpanId {
        let at = self.vnow;
        let (id, label) = self.core.registry.mint_span(parent, label, at.as_micros());
        self.core.trace_with(|| TraceEvent::Span {
            at,
            id,
            parent,
            label,
        });
        id
    }

    /// Arms a timer to fire after `delay`; `tag`, with the timer's id
    /// (ids rise in the order timers are armed), is returned to
    /// [`Process::on_timer`]. A timer cannot be cancelled: one its owner
    /// no longer wants is recognised by its tag where it fires. Timer
    /// bookkeeping itself is free; protocol code models its timer
    /// syscalls explicitly (`charge(SetITimer)`).
    pub fn set_timer(&mut self, delay: Duration, tag: u64) {
        let id = TimerId(self.core.next_timer);
        self.core.next_timer += 1;
        let epoch = self.core.epoch_hint;
        self.core.push(
            self.vnow + delay,
            EventKind::Timer {
                owner: self.me,
                id,
                tag,
                epoch,
            },
        );
    }

    /// Access to the world's random number generator.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rng
    }

    /// The disk installed on this process's host, if any. I/O time
    /// accrued on it during this handler is charged to the process as
    /// [`Syscall::DiskIo`] when the handler returns.
    pub fn disk(&self) -> Option<Disk> {
        self.core.disks.get(&self.me.host).cloned()
    }

    /// Requests that a new process be spawned at `addr` once this handler
    /// returns. If a process already exists there it is replaced (this is
    /// how a crashed troupe member's machine is reused).
    pub fn spawn(&mut self, addr: SockAddr, proc: Box<dyn Process>) {
        self.core.pending.push(Pending::Spawn(addr, proc));
    }

    /// Requests that the process at `addr` be destroyed once this handler
    /// returns.
    pub fn kill(&mut self, addr: SockAddr) {
        self.core.pending.push(Pending::Kill(addr));
    }

    /// Requests a whole-host crash (all its processes die; fail-stop).
    pub fn crash_host(&mut self, h: HostId) {
        self.core.pending.push(Pending::CrashHost(h));
    }

    /// Requests that a crashed host come back up (empty of processes).
    pub fn restart_host(&mut self, h: HostId) {
        self.core.pending.push(Pending::RestartHost(h));
    }
}

impl Core {
    pub(crate) fn new(seed: u64, net: NetConfig, costs: SyscallCosts) -> Core {
        let registry = Registry::new();
        let net_ctr = NetCounters::new(&registry);
        Core {
            now: Time::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            rng: SimRng::new(seed),
            net,
            costs,
            partition: Partition::none(),
            registry,
            net_ctr,
            hosts: BTreeMap::new(),
            next_timer: 0,
            pending: Vec::new(),
            epoch_hint: 0,
            sinks: Vec::new(),
            seed,
            disks: BTreeMap::new(),
        }
    }
}
