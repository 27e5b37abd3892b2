//! The simulated world: event queue, hosts, processes, and the `Ctx`
//! handle through which processes act.
//!
//! The world is a deterministic discrete-event simulator. All events live
//! in one queue ordered by `(time, insertion sequence)`; all randomness
//! comes from one seeded [`SimRng`]. Each host has a serial CPU: handling
//! an event begins no earlier than the host's `busy_until`, and every
//! syscall charge advances it — so CPU costs serialize exactly as they did
//! on the paper's uniprocessor VAXen.

use std::any::Any;
use std::collections::{BTreeMap, HashSet};

use obs::{Counter, CpuView, NetView, Registry};

use crate::cpu::{CpuAccount, Syscall, SyscallCosts, ALL_SYSCALLS};
use crate::disk::{Disk, DiskConfig};
use crate::net::{NetConfig, Partition};
use crate::payload::Payload;
use crate::process::{HostId, Process, SockAddr, TimerId};
use crate::rng::SimRng;
use crate::sched::TimerWheel;
use crate::time::{Duration, Time};
use crate::trace::{DropReason, TraceEvent, TraceSink};

/// Pre-resolved handles for the global `net.*` counters, so the hot path
/// never does a name lookup.
struct NetCounters {
    sent: Counter,
    delivered: Counter,
    lost: Counter,
    duplicated: Counter,
    partitioned: Counter,
    undeliverable: Counter,
    oversize: Counter,
    multicasts: Counter,
}

impl NetCounters {
    fn new(reg: &Registry) -> NetCounters {
        NetCounters {
            sent: reg.counter("net.sent"),
            delivered: reg.counter("net.delivered"),
            lost: reg.counter("net.lost"),
            duplicated: reg.counter("net.duplicated"),
            partitioned: reg.counter("net.partitioned"),
            undeliverable: reg.counter("net.undeliverable"),
            oversize: reg.counter("net.oversize"),
            multicasts: reg.counter("net.multicasts"),
        }
    }

    fn view(&self) -> NetView {
        NetView {
            sent: self.sent.get(),
            delivered: self.delivered.get(),
            lost: self.lost.get(),
            duplicated: self.duplicated.get(),
            partitioned: self.partitioned.get(),
            undeliverable: self.undeliverable.get(),
            oversize: self.oversize.get(),
            multicasts: self.multicasts.get(),
        }
    }
}

/// Pre-resolved handles for one process's `cpu.<addr>.*` counters.
struct CpuCounters {
    user_us: Counter,
    kernel_us: Counter,
    total_us: Counter,
    sys_us: Vec<Counter>,
    sys_n: Vec<Counter>,
}

impl CpuCounters {
    fn new(reg: &Registry, addr: SockAddr) -> CpuCounters {
        let p = format!("cpu.{addr}");
        CpuCounters {
            user_us: reg.counter(&format!("{p}.user_us")),
            kernel_us: reg.counter(&format!("{p}.kernel_us")),
            total_us: reg.counter(&format!("{p}.total_us")),
            sys_us: ALL_SYSCALLS
                .iter()
                .map(|s| reg.counter(&format!("{p}.sys.{}.us", s.name())))
                .collect(),
            sys_n: ALL_SYSCALLS
                .iter()
                .map(|s| reg.counter(&format!("{p}.sys.{}.n", s.name())))
                .collect(),
        }
    }

    /// Publishes one dispatch's CPU delta into the registry.
    fn publish(&self, delta: &CpuAccount) {
        let (u, k) = (delta.user().as_micros(), delta.kernel().as_micros());
        if u != 0 {
            self.user_us.add(u);
        }
        if k != 0 {
            self.kernel_us.add(k);
        }
        if u + k != 0 {
            self.total_us.add(u + k);
        }
        for s in ALL_SYSCALLS {
            let d = delta.time_in(s).as_micros();
            if d != 0 {
                self.sys_us[s.index()].add(d);
            }
            let n = delta.count_of(s);
            if n != 0 {
                self.sys_n[s.index()].add(n);
            }
        }
    }

    fn reset(&self) {
        self.user_us.reset();
        self.kernel_us.reset();
        self.total_us.reset();
        for c in self.sys_us.iter().chain(self.sys_n.iter()) {
            c.reset();
        }
    }

    fn view(&self) -> CpuView {
        CpuView {
            user_us: self.user_us.get(),
            kernel_us: self.kernel_us.get(),
            times_us: self.sys_us.iter().map(Counter::get).collect(),
            counts: self.sys_n.iter().map(Counter::get).collect(),
        }
    }
}

enum EventKind {
    Datagram {
        from: SockAddr,
        to: SockAddr,
        data: Payload,
        span: u64,
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
    /// An armed [`TrafficInjector`] tick: the injector runs and may queue
    /// forged datagrams and/or re-arm itself.
    Inject,
}

/// A hostile datagram produced by a [`TrafficInjector`].
#[derive(Clone, Debug)]
pub struct ForgedDatagram {
    /// Forged source address (need not correspond to any live process).
    pub from: SockAddr,
    /// Destination.
    pub to: SockAddr,
    /// Raw datagram bytes.
    pub data: Vec<u8>,
}

/// An adversary wired into the world: it watches live traffic and, at
/// seeded ticks, forges datagrams of its own (replays, corruptions,
/// fabrications). Installed with [`World::set_injector`].
///
/// The injector must source all randomness from its own seeded generator
/// — it never touches the world's [`SimRng`] — so an injection run stays
/// a pure function of `(world seed, injector seed)`.
pub trait TrafficInjector: Any {
    /// Observes a datagram about to be delivered (it has already passed
    /// the host-up and partition checks), letting the injector capture
    /// live traffic to corrupt or replay later.
    fn observe(&mut self, now: Time, from: SockAddr, to: SockAddr, data: &Payload);
    /// Runs one injection tick. Returns the datagrams to inject now and
    /// the delay until the next tick (`None` disarms the injector).
    fn inject(&mut self, now: Time) -> (Vec<ForgedDatagram>, Option<Duration>);
    /// Downcast support for [`World::injector_as`].
    fn as_any(&self) -> &dyn Any;
}

#[derive(Clone, Debug, Default)]
struct HostState {
    down: bool,
    busy_until: Time,
}

/// Deferred world mutations requested by a running process.
enum Pending {
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
    core: &'a mut Core,
    me: SockAddr,
    vnow: Time,
    delta: CpuAccount,
}

/// The shared, process-independent part of the world.
struct Core {
    now: Time,
    seq: u64,
    queue: TimerWheel<EventKind>,
    rng: SimRng,
    net: NetConfig,
    costs: SyscallCosts,
    partition: Partition,
    registry: Registry,
    net_ctr: NetCounters,
    hosts: BTreeMap<HostId, HostState>,
    next_timer: u64,
    /// Timers armed but neither fired nor cancelled. Membership is what
    /// makes [`World::cancel_timer`]'s `bool` truthful: a hit moves the
    /// id to `cancelled`, a miss (already fired, already cancelled, or
    /// never ours) ticks `sim.timer.cancel_miss`.
    /// Insert, remove, contains: never walked.
    live: HashSet<TimerId>,
    /// Cancelled timers whose queue entries have not yet popped. A
    /// cancelled timer still occupies its slot and still advances the
    /// clock when it comes due — it just fires into the void (the golden
    /// traces were recorded with the tombstone's pop in them).
    /// Insert and remove only: never walked.
    cancelled: HashSet<TimerId>,
    pending: Vec<Pending>,
    /// Epoch of the process whose handler is currently running; set by the
    /// dispatcher so timers armed by the handler carry the owner's epoch
    /// (stale timers for replaced processes are dropped at fire time).
    epoch_hint: u64,
    /// Optional structured event-trace recorder.
    sink: Option<Box<dyn TraceSink>>,
    /// The world seed, kept so per-host disk fault streams can be derived
    /// from it without touching the world RNG.
    seed: u64,
    /// Simulated disks, one per host that opted in via
    /// [`World::install_disk`]. Disks survive host crashes (minus the
    /// unsynced tail) — that is the point.
    disks: BTreeMap<HostId, Disk>,
}

impl Core {
    fn push(&mut self, at: Time, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.insert(at.as_micros(), seq, kind);
    }

    /// Cancels a live timer; see [`World::cancel_timer`].
    fn cancel_timer(&mut self, id: TimerId) -> bool {
        if self.live.remove(&id) {
            self.cancelled.insert(id);
            true
        } else {
            // Cold path by construction (a miss is a caller bug or a
            // benign race with the fire), so the lazy name lookup is
            // fine — and the counter only appears in dumps once a miss
            // actually happens, keeping miss-free golden snapshots
            // byte-stable.
            self.registry.add("sim.timer.cancel_miss", 1);
            false
        }
    }

    fn trace(&mut self, ev: TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&ev);
        }
    }

    /// Pay-for-what-you-use tracing: the event is only *constructed* when
    /// a sink is installed. Hot-path call sites (every send, delivery,
    /// drop, timer fire) use this so steady-state runs with no sink skip
    /// the `TraceEvent` build entirely.
    #[inline]
    fn trace_with(&mut self, ev: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&ev());
        }
    }

    fn host_up(&self, h: HostId) -> bool {
        self.hosts.get(&h).map(|s| !s.down).unwrap_or(true)
    }

    fn busy_until(&self, h: HostId) -> Time {
        self.hosts
            .get(&h)
            .map(|s| s.busy_until)
            .unwrap_or(Time::ZERO)
    }

    fn set_busy_until(&mut self, h: HostId, t: Time) {
        self.hosts.entry(h).or_default().busy_until = t;
    }

    /// Schedules the delivery (with loss/duplication/jitter) of one
    /// datagram departing `from` at time `depart`, attributed to causal
    /// span `span` (0 = none). The payload is never copied: each
    /// scheduled copy (duplication, multicast fan-out) shares the same
    /// buffer.
    fn transmit(&mut self, from: SockAddr, to: SockAddr, data: Payload, span: u64, depart: Time) {
        self.net_ctr.sent.inc();
        self.trace_with(|| TraceEvent::Send {
            at: depart,
            from,
            to,
            len: data.len(),
            span,
        });
        if data.len() > self.net.mtu {
            self.net_ctr.oversize.inc();
            self.trace_with(|| TraceEvent::Drop {
                at: depart,
                from,
                to,
                len: data.len(),
                reason: DropReason::Oversize,
                span,
            });
            return;
        }
        if self.rng.chance(self.net.loss) {
            self.net_ctr.lost.inc();
            self.trace_with(|| TraceEvent::Drop {
                at: depart,
                from,
                to,
                len: data.len(),
                reason: DropReason::Loss,
                span,
            });
            return;
        }
        let copies = if self.rng.chance(self.net.duplicate) {
            self.net_ctr.duplicated.inc();
            self.trace_with(|| TraceEvent::Duplicate {
                at: depart,
                from,
                to,
                span,
            });
            2
        } else {
            1
        };
        for _ in 0..copies {
            let jitter = self.rng.exponential(self.net.jitter_mean);
            let at = depart + self.net.latency_for(data.len()) + jitter;
            self.push(
                at,
                EventKind::Datagram {
                    from,
                    to,
                    data: data.clone(),
                    span,
                },
            );
        }
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

    /// Charges one operation at the configured cost, advancing virtual
    /// time and the CPU account.
    pub fn charge(&mut self, sys: Syscall) {
        let d = self.core.costs.cost(sys);
        self.charge_dur(sys, d);
    }

    /// Charges an operation with an explicit duration.
    pub fn charge_dur(&mut self, sys: Syscall, d: Duration) {
        self.delta.record(sys, d);
        self.vnow += d;
    }

    /// Sends a datagram, charging one `sendmsg`.
    pub fn send(&mut self, to: SockAddr, data: impl Into<Payload>) {
        self.send_as(Syscall::SendMsg, to, data);
    }

    /// Sends a datagram attributed to causal span `span` (0 = none),
    /// charging one `sendmsg`. Trace events for the datagram's journey
    /// carry the span id.
    pub fn send_spanned(&mut self, to: SockAddr, data: impl Into<Payload>, span: u64) {
        self.charge(Syscall::SendMsg);
        self.core
            .transmit(self.me, to, data.into(), span, self.vnow);
    }

    /// Sends a datagram, charging the given syscall (e.g. `write` for the
    /// stream-socket comparison rig).
    pub fn send_as(&mut self, sys: Syscall, to: SockAddr, data: impl Into<Payload>) {
        self.charge(sys);
        self.core.transmit(self.me, to, data.into(), 0, self.vnow);
    }

    /// Sends the same datagram to every destination with a *single*
    /// `sendmsg` charge, modelling Ethernet multicast (§4.3.3: "a
    /// multicast implementation requires only m+n messages").
    pub fn multicast(&mut self, tos: &[SockAddr], data: impl Into<Payload>) {
        self.multicast_spanned(tos, data, 0);
    }

    /// Like [`Ctx::multicast`], but attributes every copy of the datagram
    /// to causal span `span` (0 = none), so a multicast call segment's
    /// journeys are stitched into the same trace tree as unicast ones.
    /// The payload is converted once; every destination shares the same
    /// buffer (`Payload::clone` is a refcount bump, not a byte copy).
    pub fn multicast_spanned(&mut self, tos: &[SockAddr], data: impl Into<Payload>, span: u64) {
        self.charge(Syscall::SendMsg);
        self.core.net_ctr.multicasts.inc();
        let data = data.into();
        for &to in tos {
            self.core
                .transmit(self.me, to, data.clone(), span, self.vnow);
        }
    }

    /// The world's metrics registry (cheap clone of a shared handle).
    pub fn metrics(&self) -> Registry {
        self.core.registry.clone()
    }

    /// Arms a timer to fire after `delay`; `tag` is returned to
    /// [`Process::on_timer`]. Timer bookkeeping itself is free; protocol
    /// code models its timer syscalls explicitly (`charge(SetITimer)`).
    pub fn set_timer(&mut self, delay: Duration, tag: u64) -> TimerId {
        let id = TimerId(self.core.next_timer);
        self.core.next_timer += 1;
        self.core.live.insert(id);
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
        id
    }

    /// Cancels a pending timer. Returns `true` if the timer was live
    /// (armed, not yet fired, not yet cancelled); a miss — already
    /// fired, already cancelled, or a foreign id — returns `false` and
    /// ticks the `sim.timer.cancel_miss` counter.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        self.core.cancel_timer(id)
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
    fn new(seed: u64, net: NetConfig, costs: SyscallCosts) -> Core {
        let registry = Registry::new();
        let net_ctr = NetCounters::new(&registry);
        Core {
            now: Time::ZERO,
            seq: 0,
            queue: TimerWheel::new(),
            rng: SimRng::new(seed),
            net,
            costs,
            partition: Partition::none(),
            registry,
            net_ctr,
            hosts: BTreeMap::new(),
            next_timer: 0,
            live: HashSet::new(),
            cancelled: HashSet::new(),
            pending: Vec::new(),
            epoch_hint: 0,
            sink: None,
            seed,
            disks: BTreeMap::new(),
        }
    }
}

struct Slot {
    proc: Option<Box<dyn Process>>,
    cpu: CpuCounters,
    epoch: u64,
}

/// The simulated distributed system.
pub struct World {
    core: Core,
    procs: BTreeMap<SockAddr, Slot>,
    epoch_counter: u64,
    events: u64,
    injector: Option<Box<dyn TrafficInjector>>,
}

impl World {
    /// Creates a world with the 1985 LAN network model and the VAX/4.2BSD
    /// syscall cost table.
    pub fn new(seed: u64) -> World {
        World::with_config(seed, NetConfig::default(), SyscallCosts::default())
    }

    /// Creates a world with explicit network and cost models.
    pub fn with_config(seed: u64, net: NetConfig, costs: SyscallCosts) -> World {
        World {
            core: Core::new(seed, net, costs),
            procs: BTreeMap::new(),
            epoch_counter: 1,
            events: 0,
            injector: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.core.now
    }

    /// Replaces the network model (takes effect for subsequent sends).
    pub fn set_net(&mut self, net: NetConfig) {
        self.core.net = net;
    }

    /// The network model currently in effect.
    pub fn net(&self) -> &NetConfig {
        &self.core.net
    }

    /// Installs a structured trace recorder; every subsequent send,
    /// delivery, drop, timer firing, spawn/kill, and host crash/restart is
    /// reported to it in simulation order.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.core.sink = Some(sink);
    }

    /// The installed trace sink, downcast to its concrete type.
    pub fn trace_sink_as<T: TraceSink>(&self) -> Option<&T> {
        self.core.sink.as_deref()?.as_any().downcast_ref::<T>()
    }

    /// Installs a traffic injector and arms its first tick `first` from
    /// now. From then on the injector observes every delivered datagram
    /// and, at each tick, may queue forged datagrams and re-arm itself.
    pub fn set_injector(&mut self, inj: Box<dyn TrafficInjector>, first: Duration) {
        self.injector = Some(inj);
        self.core.push(self.core.now + first, EventKind::Inject);
    }

    /// The installed traffic injector, downcast to its concrete type.
    pub fn injector_as<T: TrafficInjector>(&self) -> Option<&T> {
        self.injector.as_deref()?.as_any().downcast_ref::<T>()
    }

    /// Queues a raw datagram for delivery *now* with a forged source
    /// address, bypassing the sender-side network model (an adversary on
    /// the wire pays no loss or jitter of its own). Delivery still runs
    /// the host-up and partition checks, so a forged datagram cannot
    /// reach a host the adversary's position in the network could not.
    pub fn inject_datagram(&mut self, from: SockAddr, to: SockAddr, data: impl Into<Payload>) {
        let data = data.into();
        let at = self.core.now;
        self.core.trace_with(|| TraceEvent::Inject {
            at,
            from,
            to,
            len: data.len(),
        });
        self.core.push(
            at,
            EventKind::Datagram {
                from,
                to,
                data,
                span: 0,
            },
        );
    }

    /// Imposes (or lifts, with `Partition::none()`) a network partition.
    pub fn set_partition(&mut self, p: Partition) {
        self.core.partition = p;
    }

    /// Snapshot of the network counters (`net.*` registry keys).
    pub fn net_stats(&self) -> NetView {
        self.core.net_ctr.view()
    }

    /// Spawns a process at `addr`, replacing any existing one. Its
    /// `on_start` runs at the current time.
    ///
    /// The CPU account belongs to the process *incarnation*: respawning at
    /// an address resets that address's `cpu.*` registry counters, just as
    /// a freshly exec'd process starts with a zero `getrusage`.
    pub fn spawn(&mut self, addr: SockAddr, proc: Box<dyn Process>) {
        let epoch = self.epoch_counter;
        self.epoch_counter += 1;
        let cpu = CpuCounters::new(&self.core.registry, addr);
        cpu.reset();
        self.procs.insert(
            addr,
            Slot {
                proc: Some(proc),
                cpu,
                epoch,
            },
        );
        self.core.trace(TraceEvent::Spawn {
            at: self.core.now,
            addr,
        });
        self.core
            .push(self.core.now, EventKind::Start { at: addr, epoch });
    }

    /// Destroys the process at `addr` (its timers die with it).
    pub fn kill(&mut self, addr: SockAddr) {
        if self.procs.remove(&addr).is_some() {
            self.core.trace(TraceEvent::Kill {
                at: self.core.now,
                addr,
            });
        }
    }

    /// Returns `true` if a process exists at `addr` and its host is up.
    pub fn is_alive(&self, addr: SockAddr) -> bool {
        self.procs.contains_key(&addr) && self.core.host_up(addr.host)
    }

    /// Crashes a host: the host goes down and every process on it is
    /// destroyed (fail-stop; volatile state is lost, §3.5.1). The host's
    /// disk, if installed, keeps its synced bytes and applies crash
    /// semantics to the rest ([`Disk::crash`]).
    pub fn crash_host(&mut self, h: HostId) {
        self.core.trace(TraceEvent::CrashHost {
            at: self.core.now,
            host: h,
        });
        self.core.hosts.entry(h).or_default().down = true;
        let dead: Vec<SockAddr> = self.procs.keys().filter(|a| a.host == h).copied().collect();
        for a in dead {
            self.procs.remove(&a);
        }
        if let Some(disk) = self.core.disks.get(&h) {
            disk.crash();
        }
    }

    /// Installs a simulated disk on host `h` (replacing any existing
    /// one), returning its handle. Processes on the host reach it via
    /// [`Ctx::disk`]; its fault stream is seeded from the world seed and
    /// the host id, independent of the world RNG.
    pub fn install_disk(&mut self, h: HostId, cfg: DiskConfig) -> Disk {
        // splitmix64-style mix so adjacent host ids get unrelated seeds.
        let mix = (h.0 as u64)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let seed = self.core.seed ^ mix;
        let disk = Disk::new(h, cfg, seed, self.core.registry.clone());
        self.core.disks.insert(h, disk.clone());
        disk
    }

    /// The disk installed on host `h`, if any.
    pub fn disk(&self, h: HostId) -> Option<Disk> {
        self.core.disks.get(&h).cloned()
    }

    /// Brings a crashed host back up, empty of processes.
    pub fn restart_host(&mut self, h: HostId) {
        self.core.trace(TraceEvent::RestartHost {
            at: self.core.now,
            host: h,
        });
        self.core.hosts.entry(h).or_default().down = false;
    }

    /// Returns `true` if the host is up.
    pub fn host_up(&self, h: HostId) -> bool {
        self.core.host_up(h)
    }

    /// Schedules a `Poke` for `addr` at the current time: the process's
    /// `on_poke` handler runs with a `Ctx`, letting external test/example
    /// code initiate activity.
    pub fn poke(&mut self, addr: SockAddr, tag: u64) {
        self.core
            .push(self.core.now, EventKind::Poke { at: addr, tag });
    }

    /// Snapshot of the CPU account of the process at `addr`, read from
    /// the registry's `cpu.<addr>.*` counters (zeroed view if none).
    pub fn cpu(&self, addr: SockAddr) -> CpuView {
        self.procs
            .get(&addr)
            .map(|s| s.cpu.view())
            .unwrap_or_default()
    }

    /// Resets the CPU account of the process at `addr` (e.g. after a
    /// warmup phase, so a measurement covers only the steady state).
    pub fn reset_cpu(&mut self, addr: SockAddr) {
        if let Some(s) = self.procs.get_mut(&addr) {
            s.cpu.reset();
        }
    }

    /// The world's metrics registry (cheap clone of a shared handle).
    pub fn metrics(&self) -> Registry {
        self.core.registry.clone()
    }

    /// Asks every live process to publish its internal counters into the
    /// registry (deterministic: processes are visited in address order).
    pub fn refresh_metrics(&self) {
        for slot in self.procs.values() {
            if let Some(p) = slot.proc.as_deref() {
                p.publish_metrics(&self.core.registry);
            }
        }
    }

    /// Refreshes process metrics, then dumps the registry as JSON. For a
    /// fixed seed and workload the output is bit-identical across runs.
    pub fn metrics_json(&self) -> String {
        self.refresh_metrics();
        self.core.registry.dump_json()
    }

    /// Refreshes process metrics, then dumps the registry as sorted text.
    pub fn metrics_text(&self) -> String {
        self.refresh_metrics();
        self.core.registry.dump_text()
    }

    /// Runs `f` against the process at `addr` downcast to `P`.
    ///
    /// Returns `None` if there is no process there or it has a different
    /// concrete type.
    pub fn with_proc<P: Process, R>(&self, addr: SockAddr, f: impl FnOnce(&P) -> R) -> Option<R> {
        let slot = self.procs.get(&addr)?;
        let p = slot.proc.as_deref()?;
        let any: &dyn Any = p;
        any.downcast_ref::<P>().map(f)
    }

    /// Mutable variant of [`World::with_proc`]. The closure gets plain
    /// `&mut P` — to make the process *act*, use [`World::poke`].
    pub fn with_proc_mut<P: Process, R>(
        &mut self,
        addr: SockAddr,
        f: impl FnOnce(&mut P) -> R,
    ) -> Option<R> {
        let slot = self.procs.get_mut(&addr)?;
        let p = slot.proc.as_deref_mut()?;
        let any: &mut dyn Any = p;
        any.downcast_mut::<P>().map(f)
    }

    /// Addresses of all live processes, in deterministic (sorted) order.
    pub fn proc_addrs(&self) -> Vec<SockAddr> {
        self.procs
            .keys()
            .copied()
            .filter(|a| self.core.host_up(a.host))
            .collect()
    }

    /// Returns `true` if no events remain.
    pub fn idle(&self) -> bool {
        self.core.queue.is_empty()
    }

    /// Total number of events processed by [`World::step`] so far (plain
    /// counter, not a registry metric; used for events/sec measurements).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    ///
    /// This is the single-event primitive every [`World::run`] mode is
    /// built from; external drivers may call it directly to interleave
    /// simulation with their own bookkeeping.
    pub fn step(&mut self) -> bool {
        let Some((at, _, kind)) = self.core.queue.pop() else {
            return false;
        };
        let at = Time::from_micros(at);
        self.core.now = at;
        self.events += 1;
        match kind {
            EventKind::Datagram {
                from,
                to,
                data,
                span,
            } => self.deliver(from, to, data, span),
            EventKind::Timer {
                owner,
                id,
                tag,
                epoch,
            } => {
                if self.core.cancelled.remove(&id) {
                    // A cancelled timer's slot still pops (and the pop
                    // advanced the clock and the event counter above) —
                    // it just no longer reaches its owner.
                    return true;
                }
                self.core.live.remove(&id);
                self.core
                    .trace_with(|| TraceEvent::TimerFire { at, owner, id, tag });
                self.dispatch(owner, Some(epoch), |p, ctx| p.on_timer(ctx, id, tag), None);
            }
            EventKind::Start { at, epoch } => {
                self.dispatch(at, Some(epoch), |p, ctx| p.on_start(ctx), None);
            }
            EventKind::Poke { at, tag } => {
                self.dispatch(at, None, |p, ctx| p.on_poke(ctx, tag), None);
            }
            EventKind::Inject => {
                let Some(mut inj) = self.injector.take() else {
                    return true;
                };
                let (forged, next) = inj.inject(at);
                self.injector = Some(inj);
                for f in forged {
                    self.inject_datagram(f.from, f.to, f.data);
                }
                if let Some(d) = next {
                    self.core.push(at + d, EventKind::Inject);
                }
            }
        }
        true
    }

    fn deliver(&mut self, from: SockAddr, to: SockAddr, data: Payload, span: u64) {
        let at = self.core.now;
        if !self.core.host_up(to.host) || !self.procs.contains_key(&to) {
            self.core.net_ctr.undeliverable.inc();
            self.core.trace_with(|| TraceEvent::Drop {
                at,
                from,
                to,
                len: data.len(),
                reason: DropReason::Undeliverable,
                span,
            });
            return;
        }
        if !self.core.partition.connected(from.host, to.host) {
            self.core.net_ctr.partitioned.inc();
            self.core.trace_with(|| TraceEvent::Drop {
                at,
                from,
                to,
                len: data.len(),
                reason: DropReason::Partitioned,
                span,
            });
            return;
        }
        self.core.net_ctr.delivered.inc();
        self.core.trace_with(|| TraceEvent::Deliver {
            at,
            from,
            to,
            len: data.len(),
            span,
        });
        if let Some(mut inj) = self.injector.take() {
            inj.observe(at, from, to, &data);
            self.injector = Some(inj);
        }
        self.dispatch(
            to,
            None,
            move |p, ctx| p.on_datagram(ctx, from, data),
            Some(()),
        );
    }

    /// Runs one handler for the process at `addr`, with CPU serialization
    /// on its host. `epoch` (if given) must match the slot's epoch (stale
    /// timers for replaced processes are dropped). `auto_recv` charges the
    /// process's receive syscall before the handler runs.
    fn dispatch<F>(&mut self, addr: SockAddr, epoch: Option<u64>, f: F, auto_recv: Option<()>)
    where
        F: FnOnce(&mut dyn Process, &mut Ctx<'_>),
    {
        if !self.core.host_up(addr.host) {
            return;
        }
        let (mut proc, slot_epoch) = match self.procs.get_mut(&addr) {
            Some(slot) => {
                if let Some(e) = epoch {
                    if e != slot.epoch {
                        return;
                    }
                }
                match slot.proc.take() {
                    Some(p) => (p, slot.epoch),
                    None => return,
                }
            }
            None => return,
        };
        let start = std::cmp::max(self.core.now, self.core.busy_until(addr.host));
        self.core.epoch_hint = slot_epoch;
        let mut ctx = Ctx {
            core: &mut self.core,
            me: addr,
            vnow: start,
            delta: CpuAccount::new(),
        };
        if auto_recv.is_some() {
            if let Some(sys) = proc.recv_syscall() {
                ctx.charge(sys);
            }
        }
        f(proc.as_mut(), &mut ctx);
        // Charge any disk I/O time the handler accrued before reading the
        // virtual clock, so disk costs serialize on the host CPU exactly
        // like syscall costs.
        if let Some(disk) = ctx.core.disks.get(&addr.host).cloned() {
            let d = disk.take_pending();
            if !d.is_zero() {
                ctx.charge_dur(Syscall::DiskIo, d);
            }
        }
        let end = ctx.vnow;
        let delta = std::mem::take(&mut ctx.delta);
        let _ = ctx;
        self.core.set_busy_until(addr.host, end);
        if let Some(slot) = self.procs.get_mut(&addr) {
            if slot.epoch == slot_epoch {
                slot.proc = Some(proc);
                slot.cpu.publish(&delta);
            }
        }
        self.apply_pending();
    }

    fn apply_pending(&mut self) {
        let pending = std::mem::take(&mut self.core.pending);
        for p in pending {
            match p {
                Pending::Spawn(addr, proc) => self.spawn(addr, proc),
                Pending::Kill(addr) => self.kill(addr),
                Pending::CrashHost(h) => self.crash_host(h),
                Pending::RestartHost(h) => self.restart_host(h),
            }
        }
    }

    /// Cancels a pending timer from outside any process handler (test
    /// drivers, scenario scripts). Same semantics as
    /// [`Ctx::cancel_timer`]: `true` iff the timer was live; a miss
    /// ticks `sim.timer.cancel_miss` and returns `false`.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        self.core.cancel_timer(id)
    }

    /// Runs the event loop until `until` is satisfied. Returns `true`
    /// if the stopping condition was met — always, except for
    /// [`Until::Pred`], which reports whether the predicate held before
    /// its deadline.
    pub fn run(&mut self, until: Until<'_>) -> bool {
        match until {
            Until::Time(t) => {
                self.drive_to(t);
                true
            }
            Until::Elapsed(d) => {
                let t = self.core.now + d;
                self.drive_to(t);
                true
            }
            Until::Idle => {
                while self.step() {}
                true
            }
            Until::Pred { deadline, mut pred } => {
                if pred(self) {
                    return true;
                }
                while let Some(at) = self.core.queue.next_at() {
                    if at > deadline.as_micros() {
                        break;
                    }
                    self.step();
                    if pred(self) {
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Processes every event with `at ≤ t`, then advances the clock to
    /// `t` (the queue may retain later events).
    fn drive_to(&mut self, t: Time) {
        while let Some(at) = self.core.queue.next_at() {
            if at > t.as_micros() {
                break;
            }
            self.step();
        }
        if self.core.now < t {
            self.core.now = t;
        }
    }
}

/// A stopping condition for [`World::run`] — the one run-loop driver
/// behind what used to be four separate `run_*` entry points.
pub enum Until<'a> {
    /// Process every event with `at ≤ t`, then advance the clock to `t`.
    Time(Time),
    /// Like [`Until::Time`], `d` of simulated time from now.
    Elapsed(Duration),
    /// Drain every remaining event (only sensible when the system
    /// quiesces — no periodic timers armed).
    Idle,
    /// Run until the predicate holds (checked before the first event and
    /// after each one) or the next event lies past `deadline`. On
    /// failure the clock is *not* advanced to the deadline, so callers
    /// can resume precisely. Build with [`Until::pred`].
    Pred {
        /// Last event timestamp still processed.
        deadline: Time,
        /// Stopping predicate, checked against the whole world.
        pred: Box<dyn FnMut(&World) -> bool + 'a>,
    },
}

impl<'a> Until<'a> {
    /// Convenience constructor for [`Until::Pred`].
    pub fn pred(deadline: Time, pred: impl FnMut(&World) -> bool + 'a) -> Until<'a> {
        Until::Pred {
            deadline,
            pred: Box::new(pred),
        }
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.core.now)
            .field("procs", &self.procs.keys().collect::<Vec<_>>())
            .field("queued", &self.core.queue.len())
            .finish()
    }
}
