//! The simulated world: its processes and the loop that hands each event
//! to one of them through a [`Ctx`] (defined beside the world's shared
//! core, in `ctx.rs`).
//!
//! The world is a deterministic discrete-event simulator. All events live
//! in one queue ([`EventQueue`](crate::EventQueue)) ordered by `(time,
//! insertion sequence)`; all randomness comes from one seeded
//! [`SimRng`](crate::SimRng). Each host has a serial CPU: handling an
//! event begins no earlier than the host's `busy_until`, and every
//! syscall charge advances it — so CPU costs serialize exactly as they
//! did on the paper's uniprocessor VAXen.

use std::any::Any;
use std::collections::BTreeMap;

use obs::{CpuView, NetView, Registry};

use crate::cpu::{Syscall, SyscallCosts};
pub use crate::ctx::Ctx;
use crate::ctx::{Core, CpuCounters, EventKind, Pending, UNREACHABLE};
use crate::disk::{Disk, DiskConfig};
use crate::ledger::RunNote;
use crate::net::{NetConfig, Partition};
use crate::payload::Payload;
use crate::process::{HostId, Process, SockAddr};
use crate::time::{Duration, Time};
use crate::trace::{head, wire_len, DropReason, TraceEvent, TraceSink};

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
/// — it never touches the world's [`SimRng`](crate::SimRng) — so an
/// injection run stays a pure function of `(world seed, injector seed)`.
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

    /// Installs `sink` as the world's only trace recorder, replacing any
    /// others; every subsequent send, delivery, drop, port-unreachable
    /// notice, timer firing, spawn/kill, host crash/restart and span mint
    /// is reported to it in simulation order.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.core.sinks.clear();
        self.add_trace_sink(sink);
    }

    /// Installs `sink` beside the recorders already installed: each gets
    /// every event, in installation order.
    pub fn add_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.core.sinks.push(sink);
        self.core.runs = self.core.sinks.iter().any(|s| s.takes_runs());
    }

    /// The first installed trace sink of type `T`.
    pub fn trace_sink_as<T: TraceSink>(&self) -> Option<&T> {
        let mut sinks = self.core.sinks.iter();
        sinks.find_map(|sink| sink.as_any().downcast_ref::<T>())
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
            len: wire_len(&data),
        });
        self.core.push(at, EventKind::Datagram { from, to, data });
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

    /// Asks every live process to publish what it keeps outside the
    /// registry ([`Process::publish_metrics`]; processes are visited in
    /// address order).
    pub fn refresh_metrics(&self) {
        for slot in self.procs.values() {
            if let Some(p) = slot.proc.as_deref() {
                p.publish_metrics(&self.core.registry);
            }
        }
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
        let Some((at, event, kind)) = self.core.queue.pop() else {
            return false;
        };
        let at = Time::from_micros(at);
        self.core.now = at;
        self.events += 1;
        match kind {
            EventKind::Datagram { from, to, data } => self.deliver(event, from, to, data),
            EventKind::Timer {
                owner,
                id,
                tag,
                epoch,
            } => {
                self.core
                    .trace_with(|| TraceEvent::TimerFire { at, owner, id, tag });
                let on_timer = |p: &mut dyn Process, ctx: &mut Ctx<'_>| p.on_timer(ctx, id, tag);
                self.dispatch(event, owner, Some(epoch), on_timer, None);
            }
            EventKind::Unreachable { to, dead } => self.notify(event, to, dead),
            EventKind::Start { at, epoch } => {
                self.dispatch(event, at, Some(epoch), |p, ctx| p.on_start(ctx), None);
            }
            EventKind::Poke { at, tag } => {
                self.dispatch(event, at, None, |p, ctx| p.on_poke(ctx, tag), None);
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

    fn deliver(&mut self, event: u64, from: SockAddr, to: SockAddr, data: Payload) {
        let at = self.core.now;
        let up = self.core.host_up(to.host);
        let dropped = if !up || !self.procs.contains_key(&to) {
            self.core.net_ctr.undeliverable.inc();
            // A live host says that nothing holds the port, if the sender
            // can hear it; a down one says nothing.
            if up && self.core.partition.connected(from.host, to.host) {
                self.core.answer_unreachable(from, to);
            }
            Some(DropReason::Undeliverable)
        } else if !self.core.partition.connected(from.host, to.host) {
            self.core.net_ctr.partitioned.inc();
            Some(DropReason::Partitioned)
        } else {
            None
        };
        if let Some(reason) = dropped {
            self.core.trace_with(|| TraceEvent::Drop {
                at,
                from,
                to,
                len: wire_len(&data),
                reason,
                head: head(&data),
            });
            return;
        }
        self.core.net_ctr.delivered.inc();
        self.core.trace_with(|| TraceEvent::Deliver {
            at,
            from,
            to,
            len: wire_len(&data),
            head: head(&data),
        });
        if let Some(mut inj) = self.injector.take() {
            inj.observe(at, from, to, &data);
            self.injector = Some(inj);
        }
        self.dispatch(
            event,
            to,
            None,
            move |p, ctx| p.on_datagram(ctx, from, data),
            Some(()),
        );
    }

    /// A port-unreachable notice about `dead` arrives back at `to`: it
    /// reaches a live sender across no partition, as a datagram would.
    fn notify(&mut self, event: u64, to: SockAddr, dead: SockAddr) {
        let heard = self.core.host_up(to.host)
            && self.procs.contains_key(&to)
            && self.core.partition.connected(dead.host, to.host);
        if !heard {
            return;
        }
        self.core.registry.add(UNREACHABLE, 1);
        let at = self.core.now;
        self.core
            .trace_with(|| TraceEvent::Unreachable { at, to, dead });
        self.dispatch(
            event,
            to,
            None,
            move |p, ctx| p.on_unreachable(ctx, dead),
            Some(()),
        );
    }

    /// Runs one handler for the process at `addr`, with CPU serialization
    /// on its host, for the queued event numbered `event`. `epoch` (if
    /// given) must match the slot's epoch (stale timers for replaced
    /// processes are dropped). `auto_recv` charges the process's receive
    /// syscall before the handler runs.
    fn dispatch<F>(
        &mut self,
        event: u64,
        addr: SockAddr,
        epoch: Option<u64>,
        f: F,
        auto_recv: Option<()>,
    ) where
        F: FnOnce(&mut dyn Process, &mut Ctx<'_>),
    {
        if !self.core.host_up(addr.host) {
            return;
        }
        let Some(slot) = self.procs.get_mut(&addr) else {
            return;
        };
        if epoch.is_some_and(|e| e != slot.epoch) {
            return;
        }
        let Some(mut proc) = slot.proc.take() else {
            return;
        };
        let host = self.core.hosts.entry(addr.host).or_default();
        let arrival = self.core.now;
        let start = std::cmp::max(arrival, host.busy_until);
        self.core.epoch_hint = slot.epoch;
        self.core.note(|| RunNote::Begin {
            addr,
            event,
            arrival,
            start,
        });
        let mut ctx = Ctx {
            core: &mut self.core,
            cpu: &slot.cpu,
            me: addr,
            vnow: start,
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
        self.core.note(|| RunNote::End { end });
        self.core.hosts.entry(addr.host).or_default().busy_until = end;
        // Kills and spawns the handler asked for wait in `pending`, so the
        // slot is still this process's.
        slot.proc = Some(proc);
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
