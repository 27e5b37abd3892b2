//! # simnet: the simulated testbed
//!
//! A deterministic discrete-event simulator standing in for the testbed of
//! Cooper's *Replicated Distributed Programs* (Berkeley, 1985): six
//! VAX-11/750s running 4.2BSD on a 10 Mbit/s Ethernet.
//!
//! The simulator provides:
//!
//! - **hosts** with serial CPUs and a calibrated syscall cost model
//!   ([`cpu::SyscallCosts::vax_4_2bsd`] reproduces Table 4.2), so protocol
//!   CPU time accumulates exactly as `getrusage` measured it in §4.4.1;
//! - **processes** ([`Process`]) addressed by host + port (§4.2.1),
//!   reacting to datagram arrivals and timers, as the user-mode Circus
//!   implementation reacted to SIGIO and interval-timer signals;
//! - a **datagram network** with loss, duplication, delay jitter, MTU,
//!   partitions, and true multicast (§2.2's assumptions);
//! - **fault injection**: fail-stop process and host crashes (§3.5.1) and
//!   network partitions (§4.3.5); a live host answers a datagram to a
//!   port nothing holds with a port-unreachable notice to its sender
//!   ([`Process::on_unreachable`]), a down one answers nothing;
//! - one **event queue** ([`EventQueue`], a binary heap) that pops every
//!   datagram arrival, timer and poke in `(time, insertion sequence)`
//!   order, and a seeded [`rng::SimRng`], so every run is exactly
//!   reproducible;
//! - **event tracing** ([`trace::TraceSink`]): every send, delivery, drop
//!   (with reason, and each datagram's leading header bytes),
//!   port-unreachable notice, timer firing, spawn/kill, host
//!   crash/restart and causal span mint is one stream, fanned out to
//!   every installed sink; [`trace::TraceRing`] folds it into one value
//!   so "same seed ⇒ same trace" is a one-line assertion, and is the one
//!   retained window of it;
//! - a **critical-path ledger** ([`Ledger`]): a sink that asks for them
//!   gets every handler run's notes — its cause, arrival, start, end and
//!   charges — and walks an operation's latency back into stretches
//!   that sum to it exactly.
//!
//! # Examples
//!
//! ```
//! use simnet::{HostId, Payload, Process, SockAddr, World, Ctx};
//!
//! struct Echo;
//! impl Process for Echo {
//!     fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: SockAddr, data: Payload) {
//!         ctx.send(from, data);
//!     }
//! }
//!
//! struct Client { replies: usize }
//! impl Process for Client {
//!     fn on_poke(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
//!         ctx.send(SockAddr::new(HostId(1), 7), b"ping".to_vec());
//!     }
//!     fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {
//!         self.replies += 1;
//!     }
//! }
//!
//! let mut world = World::new(1);
//! let server = SockAddr::new(HostId(1), 7);
//! let client = SockAddr::new(HostId(0), 100);
//! world.spawn(server, Box::new(Echo));
//! world.spawn(client, Box::new(Client { replies: 0 }));
//! world.poke(client, 0);
//! world.run(simnet::Until::Elapsed(simnet::Duration::from_secs(1)));
//! assert_eq!(world.with_proc(client, |c: &Client| c.replies), Some(1));
//! ```

#![warn(missing_docs)]

pub mod cpu;
mod ctx;
pub mod disk;
pub mod ledger;
pub mod net;
pub mod payload;
pub mod process;
pub mod rng;
pub mod sched;
pub mod time;
pub mod trace;
pub mod world;

pub use cpu::{Syscall, SyscallCosts, ALL_SYSCALLS};
pub use disk::{Disk, DiskConfig, DiskError};
pub use ledger::{Ledger, RunNote, Stretch};
pub use net::{NetConfig, Partition};
pub use obs::{fnv1a, CpuView, NetView, Registry, SpanId};
pub use payload::Payload;
pub use process::{HostId, Process, SockAddr, TimerId};
pub use rng::SimRng;
pub use sched::{EventQueue, TimerWheel};
pub use time::{Duration, Time};
pub use trace::{DropReason, TraceEvent, TraceRing, TraceSink};
pub use world::{Ctx, ForgedDatagram, TrafficInjector, Until, World};
