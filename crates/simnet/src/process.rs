//! Processes and addresses.
//!
//! A process is the simulator's unit of execution, matching the paper's
//! model: a conventional single-machine process identified by a *process
//! address* — a host address plus a 16-bit port number (§4.2.1). Protocol
//! layers and applications implement [`Process`] and react to datagram
//! arrivals and timer expirations, exactly as the user-mode Circus
//! implementation reacted to SIGIO and interval-timer signals (§4.2.4).

use std::any::Any;
use std::fmt;

/// Identifies a machine in the simulated internet.
///
/// Stands in for the 32-bit DARPA internet host address of §4.2.1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

/// A process address: host plus 16-bit port (§4.2.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SockAddr {
    /// The machine the process runs on.
    pub host: HostId,
    /// The port identifying the process within the machine.
    pub port: u16,
}

impl SockAddr {
    /// Convenience constructor.
    pub fn new(host: HostId, port: u16) -> SockAddr {
        SockAddr { host, port }
    }
}

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Debug for SockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.host, self.port)
    }
}

impl fmt::Display for SockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.host, self.port)
    }
}

/// Names one armed timer: the world mints ids in arming order, and
/// hands each back with its tag when the timer fires.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

/// A simulated process.
///
/// Handlers run to completion (the simulator is single-threaded per host,
/// like the 4.2BSD processes the paper worked with); all interaction with
/// the outside world goes through the [`Ctx`](crate::world::Ctx) handle.
///
/// The `Any` supertrait lets tests and examples inspect a process's state
/// through [`World::with_proc`](crate::world::World::with_proc).
pub trait Process: Any {
    /// Called once when the process is spawned.
    fn on_start(&mut self, _ctx: &mut crate::world::Ctx<'_>) {}

    /// Called when a datagram addressed to this process arrives. The
    /// [`Payload`](crate::Payload) is a shared handle on the transmitted
    /// bytes — cloning or slicing it never allocates.
    fn on_datagram(
        &mut self,
        ctx: &mut crate::world::Ctx<'_>,
        from: SockAddr,
        data: crate::payload::Payload,
    );

    /// Called when a datagram this process sent reached a live host that
    /// had no process at its port `dead`: the host's port-unreachable
    /// notice, charged as a datagram arrival. A down host, a partition or
    /// the loss model leaves the sender to hear nothing instead. Only the
    /// world makes a notice: no datagram, forged or not, can pose as one.
    fn on_unreachable(&mut self, _ctx: &mut crate::world::Ctx<'_>, _dead: SockAddr) {}

    /// Called when a timer set via `Ctx::set_timer` expires.
    fn on_timer(&mut self, _ctx: &mut crate::world::Ctx<'_>, _timer: TimerId, _tag: u64) {}

    /// Called when external code pokes the process via
    /// [`World::poke`](crate::world::World::poke); used by tests and
    /// examples to initiate activity from outside the event loop.
    fn on_poke(&mut self, _ctx: &mut crate::world::Ctx<'_>, _tag: u64) {}

    /// The syscall automatically charged when a datagram is delivered to
    /// this process (reading a datagram always costs something). Return
    /// `None` to disable, or `Syscall::Read` for the stream-socket rig.
    fn recv_syscall(&self) -> Option<crate::cpu::Syscall> {
        Some(crate::cpu::Syscall::RecvMsg)
    }

    /// Called when [`World::refresh_metrics`](crate::World::refresh_metrics)
    /// asks for it: a process that keeps a figure only in its own state
    /// can set it into the registry here. No process in this workspace
    /// does: each counts into registry handles as its events happen, and
    /// the world accounts CPU and network traffic itself.
    fn publish_metrics(&self, _reg: &obs::Registry) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_display() {
        let a = SockAddr::new(HostId(3), 70);
        assert_eq!(format!("{a}"), "h3:70");
        assert_eq!(format!("{a:?}"), "h3:70");
    }

    #[test]
    fn addr_ordering_and_hash() {
        use std::collections::HashSet;
        let a = SockAddr::new(HostId(1), 5);
        let b = SockAddr::new(HostId(1), 6);
        let c = SockAddr::new(HostId(2), 1);
        assert!(a < b && b < c);
        let set: HashSet<_> = [a, b, c, a].into_iter().collect();
        assert_eq!(set.len(), 3);
    }
}
