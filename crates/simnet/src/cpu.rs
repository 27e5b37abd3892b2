//! The host CPU cost model.
//!
//! The paper's measurements (Table 4.1) are dominated by the CPU cost of a
//! handful of Berkeley 4.2BSD system calls on a VAX-11/750; Table 4.2 gives
//! those costs. The simulator charges those *measured* costs each time the
//! protocol code performs the corresponding operation, so the reproduction
//! of Tables 4.1/4.3 and Figure 4.8 emerges from the actual behaviour of
//! our protocol implementation rather than from curve fitting.

use crate::time::Duration;
use std::fmt;

/// The system calls charged by the cost model.
///
/// The first six are the calls the paper's execution profile found to
/// account for more than half the CPU time of a Circus replicated call
/// (Table 4.2). `Read`/`Write` model the leaner byte-stream interface used
/// by the TCP comparison test (§4.4.1). `Compute` is user-mode work:
/// priced per message marshalled, or charged for an explicit duration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Syscall {
    /// `sendmsg`: send a datagram (scatter/gather interface).
    SendMsg,
    /// `recvmsg`: receive a datagram.
    RecvMsg,
    /// `select`: inquire whether a datagram has arrived.
    Select,
    /// `setitimer`: start the interval timer for a clock interrupt.
    SetITimer,
    /// `gettimeofday`: read the clock.
    GetTimeOfDay,
    /// `sigblock`: mask software interrupts to begin a critical region.
    SigBlock,
    /// `read` on a stream socket (TCP path; no scatter/gather copy).
    Read,
    /// `write` on a stream socket (TCP path).
    Write,
    /// User-mode computation: a message the stubs marshal, or work a
    /// process charges for an explicit duration.
    Compute,
    /// Disk I/O (append/read/fsync on the simulated per-host disk). The
    /// cost tables keep this at zero: the disk charges explicit durations
    /// from its own seeded cost model rather than a flat per-call price.
    DiskIo,
}

/// All syscall kinds, for iteration in accounting reports.
pub const ALL_SYSCALLS: [Syscall; 10] = [
    Syscall::SendMsg,
    Syscall::RecvMsg,
    Syscall::Select,
    Syscall::SetITimer,
    Syscall::GetTimeOfDay,
    Syscall::SigBlock,
    Syscall::Read,
    Syscall::Write,
    Syscall::Compute,
    Syscall::DiskIo,
];

impl Syscall {
    /// Stable index of this syscall in per-syscall arrays (the order of
    /// [`ALL_SYSCALLS`]); also the index convention of
    /// [`obs::CpuView`](obs::CpuView) slots.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The name used in reports, matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Syscall::SendMsg => "sendmsg",
            Syscall::RecvMsg => "recvmsg",
            Syscall::Select => "select",
            Syscall::SetITimer => "setitimer",
            Syscall::GetTimeOfDay => "gettimeofday",
            Syscall::SigBlock => "sigblock",
            Syscall::Read => "read",
            Syscall::Write => "write",
            Syscall::Compute => "compute",
            Syscall::DiskIo => "diskio",
        }
    }

    /// Whether the charge is kernel-mode time (true for real system calls)
    /// or user-mode time (`Compute`).
    pub fn is_kernel(self) -> bool {
        !matches!(self, Syscall::Compute)
    }
}

impl fmt::Display for Syscall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-syscall CPU cost table.
#[derive(Clone, Debug)]
pub struct SyscallCosts {
    costs: [Duration; 10],
}

impl SyscallCosts {
    /// The paper's measured 4.2BSD/VAX-11/750 costs (Table 4.2), plus
    /// calibrated values for the stream-socket path: the paper notes the
    /// `read`/`write` interface is "more streamlined" than scatter/gather
    /// `sendmsg`/`recvmsg` (§4.4.1); `read` + `write` here sum to the
    /// 8.3 ms of client CPU per exchange its TCP echo measured
    /// (Table 4.1). `Compute` is one message the stubs externalize or
    /// internalize: 3.0 ms, the per-member step of Table 4.1's user
    /// column.
    pub fn vax_4_2bsd() -> SyscallCosts {
        let mut c = SyscallCosts {
            costs: [Duration::ZERO; 10],
        };
        c.set(Syscall::SendMsg, Duration::from_millis_f64(8.1));
        c.set(Syscall::RecvMsg, Duration::from_millis_f64(2.8));
        c.set(Syscall::Select, Duration::from_millis_f64(1.8));
        c.set(Syscall::SetITimer, Duration::from_millis_f64(1.2));
        c.set(Syscall::GetTimeOfDay, Duration::from_millis_f64(0.7));
        c.set(Syscall::SigBlock, Duration::from_millis_f64(0.4));
        c.set(Syscall::Read, Duration::from_millis_f64(3.8));
        c.set(Syscall::Write, Duration::from_millis_f64(4.5));
        c.set(Syscall::Compute, Duration::from_millis_f64(3.0));
        c
    }

    /// A free cost model: every operation takes zero CPU. Useful for tests
    /// that exercise protocol logic where timing is irrelevant, and for the
    /// multicast latency analysis (§4.4.2) where network delay dominates.
    pub fn free() -> SyscallCosts {
        SyscallCosts {
            costs: [Duration::ZERO; 10],
        }
    }

    /// Overrides the cost of one syscall.
    pub fn set(&mut self, sys: Syscall, cost: Duration) {
        self.costs[sys.index()] = cost;
    }

    /// Returns the cost of one syscall.
    pub fn cost(&self, sys: Syscall) -> Duration {
        self.costs[sys.index()]
    }
}

impl Default for SyscallCosts {
    fn default() -> Self {
        SyscallCosts::vax_4_2bsd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_4_2_costs() {
        let c = SyscallCosts::vax_4_2bsd();
        assert_eq!(c.cost(Syscall::SendMsg).as_millis_f64(), 8.1);
        assert_eq!(c.cost(Syscall::RecvMsg).as_millis_f64(), 2.8);
        assert_eq!(c.cost(Syscall::Select).as_millis_f64(), 1.8);
        assert_eq!(c.cost(Syscall::SetITimer).as_millis_f64(), 1.2);
        assert_eq!(c.cost(Syscall::GetTimeOfDay).as_millis_f64(), 0.7);
        assert_eq!(c.cost(Syscall::SigBlock).as_millis_f64(), 0.4);
        assert_eq!(c.cost(Syscall::Compute).as_millis_f64(), 3.0);
        for (i, s) in ALL_SYSCALLS.into_iter().enumerate() {
            assert_eq!(s.index(), i, "{s}");
        }
    }
}
