//! Thin read-only views assembled from registry values.
//!
//! The registry is the single source of truth: the simulator adds every
//! datagram to the `net.*` counters and every CPU charge to the
//! `cpu.<addr>.*` ones as it happens, and a view is a point-in-time
//! snapshot built *from* them, offered for ergonomic field access in
//! tests and reports. Views carry plain integers (µs, counts); callers
//! convert domain types (sim `Duration`, `Syscall` indices) at the
//! boundary.

/// Snapshot of the network-layer counters (`net.*` keys).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetView {
    /// Datagrams accepted by the network (one per destination).
    pub sent: u64,
    /// Datagrams that reached a live process.
    pub delivered: u64,
    /// Datagrams taken by the random loss model.
    pub lost: u64,
    /// Extra copies scheduled by the duplication model.
    pub duplicated: u64,
    /// Datagrams dropped at a partition boundary.
    pub partitioned: u64,
    /// Datagrams to a dead host / unbound port.
    pub undeliverable: u64,
    /// Datagrams larger than the MTU, dropped at the sender.
    pub oversize: u64,
    /// Multicast operations (one op may send many datagrams).
    pub multicasts: u64,
    /// Port-unreachable notices that reached their senders.
    pub unreachable: u64,
}

/// Snapshot of one process's CPU account (`cpu.<addr>.*` keys).
///
/// Times are simulated microseconds. Per-syscall slots are indexed by
/// the syscall's stable index (`Syscall::index()` in the simulator);
/// the view itself is index-agnostic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CpuView {
    /// Time charged to user-mode work.
    pub user_us: u64,
    /// Time charged to kernel-mode work (syscalls).
    pub kernel_us: u64,
    /// Per-syscall time, by stable syscall index.
    pub times_us: Vec<u64>,
    /// Per-syscall invocation counts, by stable syscall index.
    pub counts: Vec<u64>,
}

impl CpuView {
    /// Total charged time in µs.
    pub fn total_us(&self) -> u64 {
        self.user_us + self.kernel_us
    }

    /// Total charged time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_us() as f64 / 1000.0
    }

    /// User-mode time in milliseconds.
    pub fn user_ms(&self) -> f64 {
        self.user_us as f64 / 1000.0
    }

    /// Kernel-mode time in milliseconds.
    pub fn kernel_ms(&self) -> f64 {
        self.kernel_us as f64 / 1000.0
    }

    /// Time spent in the syscall with stable index `idx`, in µs.
    pub fn time_in_us(&self, idx: usize) -> u64 {
        self.times_us.get(idx).copied().unwrap_or(0)
    }

    /// Invocations of the syscall with stable index `idx`.
    pub fn count_of(&self, idx: usize) -> u64 {
        self.counts.get(idx).copied().unwrap_or(0)
    }

    /// Fraction of total charged time spent in syscall `idx` (0.0 when
    /// nothing has been charged).
    pub fn fraction_of(&self, idx: usize) -> f64 {
        let total = self.total_us();
        if total == 0 {
            0.0
        } else {
            self.time_in_us(idx) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_view_fractions() {
        let v = CpuView {
            user_us: 1_000,
            kernel_us: 3_000,
            times_us: vec![500, 2_500],
            counts: vec![1, 5],
        };
        assert_eq!(v.total_us(), 4_000);
        assert!((v.total_ms() - 4.0).abs() < 1e-9);
        assert!((v.fraction_of(1) - 0.625).abs() < 1e-9);
        assert_eq!(v.count_of(1), 5);
        assert_eq!(v.count_of(9), 0);
        assert_eq!(CpuView::default().fraction_of(0), 0.0);
    }
}
