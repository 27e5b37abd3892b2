//! The network model.
//!
//! The paper assumes (§2.2) a local-area network in which packets "may be
//! lost, delayed, duplicated, or garbled", with garbled packets converted
//! to lost ones by checksums, and notes that most LANs also support
//! multicast. This module captures exactly that: a broadcast medium with
//! configurable base latency, per-byte transmission time, exponential
//! jitter, loss and duplication probabilities, and network partitions.

use crate::process::HostId;
use crate::time::Duration;

/// Largest datagram the testbed's 10 Mbit/s Ethernet carries in one frame,
/// in bytes (§4.4.1). Named once: [`NetConfig::lan_1985`] drops anything
/// larger, and `pairedmsg::Config::default()` sizes its segments to fill
/// exactly this, because Table 4.2 charges per datagram, not per byte.
pub const ETHERNET_MTU: usize = 1500;

/// Parameters of the simulated network.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Fixed propagation plus protocol-stack latency per datagram.
    pub base_latency: Duration,
    /// Transmission time charged per payload byte (10 Mbit/s Ethernet
    /// ≈ 0.8 µs/byte).
    pub per_byte_ns: u64,
    /// Mean of the exponential jitter added to each delivery
    /// (zero disables jitter).
    pub jitter_mean: Duration,
    /// Probability that a datagram is silently dropped.
    pub loss: f64,
    /// Probability that a delivered datagram is delivered twice.
    pub duplicate: f64,
    /// Maximum datagram size in bytes; larger sends are dropped
    /// (the sender should have segmented them).
    pub mtu: usize,
}

impl NetConfig {
    /// A model of the paper's testbed: six VAXen on one lightly loaded
    /// 10 Mbit/s Ethernet (§4.4.1). Latency is far below syscall cost, as
    /// the paper observes ("two orders of magnitude" below `sendmsg`,
    /// §4.4.2).
    pub fn lan_1985() -> NetConfig {
        NetConfig {
            base_latency: Duration::from_micros(500),
            per_byte_ns: 800,
            jitter_mean: Duration::from_micros(100),
            loss: 0.0,
            duplicate: 0.0,
            mtu: ETHERNET_MTU,
        }
    }

    /// A perfectly reliable, instantaneous network for pure-logic tests.
    pub fn ideal() -> NetConfig {
        NetConfig {
            base_latency: Duration::ZERO,
            per_byte_ns: 0,
            jitter_mean: Duration::ZERO,
            loss: 0.0,
            duplicate: 0.0,
            mtu: usize::MAX,
        }
    }

    /// A lossy variant of the 1985 LAN, for retransmission tests.
    pub fn lossy(loss: f64) -> NetConfig {
        NetConfig {
            loss,
            ..NetConfig::lan_1985()
        }
    }

    /// Transmission time of a datagram of `len` bytes, excluding jitter.
    ///
    /// The per-byte cost is accumulated in nanoseconds and rounded up to
    /// the simulator's microsecond tick only at the end, so sub-microsecond
    /// per-byte costs are not truncated away (a 1-byte datagram at
    /// 800 ns/byte takes 1 µs of wire time, not 0).
    pub fn latency_for(&self, len: usize) -> Duration {
        let wire_ns = len as u64 * self.per_byte_ns;
        self.base_latency + Duration::from_micros(wire_ns.div_ceil(1000))
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::lan_1985()
    }
}

/// A network partition: hosts can communicate only within their group.
///
/// Hosts not mentioned in any group share one residual group, so a
/// partition listing a single island isolates exactly that island from
/// everyone else.
#[derive(Clone, Debug, Default)]
pub struct Partition {
    groups: Vec<Vec<HostId>>,
}

impl Partition {
    /// No partition: everyone can talk to everyone.
    pub fn none() -> Partition {
        Partition { groups: Vec::new() }
    }

    /// Builds a partition from explicit groups. Hosts absent from every
    /// group share one residual group.
    pub fn groups(groups: Vec<Vec<HostId>>) -> Partition {
        Partition { groups }
    }

    /// Splits off one island; all other hosts remain mutually connected.
    pub fn isolate(hosts: Vec<HostId>) -> Partition {
        Partition {
            groups: vec![hosts],
        }
    }

    fn group_of(&self, h: HostId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&h))
    }

    /// Returns `true` if `a` and `b` can exchange datagrams.
    pub fn connected(&self, a: HostId, b: HostId) -> bool {
        if a == b {
            return true;
        }
        self.group_of(a) == self.group_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_includes_per_byte() {
        let net = NetConfig {
            base_latency: Duration::from_micros(100),
            per_byte_ns: 1000,
            ..NetConfig::ideal()
        };
        assert_eq!(net.latency_for(50), Duration::from_micros(150));
    }

    #[test]
    fn full_mtu_frame_at_10mbit() {
        // 1500 bytes at 10 Mbit/s (800 ns/byte) is exactly 1.2 ms of
        // transmission time on top of the base latency.
        let net = NetConfig::lan_1985();
        assert_eq!(
            net.latency_for(1500),
            Duration::from_micros(500) + Duration::from_micros(1200)
        );
    }

    #[test]
    fn sub_microsecond_per_byte_cost_not_truncated() {
        let net = NetConfig {
            base_latency: Duration::ZERO,
            per_byte_ns: 800,
            ..NetConfig::ideal()
        };
        // 1 byte = 800 ns: rounds up to one tick instead of vanishing.
        assert_eq!(net.latency_for(1), Duration::from_micros(1));
        // 10 bytes = 8000 ns = exactly 8 µs.
        assert_eq!(net.latency_for(10), Duration::from_micros(8));
        // 3 bytes = 2400 ns: rounds up to 3 µs, never down.
        assert_eq!(net.latency_for(3), Duration::from_micros(3));
    }

    #[test]
    fn no_partition_connects_all() {
        let p = Partition::none();
        assert!(p.connected(HostId(0), HostId(5)));
    }

    #[test]
    fn isolate_cuts_island_only() {
        let p = Partition::isolate(vec![HostId(2)]);
        assert!(!p.connected(HostId(2), HostId(0)));
        assert!(p.connected(HostId(0), HostId(1)));
        assert!(p.connected(HostId(2), HostId(2)));
    }

    #[test]
    fn explicit_groups() {
        let p = Partition::groups(vec![vec![HostId(0), HostId(1)], vec![HostId(2), HostId(3)]]);
        assert!(p.connected(HostId(0), HostId(1)));
        assert!(p.connected(HostId(2), HostId(3)));
        assert!(!p.connected(HostId(1), HostId(2)));
        // Residual hosts share a group.
        assert!(p.connected(HostId(7), HostId(8)));
        assert!(!p.connected(HostId(7), HostId(0)));
    }

    #[test]
    fn lan_1985_is_fast_relative_to_syscalls() {
        let net = NetConfig::lan_1985();
        // One-way latency for a small packet must be well under sendmsg's
        // 8.1 ms, as the paper observes.
        assert!(net.latency_for(100).as_millis_f64() < 1.0);
    }
}
