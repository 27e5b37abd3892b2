//! A garbled datagram is a lost datagram (§2.2), and a lost datagram is
//! no sign of life: it opens no paired-message connection and lifts no
//! dead-peer marker. A flood of them, each from a port of its own, leaves
//! a member's state as it found it.

use rdp::circus::census::CONNECTIONS;
use rdp::circus::testbed::{addr, node, spawn_troupe, world, CountingService, MODULE};
use rdp::circus::{NodeConfig, TroupeId};
use rdp::simnet::{Duration, Until};

/// Datagrams in the flood, one per source port.
const FLOOD: u16 = 1_000;

#[test]
fn a_garbled_flood_opens_no_connection() {
    let mut w = world(1985);
    let member = addr(1, 70);
    spawn_troupe(
        &mut w,
        TroupeId(7),
        &[member],
        MODULE,
        &NodeConfig::default(),
        None,
        CountingService::default,
    );
    // Twelve bytes: shorter than a segment header, so none decodes.
    for port in 0..FLOOD {
        w.inject_datagram(addr(9, 1_000 + port), member, &[0xA5u8; 12][..]);
    }
    w.run(Until::Elapsed(Duration::from_secs(600)));
    let connections = node(&w, member, |n| n.census())
        .into_iter()
        .find(|&(label, _)| label == CONNECTIONS)
        .map(|(_, count)| count);
    assert_eq!(connections, Some(0));
    assert_eq!(
        w.metrics().get("adv.rejected"),
        u64::from(FLOOD),
        "every garbled datagram is counted as refused"
    );
}
