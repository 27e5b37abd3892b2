//! The critical-path ledger adds up (`bench::budget`): every operation of
//! every rig decomposes into cells that sum to its latency exactly, the
//! member-bound rigs' median operations are member CPU, and a planted
//! millisecond moves exactly the cell it was planted in.

use bench::budget::{self, Cell, Role, RIGS};
use rdp::simnet::{Duration, Syscall};

/// `Budget::cells` panics unless the cells sum to the latency: so every
/// operation of every rig is walked, and none of a fault-free rig's
/// reaches back past its own client to an event the world made.
#[test]
fn every_operation_of_every_rig_sums_to_its_latency() {
    for &(name, rig) in RIGS {
        let m = rig();
        assert!(m.ops.len() > 10, "{name}: {} operations", m.ops.len());
        for i in 0..m.ops.len() {
            let b = m.budget(i);
            if name != "chaos_faults" {
                assert_eq!(b.get(Cell::Untraced), Duration::ZERO, "{name} op {i}");
            }
        }
    }
}

/// A closed-loop client's operation ends in its receive of the last
/// return it needed: a `select` (1.8 ms), a `recvmsg` (2.8) under
/// `sigblock` (0.4), and one stub pass (3.0).
fn one_receive() -> Duration {
    Duration::from_micros(1_800 + 2_800 + 400 + 3_000)
}

/// Four closed-loop clients on one troupe wait for the members: the
/// median broadcast and the median commit are four members' budgets
/// (`tests/stub_passes.rs` adds those up by hand: 38.2 and ≈ 43.2 ms),
/// and the ledger finds member CPU on all of the path but the wire and
/// the client's receives: its last, and on a commit the vote it serves.
#[test]
fn the_median_broadcast_and_commit_are_member_cpu() {
    for (m, budget_ms, within_ms) in [
        (budget::ordered_bcast(), 38.2, 0.05),
        (budget::commit_contended(), 43.2, 0.01 * 4.0 * 43.2),
    ] {
        let b = m.budget(m.median());
        let latency = b.op.latency();
        let ms = latency.as_millis_f64();
        assert!((ms - 4.0 * budget_ms).abs() < within_ms, "{ms} ms: {b:?}");
        let client = b.role(Role::Client);
        let receives = client.as_micros() / one_receive().as_micros();
        assert!((1..=2).contains(&receives), "{b:?}");
        assert_eq!(client.as_micros() % one_receive().as_micros(), 0, "{b:?}");
        let wire = b.get(Cell::Wire);
        assert!(wire < Duration::from_millis(1), "{b:?}");
        assert_eq!(b.role(Role::Member) + client + wire, latency);
    }
}

/// One more millisecond of `Compute` in every handler run of the n = 1
/// client, which receives one datagram a call, moves its operations'
/// latency by exactly that, and the client's `compute` cell alone.
#[test]
fn a_planted_millisecond_moves_exactly_the_cells_on_its_path() {
    let base = budget::table_4_1();
    let planted = budget::table_4_1_planted(Duration::from_millis(1));
    assert_eq!(base.ops.len(), planted.ops.len());
    let compute = Cell::cpu(Role::Client, Syscall::Compute);
    for i in 0..base.ops.len() {
        let (before, after) = (base.budget(i), planted.budget(i));
        let mut moved = before.cells.clone();
        *moved.get_mut(&compute).expect("the client computes") += Duration::from_millis(1);
        assert_eq!(after.cells, moved, "op {i}");
    }
}
