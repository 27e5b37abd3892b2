//! BENCH_7: crash recovery — MTTR and bytes over the network.
//!
//! The durable store writes a per-member commit log and snapshots to an
//! in-sim disk; after a crash the member replays locally and rejoins by
//! fetching only the *delta* of commits it missed. This benchmark runs
//! the recovery chaos scenario over a grid of workload lengths (log
//! length proxy) × snapshot intervals, in both rejoin modes, and emits
//! one JSON record per cell (the BENCH_4/5/6 one-record-per-line
//! convention):
//!
//! - `section: "recovery"` — per-cell: simulated MTTR (crash to the
//!   registry showing full strength with the recovered member in it),
//!   bytes of the state-fetch reply (`recovery_bytes`), and what the
//!   member found on its disk (`log_bytes`, `replayed`, `deduped`,
//!   `snapshot_version`). `mode` is `"delta"` (`get_state_since`) or
//!   `"full"` (whole-state transfer).
//!
//! Every field except `wall_ms` is a pure function of the seed and the
//! cell options — byte-stable across reruns. Disks are faultless here
//! (the chaos recovery sweep covers hostile disks) so the curves show
//! the protocol's cost, not the fault stream's.
//!
//! `repro --gate bench7` checks the reason the log exists: with a
//! non-empty log, the delta rejoin must move strictly fewer bytes over
//! the network than the full state transfer.

use std::fmt::Write as _;
use std::time::Instant;

use chaos::{run, Recovery, ScenarioOptions};

/// The one seed the grid runs under: the curves compare cells, not
/// seeds, so one fixed seed keeps every record deterministic.
const SEED: u64 = 11;

/// Runs one cell and appends its record.
fn cell(out: &mut String, txns: usize, snapshot_every: usize, use_delta: bool) {
    let workload = Recovery {
        snapshot_every,
        use_delta,
        disk_faults: false,
    };
    let opts = ScenarioOptions {
        txns_per_client: txns,
        ..ScenarioOptions::default()
    };
    let t0 = Instant::now();
    let r = run(&workload, SEED, &opts);
    let wall = t0.elapsed();
    let mode = if use_delta { "delta" } else { "full" };
    let mttr_us = r.extra.mttr.map_or(0, |d| d.as_micros());
    let (log_bytes, replayed, deduped, snap_v, torn) =
        r.extra.recovery.map_or((0, 0, 0, 0, 0), |i| {
            (
                i.log_bytes,
                i.replayed,
                i.deduped,
                i.snapshot_version,
                i.torn_bytes,
            )
        });
    let _ = writeln!(
        out,
        "{{\"experiment\":\"bench7\",\"section\":\"recovery\",\"mode\":\"{mode}\",\
         \"seed\":{SEED},\"txns_per_client\":{txns},\"snapshot_every\":{snapshot_every},\
         \"mttr_us\":{mttr_us},\"recovery_bytes\":{},\"log_bytes\":{log_bytes},\
         \"replayed\":{replayed},\"deduped\":{deduped},\"snapshot_version\":{snap_v},\
         \"torn_bytes\":{torn},\"commits\":{},\"passed\":{},\"wall_ms\":{:.2}}}",
        r.extra.recovery_bytes,
        r.extra.commits,
        r.passed(),
        wall.as_secs_f64() * 1e3,
    );
}

/// Builds the full BENCH_7 report. `quick` shrinks the grid; each cell
/// is identical to its full-grid counterpart.
pub fn bench_7_json(quick: bool) -> String {
    let mut out = String::new();
    let txns: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64] };
    let snaps: &[usize] = if quick { &[0, 8] } else { &[0, 4, 16] };
    for &t in txns {
        for &s in snaps {
            cell(&mut out, t, s, true);
            cell(&mut out, t, s, false);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_deterministic() {
        let mut a = String::new();
        let mut b = String::new();
        cell(&mut a, 16, 8, true);
        cell(&mut b, 16, 8, true);
        // Everything but the wall clock must be byte-identical.
        let strip = |s: &str| s[..s.find(",\"wall_ms\"").expect("record has wall_ms")].to_string();
        assert_eq!(strip(&a), strip(&b));
        assert!(a.contains("\"passed\":true"), "cell failed: {a}");
    }

    #[test]
    fn delta_cell_beats_full_cell() {
        let mut delta = String::new();
        let mut full = String::new();
        cell(&mut delta, 16, 0, true);
        cell(&mut full, 16, 0, false);
        let bytes = |s: &str| {
            let i = s.find("\"recovery_bytes\":").expect("field") + "\"recovery_bytes\":".len();
            s[i..][..s[i..].find(',').expect("comma")]
                .parse::<u64>()
                .expect("number")
        };
        assert!(
            bytes(&delta) < bytes(&full),
            "delta {} !< full {}",
            bytes(&delta),
            bytes(&full)
        );
    }
}
