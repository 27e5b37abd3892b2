//! BENCH_7: crash recovery — MTTR and bytes over the network.
//!
//! The durable store writes a per-member commit log and snapshots to an
//! in-sim disk; after a crash the member replays locally and rejoins by
//! fetching only the *delta* of commits it missed. This experiment runs
//! the recovery chaos scenario over a grid of workload lengths (log
//! length proxy) × snapshot intervals. One [`Cell`] per run: simulated
//! MTTR (crash to the registry showing full strength with the recovered
//! member in it), bytes of the state-fetch reply (`recovery_bytes`)
//! beside a survivor's whole state at the crash (`full_state_bytes`),
//! and what the member found on its disk (`log_bytes`, `replayed`,
//! `deduped`, `snapshot_version`), plus what durability cost the members
//! that did not crash: the bytes the two survivors wrote to their disks
//! per commit (`disk_bytes_per_commit`).
//!
//! Every field is a pure function of the seed and the cell options.
//! Disks are faultless here (the chaos recovery sweep covers hostile
//! disks) so the curves show the protocol's cost, not the fault
//! stream's.
//!
//! [`claim`] is the reason the log exists, and what it may cost: with a
//! non-empty log, the delta rejoin (`get_state_since`) moves strictly
//! fewer bytes over the network than the whole state; and with
//! checkpoints on, the disk bytes written per commit do not grow with the
//! length of the run.

use std::fmt::Write as _;

use chaos::{run, Recovery, ScenarioOptions};
use transactions::RecoveryInfo;

/// The one seed the grid runs under: the curves compare cells, not
/// seeds, so one fixed seed keeps every record deterministic.
const SEED: u64 = 11;

/// One recovery run.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Transactions each client submits: the log-length proxy.
    pub txns_per_client: usize,
    /// Commits between snapshots (0: never, the log keeps everything).
    pub snapshot_every: usize,
    /// Simulated crash-to-full-strength time.
    pub mttr_us: u64,
    /// Bytes of the state-fetch reply.
    pub recovery_bytes: u64,
    /// Bytes of a survivor's whole state at the crash.
    pub full_state_bytes: u64,
    /// What the member found on its disk and replayed.
    pub disk: RecoveryInfo,
    /// Transactions committed over the whole run.
    pub commits: usize,
    /// Bytes the surviving members wrote to disk, per commit.
    pub disk_bytes_per_commit: f64,
    /// Whether every oracle passed.
    pub passed: bool,
}

fn cell(txns_per_client: usize, snapshot_every: usize) -> Cell {
    let workload = Recovery {
        snapshot_every,
        disk_faults: false,
    };
    let opts = ScenarioOptions {
        txns_per_client,
        ..ScenarioOptions::default()
    };
    let r = run(&workload, SEED, &opts);
    Cell {
        txns_per_client,
        snapshot_every,
        mttr_us: r.extra.mttr.map_or(0, |d| d.as_micros()),
        recovery_bytes: r.extra.recovery_bytes,
        full_state_bytes: r.extra.full_state_bytes,
        disk: r.extra.recovery.unwrap_or_default(),
        commits: r.extra.commits,
        disk_bytes_per_commit: r.extra.survivor_disk_bytes as f64 / r.extra.commits.max(1) as f64,
        passed: r.passed(),
    }
}

/// Workload length × snapshot interval.
pub fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for txns in [16, 32, 64] {
        for snapshot_every in [0, 4, 16] {
            cells.push(cell(txns, snapshot_every));
        }
    }
    cells
}

/// `BENCH_7.json`: one record per cell.
pub fn json(cells: &[Cell]) -> String {
    let mut out = String::new();
    for c in cells {
        let _ = writeln!(
            out,
            "{{\"experiment\":\"bench7\",\"section\":\"recovery\",\
             \"seed\":{SEED},\"txns_per_client\":{},\"snapshot_every\":{},\
             \"mttr_us\":{},\"recovery_bytes\":{},\"full_state_bytes\":{},\"log_bytes\":{},\
             \"replayed\":{},\"deduped\":{},\"snapshot_version\":{},\
             \"torn_bytes\":{},\"commits\":{},\"disk_bytes_per_commit\":{:.1},\
             \"passed\":{}}}",
            c.txns_per_client,
            c.snapshot_every,
            c.mttr_us,
            c.recovery_bytes,
            c.full_state_bytes,
            c.disk.log_bytes,
            c.disk.replayed,
            c.disk.deduped,
            c.disk.snapshot_version,
            c.disk.torn_bytes,
            c.commits,
            c.disk_bytes_per_commit,
            c.passed,
        );
    }
    out
}

/// How much `disk_bytes_per_commit` may rise from the shortest run to the
/// longest at one checkpoint interval. The image grows a little as more
/// objects get touched (≈ 4 % over this grid); re-writing history at every
/// checkpoint, as the log did before it became append-only, doubles it.
const FLAT: f64 = 1.25;

/// Every cell ran clean; wherever a member recovered from a non-empty
/// log its delta rejoin moved strictly fewer bytes than a survivor's
/// whole state at the crash; and wherever checkpoints are on, a
/// survivor's disk bytes per commit stay flat as the run grows.
pub fn claim(cells: &[Cell]) -> Result<String, String> {
    if let Some(c) = cells.iter().find(|c| !c.passed) {
        return Err(format!("a recovery cell failed its oracles: {c:?}"));
    }
    let mut checked = Vec::new();
    for c in cells.iter().filter(|c| c.disk.log_bytes > 0) {
        if c.recovery_bytes >= c.full_state_bytes {
            return Err(format!(
                "delta rejoin moved {} bytes, not strictly below the whole state's {} \
                 ({} txns/client, snapshot every {})",
                c.recovery_bytes, c.full_state_bytes, c.txns_per_client, c.snapshot_every
            ));
        }
        checked.push(format!(
            "{} < {} B after a {}-byte log",
            c.recovery_bytes, c.full_state_bytes, c.disk.log_bytes
        ));
    }
    if checked.is_empty() {
        return Err("no cell recovered from a non-empty log — nothing was measured".into());
    }
    let mut intervals: Vec<usize> = cells
        .iter()
        .filter(|c| c.snapshot_every > 0)
        .map(|c| c.snapshot_every)
        .collect();
    intervals.sort_unstable();
    intervals.dedup();
    let mut flat = Vec::new();
    for every in intervals {
        let runs = || cells.iter().filter(|c| c.snapshot_every == every);
        let short = runs().min_by_key(|c| c.txns_per_client).expect("non-empty");
        let long = runs().max_by_key(|c| c.txns_per_client).expect("non-empty");
        if short.txns_per_client == long.txns_per_client {
            continue;
        }
        if long.disk_bytes_per_commit > FLAT * short.disk_bytes_per_commit {
            return Err(format!(
                "disk bytes per commit grow with the run at snapshot every {every}: {:.1} at {} \
                 txns/client, {:.1} at {}",
                short.disk_bytes_per_commit,
                short.txns_per_client,
                long.disk_bytes_per_commit,
                long.txns_per_client
            ));
        }
        flat.push(format!(
            "{:.1} → {:.1} B/commit every {every}",
            short.disk_bytes_per_commit, long.disk_bytes_per_commit
        ));
    }
    if flat.is_empty() {
        return Err("no checkpointing interval ran at two lengths — flatness unmeasured".into());
    }
    Ok(format!(
        "delta rejoin beats the whole state: {}; disk cost flat from shortest to longest run: {}",
        checked.join(", "),
        flat.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run that recovered from a log, moving `delta_bytes` against a
    /// whole state of `full_bytes`, and two checkpointing runs of
    /// different lengths with the given disk costs.
    fn cells(delta_bytes: u64, full_bytes: u64, log_bytes: usize, disk: [f64; 2]) -> [Cell; 3] {
        let logged = Cell {
            txns_per_client: 16,
            snapshot_every: 0,
            mttr_us: 1,
            recovery_bytes: delta_bytes,
            full_state_bytes: full_bytes,
            disk: RecoveryInfo {
                log_bytes,
                ..RecoveryInfo::default()
            },
            commits: 34,
            disk_bytes_per_commit: 99.3,
            passed: true,
        };
        let checkpointing = |txns_per_client, disk_bytes_per_commit| Cell {
            txns_per_client,
            snapshot_every: 4,
            disk: RecoveryInfo::default(),
            disk_bytes_per_commit,
            ..logged
        };
        [
            logged,
            checkpointing(16, disk[0]),
            checkpointing(64, disk[1]),
        ]
    }

    #[test]
    fn claim_fires_on_each_violation() {
        const FLAT_DISK: [f64; 2] = [177.4, 184.7];
        assert!(claim(&cells(10, 112, 816, FLAT_DISK)).is_ok());
        assert!(
            claim(&cells(112, 112, 816, FLAT_DISK)).is_err(),
            "delta not below the whole state"
        );
        assert!(
            claim(&cells(10, 112, 0, FLAT_DISK)).is_err(),
            "empty log measures nothing"
        );
        let mut failed = cells(10, 112, 816, FLAT_DISK);
        failed[1].passed = false;
        assert!(claim(&failed).is_err(), "a cell failed its oracles");
        // What the whole-ledger snapshots of the parent commit measured.
        assert!(
            claim(&cells(10, 112, 816, [284.0, 722.2])).is_err(),
            "disk bytes per commit grow with the run"
        );
        assert!(
            claim(&cells(10, 112, 816, FLAT_DISK)[..2]).is_err(),
            "one run length measures no growth"
        );
    }
}
