//! The recovery chaos sweep: durable members on hostile disks, one
//! crash mid-commit per run, log-replay rejoin with delta catch-up —
//! the full durability story under oracle enforcement.
//!
//! `CHAOS_SEED=<n>` replays a single seed; the default sweep covers ten.

use chaos::{assert_all_passed, chaos_jobs, run, sweep, sweep_seeds, Recovery, Workload};

#[test]
fn recovery_sweep_with_hostile_disks() {
    // Disk faults armed (transient write errors, torn tails and bit
    // flips at crash) on every seed: recovery must come out clean no
    // matter what the disk did to the log.
    let seeds = sweep_seeds(1..11);
    let reports = sweep(
        &Recovery::default(),
        &seeds,
        &Recovery::options(),
        chaos_jobs(),
    );
    assert_all_passed(&reports);
    for r in &reports {
        assert!(
            r.extra.recovery.is_some(),
            "seed {}: the recovered member never ran disk recovery",
            r.seed
        );
        assert!(
            r.extra.mttr.is_some(),
            "seed {}: the recovered member never rejoined",
            r.seed
        );
    }
}

#[test]
fn recovery_replays_the_local_log() {
    // The crash lands halfway through the workload, so the recovered
    // member must find real history on its disk — a snapshot, replayed
    // records, or both — rather than booting empty.
    let r = run(&Recovery::default(), 2, &Recovery::options());
    assert!(r.passed(), "{}", r.failure_summary());
    let info = r.extra.recovery.expect("recovery ran");
    assert!(
        info.snapshot_version > 0 || info.replayed > 0,
        "nothing recovered from disk: {info:?}"
    );
}

#[test]
fn faultless_disks_lose_nothing() {
    // Every commit record is fsynced before the member acknowledges, so
    // with fault injection off the crash can tear nothing.
    let faultless = Recovery {
        disk_faults: false,
        ..Recovery::default()
    };
    let r = run(&faultless, 3, &Recovery::options());
    assert!(r.passed(), "{}", r.failure_summary());
    let info = r.extra.recovery.expect("recovery ran");
    assert_eq!(info.torn_bytes, 0, "faultless disk tore the log: {info:?}");
}

#[test]
fn delta_catchup_moves_fewer_bytes_than_full_state() {
    // The recovered member's node sends its replayed log head with the
    // fetch and gets back only the commits past it: strictly fewer bytes
    // than a survivor's whole state at the crash. That saving is the
    // point of keeping the log.
    let r = run(&Recovery::default(), 5, &Recovery::options());
    assert!(r.passed(), "{}", r.failure_summary());
    let r = r.extra;
    assert_eq!(
        (r.delta_fetches, r.full_fetches),
        (1, 0),
        "the rejoin did not use the delta path"
    );
    assert!(r.full_state_bytes > 0, "the survivors held no state");
    assert!(
        r.recovery_bytes < r.full_state_bytes,
        "delta rejoin moved {} bytes, the whole state is {}",
        r.recovery_bytes,
        r.full_state_bytes
    );
}

#[test]
fn same_seed_same_recovery_run() {
    // Durability is inside the determinism contract: disk costs, fault
    // draws, replay, and catch-up must all replay bit-identically.
    let a = run(&Recovery::default(), 7, &Recovery::options());
    let b = run(&Recovery::default(), 7, &Recovery::options());
    assert_eq!(a.trace_hash, b.trace_hash, "trace hashes diverged");
    assert_eq!(a.metrics, b.metrics, "metrics diverged");
    assert_eq!(a.extra.mttr, b.extra.mttr);
    assert_eq!(a.extra.recovery_bytes, b.extra.recovery_bytes);
    assert_eq!(a.extra.commits, b.extra.commits);
}
