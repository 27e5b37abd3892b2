//! Adversarial fuzz sweeps: full chaos scenarios with a live hostile
//! injector, checked against the five chaos oracles plus the three
//! adversary oracles on every seed.
//!
//! `CHAOS_SEED=n` replays one seed; `ADV_FULL=1` widens the unicast
//! sweep to 100 seeds (CI runs this in release); `CHAOS_JOBS=n` caps
//! the worker threads.
//!
//! `ADV_SEED_BASE=n` offsets the full sweep's seed range to
//! `n+1..n+101`. `scripts/check.sh` derives it from the committed
//! epoch counter in `tests/corpus/seed_epoch`, so the CI fuzz sweep
//! rotates into fresh seed territory whenever the epoch is bumped
//! instead of replaying the same 100 seeds forever — seeds that found
//! bugs are pinned in `tests/corpus/adversary.seeds` regardless.

use adversary::{check_adversary, install_adversary};
use chaos::{chaos_jobs, run, sweep_seeds, ScenarioOptions, Store};

fn adversarial_options(multicast: bool) -> ScenarioOptions {
    ScenarioOptions {
        multicast_small_calls: multicast,
        injector: Some(install_adversary),
        ..ScenarioOptions::default()
    }
}

fn sweep(seeds: &[u64], opts: &ScenarioOptions) {
    let reports = chaos::sweep(&Store, seeds, opts, chaos_jobs());
    let mut failures = Vec::new();
    let (mut injected_total, mut please_acks) = (0u64, 0u64);
    for r in &reports {
        injected_total += r.metrics.get("adv.injected");
        please_acks += r.metrics.get("adv.gen.pleaseack");
        if !r.passed() {
            failures.push(r.failure_summary());
        }
        for v in check_adversary(r) {
            failures.push(format!("seed {}: {v}", r.seed));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} adversarial seeds failed:\n{}",
        failures.len(),
        seeds.len(),
        failures.join("\n")
    );
    assert!(injected_total > 0, "injector never fired across the sweep");
    assert!(
        please_acks > 0,
        "no please-ack duplicate was forged across the sweep"
    );
}

/// Where the full sweep's seed range starts: `ADV_SEED_BASE`, or 0.
fn seed_base() -> u64 {
    match std::env::var("ADV_SEED_BASE") {
        Ok(s) => s
            .trim()
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("ADV_SEED_BASE must be a u64, got {s:?}")),
        Err(_) => 0,
    }
}

#[test]
fn adversarial_sweep_unicast() {
    let range = if std::env::var("ADV_FULL").is_ok() {
        let base = seed_base();
        base + 1..base + 101
    } else {
        1..11
    };
    let seeds = sweep_seeds(range);
    sweep(&seeds, &adversarial_options(false));
}

#[test]
fn adversarial_sweep_multicast() {
    let seeds = sweep_seeds(1..11);
    sweep(&seeds, &adversarial_options(true));
}

/// Injection is part of the deterministic event order: two runs of the
/// same seed must agree bit-for-bit on the trace hash, the full metrics
/// dump, and the span tree hash.
#[test]
fn same_seed_injection_is_bit_deterministic() {
    let opts = adversarial_options(false);
    let a = run(&Store, 7, &opts);
    let b = run(&Store, 7, &opts);
    assert_eq!(a.trace_hash, b.trace_hash, "trace hash diverged");
    assert_eq!(a.trace_events, b.trace_events, "event count diverged");
    assert_eq!(a.metrics, b.metrics, "metrics diverged");
    assert!(
        a.metrics.get("adv.injected") > 0,
        "determinism check must exercise the injector"
    );
}
