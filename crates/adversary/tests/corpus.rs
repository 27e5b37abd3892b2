//! Regression corpus replay: every seed in `tests/corpus/adversary.seeds`
//! runs a full adversarial chaos scenario and must hold every oracle.
//!
//! Each body runs under `catch_unwind` so the no-panic oracle is explicit:
//! a panic anywhere in the stack (decode path, endpoint, node, scenario)
//! is reported as a corpus failure with its seed, not as a bare abort.

use adversary::{check_adversary, corpus_seeds, install_adversary};
use chaos::{run, ScenarioOptions, Store};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn corpus_replays_green() {
    let opts = ScenarioOptions {
        injector: Some(install_adversary),
        ..ScenarioOptions::default()
    };
    let mut failures = Vec::new();
    let mut reports = Vec::new();
    for seed in corpus_seeds() {
        match catch_unwind(AssertUnwindSafe(|| run(&Store, seed, &opts))) {
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "<non-string panic>".into());
                failures.push(format!("corpus seed {seed} PANICKED: {msg}"));
            }
            Ok(r) => {
                if !r.passed() {
                    failures.push(r.failure_summary());
                }
                for v in check_adversary(&r) {
                    failures.push(format!("corpus seed {seed}: {v}"));
                }
                reports.push(r);
            }
        }
    }
    assert!(
        failures.is_empty(),
        "corpus replay failed:\n{}",
        failures.join("\n")
    );
    // The corpus must keep covering the PR-4 decode-fix class: at least
    // one seed has to drive the segment-position generator.
    let badpos: u64 = reports
        .iter()
        .map(|r| r.metrics.get("adv.gen.badpos"))
        .sum();
    assert!(badpos > 0, "no corpus seed exercised adv.gen.badpos");
    for r in &reports {
        eprintln!(
            "corpus seed {:>3}: injected={:<4} rejected={:<4} accepted={:<4} trace {:#018x}",
            r.seed,
            r.metrics.get("adv.injected"),
            r.metrics.get("adv.rejected"),
            r.metrics.get("adv.accepted"),
            r.trace_hash,
        );
    }
}
