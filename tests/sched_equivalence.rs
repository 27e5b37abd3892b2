//! Scheduler equivalence: the timer wheel is bit-identical to the heap.
//!
//! The PR that replaced `simnet::World`'s `BinaryHeap` event queue with
//! the hierarchical timer wheel (`simnet::sched`) is only correct if no
//! workload can tell the difference. These tests replay the heaviest
//! deterministic workloads in the repo — the 10-seed chaos sweep (both
//! data planes) and the adversarial regression corpus — once on each
//! scheduler (`chaos` is built with its test-only `heap_sched` feature
//! here) and assert the complete observable state matches: trace hash
//! over *every* simulator event, trace tail sample, event counts, the
//! full metrics dump, and the span forest.

use chaos::{heap_world, run, run_in, ScenarioOptions, Store};

/// Asserts two runs of `seed` (wheel vs heap) are observationally
/// identical, down to the bytes of the metrics dump.
fn assert_equivalent(seed: u64, opts: &ScenarioOptions, label: &str) {
    let wheel = run(&Store, seed, opts);
    let heap = run_in(&Store, heap_world(seed), seed, opts);
    assert_eq!(
        wheel.trace_hash, heap.trace_hash,
        "{label} seed {seed}: trace hash diverged (wheel {:#x} vs heap {:#x})",
        wheel.trace_hash, heap.trace_hash
    );
    assert_eq!(
        wheel.trace_events, heap.trace_events,
        "{label} seed {seed}: traced event count diverged"
    );
    assert_eq!(
        wheel.trace_sample, heap.trace_sample,
        "{label} seed {seed}: trace tail diverged"
    );
    assert_eq!(
        wheel.metrics_json, heap.metrics_json,
        "{label} seed {seed}: metrics dump diverged"
    );
    assert_eq!(
        wheel.span_hash, heap.span_hash,
        "{label} seed {seed}: span forest diverged"
    );
    assert!(
        wheel.passed() && heap.passed(),
        "{label} seed {seed}: oracles failed (wheel: {:?}, heap: {:?})",
        wheel.violations,
        heap.violations
    );
}

#[test]
fn chaos_sweep_matches_heap_bit_for_bit() {
    let opts = ScenarioOptions::default();
    for seed in 1..=10 {
        assert_equivalent(seed, &opts, "chaos");
    }
}

#[test]
fn multicast_sweep_matches_heap_bit_for_bit() {
    let opts = ScenarioOptions {
        multicast_small_calls: true,
        ..ScenarioOptions::default()
    };
    for seed in [1, 4, 7, 10] {
        assert_equivalent(seed, &opts, "chaos(multicast)");
    }
}

#[test]
fn adversary_corpus_matches_heap_bit_for_bit() {
    let opts = ScenarioOptions {
        injector: Some(adversary::install_adversary),
        ..ScenarioOptions::default()
    };
    for seed in adversary::corpus_seeds() {
        assert_equivalent(seed, &opts, "adversary corpus");
    }
}
