//! Golden hash table of the chaos harness: every workload × seed must
//! reproduce exactly the committed trace hash, trace-event count, span
//! hash and metrics-dump hash, in a fresh process, byte for byte.
//!
//! This is the oracle for any refactor of `crates/chaos` (and of every
//! layer underneath it): the table covers all four workloads — commit
//! store, ordered broadcast, commutative ops, durable recovery — over
//! seeds 1..=10, the store on the multicast data plane, and the store
//! under the hostile injector on the adversary corpus seeds. A change
//! that moves no row changed no simulated behaviour. Regenerate
//! deliberately with `UPDATE_GOLDEN=1 cargo test --test chaos_golden`.
//!
//! It is also the tier-1 smoke of the harness: `cargo test -q` runs one
//! full seeded scenario of every workload under faults, with every
//! oracle checked at quiesce.

mod golden;

use std::fmt::Write as _;

use chaos::{
    assert_all_passed, chaos_jobs, sweep, Bcast, Commute, Recovery, Report, ScenarioOptions, Store,
    Workload,
};

const HEADER: &str = "\
# Golden hashes of the chaos harness (tests/chaos_golden.rs).
# workload seed trace_hash trace_events span_hash metrics_fnv1a passed
";

/// Sweeps `seeds`, requires every run clean, and appends one table row
/// per seed under `label`.
fn rows<W: Workload>(
    table: &mut String,
    label: &str,
    wl: &W,
    seeds: &[u64],
    opts: &ScenarioOptions,
) -> Vec<Report<W::Extra>> {
    let reports = sweep(wl, seeds, opts, chaos_jobs());
    assert_all_passed(&reports);
    for r in &reports {
        writeln!(
            table,
            "{label} {} {:#018x} {} {:#018x} {:#018x} {}",
            r.seed,
            r.trace_hash,
            r.trace_events,
            r.metrics.span_hash,
            rdp::obs::fnv1a(r.metrics.to_json().as_bytes()),
            r.passed()
        )
        .expect("write to string");
    }
    reports
}

#[test]
fn chaos_hashes_match_the_golden_table() {
    let mut table = String::from(HEADER);

    let ten: Vec<u64> = (1..=10).collect();

    // The harness smoke test rides along: passing runs that did real work.
    for r in rows(&mut table, "store", &Store, &ten, &Store::options()) {
        assert!(r.extra.commits > 0, "seed {}: nothing committed", r.seed);
        assert!(r.faults > 0, "seed {}: plan scheduled no faults", r.seed);
    }
    let multicast = ScenarioOptions {
        multicast_small_calls: true,
        ..Store::options()
    };
    rows(
        &mut table,
        "store+multicast",
        &Store,
        &[1, 4, 7, 10],
        &multicast,
    );
    let adversarial = ScenarioOptions {
        injector: Some(adversary::install_adversary),
        ..Store::options()
    };
    let corpus = adversary::corpus_seeds();
    rows(&mut table, "store+adversary", &Store, &corpus, &adversarial);
    rows(&mut table, "bcast", &Bcast, &ten, &Bcast::options());
    rows(&mut table, "commute", &Commute, &ten, &Commute::options());
    let recovery = Recovery::default();
    rows(
        &mut table,
        "recovery",
        &recovery,
        &ten,
        &Recovery::options(),
    );

    golden::check_golden("tests/golden/chaos_hashes.txt", &table);
}
