//! Golden snapshot of the metrics registry: a fixed seed must dump to
//! exactly the committed JSON, byte for byte. Any change to metric
//! names, counter semantics, CPU costing, or the network model shows up
//! here as a diff — regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test --test metrics_golden`.
//!
//! And the metric catalogue: the key families that run and a chaos
//! `store` scenario emit, each documented in DESIGN.md.

mod golden;

use std::collections::BTreeSet;

use rdp::chaos::{self, Store, Workload};
use rdp::circus::testbed::{
    addr, enqueue, results, spawn_caller, spawn_troupe, CountingService, Request, MODULE, PROC_ADD,
};
use rdp::circus::{CollationPolicy, NodeConfig, TroupeId};
use rdp::obs::Snapshot;
use rdp::simnet::{Duration, World};
use rdp::wire::to_bytes;

#[test]
fn fixed_seed_metrics_dump_matches_golden() {
    golden::check_golden(
        "tests/golden/metrics_seed42.json",
        &metrics_seed42().to_json(),
    );
}

/// The metrics of a 3-member troupe answering three calls from one
/// client, back to back, at seed 42.
fn metrics_seed42() -> Snapshot {
    let mut w = World::new(42);
    let config = NodeConfig::default();
    let members = [addr(1, 70), addr(2, 70), addr(3, 70)];
    let troupe = spawn_troupe(
        &mut w,
        TroupeId(4),
        &members,
        MODULE,
        &config,
        None,
        CountingService::default,
    );
    let client = spawn_caller(&mut w, addr(10, 10), config, None);
    // Three calls back to back from one poke, so the second and third
    // each implicitly acknowledge the return before them.
    let add =
        Request::new(&troupe, MODULE, PROC_ADD, to_bytes(&1u32)).collate(CollationPolicy::Majority);
    enqueue(&mut w, client, vec![add; 3]);
    w.poke(client, 2);
    w.run(simnet::Until::Elapsed(Duration::from_secs(30)));
    let totals = results(&w, client);
    let expected: Vec<_> = (1..=3u32).map(|n| Ok(to_bytes(&n))).collect();
    assert_eq!(totals, expected, "three sequential calls");
    w.metrics().snapshot()
}

/// A key with each process address in it (`h10:10`) written `<addr>`.
fn family(key: &str) -> String {
    let is_addr = |part: &str| {
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        part.strip_prefix('h')
            .and_then(|p| p.split_once(':'))
            .is_some_and(|(host, port)| digits(host) && digits(port))
    };
    let parts: Vec<&str> = key
        .split('.')
        .map(|part| if is_addr(part) { "<addr>" } else { part })
        .collect();
    parts.join(".")
}

/// The metric catalogue: every key family the seed-42 run above
/// and chaos `store` seed 1 emit, sorted, held to
/// `tests/golden/metric_keys.txt` — a family added or gone fails here —
/// and each one named, in backticks, in DESIGN.md's *Observability*.
#[test]
fn metric_families_match_the_catalogue() {
    let store = chaos::run(&Store, 1, &Store::options());
    assert!(store.passed(), "{}", store.failure_summary());
    let runs = [metrics_seed42(), store.metrics];
    let families: BTreeSet<String> = runs
        .iter()
        .flat_map(|run| run.metrics.keys().map(|key| family(key)))
        .collect();
    let mut catalogue = String::from(
        "# Metric key families (tests/metrics_golden.rs): the seed-42 dump and chaos store seed 1.\n",
    );
    for f in &families {
        catalogue.push_str(f);
        catalogue.push('\n');
    }
    golden::check_golden("tests/golden/metric_keys.txt", &catalogue);

    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("DESIGN.md");
    let undocumented: Vec<&String> = families
        .iter()
        .filter(|f| !design.contains(&format!("`{f}`")))
        .collect();
    assert!(
        undocumented.is_empty(),
        "metric families missing from DESIGN.md's catalogue: {undocumented:?}"
    );
}
