//! Golden snapshot of the metrics registry: a fixed seed must dump to
//! exactly the committed JSON, byte for byte. Any change to metric
//! names, counter semantics, CPU costing, or the network model shows up
//! here as a diff — regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test --test metrics_golden`.

mod golden;

use rdp::circus::testbed::{
    addr, enqueue, results, spawn_caller, spawn_troupe, CountingService, Request, MODULE, PROC_ADD,
};
use rdp::circus::{CollationPolicy, NodeConfig, TroupeId};
use rdp::simnet::{Duration, World};
use rdp::wire::to_bytes;

#[test]
fn fixed_seed_metrics_dump_matches_golden() {
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

    golden::check_golden("tests/golden/metrics_seed42.json", &w.metrics_json());
}
