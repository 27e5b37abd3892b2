//! Each adversary oracle proven to fire: one clean armed run, its metrics
//! snapshot doctored behind the oracles' back, and `check_adversary` must name
//! that oracle and no other.

use adversary::{check_adversary, install_adversary};
use chaos::{run, ScenarioOptions, Store};
use obs::Reading;

#[test]
fn each_adversary_oracle_fires_alone() {
    let opts = ScenarioOptions {
        injector: Some(install_adversary),
        ..ScenarioOptions::default()
    };
    let mut r = run(&Store, 7, &opts);
    assert!(r.passed(), "{}", r.failure_summary());
    assert!(check_adversary(&r).is_empty(), "the clean run must pass");
    let clean = r.metrics.clone();
    let family = clean
        .metrics
        .keys()
        .find(|k| k.starts_with("adv.gen."))
        .expect("the injector fired")
        .clone();
    for (oracle, name, value) in [
        ("adv-observed", "adv.rejected", 0),
        ("adv-accounting", family.as_str(), clean.get(&family) + 1),
        (
            "adv-no-false-eviction",
            "ring.evictions",
            clean.get("ring.evictions") + 1,
        ),
    ] {
        r.metrics = clean.clone();
        r.metrics.metrics.insert(name.into(), Reading::Count(value));
        let fired: Vec<_> = check_adversary(&r).iter().map(|v| v.oracle).collect();
        assert_eq!(fired, [oracle], "{name} = {value}");
    }
}
