//! Each adversary oracle proven to fire: one clean armed run, its metrics
//! dump doctored behind the oracles' back, and `check_adversary` must name
//! that oracle and no other.

use adversary::{check_adversary, install_adversary};
use chaos::{run, ScenarioOptions, Store};

/// `json` with counter `name` set to `value`, added if it was absent.
fn set(json: &str, name: &str, value: u64) -> String {
    let key = format!("\"{name}\":");
    let Some(at) = json.find(&key) else {
        return json.replacen(
            "{\"metrics\":{",
            &format!("{{\"metrics\":{{{key}{value},"),
            1,
        );
    };
    let start = at + key.len();
    let end = start + json[start..].find([',', '}']).expect("a value ends");
    format!("{}{value}{}", &json[..start], &json[end..])
}

#[test]
fn each_adversary_oracle_fires_alone() {
    let opts = ScenarioOptions {
        injector: Some(install_adversary),
        ..ScenarioOptions::default()
    };
    let mut r = run(&Store, 7, &opts);
    assert!(r.passed(), "{}", r.failure_summary());
    assert!(check_adversary(&r).is_empty(), "the clean run must pass");
    let clean = r.metrics_json.clone();
    let family = clean["{\"metrics\":".len()..]
        .split(['{', ','])
        .filter_map(|kv| kv.split_once(':'))
        .map(|(k, _)| k.trim_matches('"'))
        .find(|k| k.starts_with("adv.gen."))
        .expect("the injector fired")
        .to_string();
    for (oracle, json) in [
        ("adv-observed", set(&clean, "adv.rejected", 0)),
        (
            "adv-accounting",
            set(&clean, &family, r.counter(&family) + 1),
        ),
        (
            "adv-no-false-eviction",
            set(&clean, "ring.evictions", r.counter("ring.evictions") + 1),
        ),
    ] {
        r.metrics_json = json;
        let fired: Vec<_> = check_adversary(&r).iter().map(|v| v.oracle).collect();
        assert_eq!(fired, [oracle], "{}", r.metrics_json);
    }
}
