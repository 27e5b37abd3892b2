//! `BENCHMARK.json` and the code agree, and the predictions that are
//! checkable on the seed commit hold.

use benchmark::metrics::{END_TO_END, PER_LAYER};
use benchmark::workload::{Size, Workload, REFERENCE_SECONDS};
use benchmark::{result_json, run};

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn manifest_lists_every_workload_and_metric() {
    let text: String = manifest().split_whitespace().collect();
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name())),
            "workload {} missing from BENCHMARK.json",
            w.name()
        );
    }
    for d in END_TO_END {
        let better = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\",\"bound\":{}}}",
            d.name,
            d.unit,
            d.bound.expect("end-to-end metrics carry a bound")
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for d in PER_LAYER {
        let better = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"}}",
            d.name, d.unit
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = text.matches("{\"name\":").count();
    assert_eq!(
        listed,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists something the code does not report"
    );
}

#[test]
fn each_mode_reports_exactly_its_catalogue() {
    let w = Workload::EchoSmall;
    let size = Size::of(w, REFERENCE_SECONDS, true);
    let untraced = run(w, 1985, size, false);
    let names: Vec<&str> = untraced.metrics.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, END_TO_END.map(|d| d.name));
    let traced = run(w, 1985, size, true);
    let names: Vec<&str> = traced.metrics.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, PER_LAYER.map(|d| d.name));
    let line = result_json(&traced);
    assert!(line.starts_with("{\"correct\":true,\"attempted\":"));
    assert!(!line.contains("NaN") && !line.contains("inf"));
}

fn value(metrics: &[(&'static str, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .1
}

#[test]
fn fault_free_workloads_show_no_fault_handling() {
    for w in [
        Workload::EchoSmall,
        Workload::EchoBulk,
        Workload::CommitContended,
        Workload::OrderedBcast,
    ] {
        let size = Size::of(w, REFERENCE_SECONDS, true);
        let traced = run(w, 1985, size, true);
        assert!(traced.correct(), "{}: {:?}", w.name(), traced.errors);
        // The issue predicted no retransmission on any fault-free workload.
        // That holds only where an operation finishes inside the 300 ms
        // retransmit interval: an 8 KiB echo takes 377 simulated ms and a
        // transaction queued on the hot object longer still, so both
        // re-send first segments over a lossless LAN (README, "Predictions
        // that did not hold"). Pinned only where it holds.
        if matches!(w, Workload::EchoSmall | Workload::OrderedBcast) {
            let v = value(&traced.metrics, "pairedmsg.retransmits_per_op");
            assert_eq!(v, 0.0, "{} pairedmsg.retransmits_per_op", w.name());
        }
        for name in [
            "simnet.dropped_ratio",
            "pairedmsg.probe_segments_per_op",
            "ringmaster.rebinds_per_op",
            "ringmaster.probes_per_seed",
            "ringmaster.suspicions_per_seed",
            "ringmaster.repairs_per_seed",
            "chaos.oracle_violations",
        ] {
            assert_eq!(value(&traced.metrics, name), 0.0, "{} {name}", w.name());
        }
        assert_eq!(
            value(&traced.metrics, "core.invocations_per_call"),
            3.0,
            "{}: exactly once at each of three members",
            w.name()
        );
        // Only the durable store touches the disk; only the echo rigs run
        // no `transactions` service at all.
        let durable = w == Workload::CommitContended;
        let echo = matches!(w, Workload::EchoSmall | Workload::EchoBulk);
        for name in [
            "simnet.disk_appends_per_op",
            "simnet.disk_fsyncs_per_op",
            "transactions.wal_appends_per_op",
        ] {
            let v = value(&traced.metrics, name);
            assert_eq!(v > 0.0, durable, "{} {name} = {v}", w.name());
        }
        let v = value(&traced.metrics, "transactions.dispatch_self_ns_per_op");
        assert_eq!(v > 0.0, !echo, "{} dispatch self time = {v}", w.name());
    }
}

#[test]
fn echo_small_sends_what_table_4_3_says() {
    // Unicast to three members: three client sendmsgs carry the call,
    // three member sendmsgs carry the returns; with no think time every
    // return is acknowledged implicitly by the next call (§4.2.2).
    let w = Workload::EchoSmall;
    let untraced = run(w, 1985, Size::of(w, REFERENCE_SECONDS, true), false);
    assert!(untraced.correct(), "{:?}", untraced.errors);
    assert_eq!(value(&untraced.metrics, "sim_sendmsgs_per_op"), 6.0);
    assert_eq!(value(&untraced.metrics, "sim_datagrams_per_op"), 6.0);
}

#[test]
fn chaos_faults_exercises_the_binding_agent() {
    let w = Workload::ChaosFaults;
    let traced = run(w, 1985, Size::of(w, REFERENCE_SECONDS, true), true);
    assert!(traced.correct(), "{:?}", traced.errors);
    assert!(value(&traced.metrics, "ringmaster.probes_per_seed") > 0.0);
    assert!(value(&traced.metrics, "chaos.faults_per_seed") > 0.0);
    assert_eq!(value(&traced.metrics, "chaos.oracle_violations"), 0.0);
}
