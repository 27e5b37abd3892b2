//! Same seed ⇒ same simulated numbers; another seed ⇒ other numbers.
//!
//! Every metric read from the simulated clock or from a count
//! (`Clock::Sim` in the catalogue) must be byte-identical across two runs
//! of one seed, in both modes. Runs are `--smoke`-sized so the whole file
//! finishes in seconds.

use benchmark::metrics::{def, Clock, Value};
use benchmark::workload::{Size, Workload, REFERENCE_SECONDS};
use benchmark::{run, Outcome};

fn smoke(workload: Workload, seed: u64, traced: bool) -> Outcome {
    let size = Size::of(workload, REFERENCE_SECONDS, true);
    let outcome = run(workload, seed, size, traced);
    assert!(
        outcome.correct(),
        "{} seed {seed} traced={traced}: {} failed, {:?}",
        workload.name(),
        outcome.failed,
        outcome.errors
    );
    outcome
}

/// The deterministic metrics, formatted as the result line prints them.
fn deterministic(metrics: &[Value]) -> Vec<String> {
    metrics
        .iter()
        .filter(|(name, _)| def(name).expect("catalogued").clock == Clock::Sim)
        .map(|(name, value)| format!("{name}={value}"))
        .collect()
}

#[test]
fn same_seed_repeats_every_simulated_metric() {
    for workload in Workload::ALL {
        for traced in [false, true] {
            let a = smoke(workload, 1985, traced);
            let b = smoke(workload, 1985, traced);
            assert_eq!(
                deterministic(&a.metrics),
                deterministic(&b.metrics),
                "{} traced={traced}",
                workload.name()
            );
            assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
        }
    }
}

#[test]
fn another_seed_changes_the_simulated_metrics() {
    for workload in Workload::ALL {
        let a = smoke(workload, 1985, false);
        let b = smoke(workload, 2024, false);
        assert_ne!(
            deterministic(&a.metrics),
            deterministic(&b.metrics),
            "{}: the seed must reach the inputs",
            workload.name()
        );
    }
}

#[test]
fn traced_and_untraced_runs_agree_on_the_simulated_clock() {
    // The wrappers, the sink and the tap observe; they must not perturb.
    // The traced run's first metrics come from a traced repetition, the
    // untraced run's from bare processes: compare what both report.
    for workload in [Workload::EchoSmall, Workload::CommitContended] {
        let size = Size::of(workload, REFERENCE_SECONDS, true);
        let bare = workload.run_rep(7, size.units, false);
        let wrapped = workload.run_rep(7, size.units, true);
        assert_eq!(bare.ops, wrapped.ops, "{}", workload.name());
        assert_eq!(bare.sim_us, wrapped.sim_us, "{}", workload.name());
        assert_eq!(bare.lat_us, wrapped.lat_us, "{}", workload.name());
        assert_eq!(
            bare.count("sendmsgs"),
            wrapped.count("sendmsgs"),
            "{}",
            workload.name()
        );
    }
}
