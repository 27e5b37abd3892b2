//! Oracles proven to fire: each test quiesces one clean chaos scenario,
//! damages it behind the oracles' back, and requires the named violation.
//! An oracle that has never been seen to fail vouches for nothing.

use chaos::{quiesce, Recovery, Violation, Workload, MEMBER_MODULE};
use circus::{CircusProcess, Service, ThreadId};
use simnet::{HostId, SockAddr};
use transactions::{CommitRecord, TroupeStoreService};
use wire::{from_bytes, to_bytes};

/// What `oracle` reported among `violations`.
fn reports_of<'a>(violations: &'a [Violation], oracle: &str) -> Vec<&'a str> {
    violations
        .iter()
        .filter(|v| v.oracle == oracle)
        .map(|v| v.detail.as_str())
        .collect()
}

#[test]
fn recovery_oracles_fire_on_a_corrupt_value_and_a_phantom_commit() {
    let (seed, wl) = (3, Recovery::default());
    let (mut q, mut extra) = quiesce(&wl, seed, &Recovery::options());
    let recovered = extra.recovered.expect("the fault script ran");
    let check = |q: &chaos::Quiesced, extra: &mut chaos::RecoveryExtra| {
        let mut violations = Vec::new();
        wl.check(q, extra, &mut violations);
        violations
    };
    assert!(
        check(&q, &mut extra).is_empty(),
        "the scenario starts clean"
    );

    let on_recovered = |q: &mut chaos::Quiesced, f: &dyn Fn(&mut TroupeStoreService)| {
        q.world
            .with_proc_mut(recovered, |p: &mut CircusProcess| {
                f(p.node_mut()
                    .service_as_mut::<TroupeStoreService>(MEMBER_MODULE)
                    .expect("the recovered member runs the store"))
            })
            .expect("the recovered member is alive");
    };

    // (ii) One stored value altered on the recovered member only: same
    // ledger, different image.
    on_recovered(&mut q, &|store| {
        let (mut image, ledger) =
            from_bytes::<(Vec<(u64, i64)>, Vec<(ThreadId, u64)>)>(&store.get_state())
                .expect("the store's own state");
        image.first_mut().expect("something was committed").1 += 1;
        store.set_state(&to_bytes(&(image, ledger)));
    });
    let violations = check(&q, &mut extra);
    let digest = reports_of(&violations, "recovered-digest");
    assert_eq!(digest.len(), 2, "one per survivor: {violations:?}");
    assert!(
        digest.iter().all(|d| d.contains("has digest")),
        "{digest:?}"
    );
    assert!(
        reports_of(&violations, "torn-log-safety").is_empty(),
        "the ledger is intact: {violations:?}"
    );

    // (i) A delta holding a key no client submitted.
    let phantom = CommitRecord {
        thread: ThreadId {
            origin: SockAddr::new(HostId(99), 9),
            serial: 1,
        },
        nonce: 1,
        writes: Vec::new(),
    };
    on_recovered(&mut q, &|store| {
        store.apply_delta(&to_bytes(&vec![phantom.clone()]))
    });
    let violations = check(&q, &mut extra);
    let torn = reports_of(&violations, "torn-log-safety");
    assert_eq!(
        torn.iter()
            .filter(|d| d.contains("no client ever submitted"))
            .count(),
        1,
        "{violations:?}"
    );
    assert_eq!(
        torn.iter()
            .filter(|d| d.contains("resurrected a commit the troupe never agreed on"))
            .count(),
        2,
        "one per survivor: {violations:?}"
    );
}
