//! Replay-attack regression suite.
//!
//! A passive recorder rides along a chaos run and keeps every
//! client→store datagram (data segments, please-ack bits, client acks —
//! whole completed calls). After quiescence the captures are re-delivered
//! verbatim and exactly-once must hold the line at every layer.
//!
//! Two schedules cover the two interesting regimes:
//!
//! - **Across the purge watermark** (faultless run): the world idles past
//!   the endpoint replay TTL before the replay, so the completed-call
//!   records are purged and the replays must be suppressed by the purge
//!   watermark — the paper's answer to late wandering duplicates — with
//!   zero new deliveries, zero new endpoint state, zero re-executions.
//! - **After healed false suspicions** (partitions-only run): every
//!   member was suspected and refuted at some point; peer-death resets
//!   the per-connection call-number sequences, so this regime replays
//!   the freshest captures, which the live completed-call records and
//!   the node-level done map must absorb without re-executing anything.

use adversary::AdvInjector;
use chaos::{
    check_all, run_scenario, PlanOptions, ScenarioOptions, CLIENT_PORT, MEMBER_MODULE, MEMBER_PORT,
};
use circus::testbed::node;
use simnet::{Duration, SockAddr, Time, World};
use transactions::TroupeStoreService;

/// `ScenarioOptions::injector` entry point: records client→store
/// traffic, injects nothing.
fn install_recorder(_seed: u64, w: &mut World) {
    let inj = AdvInjector::capture_only(w.metrics(), |from, to| {
        from.port == CLIENT_PORT && to.port == MEMBER_PORT
    });
    w.set_injector(Box::new(inj), Duration::from_millis(1));
}

/// Per-member protocol state. Every field here is *replay-sensitive but
/// background-silent*: the quiesced system still carries periodic
/// traffic (ringmaster probe calls land in any multi-second window), so
/// raw delivery counters keep growing on their own — but duplicates,
/// store writes, endpoint state, and replay suppressions only move if a
/// replay actually gets through.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Snap {
    addr: SockAddr,
    duplicate_call_deliveries: u64,
    replays_suppressed: u64,
    conns: usize,
    store_digest: u64,
}

fn snapshot(w: &World, addr: SockAddr) -> Snap {
    let reg = w.metrics();
    node(w, addr, |n| Snap {
        addr,
        duplicate_call_deliveries: reg.get(&format!("rpc.{addr}.duplicate_call_deliveries")),
        replays_suppressed: reg.get(&format!("rpc.{addr}.replays_suppressed")),
        conns: n.conn_count(),
        store_digest: n
            .service_as::<TroupeStoreService>(MEMBER_MODULE)
            .expect("store member exports the store service")
            .state_digest(),
    })
}

/// Re-delivers `captures` verbatim, lets the world settle, and asserts
/// the frozen-state invariants common to both regimes. Returns the
/// snapshots for regime-specific assertions.
fn replay_and_assert(
    seed: u64,
    q: &mut chaos::Quiesced,
    captures: &[(Time, SockAddr, SockAddr, Vec<u8>)],
) -> (Vec<Snap>, Vec<Snap>) {
    let members: Vec<SockAddr> = q.members.iter().map(|m| m.addr).collect();
    let before: Vec<Snap> = members.iter().map(|&m| snapshot(&q.world, m)).collect();
    let delivered_before = q.world.metrics().get("net.delivered");

    for (_, from, to, data) in captures {
        q.world.inject_datagram(*from, *to, data.clone());
    }
    q.world
        .run(simnet::Until::Elapsed(Duration::from_micros(10_000_000)));

    let after: Vec<Snap> = members.iter().map(|&m| snapshot(&q.world, m)).collect();
    for (b, a) in before.iter().zip(&after) {
        assert_eq!(
            a.duplicate_call_deliveries, b.duplicate_call_deliveries,
            "seed {seed}: duplicate delivery at {}",
            a.addr
        );
        assert_eq!(
            a.store_digest, b.store_digest,
            "seed {seed}: replay changed replicated state at {}",
            a.addr
        );
        assert_eq!(
            a.conns, b.conns,
            "seed {seed}: replay created endpoint state at {}",
            a.addr
        );
    }
    // Replicas must still agree with each other, not just with their
    // own past.
    for w in after.windows(2) {
        assert_eq!(
            w[0].store_digest, w[1].store_digest,
            "seed {seed}: replicas diverged after replay ({} vs {})",
            w[0].addr, w[1].addr
        );
    }
    let delivered_after = q.world.metrics().get("net.delivered");
    assert!(
        delivered_after >= delivered_before + captures.len() as u64,
        "seed {seed}: replayed datagrams were not delivered \
         ({delivered_before} -> {delivered_after}, {} replays)",
        captures.len()
    );
    (before, after)
}

/// Faultless run, replay *everything* after idling past the replay TTL:
/// the purge watermark must swallow the whole completed history.
#[test]
fn replay_across_purge_watermark_is_suppressed() {
    let opts = ScenarioOptions {
        plan: PlanOptions {
            // start == end ⇒ an empty fault schedule: connections never
            // reset, so every capture belongs to the live incarnation.
            start: Time::from_micros(1),
            end: Time::from_micros(1),
            ..PlanOptions::default()
        },
        injector: Some(install_recorder),
        ..ScenarioOptions::default()
    };
    for seed in [3, 4] {
        let mut q = run_scenario(seed, &opts);
        let violations = check_all(&q);
        assert!(
            violations.is_empty(),
            "seed {seed} base run: {violations:?}"
        );

        let captures = q
            .world
            .injector_as::<AdvInjector>()
            .expect("recorder installed")
            .captures();
        assert!(
            captures.len() >= 32,
            "seed {seed}: recorder kept only {} datagrams",
            captures.len()
        );

        // Idle past the endpoint replay TTL (60 s) so the completed-call
        // records age out: the replays then cross the purge watermark
        // instead of being re-acked from the completed map.
        q.world
            .run(simnet::Until::Elapsed(Duration::from_micros(90_000_000)));

        let (before, after) = replay_and_assert(seed, &mut q, &captures);
        let suppressed = |snaps: &[Snap]| snaps.iter().map(|s| s.replays_suppressed).sum::<u64>();
        assert!(
            suppressed(after.as_slice()) > suppressed(before.as_slice()),
            "seed {seed}: no replay was suppressed past the purge watermark \
             (before={} after={})",
            suppressed(before.as_slice()),
            suppressed(after.as_slice())
        );
    }
}

/// Partitions-only run (the false-suspicion schedule): members get
/// suspected and refuted, which resets client connections mid-run. The
/// freshest captures — whole calls completed on the live connections —
/// are replayed after quiescence and must be absorbed silently, without
/// raising any new suspicion either.
#[test]
fn replay_after_healed_false_suspicion_changes_nothing() {
    let opts = ScenarioOptions {
        plan: PlanOptions {
            partitions_only: Some((
                Duration::from_micros(6_000_000),
                Duration::from_micros(8_000_000),
            )),
            ..PlanOptions::default()
        },
        injector: Some(install_recorder),
        ..ScenarioOptions::default()
    };
    let mut suspicions_total = 0u64;
    for seed in [11, 12, 13] {
        let mut q = run_scenario(seed, &opts);
        let violations = check_all(&q);
        assert!(
            violations.is_empty(),
            "seed {seed} base run: {violations:?}"
        );
        let suspicions = q.world.metrics().get("ring.suspicions");
        assert_eq!(
            q.world.metrics().get("ring.evictions"),
            0,
            "seed {seed}: partitions-only run must not evict"
        );
        suspicions_total += suspicions;

        // Keep only captures young enough that their completed-call and
        // done-map records are still alive (both TTLs are 60 s): older
        // ones belong to pre-reset connection incarnations, whose replay
        // protection is the purge-watermark regime tested above.
        let now = q.world.now();
        let captures: Vec<_> = q
            .world
            .injector_as::<AdvInjector>()
            .expect("recorder installed")
            .captures()
            .into_iter()
            .filter(|(at, _, _, _)| now.since(*at) < Duration::from_micros(30_000_000))
            .collect();
        assert!(
            !captures.is_empty(),
            "seed {seed}: no capture from the final 30 s to replay"
        );

        replay_and_assert(seed, &mut q, &captures);
        assert_eq!(
            q.world.metrics().get("ring.suspicions"),
            suspicions,
            "seed {seed}: replays raised a new suspicion"
        );
        assert_eq!(
            q.world.metrics().get("ring.evictions"),
            0,
            "seed {seed}: replays caused an eviction"
        );
    }
    // The schedule is only a false-suspicion regression if suspicions
    // actually happened somewhere in the sweep.
    assert!(
        suspicions_total > 0,
        "partitions never raised a suspicion; replay-after-heal is uncovered"
    );
}
