//! The store sweep: run the commit-protocol workload under full chaos
//! over a range of seeds, check all eight oracles after each, and print a
//! copy-pasteable repro command for any seed that fails.
//!
//! Replay a single failing seed with:
//!
//! ```text
//! CHAOS_SEED=<seed> cargo test -p chaos --test store -- --nocapture
//! ```

use std::any::Any;
use std::collections::BTreeMap;

use chaos::{
    assert_all_passed, chaos_jobs, check_all, run, run_scenario, sweep, sweep_seeds, Fault,
    FaultPlan, PlanOptions, ScenarioOptions, Store,
};
use circus::CircusProcess;
use pairedmsg::{MsgType, SegmentHeader};
use ringmaster::{SpareService, SPARE_CTL_MODULE};
use simnet::{Duration, SockAddr, Time, TraceEvent, TraceSink};

/// A pinned regression seed riding along with the default range: it
/// used to panic in the lock manager ("another holder exists") when a
/// sole S-holder upgraded to X past queued waiters.
const LOCK_UPGRADE_SEED: u64 = 10778257583429006674;

#[test]
fn sweep_seeds_through_all_oracles() {
    let mut seeds = sweep_seeds(1..11);
    let replaying = seeds.len() == 1;
    if !replaying {
        seeds.push(LOCK_UPGRADE_SEED);
    }
    let reports = sweep(&Store, &seeds, &ScenarioOptions::default(), chaos_jobs());
    assert_all_passed(&reports);
    let repairs: usize = reports.iter().map(|r| r.repairs).sum();
    let rebinds: u32 = reports.iter().map(|r| r.rebinds).sum();
    let commits: usize = reports.iter().map(|r| r.extra.commits).sum();

    // The sweep as a whole must actually exercise the interesting paths;
    // a schedule that never crashes a member or never invalidates a
    // binding cache is not testing reconfiguration. (Deterministic: these
    // totals are a pure function of the seed range.)
    if !replaying {
        assert!(commits > 0, "sweep committed nothing");
        assert!(
            repairs > 0,
            "sweep never exercised self-healing crash repair (probe + evict + spare)"
        );
        assert!(
            rebinds > 0,
            "sweep never exercised stale-binding rebind after reconfiguration"
        );
    }
}

/// The same sweep with the multicast data plane (§4.3.3): every oracle
/// must hold when one-to-many call data rides troupe-wide multicasts
/// with unicast straggler fallback, under the same fault schedules.
#[test]
fn sweep_seeds_through_all_oracles_multicast() {
    let opts = ScenarioOptions {
        multicast_small_calls: true,
        ..ScenarioOptions::default()
    };
    let seeds = sweep_seeds(1..11);
    let reports = sweep(&Store, &seeds, &opts, chaos_jobs());
    assert_all_passed(&reports);
    let multicasts: u64 = reports
        .iter()
        .map(|r| r.metrics.get("net.multicasts"))
        .sum();
    if seeds.len() > 1 {
        assert!(
            multicasts > 0,
            "multicast mode never used the multicast path"
        );
    }
}

/// Fail-safety under false suspicion: a schedule of partitions *longer*
/// than the crash-detection horizon makes live members look dead, so
/// suspicions are reported — but a partition is not a crash, and the
/// probe round must refute every one. Any eviction here would be the
/// healer destroying a healthy member.
#[test]
fn partitions_without_crashes_never_evict() {
    let opts = partitions_past_the_horizon();
    let mut suspicions_total = 0u64;
    for seed in [11u64, 12, 13] {
        let r = run(&Store, seed, &opts);
        assert!(
            r.passed(),
            "partition-only seed {seed} failed:\n{}",
            r.failure_summary()
        );
        assert_eq!(
            r.metrics.get("ring.evictions"),
            0,
            "seed {seed}: a live, merely partitioned member was evicted"
        );
        assert_eq!(r.repairs, 0, "seed {seed}: nothing died, nothing to repair");
        // Every suspicion the healer took up must have been refuted by a
        // probe; the drained-queue check inside the quiesce (a driver
        // warning, failing `passed()` above) covers those still queued.
        assert_eq!(
            r.metrics.get("ring.suspicions"),
            r.metrics.get("ring.false_suspicions"),
            "seed {seed}: a suspicion was neither cleared nor (forbidden) acted on"
        );
        suspicions_total += r.metrics.get("ring.suspicions");
    }
    // The schedule must actually tickle the detector, or this test
    // proves nothing: above-horizon partitions have to raise suspicions.
    assert!(
        suspicions_total > 0,
        "no partition ever raised a suspicion — the false-positive path went unexercised"
    );
}

/// Forty transactions per client under partitions of 6–8 s, each
/// isolating one store member past the ≈ 4.5 s crash horizon.
fn partitions_past_the_horizon() -> ScenarioOptions {
    ScenarioOptions {
        txns_per_client: 40,
        plan: PlanOptions {
            partitions_only: Some((
                Duration::from_micros(6_000_000),
                Duration::from_micros(8_000_000),
            )),
            ..PlanOptions::default()
        },
        ..ScenarioOptions::default()
    }
}

/// Every oracle holds over 400 partition-only seeds. A member isolated
/// after it voted yes sees its `ready_to_commit` call-back fail while
/// its peers commit: it must stay in doubt, holding its locks, until a
/// peer tells it the verdict. Aborting alone there fails 76 of these
/// seeds.
#[test]
fn partitions_past_the_horizon_keep_every_oracle() {
    let seeds = sweep_seeds(1..401);
    let reports = sweep(&Store, &seeds, &partitions_past_the_horizon(), chaos_jobs());
    assert_all_passed(&reports);
    let in_doubt: u64 = reports.iter().map(|r| r.metrics.get("txn.in_doubt")).sum();
    if seeds.len() > 1 {
        assert!(in_doubt > 0, "no member was ever in doubt");
    }
}

/// The self-heal gate: a fixed seed whose plan kills two store members
/// must end with the *Ringmaster's own agent* reporting two completed
/// repairs — probe-confirmed eviction plus spare activation — with the
/// driver performing none.
#[test]
fn self_heal_gate_two_crashes_two_ringmaster_repairs() {
    let planned = chaos::FaultPlan::generate(2, &PlanOptions::default()).member_faults();
    assert_eq!(
        planned, 2,
        "seed 2's plan no longer schedules exactly two member crashes; pick a new gate seed"
    );
    let r = run(&Store, 2, &ScenarioOptions::default());
    assert!(r.passed(), "gate seed failed:\n{}", r.failure_summary());
    assert_eq!(
        r.repairs, 2,
        "the self-healing agent did not repair both crashed members"
    );
    assert_eq!(r.metrics.get("ring.evictions"), 2);
    assert_eq!(r.metrics.get("ring.repairs"), 2);
    assert_eq!(r.metrics.get("spare.activations"), 2);
}

/// Every return any process sent, by sender and span: when its first
/// copy left for each destination, under which call number. One
/// multicast sends every copy at one instant; per-member sends each cost
/// a `sendmsg` of CPU time. And when each call first arrived, by sender,
/// destination and call number.
#[derive(Default)]
struct ReturnTap {
    first: BTreeMap<(SockAddr, u64), BTreeMap<SockAddr, (Time, u32)>>,
    called: BTreeMap<(SockAddr, SockAddr, u32), Time>,
}

impl TraceSink for ReturnTap {
    fn record(&mut self, ev: &TraceEvent) {
        let (send, &at, &from, &to, head) = match ev {
            TraceEvent::Send {
                at, from, to, head, ..
            } => (true, at, from, to, head),
            TraceEvent::Deliver {
                at, from, to, head, ..
            } => (false, at, from, to, head),
            _ => return,
        };
        let Ok(h) = SegmentHeader::decode(head) else {
            return;
        };
        if h.ack || h.probe {
            return;
        }
        match h.msg_type {
            MsgType::Return if send => {
                let copies = self.first.entry((from, h.span)).or_default();
                copies.entry(to).or_insert((at, h.call_number));
            }
            MsgType::Call if !send => {
                let key = (from, to, h.call_number);
                self.called.entry(key).or_insert(at);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A joiner numbers its calls as its troupe does (§4.3.3): the seed's
/// plan kills a member, a spare takes its place, and from then on every
/// `ready_to_commit` call-back return that reaches the joiner, once every
/// member's copy of the call has arrived, leaves its client as one
/// multicast. Numbering its calls from 1, the joiner would split each
/// into a multicast to the survivors and a unicast to itself. A return
/// that left before a straggler's copy arrived (a first "no" vote decides
/// at once) reaches that straggler on its own, buffered for it (§4.3.4):
/// those are not counted.
#[test]
fn after_a_repair_every_return_to_the_joiner_is_one_multicast() {
    const SEED: u64 = 31;
    let plan = FaultPlan::generate(SEED, &PlanOptions::default());
    let kills = plan.faults.iter();
    let kills = kills.filter(|f| matches!(f.fault, Fault::KillProc { .. }));
    assert_eq!(kills.count(), 1, "pick a seed whose plan kills a member");
    let opts = ScenarioOptions {
        injector: Some(|_, w| w.add_trace_sink(Box::<ReturnTap>::default())),
        ..ScenarioOptions::default()
    };
    let q = run_scenario(SEED, &opts);
    let violations = check_all(&q);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(q.repairs, 1);
    let joined = |a: SockAddr| {
        let ctl = |p: &CircusProcess| {
            let spare = p.node().service_as::<SpareService>(SPARE_CTL_MODULE);
            spare.is_some_and(|s| s.activated)
        };
        q.world.with_proc(a, ctl).unwrap_or(false)
    };
    let members = q.members.iter().map(|m| m.addr);
    let joiner = members.filter(|&a| joined(a)).collect::<Vec<_>>();
    assert_eq!(joiner.len(), 1);

    let tap = q.world.trace_sink_as::<ReturnTap>().expect("the tap");
    let to_joiner = (tap.first.iter()).filter(|((from, _), copies)| {
        q.client_addrs.contains(from) && copies.contains_key(&joiner[0])
    });
    let (mut returns, mut split) = (0, Vec::new());
    for ((client, _), copies) in to_joiner {
        let first = copies.values().map(|&(t, _)| t).min().expect("a copy");
        let arrived = |(m, &(_, cn)): (&SockAddr, &(Time, u32))| {
            let at = tap.called.get(&(*m, *client, cn));
            at.is_some_and(|&t| t <= first)
        };
        if !copies.iter().all(arrived) {
            continue; // Buffered for a straggler.
        }
        returns += 1;
        if copies.len() < 2 || copies.values().any(|&(t, _)| t != first) {
            split.push(copies.clone());
        }
    }
    assert!(returns > 10, "only {returns} returns reached the joiner");
    let first = split.first();
    assert_eq!(
        split.len(),
        0,
        "of {returns} returns to the joiner; {first:?}"
    );
}

/// The parallel sweep is pure speed, zero semantics: every per-seed
/// report it produces must be bit-identical to the serial sweep's —
/// trace hash, event counts, the full metrics dump, the span forest.
/// Worker scheduling must not be able to leak into a run.
#[test]
fn parallel_sweep_matches_serial_bit_for_bit() {
    let seeds: Vec<u64> = (1..6).collect();
    let opts = ScenarioOptions::default();
    let serial = sweep(&Store, &seeds, &opts, 1);
    let parallel = sweep(&Store, &seeds, &opts, 2);

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.seed, p.seed, "report order diverged");
        assert_eq!(s.trace_hash, p.trace_hash, "seed {}: trace hash", s.seed);
        assert_eq!(
            s.trace_events, p.trace_events,
            "seed {}: event count",
            s.seed
        );
        assert_eq!(
            s.trace_sample, p.trace_sample,
            "seed {}: trace sample",
            s.seed
        );
        assert_eq!(s.metrics, p.metrics, "seed {}: metrics", s.seed);
        assert_eq!(s.extra, p.extra, "seed {}: commits and aborts", s.seed);
    }
}

/// The same gate with the multicast data plane: crash repair must not
/// depend on the call transport.
#[test]
fn self_heal_gate_holds_in_multicast_mode() {
    let opts = ScenarioOptions {
        multicast_small_calls: true,
        ..ScenarioOptions::default()
    };
    let r = run(&Store, 2, &opts);
    assert!(
        r.passed(),
        "multicast gate seed failed:\n{}",
        r.failure_summary()
    );
    assert_eq!(r.repairs, 2);
    assert_eq!(r.metrics.get("ring.evictions"), 2);
    assert_eq!(r.metrics.get("spare.activations"), 2);
}
