//! The `chaos_faults` workload: the full stack under seeded fault plans.
//!
//! Each operation-bearing unit is one `chaos` scenario — Ringmaster
//! binding, a replicated store, rebinding clients with think time, a
//! seeded plan of crashes, kills, partitions and loss bursts, in-system
//! self-heal from spares — followed by every oracle. Scenarios run
//! serially, each in a world of its own, so the repetition's figures are
//! sums over worlds.
//!
//! This drives `chaos::run_scenario` + `chaos::check_all`, the two halves
//! of `chaos::run_seed_with`, because the folded `RunReport` drops what
//! the host-clock metrics need (`World::events_processed`, `World::now`)
//! and keeps the registry only as a JSON string.

use std::panic::AssertUnwindSafe;
use std::time::Instant;

use chaos::{check_all, run_scenario, RebindingClient, ScenarioOptions};
use circus::CircusProcess;
use simnet::{Duration, World};

use crate::alloc;
use crate::measure::{counts_add, read_counts, Rep, SeedStats, SetupClock};
use crate::rigs::{taps, warmup_ops};
use crate::trace::{CountingSink, SegmentTap};

/// Chaos seeds are drawn from `1..=POOL`. Every seed of the pool passes
/// every oracle on the seed commit (vetted one by one), so a failure is a
/// regression and not bad luck: unvetted 64-bit seeds fail about once in
/// 10^4 — chaos seed 10778257583429006674 panics in
/// `transactions/src/lock.rs` ("another holder exists") — and a run uses a
/// thousand of them.
const POOL: u64 = 20_000;

/// splitmix64: spreads the repetition seed over the pool so neighbouring
/// repetitions start far apart.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The traced run's instruments, installed through the scenario's
/// adversary hook once the honest stack is spawned.
fn install_taps(_seed: u64, w: &mut World) {
    w.set_trace_sink(Box::new(CountingSink::default()));
    w.set_injector(Box::new(SegmentTap::default()), Duration::ZERO);
}

/// One repetition: `warm-up + seeds` scenarios, the last `seeds` timed.
/// An operation is one transaction a client saw commit.
pub fn run_chaos(seed: u64, seeds: u64, traced: bool) -> Rep {
    let setup = SetupClock::start();
    let opts = ScenarioOptions {
        injector: traced.then_some(install_taps as fn(u64, &mut World)),
        ..ScenarioOptions::default()
    };
    // Scripted per scenario: every client's script plus its quiesce probe.
    let scripted_per_seed = 2 * (opts.txns_per_client as u64 + 1);
    let first = mix(seed) % POOL;
    let warm = warmup_ops(seeds);
    let mut rep = Rep {
        scripted: seeds * scripted_per_seed,
        ..Rep::default()
    };
    for i in 0..warm + seeds {
        let chaos_seed = 1 + (first + i) % POOL;
        let timed = i >= warm;
        if i == warm {
            (rep.setup_s, rep.setup_raw_s) = setup.stop();
        }
        let (t0, a0) = (Instant::now(), alloc::allocations());
        // A panic anywhere in the stack fails this scenario's operations
        // instead of taking the whole run (and its result line) down. The
        // world is dropped with the panic, so nothing torn is observed.
        let ran = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let q = run_scenario(chaos_seed, &opts);
            let violations = check_all(&q);
            (q, violations)
        }));
        let (host_s, allocs) = (t0.elapsed().as_secs_f64(), alloc::allocations() - a0);
        let Ok((q, violations)) = ran else {
            rep.errors
                .push(format!("chaos seed {chaos_seed}: panicked (see stderr)"));
            continue;
        };

        let mut commits = 0u64;
        let mut rebinds = 0u64;
        let mut problems: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        problems.extend(q.driver_warnings.iter().map(|w| format!("driver: {w}")));
        if !q.all_clients_finished {
            problems.push("clients did not finish their scripts".into());
        }
        for &c in &q.client_addrs {
            let seen = q.world.with_proc(c, |p: &CircusProcess| {
                p.agent_as::<RebindingClient>().map(|a| {
                    (
                        a.committed_keys.len() as u64,
                        a.rebinds as u64,
                        a.errors.clone(),
                    )
                })
            });
            match seen.flatten() {
                Some((n, r, errors)) => {
                    commits += n;
                    rebinds += r;
                    problems.extend(errors.into_iter().map(|e| format!("client {c}: {e}")));
                }
                None => problems.push(format!("client {c} vanished")),
            }
        }
        rep.errors.extend(
            problems
                .into_iter()
                .map(|p| format!("chaos seed {chaos_seed}: {p}")),
        );
        if !timed {
            continue;
        }

        q.world.refresh_metrics();
        let reg = q.world.metrics();
        let counts = read_counts(&reg);
        let mttr = reg.histogram("ring.mttr_us").snapshot();
        rep.host_s += host_s;
        rep.allocs += allocs;
        rep.ops += commits;
        rep.sim_us += q.world.now().as_micros();
        rep.events += q.world.events_processed();
        // One latency sample per scenario: its mean replicated-call
        // latency (the scripted clients keep no per-transaction times).
        let calls = counts["call_latency_n"].max(1);
        rep.lat_us.push(counts["call_latency_us"] / calls);
        counts_add(&mut rep.counts, &counts);
        rep.per_seed.push(SeedStats {
            faults: q.plan.faults.len() as u64,
            repairs: q.repairs as u64,
            mttr_us: mttr.mean() as u64,
            rebinds,
            violations: violations.len() as u64,
        });
        if traced {
            let (sink, segments) = taps(&q.world);
            rep.sink.add(&sink);
            rep.segments.add(&segments);
        }
    }
    rep
}
