//! Quickstart: a replicated echo service that survives crashes.
//!
//! Builds a troupe of three echo servers, makes replicated calls to it,
//! crashes members one by one, and shows the program continuing to work
//! until the last member dies — the paper's headline property: "a
//! replicated distributed program constructed in this way will continue
//! to function as long as at least one member of each troupe survives"
//! (§4.1).
//!
//! Everything here comes from `circus::testbed`, the module every test
//! and experiment stands its troupes up with; `temperature_sensors` shows
//! a service and client agents written out by hand.
//!
//! Run with: `cargo run --example quickstart`

use rdp::circus::testbed::{
    addr, call, spawn_caller, spawn_troupe, CountingService, Request, MODULE, PROC_ECHO,
};
use rdp::circus::{NodeConfig, TroupeId};
use rdp::simnet::{Duration, HostId, TraceRing, World};

fn main() {
    let mut world = World::new(7);
    // The world's event stream — datagrams, timers, crashes, span mints —
    // is kept, last 4 096 events, by one ring; the span forest is read
    // from it at the end.
    world.set_trace_sink(Box::new(TraceRing::new(4_096)));
    let config = NodeConfig::default();

    // The troupe: three replicas of one module on three machines, sharing
    // a troupe id (normally assigned by the Ringmaster). The module is the
    // testbed's echo service, which counts its executions.
    let machines = [addr(1, 70), addr(2, 70), addr(3, 70)];
    let troupe = spawn_troupe(
        &mut world,
        TroupeId(1),
        &machines,
        MODULE,
        &config,
        None,
        CountingService::default,
    );
    // The client: a process that makes the calls it is handed.
    let client = spawn_caller(&mut world, addr(10, 100), config, None);

    println!("replicated echo, degree 3 — killing one member per round\n");
    for round in 0..4u32 {
        if round > 0 {
            println!("-- crashing host {} --", HostId(round));
            world.crash_host(HostId(round));
        }
        let ping = format!("ping #{round}").into_bytes();
        let request = Request::new(&troupe, MODULE, PROC_ECHO, ping);
        // Crash detection needs probe timeouts, so give the call time.
        match call(&mut world, client, request, Duration::from_secs(60)) {
            Ok(reply) => println!(
                "call {}: ok, reply {:?} (members left: {})",
                round + 1,
                String::from_utf8_lossy(&reply),
                3 - round
            ),
            Err(e) => println!("call {}: FAILED: {e}", round + 1),
        }
    }
    println!("\nwith every member dead, the total failure is reported, not hung —");
    println!("replication masks partial failures; only total failure is visible (§3.5).");

    // What the run counted is in the world's metrics registry: CPU per
    // host, datagram counts, per-node RPC counters, call latency, spans
    // minted. The causal span trees of the replicated calls are built
    // from the ring (its render says so if the window lost older spans).
    let metrics = world.metrics();
    println!(
        "\n==> metrics registry after the run\n{}",
        metrics.dump_text()
    );
    let ring = world.trace_sink_as::<TraceRing>().expect("installed above");
    println!(
        "==> causal span forest\n{}",
        ring.span_tree(&metrics).render()
    );
}
