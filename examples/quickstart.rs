//! Quickstart: a replicated echo service that survives crashes.
//!
//! Builds a troupe of three echo servers, makes replicated calls to it,
//! crashes members one by one, and shows the program continuing to work
//! until the last member dies — the paper's headline property: "a
//! replicated distributed program constructed in this way will continue
//! to function as long as at least one member of each troupe survives"
//! (§4.1).
//!
//! Run with: `cargo run --example quickstart`

use rdp::circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, ModuleAddr, NodeBuilder,
    NodeConfig, NodeCtx, Service, ServiceCtx, Step, ThreadId, Troupe, TroupeId,
};
use rdp::simnet::{Duration, HostId, SockAddr, World};

const MODULE: u16 = 1;

/// The replicated module: an echo service with a call counter.
struct Echo {
    calls: u32,
}

impl Service for Echo {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, args: &[u8]) -> Step {
        self.calls += 1;
        Step::Reply(args.to_vec())
    }
}

/// A client that fires one call per poke and remembers the outcomes.
struct Client {
    troupe: Troupe,
    thread: Option<ThreadId>,
    outcomes: Vec<Result<Vec<u8>, CallError>>,
}

impl Agent for Client {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        let thread = *self.thread.get_or_insert_with(|| nc.fresh_thread());
        let troupe = self.troupe.clone();
        nc.call(
            thread,
            &troupe,
            MODULE,
            0,
            format!("ping #{tag}").into_bytes(),
            CollationPolicy::Unanimous,
        );
    }

    fn on_call_done(
        &mut self,
        _nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        self.outcomes.push(result);
    }
}

fn main() {
    let mut world = World::new(7);

    // Spawn the troupe: three replicas on three machines, one module
    // each, sharing a troupe id (normally assigned by the Ringmaster).
    let id = TroupeId(1);
    let members: Vec<ModuleAddr> = (1..=3)
        .map(|h| ModuleAddr::new(SockAddr::new(HostId(h), 70), MODULE))
        .collect();
    for m in &members {
        let process = NodeBuilder::new(m.addr, NodeConfig::default())
            .service(MODULE, Box::new(Echo { calls: 0 }))
            .troupe_id(id)
            .build()
            .expect("valid node");
        world.spawn(m.addr, Box::new(process));
    }
    let troupe = Troupe::new(id, members.clone());

    // Spawn the client.
    let client = SockAddr::new(HostId(10), 100);
    let process = NodeBuilder::new(client, NodeConfig::default())
        .agent(Box::new(Client {
            troupe,
            thread: None,
            outcomes: Vec::new(),
        }))
        .build()
        .expect("valid node");
    world.spawn(client, Box::new(process));

    println!("replicated echo, degree 3 — killing one member per round\n");
    for round in 0..4u64 {
        if round > 0 {
            let victim = HostId(round as u32);
            println!("-- crashing host {victim} --");
            world.crash_host(victim);
        }
        world.poke(client, round);
        // Crash detection needs probe timeouts, so give it time.
        world.run(simnet::Until::Elapsed(Duration::from_secs(60)));
        let (n, last) = world
            .with_proc(client, |p: &CircusProcess| {
                let c = p.agent_as::<Client>().unwrap();
                (c.outcomes.len(), c.outcomes.last().cloned())
            })
            .unwrap();
        match last {
            Some(Ok(reply)) => println!(
                "call {n}: ok, reply {:?} (members left: {})",
                String::from_utf8_lossy(&reply),
                3 - round
            ),
            Some(Err(e)) => println!("call {n}: FAILED: {e}"),
            None => println!("call never completed"),
        }
    }
    println!("\nwith every member dead, the total failure is reported, not hung —");
    println!("replication masks partial failures; only total failure is visible (§3.5).");

    // Everything the run did is in the world's metrics registry: CPU per
    // host, datagram counts, per-node RPC counters, call latency, and
    // the causal span trees of the latest replicated calls (all of them,
    // in a run this short).
    println!(
        "\n==> metrics registry after the run\n{}",
        world.metrics_text()
    );
    println!(
        "==> causal span forest\n{}",
        world.metrics().span_tree().render()
    );
}
