//! Dynamic reconfiguration (Chapter 6 + §7.5): a troupe survives a crash
//! and is healed by the configuration manager.
//!
//! The pieces working together:
//! - a **Ringmaster** troupe (the binding agent, §6.3);
//! - a replicated counter registered through `register_troupe`;
//! - the **configuration language** picking machines by attribute
//!   (`troupe(x, y, z) where x.memory >= 8 ...`, §7.5.2);
//! - a crash, detected by the client, and a **reconfiguration**: the
//!   manager solves the troupe extension problem (§7.5.3) for a
//!   replacement machine, starts a process there and calls `activate`
//!   on its spare control module, which wedges the survivors, fetches
//!   the module state with `get_state` and registers via
//!   `add_troupe_member` (§6.4.1) — re-incarnating the troupe (§6.2);
//! - the client's stale binding is rejected and refreshed via `rebind`
//!   (§6.1).
//!
//! Run with: `cargo run --example reconfiguration`

use rdp::circus::binding::BINDING_MODULE;
use rdp::circus::testbed::{
    addr, agent, call, spawn_caller, spawn_troupe, CountingService, PROC_ADD,
};
use rdp::circus::{
    Agent, CallError, CallHandle, CollationPolicy, ModuleAddr, NodeBuilder, NodeConfig, NodeCtx,
    Troupe, TroupeId,
};
use rdp::configlang::{ConfigManager, Machine, Placement, Universe, Value};
use rdp::ringmaster::{
    activation, registration, spawn_ringmaster, ImportCache, SpareService, SPARE_CTL_MODULE,
};
use rdp::simnet::{Duration, HostId, World};
use rdp::wire::{from_bytes, to_bytes};

/// The replicated module is the testbed's counting service: its running
/// total is the counter whose state must survive crashes, and it carries
/// it to a joining member through `get_state`/`set_state`.
const APP_MODULE: u16 = 1;

/// A client that increments the counter, rebinding when its cached
/// troupe goes stale (§6.1's cache invalidation).
struct CountingClient {
    binder: Troupe,
    cache: ImportCache,
    troupe: Option<Troupe>,
    pending_increment: bool,
    pub log: Vec<String>,
}

impl CountingClient {
    fn increment(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        let Some(troupe) = &self.troupe else {
            // Need a binding first.
            let (proc, args) = ImportCache::lookup_request("counter");
            let t = nc.fresh_thread();
            self.pending_increment = true;
            nc.call(
                t,
                &self.binder,
                BINDING_MODULE,
                proc,
                args,
                CollationPolicy::Majority,
            );
            return;
        };
        let t = nc.fresh_thread();
        nc.call(
            t,
            troupe,
            APP_MODULE,
            PROC_ADD,
            to_bytes(&1u32),
            CollationPolicy::Unanimous,
        );
    }
}

impl Agent for CountingClient {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        self.increment(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        if self.pending_increment {
            // This was a binding lookup/rebind reply.
            self.pending_increment = false;
            match result {
                Ok(bytes) => {
                    self.troupe = self.cache.store_reply("counter", &bytes);
                    self.log.push(format!(
                        "bound to incarnation {}",
                        self.troupe.as_ref().map(|t| t.id.0).unwrap_or(0)
                    ));
                    self.increment(nc);
                }
                Err(e) => self.log.push(format!("binding failed: {e}")),
            }
            return;
        }
        match result {
            Ok(bytes) => {
                let v: u32 = from_bytes(&bytes).unwrap_or(0);
                self.log.push(format!("counter = {v}"));
            }
            Err(e) if ImportCache::should_rebind(&e) => {
                self.log.push(format!("stale binding ({e}); rebinding"));
                self.cache.invalidate("counter");
                let (proc, args) = self.cache.rebind_request("counter");
                let t = nc.fresh_thread();
                self.pending_increment = true;
                nc.call(
                    t,
                    &self.binder,
                    BINDING_MODULE,
                    proc,
                    args,
                    CollationPolicy::Majority,
                );
            }
            Err(e) => self.log.push(format!("call failed: {e}")),
        }
    }
}

fn main() {
    let mut world = World::new(21);

    // The machine universe with attributes (§7.5.2). Hosts 1-3 run the
    // Ringmaster; hosts 4-8 are candidates for application troupes.
    let mut universe = Universe::new();
    for h in 4..=8u32 {
        universe = universe.with(
            Machine::named(h, &format!("vax-{h}"))
                .with("memory", Value::Num(if h == 7 { 4 } else { 16 })),
        );
    }
    let mut manager = ConfigManager::new(universe);

    // Spawn the Ringmaster troupe (well-known ports, §6.3).
    let rm = spawn_ringmaster(
        &mut world,
        &[HostId(1), HostId(2), HostId(3)],
        NodeConfig::default(),
    );

    // The configuration manager picks machines for the counter troupe.
    let actions = manager
        .instantiate(
            "counter",
            "troupe(x, y, z) where x.memory >= 8 and y.memory >= 8 and z.memory >= 8",
        )
        .expect("spec satisfiable");
    let mut machines = Vec::new();
    println!("configuration manager placement:");
    for a in &actions {
        if let Placement::Start { machine, .. } = a {
            println!("  start counter member on vax-{machine} (memory >= 8)");
            machines.push(addr(*machine, 70));
        }
    }
    let config = NodeConfig::default();
    let members = spawn_troupe(
        &mut world,
        TroupeId::UNREGISTERED,
        &machines,
        APP_MODULE,
        &config,
        Some(&rm),
        CountingService::default,
    )
    .members;

    // The configuration manager's own process (§6.2) registers the whole
    // troupe with the Ringmaster.
    let manager_addr = spawn_caller(&mut world, addr(90, 10), config, None);
    let register = registration(&rm, "counter", &members);
    let first_id =
        call(&mut world, manager_addr, register, Duration::from_secs(10)).expect("registered");
    let first_id: TroupeId = from_bytes(&first_id).expect("a troupe id");
    println!("registered as incarnation {}\n", first_id.0);

    // The client imports by name and increments three times.
    let client = addr(50, 10);
    let p = NodeBuilder::new(client, NodeConfig::default())
        .agent(Box::new(CountingClient {
            binder: rm.clone(),
            cache: ImportCache::new(),
            troupe: None,
            pending_increment: false,
            log: Vec::new(),
        }))
        .build()
        .expect("valid node");
    world.spawn(client, Box::new(p));
    for _ in 0..3 {
        world.poke(client, 0);
        world.run(simnet::Until::Elapsed(Duration::from_secs(10)));
    }

    // Crash one member's machine.
    let victim = members[0].addr.host;
    println!("-- crashing vax-{} --", victim.0);
    world.crash_host(victim);
    manager.machine_down(victim.0);

    // The manager re-solves the placement (§7.5.3), starts a
    // replacement and activates it: the replacement wedges the
    // survivors, transfers their state and registers.
    let actions = manager.reconfigure("counter").expect("replacement found");
    for a in &actions {
        if let Placement::Start { machine, .. } = a {
            println!("reconfiguration: start replacement on vax-{machine}");
            let replacement = addr(*machine, 70);
            let p = NodeBuilder::new(replacement, NodeConfig::default())
                .service(APP_MODULE, Box::new(CountingService::default()))
                .service(
                    SPARE_CTL_MODULE,
                    Box::new(SpareService::new(rm.clone(), "counter", APP_MODULE)),
                )
                .binder(rm.clone())
                .build()
                .expect("valid node");
            world.spawn(replacement, Box::new(p));
            let join = activation(ModuleAddr::new(replacement, SPARE_CTL_MODULE), "counter");
            call(&mut world, manager_addr, join, Duration::from_secs(60))
                .expect("the replacement joined");
        }
    }
    // Meanwhile the Ringmaster's healer notices the crash on its own and
    // evicts the dead member, which re-incarnates the troupe once more;
    // let it finish before the client comes back.
    world.run(simnet::Until::Elapsed(Duration::from_secs(60)));

    // More increments: the first fails with a stale binding (the troupe
    // re-incarnated), the client rebinds, and counting continues.
    for _ in 0..3 {
        world.poke(client, 0);
        world.run(simnet::Until::Elapsed(Duration::from_secs(30)));
    }

    let log = agent(&world, client, |c: &CountingClient| c.log.clone());
    println!("\nclient log:");
    for line in &log {
        println!("  {line}");
    }
    assert!(log.iter().any(|l| l.contains("stale binding")));
    assert_eq!(
        log.iter().filter(|l| l.starts_with("counter = ")).count(),
        6,
        "all six increments must eventually succeed"
    );
    assert!(
        log.last().unwrap().contains("counter = 6"),
        "state survived the crash: the replacement joined with get_state"
    );
    println!("\nthe counter reached 6 across a crash + replacement: state was");
    println!("transferred to the new member (§6.4.1) and the stale binding was");
    println!("detected and refreshed via the troupe-ID incarnation check (§6.2).");
}
