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

use rdp::circus::binding::{binding_procs, BINDING_MODULE};
use rdp::circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, ModuleAddr, NodeBuilder,
    NodeConfig, NodeCtx, Service, ServiceCtx, Step, Troupe, TroupeId,
};
use rdp::configlang::{ConfigManager, Machine, Placement, Universe, Value};
use rdp::ringmaster::{
    activate, spawn_ringmaster, ImportCache, RegisterTroupe, SpareService, SPARE_CTL_MODULE,
};
use rdp::simnet::{Duration, HostId, SockAddr, World};
use rdp::wire::{from_bytes, to_bytes};

const APP_MODULE: u16 = 1;

/// The replicated module: a counter whose state must survive crashes.
struct Counter {
    value: u32,
}

impl Service for Counter {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, args: &[u8]) -> Step {
        let n: u32 = from_bytes(args).unwrap_or(0);
        self.value += n;
        Step::Reply(to_bytes(&self.value))
    }

    fn get_state(&self) -> Vec<u8> {
        to_bytes(&self.value)
    }

    fn set_state(&mut self, state: &[u8]) {
        if let Ok(v) = from_bytes(state) {
            self.value = v;
        }
    }
}

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
        let Some(troupe) = self.troupe.clone() else {
            // Need a binding first.
            let (proc, args) = ImportCache::lookup_request("counter");
            let t = nc.fresh_thread();
            let binder = self.binder.clone();
            self.pending_increment = true;
            nc.call(
                t,
                &binder,
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
            &troupe,
            APP_MODULE,
            0,
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
                let binder = self.binder.clone();
                self.pending_increment = true;
                nc.call(
                    t,
                    &binder,
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

/// The configuration manager's process (§6.2): registers the troupe at
/// program start (poke 0) and, when a replacement has been started on
/// machine `m`, tells it to join (poke `m`).
struct Registrar {
    binder: Troupe,
    req: RegisterTroupe,
    pub id: Option<TroupeId>,
}

impl Agent for Registrar {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        if tag != 0 {
            let replacement = SockAddr::new(HostId(tag as u32), 70);
            activate(
                nc,
                ModuleAddr::new(replacement, SPARE_CTL_MODULE),
                &self.req.name,
            );
            return;
        }
        let t = nc.fresh_thread();
        let binder = self.binder.clone();
        nc.call(
            t,
            &binder,
            BINDING_MODULE,
            binding_procs::REGISTER_TROUPE,
            to_bytes(&self.req),
            CollationPolicy::Majority,
        );
    }

    fn on_call_done(
        &mut self,
        _nc: &mut NodeCtx<'_, '_, '_>,
        _h: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        match result {
            // The registration's reply is the troupe id; an activation's
            // is empty.
            Ok(bytes) if self.id.is_none() => self.id = from_bytes(&bytes).ok(),
            Ok(_) => {}
            Err(e) => panic!("configuration manager's call failed: {e}"),
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
    let mut members = Vec::new();
    println!("configuration manager placement:");
    for a in &actions {
        if let Placement::Start { machine, .. } = a {
            println!("  start counter member on vax-{machine} (memory >= 8)");
            let addr = SockAddr::new(HostId(*machine), 70);
            let p = NodeBuilder::new(addr, NodeConfig::default())
                .service(APP_MODULE, Box::new(Counter { value: 0 }))
                .binder(rm.clone())
                .build()
                .expect("valid node");
            world.spawn(addr, Box::new(p));
            members.push(ModuleAddr::new(addr, APP_MODULE));
        }
    }

    // Register the whole troupe with the Ringmaster.
    let registrar = SockAddr::new(HostId(90), 10);
    let p = NodeBuilder::new(registrar, NodeConfig::default())
        .agent(Box::new(Registrar {
            binder: rm.clone(),
            req: RegisterTroupe {
                name: "counter".into(),
                members: members.clone(),
            },
            id: None,
        }))
        .build()
        .expect("valid node");
    world.spawn(registrar, Box::new(p));
    world.poke(registrar, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(10)));
    let first_id = world
        .with_proc(registrar, |p: &CircusProcess| {
            p.agent_as::<Registrar>().unwrap().id
        })
        .unwrap()
        .expect("registered");
    println!("registered as incarnation {}\n", first_id.0);

    // The client imports by name and increments three times.
    let client = SockAddr::new(HostId(50), 10);
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
            let addr = SockAddr::new(HostId(*machine), 70);
            let p = NodeBuilder::new(addr, NodeConfig::default())
                .service(APP_MODULE, Box::new(Counter { value: 0 }))
                .service(
                    SPARE_CTL_MODULE,
                    Box::new(SpareService::new(rm.clone(), "counter", APP_MODULE)),
                )
                .binder(rm.clone())
                .build()
                .expect("valid node");
            world.spawn(addr, Box::new(p));
            world.poke(registrar, u64::from(*machine));
        }
    }
    world.run(simnet::Until::Elapsed(Duration::from_secs(60)));

    // More increments: the first fails with a stale binding (the troupe
    // re-incarnated), the client rebinds, and counting continues.
    for _ in 0..3 {
        world.poke(client, 0);
        world.run(simnet::Until::Elapsed(Duration::from_secs(30)));
    }

    let log = world
        .with_proc(client, |p: &CircusProcess| {
            p.agent_as::<CountingClient>().unwrap().log.clone()
        })
        .unwrap();
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
