//! The one chaos harness: a [`Workload`] plugged into a fixed scenario.
//!
//! Every chaos run has the same shape, whatever is being replicated.
//! [`quiesce`] builds a world containing every layer of the system — a
//! three-member Ringmaster troupe (its leader running the
//! [`SelfHealAgent`](ringmaster::SelfHealAgent)), a three-member workload
//! troupe placed by solving a configlang specification and registered
//! from a third-party administrative process, warm spares that offer
//! themselves via `register_spare`, and two [`Client`]s that import the
//! troupe by name — then runs the workload's fault schedule against it
//! through the [`Driver`], and finally *quiesces* the world: every
//! client finishes its script, one probe item is forced through every
//! binding cache (§6.2's lazy invalidation has no other trigger),
//! retransmissions settle, and the frozen world is handed to the oracles
//! as a [`Quiesced`].
//!
//! A [`Workload`] supplies only what actually differs between the
//! synchronization schemes of §5.5: the member [`Service`], the client
//! [`Scripted`] protocol with its seeded script and quiesce probe, the
//! oracles, and the extra report fields. (The recovery workload also
//! replaces the fault schedule with a script of its own.) Adding a fifth
//! workload is implementing this trait; sweeps, determinism, the golden
//! table and the repro line come with it.

use std::fmt;

use circus::testbed::{agent, enqueue, spawn_caller, Caller};
use circus::{CircusProcess, ModuleAddr, NodeBuilder, NodeConfig, Service};
use configlang::{ConfigManager, Machine, Universe, Value};
use ringmaster::{registration, spawn_ringmaster, SpareAgent, SpareService, SPARE_CTL_MODULE};
use simnet::{
    Duration, HostId, NetConfig, SimRng, SockAddr, SyscallCosts, TraceRing, Until, World,
};
use transactions::Script;

use crate::client::{Client, Scripted};
use crate::drive::Driver;
use crate::oracle::Violation;
use crate::plan::{FaultPlan, PlanOptions, PlannedFault};

/// Module number of the replicated workload service.
pub const MEMBER_MODULE: u16 = 1;
/// Module number of the client-side commit voter (store workloads).
pub const COMMIT_MODULE: u16 = 2;
/// Port workload troupe members (and spares) listen on.
pub const MEMBER_PORT: u16 = 70;
/// Port clients (and the registrar) listen on.
pub const CLIENT_PORT: u16 = 10;
/// The replication degree the troupe specification asks for — and,
/// because the healer replaces every confirmed-dead member from the
/// spare pool, the degree the troupe must be back at by quiesce.
pub const REPLICATION: usize = 3;
/// The configlang specification the initial placement is solved from.
pub const TROUPE_SPEC: &str =
    "troupe(x, y, z) where x.memory >= 8 and y.memory >= 8 and z.memory >= 8";
/// The hosts that can run workload members: three initial members plus
/// two warm spares.
const MEMBER_HOSTS: std::ops::RangeInclusive<u32> = 10..=14;

/// Scenario knobs, shared by every workload.
#[derive(Clone, Debug)]
pub struct ScenarioOptions {
    /// Script items per client before the quiesce probe. The default is
    /// the store's; [`Workload::options`] gives each workload's own.
    pub txns_per_client: usize,
    /// Bounds for the generated fault plan.
    pub plan: PlanOptions,
    /// Multicast single-segment one-to-many calls too (§4.3.3 on every
    /// call; multi-segment ones always are):
    /// [`NodeConfig::multicast_small_calls`] on every node.
    pub multicast_small_calls: bool,
    /// Adversary factory: called with the scenario seed once the full
    /// stack is spawned (before the fault plan runs), typically to
    /// install a [`simnet::TrafficInjector`] on the world. A plain `fn`
    /// pointer keeps the options `Clone` and the scenario a pure
    /// function of `(seed, options)`.
    pub injector: Option<fn(u64, &mut World)>,
    /// Replace the generated plan with an explicit fault list —
    /// regression tests use this to force, say, a kill in the middle of
    /// a broadcast storm and check the rejoined spare agrees on order.
    pub override_faults: Option<Vec<PlannedFault>>,
}

impl Default for ScenarioOptions {
    fn default() -> ScenarioOptions {
        ScenarioOptions {
            txns_per_client: 40,
            plan: PlanOptions::default(),
            multicast_small_calls: false,
            injector: None,
            override_faults: None,
        }
    }
}

/// What one synchronization scheme brings to the chaos scenario.
pub trait Workload: Sync {
    /// The client side of the scheme: protocol, script, quiesce probe.
    type Proto: Scripted;
    /// Workload-specific report fields, printed after the common ones.
    type Extra: Clone + Default + fmt::Debug + fmt::Display + Send;

    /// The workload's name: `cargo test -p chaos --test <NAME>` is its
    /// sweep, which is what a failing report's repro line says.
    const NAME: &'static str;
    /// The name the troupe is registered under.
    const TROUPE: &'static str;
    /// Domain-separates the script RNG from the world's, the plan's and
    /// the other workloads'.
    const SCRIPT_SALT: u64;
    /// Script items per client this workload runs by default.
    const SCRIPT_LEN: usize;
    /// Whether the two hosts the placement left free run warm spares.
    const WARM_SPARES: bool = true;

    /// The default options for this workload.
    fn options() -> ScenarioOptions {
        ScenarioOptions {
            txns_per_client: Self::SCRIPT_LEN,
            ..ScenarioOptions::default()
        }
    }

    /// A fresh member service for the process about to be spawned on
    /// `host` (initial members and warm spares alike).
    fn service(&self, w: &mut World, host: HostId) -> Box<dyn Service>;

    /// Runs the fault schedule against the live workload and returns
    /// the plan that was executed. The default drives the seed's
    /// [`FaultPlan`] (or the override), then heals the network and lets
    /// the healer drain its suspect queue.
    fn faults(
        &self,
        d: &mut Driver,
        seed: u64,
        opts: &ScenarioOptions,
        _extra: &mut Self::Extra,
    ) -> FaultPlan {
        let plan = match &opts.override_faults {
            Some(faults) => FaultPlan {
                seed,
                faults: faults.clone(),
            },
            None => FaultPlan::generate(seed, &opts.plan),
        };
        for pf in &plan.faults {
            d.apply(pf);
        }
        d.heal_and_drain();
        plan
    }

    /// Runs the workload's oracles over the quiesced world and fills in
    /// the report extras.
    fn check(&self, q: &Quiesced, extra: &mut Self::Extra, out: &mut Vec<Violation>);
}

/// The quiesced world plus everything the oracles need to find their
/// witnesses in it.
pub struct Quiesced {
    /// The frozen world.
    pub world: World,
    /// The generating seed.
    pub seed: u64,
    /// The fault plan that was executed.
    pub plan: FaultPlan,
    /// The name the workload troupe is registered under.
    pub troupe: &'static str,
    /// The troupe membership at quiesce (per the Ringmaster registry).
    pub members: Vec<ModuleAddr>,
    /// The client process addresses.
    pub client_addrs: Vec<SockAddr>,
    /// The Ringmaster member hosts.
    pub ringmaster_hosts: Vec<HostId>,
    /// Every address a process ran at during the run, dead ones
    /// included, in address order.
    pub spawned: Vec<SockAddr>,
    /// Addresses outside the scenario that traffic may have been forged
    /// from: one while an injector is installed (the adversary forges
    /// from a single host of its own), otherwise none.
    pub outsiders: usize,
    /// Spare processes the scenario spawned: its warm spares, and any its
    /// fault script started (a recovery process offers itself as one).
    pub spares: usize,
    /// `true` if every client finished its whole script (plus probe).
    pub all_clients_finished: bool,
    /// Crash/kill repairs completed *by the self-healing agent* (probe,
    /// evict, spare activation) — the driver performs none itself.
    pub repairs: usize,
    /// Non-fatal driver anomalies (a repair the healer never finished, a
    /// lookup that never answered...). The sweep treats these as failures
    /// too.
    pub driver_warnings: Vec<String>,
}

/// Visits the client agent of every live process in `clients`.
pub fn each_client<P: Scripted>(
    w: &World,
    clients: &[SockAddr],
    mut f: impl FnMut(SockAddr, &Client<P>),
) {
    for &c in clients {
        w.with_proc(c, |p: &CircusProcess| {
            let a = p
                .agent_as::<Client<P>>()
                .expect("client process hosts the workload's client");
            f(c, a);
        });
    }
}

impl Quiesced {
    /// Visits every client agent, in address order.
    pub fn each_client<P: Scripted>(&self, f: impl FnMut(SockAddr, &Client<P>)) {
        each_client(&self.world, &self.client_addrs, f);
    }

    /// Reads the workload service of the live process at `addr`.
    pub fn service_at<S: Service, R>(&self, addr: SockAddr, f: impl FnOnce(&S) -> R) -> Option<R> {
        self.world
            .with_proc(addr, |p: &CircusProcess| {
                p.node().service_as::<S>(MEMBER_MODULE).map(f)
            })
            .flatten()
    }

    /// Reads the workload service of every live registered member.
    pub fn member_views<S: Service, R>(&self, mut f: impl FnMut(SockAddr, &S) -> R) -> Vec<R> {
        self.members
            .iter()
            .filter_map(|m| self.service_at(m.addr, |s| f(m.addr, s)))
            .collect()
    }
}

/// `true` once every client has finished its script (or failed hard).
pub fn clients_finished<P: Scripted>(w: &World, clients: &[SockAddr]) -> bool {
    clients.iter().all(|&c| {
        w.with_proc(c, |p: &CircusProcess| {
            p.agent_as::<Client<P>>().is_some_and(|a| a.finished())
        })
        .unwrap_or(false)
    })
}

/// Runs `wl` in a fresh world (the 1985 LAN, seeded): builds the stack,
/// runs the fault schedule for `seed` against the live workload,
/// quiesces, and returns everything the oracles need plus whatever the
/// fault schedule noted in the extras.
pub fn quiesce<W: Workload>(wl: &W, seed: u64, opts: &ScenarioOptions) -> (Quiesced, W::Extra) {
    let mut w = World::with_config(seed, NetConfig::lan_1985(), SyscallCosts::default());
    let baseline = w.net().clone();
    // The sink must be installed before the first spawn so the whole run,
    // setup included, is covered by the trace hash. A bounded ring keeps
    // memory flat no matter how long the run is: the hash still covers
    // every event, only the retained window is capped.
    w.set_trace_sink(Box::new(TraceRing::new(4_096)));

    let config = NodeConfig {
        assembly_timeout: Duration::from_micros(1_500_000),
        multicast_small_calls: opts.multicast_small_calls,
        ..NodeConfig::default()
    };
    let rm_hosts = vec![HostId(1), HostId(2), HostId(3)];
    let rm = spawn_ringmaster(&mut w, &rm_hosts, config.clone());

    // The initial placement is *solved*, not hard-coded: the manager
    // instantiates the troupe spec over the machine database (every
    // member-capable host satisfies the memory constraint) and members
    // are spawned exactly where it says.
    let mut warnings = Vec::new();
    let universe = MEMBER_HOSTS.fold(Universe::new(), |u, id| {
        u.with(Machine::named(id, &format!("vax-{id}")).with("memory", Value::Num(16)))
    });
    let mut cm = ConfigManager::new(universe);
    let placed: Vec<u32> = match cm.instantiate(W::TROUPE, TROUPE_SPEC) {
        Ok(_) => cm
            .troupe(W::TROUPE)
            .expect("just instantiated")
            .placement
            .clone(),
        Err(e) => {
            warnings.push(format!("configlang instantiation failed: {e}"));
            vec![10, 11, 12]
        }
    };
    let members: Vec<ModuleAddr> = placed
        .iter()
        .map(|&h| ModuleAddr::new(SockAddr::new(HostId(h), MEMBER_PORT), MEMBER_MODULE))
        .collect();
    for m in &members {
        let service = wl.service(&mut w, m.addr.host);
        let p = NodeBuilder::new(m.addr, config.clone())
            .service(MEMBER_MODULE, service)
            .binder(rm.clone())
            .build()
            .expect("valid node");
        w.spawn(m.addr, Box::new(p));
    }

    // Warm spares on the machines the solver did not pick: full member
    // processes that register themselves with the Ringmaster at boot and
    // wait to be activated by the healer. A spare never reuses a dead
    // member's address — its peers still remember the dead process's
    // paired-message call numbers.
    let spare_hosts: Vec<HostId> = MEMBER_HOSTS
        .filter(|h| W::WARM_SPARES && !placed.contains(h))
        .map(HostId)
        .collect();
    for &h in &spare_hosts {
        let addr = SockAddr::new(h, MEMBER_PORT);
        let service = wl.service(&mut w, h);
        let p = NodeBuilder::new(addr, config.clone())
            .service(MEMBER_MODULE, service)
            .service(
                SPARE_CTL_MODULE,
                Box::new(SpareService::new(rm.clone(), W::TROUPE, MEMBER_MODULE)),
            )
            .agent(Box::new(SpareAgent::new(rm.clone(), W::TROUPE)))
            .binder(rm.clone())
            .build()
            .expect("valid node");
        w.spawn(addr, Box::new(p));
    }

    // The troupe is registered from a third-party administrative process
    // (§6.3: clients need only the binding agent's well-known address).
    let registrar = SockAddr::new(HostId(90), CLIENT_PORT);
    spawn_caller(&mut w, registrar, config.clone(), None);
    enqueue(&mut w, registrar, [registration(&rm, W::TROUPE, &members)]);
    w.poke(registrar, 0);
    let deadline = w.now() + Duration::from_micros(30_000_000);
    let registered = w.run(Until::pred(deadline, |w| {
        agent(w, registrar, |r: &Caller| {
            r.completed.iter().any(|c| c.result.is_ok())
        })
    }));
    if !registered {
        warnings.push(format!("{} troupe never registered", W::TROUPE));
    }

    // Scripts are drawn from a workload RNG domain-separated from both
    // the world and the plan.
    let mut wrng = SimRng::new(seed ^ W::SCRIPT_SALT.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let clients: Vec<SockAddr> = [20u32, 21]
        .iter()
        .map(|&h| SockAddr::new(HostId(h), CLIENT_PORT))
        .collect();
    for (i, &c) in clients.iter().enumerate() {
        let script = (0..opts.txns_per_client)
            .map(|n| W::Proto::script_item(&mut wrng, i, n))
            .collect();
        let script = Script::new(script, W::Proto::for_client(i));
        let client = Client::new(rm.clone(), W::TROUPE, MEMBER_MODULE, script);
        // Clients observe member deaths first (their calls fail), so
        // they too carry the binder and report suspects to it.
        let p = W::Proto::client_node(NodeBuilder::new(c, config.clone()).agent(Box::new(client)))
            .binder(rm.clone())
            .build()
            .expect("valid node");
        w.spawn(c, Box::new(p));
        w.poke(c, 0);
    }

    // The adversary arms itself only after the honest stack is fully
    // spawned, so its injection clock starts from a deterministic point
    // in every run of the same seed.
    if let Some(install) = opts.injector {
        install(seed, &mut w);
    }

    let mut d = Driver {
        w,
        rm,
        config,
        rm_hosts,
        name: W::TROUPE,
        members,
        clients,
        warnings,
        spare_budget: spare_hosts.len(),
        spares: spare_hosts.len(),
        crashed: Vec::new(),
        baseline,
        cm,
    };
    let mut extra = W::Extra::default();
    let plan = wl.faults(&mut d, seed, opts, &mut extra);

    // Quiesce: let every client finish its script, then force one probe
    // item per client through its binding cache, so a binding left stale
    // by the last reconfiguration is detected and repaired before the
    // oracles look — and, for protocols that queue, so every member
    // dispatches (and drains) once more.
    let clients = d.clients.clone();
    let deadline = d.w.now() + Duration::from_micros(180_000_000);
    let finished = d.w.run(Until::pred(deadline, |w| {
        clients_finished::<W::Proto>(w, &clients)
    }));
    if !finished {
        d.warnings
            .push("clients did not finish before quiesce".into());
    }
    for (i, &c) in clients.iter().enumerate() {
        d.w.with_proc_mut(c, |p: &mut CircusProcess| {
            if let Some(a) = p.agent_as_mut::<Client<W::Proto>>() {
                a.enqueue(W::Proto::probe(i));
            }
        });
        d.w.poke(c, 0);
    }
    let deadline = d.w.now() + Duration::from_micros(120_000_000);
    let probed = d.w.run(Until::pred(deadline, |w| {
        clients_finished::<W::Proto>(w, &clients)
    }));
    if !probed {
        d.warnings.push("quiesce probes did not finish".into());
    }
    // Let retransmissions and deferred acks settle.
    d.w.run(Until::Elapsed(Duration::from_micros(5_000_000)));

    d.refresh_members();
    let repairs = d.healed_repairs();
    // What the fault script spawned (a recovery process) is live now.
    let mut spawned = d.w.proc_addrs();
    spawned.extend(d.rm.members.iter().map(|m| m.addr));
    spawned.extend(
        placed
            .iter()
            .map(|&h| SockAddr::new(HostId(h), MEMBER_PORT)),
    );
    spawned.extend(spare_hosts.iter().map(|&h| SockAddr::new(h, MEMBER_PORT)));
    spawned.extend([registrar].iter().chain(&clients));
    spawned.sort_unstable();
    spawned.dedup();
    let q = Quiesced {
        world: d.w,
        seed,
        plan,
        troupe: W::TROUPE,
        members: d.members,
        client_addrs: clients,
        ringmaster_hosts: d.rm_hosts,
        spawned,
        outsiders: usize::from(opts.injector.is_some()),
        spares: d.spares,
        all_clients_finished: finished && probed,
        repairs,
        driver_warnings: d.warnings,
    };
    (q, extra)
}
