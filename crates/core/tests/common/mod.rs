//! Shared helpers for circus end-to-end tests: a counting echo service, a
//! scriptable client agent, and a cluster builder.

use circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, ModuleAddr, NodeBuilder,
    NodeConfig, NodeCtx, Service, ServiceCtx, Step, ThreadId, Troupe, TroupeId,
};
use simnet::{HostId, SockAddr, SyscallCosts, World};
use wire::{from_bytes, to_bytes};

/// Module number used by test services.
pub const MODULE: u16 = 1;
/// Echo procedure: returns its argument bytes.
pub const PROC_ECHO: u16 = 0;
/// Increment procedure: adds the u32 argument to a counter, returns it.
pub const PROC_ADD: u16 = 1;
/// Procedure that deterministically raises an error.
pub const PROC_FAIL: u16 = 2;
/// Procedure whose reply depends on the member's own address — a
/// deliberate determinism violation for disagreement tests.
pub const PROC_NONDET: u16 = 3;
/// Procedure recording the calling thread id, for propagation tests.
pub const PROC_WHO: u16 = 4;
/// Procedure whose reply is one byte more than a message can carry.
pub const PROC_BLOAT: u16 = 5;

/// A deterministic test service that counts executions.
pub struct CountingService {
    /// Number of dispatches (exactly-once checks).
    pub executions: u32,
    /// Accumulator for `PROC_ADD`.
    pub total: u32,
    /// Thread ids observed via `PROC_WHO`.
    pub seen_threads: Vec<ThreadId>,
}

impl CountingService {
    pub fn new() -> CountingService {
        CountingService {
            executions: 0,
            total: 0,
            seen_threads: Vec::new(),
        }
    }
}

impl Service for CountingService {
    fn dispatch(&mut self, ctx: &mut ServiceCtx, proc: u16, args: &[u8]) -> Step {
        self.executions += 1;
        match proc {
            PROC_ECHO => Step::Reply(args.to_vec()),
            PROC_ADD => {
                let n: u32 = from_bytes(args).unwrap_or(0);
                self.total += n;
                Step::Reply(to_bytes(&self.total))
            }
            PROC_FAIL => Step::Error("deterministic failure".into()),
            PROC_NONDET => Step::Reply(to_bytes(&(ctx.me.host.0 as u16))),
            PROC_WHO => {
                self.seen_threads.push(ctx.thread);
                Step::Reply(Vec::new())
            }
            PROC_BLOAT => Step::Reply(vec![0; NodeConfig::default().pm.max_message_len() + 1]),
            _ => Step::Error("unknown procedure".into()),
        }
    }

    fn get_state(&self) -> Vec<u8> {
        to_bytes(&(self.executions, self.total))
    }

    fn set_state(&mut self, state: &[u8]) {
        if let Ok((e, t)) = from_bytes::<(u32, u32)>(state) {
            self.executions = e;
            self.total = t;
        }
    }
}

/// One scripted request.
#[derive(Clone)]
pub struct Request {
    pub troupe: Troupe,
    pub module: u16,
    pub proc: u16,
    pub args: Vec<u8>,
    pub collation: CollationPolicy,
}

/// A client agent that fires one scripted request per poke and records
/// every completion.
pub struct TestClient {
    /// Thread identity; members of a replicated client troupe share it.
    pub thread: Option<ThreadId>,
    pub script: Vec<Request>,
    pub next: usize,
    pub results: Vec<Result<Vec<u8>, CallError>>,
    pub dead_members: Vec<SockAddr>,
}

impl TestClient {
    pub fn new(script: Vec<Request>) -> TestClient {
        TestClient {
            thread: None,
            script,
            next: 0,
            results: Vec::new(),
            dead_members: Vec::new(),
        }
    }

    /// Fixes the logical thread (for replicated client troupes, whose
    /// members act on behalf of the same thread, §4.3.2).
    pub fn with_thread(mut self, t: ThreadId) -> TestClient {
        self.thread = Some(t);
        self
    }
}

impl Agent for TestClient {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        if self.next >= self.script.len() {
            return;
        }
        let req = self.script[self.next].clone();
        self.next += 1;
        let thread = match self.thread {
            Some(t) => t,
            None => {
                let t = nc.fresh_thread();
                self.thread = Some(t);
                t
            }
        };
        nc.call(
            thread,
            &req.troupe,
            req.module,
            req.proc,
            req.args,
            req.collation,
        );
    }

    fn on_call_done(
        &mut self,
        _nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        self.results.push(result);
    }

    fn on_member_dead(&mut self, _nc: &mut NodeCtx<'_, '_, '_>, addr: SockAddr) {
        self.dead_members.push(addr);
    }
}

pub fn addr(h: u32, p: u16) -> SockAddr {
    SockAddr::new(HostId(h), p)
}

/// Spawns a server troupe of `CountingService`s on hosts `first_host..`,
/// all at port 70, with troupe id `id`.
pub fn spawn_server_troupe(world: &mut World, id: u64, first_host: u32, n: usize) -> Troupe {
    let mut members = Vec::new();
    for i in 0..n {
        let a = addr(first_host + i as u32, 70);
        let p = NodeBuilder::new(a, NodeConfig::default())
            .service(MODULE, Box::new(CountingService::new()))
            .troupe_id(TroupeId(id))
            .build()
            .expect("valid node");
        world.spawn(a, Box::new(p));
        members.push(ModuleAddr::new(a, MODULE));
    }
    Troupe::new(TroupeId(id), members)
}

/// Spawns an unreplicated client with the given script at host 100.
pub fn spawn_client(world: &mut World, script: Vec<Request>) -> SockAddr {
    let a = addr(100, 200);
    let p = NodeBuilder::new(a, NodeConfig::default())
        .agent(Box::new(TestClient::new(script)))
        .build()
        .expect("valid node");
    world.spawn(a, Box::new(p));
    a
}

/// Reads the recorded results of the client at `a`.
pub fn client_results(world: &World, a: SockAddr) -> Vec<Result<Vec<u8>, CallError>> {
    world
        .with_proc(a, |p: &CircusProcess| {
            p.agent_as::<TestClient>().unwrap().results.clone()
        })
        .unwrap()
}

/// Reads the execution counter of the service at `a`.
pub fn executions(world: &World, a: SockAddr) -> u32 {
    world
        .with_proc(a, |p: &CircusProcess| {
            p.node()
                .service_as::<CountingService>(MODULE)
                .unwrap()
                .executions
        })
        .unwrap()
}

/// Requires every live node to hold no unfinished call and no open
/// assembly: what a world run to quiescence must look like.
pub fn assert_quiescent(world: &World) {
    for a in world.proc_addrs() {
        let stuck = world.with_proc(a, |p: &CircusProcess| p.node().debug_stuck());
        assert_eq!(stuck, Some(Vec::new()), "{a} still holds protocol state");
    }
}

/// A fresh world with the 1985 LAN and cost model.
pub fn world(seed: u64) -> World {
    World::with_config(
        seed,
        simnet::NetConfig::lan_1985(),
        SyscallCosts::vax_4_2bsd(),
    )
}
