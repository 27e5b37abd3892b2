//! The testbed: what every test, example and experiment stands its
//! troupes up with and drives its calls through.
//!
//! §4.4.1 measures the system with one testbed and one `rpctest` client
//! (Figures 4.5–4.7); this module is that pair. It holds
//!
//! - one spawn — [`spawn_troupe`] (and [`spawn_caller`], a process that
//!   only calls);
//! - one service for tests that need none of their own —
//!   [`CountingService`], an echo that counts;
//! - one client agent — [`Caller`], which runs queued [`Request`]s and
//!   records every completion. Every process the testbed spawns carries
//!   one, troupe members included: a troupe member may itself call, which
//!   is how a replicated client (§4.3.2) is driven;
//! - a blocking form for straight-line tests — [`call`];
//! - accessors in place of the `with_proc` + downcast + `unwrap` closure
//!   — [`agent`], [`service`], [`node`] and their `_mut` forms — plus
//!   [`assert_quiescent`] and the 1985 [`world`].
//!
//! What differs between one test's client and the next is data, not a
//! mode of the agent: which requests are queued, on which distributed
//! thread each is made ([`Request::on`]), and whether a poke begins one
//! call or a run of them back to back (the poke's tag, see [`Caller`]).
//!
//! ```
//! use circus::testbed::*;
//! use circus::{NodeConfig, TroupeId};
//! use simnet::Duration;
//!
//! let mut w = world(1985);
//! let config = NodeConfig::default();
//! let members = [addr(1, 70), addr(2, 70), addr(3, 70)];
//! let troupe = spawn_troupe(&mut w, TroupeId(7), &members, MODULE, &config, None, CountingService::default);
//! let client = spawn_caller(&mut w, addr(10, 100), config, None);
//! let echo = Request::new(&troupe, MODULE, PROC_ECHO, b"hello".to_vec());
//! assert_eq!(call(&mut w, client, echo, Duration::from_secs(5)), Ok(b"hello".to_vec()));
//! assert!(troupe.members.iter().all(|&m| executions(&w, m) == 1));
//! assert_quiescent(&w);
//! ```

use std::collections::VecDeque;

use simnet::{Duration, HostId, NetConfig, SockAddr, SyscallCosts, Time, Until, World};
use wire::{from_bytes, to_bytes};

use crate::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, ModuleAddr, Node, NodeBuilder,
    NodeConfig, NodeCtx, Service, ServiceCtx, Step, ThreadId, Troupe, TroupeId,
};

/// The module number tests export their one service as, for want of a
/// reason to pick another.
pub const MODULE: u16 = 1;
/// [`CountingService`]: returns its argument bytes.
pub const PROC_ECHO: u16 = 0;
/// [`CountingService`]: adds the `u32` argument to a running total and
/// returns the total.
pub const PROC_ADD: u16 = 1;
/// [`CountingService`]: raises an error, the same at every member.
pub const PROC_FAIL: u16 = 2;
/// [`CountingService`]: replies with the member's own host number — a
/// deliberate determinism violation.
pub const PROC_NONDET: u16 = 3;
/// [`CountingService`]: an echo that also records the distributed thread
/// it ran on.
pub const PROC_WHO: u16 = 4;
/// [`CountingService`]: replies with one byte more than a message can
/// carry.
pub const PROC_BLOAT: u16 = 5;

/// The service of tests that need none of their own: a deterministic
/// echo (the `rpctest` server of Figure 4.7) that counts its executions,
/// keeps a running total, and can carry both to a joining member.
#[derive(Default)]
pub struct CountingService {
    /// Dispatches so far (the exactly-once check).
    pub executions: u32,
    /// The [`PROC_ADD`] accumulator.
    pub total: u32,
    /// The threads [`PROC_WHO`] ran on, in order.
    pub seen_threads: Vec<ThreadId>,
}

impl Service for CountingService {
    fn dispatch(&mut self, ctx: &mut ServiceCtx, proc: u16, args: &[u8]) -> Step {
        self.executions += 1;
        match proc {
            PROC_ECHO => Step::Reply(args.to_vec()),
            PROC_ADD => {
                self.total += from_bytes::<u32>(args).unwrap_or(0);
                Step::Reply(to_bytes(&self.total))
            }
            PROC_FAIL => Step::Error("deterministic failure".into()),
            PROC_NONDET => Step::Reply(to_bytes(&(ctx.me.host.0 as u16))),
            PROC_WHO => {
                self.seen_threads.push(ctx.thread);
                Step::Reply(args.to_vec())
            }
            PROC_BLOAT => Step::Reply(vec![0; pairedmsg::Config::DEFAULT.max_message_len() + 1]),
            _ => Step::Error("unknown procedure".into()),
        }
    }

    fn get_state(&self) -> Vec<u8> {
        to_bytes(&(self.executions, self.total))
    }

    fn set_state(&mut self, state: &[u8]) {
        if let Ok((executions, total)) = from_bytes(state) {
            (self.executions, self.total) = (executions, total);
        }
    }
}

/// One replicated call, as data.
#[derive(Clone, Debug)]
pub struct Request {
    /// The troupe called.
    pub troupe: Troupe,
    /// The module called at each member.
    pub module: u16,
    /// The procedure.
    pub proc: u16,
    /// The externalized arguments.
    pub args: Vec<u8>,
    /// How the members' returns are collated.
    pub collation: CollationPolicy,
    /// The distributed thread the call is made on; `None` has the caller
    /// mint a fresh one for this call. The members of a replicated client
    /// act for one thread (§4.3.2), and a client whose calls must be
    /// numbered in one sequence makes them on one.
    pub thread: Option<ThreadId>,
}

impl Request {
    /// A call of `troupe`, collated [`CollationPolicy::Unanimous`], on a
    /// thread of its own.
    pub fn new(troupe: &Troupe, module: u16, proc: u16, args: Vec<u8>) -> Request {
        Request {
            troupe: troupe.clone(),
            module,
            proc,
            args,
            collation: CollationPolicy::Unanimous,
            thread: None,
        }
    }

    /// The same call under another collation policy.
    pub fn collate(mut self, collation: CollationPolicy) -> Request {
        self.collation = collation;
        self
    }

    /// The same call made on `thread`.
    pub fn on(mut self, thread: ThreadId) -> Request {
        self.thread = Some(thread);
        self
    }
}

/// One finished call of a [`Caller`].
#[derive(Clone, Debug, PartialEq)]
pub struct Completed {
    /// The handle the call was begun under.
    pub handle: CallHandle,
    /// What it came to.
    pub result: Result<Vec<u8>, CallError>,
    /// When it was begun.
    pub begun: Time,
    /// When it completed.
    pub done: Time,
}

/// The client agent: runs queued [`Request`]s and records what became of
/// them.
///
/// `world.poke(caller, k)` begins the next queued request at once and
/// `k` more back to back, each from the completion of the one before; a
/// poke that finds the queue empty does nothing. Pokes do not wait for
/// one another: a poke while a call is out begins another beside it.
#[derive(Default)]
pub struct Caller {
    queue: VecDeque<Request>,
    /// Calls still to begin from a completion.
    chained: u64,
    /// Calls out, with when each was begun.
    out: Vec<(CallHandle, Time)>,
    /// Every finished call, in completion order.
    pub completed: Vec<Completed>,
    /// Peers the call runtime declared dead (§4.2.3), in order.
    pub dead_members: Vec<SockAddr>,
    /// Calls whose late returns the watchdog found inconsistent (§4.3.4).
    pub violations: Vec<CallHandle>,
}

impl Caller {
    /// Queues `requests` behind whatever is queued already.
    pub fn enqueue(&mut self, requests: impl IntoIterator<Item = Request>) {
        self.queue.extend(requests);
    }

    /// The results of the finished calls, in completion order.
    pub fn results(&self) -> Vec<Result<Vec<u8>, CallError>> {
        self.completed.iter().map(|c| c.result.clone()).collect()
    }

    fn begin_next(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        let Some(r) = self.queue.pop_front() else {
            self.chained = 0;
            return;
        };
        let begun = nc.now();
        let thread = r.thread.unwrap_or_else(|| nc.fresh_thread());
        let handle = nc.call(thread, &r.troupe, r.module, r.proc, r.args, r.collation);
        self.out.push((handle, begun));
    }
}

impl Agent for Caller {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        self.chained = self.chained.saturating_add(tag);
        self.begin_next(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        let at = self.out.iter().position(|&(h, _)| h == handle);
        let begun = at.map_or(nc.now(), |i| self.out.swap_remove(i).1);
        self.completed.push(Completed {
            handle,
            result,
            begun,
            done: nc.now(),
        });
        if self.chained > 0 {
            self.chained -= 1;
            self.begin_next(nc);
        }
    }

    fn on_member_dead(&mut self, _nc: &mut NodeCtx<'_, '_, '_>, addr: SockAddr) {
        self.dead_members.push(addr);
    }

    fn on_determinism_violation(&mut self, _nc: &mut NodeCtx<'_, '_, '_>, handle: CallHandle) {
        self.violations.push(handle);
    }
}

/// A fresh world with the 1985 LAN and the VAX 4.2BSD cost model.
pub fn world(seed: u64) -> World {
    World::with_config(seed, NetConfig::lan_1985(), SyscallCosts::vax_4_2bsd())
}

/// The address of port `port` on host `host`.
pub fn addr(host: u32, port: u16) -> SockAddr {
    SockAddr::new(HostId(host), port)
}

/// Spawns a troupe: one process at each of `addrs`, each exporting one
/// `service()` as `module`, holding incarnation `id` and carrying a
/// [`Caller`]. `binder` is the binding agent the members resolve client
/// troupes through and report suspects to; a troupe the Ringmaster is
/// about to register starts out [`TroupeId::UNREGISTERED`].
pub fn spawn_troupe<S: Service>(
    world: &mut World,
    id: TroupeId,
    addrs: &[SockAddr],
    module: u16,
    config: &NodeConfig,
    binder: Option<&Troupe>,
    mut service: impl FnMut() -> S,
) -> Troupe {
    for &a in addrs {
        let member = NodeBuilder::new(a, config.clone())
            .service(module, Box::new(service()))
            .troupe_id(id);
        spawn(world, a, member, binder);
    }
    let members = addrs.iter().map(|&a| ModuleAddr::new(a, module)).collect();
    Troupe::new(id, members)
}

/// Spawns a process at `addr` that exports nothing and belongs to no
/// troupe: a [`Caller`] and the run-time system under it.
pub fn spawn_caller(
    world: &mut World,
    addr: SockAddr,
    config: NodeConfig,
    binder: Option<&Troupe>,
) -> SockAddr {
    spawn(world, addr, NodeBuilder::new(addr, config), binder);
    addr
}

/// Gives the process `b` describes its [`Caller`] and its binder, and
/// starts it at `addr`.
fn spawn(world: &mut World, addr: SockAddr, b: NodeBuilder, binder: Option<&Troupe>) {
    let b = b.agent(Box::<Caller>::default());
    let b = match binder {
        Some(binder) => b.binder(binder.clone()),
        None => b,
    };
    world.spawn(addr, Box::new(b.build().expect("valid node")));
}

/// Queues `requests` at the [`Caller`] at `caller`; a poke begins them.
pub fn enqueue(world: &mut World, caller: SockAddr, requests: impl IntoIterator<Item = Request>) {
    agent_mut(world, caller, |c: &mut Caller| c.enqueue(requests));
}

/// Makes one call from the [`Caller`] at `caller` (whose queue should be
/// empty) and runs the world until it completes: queue, poke, run.
///
/// # Panics
///
/// If the call has not completed after `patience` of simulated time.
pub fn call(
    world: &mut World,
    caller: SockAddr,
    request: Request,
    patience: Duration,
) -> Result<Vec<u8>, CallError> {
    let before = agent_mut(world, caller, |c: &mut Caller| {
        c.enqueue([request]);
        c.completed.len()
    });
    world.poke(caller, 0);
    let deadline = world.now() + patience;
    let finished = |w: &World| agent(w, caller, |c: &Caller| c.completed.len() > before);
    assert!(
        world.run(Until::pred(deadline, finished)),
        "the call from {caller} did not complete within {patience:?}"
    );
    agent(world, caller, |c: &Caller| {
        c.completed[before].result.clone()
    })
}

/// The results of the calls the [`Caller`] at `caller` has finished, in
/// completion order.
pub fn results(world: &World, caller: SockAddr) -> Vec<Result<Vec<u8>, CallError>> {
    agent(world, caller, Caller::results)
}

/// How often the [`CountingService`] at `member` has executed.
pub fn executions(world: &World, member: ModuleAddr) -> u32 {
    service(world, member.addr, member.module, |s: &CountingService| {
        s.executions
    })
}

fn process<R>(world: &World, addr: SockAddr, f: impl FnOnce(&CircusProcess) -> R) -> R {
    world
        .with_proc(addr, f)
        .unwrap_or_else(|| panic!("no live Circus process at {addr}"))
}

fn process_mut<R>(world: &mut World, addr: SockAddr, f: impl FnOnce(&mut CircusProcess) -> R) -> R {
    world
        .with_proc_mut(addr, f)
        .unwrap_or_else(|| panic!("no live Circus process at {addr}"))
}

/// Reads the run-time system of the process at `addr`.
pub fn node<R>(world: &World, addr: SockAddr, f: impl FnOnce(&Node) -> R) -> R {
    process(world, addr, |p| f(p.node()))
}

/// Alters the run-time system of the process at `addr` from outside, as
/// a configuration step would (a directory preload, say).
pub fn node_mut<R>(world: &mut World, addr: SockAddr, f: impl FnOnce(&mut Node) -> R) -> R {
    process_mut(world, addr, |p| f(p.node_mut()))
}

/// Reads the agent of the process at `addr`, which must be an `A`.
pub fn agent<A: Agent, R>(world: &World, addr: SockAddr, f: impl FnOnce(&A) -> R) -> R {
    process(world, addr, |p| {
        f(p.agent_as::<A>()
            .unwrap_or_else(|| panic!("{addr} hosts no such agent")))
    })
}

/// Alters the agent of the process at `addr`, which must be an `A`. To
/// make it *act*, poke it.
pub fn agent_mut<A: Agent, R>(world: &mut World, addr: SockAddr, f: impl FnOnce(&mut A) -> R) -> R {
    process_mut(world, addr, |p| {
        f(p.agent_as_mut::<A>()
            .unwrap_or_else(|| panic!("{addr} hosts no such agent")))
    })
}

/// Reads the service the process at `addr` exports as `module`, which
/// must be an `S`.
pub fn service<S: Service, R>(
    world: &World,
    addr: SockAddr,
    module: u16,
    f: impl FnOnce(&S) -> R,
) -> R {
    node(world, addr, |n| {
        f(n.service_as::<S>(module)
            .unwrap_or_else(|| panic!("{addr} exports no such service as module {module}")))
    })
}

/// Alters the service the process at `addr` exports as `module` behind
/// the protocol's back — what a test that corrupts a member does.
pub fn service_mut<S: Service, R>(
    world: &mut World,
    addr: SockAddr,
    module: u16,
    f: impl FnOnce(&mut S) -> R,
) -> R {
    node_mut(world, addr, |n| {
        f(n.service_as_mut::<S>(module)
            .unwrap_or_else(|| panic!("{addr} exports no such service as module {module}")))
    })
}

/// Requires every live process to hold no unfinished call and no open
/// assembly, and never to have split a call (a server that timed out on a
/// client member heard under another `call_seq`, which `debug_stuck`
/// names): what a world run to quiescence must look like.
pub fn assert_quiescent(world: &World) {
    for a in world.proc_addrs() {
        let stuck = node(world, a, Node::debug_stuck);
        // Nothing but the census line.
        assert!(stuck.len() == 1, "{a} still holds {stuck:?}");
    }
}
