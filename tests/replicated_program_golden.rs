//! Golden hashes of the replicated *program*: a registered client troupe
//! calling a server troupe that calls onward and calls back (§4.3.3).
//!
//! Every other golden drives its troupes from unregistered clients, so
//! the many-to-one half of the call runtime — directory hit,
//! park-and-lookup through the binding agent, an assembly of m > 1 call
//! messages, the assembly timeout, dead-peer slots in an assembly, the
//! buffered return for a slow client member, call-backs to the calling
//! troupe, nested calls from registered members — was checked by outcome
//! assertions only, which a reordered `sendmsg` or timer arm passes.
//! This table pins that half to the byte: same columns as
//! `chaos_hashes.txt`, three seeds of one scripted world. A change that
//! moves no row changed no simulated behaviour there. Regenerate
//! deliberately with
//! `UPDATE_GOLDEN=1 cargo test --test replicated_program_golden`.

mod golden;

use std::collections::BTreeMap;

use rdp::circus::binding::{binding_procs, BINDING_MODULE};
use rdp::circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, ModuleAddr, NodeBuilder,
    NodeConfig, NodeCtx, OutCall, Service, ServiceCtx, Step, ThreadId, Troupe, TroupeId,
    TroupeTarget,
};
use rdp::ringmaster::{spawn_ringmaster, RegisterTroupe};
use rdp::simnet::{Duration, HostId, NetConfig, SockAddr, SyscallCosts, TraceRing, Until, World};
use rdp::wire::{from_bytes, to_bytes};

const HEADER: &str = "\
# Golden hashes of the replicated program (tests/replicated_program_golden.rs).
# workload seed trace_hash trace_events span_hash metrics_fnv1a
";

/// The module the server and leaf troupes export.
const WORK: u16 = 1;
/// The module every client member exports to answer call-backs.
const READY: u16 = 2;
/// Executes on a majority of the client members' call messages, so a
/// slow member finds its return buffered.
const PROC_QUORUM: u16 = 0;
/// Waits for every client member's call message (or for the assembly
/// timeout, or for a dead-peer marker, to excuse it).
const PROC_STRICT: u16 = 1;

/// The third troupe: echoes, counting executions.
struct Leaf {
    executions: u32,
}

impl Service for Leaf {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, args: &[u8]) -> Step {
        self.executions += 1;
        Step::Reply(args.to_vec())
    }
}

/// The server troupe's module: forwards the arguments to the leaf
/// troupe, then asks the calling troupe whether it is ready (§5.3's
/// call-back), and replies with both answers.
struct Middle {
    leaf: Troupe,
    executions: u32,
    /// Per invocation: the leaf's answer, once it has come.
    from_leaf: BTreeMap<u64, Option<Vec<u8>>>,
}

impl Service for Middle {
    fn dispatch(&mut self, ctx: &mut ServiceCtx, _proc: u16, args: &[u8]) -> Step {
        self.executions += 1;
        self.from_leaf.insert(ctx.invocation, None);
        Step::Call(OutCall {
            target: TroupeTarget::Troupe(self.leaf.clone()),
            module: WORK,
            proc: 0,
            args: args.to_vec(),
            collation: CollationPolicy::Unanimous,
            solo: false,
        })
    }

    fn resume(&mut self, ctx: &mut ServiceCtx, reply: Result<Vec<u8>, CallError>) -> Step {
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => return Step::Error(format!("onward call failed: {e}")),
        };
        match self.from_leaf.remove(&ctx.invocation) {
            Some(None) => {
                self.from_leaf.insert(ctx.invocation, Some(reply));
                Step::Call(OutCall {
                    target: TroupeTarget::Caller,
                    module: READY,
                    proc: 0,
                    args: b"ready?".to_vec(),
                    collation: CollationPolicy::Unanimous,
                    solo: false,
                })
            }
            Some(Some(mut answer)) => {
                answer.extend_from_slice(&reply);
                Step::Reply(answer)
            }
            None => Step::Error("resumed without an invocation".into()),
        }
    }

    fn arg_collation(&self, proc: u16) -> CollationPolicy {
        match proc {
            PROC_QUORUM => CollationPolicy::Majority,
            _ => CollationPolicy::Unanimous,
        }
    }
}

/// A client member's call-back module.
struct Ready;

impl Service for Ready {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, _args: &[u8]) -> Step {
        Step::Reply(b"yes".to_vec())
    }
}

/// One member of the client troupe: each poke makes the program's next
/// call (the poke's tag is the procedure) on the troupe's one thread.
struct Member {
    thread: ThreadId,
    server: Troupe,
    calls: u32,
    results: Vec<Result<Vec<u8>, CallError>>,
}

impl Agent for Member {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        self.calls += 1;
        let server = self.server.clone();
        nc.call(
            self.thread,
            &server,
            WORK,
            tag as u16,
            to_bytes(&self.calls),
            CollationPolicy::Unanimous,
        );
    }

    fn on_call_done(
        &mut self,
        _nc: &mut NodeCtx<'_, '_, '_>,
        _h: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        self.results.push(result);
    }
}

/// Registers the client troupe with the Ringmaster, as a configuration
/// manager would (§6.2).
struct Registrar {
    binder: Troupe,
    req: RegisterTroupe,
    id: Option<TroupeId>,
}

impl Agent for Registrar {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
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
        self.id = result.ok().and_then(|bytes| from_bytes(&bytes).ok());
    }
}

fn addr(host: u32, port: u16) -> SockAddr {
    SockAddr::new(HostId(host), port)
}

fn run(w: &mut World, millis: u64) {
    w.run(Until::Elapsed(Duration::from_millis(millis)));
}

fn results(w: &World, member: SockAddr) -> Vec<Result<Vec<u8>, CallError>> {
    w.with_proc(member, |p: &CircusProcess| {
        p.agent_as::<Member>().expect("a member").results.clone()
    })
    .expect("member process")
}

/// What a call numbered `n` returns: the leaf's echo of the arguments
/// followed by the calling troupe's answer to the call-back.
fn answer(n: u32) -> Result<Vec<u8>, CallError> {
    let mut bytes = to_bytes(&n);
    bytes.extend_from_slice(b"yes");
    Ok(bytes)
}

/// Runs the scripted world for `seed` and returns its table row.
fn row(seed: u64) -> String {
    let mut w = World::with_config(seed, NetConfig::lan_1985(), SyscallCosts::vax_4_2bsd());
    w.set_trace_sink(Box::new(TraceRing::new(0)));
    let config = NodeConfig::default();

    let rm = spawn_ringmaster(&mut w, &[HostId(1), HostId(2), HostId(3)], config.clone());

    // The leaf troupe knows the server troupe's membership, so the three
    // nested calls of one invocation assemble into one execution.
    let server_id = TroupeId(200);
    let server_addrs: Vec<SockAddr> = (20..23).map(|h| addr(h, 70)).collect();
    let leaf_members: Vec<ModuleAddr> = (30..32)
        .map(|h| ModuleAddr::new(addr(h, 70), WORK))
        .collect();
    let leaf = Troupe::new(TroupeId(300), leaf_members);
    for m in &leaf.members {
        let p = NodeBuilder::new(m.addr, config.clone())
            .service(WORK, Box::new(Leaf { executions: 0 }))
            .troupe_id(leaf.id)
            .directory(server_id, server_addrs.clone())
            .build()
            .expect("valid node");
        w.spawn(m.addr, Box::new(p));
    }

    // The server troupe. Its last member is told nothing about the
    // client troupe; it has the Ringmaster to ask.
    let server = Troupe::new(
        server_id,
        server_addrs
            .iter()
            .map(|&a| ModuleAddr::new(a, WORK))
            .collect(),
    );
    let uninformed = server_addrs[2];
    for &a in &server_addrs {
        let mut b = NodeBuilder::new(a, config.clone())
            .service(
                WORK,
                Box::new(Middle {
                    leaf: leaf.clone(),
                    executions: 0,
                    from_leaf: BTreeMap::new(),
                }),
            )
            .troupe_id(server_id);
        if a == uninformed {
            b = b.binder(rm.clone());
        }
        w.spawn(a, Box::new(b.build().expect("valid node")));
    }

    // The client troupe: one thread, three members, registered through
    // the Ringmaster (whose own membership each member looks up when
    // the `set_troupe_id` round reaches it).
    let thread = ThreadId {
        origin: addr(100, 1),
        serial: 1,
    };
    let clients: Vec<SockAddr> = (10..13).map(|h| addr(h, 50)).collect();
    for &a in &clients {
        let p = NodeBuilder::new(a, config.clone())
            .agent(Box::new(Member {
                thread,
                server: server.clone(),
                calls: 0,
                results: Vec::new(),
            }))
            .service(READY, Box::new(Ready))
            .binder(rm.clone())
            .directory(server_id, server_addrs.clone())
            .build()
            .expect("valid node");
        w.spawn(a, Box::new(p));
    }
    let registrar = addr(90, 10);
    let p = NodeBuilder::new(registrar, config)
        .agent(Box::new(Registrar {
            binder: rm.clone(),
            req: RegisterTroupe {
                name: "program".into(),
                members: clients.iter().map(|&a| ModuleAddr::new(a, READY)).collect(),
            },
            id: None,
        }))
        .build()
        .expect("valid node");
    w.spawn(registrar, Box::new(p));
    w.poke(registrar, 0);
    run(&mut w, 5_000);
    let client_id = w
        .with_proc(registrar, |p: &CircusProcess| {
            p.agent_as::<Registrar>().expect("the registrar").id
        })
        .expect("registrar process")
        .expect("client troupe registered");
    for &a in &clients {
        let installed = w.with_proc(a, |p: &CircusProcess| p.node().troupe_id());
        assert_eq!(installed, Some(client_id), "{a} holds the incarnation");
    }
    for &a in &server_addrs[..2] {
        w.with_proc_mut(a, |p: &mut CircusProcess| {
            p.node_mut().preload_directory(client_id, clients.clone());
        })
        .expect("server process");
    }

    let executions = |w: &World| -> Vec<u32> {
        let middle = server_addrs.iter().map(|&a| {
            w.with_proc(a, |p: &CircusProcess| {
                p.node()
                    .service_as::<Middle>(WORK)
                    .expect("middle")
                    .executions
            })
        });
        let leaves = leaf.members.iter().map(|m| {
            w.with_proc(m.addr, |p: &CircusProcess| {
                p.node().service_as::<Leaf>(WORK).expect("leaf").executions
            })
        });
        middle.chain(leaves).map(|n| n.expect("process")).collect()
    };

    // Call 1: two members call at once — a quorum, so every server
    // member executes — and the third 2 s later, to find its return
    // waiting.
    w.poke(clients[0], u64::from(PROC_QUORUM));
    w.poke(clients[1], u64::from(PROC_QUORUM));
    run(&mut w, 2_000);
    assert_eq!(results(&w, clients[0]), vec![answer(1)]);
    assert_eq!(results(&w, clients[1]), vec![answer(1)]);
    w.poke(clients[2], u64::from(PROC_QUORUM));
    run(&mut w, 1_000);
    assert_eq!(results(&w, clients[2]), vec![answer(1)]);
    assert_eq!(
        executions(&w),
        vec![1; 5],
        "exactly once, late member or not"
    );

    // Call 2: the third member crashes before it calls. The servers wait
    // out the assembly timeout for it, and the call-back waits out the
    // crash horizon.
    w.crash_host(clients[2].host);
    w.poke(clients[0], u64::from(PROC_STRICT));
    w.poke(clients[1], u64::from(PROC_STRICT));
    run(&mut w, 9_000);
    assert_eq!(executions(&w), vec![1; 5], "still assembling");
    run(&mut w, 7_000);
    assert_eq!(results(&w, clients[0]), vec![answer(1), answer(2)]);
    assert_eq!(results(&w, clients[1]), vec![answer(1), answer(2)]);

    // Call 3: the crash is now known, so neither the assembly nor the
    // call-back waits for the dead member.
    w.poke(clients[0], u64::from(PROC_STRICT));
    w.poke(clients[1], u64::from(PROC_STRICT));
    run(&mut w, 1_000);
    assert_eq!(results(&w, clients[0]).last(), Some(&answer(3)));
    assert_eq!(results(&w, clients[1]).last(), Some(&answer(3)));
    assert_eq!(executions(&w), vec![3; 5]);

    // Let the suspicion the uninformed server reported run its course.
    run(&mut w, 30_000);
    for a in w.proc_addrs() {
        let stuck = w.with_proc(a, |p: &CircusProcess| p.node().debug_stuck());
        assert_eq!(stuck, Some(Vec::new()), "{a} holds a call or an assembly");
    }

    let ring = w.trace_sink_as::<TraceRing>().expect("the trace ring");
    let (trace_hash, trace_events) = (ring.hash(), ring.seen());
    w.refresh_metrics();
    let reg = w.metrics();
    format!(
        "replicated_program {seed} {trace_hash:#018x} {trace_events} {:#018x} {:#018x}\n",
        reg.span_hash(),
        golden::fnv1a(reg.dump_json().as_bytes()),
    )
}

#[test]
fn replicated_program_hashes_match_the_golden_table() {
    let mut table = String::from(HEADER);
    for seed in [1985, 7, 42] {
        table.push_str(&row(seed));
    }
    golden::check_golden("tests/golden/replicated_program.txt", &table);
}
