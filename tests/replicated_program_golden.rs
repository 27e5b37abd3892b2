//! Golden hashes of the replicated *program*: a registered client troupe
//! calling a server troupe that calls onward and calls back (§4.3.3).
//!
//! Every other golden drives its troupes from unregistered clients, so
//! the many-to-one half of the call runtime — directory hit,
//! park-and-lookup through the binding agent, an assembly of m > 1 call
//! messages, the assembly timeout, the buffered return for a slow client
//! member, call-backs to the calling troupe, nested calls from registered
//! members, a call from the incarnation the healer's eviction leaves —
//! was checked by outcome assertions only, which a reordered `sendmsg`
//! or timer arm passes. This table pins that half to the byte: same
//! columns as `chaos_hashes.txt`, three seeds of one scripted world. A
//! change that moves no row changed no simulated behaviour there.
//! Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test --test replicated_program_golden`.
//! (Dead-peer slots in an assembly are pinned by
//! `crates/core/tests/replicated_call.rs`.)

mod golden;

use std::collections::BTreeMap;

use rdp::circus::testbed::{
    addr, assert_quiescent, enqueue, executions, node, node_mut, results, service, spawn_caller,
    spawn_troupe, world, CountingService, Request,
};
use rdp::circus::{
    CallError, CollationPolicy, ModuleAddr, Node, NodeConfig, OutCall, Service, ServiceCtx, Step,
    ThreadId, Troupe, TroupeId, TroupeTarget,
};
use rdp::ringmaster::{registration, spawn_ringmaster};
use rdp::simnet::{Duration, HostId, SockAddr, TraceRing, Until, World};
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
            args: args.into(),
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
                    args: b"ready?".into(),
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

fn run(w: &mut World, millis: u64) {
    w.run(Until::Elapsed(Duration::from_millis(millis)));
}

/// What a call numbered `n` returns: the leaf's echo of the arguments
/// followed by the calling troupe's answer to the call-back.
fn answer(n: u32) -> Result<Vec<u8>, CallError> {
    let mut bytes = to_bytes(&n);
    bytes.extend_from_slice(b"yes");
    Ok(bytes)
}

/// Runs the scripted world for `seed` and returns its table row and its
/// rendered span forest.
fn row(seed: u64) -> (String, String) {
    let mut w = world(seed);
    w.set_trace_sink(Box::new(TraceRing::unbounded()));
    let config = NodeConfig::default();

    let rm = spawn_ringmaster(&mut w, &[HostId(1), HostId(2), HostId(3)], config.clone());

    // The leaf troupe (the testbed's counting echo) knows the server
    // troupe's membership, so the three nested calls of one invocation
    // assemble into one execution.
    let server_id = TroupeId(200);
    let server_addrs: Vec<SockAddr> = (20..23).map(|h| addr(h, 70)).collect();
    let leaf_addrs = [addr(30, 70), addr(31, 70)];
    let leaf = spawn_troupe(
        &mut w,
        TroupeId(300),
        &leaf_addrs,
        WORK,
        &config,
        None,
        CountingService::default,
    );
    for &a in &leaf_addrs {
        node_mut(&mut w, a, |n| {
            n.preload_directory(server_id, server_addrs.clone())
        });
    }

    // The server troupe. Its last member is told nothing about the
    // client troupe; it has the Ringmaster to ask.
    let middle = || Middle {
        leaf: leaf.clone(),
        executions: 0,
        from_leaf: BTreeMap::new(),
    };
    let (informed, uninformed) = server_addrs.split_at(2);
    spawn_troupe(&mut w, server_id, informed, WORK, &config, None, middle);
    spawn_troupe(
        &mut w,
        server_id,
        uninformed,
        WORK,
        &config,
        Some(&rm),
        middle,
    );
    let server = Troupe::new(
        server_id,
        server_addrs
            .iter()
            .map(|&a| ModuleAddr::new(a, WORK))
            .collect(),
    );

    // The client troupe: one thread, three members, registered through
    // the Ringmaster (whose own membership each member looks up when
    // the `set_troupe_id` round reaches it).
    let thread = ThreadId {
        origin: addr(100, 1),
        serial: 1,
    };
    let clients: Vec<SockAddr> = (10..13).map(|h| addr(h, 50)).collect();
    let program = spawn_troupe(
        &mut w,
        TroupeId::UNREGISTERED,
        &clients,
        READY,
        &config,
        Some(&rm),
        || Ready,
    );
    for &a in &clients {
        node_mut(&mut w, a, |n| {
            n.preload_directory(server_id, server_addrs.clone())
        });
    }
    let registrar = spawn_caller(&mut w, addr(90, 10), config, None);
    enqueue(
        &mut w,
        registrar,
        [registration(&rm, "program", &program.members)],
    );
    w.poke(registrar, 0);
    run(&mut w, 5_000);
    let registered = results(&w, registrar)
        .pop()
        .expect("the reply")
        .expect("registered");
    let client_id: TroupeId = from_bytes(&registered).expect("a troupe id");
    for &a in &clients {
        let installed = node(&w, a, Node::troupe_id);
        assert_eq!(installed, client_id, "{a} holds the incarnation");
    }
    for &a in informed {
        node_mut(&mut w, a, |n| {
            n.preload_directory(client_id, clients.clone())
        });
    }

    let executions = |w: &World| -> Vec<u32> {
        let middle = server_addrs
            .iter()
            .map(|&a| service(w, a, WORK, |m: &Middle| m.executions));
        let leaves = leaf.members.iter().map(|&m| executions(w, m));
        middle.chain(leaves).collect()
    };

    // The program: each poke makes a member's next call, numbered from 1,
    // on the troupe's one thread.
    let mut calls = [0u32; 3];
    let mut poke = |w: &mut World, member: usize, proc: u16| {
        calls[member] += 1;
        let args = to_bytes(&calls[member]);
        enqueue(
            w,
            clients[member],
            [Request::new(&server, WORK, proc, args).on(thread)],
        );
        w.poke(clients[member], 0);
    };

    // Call 1: two members call at once — a quorum, so every server
    // member executes — and the third 2 s later, to find its return
    // waiting.
    poke(&mut w, 0, PROC_QUORUM);
    poke(&mut w, 1, PROC_QUORUM);
    run(&mut w, 2_000);
    assert_eq!(results(&w, clients[0]), vec![answer(1)]);
    assert_eq!(results(&w, clients[1]), vec![answer(1)]);
    poke(&mut w, 2, PROC_QUORUM);
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
    poke(&mut w, 0, PROC_STRICT);
    poke(&mut w, 1, PROC_STRICT);
    run(&mut w, 9_000);
    assert_eq!(executions(&w), vec![1; 5], "still assembling");
    run(&mut w, 7_000);
    assert_eq!(results(&w, clients[0]), vec![answer(1), answer(2)]);
    assert_eq!(results(&w, clients[1]), vec![answer(1), answer(2)]);

    // The healer evicts the crashed member, and the two survivors hold
    // the troupe's new incarnation. The informed servers have no binding
    // agent to ask for its membership, so, as at registration, the
    // script stands in for it.
    let reg = w.metrics();
    let deadline = w.now() + Duration::from_secs(60);
    let evicted = w.run(Until::pred(deadline, |_| reg.get("ring.evictions") == 1));
    assert!(evicted, "the crashed member was never evicted");
    let survivors = &clients[..2];
    let client_id = node(&w, survivors[0], Node::troupe_id);
    assert_eq!(node(&w, survivors[1], Node::troupe_id), client_id);
    for &a in informed {
        node_mut(&mut w, a, |n| {
            n.preload_directory(client_id, survivors.to_vec())
        });
    }

    // Call 3, from the new incarnation: every server member knows its
    // two members, so neither the assembly nor the call-back waits for
    // the dead one.
    poke(&mut w, 0, PROC_STRICT);
    poke(&mut w, 1, PROC_STRICT);
    run(&mut w, 1_000);
    assert_eq!(results(&w, clients[0]).last(), Some(&answer(3)));
    assert_eq!(results(&w, clients[1]).last(), Some(&answer(3)));
    assert_eq!(executions(&w), vec![3; 5]);

    // Let the world settle before the quiescence check.
    run(&mut w, 30_000);
    assert_quiescent(&w);

    let ring = w.trace_sink_as::<TraceRing>().expect("the trace ring");
    let (trace_hash, trace_events) = (ring.hash(), ring.seen());
    let reg = w.metrics();
    let row = format!(
        "replicated_program {seed} {trace_hash:#018x} {trace_events} {:#018x} {:#018x}\n",
        reg.span_hash(),
        rdp::obs::fnv1a(reg.dump_json().as_bytes()),
    );
    (row, ring.span_tree(&reg).render())
}

#[test]
fn replicated_program_hashes_match_the_golden_table() {
    let (mut table, mut forests) = (String::from(HEADER), String::new());
    for seed in [1985, 7, 42] {
        let (row, forest) = row(seed);
        table.push_str(&row);
        forests.push_str(&format!("## seed {seed}\n{forest}"));
    }
    golden::check_golden("tests/golden/replicated_program.txt", &table);
    // How the forest is kept may change; the forest may not.
    golden::check_golden("tests/golden/replicated_program_spans.txt", &forests);
}
