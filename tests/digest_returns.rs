//! Every member returns a part. A unanimous call that goes out by blast
//! names the members it went to; each returns the part of a return of two
//! or more segments that its position names — the data member (the first)
//! the head, every other one segment's worth of the tail — with the
//! digest of the whole, and the client joins the parts and checks every
//! digest against them (§4.3.4's error detection, kept). If a part's
//! owner dies first, the client fetches the whole return from a member
//! whose part is in (`fetch_return`), which answers from the returns it
//! keeps and executes nothing.

use rdp::circus::binding::reserved_procs::FETCH_RETURN;
use rdp::circus::testbed::{
    addr, agent, call, enqueue, executions, node_mut, results, spawn_caller, spawn_troupe, world,
    Caller, CountingService, Request, MODULE, PROC_ECHO,
};
use rdp::circus::{
    CallError, ModuleAddr, NodeConfig, ReturnMessage, Service, ServiceCtx, Step, ThreadId, Troupe,
    TroupeId,
};
use rdp::simnet::{Duration, Partition, SockAddr, Syscall, Until, World};
use rdp::wire::to_bytes;

/// Eight KiB each way: six segments.
const BULK: usize = 8192;

fn patience() -> Duration {
    Duration::from_secs(10)
}

/// A three-member troupe of `service()`s at hosts 1–3.
fn troupe_of<S: Service>(w: &mut World, service: impl FnMut() -> S) -> Troupe {
    let members: Vec<SockAddr> = (1..=3).map(|h| addr(h, 70)).collect();
    let config = NodeConfig::default();
    spawn_troupe(w, TroupeId(9), &members, MODULE, &config, None, service)
}

fn client(w: &mut World) -> SockAddr {
    spawn_caller(w, addr(10, 10), NodeConfig::default(), None)
}

/// The member at `owner` executes an 8 KiB echo and is killed before its
/// part reaches the client: the call completes with the result, fetched
/// whole from a member whose part is in, and no member runs it twice.
fn killed_before_its_part_arrives(owner: usize) {
    let mut w = world(1985);
    let troupe = troupe_of(&mut w, CountingService::default);
    let client = client(&mut w);
    let killed = troupe.members[owner];
    let payload = vec![0x5A; BULK];
    let echo = Request::new(&troupe, MODULE, PROC_ECHO, payload.clone());
    enqueue(&mut w, client, [echo]);
    w.poke(client, 0);
    let deadline = w.now() + patience();
    // The member's part is cut off on its way; the others answer.
    assert!(w.run(Until::pred(deadline, |w| executions(w, killed) == 1)));
    w.set_partition(Partition::isolate(vec![killed.addr.host]));
    let all_ran = |w: &World| troupe.members.iter().all(|&m| executions(w, m) == 1);
    assert!(w.run(Until::pred(deadline, all_ran)));
    w.run(Until::Elapsed(Duration::from_millis(100)));
    assert!(results(&w, client).is_empty(), "a part is missing");
    w.kill(killed.addr);
    w.set_partition(Partition::none());

    let done = |w: &World| !results(w, client).is_empty();
    assert!(w.run(Until::pred(deadline, done)), "the call completes");
    assert_eq!(results(&w, client), [Ok(payload)]);
    for &m in &troupe.members {
        if m != killed {
            assert_eq!(executions(&w, m), 1, "{m} ran the call once");
        }
    }
    assert_eq!(w.metrics().get("adv.rejected"), 0);
}

/// Killed after it executed and before its head reached the client, the
/// data member is replaced by a fetch.
#[test]
fn a_data_member_killed_before_its_return_arrives_is_replaced_by_a_fetch() {
    killed_before_its_part_arrives(0);
}

/// So is a member whose part is one segment of the tail.
#[test]
fn a_tail_member_killed_before_its_part_arrives_is_replaced_by_a_fetch() {
    killed_before_its_part_arrives(2);
}

/// Every member that sent a part keeps the return for a fetch until its
/// thread's next call reaches it; a key never called or no longer kept
/// is an error. No fetch executes anything.
#[test]
fn a_kept_return_is_fetched_until_the_threads_next_call() {
    let mut w = world(1985);
    let troupe = troupe_of(&mut w, CountingService::default);
    let client = client(&mut w);
    let thread = ThreadId {
        origin: client,
        serial: 1,
    };
    let echo = |args: &[u8]| Request::new(&troupe, MODULE, PROC_ECHO, args.to_vec()).on(thread);
    let fetch = |w: &mut World, member: ModuleAddr, call_seq: u32| {
        let from = Troupe::new(troupe.id, vec![member]);
        let key = to_bytes(&(TroupeId::UNREGISTERED, thread, call_seq));
        call(
            w,
            client,
            Request::new(&from, MODULE, FETCH_RETURN, key),
            patience(),
        )
    };
    let kept = |body: &[u8]| Ok(to_bytes(&ReturnMessage::Normal(body.to_vec())));
    let not_kept = |result: Result<Vec<u8>, CallError>| matches!(result, Err(CallError::Remote(_)));
    let (first, second) = ([1u8; BULK], [2u8; BULK]);
    assert_eq!(
        call(&mut w, client, echo(&first), patience()),
        Ok(first.to_vec())
    );
    for &member in &troupe.members {
        assert_eq!(fetch(&mut w, member, 1), kept(&first));
    }
    let tail = troupe.members[2];
    assert!(not_kept(fetch(&mut w, tail, 7)), "a call never made");

    assert_eq!(
        call(&mut w, client, echo(&second), patience()),
        Ok(second.to_vec())
    );
    assert!(
        not_kept(fetch(&mut w, tail, 1)),
        "forgotten at the next call"
    );
    assert_eq!(fetch(&mut w, tail, 2), kept(&second));
    for &m in &troupe.members {
        assert_eq!(executions(&w, m), 2, "{m}: fetches execute nothing");
    }
}

/// An 8 KiB result, the same at every member but the skewed one, where
/// byte `at` differs.
struct Skewed {
    skew: Option<usize>,
}

impl Service for Skewed {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, _args: &[u8]) -> Step {
        let mut result = vec![0x33; BULK];
        if let Some(at) = self.skew {
            result[at] ^= 1;
        }
        Step::Reply(result)
    }
}

/// A return one byte off at one member is a disagreement, whether the
/// byte lies in the part that member sends — its digest then vouches for
/// other bytes than the parts make — or outside it, where its digest
/// alone differs. The return is 8,198 bytes and a tail part carries
/// 1,470, so member 0's head holds the results' first 5,252 bytes, member
/// 1's part the next 1,470 and member 2's the last 1,470.
#[test]
fn one_byte_off_at_one_member_is_a_disagreement() {
    let skews = [None, Some((0, 100)), Some((0, 8000)), Some((1, 6000))];
    let more = [Some((1, 7000)), Some((2, 8000)), Some((2, 100))];
    for skewed in skews.into_iter().chain(more) {
        let mut w = world(1985);
        let mut nth = 0;
        let troupe = troupe_of(&mut w, || {
            nth += 1;
            let skew = skewed.filter(|&(member, _)| member + 1 == nth);
            Skewed {
                skew: skew.map(|(_, at)| at),
            }
        });
        let client = client(&mut w);
        let request = Request::new(&troupe, MODULE, 0, vec![0; BULK]);
        let result = call(&mut w, client, request, patience());
        match skewed {
            None => assert_eq!(result, Ok(vec![0x33; BULK])),
            Some(_) => assert_eq!(result, Err(CallError::Disagreement), "{skewed:?}"),
        }
    }
}

/// A replicated client of two members makes one 8 KiB call: each client
/// member takes in the head and two tail parts — six datagrams, the
/// return's own count — and gets the result.
#[test]
fn each_member_of_a_client_troupe_gets_one_head_and_two_parts() {
    let mut w = world(1985);
    let server = troupe_of(&mut w, CountingService::default);
    let clients = [addr(20, 50), addr(21, 50)];
    let config = NodeConfig::default();
    let id = TroupeId(30);
    spawn_troupe(
        &mut w,
        id,
        &clients,
        MODULE,
        &config,
        None,
        CountingService::default,
    );
    for m in &server.members {
        node_mut(&mut w, m.addr, |n| {
            n.preload_directory(id, clients.to_vec())
        });
    }
    let thread = ThreadId {
        origin: addr(200, 1),
        serial: 1,
    };
    let payload = vec![7u8; BULK];
    let echo = Request::new(&server, MODULE, PROC_ECHO, payload.clone()).on(thread);
    for &c in &clients {
        enqueue(&mut w, c, [echo.clone()]);
        w.poke(c, 0);
    }
    let deadline = w.now() + patience();
    let done = |w: &World| clients.iter().all(|&c| !results(w, c).is_empty());
    assert!(w.run(Until::pred(deadline, done)));
    for &c in &clients {
        assert_eq!(results(&w, c), [Ok(payload.clone())]);
        let received = w.cpu(c).count_of(Syscall::RecvMsg.index());
        assert_eq!(received, 4 + 2, "{c}: a head and two parts");
        let heard = agent(&w, c, |a: &Caller| a.dead_members.len());
        assert_eq!(heard, 0);
    }
    for &m in &server.members {
        assert_eq!(executions(&w, m), 1);
    }
}
