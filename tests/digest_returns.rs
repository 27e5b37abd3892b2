//! One full return per replicated call. A unanimous call that goes out by
//! blast names its first admitted member as the data member; every other
//! member whose return spans two or more segments sends its digest, which
//! the client compares with the data member's return (§4.3.4's error
//! detection, kept). If the data member dies first, the client fetches
//! the return from a member that sent a digest (`fetch_return`), which
//! answers from the returns it keeps and executes nothing.

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

/// Killed after it executed and before its return reached the client,
/// the data member is replaced by a fetch from a member that sent a
/// digest: the call completes with the result, and no member runs it
/// twice.
#[test]
fn a_data_member_killed_before_its_return_arrives_is_replaced_by_a_fetch() {
    let mut w = world(1985);
    let troupe = troupe_of(&mut w, CountingService::default);
    let client = client(&mut w);
    let data = troupe.members[0];
    let payload = vec![0x5A; BULK];
    let echo = Request::new(&troupe, MODULE, PROC_ECHO, payload.clone());
    enqueue(&mut w, client, [echo]);
    w.poke(client, 0);
    let deadline = w.now() + patience();
    // The data member's return is cut off on its way; the others answer.
    assert!(w.run(Until::pred(deadline, |w| executions(w, data) == 1)));
    w.set_partition(Partition::isolate(vec![data.addr.host]));
    let all_ran = |w: &World| troupe.members.iter().all(|&m| executions(w, m) == 1);
    assert!(w.run(Until::pred(deadline, all_ran)));
    w.run(Until::Elapsed(Duration::from_millis(100)));
    assert!(results(&w, client).is_empty(), "no full return yet");
    w.kill(data.addr);
    w.set_partition(Partition::none());

    let done = |w: &World| !results(w, client).is_empty();
    assert!(w.run(Until::pred(deadline, done)), "the call completes");
    assert_eq!(results(&w, client), [Ok(payload)]);
    for &m in &troupe.members[1..] {
        assert_eq!(executions(&w, m), 1, "{m} ran the call once");
    }
    assert_eq!(w.metrics().get("adv.rejected"), 0);
}

/// A member that sent a digest keeps the return for a fetch until its
/// thread's next call reaches it; the data member keeps nothing; a key
/// never called or no longer kept is an error. No fetch executes
/// anything.
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
    let (data, digest) = (troupe.members[0], troupe.members[1]);

    assert_eq!(
        call(&mut w, client, echo(&first), patience()),
        Ok(first.to_vec())
    );
    assert_eq!(fetch(&mut w, digest, 1), kept(&first));
    assert!(
        not_kept(fetch(&mut w, data, 1)),
        "the data member keeps nothing"
    );
    assert!(not_kept(fetch(&mut w, digest, 7)), "a call never made");

    assert_eq!(
        call(&mut w, client, echo(&second), patience()),
        Ok(second.to_vec())
    );
    assert!(
        not_kept(fetch(&mut w, digest, 1)),
        "forgotten at the next call"
    );
    assert_eq!(fetch(&mut w, digest, 2), kept(&second));
    for &m in &troupe.members {
        assert_eq!(executions(&w, m), 2, "{m}: fetches execute nothing");
    }
}

/// An 8 KiB result, the same at every member but the skewed one, where it
/// differs in one byte.
struct Skewed {
    skew: bool,
}

impl Service for Skewed {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, _args: &[u8]) -> Step {
        let mut result = vec![0x33; BULK];
        result[BULK / 2] ^= u8::from(self.skew);
        Step::Reply(result)
    }
}

/// A digest that differs from the full return in one byte's worth is a
/// disagreement, whether the odd member sent the digest or the return.
#[test]
fn one_byte_off_at_one_member_is_a_disagreement() {
    for skewed in [None, Some(1), Some(2), Some(3)] {
        let mut w = world(1985);
        let mut nth = 0;
        let troupe = troupe_of(&mut w, || {
            nth += 1;
            Skewed {
                skew: Some(nth) == skewed,
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
/// member takes in one full return and two digests — eight datagrams,
/// not eighteen — and gets the result.
#[test]
fn each_member_of_a_client_troupe_gets_one_full_return() {
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
        assert_eq!(received, 6 + 2, "{c}: one return and two digests");
        let heard = agent(&w, c, |a: &Caller| a.dead_members.len());
        assert_eq!(heard, 0);
    }
    for &m in &server.members {
        assert_eq!(executions(&w, m), 1);
    }
}
