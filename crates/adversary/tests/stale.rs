//! Stale-incarnation rejection: a forged call bearing a troupe's *old*
//! incarnation id must be refused by the incarnation check, tick
//! `adv.rejected`, and must not make anyone suspect a live member.
//!
//! Seed 2 is the self-heal gate scenario: two members crash and are
//! replaced, so by quiescence the store troupe's id has moved past the
//! incarnation the crashed members served under — exactly the id an
//! attacker replaying old traffic would present.

use chaos::{run_scenario, ScenarioOptions, MEMBER_MODULE};
use circus::testbed::node;
use circus::{CallMessage, Node, ThreadId, TroupeId};
use pairedmsg::{MsgType, Segment};
use simnet::{Duration, HostId, SockAddr};

#[test]
fn stale_incarnation_call_is_rejected_without_suspicion() {
    let mut q = run_scenario(2, &ScenarioOptions::default());
    assert_eq!(q.repairs, 2, "seed 2 must exercise the self-heal path");

    let member = q.members[0].addr;
    let current = node(&q.world, member, Node::troupe_id);
    assert!(current.0 > 1, "store troupe id should have advanced");
    let stale = TroupeId(current.0 - 1);

    let reg = q.world.metrics();
    let rejected_before = reg.get("adv.rejected");
    let suspicions_before = reg.get("ring.suspicions");
    let evictions_before = reg.get("ring.evictions");

    // A well-formed call from a host that is not part of the system,
    // addressed to the incarnation the troupe no longer is.
    let attacker = SockAddr::new(HostId(66), 6);
    let msg = CallMessage {
        thread: ThreadId {
            origin: attacker,
            serial: 1,
        },
        call_seq: 1,
        client_troupe: TroupeId::UNREGISTERED,
        server_troupe: stale,
        module: MEMBER_MODULE,
        proc: 0,
        args: vec![0xde, 0xad],
        members: vec![],
    };
    let seg = Segment::data(MsgType::Call, 1, 0, 1, 1, true, wire::to_bytes(&msg)).encode();
    q.world.inject_datagram(attacker, member, seg);
    q.world
        .run(simnet::Until::Elapsed(Duration::from_micros(2_000_000)));

    assert!(
        reg.get("adv.rejected") > rejected_before,
        "stale-incarnation call was not counted as rejected"
    );
    assert_eq!(
        reg.get("ring.suspicions"),
        suspicions_before,
        "a forged stale call must not seed suspicion of a live member"
    );
    assert_eq!(
        reg.get("ring.evictions"),
        evictions_before,
        "a forged stale call must not evict anyone"
    );
    // The member is still bound under its current incarnation.
    let after = node(&q.world, member, Node::troupe_id);
    assert_eq!(after, current, "rejection must not disturb the binding");
}
