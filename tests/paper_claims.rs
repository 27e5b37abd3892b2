//! Tests pinning the paper's *headline claims* as executable assertions,
//! one per claim, phrased the way the dissertation phrases them.

use rdp::analysis;
use rdp::circus::testbed::{
    addr, call, executions, spawn_caller, spawn_troupe, CountingService, Request, MODULE, PROC_ECHO,
};
use rdp::circus::{CallError, NodeConfig, Troupe, TroupeId};
use rdp::simnet::{Duration, HostId, SockAddr, World};

/// An `n`-member echo troupe on hosts `1..=n`, and one client.
fn rig(w: &mut World, n: u32) -> (Troupe, SockAddr) {
    let members: Vec<SockAddr> = (1..=n).map(|h| addr(h, 70)).collect();
    let config = NodeConfig::default();
    let troupe = spawn_troupe(
        w,
        TroupeId(1),
        &members,
        MODULE,
        &config,
        None,
        CountingService::default,
    );
    (troupe, spawn_caller(w, addr(10, 50), config, None))
}

/// One echo call of `troupe`, given `secs` to complete.
fn claim(
    w: &mut World,
    client: SockAddr,
    troupe: &Troupe,
    secs: u64,
) -> Result<Vec<u8>, CallError> {
    let echo = Request::new(troupe, MODULE, PROC_ECHO, b"claim".to_vec());
    call(w, client, echo, Duration::from_secs(secs))
}

/// "A replicated distributed program constructed in this way will
/// continue to function as long as at least one member of each troupe
/// survives" (§4.1).
#[test]
fn survives_all_but_one_member() {
    let mut w = World::new(1);
    let (troupe, client) = rig(&mut w, 5);
    for h in 1..=4 {
        w.crash_host(HostId(h)); // Kill 4 of 5.
    }
    assert_eq!(claim(&mut w, client, &troupe, 120), Ok(b"claim".to_vec()));
}

/// "The semantics of replicated procedure call can be summarized as
/// exactly-once execution at all replicas" (Abstract).
#[test]
fn exactly_once_at_all_replicas() {
    let mut w = World::new(2);
    let (troupe, client) = rig(&mut w, 3);
    assert_eq!(claim(&mut w, client, &troupe, 30), Ok(b"claim".to_vec()));
    w.run(simnet::Until::Elapsed(Duration::from_secs(30)));
    for &m in &troupe.members {
        assert_eq!(executions(&w, m), 1, "member {m}");
    }
}

/// "The degree of replication of a troupe can be varied dynamically,
/// with no recompilation or relinking" (§1.1) — the same service code
/// serves any troupe size; here sizes 1..=4 run the identical binary
/// logic in one process image.
#[test]
fn degree_of_replication_is_a_runtime_choice() {
    for n in 1..=4u32 {
        let mut w = World::new(3 + n as u64);
        let (troupe, client) = rig(&mut w, n);
        let reply = claim(&mut w, client, &troupe, 30);
        assert_eq!(reply, Ok(b"claim".to_vec()), "degree {n}");
    }
}

/// "The probability of total failures can be made arbitrarily small by
/// choosing an appropriate degree of replication" (§3.5.1) — via the
/// §6.4.2 model: availability improves monotonically and reaches any
/// target.
#[test]
fn replication_buys_any_availability_target() {
    let (lambda, mu) = (1.0, 9.0);
    let mut prev = 0.0;
    let mut reached_five_nines = false;
    for n in 1..=10 {
        let a = analysis::availability(n, lambda, mu);
        assert!(a > prev, "availability must improve with n");
        prev = a;
        if a >= 0.99999 {
            reached_five_nines = true;
        }
    }
    assert!(
        reached_five_nines,
        "ten replicas should exceed five nines at lambda/mu = 1/9"
    );
}

/// "Packets... may be lost, delayed, duplicated" (§2.2) and the
/// protocols still provide exactly-once: the whole stack under a
/// simultaneously lossy AND duplicating network.
#[test]
fn exactly_once_under_loss_and_duplication() {
    let net = rdp::simnet::NetConfig {
        loss: 0.15,
        duplicate: 0.15,
        ..rdp::simnet::NetConfig::lan_1985()
    };
    let mut w = World::with_config(7, net, rdp::simnet::SyscallCosts::vax_4_2bsd());
    let (troupe, client) = rig(&mut w, 3);
    assert_eq!(claim(&mut w, client, &troupe, 60), Ok(b"claim".to_vec()));
    // Let every retransmission and duplicate still in flight land.
    w.run(simnet::Until::Elapsed(Duration::from_secs(60)));
    for &m in &troupe.members {
        assert_eq!(
            executions(&w, m),
            1,
            "duplicates must not re-execute at {m}"
        );
    }
}
