//! A replicated bank: concurrent transfers under the troupe commit
//! protocol (Chapter 5).
//!
//! Three bank replicas hold accounts; two tellers concurrently run
//! transfer transactions that *conflict* (they touch the same accounts
//! in opposite orders — the classic deadlock shape). A replica never lets
//! an older transfer wait behind a younger one, so the replica that
//! ordered two against their submission stamps votes no, the older
//! aborts everywhere, and binary exponential backoff retries it (§5.3.1)
//! — so every replica ends with the same balances and money is
//! conserved.
//!
//! Run with: `cargo run --example replicated_bank`

use rdp::circus::testbed::{addr, agent, service, spawn_troupe};
use rdp::circus::{NodeBuilder, NodeConfig, TroupeId};
use rdp::simnet::{Duration, World};
use rdp::transactions::{CommitVoterService, ObjId, Op, TroupeStoreService, TxnClient};

const STORE_MODULE: u16 = 1;
const COMMIT_MODULE: u16 = 2;

const ALICE: ObjId = ObjId(1);
const BOB: ObjId = ObjId(2);

fn main() {
    let mut world = World::new(11);
    let config = NodeConfig {
        assembly_timeout: Duration::from_millis(1500),
        ..NodeConfig::default()
    };

    // The bank troupe: three replicas of the transactional store.
    let replicas = [addr(1, 70), addr(2, 70), addr(3, 70)];
    let troupe = spawn_troupe(
        &mut world,
        TroupeId(9),
        &replicas,
        STORE_MODULE,
        &config,
        None,
        || TroupeStoreService::new(COMMIT_MODULE),
    );

    // Open the accounts with one setup transaction.
    let setup = addr(10, 50);
    let p = NodeBuilder::new(setup, config.clone())
        .agent(Box::new(TxnClient::new(
            troupe.clone(),
            STORE_MODULE,
            vec![vec![Op::Write(ALICE, 1000), Op::Write(BOB, 1000)]],
        )))
        .service(COMMIT_MODULE, Box::new(CommitVoterService))
        .build()
        .expect("valid node");
    world.spawn(setup, Box::new(p));
    world.poke(setup, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(10)));
    println!("opened accounts: alice = 1000, bob = 1000\n");

    // Two tellers, conflicting lock orders: teller 1 moves alice->bob,
    // teller 2 moves bob->alice, five transfers each.
    let teller1 = addr(11, 50);
    let teller2 = addr(12, 50);
    let t1_script = vec![vec![Op::Add(ALICE, -10), Op::Add(BOB, 10)]; 5];
    let t2_script = vec![vec![Op::Add(BOB, -25), Op::Add(ALICE, 25)]; 5];
    for (addr, script) in [(teller1, t1_script), (teller2, t2_script)] {
        let p = NodeBuilder::new(addr, config.clone())
            .agent(Box::new(TxnClient::new(
                troupe.clone(),
                STORE_MODULE,
                script,
            )))
            .service(COMMIT_MODULE, Box::new(CommitVoterService))
            .build()
            .expect("valid node");
        world.spawn(addr, Box::new(p));
    }
    world.poke(teller1, 0);
    world.poke(teller2, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(600)));

    for (name, addr) in [("teller 1", teller1), ("teller 2", teller2)] {
        let (done, committed, aborts) = agent(&world, addr, |c: &TxnClient| {
            (c.finished(), c.committed.len(), c.aborts)
        });
        println!(
            "{name}: finished={done}, committed {committed} transfers, {aborts} aborts/retries"
        );
    }

    println!("\nfinal balances at every replica:");
    let mut balances = Vec::new();
    for m in &troupe.members {
        let (alice, bob) = service(&world, m.addr, STORE_MODULE, |s: &TroupeStoreService| {
            let store = s.tm().store();
            (store.read_committed(ALICE), store.read_committed(BOB))
        });
        println!(
            "  {}: alice = {alice}, bob = {bob}, total = {}",
            m.addr,
            alice + bob
        );
        balances.push((alice, bob));
    }
    assert!(
        balances.windows(2).all(|w| w[0] == w[1]),
        "replicas diverged!"
    );
    let (a, b) = balances[0];
    assert_eq!(a + b, 2000, "money was created or destroyed!");
    assert_eq!(a, 1000 - 5 * 10 + 5 * 25);
    println!("\nall replicas agree and money is conserved: the troupe commit");
    println!("protocol serialized the conflicting transfers identically (Thm 5.1).");
}
