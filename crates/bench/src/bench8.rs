//! BENCH_8: the price of synchronization under conflict.
//!
//! Chapter 5 offers three ways to keep a troupe's members in step, and
//! §5.5 says to choose "on a module-by-module basis". This experiment
//! prices that choice: `k` clients all hammering the *same* object of a
//! 3-member troupe, six operations each, through each scheme —
//!
//! - `commit` — the optimistic troupe commit protocol (2PL in which a
//!   transaction never waits behind a younger one, abort and retry):
//!   conflicts become aborts, and throughput falls as `k` grows;
//! - `broadcast` — the ordered broadcast protocol (two-phase
//!   propose/accept): starvation-free, zero aborts, but every operation
//!   pays two rounds to every member;
//! - `commutative` — commutative operations (counter increments): no
//!   locks, no order, no commit — one round per operation no matter how
//!   many clients contend.
//!
//! One [`Cell`] per `(scheme, k)`: throughput (operations per simulated
//! second), aborts, and simulated elapsed time, each a pure function of
//! the cell (the rig seeds its world from `42 + k`). [`json`] renders
//! the grid as `BENCH_8.json`, [`sync_table`] renders its commit and
//! broadcast columns as the `ablation.sync` table, and [`claim`] is the
//! ordering the chapter predicts.

use std::fmt::Write as _;

use circus::testbed::{addr, agent, spawn_troupe, MODULE};
use circus::{Agent, NodeBuilder, NodeConfig, Service, Troupe, TroupeId};
use simnet::{Duration, SockAddr, Time, World};
use transactions::{
    Broadcaster, CmClient, CmOp, CommitVoterService, CommutativeService, ObjId, Op, OrderedApply,
    OrderedBroadcastService, TroupeStoreService, TxnClient,
};
use wire::{from_bytes, to_bytes};

/// A synchronization scheme of chapter 5.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// The troupe commit protocol (§5.3).
    Commit,
    /// The ordered broadcast protocol (§5.4).
    Broadcast,
    /// Commutative operations: nothing to synchronize.
    Commutative,
}

impl Scheme {
    const ALL: [Scheme; 3] = [Scheme::Commit, Scheme::Broadcast, Scheme::Commutative];

    fn name(self) -> &'static str {
        match self {
            Scheme::Commit => "commit",
            Scheme::Broadcast => "broadcast",
            Scheme::Commutative => "commutative",
        }
    }
}

/// One `(scheme, clients)` run.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// The scheme the clients went through.
    pub scheme: Scheme,
    /// How many clients contended for the one object.
    pub clients: u32,
    /// Completed operations per second of simulated time.
    pub throughput: f64,
    /// Aborts observed (the optimistic protocol's starvation signal).
    pub aborts: u32,
    /// Seconds of simulated time to finish the workload.
    pub elapsed_s: f64,
}

const COMMIT_MODULE: u16 = 2;
const OPS_PER_CLIENT: usize = 6;

/// What the rig reads off one client.
struct Progress {
    finished: bool,
    done: u32,
    aborts: u32,
}

/// The rig every scheme shares: a 3-member troupe of `service()`s,
/// `clients` nodes each completed by `client(builder, index, troupe)`
/// around an agent of type `A`, run until every agent reports finished.
fn run_rig<A: Agent, S: Service>(
    scheme: Scheme,
    clients: u32,
    config: NodeConfig,
    service: impl FnMut() -> S,
    client: impl Fn(NodeBuilder, u64, &Troupe) -> NodeBuilder,
    progress: impl Fn(&A) -> Progress,
) -> Cell {
    let mut w = World::new(42 + clients as u64);
    let members = [addr(1, 70), addr(2, 70), addr(3, 70)];
    let troupe = spawn_troupe(
        &mut w,
        TroupeId(7),
        &members,
        MODULE,
        &config,
        None,
        service,
    );
    let client_addrs: Vec<SockAddr> = (0..clients).map(|i| addr(10 + i, 50)).collect();
    for (i, &a) in client_addrs.iter().enumerate() {
        let p = client(NodeBuilder::new(a, config.clone()), i as u64, &troupe)
            .build()
            .expect("valid node");
        w.spawn(a, Box::new(p));
    }
    for &a in &client_addrs {
        w.poke(a, 0);
    }
    let read = |w: &World, a: SockAddr| agent(w, a, &progress);
    w.run(simnet::Until::pred(Time::from_secs(3600), |w| {
        client_addrs.iter().all(|&a| read(w, a).finished)
    }));
    let elapsed_s = w.now().as_secs_f64();
    let (mut done, mut aborts) = (0, 0);
    for &a in &client_addrs {
        let p = read(&w, a);
        done += p.done;
        aborts += p.aborts;
    }
    Cell {
        scheme,
        clients,
        throughput: done as f64 / elapsed_s,
        aborts,
        elapsed_s,
    }
}

/// The broadcast scheme's application: a running sum.
struct AddApply {
    total: i64,
}

impl OrderedApply for AddApply {
    fn apply(&mut self, payload: &[u8]) -> Vec<u8> {
        let delta: i64 = from_bytes(payload).unwrap_or(0);
        self.total += delta;
        to_bytes(&self.total)
    }
}

/// Runs `clients` concurrent clients, each pushing six increments of
/// the same object (maximal conflict) through `scheme`.
pub fn run(scheme: Scheme, clients: u32) -> Cell {
    // Broadcast message ids and commutative op ids are per-client ranges.
    let first_id = |i: u64| (i + 1) * 1_000_000;
    match scheme {
        Scheme::Commit => run_rig(
            scheme,
            clients,
            NodeConfig {
                assembly_timeout: Duration::from_millis(1200),
                ..NodeConfig::default()
            },
            || TroupeStoreService::new(COMMIT_MODULE),
            |b, _, troupe| {
                let script = vec![vec![Op::Add(ObjId(1), 1)]; OPS_PER_CLIENT];
                b.agent(Box::new(TxnClient::new(troupe.clone(), MODULE, script)))
                    .service(COMMIT_MODULE, Box::new(CommitVoterService))
            },
            |t: &TxnClient| Progress {
                finished: t.finished(),
                done: t.committed.len() as u32,
                aborts: t.aborts,
            },
        ),
        Scheme::Broadcast => run_rig(
            scheme,
            clients,
            NodeConfig::default(),
            || OrderedBroadcastService::new(AddApply { total: 0 }),
            |b, i, troupe| {
                let msgs = vec![to_bytes(&1i64); OPS_PER_CLIENT];
                b.agent(Box::new(Broadcaster::new(
                    troupe.clone(),
                    MODULE,
                    first_id(i),
                    msgs,
                )))
            },
            // Starvation-free: nothing to abort by construction (§5.4).
            |c: &Broadcaster| Progress {
                finished: c.finished(),
                done: c.results.len() as u32,
                aborts: 0,
            },
        ),
        Scheme::Commutative => run_rig(
            scheme,
            clients,
            NodeConfig::default(),
            CommutativeService::new,
            |b, i, troupe| {
                let script = vec![vec![CmOp::Incr(ObjId(1), 1)]; OPS_PER_CLIENT];
                b.agent(Box::new(CmClient::new(
                    troupe.clone(),
                    MODULE,
                    first_id(i),
                    script,
                )))
            },
            // Operations never conflict: nothing to abort.
            |c: &CmClient| Progress {
                finished: c.finished(),
                done: c.confirmed.len() as u32,
                aborts: 0,
            },
        ),
    }
}

/// Every scheme at every client count, client-count major.
pub fn grid() -> Vec<Cell> {
    [1u32, 2, 4, 6]
        .iter()
        .flat_map(|&k| Scheme::ALL.map(|s| run(s, k)))
        .collect()
}

/// `BENCH_8.json`: one record per cell.
pub fn json(cells: &[Cell]) -> String {
    let mut out = String::new();
    for c in cells {
        let _ = writeln!(
            out,
            "{{\"experiment\":\"bench8\",\"section\":\"conflict\",\"scheme\":\"{}\",\
             \"clients\":{},\"throughput\":{:.4},\"aborts\":{},\"elapsed_s\":{:.6}}}",
            c.scheme.name(),
            c.clients,
            c.throughput,
            c.aborts,
            c.elapsed_s,
        );
    }
    out
}

/// The `ablation.sync` table: the grid's commit and broadcast columns.
pub fn sync_table(cells: &[Cell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation (Sec 5.5): optimistic troupe commit vs ordered broadcast\n\
         under rising conflict (3-member troupe, 6 conflicting txns/client)"
    );
    let _ = writeln!(
        out,
        "{:<8} | {:>12} {:>8} | {:>12} {:>8}",
        "clients", "commit tx/s", "aborts", "bcast tx/s", "aborts"
    );
    for commit in cells.iter().filter(|c| c.scheme == Scheme::Commit) {
        let bcast = cells
            .iter()
            .find(|c| c.scheme == Scheme::Broadcast && c.clients == commit.clients)
            .expect("the grid runs every scheme at every client count");
        let _ = writeln!(
            out,
            "{:<8} | {:>12.2} {:>8} | {:>12.2} {:>8}",
            commit.clients, commit.throughput, commit.aborts, bcast.throughput, bcast.aborts
        );
    }
    let _ = writeln!(
        out,
        "Shape check: the optimistic protocol aborts more as conflict rises\n\
         (Eq 5.1's starvation); ordered broadcast never aborts — the paper's\n\
         case for choosing the scheme per module (Sec 5.5)."
    );
    out
}

/// The ordering the chapter predicts: commutative operations strictly
/// out-throughput the commit protocol at every contended cell
/// (`k >= 2`), and the commit protocol is the only scheme that aborts —
/// which, on a grid this contended, it does.
pub fn claim(cells: &[Cell]) -> Result<String, String> {
    let mut checked = Vec::new();
    for commit in cells
        .iter()
        .filter(|c| c.scheme == Scheme::Commit && c.clients >= 2)
    {
        let k = commit.clients;
        let cm = cells
            .iter()
            .find(|c| c.scheme == Scheme::Commutative && c.clients == k)
            .ok_or(format!("no commutative cell at {k} clients"))?;
        if cm.throughput <= commit.throughput {
            return Err(format!(
                "at {k} conflicting clients, commutative throughput {:.2} not strictly \
                 above commit's {:.2}",
                cm.throughput, commit.throughput
            ));
        }
        checked.push(format!(
            "k={k}: {:.1} > {:.1} ops/s",
            cm.throughput, commit.throughput
        ));
    }
    if checked.is_empty() {
        return Err("no contended (k >= 2) cells".into());
    }
    if let Some(c) = cells
        .iter()
        .find(|c| c.scheme != Scheme::Commit && c.aborts != 0)
    {
        return Err(format!("a starvation-free scheme reported aborts: {c:?}"));
    }
    if cells.iter().all(|c| c.aborts == 0) {
        return Err("the commit protocol never aborted: the grid exercises no conflict".into());
    }
    Ok(format!(
        "commutative strictly out-throughputs commit under contention ({}); only commit aborts",
        checked.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(scheme: Scheme, clients: u32, throughput: f64, aborts: u32) -> Cell {
        Cell {
            scheme,
            clients,
            throughput,
            aborts,
            elapsed_s: 1.0,
        }
    }

    #[test]
    fn claim_fires_on_each_violation() {
        let good = [
            cell(Scheme::Commit, 2, 10.0, 1),
            cell(Scheme::Broadcast, 2, 15.0, 0),
            cell(Scheme::Commutative, 2, 30.0, 0),
        ];
        assert!(claim(&good).is_ok());

        let mut slow_commutative = good;
        slow_commutative[2].throughput = 10.0;
        assert!(claim(&slow_commutative).is_err());

        let mut aborting_broadcast = good;
        aborting_broadcast[1].aborts = 1;
        assert!(claim(&aborting_broadcast).is_err());

        let mut no_conflict = good;
        no_conflict[0].aborts = 0;
        assert!(claim(&no_conflict).is_err());

        let uncontended = good.map(|c| Cell { clients: 1, ..c });
        assert!(claim(&uncontended).is_err());
    }
}
