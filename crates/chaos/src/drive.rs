//! The fault driver: the one place faults enter a chaos world.
//!
//! [`Driver`] owns the world while a workload's fault schedule runs. It
//! injects each planned fault — partitions, loss/duplication bursts,
//! degraded network configurations, host crashes, process kills,
//! restarts — and, because crash repair is *in-system* (nodes that
//! observe the dead member report it, the Ringmaster's healer
//! probe-confirms, evicts, and activates a spare), otherwise only
//! *watches*: it waits for the registry to show full strength again and
//! performs no repair step itself.
//!
//! It also keeps the configlang [`ConfigManager`] — the administrative
//! plane of §7.5.3 — in the loop on every membership change. The
//! manager's machine database loses a machine when the driver crashes
//! it, its `reconfigure` recomputes a satisfying placement, and after
//! each heal the driver checks that the placement the *runtime* chose
//! (the healer activates whatever warm spare registered first, which may
//! differ from the solver's pick) still satisfies the troupe's
//! specification — [`extend_troupe`] over the observed membership must
//! be a fixed point. A heal that leaves the troupe outside its spec is a
//! driver warning, and the sweeps treat warnings as failures. All of
//! that bookkeeping is host-side: it never touches the world.

use circus::binding::{BINDING_MODULE, RINGMASTER_PORT};
use circus::{CircusProcess, ModuleAddr, NodeConfig, Troupe};
use configlang::{extend_troupe, ConfigManager};
use ringmaster::{RingmasterService, SelfHealAgent};
use simnet::{Duration, HostId, NetConfig, Partition, SockAddr, Until, World};

use crate::plan::{Fault, PlannedFault};

/// Reads the Ringmaster member at `addr`, if it is a live process.
pub(crate) fn ringmaster_at<R>(
    w: &World,
    addr: SockAddr,
    f: impl FnOnce(&RingmasterService) -> R,
) -> Option<R> {
    w.with_proc(addr, |p: &CircusProcess| {
        p.node()
            .service_as::<RingmasterService>(BINDING_MODULE)
            .map(f)
    })
    .flatten()
}

/// A live chaos world plus what a fault schedule needs to find its
/// victims in it. Workloads with a fault script of their own
/// ([`Workload::faults`](crate::Workload::faults)) get the same handle.
pub struct Driver {
    /// The world under test.
    pub w: World,
    /// The Ringmaster troupe — the binder of every process in the world.
    pub rm: Troupe,
    /// The node configuration every process was spawned with.
    pub config: NodeConfig,
    /// The Ringmaster member hosts; the first one runs the healer.
    pub rm_hosts: Vec<HostId>,
    /// The name the workload troupe is registered under — both in the
    /// Ringmaster registry and in the configuration manager.
    pub name: &'static str,
    /// The workload troupe's membership as last read from the registry.
    pub members: Vec<ModuleAddr>,
    /// The client process addresses.
    pub clients: Vec<SockAddr>,
    /// Non-fatal anomalies (a repair the healer never finished, a spec
    /// violation after a heal…). Sweeps treat these as failures too.
    pub warnings: Vec<String>,
    /// Crashes the driver may still inject — bounded by the number of
    /// spares spawned into the world, so the healer can always restore
    /// full strength.
    pub(crate) spare_budget: usize,
    /// Spare processes spawned into the world so far: the warm spares,
    /// and any the fault script started itself (a recovery process).
    pub(crate) spares: usize,
    pub(crate) crashed: Vec<HostId>,
    pub(crate) baseline: NetConfig,
    /// The administrative plane: machine database plus troupe spec.
    pub(crate) cm: ConfigManager,
}

impl Driver {
    /// Where the Ringmaster leader — registry of record, home of the
    /// [`SelfHealAgent`] — lives.
    pub fn healer_addr(&self) -> SockAddr {
        SockAddr::new(self.rm_hosts[0], RINGMASTER_PORT)
    }

    /// Re-reads the workload troupe's membership from the registry.
    pub fn refresh_members(&mut self) {
        let name = self.name;
        let binding = ringmaster_at(&self.w, self.healer_addr(), |s| s.lookup(name).cloned());
        if let Some(t) = binding.flatten() {
            self.members = t.members;
        }
    }

    /// Repairs completed by the in-world [`SelfHealAgent`].
    pub fn healed_repairs(&self) -> usize {
        self.w
            .with_proc(self.healer_addr(), |p: &CircusProcess| {
                p.agent_as::<SelfHealAgent>()
                    .map_or(0, |h| h.repairs as usize)
            })
            .unwrap_or(0)
    }

    /// Waits (in simulated time, at most `patience`) for the self-healing
    /// pipeline to evict `dead` and restore the troupe to `strength`
    /// members; `false`, plus a warning, if it never does.
    pub fn await_self_heal(
        &mut self,
        dead: ModuleAddr,
        strength: usize,
        patience: Duration,
    ) -> bool {
        let deadline = self.w.now() + patience;
        let healer = self.healer_addr();
        let name = self.name;
        let healed = self.w.run(Until::pred(deadline, |w| {
            ringmaster_at(w, healer, |s| {
                s.lookup(name).is_some_and(|t| {
                    t.members.len() == strength && !t.members.iter().any(|m| m.addr == dead.addr)
                })
            })
            .unwrap_or(false)
        }));
        if !healed {
            let h = self
                .w
                .with_proc(healer, |p: &CircusProcess| {
                    p.agent_as::<SelfHealAgent>().map(|h| h.debug_state())
                })
                .flatten();
            let s = ringmaster_at(&self.w, healer, |s| {
                format!(
                    "suspects={} spares={:?} binding={:?}",
                    s.suspect_count(),
                    s.spare_pools(),
                    s.lookup(name)
                )
            });
            self.warnings.push(format!(
                "self-heal after loss of {dead:?} did not complete [healer: {h:?}; registry: {s:?}]"
            ));
        }
        self.refresh_members();
        healed
    }

    /// Crash-path bookkeeping shared by `CrashHost` and `KillProc`: tell
    /// the administrative plane, wait for the runtime's own repair, then
    /// check the two agree that the troupe still satisfies its spec.
    fn lose_member(&mut self, victim: ModuleAddr, strength: usize) {
        // The machine leaves the administrative database either way: a
        // killed process's address is never reused for a member (its
        // peers still remember its paired-message call numbers), so for
        // placement purposes the machine is as gone as a crashed host.
        self.cm.machine_down(victim.addr.host.0);
        if let Err(e) = self.cm.reconfigure(self.name) {
            self.warnings
                .push(format!("configuration manager could not reconfigure: {e}"));
        }
        self.await_self_heal(victim, strength, Duration::from_micros(60_000_000));
        // The healer's spare pick is FIFO over registration order and may
        // differ from the solver's; what matters is that the observed
        // membership still satisfies the specification — extending the
        // troupe from it must change nothing.
        let actual: Vec<u32> = self.members.iter().map(|m| m.addr.host.0).collect();
        let Some(spec) = self.cm.troupe(self.name).map(|t| t.spec.clone()) else {
            self.warnings
                .push(format!("troupe {:?} missing from the manager", self.name));
            return;
        };
        let mut want = actual.clone();
        want.sort_unstable();
        match extend_troupe(&spec, self.cm.universe(), &actual) {
            Some(mut p) => {
                p.sort_unstable();
                if p == want {
                    // Reality satisfies the spec: anchor the manager to it.
                    let _ = self.cm.note_placement(self.name, actual);
                } else {
                    self.warnings.push(format!(
                        "healed placement {actual:?} is not a fixed point of the spec \
                         (solver would use {p:?})"
                    ));
                }
            }
            None => self.warnings.push(format!(
                "healed placement {actual:?} does not satisfy the troupe spec"
            )),
        }
    }

    /// Picks the `victim_idx`-th current member for a crash or kill, if
    /// a spare is left to replace it.
    fn pick_victim(&mut self, victim_idx: usize) -> Option<(ModuleAddr, usize)> {
        if self.spare_budget == 0 {
            return None;
        }
        self.spare_budget -= 1;
        self.refresh_members();
        let strength = self.members.len();
        Some((self.members[victim_idx % strength], strength))
    }

    /// Runs the world to the fault's time and injects it.
    pub fn apply(&mut self, pf: &PlannedFault) {
        self.w.run(Until::Time(pf.at));
        match pf.fault {
            Fault::Partition {
                victim_idx,
                heal_after,
            } => {
                let victim = self.members[victim_idx % self.members.len()].addr.host;
                self.w.set_partition(Partition::isolate(vec![victim]));
                self.w.run(Until::Elapsed(heal_after));
                self.w.set_partition(Partition::none());
            }
            Fault::LossBurst {
                loss,
                duplicate,
                duration,
            } => {
                self.w.set_net(NetConfig {
                    loss,
                    duplicate,
                    ..self.baseline.clone()
                });
                self.w.run(Until::Elapsed(duration));
                self.w.set_net(self.baseline.clone());
            }
            Fault::Degrade { factor, duration } => {
                self.w.set_net(NetConfig {
                    base_latency: self.baseline.base_latency.saturating_mul(factor as u64),
                    jitter_mean: self.baseline.jitter_mean.saturating_mul(factor as u64),
                    ..self.baseline.clone()
                });
                self.w.run(Until::Elapsed(duration));
                self.w.set_net(self.baseline.clone());
            }
            Fault::CrashHost { victim_idx } => {
                if let Some((victim, strength)) = self.pick_victim(victim_idx) {
                    self.crashed.push(victim.addr.host);
                    self.w.crash_host(victim.addr.host);
                    self.lose_member(victim, strength);
                }
            }
            Fault::KillProc { victim_idx } => {
                if let Some((victim, strength)) = self.pick_victim(victim_idx) {
                    self.w.kill(victim.addr);
                    self.lose_member(victim, strength);
                }
            }
            Fault::RestartOldest => {
                // The host comes back up empty; its old address is never
                // reused for a member (its peers still remember the dead
                // process's serial numbers). It does not rejoin the
                // machine database either: a restarted machine must be
                // re-vetted before the administrative plane will place
                // members on it.
                if !self.crashed.is_empty() {
                    let h = self.crashed.remove(0);
                    self.w.restart_host(h);
                }
            }
        }
    }

    /// Heals the network and lets the healer drain its suspect queue: a
    /// partition near the end of a plan can leave suspicions that must
    /// be probed and cleared, not acted on.
    pub fn heal_and_drain(&mut self) {
        self.w.set_partition(Partition::none());
        self.w.set_net(self.baseline.clone());
        let healer = self.healer_addr();
        let deadline = self.w.now() + Duration::from_micros(60_000_000);
        let drained = self.w.run(Until::pred(deadline, |w| {
            ringmaster_at(w, healer, |s| s.suspect_count()) == Some(0)
                && w.with_proc(healer, |p: &CircusProcess| {
                    p.agent_as::<SelfHealAgent>().is_some_and(|h| h.idle())
                }) == Some(true)
        }));
        if !drained {
            self.warnings
                .push("healer did not drain its suspect queue at quiesce".into());
        }
    }
}
