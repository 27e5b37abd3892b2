//! # ringmaster: the binding agent for troupes
//!
//! Chapter 6 of Cooper's dissertation: binding and reconfiguration for
//! replicated distributed programs.
//!
//! - [`RingmasterService`] — the specialized name server (§6.3),
//!   implementing the binding interface of Figure 6.1, runnable as a
//!   troupe invoked by replicated procedure calls; troupe IDs double as
//!   incarnation numbers, and every membership mutation re-incarnates the
//!   troupe via a nested replicated `set_troupe_id` (Figure 6.2);
//! - [`ImportCache`] — the client-side cache with `rebind` support
//!   (§6.1–§6.2's cache invalidation);
//! - [`SelfHealAgent`] — in-system failure recovery: a suspect reported
//!   by the call runtime — or found by its own liveness sweep, §6.1's
//!   "are you there?" collector — is probed, and a confirmed death is
//!   repaired from a pool of warm spares in one membership change, or
//!   evicted while the pool is empty (§6.4, automated);
//! - [`SpareService`] / [`SpareAgent`] — adding a new troupe member
//!   (§6.4.1), the one way there is: the joining process exports the
//!   control module and somebody — the healer, or an operator's process
//!   — calls [`activate`] on it: wedge, copy state, `add_troupe_member`
//!   (or `replace_troupe_member`, in a dead member's place), unwedge.
//!
//! The availability analysis that answers *when* to replace crashed
//! members (§6.4.2) lives in the `analysis` crate.

#![warn(missing_docs)]

pub mod agent;
pub mod api;
pub mod cache;
pub mod heal;
pub mod spare;

pub use agent::RingmasterService;
pub use api::{
    registration, AddTroupeMember, Rebind, RegisterSpare, RegisterTroupe, RemoveTroupeMember,
    ReplaceTroupeMember,
};
pub use cache::{BindingRequest, ImportCache};
pub use heal::SelfHealAgent;
pub use spare::{activate, activation, SpareAgent, SpareService, SPARE_CTL_MODULE};

use circus::{ModuleAddr, NodeBuilder, NodeConfig, Troupe, TroupeId};
use simnet::{SockAddr, World};

/// Spawns a Ringmaster troupe of `n` members at the well-known port on
/// hosts `hosts[0..n]` and returns its troupe representation.
///
/// This is the "special degenerate binding mechanism" of §6.3: the
/// Ringmaster troupe is specified by well-known ports plus a
/// configuration-supplied machine list rather than by importing itself.
pub fn spawn_ringmaster(world: &mut World, hosts: &[simnet::HostId], config: NodeConfig) -> Troupe {
    let members: Vec<ModuleAddr> = hosts
        .iter()
        .map(|&h| {
            ModuleAddr::new(
                SockAddr::new(h, circus::binding::RINGMASTER_PORT),
                circus::binding::BINDING_MODULE,
            )
        })
        .collect();
    // A deterministic, configuration-time id for the ringmaster troupe.
    let id = TroupeId(0x0052_494E_474D_5253); // "RINGMRS"
    let troupe = Troupe::new(id, members.clone());
    for (i, m) in members.iter().enumerate() {
        let mut b = NodeBuilder::new(m.addr, config.clone())
            .service(
                circus::binding::BINDING_MODULE,
                Box::new(RingmasterService::new(troupe.clone())),
            )
            .troupe_id(id)
            .binder(troupe.clone())
            .directory(id, members.iter().map(|m| m.addr).collect());
        if i == 0 {
            // Exactly one member runs the repair loop: the troupe's
            // *replies* are collated, but its members' agents act
            // independently, and concurrent healers would race each
            // other's eviction rounds (see `heal`).
            b = b.agent(Box::new(SelfHealAgent::new(troupe.clone())));
        }
        let proc = b.build().expect("valid node");
        world.spawn(m.addr, Box::new(proc));
    }
    troupe
}
