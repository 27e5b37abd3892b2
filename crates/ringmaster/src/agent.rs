//! The Ringmaster binding agent service (§6.3).
//!
//! "The Ringmaster is the binding agent for troupes in the Circus system.
//! It is a specialized name server that enables programs to import and
//! export troupes by name" — and it is *itself a troupe whose procedures
//! are invoked via replicated procedure calls*.
//!
//! Each registry mutation allocates a fresh troupe ID and installs it at
//! every member of the affected troupe with a nested replicated
//! `set_troupe_id` call, so membership and incarnation change together
//! (Figure 6.2): this is what makes stale-cache detection sound (§6.2).

use std::collections::BTreeMap;

use crate::api::{
    AddTroupeMember, Rebind, RegisterSpare, RegisterTroupe, RemoveTroupeMember, ReplaceTroupeMember,
};
use circus::binding::{binding_procs, reserved_procs};
use circus::{
    CallError, CollationPolicy, ModuleAddr, NodeEffect, OutCall, Service, ServiceCtx, Step, Troupe,
    TroupeId, TroupeTarget,
};
use simnet::{HostId, SockAddr};
use wire::{from_bytes, to_bytes};

/// The `NotifyAgent` tag pushed when a suspect report or spare
/// registration arrives: wake the co-located
/// [`SelfHealAgent`](crate::heal::SelfHealAgent) without waiting for its
/// fallback timer.
pub const NOTIFY_HEAL: u64 = 0x4845_414C; // "HEAL"

/// Deterministic troupe-ID allocation.
///
/// Every member of the (replicated) Ringmaster troupe must allocate the
/// *same* ID for the same mutation, without communicating (§3.5.1). IDs
/// are derived from the troupe name and a per-name generation counter;
/// since all members serialize the same mutations in the same order (the
/// concurrency-control machinery of Chapter 5 guarantees this under
/// contention), the counters — and hence the IDs — agree.
fn make_id(name: &str, generation: u64) -> TroupeId {
    // FNV-1a over the name, mixed with the generation.
    let h = simnet::fnv1a(name.as_bytes()) ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // Avoid the reserved UNREGISTERED value.
    TroupeId(h.max(1))
}

wire::record! {
    /// One registry entry.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Entry {
        troupe: Troupe,
        generation: u64,
    }
}

/// The binding agent's module state.
pub struct RingmasterService {
    registry: BTreeMap<String, Entry>,
    /// In-flight mutations awaiting their `set_troupe_id` round, keyed by
    /// invocation.
    in_flight: BTreeMap<u64, TroupeId>,
    /// Warm standbys by troupe name (§6.4.2's replacement policy):
    /// control-module addresses a confirmed death can be repaired from.
    /// Replicated state — transferred with the registry.
    spares: BTreeMap<String, Vec<ModuleAddr>>,
    /// Reported crash suspects awaiting probe confirmation. Transient
    /// work-queue state, deliberately excluded from `get_state`: each
    /// member hears every `report_suspect` itself, and the queue is
    /// consumed only by the leader's co-located healer.
    suspects: Vec<SockAddr>,
}

impl RingmasterService {
    /// Creates an agent that already knows its own troupe under the name
    /// `"ringmaster"` — "the Ringmaster cannot be used to import itself"
    /// (§6.3), so its own binding is installed out of band.
    pub fn new(self_troupe: Troupe) -> RingmasterService {
        let mut registry = BTreeMap::new();
        registry.insert(
            "ringmaster".to_string(),
            Entry {
                troupe: self_troupe,
                generation: 0,
            },
        );
        RingmasterService {
            registry,
            in_flight: BTreeMap::new(),
            spares: BTreeMap::new(),
            suspects: Vec::new(),
        }
    }

    /// Pops the next unconfirmed crash suspect (the healer's work queue).
    pub fn take_suspect(&mut self) -> Option<SockAddr> {
        if self.suspects.is_empty() {
            None
        } else {
            Some(self.suspects.remove(0))
        }
    }

    /// Suspects reported but not yet taken up by the healer.
    pub fn suspect_count(&self) -> usize {
        self.suspects.len()
    }

    /// Queues a suspect once: a report, or one whose handling could not
    /// complete (e.g. the eviction round found no majority), which a later
    /// wake retries.
    pub fn requeue_suspect(&mut self, addr: SockAddr) {
        if !self.suspects.contains(&addr) {
            self.suspects.push(addr);
        }
    }

    /// Pops a registered spare for the named troupe, if any.
    pub fn take_spare(&mut self, name: &str) -> Option<ModuleAddr> {
        let pool = self.spares.get_mut(name)?;
        if pool.is_empty() {
            None
        } else {
            Some(pool.remove(0))
        }
    }

    /// The spare pools — `(name, spare control modules)` in name order.
    pub fn spare_pools(&self) -> Vec<(String, Vec<ModuleAddr>)> {
        self.spares
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Finds the registered troupe a process belongs to (for mapping a
    /// suspect address onto a member to probe and possibly evict).
    pub fn troupe_of_member(&self, addr: SockAddr) -> Option<(String, ModuleAddr)> {
        self.registry.iter().find_map(|(name, e)| {
            e.troupe
                .members
                .iter()
                .find(|m| m.addr == addr)
                .map(|m| (name.clone(), *m))
        })
    }

    /// Looks up a troupe by name (for co-located helpers such as the
    /// healer, and for tests reading the registry).
    pub fn lookup(&self, name: &str) -> Option<&Troupe> {
        self.registry.get(name).map(|e| &e.troupe)
    }

    /// How many incarnations of the troupe named `name` have been bound:
    /// its registration and every membership change since (0 if it was
    /// never registered).
    pub fn generation(&self, name: &str) -> u64 {
        self.registry.get(name).map_or(0, |e| e.generation)
    }

    /// The healer's next liveness sweep: the `cursor`-th member, counting
    /// round-robin over every troupe but the Ringmaster's own in name
    /// order, with its troupe's name.
    pub(crate) fn sweep_target(&self, cursor: usize) -> Option<(String, ModuleAddr)> {
        let members = || {
            (self.registry.iter())
                .filter(|(name, _)| *name != "ringmaster")
                .flat_map(|(name, e)| e.troupe.members.iter().map(move |m| (name, *m)))
        };
        let (name, member) = members().nth(cursor.checked_rem(members().count())?)?;
        Some((name.clone(), member))
    }

    /// The full registry — `(name, current troupe)` in name order — for
    /// audit oracles comparing client caches against the live bindings.
    pub fn bindings(&self) -> Vec<(String, Troupe)> {
        self.registry
            .iter()
            .map(|(k, v)| (k.clone(), v.troupe.clone()))
            .collect()
    }

    fn lookup_by_id(&self, id: TroupeId) -> Option<&Troupe> {
        self.registry
            .values()
            .find(|e| e.troupe.id == id)
            .map(|e| &e.troupe)
    }

    /// Adds `member` to troupe `name` — in place of `dead`, if given — as
    /// one membership change.
    fn join(
        &mut self,
        ctx: &mut ServiceCtx,
        name: &str,
        member: ModuleAddr,
        dead: Option<ModuleAddr>,
    ) -> Step {
        // A spare that joins a troupe stops being a spare.
        for pool in self.spares.values_mut() {
            pool.retain(|m| m.addr != member.addr);
        }
        let mut members = (self.registry.get(name))
            .map(|e| e.troupe.members.clone())
            .unwrap_or_default();
        // A member rejoining from the same address replaces its old
        // registration (machine reuse after a crash).
        members.retain(|m| m.addr != member.addr && Some(*m) != dead);
        members.push(member);
        self.mutate(ctx, name, members)
    }

    /// Applies a membership mutation: allocates the next incarnation and
    /// prepares the `set_troupe_id` round.
    fn mutate(&mut self, ctx: &mut ServiceCtx, name: &str, new_members: Vec<ModuleAddr>) -> Step {
        if new_members.is_empty() {
            // Removing the last member deletes the binding.
            if let Some(old) = self.registry.remove(name) {
                ctx.push_effect(NodeEffect::InvalidateDirectory { id: old.troupe.id });
            }
            return Step::Reply(to_bytes(&TroupeId::UNREGISTERED));
        }
        let module = new_members[0].module;
        debug_assert!(
            new_members.iter().all(|m| m.module == module),
            "troupe members are replicas and export the same module number"
        );
        let generation = self
            .registry
            .get(name)
            .map(|e| e.generation + 1)
            .unwrap_or(1);
        let id = make_id(name, generation);
        let troupe = Troupe::new(id, new_members);
        if let Some(old) = self.registry.get(name) {
            ctx.push_effect(NodeEffect::InvalidateDirectory { id: old.troupe.id });
        }
        ctx.push_effect(NodeEffect::PreloadDirectory {
            id,
            members: troupe.members.iter().map(|m| m.addr).collect(),
        });
        self.registry.insert(
            name.to_string(),
            Entry {
                troupe: troupe.clone(),
                generation,
            },
        );
        self.in_flight.insert(ctx.invocation, id);
        // Install the new incarnation, with its members, at every member
        // of the new troupe (Figure 6.2). The destination troupe ID is
        // left UNREGISTERED (unchecked): a joining member is brand new and
        // holds no incarnation yet, and the existing members are
        // mid-transition.
        let target = Troupe::new(TroupeId::UNREGISTERED, troupe.members.clone());
        Step::Call(OutCall {
            target: TroupeTarget::Troupe(target),
            module,
            proc: reserved_procs::SET_TROUPE_ID,
            args: to_bytes(&troupe).into(),
            collation: CollationPolicy::Unanimous,
            solo: false,
        })
    }
}

impl Service for RingmasterService {
    fn dispatch(&mut self, ctx: &mut ServiceCtx, proc: u16, args: &[u8]) -> Step {
        match proc {
            binding_procs::REGISTER_TROUPE => {
                let Ok(req) = from_bytes::<RegisterTroupe>(args) else {
                    return Step::Error("bad register_troupe arguments".into());
                };
                self.mutate(ctx, &req.name, req.members)
            }
            binding_procs::ADD_TROUPE_MEMBER => {
                let Ok(req) = from_bytes::<AddTroupeMember>(args) else {
                    return Step::Error("bad add_troupe_member arguments".into());
                };
                self.join(ctx, &req.name, req.member, None)
            }
            binding_procs::REPLACE_TROUPE_MEMBER => {
                let Ok(req) = from_bytes::<ReplaceTroupeMember>(args) else {
                    return Step::Error("bad replace_troupe_member arguments".into());
                };
                self.join(ctx, &req.name, req.member, Some(req.dead))
            }
            binding_procs::REMOVE_TROUPE_MEMBER => {
                let Ok(req) = from_bytes::<RemoveTroupeMember>(args) else {
                    return Step::Error("bad remove_troupe_member arguments".into());
                };
                let Some(entry) = self.registry.get(&req.name) else {
                    return Step::Error(format!("no troupe named {}", req.name));
                };
                let mut members = entry.troupe.members.clone();
                members.retain(|m| *m != req.member);
                self.mutate(ctx, &req.name, members)
            }
            binding_procs::LOOKUP_TROUPE_BY_NAME => {
                let Ok(name) = from_bytes::<String>(args) else {
                    return Step::Error("bad lookup_troupe_by_name arguments".into());
                };
                Step::Reply(to_bytes(&self.lookup(&name)))
            }
            binding_procs::LOOKUP_TROUPE_BY_ID => {
                let Ok(id) = from_bytes::<TroupeId>(args) else {
                    return Step::Error("bad lookup_troupe_by_id arguments".into());
                };
                Step::Reply(to_bytes(&self.lookup_by_id(id)))
            }
            binding_procs::REBIND => {
                let Ok(req) = from_bytes::<Rebind>(args) else {
                    return Step::Error("bad rebind arguments".into());
                };
                // The stale id is only a hint (§6.1): return whatever is
                // current; if the registry still holds the reportedly
                // stale binding, a garbage-collection probe will decide.
                Step::Reply(to_bytes(&self.lookup(&req.name)))
            }
            binding_procs::REPORT_SUSPECT => {
                let Ok((host, port)) = from_bytes::<(u32, u16)>(args) else {
                    return Step::Error("bad report_suspect arguments".into());
                };
                let addr = SockAddr::new(HostId(host), port);
                self.requeue_suspect(addr);
                ctx.push_effect(NodeEffect::NotifyAgent { tag: NOTIFY_HEAL });
                Step::Reply(Vec::new())
            }
            binding_procs::REGISTER_SPARE => {
                let Ok(req) = from_bytes::<RegisterSpare>(args) else {
                    return Step::Error("bad register_spare arguments".into());
                };
                let pool = self.spares.entry(req.name).or_default();
                if !pool.iter().any(|m| m.addr == req.ctl.addr) {
                    pool.push(req.ctl);
                }
                // A repair may be parked waiting for a spare.
                ctx.push_effect(NodeEffect::NotifyAgent { tag: NOTIFY_HEAL });
                Step::Reply(Vec::new())
            }
            _ => Step::Error(format!("ringmaster: unknown procedure {proc}")),
        }
    }

    fn resume(&mut self, ctx: &mut ServiceCtx, reply: Result<Vec<u8>, CallError>) -> Step {
        let Some(id) = self.in_flight.remove(&ctx.invocation) else {
            return Step::Error("ringmaster: spurious resume".into());
        };
        match reply {
            // Some members may have been dead; the survivors installed
            // the incarnation, which is all the binding requires.
            Ok(_) => Step::Reply(to_bytes(&id)),
            Err(e) => Step::Error(format!("set_troupe_id failed: {e}")),
        }
    }

    fn get_state(&self) -> Vec<u8> {
        let entries: Vec<(String, Entry)> = self
            .registry
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        to_bytes(&(entries, self.spare_pools()))
    }

    fn set_state(&mut self, state: &[u8]) {
        type State = (Vec<(String, Entry)>, Vec<(String, Vec<ModuleAddr>)>);
        if let Ok((entries, spares)) = from_bytes::<State>(state) {
            self.registry = entries.into_iter().collect();
            self.spares = spares.into_iter().collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_deterministic_and_distinct() {
        assert_eq!(make_id("fs", 1), make_id("fs", 1));
        assert_ne!(make_id("fs", 1), make_id("fs", 2));
        assert_ne!(make_id("fs", 1), make_id("db", 1));
        assert_ne!(make_id("fs", 1), TroupeId::UNREGISTERED);
    }

    #[test]
    fn self_registration() {
        let t = Troupe::new(TroupeId(9), Vec::new());
        let rm = RingmasterService::new(t.clone());
        assert_eq!(rm.lookup("ringmaster"), Some(&t));
        assert_eq!(rm.bindings(), vec![("ringmaster".to_string(), t)]);
    }
}
