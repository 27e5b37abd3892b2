//! Binding-agent garbage collection (§6.1).
//!
//! "A process which periodically enumerates all the registered modules,
//! probes them with a special null procedure call (an 'are you there?'
//! request), and explicitly deletes the bindings for modules that do not
//! respond."
//!
//! The collector runs co-located with a Ringmaster member (it enumerates
//! the local registry directly), but deletions go through the replicated
//! `remove_troupe_member` procedure so every Ringmaster member applies
//! them.

use std::collections::HashMap;

use circus::binding::{binding_procs, reserved_procs, BINDING_MODULE};
use circus::{
    Agent, CallError, CallHandle, CollationPolicy, ModuleAddr, NodeCtx, TimerKey, Troupe,
};
use simnet::Duration;
use wire::to_bytes;

use crate::agent::RingmasterService;
use crate::api::RemoveTroupeMember;

const SWEEP_KEY: TimerKey = TimerKey::new(0x6C);

/// The garbage collector agent.
pub struct GcAgent {
    /// The Ringmaster troupe (deletions are replicated calls to it).
    binder: Troupe,
    /// Module number the co-located `RingmasterService` is exported as.
    rm_module: u16,
    /// Time between sweeps.
    pub interval: Duration,
    /// In-flight probes: call handle → (troupe name, member probed).
    /// Inserted and removed by handle, never walked.
    probes: HashMap<CallHandle, (String, ModuleAddr)>,
    /// Members deleted so far (observable by tests).
    pub collected: Vec<(String, ModuleAddr)>,
    running: bool,
}

impl GcAgent {
    /// Creates a collector probing every registered member each
    /// `interval`.
    pub fn new(binder: Troupe, rm_module: u16, interval: Duration) -> GcAgent {
        GcAgent {
            binder,
            rm_module,
            interval,
            probes: HashMap::new(),
            collected: Vec::new(),
            running: false,
        }
    }

    fn sweep(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        // Enumerate the co-located registry.
        let troupes: Vec<(String, Troupe)> = {
            let Some(rm) = nc.node.service_as::<RingmasterService>(self.rm_module) else {
                return;
            };
            rm.names()
                .into_iter()
                .filter(|n| n != "ringmaster") // Do not collect ourselves.
                .filter_map(|n| rm.lookup(&n).cloned().map(|t| (n, t)))
                .collect()
        };
        for (name, troupe) in troupes {
            for member in troupe.members {
                // Null call to the member alone, unchecked incarnation.
                let thread = nc.fresh_thread();
                let target = Troupe::singleton(member);
                let handle = nc.call(
                    thread,
                    &target,
                    member.module,
                    reserved_procs::NULL,
                    Vec::new(),
                    CollationPolicy::Unanimous,
                );
                self.probes.insert(handle, (name.clone(), member));
            }
        }
    }
}

impl Agent for GcAgent {
    fn on_start(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        self.running = true;
        nc.set_app_timer(self.interval, SWEEP_KEY);
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        if key != SWEEP_KEY {
            return;
        }
        self.sweep(nc);
        nc.set_app_timer(self.interval, SWEEP_KEY);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        let Some((name, member)) = self.probes.remove(&handle) else {
            return;
        };
        match result {
            Ok(_) => {} // Alive; binding stays.
            Err(_) => {
                // No response: delete the member's binding via the
                // replicated binding interface.
                self.collected.push((name.clone(), member));
                let thread = nc.fresh_thread();
                let req = RemoveTroupeMember { name, member };
                let binder = self.binder.clone();
                nc.call(
                    thread,
                    &binder,
                    BINDING_MODULE,
                    binding_procs::REMOVE_TROUPE_MEMBER,
                    to_bytes(&req),
                    CollationPolicy::Majority,
                );
            }
        }
    }
}
