//! Warm spares: pre-started processes that rejoin a troupe on demand.
//!
//! §6.4.2 observes that restoring a failed troupe member "is simply an
//! application of the techniques of the previous section" — but in the
//! dissertation a human (or test driver) performs the application. Here
//! the spare process carries two pieces of in-system machinery instead:
//!
//! * a [`SpareAgent`] that offers the process to the Ringmaster with
//!   `register_spare` as soon as it starts, and
//! * a [`SpareService`] (the *control module*, exported at
//!   [`SPARE_CTL_MODULE`]) whose `activate` procedure performs the whole
//!   §6.4.1 join: look the troupe up, **wedge** the survivors so the
//!   module quiesces, copy their state, register with
//!   `add_troupe_member` (which re-incarnates the troupe), and unwedge.
//!   Its `replace` procedure is the same join in a confirmed-dead
//!   member's place: the dead member is neither wedged nor fetched from,
//!   and `replace_troupe_member` removes it and adds the spare in one
//!   registry mutation, so a repair re-incarnates the troupe once.
//!
//! This is the only join path, whoever starts it: the self-healing agent
//! calls `replace` on a spare the Ringmaster had registered (or
//! `activate`, into a troupe an eviction left short); an operator's
//! administrative process calls `activate` on a process it has just
//! started. All go through [`activate`].
//!
//! The survivor's node answers the fetch with its next call number per
//! peer beside the state, and the joiner's node raises its own to them:
//! the joiner then numbers its calls as its troupe does, so the returns
//! of the many-to-one calls it joins in go back by one multicast
//! (§4.3.3). The joiner's node also installs the fetched state: a module
//! that keeps a recovery token (a durable member that replayed its log)
//! sends it with the fetch and gets back only the commits it missed.
//!
//! Wedging before the state fetch is what makes the transfer consistent
//! (§6.4.1): no state change can land between the snapshot and the
//! membership change because the survivors refuse new work and drain
//! what is in flight first. The contract is the generic wedge/`get_state`/`set_state` trio of the
//! reserved procedure space, not anything store-specific: the
//! transactional store drains its commits, the ordered-broadcast module
//! carries its whole protocol state across (applied order, logical-clock
//! position, the queue with in-flight placeholders, and the idempotence
//! cache, so a client retrying an accept against the rejoined member
//! gets the same answer the dead one would have given), and the
//! commutative-operations module ships its counters, sets, and dedup
//! ledger. Any module implementing the trio rejoins through this one
//! path. The wedge is leased — survivors lapse it on a TTL — so a spare
//! that crashes mid-activation cannot wedge the troupe forever.

use circus::binding::{binding_procs, reserved_procs, BINDING_MODULE};
use circus::testbed::Request;
use circus::{
    Agent, CallError, CallHandle, CollationPolicy, ModuleAddr, NodeCtx, OutCall, Service,
    ServiceCtx, Step, TimerKey, Troupe, TroupeId, TroupeTarget,
};
use simnet::Duration;
use wire::{from_bytes, to_bytes};

use crate::api::{AddTroupeMember, RegisterSpare, ReplaceTroupeMember};

/// Module number of the spare's control service. High and well clear of
/// application modules, below the reserved procedure space semantics
/// (module numbers are not procedure numbers, but the convention helps
/// spot it in traces).
pub const SPARE_CTL_MODULE: u16 = 0xFE00;

/// `activate(troupe_name) returns ()` — join the troupe. Called solo,
/// through [`activate`].
const PROC_ACTIVATE: u16 = 0;

/// `replace(troupe_name, dead_member) returns ()` — join the troupe in
/// place of its confirmed-dead member. Called solo, through [`activate`].
const PROC_REPLACE: u16 = 1;

/// The caller's half of a join: asks the control module at `ctl` to join
/// its process to the troupe registered under `name` — in place of
/// `dead`, if given. The reply is empty on success and the control
/// module's abort message otherwise.
pub fn activate(
    nc: &mut NodeCtx<'_, '_, '_>,
    ctl: ModuleAddr,
    name: &str,
    dead: Option<ModuleAddr>,
) -> CallHandle {
    let thread = nc.fresh_thread();
    let mut r = activation(ctl, name);
    if let Some(dead) = dead {
        (r.proc, r.args) = (PROC_REPLACE, to_bytes(&(name, dead)));
    }
    nc.call_solo(thread, &r.troupe, r.module, r.proc, r.args, r.collation)
}

/// [`activate`] as data, for an operator's process that scripts its calls
/// (it belongs to no troupe, so its plain call is a solo one).
pub fn activation(ctl: ModuleAddr, name: &str) -> Request {
    Request {
        troupe: Troupe::new(TroupeId::UNREGISTERED, vec![ctl]),
        module: ctl.module,
        proc: PROC_ACTIVATE,
        args: to_bytes(name),
        collation: CollationPolicy::FirstCome,
        thread: None,
    }
}

/// Delay before re-offering the spare if registration fails (the
/// Ringmaster may still be forming when the spare boots).
const REGISTER_RETRY: Duration = Duration::from_micros(2_000_000);

// App timer tags must fit in the node's 56-bit tag space.
const REGISTER_KEY: TimerKey = TimerKey::new(0x53_5041_5245_5247); // "SPARERG"

/// Progress of one activation, keyed implicitly: the control module
/// accepts a single activation at a time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    /// Looking the troupe up at the binding agent.
    Lookup,
    /// Wedging the survivors (quiesce for state transfer).
    Wedging,
    /// Fetching the quiescent state from a survivor.
    Fetching,
    /// Registering this process's module with `add_troupe_member`, or
    /// with `replace_troupe_member` in the dead member's place.
    Adding,
    /// Releasing the survivors' wedge.
    Unwedging,
}

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Lookup => "lookup",
            Stage::Wedging => "wedging",
            Stage::Fetching => "fetching",
            Stage::Adding => "adding",
            Stage::Unwedging => "unwedging",
        }
    }

    /// Whether the survivors hold a wedge when this stage fails. The
    /// wedge lands during `Wedging`, so any abort from `Fetching`
    /// onward leaves the troupe wedged until the survivors' TTL lapses.
    fn survivors_wedged(self) -> bool {
        matches!(self, Stage::Fetching | Stage::Adding | Stage::Unwedging)
    }
}

/// The control module of a warm spare (see the module docs).
pub struct SpareService {
    binder: Troupe,
    /// The troupe this spare can replace a member of.
    name: String,
    /// The local module that will join (it must implement the same
    /// interface as the troupe's members).
    module: u16,
    stage: Option<Stage>,
    /// The confirmed-dead member this activation replaces, if any.
    dead: Option<ModuleAddr>,
    /// Members found at lookup time, the dead one excluded — wedged,
    /// fetched from, unwedged.
    survivors: Vec<ModuleAddr>,
    /// Set once an activation has completed; the process is then an
    /// ordinary troupe member and the control module refuses re-use.
    pub activated: bool,
}

impl SpareService {
    /// Creates the control module for a spare able to join the troupe
    /// named `name`, exporting local module `module`.
    pub fn new(binder: Troupe, name: impl Into<String>, module: u16) -> SpareService {
        SpareService {
            binder,
            name: name.into(),
            module,
            stage: None,
            dead: None,
            survivors: Vec::new(),
            activated: false,
        }
    }

    fn survivors_troupe(&self) -> Troupe {
        // Unchecked incarnation: the survivors answer whoever wedges
        // them, and the id in the lookup reply may already be stale (an
        // operator's join, or a member evicted meanwhile).
        Troupe::new(TroupeId::UNREGISTERED, self.survivors.clone())
    }

    fn abort(&mut self, ctx: &mut ServiceCtx, stage: Stage, why: String) -> Step {
        // Leave any partial wedge to the survivors' TTL: replying with
        // the error immediately lets the healer try the next spare. The
        // error carries everything the healer's log needs to place the
        // failure: which member was joining, at which stage, and
        // whether the survivors were left wedged.
        ctx.metrics.add("spare.join_failures", 1);
        let member = ModuleAddr::new(ctx.me, self.module);
        let wedge = if stage.survivors_wedged() {
            format!(
                "survivors {:?} left wedged, lease TTL will release them",
                self.survivors
            )
        } else {
            "survivors not wedged".to_string()
        };
        self.stage = None;
        self.survivors.clear();
        Step::Error(format!(
            "spare join of {member:?} to {:?} aborted at {}: {why} ({wedge})",
            self.name,
            stage.name(),
        ))
    }
}

impl Service for SpareService {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, proc: u16, args: &[u8]) -> Step {
        let request = match proc {
            PROC_ACTIVATE => from_bytes::<String>(args).map(|name| (name, None)),
            PROC_REPLACE => from_bytes::<(String, ModuleAddr)>(args).map(|(n, d)| (n, Some(d))),
            _ => return Step::Error(format!("spare control: no such procedure {proc}")),
        };
        if self.activated {
            return Step::Error("spare already activated".into());
        }
        if self.stage.is_some() {
            return Step::Error("activation already in progress".into());
        }
        let (name, dead) = match request {
            Ok(r) => r,
            Err(e) => return Step::Error(format!("garbled activate args: {e}")),
        };
        if name != self.name {
            return Step::Error(format!(
                "spare serves troupe {:?}, not {:?}",
                self.name, name
            ));
        }
        self.stage = Some(Stage::Lookup);
        self.dead = dead;
        Step::Call(OutCall {
            target: TroupeTarget::Troupe(self.binder.clone()),
            module: BINDING_MODULE,
            proc: binding_procs::LOOKUP_TROUPE_BY_NAME,
            args: to_bytes(&self.name).into(),
            collation: CollationPolicy::Majority,
            solo: true,
        })
    }

    fn resume(&mut self, ctx: &mut ServiceCtx, reply: Result<Vec<u8>, CallError>) -> Step {
        let Some(stage) = self.stage else {
            return Step::Error("spare control resumed while idle".into());
        };
        match stage {
            Stage::Lookup => {
                self.survivors = match reply {
                    Ok(bytes) => match from_bytes::<Option<Troupe>>(&bytes) {
                        Ok(t) => t.map_or_else(Vec::new, |t| t.members),
                        Err(e) => {
                            return self.abort(ctx, stage, format!("garbled lookup reply: {e}"))
                        }
                    },
                    Err(e) => return self.abort(ctx, stage, format!("lookup failed: {e}")),
                };
                // The dead member is neither wedged nor fetched from: its
                // place is what this join takes.
                let dead = self.dead;
                self.survivors.retain(|m| Some(*m) != dead);
                if self.survivors.is_empty() {
                    return self.abort(ctx, stage, "troupe has no surviving members".into());
                }
                self.stage = Some(Stage::Wedging);
                Step::Call(OutCall {
                    target: TroupeTarget::Troupe(self.survivors_troupe()),
                    module: self.module,
                    proc: reserved_procs::WEDGE,
                    args: Vec::new().into(),
                    collation: CollationPolicy::Unanimous,
                    solo: true,
                })
            }
            Stage::Wedging => {
                if let Err(e) = reply {
                    return self.abort(ctx, stage, format!("wedge failed: {e}"));
                }
                // Every survivor is quiescent: the snapshot below cannot
                // race a commit (§6.4.1's consistency requirement). The
                // node stamps the local module's recovery token, if it
                // keeps one, into the call, and installs the reply in the
                // module before this service resumes: the joining node
                // decides delta or full.
                self.stage = Some(Stage::Fetching);
                Step::Call(OutCall {
                    target: TroupeTarget::Troupe(self.survivors_troupe()),
                    module: self.module,
                    proc: reserved_procs::GET_STATE,
                    args: Vec::new().into(),
                    collation: CollationPolicy::FirstCome,
                    solo: true,
                })
            }
            Stage::Fetching => {
                let state = match reply {
                    Ok(s) => s,
                    Err(e) => return self.abort(ctx, stage, format!("get_state failed: {e}")),
                };
                ctx.metrics.add("spare.state_bytes", state.len() as u64);
                self.stage = Some(Stage::Adding);
                let (name, member) = (self.name.clone(), ModuleAddr::new(ctx.me, self.module));
                // In a dead member's place, the removal rides the addition:
                // one membership change, one new incarnation.
                let (proc, args) = match self.dead {
                    None => (
                        binding_procs::ADD_TROUPE_MEMBER,
                        to_bytes(&AddTroupeMember { name, member }),
                    ),
                    Some(dead) => (
                        binding_procs::REPLACE_TROUPE_MEMBER,
                        to_bytes(&ReplaceTroupeMember { name, dead, member }),
                    ),
                };
                Step::Call(OutCall {
                    target: TroupeTarget::Troupe(self.binder.clone()),
                    module: BINDING_MODULE,
                    proc,
                    args: args.into(),
                    collation: CollationPolicy::Majority,
                    solo: true,
                })
            }
            Stage::Adding => {
                if let Err(e) = reply {
                    return self.abort(ctx, stage, format!("membership change failed: {e}"));
                }
                self.stage = Some(Stage::Unwedging);
                Step::Call(OutCall {
                    target: TroupeTarget::Troupe(self.survivors_troupe()),
                    module: self.module,
                    proc: reserved_procs::UNWEDGE,
                    args: Vec::new().into(),
                    collation: CollationPolicy::Unanimous,
                    solo: true,
                })
            }
            Stage::Unwedging => {
                // Registration already stands; a failed unwedge is not
                // fatal — the survivors' wedge TTL releases them.
                self.stage = None;
                self.survivors.clear();
                self.activated = true;
                ctx.metrics.add("spare.activations", 1);
                Step::Reply(Vec::new())
            }
        }
    }
}

/// Offers the local process as a spare to the Ringmaster at start-up.
pub struct SpareAgent {
    binder: Troupe,
    name: String,
    /// Set once the Ringmaster acknowledged the registration.
    pub registered: bool,
    waiting: Option<CallHandle>,
}

impl SpareAgent {
    /// Creates the registration agent for a spare serving troupe `name`.
    pub fn new(binder: Troupe, name: impl Into<String>) -> SpareAgent {
        SpareAgent {
            binder,
            name: name.into(),
            registered: false,
            waiting: None,
        }
    }

    fn register(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        let thread = nc.fresh_thread();
        let req = RegisterSpare {
            name: self.name.clone(),
            ctl: ModuleAddr::new(nc.me(), SPARE_CTL_MODULE),
        };
        self.waiting = Some(nc.call_solo(
            thread,
            &self.binder,
            BINDING_MODULE,
            binding_procs::REGISTER_SPARE,
            to_bytes(&req),
            CollationPolicy::Majority,
        ));
    }
}

impl Agent for SpareAgent {
    fn on_start(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        self.register(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        if self.waiting != Some(handle) {
            return;
        }
        self.waiting = None;
        match result {
            Ok(_) => self.registered = true,
            // The Ringmaster may still be forming; retry shortly.
            Err(_) => {
                nc.set_app_timer(REGISTER_RETRY, REGISTER_KEY);
            }
        }
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        if key == REGISTER_KEY && !self.registered && self.waiting.is_none() {
            self.register(nc);
        }
    }
}
