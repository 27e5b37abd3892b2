//! Services: the server half of a module (§3.4).
//!
//! A module in a distributed program is implemented by a server whose
//! address space contains the module's procedures and data. Here a module
//! is a [`Service`]: a state machine that handles dispatched procedure
//! calls and may itself make nested replicated calls (that is how a
//! distributed thread moves through several troupes, §3.4.1).
//!
//! Because the runtime is event-driven (the paper's 4.2BSD implementation
//! had no lightweight processes either, §4.2.4), a handler cannot block
//! on a nested call; instead it returns [`Step::Call`] and is resumed
//! with the collated reply.

use crate::addr::{Troupe, TroupeId};
use crate::binding::reserved_procs;
use crate::collate::{CollateError, CollationPolicy};
use crate::numbers::CallNumbers;
use crate::thread::ThreadId;
use simnet::{Duration, Payload, SockAddr, Time};
use std::collections::BTreeMap;
use std::fmt;
use wire::Externalize;

/// Why a replicated call failed at the caller.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CallError {
    /// Every member of the server troupe crashed (total failure, §3.5.1).
    AllMembersDead,
    /// Unanimous collation saw differing replies — a determinism
    /// violation (§4.3.4).
    Disagreement,
    /// Majority collation could not reach a quorum (§4.3.5).
    NoMajority,
    /// An application-specific collator rejected the reply set.
    Rejected(String),
    /// The remote procedure raised an error (§7.1.1's REPORTS).
    Remote(String),
    /// The server rejected the caller's troupe incarnation: the cached
    /// binding is stale and the caller must rebind (§6.2). The hint, if
    /// present, is one member's current incarnation.
    StaleBinding(Option<TroupeId>),
    /// No such module/procedure at the server (stale binding, §6.1).
    NoSuchProcedure,
    /// The reply could not be internalized.
    Garbled,
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::AllMembersDead => write!(f, "all troupe members crashed"),
            CallError::Disagreement => write!(f, "troupe members disagreed"),
            CallError::NoMajority => write!(f, "no majority reply"),
            CallError::Rejected(why) => write!(f, "collator rejected replies: {why}"),
            CallError::Remote(e) => write!(f, "remote error: {e}"),
            CallError::StaleBinding(_) => write!(f, "stale binding; rebind required"),
            CallError::NoSuchProcedure => write!(f, "no such remote procedure"),
            CallError::Garbled => write!(f, "reply could not be internalized"),
        }
    }
}

impl std::error::Error for CallError {}

impl From<CollateError> for CallError {
    fn from(e: CollateError) -> CallError {
        match e {
            CollateError::Disagreement => CallError::Disagreement,
            CollateError::AllDead => CallError::AllMembersDead,
            CollateError::NoMajority => CallError::NoMajority,
            CollateError::Rejected(s) => CallError::Rejected(s),
        }
    }
}

/// Destination of a nested call made from inside a service.
#[derive(Clone, Debug)]
pub enum TroupeTarget {
    /// An explicit troupe (obtained from the binding agent).
    Troupe(Troupe),
    /// The troupe that made the call being handled — the *call-back*
    /// pattern of the troupe commit protocol ("the roles of client and
    /// server are thus temporarily reversed", §5.3).
    Caller,
    /// The other members of this member's own troupe, as the binding
    /// agent's last `set_troupe_id` named them, at the module the troupe
    /// is registered under (`OutCall::module` is not read); none before
    /// the first. The call goes out on a fresh thread, not the
    /// invocation's: how a member asks its peers what they know of a
    /// shared decision (§5.3's member in doubt).
    Peers,
}

/// A nested replicated call requested by a service.
#[derive(Clone, Debug)]
pub struct OutCall {
    /// Who to call.
    pub target: TroupeTarget,
    /// Module number at the destination.
    pub module: u16,
    /// Procedure number within the module.
    pub proc: u16,
    /// Externalized arguments (up to [`Payload::INLINE`] bytes held in
    /// place: a short call-back's arguments cost no allocation).
    pub args: Payload,
    /// How to collate the replies.
    pub collation: CollationPolicy,
    /// Present the caller as a plain unregistered client even if this
    /// member is registered — for administrative calls one member makes
    /// alone (the nested-call analogue of
    /// [`NodeCtx::call_solo`](crate::runtime::NodeCtx::call_solo)).
    pub solo: bool,
}

/// What a service handler wants to happen next.
#[derive(Clone, Debug)]
pub enum Step {
    /// Return these results to the client troupe.
    Reply(Vec<u8>),
    /// Report an error to the client troupe.
    Error(String),
    /// Make a nested replicated call; the service will be resumed with
    /// the collated reply.
    Call(OutCall),
    /// Produce no reply yet: the invocation blocks (e.g. on a lock,
    /// Chapter 5) until the service advances it with
    /// [`NodeEffect::StepFor`] from some later handler.
    Suspend,
}

/// A side effect a service asks the runtime to apply after its handler
/// returns (services cannot reach into the [`Node`](crate::node::Node)
/// directly while it is dispatching them).
#[derive(Clone, Debug)]
pub enum NodeEffect {
    /// Install a client-troupe membership in the node's directory
    /// (§4.3.2); the binding agent does this as registrations change.
    PreloadDirectory {
        /// The troupe whose membership is being installed.
        id: TroupeId,
        /// Its members' process addresses.
        members: Vec<SockAddr>,
    },
    /// Forget a directory entry (membership changed).
    InvalidateDirectory {
        /// The troupe to forget.
        id: TroupeId,
    },
    /// Apply a step to a *different*, suspended invocation of this
    /// service (identified by its `ServiceCtx::invocation`). This is how
    /// a transaction blocked on a lock (Chapter 5) is resumed when the
    /// holder commits or aborts.
    StepFor {
        /// The suspended invocation to advance.
        invocation: u64,
        /// What it should do next.
        step: Step,
    },
    /// Wake this node's agent with
    /// [`Agent::on_notify`](crate::runtime::Agent::on_notify): a service
    /// observed something the application half should react to *now*
    /// (e.g. the binding agent's repair loop), without polling timers.
    NotifyAgent {
        /// Opaque tag passed through to the agent.
        tag: u64,
    },
    /// Call [`Service::wake`] for a suspended invocation `after` from now
    /// (if it is still suspended then): how a service waits before it
    /// asks again.
    Wake {
        /// The suspended invocation to wake.
        invocation: u64,
        /// How long to wait.
        after: Duration,
    },
}

wire::choice! {
    /// Reply of the reserved `get_state` procedure to a call that carries
    /// a recovery token: the full state (the peer could not serve a delta
    /// for the token) or just the commits past it. Its blocks are owned
    /// (`StateSince`, the default) or borrowed from the reply
    /// (`StateSince<&[u8]>`), as the joiner's node reads it.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum StateSince<B: wire::Block = Vec<u8>> {
        /// The complete module state, as [`Service::get_state`] returns it.
        Full(B) = 0,
        /// Only the changes past the requester's recovery token, to be
        /// applied with [`Service::apply_delta`].
        Delta(B) = 1,
    }
}

/// Per-invocation context handed to service handlers.
#[derive(Debug)]
pub struct ServiceCtx {
    /// The distributed thread making the call (§3.4.1: the server adopts
    /// this ID for the duration of the procedure execution).
    pub thread: ThreadId,
    /// The calling troupe's ID.
    pub caller: TroupeId,
    /// Distinguishes concurrent invocations so services with nested calls
    /// can key their per-invocation state.
    pub invocation: u64,
    /// Local (synchronized) clock reading. Deterministic services must
    /// not let raw clock values influence replies; the ordered broadcast
    /// protocol (§5.4) is the sanctioned use.
    pub now: Time,
    /// This member's own address — for logging only; using it in results
    /// violates determinism.
    pub me: SockAddr,
    /// Causal span of this invocation (the server-side "invoke" span,
    /// parented to the client's call span). Nested calls the service
    /// makes are parented to it automatically; services may mint further
    /// children for internal phases.
    pub span: obs::SpanId,
    /// The process's metrics registry: services count domain events here
    /// (e.g. `txn.commits`). Detached (and discarded) under mock I/O.
    pub metrics: obs::Registry,
    /// Effects for the runtime to apply after the handler returns.
    pub effects: Vec<NodeEffect>,
}

impl ServiceCtx {
    /// Queues a runtime effect.
    pub fn push_effect(&mut self, e: NodeEffect) {
        self.effects.push(e);
    }
}

/// A module implementation: the procedures and state of one abstraction
/// (§3.1).
///
/// The `Any` supertrait lets tests and examples inspect a service's
/// concrete state through [`Node::service_as`](crate::node::Node::service_as).
pub trait Service: std::any::Any {
    /// Handles procedure `proc` with externalized `args`, exactly once
    /// per replicated call (§4.1).
    fn dispatch(&mut self, ctx: &mut ServiceCtx, proc: u16, args: &[u8]) -> Step;

    /// Resumes after a nested call completes. The default is for services
    /// that never return [`Step::Call`].
    fn resume(&mut self, ctx: &mut ServiceCtx, reply: Result<Vec<u8>, CallError>) -> Step {
        let _ = (ctx, reply);
        Step::Error("service resumed but made no nested call".into())
    }

    /// Advances a suspended invocation whose [`NodeEffect::Wake`] came
    /// due. The default is for services that never ask to be woken.
    fn wake(&mut self, ctx: &mut ServiceCtx) -> Step {
        let _ = ctx;
        Step::Suspend
    }

    /// How to collate the argument sets of a many-to-one call (§4.3.2).
    /// The default demands identical arguments from every caller; Figure
    /// 7.7's temperature averaging is the canonical override.
    fn arg_collation(&self, _proc: u16) -> CollationPolicy {
        CollationPolicy::Unanimous
    }

    /// Externalizes the module state for transfer to a new troupe member
    /// (the stub-compiler-generated `get_state` of §6.4.1).
    fn get_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Installs transferred state in a new member (§6.4.1).
    fn set_state(&mut self, _state: &[u8]) {}

    /// Handles the reserved `wedge` procedure: quiesce for a membership
    /// change. A stateful service should reject new work and return
    /// [`Step::Suspend`] until its in-flight invocations drain, so the
    /// subsequent `get_state` sees a quiescent module (§6.4.1). The
    /// default replies immediately — correct for services whose state is
    /// only mutated within a single invocation.
    fn wedge(&mut self, _ctx: &mut ServiceCtx) -> Step {
        Step::Reply(Vec::new())
    }

    /// Handles the reserved `unwedge` procedure: resume normal service.
    fn unwedge(&mut self) {}

    /// Called once when the process exporting this service starts,
    /// before any dispatch. The durability hook: a service backed by a
    /// local disk recovers its state here (snapshot load + log replay)
    /// so the subsequent peer catch-up only needs a delta.
    fn on_start(&mut self, _metrics: &obs::Registry) {}

    /// A compact token describing how much state this member already
    /// holds (e.g. per-origin commit watermarks after log replay).
    /// `None` — the default — means the service keeps no durable state
    /// and a joiner must fetch the full state. The joining node sends the
    /// token with its `get_state` and, by the same test, installs the
    /// reply as a [`StateSince`] or as the whole state.
    fn recovery_token(&self) -> Option<Vec<u8>> {
        None
    }

    /// Externalizes the state *past* `token` for a recovering peer, or
    /// the full state if the delta cannot be served (unknown token,
    /// pruned history). The default falls back to a full copy.
    fn get_state_since(&self, _token: &[u8]) -> StateSince {
        StateSince::Full(self.get_state())
    }

    /// Applies a delta produced by a peer's [`Service::get_state_since`].
    /// Only meaningful for services that override `get_state_since`.
    fn apply_delta(&mut self, _delta: &[u8]) {}
}

/// Runs procedure `proc` of the exported module `module`: the service's
/// own, or one of the runtime-provided procedures every module answers
/// (§6.2, §6.4.1) — of which `set_troupe_id` installs the new
/// incarnation, with its members, in `my_troupe`.
pub(crate) fn dispatch(
    services: &mut BTreeMap<u16, Box<dyn Service>>,
    my_troupe: &mut Troupe,
    numbers: &CallNumbers,
    ctx: &mut ServiceCtx,
    module: u16,
    proc: u16,
    args: &[u8],
) -> Step {
    use reserved_procs::*;
    match (proc, services.get_mut(&module)) {
        (..RESERVED_BASE, Some(s)) => s.dispatch(ctx, proc, args),
        (NULL, _) => Step::Reply(Vec::new()),
        (SET_TROUPE_ID, _) => match wire::from_bytes::<Troupe>(args) {
            Ok(troupe) => {
                *my_troupe = troupe;
                Step::Reply(Vec::new())
            }
            Err(e) => Step::Error(format!("bad troupe id: {e}")),
        },
        // No token (the joiner keeps no durable state): the whole state,
        // untagged. A token: what the joiner missed, or all of it. Either
        // goes with this member's call numbers, which the joiner numbers
        // its calls by from then on (§4.3.3).
        (GET_STATE, Some(s)) => Step::Reply(match args {
            [] => numbers.transfer(|w| w.put_raw(&s.get_state())),
            token => numbers.transfer(|w| s.get_state_since(token).externalize(w)),
        }),
        // The service may Suspend until in-flight invocations drain
        // (§6.4.1) and later reply via `StepFor`.
        (WEDGE, Some(s)) => s.wedge(ctx),
        (UNWEDGE, Some(s)) => {
            s.unwedge();
            Step::Reply(Vec::new())
        }
        (..RESERVED_BASE | GET_STATE | WEDGE | UNWEDGE, None) => {
            Step::Error("no such module".into())
        }
        _ => Step::Error("unknown reserved procedure".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collate_error_conversion() {
        assert_eq!(
            CallError::from(CollateError::Disagreement),
            CallError::Disagreement
        );
        assert_eq!(
            CallError::from(CollateError::AllDead),
            CallError::AllMembersDead
        );
        assert_eq!(
            CallError::from(CollateError::NoMajority),
            CallError::NoMajority
        );
        assert_eq!(
            CallError::from(CollateError::Rejected("x".into())),
            CallError::Rejected("x".into())
        );
    }

    #[test]
    fn default_resume_is_an_error() {
        struct Null;
        impl Service for Null {
            fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, _args: &[u8]) -> Step {
                Step::Reply(Vec::new())
            }
        }
        let mut s = Null;
        let mut ctx = ServiceCtx {
            thread: crate::thread::ThreadId {
                origin: SockAddr::new(simnet::HostId(0), 0),
                serial: 0,
            },
            caller: TroupeId(0),
            invocation: 0,
            now: Time::ZERO,
            me: SockAddr::new(simnet::HostId(0), 0),
            span: obs::SpanId::NONE,
            metrics: obs::Registry::new(),
            effects: Vec::new(),
        };
        assert!(matches!(s.resume(&mut ctx, Ok(Vec::new())), Step::Error(_)));
    }
}
