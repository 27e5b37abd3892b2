//! # circus: troupes and replicated procedure call
//!
//! The primary contribution of Cooper's *Replicated Distributed Programs*
//! (Berkeley, 1985): a software architecture in which each module of a
//! distributed program is replicated as a **troupe** whose members run on
//! machines with independent failure modes, never communicate with one
//! another, and are unaware of one another's existence (§3.5.1). Control
//! transfers between troupes by **replicated procedure call**, whose
//! semantics are *exactly-once execution at all troupe members* (§4.1).
//!
//! The crate provides:
//!
//! - [`Troupe`], [`ModuleAddr`], [`TroupeId`] — the representation handed
//!   out by the binding agent (§4.3, §6.3);
//! - [`ThreadId`] and the thread-ID propagation algorithm (§3.4.1);
//! - [`IdSet`] (re-exported from `wire`) — an exact set of ids held as
//!   ranges, shared by the call runtime's per-thread call sequences, the
//!   services' ledgers and the paired-message exactly-once audit;
//! - [`CallMessage`]/[`ReturnMessage`] — call/return contents (§4.3);
//! - [`Collation`] and collators: unanimous, first-come, majority, and
//!   application-specific (§4.3.4–§4.3.6, §7.4);
//! - [`Service`] — module implementations as resumable state machines
//!   able to make nested replicated calls;
//! - [`Node`] — the per-process runtime implementing the one-to-many and
//!   many-to-one halves of the general many-to-many call (§4.3.1–§4.3.3);
//! - [`runtime::CircusProcess`] — the `simnet` driver and the [`runtime::Agent`]
//!   trait for application code;
//! - [`testbed`] — what tests, examples and experiments stand their
//!   troupes up with and drive their calls through: one spawn, one
//!   counting echo service, one scripted client agent, a blocking `call`.
//!
//! When every troupe has one member, the system degenerates to a
//! conventional remote procedure call facility (§4.1).

#![warn(missing_docs)]

pub mod addr;
mod assembly;
pub mod binding;
mod calls;
pub mod census;
pub mod collate;
mod conn;
mod counts;
mod directory;
pub mod message;
mod netio;
pub mod node;
mod numbers;
pub mod runtime;
pub mod service;
pub mod testbed;
pub mod thread;

pub use addr::{ModuleAddr, Troupe, TroupeId};
pub use collate::{
    decode_gathered, gather_all_collation, Collate, CollateError, Collation, CollationPolicy,
    Decision, GatherAll, VoteSlot,
};
pub use message::{reply_vote, unwrap_reply_vote, wrap_reply_vote, CallMessage, ReturnMessage};
pub use node::{AppEvent, CallHandle, NetIo, Node, NodeConfig, TimerKey};
pub use runtime::{Agent, BuildError, CircusProcess, NodeBuilder, NodeCtx};
pub use service::{
    CallError, NodeEffect, OutCall, Service, ServiceCtx, StateSince, Step, TroupeTarget,
};
pub use thread::{ThreadId, ThreadIdGen};
pub use wire::IdSet;
