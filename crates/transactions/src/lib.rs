//! # transactions: replicated lightweight transactions
//!
//! Chapter 5 of Cooper's dissertation: synchronization for troupes.
//!
//! Serializability alone is not enough for replicated modules — "not only
//! must concurrent calls from different client troupes be serialized by
//! each server troupe member, but they must be serialized in the same
//! order" (§5.1) — and troupe members may not communicate to agree on
//! one. Two mechanisms are provided:
//!
//! - the **troupe commit protocol** ([`TroupeStoreService`] +
//!   [`CommitVoterService`]): generic over the local concurrency control
//!   (here: 2PL over a volatile workspace store, §5.2) and optimistic;
//!   divergent serialization orders would be deadlocks (Theorem 5.1),
//!   but a transaction never waits behind a younger one, so the member
//!   that ordered two against their [`Stamp`]s aborts the older at
//!   once, and its client retries with binary exponential [`Backoff`]
//!   (§5.3.1);
//! - the **ordered broadcast protocol** ([`OrderedBroadcastService`],
//!   Figure 5.1): starvation-free, two-phase (propose/accept) with
//!   synchronized clocks, consuming messages in a single agreed order
//!   under serial (chronological) execution — the trivially
//!   deterministic local concurrency control of §5.4.
//!
//! A third workload sidesteps both: **commutative operations**
//! ([`CommutativeService`]) — counter increments and grow-only-set
//! inserts — need no locks and no agreed order at all. Members apply
//! them as they arrive and converge through client retry plus per-request
//! idempotence (Shapiro's commutative replicated data types), trading
//! expressiveness for abort-free, starvation-free throughput.
//!
//! Each scheme has one client side, a [`Protocol`] in [`client`]:
//! [`Txn`], [`ProposeAccept`] and [`CmBatch`], run against a fixed troupe
//! by [`TxnClient`], [`Broadcaster`] and [`CmClient`].
//!
//! Transactions are *lightweight* (§5.2) by default: volatile, because
//! troupes mask partial failures, so permanence comes from replication.
//! [`wal`] is the optional local log (a store built
//! [`with_durability`](TroupeStoreService::with_durability)): commit
//! records and checkpoints on the member's own disk, from which a
//! restarted member recovers and then rejoins by the delta catch-up of
//! §6.4 instead of a full state transfer.

#![warn(missing_docs)]

pub mod backoff;
pub mod broadcast;
pub mod client;
pub mod commit;
pub mod commute;
pub mod ledger;
pub mod lock;
pub mod store;
pub mod txn;
pub mod wal;
mod wedge;

pub use backoff::Backoff;
pub use broadcast::{
    Accept, AppliedOrder, OrderedApply, OrderedBroadcastService, Propose, PROC_ACCEPT_TIME,
    PROC_GET_PROPOSED_TIME, PROPOSAL_TTL, RECENT_IDS,
};
pub use client::{
    Broadcaster, ClosedLoop, CmBatch, CmClient, Next, ProposeAccept, Protocol, Request, Script,
    Txn, TxnClient,
};
pub use commit::{
    CommitVoterService, ExecuteRequest, RecoveryInfo, TroupeStoreService, TxnOutcome, PROC_EXECUTE,
    PROC_READY_TO_COMMIT,
};
pub use commute::{CmOp, CmRequest, CommutativeService, PROC_CM_EXECUTE};
pub use ledger::Ledger;
pub use lock::{Acquire, LockManager, Mode};
pub use store::{ObjId, Store, TxnId};
pub use txn::{ExecOutcome, LocalTm, Op, Stamp};
pub use wal::{Checkpoint, CommitRecord, Recovered, Wal};

/// Packs a thread origin into the `u64` that keys per-client state (the
/// commit ledger and its recovery watermarks, the broadcast retry cache).
pub(crate) fn pack_origin(a: simnet::SockAddr) -> u64 {
    ((a.host.0 as u64) << 16) | a.port as u64
}
