//! # chaos: deterministic simulation testing for the whole stack
//!
//! A FoundationDB-style chaos harness over the `simnet` simulator: every
//! run is a pure function of one `u64` seed — the fault schedule, the
//! workload, the network's loss and jitter, every timer — so a failure
//! found by sweeping seeds is replayed bit-for-bit from the seed alone.
//!
//! There is **one** harness. The paper's point in §5.5 is that commit,
//! ordered broadcast and commutative operations are interchangeable
//! synchronization schemes over the same troupe and binding machinery;
//! the crate says the same thing in code:
//!
//! - [`harness`] — the fixed scenario ([`quiesce`]: Ringmaster troupe
//!   with its self-healing agent, a configlang-placed workload troupe,
//!   warm spares, name-importing clients, fault schedule, quiesce) and
//!   the [`Workload`] trait that plugs a scheme into it;
//! - [`store`], [`bcast`], [`commute`], [`recovery`] — the four
//!   workloads, each a small value supplying only what differs: the
//!   member service, the client protocol with its seeded script and
//!   probe, the oracles, the report extras (and, for [`Recovery`], a
//!   fault script of its own: crash a durable member, reboot it on its
//!   disk, rejoin by log replay);
//! - [`client`] — the one rebinding [`Client`] (import by name, pace,
//!   rebind when stale — Chapter 6, and the commit audit) over the
//!   library's three [`transactions::Protocol`]s, each [`Scripted`] with
//!   its seeded script and quiesce probe;
//! - [`plan`] — seeded [`FaultPlan`]s: host crashes and restarts, process
//!   kills, single-host partitions, loss/duplication bursts, and
//!   [`NetConfig`](simnet::NetConfig) swaps at simulated times, all
//!   derived deterministically from the seed and calibrated against the
//!   paired-message crash-detection horizon (a partition is *not* a
//!   crash, §4.3.5);
//! - [`drive`] — the one fault [`Driver`]: injects the plan, watches the
//!   in-system crash repair (§6.4), and replays every membership change
//!   through the configuration manager;
//! - [`oracle`] — the store invariants checked at quiesce (exactly-once
//!   execution, replica-state convergence, transaction atomicity, no
//!   surviving stale binding), the ones every workload shares
//!   (paired-message serial-number monotonicity, one assembly per logical
//!   call, no permanent under-replication, and no tracked structure over
//!   its bound at
//!   quiesce — every service ledger, and every process's call-runtime
//!   census);
//! - [`report`] — [`run`] ties it together and emits a [`Report`] whose
//!   trace hash makes "same seed ⇒ same run" a one-line assertion and
//!   whose [`Report::repro`] line makes a failing seed copy-pasteable;
//!   [`sweep`] runs many seeds across worker threads.
//!
//! ```no_run
//! use chaos::{assert_all_passed, sweep, Bcast, Workload};
//! let reports = sweep(&Bcast, &[1, 2, 3], &Bcast::options(), 2);
//! assert_all_passed(&reports);
//! ```

#![warn(missing_docs)]

pub mod bcast;
pub mod client;
pub mod commute;
pub mod drive;
pub mod harness;
pub mod oracle;
pub mod plan;
pub mod recovery;
pub mod report;
pub mod store;

pub use bcast::{Bcast, BcastExtra, ChaosApp};
pub use client::{Client, RebindingClient, Scripted};
pub use commute::{Commute, CommuteExtra};
pub use drive::Driver;
pub use harness::{
    quiesce, Quiesced, ScenarioOptions, Workload, CLIENT_PORT, COMMIT_MODULE, MEMBER_MODULE,
    MEMBER_PORT, REPLICATION, TRACE_SAMPLE,
};
pub use oracle::{check_all, Violation};
pub use plan::{Fault, FaultPlan, PlanOptions, PlannedFault};
pub use recovery::{Recovery, RecoveryExtra};
pub use report::{assert_all_passed, chaos_jobs, run, sweep, sweep_seeds, Report};
pub use store::{run_scenario, Store, StoreExtra};
