//! # Replicated Distributed Programs
//!
//! A from-scratch Rust reproduction of Eric C. Cooper's *Replicated
//! Distributed Programs* (UC Berkeley, 1985; SOSP '85): **troupes** —
//! replicated modules whose members run on independently failing
//! machines, never communicate with one another, and are unaware of one
//! another's existence — and **replicated procedure call**, whose
//! semantics are *exactly-once execution at all troupe members*.
//!
//! This crate is the umbrella: it re-exports every subsystem.
//!
//! | module | paper | contents |
//! |---|---|---|
//! | [`simnet`] | §4.4 testbed | deterministic discrete-event simulator: hosts with serial CPUs and the VAX/4.2BSD syscall cost model, a LAN with loss/partition/multicast, fault injection |
//! | [`wire`] | §7.1 | Courier-style external data representation |
//! | [`pairedmsg`] | §4.2 | the Circus paired message protocol (segments, acks, probes, crash detection) |
//! | [`circus`] | Ch. 3–4 | troupes, thread IDs, collators, one-to-many / many-to-one / many-to-many replicated calls |
//! | [`ringmaster`] | Ch. 6 | the binding agent: troupe IDs as incarnations, rebind, member join with state transfer, self-healing from warm spares |
//! | [`transactions`] | Ch. 5 | replicated lightweight transactions: troupe commit protocol and ordered broadcast |
//! | [`stubgen`] | Ch. 7 | the stub compiler: Courier-style IDL → Rust stubs |
//! | [`configlang`] | §7.5 | the troupe configuration language, solver, and manager |
//! | [`obs`] | §4.4 | deterministic observability: the metrics registry and causal call spans |
//! | [`analysis`] | §4.4.2, §5.3.1, §6.4.2 | the paper's probabilistic models |
//! | [`chaos`] | whole stack | deterministic chaos harness: seeded fault schedules, invariant oracles, event-trace replay |
//!
//! See `examples/` for runnable scenarios and the `bench` crate's `repro`
//! binary for every table and figure of the evaluation.

#![warn(missing_docs)]

pub use analysis;
pub use chaos;
pub use circus;
pub use configlang;
pub use obs;
pub use pairedmsg;
pub use ringmaster;
pub use simnet;
pub use stubgen;
pub use transactions;
pub use wire;
