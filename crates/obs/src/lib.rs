//! Deterministic observability for the replicated-program simulator.
//!
//! Two halves, one invariant:
//!
//! * a **metrics registry** ([`Registry`]) of named counters, gauges and
//!   histograms — registered per host by key convention (`cpu.h1:70.…`,
//!   `net.sent`, `rpc.h3:70.calls_delivered`), cheap to bump on the
//!   simulated hot path (a handle is one shared `Cell`), and read whole as
//!   a plain-data [`Snapshot`], which renders as sorted text or JSON;
//! * **causal spans** for replicated calls: a [`SpanId`] is minted when a
//!   client begins a call, rides the paired-message segment header across
//!   the wire, and every service invocation / nested call / directory
//!   lookup mints a child, so one call's one-to-many fan-out reconstructs
//!   as a single [`SpanTree`].
//!
//! The invariant: the simulator is deterministic, so for a fixed seed and
//! workload the full metrics dump and the span tree are **bit-identical**
//! across runs. That turns the registry itself into an oracle — any
//! nondeterminism anywhere in the stack shows up as a diff here.
//!
//! The crate also holds the one FNV-1a ([`fnv1a`], [`fnv1a_fold`]) every
//! deterministic digest in the workspace is folded with.
//!
//! This crate is a leaf: no dependencies, no simulator types. Layers above
//! translate their domain types (sim time, syscall kinds) into plain
//! integers at the boundary.

mod fnv;
mod registry;
mod snapshot;
mod span;
mod view;

pub use fnv::{fnv1a, fnv1a_fold, FNV1A_BASIS};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use snapshot::{Reading, Snapshot};
pub use span::{SpanId, SpanRecord, SpanTree};
pub use view::{CpuView, NetView};
