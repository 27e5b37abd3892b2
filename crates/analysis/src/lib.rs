//! # analysis: the paper's probabilistic models
//!
//! Closed forms and Monte-Carlo validators for the three analyses in
//! Cooper's dissertation:
//!
//! - **Replicated call latency** (§4.4.2): the expected time for a
//!   multicast-based one-to-many call with exponential round trips is
//!   Hₙ·r — logarithmic in troupe size, versus the linear growth of the
//!   point-to-point Circus implementation ([`harmonic`](mod@harmonic)).
//! - **Commit deadlock** (§5.3.1, Eq 5.1): the troupe commit protocol
//!   deadlocks with probability 1 − (1/k!)^(n−1) under k conflicting
//!   transactions ([`deadlock`](mod@deadlock)).
//! - **Troupe availability** (§6.4.2, Eqs 6.1–6.2, Figure 6.3): the
//!   birth–death/M/M/n/n model relating member lifetime, replacement
//!   time, and degree of replication ([`availability`](mod@availability)).
//!
//! Plus the small statistics ([`stats`]) behind the `bench` crate's
//! least-squares fits for Figure 4.8 and BENCH_4.

#![warn(missing_docs)]

pub mod availability;
pub mod deadlock;
pub mod harmonic;
pub mod stats;

pub use availability::{availability, availability_simulated, p_failed, required_repair_time};
pub use deadlock::{deadlock_probability, deadlock_probability_simulated};
pub use harmonic::{expected_max_exponential, harmonic, harmonic_asymptotic};
pub use stats::{linear_fit, mean, r_squared};
