//! Adversarial protocol fuzzing for the replicated-distributed-programs
//! stack.
//!
//! The chaos harness (crate `chaos`) already subjects the system to
//! *fail-stop* faults: crashes, partitions, message loss, and latency.
//! Cooper's design assumes exactly that fault model — §2.2 of the paper
//! leans on checksums to turn corruption into loss — but the decode paths
//! still have to uphold the assumption: any byte string arriving off the
//! (simulated) wire must be rejected *structurally*, never trusted, and
//! never allowed to panic the process or perturb replica state.
//!
//! This crate closes that loop with three pieces:
//!
//! - [`gen`]: proptest-driven generators for hostile datagrams — random
//!   bytes, truncated or type-corrupted segment headers, out-of-range
//!   call/segment positions (the PR-4 `number == 0` underflow class),
//!   forged span IDs, and well-formed calls bearing stale incarnations.
//! - [`inject`]: [`AdvInjector`], a [`simnet::TrafficInjector`] that a
//!   chaos scenario arms via [`ScenarioOptions::injector`]. It watches
//!   live traffic, and at seeded ticks injects generated hostiles plus
//!   capture-derived ones: verbatim replays and captured calls re-sent
//!   with *please ack*, both from their original source, and bit flips
//!   forced garbled, from a host that is not part of the system.
//! - [`oracle`]: invariants layered on top of the five chaos oracles —
//!   forged traffic must be *observed and rejected* (`adv.injected` /
//!   `adv.rejected`), every injection must be accounted for by exactly
//!   one generator family, and no correct member may be evicted while
//!   the adversary runs.
//!
//! Everything is deterministic: the injector draws from its own
//! splitmix64 stream seeded from the scenario seed, so a given seed
//! produces a bit-identical run (trace hash, metrics dump, span hash) —
//! which is what lets `tests/corpus/adversary.seeds` act as a regression
//! corpus.
//!
//! [`ScenarioOptions::injector`]: chaos::ScenarioOptions

pub mod gen;
pub mod inject;
pub mod oracle;

pub use gen::{hostile_datagram, stale_call_segment, HostileKind};
pub use inject::{install_adversary, AdvInjector, ATTACKER_HOST};
pub use oracle::check_adversary;

/// The committed regression seed corpus (`tests/corpus/adversary.seeds`
/// at the repository root): one seed per line, `#` comments.
pub fn corpus_seeds() -> Vec<u64> {
    const CORPUS: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/adversary.seeds"
    );
    let text = std::fs::read_to_string(CORPUS)
        .unwrap_or_else(|e| panic!("cannot read corpus {CORPUS}: {e}"));
    let seeds: Vec<u64> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            l.parse()
                .unwrap_or_else(|_| panic!("bad corpus line {l:?}"))
        })
        .collect();
    assert!(seeds.len() >= 5, "corpus must hold at least 5 seeds");
    seeds
}
