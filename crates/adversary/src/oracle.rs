//! Adversary-specific invariants, layered on the five chaos oracles.
//!
//! The chaos oracles (`chaos::check_all`) assert the *system's* health:
//! exactly-once delivery, replica convergence, atomic commit, serial
//! monotonicity, eviction/repair balance. These three assert the
//! *adversary's* footprint on top of a run that passed them:
//!
//! - `adv-observed` — forged traffic was actually delivered to nodes
//!   and structurally rejected there (the run exercised the decode
//!   hardening, rather than the injector silently misfiring);
//! - `adv-accounting` — every injected datagram is attributed to
//!   exactly one generator family, and no more datagrams passed the
//!   first structural gate than were injected;
//! - `adv-no-false-eviction` — hostile traffic never got a *correct*
//!   member evicted: every eviction in the run is matched by a repair,
//!   so only genuinely crashed members left the ring.
//!
//! All three read the run's frozen metrics snapshot, so they apply
//! equally to live runs and corpus replays.

use chaos::{Report, Violation};

/// Runs the three adversary oracles against a finished run. Empty means
/// the run passed.
pub fn check_adversary<E>(r: &Report<E>) -> Vec<Violation> {
    let mut out = Vec::new();

    let injected = r.metrics.get("adv.injected");
    let rejected = r.metrics.get("adv.rejected");
    let accepted = r.metrics.get("adv.accepted");
    let by_family = r.metrics.sum("adv.gen.", "");

    if injected == 0 || rejected == 0 {
        out.push(Violation {
            oracle: "adv-observed",
            detail: format!(
                "adversary left no footprint: adv.injected={injected} adv.rejected={rejected} \
                 (forged traffic must reach nodes and be refused there)"
            ),
        });
    }
    if by_family != injected || accepted > injected {
        out.push(Violation {
            oracle: "adv-accounting",
            detail: format!(
                "injection ledger out of balance: adv.injected={injected} \
                 sum(adv.gen.*)={by_family} adv.accepted={accepted}"
            ),
        });
    }
    let evictions = r.metrics.get("ring.evictions");
    let repairs = r.metrics.get("ring.repairs");
    if evictions != repairs {
        out.push(Violation {
            oracle: "adv-no-false-eviction",
            detail: format!(
                "eviction/repair mismatch under adversarial traffic: \
                 ring.evictions={evictions} ring.repairs={repairs} \
                 (a correct member may have been evicted on forged evidence)"
            ),
        });
    }
    out
}
