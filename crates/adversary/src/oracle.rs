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
//! All three read the run's frozen `metrics_json` dump, so they apply
//! equally to live runs and corpus replays.

use chaos::{Report, Violation};

/// Sums every counter in the dump whose key starts with `prefix`.
pub fn sum_prefix(json: &str, prefix: &str) -> u64 {
    let needle = format!("\"{prefix}");
    let mut total = 0;
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + 1..];
        let Some(colon) = rest.find(':') else { break };
        // Only count exact metric keys, not string values that happen
        // to share the prefix.
        if !rest[..colon].ends_with('"') {
            continue;
        }
        let after = &rest[colon + 1..];
        let end = after.find([',', '}']).unwrap_or(after.len());
        total += after[..end].trim().parse().unwrap_or(0);
    }
    total
}

/// Runs the three adversary oracles against a finished run. Empty means
/// the run passed.
pub fn check_adversary<E>(r: &Report<E>) -> Vec<Violation> {
    let mut out = Vec::new();

    let injected = r.counter("adv.injected");
    let rejected = r.counter("adv.rejected");
    let accepted = r.counter("adv.accepted");
    let by_family = sum_prefix(&r.metrics_json, "adv.gen.");

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
    let evictions = r.counter("ring.evictions");
    let repairs = r.counter("ring.repairs");
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_prefix_sums_only_matching_keys() {
        let json = r#"{"metrics":{"adv.gen.random":3,"adv.gen.stale":2,"adv.injected":5},"spans":{"count":0,"hash":0}}"#;
        assert_eq!(sum_prefix(json, "adv.gen."), 5);
        assert_eq!(sum_prefix(json, "nope."), 0);
    }
}
