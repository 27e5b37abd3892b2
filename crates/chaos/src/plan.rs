//! Seeded fault schedules.
//!
//! A [`FaultPlan`] is a pure function of a `u64` seed: the same seed
//! always yields the same schedule, bit for bit, so a failing chaos run
//! can be replayed exactly by seed alone (the FoundationDB-style
//! workflow: sweep many seeds in CI, debug the one that broke).
//!
//! Plans respect the availability assumptions the oracles rest on:
//!
//! - only *store* hosts are faulted — the binding agent (Ringmaster)
//!   troupe and the clients stay up, matching §6.3's assumption that the
//!   binding agent survives by its own replication;
//! - at most one member is down or isolated at a time, and every crash
//!   or kill is followed by a recovery window in which the self-healing
//!   pipeline (suspect report → probe → evict → spare activation,
//!   §6.4.1) restores full strength;
//! - partitions and loss bursts are kept shorter than the paired-message
//!   crash-detection horizon (the exponential backoff schedule sums to
//!   `Config::crash_horizon()` ≈ 4.5 s by default), so a *partitioned*
//!   member is delayed, not declared dead — a partition is not a crash
//!   (§4.3.5), and no port-unreachable notice crosses one.
//!
//! The two member faults differ in how their death is learnt. A crashed
//! host is down and answers nothing, so its member is declared dead at
//! the crash horizon. A killed process leaves its host up, and the host
//! answers each datagram to the empty port with port-unreachable, so its
//! member is declared dead within a round trip of the first call to it.
//! The recovery window after either is sized for the slower, the crash.

use simnet::{Duration, SimRng, Time};

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Isolate the `victim_idx`-th current store member's host from every
    /// other host, then heal.
    Partition {
        /// Index into the *current* store membership (mod its length).
        victim_idx: usize,
        /// How long the partition lasts.
        heal_after: Duration,
    },
    /// A window of random loss and duplication on every link.
    LossBurst {
        /// Drop probability during the burst.
        loss: f64,
        /// Duplication probability during the burst.
        duplicate: f64,
        /// Burst length.
        duration: Duration,
    },
    /// Swap the network configuration (a degraded, high-latency net)
    /// for a while, then restore the baseline — exercising `NetConfig`
    /// changes at simulated times.
    Degrade {
        /// Multiplier applied to base latency and jitter.
        factor: u32,
        /// How long the degraded configuration holds.
        duration: Duration,
    },
    /// Fail-stop crash of the `victim_idx`-th store member's host
    /// (§3.5.1); the self-healing pipeline repairs by activating a spare.
    CrashHost {
        /// Index into the current store membership (mod its length).
        victim_idx: usize,
    },
    /// Kill just the member *process* (its host stays up); repaired the
    /// same way as a host crash.
    KillProc {
        /// Index into the current store membership (mod its length).
        victim_idx: usize,
    },
    /// Restart the earliest still-down crashed host (it comes back
    /// empty; its member was already replaced by a spare).
    RestartOldest,
}

/// A fault and the simulated time at which the driver applies it.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannedFault {
    /// When to apply it.
    pub at: Time,
    /// What to do.
    pub fault: Fault,
}

/// Bounds for plan generation.
#[derive(Clone, Debug)]
pub struct PlanOptions {
    /// No fault is scheduled before this time (the stack needs to bind).
    pub start: Time,
    /// No fault is scheduled after this time (quiesce needs clean air).
    pub end: Time,
    /// Crashes + kills are capped by the number of spare hosts.
    pub max_member_faults: usize,
    /// When set, *every* fault is a partition with a heal time drawn
    /// uniformly from this `(min, max)` range, and nothing ever crashes.
    /// With heal times *above* the crash-detection horizon this is the
    /// false-positive schedule: members look dead to their peers, get
    /// reported, and the prober must clear every suspicion — any
    /// eviction under such a plan is a fail-safety bug.
    pub partitions_only: Option<(Duration, Duration)>,
}

impl Default for PlanOptions {
    fn default() -> PlanOptions {
        PlanOptions {
            start: Time::from_micros(15_000_000),
            end: Time::from_micros(120_000_000),
            max_member_faults: 2,
            partitions_only: None,
        }
    }
}

/// A deterministic, seed-derived schedule of faults.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// The generating seed.
    pub seed: u64,
    /// Faults in time order.
    pub faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// Generates the schedule for `seed`. Same seed ⇒ same plan.
    ///
    /// The plan RNG is independent of the world RNG (the world is seeded
    /// with the same number but the streams are separate), so changing
    /// how many random draws the *plan* makes cannot silently shift the
    /// world's loss/jitter stream.
    pub fn generate(seed: u64, opts: &PlanOptions) -> FaultPlan {
        // Domain-separate from the world's RNG stream.
        let mut rng = SimRng::new(seed ^ 0xC4A0_5CED_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut faults = Vec::new();
        let mut member_faults = 0usize;
        let mut crashed_hosts = 0usize;
        let mut t = opts.start;
        while t < opts.end {
            // Gap before the next fault: 4–10 s.
            t += Duration::from_micros(4_000_000 + rng.below(6_000_000));
            if t >= opts.end {
                break;
            }
            if let Some((lo, hi)) = opts.partitions_only {
                let spread = hi.as_micros().saturating_sub(lo.as_micros());
                let heal_after = lo + Duration::from_micros(rng.below(spread.max(1)));
                faults.push(PlannedFault {
                    at: t,
                    fault: Fault::Partition {
                        victim_idx: rng.below(16) as usize,
                        heal_after,
                    },
                });
                // Leave air for the suspicion to be reported, probed,
                // and cleared before the next partition lands.
                t += heal_after + Duration::from_micros(12_000_000);
                continue;
            }
            let kind = rng.below(10);
            let (fault, recovery) = match kind {
                // Partitions are the most common fault.
                0..=3 => {
                    let heal_after = Duration::from_micros(600_000 + rng.below(900_000));
                    (
                        Fault::Partition {
                            victim_idx: rng.below(16) as usize,
                            heal_after,
                        },
                        heal_after,
                    )
                }
                4..=5 => {
                    let duration = Duration::from_micros(800_000 + rng.below(1_200_000));
                    (
                        Fault::LossBurst {
                            loss: 0.05 + 0.15 * rng.next_f64(),
                            duplicate: 0.05 * rng.next_f64(),
                            duration,
                        },
                        duration,
                    )
                }
                6 => {
                    let duration = Duration::from_micros(1_000_000 + rng.below(2_000_000));
                    (
                        Fault::Degrade {
                            factor: 2 + rng.below(6) as u32,
                            duration,
                        },
                        duration,
                    )
                }
                7..=8 => {
                    if member_faults >= opts.max_member_faults {
                        continue;
                    }
                    member_faults += 1;
                    let victim_idx = rng.below(16) as usize;
                    let f = if kind == 7 {
                        crashed_hosts += 1;
                        Fault::CrashHost { victim_idx }
                    } else {
                        Fault::KillProc { victim_idx }
                    };
                    // The self-healing pipeline needs clean air: after a
                    // host crash, ~4.5 s for an observer to report the
                    // death, two probe rounds of the same horizon each to
                    // confirm it, then eviction and spare activation (a
                    // kill's host answers at once). Budget a window
                    // comfortably past the crash's MTTR.
                    (f, Duration::from_micros(30_000_000))
                }
                _ => {
                    if crashed_hosts == 0 {
                        continue;
                    }
                    crashed_hosts -= 1;
                    (Fault::RestartOldest, Duration::ZERO)
                }
            };
            faults.push(PlannedFault { at: t, fault });
            t += recovery;
        }
        FaultPlan { seed, faults }
    }

    /// How many crash/kill faults the plan contains (each consumes one
    /// spare host during repair).
    pub fn member_faults(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| matches!(f.fault, Fault::CrashHost { .. } | Fault::KillProc { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let o = PlanOptions::default();
        let a = FaultPlan::generate(77, &o);
        let b = FaultPlan::generate(77, &o);
        assert_eq!(a.faults, b.faults);
        assert!(!a.faults.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let o = PlanOptions::default();
        let a = FaultPlan::generate(1, &o);
        let b = FaultPlan::generate(2, &o);
        assert_ne!(a.faults, b.faults);
    }

    #[test]
    fn member_faults_respect_spares() {
        let o = PlanOptions::default();
        for seed in 0..50 {
            let p = FaultPlan::generate(seed, &o);
            assert!(p.member_faults() <= o.max_member_faults);
            for f in &p.faults {
                assert!(f.at >= o.start && f.at < o.end);
            }
        }
    }

    #[test]
    fn partitions_only_plans_contain_only_partitions_in_range() {
        let o = PlanOptions {
            partitions_only: Some((
                Duration::from_micros(6_000_000),
                Duration::from_micros(8_000_000),
            )),
            ..PlanOptions::default()
        };
        for seed in 0..20 {
            let p = FaultPlan::generate(seed, &o);
            assert!(!p.faults.is_empty());
            assert_eq!(p.member_faults(), 0);
            for f in &p.faults {
                let Fault::Partition { heal_after, .. } = f.fault else {
                    panic!(
                        "non-partition fault {:?} in a partitions-only plan",
                        f.fault
                    );
                };
                assert!(heal_after >= Duration::from_micros(6_000_000));
                assert!(heal_after < Duration::from_micros(8_000_000));
            }
        }
    }

    #[test]
    fn partitions_stay_below_crash_detection_horizon() {
        let o = PlanOptions::default();
        for seed in 0..50 {
            for f in FaultPlan::generate(seed, &o).faults {
                if let Fault::Partition { heal_after, .. } = f.fault {
                    // crash_horizon() ≈ 4.5 s: stay well under it, so a
                    // partition never even raises a suspicion.
                    assert!(heal_after < Duration::from_micros(2_000_000));
                }
            }
        }
    }
}
