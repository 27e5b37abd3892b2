//! Property tests for the world's event order: timers armed for one
//! deadline fire in arm order, and `World`-level cancel/re-arm
//! interleavings keep both the cancel results and the surviving timer
//! set honest.

use proptest::prelude::*;
use simnet::{Duration, Process, SimRng, SockAddr, TimerId, Until, World};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same-tick FIFO: timers armed for the *same* deadline (and
    /// datagram-free worlds have nothing else in the tick) fire in
    /// arm order.
    #[test]
    fn same_tick_timers_fire_in_arm_order(seed: u64, n in 2usize..40) {
        let mut w = World::new(seed);
        let addr = SockAddr::new(simnet::HostId(1), 9);
        w.spawn(addr, Box::new(Recorder::default()));
        w.run(Until::Idle); // deliver Start
        for t in 0..n as u64 {
            arm(&mut w, addr, 5_000, t);
        }
        w.run(Until::Idle);
        let fired = w
            .with_proc(addr, |p: &Recorder| p.fired.clone())
            .expect("recorder alive");
        prop_assert_eq!(fired, (0..n as u64).collect::<Vec<_>>());
    }
}

/// Records every timer fire; arms timers on request. A poke's tag packs
/// the arm request — `(app_tag << 32) | delay_µs` — so test drivers can
/// arm from outside a handler while keeping the arm on the simulated
/// clock (handlers charge no CPU, so the deadline is exactly
/// `now + delay`).
#[derive(Default)]
struct Recorder {
    fired: Vec<u64>,
    last_armed: Option<TimerId>,
}

impl Process for Recorder {
    fn on_datagram(&mut self, _ctx: &mut simnet::Ctx<'_>, _from: SockAddr, _data: simnet::Payload) {
    }

    fn on_timer(&mut self, _ctx: &mut simnet::Ctx<'_>, _id: TimerId, tag: u64) {
        self.fired.push(tag);
    }

    fn on_poke(&mut self, ctx: &mut simnet::Ctx<'_>, packed: u64) {
        let delay = Duration::from_micros(packed & 0xFFFF_FFFF);
        self.last_armed = Some(ctx.set_timer(delay, packed >> 32));
    }
}

/// Arms a timer at `addr` via a poke (processed immediately: the poke is
/// scheduled at `now` and every pending timer is strictly later) and
/// returns the armed [`TimerId`].
fn arm(w: &mut World, addr: SockAddr, delay_us: u64, tag: u64) -> TimerId {
    assert!(delay_us < 1 << 32 && tag < 1 << 32);
    w.poke(addr, (tag << 32) | delay_us);
    assert!(w.step(), "poke event must be pending");
    w.with_proc_mut(addr, |p: &mut Recorder| p.last_armed.take())
        .expect("recorder alive")
        .expect("poke handler armed the timer")
}

/// Cancel/re-arm interleavings at the `World` level: a pseudo-random
/// script arms timers, cancels a subset, and lets time run in slices.
/// The surviving set must fire exactly once each, in `(deadline,
/// arm-order)` order; every cancel of a live timer returns `true`, every
/// double-cancel / foreign-id cancel returns `false` and ticks
/// `sim.timer.cancel_miss` (the satellite pin for the counter).
#[test]
fn world_cancel_rearm_interleavings_fire_survivors_in_order() {
    for seed in 0..20u64 {
        let mut rng = SimRng::new(seed ^ 0x5EED);
        let mut w = World::new(seed);
        let addr = SockAddr::new(simnet::HostId(1), 9);
        w.spawn(addr, Box::new(Recorder::default()));
        w.run(Until::Idle); // deliver Start

        let mut armed: Vec<(u64, TimerId, u64)> = Vec::new(); // (deadline µs, id, tag)
        let mut expected: Vec<(u64, u64)> = Vec::new(); // (deadline µs, tag) fired so far
        let mut misses = 0u64;
        let mut tag = 0u64;
        for _ in 0..200 {
            if armed.is_empty() || rng.below(3) > 0 {
                let delay = rng.below(3_000_000) + 1;
                let deadline = w.now().as_micros() + delay;
                let id = arm(&mut w, addr, delay, tag);
                armed.push((deadline, id, tag));
                tag += 1;
            } else {
                let pick = rng.below(armed.len() as u64) as usize;
                let (_, id, _) = armed.remove(pick);
                assert!(w.cancel_timer(id), "cancel of a live timer must hit");
                // A second cancel of the same id must miss.
                assert!(!w.cancel_timer(id), "double cancel must miss");
                misses += 1;
            }
            // Occasionally let time run, firing due timers.
            if rng.below(4) == 0 {
                let step = rng.below(1_500_000);
                w.run(Until::Elapsed(Duration::from_micros(step)));
                armed.retain(|&(deadline, _, t)| {
                    if deadline <= w.now().as_micros() {
                        expected.push((deadline, t));
                        false
                    } else {
                        true
                    }
                });
                expected.sort_unstable();
            }
        }
        // Cancelling an already-fired timer is a miss too.
        if let Some(&(deadline, id, t)) = armed.first() {
            w.run(Until::Time(simnet::Time::from_micros(deadline)));
            assert!(!w.cancel_timer(id), "cancel after fire must miss");
            misses += 1;
            expected.push((deadline, t));
            armed.remove(0);
            armed.retain(|&(d, _, t)| {
                if d <= w.now().as_micros() {
                    expected.push((d, t));
                    false
                } else {
                    true
                }
            });
            expected.sort_unstable();
        }
        w.run(Until::Idle);
        for (deadline, _, t) in armed {
            expected.push((deadline, t));
        }
        expected.sort_unstable();
        let fired = w
            .with_proc(addr, |p: &Recorder| p.fired.clone())
            .expect("recorder alive");
        let want: Vec<u64> = expected.iter().map(|&(_, t)| t).collect();
        assert_eq!(fired, want, "seed {seed}: fire order diverged");
        // A foreign id never armed by this world is a recorded miss.
        assert!(!w.cancel_timer(TimerId(u64::MAX)));
        misses += 1;
        assert_eq!(
            w.metrics().get("sim.timer.cancel_miss"),
            misses,
            "seed {seed}: miss counter diverged"
        );
    }
}
