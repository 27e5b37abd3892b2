//! Property tests for the timer-wheel scheduler: against a reference
//! `BinaryHeap` model, arbitrary interleavings of inserts, pops, and
//! peeks (which advance the wheel's internal horizon) must pop in
//! exactly `(at, seq)` order — near, far, and overflow deadlines alike —
//! and `World`-level cancel/re-arm interleavings must keep both the
//! cancel results and the surviving timer set honest.

use proptest::prelude::*;
use simnet::sched::TimerWheel;
use simnet::{Duration, Process, SimRng, SockAddr, TimerId, Until, World};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary insert/pop/peek interleavings match the heap model.
    /// Delays are drawn across every wheel level and the overflow map;
    /// time only moves forward (as in the simulator).
    #[test]
    fn wheel_pops_in_heap_order(seed: u64, rounds in 1usize..400) {
        let mut rng = SimRng::new(seed);
        let mut wheel = TimerWheel::new();
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let (mut now, mut seq) = (0u64, 0u64);
        for _ in 0..rounds {
            match rng.below(4) {
                0 | 1 => {
                    // Insert a burst; magnitudes span all 6 levels plus
                    // the overflow (> 64^6 µs ≈ 19 h).
                    for _ in 0..rng.below(4) + 1 {
                        let delay = match rng.below(8) {
                            0..=3 => rng.below(64),              // level 0
                            4 => rng.below(1 << 12),             // level 1
                            5 => rng.below(1 << 24),             // levels 2–3
                            6 => rng.below(1 << 35),             // levels 4–5
                            _ => (1 << 36) + rng.below(1 << 38), // often overflow
                        };
                        wheel.insert(now + delay, seq, ());
                        model.push(Reverse((now + delay, seq)));
                        seq += 1;
                    }
                }
                2 => {
                    let got = wheel.pop().map(|(at, s, ())| (at, s));
                    let want = model.pop().map(|Reverse(e)| e);
                    prop_assert_eq!(got, want);
                    if let Some((at, _)) = got {
                        now = at;
                    }
                }
                _ => {
                    // Peek advances the wheel's horizon but must not
                    // disturb the order (a later insert may still land
                    // below the horizon — the run_until(t) pattern).
                    let got = wheel.next_at();
                    let want = model.peek().map(|&Reverse((at, _))| at);
                    prop_assert_eq!(got, want);
                }
            }
        }
        loop {
            let got = wheel.pop().map(|(at, s, ())| (at, s));
            let want = model.pop().map(|Reverse(e)| e);
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }

    /// The slab keeps every event's item attached to its `(at, seq)`
    /// through relinks (cascades), the ready batch, overflow refills and
    /// node reuse: each pop must return exactly the item inserted under
    /// that key, and `len` must track the model throughout. After a peek
    /// has advanced the horizon, inserts are aimed *below* it on purpose.
    #[test]
    fn slab_wheel_returns_each_item_under_its_key(seed: u64, rounds in 1usize..300) {
        let mut rng = SimRng::new(seed);
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut model: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let (mut now, mut seq) = (0u64, 0u64);
        let item_of = |seq: u64| seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut insert = |wheel: &mut TimerWheel<u64>,
                          model: &mut BinaryHeap<Reverse<(u64, u64, u64)>>,
                          at: u64| {
            wheel.insert(at, seq, item_of(seq));
            model.push(Reverse((at, seq, item_of(seq))));
            seq += 1;
        };
        for _ in 0..rounds {
            match rng.below(5) {
                0 | 1 => {
                    for _ in 0..rng.below(6) + 1 {
                        // One delay per wheel level, plus the overflow.
                        let level = rng.below(7) as u32;
                        let delay = rng.below(1 << (6 * level + 6).min(44));
                        insert(&mut wheel, &mut model, now + delay);
                    }
                }
                2 => {
                    // Peek, then insert between the clock and the
                    // horizon the peek advanced to (and exactly on it).
                    if let Some(horizon) = wheel.next_at() {
                        prop_assert_eq!(Some(horizon), model.peek().map(|&Reverse((at, _, _))| at));
                        insert(&mut wheel, &mut model, now + rng.below(horizon - now + 1));
                        insert(&mut wheel, &mut model, horizon);
                    }
                }
                _ => {
                    // Pop a run: frees nodes for later inserts to reuse.
                    for _ in 0..rng.below(8) {
                        let got = wheel.pop();
                        let want = model.pop().map(|Reverse(e)| e);
                        prop_assert_eq!(got, want);
                        if let Some((at, _, _)) = got {
                            now = at;
                        }
                    }
                }
            }
            prop_assert_eq!(wheel.len(), model.len());
        }
        while let Some(Reverse(want)) = model.pop() {
            prop_assert_eq!(wheel.pop(), Some(want));
        }
        prop_assert_eq!(wheel.pop(), None);
        prop_assert!(wheel.is_empty());
    }

    /// Same-tick FIFO: timers armed for the *same* deadline (and
    /// datagram-free worlds have nothing else in the tick) fire in
    /// arm order regardless of the order the wheel cascaded them in.
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

/// Drains `wheel`, checking every pop against `expected` sorted by
/// `(at, seq)`.
fn assert_drains_sorted(wheel: &mut TimerWheel<u64>, mut expected: Vec<(u64, u64, u64)>) {
    expected.sort_unstable();
    for want in expected {
        assert_eq!(wheel.pop(), Some(want));
    }
    assert_eq!(wheel.pop(), None);
}

/// One event that must cascade through every level on its way out — its
/// time differs from the wheel's in the top digit and is non-zero in all
/// the lower ones — among company parked at each level it passes through,
/// some sharing its final microsecond with earlier and later seqs.
#[test]
fn cascade_across_all_six_levels_keeps_order_and_items() {
    let digit = |level: u32, d: u64| d << (6 * level);
    let deep: u64 = (0..6).map(|l| digit(l, l as u64 + 1)).sum();
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut expected = Vec::new();
    let mut seq = 0u64;
    let mut add = |wheel: &mut TimerWheel<u64>, at: u64| {
        wheel.insert(at, seq, at ^ seq);
        expected.push((at, seq, at ^ seq));
        seq += 1;
    };
    add(&mut wheel, deep);
    for level in 0..6 {
        // Neighbours that leave the deep event's path at each level:
        // same higher digits, an earlier and a later digit here.
        let above: u64 = (level + 1..6).map(|l| digit(l, l as u64 + 1)).sum();
        add(&mut wheel, above + digit(level, level as u64));
        add(&mut wheel, above + digit(level, level as u64 + 2) + 5);
    }
    add(&mut wheel, deep); // Same microsecond, later seq.
    add(&mut wheel, deep + 1);
    // Pop half, then add more at the deep microsecond: they must queue
    // behind the ones already there.
    let mut sorted = expected.clone();
    sorted.sort_unstable();
    for want in sorted.drain(..5) {
        assert_eq!(wheel.pop(), Some(want));
    }
    wheel.insert(deep, 1_000, 42);
    sorted.push((deep, 1_000, 42));
    assert_drains_sorted(&mut wheel, sorted);
}

/// Events beyond the wheel's `64^6` µs span wait in the overflow map and
/// are pulled back one whole frame at a time — including ties on the
/// frame's first microsecond, which land in the ready batch directly.
#[test]
fn overflow_refill_pulls_whole_frames_in_order() {
    const FRAME: u64 = 1 << 36;
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut expected = Vec::new();
    let times = [
        7,              // in the wheel proper
        FRAME - 1,      // last µs of frame 0
        2 * FRAME + 9,  // first event of frame 2 ...
        2 * FRAME + 9,  // ... twice
        2 * FRAME + 10, // same frame, level 0 after the jump
        3 * FRAME - 1,  // same frame, top level
        5 * FRAME,      // a later frame, on its boundary
        5 * FRAME + (1 << 30),
    ];
    for (seq, &at) in times.iter().rev().enumerate() {
        wheel.insert(at, seq as u64, at + seq as u64);
        expected.push((at, seq as u64, at + seq as u64));
    }
    assert_eq!(wheel.len(), times.len());
    // Drain through frame 2's tie, then insert into the frame the wheel
    // has jumped to and into one still in overflow.
    let mut sorted = expected.clone();
    sorted.sort_unstable();
    for want in sorted.drain(..4) {
        assert_eq!(wheel.pop(), Some(want));
    }
    for (seq, at) in [
        (100, 2 * FRAME + 9),
        (101, 2 * FRAME + 500),
        (102, 4 * FRAME + 3),
    ] {
        wheel.insert(at, seq, seq);
        sorted.push((at, seq, seq));
    }
    assert_drains_sorted(&mut wheel, sorted);
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
