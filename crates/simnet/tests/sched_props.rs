//! Property tests for the world's event order: timers armed for one
//! deadline fire in arm order, and timers armed between runs of the
//! clock all fire, each once, in deadline order.

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
    /// The id each fired timer came back with, in fire order.
    ids: Vec<TimerId>,
}

impl Process for Recorder {
    fn on_datagram(&mut self, _ctx: &mut simnet::Ctx<'_>, _from: SockAddr, _data: simnet::Payload) {
    }

    fn on_timer(&mut self, _ctx: &mut simnet::Ctx<'_>, id: TimerId, tag: u64) {
        self.fired.push(tag);
        self.ids.push(id);
    }

    fn on_poke(&mut self, ctx: &mut simnet::Ctx<'_>, packed: u64) {
        let delay = Duration::from_micros(packed & 0xFFFF_FFFF);
        ctx.set_timer(delay, packed >> 32);
    }
}

/// Arms a timer at `addr` via a poke (processed immediately: the poke is
/// scheduled at `now` and every pending timer is strictly later).
fn arm(w: &mut World, addr: SockAddr, delay_us: u64, tag: u64) {
    assert!(delay_us < 1 << 32 && tag < 1 << 32);
    w.poke(addr, (tag << 32) | delay_us);
    assert!(w.step(), "poke event must be pending");
}

/// Arm interleavings at the `World` level: a pseudo-random script arms
/// timers and lets time run in slices. Every timer fires exactly once,
/// in `(deadline, arm-order)` order, with the id minted for it: ids rise
/// in arm order.
#[test]
fn world_arm_interleavings_fire_every_timer_in_order() {
    for seed in 0..20u64 {
        let mut rng = SimRng::new(seed ^ 0x5EED);
        let mut w = World::new(seed);
        let addr = SockAddr::new(simnet::HostId(1), 9);
        w.spawn(addr, Box::new(Recorder::default()));
        w.run(Until::Idle); // deliver Start

        let mut armed: Vec<(u64, u64)> = Vec::new(); // (deadline µs, tag)
        for tag in 0..200u64 {
            let delay = rng.below(3_000_000) + 1;
            armed.push((w.now().as_micros() + delay, tag));
            arm(&mut w, addr, delay, tag);
            // Occasionally let time run, firing due timers.
            if rng.below(4) == 0 {
                let step = rng.below(1_500_000);
                w.run(Until::Elapsed(Duration::from_micros(step)));
            }
        }
        w.run(Until::Idle);
        armed.sort_unstable();
        let (fired, ids) = w
            .with_proc(addr, |p: &Recorder| (p.fired.clone(), p.ids.clone()))
            .expect("recorder alive");
        let want: Vec<u64> = armed.iter().map(|&(_, t)| t).collect();
        assert_eq!(fired, want, "seed {seed}: fire order diverged");
        let minted: Vec<TimerId> = fired.iter().map(|&t| TimerId(t)).collect();
        assert_eq!(ids, minted, "seed {seed}: an id out of arm order");
    }
}
