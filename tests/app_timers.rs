//! Application timers through the whole stack: an agent arms, cancels and
//! re-arms them through `NodeCtx`, and the world fires exactly the ones
//! still armed, each at its time and in its turn. A cancelled timer never
//! reaches its owner, but it still pops: its pop advances the clock and
//! counts as an event, so a run replays alike whether or not its timers
//! were cancelled on the way.

use rdp::circus::testbed::agent;
use rdp::circus::{Agent, NodeBuilder, NodeConfig, NodeCtx, TimerHandle, TimerKey};
use rdp::simnet::{Duration, HostId, SockAddr, Time, Until, World};

const A: TimerKey = TimerKey::new(1);
const B: TimerKey = TimerKey::new(2);
const C: TimerKey = TimerKey::new(3);
const D: TimerKey = TimerKey::new(4);

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

/// Arms A at 1 s, B at 2 s and C at 3 s; cancels B (and again, a miss)
/// and re-arms it at 4 s. When A fires it cancels A (a miss: fired) and
/// C; when B fires it arms D at 5 s and cancels it at once.
#[derive(Default)]
struct Timers {
    a: Option<TimerHandle>,
    c: Option<TimerHandle>,
    /// What each cancel returned, in order.
    cancels: Vec<bool>,
    /// `(when, key)` of each timer that reached the agent.
    fired: Vec<(Time, TimerKey)>,
}

impl Agent for Timers {
    fn on_start(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        self.a = Some(nc.set_app_timer(secs(1), A));
        let b = nc.set_app_timer(secs(2), B);
        self.c = Some(nc.set_app_timer(secs(3), C));
        self.cancels.push(nc.cancel_app_timer(b));
        self.cancels.push(nc.cancel_app_timer(b));
        nc.set_app_timer(secs(4), B);
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        self.fired.push((nc.now(), key));
        if key == A {
            let (a, c) = (self.a.take(), self.c.take());
            self.cancels.push(nc.cancel_app_timer(a.expect("armed")));
            self.cancels.push(nc.cancel_app_timer(c.expect("armed")));
        } else if key == B {
            let d = nc.set_app_timer(secs(1), D);
            self.cancels.push(nc.cancel_app_timer(d));
        }
    }
}

#[test]
fn cancelled_app_timers_pop_without_firing_and_survivors_fire_in_turn() {
    let mut w = World::new(1985);
    let me = SockAddr::new(HostId(1), 9);
    let node = NodeBuilder::new(me, NodeConfig::default()).agent(Box::<Timers>::default());
    w.spawn(me, Box::new(node.build().expect("valid node")));
    w.run(Until::Idle);

    let (cancels, fired) = agent(&w, me, |t: &Timers| (t.cancels.clone(), t.fired.clone()));
    let at = |s| Time::ZERO + secs(s);
    assert_eq!(fired, [(at(1), A), (at(4), B)], "the survivors, in turn");
    assert_eq!(cancels, [true, false, false, true, true]);
    assert_eq!(w.metrics().get("sim.timer.cancel_miss"), 2);
    // The start, then five pops: A, B and C (cancelled), B re-armed, and
    // D (cancelled), whose pop is the run's last event.
    assert_eq!(w.events_processed(), 6);
    assert_eq!(w.now(), at(5), "the last pop was a cancelled timer's");
}
