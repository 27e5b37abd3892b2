//! Application timers through the whole stack: an agent arms and re-arms
//! them through `NodeCtx`, and the world fires every one, each at its time
//! and in its turn. A timer is never cancelled: an agent that has moved
//! past one recognises it by its key when it fires.

use rdp::circus::testbed::agent;
use rdp::circus::{Agent, NodeBuilder, NodeConfig, NodeCtx, TimerKey};
use rdp::simnet::{Duration, HostId, SockAddr, Time, Until, World};

const A: TimerKey = TimerKey::new(1);
const B: TimerKey = TimerKey::new(2);
const C: TimerKey = TimerKey::new(3);
const D: TimerKey = TimerKey::new(4);

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

/// Arms A at 1 s, B at 2 s and C at 3 s, and B again at 4 s; each time B
/// fires it arms D a second later.
#[derive(Default)]
struct Timers {
    /// `(when, key)` of each timer that reached the agent.
    fired: Vec<(Time, TimerKey)>,
}

impl Agent for Timers {
    fn on_start(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        nc.set_app_timer(secs(1), A);
        nc.set_app_timer(secs(2), B);
        nc.set_app_timer(secs(3), C);
        nc.set_app_timer(secs(4), B);
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        self.fired.push((nc.now(), key));
        if key == B {
            nc.set_app_timer(secs(1), D);
        }
    }
}

#[test]
fn armed_and_re_armed_app_timers_fire_in_turn() {
    let mut w = World::new(1985);
    let me = SockAddr::new(HostId(1), 9);
    let node = NodeBuilder::new(me, NodeConfig::default()).agent(Box::<Timers>::default());
    w.spawn(me, Box::new(node.build().expect("valid node")));
    w.run(Until::Idle);

    let fired = agent(&w, me, |t: &Timers| t.fired.clone());
    let at = |s| Time::ZERO + secs(s);
    // C and the first D share 3 s: C was armed first, so it fires first.
    let turns = [(1, A), (2, B), (3, C), (3, D), (4, B), (5, D)];
    assert_eq!(
        fired,
        turns.map(|(s, k)| (at(s), k)),
        "every timer, in turn"
    );
    // The start, then one pop per timer armed.
    assert_eq!(w.events_processed(), 7);
    assert_eq!(w.now(), at(5));
}
