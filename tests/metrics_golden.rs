//! Golden snapshot of the metrics registry: a fixed seed must dump to
//! exactly the committed JSON, byte for byte. Any change to metric
//! names, counter semantics, CPU costing, or the network model shows up
//! here as a diff — regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test --test metrics_golden`.

mod golden;

use rdp::circus::{
    Agent, CallError, CallHandle, CollationPolicy, ModuleAddr, NodeBuilder, NodeConfig, NodeCtx,
    Service, ServiceCtx, Step, TimerKey, Troupe, TroupeId,
};
use rdp::simnet::{Duration, HostId, SockAddr, World};
use rdp::wire::{from_bytes, to_bytes};

const MODULE: u16 = 1;
const PROC_ADD: u16 = 0;

struct Adder {
    total: u32,
}

impl Service for Adder {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, args: &[u8]) -> Step {
        self.total += from_bytes::<u32>(args).unwrap_or(0);
        Step::Reply(to_bytes(&self.total))
    }
    fn get_state(&self) -> Vec<u8> {
        to_bytes(&self.total)
    }
    fn set_state(&mut self, state: &[u8]) {
        self.total = from_bytes(state).unwrap_or(0);
    }
}

struct Scripted {
    troupe: Troupe,
    remaining: u32,
}

impl Agent for Scripted {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let t = nc.fresh_thread();
        let troupe = self.troupe.clone();
        nc.call(
            t,
            &troupe,
            MODULE,
            PROC_ADD,
            to_bytes(&1u32),
            CollationPolicy::Majority,
        );
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _h: CallHandle,
        _result: Result<Vec<u8>, CallError>,
    ) {
        // Chain the next call so the workload is strictly sequential.
        nc.set_app_timer(Duration::from_millis(1), TimerKey::new(0));
    }
}

#[test]
fn fixed_seed_metrics_dump_matches_golden() {
    let mut w = World::new(42);
    let config = NodeConfig::default();
    let id = TroupeId(4);
    let members: Vec<ModuleAddr> = (1..=3)
        .map(|h| ModuleAddr::new(SockAddr::new(HostId(h), 70), MODULE))
        .collect();
    for m in &members {
        let p = NodeBuilder::new(m.addr, config.clone())
            .service(MODULE, Box::new(Adder { total: 0 }))
            .troupe_id(id)
            .build()
            .expect("valid node");
        w.spawn(m.addr, Box::new(p));
    }
    let client = SockAddr::new(HostId(10), 10);
    let p = NodeBuilder::new(client, config)
        .agent(Box::new(Scripted {
            troupe: Troupe::new(id, members),
            remaining: 3,
        }))
        .build()
        .expect("valid node");
    w.spawn(client, Box::new(p));
    w.poke(client, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(30)));

    golden::check_golden("tests/golden/metrics_seed42.json", &w.metrics_json());
}
