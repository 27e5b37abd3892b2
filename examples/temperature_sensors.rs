//! Explicit replication (§7.4): the temperature controller of Figure 7.7
//! and the response-set generator of Figure 7.6.
//!
//! A *replicated client* — a troupe of three temperature sensors acting
//! on behalf of one logical thread — calls `set_temperature` at a
//! controller. The sensors read slightly different temperatures, so the
//! controller cannot demand identical arguments; instead its argument
//! collator **averages** the three readings (the paper's
//! explicit-replication server, Figure 7.7).
//!
//! A monitoring client then queries a replicated thermometer troupe with
//! the `GatherAll` collator and iterates the full per-member response
//! set (the paper's result generator, Figure 7.6).
//!
//! Run with: `cargo run --example temperature_sensors`

use std::rc::Rc;

use rdp::circus::testbed::{addr, agent, node_mut, service, spawn_troupe, MODULE};
use rdp::circus::{
    gather_all_collation, unwrap_reply_vote, Agent, CallError, CallHandle, Collate,
    CollationPolicy, Decision, NodeBuilder, NodeConfig, NodeCtx, Service, ServiceCtx, Step,
    ThreadId, Troupe, TroupeId, VoteSlot,
};
use rdp::simnet::{Duration, SockAddr, World};
use rdp::wire::{from_bytes, to_bytes};

/// Figure 7.7's argument collator: wait for every live sensor, then
/// yield the average of their readings.
struct AverageTemps;

impl Collate for AverageTemps {
    fn decide(&self, slots: &[VoteSlot]) -> Decision {
        let mut sum = 0i64;
        let mut n = 0i64;
        for s in slots {
            match s {
                VoteSlot::Pending => return Decision::Wait,
                VoteSlot::Dead => {}
                VoteSlot::Vote(v) => match from_bytes::<i32>(v) {
                    Ok(t) => {
                        sum += t as i64;
                        n += 1;
                    }
                    Err(_) => {
                        return Decision::Fail(rdp::circus::CollateError::Rejected(
                            "garbled reading".into(),
                        ))
                    }
                },
            }
        }
        if n == 0 {
            return Decision::Fail(rdp::circus::CollateError::AllDead);
        }
        Decision::Ready(to_bytes(&((sum / n) as i32)).into())
    }
}

/// The temperature controller (Figure 7.7): its `set_temperature`
/// argument set is averaged, not compared.
struct Controller {
    set_point: Option<i32>,
}

impl Service for Controller {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, args: &[u8]) -> Step {
        // `args` is already the collated (averaged) reading.
        match from_bytes::<i32>(args) {
            Ok(t) => {
                self.set_point = Some(t);
                Step::Reply(to_bytes(&t))
            }
            Err(e) => Step::Error(format!("bad args: {e}")),
        }
    }

    fn arg_collation(&self, _proc: u16) -> CollationPolicy {
        CollationPolicy::Custom(Rc::new(AverageTemps))
    }
}

/// One sensor: a member of the replicated client troupe. All members
/// act for the same logical thread, so the controller groups their
/// slightly-different readings into one many-to-one call (§4.3.2).
struct Sensor {
    controller: Troupe,
    reading: i32,
    thread: ThreadId,
    pub acked: Option<i32>,
}

impl Agent for Sensor {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        nc.call(
            self.thread,
            &self.controller,
            MODULE,
            0,
            to_bytes(&self.reading),
            CollationPolicy::Unanimous,
        );
    }

    fn on_call_done(
        &mut self,
        _nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        self.acked = result.ok().and_then(|b| from_bytes(&b).ok());
    }
}

/// A replicated thermometer: each member reports its own (different)
/// temperature — deliberately nondeterministic, which is exactly what
/// explicit replication is for (§7.4).
struct Thermometer {
    reading: i32,
}

impl Service for Thermometer {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, _args: &[u8]) -> Step {
        Step::Reply(to_bytes(&self.reading))
    }
}

/// The monitoring client of Figure 7.6: iterates the response set.
struct Monitor {
    thermometers: Troupe,
    pub readings: Vec<Option<i32>>,
}

impl Agent for Monitor {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        let thread = nc.fresh_thread();
        nc.call(
            thread,
            &self.thermometers,
            MODULE,
            0,
            Vec::new(),
            gather_all_collation(),
        );
    }

    fn on_call_done(
        &mut self,
        _nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        let bytes = result.expect("gathered");
        let set = rdp::circus::decode_gathered(&bytes).expect("decodes");
        // "for page in pages() do ... end for" — the generator loop.
        self.readings = set
            .into_iter()
            .map(|per_member| {
                per_member
                    .and_then(|raw| unwrap_reply_vote(&raw))
                    .and_then(|payload| from_bytes::<i32>(&payload).ok())
            })
            .collect();
    }
}

fn main() {
    let mut world = World::new(3);

    // The controller (unreplicated server with an averaging collator).
    let config = NodeConfig::default();
    let controller_addr = addr(1, 70);
    let controller = spawn_troupe(
        &mut world,
        TroupeId(5),
        &[controller_addr],
        MODULE,
        &config,
        None,
        || Controller { set_point: None },
    );

    // The sensor troupe (replicated CLIENT): one logical thread, three
    // members with different readings.
    let sensor_id = TroupeId(6);
    let shared_thread = ThreadId {
        origin: addr(100, 1),
        serial: 1,
    };
    let readings = [19, 22, 23];
    let sensor_addrs: Vec<SockAddr> = (0..3).map(|i| addr(10 + i, 50)).collect();
    for (i, &a) in sensor_addrs.iter().enumerate() {
        let p = NodeBuilder::new(a, NodeConfig::default())
            .agent(Box::new(Sensor {
                controller: controller.clone(),
                reading: readings[i],
                thread: shared_thread,
                acked: None,
            }))
            // not the testbed: a troupe member whose agent is this example's own.
            .troupe_id(sensor_id)
            .build()
            .expect("valid node");
        world.spawn(a, Box::new(p));
    }
    // The controller needs the sensor troupe's membership (§4.3.2).
    node_mut(&mut world, controller_addr, |n| {
        n.preload_directory(sensor_id, sensor_addrs.clone())
    });

    println!("sensor readings: {readings:?}");
    for &a in &sensor_addrs {
        world.poke(a, 0);
    }
    world.run(simnet::Until::Elapsed(Duration::from_secs(10)));

    let set_point = service(&world, controller_addr, MODULE, |c: &Controller| {
        c.set_point
    });
    println!(
        "controller executed ONCE with the averaged argument: set point = {:?}",
        set_point
    );
    assert_eq!(set_point, Some((19 + 22 + 23) / 3));

    // ---- Figure 7.6: the response-set generator. ----
    let thermo_addrs = [addr(20, 70), addr(21, 70), addr(22, 70)];
    let mut temps = [18i32, 21, 24].into_iter();
    let thermometers = spawn_troupe(
        &mut world,
        TroupeId(8),
        &thermo_addrs,
        MODULE,
        &config,
        None,
        || Thermometer {
            reading: temps.next().expect("one reading per member"),
        },
    );
    let monitor_addr = addr(30, 50);
    let p = NodeBuilder::new(monitor_addr, config)
        .agent(Box::new(Monitor {
            thermometers,
            readings: Vec::new(),
        }))
        .build()
        .expect("valid node");
    world.spawn(monitor_addr, Box::new(p));
    world.poke(monitor_addr, 0);
    world.run(simnet::Until::Elapsed(Duration::from_secs(10)));

    let per_member = agent(&world, monitor_addr, |m: &Monitor| m.readings.clone());
    println!("\nexplicit replication: per-member thermometer replies = {per_member:?}");
    assert_eq!(per_member, vec![Some(18), Some(21), Some(24)]);
    println!("the client iterated the response set itself — the paper's generator (Fig 7.6).");
}
