//! Ablation experiments for the design choices the paper discusses but
//! does not quantify:
//!
//! - **waiting policies** (§4.3.4): unanimous vs first-come vs majority
//!   when one troupe member runs on a loaded machine — "the execution
//!   time of the replicated program as a whole is determined by the
//!   slowest member of each troupe" (unanimous) versus "the fastest"
//!   (first-come);
//! - **multi-segment disciplines** (§4.2.5): Circus's blast against the
//!   Xerox PARC stop-and-wait — datagrams sent versus receiver
//!   buffering.
//!
//! The third ablation, synchronization schemes under conflict (§5.5),
//! is a rendering of the BENCH_8 grid: [`crate::bench8::sync_table`].

use circus::testbed::{
    addr, agent, enqueue, spawn_caller, spawn_troupe, Caller, CountingService, Request, MODULE,
    PROC_ECHO,
};
use circus::{CollationPolicy, NodeConfig, TroupeId};
use simnet::{Ctx, Duration, Payload, Process, SockAddr, Syscall, Time, TimerId, World};

/// A background process that keeps its host's CPU busy with a duty
/// cycle, simulating a loaded 1985 timesharing machine: everything else
/// on the host (including a troupe member) is delayed by CPU
/// serialization.
struct LoadGenerator {
    busy: Duration,
    period: Duration,
}

impl Process for LoadGenerator {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period, 0);
    }

    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, _tag: u64) {
        ctx.charge_dur(Syscall::Compute, self.busy);
        ctx.set_timer(self.period, 0);
    }
}

/// Mean latency (ms/call) of a replicated echo to a 3-member troupe with
/// one member on a machine kept ~75% busy, under the given waiting
/// policy.
pub fn run_waiting_policy(policy: CollationPolicy, calls: u32) -> f64 {
    let mut w = World::new(1985);
    let config = NodeConfig::default();
    let members = [addr(1, 70), addr(2, 70), addr(3, 70)];
    let troupe = spawn_troupe(
        &mut w,
        TroupeId(3),
        &members,
        MODULE,
        &config,
        None,
        CountingService::default,
    );
    // Load down member 3's machine: 60 ms of competing CPU per 80 ms.
    w.spawn(
        addr(3, 9),
        Box::new(LoadGenerator {
            busy: Duration::from_millis(60),
            period: Duration::from_millis(80),
        }),
    );
    // Back to back, each call on a thread of its own.
    let client = spawn_caller(&mut w, addr(10, 50), config, None);
    let echo = Request::new(&troupe, MODULE, PROC_ECHO, vec![0u8; 32]).collate(policy);
    enqueue(&mut w, client, vec![echo; calls as usize]);
    w.poke(client, u64::from(calls) - 1);
    let completed = |w: &World| agent(w, client, |c: &Caller| c.completed.len());
    w.run(simnet::Until::pred(Time::from_secs(36_000), |w| {
        completed(w) == calls as usize
    }));
    let total_ms: f64 = agent(&w, client, |c: &Caller| {
        c.completed
            .iter()
            .map(|c| c.done.since(c.begun).as_millis_f64())
            .sum()
    });
    total_ms / f64::from(calls)
}

/// Formats the waiting-policy ablation.
pub fn ablation_waiting() -> String {
    use std::fmt::Write as _;
    let calls = 100;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation (Sec 4.3.4): waiting policy vs latency, 3-member troupe,\n\
         one member on a ~75%-loaded machine (ms/call)"
    );
    for (name, policy) in [
        ("unanimous", CollationPolicy::Unanimous),
        ("majority", CollationPolicy::Majority),
        ("first-come", CollationPolicy::FirstCome),
    ] {
        let ms = run_waiting_policy(policy, calls);
        let _ = writeln!(out, "{name:<11} {ms:>8.1}");
    }
    let _ = writeln!(
        out,
        "Shape check: unanimous is bound by the slowest member, first-come by\n\
         the fastest, majority by the second-fastest."
    );
    out
}

/// One-way transfer of an S-segment message, counting datagrams each way
/// and the receiver's peak out-of-order buffering (§4.2.5's comparison
/// of the Circus and Xerox PARC disciplines).
fn transfer_stats(config: pairedmsg::Config, segments: usize) -> (u64, u64, usize) {
    use pairedmsg::{Counters, Endpoint, Event as PmEvent, MsgType};
    let seg = 32usize;
    let reg = obs::Registry::new();
    let mut tx = Endpoint::counting(config.clone(), Counters::register(&reg, "tx"));
    let mut rx = Endpoint::counting(config, Counters::register(&reg, "rx"));
    let payload = vec![7u8; seg * segments];
    let now = Time::ZERO;
    tx.send(now, MsgType::Call, 1, 0, &payload).unwrap();
    loop {
        let mut moved = false;
        while let Some(bytes) = tx.poll_transmit() {
            moved = true;
            rx.on_datagram(now, &bytes).unwrap();
        }
        while let Some(bytes) = rx.poll_transmit() {
            moved = true;
            tx.on_datagram(now, &bytes).unwrap();
        }
        if let Some(PmEvent::Message { .. }) = rx.poll_event() {
            break;
        }
        assert!(moved, "transfer stalled");
    }
    (
        reg.get("tx.segments_sent"),
        reg.get("rx.segments_sent"),
        reg.get("rx.max_recv_buffered") as usize,
    )
}

/// Formats the §4.2.5 protocol-discipline ablation.
pub fn ablation_protocol() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation (Sec 4.2.5): Circus vs Xerox PARC multi-segment discipline\n\
         (lossless wire; datagrams to deliver one S-segment message)"
    );
    let _ = writeln!(
        out,
        "{:<10} | {:>10} {:>10} | {:>10} {:>10}",
        "segments", "circus out", "acks back", "parc out", "acks back"
    );
    for segments in [4usize, 16, 64] {
        let seg32 = |mode: pairedmsg::ProtocolMode| pairedmsg::Config {
            max_segment_data: 32,
            mode,
            ..pairedmsg::Config::default()
        };
        let (c_fwd, c_back, _) = transfer_stats(seg32(pairedmsg::ProtocolMode::Circus), segments);
        let (p_fwd, p_back, p_buf) = transfer_stats(seg32(pairedmsg::ProtocolMode::Parc), segments);
        assert!(p_buf <= 1);
        let _ = writeln!(
            out,
            "{segments:<10} | {c_fwd:>10} {c_back:>10} | {p_fwd:>10} {p_back:>10}"
        );
    }
    let _ = writeln!(
        out,
        "Shape check: PARC nearly doubles the datagram count ('this doubles the\n\
         number of segments sent') but bounds receiver buffering to one segment;\n\
         Circus sends the minimum at the cost of unbounded buffering (Sec 4.2.5)."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiting_policies_order_correctly() {
        let unanimous = run_waiting_policy(CollationPolicy::Unanimous, 30);
        let first = run_waiting_policy(CollationPolicy::FirstCome, 30);
        let majority = run_waiting_policy(CollationPolicy::Majority, 30);
        assert!(
            first < majority && majority <= unanimous,
            "first {first:.1} majority {majority:.1} unanimous {unanimous:.1}"
        );
    }
}
