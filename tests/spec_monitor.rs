//! §4.2's paired-message checker (`crates/pairedmsg/tests/spec`) run as
//! a monitor on the world's own event stream, beside the trace ring: every
//! datagram event carries its first 16 bytes, which for a segment is its
//! whole header, so the checker reads the wire the system emits rather
//! than a transcript a test reconstructed.
//!
//! Over a stream the checker sees each segment sent and each one that
//! arrived, and no more. Of its rules:
//! - S2 (a held return is re-sent only when asked) and S3 (no ack ahead
//!   of its data) read the wire alone, and are armed here;
//! - S1 (no call delivered upward twice), S4 (no early `PeerDead`) and S5
//!   (a *please ack* copy answered before the queue drains) need the
//!   endpoints' upward events, which the stream does not carry: they stay
//!   silent, though each port-unreachable notice, the evidence S4 accepts
//!   beside a horizon of silence, is fed to the connection it is for;
//! - S6 (a quick exchange costs two datagrams) holds on a reliable wire
//!   only, and a chaos wire loses and duplicates: it is off.

#[path = "../crates/pairedmsg/tests/spec/mod.rs"]
mod spec;

use std::any::Any;
use std::collections::BTreeMap;

use chaos::{quiesce, Driver, FaultPlan, Quiesced, ScenarioOptions, Store, StoreExtra, Workload};
use pairedmsg::{Config, MsgType, Segment, SegmentHeader, HEADER_LEN};
use rdp::circus::Service;
use simnet::trace::HEAD_LEN;
use simnet::{HostId, SockAddr, Time, TraceEvent, TraceRing, TraceSink, World};
use spec::{Rule, Spec, Violation};

/// The checker as a trace sink: one [`Spec`] per connection (unordered
/// address pair; side 0 is the lower address), fed each segment's header
/// as it leaves and as it arrives. A process spawned at an address starts
/// new endpoints, so its connections start new checkers.
#[derive(Default)]
struct SpecSink {
    conns: BTreeMap<(SockAddr, SockAddr), Spec>,
    /// Every rule the retired checkers found broken, by connection.
    violations: Vec<((SockAddr, SockAddr), Violation)>,
    /// What the retired checkers exercised, summed.
    tally: BTreeMap<&'static str, u64>,
}

impl SpecSink {
    fn spec(&mut self, a: SockAddr, b: SockAddr) -> (&mut Spec, usize) {
        let conn = (a.min(b), a.max(b));
        let spec = self.conns.entry(conn).or_insert_with(|| {
            let mut spec = Spec::new(&Config::default());
            spec.unreliable();
            spec
        });
        (spec, usize::from(a != conn.0))
    }

    fn retire(&mut self, conn: (SockAddr, SockAddr), mut spec: Spec) {
        spec.finish();
        self.violations
            .extend(spec.violations.into_iter().map(|v| (conn, v)));
        for (what, n) in spec.tally {
            *self.tally.entry(what).or_default() += n;
        }
    }

    /// Every rule broken so far, retired checkers' and live ones' (S6, the
    /// one rule `Spec::finish` adds, is off).
    fn broken(&self) -> Vec<(SockAddr, SockAddr, Rule)> {
        let live = self
            .conns
            .iter()
            .flat_map(|(&conn, spec)| spec.violations.iter().map(move |v| (conn, v)));
        let retired = self.violations.iter().map(|(conn, v)| (*conn, v));
        retired.chain(live).map(|((a, b), v)| (a, b, v.0)).collect()
    }

    /// How often `what` came up, in retired checkers and live ones.
    fn count(&self, what: &str) -> u64 {
        let live = self.conns.values().filter_map(|s| s.tally.get(what));
        self.tally.get(what).into_iter().chain(live).sum()
    }
}

/// The segment header a datagram event carries, if the datagram is one.
fn header(len: u32, head: &[u8; HEAD_LEN]) -> Option<SegmentHeader> {
    let whole = len as usize >= HEADER_LEN;
    whole.then(|| SegmentHeader::decode(head).ok()).flatten()
}

impl TraceSink for SpecSink {
    fn record(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Send {
                at,
                from,
                to,
                len,
                ref head,
            } => {
                if let Some(h) = header(len, head) {
                    let (spec, side) = self.spec(from, to);
                    spec.sent(at, side, &h);
                }
            }
            TraceEvent::Deliver {
                at,
                from,
                to,
                len,
                ref head,
            } => {
                if let Some(h) = header(len, head) {
                    let (spec, side) = self.spec(from, to);
                    spec.arrived(at, 1 - side, &h);
                }
            }
            TraceEvent::Unreachable { to, dead, .. } => {
                let (spec, side) = self.spec(to, dead);
                spec.unreachable(side);
            }
            TraceEvent::Spawn { addr, .. } => {
                let (gone, kept) = std::mem::take(&mut self.conns)
                    .into_iter()
                    .partition(|((a, b), _)| *a == addr || *b == addr);
                self.conns = kept;
                for (conn, spec) in gone {
                    self.retire(conn, spec);
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The store workload, with the checker added beside the harness's ring
/// when the first member service is made: after the ring, before the
/// first datagram.
struct Monitored;

impl Workload for Monitored {
    type Proto = <Store as Workload>::Proto;
    type Extra = StoreExtra;
    const NAME: &'static str = Store::NAME;
    const TROUPE: &'static str = Store::TROUPE;
    const SCRIPT_SALT: u64 = Store::SCRIPT_SALT;
    const SCRIPT_LEN: usize = Store::SCRIPT_LEN;

    fn service(&self, w: &mut World, host: HostId) -> Box<dyn Service> {
        if w.trace_sink_as::<SpecSink>().is_none() {
            assert_eq!(w.net_stats().sent, 0, "installed before any traffic");
            w.add_trace_sink(Box::<SpecSink>::default());
        }
        Store.service(w, host)
    }

    fn faults(
        &self,
        d: &mut Driver,
        seed: u64,
        opts: &ScenarioOptions,
        extra: &mut StoreExtra,
    ) -> FaultPlan {
        Store.faults(d, seed, opts, extra)
    }

    fn check(&self, q: &Quiesced, extra: &mut StoreExtra, out: &mut Vec<chaos::Violation>) {
        Store.check(q, extra, out)
    }
}

#[test]
fn a_chaos_store_run_keeps_the_paired_message_rules() {
    // A seed whose faults make callers ask for held returns again.
    const SEED: u64 = 9;
    let opts = Store::options();
    let (q, mut extra) = quiesce(&Monitored, SEED, &opts);
    let mut oracles = Vec::new();
    Store.check(&q, &mut extra, &mut oracles);
    assert!(oracles.is_empty(), "{oracles:?}");

    // The checker rode beside the ring and left the run as it was.
    let ring = q
        .world
        .trace_sink_as::<TraceRing>()
        .expect("the harness's ring");
    let (bare, _) = quiesce(&Store, SEED, &opts);
    let bare_ring = bare.world.trace_sink_as::<TraceRing>().expect("the ring");
    assert_eq!(
        (ring.hash(), ring.seen()),
        (bare_ring.hash(), bare_ring.seen())
    );

    let sink = q.world.trace_sink_as::<SpecSink>().expect("installed");
    assert!(sink.broken().is_empty(), "{:#?}", sink.broken());
    // It saw the whole conversation, faults included, and S2 had work
    // to do: held returns re-sent, asked for and on the callee's clock.
    // A killed member's host answered calls to it with notices.
    assert!(q.plan.faults.len() > 1, "{:?}", q.plan);
    let counts = ["segments", "resent_held", "resent_timed", "notices"].map(|w| sink.count(w));
    assert!(
        counts[0] > 1_000 && counts[1] > 0 && counts[2] > 0 && counts[3] > 0,
        "{counts:?}"
    );
}

/// `seg` crosses from `from` to `to` at `at` µs, as the stream shows it:
/// its head bytes sent, then delivered.
fn wire(sink: &mut SpecSink, at: u64, from: SockAddr, to: SockAddr, seg: Segment) {
    let bytes = seg.encode();
    let mut head = [0; HEAD_LEN];
    head.copy_from_slice(&bytes[..HEAD_LEN]);
    let (at, len) = (Time::from_micros(at), bytes.len() as u32);
    sink.record(&TraceEvent::Send {
        at,
        from,
        to,
        len,
        head,
    });
    sink.record(&TraceEvent::Deliver {
        at,
        from,
        to,
        len,
        head,
    });
}

/// A made-up stream the sink must flag: a held return re-sent unasked
/// (S2), and an ack of a call segment that never arrived (S3).
#[test]
fn a_planted_stream_breaks_s2_and_s3() {
    let (client, server) = (SockAddr::new(HostId(1), 10), SockAddr::new(HostId(2), 70));
    let data = |ty, cn| Segment::data(ty, cn, 7, 1, 1, false, simnet::Payload::empty());
    let mut sink = SpecSink::default();
    wire(&mut sink, 0, client, server, data(MsgType::Call, 1));
    wire(&mut sink, 10, server, client, data(MsgType::Return, 1));
    assert_eq!(sink.broken(), [], "a call and its return");
    wire(&mut sink, 20, server, client, data(MsgType::Return, 1));
    wire(
        &mut sink,
        30,
        server,
        client,
        Segment::ack(MsgType::Call, 2, 1, 1),
    );
    let rules: Vec<Rule> = sink.broken().into_iter().map(|(_, _, r)| r).collect();
    assert_eq!(rules, [Rule::S2, Rule::S3]);
}
