//! The traced run's instruments, all attached from *outside* the crates:
//!
//! - [`Spanned`] / [`SpannedService`] / [`Timed`] — delegating wrappers
//!   around a `Process`, a `Service` and an `Agent` that record host-clock
//!   spans at the layer boundaries (simnet → core → service/agent);
//! - [`CountingSink`] — a `TraceSink` counting sends, deliveries, drops and
//!   timer fires, with bytes;
//! - [`SegmentTap`] — a `TrafficInjector` that decodes every delivered
//!   segment header and never injects anything.
//!
//! Spans stay in memory until the repetition ends; a layer's self time is
//! its spans' duration minus the part their child spans cover.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use circus::{Agent, CallError, CallHandle, CollationPolicy, NodeCtx, Service, ServiceCtx, Step};
use pairedmsg::{Segment, HEADER_LEN};
use simnet::{
    Ctx, Duration, ForgedDatagram, Payload, Process, SockAddr, Time, TimerId, TraceEvent,
    TraceSink, TrafficInjector,
};

/// "No parent" in [`Span::parent`].
pub const NO_PARENT: u32 = u32::MAX;

/// One host-clock span at a layer boundary.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which handler ran (`on_datagram`, `dispatch`, `on_call_done`, ...).
    pub name: &'static str,
    /// The layer whose code the span enters (`core.client`, `core.member`,
    /// `transactions`, `app`).
    pub layer: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The operation the span belongs to: the obs span id carried in the
    /// segment header (bytes 8..16) for datagram handlers, the service
    /// invocation's obs span for dispatches, the client's op sequence
    /// number for agent callbacks, 0 when unknown (timers, control
    /// segments).
    pub op: u64,
}

/// In-memory span log of one traced repetition.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Shared handle on a [`Recorder`]; the world is single-threaded.
pub type Rec = Rc<RefCell<Recorder>>;

impl Recorder {
    /// A fresh recorder whose clock starts now.
    pub fn shared() -> Rec {
        Rc::new(RefCell::new(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, layer: &'static str, op: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans nest strictly");
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer over spans that *started* at or after
    /// `from_ns`: duration minus the interval covered by direct children.
    /// Also returns the total duration of root spans (time inside process
    /// handlers), which the caller subtracts from the run loop's wall time
    /// to get the simulator's own share.
    pub fn self_times(&self, from_ns: u64) -> (BTreeMap<&'static str, u64>, u64) {
        let mut child_cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_cover[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut roots = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.start_ns < from_ns {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            *by_layer.entry(s.layer).or_default() += dur.saturating_sub(child_cover[i]);
            if s.parent == NO_PARENT {
                roots += dur;
            }
        }
        (by_layer, roots)
    }

    /// Writes at most `cap` spans as JSON (`{"spans_total":N,"spans":[…]}`);
    /// the self-time figures are always computed over all of them.
    pub fn write_json(&self, path: &std::path::Path, cap: usize) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"spans_total\":{},\"spans_written\":{},\"spans\":[",
            self.spans.len(),
            self.spans.len().min(cap)
        )?;
        for (i, s) in self.spans.iter().take(cap).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Runs `f` inside a span. The recorder is not borrowed while `f` runs, so
/// nested wrappers can open their own spans.
fn in_span<R>(
    rec: &Rec,
    name: &'static str,
    layer: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> R {
    let id = rec.borrow_mut().enter(name, layer, op);
    let out = f();
    rec.borrow_mut().exit(id);
    out
}

/// The obs span id a datagram's segment header carries (0 = none/short).
fn header_span(data: &Payload) -> u64 {
    match data.as_slice().get(8..HEADER_LEN) {
        Some(b) => u64::from_be_bytes(b.try_into().expect("eight bytes")),
        None => 0,
    }
}

/// Delegating `Process` wrapper: one root span per handler call.
pub struct Spanned<P: Process> {
    /// The wrapped process.
    pub inner: P,
    rec: Rec,
    layer: &'static str,
}

impl<P: Process> Spanned<P> {
    /// Wraps `inner`, attributing its handler time to `layer`.
    pub fn new(inner: P, rec: Rec, layer: &'static str) -> Spanned<P> {
        Spanned { inner, rec, layer }
    }

    fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut P) -> R) -> R {
        let inner = &mut self.inner;
        in_span(&self.rec, name, self.layer, op, || f(inner))
    }
}

impl<P: Process> Process for Spanned<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.span("on_start", 0, |p| p.on_start(ctx));
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: SockAddr, data: Payload) {
        let op = header_span(&data);
        self.span("on_datagram", op, |p| p.on_datagram(ctx, from, data));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId, tag: u64) {
        self.span("on_timer", 0, |p| p.on_timer(ctx, timer, tag));
    }

    fn on_poke(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.span("on_poke", 0, |p| p.on_poke(ctx, tag));
    }

    fn recv_syscall(&self) -> Option<simnet::Syscall> {
        self.inner.recv_syscall()
    }

    fn publish_metrics(&self, reg: &obs::Registry) {
        self.inner.publish_metrics(reg);
    }
}

/// Delegating `Service` wrapper: spans around `dispatch` and `resume`;
/// every other trait method forwards untouched so state transfer,
/// wedging and recovery behave exactly as without the wrapper.
pub struct SpannedService<S: Service> {
    /// The wrapped service.
    pub inner: S,
    rec: Rec,
    layer: &'static str,
}

impl<S: Service> SpannedService<S> {
    /// Wraps `inner`, attributing its handler time to `layer`.
    pub fn new(inner: S, rec: Rec, layer: &'static str) -> SpannedService<S> {
        SpannedService { inner, rec, layer }
    }
}

impl<S: Service> Service for SpannedService<S> {
    fn dispatch(&mut self, ctx: &mut ServiceCtx, proc: u16, args: &[u8]) -> Step {
        let (inner, op) = (&mut self.inner, ctx.span.raw());
        in_span(&self.rec, "dispatch", self.layer, op, || {
            inner.dispatch(ctx, proc, args)
        })
    }

    fn resume(&mut self, ctx: &mut ServiceCtx, reply: Result<Vec<u8>, CallError>) -> Step {
        let (inner, op) = (&mut self.inner, ctx.span.raw());
        in_span(&self.rec, "resume", self.layer, op, || {
            inner.resume(ctx, reply)
        })
    }

    fn arg_collation(&self, proc: u16) -> CollationPolicy {
        self.inner.arg_collation(proc)
    }

    fn get_state(&self) -> Vec<u8> {
        self.inner.get_state()
    }

    fn set_state(&mut self, state: &[u8]) {
        self.inner.set_state(state);
    }

    fn wedge(&mut self, ctx: &mut ServiceCtx) -> Step {
        self.inner.wedge(ctx)
    }

    fn unwedge(&mut self) {
        self.inner.unwedge();
    }

    fn on_start(&mut self, metrics: &obs::Registry) {
        self.inner.on_start(metrics);
    }

    fn recovery_token(&self) -> Option<Vec<u8>> {
        self.inner.recovery_token()
    }

    fn get_state_since(&self, token: &[u8]) -> circus::StateSince {
        self.inner.get_state_since(token)
    }

    fn apply_delta(&mut self, delta: &[u8]) {
        self.inner.apply_delta(delta);
    }
}

/// Completions shared between the clients of one repetition and the run
/// loop's stopping predicate.
#[derive(Clone, Default)]
pub struct Progress(Rc<Cell<u64>>);

impl Progress {
    /// Operations completed by all clients so far.
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    /// Counts one more completed operation and returns its ordinal
    /// (1-based, across all clients of the repetition).
    pub fn tick(&self) -> u64 {
        let n = self.0.get() + 1;
        self.0.set(n);
        n
    }
}

/// Delegating `Agent` wrapper used in **both** runs: it timestamps each
/// completed operation on the simulated clock (the crates' scripted
/// clients keep results, not times) and, when a recorder is attached,
/// records a span per agent callback.
///
/// `done` reads the wrapped client's own count of finished operations
/// (`committed.len()`, `results.len()`); a completion is whatever makes it
/// grow, so retries and aborts are inside the operation's latency.
pub struct Timed<A: Agent> {
    /// The wrapped client.
    pub inner: A,
    done: fn(&A) -> usize,
    /// Ordinal (see [`Progress::tick`]) and simulated completion time of
    /// each finished operation, in order.
    pub done_at: Vec<(u64, Time)>,
    progress: Progress,
    rec: Option<Rec>,
    layer: &'static str,
}

impl<A: Agent> Timed<A> {
    /// Wraps `inner`; `done` reads how many operations it has finished,
    /// and callback spans (when `rec` is attached) go to `layer`.
    pub fn new(
        inner: A,
        done: fn(&A) -> usize,
        progress: Progress,
        rec: Option<Rec>,
        layer: &'static str,
    ) -> Timed<A> {
        Timed {
            inner,
            done,
            done_at: Vec::new(),
            progress,
            rec,
            layer,
        }
    }

    fn around(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        name: &'static str,
        f: impl FnOnce(&mut A, &mut NodeCtx<'_, '_, '_>),
    ) {
        let op = self.done_at.len() as u64;
        match &self.rec {
            Some(rec) => in_span(rec, name, self.layer, op, || f(&mut self.inner, nc)),
            None => f(&mut self.inner, nc),
        }
        let finished = (self.done)(&self.inner);
        while self.done_at.len() < finished {
            self.done_at.push((self.progress.tick(), nc.now()));
        }
    }
}

impl<A: Agent> Agent for Timed<A> {
    fn on_start(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        self.around(nc, "on_start", |a, nc| a.on_start(nc));
    }

    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        self.around(nc, "on_poke", |a, nc| a.on_poke(nc, tag));
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        self.around(nc, "on_call_done", |a, nc| {
            a.on_call_done(nc, handle, result)
        });
    }

    fn on_member_dead(&mut self, nc: &mut NodeCtx<'_, '_, '_>, addr: SockAddr) {
        self.around(nc, "on_member_dead", |a, nc| a.on_member_dead(nc, addr));
    }

    fn on_determinism_violation(&mut self, nc: &mut NodeCtx<'_, '_, '_>, handle: CallHandle) {
        self.around(nc, "on_determinism_violation", |a, nc| {
            a.on_determinism_violation(nc, handle)
        });
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: circus::TimerKey) {
        self.around(nc, "on_app_timer", |a, nc| a.on_app_timer(nc, key));
    }

    fn on_notify(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        self.around(nc, "on_notify", |a, nc| a.on_notify(nc, tag));
    }
}

/// Event counts at the simulator boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct SinkCounts {
    /// Datagrams accepted by the network.
    pub sends: u64,
    /// Bytes of those datagrams.
    pub send_bytes: u64,
    /// Datagrams that reached a live process.
    pub delivers: u64,
    /// Datagrams dropped, any reason.
    pub drops: u64,
    /// Timers that came due uncancelled.
    pub timer_fires: u64,
}

impl SinkCounts {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &SinkCounts) -> SinkCounts {
        SinkCounts {
            sends: self.sends - earlier.sends,
            send_bytes: self.send_bytes - earlier.send_bytes,
            delivers: self.delivers - earlier.delivers,
            drops: self.drops - earlier.drops,
            timer_fires: self.timer_fires - earlier.timer_fires,
        }
    }

    /// `self += other`, field by field.
    pub fn add(&mut self, other: &SinkCounts) {
        self.sends += other.sends;
        self.send_bytes += other.send_bytes;
        self.delivers += other.delivers;
        self.drops += other.drops;
        self.timer_fires += other.timer_fires;
    }
}

/// A `TraceSink` that counts and keeps nothing.
#[derive(Default)]
pub struct CountingSink {
    /// The running totals.
    pub counts: SinkCounts,
}

impl TraceSink for CountingSink {
    fn record(&mut self, ev: &TraceEvent) {
        let c = &mut self.counts;
        match ev {
            TraceEvent::Send { len, .. } => {
                c.sends += 1;
                c.send_bytes += *len as u64;
            }
            TraceEvent::Deliver { .. } => c.delivers += 1,
            TraceEvent::Drop { .. } => c.drops += 1,
            TraceEvent::TimerFire { .. } => c.timer_fires += 1,
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Delivered segments by kind, decoded from the wire.
#[derive(Clone, Copy, Debug, Default)]
pub struct SegmentCounts {
    /// First transmissions of data segments.
    pub data: u64,
    /// Data segments with *please ack* set: in the Circus discipline only
    /// retransmissions carry it (§4.2.2).
    pub retransmits: u64,
    /// Explicit acknowledgments.
    pub acks: u64,
    /// Crash-detection probes and their replies.
    pub probes: u64,
    /// Datagrams that did not decode as a segment.
    pub undecodable: u64,
}

impl SegmentCounts {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &SegmentCounts) -> SegmentCounts {
        SegmentCounts {
            data: self.data - earlier.data,
            retransmits: self.retransmits - earlier.retransmits,
            acks: self.acks - earlier.acks,
            probes: self.probes - earlier.probes,
            undecodable: self.undecodable - earlier.undecodable,
        }
    }

    /// `self += other`, field by field.
    pub fn add(&mut self, other: &SegmentCounts) {
        self.data += other.data;
        self.retransmits += other.retransmits;
        self.acks += other.acks;
        self.probes += other.probes;
        self.undecodable += other.undecodable;
    }
}

/// A passive `TrafficInjector`: it decodes the header of every delivered
/// datagram, and its one mandatory tick injects nothing and disarms.
#[derive(Default)]
pub struct SegmentTap {
    /// The running totals.
    pub counts: SegmentCounts,
}

impl TrafficInjector for SegmentTap {
    fn observe(&mut self, _now: Time, _from: SockAddr, _to: SockAddr, data: &Payload) {
        let c = &mut self.counts;
        match Segment::decode(data) {
            Ok(seg) if seg.header.probe => c.probes += 1,
            Ok(seg) if seg.header.ack => c.acks += 1,
            Ok(seg) if seg.header.please_ack => c.retransmits += 1,
            Ok(_) => c.data += 1,
            Err(_) => c.undecodable += 1,
        }
    }

    fn inject(&mut self, _now: Time) -> (Vec<ForgedDatagram>, Option<Duration>) {
        (Vec::new(), None)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
