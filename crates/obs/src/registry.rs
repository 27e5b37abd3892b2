//! The unified metrics registry.
//!
//! A [`Registry`] is a cheaply cloneable handle to one shared table of
//! named metrics plus the span stream (see [`crate::span`]). The simulator
//! world owns one; every layer that wants to publish numbers clones the
//! handle. Metrics come in three shapes:
//!
//! * [`Counter`] — monotone `u64` (resettable only through the registry);
//! * [`Gauge`] — last-write-wins `u64` snapshot value;
//! * [`Histogram`] — count / sum / min / max of observed `u64` samples.
//!
//! Handles are `Rc<Cell<_>>` under the hood, so a hot-path update is one
//! `Cell` store — no string lookup. Name-based convenience methods
//! (`add`, `observe`) do the lookup each time; they allocate a key only
//! the first time a name is seen.
//!
//! A [`Snapshot`] copies the table out as plain data, and the dumps
//! ([`Registry::dump_text`], [`Registry::dump_json`]) render one. The
//! table is a `BTreeMap`, so output order is the sorted key order —
//! deterministic by construction.
//!
//! Spans are *consumed* as they are minted, not stored: each one is folded
//! into a running FNV-1a hash and counted, and its label interned. The
//! registry keeps no span; the simulator hands each mint to its trace
//! sinks as one more event, and a forest is built from whatever stream a
//! sink retains.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::ops::Bound;
use std::rc::Rc;

use crate::fnv::{fnv1a_fold, FNV1A_BASIS};
use crate::snapshot::{Reading, Snapshot};
use crate::span::SpanId;

/// Handle to a monotone counter. Cloning shares the underlying cell.
///
/// A handle no registry holds, `Counter::default()`, counts nothing and
/// reads 0: what a component counts into before it is given a registry.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Rc<Cell<u64>>>);

impl Counter {
    /// Adds `v` to the counter.
    pub fn add(&self, v: u64) {
        if let Some(c) = &self.0 {
            c.set(c.get().wrapping_add(v));
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }

    /// Resets to zero (used by `World::reset_cpu`-style warmup clears).
    pub fn reset(&self) {
        if let Some(c) = &self.0 {
            c.set(0);
        }
    }
}

/// Handle to a last-write-wins gauge; `Gauge::default()`, like a
/// default [`Counter`], is held by no registry and keeps nothing.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Rc<Cell<u64>>>);

impl Gauge {
    /// Overwrites the gauge value.
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.set(v);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.get())
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct HistState {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Handle to a histogram (count / sum / min / max of samples).
#[derive(Clone, Debug)]
pub struct Histogram(Rc<Cell<HistState>>);

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, v: u64) {
        let mut s = self.0.get();
        s.sum = s.sum.wrapping_add(v);
        s.min = if s.count == 0 { v } else { s.min.min(v) };
        s.max = s.max.max(v);
        s.count += 1;
        self.0.set(s);
    }

    /// Snapshot of the current aggregate.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let s = self.0.get();
        HistogramSnapshot {
            count: s.count,
            sum: s.sum,
            min: s.min,
            max: s.max,
        }
    }
}

/// Point-in-time aggregate of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn reading(&self) -> Reading {
        match self {
            Metric::Counter(c) => Reading::Count(c.get()),
            Metric::Gauge(g) => Reading::Count(g.get()),
            Metric::Histogram(h) => Reading::Histogram(h.snapshot()),
        }
    }
}

#[derive(Debug)]
struct Inner {
    metrics: BTreeMap<String, Metric>,
    /// FNV-1a over every span ever minted, folded in at mint time.
    span_hash: u64,
    /// Spans minted so far; also the id of the latest one.
    next_span: u64,
    /// Every distinct span label minted so far, by intern id.
    labels: Vec<Rc<str>>,
    /// Each label's intern id: an index into `labels`.
    label_ids: BTreeMap<Rc<str>, u32>,
    /// Where a span label or a metric key is formatted before it is
    /// looked up.
    scratch: String,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            metrics: BTreeMap::new(),
            span_hash: FNV1A_BASIS,
            next_span: 0,
            labels: Vec::new(),
            label_ids: BTreeMap::new(),
            scratch: String::new(),
        }
    }
}

impl Inner {
    /// The metric named `name`, registered with `make` the first time.
    /// `name` is formatted into `scratch`, where it stays, so only that
    /// first time allocates (the key).
    fn metric(&mut self, name: impl fmt::Display, make: fn() -> Metric) -> Metric {
        self.scratch.clear();
        write!(self.scratch, "{name}").expect("writing to a String cannot fail");
        if let Some(m) = self.metrics.get(self.scratch.as_str()) {
            return m.clone();
        }
        let m = make();
        self.metrics.insert(self.scratch.clone(), m.clone());
        m
    }

    /// The intern id of the label formatted in `scratch`, interning it
    /// the first time.
    fn intern_scratch(&mut self) -> u32 {
        if let Some(&id) = self.label_ids.get(self.scratch.as_str()) {
            return id;
        }
        let id = u32::try_from(self.labels.len()).expect("fewer than 2^32 span labels");
        let label: Rc<str> = Rc::from(self.scratch.as_str());
        self.labels.push(label.clone());
        self.label_ids.insert(label, id);
        id
    }
}

/// Cheaply cloneable handle to one shared metrics table + span fold.
#[derive(Clone, Debug, Default)]
pub struct Registry(Rc<RefCell<Inner>>);

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or finds) the counter named `name` and returns a handle.
    /// `name` is anything printable — a `&str`, or `format_args!` of a
    /// key's parts, which costs no allocation once the key exists.
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: impl fmt::Display) -> Counter {
        let fresh = || Metric::Counter(Counter(Some(Rc::new(Cell::new(0)))));
        let mut inner = self.0.borrow_mut();
        match inner.metric(name, fresh) {
            Metric::Counter(c) => c,
            other => panic!("metric {:?} already registered as {other:?}", inner.scratch),
        }
    }

    /// Registers (or finds) the gauge named `name`, as
    /// [`Registry::counter`] does a counter.
    pub fn gauge(&self, name: impl fmt::Display) -> Gauge {
        let fresh = || Metric::Gauge(Gauge(Some(Rc::new(Cell::new(0)))));
        let mut inner = self.0.borrow_mut();
        match inner.metric(name, fresh) {
            Metric::Gauge(g) => g,
            other => panic!("metric {:?} already registered as {other:?}", inner.scratch),
        }
    }

    /// Registers (or finds) the histogram named `name`, as
    /// [`Registry::counter`] does a counter.
    pub fn histogram(&self, name: impl fmt::Display) -> Histogram {
        let fresh = || Metric::Histogram(Histogram(Rc::new(Cell::new(HistState::default()))));
        let mut inner = self.0.borrow_mut();
        match inner.metric(name, fresh) {
            Metric::Histogram(h) => h,
            other => panic!("metric {:?} already registered as {other:?}", inner.scratch),
        }
    }

    /// By-name convenience: bump the counter `name` by `v`.
    pub fn add(&self, name: &str, v: u64) {
        self.counter(name).add(v);
    }

    /// By-name convenience: record one histogram sample.
    pub fn observe(&self, name: &str, v: u64) {
        self.histogram(name).observe(v);
    }

    /// Value of the counter or gauge `name` (0 if absent; histogram sum
    /// for histograms).
    pub fn get(&self, name: &str) -> u64 {
        let inner = self.0.borrow();
        inner.metrics.get(name).map_or(0, |m| m.reading().value())
    }

    /// Sum of every counter/gauge whose key ends with `suffix`.
    ///
    /// This is how cross-host totals are taken (`.total_us` over all
    /// `cpu.<addr>.total_us` keys) without the caller enumerating hosts.
    pub fn sum_suffix(&self, suffix: &str) -> u64 {
        let mut total = 0;
        self.each("", suffix, |_, v| total += v);
        total
    }

    /// Calls `f(middle, value)` for every metric whose key is `prefix`,
    /// then `middle`, then `suffix`, in key order, without allocating:
    /// `each("rpc.", ".retransmits", ..)` visits every process address
    /// that ever counted one, dead or alive.
    pub fn each(&self, prefix: &str, suffix: &str, mut f: impl FnMut(&str, u64)) {
        let inner = self.0.borrow();
        let from = inner
            .metrics
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded));
        for (k, m) in from.take_while(|(k, _)| k.starts_with(prefix)) {
            if let Some(middle) = k[prefix.len()..].strip_suffix(suffix) {
                f(middle, m.reading().value());
            }
        }
    }

    /// All registered keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        self.0.borrow().metrics.keys().cloned().collect()
    }

    // ------------------------------------------------------------------
    // Spans
    // ------------------------------------------------------------------

    /// Mints a child of `parent` ([`SpanId::NONE`] for a root) at `at_us`
    /// and folds it into [`span_hash`](Registry::span_hash) and
    /// [`span_count`](Registry::span_count); the registry keeps nothing
    /// else of it. Returns the span's id and its label's intern id — what
    /// a trace stream carries ([`span_label`](Registry::span_label) reads
    /// the label back).
    ///
    /// Ids are allocated from a single registry-global counter, so for a
    /// deterministic workload the numbering — and therefore the whole
    /// tree — is reproducible bit-for-bit.
    ///
    /// `label` is anything printable: a `&str`, or — on a hot path —
    /// `format_args!("call m{module}.p{proc}")`. It is formatted into a
    /// reused buffer and interned, so a label seen before costs no
    /// allocation.
    pub fn mint_span(&self, parent: SpanId, label: impl fmt::Display, at_us: u64) -> (SpanId, u32) {
        let mut guard = self.0.borrow_mut();
        let inner = &mut *guard;
        inner.scratch.clear();
        write!(inner.scratch, "{label}").expect("writing to a String cannot fail");
        let label = inner.intern_scratch();
        inner.next_span += 1;
        let id = SpanId(inner.next_span);
        let mut h = inner.span_hash;
        let mut mix = |bytes: &[u8]| h = fnv1a_fold(h, bytes);
        mix(&id.0.to_le_bytes());
        mix(&parent.0.to_le_bytes());
        mix(&at_us.to_le_bytes());
        mix(inner.scratch.as_bytes());
        mix(&[0xff]);
        inner.span_hash = h;
        (id, label)
    }

    /// The label [`Registry::mint_span`] interned as `label`.
    ///
    /// Panics if this registry minted no such label: the id came from
    /// another world's stream.
    pub fn span_label(&self, label: u32) -> Rc<str> {
        let inner = self.0.borrow();
        let known = inner.labels.get(label as usize);
        known.expect("a label this registry interned").clone()
    }

    /// Number of spans minted.
    pub fn span_count(&self) -> u64 {
        self.0.borrow().next_span
    }

    /// FNV-1a hash over every span ever minted (id, parent, time, label).
    /// Same seed ⇒ same hash; any divergence in call causality changes
    /// it.
    pub fn span_hash(&self) -> u64 {
        self.0.borrow().span_hash
    }

    // ------------------------------------------------------------------
    // Dumps
    // ------------------------------------------------------------------

    /// Every metric's current reading and the span totals, as plain data.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.0.borrow();
        Snapshot {
            metrics: inner
                .metrics
                .iter()
                .map(|(k, m)| (k.clone(), m.reading()))
                .collect(),
            spans: inner.next_span,
            span_hash: inner.span_hash,
        }
    }

    /// [`Snapshot::to_text`] of the registry now.
    pub fn dump_text(&self) -> String {
        self.snapshot().to_text()
    }

    /// [`Snapshot::to_json`] of the registry now.
    pub fn dump_json(&self) -> String {
        self.snapshot().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handle_is_shared_with_registry() {
        let r = Registry::new();
        let c = r.counter("net.sent");
        c.add(3);
        c.inc();
        assert_eq!(r.get("net.sent"), 4);
        // Re-registering returns the same cell.
        r.counter("net.sent").add(1);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let r = Registry::new();
        let h = r.histogram("lat");
        h.observe(7);
        h.observe(3);
        h.observe(9);
        let s = h.snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 3,
                sum: 19,
                min: 3,
                max: 9
            }
        );
        assert!((s.mean() - 19.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sum_suffix_aggregates_across_hosts() {
        let r = Registry::new();
        r.add("cpu.h1:70.total_us", 10);
        r.add("cpu.h2:70.total_us", 32);
        r.add("cpu.h1:70.user_us", 4);
        assert_eq!(r.sum_suffix(".total_us"), 42);
        let mut seen = Vec::new();
        r.each("cpu.", ".total_us", |host, v| {
            seen.push((host.to_string(), v))
        });
        assert_eq!(seen, [("h1:70".to_string(), 10), ("h2:70".to_string(), 32)]);
        assert_eq!(r.snapshot().sum("cpu.", ".total_us"), 42);
        assert_eq!(r.snapshot().sum("cpu.h1", ""), 14);
    }

    #[test]
    fn a_handle_no_registry_holds_counts_nothing() {
        let (c, g) = (Counter::default(), Gauge::default());
        c.add(5);
        g.set(7);
        assert_eq!((c.get(), g.get()), (0, 0));
    }

    #[test]
    fn dumps_are_sorted_and_stable() {
        let build = || {
            let r = Registry::new();
            r.add("b", 2);
            r.add("a", 1);
            r.observe("h", 5);
            r.gauge("g").set(9);
            r.mint_span(SpanId::NONE, "call", 100);
            r
        };
        let (x, y) = (build(), build());
        assert_eq!(x.dump_text(), y.dump_text());
        assert_eq!(x.dump_json(), y.dump_json());
        let text = x.dump_text();
        let a = text.find("a 1").unwrap();
        let b = text.find("b 2").unwrap();
        assert!(a < b, "keys must come out sorted:\n{text}");
        assert!(x.dump_json().starts_with("{\"metrics\":{\"a\":1,\"b\":2,"));
        let snap = x.snapshot();
        assert_eq!(
            (snap.get("g"), snap.get("h"), snap.get("absent")),
            (9, 5, 0)
        );
        assert_eq!(snap.spans, 1);
    }

    #[test]
    fn span_ids_are_deterministic() {
        let r = Registry::new();
        let (root, call) = r.mint_span(SpanId::NONE, "call m1.p2", 10);
        let (kid, invoke) = r.mint_span(root, "invoke m1.p2", 20);
        assert_eq!((root, kid), (SpanId(1), SpanId(2)));
        assert_eq!(r.span_count(), 2);
        assert_eq!(
            (&*r.span_label(call), &*r.span_label(invoke)),
            ("call m1.p2", "invoke m1.p2")
        );
        assert_eq!(
            r.mint_span(kid, "call m1.p2", 30),
            (SpanId(3), call),
            "one label, one id"
        );
        let s = Registry::new();
        s.mint_span(SpanId::NONE, "call m1.p2", 10);
        s.mint_span(SpanId(1), "invoke m1.p2", 20);
        s.mint_span(SpanId(2), "call m1.p2", 30);
        assert_eq!(r.span_hash(), s.span_hash());
    }

    /// The span hash as it was computed before it became a running fold:
    /// one pass over stored records.
    fn hash_of(records: &[(u64, u64, u64, String)]) -> u64 {
        let mut h = FNV1A_BASIS;
        for (id, parent, at_us, label) in records {
            let fields: [&[u8]; 5] = [
                &id.to_le_bytes(),
                &parent.to_le_bytes(),
                &at_us.to_le_bytes(),
                label.as_bytes(),
                &[0xff],
            ];
            for f in fields {
                h = fnv1a_fold(h, f);
            }
        }
        h
    }

    #[test]
    fn running_span_hash_equals_the_hash_of_the_records() {
        let r = Registry::new();
        assert_eq!(r.span_hash(), hash_of(&[]));
        let mut records = Vec::new();
        let mut parent = SpanId::NONE;
        for i in 0..5_000u64 {
            let label = format!("call m{}.p{}", i % 3, i % 5);
            let (id, _) = r.mint_span(parent, &label, 7 * i);
            records.push((id.0, parent.0, 7 * i, label));
            parent = if i % 4 == 3 { SpanId::NONE } else { id };
        }
        assert_eq!(r.span_count(), 5_000);
        assert_eq!(r.span_hash(), hash_of(&records));
        assert!(r.dump_text().ends_with("spans 5000\n"));
    }

    #[test]
    fn span_hash_is_label_sensitive() {
        let r = Registry::new();
        r.mint_span(SpanId::NONE, "call", 1);
        let s = Registry::new();
        s.mint_span(SpanId::NONE, "cull", 1);
        assert_ne!(r.span_hash(), s.span_hash());
    }
}
