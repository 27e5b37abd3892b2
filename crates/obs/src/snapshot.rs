//! A registry as plain data: what a finished run carries off its thread,
//! and the one place a registry is rendered.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry::HistogramSnapshot;

/// One metric's value in a [`Snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reading {
    /// A counter's or a gauge's value.
    Count(u64),
    /// A histogram's aggregate.
    Histogram(HistogramSnapshot),
}

impl Reading {
    /// The count, or a histogram's sum.
    pub fn value(&self) -> u64 {
        match *self {
            Reading::Count(v) => v,
            Reading::Histogram(h) => h.sum,
        }
    }
}

/// Every metric of a registry at one instant, by key (sorted), and its
/// span totals. Plain data, so `Send`: a chaos run's report carries one
/// across threads. [`Registry::dump_text`](crate::Registry::dump_text) and
/// [`Registry::dump_json`](crate::Registry::dump_json) render through it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Each metric's reading, by key.
    pub metrics: BTreeMap<String, Reading>,
    /// Spans minted.
    pub spans: u64,
    /// FNV-1a over every span minted ([`Registry::span_hash`](crate::Registry::span_hash)).
    pub span_hash: u64,
}

impl Snapshot {
    /// The reading of `key` as [`Reading::value`] gives it; 0 if absent
    /// (a key registered at its first event reads 0 before it).
    pub fn get(&self, key: &str) -> u64 {
        self.metrics.get(key).map_or(0, Reading::value)
    }

    /// Sum over every key that starts with `prefix` and ends with `suffix`.
    pub fn sum(&self, prefix: &str, suffix: &str) -> u64 {
        let matching = |k: &String| k.starts_with(prefix) && k.ends_with(suffix);
        let each = self.metrics.iter().filter(|(k, _)| matching(k));
        each.map(|(_, r)| r.value()).sum()
    }

    /// One `key value` line per metric, keys sorted, then `spans N`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, r) in &self.metrics {
            let _ = match r {
                Reading::Count(v) => writeln!(out, "{k} {v}"),
                Reading::Histogram(h) => writeln!(
                    out,
                    "{k} count={} sum={} min={} max={}",
                    h.count, h.sum, h.min, h.max
                ),
            };
        }
        let _ = writeln!(out, "spans {}", self.spans);
        out
    }

    /// `{"metrics":{...},"spans":{"count":N,"hash":H}}`, keys sorted.
    /// Hand-rolled (the workspace carries no serde); a key is written as
    /// Rust quotes a string, which is JSON for the printable ASCII keys
    /// are made of.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":{");
        for (i, (k, r)) in self.metrics.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = match r {
                Reading::Count(v) => write!(out, "{comma}{k:?}:{v}"),
                Reading::Histogram(h) => write!(
                    out,
                    "{comma}{k:?}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
                    h.count, h.sum, h.min, h.max
                ),
            };
        }
        let _ = write!(
            out,
            "}},\"spans\":{{\"count\":{},\"hash\":{}}}}}",
            self.spans, self.span_hash
        );
        out
    }
}
