//! Lightweight counters and an optional event trace.
//!
//! Counters are always on (each bump is a `BTreeMap` lookup by name,
//! kept in name order for reporting); the string trace costs
//! allocations and is disabled by default.
//! Experiments use counters to report things like "ticks delivered on LWK
//! cores: 0" — the kind of mechanism-level evidence the paper argues from.

use crate::time::Cycles;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counter + optional trace sink.
#[derive(Debug, Default)]
pub struct Trace {
    counters: BTreeMap<&'static str, u64>,
    events: Vec<(Cycles, String)>,
    record_events: bool,
    max_events: usize,
}

impl Trace {
    /// Counters only; string trace disabled.
    pub fn new() -> Self {
        Trace {
            counters: BTreeMap::new(),
            events: Vec::new(),
            record_events: false,
            max_events: 100_000,
        }
    }

    /// Enable the string trace (bounded at `max_events` entries).
    pub fn with_events(max_events: usize) -> Self {
        Trace {
            counters: BTreeMap::new(),
            events: Vec::new(),
            record_events: true,
            max_events,
        }
    }

    /// Bump counter `name` by 1.
    #[inline]
    pub fn bump(&mut self, name: &'static str) {
        *self.counters.entry(name).or_insert(0) += 1;
    }

    /// Add `delta` to counter `name`.
    #[inline]
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Current value of counter `name` (0 if never bumped).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Record a trace line (no-op unless enabled; truncated at the cap).
    pub fn log(&mut self, at: Cycles, f: impl FnOnce() -> String) {
        if self.record_events && self.events.len() < self.max_events {
            self.events.push((at, f()));
        }
    }

    /// Recorded trace lines.
    pub fn events(&self) -> &[(Cycles, String)] {
        &self.events
    }

    /// Render counters as an aligned report block.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
        for (k, v) in &self.counters {
            let _ = writeln!(out, "  {k:width$}  {v}");
        }
        out
    }

    /// Merge counters from another trace (parallel run reduction).
    pub fn merge_counters(&mut self, other: &Trace) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut t = Trace::new();
        t.bump("ticks");
        t.bump("ticks");
        t.add("bytes", 100);
        assert_eq!(t.get("ticks"), 2);
        assert_eq!(t.get("bytes"), 100);
        assert_eq!(t.get("missing"), 0);
    }

    #[test]
    fn events_disabled_by_default() {
        let mut t = Trace::new();
        t.log(Cycles(5), || "hello".into());
        assert!(t.events().is_empty());
    }

    #[test]
    fn events_bounded() {
        let mut t = Trace::with_events(2);
        for i in 0..5 {
            t.log(Cycles(i), || format!("e{i}"));
        }
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn merge_sums() {
        let mut a = Trace::new();
        a.bump("x");
        let mut b = Trace::new();
        b.add("x", 4);
        b.bump("y");
        a.merge_counters(&b);
        assert_eq!(a.get("x"), 5);
        assert_eq!(a.get("y"), 1);
    }

    #[test]
    fn report_lists_sorted() {
        let mut t = Trace::new();
        t.bump("beta");
        t.bump("alpha");
        let r = t.report();
        let a = r.find("alpha").unwrap();
        let b = r.find("beta").unwrap();
        assert!(a < b);
    }
}
