//! Who else is runnable on each core over time.
//!
//! The in-situ workload generator (Hadoop model) registers its tasks' busy
//! intervals here; the runtime then stretches application quanta by the
//! CFS fair share wherever intervals overlap. On a cgroup-only
//! configuration Hadoop tasks may land on the *application's* cores; with
//! `isolcpus` they cannot (only kernel noise remains); on McKernel the
//! LWK cores are simply invisible to Linux so nothing ever lands there.

use hwmodel::cpu::CoreId;
use simcore::Cycles;
use std::collections::BTreeMap;

/// A half-open busy interval of competing tasks on a core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Load {
    start: u64,
    end: u64,
    tasks: u32,
}

/// Per-core competing-load timeline.
#[derive(Debug, Default)]
pub struct CoreOccupancy {
    loads: BTreeMap<CoreId, Vec<Load>>,
    sealed: bool,
}

/// One uniform segment: `[start, end)` with a constant competitor count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Segment {
    /// Segment start.
    pub start: Cycles,
    /// Segment end.
    pub end: Cycles,
    /// Competing runnable tasks during the segment.
    pub competitors: u32,
}

impl CoreOccupancy {
    /// Empty timeline.
    pub fn new() -> Self {
        CoreOccupancy::default()
    }

    /// Register `tasks` competing runnable tasks on `core` over
    /// `[start, end)`. Must happen before queries (the generator runs at
    /// experiment setup).
    pub fn add_load(&mut self, core: CoreId, start: Cycles, end: Cycles, tasks: u32) {
        assert!(!self.sealed, "occupancy modified after sealing");
        assert!(end > start && tasks > 0);
        self.loads.entry(core).or_default().push(Load {
            start: start.raw(),
            end: end.raw(),
            tasks,
        });
    }

    /// Sort interval lists and freeze the timeline for querying.
    pub fn seal(&mut self) {
        for v in self.loads.values_mut() {
            v.sort_by_key(|l| l.start);
        }
        self.sealed = true;
    }

    /// Competing task count on `core` at instant `t`.
    pub fn competitors_at(&self, core: CoreId, t: Cycles) -> u32 {
        let Some(loads) = self.loads.get(&core) else {
            return 0;
        };
        loads
            .iter()
            .filter(|l| l.start <= t.raw() && t.raw() < l.end)
            .map(|l| l.tasks)
            .sum()
    }

    /// The uniform segment starting at `t`: how many competitors, and until
    /// when that count holds (capped at `horizon`).
    pub fn segment_at(&self, core: CoreId, t: Cycles, horizon: Cycles) -> Segment {
        let competitors = self.competitors_at(core, t);
        let mut next_change = horizon.raw();
        if let Some(loads) = self.loads.get(&core) {
            for l in loads {
                if l.start > t.raw() {
                    next_change = next_change.min(l.start);
                }
                if l.end > t.raw() {
                    next_change = next_change.min(l.end);
                }
            }
        }
        Segment {
            start: t,
            end: Cycles(next_change.max(t.raw())),
            competitors,
        }
    }

    /// Whether any load was registered on `core`.
    pub fn has_load(&self, core: CoreId) -> bool {
        self.loads.get(&core).is_some_and(|v| !v.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: u16) -> CoreId {
        CoreId(n)
    }

    #[test]
    fn empty_core_has_no_competitors() {
        let mut o = CoreOccupancy::new();
        o.seal();
        assert_eq!(o.competitors_at(c(3), Cycles(100)), 0);
        let seg = o.segment_at(c(3), Cycles(100), Cycles(10_000));
        assert_eq!(seg.competitors, 0);
        assert_eq!(seg.end, Cycles(10_000));
    }

    #[test]
    fn overlapping_intervals_sum() {
        let mut o = CoreOccupancy::new();
        o.add_load(c(0), Cycles(100), Cycles(200), 2);
        o.add_load(c(0), Cycles(150), Cycles(300), 3);
        o.seal();
        assert_eq!(o.competitors_at(c(0), Cycles(120)), 2);
        assert_eq!(o.competitors_at(c(0), Cycles(160)), 5);
        assert_eq!(o.competitors_at(c(0), Cycles(250)), 3);
        assert_eq!(o.competitors_at(c(0), Cycles(300)), 0, "half-open");
    }

    #[test]
    fn segment_ends_at_next_boundary() {
        let mut o = CoreOccupancy::new();
        o.add_load(c(0), Cycles(100), Cycles(200), 1);
        o.seal();
        let seg = o.segment_at(c(0), Cycles(0), Cycles(1_000));
        assert_eq!(seg, Segment { start: Cycles(0), end: Cycles(100), competitors: 0 });
        let seg = o.segment_at(c(0), Cycles(100), Cycles(1_000));
        assert_eq!(seg.end, Cycles(200));
        assert_eq!(seg.competitors, 1);
        let seg = o.segment_at(c(0), Cycles(200), Cycles(1_000));
        assert_eq!(seg.competitors, 0);
        assert_eq!(seg.end, Cycles(1_000));
    }

    #[test]
    fn cores_are_independent() {
        let mut o = CoreOccupancy::new();
        o.add_load(c(1), Cycles(0), Cycles(100), 4);
        o.seal();
        assert_eq!(o.competitors_at(c(1), Cycles(50)), 4);
        assert_eq!(o.competitors_at(c(2), Cycles(50)), 0);
        assert!(o.has_load(c(1)));
        assert!(!o.has_load(c(2)));
    }

    #[test]
    #[should_panic(expected = "after sealing")]
    fn mutation_after_seal_panics() {
        let mut o = CoreOccupancy::new();
        o.seal();
        o.add_load(c(0), Cycles(0), Cycles(1), 1);
    }
}
