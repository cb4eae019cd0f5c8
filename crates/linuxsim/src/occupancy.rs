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

/// From `at` up to the next step's `at`, `tasks` competitors run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Step {
    at: u64,
    tasks: u32,
}

/// Per-core competing-load timeline.
#[derive(Debug, Default)]
pub struct CoreOccupancy {
    /// Loads registered so far; [`CoreOccupancy::seal`] folds them into
    /// `steps`.
    loads: BTreeMap<CoreId, Vec<Load>>,
    /// Each core's competitor count as steps sorted by `at`, one at
    /// every distinct load start and end; before the first, none.
    steps: BTreeMap<CoreId, Vec<Step>>,
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

    /// Fold each core's loads into sorted steps and freeze the timeline
    /// for querying. A step stays at every distinct start and end even
    /// where the count does not change: `segment_at` ends a segment
    /// there, and `execute`'s contention walk rounds once per segment.
    pub fn seal(&mut self) {
        for (&core, loads) in &self.loads {
            let mut edges: Vec<(u64, i64)> = loads
                .iter()
                .flat_map(|l| [(l.start, i64::from(l.tasks)), (l.end, -i64::from(l.tasks))])
                .collect();
            edges.sort_unstable_by_key(|&(at, _)| at);
            let mut steps: Vec<Step> = Vec::new();
            let mut tasks = 0i64;
            for (at, delta) in edges {
                tasks += delta;
                let n = u32::try_from(tasks).expect("competitor count fits u32");
                match steps.last_mut() {
                    Some(s) if s.at == at => s.tasks = n,
                    _ => steps.push(Step { at, tasks: n }),
                }
            }
            self.steps.insert(core, steps);
        }
        self.loads.clear();
        self.sealed = true;
    }

    /// The competitor count on `core` at `t`, and where the next step
    /// after `t` starts (`u64::MAX` when none does).
    fn step_at(&self, core: CoreId, t: Cycles) -> (u32, u64) {
        debug_assert!(self.loads.is_empty(), "occupancy queried before sealing");
        let steps = self.steps.get(&core).map_or(&[][..], Vec::as_slice);
        let n = steps.partition_point(|s| s.at <= t.raw());
        let tasks = n.checked_sub(1).map_or(0, |i| steps[i].tasks);
        (tasks, steps.get(n).map_or(u64::MAX, |s| s.at))
    }

    /// Competing task count on `core` at instant `t`.
    pub fn competitors_at(&self, core: CoreId, t: Cycles) -> u32 {
        self.step_at(core, t).0
    }

    /// The uniform segment starting at `t`: how many competitors, and until
    /// when that count holds (capped at `horizon`).
    pub fn segment_at(&self, core: CoreId, t: Cycles, horizon: Cycles) -> Segment {
        let (competitors, next_change) = self.step_at(core, t);
        Segment {
            start: t,
            end: Cycles(next_change.min(horizon.raw()).max(t.raw())),
            competitors,
        }
    }

    /// Whether any load was registered on `core`.
    pub fn has_load(&self, core: CoreId) -> bool {
        self.steps.contains_key(&core) || self.loads.contains_key(&core)
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
    fn steps_match_the_load_scan() {
        // The reference: scan every load on each query, as the timeline
        // did before it folded loads into steps.
        fn scan(loads: &[(u64, u64, u32)], t: u64, horizon: u64) -> Segment {
            let competitors = loads
                .iter()
                .filter(|l| l.0 <= t && t < l.1)
                .map(|l| l.2)
                .sum();
            let next_change = loads
                .iter()
                .flat_map(|l| [l.0, l.1])
                .filter(|&b| b > t)
                .fold(horizon, u64::min);
            Segment {
                start: Cycles(t),
                end: Cycles(next_change.max(t)),
                competitors,
            }
        }
        let mut r = simcore::StreamRng::root(0x0cc);
        let mut probes = 0;
        for case in 0..300 {
            // Boundaries on a coarse grid, so loads touch, nest and share
            // starts and ends.
            let grid = if case % 2 == 0 { 8 } else { 40 };
            let loads: Vec<(u64, u64, u32)> = (0..r.range_u64(0, 12))
                .map(|_| {
                    let a = r.range_u64(0, grid) * 100;
                    let b = a + r.range_u64(1, 6) * 100;
                    (a, b, r.range_u64(1, 5) as u32)
                })
                .collect();
            let mut o = CoreOccupancy::new();
            for &(a, b, n) in &loads {
                o.add_load(c(0), Cycles(a), Cycles(b), n);
            }
            o.seal();
            assert_eq!(o.has_load(c(0)), !loads.is_empty());
            let horizon = r.range_u64(0, (grid + 8) * 100);
            let mut ts: Vec<u64> = loads
                .iter()
                .flat_map(|l| [l.0, l.1])
                .flat_map(|b| [b.saturating_sub(1), b, b + 1])
                .collect();
            ts.extend((0..20).map(|_| r.range_u64(0, (grid + 8) * 100)));
            for t in ts {
                let want = scan(&loads, t, horizon);
                assert_eq!(o.competitors_at(c(0), Cycles(t)), want.competitors);
                assert_eq!(
                    o.segment_at(c(0), Cycles(t), Cycles(horizon)),
                    want,
                    "loads {loads:?} t {t} horizon {horizon}"
                );
                probes += 1;
            }
        }
        assert!(probes > 5_000, "{probes} probes");
    }

    #[test]
    #[should_panic(expected = "after sealing")]
    fn mutation_after_seal_panics() {
        let mut o = CoreOccupancy::new();
        o.seal();
        o.add_load(c(0), Cycles(0), Cycles(1), 1);
    }
}
