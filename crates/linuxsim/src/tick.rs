//! The scheduler tick.
//!
//! RHEL 6 kernels interrupt every busy core CONFIG_HZ times a second to run
//! scheduler accounting, timers, and RCU. Each interruption steals a few
//! microseconds from whatever was running — exactly the per-millisecond
//! noise floor visible in the paper's Fig. 5a for *idle* Linux. Idle cores
//! are skipped (NO_HZ), and McKernel cores never tick at all — McKernel is
//! tick-less by construction, so it simply has no [`TickSource`].

use simcore::{Cycles, StreamFamily, StreamRng};
use std::ops::Range;

/// The tick period: CONFIG_HZ=1000.
const PERIOD: Cycles = Cycles::from_ms(1);
/// Every tick's fixed cost.
const BASE_COST: Cycles = Cycles::from_us(2);
/// The most a tick's uniform jitter adds to its cost.
const JITTER_COST: Cycles = Cycles::from_us(3);
/// 1-in-N ticks run extended work (RCU callbacks, timer cascades).
const HEAVY_ONE_IN: u64 = 64;
/// The most that extended work adds; it adds at least 30% of this.
const HEAVY_EXTRA: Cycles = Cycles::from_us(14);

/// Deterministic per-core tick event source, with era-typical costs.
///
/// Tick instants are the fixed grid `k * PERIOD`; the *cost* of tick `k`
/// is drawn from a stream indexed by `k`, so queries are reproducible and
/// order-independent across windows: a window's ticks are the union of
/// its parts' at any split.
#[derive(Debug, Clone)]
pub struct TickSource {
    /// Tick `k`'s cost is drawn from `costs.at(k)`.
    costs: StreamFamily,
}

/// One interruption: starts at `at`, steals `cost` from the running task.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interruption {
    /// Start instant.
    pub at: Cycles,
    /// Stolen time.
    pub cost: Cycles,
}

impl TickSource {
    /// CONFIG_HZ=1000 tick. `rng` must be the per-core stream so cores
    /// don't correlate.
    pub fn hz1000(rng: StreamRng) -> Self {
        TickSource {
            costs: rng.family("tick-cost"),
        }
    }

    /// The indices of the ticks in `[from, to)`; empty when the window is.
    pub(crate) fn ticks_in(&self, from: Cycles, to: Cycles) -> Range<u64> {
        if to <= from {
            return 0..0;
        }
        let p = PERIOD.raw();
        from.raw().div_ceil(p)..(to.raw() - 1) / p + 1
    }

    /// The first tick instant at or after `t`.
    pub(crate) fn next_at(&self, t: Cycles) -> Cycles {
        PERIOD * t.raw().div_ceil(PERIOD.raw())
    }

    /// Tick number `k`, its cost deterministic in `k`. The source's one
    /// draw routine.
    pub(crate) fn tick(&self, k: u64) -> Interruption {
        let mut r = self.costs.at(k);
        let mut cost = BASE_COST + JITTER_COST.scale(r.uniform());
        if r.range_u64(0, HEAVY_ONE_IN) == 0 {
            cost += HEAVY_EXTRA.scale(0.3 + 0.7 * r.uniform());
        }
        Interruption {
            at: PERIOD * k,
            cost,
        }
    }

    /// All tick interruptions in `[from, to)`. The core is busy throughout
    /// (the caller only asks about windows where the app occupies the core;
    /// NO_HZ means idle windows generate nothing).
    pub fn interruptions_in(&self, from: Cycles, to: Cycles) -> Vec<Interruption> {
        self.ticks_in(from, to).map(|k| self.tick(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src() -> TickSource {
        TickSource::hz1000(StreamRng::root(7).stream("core", 3))
    }

    #[test]
    fn ticks_land_on_the_millisecond_grid() {
        let s = src();
        let ints = s.interruptions_in(Cycles::ZERO, Cycles::from_ms(5));
        assert_eq!(ints.len(), 5); // k = 0..=4
        for (i, int) in ints.iter().enumerate() {
            assert_eq!(int.at.raw() % Cycles::from_ms(1).raw(), 0, "tick {i}");
        }
    }

    #[test]
    fn window_boundaries_are_half_open() {
        let s = src();
        let a = s.interruptions_in(Cycles::from_ms(1), Cycles::from_ms(2));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].at, Cycles::from_ms(1));
        // to == tick instant: excluded.
        let b = s.interruptions_in(Cycles::from_us(100), Cycles::from_ms(1));
        assert!(b.is_empty());
    }

    #[test]
    fn costs_are_deterministic_and_plausible() {
        let s1 = src();
        let s2 = src();
        let a = s1.interruptions_in(Cycles::ZERO, Cycles::from_ms(100));
        let b = s2.interruptions_in(Cycles::ZERO, Cycles::from_ms(100));
        assert_eq!(a, b, "same stream, same costs");
        for i in &a {
            assert!(i.cost >= Cycles::from_us(2));
            assert!(i.cost <= Cycles::from_us(25));
        }
        // Some cost variance must exist.
        assert!(a.iter().any(|i| i.cost != a[0].cost));
    }

    #[test]
    fn heavy_ticks_occur_at_expected_rate() {
        let s = src();
        let ints = s.interruptions_in(Cycles::ZERO, Cycles::from_secs(2));
        let heavy = ints
            .iter()
            .filter(|i| i.cost > Cycles::from_us(6))
            .count();
        // ~1/64 of 2000 ticks ≈ 31; allow wide slack.
        assert!((10..80).contains(&heavy), "heavy ticks: {heavy}");
    }

    #[test]
    fn different_cores_decorrelate() {
        let root = StreamRng::root(7);
        let a = TickSource::hz1000(root.stream("core", 0));
        let b = TickSource::hz1000(root.stream("core", 1));
        let ia = a.interruptions_in(Cycles::ZERO, Cycles::from_ms(50));
        let ib = b.interruptions_in(Cycles::ZERO, Cycles::from_ms(50));
        assert_ne!(
            ia.iter().map(|i| i.cost).collect::<Vec<_>>(),
            ib.iter().map(|i| i.cost).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_window_is_empty() {
        let s = src();
        assert!(s.interruptions_in(Cycles::from_ms(3), Cycles::from_ms(3)).is_empty());
    }
}
