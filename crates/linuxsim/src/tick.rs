//! The scheduler tick.
//!
//! RHEL 6 kernels interrupt every busy core CONFIG_HZ times a second to run
//! scheduler accounting, timers, and RCU. Each interruption steals a few
//! microseconds from whatever was running — exactly the per-millisecond
//! noise floor visible in the paper's Fig. 5a for *idle* Linux. Idle cores
//! are skipped (NO_HZ), and McKernel cores never tick at all — McKernel is
//! tick-less by construction, so it simply has no [`TickSource`].

use crate::epoch::{self, EpochSource, EPOCH};
use simcore::{Cycles, StreamFamily, StreamRng};

/// The tick period: CONFIG_HZ=1000.
const PERIOD: Cycles = Cycles::from_ms(1);
/// Ticks per noise epoch.
const TICKS_PER_EPOCH: u64 = EPOCH.0 / PERIOD.0;
/// Every tick's fixed cost.
const BASE_COST: Cycles = Cycles::from_us(2);
/// A tick's uniform jitter adds less than this to its cost.
const JITTER_COST: Cycles = Cycles::from_us(3);
/// 1-in-N ticks run extended work (RCU callbacks, timer cascades). A
/// power of two: a draw's low bits decide.
const HEAVY_ONE_IN: u64 = 64;
/// Extended work adds at least this, 30% of its most (14 us)...
const HEAVY_MIN: Cycles = Cycles::from_ns(4_200);
/// ... and less than this on top.
const HEAVY_SPAN: Cycles = Cycles::from_ns(9_800);

/// Deterministic per-core tick event source, with era-typical costs.
///
/// Tick instants are the fixed grid `k * PERIOD`. The costs of an
/// epoch's ten ticks are drawn in order from one stream indexed by the
/// epoch, so a window's ticks are the union of its parts' at any split.
#[derive(Debug, Clone)]
pub struct TickSource {
    /// Epoch `e`'s tick costs are drawn from `costs.at(e)`.
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

/// A uniform integer in `[0, span)` from the high 32 bits of `x`.
fn below(span: Cycles, x: u64) -> u64 {
    (span.raw() * (x >> 32)) >> 32
}

impl TickSource {
    /// CONFIG_HZ=1000 tick. `rng` must be the per-core stream so cores
    /// don't correlate.
    pub fn hz1000(rng: StreamRng) -> Self {
        TickSource {
            costs: rng.family("tick-cost"),
        }
    }

    /// The first tick instant at or after `t`.
    pub(crate) fn next_at(&self, t: Cycles) -> Cycles {
        PERIOD * t.raw().div_ceil(PERIOD.raw())
    }

    /// All tick interruptions in `[from, to)`. The core is busy throughout
    /// (the caller only asks about windows where the app occupies the core;
    /// NO_HZ means idle windows generate nothing).
    pub fn interruptions_in(&self, from: Cycles, to: Cycles) -> Vec<Interruption> {
        epoch::interruptions_in(self, from, to)
    }
}

impl EpochSource for TickSource {
    /// The epoch's ten ticks, one 64-bit output each: the jitter comes
    /// from its high 32 bits, the heavy test from its low bits, and a
    /// heavy tick's extra cost from the next output.
    fn draw(&self, epoch: u64, out: &mut Vec<Interruption>) {
        let mut r = self.costs.at(epoch);
        let first = epoch * TICKS_PER_EPOCH;
        out.clear();
        out.extend((first..first + TICKS_PER_EPOCH).map(|k| {
            let x = r.next_u64();
            let mut cost = BASE_COST.raw() + below(JITTER_COST, x);
            if x % HEAVY_ONE_IN == 0 {
                cost += HEAVY_MIN.raw() + below(HEAVY_SPAN, r.next_u64());
            }
            Interruption {
                at: PERIOD * k,
                cost: Cycles(cost),
            }
        }));
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
            // 2-5 us, plus 4.2-14 us on a heavy tick.
            let light = Cycles::from_us(2) <= i.cost && i.cost < Cycles::from_us(5);
            let heavy = Cycles::from_ns(6_200) <= i.cost && i.cost < Cycles::from_us(19);
            assert!(light || heavy, "{:?}", i.cost);
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
