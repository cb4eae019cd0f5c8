//! Kernel daemons and IRQ activity.
//!
//! Beyond the tick, a busy Linux node runs kworkers, kswapd, RCU batch
//! work, the soft-lockup watchdog, and device IRQs. These are the noise
//! events that *survive* `isolcpus`: the boot parameter removes user tasks
//! from isolated cores but per-cpu kernel threads and interrupt handlers
//! still fire there — the mechanism behind the residual variation of the
//! paper's Linux+cgroup+isolcpus configuration (Fig. 5d, Fig. 7, Fig. 9).
//!
//! Arrivals are generated per fixed *epoch* from a stream indexed by the
//! epoch number, so window queries are deterministic. They are not
//! order-independent: an arrival outside the queried window skips its
//! cost draw, so the costs of the epoch's later arrivals depend on where
//! the window cut the epoch. A window split on epoch boundaries is the
//! union of its parts; a window split inside an epoch need not be.

use crate::tick::Interruption;
use simcore::{Cycles, StreamFamily, StreamRng};
use std::ops::Range;

/// Epoch length for arrival generation.
const EPOCH: Cycles = Cycles(28_000_000); // 10 ms at 2.8 GHz

/// The epochs that overlap `[from, to)`; empty when the window is.
pub(crate) fn epochs_in(from: Cycles, to: Cycles) -> Range<u64> {
    if to <= from {
        return 0..0;
    }
    from.raw() / EPOCH.raw()..(to.raw() - 1) / EPOCH.raw() + 1
}

/// `exp(-lambda)` for the mean arrival count `lambda` of one epoch: the
/// bound Knuth's Poisson draw stops at.
fn poisson_limit(rate_per_sec: f64, activity: f64) -> f64 {
    let lambda = rate_per_sec * activity * EPOCH.as_secs_f64();
    (-lambda).exp()
}

/// The part of one daemon epoch's draws that every window query shares:
/// the epoch's stream after its Poisson count draw, and the count. It
/// depends only on (daemon, epoch), so a caller may keep the last one
/// across queries as the memo it hands [`DaemonSource::arrivals`].
#[derive(Debug)]
pub(crate) struct EpochHead {
    epoch: u64,
    count: u64,
    rng: StreamRng,
}

/// A daemon/IRQ noise source on one core.
#[derive(Debug, Clone)]
pub struct DaemonSource {
    /// Human-readable name (kworker, kswapd, ...).
    pub name: &'static str,
    /// Mean arrivals per second (before the activity multiplier).
    rate_per_sec: f64,
    /// Minimum busy time per arrival.
    dur_floor: Cycles,
    /// Pareto tail scale for busy time.
    dur_cap: Cycles,
    /// Pareto tail index (lower = heavier tail).
    alpha: f64,
    /// [`poisson_limit`] of the rate and the workload-dependent activity
    /// multiplier (I/O heavy co-located work raises it).
    limit: f64,
    /// When set, arrivals only fire inside these windows (used to tie
    /// IRQ/flush pressure to the phases of a co-located job).
    windows: Option<Vec<(u64, u64)>>,
    /// Epoch `e`'s arrivals are drawn from `epochs.at(e)`.
    epochs: StreamFamily,
}

impl DaemonSource {
    fn new(
        name: &'static str,
        rate_per_sec: f64,
        dur_floor: Cycles,
        dur_cap: Cycles,
        alpha: f64,
        rng: StreamRng,
    ) -> Self {
        DaemonSource {
            name,
            rate_per_sec,
            dur_floor,
            dur_cap,
            alpha,
            limit: poisson_limit(rate_per_sec, 1.0),
            windows: None,
            epochs: rng.family(name),
        }
    }

    /// Per-cpu kworker: frequent, short.
    pub fn kworker(rng: StreamRng) -> Self {
        Self::new(
            "kworker",
            25.0,
            Cycles::from_us(3),
            Cycles::from_us(15),
            1.8,
            rng,
        )
    }

    /// kswapd / page reclaim: rare, long. Page reclaim barely runs on an
    /// idle node; co-located I/O raises it through the activity
    /// multiplier.
    pub fn kswapd(rng: StreamRng) -> Self {
        Self::new(
            "kswapd",
            0.004,
            Cycles::from_us(30),
            Cycles::from_us(100),
            1.4,
            rng,
        )
    }

    /// RCU softirq batches.
    pub fn rcu(rng: StreamRng) -> Self {
        Self::new(
            "rcu",
            8.0,
            Cycles::from_us(2),
            Cycles::from_us(12),
            2.0,
            rng,
        )
    }

    /// Soft-lockup watchdog: once a second, short.
    pub fn watchdog(rng: StreamRng) -> Self {
        Self::new(
            "watchdog",
            1.0,
            Cycles::from_us(6),
            Cycles::from_us(15),
            3.0,
            rng,
        )
    }

    /// Ethernet IRQ + softirq work; rate follows network activity.
    pub fn eth_irq(rng: StreamRng) -> Self {
        Self::new(
            "eth-irq",
            30.0,
            Cycles::from_us(2),
            Cycles::from_us(20),
            1.9,
            rng,
        )
    }

    /// Scale the arrival rate (e.g. x4 when Hadoop hammers disk/network).
    pub fn with_activity(mut self, multiplier: f64) -> Self {
        assert!(multiplier >= 0.0);
        self.limit = poisson_limit(self.rate_per_sec, multiplier);
        self
    }

    /// Gate arrivals to the given windows (phase-coupled noise).
    pub fn with_windows(mut self, windows: Vec<(Cycles, Cycles)>) -> Self {
        self.windows = Some(windows.into_iter().map(|(a, b)| (a.raw(), b.raw())).collect());
        self
    }

    fn in_windows(&self, at: Cycles) -> bool {
        match &self.windows {
            None => true,
            Some(ws) => ws.iter().any(|&(a, b)| a <= at.raw() && at.raw() < b),
        }
    }

    /// The head of `epoch`: its stream after the Poisson count draw, and
    /// the count. No window changes it.
    fn epoch_head(&self, epoch: u64) -> EpochHead {
        let mut rng = self.epochs.at(epoch);
        // Poisson arrival count (Knuth; lambda is small per epoch).
        let mut count = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.uniform();
            if p <= self.limit {
                break;
            }
            count += 1;
        }
        EpochHead { epoch, count, rng }
    }

    /// `memo` holding the head of `epoch`, drawn unless it already does.
    fn head<'m>(&self, memo: &'m mut Option<EpochHead>, epoch: u64) -> &'m EpochHead {
        if memo.as_ref().is_some_and(|h| h.epoch != epoch) {
            *memo = None;
        }
        memo.get_or_insert_with(|| self.epoch_head(epoch))
    }

    /// No window of `t`'s epoch that starts at or after `t` and ends by
    /// the instant returned keeps an arrival (see [`DaemonSource::arrivals`]).
    /// It is the first gated position at or after `t` of the epoch's
    /// arrivals drawn as if each were skipped, or the epoch's end.
    ///
    /// An arrival a window keeps follows only arrivals that window
    /// skipped, so it sits at that all-skipped position: the first one
    /// kept would have to land before the instant returned, and none
    /// does. The argument holds within one epoch only, so the bound
    /// stops at the epoch's end.
    pub(crate) fn quiet_until(&self, memo: &mut Option<EpochHead>, t: Cycles) -> Cycles {
        let epoch = t.raw() / EPOCH.raw();
        let head = self.head(memo, epoch);
        let mut r = head.rng.clone();
        let base = epoch * EPOCH.raw();
        let mut quiet = base + EPOCH.raw();
        for _ in 0..head.count {
            let at = base + r.range_u64(0, EPOCH.raw());
            if at >= t.raw() && at < quiet && self.in_windows(Cycles(at)) {
                quiet = at;
            }
        }
        Cycles(quiet)
    }

    /// Hand `f` each arrival of `epoch` that lands in `[from, to)` and
    /// inside the gating windows, in draw order. The source's one draw
    /// routine. `memo` holds the head of the epoch last asked about and
    /// is redrawn only for another epoch; the arrivals are drawn from a
    /// copy of its stream, so a head serves any number of windows. An
    /// arrival that is filtered out skips its cost draw, so what `f` sees
    /// of an epoch depends on both ends of the window whenever they fall
    /// inside it.
    pub(crate) fn arrivals(
        &self,
        memo: &mut Option<EpochHead>,
        epoch: u64,
        from: Cycles,
        to: Cycles,
        mut f: impl FnMut(Interruption),
    ) {
        let head = self.head(memo, epoch);
        let mut r = head.rng.clone();
        let base = head.epoch * EPOCH.raw();
        for _ in 0..head.count {
            let at = Cycles(base + r.range_u64(0, EPOCH.raw()));
            if at < from || at >= to || !self.in_windows(at) {
                continue;
            }
            let cost = Cycles(r.pareto(
                self.dur_floor.raw() as f64,
                self.alpha,
                self.dur_cap.raw() as f64,
            ) as u64);
            f(Interruption { at, cost });
        }
    }

    /// Arrivals (start, busy-time) in `[from, to)`, deterministic per epoch.
    pub fn interruptions_in(&self, from: Cycles, to: Cycles) -> Vec<Interruption> {
        let mut out = Vec::new();
        for epoch in epochs_in(from, to) {
            self.arrivals(&mut None, epoch, from, to, |i| out.push(i));
        }
        out.sort_by_key(|i| i.at);
        out
    }

    /// The full daemon complement of one *general* (non-isolated) core.
    pub fn standard_set(core_rng: &StreamRng) -> Vec<DaemonSource> {
        vec![
            DaemonSource::kworker(core_rng.stream("kworker", 0)),
            DaemonSource::rcu(core_rng.stream("rcu", 0)),
            DaemonSource::watchdog(core_rng.stream("watchdog", 0)),
            DaemonSource::kswapd(core_rng.stream("kswapd", 0)),
        ]
    }

    /// What still runs on an `isolcpus` core: per-cpu kernel threads and
    /// the watchdog; kswapd prefers non-isolated cores.
    pub fn isolcpus_set(core_rng: &StreamRng) -> Vec<DaemonSource> {
        vec![
            DaemonSource::kworker(core_rng.stream("kworker", 0)),
            DaemonSource::rcu(core_rng.stream("rcu", 0)).with_activity(0.5),
            DaemonSource::watchdog(core_rng.stream("watchdog", 0)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StreamRng {
        StreamRng::root(99).stream("core", 5)
    }

    #[test]
    fn rate_is_roughly_respected() {
        let d = DaemonSource::kworker(rng());
        let ints = d.interruptions_in(Cycles::ZERO, Cycles::from_secs(10));
        // 25/s * 10s = 250 expected (+5% fattening).
        assert!(
            (150..400).contains(&ints.len()),
            "kworker arrivals: {}",
            ints.len()
        );
    }

    #[test]
    fn activity_multiplier_scales_rate() {
        let quiet = DaemonSource::eth_irq(rng());
        let busy = DaemonSource::eth_irq(rng()).with_activity(8.0);
        let nq = quiet
            .interruptions_in(Cycles::ZERO, Cycles::from_secs(5))
            .len();
        let nb = busy
            .interruptions_in(Cycles::ZERO, Cycles::from_secs(5))
            .len();
        assert!(nb > nq * 4, "quiet={nq} busy={nb}");
    }

    #[test]
    fn window_split_equals_whole() {
        // Query [0,1s) in one call vs. ten 100ms calls: identical events.
        // Every cut lands on a 10 ms epoch boundary; a cut inside an
        // epoch need not compose (see the next test).
        let d = DaemonSource::rcu(rng());
        let whole = d.interruptions_in(Cycles::ZERO, Cycles::from_secs(1));
        let mut parts = Vec::new();
        for k in 0..10 {
            parts.extend(d.interruptions_in(Cycles::from_ms(k * 100), Cycles::from_ms((k + 1) * 100)));
        }
        assert_eq!(whole, parts);
    }

    #[test]
    fn some_mid_epoch_splits_differ_from_the_whole() {
        // An arrival outside the window skips its cost draw, so each half
        // of a cut epoch reads the cost stream from a different place
        // than the whole query does.
        let d = DaemonSource::kworker(rng()).with_activity(4.0);
        let (from, to) = (Cycles::ZERO, Cycles::from_secs(1));
        let whole = d.interruptions_in(from, to);
        let mut r = StreamRng::root(4);
        let splits = 400;
        let differ = (0..splits)
            .filter(|_| {
                let cut = Cycles(r.range_u64(1, to.raw()));
                let mut parts = d.interruptions_in(from, cut);
                parts.extend(d.interruptions_in(cut, to));
                parts != whole
            })
            .count();
        assert!(
            differ > 0 && differ < splits,
            "{differ} of {splits} splits differ"
        );
    }

    #[test]
    fn durations_bounded_and_heavy_tailed() {
        let d = DaemonSource::kswapd(rng()).with_activity(800.0);
        let ints = d.interruptions_in(Cycles::ZERO, Cycles::from_secs(200));
        assert!(!ints.is_empty());
        for i in &ints {
            assert!(i.cost >= Cycles::from_us(30));
            assert!(i.cost <= Cycles::from_us(100));
        }
        // Tail: some events at least 3x the floor.
        assert!(ints.iter().any(|i| i.cost > Cycles::from_us(90)));
    }

    #[test]
    fn sorted_by_time() {
        let d = DaemonSource::kworker(rng());
        let ints = d.interruptions_in(Cycles::from_ms(37), Cycles::from_secs(3));
        for w in ints.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // Bounds respected.
        assert!(ints.iter().all(|i| i.at >= Cycles::from_ms(37)));
        assert!(ints.iter().all(|i| i.at < Cycles::from_secs(3)));
    }

    #[test]
    fn isolcpus_set_is_quieter_than_standard() {
        let r = rng();
        let std_noise: u64 = DaemonSource::standard_set(&r)
            .iter()
            .flat_map(|d| d.interruptions_in(Cycles::ZERO, Cycles::from_secs(20)))
            .map(|i| i.cost.raw())
            .sum();
        let iso_noise: u64 = DaemonSource::isolcpus_set(&r)
            .iter()
            .flat_map(|d| d.interruptions_in(Cycles::ZERO, Cycles::from_secs(20)))
            .map(|i| i.cost.raw())
            .sum();
        assert!(iso_noise < std_noise, "iso={iso_noise} std={std_noise}");
        assert!(iso_noise > 0, "isolcpus is NOT noise-free (key paper point)");
    }
}
