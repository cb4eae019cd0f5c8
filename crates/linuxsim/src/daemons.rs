//! Kernel daemons and IRQ activity.
//!
//! Beyond the tick, a busy Linux node runs kworkers, kswapd, RCU batch
//! work, the soft-lockup watchdog, and device IRQs. These are the noise
//! events that *survive* `isolcpus`: the boot parameter removes user tasks
//! from isolated cores but per-cpu kernel threads and interrupt handlers
//! still fire there — the mechanism behind the residual variation of the
//! paper's Linux+cgroup+isolcpus configuration (Fig. 5d, Fig. 7, Fig. 9).
//!
//! Each source draws every 10 ms epoch whole, from one stream indexed by
//! the epoch: its arrival count, then each arrival's instant and cost.
//! Gating windows filter the drawn arrivals afterwards, so a window
//! query is the union of its parts at any split (see [`crate::epoch`]).

use crate::epoch::{self, EpochSource, EPOCH};
use crate::tick::Interruption;
use simcore::{Cycles, StreamFamily, StreamRng};

/// `exp(-lambda)` for the mean arrival count `lambda` of one epoch: the
/// bound Knuth's Poisson draw stops at.
fn poisson_limit(rate_per_sec: f64, activity: f64) -> f64 {
    let lambda = rate_per_sec * activity * EPOCH.as_secs_f64();
    (-lambda).exp()
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

    /// Whether a window overlaps `[from, to)`; an ungated source admits
    /// every arrival.
    fn admits(&self, from: u64, to: u64) -> bool {
        self.windows
            .as_ref()
            .is_none_or(|ws| ws.iter().any(|&(a, b)| a < to && from < b))
    }

    /// Arrivals (start, busy-time) in `[from, to)`, in time order.
    pub fn interruptions_in(&self, from: Cycles, to: Cycles) -> Vec<Interruption> {
        epoch::interruptions_in(self, from, to)
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

impl EpochSource for DaemonSource {
    /// The epoch's Poisson count, then each arrival's instant and cost;
    /// the arrivals outside the gating windows are dropped only after
    /// all are drawn. A gated epoch that overlaps no window keeps no
    /// arrival, and no other epoch reads its stream, so it is not drawn.
    fn draw(&self, epoch: u64, out: &mut Vec<Interruption>) {
        out.clear();
        let base = epoch * EPOCH.raw();
        if !self.admits(base, base + EPOCH.raw()) {
            return;
        }
        let mut r = self.epochs.at(epoch);
        // Poisson arrival count (Knuth; lambda is small per epoch).
        let mut count = 0u64;
        let mut p = 1.0;
        loop {
            p *= r.uniform();
            if p <= self.limit {
                break;
            }
            count += 1;
        }
        for _ in 0..count {
            let at = Cycles(base + r.range_u64(0, EPOCH.raw()));
            let cost = Cycles(r.pareto(
                self.dur_floor.raw() as f64,
                self.alpha,
                self.dur_cap.raw() as f64,
            ) as u64);
            if self.admits(at.raw(), at.raw() + 1) {
                out.push(Interruption { at, cost });
            }
        }
        out.sort_unstable_by_key(|i| i.at);
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
        // (`runtime::tests::any_split_composes` cuts inside epochs too.)
        let d = DaemonSource::rcu(rng());
        let whole = d.interruptions_in(Cycles::ZERO, Cycles::from_secs(1));
        let mut parts = Vec::new();
        for k in 0..10 {
            parts.extend(d.interruptions_in(Cycles::from_ms(k * 100), Cycles::from_ms((k + 1) * 100)));
        }
        assert_eq!(whole, parts);
    }

    #[test]
    fn gating_keeps_the_arrivals_inside_any_window() {
        // Overlapping, touching, empty and unordered windows: a gated
        // source keeps exactly the ungated source's arrivals that some
        // window holds.
        let ms = Cycles::from_ms;
        let windows = vec![
            (ms(33), ms(47)),
            (ms(0), ms(5)),
            (ms(3), ms(8)),
            (ms(8), ms(9)),
            (ms(20), ms(20)),
            (ms(40), ms(41)),
            (ms(72), ms(90)),
        ];
        let ungated = DaemonSource::kworker(rng()).with_activity(200.0);
        let gated = ungated.clone().with_windows(windows.clone());
        let (from, to) = (Cycles::ZERO, ms(100));
        let want: Vec<Interruption> = ungated
            .interruptions_in(from, to)
            .into_iter()
            .filter(|i| windows.iter().any(|&(a, b)| a <= i.at && i.at < b))
            .collect();
        assert!(want.len() > 100, "{} arrivals kept", want.len());
        assert_eq!(gated.interruptions_in(from, to), want);
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
