//! Fixed Work Quantum (ASC Sequoia benchmark).
//!
//! "The FWQ benchmark measures hardware and software interference by
//! repetitively performing a fixed amount of work (the work quanta),
//! measuring the time necessary to complete the task" (Sec. IV-B1).
//! The paper measures multiple 30-second intervals and reports the
//! worst 480-sample window; [`worst_window`] implements that selection.

use simcore::Cycles;

/// Default work quantum: ~4k cycles, chosen so the paper's y-axis
/// (≤ 7e4 cycles, 16x slowdown spikes) reproduces.
pub const DEFAULT_QUANTUM: Cycles = Cycles(4_000);

/// Samples per reported window (the paper plots 480).
pub const WINDOW: usize = 480;

/// Run FWQ for a full measurement interval of `duration`, returning all
/// sample latencies (the number of samples depends on the noise hit).
///
/// `exec(start, work)` runs one quantum and returns `(finish, quiet)`:
/// every quantum that starts at or after `finish` and ends by `quiet`
/// takes exactly `work`. Those quanta are appended without calling
/// `exec`, so a run costs one call per interruption, not per quantum;
/// a closure that cannot promise a quiet stretch returns `finish`.
pub fn run_for(
    quantum: Cycles,
    duration: Cycles,
    start: Cycles,
    mut exec: impl FnMut(Cycles, Cycles) -> (Cycles, Cycles),
) -> Vec<u64> {
    assert!(quantum > Cycles::ZERO, "FWQ needs a non-zero quantum");
    let q = quantum.raw();
    let mut out = Vec::with_capacity(duration.raw().div_ceil(q) as usize);
    let mut t = start;
    let end = start + duration;
    while t < end {
        let (done, quiet) = exec(t, quantum);
        out.push((done - t).raw());
        t = done;
        // The whole quanta that end by `quiet`, of those that start
        // before `end`.
        let fits = quiet.saturating_sub(t).raw() / q;
        let skip = fits.min(end.saturating_sub(t).raw().div_ceil(q));
        out.resize(out.len() + skip as usize, q);
        t += quantum * skip;
    }
    out
}

/// The paper's reporting rule: "we measured multiple 30 seconds intervals
/// and report the values where OS noise was the most significant" —
/// select the contiguous `win`-sample window with the largest total
/// latency.
pub fn worst_window(samples: &[u64], win: usize) -> &[u64] {
    if samples.len() <= win {
        return samples;
    }
    let mut sum: u64 = samples[..win].iter().sum();
    let (mut best_sum, mut best_at) = (sum, 0usize);
    for i in win..samples.len() {
        sum = sum + samples[i] - samples[i - win];
        if sum > best_sum {
            best_sum = sum;
            best_at = i - win + 1;
        }
    }
    &samples[best_at..best_at + win]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_execution_is_flat() {
        let samples = run_for(
            DEFAULT_QUANTUM,
            DEFAULT_QUANTUM * 1000,
            Cycles(1),
            |t, w| (t + w, Cycles::MAX),
        );
        assert_eq!(samples.len(), 1000);
        assert!(samples.iter().all(|&s| s == DEFAULT_QUANTUM.raw()));
    }

    #[test]
    fn noise_shows_up_as_latency() {
        // Every 100th quantum is interrupted for 10k cycles: interruption
        // `k` lands 1,000 cycles into quantum `100k - 1`. The closure
        // promises quiet up to the next interruption, so `run_for` calls
        // it once for the first quantum and once per interruption.
        let q = DEFAULT_QUANTUM;
        let hits: Vec<Cycles> = (1..=10u64)
            .map(|k| Cycles(1) + q * (100 * k - 1) + Cycles(10_000) * (k - 1) + Cycles(1_000))
            .collect();
        let next_hit = |t: Cycles| {
            hits.iter()
                .copied()
                .find(|&i| i >= t)
                .unwrap_or(Cycles::MAX)
        };
        let mut calls = 0;
        let samples = run_for(q, q * 1000 + Cycles(10_000) * 10, Cycles(1), |t, w| {
            calls += 1;
            let done = if next_hit(t) < t + w {
                t + w + Cycles(10_000)
            } else {
                t + w
            };
            (done, next_hit(done))
        });
        assert_eq!(samples.len(), 1000);
        let spikes: Vec<usize> = (0..samples.len()).filter(|&i| samples[i] > 4_000).collect();
        assert_eq!(spikes, (1..=10).map(|k| 100 * k - 1).collect::<Vec<_>>());
        assert_eq!(*samples.iter().max().unwrap(), 14_000);
        assert_eq!(calls, 11);
    }

    #[test]
    fn run_for_covers_duration() {
        let samples = run_for(Cycles(1000), Cycles(100_000), Cycles::ZERO, |t, w| {
            (t + w, t + w)
        });
        assert_eq!(samples.len(), 100);
        // Quanta appended under a quiet bound past the end stop at the
        // last one that starts before the end.
        let samples = run_for(Cycles(1000), Cycles(100_500), Cycles::ZERO, |t, w| {
            (t + w, Cycles::MAX)
        });
        assert_eq!(samples.len(), 101);
    }

    #[test]
    #[should_panic(expected = "non-zero quantum")]
    fn zero_quantum_is_refused() {
        run_for(Cycles::ZERO, Cycles(100), Cycles::ZERO, |t, w| {
            (t + w, t + w)
        });
    }

    #[test]
    fn worst_window_finds_the_noisy_region() {
        let mut samples = vec![4_000u64; 10_000];
        for s in &mut samples[7_000..7_480] {
            *s = 60_000;
        }
        let w = worst_window(&samples, WINDOW);
        assert_eq!(w.len(), WINDOW);
        assert!(w.iter().all(|&s| s == 60_000));
    }

    #[test]
    fn worst_window_of_short_input_is_input() {
        let samples = vec![1u64, 2, 3];
        assert_eq!(worst_window(&samples, WINDOW), &samples[..]);
    }
}
