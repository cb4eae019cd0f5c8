//! Repetition seeds.
//!
//! The paper runs every measurement 15 times and reports average plus
//! variation. Repetitions are independent simulations with derived seeds,
//! executed on the bounded task pool ([`simcore::par`] — each
//! repetition owns its whole cluster, so there is no shared mutable
//! state and the runs are embarrassingly parallel). Figure binaries
//! flatten their *entire* task grid (collective × OS × run, …) into one
//! pool submission via [`simcore::par::parallel_map`] and summarize each
//! cell's runs with [`simcore::Summary::from_samples`].

/// Derive a per-run seed from a base seed (keeps runs decorrelated while
/// reproducible).
pub fn run_seed(base: u64, run: usize) -> u64 {
    base ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(run as u64 + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_seeds_distinct() {
        let seeds: simcore::FastSet<u64> = (0..100).map(|i| run_seed(42, i)).collect();
        assert_eq!(seeds.len(), 100);
        assert_eq!(run_seed(42, 5), run_seed(42, 5));
    }
}
