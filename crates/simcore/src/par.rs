//! Bounded, deterministic task pool for host-side parallelism.
//!
//! Every figure of the evaluation is a grid of independent simulation
//! cells (collective × OS variant × message size × node count × run),
//! each fully determined by its own derived seed. This module runs such a
//! grid across host cores while keeping the *result* bit-identical to a
//! serial execution:
//!
//! * the pool is **bounded** — at most [`pool_size`] worker threads
//!   (defaults to `std::thread::available_parallelism`, overridable with
//!   the `HLWK_THREADS` environment variable), never one thread per task;
//! * work is **claimed from one shared counter**: every worker
//!   `fetch_add`s the next unclaimed index, so load imbalance (cells vary
//!   in cost by orders of magnitude) cannot idle a core while work is
//!   left;
//! * results are collected **by task index**, not by completion order —
//!   the deterministic-reduction rule. Whatever the interleaving, task
//!   `i`'s output lands in slot `i`, so `HLWK_THREADS=1` and
//!   `HLWK_THREADS=N` produce identical output for pure `f`.
//!
//! The closure must be a pure function of its index (derive any
//! randomness from the index via [`crate::rng::StreamRng`]); this is the
//! same contract the repetition runner has always imposed.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads the pool uses: the `HLWK_THREADS`
/// environment variable if set to a positive integer, otherwise the
/// host's available parallelism.
pub fn pool_size() -> usize {
    if let Some(n) = std::env::var("HLWK_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f(0)..f(n-1)` on the pool and collect the results in index
/// order. Equivalent to `(0..n).map(f).collect()` for pure `f`,
/// regardless of thread count or scheduling.
pub fn parallel_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    parallel_map_threads(pool_size(), n, f)
}

/// [`parallel_map`] with an explicit worker count (bypasses
/// `HLWK_THREADS`; used by determinism tests so they need not mutate
/// process-global environment).
pub fn parallel_map_threads<T: Send, F: Fn(usize) -> T + Sync>(
    threads: usize,
    n: usize,
    f: F,
) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.max(1).min(n);
    if workers == 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, f) = (&next, &f);
                s.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices;
                        // results reach the caller through the joins.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return local;
                        }
                        local.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });

    // Deterministic reduction: place every result by task index.
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in buckets.drain(..).flatten() {
        debug_assert!(out[i].is_none(), "task {i} computed twice");
        out[i] = Some(v);
    }
    out.into_iter()
        .enumerate()
        .map(|(i, o)| o.unwrap_or_else(|| panic!("task {i} never ran")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_index_order() {
        let out = parallel_map_threads(8, 100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_for_any_thread_count() {
        let f = |i: usize| (i as f64).sqrt() * 7.0 + i as f64;
        let serial: Vec<f64> = (0..257).map(f).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            assert_eq!(parallel_map_threads(threads, 257, f), serial);
        }
    }

    #[test]
    fn empty_and_singleton_grids() {
        assert_eq!(parallel_map_threads(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map_threads(4, 1, |i| i + 9), vec![9]);
    }

    #[test]
    fn more_threads_than_tasks() {
        assert_eq!(
            parallel_map_threads(64, 3, |i| i),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn imbalanced_tasks_all_complete() {
        // Front-loaded cost: idle workers must keep claiming the cheap
        // tail while the expensive head runs.
        let out = parallel_map_threads(4, 64, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn pool_size_is_positive() {
        assert!(pool_size() >= 1);
    }
}
