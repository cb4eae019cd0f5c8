//! Deterministic, splittable random number streams.
//!
//! Every stochastic component of the simulation (each noise daemon, each
//! Hadoop task generator, each network jitter source) owns its own
//! [`StreamRng`], derived from the experiment master seed and a stable
//! stream label. Components therefore consume randomness independently:
//! adding a new consumer never perturbs the draws seen by existing ones,
//! which keeps experiments comparable across code revisions.

/// SplitMix64 step — used only to mix seeds/labels into child seeds.
/// (Reference: Steele, Lea, Flood — "Fast Splittable Pseudorandom Number
/// Generators", OOPSLA 2014.)
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ core (Blackman & Vigna). Self-contained so the simulation's
/// draw sequences are stable across toolchain and dependency upgrades —
/// determinism is a documented property of the harness.
#[derive(Clone, Debug)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256pp { s }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Mix a label string into a seed.
fn mix_label(seed: u64, label: &str) -> u64 {
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    for b in label.as_bytes() {
        state ^= u64::from(*b);
        splitmix64(&mut state);
    }
    splitmix64(&mut state)
}

/// The indexed child streams of one [`StreamRng`] under one label
/// ([`StreamRng::family`]).
#[derive(Clone, Copy, Debug)]
pub struct StreamFamily {
    mixed: u64,
}

impl StreamFamily {
    /// Child stream `index`.
    #[inline]
    pub fn at(&self, index: u64) -> StreamRng {
        let mut s = self.mixed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        StreamRng::root(splitmix64(&mut s))
    }
}

/// A deterministic random stream.
#[derive(Clone, Debug)]
pub struct StreamRng {
    inner: Xoshiro256pp,
    seed: u64,
}

impl StreamRng {
    /// Root stream for a master seed.
    pub fn root(seed: u64) -> Self {
        StreamRng {
            inner: Xoshiro256pp::from_seed(seed),
            seed,
        }
    }

    /// Derive an independent child stream identified by `label` and `index`.
    ///
    /// Derivation uses only the parent's *seed* (not its draw position), so
    /// child streams are stable no matter how much the parent has been used.
    pub fn stream(&self, label: &str, index: u64) -> StreamRng {
        self.family(label).at(index)
    }

    /// The child streams sharing `label`, with the label hashed once:
    /// `family(label).at(i)` is `stream(label, i)`. Hot paths that derive
    /// one stream per tick or epoch hold a family instead of re-hashing
    /// the label on every derivation.
    pub fn family(&self, label: &str) -> StreamFamily {
        StreamFamily {
            mixed: mix_label(self.seed, label),
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next()
    }

    /// Uniform float in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits give a uniform double in [0, 1).
        (self.inner.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `(0, 1]` — safe to pass to `ln()`.
    fn uniform_open(&mut self) -> f64 {
        ((self.inner.next() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        // Lemire-style rejection-free-enough reduction via 128-bit multiply;
        // bias is below 2^-64 for the spans used here.
        let wide = (self.inner.next() as u128) * (span as u128);
        lo + (wide >> 64) as u64
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi);
        lo + self.uniform() * (hi - lo)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.uniform() < p
    }

    /// Exponentially distributed value with the given mean (inter-arrival
    /// sampling for Poisson processes: ticks are periodic, but daemon
    /// wakeups and Hadoop task arrivals are Poisson-like).
    pub fn exp_mean(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        -mean * self.uniform_open().ln()
    }

    /// Bounded Pareto draw (heavy-tailed; used for rare long noise events
    /// like kswapd scans and JVM GC pauses). `alpha` is the tail index.
    pub fn pareto(&mut self, scale: f64, alpha: f64, cap: f64) -> f64 {
        debug_assert!(scale > 0.0 && alpha > 0.0 && cap >= scale);
        let u = self.uniform_open();
        (scale / u.powf(1.0 / alpha)).min(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = StreamRng::root(42);
        let mut b = StreamRng::root(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StreamRng::root(1);
        let mut b = StreamRng::root(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn child_streams_independent_of_parent_position() {
        let parent1 = StreamRng::root(7);
        let mut parent2 = StreamRng::root(7);
        for _ in 0..50 {
            parent2.next_u64(); // advance parent2 only
        }
        let mut c1 = parent1.stream("tick", 3);
        let mut c2 = parent2.stream("tick", 3);
        for _ in 0..20 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn distinct_labels_and_indices_give_distinct_streams() {
        let root = StreamRng::root(9);
        let mut seen = crate::FastSet::default();
        for label in ["a", "b", "tick", "daemon"] {
            for idx in 0..16 {
                let mut s = root.stream(label, idx);
                assert!(seen.insert(s.next_u64()), "stream collision {label}/{idx}");
            }
        }
    }

    #[test]
    fn family_members_are_the_labelled_streams() {
        // First draws of `stream(label, index)`, pinned before families
        // existed: a family derives exactly the streams it stands for.
        let root = StreamRng::root(9).stream("core", 2);
        let pinned = [
            ("tick-cost", 0, 0xc09b_6c33_4f6d_5a4a),
            ("tick-cost", u64::MAX, 0x14f2_1765_de82_3398),
            ("kworker", 63, 0x2150_7c4f_4603_17b1),
            ("slice", 1 << 40, 0xeac0_1811_24fa_6dca),
        ];
        for (label, index, first) in pinned {
            assert_eq!(
                root.family(label).at(index).next_u64(),
                first,
                "{label}/{index}"
            );
            assert_eq!(
                root.stream(label, index).next_u64(),
                first,
                "{label}/{index}"
            );
        }
    }

    #[test]
    fn exp_mean_is_roughly_mean() {
        let mut r = StreamRng::root(11);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| r.exp_mean(5.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn pareto_bounds_respected() {
        let mut r = StreamRng::root(17);
        for _ in 0..10_000 {
            let x = r.pareto(2.0, 1.5, 100.0);
            assert!((2.0..=100.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = StreamRng::root(19);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
