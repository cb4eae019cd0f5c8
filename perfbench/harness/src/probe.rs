//! A fixed reference kernel that tells how fast the host runs right now.
//!
//! On a shared virtual machine, co-tenants slow memory-bound code by
//! 1.3-1.8x in phases that last from seconds to tens of seconds, on
//! both vCPUs at once and with no steal time showing. Dependent random
//! lookups in an ordered map whose nodes fill about half the core's L2
//! slow down with those phases roughly in proportion to the simulator's
//! own code (a pure DRAM pointer chase and an L1-resident heap loop did
//! not).
//! The kernel is plain `std` code owned by the benchmark, and each run
//! first makes one untimed pass so that the timed pass finds the map in
//! cache whatever the cycle before it touched: a change to the
//! simulator's code or working set cannot make the kernel faster or
//! slower.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys in the probe's map: its nodes fill about 1 MiB, half an L2.
const KEYS: u64 = 40_000;
const LOOKUPS: u64 = 30_000;

/// The kernel's time on an uncontended host, in seconds (Xeon
/// Sapphire Rapids vCPU under KVM). Measured times are rescaled to this
/// speed; see [`Probe::scale`].
pub const REFERENCE_S: f64 = 0.005;

/// The kernel's map, built once so that a run allocates nothing and
/// leaves the allocator as it found it.
pub struct Probe {
    map: BTreeMap<u64, u64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Probe {
    pub fn new() -> Probe {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let map = (0..KEYS).map(|i| (xorshift(&mut x), i)).collect();
        Probe { map }
    }

    /// Run the kernel once: an untimed pass that brings the map back
    /// into cache, then the timed pass. Returns the timed pass's host
    /// time in seconds.
    pub fn run(&self) -> f64 {
        self.pass();
        let start = Instant::now();
        self.pass();
        start.elapsed().as_secs_f64()
    }

    /// Random lookups, each key depending on the last hit.
    fn pass(&self) {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0u64;
        for _ in 0..LOOKUPS {
            let key = xorshift(&mut x) ^ acc;
            if let Some((_, v)) = self.map.range(key..).next() {
                acc = acc.wrapping_add(*v) & 0xff;
            }
        }
        black_box(acc);
    }
}

/// Factor that rescales a time measured between two kernel runs that
/// took `before` and `after` seconds to the uncontended host's speed.
pub fn scale(before: f64, after: f64) -> f64 {
    REFERENCE_S / ((before + after) / 2.0)
}
