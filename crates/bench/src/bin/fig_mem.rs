//! Memory-subsystem microbenchmarks — the tracked perf baseline for the
//! flat O(1) buddy + per-CPU-cached frame engine.
//!
//! Like `fig_offload_hotpath`, this measures **host wall-clock** cost of
//! the structures the memory path hammers, not modeled time:
//!
//! * alloc/free churn on the flat buddy;
//! * a fragmentation sweep (fill, scatter-free, full recoalesce);
//! * a first-touch fault storm (fault-around + PCP caches) at 1 and N
//!   CPUs, reporting the steady-state PCP hit rate.
//!
//! The numbers land in `BENCH_mem.json`; CI compares fresh runs against
//! the committed baseline with a 2x tolerance and additionally enforces
//! a hard floor of PCP hit rate > 90% (see `scripts/ci.sh --bench-smoke`).
//!
//! Knobs:
//! * `HLWK_BENCH_ITERS` — op budget per metric (default 20000);
//! * `HLWK_BENCH_OUT`   — output JSON path (default `BENCH_mem.json`);
//! * `--check <path>`   — compare a fresh run against a committed
//!   baseline instead of writing one; exits non-zero past tolerance.

use hlwk_core::costs::CostModel;
use hlwk_core::mck::mem::phys::{BuddyAllocator, FrameAllocator, MAX_ORDER, ORDER_2M};
use hlwk_core::mck::mem::vm::VmaKind;
use hlwk_core::mck::mem::{handle_fault, unmap_range, AddressSpace, FaultOutcome};
use hwmodel::addr::{PhysAddr, PAGE_SHIFT, PAGE_SIZE};
use std::hint::black_box;
use std::time::Instant;

/// Hard floor: steady-state PCP hit rate during the fault storm.
const MIN_PCP_HIT_PCT: f64 = 90.0;

/// Churn pool: 64 MiB (16384 frames) — small enough to stay hot.
const POOL_BASE: u64 = 1 << 30;
const POOL_LEN: u64 = 64 << 20;

/// Best-of-3 wall-clock nanoseconds per unit over `n` calls of `f`,
/// where each call reports how many units it performed.
fn measure_per_op<F: FnMut() -> u64>(n: u64, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut ops = 0u64;
        let start = Instant::now();
        for _ in 0..n {
            ops += f();
        }
        let ns = start.elapsed().as_nanos() as f64 / ops.max(1) as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Deterministic xorshift step.
#[inline]
fn next_rng(r: &mut u64) -> u64 {
    *r ^= *r << 13;
    *r ^= *r >> 7;
    *r ^= *r << 17;
    *r
}

/// Order mix for the churn episode: mostly hot order-0, some mid orders,
/// the occasional 2 MiB block — the fault-path profile.
const CHURN_ORDERS: [u8; 8] = [0, 0, 0, 0, 1, 2, 3, ORDER_2M];

/// One churn episode: `target_ops` interleaved alloc/free with a held
/// set, then drain. Starts and ends pristine. Returns ops performed.
fn churn_episode(pool: &mut BuddyAllocator, target_ops: u64) -> u64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut held: Vec<PhysAddr> = Vec::with_capacity(1024);
    let mut ops = 0u64;
    while ops < target_ops {
        let r = next_rng(&mut rng);
        if held.len() < 64 || r & 3 != 0 {
            let order = CHURN_ORDERS[(r >> 8) as usize % CHURN_ORDERS.len()];
            match pool.alloc(order) {
                Ok(p) => held.push(p),
                Err(_) => {
                    // Pool pressure: release the older half.
                    for p in held.drain(..held.len() / 2) {
                        pool.free(p).expect("live block");
                        ops += 1;
                    }
                }
            }
        } else {
            let i = (r >> 16) as usize % held.len();
            pool.free(held.swap_remove(i)).expect("live block");
        }
        ops += 1;
    }
    for p in held.drain(..) {
        pool.free(p).expect("live block");
        ops += 1;
    }
    ops
}

fn bench_churn_flat(n: u64, per_episode: u64) -> f64 {
    let mut a = BuddyAllocator::new(PhysAddr(POOL_BASE), POOL_LEN);
    measure_per_op(n, || churn_episode(&mut a, per_episode))
}

/// Fragmentation sweep: fill the pool with order-0 frames, free them in
/// bit-reversed order (worst case for coalescing — merges only become
/// possible near the end), verify full recoalescence. Returns ops.
fn frag_episode(pool: &mut BuddyAllocator, pages: u64) -> u64 {
    let bits = 64 - (pages - 1).leading_zeros();
    let mut held = Vec::with_capacity(pages as usize);
    while let Ok(p) = pool.alloc(0) {
        held.push(p);
    }
    let n = held.len() as u64;
    for i in 0..n {
        let j = (i.reverse_bits() >> (64 - bits)) % n;
        pool.free(held[j as usize]).expect("live block");
    }
    held.clear();
    assert!(
        pool.largest_free_order() == Some(MAX_ORDER),
        "pool must recoalesce to pristine"
    );
    2 * n
}

fn bench_frag_flat(n: u64) -> f64 {
    let mut a = BuddyAllocator::new(PhysAddr(POOL_BASE), POOL_LEN);
    measure_per_op(n, || frag_episode(&mut a, POOL_LEN >> PAGE_SHIFT))
}

/// First-touch fault storm: an anonymous 4 KiB VMA swept trap by trap
/// (fault-around populates 16 pages per trap, frames come from the
/// faulting CPU's PCP cache), then torn down. Faults round-robin over
/// `ncpus`. Returns (ns per populated page, PCP hit rate %).
fn bench_fault_storm(n: u64, ncpus: usize) -> (f64, f64) {
    const STORM_BYTES: u64 = 16 << 20;
    let mut alloc = FrameAllocator::new(PhysAddr(POOL_BASE), 64 << 20, ncpus);
    let costs = CostModel::default();
    let ns = measure_per_op(n, || {
        let mut aspace = AddressSpace::new(true);
        let va = aspace
            .vm
            .mmap(STORM_BYTES, VmaKind::Anon { large_ok: false }, true, None)
            .expect("fits");
        let mut pages = 0u64;
        let mut cpu = 0usize;
        let mut off = 0u64;
        while off < STORM_BYTES {
            match handle_fault(&mut aspace, &mut alloc, &costs, cpu, va + off) {
                FaultOutcome::Mapped { pages: p, .. } => {
                    pages += p;
                    off += p.max(1) * PAGE_SIZE;
                }
                o => panic!("storm fault failed: {o:?}"),
            }
            cpu = (cpu + 1) % ncpus;
        }
        unmap_range(&mut aspace, &mut alloc, &costs, va, STORM_BYTES).expect("teardown");
        black_box(pages)
    });
    let s = alloc.stats;
    let hit_pct = 100.0 * s.pcp_hit as f64 / (s.pcp_hit + s.pcp_refill).max(1) as f64;
    (ns, hit_pct)
}

fn run_all() -> Vec<(&'static str, f64)> {
    let n = bench::bench_iters();
    // Episode sizes chosen so each metric does ~`n` total units of work.
    let churn_eps = (n / 4096).max(1);
    let flat = bench_churn_flat(churn_eps, 4096);
    let frag_eps = (n / (2 * (POOL_LEN >> PAGE_SHIFT))).max(1);
    let (storm1, hit1) = bench_fault_storm((n / 4096).max(1), 1);
    let (storm4, hit4) = bench_fault_storm((n / 4096).max(1), 4);
    vec![
        ("churn_flat_ns", flat),
        ("frag_flat_ns", bench_frag_flat(frag_eps)),
        ("fault_storm_1cpu_ns", storm1),
        ("fault_storm_4cpu_ns", storm4),
        ("pcp_hit_pct", hit1.min(hit4)),
    ]
}

fn main() {
    let metrics = run_all();
    println!("=== memory subsystem (host wall clock) ===");
    for (k, v) in &metrics {
        if k.ends_with("_ns") {
            println!("{k:>24}: {v:10.1} ns");
        } else {
            println!("{k:>24}: {v:10.2}");
        }
    }

    // The hard floor holds in every mode: the acceptance claim itself.
    let hit = metrics
        .iter()
        .find(|(k, _)| *k == "pcp_hit_pct")
        .expect("present")
        .1;
    let mut failed = hit < MIN_PCP_HIT_PCT;
    if failed {
        eprintln!("FLOOR VIOLATION: pcp_hit_pct = {hit:.2} < required {MIN_PCP_HIT_PCT:.2}");
    }

    if let Some(path) = bench::check_arg() {
        // The hit rate is gated by the hard floor above.
        let gated: Vec<_> = metrics
            .iter()
            .filter(|(k, _)| k.ends_with("_ns"))
            .copied()
            .collect();
        failed |= bench::check(&bench::read(&path), &gated);
        if failed {
            std::process::exit(1);
        }
        println!(
            "perf check passed (tolerance {}x, PCP hit > {MIN_PCP_HIT_PCT}%)",
            bench::TOLERANCE
        );
        return;
    }

    if failed {
        std::process::exit(1);
    }
    let out = bench::bench_out("BENCH_mem.json");
    bench::write(&out, "fig_mem", &metrics);
}
