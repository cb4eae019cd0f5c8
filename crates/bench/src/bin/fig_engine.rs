//! Event-engine microbenchmarks — the tracked perf baseline for PR 3.
//!
//! Measures **host wall-clock** cost of the two structures this PR
//! rebuilt: the hierarchical timer wheel behind `simcore::EventQueue`
//! (against an embedded copy of the retired `BinaryHeap` + tombstone
//! implementation it replaced) and the `simcore::par` bounded
//! work-stealing pool (via a reduced fig6 sweep at 1 thread vs all
//! threads). The numbers land in `BENCH_engine.json` so every future PR
//! is held to a perf trajectory (CI compares against the committed
//! baseline with a 2x tolerance — see `scripts/ci.sh --bench-smoke`).
//!
//! Workloads:
//! * *dense* — hold-pattern churn entirely inside the level-0 window
//!   (delays < 256 cycles): pop one, schedule one, forever;
//! * *sparse* — delays up to 2^40 cycles, forcing traffic through the
//!   upper wheel levels and their promotion cascades;
//! * *cancel* — arm-and-disarm, the preemption-timer pattern;
//! * *fig6* — end-to-end reduced figure sweep, serial vs full pool.
//!
//! Knobs:
//! * `HLWK_BENCH_ITERS` — iterations per metric (default 20000);
//! * `HLWK_BENCH_OUT`   — output JSON path (default `BENCH_engine.json`);
//! * `--check <path>`   — compare a fresh run against a committed
//!   baseline instead of writing one; exits non-zero past 2x.

use bench::Clock;
use cluster::experiment::run_seed;
use cluster::{Cluster, ClusterConfig, OsVariant};
use simcore::event::EventQueue;
use simcore::{par, Cycles, StreamRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::hint::black_box;
use std::time::Instant;
use workloads::osu::{Collective, OsuConfig};

/// Prefill depth for the hold-pattern churn benchmarks. ~4k live events
/// matches a busy 64-node cluster's timer population.
const HOLD: usize = 4096;

/// Best-of-5 per side with the trials interleaved a, b, a, b, …: the
/// speedup gates below compare two measured minima, and on a shared
/// host a sustained ambient-load burst that covers one side's entire
/// sequential best-of-5 run can fake a >2x swing in either direction.
/// Interleaved, a burst degrades both minima or neither.
fn measure_pair<F: FnMut(), G: FnMut()>(n: u64, mut a: F, mut b: G) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..n {
            a();
        }
        best.0 = best.0.min(start.elapsed().as_nanos() as f64 / n as f64);
        let start = Instant::now();
        for _ in 0..n {
            b();
        }
        best.1 = best.1.min(start.elapsed().as_nanos() as f64 / n as f64);
    }
    best
}

// ---------------------------------------------------------------------
// Embedded copy of the retired heap-based EventQueue (pre-PR 3), kept
// here verbatim-in-spirit as the comparison baseline: a BinaryHeap
// ordered by (time, seq) with lazy tombstone cancellation.
// ---------------------------------------------------------------------

struct HeapQueue {
    heap: BinaryHeap<Reverse<(Cycles, u64, u64)>>,
    cancelled: HashSet<u64>,
    next_seq: u64,
}

impl HeapQueue {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
        }
    }

    fn schedule(&mut self, at: Cycles, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq, payload)));
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        self.cancelled.insert(seq)
    }

    fn pop(&mut self) -> Option<(Cycles, u64)> {
        while let Some(Reverse((at, seq, payload))) = self.heap.pop() {
            if self.cancelled.remove(&seq) {
                continue;
            }
            return Some((at, payload));
        }
        None
    }
}

/// Deterministic delay sequence shared by wheel and heap runs so both
/// see byte-identical workloads.
fn delays(n: usize, max_delay: u64, seed: u64) -> Vec<u64> {
    let mut rng = StreamRng::root(seed);
    (0..n).map(|_| rng.range_u64(1, max_delay)).collect()
}

/// Hold-pattern churn, wheel and heap interleaved: prefill `HOLD`
/// events into each, then each op pops the nearest event and schedules
/// a replacement. Both queues see byte-identical delay sequences.
/// Returns `(wheel_ns, heap_ns)`.
fn bench_churn_pair(n: u64, max_delay: u64, seed: u64) -> (f64, f64) {
    let ds = delays(HOLD + n as usize * 3, max_delay, seed);
    let mut wq: EventQueue<u64> = EventQueue::new();
    let mut hq = HeapQueue::new();
    let (mut wnow, mut hnow) = (Cycles::ZERO, Cycles::ZERO);
    let (mut wdi, mut hdi) = (0usize, 0usize);
    for _ in 0..HOLD {
        wq.schedule(wnow + Cycles(ds[wdi]), wdi as u64);
        wdi += 1;
        hq.schedule(hnow + Cycles(ds[hdi]), hdi as u64);
        hdi += 1;
    }
    measure_pair(
        n,
        || {
            let (at, p) = wq.pop().expect("hold pattern never drains");
            wnow = at;
            black_box(p);
            wq.schedule(wnow + Cycles(ds[wdi % ds.len()]), wdi as u64);
            wdi += 1;
        },
        || {
            let (at, p) = hq.pop().expect("hold pattern never drains");
            hnow = at;
            black_box(p);
            hq.schedule(hnow + Cycles(ds[hdi % ds.len()]), hdi as u64);
            hdi += 1;
        },
    )
}

/// Arm-and-disarm: schedule a timer, cancel it immediately — the
/// preemption-timer pattern the scheduler runs on every dispatch.
/// Returns `(wheel_ns, heap_ns)`.
fn bench_cancel_pair(n: u64) -> (f64, f64) {
    let mut wq: EventQueue<u64> = EventQueue::new();
    let mut hq = HeapQueue::new();
    let now = Cycles::from_ms(1);
    measure_pair(
        n,
        || {
            let key = wq.schedule(now + Cycles(500), 7);
            black_box(wq.cancel(key));
        },
        || {
            let key = hq.schedule(now + Cycles(500), 7);
            black_box(hq.cancel(key));
        },
    )
}

// ---------------------------------------------------------------------
// End-to-end pool benchmark: a reduced fig6 sweep, serial vs full pool.
// ---------------------------------------------------------------------

/// One reduced fig6 cell: a full size sweep for (collective, OS, run)
/// on a small cluster. Mirrors `fig6_osu_latency` with cheaper knobs.
fn fig6_cell(coll: Collective, os: OsVariant, run: usize) -> f64 {
    let osu_cfg = OsuConfig {
        warmup: 2,
        iters: 3,
        iter_gap: Cycles::from_us(300),
    };
    let cfg = ClusterConfig::paper(os)
        .with_nodes(8)
        .with_seed(run_seed(0xF166, run));
    let mut cluster = Cluster::build(cfg);
    let mut at = Cycles::from_ms(1);
    let mut acc = 0.0;
    for bytes in coll.message_sizes() {
        let res = cluster.run_osu(coll, bytes, &osu_cfg, at).expect("fault-free");
        at = res.end + Cycles::from_secs(2);
        acc += res.latencies_us.iter().sum::<f64>() / res.latencies_us.len() as f64;
    }
    acc
}

/// Wall-clock milliseconds for the reduced fig6 grid on `threads`
/// workers. Returns the checksum too so the work cannot be elided and
/// the 1-thread/N-thread results can be compared for determinism.
fn fig6_wall_ms(threads: usize) -> (f64, Vec<f64>) {
    let colls = Collective::all();
    let oses = [OsVariant::LinuxCgroup, OsVariant::McKernel];
    let runs = 2usize;
    let cells: Vec<(Collective, OsVariant, usize)> = colls
        .iter()
        .flat_map(|&coll| {
            oses.iter()
                .flat_map(move |&os| (0..runs).map(move |run| (coll, os, run)))
        })
        .collect();
    let start = Instant::now();
    let vals = par::parallel_map_threads(threads, cells.len(), |ci| {
        let (coll, os, run) = cells[ci];
        fig6_cell(coll, os, run)
    });
    (start.elapsed().as_secs_f64() * 1e3, vals)
}

fn run_all() -> Vec<(&'static str, f64)> {
    let n = bench::bench_iters();
    // Dense: every delay inside the level-0 window (the common case for
    // p2p hops and scheduler ticks).
    let (wheel_dense, heap_dense) = bench_churn_pair(n, 256, 11);
    // Sparse: delays spanning the upper wheel levels (up to 2^40).
    let (wheel_sparse, heap_sparse) = bench_churn_pair(n, 1 << 40, 13);
    let (wheel_cancel, heap_cancel) = bench_cancel_pair(n);

    let threads = par::pool_size();
    // Interleave the serial/parallel trials and keep the best of each:
    // back-to-back one-shot runs let ambient host load (or a thermal
    // ramp) land entirely on one side and fake a speedup — or a
    // regression — even when both sides do identical work.
    let (mut serial_ms, mut par_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let (s_ms, serial_vals) = fig6_wall_ms(1);
        let (p_ms, par_vals) = fig6_wall_ms(threads);
        assert_eq!(
            serial_vals, par_vals,
            "fig6 per-cell values must be identical at any thread count"
        );
        serial_ms = serial_ms.min(s_ms);
        par_ms = par_ms.min(p_ms);
    }

    let mut metrics = vec![
        ("wheel_dense_ns", wheel_dense),
        ("heap_dense_ns", heap_dense),
        ("dense_speedup_x", heap_dense / wheel_dense),
        ("wheel_sparse_ns", wheel_sparse),
        ("heap_sparse_ns", heap_sparse),
        ("sparse_speedup_x", heap_sparse / wheel_sparse),
        ("wheel_cancel_ns", wheel_cancel),
        ("heap_cancel_ns", heap_cancel),
        ("fig6_serial_ms", serial_ms),
        ("fig6_parallel_ms", par_ms),
    ];
    // On a single-worker host the serial/parallel ratio is pure
    // scheduling noise (a committed 0.97x reads as a regression when it
    // means nothing). Omit the ratio rather than commit a lie; the raw
    // wall times stay for reference and `pool_threads` records why.
    if threads > 1 {
        metrics.push(("fig6_speedup_x", serial_ms / par_ms));
    }
    metrics.push(("pool_threads", threads as f64));
    metrics
}

fn main() {
    let metrics = run_all();
    println!("=== event engine (host wall clock) ===");
    for (k, v) in &metrics {
        if k.ends_with("_x") {
            println!("{k:>20}: {v:10.2}x");
        } else if k.ends_with("_ms") {
            println!("{k:>20}: {v:10.1} ms");
        } else if *k == "pool_threads" {
            println!("{k:>20}: {v:10.0}");
        } else {
            println!("{k:>20}: {v:10.1} ns");
        }
    }
    if par::pool_size() <= 1 {
        println!("speedup floor skipped: pool_threads=1");
    }

    let Some(path) = bench::check_arg() else {
        let out = bench::bench_out("BENCH_engine.json");
        bench::write(&out, "fig_engine", Clock::Host, &metrics);
        return;
    };
    let base = bench::read(&path);
    // Absolute-cost metrics gate against the committed baseline; the
    // retired heap's costs and the host-shaped fig6 wall times are
    // informational.
    let gated: Vec<_> = metrics
        .iter()
        .filter(|(k, _)| k.ends_with("_ns") && !k.starts_with("heap_"))
        .copied()
        .collect();
    let mut failed = bench::check(Clock::Host, &base, &gated);
    // Speedup ratios are machine-shaped (core count, load), so the gate
    // on them is a floor, not a baseline comparison: the wheel must
    // decisively beat the heap on its design target (dense horizons),
    // must now at least match it on sparse ones (the level-mask scan plus
    // the singleton fast path put the wheel ahead of the heap even when
    // every delay spans the upper levels), and the pool must deliver real
    // speedup over serial execution — checked only when this host
    // actually has multiple workers, since on one core the ratio is pure
    // scheduling noise.
    for (k, v) in &metrics {
        let floor = match *k {
            "dense_speedup_x" => 1.5,
            "sparse_speedup_x" => 1.0,
            "fig6_speedup_x" if par::pool_size() > 1 => 1.2,
            _ => continue,
        };
        // The floor binds the *committed* baseline exactly — a
        // regressed ratio cannot be baselined away. The fresh smoke run
        // gets a 10% noise grace: sparse's margin is ~1.15x, thin
        // enough that a one-shot CI run on a shared host occasionally
        // dips a hair under the floor without any code change.
        let fresh_floor = floor * 0.9;
        let base_v = base.iter().find(|(bk, _)| bk == k).map(|(_, bv)| *bv);
        // fig6's committed ratio is meaningless if the baseline was
        // recorded on a single-worker host (it is ~1.0 by construction
        // there, whatever this host looks like).
        let base_pool = base
            .iter()
            .find(|(bk, _)| bk == "pool_threads")
            .map_or(1.0, |(_, bv)| *bv);
        let skip_base = *k == "fig6_speedup_x" && base_pool <= 1.0;
        if !skip_base && matches!(base_v, Some(bv) if bv < floor) {
            eprintln!(
                "PERF REGRESSION: committed {k} = {:.2}x (floor {floor:.1}x)",
                base_v.unwrap()
            );
            failed = true;
        } else if *v < fresh_floor {
            eprintln!("PERF REGRESSION: {k} = {v:.2}x (floor {fresh_floor:.2}x)");
            failed = true;
        } else {
            println!("{k:>24}: ok ({v:.2}x, floor {fresh_floor:.2}x)");
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("perf check passed (tolerance {}x)", bench::TOLERANCE);
}
