//! Offload hot-path and bypass microbenchmarks — the tracked perf
//! baseline of every path an offloaded syscall can take.
//!
//! Unlike the `fig*` binaries (which regenerate paper figures in
//! *modeled* time), this binary measures **host wall-clock** cost of the
//! structures the offload path hammers: the end-to-end offload round
//! trip (interleaved with the promoted in-LWK read it is compared
//! against, so the bypass-floor ratio is ambient-burst-proof), address
//! translation, the IKC channel, and the unified address space the
//! proxy resolves application pointers through. It then sweeps the
//! promoted hot calls across {offload, bypass, bypass+domains} and
//! measures the promoted futex and clock paths, the zero-copy device
//! mmap (map + TLB-shootdown unmap, per page), and the raw MPK-style
//! domain-switch bookkeeping. The numbers land in `BENCH_offload.json`
//! so every future PR is held to a perf trajectory (`--check` compares
//! against the committed baseline with a 2x tolerance — see
//! `scripts/ci.sh --bench-smoke`).
//!
//! Knobs:
//! * `HLWK_BENCH_ITERS` — iterations per metric (default 20000);
//! * `HLWK_BENCH_OUT`   — output JSON path (default `BENCH_offload.json`);
//! * `--check <path>`   — compare a fresh run against a committed
//!   baseline instead of writing one; exits non-zero past 2x or when a
//!   fresh run misses either bypass floor.

use cluster::{node::NodeRuntime, OsVariant};
use hlwk_core::abi::Sysno;
use hlwk_core::costs::CostModel;
use hlwk_core::ihk::ikc::{IkcChannel, MsgKind};
use hlwk_core::mck::domains::{DomainId, DomainModel};
use hlwk_core::mck::mem::pagetable::{PageTable, PteFlags};
use hlwk_core::mck::mem::tlb::SoftTlb;
use hlwk_core::mck::syscall::{BypassConfig, SyscallRequest};
use hlwk_core::proxy::devmap;
use hlwk_core::proxy::unified::UnifiedAddressSpace;
use hwmodel::addr::{PhysAddr, VirtAddr, PAGE_SIZE, PAGE_SIZE_2M};
use hwmodel::pci::DeviceClass;
use simcore::{Cycles, StreamRng};
use std::hint::black_box;
use std::time::Instant;

/// Floor for the profile-guided bypass: a promoted read must beat both
/// the full offload round trip and the offloaded read by at least this
/// factor, with the MPK-style protection domains armed (their
/// entry/exit bookkeeping is part of the measured cost).
const BYPASS_FLOOR: f64 = 3.0;

/// Pages a fresh proxy view faults in per cold-fault episode.
const UAS_PAGES: u64 = 64;

/// First application page the unified-address-space benches resolve.
const UAS_BASE: u64 = 0x100_0000;

/// Best-of-`trials` wall-clock nanoseconds per call of `f` over `n`
/// calls.
fn measure<F: FnMut()>(trials: u32, n: u64, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let start = Instant::now();
        for _ in 0..n {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / n as f64);
    }
    best
}

/// Best-of-5 per side with the trials interleaved a, b, a, b, …: the
/// bypass floor below compares two measured minima, and on a shared
/// host a sustained ambient-load burst covering one side's entire
/// sequential best-of-5 run could fake a >3x swing either way.
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

/// Best-of-5 per side, trials interleaved a, b, c, a, b, c, …: the
/// sweep compares minima against each other, and interleaving keeps an
/// ambient-load burst from degrading one configuration's entire run
/// while sparing the others.
fn measure_trio<A, B, C>(n: u64, mut a: A, mut b: B, mut c: C) -> (f64, f64, f64)
where
    A: FnMut(),
    B: FnMut(),
    C: FnMut(),
{
    let mut best = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
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
        let start = Instant::now();
        for _ in 0..n {
            c();
        }
        best.2 = best.2.min(start.elapsed().as_nanos() as f64 / n as f64);
    }
    best
}

fn build_node() -> NodeRuntime {
    let mut cfg = bench::paper_config(OsVariant::McKernel).with_nodes(1);
    cfg.horizon_secs = 5;
    NodeRuntime::build(&cfg, 0, &StreamRng::root(1))
}

/// Build a node with the bypass armed (optionally with MPK-style
/// domains) and a regular fd promoted warm: one offloaded read seeds
/// the heat profiler and the promotability lease.
fn warm_bypass_node(domains: bool) -> (NodeRuntime, u64, Cycles) {
    let mut node = build_node();
    node.mck.as_mut().expect("mckernel node").bypass = BypassConfig {
        enabled: true,
        promote_after: 1,
        domains: false,
    };
    if domains {
        node.enable_domains();
    }
    let (fd, t) = open_regular(&mut node);
    let buf = node.arena_va.raw();
    let (r, t) = node.offload_syscall(Sysno::Read, [fd, buf, 64, 0, 0, 0], t);
    assert_eq!(r, 64, "warmup read failed");
    (node, fd, t)
}

/// Open a regular (page-cached) file through the full offload path,
/// reusing the already-faulted arena page for the path string.
fn open_regular(node: &mut NodeRuntime) -> (u64, Cycles) {
    let pa = node
        .mck
        .as_ref()
        .expect("mckernel node")
        .process(node.app_pid)
        .expect("app")
        .aspace
        .pt
        .translate(node.arena_va)
        .expect("arena faulted at setup")
        .phys;
    node.hw.mem.write(pa, b"/data/bench.bin\0");
    let (fd, t) = node.offload_syscall(
        Sysno::Open,
        [node.arena_va.raw(), 0, 0, 0, 0, 0],
        Cycles::from_ms(1),
    );
    assert!(fd >= 0, "offloaded open failed: {fd}");
    (fd as u64, t)
}

/// The headline pair, interleaved: the full offload round trip
/// (marshal, IKC, delegator, proxy service with unified-address-space
/// dereference, reply) against a promoted in-LWK read with protection
/// domains armed. The `--check` floor gates on this ratio, so the two
/// sides must be measured under the same ambient load.
fn bench_offload_vs_bypass(n: u64) -> (f64, f64) {
    let mut off = build_node();
    let mut t_off = Cycles::from_ms(1);
    let arena = off.arena_va.raw();

    let (mut fast, fd, mut t_fast) = warm_bypass_node(true);
    let buf = fast.arena_va.raw();

    let pair = measure_pair(
        n,
        || {
            t_off += Cycles(1000);
            black_box(off.offload_syscall(Sysno::GetRandom, [arena, 64, 0, 0, 0, 0], t_off));
        },
        || {
            t_fast += Cycles(1000);
            black_box(fast.offload_syscall(Sysno::Read, [fd, buf, 64, 0, 0, 0], t_fast));
        },
    );
    // Honesty: the fast side really did bypass (exactly one offloaded
    // read — the warmup — ever reached Linux's read arm).
    assert!(fast.bypass_promoted >= 5 * n);
    assert_eq!(fast.bypass_fallbacks, 0);
    pair
}

fn populated_pt() -> PageTable {
    let mut pt = PageTable::new();
    for i in 0..512u64 {
        pt.map_4k(
            VirtAddr(0x40_0000_0000 + i * PAGE_SIZE),
            PhysAddr(0x10_0000 + i * PAGE_SIZE),
            PteFlags::rw(),
        )
        .expect("unmapped");
    }
    for i in 0..16u64 {
        pt.map_2m(
            VirtAddr(0x80_0000_0000 + i * PAGE_SIZE_2M),
            PhysAddr(0x4000_0000 + i * PAGE_SIZE_2M),
            PteFlags::rw(),
        )
        .expect("unmapped");
    }
    pt
}

/// Same page translated repeatedly — a software-TLB hit (one array
/// index + tag compare in front of the radix walk).
fn bench_translate_hit(n: u64) -> f64 {
    let pt = populated_pt();
    let mut tlb = SoftTlb::new();
    measure(3, n, || {
        black_box(tlb.translate(&pt, VirtAddr(0x40_0000_5123)));
        black_box(tlb.translate(&pt, VirtAddr(0x80_0010_0123)));
    }) / 2.0
}

/// Sweeping translations (every lookup a different page: worst case for
/// any cache, exercises the raw walk).
fn bench_translate_miss(n: u64) -> f64 {
    let pt = populated_pt();
    let mut i = 0u64;
    measure(3, n, || {
        let va = 0x40_0000_0000 + (i % 512) * PAGE_SIZE + 0x123;
        i = i.wrapping_add(97);
        black_box(pt.translate(VirtAddr(va)));
    })
}

/// IKC send+recv pair throughput at the default queue depth, using the
/// zero-allocation path: encode-into-slot sends, by-reference receives.
fn bench_channel(n: u64) -> f64 {
    let mut ch = IkcChannel::new(IkcChannel::default_depth());
    let req = SyscallRequest {
        seq: 1,
        pid: 1000,
        tid: 1000,
        sysno: Sysno::Write.nr(),
        args: [3, 0x2000_0000, 4096, 0, 0, 0],
    };
    let mut seq = 0u64;
    measure(3, n, || {
        // Fill and drain half the queue per iteration.
        for _ in 0..32 {
            let mut r = req;
            seq += 1;
            r.seq = seq;
            ch.send_with(MsgKind::SyscallRequest, |b| r.encode_into(b))
                .expect("fits");
        }
        for _ in 0..32 {
            let m = ch.recv_ref().expect("just sent");
            black_box(m.verify());
            black_box(SyscallRequest::decode(m.payload));
        }
    }) / 64.0
}

/// An LWK page table mapping the [`UAS_PAGES`] pages the proxy-side
/// benches resolve.
fn uas_pt() -> PageTable {
    let mut pt = PageTable::new();
    for i in 0..UAS_PAGES {
        pt.map_4k(
            VirtAddr(UAS_BASE + i * PAGE_SIZE),
            PhysAddr(0x20_0000 + i * PAGE_SIZE),
            PteFlags::rw(),
        )
        .expect("unmapped");
    }
    pt
}

/// Unified-address-space cold faults: a fresh proxy view resolves
/// [`UAS_PAGES`] pages it has never seen (LWK page-table walk plus
/// pseudo-mapping install). Reported per fault, with the view's setup
/// and teardown included.
fn bench_uas_cold_fault(n: u64) -> f64 {
    let pt = uas_pt();
    let costs = CostModel::default();
    measure(5, n, || {
        let mut uas = UnifiedAddressSpace::new();
        for i in 0..UAS_PAGES {
            black_box(
                uas.resolve(VirtAddr(UAS_BASE + i * PAGE_SIZE), &pt, &costs)
                    .expect("mapped"),
            );
        }
    }) / UAS_PAGES as f64
}

/// Unified-address-space warm hit: a page the proxy view already
/// resolved, looked up again.
fn bench_uas_warm_hit(n: u64) -> f64 {
    let pt = uas_pt();
    let costs = CostModel::default();
    let mut uas = UnifiedAddressSpace::new();
    uas.resolve(VirtAddr(UAS_BASE), &pt, &costs)
        .expect("mapped");
    measure(5, n, || {
        let _ = black_box(uas.resolve(VirtAddr(UAS_BASE + 0x123), &pt, &costs));
    })
}

/// The three-configuration read sweep: full offload, promoted in-LWK,
/// promoted with domain switches charged and pkeys armed.
fn sweep_read(n: u64) -> (f64, f64, f64) {
    let mut off = build_node();
    let (off_fd, mut t_off) = open_regular(&mut off);
    let off_buf = off.arena_va.raw();

    let (mut fast, fast_fd, mut t_fast) = warm_bypass_node(false);
    let fast_buf = fast.arena_va.raw();

    let (mut hard, hard_fd, mut t_hard) = warm_bypass_node(true);
    let hard_buf = hard.arena_va.raw();

    let trio = measure_trio(
        n,
        || {
            t_off += Cycles(1000);
            black_box(off.offload_syscall(Sysno::Read, [off_fd, off_buf, 64, 0, 0, 0], t_off));
        },
        || {
            t_fast += Cycles(1000);
            black_box(fast.offload_syscall(
                Sysno::Read,
                [fast_fd, fast_buf, 64, 0, 0, 0],
                t_fast,
            ));
        },
        || {
            t_hard += Cycles(1000);
            black_box(hard.offload_syscall(
                Sysno::Read,
                [hard_fd, hard_buf, 64, 0, 0, 0],
                t_hard,
            ));
        },
    );
    // Honesty: the promoted sides never fell back, and the domain model
    // on the guarded node really switched twice per call.
    for node in [&fast, &hard] {
        assert!(node.bypass_promoted >= 5 * n);
        assert_eq!(node.bypass_fallbacks, 0);
    }
    let guarded = hard.mck.as_ref().expect("mckernel node");
    assert!(guarded.domains.switches >= 10 * n, "pkey switches uncharged");
    trio
}

/// Promoted futex wake (no waiters: the pure fast-path cost), domains
/// armed.
fn bench_futex(n: u64) -> f64 {
    let (mut node, _, mut t) = warm_bypass_node(true);
    let word = node.arena_va.raw();
    // Warm the futex promotion with one offloaded wake.
    let (r, t2) = node.offload_syscall(Sysno::Futex, [word, 129, 1, 0, 0, 0], t);
    assert_eq!(r, 0);
    t = t2;
    measure(5, n, || {
        t += Cycles(1000);
        black_box(node.offload_syscall(Sysno::Futex, [word, 129, 1, 0, 0, 0], t));
    })
}

/// Promoted `clock_gettime` from the vDSO-style shared time page,
/// domains armed.
fn bench_clock(n: u64) -> f64 {
    let (mut node, _, mut t) = warm_bypass_node(true);
    node.publish_time(1_000_000_000);
    // Warm the clock promotion with one offloaded read of Linux's vDSO.
    let (r, t2) = node.offload_syscall(Sysno::ClockGettime, [0; 6], t);
    assert_eq!(r, 1_000_000_000);
    t = t2;
    measure(5, n, || {
        t += Cycles(1000);
        black_box(node.offload_syscall(Sysno::ClockGettime, [0; 6], t));
    })
}

/// Zero-copy device mmap: eager batched PFN resolve + PTE install,
/// then the TLB-coherent unmap. Reported per page.
fn bench_devmap_zero_copy(n: u64) -> f64 {
    const PAGES: u64 = 16;
    let mut node = build_node();
    let dev = node
        .hw
        .device_of_class(DeviceClass::InfinibandHca)
        .expect("testbed has an HCA")
        .clone();
    let app_pid = node.app_pid;
    let proxy_pid = node.proxy_pid.expect("proxy spawned");
    measure(5, n, || {
        let mck = node.mck.as_mut().expect("mckernel node");
        let (proxy, delegator) = node
            .linux
            .proxy_and_delegator(proxy_pid)
            .expect("registered");
        let zc = devmap::device_mmap_zero_copy(
            mck,
            app_pid,
            proxy,
            delegator,
            &dev,
            0,
            0,
            PAGES * PAGE_SIZE,
        )
        .expect("UAR maps");
        devmap::device_munmap_zero_copy(
            mck,
            app_pid,
            delegator,
            zc.map.lwk_va,
            PAGES * PAGE_SIZE,
            zc.map.tracking,
        )
        .expect("unmaps");
    }) / PAGES as f64
}

/// Raw cost of one protection-domain switch (PKRU update bookkeeping),
/// measured as enter/exit pairs.
fn bench_domain_switch(n: u64) -> f64 {
    let mut d = DomainModel::enabled(Cycles::from_ns(25));
    measure(5, n, || {
        black_box(d.enter(DomainId::IkcRing));
        black_box(d.exit());
    }) / 2.0
}

/// `BENCH_offload.json`'s metrics, in file order.
type Metrics = Vec<(&'static str, f64)>;

/// The baseline metrics, plus the read sweep's (offload, bypass,
/// bypass+domains) minima, which only the floor reads.
fn run_all() -> (Metrics, (f64, f64, f64)) {
    let n = bench::bench_iters();
    let (roundtrip, bypass_read) = bench_offload_vs_bypass(n);
    let mut metrics = vec![
        ("offload_roundtrip_ns", roundtrip),
        ("bypass_read_ns", bypass_read),
        ("translate_hit_ns", bench_translate_hit(n)),
        ("translate_miss_ns", bench_translate_miss(n)),
        ("channel_send_recv_ns", bench_channel(n / 32)),
        // Environment honesty: how hard this baseline was driven. Not a
        // performance metric — `--check` exempts it from the gate.
        ("bench_iters", n as f64),
    ];
    let sweep = sweep_read(n);
    metrics.extend([
        ("bypass_futex_ns", bench_futex(n)),
        ("bypass_clock_ns", bench_clock(n)),
        ("devmap_zero_copy_ns", bench_devmap_zero_copy(n / 64)),
        ("domain_switch_ns", bench_domain_switch(n)),
        ("uas_cold_fault_ns", bench_uas_cold_fault(n / UAS_PAGES)),
        ("uas_warm_hit_ns", bench_uas_warm_hit(n)),
    ]);
    (metrics, sweep)
}

fn main() {
    let (metrics, (read_off, read_fast, read_hard)) = run_all();
    println!("=== offload hot path (host wall clock) ===");
    for (k, v) in &metrics {
        if *k == "bench_iters" {
            println!("{k:>24}: {v:10.0}");
        } else {
            println!("{k:>24}: {v:10.1} ns");
        }
    }
    println!("=== offload bypass sweep (host wall clock, read 64B) ===");
    println!("{:>24}: {read_off:10.1} ns", "offload");
    println!("{:>24}: {read_fast:10.1} ns", "bypass");
    println!("{:>24}: {read_hard:10.1} ns", "bypass+domains");
    println!(
        "{:>24}: {:10.1}x (floor {BYPASS_FLOOR}x)",
        "net win",
        read_off / read_hard
    );

    let Some(path) = bench::check_arg() else {
        let out = bench::bench_out("BENCH_offload.json");
        bench::write(&out, "fig_offload_hotpath", &metrics);
        return;
    };
    let gated: Vec<_> = metrics
        .iter()
        .filter(|(k, _)| *k != "bench_iters")
        .copied()
        .collect();
    let mut failed = bench::check(&bench::read(&path), &gated);
    // Both bypass floors bind the FRESH interleaved runs, not the
    // committed baseline: paying its domain-switch pair, the promoted
    // read must beat the offload round trip (measured as a pair) and the
    // offloaded read (measured in the sweep) by BYPASS_FLOOR. Each pair
    // of sides came from one interleaved run, so ambient load cannot
    // fake a verdict.
    let get = |name| metrics.iter().find(|(k, _)| *k == name).map(|m| m.1);
    let roundtrip = get("offload_roundtrip_ns").expect("measured");
    let bypass_read = get("bypass_read_ns").expect("measured");
    for (slow_path, slow, fast) in [
        ("offload roundtrip", roundtrip, bypass_read),
        ("offloaded read", read_off, read_hard),
    ] {
        if fast * BYPASS_FLOOR > slow {
            eprintln!(
                "BYPASS FLOOR: promoted read {fast:.1} ns is not {BYPASS_FLOOR}x faster \
                 than the {slow:.1} ns {slow_path}"
            );
            failed = true;
        } else {
            let win = slow / fast;
            println!("{:>24}: ok ({win:.1}x of {slow_path})", "bypass floor");
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("perf check passed (tolerance {}x)", bench::TOLERANCE);
}
